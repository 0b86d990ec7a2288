"""Certain-failure deferral and the draw-free threshold decode.

Under the threshold PER model an arrival whose level alone is below
``threshold + noise`` cannot decode; with ``defer_failures`` on it gets no
finish event and is settled from its overlap flags when pruned or at
:meth:`AcousticModem.settle`.  Settling must reproduce exactly the counts
and failure outcomes the full decode path gives.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acoustic.fading import RayleighBlockFading
from repro.acoustic.geometry import Position
from repro.acoustic.per import RayleighBerPerModel
from repro.des.events import PRIORITY_HIGH
from repro.des.simulator import Simulator
from repro.des.trace import Tracer
from repro.phy.channel import AcousticChannel
from repro.phy.frame import FrameType, control_frame, data_frame
from repro.phy.modem import RxOutcome


class _ExplodingRng:
    def random(self):
        raise AssertionError("threshold decode drew from channel.per")


class _CountingRng:
    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()


def _modems(channel, xs):
    return [
        channel.create_modem(i, lambda p=Position(x, 0, 0): p) for i, x in enumerate(xs)
    ]


class TestDrawFreeDecode:
    def test_threshold_decode_never_draws(self):
        sim = Simulator()
        channel = AcousticChannel(sim, interference_range_factor=2.0)
        channel.per_rng = _ExplodingRng()
        a, b, c = _modems(channel, [0.0, 1400.0, 2600.0])
        # b decodes a alone, then a and c collide at b.
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.schedule(5.0, a.transmit, data_frame(0, 1, 5.0, size_bits=2048))
        sim.schedule(5.0, c.transmit, data_frame(2, 1, 5.0, size_bits=2048))
        sim.run()
        assert b.stats.rx_ok >= 1
        assert b.stats.rx_collision >= 1

    def test_other_per_models_draw_once_per_decode(self):
        sim = Simulator()
        channel = AcousticChannel(sim, per_model=RayleighBerPerModel())
        counting = _CountingRng(channel.per_rng)
        channel.per_rng = counting
        a, b, c = _modems(channel, [0.0, 900.0, 1400.0])
        for k in range(5):
            sim.schedule(3.0 * k, a.transmit,
                         control_frame(FrameType.RTS, 0, 1, timestamp=3.0 * k))
        sim.run()
        decodes = sum(
            m.stats.rx_ok + m.stats.rx_noise + m.stats.rx_collision for m in (b, c)
        )
        assert decodes == 10
        assert counting.draws == decodes

    def test_deferral_needs_the_threshold_model_and_no_tracing(self):
        assert AcousticChannel(Simulator(), defer_failures=True).defer_below_db > -1e9
        assert AcousticChannel(Simulator()).defer_below_db == float("-inf")
        other = AcousticChannel(
            Simulator(), per_model=RayleighBerPerModel(), defer_failures=True
        )
        assert other.decode_threshold_db is None
        assert other.defer_below_db == float("-inf")
        traced = AcousticChannel(Simulator(tracer=Tracer()), defer_failures=True)
        assert traced.defer_below_db == float("-inf")


class TestSettlement:
    def test_beyond_range_arrival_fires_no_finish_event(self):
        events = {}
        for defer in (False, True):
            sim = Simulator()
            channel = AcousticChannel(
                sim, interference_range_factor=2.0, defer_failures=defer
            )
            a, b = _modems(channel, [0.0, 2500.0])
            failures = []
            b.on_rx_failure = lambda arr, out: failures.append(out)
            sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
            # With no finish event queued, a drained run would stop at the
            # arrival's start; run to a fixed end as a scenario does.
            sim.run(until=5.0)
            if defer:
                assert failures == []  # still pending until settled
                b.settle()
            assert failures == [RxOutcome.NOISE]
            assert b.audit_arrivals() == []
            events[defer] = sim.events_processed
        # Neither a begin event nor a finish event for the certain failure.
        assert events[True] == events[False] - 2

    def test_audit_reports_an_unsettled_arrival(self):
        sim = Simulator()
        channel = AcousticChannel(sim, interference_range_factor=2.0, defer_failures=True)
        a, b = _modems(channel, [0.0, 2500.0])
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.run(until=5.0)
        violations = b.audit_arrivals()
        assert len(violations) == 2  # the pending arrival, and the count gap
        b.settle()
        assert b.audit_arrivals() == []


class TestLazyRegistration:
    """Certain failures wait on their receiver's queue, with no begin event."""

    @staticmethod
    def _pair(defer):
        sim = Simulator()
        channel = AcousticChannel(sim, interference_range_factor=2.0, defer_failures=defer)
        a, b = _modems(channel, [0.0, 2500.0])
        return sim, a, b

    @pytest.mark.parametrize("flip_first", [True, False])
    def test_same_instant_event_keeps_kernel_order(self, flip_first):
        # b fails at exactly the instant a's beyond-range frame starts
        # arriving, at the arrival's own priority, so only the seqs order
        # them: failing first means the arrival never begins, failing
        # second means it begins and ends OFFLINE.
        probe_sim, probe_a, probe_b = self._pair(True)
        probe_a.transmit(control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        start = probe_b._queued[0][0]
        stats = {}
        for defer in (False, True):
            sim, a, b = self._pair(defer)

            def fail():
                b.enabled = False

            def schedule_fail():
                sim.schedule_at(start, fail, priority=PRIORITY_HIGH)

            if flip_first:
                schedule_fail()  # drawn before the arrival's seq
            sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
            if not flip_first:
                sim.schedule(0.0, schedule_fail)  # drawn after it
            sim.run(until=5.0)
            b.settle()
            assert b.audit_arrivals() == []
            stats[defer] = (dataclasses.asdict(b.stats), b.arrivals_begun)
        assert stats[True] == stats[False]
        assert stats[True][0]["rx_outage"] == (0 if flip_first else 1)
        assert stats[True][1] == (0 if flip_first else 1)

    def test_enabled_flip_hands_queued_arrivals_back_with_their_seqs(self):
        stats = {}
        for defer in (False, True):
            sim, a, b = self._pair(defer)
            handed = {}
            # Three frames reach b over [1.67, 2.01), [2.17, 2.51) and
            # [2.67, 3.01): at the flip the first has ended (NOISE), the
            # second is in flight (OFFLINE) and the third is still queued
            # (it never begins on a dead modem).
            for t in (0.0, 0.5, 1.0):
                sim.schedule(t, a.transmit, data_frame(0, 1, t, size_bits=4096))

            def fail():
                # Nothing has touched b yet, so all three are still queued;
                # the flip registers the two that began and hands back the
                # one still to come.
                handed["all"] = len(b._queued)
                handed["queued"] = [seq for start, seq, _ in b._queued if start > sim.now]
                b.enabled = False
                handed["kernel"] = sorted(
                    entry[2] for entry in sim._queue._heap
                    if entry[3] is None and entry[4] == b.begin_arrival
                )

            sim.schedule(2.3, fail)
            sim.run(until=5.0)
            b.settle()
            assert b.audit_arrivals() == []
            if defer:
                assert handed["all"] == 3
                assert len(handed["queued"]) == 1
                assert handed["kernel"] == handed["queued"]
                assert b._queued == []
            stats[defer] = (dataclasses.asdict(b.stats), b.arrivals_begun)
        assert stats[True] == stats[False]
        assert stats[True][0]["rx_noise"] == 1
        assert stats[True][0]["rx_outage"] == 1
        assert stats[True][1] == 2

    def test_catch_up_registers_a_whole_batch_before_pruning(self):
        # Nothing touches b until the end, so one catch-up registers all 25
        # arrivals: a lone one, then 12 pairs that overlap exactly.  A
        # prune between two registrations would settle the first of a pair
        # before its partner marks it, as NOISE instead of COLLISION.
        stats = {}
        for defer in (False, True):
            sim = Simulator()
            channel = AcousticChannel(
                sim, interference_range_factor=2.0, defer_failures=defer
            )
            a, b, c = _modems(channel, [0.0, 2500.0, 5000.0])
            sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
            for k in range(1, 13):
                t = 0.5 * k
                sim.schedule(t, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=t))
                sim.schedule(t, c.transmit, control_frame(FrameType.RTS, 2, 1, timestamp=t))
            sim.run(until=10.0)
            b.settle()
            assert b.audit_arrivals() == []
            stats[defer] = dataclasses.asdict(b.stats)
        assert stats[True] == stats[False]
        assert (stats[True]["rx_noise"], stats[True]["rx_collision"]) == (1, 24)

    def test_audit_reports_a_due_arrival_never_registered(self):
        sim, a, b = self._pair(True)
        b._catch_up = lambda: None  # a catch-up that registers nothing
        sim.schedule(0.0, a.transmit, control_frame(FrameType.RTS, 0, 1, timestamp=0.0))
        sim.run(until=5.0)
        b.settle()
        violations = b.audit_arrivals()
        assert len(violations) == 1
        assert "never registered" in violations[0]


# ----------------------------------------------------------------------
# Property: deferral on + settle == deferral off
# ----------------------------------------------------------------------
#: Receivers spread from well inside decode range (1.5 km) to the edge of
#: the interference reach (3 km), so every outcome kind occurs.
xs_st = st.lists(
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False), min_size=2, max_size=5
)
tx_st = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([64, 1024, 4096]),
    ),
    max_size=14,
)
toggle_st = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["enabled", "rx_enabled"]),
    ),
    max_size=3,
)


def _run(xs, txs, toggles, defer, fading):
    sim = Simulator()
    channel = AcousticChannel(
        sim,
        interference_range_factor=2.0,
        defer_failures=defer,
        pool_arrivals=True,
        fading=RayleighBlockFading(coherence_s=2.0, seed=3) if fading else None,
    )
    modems = _modems(channel, xs)
    failures = []
    # Brute-force reference: every registered arrival and own transmission
    # per modem, to check the overlap flags independently of the modem.
    # Registrations are recorded at the one registration path, which both
    # begin events and the lazy catch-up of queued certain failures take.
    heard = {m.node_id: [] for m in modems}
    sent = {m.node_id: [] for m in modems}
    for modem in modems:
        modem.on_rx_failure = lambda arr, out, i=modem.node_id: failures.append(
            (i, arr.src, arr.start, arr.end, out)
        )

        def register(arrival, heard=heard[modem.node_id], register=modem._register):
            heard.append((arrival.start, arrival.end))
            register(arrival)

        modem._register = register

    def send(modem, size_bits):
        if modem.enabled and not modem.transmitting:
            now = sim.now
            duration = modem.transmit(
                data_frame(modem.node_id, 0, now, size_bits=size_bits)
            )
            sent[modem.node_id].append((now, now + duration))

    def flip(modem, flag):
        setattr(modem, flag, not getattr(modem, flag))

    for t, who, size_bits in txs:
        sim.schedule(t, send, modems[who % len(modems)], size_bits)
    for t, who, flag in toggles:
        sim.schedule(t, flip, modems[who % len(modems)], flag)
    sim.run(until=10.0)
    for modem in modems:
        modem.settle()
        assert modem.audit_arrivals() == []
    for i, _, start, end, outcome in failures:
        own_tx = any(s < end and e > start for s, e in sent[i])
        overlap = sum(s < end and e > start for s, e in heard[i]) > 1
        assert (outcome is RxOutcome.HALF_DUPLEX) == own_tx
        if not own_tx:
            assert (outcome is RxOutcome.COLLISION) == overlap
    stats = [dataclasses.asdict(m.stats) for m in modems]
    return stats, Counter(failures), sim.events_processed


@given(xs=xs_st, txs=tx_st, toggles=toggle_st, fading=st.booleans())
@example(xs=[1586.0, 1593.0, 0.0], txs=[(0.0, 0, 64), (0.0, 1, 64)], toggles=[],
         fading=False)
@example(xs=[0.0, 0.0, 1593.0], txs=[(0.0, 0, 64), (0.0, 1, 64)], toggles=[],
         fading=False)
@settings(max_examples=120, deadline=None)
def test_deferred_settlement_matches_full_decode(xs, txs, toggles, fading):
    stats_on, failures_on, events_on = _run(xs, txs, toggles, True, fading)
    stats_off, failures_off, events_off = _run(xs, txs, toggles, False, fading)
    assert stats_on == stats_off
    assert failures_on == failures_off
    assert events_on <= events_off


@pytest.mark.parametrize("flag", ["enabled", "rx_enabled"])
def test_outage_flip_hands_pending_arrivals_back_to_finish_events(flag):
    # An arrival in flight when its receiver goes down is OFFLINE at its
    # end; a deferred one must not be settled as NOISE instead.
    outcomes = {}
    for defer in (False, True):
        stats, _, _ = _run(
            [0.0, 2500.0], [(0.0, 0, 4096)], [(1.8, 1, flag)], defer, False
        )
        outcomes[defer] = stats[1]
    assert outcomes[True] == outcomes[False]
    assert outcomes[True]["rx_outage"] == 1
    assert outcomes[True]["rx_noise"] == 0
