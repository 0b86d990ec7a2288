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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustic.fading import RayleighBlockFading
from repro.acoustic.geometry import Position
from repro.acoustic.per import RayleighBerPerModel
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
        assert events[True] == events[False] - 1

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
    heard = {m.node_id: [] for m in modems}
    sent = {m.node_id: [] for m in modems}
    for modem in modems:
        modem.on_rx_failure = lambda arr, out, i=modem.node_id: failures.append(
            (i, arr.src, arr.start, arr.end, out)
        )

        def begin(arrival, modem=modem, begin=modem.begin_arrival):
            if modem.enabled and modem.rx_enabled:
                heard[modem.node_id].append((arrival.start, arrival.end))
            begin(arrival)

        modem.begin_arrival = begin

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
