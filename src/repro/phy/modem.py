"""Half-duplex acoustic modem.

Implements the paper's antenna constraints (Sec. 3.2):

* "a sensor cannot transmit and receive simultaneously" — any arrival that
  overlaps one of this modem's transmissions is lost (HALF_DUPLEX);
* "the antenna remains in the receive state when it is not transmitting" —
  the modem always listens, and the attached MAC receives *every*
  successfully decoded frame, addressed to it or not (overhearing is how
  all four protocols learn about neighbours' negotiations);
* "the collision occurs when two or more packets arrive at a sensor at the
  same time" — overlapping arrivals interfere; the SINR/PER models decide
  whether either survives (with the default threshold model, overlap of
  comparable-power arrivals destroys both).

Deferred settlement.  Under the calibrated threshold model
(:class:`~repro.acoustic.per.DefaultPerModel`) PER is exactly 0 or 1, so a
decode is the comparison ``sinr_db >= threshold_db`` and the uniform draw
that :meth:`~repro.acoustic.per.PerModel.is_successful` takes cannot
change its answer; the modem skips that draw.  Interference and extra
noise only lower SINR, so an arrival whose level alone is below
``threshold + noise`` (a *certain failure* — typically a signal the
interference range delivers from beyond decode range) cannot decode at
all.  When the channel enables deferral, such an arrival is registered
exactly like any other (it interferes, and counts toward busy time) but
gets no finish event and no decode: two flags recorded as arrivals begin
and transmissions start fix its outcome, and it is *settled* — counted
and reported through :attr:`AcousticModem.on_rx_failure` — when the
receiver prunes it, or by :meth:`AcousticModem.settle` at the end of a
run.  Outcome counts are identical to decoding it at its end; only the
moment of the failure callback moves.

Lazy registration.  A certain failure needs no kernel event to begin
either.  The channel pushes it onto its receiver's small queue of
``(start, seq, arrival)`` entries, with the seq its begin event would have
drawn from the kernel, so no other event's place in the global order
moves.  Before any method that reads or changes arrival state
(:meth:`~AcousticModem.begin_arrival`, the finish event,
:meth:`~AcousticModem.transmit`, :meth:`~AcousticModem.settle`,
:meth:`~AcousticModem.audit_arrivals` and the outage setters) the modem
*catches up*: it registers, in key order, every queued arrival whose begin
key ``(start, PRIORITY_HIGH, seq)`` the kernel has passed — it sorts
before the entry now firing, or, outside a run, starts no later than now.
Registration is the same code an event-driven begin runs, and nothing it
reads can change between the begin key and the catch-up, so every flag,
busy-time sum and outcome is exactly what the begin event would have
produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from ..des.events import PRIORITY_HIGH
from ..des.simulator import Simulator
from .frame import Frame

if TYPE_CHECKING:  # pragma: no cover
    from .channel import AcousticChannel

#: Cap on the shared Arrival free-list (see ``AcousticChannel.arrival_pool``),
#: read once when a modem is constructed; 0 disables recycling.
ARRIVAL_POOL_CAP = 4096

#: Smallest pending-arrival list that deferred registrations let grow
#: before pruning again.
_MIN_PRUNE_LEN = 16


class RxOutcome(Enum):
    """Why an arrival was or was not decoded."""

    OK = "ok"
    HALF_DUPLEX = "half_duplex"
    COLLISION = "collision"
    NOISE = "noise"
    OFFLINE = "offline"  # modem dead or RX chain in an injected outage


@dataclass
class Arrival:
    """One signal arriving at a modem.

    A broadcast fans one Arrival out per in-range receiver, so these are
    the most-allocated objects in a simulation after events; ``__slots__``
    (declared manually for Python 3.9 compatibility) keeps them small and
    their field reads cheap in the overlap scans.

    Attributes:
        frame: The frame carried by the signal.
        src: Transmitting node id.
        start: Arrival start time (tx start + propagation delay).
        end: Arrival end time (start + on-air duration).
        level_db: Received signal level at this modem.
        delay_s: One-way propagation delay the signal experienced.

    Three extra slots (not dataclass fields) are written by the receiving
    modem when the arrival begins:

    * ``_hit`` — another registered arrival overlaps this one.  An
      arrival sets its own flag when it begins while an earlier one is
      still on air, and sets the flag of the pending list's tail (the
      arrival that began just before it) when it starts before that
      tail ends.  Arrivals begin in start order, so this covers every
      overlapping pair: if B begins before A ends, A's immediate
      successor began no later than B, so also before A ended, and
      marked A.  A decode with ``_hit`` false needs no interferer scan.
    * ``_hd`` — one of the modem's own transmissions overlaps this
      arrival (HALF_DUPLEX): set at begin when a transmission is still on
      air, and by every later transmission that starts before the
      arrival ends.
    * ``_deferred`` — a certain failure awaiting settlement (see the
      module docstring): its outcome is HALF_DUPLEX if ``_hd``, else
      COLLISION if ``_hit``, else NOISE.
    """

    __slots__ = ("frame", "src", "start", "end", "level_db", "delay_s",
                 "_hit", "_hd", "_deferred")

    frame: Frame
    src: int
    start: float
    end: float
    level_db: float
    delay_s: float


@dataclass
class ModemStats:
    """Per-modem counters consumed by the metrics layer."""

    tx_frames: int = 0
    tx_bits: int = 0
    tx_time_s: float = 0.0
    rx_ok: int = 0
    rx_ok_bits: int = 0
    rx_half_duplex: int = 0
    rx_collision: int = 0
    rx_noise: int = 0
    rx_busy_time_s: float = 0.0
    # fault-injection counters
    tx_suppressed: int = 0
    rx_outage: int = 0

    def outcome_count(self, outcome: RxOutcome) -> int:
        return {
            RxOutcome.OK: self.rx_ok,
            RxOutcome.HALF_DUPLEX: self.rx_half_duplex,
            RxOutcome.COLLISION: self.rx_collision,
            RxOutcome.NOISE: self.rx_noise,
            RxOutcome.OFFLINE: self.rx_outage,
        }[outcome]


class AcousticModem:
    """The half-duplex transceiver owned by one sensor node.

    The MAC layer attaches via :attr:`on_receive` (called with every decoded
    frame and its :class:`Arrival`) and optionally :attr:`on_rx_failure`
    (called with failed arrivals, used by tests and collision metrics).
    """

    def __init__(self, sim: Simulator, node_id: int, channel: "AcousticChannel") -> None:
        self.sim = sim
        self.node_id = node_id
        self.channel = channel
        # Failure injection (see the ``enabled``/``rx_enabled`` properties).
        self._enabled = True
        self._rx_enabled = True
        #: Partial outage: a disabled TX chain silently swallows
        #: transmissions.  The MAC keeps running and must recover through
        #: its own timeouts — unlike ``enabled``, this never raises.
        self.tx_enabled = True
        self.stats = ModemStats()
        # The tracer is fixed at Simulator construction, so its enabled flag
        # can be cached: every emit call site below evaluates its arguments
        # (``frame.describe()`` string building in particular) eagerly, and
        # the receive path emits once per arrival — guarding on a cached
        # bool keeps disabled-trace runs from paying for any of it.
        self._trace = sim.trace
        self._trace_on = sim.trace.enabled
        # The channel's collaborators are fixed before any modem exists
        # (the PER model is built in the channel constructor), so the
        # decode path — run once per arrival — reads them through locals
        # cached here instead of three attribute chains per decode.
        self._link_budget = channel.link_budget
        self._per_model = channel.per_model
        self._per_rng = channel.per_rng
        self._threshold_db = channel.decode_threshold_db
        self._defer_below_db = channel.defer_below_db
        self._push_at = sim.push_at
        self._pool_cap = ARRIVAL_POOL_CAP
        self.on_receive: Optional[Callable[[Frame, Arrival], None]] = None
        self.on_rx_failure: Optional[Callable[[Arrival, RxOutcome], None]] = None
        self._arrivals: List[Arrival] = []
        #: Certain failures not yet registered, as a min-heap of
        #: ``(start, seq, arrival)`` (see "Lazy registration" above).
        self._queued: List[Tuple[float, int, Arrival]] = []
        # List length at which deferred registrations next prune: deferred
        # arrivals fire no finish event, so nothing else would trim a list
        # that only they feed.
        self._prune_at = _MIN_PRUNE_LEN
        #: Arrivals that reached this modem while it was alive (registered
        #: or dropped by an RX outage); the end-of-run audit balances the
        #: outcome counters against it.
        self.arrivals_begun = 0
        self._rx_busy_until = 0.0
        self._last_tx_end = 0.0
        # Longest on-air duration seen (tx or rx).  Anything that ended more
        # than this long ago cannot overlap an arrival still in flight — an
        # in-flight arrival started at most one duration before now — so it
        # is the exact retention horizon for the overlap scans.  Keeping the
        # arrival list this tight turns _decode_outcome's interferer scan
        # from O(arrivals within 30 s) into O(arrivals within one frame).
        self._max_duration_s = 0.0

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """False once the node has failed: it neither sends nor receives."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        if value != self._enabled:
            self._stop_deferring()
            self._enabled = value

    @property
    def rx_enabled(self) -> bool:
        """False during an RX-chain outage: arrivals are dropped as OFFLINE
        and the MAC must recover through its own timeouts."""
        return self._rx_enabled

    @rx_enabled.setter
    def rx_enabled(self, value: bool) -> None:
        if value != self._rx_enabled:
            self._stop_deferring()
            self._rx_enabled = value

    def _stop_deferring(self) -> None:
        """Fall back to kernel events for good, before an outage flag flips.

        An arrival's outcome depends on the flags at its end, which a
        deferred arrival cannot know in advance.  Those that already ended
        are settled under the current flags; the rest get the finish event
        they skipped, which decodes them under the flags of their end (one
        ending at this very instant is treated as ending after the flip).
        Arrivals still queued go back to the kernel as ordinary begin
        events with their reserved seqs, so they begin under the flags of
        their start, exactly where their begin events would have fired.
        """
        if self._defer_below_db == float("-inf"):
            return
        self._catch_up()
        self._defer_below_db = float("-inf")
        now = self.sim.now
        for arrival in self._arrivals:
            if arrival._deferred:
                arrival._deferred = False
                if arrival.end < now:
                    self._settle_failure(arrival)
                else:
                    self._push_at(arrival.end, self._finish_arrival, (arrival,))
        push_reserved = self.sim.push_reserved
        for start, seq, arrival in self._queued:
            push_reserved(start, PRIORITY_HIGH, seq, self.begin_arrival, (arrival,))
        self._queued = []

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    @property
    def transmitting(self) -> bool:
        """True while a transmission is on the wire.

        Transmissions are serialized (:meth:`transmit` refuses to overlap)
        and simulation time never runs backwards, so "inside any interval"
        reduces to "before the end of the latest one": earlier intervals
        ended at or before the latest one started, and a query can never
        precede the latest interval's start.
        """
        return self.sim.now < self._last_tx_end

    def tx_end_time(self) -> float:
        """End time of the latest transmission (or 0.0 if none yet)."""
        return self._last_tx_end

    def transmit(self, frame: Frame) -> float:
        """Send ``frame`` now; returns its on-air duration.

        Raises RuntimeError if a transmission is already in progress — MAC
        protocols are responsible for serializing their own transmissions,
        and violating that is always a protocol bug worth failing loudly on.
        """
        queued = self._queued
        if queued and queued[0][0] <= self.sim.now:
            self._catch_up()
        if not self._enabled:
            raise RuntimeError(f"node {self.node_id}: transmit on a failed modem")
        if self.transmitting:
            raise RuntimeError(
                f"node {self.node_id}: transmit({frame.describe()}) while "
                "already transmitting"
            )
        if not self.tx_enabled:
            # TX-chain outage: the frame is lost in the dead amplifier.
            # Unlike a dead modem this is not a protocol bug — the MAC's
            # own retry/timeout machinery is expected to absorb it.
            self.stats.tx_suppressed += 1
            if self._trace_on:
                self._trace.emit(
                    self.sim.now, "phy.tx_suppressed", self.node_id, frame=frame.describe()
                )
            return 0.0
        duration = frame.duration_s(self.channel.bitrate_bps)
        now = self.sim.now
        tx_end = now + duration
        frame.timestamp = now
        self._last_tx_end = tx_end
        if duration > self._max_duration_s:
            self._max_duration_s = duration
        # Every arrival still on air overlaps this transmission (the
        # half-open test ``tx.start < a.end and tx.end > a.start``).
        for arrival in self._arrivals:
            if arrival.end > now and tx_end > arrival.start:
                arrival._hd = True
        self.stats.tx_frames += 1
        self.stats.tx_bits += frame.size_bits
        self.stats.tx_time_s += duration
        if self._trace_on:
            self._trace.emit(
                now, "phy.tx", self.node_id, frame=frame.describe(), dur=round(duration, 6)
            )
        self.channel.broadcast(self, frame, duration)
        return duration

    # ------------------------------------------------------------------
    # Receive path (driven by the channel)
    # ------------------------------------------------------------------
    def begin_arrival(self, arrival: Arrival) -> None:
        """Channel callback: a signal's leading edge reached this modem."""
        queued = self._queued
        if queued and queued[0][0] <= self.sim.now:
            self._catch_up()
        if not self._enabled:
            return
        if not self._rx_enabled:
            self.arrivals_begun += 1
            self.stats.rx_outage += 1
            # No finish event will ever fire for this arrival, so it can go
            # straight back to the free-list when pooling is on.
            pool = self.channel.arrival_pool
            if pool is not None and len(pool) < self._pool_cap:
                pool.append(arrival)
            return
        self._register(arrival)
        if arrival.level_db < self._defer_below_db:
            # Certain failure the channel did not queue (it begins the
            # instant it is sent): settled from its flags when pruned.
            arrival._deferred = True
            self._prune_deferred()
            return
        arrival._deferred = False
        # Fast-path push: the end time is trivially >= now, so the
        # schedule_at validation wrapper adds nothing but a call frame.
        self._push_at(arrival.end, self._finish_arrival, (arrival,))

    def _register(self, arrival: Arrival) -> None:
        """Register a beginning arrival: overlap flags, busy time, pending list.

        The one registration path, for event-driven begins and for queued
        certain failures caught up later alike.
        """
        self.arrivals_begun += 1
        arrivals = self._arrivals
        start = arrival.start
        end = arrival.end
        busy_from = self._rx_busy_until
        # Overlap flags (see Arrival): _rx_busy_until is the latest end of
        # any registered arrival, _last_tx_end that of any transmission.
        arrival._hit = busy_from > start
        if arrivals and arrivals[-1].end > start:
            arrivals[-1]._hit = True
        arrival._hd = self._last_tx_end > start
        arrivals.append(arrival)
        duration = end - start
        if duration > self._max_duration_s:
            self._max_duration_s = duration
        # Accumulate receiver-busy time as interval union (overlaps counted once).
        if busy_from < start:
            busy_from = start
        if end > busy_from:
            self.stats.rx_busy_time_s += end - busy_from
            self._rx_busy_until = end

    def _prune_deferred(self) -> None:
        """Prune once the list that deferred registrations feed has doubled."""
        if len(self._arrivals) >= self._prune_at:
            self._prune_arrivals()
            self._prune_at = max(2 * len(self._arrivals), _MIN_PRUNE_LEN)

    def _begun(self, start: float, seq: int) -> bool:
        """Whether the kernel has passed a queued arrival's begin key.

        The key ``(start, PRIORITY_HIGH, seq)`` has been passed when it
        sorts before the entry now firing, or, outside a run, when
        ``start <= now``.
        """
        now = self.sim.now
        if start != now:
            return start < now
        firing = self.sim.firing
        if firing is None:
            return True
        priority = firing[1]
        return PRIORITY_HIGH < priority or (PRIORITY_HIGH == priority and seq < firing[2])

    def _catch_up(self) -> None:
        """Register, in key order, every queued arrival the kernel has passed.

        The whole batch registers before any prune: a prune between two
        registrations could drop the tail whose ``_hit`` the next one sets.
        """
        queued = self._queued
        now = self.sim.now
        registered = False
        while queued:
            start, seq, arrival = queued[0]
            if start >= now and not self._begun(start, seq):
                break
            heappop(queued)
            self._register(arrival)
            arrival._deferred = True
            registered = True
        if registered:
            self._prune_deferred()

    def _finish_arrival(self, arrival: Arrival) -> None:
        queued = self._queued
        if queued and queued[0][0] <= self.sim.now:
            self._catch_up()
        if not self._enabled or not self._rx_enabled:
            # The node died (or its RX chain dropped) while this signal was
            # in flight: nothing is decoded and no RNG is drawn, so clean
            # runs — where both flags are always True — are untouched.
            self.stats.rx_outage += 1
            self._prune_arrivals()
            if self._trace_on:
                self._trace.emit(
                    self.sim.now,
                    "phy.rx_fail",
                    self.node_id,
                    frame=arrival.frame.describe(),
                    why=RxOutcome.OFFLINE.value,
                )
            return
        outcome = self._decode_outcome(arrival)
        self._prune_arrivals()
        if outcome is RxOutcome.OK:
            self.stats.rx_ok += 1
            self.stats.rx_ok_bits += arrival.frame.size_bits
            if self._trace_on:
                self._trace.emit(
                    self.sim.now, "phy.rx", self.node_id, frame=arrival.frame.describe()
                )
            if self.on_receive is not None:
                self.on_receive(arrival.frame, arrival)
        else:
            self._count_failure(outcome)
            if self._trace_on:
                self._trace.emit(
                    self.sim.now,
                    "phy.rx_fail",
                    self.node_id,
                    frame=arrival.frame.describe(),
                    why=outcome.value,
                )
            if self.on_rx_failure is not None:
                self.on_rx_failure(arrival, outcome)

    def _decode_outcome(self, arrival: Arrival) -> RxOutcome:
        # Half-duplex: any own transmission overlapping the arrival kills it.
        if arrival._hd:
            return RxOutcome.HALF_DUPLEX
        a_start = arrival.start
        a_end = arrival.end
        if arrival._hit:
            interferer_levels = [
                other.level_db
                for other in self._arrivals
                if other is not arrival and other.start < a_end and other.end > a_start
            ]
        else:
            interferer_levels = []
        sinr_db = self._link_budget.sinr_db_from_levels(
            arrival.level_db,
            interferer_levels,
            extra_noise_db=self.channel.extra_noise_db,
        )
        threshold_db = self._threshold_db
        if threshold_db is not None:
            ok = sinr_db >= threshold_db
        else:
            ok = self._per_model.is_successful(
                sinr_db, arrival.frame.size_bits, self._per_rng.random()
            )
        if ok:
            return RxOutcome.OK
        return RxOutcome.COLLISION if interferer_levels else RxOutcome.NOISE

    def _count_failure(self, outcome: RxOutcome) -> None:
        if outcome is RxOutcome.HALF_DUPLEX:
            self.stats.rx_half_duplex += 1
        elif outcome is RxOutcome.COLLISION:
            self.stats.rx_collision += 1
        else:
            self.stats.rx_noise += 1

    def _settle_failure(self, arrival: Arrival) -> None:
        """Count and report a deferred arrival's failure."""
        if arrival._hd:
            outcome = RxOutcome.HALF_DUPLEX
        elif arrival._hit:
            outcome = RxOutcome.COLLISION
        else:
            outcome = RxOutcome.NOISE
        self._count_failure(outcome)
        if self.on_rx_failure is not None:
            self.on_rx_failure(arrival, outcome)

    def settle(self) -> None:
        """Settle every deferred arrival that has ended by now.

        Call at the end of a run: these are the arrivals whose finish
        events the run would have fired, so afterwards the outcome
        counters are final.  Arrivals still on air stay pending.
        """
        self._catch_up()
        now = self.sim.now
        for arrival in self._arrivals:
            if arrival._deferred and arrival.end <= now:
                arrival._deferred = False
                self._settle_failure(arrival)

    def audit_arrivals(self) -> List[str]:
        """End-of-run arrival conservation check (empty list = clean).

        After :meth:`settle`, every arrival that reached this modem has
        ended with exactly one outcome count, unless it is still on air,
        and no queued arrival that the kernel has passed is unregistered.
        """
        self._catch_up()
        now = self.sim.now
        violations = [
            f"node {self.node_id}: arrival from {arrival.src} began at "
            f"{start:.6f} s but was never registered"
            for start, seq, arrival in self._queued
            if self._begun(start, seq)
        ]
        on_air = 0
        for arrival in self._arrivals:
            if arrival.end > now:
                on_air += 1
            elif arrival._deferred:
                violations.append(
                    f"node {self.node_id}: arrival from {arrival.src} ended at "
                    f"{arrival.end:.6f} s but was never settled"
                )
        s = self.stats
        settled = s.rx_ok + s.rx_noise + s.rx_collision + s.rx_half_duplex + s.rx_outage
        if settled != self.arrivals_begun - on_air:
            violations.append(
                f"node {self.node_id}: {settled} arrival outcomes for "
                f"{self.arrivals_begun} arrivals begun, {on_air} still on air"
            )
        return violations

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def _prune_arrivals(self) -> None:
        arrivals = self._arrivals
        horizon = self.sim.now - self._max_duration_s
        if not arrivals or arrivals[0].end >= horizon:
            return
        # Arrivals past the horizon can no longer overlap anything, and
        # their finish events have fired (they end before the horizon,
        # which trails now).  A deferred one is settled here, in place of
        # the finish event it never had.  With pooling on the records are
        # then recycled — no MAC retains arrivals past its receive callback.
        pool = self.channel.arrival_pool
        cap = self._pool_cap
        kept: List[Arrival] = []
        for a in arrivals:
            if a.end >= horizon:
                kept.append(a)
                continue
            if a._deferred:
                self._settle_failure(a)
            if pool is not None and len(pool) < cap:
                pool.append(a)
        self._arrivals = kept
