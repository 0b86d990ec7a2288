"""Shared broadcast acoustic medium.

The channel connects every registered modem: a transmission is delivered to
each other modem within reception range as an :class:`Arrival` whose start
is offset by the pair's propagation delay and whose level comes from the
link budget.  Node positions are supplied by callables so mobility models
can move nodes without the channel knowing about them.

Range semantics follow the paper: a hard communication range (Table 2:
1.5 km) bounds who can hear whom, matching "the collision occurs when two
or more packets [from neighbours] arrive at a sensor at the same time".
An optional ``interference_range_factor > 1`` extends delivery (at reduced
level) to model interference reaching past the decode range — used in
robustness ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..acoustic.fading import FadingProcess, NoFading
from ..acoustic.geometry import Position
from ..acoustic.per import DefaultPerModel, PerModel
from ..acoustic.propagation import PropagationModel, StraightLinePropagation
from ..acoustic.sinr import LinkBudget
from ..des.events import PRIORITY_HIGH
from ..des.simulator import Simulator
from .frame import Frame
from .linkcache import LinkStateCache
from .modem import ARRIVAL_POOL_CAP, AcousticModem, Arrival

#: Paper Table 2 defaults.
DEFAULT_BITRATE_BPS = 12_000.0
DEFAULT_RANGE_M = 1500.0


@dataclass
class ChannelStats:
    """Aggregate channel counters.

    ``cache_hits`` / ``cache_misses`` count link-state pair lookups (both
    stay 0 when the cache is disabled); their ratio is the headline number
    of the perf instrumentation layer.  ``vector_batches`` counts vectorized
    kernel passes (row builds plus partial refreshes) and ``rows_refreshed``
    counts stale rows brought back up to date — a static cell shows builds
    only (``rows_refreshed == 0``) while a mobile cell accumulates refreshes
    every mobility tick.

    The spatial-hash counters describe the reach cull: ``grid_candidates``
    accumulates the candidate-set size (3x3x3 cell neighborhood, excluding
    self) per broadcast — divide by ``broadcasts`` for the mean scan width,
    versus ``n - 1`` for the full scan — and ``grid_cells`` is a gauge of
    currently occupied cells.  ``rows_skipped_delta`` counts stale pair
    recomputes skipped by the movement-bounded delta-epoch test (the pair
    was cached so deep out of reach that the endpoints' accumulated motion
    could not have brought it back in reach).
    """

    broadcasts: int = 0
    deliveries: int = 0
    out_of_range_skips: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    vector_batches: int = 0
    rows_refreshed: int = 0
    grid_candidates: int = 0
    grid_cells: int = 0
    rows_skipped_delta: int = 0
    #: Always 0: no mechanism skips in-reach pairs.  Kept only because the
    #: traced benchmark run (``perfbench/layers.py``) reads it.
    rows_skipped_inreach: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of link-state lookups served from cache (0 if none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


class AcousticChannel:
    """Broadcast medium binding modems, propagation and the link budget.

    Args:
        sim: The simulation kernel.
        bitrate_bps: Channel bitrate (paper: 12 kbps).
        max_range_m: Hard communication range (paper: 1.5 km).
        propagation: Delay model (defaults to straight line at 1500 m/s).
        link_budget: SINR link budget for received levels.
        per_model: Packet error model (defaults to NS-3-style threshold).
        interference_range_factor: Deliver (as interference) up to
            ``factor * max_range_m``; 1.0 reproduces the paper's model.
        use_link_cache: Route geometry queries through the epoch-invalidated
            :class:`LinkStateCache` (bit-identical results either way; the
            flag exists for the equivalence tests and A/B profiling).
        use_spatial_grid: Cull broadcast rows to the 3x3x3 spatial-hash
            neighborhood of the transmitter (bit-identical; A/B flag).
            Ignored when the link cache is off.
        use_delta_epochs: Skip recomputing stale pairs whose accumulated
            endpoint motion provably cannot have brought them back in
            reach (bit-identical; A/B flag).  Ignored without the cache.
        pool_arrivals: Recycle :class:`Arrival` objects through a
            free-list (repopulated at modem prune time) instead of
            allocating one per delivery.  Off by default because external
            callers may legitimately retain Arrival references past the
            receive callback; the scenario layer — whose MACs never do —
            turns it on via ``ScenarioConfig.arrival_pool``.
        arrival_pool_cap: Upper bound on free-listed Arrivals, so
            pathological delivery bursts cannot pin memory
            (``ScenarioConfig.arrival_pool_cap``).
    """

    def __init__(
        self,
        sim: Simulator,
        bitrate_bps: float = DEFAULT_BITRATE_BPS,
        max_range_m: float = DEFAULT_RANGE_M,
        propagation: Optional[PropagationModel] = None,
        link_budget: Optional[LinkBudget] = None,
        per_model: Optional[PerModel] = None,
        interference_range_factor: float = 1.0,
        fading: Optional[FadingProcess] = None,
        use_link_cache: bool = True,
        use_spatial_grid: bool = True,
        use_delta_epochs: bool = True,
        pool_arrivals: bool = False,
        arrival_pool_cap: int = ARRIVAL_POOL_CAP,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if max_range_m <= 0:
            raise ValueError("range must be positive")
        if interference_range_factor < 1.0:
            raise ValueError("interference_range_factor must be >= 1")
        if arrival_pool_cap < 0:
            raise ValueError("arrival_pool_cap must be >= 0")
        self.sim = sim
        self.bitrate_bps = bitrate_bps
        self.max_range_m = max_range_m
        self.propagation = propagation or StraightLinePropagation()
        self.link_budget = link_budget or LinkBudget()
        if per_model is None:
            # Calibrate the decode threshold so the decode range equals the
            # configured communication range: a lone frame decodes iff it
            # was sent from within max_range_m, while signals from farther
            # out (when interference_range_factor > 1) act as interference.
            per_model = DefaultPerModel(
                # 0.5 dB margin so a frame from exactly max_range_m decodes
                # despite floating-point dB/linear round-trips.
                threshold_db=self.link_budget.snr_db(max_range_m) - 0.5
            )
        self.per_model = per_model
        self.interference_range_factor = interference_range_factor
        self.fading = fading if fading is not None else NoFading()
        # NoFading contributes exactly 0 dB; skipping the call entirely
        # keeps the broadcast loop free of a per-receiver virtual dispatch.
        self._fading_active = not isinstance(self.fading, NoFading)
        self.per_rng = sim.streams.get("channel.per")
        #: Transient network-wide noise-floor elevation in dB (fault
        #: injection: ship-noise windows).  0.0 — always, in clean runs —
        #: leaves every decode arithmetically untouched; noise bursts
        #: raise and later restore it.
        self.extra_noise_db = 0.0
        self.stats = ChannelStats()
        self._members: Dict[int, Tuple[AcousticModem, Callable[[], Position]]] = {}
        #: Shared Arrival free-list (None = pooling disabled).  Modems
        #: return pruned arrivals here; ``_fan_out`` reuses them in place
        #: of fresh allocations.  Bounded so pathological bursts cannot
        #: pin memory.
        self.arrival_pool: Optional[list] = [] if pool_arrivals else None
        self.arrival_pool_cap = arrival_pool_cap
        self.link_cache: Optional[LinkStateCache] = None
        if use_link_cache:
            self.link_cache = LinkStateCache(
                self._members,
                self.propagation,
                self.link_budget,
                self.max_range_m,
                self.max_range_m * self.interference_range_factor,
                self.stats,
                use_spatial_grid=use_spatial_grid,
                use_delta_epochs=use_delta_epochs,
            )

    # ------------------------------------------------------------------
    def create_modem(self, node_id: int, position_fn: Callable[[], Position]) -> AcousticModem:
        """Create, register and return a modem for ``node_id``."""
        if node_id in self._members:
            raise ValueError(f"node id {node_id} already registered")
        modem = AcousticModem(self.sim, node_id, self)
        self._members[node_id] = (modem, position_fn)
        if self.link_cache is not None:
            self.link_cache.add_node(node_id)
        return modem

    def note_position_change(self, node_id: Optional[int] = None) -> None:
        """Invalidate cached link state for a moved node.

        With a ``node_id`` only that node's epoch bumps, so every pair not
        touching it stays warm (the point of per-node epochs); with ``None``
        every epoch bumps and all positions are re-read — the conservative
        form for callers that mutated positions out-of-band.
        """
        if self.link_cache is not None:
            self.link_cache.invalidate(node_id)

    def position_of(self, node_id: int) -> Position:
        """Current position of a registered node."""
        return self._members[node_id][1]()

    def modem_of(self, node_id: int) -> AcousticModem:
        return self._members[node_id][0]

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(self._members.keys())

    def distance_m(self, a: int, b: int) -> float:
        """Current geometric distance between two registered nodes."""
        if self.link_cache is not None:
            return self.link_cache.link(a, b).distance_m
        return self.position_of(a).distance_to(self.position_of(b))

    def propagation_delay_s(self, a: int, b: int) -> float:
        """Ground-truth propagation delay between two registered nodes."""
        if self.link_cache is not None:
            return self.link_cache.link(a, b).delay_s
        return self.propagation.delay_s(
            self.position_of(a), self.position_of(b), pair=(a, b)
        )

    def neighbors_of(self, node_id: int) -> Tuple[int, ...]:
        """Ground-truth one-hop neighbours (in decode range, alive) now."""
        if self.link_cache is not None:
            # Geometry comes from the cache; liveness is read fresh so
            # failure injection is reflected without an epoch bump.
            members = self._members
            return tuple(
                other
                for other in self.link_cache.in_range_ids(node_id)
                if members[other][0].enabled
            )
        origin = self.position_of(node_id)
        return tuple(
            other
            for other, (modem, pos_fn) in self._members.items()
            if other != node_id
            and modem.enabled
            and origin.distance_to(pos_fn()) <= self.max_range_m
        )

    # ------------------------------------------------------------------
    def broadcast(self, tx_modem: AcousticModem, frame: Frame, duration_s: float) -> None:
        """Deliver ``frame`` to every modem in range, after propagation.

        Both paths produce an identical in-reach target list — the cached
        one from the vector kernel's precomputed per-row fan-out, the
        uncached one from a fresh scalar scan — and hand it to the shared
        :meth:`_fan_out`, so Arrival construction and scheduling cannot
        diverge between them.
        """
        self.stats.broadcasts += 1
        tx_id = tx_modem.node_id
        cache = self.link_cache
        if cache is not None:
            row = cache.broadcast_row(tx_id)
            targets = cache.deliveries(row)
            self.stats.out_of_range_skips += row.skips
            self.stats.grid_candidates += row.candidate_count
            self._fan_out(tx_id, frame, duration_s, targets)
            return
        tx_pos = self.position_of(tx_id)
        reach = self.max_range_m * self.interference_range_factor
        targets = []
        skips = 0
        for node_id, (modem, pos_fn) in self._members.items():
            if node_id == tx_id:
                continue
            rx_pos = pos_fn()
            distance = tx_pos.distance_to(rx_pos)
            if distance > reach:
                skips += 1
                continue
            targets.append(
                (
                    node_id,
                    modem,
                    self.propagation.delay_s(tx_pos, rx_pos, pair=(tx_id, node_id)),
                    self.link_budget.received_level_db(distance),
                )
            )
        self.stats.out_of_range_skips += skips
        self._fan_out(tx_id, frame, duration_s, targets)

    def _fan_out(
        self,
        tx_id: int,
        frame: Frame,
        duration_s: float,
        targets: "list[Tuple[int, AcousticModem, float, float]]",
    ) -> None:
        """Schedule one Arrival per in-reach target ``(id, modem, delay, level)``."""
        now = self.sim.now
        stats = self.stats
        push_at = self.sim.push_at
        fading_active = self._fading_active
        pool = self.arrival_pool
        for node_id, modem, delay, level in targets:
            if fading_active:
                level += self.fading.fade_db((tx_id, node_id), now)
            start = now + delay
            if pool:
                # Recycle a pruned Arrival: every field is overwritten, and
                # pruning only returns arrivals whose finish event already
                # fired, so no live reference can observe the reuse.
                arrival = pool.pop()
                arrival.frame = frame
                arrival.src = tx_id
                arrival.start = start
                arrival.end = start + duration_s
                arrival.level_db = level
                arrival.delay_s = delay
            else:
                arrival = Arrival(frame, tx_id, start, start + duration_s, level, delay)
            # High priority so arrivals register before same-instant MAC logic.
            push_at(start, modem.begin_arrival, (arrival,), PRIORITY_HIGH)
        stats.deliveries += len(targets)

    # ------------------------------------------------------------------
    def max_propagation_delay_s(self) -> float:
        """tau_max: the delay across the full communication range."""
        # Conservative nominal-speed estimate; protocols size slots from this
        # (paper: "the duration of each time slot is tau_max + omega").
        return self.max_range_m / self.propagation.speed_mps()

    def control_duration_s(self, control_bits: int = 64) -> float:
        """omega: on-air time of a control packet."""
        return control_bits / self.bitrate_bps
