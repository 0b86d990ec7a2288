"""Link-state cache facade with **per-node** position epochs.

Every MAC handshake (RTS/CTS/Data/Ack plus EW-MAC's EXR/EXC/EXData/EXAck)
triggers an :class:`~repro.phy.channel.AcousticChannel.broadcast` that
needs, per receiver, the pair's distance, propagation delay and received
level — and depth routing asks for neighbour sets per packet.  All of that
is pure geometry: it only changes when a node actually moves.

The first cache generation invalidated on a single *global* epoch: any
movement anywhere discarded every cached pair, so a mobility tick that
moved a handful of nodes still forced the whole deployment cold (~25% hit
rate on mobile Table 2 cells).  This generation keeps **one epoch per
node** inside a NumPy struct-of-arrays kernel
(:class:`~repro.phy.vectorized.VectorLinkKernel`):

* a pair's cached entry records ``epoch[tx] + epoch[rx]`` at compute time;
  epochs are monotonic, so the stamp matches the current sum *iff neither
  endpoint has moved* — un-moved pairs stay warm across mobility ticks;
* :meth:`~repro.net.node.Node`'s position setter bumps only the moved
  node's epoch (the :class:`~repro.topology.mobility.MobilityManager`
  routes every movement through it), so static deployments compute each
  pair exactly once and mobile ones recompute exactly the moved
  rows/columns;
* registering a new modem appends to the kernel arrays and bumps the
  aggregate epoch, so topology growth is reflected immediately, matching
  the uncached semantics;
* a per-row ``total_epoch`` snapshot gives broadcasts an O(1) "nothing
  anywhere moved" fast path before any per-pair staleness check.

Directed (tx, rx) ordering is preserved throughout — rows are per
transmitter and :meth:`PropagationModel.delay_s` still receives
``pair=(tx, rx)`` in exactly the order the uncached code passed it — which
keeps results bit-identical with the uncached path (gated by the
equivalence-matrix and Hypothesis property tests).

Liveness (``modem.enabled``) is deliberately *not* part of the cached
state: failure injection flips it without moving anyone, so neighbour
queries filter on it at read time instead of invalidating geometry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..acoustic.geometry import Position
from ..acoustic.sinr import LinkBudget
from .vectorized import RowState, VectorLinkKernel

if TYPE_CHECKING:  # pragma: no cover
    from ..acoustic.propagation import PropagationModel
    from .channel import ChannelStats
    from .modem import AcousticModem


class LinkState:
    """Geometry-derived state of one directed link (a scalar view).

    Attributes:
        distance_m: Euclidean distance between the pair.
        delay_s: Propagation delay (tx -> rx), from the channel's model.
        level_db: Received level at the rx from the link budget (before
            any time-varying fading).
        in_reach: Within delivery reach (decode range x interference
            factor): the frame's energy arrives at all.
        in_decode_range: Within the hard communication range (Table 2:
            1.5 km): the rx counts as a one-hop neighbour.
    """

    __slots__ = ("distance_m", "delay_s", "level_db", "in_reach", "in_decode_range")

    def __init__(
        self,
        distance_m: float,
        delay_s: float,
        level_db: float,
        in_reach: bool,
        in_decode_range: bool,
    ) -> None:
        self.distance_m = distance_m
        self.delay_s = delay_s
        self.level_db = level_db
        self.in_reach = in_reach
        self.in_decode_range = in_decode_range


class LinkStateCache:
    """Facade exposing the vector kernel under the original cache API.

    The cache shares the channel's live member registry (``node_id ->
    (modem, position_fn)``); the channel reports movement through
    :meth:`invalidate` (per node, or globally with ``None``) and
    registration through :meth:`add_node`.  Hits and misses are counted
    into the owning channel's :class:`~repro.phy.channel.ChannelStats` for
    the perf layer, now with whole-row granularity: a broadcast whose row
    is warm counts ``n - 1`` hits, a refresh counts one miss per stale
    pair and one hit per still-warm pair.
    """

    __slots__ = ("_kernel",)

    def __init__(
        self,
        members: Dict[int, Tuple["AcousticModem", Callable[[], Position]]],
        propagation: "PropagationModel",
        link_budget: LinkBudget,
        max_range_m: float,
        reach_m: float,
        stats: "ChannelStats",
        use_spatial_grid: bool = True,
        use_delta_epochs: bool = True,
    ) -> None:
        self._kernel = VectorLinkKernel(
            members,
            propagation,
            link_budget,
            max_range_m,
            reach_m,
            stats,
            use_spatial_grid=use_spatial_grid,
            use_delta_epochs=use_delta_epochs,
        )

    @property
    def epoch(self) -> int:
        """Aggregate position epoch (sum of all per-node bumps)."""
        return self._kernel.total_epoch

    # ------------------------------------------------------------------
    def invalidate(self, node_id: Optional[int] = None) -> None:
        """Note that ``node_id`` moved, or with ``None`` that any position
        may have changed (every node's epoch bumps, positions re-read)."""
        self._kernel.invalidate(node_id)

    def add_node(self, node_id: int) -> None:
        """Register a newly created modem's node with the kernel."""
        self._kernel.add_node(node_id)

    # ------------------------------------------------------------------
    def link(self, tx: int, rx: int) -> LinkState:
        """Link state for the directed pair (served from the tx's row).

        With the spatial grid or delta-epoch culls active, a whole-row
        freshness pass guarantees the masks but may leave an out-of-reach
        pair's scalars stale or never computed; the per-pair stamp check
        in :meth:`VectorLinkKernel.ensure_pair` recomputes exactly that
        entry on demand, so point queries stay exact for *any* pair.
        """
        kernel = self._kernel
        row = kernel.row(tx)
        tx_idx = kernel.index_of(tx)
        j = kernel.index_of(rx)
        kernel.ensure_pair(row, tx_idx, j)
        return LinkState(
            float(row.distance_m[j]),
            float(row.delay_s[j]),
            float(row.level_db[j]),
            bool(row.in_reach[j]),
            bool(row.in_decode[j]),
        )

    def in_range_ids(self, node_id: int) -> Tuple[int, ...]:
        """Ids inside decode range of ``node_id`` (liveness *not* applied).

        Preserves the member-registration order the uncached scan produced.
        """
        kernel = self._kernel
        return kernel.decode_ids(kernel.row(node_id))

    # ------------------------------------------------------------------
    def broadcast_row(self, tx_id: int) -> RowState:
        """Fresh whole-row link state for a transmission (hot path)."""
        return self._kernel.row(tx_id)

    def deliveries(
        self, row: RowState
    ) -> List[Tuple[int, "AcousticModem", float, float]]:
        """In-reach fan-out list ``(rx_id, modem, delay_s, level_db)``."""
        return self._kernel.deliveries(row)
