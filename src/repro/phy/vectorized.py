"""NumPy struct-of-arrays broadcast kernel with spatial-hash reach culling.

The per-receiver Python loop in :meth:`AcousticChannel.broadcast` was the
simulator's residual hot spot after the link-state cache PR: every
transmission walked the member dict, looked each ordered pair up in a hash
map, and on every 5 s mobility tick the *whole* cache was discarded even
though only the moved nodes' links changed (~25% hit rate on mobile Table 2
cells).  This module replaces the per-pair storage with contiguous
struct-of-arrays state so that one transmission computes distance,
propagation delay, received level and in-reach masks for *all* receivers in
a single vectorized pass, and replaces the global position epoch with
**per-node epochs** so un-moved pairs stay warm across mobility ticks.

Per-node epochs alone still hit an O(n²) wall when the mobility model moves
*every* node each tick: each broadcast then refreshes a full O(n) row even
though acoustic reach is bounded and only a handful of receivers matter.
Two coordinated mechanisms make broadcast cost proportional to *plausible
receivers* instead:

Spatial hash grid
-----------------
Node positions are binned into cubic cells of side ``reach_m`` (decode
range x interference factor).  Any receiver within reach of a transmitter
must then sit in the 3x3x3 cell neighborhood around the transmitter's
cell, so :meth:`row` gathers only those **candidate** indices and
computes/refreshes exactly them.  Non-candidates are provably out of reach
— their masks stay ``False`` without ever touching their entries — and the
candidate set is finished with an *exact* distance mask, so results stay
bit-identical to the full scan.  Cell membership only changes when a node
crosses a cell boundary (rare at drift speeds), and candidate gathers are
reused until some node changes cell (``cells_epoch``).

Movement-bounded delta-epochs
-----------------------------
Every node accumulates its total displacement (``disp``) as it moves.
Each cached pair stamps ``disp[tx] + disp[rx]`` at compute time, so at
refresh time ``(disp[tx] + disp[rx]) - disp_stamp`` bounds from above how
far the pair's distance can have drifted since its entry was computed
(triangle inequality).  A stale pair whose cached distance exceeds
``reach_m`` by more than that bound *cannot* have re-entered reach, so its
recompute is skipped outright: the masks it would recompute are provably
still ``False``, and its scalar fields are never read by the broadcast
path while out of reach (point queries validate per-pair stamps and
recompute on demand, see :meth:`ensure_pair`).  The bound is conservative,
so skipping is bit-identical by construction.

Layout
------
:class:`VectorLinkKernel` keeps, in registration order (which is also the
member-dict iteration order the scalar path used):

* ``xs / ys / zs`` — node coordinates as float64 arrays;
* ``epoch`` — one int64 counter per node, bumped when *that* node moves;
* ``disp`` — cumulative displacement (m) per node, the delta-epoch bound;
* ``total_epoch`` — the sum of all bumps, used as an O(1) "did anything
  move since this row was refreshed?" check per broadcast;
* a cell hash (``dict[(cx, cy, cz)] -> [indices]``) for reach culling;
* per-transmitter :class:`RowState` rows holding the pair's distance,
  delay, level, reach/decode masks and per-pair epoch **stamps**.

A pair's stamp records ``epoch[tx] + epoch[rx]`` at compute time.  Epochs
are monotonic, so the stamp equals the current sum *iff neither endpoint
moved* — a mobility tick therefore dirties exactly the moved rows/columns
and a row refresh recomputes only its stale entries, vectorized over the
candidate set.  A stamp of ``-1`` marks a pair never computed (or evicted
from the candidate neighborhood before ever being computed).

Bit-identity
------------
Results are bit-identical with the scalar uncached path (gated by the
equivalence matrix and property tests): subtraction, multiplication,
``sqrt`` and division round identically in NumPy and CPython, distances are
squared with explicit multiplies on both paths (see
:meth:`Position.distance_to`), and the one operation NumPy's SIMD kernels
are allowed to round differently — ``log10`` — stays on libm inside
:meth:`PathLossModel.path_loss_db_batch`.  Propagation models whose delay
is not a pure function of geometry fall back to a scalar per-pair loop in
:meth:`PropagationModel.delay_s_batch`, which is bit-identical by
construction.  The grid and delta-epoch culls never change a computed
value — they only skip computing entries whose masks are provably
``False`` — and both are A/B-gated by ``ScenarioConfig.spatial_grid`` /
``ScenarioConfig.delta_epochs``.

Memory
------
Row storage is bounded: at most ``row_budget_entries`` cached pair entries
(~``budget * 42`` bytes).  Beyond that — thousand-node ``scale`` sweeps —
rows are evicted least-recently-used; recomputing an evicted row is one
vectorized pass over the candidate set, not a per-pair scalar walk.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..acoustic.geometry import Position
from ..acoustic.sinr import LinkBudget

if TYPE_CHECKING:  # pragma: no cover
    from ..acoustic.propagation import PropagationModel
    from .channel import ChannelStats
    from .modem import AcousticModem

#: Default cap on cached pair entries across all rows (~170 MB worst case).
DEFAULT_ROW_BUDGET_ENTRIES = 4_000_000

#: Stamp value marking a pair entry that has never been computed.
_NEVER = -1


class RowState:
    """One transmitter's link state against every registered receiver.

    Attributes:
        n: Member count the row was sized for (a membership change makes
            the row unusable and it is rebuilt from scratch).
        total_epoch: Kernel ``total_epoch`` at the last freshness check —
            when it still matches, nothing anywhere moved and the row is
            served without touching any array.
        stamp: Per-pair epoch sums at compute time (staleness detector);
            ``-1`` marks entries never computed (grid-culled).
        disp_stamp: Per-pair ``disp[tx] + disp[rx]`` at compute time —
            the baseline the movement-bounded skip measures drift against.
        distance_m / delay_s / level_db: Pair scalars, aligned with the
            registration order (only candidate entries are ever valid
            when the spatial grid is active).
        in_reach: Delivery reach mask (decode range × interference factor).
        in_decode: Hard communication-range mask (neighbour relation).
        candidates: Sorted member indices in the transmitter's 3x3x3 cell
            neighborhood (``None`` when the grid is disabled: every index
            is a candidate).
        cands_epoch: Kernel ``cells_epoch`` when ``candidates`` was
            gathered; a mismatch forces a re-gather.
        candidate_count: Candidates excluding self (``n - 1`` without the
            grid) — the per-broadcast figure behind ``grid_candidates``.
        deliveries: Lazily built broadcast fan-out list of
            ``(rx_id, modem, delay_s, level_db)`` for in-reach receivers,
            in registration order; invalidated by any refresh.
        skips: Out-of-reach receiver count backing the channel's
            ``out_of_range_skips`` counter (valid once ``deliveries`` is).
        decode_ids: Lazily built tuple of in-decode-range node ids.
    """

    __slots__ = (
        "n",
        "total_epoch",
        "stamp",
        "disp_stamp",
        "distance_m",
        "delay_s",
        "level_db",
        "in_reach",
        "in_decode",
        "candidates",
        "cands_epoch",
        "candidate_count",
        "deliveries",
        "skips",
        "decode_ids",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.total_epoch = -1
        self.stamp = np.full(n, _NEVER, dtype=np.int64)
        self.disp_stamp = np.zeros(n, dtype=np.float64)
        self.distance_m = np.empty(n, dtype=np.float64)
        self.delay_s = np.empty(n, dtype=np.float64)
        self.level_db = np.empty(n, dtype=np.float64)
        self.in_reach = np.zeros(n, dtype=bool)
        self.in_decode = np.zeros(n, dtype=bool)
        self.candidates: Optional[np.ndarray] = None
        self.cands_epoch = -1
        self.candidate_count = n - 1
        self.deliveries: Optional[List[Tuple[int, "AcousticModem", float, float]]] = None
        self.skips = 0
        self.decode_ids: Optional[Tuple[int, ...]] = None


class VectorLinkKernel:
    """Struct-of-arrays link-state store with spatial-hash reach culling."""

    __slots__ = (
        "_members",
        "_propagation",
        "_link_budget",
        "_max_range_m",
        "_reach_m",
        "_stats",
        "_ids",
        "_index",
        "_xs",
        "_ys",
        "_zs",
        "_epoch",
        "_disp",
        "_ids_arr",
        "_n",
        "total_epoch",
        "_rows",
        "_row_budget",
        "_max_rows",
        "_lru_active",
        "_use_grid",
        "_use_delta",
        "_cell_m",
        "_cells",
        "_cell_key",
        "cells_epoch",
    )

    def __init__(
        self,
        members: Dict[int, Tuple["AcousticModem", Callable[[], Position]]],
        propagation: "PropagationModel",
        link_budget: LinkBudget,
        max_range_m: float,
        reach_m: float,
        stats: "ChannelStats",
        row_budget_entries: int = DEFAULT_ROW_BUDGET_ENTRIES,
        use_spatial_grid: bool = True,
        use_delta_epochs: bool = True,
    ) -> None:
        self._members = members
        self._propagation = propagation
        self._link_budget = link_budget
        self._max_range_m = max_range_m
        self._reach_m = reach_m
        self._stats = stats
        self._ids: List[int] = []
        self._index: Dict[int, int] = {}
        capacity = 64
        self._xs = np.empty(capacity, dtype=np.float64)
        self._ys = np.empty(capacity, dtype=np.float64)
        self._zs = np.empty(capacity, dtype=np.float64)
        self._epoch = np.zeros(capacity, dtype=np.int64)
        self._disp = np.zeros(capacity, dtype=np.float64)
        self._ids_arr = np.empty(capacity, dtype=np.int64)
        self._n = 0
        #: Monotonic sum of every per-node epoch bump (plus registrations);
        #: rows compare against it for the O(1) nothing-moved fast path.
        self.total_epoch = 0
        self._rows: "OrderedDict[int, RowState]" = OrderedDict()
        self._row_budget = row_budget_entries
        self._max_rows = row_budget_entries
        self._lru_active = False
        self._use_grid = use_spatial_grid
        self._use_delta = use_delta_epochs
        #: Cell side: one reach radius, so a 3x3x3 neighborhood is a strict
        #: superset of the in-reach ball from anywhere inside the center cell.
        self._cell_m = reach_m
        self._cells: Dict[Tuple[int, int, int], List[int]] = {}
        self._cell_key: List[Tuple[int, int, int]] = []
        #: Bumped whenever any node's cell assignment changes (moves across
        #: a cell boundary, registration): rows re-gather candidates only
        #: when this moved, so within-cell drift reuses the gathered set.
        self.cells_epoch = 0
        for node_id in members:
            self.add_node(node_id)

    # ------------------------------------------------------------------
    # Membership and movement
    # ------------------------------------------------------------------
    def _cell_of(self, x: float, y: float, z: float) -> Tuple[int, int, int]:
        cell = self._cell_m
        return (
            int(math.floor(x / cell)),
            int(math.floor(y / cell)),
            int(math.floor(z / cell)),
        )

    def add_node(self, node_id: int) -> None:
        """Register a node, growing the coordinate arrays.

        Bumps :attr:`total_epoch` so cached neighbour sets recompute, and
        existing rows (sized for the old member count) rebuild on next use
        — matching the uncached path, where a freshly registered modem is
        visible to the very next query.
        """
        if node_id in self._index:
            return
        idx = self._n
        if idx == len(self._xs):
            self._grow()
        pos = self._members[node_id][1]()
        self._xs[idx] = pos.x
        self._ys[idx] = pos.y
        self._zs[idx] = pos.z
        self._epoch[idx] = 0
        self._disp[idx] = 0.0
        self._ids_arr[idx] = node_id
        self._ids.append(node_id)
        self._index[node_id] = idx
        self._n = idx + 1
        self.total_epoch += 1
        if self._use_grid:
            key = self._cell_of(pos.x, pos.y, pos.z)
            self._cell_key.append(key)
            self._cells.setdefault(key, []).append(idx)
            self.cells_epoch += 1
            self._stats.grid_cells = len(self._cells)
        self._max_rows = max(16, self._row_budget // self._n)
        self._lru_active = self._n > self._max_rows

    def _grow(self) -> None:
        capacity = len(self._xs) * 2
        for name in ("_xs", "_ys", "_zs", "_epoch", "_disp", "_ids_arr"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._n] = old[: self._n]
            if name in ("_epoch", "_disp"):
                fresh[self._n :] = 0
            setattr(self, name, fresh)

    def _move_node(self, idx: int, pos: Position) -> None:
        """Update one node's coordinates, displacement bound and cell."""
        dx = pos.x - self._xs[idx]
        dy = pos.y - self._ys[idx]
        dz = pos.z - self._zs[idx]
        self._disp[idx] += math.sqrt(dx * dx + dy * dy + dz * dz)
        self._xs[idx] = pos.x
        self._ys[idx] = pos.y
        self._zs[idx] = pos.z
        self._epoch[idx] += 1
        if self._use_grid:
            key = self._cell_of(pos.x, pos.y, pos.z)
            old = self._cell_key[idx]
            if key != old:
                bucket = self._cells[old]
                bucket.remove(idx)
                if not bucket:
                    del self._cells[old]
                self._cells.setdefault(key, []).append(idx)
                self._cell_key[idx] = key
                self.cells_epoch += 1
                self._stats.grid_cells = len(self._cells)

    def invalidate(self, node_id: Optional[int] = None) -> None:
        """Note that ``node_id`` moved (or, with ``None``, that anything
        may have: every epoch bumps and every position is re-read)."""
        if node_id is None:
            n = self._n
            members = self._members
            ids = self._ids
            for idx in range(n):
                self._move_node(idx, members[ids[idx]][1]())
            # Every node's epoch bumps, moved or not: a global invalidation
            # conservatively treats every pair as stale.
            self.total_epoch += 1
            return
        idx = self._index[node_id]
        self._move_node(idx, self._members[node_id][1]())
        self.total_epoch += 1

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, node_id: int) -> RowState:
        """Fresh link-state row for transmitter ``node_id``.

        Fast path — nothing anywhere moved since the last check — is two
        integer comparisons.  Otherwise stale pairs are recomputed in one
        vectorized pass over exactly the dirty entries of the candidate
        set (every entry, when the spatial grid is disabled).
        """
        idx = self._index[node_id]
        rows = self._rows
        row = rows.get(idx)
        n = self._n
        stats = self._stats
        if row is not None and row.n == n:
            if self._lru_active:
                rows.move_to_end(idx)
            if row.total_epoch == self.total_epoch:
                stats.cache_hits += n - 1
                return row
            self._refresh(idx, row)
            return row
        if row is not None:
            del rows[idx]
        row = self._build(idx)
        rows[idx] = row
        if self._lru_active and len(rows) > self._max_rows:
            rows.popitem(last=False)
        return row

    def _candidates_for(self, idx: int) -> np.ndarray:
        """Sorted member indices in the 3x3x3 neighborhood of ``idx``'s cell.

        A strict superset of every node within ``reach_m`` of the
        transmitter (cell side == reach), finished by the exact distance
        mask in :meth:`_compute`; always contains ``idx`` itself.
        """
        cx, cy, cz = self._cell_key[idx]
        out: List[int] = []
        get = self._cells.get
        for kx in (cx - 1, cx, cx + 1):
            for ky in (cy - 1, cy, cy + 1):
                bucket = get((kx, ky, cz - 1))
                if bucket:
                    out.extend(bucket)
                bucket = get((kx, ky, cz))
                if bucket:
                    out.extend(bucket)
                bucket = get((kx, ky, cz + 1))
                if bucket:
                    out.extend(bucket)
        cands = np.array(out, dtype=np.intp)
        cands.sort()
        return cands

    def _compute(self, idx: int, row: RowState, targets: np.ndarray) -> None:
        """Vectorized pass filling ``row`` at ``targets`` (member indices).

        Also stamps the computed pairs' epoch sums and displacement
        baselines, so every compute path (build, refresh, on-demand point
        query) maintains the staleness detectors identically.  The derived
        products (``deliveries``, ``decode_ids``) are left alone: callers
        whose recompute can change a mask drop them (see :meth:`_refresh`).
        """
        xs, ys, zs = self._xs, self._ys, self._zs
        x0, y0, z0 = xs[idx], ys[idx], zs[idx]
        dx = xs[targets] - x0
        dy = ys[targets] - y0
        dz = zs[targets] - z0
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        origin = Position(float(x0), float(y0), float(z0))
        row.distance_m[targets] = dist
        row.delay_s[targets] = self._propagation.delay_s_batch(
            origin,
            xs[targets],
            ys[targets],
            zs[targets],
            dist,
            self._ids[idx],
            self._ids_arr[targets],
        )
        row.level_db[targets] = self._link_budget.received_level_db_batch(dist)
        row.in_reach[targets] = dist <= self._reach_m
        row.in_decode[targets] = dist <= self._max_range_m
        row.stamp[targets] = self._epoch[idx] + self._epoch[targets]
        row.disp_stamp[targets] = self._disp[idx] + self._disp[targets]
        # The self pair is never delivered to and never queried.
        row.in_reach[idx] = False
        row.in_decode[idx] = False
        self._stats.vector_batches += 1

    def _build(self, idx: int) -> RowState:
        n = self._n
        row = RowState(n)
        if self._use_grid:
            cands = self._candidates_for(idx)
            row.candidates = cands
            row.cands_epoch = self.cells_epoch
            row.candidate_count = len(cands) - 1
            self._compute(idx, row, cands)
            self._stats.cache_misses += len(cands) - 1
        else:
            self._compute(idx, row, np.arange(n))
            self._stats.cache_misses += n - 1
        row.total_epoch = self.total_epoch
        return row

    def _refresh(self, idx: int, row: RowState) -> None:
        n = self._n
        stats = self._stats
        if self._use_grid:
            cands = row.candidates
            if row.cands_epoch != self.cells_epoch:
                cands = self._candidates_for(idx)
                departed = np.setdiff1d(row.candidates, cands, assume_unique=True)
                if departed.size:
                    # A node that left the neighborhood is provably out of
                    # reach; clear its (possibly stale-True) masks and mark
                    # its entry never-computed so re-entry recomputes.
                    row.in_reach[departed] = False
                    row.in_decode[departed] = False
                    row.stamp[departed] = _NEVER
                    row.deliveries = None
                    row.decode_ids = None
                row.candidates = cands
                row.cands_epoch = self.cells_epoch
                row.candidate_count = len(cands) - 1
            expected = self._epoch[idx] + self._epoch[cands]
            stale = row.stamp[cands] != expected
            stale[np.searchsorted(cands, idx)] = False
            dirty = cands[stale]
        else:
            expected = self._epoch[idx] + self._epoch[:n]
            stale = row.stamp != expected
            stale[idx] = False
            dirty = np.nonzero(stale)[0]
        if dirty.size and self._use_delta:
            # Movement-bounded skip: the accumulated motion of both
            # endpoints since a pair's compute bounds |d_now - d_cached|
            # (triangle inequality), so a pair cached outside delivery
            # reach by more than that bound cannot have re-entered it —
            # both masks are provably still False and nothing else of the
            # entry is read while it stays out of reach.
            motion = (self._disp[idx] + self._disp[dirty]) - row.disp_stamp[dirty]
            skip = (row.stamp[dirty] != _NEVER) & (
                row.distance_m[dirty] - self._reach_m > motion
            )
            skipped = int(np.count_nonzero(skip))
            if skipped:
                stats.rows_skipped_delta += skipped
                dirty = dirty[~skip]
        if dirty.size:
            self._compute(idx, row, dirty)
            row.deliveries = None
            row.decode_ids = None
            stats.rows_refreshed += 1
            stats.cache_misses += int(dirty.size)
            stats.cache_hits += n - 1 - int(dirty.size)
        else:
            stats.cache_hits += n - 1
        row.total_epoch = self.total_epoch

    def ensure_pair(self, row: RowState, tx_idx: int, rx_idx: int) -> None:
        """Validate one pair entry for a point query, recomputing on demand.

        Whole-row freshness (:meth:`row`) guarantees masks, but with the
        spatial grid or delta-epoch culls active an out-of-reach pair's
        scalar fields (distance, delay, level) may be stale or never
        computed.  Point queries (``link()``/``distance_m``) call this to
        recompute exactly that entry — one single-element vectorized pass,
        bit-identical with the batch path by construction.

        Only rows fresh from :meth:`row` reach here, so a stale entry is
        always provably out of reach (grid cull or out-of-reach bound) —
        its masks stay False and the derived products survive the
        recompute.
        """
        if row.stamp[rx_idx] != self._epoch[tx_idx] + self._epoch[rx_idx]:
            self._compute(tx_idx, row, np.array([rx_idx], dtype=np.intp))
            self._stats.cache_misses += 1

    # ------------------------------------------------------------------
    # Derived per-row products
    # ------------------------------------------------------------------
    def deliveries(
        self, row: RowState
    ) -> List[Tuple[int, "AcousticModem", float, float]]:
        """Broadcast fan-out list for a fresh row (built once per refresh).

        Entries are ``(rx_id, modem, delay_s, level_db)`` python scalars in
        registration order — exactly the values and order the scalar loop
        produced — so the hot loop does no NumPy access per delivery.
        """
        built = row.deliveries
        if built is not None:
            return built
        members = self._members
        ids = self._ids
        delays = row.delay_s
        levels = row.level_db
        built = [
            (ids[j], members[ids[j]][0], float(delays[j]), float(levels[j]))
            for j in np.nonzero(row.in_reach)[0].tolist()
        ]
        row.deliveries = built
        row.skips = row.n - 1 - len(built)
        return built

    def decode_ids(self, row: RowState) -> Tuple[int, ...]:
        """Ids within hard decode range, in registration order."""
        ids = row.decode_ids
        if ids is None:
            members_ids = self._ids
            ids = tuple(
                members_ids[j] for j in np.nonzero(row.in_decode)[0].tolist()
            )
            row.decode_ids = ids
        return ids

    def index_of(self, node_id: int) -> int:
        return self._index[node_id]
