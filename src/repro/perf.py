"""Performance instrumentation for the simulation hot loop.

The kernel and channel already count everything interesting — events
processed, wall time inside :meth:`Simulator.run`, broadcasts, deliveries,
link-state cache hits/misses.  This module snapshots those counters into a
:class:`PerfReport` per run and merges reports across sweep cells with
:class:`PerfAccumulator`, so the CLI's ``--profile`` flag and the benchmark
suite can print one coherent summary instead of poking subsystems.

None of this affects simulation results: reports are read-only snapshots
taken after a run finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .des.simulator import Simulator
    from .phy.channel import ChannelStats

#: Field metadata marking a gauge: merged across runs by max, not sum.
_GAUGE = {"gauge": True}


@dataclass(frozen=True)
class PerfReport:
    """Counter snapshot of one finished simulation run.

    The field list is the schema: :meth:`capture`, :meth:`to_dict` and
    :class:`PerfAccumulator` all derive from it, so a new counter is one
    new field (plus a :class:`~repro.phy.channel.ChannelStats` field of
    the same name for :meth:`capture` to read).

    Attributes:
        sim_time_s: Simulated seconds covered by the run.
        wall_time_s: Wall-clock seconds spent inside the event loop.
        events: DES events processed.
        broadcasts: Channel broadcasts (one per transmitted frame).
        deliveries: Arrivals fanned out to in-reach receivers.
        out_of_range_skips: Receivers skipped as unreachable.
        cache_hits: Link-state cache lookups served from cache.
        cache_misses: Link-state cache lookups that recomputed geometry.
        vector_batches: Vectorized kernel passes (row builds + refreshes).
        rows_refreshed: Stale link-state rows partially recomputed (0 on a
            fully static run — every row is built once and stays warm).
        grid_candidates: Summed spatial-hash candidate-set sizes across
            broadcasts (divide by ``broadcasts`` for the mean scan width;
            equals ``broadcasts * (n - 1)`` with the grid disabled).
        rows_skipped_delta: Stale pair recomputes skipped by the
            movement-bounded delta-epoch test.
        grid_cells: Occupied spatial-hash cells at capture time (gauge;
            accumulated via max, not sum).
        checkpoints_taken: Cooperative checkpoints taken during the run
            (0 unless ``checkpoint_every_s`` was armed).
        resumes: How many times this run was restored from a checkpoint
            (0 for an uninterrupted run).
    """

    sim_time_s: float
    wall_time_s: float
    events: int
    broadcasts: int
    deliveries: int
    out_of_range_skips: int
    cache_hits: int
    cache_misses: int
    vector_batches: int = 0
    rows_refreshed: int = 0
    grid_candidates: int = 0
    rows_skipped_delta: int = 0
    grid_cells: int = field(default=0, metadata=_GAUGE)
    checkpoints_taken: int = 0
    resumes: int = 0

    @property
    def events_per_second(self) -> float:
        """Kernel throughput: events per wall-clock second."""
        return self.events / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def broadcasts_per_second(self) -> float:
        """Channel throughput: broadcasts per wall-clock second."""
        return self.broadcasts / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of link-state lookups served from cache (0 if none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def speedup_factor(self) -> float:
        """Simulated seconds per wall-clock second (real-time ratio)."""
        return self.sim_time_s / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @classmethod
    def capture(
        cls,
        sim: "Simulator",
        channel_stats: "ChannelStats",
        sim_time_s: float,
        checkpoints_taken: int = 0,
        resumes: int = 0,
    ) -> "PerfReport":
        """Snapshot kernel + channel counters after a run.

        Every field named like a :class:`ChannelStats` counter is read
        from ``channel_stats``; the rest come from the kernel and the
        arguments.
        """
        channel = vars(channel_stats)
        return cls(
            sim_time_s=sim_time_s,
            wall_time_s=sim.wall_time_s,
            events=sim.events_processed,
            checkpoints_taken=checkpoints_taken,
            resumes=resumes,
            **{f.name: channel[f.name] for f in fields(cls) if f.name in channel},
        )

    def to_dict(self) -> Dict[str, float]:
        """Flat JSON-friendly form (benchmark exports, CI artifacts):
        every field plus the derived rates."""
        data: Dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        data["events_per_second"] = self.events_per_second
        data["broadcasts_per_second"] = self.broadcasts_per_second
        data["cache_hit_rate"] = self.cache_hit_rate
        data["speedup_factor"] = self.speedup_factor
        return data

    def summary_lines(self) -> List[str]:
        """Human-readable summary (printed by ``--profile``)."""
        return [
            f"simulated {self.sim_time_s:.1f} s in {self.wall_time_s:.3f} s wall "
            f"({self.speedup_factor:,.0f}x real time)",
            f"events: {self.events:,} ({self.events_per_second:,.0f}/s)",
            f"broadcasts: {self.broadcasts:,} ({self.broadcasts_per_second:,.0f}/s), "
            f"deliveries: {self.deliveries:,}, "
            f"out-of-range skips: {self.out_of_range_skips:,}",
            f"link cache: {self.cache_hits:,} hits / {self.cache_misses:,} misses "
            f"({self.cache_hit_rate:.1%} hit rate)",
            f"vector kernel: {self.vector_batches:,} batches, "
            f"{self.rows_refreshed:,} rows refreshed",
            f"spatial grid: {self.grid_cells:,} cells, "
            f"{self.grid_candidates / self.broadcasts if self.broadcasts else 0.0:,.1f} "
            f"mean candidates/broadcast, "
            f"{self.rows_skipped_delta:,} delta-epoch skips",
            f"fault tolerance: {self.checkpoints_taken:,} checkpoints taken, "
            f"{self.resumes:,} resumes",
        ]


@dataclass
class PerfAccumulator:
    """Merge :class:`PerfReport` snapshots across sweep cells.

    Wall times and counters add, gauges keep their peak; rates are
    recomputed from the totals, so the merged report reads like one long
    run.
    """

    runs: int = 0
    _totals: Dict[str, float] = field(default_factory=dict)

    def add(self, report: PerfReport) -> None:
        self.runs += 1
        totals = self._totals
        for f in fields(PerfReport):
            value = getattr(report, f.name)
            if f.name not in totals:
                totals[f.name] = value
            elif f.metadata.get("gauge"):
                totals[f.name] = max(totals[f.name], value)
            else:
                totals[f.name] += value

    def merged(self) -> PerfReport:
        """Totals as a single report (zeros if nothing was added)."""
        totals = self._totals
        return PerfReport(**{f.name: totals.get(f.name, 0) for f in fields(PerfReport)})

    def summary_lines(self) -> List[str]:
        return [f"runs: {self.runs}"] + self.merged().summary_lines()

    def reset(self) -> None:
        self.runs = 0
        self._totals.clear()


#: Process-global accumulator: every finished scenario adds its report here
#: (a few dict updates per run).  The CLI's ``--profile`` flag forces serial
#: in-process execution, drains this, and prints the merged summary.
GLOBAL_PERF = PerfAccumulator()
