"""Scale sweep: wall-clock scaling of the simulator with network size.

The ``repro-uasn scale`` target runs the Table 2 scenario at increasing
node counts and reports how the vectorized broadcast kernel holds up:
wall-clock seconds per cell, kernel throughput (events per second), and
the link-cache hit rate.  It is a *performance* sweep, not a figure from
the paper — the protocol metrics are computed but only the perf counters
are reported.

Two design choices keep the sweep honest as a scaling measurement:

* **Constant density.**  The deployment cube grows as ``(n / 60)^(1/3)``
  times the Table 2 side *and* the deployment tiles it with one
  Table-2-like connected column (~60 sensors + a sink) per block
  (``deployment="tiled"``), so the average neighbourhood — and therefore
  per-broadcast fan-out — stays at the Table 2 level and the x axis
  isolates the cost of *network size* rather than conflating it with
  density.  (Growing a *single* column does not do this: its link scale
  shrinks as ``n^(-1/3)``, so the cloud stays a couple of communication
  ranges wide and densifies toward an everyone-in-reach clique no matter
  how large the cube around it grows.)
* **Short window.**  Each cell simulates a fixed short window (30 s full,
  8 s quick) — long enough to amortize setup, short enough that the 5000
  node cell stays interactive.

``--quick`` shrinks the axis to small counts for the CI smoke job.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Optional, Sequence, Tuple

from .config import table2_config
from .figures import FigureData
from .scenario import run_scenario

Progress = Optional[Callable[[str], None]]

#: Full sweep axis (node counts).
SCALE_NODES: Tuple[int, ...] = (500, 1000, 2000, 5000)
#: Quick axis for the CI smoke job.
QUICK_NODES: Tuple[int, ...] = (150, 300)

#: Table 2 baseline the cube is scaled from (60 sensors, 10 km side).
_BASE_SENSORS = 60
_BASE_SIDE_M = 10_000.0


def scale_side_m(n_sensors: int) -> float:
    """Cube side holding the Table 2 node density at ``n_sensors`` nodes."""
    return _BASE_SIDE_M * (n_sensors / _BASE_SENSORS) ** (1.0 / 3.0)


def scale_config(
    n_sensors: int,
    sim_time_s: float,
    seed: int = 1,
    protocol: str = "EW-MAC",
    mobility: bool = True,
    spatial_grid: bool = True,
    delta_epochs: bool = True,
):
    """One scale-sweep cell config: tiled columns at the Table 2 density."""
    return table2_config(
        protocol=protocol,
        n_sensors=n_sensors,
        n_sinks=max(1, round(n_sensors / _BASE_SENSORS)),
        deployment="tiled",
        sim_time_s=sim_time_s,
        side_m=scale_side_m(n_sensors),
        mobility=mobility,
        seed=seed,
        spatial_grid=spatial_grid,
        delta_epochs=delta_epochs,
    )


def ab_check(
    n_sensors: int,
    sim_time_s: float = 8.0,
    seed: int = 1,
    protocol: str = "EW-MAC",
    mobility: bool = True,
    progress: Progress = None,
) -> None:
    """Online equivalence gate: the default cell must match the scalar path.

    Runs one cell twice — on the default geometry stack (link cache,
    vector kernel, spatial grid, delta epochs), then on the scalar
    reference path (``link_cache=False``) the equivalence tests compare
    against — and compares the canonical JSON of every figure metric
    (``result.to_dict()``, which excludes perf counters).  Raises
    AssertionError on any divergence; the CI scale-smoke job runs this so
    an equivalence break is caught on every push, not only when the full
    test matrix runs.
    """
    base = scale_config(
        n_sensors, sim_time_s, seed=seed, protocol=protocol, mobility=mobility
    )
    stack = run_scenario(base)
    scalar = run_scenario(base.with_(link_cache=False))
    flat_stack = json.dumps(stack.to_dict(), sort_keys=True)
    flat_scalar = json.dumps(scalar.to_dict(), sort_keys=True)
    if flat_stack != flat_scalar:
        raise AssertionError(
            f"scale A/B check failed at n={n_sensors}: the default run "
            "diverged from the scalar link_cache=False run"
        )
    if progress is not None:
        progress(
            f"A/B check n={n_sensors}: default == link_cache=False "
            "(bit-identical)"
        )


def scale(
    seeds: Sequence[int] = (1,),
    quick: bool = False,
    progress: Progress = None,
    protocol: str = "EW-MAC",
    mobility: bool = True,
    spatial_grid: bool = True,
    delta_epochs: bool = True,
) -> FigureData:
    """Run the scale sweep and return perf series keyed by counter name.

    Unlike the figure runners the series are *metrics*, not protocols:
    ``wall_time_s``, ``kevents_per_s`` (thousands of simulator events per
    wall-clock second), ``cache_hit_pct`` and ``grid_candidates_mean``
    (mean spatial-hash candidate-set size per broadcast — ``n - 1`` when
    the grid is off).  Only the first seed is used — replication averages
    wall-clock noise into the signal instead of out of it, and the
    determinism suite already pins the metrics.  ``spatial_grid`` /
    ``delta_epochs`` expose the culls for A/B scaling comparisons.
    """
    nodes = QUICK_NODES if quick else SCALE_NODES
    sim_time_s = 8.0 if quick else 30.0
    seed = int(seeds[0]) if seeds else 1
    wall: list = []
    kevents: list = []
    hit_pct: list = []
    cand_mean: list = []
    for n in nodes:
        config = scale_config(
            n,
            sim_time_s,
            seed=seed,
            protocol=protocol,
            mobility=mobility,
            spatial_grid=spatial_grid,
            delta_epochs=delta_epochs,
        )
        start = time.perf_counter()
        result = run_scenario(config)
        elapsed = time.perf_counter() - start
        perf = result.perf
        events_per_s = perf.events_per_second if perf is not None else 0.0
        hits = perf.cache_hits if perf is not None else 0
        misses = perf.cache_misses if perf is not None else 0
        lookups = hits + misses
        broadcasts = perf.broadcasts if perf is not None else 0
        candidates = perf.grid_candidates if perf is not None else 0
        wall.append(round(elapsed, 3))
        kevents.append(round(events_per_s / 1e3, 1))
        hit_pct.append(round(100.0 * hits / lookups, 2) if lookups else 0.0)
        cand_mean.append(round(candidates / broadcasts, 1) if broadcasts else 0.0)
        if progress is not None:
            progress(
                f"scale n={n}: {elapsed:.2f}s wall, "
                f"{events_per_s:,.0f} ev/s, hit {hit_pct[-1]:.1f}%, "
                f"candidates {cand_mean[-1]:.0f}/broadcast"
            )
    return FigureData(
        figure_id="scale",
        title=f"Simulator scaling ({protocol}, {sim_time_s:.0f}s window, "
        "constant density)",
        x_label="number of sensors",
        y_label="wall seconds / kilo-events per second / cache hit %",
        x_values=[float(n) for n in nodes],
        series={
            "wall_time_s": wall,
            "kevents_per_s": kevents,
            "cache_hit_pct": hit_pct,
            "grid_candidates_mean": cand_mean,
        },
        notes="Perf sweep (not a paper figure): cube side grows as "
        "(n/60)^(1/3) x 10 km and the region is tiled with one Table-2-like "
        "connected column (~60 sensors + sink) per block, so density — and "
        "thus per-broadcast fan-out — stays at the Table 2 level.",
    )
