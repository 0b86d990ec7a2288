"""Scale benchmark: one quick 300-node mobile cell of the scale sweep.

Times the same tiled, constant-density deployment the ``repro-uasn scale``
sweep runs at its quick upper node count, with every cull enabled — the
configuration whose wall time the spatial grid and the delta-epoch bound
are supposed to protect.  The run is also a liveness check on that
machinery: a mobile 300-node cell must actually exercise the delta-epoch
skip, not just tolerate it.
"""

from repro.experiments.scale import QUICK_NODES, scale_config
from repro.experiments.scenario import run_scenario


def test_scale_quick_mobile_cell(one_shot):
    n = QUICK_NODES[-1]  # 300 nodes: the largest quick-sweep cell
    config = scale_config(n, sim_time_s=8.0, seed=1)
    result = one_shot(run_scenario, config)
    perf = result.perf
    assert perf is not None
    assert perf.events > 0
    print(
        f"\nscale n={n}: {perf.events:,} events, "
        f"{perf.events_per_second:,.0f} ev/s, "
        f"cache hit {perf.cache_hit_rate:.1%}, "
        f"{perf.rows_skipped_delta:,} delta skips"
    )
    # The mobile cell must drive the delta-epoch skip, not merely allow it.
    assert perf.rows_skipped_delta > 0
