"""Grid / delta-epoch / arrival-pool equivalence across the full MAC matrix.

Mirrors ``test_cache_equivalence.py``: the spatial-hash reach cull, the
movement-bounded delta-epoch skip and the Arrival free-list are pure
mechanics — every figure metric must come out *exactly* equal with them on
or off, across all five MACs, with and without mobility, under chaos
plans, and composed with block fading at the channel level.
"""

import json

import pytest

from repro.experiments.chaos import chaos_plan
from repro.experiments.config import table2_config
from repro.experiments.scenario import run_scenario


def _flat(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _pair(config):
    culled = run_scenario(config.with_(spatial_grid=True, delta_epochs=True))
    full = run_scenario(config.with_(spatial_grid=False, delta_epochs=False))
    return culled, full


class TestGridEquivalence:
    @pytest.mark.parametrize("protocol", ["EW-MAC", "S-FAMA", "ROPA", "CS-MAC", "ALOHA"])
    def test_mobile_scenario_identical(self, protocol):
        # Mobility exercises displacement accumulation, cell re-binning and
        # candidate re-gathers on every update tick.
        config = table2_config(
            protocol=protocol,
            sim_time_s=40.0,
            offered_load_kbps=0.8,
            seed=11,
            mobility=True,
        )
        culled, full = _pair(config)
        assert _flat(culled) == _flat(full)

    def test_static_scenario_identical(self):
        config = table2_config(sim_time_s=40.0, seed=12, mobility=False)
        culled, full = _pair(config)
        assert _flat(culled) == _flat(full)

    def test_tiled_deployment_identical(self):
        # The scale sweep's shape: columns spread far beyond one cell
        # neighborhood, so the cull actually drops most of the row.
        config = table2_config(
            n_sensors=150,
            n_sinks=3,
            deployment="tiled",
            side_m=13_000.0,
            sim_time_s=20.0,
            seed=5,
            mobility=True,
        )
        culled, full = _pair(config)
        assert _flat(culled) == _flat(full)
        assert culled.perf.grid_candidates < full.perf.grid_candidates

    @pytest.mark.parametrize("factor", [1.0, 3.0])
    def test_interference_range_factor_identical(self, factor):
        # The factor scales the reach mask *and* the grid cell side.
        config = table2_config(
            sim_time_s=30.0,
            offered_load_kbps=0.8,
            seed=17,
            mobility=True,
            interference_range_factor=factor,
        )
        culled, full = _pair(config)
        assert _flat(culled) == _flat(full)

    @pytest.mark.parametrize("mobility", [True, False])
    def test_chaos_plan_identical(self, mobility):
        plan = chaos_plan(fraction=0.2, warmup_s=10.0, sim_time_s=30.0, n_sensors=60)
        config = table2_config(
            sim_time_s=30.0,
            offered_load_kbps=0.8,
            seed=19,
            mobility=mobility,
            faults=plan,
        )
        culled, full = _pair(config)
        assert _flat(culled) == _flat(full)


class TestArrivalPoolEquivalence:
    @pytest.mark.parametrize("protocol", ["EW-MAC", "ALOHA"])
    def test_pool_identical(self, protocol):
        config = table2_config(
            protocol=protocol,
            sim_time_s=40.0,
            offered_load_kbps=0.8,
            seed=23,
            mobility=True,
        )
        pooled = run_scenario(config.with_(arrival_pool=True))
        fresh = run_scenario(config.with_(arrival_pool=False))
        assert _flat(pooled) == _flat(fresh)


class TestFadingEquivalence:
    """Channel-level: fading composes with grid-culled levels losslessly."""

    @pytest.mark.parametrize("mobile", [False, True])
    def test_broadcast_arrivals_identical_under_fading(self, mobile):
        from repro.acoustic.fading import RayleighBlockFading
        from repro.acoustic.geometry import Position
        from repro.des.simulator import Simulator
        from repro.phy.channel import AcousticChannel
        from repro.phy.frame import FrameType, control_frame

        captured = {}
        for culled in (True, False):
            sim = Simulator()
            channel = AcousticChannel(
                sim,
                use_spatial_grid=culled,
                use_delta_epochs=culled,
                fading=RayleighBlockFading(coherence_s=2.0, seed=5),
                interference_range_factor=2.0,
            )
            holder = [
                Position(0, 0, 0),
                Position(1200, 0, 0),
                Position(0, 1400, 100),
                Position(9200, 0, 0),  # outside the 3x3x3 neighborhood
            ]
            seen = []
            for node_id in range(len(holder)):
                modem = channel.create_modem(node_id, lambda i=node_id: holder[i])
                modem.on_receive = lambda f, arr, i=node_id: seen.append(
                    (i, arr.src, arr.start, arr.end, arr.level_db, arr.delay_s)
                )
            for t, tx in ((0.0, 0), (3.0, 1), (6.5, 2)):
                sim.schedule(
                    t,
                    channel.modem_of(tx).transmit,
                    control_frame(FrameType.RTS, tx, (tx + 1) % 4, timestamp=t),
                )
            if mobile:
                def move():
                    holder[1] = Position(1300, 50, 0)
                    channel.note_position_change(1)

                sim.schedule(5.0, move)
            sim.run()
            captured[culled] = (
                seen,
                channel.stats.deliveries,
                channel.stats.out_of_range_skips,
            )
        assert captured[True] == captured[False]
