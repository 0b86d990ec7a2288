"""Arrival free-list behavior.

The channel-owned Arrival pool must recycle records without perturbing
any delivered frame.
"""

import json

import pytest

from repro.experiments.config import table2_config
from repro.experiments.scenario import run_scenario
from repro.phy import modem as modem_mod


def _flat(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _config(seed):
    # High load in a dense column so interference actually decides outcomes.
    return table2_config(
        protocol="ALOHA",
        sim_time_s=40.0,
        offered_load_kbps=1.5,
        seed=seed,
        mobility=True,
    )


class TestArrivalPool:
    def test_pool_fills_after_prune(self):
        from repro.acoustic.geometry import Position
        from repro.des.simulator import Simulator
        from repro.phy.channel import AcousticChannel
        from repro.phy.frame import FrameType, control_frame

        sim = Simulator()
        channel = AcousticChannel(sim, pool_arrivals=True)
        positions = [Position(0, 0, 0), Position(900, 0, 0), Position(0, 900, 0)]
        for node_id in range(len(positions)):
            channel.create_modem(node_id, lambda i=node_id: positions[i])
        for k in range(6):
            sim.schedule(
                3.0 * k,
                channel.modem_of(k % 3).transmit,
                control_frame(FrameType.RTS, k % 3, (k + 1) % 3, timestamp=3.0 * k),
            )
        sim.run()
        # Widely spaced transmissions: every arrival ends long before the
        # next begins, so prune recycles each record into the pool.
        assert channel.arrival_pool is not None
        assert len(channel.arrival_pool) > 0
        assert len(channel.arrival_pool) <= modem_mod.ARRIVAL_POOL_CAP

    def test_pool_capacity_is_bounded(self, monkeypatch):
        from repro.acoustic.geometry import Position
        from repro.des.simulator import Simulator
        from repro.phy.channel import AcousticChannel
        from repro.phy.frame import FrameType, control_frame

        # Modems read the module-level cap once, when they are created.
        monkeypatch.setattr(modem_mod, "ARRIVAL_POOL_CAP", 2)
        sim = Simulator()
        channel = AcousticChannel(sim, pool_arrivals=True)
        positions = [Position(0, 0, 0), Position(900, 0, 0), Position(0, 900, 0)]
        for node_id in range(len(positions)):
            channel.create_modem(node_id, lambda i=node_id: positions[i])
        for k in range(12):
            sim.schedule(
                3.0 * k,
                channel.modem_of(k % 3).transmit,
                control_frame(FrameType.RTS, k % 3, (k + 1) % 3, timestamp=3.0 * k),
            )
        sim.run()
        assert 0 < len(channel.arrival_pool) <= 2

    @pytest.mark.parametrize("seed", [7, 31])
    def test_pooled_run_identical_to_fresh_allocation(self, monkeypatch, seed):
        config = _config(seed)
        pooled = run_scenario(config)
        monkeypatch.setattr(modem_mod, "ARRIVAL_POOL_CAP", 0)
        fresh = run_scenario(config)
        assert _flat(pooled) == _flat(fresh)

    def test_config_cap_bounds_live_recycled_objects(self, monkeypatch):
        from repro.experiments.scenario import Scenario

        # End to end through a scenario: a tiny cap must bound the free
        # list for the whole run without changing any figure metric.
        default = run_scenario(_config(seed=7))
        monkeypatch.setattr(modem_mod, "ARRIVAL_POOL_CAP", 3)
        scenario = Scenario(_config(seed=7))
        channel = scenario.channel
        assert channel.modem_of(channel.node_ids[0])._pool_cap == 3
        capped = scenario.run_steady_state()
        assert scenario.channel.arrival_pool is not None
        assert len(scenario.channel.arrival_pool) <= 3
        assert _flat(capped) == _flat(default)

    def test_cap_zero_disables_recycling(self, monkeypatch):
        from repro.experiments.scenario import Scenario

        default = run_scenario(_config(seed=7))
        monkeypatch.setattr(modem_mod, "ARRIVAL_POOL_CAP", 0)
        scenario = Scenario(_config(seed=7))
        result = scenario.run_steady_state()
        assert len(scenario.channel.arrival_pool) == 0
        assert _flat(result) == _flat(default)
