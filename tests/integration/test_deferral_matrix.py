"""Certain-failure deferral is bit-identical across the MAC matrix.

A scenario defers certain-failure arrivals whenever it has no fault plan
and no tracer, so the ``link_cache=False`` matrices take the fast path on
both sides and cannot test it.  Here each cell runs twice, with deferral
as the scenario sets it and with the channel forced to decode every
arrival at its end; results, modem counters and MAC counters must match
exactly.  The raw-channel property (with block fading and outage flips)
is in ``tests/phy/test_modem_deferral.py``.
"""

import dataclasses
import json

import pytest

from repro.experiments import scenario as scenario_mod
from repro.experiments.config import table2_config
from repro.experiments.scale import scale_config


def _run(config):
    scenario = scenario_mod.Scenario(config)
    result = scenario.run_steady_state()
    return (
        json.dumps(result.to_dict(), sort_keys=True),
        [dataclasses.asdict(mac.node.modem.stats) for mac in scenario.macs],
        [dataclasses.asdict(mac.stats) for mac in scenario.macs],
        scenario.sim.events_processed,
    )


def _pair(config, monkeypatch):
    deferred = _run(config)
    channel_cls = scenario_mod.AcousticChannel

    def no_deferral(*args, **kwargs):
        kwargs["defer_failures"] = False
        return channel_cls(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(scenario_mod, "AcousticChannel", no_deferral)
        full = _run(config)
    return deferred, full


@pytest.mark.parametrize("factor", [1.0, 2.0])
@pytest.mark.parametrize("mobility", [True, False])
@pytest.mark.parametrize("protocol", ["EW-MAC", "S-FAMA", "ROPA", "CS-MAC", "ALOHA"])
def test_deferral_identical(protocol, mobility, factor, monkeypatch):
    config = table2_config(
        protocol=protocol,
        sim_time_s=30.0,
        offered_load_kbps=0.8,
        seed=11,
        mobility=mobility,
        interference_range_factor=factor,
    )
    deferred, full = _pair(config, monkeypatch)
    assert deferred[:3] == full[:3]
    if factor > 1.0:
        # Signals from beyond decode range are certain failures.
        assert deferred[3] < full[3]


def test_tiled_cell_identical(monkeypatch):
    deferred, full = _pair(scale_config(300, 8.0, seed=1), monkeypatch)
    assert deferred[:3] == full[:3]
    assert deferred[3] < full[3]
