"""An empty fault plan must be invisible: bit-identical metrics, no RNG.

The fault subsystem's zero-cost contract: a config whose ``faults`` field
is the (default) empty plan schedules no events, creates no RNG stream,
adds no result keys, and hashes to the same cache key — so the entire
figure pipeline is byte-for-byte unaffected by the subsystem existing.
"""

from __future__ import annotations

from repro.experiments.cache import ResultCache, cell_key
from repro.experiments.config import table2_config
from repro.experiments.scenario import Scenario, run_scenario
from repro.experiments.engine import SweepSpec, run_sweep
from repro.faults.plan import CrashWave, FaultPlan, NoiseBurst


def quick_config(**overrides):
    defaults = dict(n_sensors=10, sim_time_s=15.0, side_m=3000.0)
    defaults.update(overrides)
    return table2_config(**defaults)


class TestEmptyPlanEquivalence:
    def test_metrics_bit_identical_to_default_config(self):
        base = quick_config()
        explicit = base.with_(faults=FaultPlan())
        assert run_scenario(base).to_dict() == run_scenario(explicit).to_dict()

    def test_no_injector_no_faults_stream(self):
        scenario = Scenario(quick_config().with_(faults=FaultPlan()))
        assert scenario.injector is None
        scenario.run_steady_state()
        assert "faults" not in scenario.sim.streams._streams

    def test_faulted_run_does_create_the_stream(self):
        plan = FaultPlan(waves=(CrashWave(at_s=20.0, fraction=0.2),))
        scenario = Scenario(quick_config(sim_time_s=20.0).with_(faults=plan))
        assert scenario.injector is not None
        scenario.run_steady_state()
        assert "faults" in scenario.sim.streams._streams

    def test_no_fault_keys_in_summary(self):
        summary = run_scenario(quick_config()).to_dict()
        assert "delivery_ratio" not in summary
        assert "fault_events" not in summary

    def test_cache_on_and_off_agree(self, tmp_path):
        spec = SweepSpec(
            x_values=[0.4],
            configure=lambda base, x, protocol, seed: base.with_(
                offered_load_kbps=x,
                protocol=protocol,
                seed=seed,
                faults=FaultPlan(),
            ),
        )
        base = quick_config()
        plain = run_sweep(spec, base, protocols=("EW-MAC",), seeds=(1,))
        cached = run_sweep(
            spec,
            base,
            protocols=("EW-MAC",),
            seeds=(1,),
            cache=ResultCache(tmp_path / "cache"),
        )
        assert [r.to_dict() for r in plain[(0.4, "EW-MAC")]] == [
            r.to_dict() for r in cached[(0.4, "EW-MAC")]
        ]


class TestCacheKeySeparation:
    def test_plans_separate_otherwise_equal_configs(self):
        base = quick_config()
        noisy = base.with_(
            faults=FaultPlan(
                noise_bursts=(NoiseBurst(at_s=20.0, duration_s=5.0, extra_noise_db=6.0),)
            )
        )
        assert cell_key(base, None) != cell_key(noisy, None)

    def test_cache_never_serves_a_faulted_result_to_a_clean_config(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = quick_config(sim_time_s=10.0)
        faulted = base.with_(
            faults=FaultPlan(waves=(CrashWave(at_s=15.0, fraction=0.3),))
        )
        result = run_scenario(faulted)
        cache.put(cell_key(faulted, None), result)
        assert cache.get(cell_key(base, None)) is None

    def test_faulted_results_round_trip_through_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = quick_config(sim_time_s=10.0).with_(
            faults=FaultPlan(
                waves=(CrashWave(at_s=15.0, fraction=0.3, recover_after_s=3.0),),
                strict_audit=False,
            )
        )
        result = run_scenario(config)
        key = cell_key(config, None)
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert loaded.faults.events == result.faults.events
