"""Tests for the ablation plans and clock-skew injection."""

import json

import pytest

from repro.experiments import ResultCache, Scenario, table2_config
from repro.experiments.ablations import ABLATION_PLANS, clock_skew_plan
from repro.experiments.engine import observe_sweeps, run_plan


class TestClockSkewInjection:
    def test_zero_skew_gives_perfect_clocks(self):
        scenario = Scenario(table2_config(n_sensors=10, sim_time_s=10.0))
        assert all(n.clock.perfect for n in scenario.nodes)

    def test_skew_offsets_are_injected(self):
        scenario = Scenario(
            table2_config(n_sensors=10, sim_time_s=10.0, clock_offset_std_s=0.05)
        )
        offsets = [n.clock.offset_s for n in scenario.nodes]
        assert any(o != 0.0 for o in offsets)
        # plausible normal draws around 0 with std 0.05
        assert max(abs(o) for o in offsets) < 0.5

    def test_skewed_network_still_runs(self):
        result = Scenario(
            table2_config(
                n_sensors=15,
                sim_time_s=40.0,
                offered_load_kbps=0.6,
                clock_offset_std_s=0.02,
                seed=4,
            )
        ).run_steady_state()
        assert result.throughput_kbps >= 0.0

    def test_large_skew_hurts_throughput(self):
        """Slot misalignment beyond omega must cost real throughput."""
        base = []
        skewed = []
        for seed in (1, 2, 3):
            base.append(
                Scenario(
                    table2_config(
                        n_sensors=25, sim_time_s=120.0, offered_load_kbps=0.8, seed=seed
                    )
                ).run_steady_state().throughput_kbps
            )
            skewed.append(
                Scenario(
                    table2_config(
                        n_sensors=25,
                        sim_time_s=120.0,
                        offered_load_kbps=0.8,
                        seed=seed,
                        clock_offset_std_s=0.3,
                    )
                ).run_steady_state().throughput_kbps
            )
        assert sum(skewed) < sum(base)


class TestAblationRunners:
    def test_registry_ids_match_figure_ids(self):
        for ablation_id, factory in ABLATION_PLANS.items():
            assert ablation_id.startswith("abl-")
            assert factory(quick=True).figure_id == ablation_id

    @pytest.mark.slow
    @pytest.mark.parametrize("ablation_id", sorted(ABLATION_PLANS))
    def test_quick_mode_runs(self, ablation_id):
        data = run_plan(ABLATION_PLANS[ablation_id](quick=True))
        assert data.figure_id == ablation_id
        assert data.x_values
        for name, series in data.series.items():
            assert len(series) == len(data.x_values), name
            assert all(v >= 0.0 for v in series)

    def test_quick_plan_reuses_cache(self, tmp_path):
        """Ablations get the content-addressed result cache like figures."""
        cache = ResultCache(tmp_path / "cache")
        with observe_sweeps() as cold:
            first = run_plan(clock_skew_plan(quick=True), cache=cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, 4)
        with observe_sweeps() as warm:
            second = run_plan(clock_skew_plan(quick=True), cache=cache)
        assert (warm.cache_hits, warm.cache_misses) == (4, 0)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )


class TestCliIntegration:
    def test_cli_accepts_ablation_targets(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["abl-clock-skew", "--quick"])
        assert args.target == "abl-clock-skew"

    def test_cli_chart_flag(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["fig6", "--chart"])
        assert args.chart
