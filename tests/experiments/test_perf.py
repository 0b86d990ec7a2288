"""Tests for the perf instrumentation layer (repro.perf + CLI --profile)."""

from dataclasses import fields

import pytest

from repro.experiments.cli import main
from repro.experiments.config import table2_config
from repro.experiments.scenario import run_scenario
from repro.perf import GLOBAL_PERF, PerfAccumulator, PerfReport


def make_report(**overrides):
    base = dict(
        sim_time_s=300.0,
        wall_time_s=2.0,
        events=100_000,
        broadcasts=4_000,
        deliveries=20_000,
        out_of_range_skips=1_000,
        cache_hits=18_000,
        cache_misses=2_000,
    )
    base.update(overrides)
    return PerfReport(**base)


def distinct_report(offset):
    """A report whose every field holds a different value."""
    return PerfReport(
        **{f.name: offset + i for i, f in enumerate(fields(PerfReport))}
    )


class TestPerfReport:
    def test_derived_rates(self):
        report = make_report()
        assert report.events_per_second == pytest.approx(50_000.0)
        assert report.broadcasts_per_second == pytest.approx(2_000.0)
        assert report.cache_hit_rate == pytest.approx(0.9)
        assert report.speedup_factor == pytest.approx(150.0)

    def test_zero_wall_time_is_safe(self):
        report = make_report(wall_time_s=0.0, cache_hits=0, cache_misses=0)
        assert report.events_per_second == 0.0
        assert report.broadcasts_per_second == 0.0
        assert report.cache_hit_rate == 0.0
        assert report.speedup_factor == 0.0

    def test_to_dict_round_trip(self):
        data = make_report().to_dict()
        assert data["events"] == 100_000
        assert data["cache_hit_rate"] == pytest.approx(0.9)
        assert all(isinstance(v, (int, float)) for v in data.values())
        report = distinct_report(1)
        data = report.to_dict()
        names = {f.name for f in fields(PerfReport)}
        rates = {
            "events_per_second",
            "broadcasts_per_second",
            "cache_hit_rate",
            "speedup_factor",
        }
        assert set(data) == names | rates
        assert PerfReport(**{name: data[name] for name in names}) == report

    def test_summary_lines_mention_key_counters(self):
        text = "\n".join(make_report().summary_lines())
        assert "events" in text
        assert "link cache" in text
        assert "90.0%" in text

    def test_capture_from_scenario_run(self):
        result = run_scenario(table2_config(sim_time_s=20.0, seed=3))
        perf = result.perf
        assert perf is not None
        assert perf.sim_time_s == pytest.approx(20.0)
        assert perf.wall_time_s > 0.0
        assert perf.events > 0
        assert perf.broadcasts > 0
        assert perf.cache_hits + perf.cache_misses > 0

    def test_perf_excluded_from_to_dict(self):
        # Figure metrics must stay machine-independent and identical with
        # the cache on/off; wall time in to_dict would break both.
        result = run_scenario(table2_config(sim_time_s=20.0, seed=3))
        assert not any("wall" in key or "cache" in key for key in result.to_dict())


class TestPerfAccumulator:
    def test_merge_adds_counters_and_recomputes_rates(self):
        acc = PerfAccumulator()
        acc.add(make_report())
        acc.add(make_report(wall_time_s=6.0, events=300_000))
        merged = acc.merged()
        assert acc.runs == 2
        assert merged.events == 400_000
        assert merged.wall_time_s == pytest.approx(8.0)
        assert merged.events_per_second == pytest.approx(50_000.0)
        # Every field merges: flows add, the one gauge keeps its peak.
        first, second = distinct_report(1), distinct_report(100)
        acc = PerfAccumulator()
        acc.add(second)
        acc.add(first)
        merged = acc.merged()
        gauges = [f.name for f in fields(PerfReport) if f.metadata.get("gauge")]
        assert gauges == ["grid_cells"]
        for f in fields(PerfReport):
            a, b = getattr(first, f.name), getattr(second, f.name)
            expected = max(a, b) if f.name in gauges else a + b
            assert getattr(merged, f.name) == expected, f.name

    def test_empty_accumulator_merges_to_zeros(self):
        merged = PerfAccumulator().merged()
        assert merged.events == 0
        assert merged.events_per_second == 0.0

    def test_reset(self):
        acc = PerfAccumulator()
        acc.add(make_report())
        acc.reset()
        assert acc.runs == 0
        assert acc.merged().events == 0

    def test_global_accumulator_fed_by_scenarios(self):
        GLOBAL_PERF.reset()
        run_scenario(table2_config(sim_time_s=20.0, seed=3))
        run_scenario(table2_config(sim_time_s=20.0, seed=4))
        assert GLOBAL_PERF.runs == 2
        assert GLOBAL_PERF.merged().events > 0


class TestProfileFlag:
    def test_profile_prints_counters_and_hotspots(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig6", "--quick", "--seeds", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "perf counters" in out
        assert "link cache" in out
        assert "cProfile (top 25 by cumulative time)" in out
        assert "cumulative" in out
