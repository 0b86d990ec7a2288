"""Tests for the parallel sweep engine and the on-disk result cache."""

from __future__ import annotations

import os
import time

from repro.des.errors import WallClockExceeded
from repro.experiments.cache import ResultCache, cell_key, code_version
from repro.experiments.config import table2_config
from repro.experiments.parallel import (
    ParallelSweepRunner,
    SweepCell,
    expand_cells,
    execute_cell,
)
from repro.experiments.engine import SweepSpec, run_sweep


def _configure(base, x, protocol, seed):
    return base.with_(offered_load_kbps=x, protocol=protocol, seed=seed)


def _quick_base(**overrides):
    defaults = dict(n_sensors=10, sim_time_s=15.0, side_m=3000.0)
    defaults.update(overrides)
    return table2_config(**defaults)


def _quick_spec(x_values=(0.2, 0.6), batch=None):
    return SweepSpec(x_values=list(x_values), configure=_configure, batch=batch)


PROTOCOLS = ("S-FAMA", "EW-MAC")
SEEDS = (1, 2)


def _grid_dicts(grid):
    """Per-cell, per-seed flat summaries keyed like the grid."""
    return {
        key: [result.to_dict() for result in cell] for key, cell in grid.items()
    }


class TestExpandCells:
    def test_serial_loop_order_and_indices(self):
        cells = expand_cells(_quick_spec(), _quick_base(), PROTOCOLS, SEEDS)
        assert len(cells) == 8
        assert [cell.index for cell in cells] == list(range(8))
        # x-major, then protocol, then seed: the serial loop's order
        assert [(c.x, c.protocol, c.seed) for c in cells[:3]] == [
            (0.2, "S-FAMA", 1),
            (0.2, "S-FAMA", 2),
            (0.2, "EW-MAC", 1),
        ]

    def test_configs_resolved_in_parent(self):
        cells = expand_cells(_quick_spec(), _quick_base(), PROTOCOLS, SEEDS)
        for cell in cells:
            assert cell.config.offered_load_kbps == cell.x
            assert cell.config.protocol == cell.protocol
            assert cell.config.seed == cell.seed
            assert cell.batch is None

    def test_batch_params_evaluated(self):
        spec = _quick_spec(x_values=(0.1,), batch=lambda x, config: (3, 600.0))
        cells = expand_cells(spec, _quick_base(), ("EW-MAC",), (1,))
        assert cells[0].batch == (3, 600.0)

    def test_cells_are_picklable(self):
        import pickle

        cells = expand_cells(_quick_spec(), _quick_base(), PROTOCOLS, SEEDS)
        clone = pickle.loads(pickle.dumps(cells[0]))
        assert clone == cells[0]


class TestSerialParallelEquivalence:
    def test_workers4_matches_serial_per_cell_per_seed(self):
        spec, base = _quick_spec(), _quick_base()
        serial = run_sweep(spec, base, protocols=PROTOCOLS, seeds=SEEDS)
        parallel = run_sweep(
            spec, base, protocols=PROTOCOLS, seeds=SEEDS, workers=4
        )
        assert list(serial) == list(parallel)  # same insertion order
        assert _grid_dicts(serial) == _grid_dicts(parallel)

    def test_batch_mode_matches_serial(self):
        spec = _quick_spec(x_values=(0.1,), batch=lambda x, config: (3, 600.0))
        base = _quick_base(max_retries=100)
        serial = run_sweep(spec, base, protocols=("EW-MAC",), seeds=(1,))
        parallel = run_sweep(
            spec, base, protocols=("EW-MAC",), seeds=(1,), workers=2
        )
        assert _grid_dicts(serial) == _grid_dicts(parallel)

    def test_engine_with_one_worker_matches_serial(self):
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = run_sweep(spec, base, protocols=PROTOCOLS, seeds=(1,))
        runner = ParallelSweepRunner(workers=1)
        engine = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1,))
        assert _grid_dicts(serial) == _grid_dicts(engine)

    def test_progress_reports_every_cell_with_wall_clock(self):
        messages = []
        run_sweep(
            _quick_spec(x_values=(0.4,)),
            _quick_base(),
            protocols=("EW-MAC",),
            seeds=SEEDS,
            workers=2,
            progress=messages.append,
        )
        assert len(messages) == 2
        assert all("done in" in message for message in messages)


class TestResultCache:
    def test_warm_rerun_executes_zero_scenarios(self, tmp_path, monkeypatch):
        spec, base = _quick_spec(), _quick_base()
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(
            spec, base, protocols=PROTOCOLS, seeds=SEEDS, cache=cache
        )
        assert cache.stats.misses == 8 and cache.stats.stores == 8

        def boom(cell, wall_budget_s=None):
            raise AssertionError(f"cache-hit rerun executed {cell.label}")

        monkeypatch.setattr("repro.experiments.parallel.execute_cell", boom)
        warm_cache = ResultCache(tmp_path / "cache")
        warm = run_sweep(
            spec, base, protocols=PROTOCOLS, seeds=SEEDS, cache=warm_cache
        )
        assert warm_cache.stats.hits == 8 and warm_cache.stats.misses == 0
        assert _grid_dicts(cold) == _grid_dicts(warm)

    def test_cache_results_match_uncached(self, tmp_path):
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        plain = run_sweep(spec, base, protocols=("EW-MAC",), seeds=(1,))
        cached = run_sweep(
            spec,
            base,
            protocols=("EW-MAC",),
            seeds=(1,),
            cache=ResultCache(tmp_path / "cache"),
        )
        assert _grid_dicts(plain) == _grid_dicts(cached)

    def test_key_covers_config_batch_and_code_version(self):
        config = _quick_base()
        key = cell_key(config, None)
        assert key == cell_key(config, None)  # stable
        assert key != cell_key(config.with_(seed=2), None)
        assert key != cell_key(config, (3, 600.0))
        assert key != cell_key(config, None, version="different-code")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _quick_base(n_sensors=5, sim_time_s=5.0)
        key = cell_key(config, None)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert not path.exists()  # corrupt entry dropped

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = expand_cells(
            _quick_spec(x_values=(0.2,)), _quick_base(), ("EW-MAC",), (1,)
        )[0]
        result = execute_cell(cell)
        key = cell_key(cell.config, cell.batch)
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert len(cache) == 1
        assert cache.clear() == 1

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


# Fault-injection pool workers for TestRecovery.  They must be
# module-level (ProcessPoolExecutor pickles the callable by reference
# even with a fork context) and are installed via monkeypatch with
# mp_context="fork" so the children see the patched module state.
from repro.experiments.parallel import _pool_worker as _real_pool_worker


def _crashing_worker(cell, wall_budget_s):
    if cell.index == 1:
        raise RuntimeError("synthetic worker crash")
    return _real_pool_worker(cell, wall_budget_s)


def _timing_out_worker(cell, wall_budget_s):
    if cell.index == 0:
        raise WallClockExceeded("synthetic cell timeout")
    return _real_pool_worker(cell, wall_budget_s)


class TestRecovery:
    def test_crashed_worker_cell_is_requeued_serially(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "_pool_worker", _crashing_worker)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = run_sweep(spec, base, protocols=PROTOCOLS, seeds=(1,))
        runner = ParallelSweepRunner(workers=2, mp_context="fork")
        recovered = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1,))
        assert [cell.index for cell in runner.requeued] == [1]
        assert _grid_dicts(serial) == _grid_dicts(recovered)

    def test_timed_out_cell_is_requeued_serially(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "_pool_worker", _timing_out_worker)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = run_sweep(spec, base, protocols=PROTOCOLS, seeds=(1,))
        runner = ParallelSweepRunner(
            workers=2, mp_context="fork", cell_timeout_s=120.0
        )
        recovered = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1,))
        assert [cell.index for cell in runner.requeued] == [0]
        assert _grid_dicts(serial) == _grid_dicts(recovered)


def _poisoned_execute_cell(cell, wall_budget_s=None):
    """Fails one specific cell every time (pool *and* serial retry)."""
    if cell.protocol == "EW-MAC" and cell.seed == 1:
        raise RuntimeError("synthetic permanent failure")
    return execute_cell(cell, wall_budget_s)


class TestPermanentFailure:
    """A cell that fails even serially is recorded, not sweep-fatal."""

    def test_serial_sweep_survives_a_crashing_cell(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        runner = ParallelSweepRunner(workers=1)
        grid = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1, 2))
        assert len(runner.failures) == 1
        failure = runner.failures[0]
        assert failure.cell.protocol == "EW-MAC" and failure.cell.seed == 1
        assert "RuntimeError: synthetic permanent failure" in failure.error
        assert "synthetic permanent failure" in failure.traceback
        # The failed cell's slot is simply missing; its siblings survived.
        assert len(grid[(0.4, "EW-MAC")]) == 1
        assert len(grid[(0.4, "S-FAMA")]) == 2

    def test_failed_cells_keep_an_empty_grid_entry(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod
        from repro.experiments.engine import aggregate

        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        runner = ParallelSweepRunner(workers=1)
        grid = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1,))
        assert grid[(0.4, "EW-MAC")] == []  # present, empty: no KeyError
        series = aggregate(
            grid, [0.4], PROTOCOLS, lambda r: r.throughput_kbps
        )
        assert series["EW-MAC"] == [0.0]  # lost cell means "no samples"
        assert series["S-FAMA"][0] > 0.0

    def test_failure_summary_reported_through_progress(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        messages = []
        runner = ParallelSweepRunner(workers=1, progress=messages.append)
        runner.run(_quick_spec(x_values=(0.4,)), _quick_base(), PROTOCOLS, (1,))
        assert any("failed permanently" in m for m in messages)
        assert any("1 failed cell(s)" in m for m in messages)

    def test_run_cells_marks_failed_slots_none(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        cells = expand_cells(
            _quick_spec(x_values=(0.4,)), _quick_base(), PROTOCOLS, (1,)
        )
        runner = ParallelSweepRunner(workers=1)
        results = runner.run_cells(cells)
        assert [r is None for r in results] == [
            cell.protocol == "EW-MAC" for cell in cells
        ]

    def test_pool_path_records_permanent_failures(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        # Fork context: children inherit the monkeypatched module, so the
        # poisoned cell crashes in the pool AND on the serial retry.
        monkeypatch.setattr(parallel_mod, "execute_cell", _poisoned_execute_cell)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        runner = ParallelSweepRunner(workers=2, mp_context="fork")
        grid = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1,))
        assert [cell.seed for cell in runner.requeued] == [1]
        assert len(runner.failures) == 1
        assert grid[(0.4, "EW-MAC")] == []
        assert len(grid[(0.4, "S-FAMA")]) == 1


def _hanging_worker(cell, wall_budget_s):
    if cell.index == 0:
        time.sleep(30.0)  # never returns within the guard window
    return _real_pool_worker(cell, wall_budget_s)


def _dying_worker(cell, wall_budget_s):
    if cell.index == 1:
        os._exit(17)  # hard death: no exception, no result, broken pool
    return _real_pool_worker(cell, wall_budget_s)


class TestFaultRecovery:
    """The bounded recovery paths: hung pools, dead workers, retry caps."""

    def test_hung_pool_guard_requeues_unfinished_cells(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "_pool_worker", _hanging_worker)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = run_sweep(spec, base, protocols=PROTOCOLS, seeds=(1,))
        messages = []
        runner = ParallelSweepRunner(
            workers=2,
            mp_context="fork",
            pool_guard_s=1.0,
            progress=messages.append,
        )
        recovered = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1,))
        assert [cell.index for cell in runner.requeued] == [0]
        assert any("pool hung" in m for m in messages)
        assert runner.failures == []
        assert _grid_dicts(serial) == _grid_dicts(recovered)

    def test_dead_worker_breaks_pool_and_cells_recover(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "_pool_worker", _dying_worker)
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        serial = run_sweep(spec, base, protocols=PROTOCOLS, seeds=(1,))
        messages = []
        runner = ParallelSweepRunner(
            workers=2, mp_context="fork", progress=messages.append
        )
        recovered = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1,))
        # The dying cell is requeued for sure; pool breakage may take its
        # in-flight siblings with it — recovery must replay all of them.
        assert 1 in [cell.index for cell in runner.requeued]
        assert any("dead worker" in m or "crashed" in m for m in messages)
        assert runner.failures == []
        assert _grid_dicts(serial) == _grid_dicts(recovered)

    def test_recovery_attempts_are_capped(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        calls = []

        def always_crashing(cell, wall_budget_s=None):
            calls.append(cell.index)
            raise RuntimeError("still broken")

        monkeypatch.setattr(parallel_mod, "execute_cell", always_crashing)
        cells = expand_cells(
            _quick_spec(x_values=(0.4,)), _quick_base(), ("EW-MAC",), (1,)
        )
        messages = []
        runner = ParallelSweepRunner(
            workers=1, max_serial_attempts=3, progress=messages.append
        )
        results: list = [None]
        runner._run_serial(cells, results, keys={}, recovery=True)
        assert len(calls) == 3  # the cap, not forever
        assert len(runner.failures) == 1
        assert "still broken" in runner.failures[0].error
        assert sum("retrying" in m for m in messages) == 2

    def test_recovery_timeouts_are_bounded_and_reported(self, monkeypatch):
        import repro.experiments.parallel as parallel_mod

        budgets = []

        def timing_out(cell, wall_budget_s=None):
            budgets.append(wall_budget_s)
            raise WallClockExceeded("over budget")

        monkeypatch.setattr(parallel_mod, "execute_cell", timing_out)
        cells = expand_cells(
            _quick_spec(x_values=(0.4,)), _quick_base(), ("EW-MAC",), (1,)
        )
        runner = ParallelSweepRunner(
            workers=1, cell_timeout_s=10.0, max_serial_attempts=2
        )
        results: list = [None]
        runner._run_serial(cells, results, keys={}, recovery=True)
        # Recovery re-runs get double the pooled budget, but stay bounded.
        assert budgets == [20.0, 20.0]
        assert len(runner.failures) == 1
        assert runner.failures[0].error.startswith("WallClockExceeded")

    def test_max_serial_attempts_validated(self):
        import pytest

        with pytest.raises(ValueError, match="max_serial_attempts"):
            ParallelSweepRunner(max_serial_attempts=0)


class TestCheckpointedSweeps:
    """Layer-2 recovery: sweeps resume cells from their checkpoints."""

    def test_checkpointed_serial_sweep_is_bit_identical(self):
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        plain = run_sweep(spec, base, protocols=PROTOCOLS, seeds=(1,))
        runner = ParallelSweepRunner(workers=1, checkpoint_every_s=4.0)
        checkpointed = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1,))
        assert _grid_dicts(plain) == _grid_dicts(checkpointed)
        assert runner.checkpoints_taken > 0
        assert runner.cells_resumed == 0  # nothing was interrupted

    def test_interrupted_cell_resumes_from_persistent_checkpoint_dir(
        self, tmp_path
    ):
        from repro.experiments.checkpoint import write_checkpoint
        from repro.experiments.scenario import Scenario

        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        cells = expand_cells(spec, base, ("EW-MAC",), (1,))
        baseline = execute_cell(cells[0]).to_dict()

        # Simulate a previous sweep that died mid-cell: one checkpoint
        # exists in the persistent dir under the cell's cache key.
        key = cell_key(cells[0].config, cells[0].batch, code_version())

        class Interrupt(Exception):
            pass

        def hook(scenario: Scenario) -> None:
            write_checkpoint(tmp_path / f"{key}.ckpt", scenario)
            raise Interrupt

        try:
            Scenario(cells[0].config).run_steady_state(5.0, hook)
        except Interrupt:
            pass
        assert (tmp_path / f"{key}.ckpt").exists()

        runner = ParallelSweepRunner(
            workers=1, checkpoint_every_s=5.0, checkpoint_dir=tmp_path
        )
        results = runner.run_cells(cells)
        assert results[0].to_dict() == baseline  # resumed, not diverged
        assert runner.cells_resumed == 1
        assert not (tmp_path / f"{key}.ckpt").exists()  # consumed
        assert tmp_path.exists()  # caller-owned dir is kept

    def test_pooled_checkpointed_sweep_is_bit_identical(self):
        spec, base = _quick_spec(x_values=(0.4,)), _quick_base()
        plain = run_sweep(spec, base, protocols=PROTOCOLS, seeds=(1, 2))
        runner = ParallelSweepRunner(workers=2, checkpoint_every_s=4.0)
        pooled = runner.run(spec, base, protocols=PROTOCOLS, seeds=(1, 2))
        assert _grid_dicts(plain) == _grid_dicts(pooled)
        assert runner.checkpoints_taken > 0


class TestWorkItem:
    def test_label(self):
        cell = SweepCell(0, 0.5, "EW-MAC", 3, _quick_base())
        assert cell.label == "EW-MAC x=0.5 seed=3"
