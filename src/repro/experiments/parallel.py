"""Parallel sweep execution engine.

A figure sweep is a grid of (x, protocol, seed) cells, each an independent
deterministic simulation — exactly the embarrassingly-parallel shape a
process pool wants.  :class:`ParallelSweepRunner` expands a
:class:`~repro.experiments.engine.SweepSpec` into picklable
:class:`SweepCell` work items **in the parent** (so the spec's closures
never cross a process boundary), fans the items over a spawn-safe worker
pool, and reassembles results in the exact order the serial loop would
have produced them — ``run_sweep(..., workers=4)`` is bit-identical to
``workers=1`` because every cell derives all randomness from its own
config seed (see :mod:`repro.des.rng`).

Failure handling is three-layered:

* **Per-cell timeout** — workers arm the DES kernel's cooperative
  wall-clock deadline (:meth:`Simulator.set_wall_deadline`), so a runaway
  cell unwinds with :class:`WallClockExceeded` instead of wedging its
  worker.  A parent-side guard window catches workers hung outside the
  event loop.
* **Crashed-worker recovery** — a cell whose worker raises or dies
  (``BrokenProcessPool``) is requeued and re-run *serially* in the
  parent.  The recovery path is bounded: at most ``max_serial_attempts``
  tries per cell, each under a wall-clock budget derived from
  ``cell_timeout_s``, so a truly wedged cell fails permanently instead of
  blocking the sweep forever.
* **Checkpoint/resume** — with ``checkpoint_every_s`` set, each cell
  periodically snapshots its scenario (:mod:`~repro.experiments.checkpoint`)
  to a per-cell file; a requeued or retried cell restores from its last
  checkpoint instead of rerunning from zero.  Resumed results are
  bit-identical to uninterrupted ones, so recovery never changes a figure.

Results can be memoized through :class:`~repro.experiments.cache.ResultCache`;
cache lookups happen in the parent before any work is dispatched, so a
warm-cache rerun performs zero scenario executions.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..des.errors import WallClockExceeded
from .cache import ResultCache, cell_key, code_version, resolve_cache
from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .config import ScenarioConfig
from .scenario import Scenario, ScenarioResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from .engine import GridResults, SweepSpec

Progress = Optional[Callable[[str], None]]


@dataclass(frozen=True)
class CellFailure:
    """A cell that could not produce a result even after the serial retry.

    The sweep keeps going: the failed cell's slot stays ``None`` in the
    ordered result list and its grid entry stays an empty list, so
    aggregation sees "no samples" rather than an exception.
    """

    cell: "SweepCell"
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved grid cell: a picklable, self-contained work item.

    ``config`` already has the (x, protocol, seed) overrides applied, and
    ``batch`` the evaluated batch parameters, so a worker needs nothing
    from the sweep spec (whose ``configure`` callable may be an
    unpicklable closure).
    """

    index: int
    x: float
    protocol: str
    seed: int
    config: ScenarioConfig
    batch: Optional[Tuple[int, float]] = None

    @property
    def label(self) -> str:
        return f"{self.protocol} x={self.x} seed={self.seed}"


def expand_cells(
    spec: "SweepSpec",
    base: ScenarioConfig,
    protocols: Sequence[str],
    seeds: Sequence[int],
) -> List[SweepCell]:
    """Flatten a sweep grid into work items, in serial-loop order."""
    cells: List[SweepCell] = []
    for x in spec.x_values:
        for protocol in protocols:
            for seed in seeds:
                config = spec.configure(base, x, protocol, seed)
                batch: Optional[Tuple[int, float]] = None
                if spec.batch is not None:
                    n_packets, max_time_s = spec.batch(x, config)
                    batch = (int(n_packets), float(max_time_s))
                cells.append(
                    SweepCell(len(cells), x, protocol, seed, config, batch)
                )
    return cells


def _restore_cell_checkpoint(
    cell: SweepCell, checkpoint_path: Union[str, Path]
) -> Optional[Scenario]:
    """Restore a cell's checkpoint if one exists and is trustworthy.

    Anything less than a perfect match — missing file, corrupt blob, a
    snapshot from different source code, or (paranoia against key
    collisions) a config that is not exactly this cell's config — means
    "no checkpoint": the cell simply reruns from zero, which is always
    correct, just slower.
    """
    if not os.path.exists(checkpoint_path):
        return None
    try:
        scenario = read_checkpoint(checkpoint_path)
    except CheckpointError:
        return None
    if scenario.config != cell.config:
        return None
    return scenario


def execute_cell(
    cell: SweepCell,
    wall_budget_s: Optional[float] = None,
    checkpoint_path: Union[str, Path, None] = None,
    checkpoint_every_s: Optional[float] = None,
) -> ScenarioResult:
    """Run one cell to completion (steady-state or batch-drain).

    With ``checkpoint_path`` set, the cell resumes from that checkpoint
    when a valid one exists, and — if ``checkpoint_every_s`` is also set —
    rewrites it every so many simulated seconds while running.  The file
    is removed on success, so a later rerun of the same cell starts fresh.
    """
    scenario: Optional[Scenario] = None
    if checkpoint_path is not None:
        scenario = _restore_cell_checkpoint(cell, checkpoint_path)
    resumed = scenario is not None
    if scenario is None:
        scenario = Scenario(cell.config)
    if wall_budget_s is not None:
        scenario.sim.set_wall_deadline(wall_budget_s)
    on_checkpoint = None
    if checkpoint_path is not None and checkpoint_every_s:

        def on_checkpoint(snap: Scenario) -> None:
            write_checkpoint(checkpoint_path, snap)

    if resumed:
        result = scenario.resume(checkpoint_every_s, on_checkpoint)
    elif cell.batch is not None:
        n_packets, max_time_s = cell.batch
        result = scenario.run_batch(
            n_packets, max_time_s, checkpoint_every_s, on_checkpoint
        )
    else:
        result = scenario.run_steady_state(checkpoint_every_s, on_checkpoint)
    if checkpoint_path is not None:
        try:
            os.unlink(checkpoint_path)
        except OSError:
            pass
    return result


def _pool_worker(
    cell: SweepCell,
    wall_budget_s: Optional[float],
    checkpoint_path: Union[str, Path, None] = None,
    checkpoint_every_s: Optional[float] = None,
) -> Tuple[int, float, ScenarioResult]:
    """Pool entry point: returns (cell index, wall-clock seconds, result)."""
    started = time.perf_counter()
    # Checkpoint kwargs are only passed when checkpointing is on: tests
    # monkeypatch ``execute_cell`` with the classic two-argument signature.
    if checkpoint_path is not None:
        result = execute_cell(
            cell,
            wall_budget_s,
            checkpoint_path=checkpoint_path,
            checkpoint_every_s=checkpoint_every_s,
        )
    else:
        result = execute_cell(cell, wall_budget_s)
    return cell.index, time.perf_counter() - started, result


class ParallelSweepRunner:
    """Fan sweep cells over a process pool, with caching and recovery.

    Args:
        workers: Pool size; ``None``/``0`` uses the CPU count, ``1`` runs
            in-process (still honouring the cache).
        cache: ``None``/``False`` (off), ``True`` (default location), a
            path, or a :class:`ResultCache`.
        cell_timeout_s: Cooperative wall-clock budget per cell.  A cell
            that exceeds it is requeued and re-run serially (resuming
            from its checkpoint when checkpointing is on).
        progress: Same callback contract as :func:`run_sweep`; receives a
            line per cell with its wall-clock cost (or ``cached``).
        mp_context: ``multiprocessing`` start method; ``spawn`` (default)
            is safe everywhere and matches what macOS/Windows force.
        checkpoint_every_s: Simulated seconds between per-cell
            checkpoints.  ``None`` (default) disables checkpointing
            entirely — cells run exactly as before, zero hot-path cost.
        checkpoint_dir: Where per-cell checkpoint files live.  ``None``
            with checkpointing enabled uses a runner-owned temporary
            directory, removed when :meth:`run_cells` finishes; passing a
            path keeps checkpoints across runner instances (a crashed
            *sweep* can then resume its in-flight cells too).
        max_serial_attempts: Attempt cap for the serial recovery path (a
            requeued cell that keeps failing is recorded in
            :attr:`failures` instead of retrying forever).
        recovery_timeout_s: Per-attempt wall-clock budget for recovery
            re-runs.  ``None`` derives ``2 * cell_timeout_s`` (recovery
            gets more room than the pooled attempt, but stays bounded);
            with no ``cell_timeout_s`` either, recovery runs unbounded
            like before.  The primary ``workers=1`` serial path is never
            budgeted — only recovery re-runs are.
        pool_guard_s: Override for the parent-side hung-pool guard window
            (default ``max(2 * cell_timeout_s, 30.0)``).  Exposed mainly
            so tests can exercise the hung branch quickly.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: object = None,
        cell_timeout_s: Optional[float] = None,
        progress: Progress = None,
        mp_context: str = "spawn",
        checkpoint_every_s: Optional[float] = None,
        checkpoint_dir: Union[str, Path, None] = None,
        max_serial_attempts: int = 3,
        recovery_timeout_s: Optional[float] = None,
        pool_guard_s: Optional[float] = None,
    ) -> None:
        self.workers = workers if workers else (os.cpu_count() or 1)
        self.cache: Optional[ResultCache] = resolve_cache(cache)  # type: ignore[arg-type]
        self.cell_timeout_s = cell_timeout_s
        self.progress = progress
        self.mp_context = mp_context
        self.checkpoint_every_s = checkpoint_every_s
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self._owns_checkpoint_dir = False
        if max_serial_attempts < 1:
            raise ValueError("max_serial_attempts must be >= 1")
        self.max_serial_attempts = max_serial_attempts
        self.recovery_timeout_s = recovery_timeout_s
        self.pool_guard_s = pool_guard_s
        #: Cells whose first (pooled) attempt timed out or crashed and
        #: which were re-run serially — observability for tests and CLIs.
        self.requeued: List[SweepCell] = []
        #: Cells that failed even on the serial retry.  A failure marks
        #: its cell as lost (empty grid entry) instead of aborting the
        #: whole sweep, and is reported through ``progress``.
        self.failures: List[CellFailure] = []
        #: How many finished cells were completed from a checkpoint
        #: rather than from scratch (summed over pooled + serial runs).
        self.cells_resumed = 0
        #: Total checkpoints taken across every finished cell.
        self.checkpoints_taken = 0

    # ------------------------------------------------------------------
    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    @property
    def _checkpointing(self) -> bool:
        return bool(self.checkpoint_every_s and self.checkpoint_every_s > 0)

    def _checkpoint_path_for(self, cell: SweepCell, keys: Dict[int, str]) -> Optional[Path]:
        """Per-cell checkpoint file, content-addressed by the cell key.

        Keyed the same way as the result cache, so a persistent
        ``checkpoint_dir`` can hand a crashed sweep's in-flight cells to
        the rerun that picks them up — and a code edit (new digest, new
        key) can never resume under changed simulation code.
        """
        if not self._checkpointing or self._checkpoint_dir is None:
            return None
        return self._checkpoint_dir / f"{keys[cell.index]}.ckpt"

    def _setup_checkpoint_dir(self) -> None:
        if not self._checkpointing:
            return
        if self._checkpoint_dir is None:
            self._checkpoint_dir = Path(
                tempfile.mkdtemp(prefix="repro-checkpoints-")
            )
            self._owns_checkpoint_dir = True
        else:
            self._checkpoint_dir.mkdir(parents=True, exist_ok=True)

    def _teardown_checkpoint_dir(self) -> None:
        if self._owns_checkpoint_dir and self._checkpoint_dir is not None:
            shutil.rmtree(self._checkpoint_dir, ignore_errors=True)
            self._checkpoint_dir = None
            self._owns_checkpoint_dir = False

    def run(
        self,
        spec: "SweepSpec",
        base: ScenarioConfig,
        protocols: Sequence[str],
        seeds: Sequence[int],
    ) -> "GridResults":
        """Run every cell and reassemble the serial-ordered grid."""
        cells = expand_cells(spec, base, protocols, seeds)
        results = self.run_cells(cells)
        grid: Dict[Tuple[float, str], List[ScenarioResult]] = {}
        for cell, result in zip(cells, results):
            # Every (x, protocol) pair gets its grid entry even when all
            # its cells failed, so aggregation can never KeyError — a lost
            # cell shows up as a missing sample, not a crashed sweep.
            bucket = grid.setdefault((cell.x, cell.protocol), [])
            if result is not None:
                bucket.append(result)
        return grid

    def run_cells(self, cells: Sequence[SweepCell]) -> List[Optional[ScenarioResult]]:
        """Execute cells (cache, pool, recovery) and return them in order.

        Slots of cells that failed permanently (recorded in
        :attr:`failures`) are ``None``.
        """
        self.requeued = []
        self.failures = []
        self.cells_resumed = 0
        self.checkpoints_taken = 0
        results: List[Optional[ScenarioResult]] = [None] * len(cells)
        keys: Dict[int, str] = {}
        pending: List[SweepCell] = []
        if self.cache is not None or self._checkpointing:
            version = code_version()
            for cell in cells:
                keys[cell.index] = cell_key(cell.config, cell.batch, version)
        for cell in cells:
            if self.cache is not None:
                hit = self.cache.get(keys[cell.index])
                if hit is not None:
                    results[cell.index] = hit
                    self._emit(f"{cell.label} cached")
                    continue
            pending.append(cell)

        if pending:
            self._setup_checkpoint_dir()
            try:
                if self.workers <= 1 or len(pending) == 1:
                    self._run_serial(pending, results, keys)
                else:
                    retry = self._run_pool(pending, results, keys)
                    if retry:
                        self.requeued = sorted(retry, key=lambda c: c.index)
                        self._run_serial(self.requeued, results, keys, recovery=True)
            finally:
                self._teardown_checkpoint_dir()

        failed_indices = {failure.cell.index for failure in self.failures}
        missing = [
            cell
            for cell in cells
            if results[cell.index] is None and cell.index not in failed_indices
        ]
        for cell in missing:  # pragma: no cover - defensive; recovery fills all
            self.failures.append(
                CellFailure(cell=cell, error="cell never completed (pool lost it)")
            )
        if self.failures:
            labels = ", ".join(f.cell.label for f in self.failures)
            self._emit(
                f"sweep finished with {len(self.failures)} failed cell(s): {labels}"
            )
        return results

    # ------------------------------------------------------------------
    def _finish(
        self,
        cell: SweepCell,
        result: ScenarioResult,
        elapsed_s: float,
        results: List[Optional[ScenarioResult]],
        keys: Dict[int, str],
        note: str = "",
    ) -> None:
        results[cell.index] = result
        if self.cache is not None:
            self.cache.put(keys[cell.index], result)
        if result.perf is not None:
            if result.perf.resumes > 0:
                self.cells_resumed += 1
            self.checkpoints_taken += result.perf.checkpoints_taken
        self._emit(f"{cell.label} done in {elapsed_s:.2f}s{note}")

    def _recovery_budget_s(self) -> Optional[float]:
        """Per-attempt wall-clock budget for recovery re-runs."""
        if self.recovery_timeout_s is not None:
            return self.recovery_timeout_s
        if self.cell_timeout_s is not None:
            return 2 * self.cell_timeout_s
        return None

    def _run_serial(
        self,
        cells: Sequence[SweepCell],
        results: List[Optional[ScenarioResult]],
        keys: Dict[int, str],
        recovery: bool = False,
    ) -> None:
        """In-parent execution: the workers=1 path and the recovery path.

        The primary (``recovery=False``) path runs each cell once with no
        wall-clock budget, exactly like the classic serial loop.  The
        recovery path is bounded both ways: each re-run gets at most
        :meth:`_recovery_budget_s` of wall clock and each cell at most
        ``max_serial_attempts`` tries — a truly wedged cell becomes a
        :class:`CellFailure` instead of blocking the sweep forever.  With
        checkpointing on, every attempt resumes from the cell's last
        checkpoint, so bounded retries still make monotonic progress.
        A cell that raises a non-timeout error (bad config, protocol bug,
        failed audit) is recorded in :attr:`failures` and the rest of the
        sweep continues.
        """
        attempts = self.max_serial_attempts if recovery else 1
        budget_s = self._recovery_budget_s() if recovery else None
        for cell in cells:
            checkpoint_path = self._checkpoint_path_for(cell, keys)
            started = time.perf_counter()
            result: Optional[ScenarioResult] = None
            error: Optional[BaseException] = None
            error_tb = ""
            for attempt in range(1, attempts + 1):
                try:
                    # Checkpoint kwargs are only passed when checkpointing
                    # is on: tests monkeypatch ``execute_cell`` with the
                    # classic two-argument signature.
                    if checkpoint_path is not None:
                        result = execute_cell(
                            cell,
                            budget_s,
                            checkpoint_path=checkpoint_path,
                            checkpoint_every_s=self.checkpoint_every_s,
                        )
                    else:
                        result = execute_cell(cell, budget_s)
                    break
                except WallClockExceeded as exc:
                    error, error_tb = exc, traceback.format_exc()
                    if attempt < attempts:
                        self._emit(
                            f"{cell.label} retry {attempt}/{attempts} timed out; "
                            "retrying"
                            + (" from checkpoint" if checkpoint_path else "")
                        )
                except Exception as exc:
                    error, error_tb = exc, traceback.format_exc()
                    if attempt < attempts:
                        self._emit(
                            f"{cell.label} retry {attempt}/{attempts} crashed "
                            f"({type(exc).__name__}: {exc}); retrying"
                        )
            if result is None:
                self.failures.append(
                    CellFailure(
                        cell=cell,
                        error=f"{type(error).__name__}: {error}",
                        traceback=error_tb,
                    )
                )
                self._emit(
                    f"{cell.label} failed permanently "
                    f"({type(error).__name__}: {error}); continuing"
                )
                continue
            self._finish(cell, result, time.perf_counter() - started, results, keys)

    def _run_pool(
        self,
        cells: Sequence[SweepCell],
        results: List[Optional[ScenarioResult]],
        keys: Dict[int, str],
    ) -> List[SweepCell]:
        """Pooled execution; returns the cells that need a serial retry."""
        context = multiprocessing.get_context(self.mp_context)
        n_workers = min(self.workers, len(cells))
        retry: List[SweepCell] = []
        # A worker stuck *outside* the event loop never hits the
        # cooperative deadline, so the parent also bounds how long it will
        # wait between completions before declaring the pool hung.
        if self.pool_guard_s is not None:
            guard_s: Optional[float] = self.pool_guard_s
        else:
            guard_s = (
                None
                if self.cell_timeout_s is None
                else max(2 * self.cell_timeout_s, 30.0)
            )
        pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=context)
        hung = False
        try:
            # As in ``_run_serial``: checkpoint arguments only when
            # checkpointing is on, so monkeypatched two-argument workers
            # keep working.
            if self._checkpointing:
                future_to_cell = {
                    pool.submit(
                        _pool_worker,
                        cell,
                        self.cell_timeout_s,
                        self._checkpoint_path_for(cell, keys),
                        self.checkpoint_every_s,
                    ): cell
                    for cell in cells
                }
            else:
                future_to_cell = {
                    pool.submit(_pool_worker, cell, self.cell_timeout_s): cell
                    for cell in cells
                }
            waiting = set(future_to_cell)
            while waiting:
                done, waiting = wait(
                    waiting, timeout=guard_s, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Guard window expired with no completions: the pool is
                    # hung.  Abandon it; everything unfinished retries
                    # serially.
                    retry.extend(future_to_cell[f] for f in waiting)
                    hung = True
                    self._emit(
                        f"pool hung ({len(waiting)} cells unfinished), "
                        "requeueing serially"
                    )
                    break
                for future in done:
                    cell = future_to_cell[future]
                    try:
                        _, elapsed_s, result = future.result()
                    except WallClockExceeded:
                        retry.append(cell)
                        self._emit(f"{cell.label} timed out, requeueing serially")
                    except BrokenProcessPool:
                        retry.append(cell)
                        self._emit(f"{cell.label} lost to a dead worker, requeueing")
                    except Exception as exc:  # worker raised: requeue
                        retry.append(cell)
                        self._emit(
                            f"{cell.label} crashed ({type(exc).__name__}: {exc}), "
                            "requeueing serially"
                        )
                    else:
                        self._finish(cell, result, elapsed_s, results, keys)
        finally:
            if hung:
                # A wedged worker would otherwise be joined at interpreter
                # exit; there is no public kill API on the executor, and
                # the process table must be read *before* shutdown clears
                # it.
                processes = list((getattr(pool, "_processes", None) or {}).values())
                for process in processes:
                    process.terminate()
            # cancel_futures keeps a hung/broken pool from blocking exit;
            # Python 3.9+ supports the keyword.
            pool.shutdown(wait=False, cancel_futures=True)
        return retry
