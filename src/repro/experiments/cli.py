"""Command-line entry point: regenerate any paper figure, or serve sweeps.

Examples::

    repro-uasn fig6                  # full Fig. 6 sweep, 3 seeds
    repro-uasn fig8 --quick          # scaled-down Fig. 8
    repro-uasn all --quick --csv out # everything, CSVs into ./out
    repro-uasn table2                # print the Table 2 defaults
    repro-uasn serve --port 8642     # REST job service over the engine

Exit codes: ``0`` success, ``1`` engine-level failure (a sweep cell
failed permanently, a chaos audit tripped, the A/B gate diverged),
``2`` bad invocation (invalid config override, malformed arguments).
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .ablations import ALL_ABLATIONS
from .config import TABLE2
from .engine import EngineError, observe_sweeps
from .figures import ALL_FIGURES
from .report import format_figure, write_csv

_RUNNERS = {**ALL_FIGURES, **ALL_ABLATIONS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-uasn",
        description="Reproduce the EW-MAC paper's evaluation figures.",
    )
    parser.add_argument(
        "target",
        choices=sorted(_RUNNERS)
        + ["all", "ablations", "chaos", "scale", "serve", "table2", "report"],
        help="figure or ablation to regenerate ('all' = paper figures, "
        "'ablations' = every ablation, 'chaos' = seeded fault-injection "
        "robustness sweep, 'scale' = wall-clock scaling sweep over node "
        "count, 'serve' = run the REST job service, 'report' = rebuild "
        "EXPERIMENTS.md from the --csv directory)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default="EXPERIMENTS.md",
        metavar="FILE",
        help="output path for the 'report' target",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, help="number of replication seeds (default 3)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down run (coarse axis, 1 seed)"
    )
    parser.add_argument(
        "--csv", type=str, default=None, metavar="DIR", help="also write CSVs here"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan sweep cells over N worker processes (0 = CPU count; "
        "default 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of reusing the on-disk result "
        "cache (default cache dir: ./.repro-cache, override with "
        "$REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget for parallel runs; cells over "
        "budget are re-run serially",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help="checkpoint each cell's simulation state every SECONDS of "
        "simulated time, so interrupted/timed-out cells resume from the "
        "last checkpoint instead of restarting (default: off; resumed "
        "results are bit-identical to uninterrupted runs)",
    )
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a ScenarioConfig field of the target's base config "
        "(repeatable, e.g. --override n_sensors=20 --override "
        "sim_time_s=60.0); an unknown field or invalid value exits 2",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions plus "
        "per-subsystem perf counters (forces --workers 1 and --no-cache "
        "so every cell is computed, and profiled, in this process)",
    )
    parser.add_argument(
        "--no-spatial-grid",
        action="store_true",
        help="scale target: disable the spatial-hash reach cull (A/B "
        "profiling; results are bit-identical either way)",
    )
    parser.add_argument(
        "--no-delta-epochs",
        action="store_true",
        help="scale target: disable movement-bounded delta-epoch skips "
        "(A/B profiling; results are bit-identical either way)",
    )
    parser.add_argument(
        "--ab-check",
        action="store_true",
        help="scale target: before sweeping, run the smallest cell on the "
        "default geometry stack and on the scalar reference path "
        "(link_cache=False) and fail unless every figure metric is "
        "bit-identical (the CI equivalence gate)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print per-run progress"
    )
    parser.add_argument(
        "--chart", action="store_true", help="also render ASCII line charts"
    )
    service = parser.add_argument_group("serve target")
    service.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (serve)"
    )
    service.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port (serve; 0 picks a free port, printed on stdout)",
    )
    service.add_argument(
        "--store",
        type=str,
        default=".repro-service.sqlite",
        metavar="FILE",
        help="persistent job store path (serve); jobs leased by a crashed "
        "service are requeued once their lease expires",
    )
    service.add_argument(
        "--service-workers",
        type=int,
        default=1,
        metavar="N",
        help="concurrent job worker threads (serve); each job additionally "
        "fans its cells over --workers processes",
    )
    service.add_argument(
        "--lease-s",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="job claim lease duration (serve); a worker that stops "
        "heartbeating for this long loses its job back to the queue",
    )
    service.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="retry budget per job (serve); a job whose worker crashes N "
        "times is quarantined instead of requeued",
    )
    service.add_argument(
        "--chaos-kill-after",
        type=int,
        default=None,
        metavar="LINES",
        help="fault injection (serve): SIGKILL this service process after "
        "the N-th progress line of any job, leaving a leased running job "
        "behind (crash-recovery smoke test)",
    )
    service.add_argument(
        "--allow-shutdown",
        action="store_true",
        help="enable POST /shutdown for clean remote stops (CI smoke)",
    )
    service.add_argument(
        "--http-log",
        action="store_true",
        help="log every HTTP request to stderr (serve)",
    )
    return parser


def parse_overrides(pairs: List[str]) -> Dict[str, object]:
    """``FIELD=VALUE`` strings -> typed override mapping.

    Values parse as Python literals (``20``, ``60.0``, ``False``);
    anything unparseable stays a string.  A pair without ``=`` raises
    :class:`~repro.experiments.engine.EngineError` (exit code 2).
    """
    overrides: Dict[str, object] = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise EngineError(
                f"bad --override {pair!r}: expected FIELD=VALUE"
            )
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[name] = value
    return overrides


def _engine_kwargs(runner, args: argparse.Namespace) -> Dict[str, object]:
    """Sweep-engine kwargs for runners that support them.

    The figure runners route through the parallel engine; the ablation
    runners drive scenarios directly (their tweaks are closures) and take
    no engine arguments, so only the parameters a runner declares are
    passed.
    """
    supported = inspect.signature(runner).parameters
    kwargs: Dict[str, object] = {}
    if "workers" in supported:
        kwargs["workers"] = None if args.workers == 0 else args.workers
    if "cache" in supported:
        kwargs["cache"] = not args.no_cache
    if "cell_timeout_s" in supported and args.cell_timeout is not None:
        kwargs["cell_timeout_s"] = args.cell_timeout
    if "checkpoint_every_s" in supported and args.checkpoint_every is not None:
        kwargs["checkpoint_every_s"] = args.checkpoint_every
    if "overrides" in supported and args.override:
        kwargs["overrides"] = parse_overrides(args.override)
    return kwargs


def _print_table2() -> None:
    print("Table 2. Simulation parameters")
    for key, value in TABLE2.items():
        print(f"  {key:28s} {value}")


def _finish_observed(observer, cache_enabled: bool) -> int:
    """Shared epilogue: cache accounting and the failure exit code."""
    if cache_enabled:
        print(f"  {observer.cache_line()}")
    if observer.failures:
        for failure in observer.failures:
            print(
                f"FAIL: cell {failure.cell.label} failed permanently: "
                f"{failure.error}",
                file=sys.stderr,
            )
        return 1
    return 0


def _serve(args: argparse.Namespace) -> int:
    from ..service.api import serve

    run_kwargs: Dict[str, object] = {
        "workers": None if args.workers == 0 else args.workers,
        "cache": not args.no_cache,
    }
    if args.cell_timeout is not None:
        run_kwargs["cell_timeout_s"] = args.cell_timeout
    if args.checkpoint_every is not None:
        run_kwargs["checkpoint_every_s"] = args.checkpoint_every
    return serve(
        host=args.host,
        port=args.port,
        store_path=args.store,
        n_service_workers=args.service_workers,
        run_kwargs=run_kwargs,
        allow_shutdown=args.allow_shutdown,
        quiet=not args.http_log,
        lease_s=args.lease_s,
        max_attempts=args.max_attempts,
        chaos_kill_after=args.chaos_kill_after,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        # Engine-level config/validation failures surface as a named
        # error and a nonzero exit, never a silent success.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.target == "table2":
        _print_table2()
        return 0
    if args.target == "serve":
        return _serve(args)
    if args.target == "report":
        if not args.csv:
            print("report needs --csv DIR (where the figure CSVs live)", file=sys.stderr)
            return 2
        from .experiments_doc import build_experiments_md

        text = build_experiments_md(Path(args.csv))
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
        return 0
    progress = (lambda msg: print(f"  .. {msg}", file=sys.stderr)) if args.verbose else None
    seeds = tuple(range(1, args.seeds + 1))
    if args.target == "chaos":
        from .chaos import chaos

        kwargs = _engine_kwargs(chaos, args)
        with observe_sweeps() as observer:
            data, summary = chaos(
                seeds=seeds, quick=args.quick, progress=progress, **kwargs
            )
        print(format_figure(data))
        for line in summary.lines():
            print(f"  {line}")
        if args.csv:
            path = write_csv(data, Path(args.csv) / "chaos.csv")
            print(f"  csv: {path}")
        status = _finish_observed(observer, not args.no_cache)
        if status:
            return status
        if summary.wedged_handshakes > 0:
            print(
                f"FAIL: {summary.wedged_handshakes} wedged handshake(s) "
                "survived the post-run audit",
                file=sys.stderr,
            )
            return 1
        if summary.faulted_cells > 0 and summary.recoveries == 0:
            print(
                "FAIL: faulted cells ran but no node ever recovered — "
                "the recovery path is not being exercised",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.target == "scale":
        from .scale import QUICK_NODES, SCALE_NODES, ab_check, scale

        if args.ab_check:
            smallest = (QUICK_NODES if args.quick else SCALE_NODES)[0]
            try:
                ab_check(smallest, seed=seeds[0] if seeds else 1, progress=progress)
            except AssertionError as exc:
                print(f"FAIL: {exc}", file=sys.stderr)
                return 1
        data = scale(
            seeds=seeds,
            quick=args.quick,
            progress=progress,
            spatial_grid=not args.no_spatial_grid,
            delta_epochs=not args.no_delta_epochs,
        )
        print(format_figure(data))
        if args.csv:
            path = write_csv(data, Path(args.csv) / "scale.csv")
            print(f"  csv: {path}")
        return 0
    if args.target == "all":
        targets = sorted(ALL_FIGURES)
    elif args.target == "ablations":
        targets = sorted(ALL_ABLATIONS)
    else:
        targets = [args.target]
    profiler = None
    if args.profile:
        # Child processes would escape the profiler and the in-process perf
        # accumulator, and cache hits would skip the work being measured.
        args.workers = 1
        args.no_cache = True
        from ..perf import GLOBAL_PERF

        GLOBAL_PERF.reset()
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        with observe_sweeps() as observer:
            for target in targets:
                runner = _RUNNERS[target]
                kwargs = _engine_kwargs(runner, args)
                data = runner(seeds=seeds, quick=args.quick, progress=progress, **kwargs)
                print(format_figure(data))
                if args.chart:
                    from ..analysis.charts import figure_chart

                    print(figure_chart(data))
                if args.csv:
                    path = write_csv(data, Path(args.csv) / f"{target}.csv")
                    print(f"  csv: {path}\n")
    finally:
        if profiler is not None:
            profiler.disable()
            _print_profile(profiler)
    return _finish_observed(observer, not args.no_cache)


def _print_profile(profiler: "cProfile.Profile") -> None:
    """Perf-counter summary plus the 25 hottest functions by cumulative time."""
    import io
    import pstats

    from ..perf import GLOBAL_PERF

    print("\n== perf counters " + "=" * 47)
    for line in GLOBAL_PERF.summary_lines():
        print(f"  {line}")
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    print("== cProfile (top 25 by cumulative time) " + "=" * 24)
    print(buffer.getvalue())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
