"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's evaluation artifacts
(Table 2 or Figs. 6-11) in *quick* mode — coarser sweep axis, single seed,
shorter measurement window — so the whole suite runs in minutes.  The full
fidelity runs are available via the CLI: ``repro-uasn <figure>``.

pytest-benchmark measures the wall-clock cost of regenerating each
artifact; the generated series themselves are printed so the run doubles
as a reproduction report (captured with ``-s`` or in the benchmark log).
"""

from __future__ import annotations

import pytest

from repro.experiments.engine import observe_sweeps, run_plan
from repro.experiments.figures import FigureData
from repro.experiments.report import format_figure


def pytest_addoption(parser):
    parser.addoption(
        "--workers",
        type=int,
        default=1,
        help="run figure sweeps through the parallel engine with N worker "
        "processes (0 = CPU count; default 1 = serial)",
    )
    parser.addoption(
        "--use-cache",
        action="store_true",
        help="reuse the on-disk result cache ($REPRO_CACHE_DIR or "
        "./.repro-cache) and print hit/miss counts; only sensible with "
        "--benchmark-disable, since cached cells skip the work being timed",
    )


@pytest.fixture
def sweep_workers(request):
    """Worker count for benchmarks that route through the sweep engine.

    ``--workers 0`` maps to None (CPU count) per the engine's convention.
    """
    workers = request.config.getoption("--workers")
    return None if workers == 0 else workers


def emit(data: FigureData) -> FigureData:
    """Print a regenerated figure (visible with ``pytest -s``)."""
    print()
    print(format_figure(data))
    return data


def check_figure(data: FigureData, figure_id: str) -> None:
    """Structural sanity shared by every figure benchmark."""
    assert data.figure_id == figure_id
    assert data.x_values == sorted(data.x_values)
    assert set(data.series) == {"S-FAMA", "ROPA", "CS-MAC", "EW-MAC"}
    for protocol, series in data.series.items():
        assert len(series) == len(data.x_values), protocol
        assert all(v >= 0.0 for v in series), protocol


@pytest.fixture
def one_shot(benchmark, request):
    """Run the expensive artifact generation exactly once under timing.

    Sweep benchmarks time ``run_plan(<id>_plan(...), ...)``.  With
    ``--use-cache`` those runs reuse the on-disk result cache (the CI
    smoke jobs warm it across runs) and the cache traffic is printed
    after the run; single-scenario benchmarks always compute.
    """
    use_cache = request.config.getoption("--use-cache")

    def run(fn, *args, **kwargs):
        if use_cache and fn is run_plan:
            kwargs.setdefault("cache", True)
        with observe_sweeps() as observer:
            result = benchmark.pedantic(
                fn, args=args, kwargs=kwargs, rounds=1, iterations=1
            )
        if use_cache:
            print(f"\n{observer.cache_line()}")
        return result

    return run
