"""Experiment harness: Table 2 configs, scenarios, sweeps, figure runners."""

from ..faults import FaultPlan, FaultReport
from .cache import ResultCache, cell_key, code_version
from .chaos import CHAOS_PROTOCOLS, ChaosSummary, chaos, chaos_figure_plan, chaos_plan
from .engine import (
    PAPER_PROTOCOLS,
    EngineError,
    FigurePlan,
    SweepObserver,
    SweepRequest,
    SweepResult,
    SweepSpec,
    aggregate,
    aggregate_relative,
    apply_overrides,
    observe_sweeps,
    request_key,
    request_plan,
    run_plan,
    run_request,
    run_sweep,
    service_targets,
)
from .config import TABLE2, ScenarioConfig, table2_config
from .figures import ALL_FIGURES, ALL_PLANS, PAPER_EXPECTATIONS, FigureData
from .parallel import CellFailure, ParallelSweepRunner, SweepCell, expand_cells
from .report import format_figure, write_csv
from .ablations import ALL_ABLATIONS
from .scenario import Scenario, ScenarioResult, run_batch_scenario, run_scenario
from .timeline import (
    TimelineEntry,
    extra_exploitation_summary,
    extract_timeline,
    format_timeline,
)

__all__ = [
    "ALL_ABLATIONS",
    "ALL_FIGURES",
    "ALL_PLANS",
    "CHAOS_PROTOCOLS",
    "CellFailure",
    "ChaosSummary",
    "EngineError",
    "FaultPlan",
    "FaultReport",
    "FigureData",
    "FigurePlan",
    "chaos",
    "chaos_figure_plan",
    "chaos_plan",
    "TimelineEntry",
    "extra_exploitation_summary",
    "extract_timeline",
    "format_timeline",
    "PAPER_EXPECTATIONS",
    "PAPER_PROTOCOLS",
    "ParallelSweepRunner",
    "ResultCache",
    "Scenario",
    "ScenarioConfig",
    "ScenarioResult",
    "SweepCell",
    "SweepObserver",
    "SweepRequest",
    "SweepResult",
    "SweepSpec",
    "TABLE2",
    "aggregate",
    "aggregate_relative",
    "apply_overrides",
    "cell_key",
    "code_version",
    "expand_cells",
    "format_figure",
    "observe_sweeps",
    "request_key",
    "request_plan",
    "run_batch_scenario",
    "run_plan",
    "run_request",
    "run_scenario",
    "run_sweep",
    "service_targets",
    "table2_config",
    "write_csv",
]
