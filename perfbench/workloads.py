"""The three benchmark workloads and their correctness checks.

Each workload runs for a wall-clock budget in rounds and returns an
:class:`Outcome`: timing samples for the end-to-end metrics, the
calibration-loop times measured at each round start, the operations
attempted and failed, and a digest of the simulated outputs.  In traced mode each round
runs untraced and then traced with the layer hooks installed (see
:mod:`layers`), so tracing overhead and digest equality are measured on
identical work.

Work differs from seed to seed (by ~10% for one Table-2 cell and up to
40% for one quick fig6 job), so every workload cycles through several
sub-seeds derived from the benchmark seed and averages their medians.

``paper_cell``
    The Table-2 cell: EW-MAC, 60 sensors, mobile, 0.8 kbps, 300 s.
    A round is one cell for each of 8 sub-seeds.
``dense_scale``
    ``scale_config(3000, sim_time_s=8.0)``: tiled, mobile 3000 nodes.
    A round is one cell for each of 3 sub-seeds.
``service_fig6``
    A fresh in-process service per round (sqlite store, HTTP server on
    port 0, one worker thread, serial engine, empty result cache); one
    closed-loop client, opening a new connection per request, posts a
    quick fig6 job (cold cache), then the matching quick fig11 job (all
    cache hits), then re-posts fig6 ``DEDUPE_PER_ROUND`` times (dedupe
    hits).  Rounds cycle through 4 sub-seeds.  Each round also starts and
    stops ``SETUP_PROBES`` bare services to time set-up.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import http.client
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

PAPER_SUBSEEDS = 8
DENSE_SUBSEEDS = 3
SERVICE_SUBSEEDS = 4
#: Rounds an untraced cell run always completes, even past its time
#: budget: the determinism check needs every sub-seed at least twice.  A
#: traced round already runs each sub-seed twice (untraced, then traced).
MIN_ROUNDS = 2
DEDUPE_PER_ROUND = 20
#: Extra service start-ups timed per round: one start-up takes a few
#: milliseconds, so a single sample per round is mostly noise.
SETUP_PROBES = 8
FIG6_CELLS = 12
PAPER_LOAD_KBPS = 0.8


def sub_seeds(seed: int, count: int) -> List[int]:
    """Scenario seeds of one benchmark seed (seed 0 -> 1..count)."""
    return [seed * count + i + 1 for i in range(count)]


@dataclass
class Outcome:
    """What one workload run measured."""

    #: metric -> group (sub-seed, or 0) -> samples.
    samples: Dict[str, Dict[int, List[float]]] = field(default_factory=dict)
    #: Informational, not applied to any metric: see :func:`calibration_s`.
    calibration_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    #: Informational: mean |simulated - paper| throughput, kbps.
    fidelity_mae_kbps: Optional[float] = None
    rounds: int = 0
    #: Traced mode only: per-layer metrics (name -> (value, unit)).
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Span totals and reference counts for the trace file.
    trace_summary: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def add(self, metric: str, value: float, group: int = 0) -> None:
        self.samples.setdefault(metric, {}).setdefault(group, []).append(value)

    def median(self, metric: str, group: int) -> float:
        return statistics.median(self.samples[metric][group])

    def summary(self, metric: str) -> Tuple[float, int]:
        """(value, sample count) of one metric.

        The value is the mean over groups (sub-seeds) of each group's
        median sample; with one group it is the plain median.
        """
        groups = self.samples[metric].values()
        value = statistics.fmean(statistics.median(g) for g in groups)
        return value, sum(len(g) for g in groups)

    def p90(self, metric: str) -> float:
        values = sorted(v for g in self.samples[metric].values() for v in g)
        return values[min(len(values) - 1, int(0.9 * len(values)))]

    def calibrate(self) -> None:
        self.calibration_s.append(calibration_s())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Small enough (~5 MB) to stay under every workload's own peak memory.
CALIBRATION_POINTS = 32_768
CALIBRATION_READS = 262_144
CALIBRATION_HEAP = 40_000


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a = a
        self.b = b


def calibration_s() -> float:
    """CPU seconds of a fixed pure-Python loop that uses no program code.

    Object allocation, random attribute reads and heap traffic, like the
    simulator's hot loop; about 0.15 s on a 2-vCPU 2.1 GHz Xeon VM.  It is
    printed beside the results so that runs on different machines, or on
    one machine whose speed drifts, can be read side by side.  No metric
    is scaled by it.
    """
    start = time.process_time()
    rng = random.Random(7)
    points = [_Point(i, float(i)) for i in range(CALIBRATION_POINTS)]
    acc = 0.0
    for _ in range(CALIBRATION_READS):
        point = points[rng.randrange(CALIBRATION_POINTS)]
        acc += point.b * 0.5 + point.a
    heap: list = []
    for i in range(CALIBRATION_HEAP):
        heapq.heappush(heap, (rng.random(), i, None))
    while heap:
        heapq.heappop(heap)
    return time.process_time() - start


# ----------------------------------------------------------------------
# Simulated cells (paper_cell, dense_scale)
# ----------------------------------------------------------------------
def paper_config(seed: int):
    from repro.experiments.config import table2_config

    return table2_config(
        protocol="EW-MAC", offered_load_kbps=PAPER_LOAD_KBPS, mobility=True,
        sim_time_s=300.0, seed=seed,
    )


def dense_config(seed: int):
    from repro.experiments.scale import scale_config

    return scale_config(3000, sim_time_s=8.0, seed=seed)


def result_digest(result) -> str:
    """Digest of one cell's simulated outputs: throughput, energy,
    collisions, delivered bits and DES events (floats by exact repr)."""
    summary = result.to_dict()
    summary["delivered_bits"] = result.throughput.total_bits
    summary["energy_j"] = result.energy.total_j
    summary["des_events"] = result.perf.events if result.perf is not None else -1
    blob = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CellRun:
    setup_s: float
    cell_s: float
    latency_s: float
    digest: str
    events: int
    deliveries: int
    throughput_kbps: float
    violations: List[str]


def run_cell(config, tracer=None) -> CellRun:
    """Build and run one cell; time set-up (wall), run (CPU) and both (wall)."""
    from repro.experiments.scenario import Scenario
    from repro.faults.audit import audit_macs

    gc.collect()
    unit = contextlib.nullcontext()
    if tracer is not None:
        tracer.set_unit(f"cell-seed{config.seed}")
        unit = tracer.span("bench.unit")
    with unit:
        start = time.perf_counter()
        scenario = Scenario(config)
        built = time.perf_counter()
        cpu0 = time.process_time()
        result = scenario.run_steady_state()
        cpu1 = time.process_time()
        done = time.perf_counter()
    if tracer is not None:
        tracer.set_unit(None)
    run = CellRun(
        setup_s=built - start,
        cell_s=cpu1 - cpu0,
        latency_s=done - start,
        digest=result_digest(result),
        events=result.perf.events,
        deliveries=result.perf.deliveries,
        throughput_kbps=result.throughput_kbps,
        violations=audit_macs(scenario.macs),
    )
    del scenario, result
    gc.collect()
    return run


def run_cells(
    make_config: Callable[[int], object],
    seeds: List[int],
    seconds: float,
    traced: bool,
    trace_path: Optional[str],
    paper_value_kbps: Optional[float] = None,
) -> Outcome:
    """Round-robin the sub-seed cells until the time budget is spent."""
    out = Outcome()
    first: Dict[int, CellRun] = {}
    traced_cpu: Dict[int, List[float]] = {s: [] for s in seeds}
    tracer = counters = None
    if traced:
        from layers import LayerCounters, install
        from spans import Tracer

        tracer, counters = Tracer(), LayerCounters()
    deadline = time.perf_counter() + seconds

    def check(seed: int, run: CellRun, label: str) -> None:
        out.attempted += 1
        reference = first.setdefault(seed, run)
        if run.digest != reference.digest:
            out.fail(f"seed {seed} {label}: digest {run.digest} != {reference.digest}")
        elif run.violations:
            out.fail(f"seed {seed} {label}: wedged MACs: {run.violations[:3]}")

    min_rounds = 1 if traced else MIN_ROUNDS
    while out.rounds < min_rounds or time.perf_counter() < deadline:
        out.calibrate()
        for seed in seeds:
            # Past the minimum, stop at the deadline even mid-round; a
            # traced run keeps whole rounds so per-round counts are exact.
            if (tracer is None and out.rounds >= min_rounds
                    and time.perf_counter() >= deadline):
                break
            run = run_cell(make_config(seed))
            check(seed, run, "untraced")
            out.add("setup_s", run.setup_s)
            out.add("cell_s", run.cell_s, seed)
            out.add("job_latency_s", run.latency_s, seed)
            if tracer is not None:
                # The span log keeps the first traced cell; totals cover all.
                tracer.logging = out.rounds == 0 and seed == seeds[0]
                install(tracer, counters)
                try:
                    traced_run = run_cell(make_config(seed), tracer)
                finally:
                    tracer.uninstall()
                check(seed, traced_run, "traced")
                traced_cpu[seed].append(traced_run.cell_s)
        out.rounds += 1
    out.digest = hashlib.sha256(
        "".join(first[s].digest for s in seeds).encode()
    ).hexdigest()[:16]
    if paper_value_kbps is not None:
        out.fidelity_mae_kbps = statistics.fmean(
            abs(first[s].throughput_kbps - paper_value_kbps) for s in seeds
        )
    out.trace_summary["reference_counts"] = {
        str(s): {"des.events": first[s].events,
                 "channel.deliveries": first[s].deliveries}
        for s in seeds
    }
    if tracer is not None:
        untraced_per_round = sum(out.median("cell_s", s) for s in seeds)
        traced_per_round = sum(statistics.median(traced_cpu[s]) for s in seeds)
        out.layers = layer_metrics(
            tracer, counters, out.rounds, untraced_per_round,
            traced_per_round / untraced_per_round,
        )
        finish_trace(tracer, out, trace_path)
    return out


# ----------------------------------------------------------------------
# Service (service_fig6)
# ----------------------------------------------------------------------
def _request(target: str, seed: int) -> Dict[str, object]:
    return {"target": target, "quick": True, "seeds": [seed], "overrides": {}}


class _Client:
    """Closed-loop JSON client; a new connection per request, as the
    repository's own clients (``urllib``, curl) make."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, payload=None):
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def run_job(self, payload) -> Tuple[int, str, int, Dict[str, object]]:
        """POST, long-poll to a terminal state, GET the result."""
        status, body = self.call("POST", "/jobs", payload)
        key = body["job"]["key"]
        state = body["job"]["state"]
        while state not in ("done", "failed", "quarantined"):
            _, polled = self.call("GET", f"/jobs/{key}?wait=60")
            state = polled["job"]["state"]
        result_status, result = self.call("GET", f"/jobs/{key}/result")
        return status, key, result_status, result


class _Service:
    """One in-process service instance on a private store and cache.

    ``setup_s`` times store open, server bind, pool start and the first
    source digest.  With ``serve=False`` the server is bound but never
    served: a set-up probe.
    """

    def __init__(self, workdir: str, serve: bool = True) -> None:
        from repro.experiments import cache as cache_mod
        from repro.service.api import make_server
        from repro.service.store import JobStore
        from repro.service.worker import WorkerPool

        self.cache_dir = os.path.join(workdir, "cache")
        # Each round stands for a fresh service process, whose first
        # request pays the source digest; forget the memoized one.
        cache_mod._code_version_memo = None
        start = time.perf_counter()
        self.store = JobStore(os.path.join(workdir, "jobs.sqlite"))
        self.pool = WorkerPool(
            self.store, n_workers=1,
            run_kwargs={"workers": 1, "cache": self.cache_dir},
        )
        self.server = make_server(self.store, self.pool)
        self.pool.start()
        cache_mod.code_version()
        self.setup_s = time.perf_counter() - start
        self.port = self.server.server_address[1]
        self.thread = None
        if serve:
            self.thread = threading.Thread(
                target=self.server.serve_forever, kwargs={"poll_interval": 0.2},
                name="perfbench-http", daemon=True,
            )
            self.thread.start()

    def close(self) -> None:
        if self.thread is not None:
            self.server.shutdown()
            self.thread.join(timeout=30)
        self.server.server_close()
        self.pool.stop()
        self.store.close()


def setup_probe(workdir: str) -> float:
    """Start and stop a bare service in a fresh directory; its ``setup_s``."""
    service = _Service(workdir, serve=False)
    service.close()
    shutil.rmtree(workdir, ignore_errors=True)
    return service.setup_s


def _expected_figures(cache_dir: str, seed: int) -> Tuple[dict, dict, str]:
    """fig6/fig11 figures rebuilt from the cells the cold job cached."""
    from repro.experiments.cache import ResultCache, cell_key
    from repro.experiments.figures import fig6_plan, fig11_plan
    from repro.experiments.parallel import expand_cells

    cache = ResultCache(cache_dir)
    plan6 = fig6_plan(seeds=(seed,), quick=True)
    grid: Dict[Tuple[float, str], list] = {}
    digests = []
    for cell in expand_cells(plan6.spec, plan6.base, plan6.protocols, plan6.seeds):
        result = cache.get(cell_key(cell.config, cell.batch))
        if result is None:
            raise RuntimeError(f"cold job did not cache {cell.label}")
        grid.setdefault((cell.x, cell.protocol), []).append(result)
        digests.append(result_digest(result))
    plan11 = fig11_plan(seeds=(seed,), quick=True)
    as_json = lambda figure: json.loads(json.dumps(figure.to_dict()))  # noqa: E731
    return (as_json(plan6.build(grid)), as_json(plan11.build(grid)),
            hashlib.sha256("".join(digests).encode()).hexdigest()[:16])


def fig6_mae_kbps(figure: dict) -> float:
    from repro.experiments.paper_reference import PAPER_FIGURES

    paper = PAPER_FIGURES["fig6"]
    errors = [
        abs(value - paper.series[protocol][paper.x_values.index(x)])
        for protocol, values in figure["series"].items()
        for x, value in zip(figure["x_values"], values)
    ]
    return statistics.fmean(errors)


def _service_round(
    seed: int, workdir: str, out: Outcome, tracer=None
) -> dict:
    """One service round; returns its timings and digest."""
    from repro.experiments.engine import SweepRequest, request_key

    cold_req, warm_req = _request("fig6", seed), _request("fig11", seed)
    cold_key = request_key(SweepRequest.from_dict(cold_req))
    warm_key = request_key(SweepRequest.from_dict(warm_req))
    service = _Service(workdir)
    client = _Client(service.port)
    timings = {"setup_s": [service.setup_s], "dedupe": []}

    def unit(label: str):
        if tracer is None:
            return contextlib.nullcontext()
        tracer.set_unit(label)
        return tracer.span("bench.unit")

    try:
        gc.collect()
        cpu0, start = time.process_time(), time.perf_counter()
        with unit(cold_key[:12]):
            status, key, result_status, cold = client.run_job(cold_req)
        timings["job_latency_s"] = time.perf_counter() - start
        timings["cell_s"] = (time.process_time() - cpu0) / FIG6_CELLS
        out.attempted += 1
        body = cold.get("result") or {}
        if (status, key, result_status) != (202, cold_key, 200):
            out.fail(f"cold fig6: status {status}/{result_status}, key {key[:12]}")
        elif body.get("failures") or body.get("cells_total") != FIG6_CELLS:
            out.fail(f"cold fig6: failures {body.get('failures')}")
        elif (body.get("cache_misses"), body.get("cache_stores")) != (FIG6_CELLS,) * 2:
            out.fail(f"cold fig6: cache {body.get('cache_misses')} misses")

        start = time.perf_counter()
        with unit(warm_key[:12]):
            status, key, result_status, warm = client.run_job(warm_req)
        timings["warm_job_latency_s"] = time.perf_counter() - start
        out.attempted += 1
        warm_body = warm.get("result") or {}
        if (status, key, result_status) != (202, warm_key, 200):
            out.fail(f"warm fig11: status {status}/{result_status}, key {key[:12]}")
        elif warm_body.get("failures") or (
            warm_body.get("cache_hits"), warm_body.get("cache_misses")
        ) != (FIG6_CELLS, 0):
            out.fail(f"warm fig11: {warm_body.get('cache_hits')} hits, "
                     f"failures {warm_body.get('failures')}")

        for _ in range(DEDUPE_PER_ROUND):
            start = time.perf_counter()
            with unit(cold_key[:12]):
                status, body = client.call("POST", "/jobs", cold_req)
                result_status, again = client.call(
                    "GET", f"/jobs/{body['job']['key']}/result"
                )
            timings["dedupe"].append(time.perf_counter() - start)
            out.attempted += 1
            if status != 200 or not body.get("deduped") or again != cold:
                out.fail(f"dedupe: status {status}, deduped {body.get('deduped')}, "
                         f"same result {again == cold}")
    finally:
        if tracer is not None:
            tracer.set_unit(None)
        service.close()
        if tracer is not None:
            timings["lease_losses"] = service.pool.lease_losses
            tracer.uninstall()

    fig6, fig11, cells_digest = _expected_figures(service.cache_dir, seed)
    if cold.get("result", {}).get("figure") != fig6:
        out.fail("cold fig6 figure differs from the figure of its cached cells")
    if warm.get("result", {}).get("figure") != fig11:
        out.fail("fig11 cells differ from their cold fig6 counterparts")
    timings["digest"] = hashlib.sha256(
        (cells_digest + json.dumps(fig6, sort_keys=True)
         + json.dumps(fig11, sort_keys=True)).encode()
    ).hexdigest()[:16]
    timings["mae"] = fig6_mae_kbps(fig6)
    shutil.rmtree(workdir, ignore_errors=True)
    if tracer is None:
        timings["setup_s"] += [
            setup_probe(f"{workdir}-probe{i}") for i in range(SETUP_PROBES)
        ]
    return timings


def run_service(
    seed: int, seconds: float, tmp_root: str, traced: bool, trace_path: Optional[str]
) -> Outcome:
    """Service rounds over the sub-seeds until the time budget is spent.

    Untraced: every sub-seed once, starting at sub-seed ``seed % K``, that
    one again (the determinism check), then round-robin.  Traced: whole
    cycles over the sub-seeds, each round untraced and then traced, so
    per-cycle counts are exact.
    """
    # Import what the first job would load lazily, so that no round pays it.
    import repro.experiments.chaos  # noqa: F401
    import repro.experiments.figures  # noqa: F401
    import repro.experiments.parallel  # noqa: F401

    out = Outcome()
    seeds = sub_seeds(seed, SERVICE_SUBSEEDS)
    tracer = counters = None
    if traced:
        from layers import LayerCounters, install
        from spans import Tracer

        tracer, counters = Tracer(), LayerCounters()
    digests: Dict[int, str] = {}
    maes: Dict[int, float] = {}
    traced_cpu: List[float] = []
    deadline = time.perf_counter() + seconds
    visits = 0

    def service_round(job_seed: int, tracer=None) -> dict:
        nonlocal visits
        workdir = os.path.join(tmp_root, f"round{visits}")
        visits += 1
        timings = _service_round(job_seed, workdir, out, tracer)
        reference = digests.setdefault(job_seed, timings["digest"])
        if timings["digest"] != reference:
            out.fail(f"seed {job_seed}: digest {timings['digest']} != {reference}")
        maes[job_seed] = timings["mae"]
        return timings

    def record(job_seed: int, timings: dict) -> None:
        for name in ("cell_s", "job_latency_s", "warm_job_latency_s"):
            out.add(name, timings[name], job_seed)
        for value in timings["setup_s"]:
            out.add("setup_s", value)
        for value in timings["dedupe"]:
            out.add("dedupe_latency_s", value)

    if tracer is None:
        # Rotate so that the sub-seed run twice depends on the seed.
        first = seed % len(seeds)
        for job_seed in itertools.cycle(seeds[first:] + seeds[:first]):
            if visits > len(seeds) and time.perf_counter() >= deadline:
                break
            out.calibrate()
            record(job_seed, service_round(job_seed))
        out.rounds = visits
    else:
        while out.rounds < 1 or time.perf_counter() < deadline:
            out.calibrate()
            for job_seed in seeds:
                record(job_seed, service_round(job_seed))
                # The span log keeps the first traced round; totals cover all.
                tracer.logging = out.rounds == 0 and job_seed == seeds[0]
                install(tracer, counters)
                timings = service_round(job_seed, tracer)
                traced_cpu.append(timings["cell_s"])
                counters.add("service.lease_losses", timings["lease_losses"])
            out.rounds += 1
    out.digest = hashlib.sha256(
        "".join(digests[s] for s in seeds).encode()
    ).hexdigest()[:16]
    out.fidelity_mae_kbps = statistics.fmean(maes.values())
    if tracer is not None:
        untraced_per_round = FIG6_CELLS * sum(out.median("cell_s", s) for s in seeds)
        out.layers = layer_metrics(
            tracer, counters, out.rounds, untraced_per_round,
            FIG6_CELLS * sum(traced_cpu) / out.rounds / untraced_per_round,
        )
        finish_trace(tracer, out, trace_path)
    return out


# ----------------------------------------------------------------------
# Per-layer metrics from a traced run
# ----------------------------------------------------------------------
def layer_metrics(
    tracer, counters, rounds: int, untraced_cpu_per_round: float, overhead: float
) -> Dict[str, Tuple[float, str]]:
    """Per-round layer metrics: counts exact, times in seconds.

    The run prints all of them; ``BENCHMARK.json`` lists every count a
    change can move and every time that is measured on all workloads
    (see the README).
    """
    totals = tracer.totals()
    c = {name: value / rounds for name, value in counters.counts.items()}

    def count(name: str) -> int:
        return int(round(c.get(name, 0)))

    def seconds(name: str, index: int) -> float:
        return totals.get(name, [0, 0, 0, 0])[index] / 1e9 / rounds

    total = lambda name: seconds(name, 1)  # noqa: E731
    own = lambda name: seconds(name, 2)  # noqa: E731

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    roots = sum(
        values[3] for name, values in totals.items()
        if name not in ("bench.unit", "service.http_wait")
    ) / 1e9 / rounds
    broadcasts = count("channel.broadcasts")
    lookups = count("geometry.lookup_hits") + count("geometry.lookup_misses")
    handshakes = count("mac.handshakes_started")
    return {
        "des.events": (count("des.events"), "count"),
        "des.events_per_s": (ratio(count("des.events"), untraced_cpu_per_round), "1/s"),
        "des.self_s": (own("des.run"), "s"),
        "channel.broadcasts": (broadcasts, "count"),
        "channel.deliveries": (count("channel.deliveries"), "count"),
        "channel.deliveries_per_broadcast": (
            ratio(count("channel.deliveries"), broadcasts), "ratio"),
        "channel.broadcast_self_s": (own("channel.broadcast"), "s"),
        "geometry.row_s": (total("geometry.row"), "s"),
        "geometry.candidates_per_broadcast": (
            ratio(count("geometry.candidates"), broadcasts), "ratio"),
        "geometry.cache_hit_rate": (
            ratio(count("geometry.lookup_hits"), lookups), "ratio"),
        "geometry.rows_refreshed": (count("geometry.rows_refreshed"), "count"),
        "geometry.pair_skips": (count("geometry.pair_skips"), "count"),
        "modem.arrivals": (count("modem.arrivals"), "count"),
        "modem.decodes": (count("modem.decodes"), "count"),
        "modem.decode_s": (total("modem.decode"), "s"),
        "acoustic.sinr_per_s": (total("acoustic.sinr_per"), "s"),
        "modem.useful_frac": (ratio(count("modem.ok"), count("modem.decodes")), "ratio"),
        "modem.noise": (count("modem.noise"), "count"),
        "modem.collision": (count("modem.collision"), "count"),
        "modem.half_duplex": (count("modem.half_duplex"), "count"),
        "mac.rx_s": (own("mac.rx"), "s"),
        "mac.slot_s": (own("mac.slot"), "s"),
        "mac.handshake_frac": (
            ratio(count("mac.handshakes_completed"), handshakes), "ratio"),
        "mac.extra_completed": (count("mac.extra_completed"), "count"),
        "mobility.ticks": (count("mobility.ticks"), "count"),
        "mobility.tick_s": (total("mobility.tick"), "s"),
        "scenario.build_s": (total("scenario.build"), "s"),
        "scenario.build.deployment_s": (total("scenario.deployment"), "s"),
        "scenario.build.channel_s": (total("scenario.channel"), "s"),
        "scenario.build.nodes_macs_s": (own("scenario.build"), "s"),
        "metrics.collect_s": (total("metrics.collect"), "s"),
        "other_s": (own("bench.unit") - roots, "s"),
        "trace.overhead": (overhead, "ratio"),
        "engine.cells": (count("engine.cell_runs"), "count"),
        "engine.cells_failed": (count("engine.cells_failed"), "count"),
        "engine.retries": (count("engine.cell_runs") - count("cache.misses"), "count"),
        "cache.hits": (count("cache.hits"), "count"),
        "cache.misses": (count("cache.misses"), "count"),
        "cache.stores": (count("cache.stores"), "count"),
        "cache.bytes_written": (count("cache.bytes_written"), "B"),
        "service.progress_rows": (count("service.progress_rows"), "count"),
        "service.lease_losses": (count("service.lease_losses"), "count"),
        # Not listed in BENCHMARK.json: zero on the cell workloads, which
        # bypass the engine, cache and service.
        "engine.overhead_s": (own("engine.run_request"), "s"),
        "cache.get_s": (total("cache.get"), "s"),
        "cache.put_s": (total("cache.put"), "s"),
        "service.queue_wait_s": (sum(counters.queue_wait_s) / rounds, "s"),
        "service.store_s": (total("service.store"), "s"),
        "service.http_s": (own("service.http"), "s"),
    }


def finish_trace(tracer, out: Outcome, path: Optional[str]) -> None:
    """Write the span log plus per-span totals when the run ends."""
    out.trace_summary["rounds"] = out.rounds
    out.trace_summary["span_totals_s"] = {
        name: {"count": v[0], "total": v[1] / 1e9, "self": v[2] / 1e9}
        for name, v in sorted(tracer.totals().items())
    }
    out.trace_summary["layers"] = {k: v[0] for k, v in out.layers.items()}
    if path is not None:
        tracer.write(path, out.trace_summary)
