"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_cell --seed 1 --seconds 30 --trace 0

Prints a human-readable report, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics listed in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics of a traced run, and the
span log is written to ``.perfbench-out/``.  Scratch files (job stores,
result caches) live under ``.perfbench-tmp/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_cell", "dense_scale", "service_fig6")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    tmp_root = os.path.join(root, ".perfbench-tmp", str(os.getpid()))
    os.makedirs(tmp_root, exist_ok=True)
    # Keep every temporary file inside the checkout.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = tmp_root
    import tempfile

    tempfile.tempdir = tmp_root
    try:
        return _run(args, root, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass


def _run(args, root: str, tmp_root: str) -> int:
    import workloads as wl

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    traced = bool(args.trace)
    trace_path = None
    if traced:
        trace_path = os.path.join(
            root, ".perfbench-out", f"trace-{args.workload}-seed{args.seed}.json"
        )
    if args.workload == "paper_cell":
        out = wl.run_cells(
            wl.paper_config, wl.sub_seeds(args.seed, wl.PAPER_SUBSEEDS),
            args.seconds, traced, trace_path, paper_value_kbps=_paper_ewmac(),
        )
    elif args.workload == "dense_scale":
        out = wl.run_cells(
            wl.dense_config, wl.sub_seeds(args.seed, wl.DENSE_SUBSEEDS),
            args.seconds, traced, trace_path,
        )
    else:
        out = wl.run_service(args.seed, args.seconds, tmp_root, traced, trace_path)

    failed_frac = out.failed / out.attempted
    print(f"workload {args.workload}  seed {args.seed}  rounds {out.rounds}  "
          f"trace {args.trace}")
    print(f"  calibration_s        {statistics.median(out.calibration_s):.6f} s   "
          f"(fixed loop, median of {len(out.calibration_s)}; informational)")
    print(f"  digest               {out.digest}")
    print(f"  failed_frac          {failed_frac:.6f}     "
          f"({out.failed} of {out.attempted} operations)")
    for message in out.errors:
        print(f"  FAILED: {message}")
    if out.fidelity_mae_kbps is not None:
        print(f"  fidelity.fig6_mae_kbps {out.fidelity_mae_kbps:.4f} kbps "
              "(vs paper Fig. 6; not gated)")

    if traced:
        wanted = [m["name"] for m in spec["per_layer"]]
        for name, (value, unit) in out.layers.items():
            listed = "" if name in wanted else "   (not in BENCHMARK.json)"
            print(f"  {name:36s} {value:.6g} {unit}{listed}")
        if trace_path:
            print(f"  span log: {os.path.relpath(trace_path, root)}")
        metrics = {
            name: {"value": out.layers[name][0], "unit": out.layers[name][1]}
            for name in wanted
        }
    else:
        e2e = {name: out.summary(name) for name in ("setup_s", "cell_s", "job_latency_s")}
        e2e["peak_rss_mb"] = (wl.peak_rss_mb(), 1)
        extra = {}
        if "dedupe_latency_s" in out.samples:
            extra["warm_job_latency_s"] = out.summary("warm_job_latency_s")
            extra["dedupe_latency_s"] = out.summary("dedupe_latency_s")
            extra["dedupe_latency_s.p90"] = (
                out.p90("dedupe_latency_s"), extra["dedupe_latency_s"][1])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, (value, n) in {**e2e, **extra}.items():
            gated = "" if name in e2e else "   (not gated)"
            print(f"  {name:22s} {value:.6f} {units.get(name, 's'):3s} n={n}{gated}")
        metrics = {
            m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


def _paper_ewmac() -> float:
    from repro.experiments.paper_reference import PAPER_FIGURES

    fig6 = PAPER_FIGURES["fig6"]
    return fig6.series["EW-MAC"][fig6.x_values.index(0.8)]


if __name__ == "__main__":
    sys.exit(main())
