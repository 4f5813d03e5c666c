"""Benchmark for tko-distill: four workloads, each checked against closed forms.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-analytic --seed 1 --seconds 25 --trace 0

Workloads: sweep-analytic, exact-engine, locc-search, cli (see README.md).
With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
whose package functions are wrapped by ``tracer``.  Either way the run's full
record is written to perfbench/out/.

The package is imported from ``src/`` of the checkout; nothing is installed.
TKO_DISTILL_THREADS is removed from the environment of every child, so the
sweeps of the ``cli`` workload run the package's default thread pool.  The
in-process sweeps of ``sweep-analytic`` and ``exact-engine`` run serially
(TKO_DISTILL_THREADS=1): on a shared 2-CPU host the pool's wall time follows
the scheduler more than the program (README.md, Steadiness).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("sweep-analytic", "exact-engine", "locc-search", "cli")
SERIAL = ("sweep-analytic", "exact-engine")
# Fresh interpreters timed for setup_s, half before and half after the timed
# phase, so that their median spans the run rather than one moment of it.
SETUP_PROBES = 4
_PROBE = (
    "import time; t = time.perf_counter(); import tko_distill, tko_distill.cli; "
    "print(time.perf_counter() - t)"
)

LAYER_METRICS = (
    # (metric, unit, layer, field): field is calls, self_ms, total_ms or value
    ("state.canonical_decompose.calls", "count", "state.canonical_decompose", "calls"),
    ("state.canonical_decompose.ms", "ms", "state.canonical_decompose", "self_ms"),
    ("linalg.eig_hermitian.calls", "count", "linalg.eig_hermitian", "calls"),
    ("linalg.eig_hermitian.ms", "ms", "linalg.eig_hermitian", "self_ms"),
    ("linalg.schmidt.calls", "count", "linalg.schmidt", "calls"),
    ("linalg.schmidt.ms", "ms", "linalg.schmidt", "self_ms"),
    ("distill.recurrence_analytic.ms", "ms", "distill.recurrence_analytic", "self_ms"),
    ("distill.bbpssw_trace.ms", "ms", "distill.bbpssw_trace", "self_ms"),
    ("analysis.average_yield.ms", "ms", "analysis.average_yield", "self_ms"),
    ("distill.run.calls", "count", "distill.run", "calls"),
    ("distill.run.ms", "ms", "distill.run", "self_ms"),
    ("distill.rounds", "count", "distill.run", "value"),
    ("analysis.sweep.ms", "ms", "analysis.sweep", "self_ms"),
    ("analysis.run_point.calls", "count", "analysis.run_point", "calls"),
    ("analysis.run_point.busy_ms", "ms", "analysis.run_point", "total_ms"),
    ("distill.round_exact.calls", "count", "distill.round_exact", "calls"),
    ("distill.round_exact.ms", "ms", "distill.round_exact", "self_ms"),
    ("distill.rssp_apply.ms", "ms", "distill.rssp_apply", "self_ms"),
    ("channel.kraus_from_params.calls", "count", "channel.kraus_from_params", "calls"),
    ("channel.kraus_from_params.ms", "ms", "channel.kraus_from_params", "self_ms"),
    ("state.shared_state.calls", "count", "state.shared_state", "calls"),
    ("state.shared_state.ms", "ms", "state.shared_state", "self_ms"),
    ("channel.canonicalize.calls", "count", "channel.canonicalize", "calls"),
    ("channel.canonicalize.ms", "ms", "channel.canonicalize", "self_ms"),
    ("analysis.sweep_to_csv.ms", "ms", "analysis.sweep_to_csv", "self_ms"),
    ("analysis.random_locc_check.calls", "count", "analysis.random_locc_check", "calls"),
    ("analysis.random_locc_check.ms", "ms", "analysis.random_locc_check", "self_ms"),
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TKO_DISTILL_THREADS"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env, n: int) -> list[float]:
    """Import time of tko_distill and tko_distill.cli in n fresh interpreters (s)."""
    times = []
    for _ in range(n):
        res = subprocess.run(
            [sys.executable, "-c", _PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if res.returncode != 0:
            raise RuntimeError(f"importing tko_distill failed: {res.stderr.strip()}")
        times.append(float(res.stdout))
    return times


def layer_metrics(totals: dict, n_ops: int, import_ms: float, cli: list[dict]) -> dict:
    """Per-operation layer figures from the folded spans of a traced run."""
    out = {}
    for metric, unit, layer, field in LAYER_METRICS:
        out[metric] = (totals.get(layer, {}).get(field, 0) / n_ops, unit)
    sweep = totals.get("analysis.sweep", {}).get("total_ms", 0.0)
    busy = totals.get("analysis.run_point", {}).get("total_ms", 0.0)
    out["analysis.sweep.concurrency"] = (busy / sweep if sweep else 0.0, "ratio")
    locc = totals.get("analysis.random_locc_check", {})
    rate = locc.get("value", 0) / (locc["total_ms"] / 1e3) if locc.get("total_ms") else 0.0
    out["analysis.random_locc_check.samples_per_s"] = (rate, "1/s")
    out["cli.import_ms"] = (statistics.median([c["import_ms"] for c in cli]) if cli else import_ms, "ms")
    for key, unit in (("process_ms", "ms"), ("main_ms", "ms"), ("stdout_bytes", "bytes")):
        out[f"cli.{key}"] = (statistics.fmean([c[key] for c in cli]) if cli else 0.0, unit)
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "tko_distill" / "__init__.py").is_file():
        print(f"error: no tko_distill package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("TKO_DISTILL_THREADS", None)
    env = _env()
    if args.workload in SERIAL:
        os.environ["TKO_DISTILL_THREADS"] = "1"
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{args.workload}"
    work.mkdir(exist_ok=True)

    measure_setup(env, 1)  # fills the bytecode cache of a fresh checkout
    setup = measure_setup(env, SETUP_PROBES)

    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer, merge

    td = None
    if args.workload != "cli":
        import tko_distill as td
    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    wl = workloads.build(args.workload, td, rng, ROOT, work, env, bool(args.trace))
    wl.prepare()

    tracer = None
    if args.trace and td is not None:
        tracer = Tracer()
        tracer.install()

    # One untimed operation first: the first call of a process pays one-off
    # costs (lazy numpy set-up, first allocations) that no later call pays.
    times, rates, problems = [], [], []
    verdict, reason = wl.check(0, wl.execute(0))
    if verdict != workloads.OK:
        problems.append(f"{verdict}: {reason}")
    if tracer is not None:
        tracer.take()
    totals: dict = {}
    gc.collect()
    start = time.perf_counter()
    while True:
        rot_time, rot_units = 0.0, 0
        for i in range(wl.rotation):
            t0 = time.perf_counter()
            out = wl.execute(i)
            dt = time.perf_counter() - t0
            times.append(dt)
            rot_time += dt
            rot_units += wl.units(i)
            if tracer is not None:
                merge(totals, tracer.take())
            if args.trace and args.workload == "cli":
                wl.collect_trace(dt, out)
            verdict, reason = wl.check(i, out)
            if tracer is not None:
                tracer.take()  # calls made by the check itself
            if verdict != workloads.OK:
                problems.append(f"{verdict}: {reason}")
        rates.append(rot_units / rot_time)
        if time.perf_counter() - start >= args.seconds:
            break
    setup += measure_setup(env, SETUP_PROBES)
    setup_s = statistics.median(setup)

    n_ops = len(times)
    failed = sum(p.startswith(workloads.FAILED) for p in problems)
    correct = not any(p.startswith(workloads.WRONG) for p in problems)
    if args.workload == "cli":
        rss_mb = wl.max_rss_kb / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_ms_p50 = statistics.median(times) * 1e3
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_ms_p50": (op_ms_p50, "ms"),
        "work_per_s": (statistics.median(rates), "1/s"),
    }
    if args.trace:
        cli_traces = getattr(wl, "child_traces", [])
        for child in cli_traces:
            merge(totals, child["layers"])
        chosen = layer_metrics(totals, n_ops, setup_s * 1e3, cli_traces)
    else:
        chosen = end_to_end
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    result = {"correct": correct, "attempted": n_ops, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "setup_probes_s": setup,
        "op_ms": [t * 1e3 for t in times],
        "problems": sorted(set(problems)),
        "layers": totals,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for line in sorted(set(problems))[:5]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
