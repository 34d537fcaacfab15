#!/usr/bin/env python3
"""qal benchmark: one workload per invocation, single-threaded, closed loop.

Usage (from the repository root):

    python3 benchmark/run.py --workload wide-class --seed 1 --seconds 25 --trace 0

--trace 0 measures about --seconds of work, split over WORKERS fresh
processes run one after another (worker.py), and reports the end-to-end
metrics named in BENCHMARK.json. --trace 1 runs the workload's fixed trace
steps in this process, each untraced and then with the public functions of
every qal layer wrapped in spans, and reports the per-layer metrics and the
exact counts. Every step's output is checked against qal's exact oracles
outside the timed region; a failed check exits with code 1 and prints no
numbers. The last line of stdout is a JSON object with keys correct,
attempted, failed and metrics. Run records, bench CSVs and spans go to
.bench_out/ at the repository root.
"""
import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pin BLAS to one thread before anything imports numpy.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder, patched, self_times  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKERS = 5
WORKER_TIMEOUT_S = 60

# Span name -> per-layer metric that receives the span's self time.
SELF_TIME = {
    "harness.op": "harness.self_s",
    "bench.run_bench": "bench.self_s",
    "learner.learn": "learner.self_s",
    "estimator.estimate_mean": "estimator.self_s",
    "problem.exact_risk": "problem.exact_risk_s",
    "engine.closed_form_ae_distribution": "engine.closed_form_s",
    "engine.simulate_ae_state": "engine.circuit_s",
    "engine.loss_encoded_state": "engine.prepare_s",
    "engine.draw_outcome": "engine.draw_s",
    "classical.erm_learn": "classical.self_s",
    "classical.draw_iid_samples": "classical.draw_s",
    "classical.loss_matrix": "classical.loss_matrix_s",
}
# Per-layer call counts: metric -> span names counted.
CALLS = {
    "problem.exact_risk_calls": ("problem.exact_risk",),
    "estimator.calls": ("estimator.estimate_mean",),
    "engine.law_calls": ("engine.closed_form_ae_distribution", "engine.simulate_ae_state"),
    "engine.draw_calls": ("engine.draw_outcome",),
}
# Counts that must repeat exactly for a given seed; a change that moves one
# changed the algorithm, not its speed.
EXACT_COUNTS = (
    "estimator.state_prep_calls",
    "classical.draws",
    "engine.law_calls",
    "engine.draw_calls",
    "bench.trials",
)


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return id(value)
    return value


def trace_targets(qal, rec):
    """(module, attribute, span name, observer) for each wrapped qal function.

    A function is wrapped at every name its callers look up, so a function
    imported into two modules is patched in both.
    """

    def state_prep(args, kwargs, result):
        rec.counts["estimator.state_prep_calls"] += result.ledger.quantum_samples

    def law(args, kwargs, result):
        rec.add_key("laws", tuple(map(_hashable, args)) + tuple((k, _hashable(v)) for k, v in sorted(kwargs.items())))

    def draws(args, kwargs, result):
        rec.counts["classical.draws"] += len(result)

    def trials(args, kwargs, result):
        rec.counts["bench.trials"] += len(result)

    return [
        (qal.bench, "run_bench", "bench.run_bench", trials),
        (qal.bench, "learn", "learner.learn", None),
        (qal.bench, "erm_learn", "classical.erm_learn", None),
        (qal.learner, "learn", "learner.learn", None),
        (qal.learner, "estimate_mean", "estimator.estimate_mean", state_prep),
        (qal.estimator, "estimate_mean", "estimator.estimate_mean", state_prep),
        (qal.estimator, "exact_risk", "problem.exact_risk", None),
        (qal.problem, "exact_risk", "problem.exact_risk", None),
        (qal.estimator, "closed_form_ae_distribution", "engine.closed_form_ae_distribution", law),
        (qal.engine, "simulate_ae_state", "engine.simulate_ae_state", law),
        (qal.engine, "loss_encoded_state", "engine.loss_encoded_state", None),
        (qal.estimator, "draw_outcome", "engine.draw_outcome", None),
        (qal.classical, "draw_iid_samples", "classical.draw_iid_samples", draws),
        (qal.classical, "loss_matrix", "classical.loss_matrix", None),
    ]


def environment(args, numpy_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def measure(workload: str, seed: int, seconds: float):
    """Untraced run: WORKERS fresh processes one after another, pooled.

    Worker w runs steps w, w + WORKERS, ... for seconds / WORKERS of work.
    A failed worker (exit code 1 for a failed correctness check) ends the
    run with its exit code, before any number is printed.
    """
    runs = []
    for w in range(WORKERS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(w), str(WORKERS), repr(seconds / WORKERS)],
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def traced_steps(wl):
    """Run each trace step untraced and then traced; return the traced outcomes.

    The two runs of a step sit back to back, so that drift in machine speed
    falls on both sides of the overhead. Both runs are verified.
    """
    rec = Recorder(wl.op_spans)
    untraced = traced = 0.0
    outcomes = []
    for i in range(wl.trace_steps):
        t0 = time.perf_counter()
        _, result = wl.step(i)
        untraced += time.perf_counter() - t0
        wl.verify(i, result)
        with patched(rec, trace_targets(wl.qal, rec)):
            t0 = time.perf_counter()
            with rec.op("harness.op"):
                _, result = wl.step(i)
            traced += time.perf_counter() - t0
        outcomes.extend(wl.verify(i, result))
    return rec, untraced, traced, outcomes


def layer_metrics(rec, names):
    spans = rec.spans
    metrics = dict.fromkeys(names, 0.0)
    for span, own in zip(spans, self_times(spans)):
        metrics[SELF_TIME[span.name]] += own
    for metric, span_names in CALLS.items():
        metrics[metric] = sum(span.name in span_names for span in spans)
    for metric in EXACT_COUNTS:
        if metric not in CALLS:
            metrics[metric] = rec.counts[metric]
    laws = metrics["engine.law_calls"]
    metrics["engine.distinct_law_frac"] = len(rec.keys.get("laws", ())) / laws if laws else 0.0
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "qal" / "__init__.py").is_file():
        print(f"error: no qal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qal

    if Path(qal.__file__).resolve().parent != SRC / "qal":
        print(f"error: imported qal from {qal.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = environment(args, np.__version__)

    record = {"env": env}
    if args.trace == 0:
        runs = measure(args.workload, args.seed, args.seconds)
        latencies = [x for r in runs for x in r["latencies"]]
        outcomes = [o for r in runs for o in r["outcomes"]]
        busy = sum(r["busy_s"] for r in runs)
        csv_sha256 = runs[0]["csv_sha256"].get("0")
    else:
        wl = WORKLOADS[args.workload](args.seed, ROOT, out_dir)
        try:
            rec, untraced, traced, outcomes = traced_steps(wl)
        except GateError as e:
            print(f"correctness check failed: {e}", file=sys.stderr)
            return 1
        csv_sha256 = getattr(wl, "csv_sha256", {}).get(0)

    attempted = len(outcomes)
    failed = sum(f for _, f in outcomes)
    success_frac = sum(s for s, _ in outcomes) / attempted
    counts = {"attempted": attempted, "success_frac": success_frac, "error_frac": failed / attempted}
    if csv_sha256:
        counts["csv_sha256"] = csv_sha256

    if args.trace == 0:
        ordered = sorted(latencies)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "ops_per_s": len(latencies) / busy,
            "op_s_p50": statistics.median(ordered),
            "op_s_p90": statistics.quantiles(ordered, n=10, method="inclusive")[8],
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "success_frac": success_frac,
        }
        wanted = spec["end_to_end"]
        print(f"{args.workload}: {attempted} operations in {busy:.3f} s of work over {WORKERS} processes")
    else:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(rec, names)
        values["trace_overhead_frac"] = (traced - untraced) / untraced
        self_sum = sum(v for k, v in values.items() if k.endswith("_s"))
        counts.update({k: values[k] for k in EXACT_COUNTS})
        record["trace"] = {"untraced_s": untraced, "traced_s": traced, "self_time_sum_s": self_sum}
        rec.write(out_dir / "spans.jsonl")
        wanted = spec["per_layer"]
        print(
            f"{args.workload}: {wl.trace_steps} steps, untraced {untraced:.3f} s, traced {traced:.3f} s, "
            f"self times sum to {self_sum:.3f} s ({len(rec.spans)} spans)"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if set(values) != set(metrics):
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(set(values) - set(metrics))}")

    print("env " + json.dumps(env))
    for name, m in metrics.items():
        extra = f"  (over {attempted} operations)" if name.startswith("op_s_") else ""
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{extra}")
    print("counts " + json.dumps(counts, sort_keys=True))
    record.update(metrics=metrics, counts=counts)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
