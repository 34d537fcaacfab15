"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor
(the set-up the benchmark times, warm-up included), then runs numbered
steps. A step returns the latency of each operation it completed and its
raw result; `verify` checks that result against qal's exact oracles,
outside the timed region, and returns one (success, failed) pair per
operation. A step with the same number always does the same work, so a
traced pass can repeat the steps an untraced pass ran.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

LAYERS = ("problem", "engine", "estimator", "learner", "classical", "bench", "checks")


class GateError(AssertionError):
    """A workload's output disagrees with the exact reference."""


def load_qal() -> SimpleNamespace:
    return SimpleNamespace(**{name: importlib.import_module(f"qal.{name}") for name in LAYERS})


def op_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@contextmanager
def call_starts(module, attrs):
    """Record the perf_counter time at which each call to module.<attr> starts."""
    starts: list[float] = []
    saved = {attr: getattr(module, attr) for attr in attrs}

    def probe(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            starts.append(time.perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    try:
        for attr, fn in saved.items():
            setattr(module, attr, probe(fn))
        yield starts
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


def run_op(fn, *args, **kwargs):
    """Call one operation; an exception counts as a failed operation."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:
        traceback.print_exc()
        result = None
    return time.perf_counter() - t0, result


def run_steps(wl, seconds: float, first: int, stride: int):
    """Run steps first, first + stride, ... closed-loop for about `seconds` of work.

    Runs at least one step, then stops before a step that would likely end
    more than half a step past `seconds`. Step n runs pinned to the n-th
    allowed CPU, round robin: on a shared host each CPU slows and recovers
    on its own for seconds at a time, and this makes a run sample all of
    them. Each step is verified as soon as its timing ends and its result is
    dropped, so memory does not grow with the number of steps. Returns the
    busy seconds, the operation latencies and the (success, failed) pairs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    busy, last, n, latencies, outcomes = 0.0, 0.0, 0, [], []
    try:
        while n == 0 or busy + last / 2 < seconds:
            i = first + n * stride
            os.sched_setaffinity(0, {cpus[n % len(cpus)]})
            t0 = time.perf_counter()
            lats, result = wl.step(i)
            last = time.perf_counter() - t0
            busy += last
            latencies.extend(lats)
            outcomes.extend(wl.verify(i, result))
            n += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return busy, latencies, outcomes


class SeparationGrid:
    """`bench.run_bench` over both methods on the bundled separation instance."""

    name = "separation-grid"
    trace_steps = 1
    op_spans = ("learner.learn", "classical.erm_learn")
    EPSILONS = (0.1, 0.05, 0.025, 0.0125)
    DELTAS = (0.05, 0.005)
    TRIALS = 20

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.qal = load_qal()
        self.seed = seed
        self.instance_path = str(root / "instances" / "separation.json")
        self.out_dir = out_dir
        self.csv_sha256: dict[int, str] = {}
        self._stats = None
        # Warm up on the largest cell: its first million-draw trial is slower.
        warm = self.config(0, epsilons=self.EPSILONS[-1:], deltas=self.DELTAS[-1:], trials=1)
        self.qal.bench.run_bench(warm, out_dir / "warmup.csv")

    def config(self, step: int, epsilons=EPSILONS, deltas=DELTAS, trials=TRIALS):
        return self.qal.bench.BenchConfig(
            epsilons=epsilons,
            deltas=deltas,
            trials=trials,
            base_seed=op_seed(self.seed, step),
            methods=("quantum", "classical"),
            engine="analytic",
            instance_path=self.instance_path,
        )

    def step(self, i: int):
        path = self.out_dir / f"round{i}.csv"
        bench = self.qal.bench
        # One operation is one trial: it runs from the call into the learner
        # until the next trial's call, and the last one until run_bench returns.
        with call_starts(bench, ("learn", "erm_learn")) as starts:
            try:
                rows = bench.run_bench(self.config(i), path)
            except Exception:
                traceback.print_exc()
                rows = None
            end = time.perf_counter()
        bounds = starts + [end]
        return [b - a for a, b in zip(bounds, bounds[1:])], (path, rows, len(starts))

    def verify(self, i: int, result):
        path, rows, calls = result
        n_ops = len(self.EPSILONS) * len(self.DELTAS) * 2 * self.TRIALS
        if rows is None:
            return [(False, True)] * n_ops
        gate(len(rows) == n_ops == calls, f"round {i}: {len(rows)} rows and {calls} learner calls, expected {n_ops}")
        if self._stats is None:
            self._stats = self.qal.problem.exact_statistics(self.qal.problem.load_instance(self.instance_path))
        risks = self._stats.risks
        best = risks[self._stats.best_id]
        gaps = {risk - best for risk in risks.values()}
        data = path.read_bytes()
        lines = data.decode().splitlines()
        gate(lines[0] == self.qal.bench.CSV_HEADER, f"{path}: wrong header")
        gate(lines[1:] == [row.render() for row in rows], f"{path}: CSV differs from the returned rows")
        digest = hashlib.sha256(data).hexdigest()
        gate(self.csv_sha256.setdefault(i, digest) == digest, f"{path}: CSV bytes changed between runs of round {i}")
        out = []
        for row in rows:
            if row.reason:
                out.append((False, True))
                continue
            gate(row.risk_gap in gaps, f"{path}: risk_gap {row.risk_gap!r} is no hypothesis's exact gap")
            gate(row.success == int(row.risk_gap <= row.epsilon), f"{path}: success column disagrees with exact risks")
            out.append((bool(row.success), False))
        return out


class WideClass:
    """Quantum `learner.learn`, analytic engine, 512 hypotheses over 16 tables."""

    name = "wide-class"
    trace_steps = 3
    op_spans = ()
    EPSILON = 0.05
    DELTA = 0.05
    H_SIZE = 512

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.qal = load_qal()
        self.seed = seed
        self.inst = self.qal.problem.random_instance(seed, x_size=4, y_size=2, h_size=self.H_SIZE, loss_kind="zero_one")
        self._risks = None
        eps_h, delta_h = self.qal.learner.allocate_budget(self.H_SIZE, self.EPSILON, self.DELTA)
        self.qal.estimator.estimate_mean(self.inst, self.inst.hypotheses[0], eps_h, delta_h, rng=0)

    def step(self, i: int):
        latency, result = run_op(
            self.qal.learner.learn, self.inst, self.EPSILON, self.DELTA, rng=op_seed(self.seed, i), engine="analytic"
        )
        return [latency], result

    def verify(self, i: int, result):
        if result is None:
            return [(False, True)]
        problem, estimator = self.qal.problem, self.qal.estimator
        if self._risks is None:
            self._risks = problem.exact_statistics(self.inst).risks
        eps_h, delta_h = self.qal.learner.allocate_budget(self.H_SIZE, self.EPSILON, self.DELTA)
        m = estimator.phase_bits_for_accuracy(eps_h / self.inst.loss.bound)
        reps = estimator.repetitions_for_confidence(delta_h)
        ids = [f.id for f in self.inst.hypotheses]
        gate(list(result.estimates) == ids, f"op {i}: estimates do not cover the class in order")
        for hid, est in result.estimates.items():
            gate(est.m == m and est.repetitions == reps == len(est.raw_estimates), f"op {i}, {hid}: schedule changed")
            gate(est.mu_hat == self.inst.loss.bound * estimator.median(est.raw_estimates), f"op {i}, {hid}: mu_hat is not the median")
        mu = [result.estimates[hid].mu_hat for hid in ids]
        gate(result.chosen_id == ids[int(np.argmin(mu))], f"op {i}: chosen hypothesis is not the estimate argmin")
        gate(
            result.total_quantum_samples == self.H_SIZE * reps * (2 ** (m + 1) - 1),
            f"op {i}: ledger total {result.total_quantum_samples} disagrees with the schedule",
        )
        gap = self._risks[result.chosen_id] - min(self._risks.values())
        return [(gap <= self.EPSILON, False)]


class StatevectorCircuit:
    """`estimate_mean` through the full statevector circuit on two shapes."""

    name = "statevector-circuit"
    trace_steps = 3
    op_spans = ()
    DELTA = 0.05

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.qal = load_qal()
        self.seed = seed
        problem = self.qal.problem
        # Deep and narrow (k=2, m=12), then shallow and wide (k=6, m=10).
        self.shapes = [
            (problem.demo_instance(), "identity", 0.001),
            (problem.random_instance(seed, x_size=8, y_size=8, h_size=2), "h0", 0.005),
        ]
        self._laws_checked = False
        # The first full-size circuit runs about 40 % slower than later ones
        # (first use of its large temporaries), so warm up at full size.
        for inst, hid, eps in self.shapes:
            self.qal.estimator.estimate_mean(inst, hid, eps, self.DELTA, rng=0, engine="statevector")

    def _estimate(self, i: int, engine: str):
        return [
            self.qal.estimator.estimate_mean(inst, hid, eps, self.DELTA, rng=op_seed(self.seed, i, s), engine=engine)
            for s, (inst, hid, eps) in enumerate(self.shapes)
        ]

    def step(self, i: int):
        latency, result = run_op(self._estimate, i, "statevector")
        return [latency], result

    def _check_laws(self, estimates) -> None:
        engine, problem = self.qal.engine, self.qal.problem
        for (inst, hid, _), est in zip(self.shapes, estimates):
            f = inst.hypothesis(hid)
            simulated = engine.simulate_ae_distribution(inst, f, est.m)
            closed = engine.closed_form_ae_distribution(problem.exact_risk(inst, f) / inst.loss.bound, est.m)
            tv = 0.5 * float(np.abs(simulated - closed).sum())
            gate(tv <= self.qal.checks.TV_TOL, f"{hid} at m={est.m}: TV {tv:.3e} > {self.qal.checks.TV_TOL}")
        self._laws_checked = True

    def verify(self, i: int, result):
        if result is None:
            return [(False, True)]
        if not self._laws_checked:
            self._check_laws(result)
        success = True
        for (inst, hid, eps), sv, an in zip(self.shapes, result, self._estimate(i, "analytic")):
            gate(
                (sv.mu_hat, sv.raw_estimates, sv.m) == (an.mu_hat, an.raw_estimates, an.m),
                f"op {i}, {hid}: statevector estimate {sv.mu_hat!r} != analytic {an.mu_hat!r}",
            )
            success &= abs(sv.mu_hat - self.qal.problem.exact_risk(inst, hid)) <= eps
        return [(success, False)]


WORKLOADS = {w.name: w for w in (SeparationGrid, WideClass, StatevectorCircuit)}
