"""End-to-end acceptance checklist.

Every test prints one [PASS]/[FAIL] line naming the check, the measured
value, and its threshold (visible with `pytest -s`; captured output is
shown on failure anyway). Checks A5 and A6 also print the empirically
fitted constants of the sample-count laws, since only the exponents and
shapes carry thresholds.
"""
import math
import time

import numpy as np

from qal.bench import BenchConfig, fit_loglog_slope, mean_samples_by_epsilon, run_bench
from qal.classical import erm_learn
from qal.checks import with_garbage
from qal.engine import (
    ae_error_bound,
    circuit_state,
    closed_form_ae_distribution,
    draw_outcome,
    loss_encoded_state,
    marked_probability,
    phase_estimates,
    simulate_ae_distribution,
    simulate_ae_state,
)
from qal.estimator import estimate_mean
from qal.learner import argmin_risk_transfer, learn
from qal.problem import (
    demo_instance,
    exact_statistics,
    random_instance,
    squared_risk_decomposition,
)


def report(name: str, ok: bool, detail: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{name}: {detail}"


def rescaled_brute_force_risk(inst, f) -> float:
    """Independent oracle: direct summation of the rescaled loss."""
    loss = inst.loss
    total = 0.0
    for x, yi, p in zip(inst.x.tolist(), inst.y_index.tolist(), inst.probabilities.tolist()):
        y = inst.y_values[yi]
        if loss.kind == "zero_one":
            raw = 1.0 if f.table[x] != y else 0.0
        elif loss.kind == "squared":
            raw = (f.table[x] - y) ** 2
        else:
            raw = loss.table[f.id][x][yi]
        total += p * raw / loss.bound
    return total


def test_a1_ae_error_law_coverage():
    """Sampled estimates respect the additive error radius often enough."""
    started = time.perf_counter()
    runs = 2000
    worst = 1.0
    for a in (0.1, 0.25, 0.5, 0.75, 0.9):
        for m in (4, 6, 8):
            rng = np.random.default_rng((10, int(round(100 * a)), m))
            radius = ae_error_bound(a, m)
            ys = draw_outcome(np.cumsum(closed_form_ae_distribution(a, m)), rng.random(runs))
            hits = np.sum(np.abs(phase_estimates(m)[ys] - a) <= radius)
            worst = min(worst, hits / runs)
    report("A1 ae-error-law", worst >= 0.78, f"min coverage {worst:.4f} >= 0.78", started)


def test_a2_simulator_matches_closed_form_law():
    """Total-variation agreement between the circuit and the analytic law."""
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(12):
        kind = "squared" if trial % 2 else "zero_one"
        inst = random_instance(
            1000 + trial,
            x_size=int(rng.integers(2, 5)),
            y_size=int(rng.integers(2, 4)),
            h_size=2,
            loss_kind=kind,
        )
        assert inst.k <= 4
        f = inst.hypotheses[trial % 2]
        m = int(rng.integers(2, 7))
        sim = simulate_ae_distribution(inst, f, m)
        law = closed_form_ae_distribution(rescaled_brute_force_risk(inst, f), m)
        worst = max(worst, 0.5 * float(np.abs(sim - law).sum()))
    report("A2 oracle-equivalence", worst <= 1e-9, f"max TV {worst:.3e} <= 1e-9", started)


def test_a3_mean_estimator_coverage():
    """Median-amplified estimates land within epsilon at the target rate."""
    started = time.perf_counter()
    epsilon, delta, trials = 0.05, 0.1, 500
    instances = [demo_instance()]
    instances += [random_instance(300 + s, x_size=3, y_size=2, h_size=3) for s in range(3)]
    instances += [
        random_instance(400 + s, x_size=3, y_size=2, h_size=3, loss_kind="squared")
        for s in range(2)
    ]
    worst = 1.0
    for idx, inst in enumerate(instances):
        assert inst.loss.bound > epsilon
        f = inst.hypotheses[0]
        target = inst.loss.bound * rescaled_brute_force_risk(inst, f)
        hits = 0
        for t in range(trials):
            r = estimate_mean(inst, f, epsilon, delta, rng=(31, idx, t))
            hits += abs(r.mu_hat - target) <= epsilon
        worst = min(worst, hits / trials)
    report("A3 estimator-coverage", worst >= 0.87, f"min coverage {worst:.4f} >= 0.87", started)


def test_a4_learner_coverage_quantum_and_classical():
    """Excess risk stays within epsilon at the target rate for both learners."""
    started = time.perf_counter()
    epsilon, delta = 0.05, 0.1
    instances = [random_instance(500 + s, x_size=8, y_size=2, h_size=8) for s in range(4)]
    rates = {}
    for method in ("quantum", "classical"):
        hits = 0
        total = 0
        for idx, inst in enumerate(instances):
            assert len(inst.probabilities) == 16
            stats = exact_statistics(inst)
            best = stats.risks[stats.best_id]
            for t in range(50):
                if method == "quantum":
                    chosen = learn(inst, epsilon, delta, rng=(41, idx, t)).chosen_id
                else:
                    chosen = erm_learn(inst, epsilon, delta, rng=(42, idx, t)).chosen_id
                hits += stats.risks[chosen] - best <= epsilon
                total += 1
        rates[method] = hits / total
    ok = min(rates.values()) >= 0.87
    report(
        "A4 learner-coverage", ok,
        f"quantum {rates['quantum']:.4f}, classical {rates['classical']:.4f}, both >= 0.87",
        started,
    )


def test_a5_quadratic_separation(repo_root, tmp_path):
    """Sample counts scale like 1/epsilon (quantum) vs 1/epsilon^2 (classical)."""
    started = time.perf_counter()
    config = BenchConfig(
        epsilons=(0.1, 0.05, 0.025, 0.0125),
        deltas=(0.05,),
        trials=5,
        base_seed=7,
        methods=("quantum", "classical"),
        engine="analytic",
        instance_path=str(repo_root / "instances" / "separation.json"),
    )
    rows = run_bench(config, tmp_path / "separation.csv")
    q_points = mean_samples_by_epsilon(rows, "quantum")
    c_points = mean_samples_by_epsilon(rows, "classical")
    q_slope = fit_loglog_slope(q_points)
    c_slope = fit_loglog_slope(c_points)
    h_size = 4
    q_const = np.mean(
        [n * e / (math.log(h_size) + math.log(1 / 0.05)) for e, n in q_points]
    )
    c_const = np.mean([n * e**2 / math.log(2 * h_size / 0.05) for e, n in c_points])
    print(
        f"    fitted constants: quantum samples =~ {q_const:.1f} (log|H| + log(1/d))/eps, "
        f"classical =~ {c_const:.1f} log(2|H|/d)/eps^2"
    )
    ok = -1.25 <= q_slope <= -0.85 and -2.3 <= c_slope <= -1.7
    report(
        "A5 quadratic-separation", ok,
        f"quantum slope {q_slope:.3f} in [-1.25, -0.85], classical slope {c_slope:.3f} in [-2.3, -1.7]",
        started,
    )


def test_a6_class_size_shape():
    """Per-hypothesis budget is affine in log|H| + log(1/delta)."""
    started = time.perf_counter()
    epsilon, delta = 0.05, 0.05
    sizes = [2, 4, 8, 16]
    budgets = []
    for h in sizes:
        inst = random_instance(600 + h, x_size=4, y_size=2, h_size=h)
        result = learn(inst, epsilon, delta, rng=3)
        budgets.append(result.total_quantum_samples // len(inst.hypotheses))
    u = np.log(sizes) + math.log(1 / delta)
    coef = np.polyfit(u, budgets, 1)
    fitted = np.polyval(coef, u)
    rel = float((np.abs(fitted - np.array(budgets)) / np.array(budgets)).max())
    print(
        f"    fitted law: per-hypothesis samples =~ {coef[0]:.1f} (log|H| + log(1/d)) + {coef[1]:.1f}"
    )
    report(
        "A6 class-size-shape", rel <= 0.2,
        f"max relative residual {rel:.4f} <= 0.2 over |H| in {sizes} (budgets {budgets})",
        started,
    )


def test_a7_squared_risk_decomposition():
    """Risk splits exactly into approximation error plus noise variance."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(700 + seed)
        inst = random_instance(
            700 + seed,
            x_size=int(rng.integers(2, 6)),
            y_size=int(rng.integers(2, 6)),
            h_size=3,
            loss_kind="squared",
        )
        for f in inst.hypotheses:
            lhs, rhs = squared_risk_decomposition(inst, f)
            worst = max(worst, abs(lhs - rhs))
    report("A7 risk-decomposition", worst <= 1e-12, f"max |lhs - rhs| {worst:.3e} <= 1e-12", started)


def test_a8_argmin_transfer_never_fails():
    """Premise-satisfying triples transfer to 2-epsilon optimality, always."""
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    n = 10_000
    holds = 0
    for _ in range(n):
        size = int(rng.integers(2, 12))
        epsilon = float(rng.uniform(0.005, 0.4))
        exact = {f"h{i}": float(rng.uniform(0.0, 1.0)) for i in range(size)}
        estimates = {k: v + float(rng.uniform(-0.95, 0.95)) * epsilon for k, v in exact.items()}
        holds += argmin_risk_transfer(exact, estimates, epsilon) == "holds"
    report("A8 argmin-transfer", holds == n, f"{holds}/{n} premise-satisfying triples held", started)


def test_a9_unitarity_and_marked_mass_identity():
    """Norm is preserved through the full circuit; marked mass matches the sum."""
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    worst_norm = 0.0
    worst_mass = 0.0
    for trial in range(100):
        kind = "squared" if trial % 2 else "zero_one"
        inst = random_instance(
            900 + trial,
            x_size=int(rng.integers(2, 5)),
            y_size=int(rng.integers(2, 4)),
            h_size=2,
            loss_kind=kind,
        )
        f = inst.hypotheses[trial % 2]
        coef, parts = simulate_ae_state(inst, f, m=4)
        state = coef @ parts
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(state)) - 1.0))
        mass = marked_probability(loss_encoded_state(inst, f))
        worst_mass = max(worst_mass, abs(mass - rescaled_brute_force_risk(inst, f)))
    ok = worst_norm <= 1e-10 and worst_mass <= 1e-10
    report(
        "A9 unitarity-and-identity", ok,
        f"max norm drift {worst_norm:.3e} <= 1e-10, max mass error {worst_mass:.3e} <= 1e-10",
        started,
    )


def test_a10_garbage_invariance():
    """Random garbage registers leave the outcome distribution unchanged."""
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst = 0.0
    for trial in range(6):
        inst = random_instance(
            1100 + trial, x_size=2, y_size=2, h_size=2,
            loss_kind="squared" if trial % 2 else "zero_one",
        )
        f = inst.hypotheses[0]
        m = int(rng.integers(3, 6))
        plain = simulate_ae_distribution(inst, f, m)
        coef, parts = circuit_state(with_garbage(loss_encoded_state(inst, f), rng), m)
        garbled_state = coef @ parts
        garbled = np.sum(np.abs(garbled_state) ** 2, axis=1)
        worst = max(worst, 0.5 * float(np.abs(plain - garbled).sum()))
    report("A10 garbage-invariance", worst <= 1e-9, f"max TV {worst:.3e} <= 1e-9", started)
