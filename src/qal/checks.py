"""Bundled self-checks behind `qal verify`.

Each check exercises one cross-module identity or law on fixed seeds and
reports observed against required values. Capacity problems surface as
failed checks with the error text, never as crashes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    DEFAULT_QUBIT_CAP,
    CapacityError,
    ae_error_bound,
    closed_form_ae_distribution,
    estimate_from_phase,
    loss_encoded_state,
    marked_probability,
    simulate_ae_distribution,
)
from .learner import argmin_risk_transfer
from .problem import demo_instance, exact_risk, random_instance, squared_risk_decomposition

MARKED_MASS_TOL = 1e-10
DECOMPOSITION_TOL = 1e-12
TV_TOL = 1e-9
INTERVAL_MASS_FLOOR = 8.0 / np.pi**2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: str
    required: str


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def check_marked_mass_identity(n_pairs: int, seed: int, qubit_cap: int) -> CheckResult:
    """Ancilla-one mass of the prepared state equals the rescaled exact risk."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        for _ in range(n_pairs):
            inst = random_instance(
                int(rng.integers(0, 2**31)),
                x_size=int(rng.integers(2, 5)),
                y_size=int(rng.integers(2, 4)),
                h_size=2,
                loss_kind=str(rng.choice(["zero_one", "squared"])),
            )
            f = inst.hypotheses[int(rng.integers(0, 2))]
            a_sim = marked_probability(loss_encoded_state(inst, f))
            a_exact = exact_risk(inst, f) / inst.loss.bound
            worst = max(worst, abs(a_sim - a_exact))
    except CapacityError as e:
        return CheckResult("marked-mass-identity", False, f"capacity error: {e}", f"<= {MARKED_MASS_TOL}")
    return CheckResult(
        "marked-mass-identity", worst <= MARKED_MASS_TOL, f"max |a_sim - a_exact| = {worst:.3e}",
        f"<= {MARKED_MASS_TOL}",
    )


def check_risk_decomposition(n_instances: int, seed: int) -> CheckResult:
    """Squared risk equals approximation term plus noise variance, exactly."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        inst = random_instance(
            int(rng.integers(0, 2**31)),
            x_size=int(rng.integers(2, 5)),
            y_size=int(rng.integers(2, 5)),
            h_size=3,
            loss_kind="squared",
        )
        for f in inst.hypotheses:
            lhs, rhs = squared_risk_decomposition(inst, f)
            worst = max(worst, abs(lhs - rhs))
    return CheckResult(
        "risk-decomposition", worst <= DECOMPOSITION_TOL, f"max |lhs - rhs| = {worst:.3e}",
        f"<= {DECOMPOSITION_TOL}",
    )


def check_ae_interval_mass(ms: tuple[int, ...], qubit_cap: int) -> CheckResult:
    """Simulated outcome mass within the error radius beats 8/pi^2."""
    inst = demo_instance()
    f = inst.hypotheses[0]
    a = exact_risk(inst, f) / inst.loss.bound
    worst = 1.0
    try:
        for m in ms:
            dist = simulate_ae_distribution(inst, f, m, qubit_cap=qubit_cap)
            radius = ae_error_bound(a, m)
            hats = np.array([estimate_from_phase(y, m) for y in range(dist.size)])
            mass = float(dist[np.abs(hats - a) <= radius].sum())
            worst = min(worst, mass)
    except CapacityError as e:
        return CheckResult("ae-interval-mass", False, f"capacity error: {e}", f">= {INTERVAL_MASS_FLOOR:.4f}")
    return CheckResult(
        "ae-interval-mass", worst >= INTERVAL_MASS_FLOOR, f"min in-interval mass = {worst:.4f}",
        f">= {INTERVAL_MASS_FLOOR:.4f}",
    )


def check_oracle_equivalence(n_instances: int, seed: int, qubit_cap: int) -> CheckResult:
    """Simulated and closed-form outcome laws agree in total variation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        for _ in range(n_instances):
            inst = random_instance(
                int(rng.integers(0, 2**31)),
                x_size=int(rng.integers(2, 5)),
                y_size=2,
                h_size=2,
                loss_kind=str(rng.choice(["zero_one", "squared"])),
            )
            f = inst.hypotheses[int(rng.integers(0, 2))]
            m = int(rng.integers(2, 6))
            sim = simulate_ae_distribution(inst, f, m, qubit_cap=qubit_cap)
            law = closed_form_ae_distribution(exact_risk(inst, f) / inst.loss.bound, m)
            worst = max(worst, _tv(sim, law))
    except CapacityError as e:
        return CheckResult("oracle-equivalence", False, f"capacity error: {e}", f"TV <= {TV_TOL}")
    return CheckResult("oracle-equivalence", worst <= TV_TOL, f"max TV = {worst:.3e}", f"TV <= {TV_TOL}")


def check_garbage_invariance(n_instances: int, seed: int, qubit_cap: int) -> CheckResult:
    """Attaching random garbage states leaves the outcome law unchanged."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        for _ in range(n_instances):
            inst = random_instance(
                int(rng.integers(0, 2**31)), x_size=2, y_size=2, h_size=2,
                loss_kind=str(rng.choice(["zero_one", "squared"])),
            )
            f = inst.hypotheses[0]
            m = int(rng.integers(2, 5))
            plain = simulate_ae_distribution(inst, f, m, qubit_cap=qubit_cap)
            garbled = simulate_ae_distribution(
                inst, f, m, garbage_mode=True, rng=rng, qubit_cap=qubit_cap
            )
            worst = max(worst, _tv(plain, garbled))
    except CapacityError as e:
        return CheckResult("garbage-invariance", False, f"capacity error: {e}", f"TV <= {TV_TOL}")
    return CheckResult("garbage-invariance", worst <= TV_TOL, f"max TV = {worst:.3e}", f"TV <= {TV_TOL}")


def check_argmin_transfer(n_triples: int, seed: int) -> CheckResult:
    """Premise-satisfying random triples must transfer in 100% of cases."""
    rng = np.random.default_rng(seed)
    holds = 0
    for _ in range(n_triples):
        size = int(rng.integers(2, 9))
        eps = float(rng.uniform(0.01, 0.3))
        exact = {f"h{i}": float(rng.uniform(0.0, 1.0)) for i in range(size)}
        estimates = {k: v + float(rng.uniform(-0.95, 0.95)) * eps for k, v in exact.items()}
        if argmin_risk_transfer(exact, estimates, eps) == "holds":
            holds += 1
    return CheckResult(
        "argmin-transfer", holds == n_triples, f"{holds}/{n_triples} held", "100% hold",
    )


def verify(quick: bool = False, seed: int = 20240, qubit_cap: int = DEFAULT_QUBIT_CAP) -> list[CheckResult]:
    """Run every bundled check; all-pass means the build is self-consistent."""
    n = 1 if quick else 4
    return [
        check_marked_mass_identity(5 * n, seed, qubit_cap),
        check_risk_decomposition(8 * n, seed + 1),
        check_ae_interval_mass((3, 4) if quick else (3, 4, 5, 6), qubit_cap),
        check_oracle_equivalence(3 * n, seed + 2, qubit_cap),
        check_garbage_invariance(2 * n, seed + 3, qubit_cap),
        check_argmin_transfer(500 * n, seed + 4),
    ]
