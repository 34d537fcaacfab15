"""Bundled self-checks behind `qal verify`.

Each check exercises one cross-module identity or law on fixed seeds and
reports observed against required values. Every register they build fits
well inside the engine's qubit cap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    ae_error_bound,
    circuit_state,
    loss_encoded_state,
    marked_probability,
    phase_estimates,
    phase_law,
    simulate_ae_distribution,
)
from .estimator import outcome_laws
from .learner import argmin_risk_transfer
from .problem import demo_instance, exact_risk, random_instance, squared_risk_decomposition

MARKED_MASS_TOL = 1e-10
DECOMPOSITION_TOL = 1e-12
TV_TOL = 1e-9
INTERVAL_MASS_FLOOR = 8.0 / np.pi**2
SEED = 20240


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: str
    required: str


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def check_marked_mass_identity(n_pairs: int, seed: int) -> CheckResult:
    """Ancilla-one mass of the prepared state equals the rescaled exact risk."""
    rng = np.random.default_rng(seed)
    worst = 0.0
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


def check_ae_interval_mass(ms: tuple[int, ...]) -> CheckResult:
    """Simulated outcome mass within the error radius beats 8/pi^2."""
    inst = demo_instance()
    a = exact_risk(inst, inst.hypotheses[0]) / inst.loss.bound
    worst = 1.0
    for m in ms:
        dist = outcome_laws(inst, [0], m, "statevector")[0]
        radius = ae_error_bound(a, m)
        hats = phase_estimates(m)
        mass = float(dist[np.abs(hats - a) <= radius].sum())
        worst = min(worst, mass)
    return CheckResult(
        "ae-interval-mass", worst >= INTERVAL_MASS_FLOOR, f"min in-interval mass = {worst:.4f}",
        f">= {INTERVAL_MASS_FLOOR:.4f}",
    )


def check_oracle_equivalence(n_instances: int, seed: int) -> CheckResult:
    """Simulated and closed-form outcome laws, as the learner's batches build them, agree in total variation."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        inst = random_instance(
            int(rng.integers(0, 2**31)),
            x_size=int(rng.integers(2, 5)),
            y_size=2,
            h_size=2,
            loss_kind=str(rng.choice(["zero_one", "squared"])),
        )
        rows = [int(rng.integers(0, 2))]
        m = int(rng.integers(2, 6))
        sim, law = (outcome_laws(inst, rows, m, engine)[0] for engine in ("statevector", "analytic"))
        worst = max(worst, _tv(sim, law))
    return CheckResult("oracle-equivalence", worst <= TV_TOL, f"max TV = {worst:.3e}", f"TV <= {TV_TOL}")


def with_garbage(psi: np.ndarray, rng: np.random.Generator | int | None) -> np.ndarray:
    """Pair each data code of psi with its own random normalized qubit.

    psi's last qubit is the loss ancilla; the garbage qubit is a new high
    register, so the result has twice psi's size, and summing out the
    garbage qubit gives back |psi|^2. Amplitude estimation reads only the
    ancilla, so the outcome law must not depend on the garbage.
    """
    rng = np.random.default_rng(rng)
    codes = psi.size // 2
    g = rng.normal(size=(codes, 2)) + 1j * rng.normal(size=(codes, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g = np.repeat(g, 2, axis=0)  # both ancilla values of a code share its garbage
    return np.concatenate([psi * g[:, 0], psi * g[:, 1]])


def check_garbage_invariance(n_instances: int, seed: int) -> CheckResult:
    """Attaching random garbage states leaves the outcome law unchanged."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        inst = random_instance(
            int(rng.integers(0, 2**31)), x_size=2, y_size=2, h_size=2,
            loss_kind=str(rng.choice(["zero_one", "squared"])),
        )
        f = inst.hypotheses[0]
        m = int(rng.integers(2, 5))
        plain = simulate_ae_distribution(inst, f, m)
        garbled = phase_law(*circuit_state(with_garbage(loss_encoded_state(inst, f), rng), m))
        worst = max(worst, _tv(plain, garbled))
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


def verify(quick: bool = False) -> list[CheckResult]:
    """Run every bundled check; all-pass means the build is self-consistent."""
    n = 1 if quick else 4
    return [
        check_marked_mass_identity(5 * n, SEED),
        check_risk_decomposition(8 * n, SEED + 1),
        check_ae_interval_mass((3, 4) if quick else (3, 4, 5, 6)),
        check_oracle_equivalence(3 * n, SEED + 2),
        check_garbage_invariance(2 * n, SEED + 3),
        check_argmin_transfer(500 * n, SEED + 4),
    ]
