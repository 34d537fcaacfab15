"""Median-amplified mean estimation of a bounded loss.

The phase-register depth is the smallest power of two whose worst-case
error bound meets the rescaled accuracy target; the repetition count makes
the median of independent runs reach the confidence target. Estimates are
formed on the rescaled (bound-one) loss and mapped back by the bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    DEFAULT_QUBIT_CAP,
    CapacityError,
    QueryLedger,
    closed_form_ae_distribution,
    draw_outcome,
    estimate_from_phase,
    run_ledger,
    simulate_ae_distribution,
)
from .problem import Hypothesis, ProblemInstance, exact_risk

ENGINE_MODES = ("statevector", "analytic")

# Each run lands within the worst-case radius with probability >= 8/pi^2
# =~ 0.8106; a Chernoff bound on the median then gives failure probability
# <= exp(-2 R (8/pi^2 - 1/2)^2) =~ exp(-0.193 R), so R >= 5.2 ln(1/delta)
# suffices.
REPETITION_FACTOR = 2.6


@dataclass(frozen=True)
class EstimateResult:
    """One mean estimate with its schedule and oracle accounting.

    raw_estimates holds the per-run estimates on the rescaled (bound-one)
    scale; mu_hat is their median mapped back to the original scale.
    """

    mu_hat: float
    epsilon_target: float
    delta_target: float
    m: int
    repetitions: int
    ledger: QueryLedger
    raw_estimates: tuple[float, ...]


def worst_case_error(m: int) -> float:
    """Error radius at depth 2^m when nothing is known about the amplitude."""
    t = 2**m
    return math.pi / t + math.pi**2 / t**2


def phase_bits_for_accuracy(epsilon: float, max_bits: int = DEFAULT_QUBIT_CAP - 2) -> int:
    """Smallest m whose worst-case error radius is at most epsilon.

    epsilon is on the rescaled (bound-one) loss scale.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"rescaled accuracy must lie in (0, 1), got {epsilon}")
    m = 1
    while worst_case_error(m) > epsilon:
        m += 1
        if m > max_bits:
            raise CapacityError(
                f"accuracy {epsilon} needs more than {max_bits} phase bits "
                f"(worst-case error at m={max_bits} is {worst_case_error(max_bits):.3e})"
            )
    return m


def repetitions_for_confidence(delta: float) -> int:
    """Odd repetition count whose median fails with probability at most delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return 2 * math.ceil(REPETITION_FACTOR * math.log(1.0 / delta)) + 1


def median(values) -> float:
    """Middle order statistic of an odd-length list."""
    vals = list(values)
    if not vals:
        raise ValueError("median of an empty list")
    if len(vals) % 2 == 0:
        raise ValueError(f"median needs an odd number of values, got {len(vals)}")
    return sorted(vals)[len(vals) // 2]


def outcome_distribution(
    inst: ProblemInstance,
    f: Hypothesis,
    m: int,
    engine: str = "analytic",
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Phase-register outcome law via the selected engine.

    "statevector" runs the full circuit; "analytic" evaluates the
    closed-form law at the exactly known amplitude. The two agree to
    floating-point precision, so results are interchangeable.
    """
    if engine == "statevector":
        return simulate_ae_distribution(inst, f, m, qubit_cap=qubit_cap)
    if engine == "analytic":
        a = exact_risk(inst, f) / inst.loss.bound
        return closed_form_ae_distribution(min(max(a, 0.0), 1.0), m)
    raise ValueError(f"engine must be one of {ENGINE_MODES}, got {engine!r}")


def estimate_mean(
    inst: ProblemInstance,
    f: Hypothesis | str,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | int | None = None,
    engine: str = "analytic",
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> EstimateResult:
    """Estimate the expected loss of f to accuracy epsilon, confidence 1 - delta.

    epsilon is on the original loss scale. Repetitions draw from
    independent child streams of rng (one uniform deviate each) so the
    merge is order-insensitive and reproducible.
    """
    f = inst.hypothesis(f)
    bound = inst.loss.bound
    if not 0.0 < epsilon < bound:
        raise ValueError(f"epsilon must lie in (0, {bound}) on the original loss scale, got {epsilon}")
    m = phase_bits_for_accuracy(epsilon / bound, max_bits=qubit_cap - (inst.k + 1))
    reps = repetitions_for_confidence(delta)

    dist = outcome_distribution(inst, f, m, engine=engine, qubit_cap=qubit_cap)
    raw = []
    ledger = QueryLedger()
    for child in np.random.default_rng(rng).spawn(reps):
        y = draw_outcome(dist, child)
        raw.append(estimate_from_phase(y, m))
        ledger.add(run_ledger(m))
    return EstimateResult(
        mu_hat=bound * median(raw),
        epsilon_target=epsilon,
        delta_target=delta,
        m=m,
        repetitions=reps,
        ledger=ledger,
        raw_estimates=tuple(raw),
    )
