"""Median-amplified mean estimation of a bounded loss.

The phase-register depth is the smallest power of two whose worst-case
error bound meets the rescaled accuracy target; the repetition count makes
the median of independent runs reach the confidence target. Estimates are
formed on the rescaled (bound-one) loss and mapped back by the bound.

Estimates at a common (epsilon, delta) run as one batch over class rows:
class members with equal loss rows share one outcome law, the repetitions
are one matrix of uniform deviates, and the medians and raw estimates come
back as arrays (BatchEstimate); a single estimate is the one-row case.
Laws are built in blocks, and each law maps its rows of the matrix in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    QUBIT_CAP,
    CapacityError,
    QueryLedger,
    _check_register,
    ae_error_bound,
    closed_form_ae_distribution,
    draw_outcome,
    phase_estimates,
    run_ledger,
    simulate_ae_distribution,
)
from .problem import Hypothesis, ProblemInstance, ValidationError, exact_risk  # noqa: F401  (benchmark/run.py traces exact_risk here)

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
    m: int
    repetitions: int
    ledger: QueryLedger
    raw_estimates: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class BatchEstimate:
    """The estimates of class rows at one schedule, as columns: mu_hat[i] and raw[i] are row i's."""

    m: int
    repetitions: int
    ledger: QueryLedger
    mu_hat: np.ndarray  # read-only, one median per row, on the original scale
    raw: np.ndarray  # read-only, (rows, repetitions) per-run estimates on the rescaled scale

    def results(self) -> list[EstimateResult]:
        """One EstimateResult per row, in batch order."""
        per_row = zip(self.mu_hat.tolist(), self.raw.tolist())
        return [EstimateResult(mu, self.m, self.repetitions, self.ledger, tuple(raw)) for mu, raw in per_row]


def phase_bits_for_accuracy(epsilon: float, max_bits: int = QUBIT_CAP - 2) -> int:
    """Smallest m whose worst-case error radius, ae_error_bound(0.5, m), is at most epsilon.

    epsilon is on the rescaled (bound-one) loss scale; the radius is largest at amplitude 1/2.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"rescaled accuracy must lie in (0, 1), got {epsilon}")
    m = 1
    while ae_error_bound(0.5, m) > epsilon:
        m += 1
        if m > max_bits:
            raise CapacityError(
                f"accuracy {epsilon} needs more than {max_bits} phase bits "
                f"(worst-case error at m={max_bits} is {ae_error_bound(0.5, max_bits):.3e})"
            )
    return m


def repetitions_for_confidence(delta: float) -> int:
    """Odd repetition count whose median fails with probability at most delta."""
    if not 0.0 < delta < 1.0 or math.isinf(1.0 / delta):  # 1/delta is inf below about 5.6e-309
        raise ValueError(f"delta must lie in (0, 1) with a finite 1/delta, got {delta}")
    return 2 * math.ceil(REPETITION_FACTOR * math.log(1.0 / delta)) + 1


def median(values) -> float:
    """Middle order statistic of an odd-length list."""
    vals = list(values)
    if not vals:
        raise ValueError("median of an empty list")
    if len(vals) % 2 == 0:
        raise ValueError(f"median needs an odd number of values, got {len(vals)}")
    return sorted(vals)[len(vals) // 2]


def outcome_laws(inst: ProblemInstance, rows: Sequence[int], m: int, engine: str = "analytic") -> np.ndarray:
    """The (len(rows), 2^m) phase-register outcome laws of class rows: "statevector" runs the full circuit
    per row, "analytic" makes one closed-form call at the exact amplitudes; they agree to float precision."""
    if engine == "statevector":
        return np.array([simulate_ae_distribution(inst, inst.hypotheses[i], m) for i in rows])
    if engine == "analytic":
        # A valid instance's risk lies in [0, bound], so a leaves [0, 1] only by round-off.
        a = (inst.risks[rows] / inst.loss.bound).tolist()
        return closed_form_ae_distribution(tuple([min(max(v, 0.0), 1.0) for v in a]), m)
    raise ValueError(f"engine must be one of {ENGINE_MODES}, got {engine!r}")


def schedule(inst: ProblemInstance, epsilon: float, delta: float) -> tuple[int, int]:
    """Phase bits m and repetition count of one estimate at (epsilon, delta).

    epsilon is on the original loss scale. delta is checked first, then epsilon
    against the loss bound, then the register (one phase bit) and the depth
    against the qubit cap: a ValueError's message starts with the parameter at
    fault, and a CapacityError means the circuit for epsilon would exceed the cap.
    """
    reps = repetitions_for_confidence(delta)
    bound = inst.loss.bound
    if not 0.0 < epsilon < bound:
        raise ValueError(f"epsilon must lie in (0, {bound}) on the original loss scale, got {epsilon}")
    _check_register(inst.k + 1, 1)
    return phase_bits_for_accuracy(epsilon / bound, max_bits=QUBIT_CAP - (inst.k + 1)), reps


def estimate_batch(
    inst: ProblemInstance,
    rows: Sequence[int],
    epsilon: float,
    delta: float,
    rng: np.random.Generator | int,
    engine: str = "analytic",
) -> BatchEstimate:
    """Estimate the expected loss of class rows (indices into inst.hypotheses) at (epsilon, delta).

    The repetitions are one matrix of uniform deviates,
    np.random.default_rng(rng).random((len(rows), R)): row i is rows[i]'s,
    mapped in place through the inverse CDF of its outcome law. One law is built
    per distinct loss row (inst.distinct_row), in blocks no larger than the deviates.
    """
    idx = np.asarray(rows)
    if idx.ndim != 1 or not idx.size or idx.dtype.kind not in "iu" or not 0 <= idx.min() <= idx.max() < len(inst.hypotheses):
        raise ValidationError(f"rows: must be a nonempty list of class rows in 0..{len(inst.hypotheses) - 1}, got {rows!r:.60}")
    if engine not in ENGINE_MODES:
        raise ValidationError(f"engine: must be one of {ENGINE_MODES}, got {engine!r}")
    m, reps = schedule(inst, epsilon, delta)

    law_of = inst.distinct_row[rows]
    order = np.argsort(law_of, kind="stable")  # law j's rows: order[bounds[j] : bounds[j + 1]]
    bounds = [0, *(np.flatnonzero(np.diff(law_of[order])) + 1).tolist(), len(rows)]
    firsts = np.take(rows, order[bounds[:-1]])  # each law's first row in batch order
    raw = np.random.default_rng(rng).random((len(rows), reps))
    block = max(1, len(rows) * reps // 2**m)
    for b in range(0, len(firsts), block):
        cdfs = np.cumsum(outcome_laws(inst, firsts[b : b + block], m, engine=engine), axis=1)
        for cdf, lo, hi in zip(cdfs, bounds[b : b + block], bounds[b + 1 : b + block + 1]):
            raw[order[lo:hi]] = phase_estimates(m)[draw_outcome(cdf, raw[order[lo:hi]])]  # deviates -> estimates
    mu_hat = inst.loss.bound * np.partition(raw, reps // 2, axis=1)[:, reps // 2]
    raw.flags.writeable = mu_hat.flags.writeable = False
    return BatchEstimate(m, reps, run_ledger(m, runs=reps), mu_hat, raw)


def estimate_mean(
    inst: ProblemInstance,
    f: Hypothesis | str,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | int,
    engine: str = "analytic",
) -> EstimateResult:
    """Estimate the expected loss of f to accuracy epsilon, confidence 1 - delta.

    epsilon is on the original loss scale. The repetitions draw one vector
    of uniform deviates from rng, so the estimate is reproducible per seed;
    this is the one-row case of estimate_batch.
    """
    return estimate_batch(inst, [inst.row(f)], epsilon, delta, rng, engine=engine).results()[0]
