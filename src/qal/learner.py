"""Agnostic learner over a finite hypothesis class.

Each hypothesis gets its risk estimated to half the target accuracy at a
union-bound share of the confidence budget; the returned hypothesis is the
argmin of one columnar batch of estimates. When every estimate is within
epsilon/2 of its exact risk, the argmin's exact risk is within epsilon of
the class optimum; that reduction is deterministic and exposed for testing.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .estimator import BatchEstimate, EstimateResult, estimate_batch
from .estimator import estimate_mean  # noqa: F401  (benchmark/run.py traces learner.estimate_mean by name)
from .problem import ProblemInstance

# Guarantees are only claimed inside these ranges; the algorithm itself is
# well-defined outside them.
EPSILON_GUARANTEE_LIMIT = 1.0 / 8.0
DELTA_GUARANTEE_LIMIT = 1.0 / 2.0


@dataclass(frozen=True, eq=False)
class LearnResult:
    chosen_id: str
    budget: tuple[float, float]
    total_quantum_samples: int
    ids: tuple[str, ...]  # batch row i is the estimate of hypothesis ids[i]
    batch: BatchEstimate

    @cached_property
    def estimates(self) -> dict[str, EstimateResult]:
        """Each hypothesis's EstimateResult by id, in class order; built once, on first read."""
        return dict(zip(self.ids, self.batch.results()))


def allocate_budget(h_size: int, epsilon: float, delta: float) -> tuple[float, float]:
    """Per-hypothesis (accuracy, confidence) shares: epsilon/2 and delta/|H|."""
    if h_size < 1:
        raise ValueError(f"hypothesis class size must be >= 1, got {h_size}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return epsilon / 2.0, delta / h_size


def learn(
    inst: ProblemInstance,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | int,
    engine: str = "analytic",
) -> LearnResult:
    """Estimate every hypothesis risk, return the estimate argmin.

    Ties break toward the lower hypothesis index. The class is estimated
    as one estimate_batch at the per-hypothesis budget on rng: hypothesis i
    takes its repetitions from row i of one (|H|, R) matrix of uniform
    deviates drawn from rng.
    """
    if epsilon >= EPSILON_GUARANTEE_LIMIT:
        warnings.warn(
            f"epsilon={epsilon} is outside the guaranteed range (0, {EPSILON_GUARANTEE_LIMIT}); "
            "the learner still runs but no excess-risk guarantee is claimed",
            stacklevel=2,
        )
    if delta >= DELTA_GUARANTEE_LIMIT:
        warnings.warn(
            f"delta={delta} is outside the guaranteed range (0, {DELTA_GUARANTEE_LIMIT}); "
            "the learner still runs but no confidence guarantee is claimed",
            stacklevel=2,
        )
    eps_h, delta_h = allocate_budget(len(inst.hypotheses), epsilon, delta)
    batch = estimate_batch(inst, np.arange(len(inst.hypotheses)), eps_h, delta_h, rng, engine=engine)
    return LearnResult(
        chosen_id=inst.ids[int(np.argmin(batch.mu_hat))],  # the first minimum
        budget=(eps_h, delta_h),
        total_quantum_samples=len(batch.mu_hat) * batch.ledger.quantum_samples,
        ids=inst.ids,
        batch=batch,
    )


def argmin_risk_transfer(
    exact_risks: Mapping[str, float],
    estimates: Mapping[str, float],
    epsilon: float,
) -> str:
    """Deterministic reduction from uniform accuracy to argmin optimality.

    If every estimate is within epsilon of its exact risk, the exact risk
    of the estimate argmin is within 2 epsilon of the exact optimum; in
    that case returns "holds" (and can never fail). If some estimate is
    farther than epsilon, returns "premise_violated".
    """
    if set(exact_risks) != set(estimates):
        raise ValueError("exact_risks and estimates must share the same keys")
    keys = list(exact_risks)
    if max(abs(exact_risks[k] - estimates[k]) for k in keys) > epsilon:
        return "premise_violated"
    chosen = min(keys, key=lambda k: estimates[k])
    if exact_risks[chosen] <= min(exact_risks.values()) + 2.0 * epsilon:
        return "holds"
    raise RuntimeError(
        "argmin transfer failed under a satisfied premise; this contradicts a "
        "deterministic inequality chain and indicates a logic error"
    )
