"""Classical baseline: i.i.d. sampling plus empirical risk minimization.

The sample size is the Hoeffding/union-bound count for per-hypothesis
accuracy epsilon/2 at confidence delta/|H|; all hypotheses share a single
draw, matching the standard uniform-convergence argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ProblemInstance


@dataclass(frozen=True)
class ClassicalLearnResult:
    chosen_id: str
    samples_used: int
    empirical_risks: dict[str, float]


def hoeffding_sample_size(bound: float, h_size: int, epsilon: float, delta: float) -> int:
    """i.i.d. draws sufficient for ERM at accuracy epsilon, confidence 1 - delta."""
    if bound <= 0:
        raise ValueError(f"loss bound must be positive, got {bound}")
    if h_size < 1:
        raise ValueError(f"hypothesis class size must be >= 1, got {h_size}")
    if not 0.0 < epsilon < bound:
        raise ValueError(f"epsilon must lie in (0, {bound}), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(2.0 * bound * bound * math.log(2.0 * h_size / delta) / (epsilon * epsilon))


def draw_iid_samples(
    inst: ProblemInstance, n: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """n independent support-code draws from the instance distribution."""
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    rng = np.random.default_rng(rng)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(len(inst.support), size=n, p=inst.probabilities).astype(np.int64)


def loss_matrix(inst: ProblemInstance) -> np.ndarray:
    """Loss values on the original scale, hypotheses by support codes."""
    return inst.losses


def erm_learn(
    inst: ProblemInstance,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | int | None = None,
) -> ClassicalLearnResult:
    """Draw one Hoeffding-sized sample, return the empirical-risk argmin.

    Ties break toward the lower hypothesis index.
    """
    n = hoeffding_sample_size(inst.loss.bound, len(inst.hypotheses), epsilon, delta)
    samples = draw_iid_samples(inst, n, rng)
    counts = np.bincount(samples, minlength=len(inst.support))
    risks = loss_matrix(inst) @ counts / n
    chosen = int(np.argmin(risks))
    return ClassicalLearnResult(
        chosen_id=inst.hypotheses[chosen].id,
        samples_used=n,
        empirical_risks={f.id: float(r) for f, r in zip(inst.hypotheses, risks)},
    )
