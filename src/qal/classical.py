"""Classical baseline: i.i.d. sampling plus empirical risk minimization.

The sample size is the Hoeffding/union-bound count for per-hypothesis
accuracy epsilon/2 at confidence delta/|H|; all hypotheses share a single
draw, matching the standard uniform-convergence argument. ERM reads only
the per-support-point counts of that draw, so it draws them directly as
one Multinomial(n, p) vector: the same law as counting n i.i.d. draws, in
O(|support|) time and memory instead of O(n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ProblemInstance

INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ClassicalLearnResult:
    chosen_id: str
    samples_used: int
    empirical_risks: dict[str, float]


def hoeffding_sample_size(bound: float, h_size: int, epsilon: float, delta: float) -> int:
    """i.i.d. draws sufficient for ERM at accuracy epsilon, confidence 1 - delta.

    A delta so small that 2|H|/delta overflows a float, or a count above the
    int64 maximum, which numpy cannot draw, raises ValueError.
    """
    if bound <= 0:
        raise ValueError(f"loss bound must be positive, got {bound}")
    if h_size < 1:
        raise ValueError(f"hypothesis class size must be >= 1, got {h_size}")
    if not 0.0 < epsilon < bound:
        raise ValueError(f"epsilon must lie in (0, {bound}), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if math.isinf(ratio := 2.0 * h_size / delta):  # delta below about 2|H| * 5.6e-309
        raise ValueError(f"delta={delta} is too small: 2|H|/delta overflows a float at |H|={h_size}")
    eps2 = epsilon * epsilon  # 0.0 once epsilon < ~1e-162: the count is then unbounded
    raw = 2.0 * bound * bound * math.log(ratio) / eps2 if eps2 else math.inf
    if raw > INT64_MAX:
        raise ValueError(f"epsilon={epsilon} needs {raw:.3g} draws, more than the int64 maximum {INT64_MAX}")
    return math.ceil(raw)


def draw_iid_samples(inst: ProblemInstance, n: int, rng: np.random.Generator | int) -> np.ndarray:
    """n independent support-code draws from the instance distribution."""
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    rng = np.random.default_rng(rng)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(len(inst.probabilities), size=n, p=inst.probabilities).astype(np.int64)


def loss_matrix(inst: ProblemInstance) -> np.ndarray:
    """Loss values on the original scale, hypotheses by support codes."""
    return inst.losses


def erm_learn(
    inst: ProblemInstance,
    epsilon: float,
    delta: float,
    rng: np.random.Generator | int,
) -> ClassicalLearnResult:
    """Draw one Hoeffding-sized sample, return the empirical-risk argmin.

    The sample's per-support-point counts are drawn as one
    Multinomial(n, p) vector from rng, the law of the counts of n i.i.d.
    draws, so memory stays O(|support|) at any n. Ties break toward the
    lower hypothesis index.
    """
    n = hoeffding_sample_size(inst.loss.bound, len(inst.hypotheses), epsilon, delta)
    counts = np.random.default_rng(rng).multinomial(n, inst.probabilities)
    risks = loss_matrix(inst) @ counts / n
    chosen = int(np.argmin(risks))
    return ClassicalLearnResult(
        chosen_id=inst.hypotheses[chosen].id,
        samples_used=n,
        empirical_risks={f.id: float(r) for f, r in zip(inst.hypotheses, risks)},
    )
