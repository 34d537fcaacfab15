"""Finite learning problems with exactly computable ground truth.

A problem instance is a discrete joint distribution over (x, y) pairs, a
finite class of hypothesis tables, and a bounded loss. Every quantity the
rest of the package estimates (risks, the regression function, the noise
variance) is a finite sum here, so it can be computed exactly and used as
an oracle.

Support points carry a dense code 0..len(support)-1; the data register of
the quantum engine indexes basis states by that code. Each instance holds
its loss matrix (hypotheses by support codes) and the exact risks, computed
once on construction; every risk, loss rotation and ERM reads them.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

PROB_SUM_TOL = 1e-12

LOSS_KINDS = ("zero_one", "squared", "table")


class ValidationError(ValueError):
    """An instance or loss specification violates its contract.

    Messages start with the offending field path, e.g. "support[*].p: ...".
    """


@dataclass(frozen=True)
class SupportPoint:
    """One atom of the joint distribution: x code, y code, y value, mass."""

    x: int
    y_index: int
    y: float
    p: float


@dataclass(frozen=True)
class Hypothesis:
    """A candidate predictor given as a total table over x codes."""

    id: str
    table: tuple[float, ...]


@dataclass(frozen=True)
class LossSpec:
    """Bounded nonnegative loss.

    kind "zero_one" is the exact-mismatch indicator, "squared" is
    (f(x) - y)^2, "table" looks values up per (hypothesis id, x, y_index).
    """

    kind: str
    bound: float
    table: dict[str, tuple[tuple[float, ...], ...]] | None = None


def loss_value(loss: LossSpec, f: Hypothesis, z: SupportPoint) -> float:
    """Evaluate the loss of hypothesis f at support point z (original scale)."""
    if loss.kind == "zero_one":
        return 1.0 if f.table[z.x] != z.y else 0.0
    if loss.kind == "squared":
        d = f.table[z.x] - z.y
        return d * d
    if loss.kind == "table":
        per_hyp = loss.table.get(f.id) if loss.table else None
        if per_hyp is None:
            raise ValidationError(f"loss.table: no entry for hypothesis {f.id!r}")
        try:
            return per_hyp[z.x][z.y_index]
        except IndexError:
            raise ValidationError(
                f"loss.table[{f.id!r}]: missing entry for (x={z.x}, y_index={z.y_index})"
            ) from None
    raise ValidationError(f"loss.kind: unknown kind {loss.kind!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """Joint distribution, hypothesis class, and loss, all finite."""

    x_size: int
    y_values: tuple[float, ...]
    k: int
    support: tuple[SupportPoint, ...]
    hypotheses: tuple[Hypothesis, ...]
    loss: LossSpec
    # Derived from the fields above on construction (and by
    # dataclasses.replace): losses[i, j] is the loss of hypotheses[i] at
    # support code j on the original scale, and risks[i] sums p_j * losses[i, j]
    # left to right over the support.
    losses: np.ndarray = field(init=False, repr=False, compare=False)
    risks: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        losses = np.array(
            [[loss_value(self.loss, f, z) for z in self.support] for f in self.hypotheses], dtype=float
        ).reshape(len(self.hypotheses), len(self.support))
        risks = np.zeros(len(self.hypotheses))
        for j, z in enumerate(self.support):
            risks += z.p * losses[:, j]
        losses.flags.writeable = risks.flags.writeable = False
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "risks", risks)
        object.__setattr__(self, "_rows", {f.id: i for i, f in enumerate(self.hypotheses)})

    def row(self, f: Hypothesis | str) -> int:
        """Row of f in `losses` and `risks`; f is a class member, by id or object."""
        hyp_id = f if isinstance(f, str) else f.id
        i = self._rows.get(hyp_id)
        if i is None:
            raise ValidationError(f"hypotheses: unknown hypothesis id {hyp_id!r}")
        if not isinstance(f, str) and self.hypotheses[i] != f:
            raise ValidationError(f"hypotheses: hypothesis {f.id!r} is not part of the instance")
        return i

    def hypothesis(self, f: Hypothesis | str) -> Hypothesis:
        """The class member f names, by id or object."""
        return self.hypotheses[self.row(f)]

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([z.p for z in self.support])


@dataclass(frozen=True)
class ExactStatistics:
    """Ground-truth summaries of an instance, all exact finite sums."""

    regression: dict[int, float]
    noise_variance: float
    risks: dict[str, float]
    best_id: str


def exact_risk(inst: ProblemInstance, f: Hypothesis | str) -> float:
    """Expected loss of class member f under the instance distribution (exact finite sum)."""
    return float(inst.risks[inst.row(f)])


def best_hypothesis(inst: ProblemInstance) -> str:
    """Id of the exact-risk minimizer; ties broken by lowest list index."""
    if not inst.hypotheses:
        raise ValidationError("hypotheses: empty hypothesis class")
    return inst.hypotheses[int(np.argmin(inst.risks))].id


def regression_and_variance(inst: ProblemInstance) -> tuple[dict[int, float], float]:
    """Conditional mean of y given x, and the expected conditional variance.

    x codes with zero marginal mass are omitted from the map: the
    conditional mean is undefined there.
    """
    marginal: dict[int, float] = {}
    first_moment: dict[int, float] = {}
    for z in inst.support:
        marginal[z.x] = marginal.get(z.x, 0.0) + z.p
        first_moment[z.x] = first_moment.get(z.x, 0.0) + z.p * z.y
    regression = {x: first_moment[x] / m for x, m in marginal.items() if m > 0.0}
    variance = sum(z.p * (z.y - regression[z.x]) ** 2 for z in inst.support if z.x in regression)
    return regression, float(variance)


def squared_risk_decomposition(inst: ProblemInstance, f: Hypothesis | str) -> tuple[float, float]:
    """Split the squared risk into approximation and noise terms.

    Returns (risk, bias_term + noise_variance); the two sides agree exactly
    for any bounded table, which callers assert to 1e-12.
    """
    if inst.loss.kind != "squared":
        raise ValidationError(f"loss.kind: decomposition needs a squared loss, got {inst.loss.kind!r}")
    f = inst.hypothesis(f)
    lhs = exact_risk(inst, f)
    regression, noise = regression_and_variance(inst)
    marginal: dict[int, float] = {}
    for z in inst.support:
        marginal[z.x] = marginal.get(z.x, 0.0) + z.p
    bias = sum(m * (f.table[x] - regression[x]) ** 2 for x, m in marginal.items() if x in regression)
    return lhs, float(bias + noise)


def exact_statistics(inst: ProblemInstance) -> ExactStatistics:
    """Assemble every ground-truth summary in one pass."""
    regression, noise = regression_and_variance(inst)
    risks = dict(zip((f.id for f in inst.hypotheses), inst.risks.tolist()))
    return ExactStatistics(regression, noise, risks, best_hypothesis(inst))


def make_instance(
    x_size: int,
    y_values: list[float],
    k: int,
    support: list[tuple[int, int, float]],
    hypotheses: list[tuple[str, list[float]]],
    loss: LossSpec,
) -> ProblemInstance:
    """Validate raw parts, renormalize probabilities exactly, and freeze."""
    if x_size < 1:
        raise ValidationError(f"x_size: must be >= 1, got {x_size}")
    if not y_values:
        raise ValidationError("y_values: must be nonempty")
    if k < 1:
        raise ValidationError(f"k: must be >= 1, got {k}")
    if 2**k < len(support):
        raise ValidationError(f"k: 2^{k} = {2**k} cannot hold {len(support)} coded support points")

    seen: set[tuple[int, int]] = set()
    total = 0.0
    for i, (x, yi, p) in enumerate(support):
        if not 0 <= x < x_size:
            raise ValidationError(f"support[{i}].x: {x} outside 0..{x_size - 1}")
        if not 0 <= yi < len(y_values):
            raise ValidationError(f"support[{i}].y: {yi} outside 0..{len(y_values) - 1}")
        if p < 0:
            raise ValidationError(f"support[{i}].p: negative probability {p}")
        if (x, yi) in seen:
            raise ValidationError(f"support[{i}]: duplicate pair (x={x}, y={yi})")
        seen.add((x, yi))
        total += p
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"support[*].p: probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}")

    # Renormalize exactly so sqrt(p) amplitudes form a unit vector.
    points = tuple(
        SupportPoint(x=x, y_index=yi, y=float(y_values[yi]), p=p / total) for x, yi, p in support
    )

    ids = [hid for hid, _ in hypotheses]
    if len(set(ids)) != len(ids):
        raise ValidationError("hypotheses[*].id: ids must be distinct")
    hyps = []
    for j, (hid, table) in enumerate(hypotheses):
        if len(table) != x_size:
            raise ValidationError(f"hypotheses[{j}].table: length {len(table)} != x_size {x_size}")
        if not all(math.isfinite(v) for v in table):
            raise ValidationError(f"hypotheses[{j}].table: non-finite value")
        hyps.append(Hypothesis(id=str(hid), table=tuple(float(v) for v in table)))

    if loss.kind not in LOSS_KINDS:
        raise ValidationError(f"loss.kind: unknown kind {loss.kind!r}")
    if loss.bound <= 0 or not math.isfinite(loss.bound):
        raise ValidationError(f"loss.bound: must be a positive finite real, got {loss.bound}")
    if loss.kind == "table" and loss.table is None:
        raise ValidationError("loss.table: required for kind 'table'")

    inst = ProblemInstance(
        x_size=x_size,
        y_values=tuple(float(y) for y in y_values),
        k=k,
        support=points,
        hypotheses=tuple(hyps),
        loss=loss,
    )
    outside = ~((inst.losses >= 0.0) & (inst.losses <= inst.loss.bound))  # NaN lands outside
    if outside.any():
        i, j = np.argwhere(outside)[0]
        f, z = inst.hypotheses[i], inst.support[j]
        raise ValidationError(
            f"loss: value {float(inst.losses[i, j])} for (hypothesis={f.id!r}, x={z.x}, "
            f"y_index={z.y_index}) outside [0, {inst.loss.bound}]"
        )
    return inst


def _loss_from_json(obj: dict) -> LossSpec:
    kind = obj.get("kind")
    table = obj.get("table")
    if table is not None:
        table = {str(hid): tuple(tuple(float(v) for v in row) for row in rows) for hid, rows in table.items()}
    return LossSpec(kind=kind, bound=float(obj.get("bound", 0.0)), table=table)


def load_instance(path: str | Path) -> ProblemInstance:
    """Load and validate an instance from its JSON file format."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"{path}: not valid JSON ({e})") from None
    try:
        return make_instance(
            x_size=int(obj["x_size"]),
            y_values=[float(v) for v in obj["y_values"]],
            k=int(obj["k"]),
            support=[(int(s["x"]), int(s["y"]), float(s["p"])) for s in obj["support"]],
            hypotheses=[(h["id"], [float(v) for v in h["table"]]) for h in obj["hypotheses"]],
            loss=_loss_from_json(obj["loss"]),
        )
    except KeyError as e:
        raise ValidationError(f"missing field {e.args[0]!r}") from None


def save_instance(inst: ProblemInstance, path: str | Path) -> None:
    """Write an instance back to its JSON file format."""
    loss_obj: dict = {"kind": inst.loss.kind, "bound": inst.loss.bound}
    if inst.loss.table is not None:
        loss_obj["table"] = {h: [list(r) for r in rows] for h, rows in inst.loss.table.items()}
    obj = {
        "x_size": inst.x_size,
        "y_values": list(inst.y_values),
        "k": inst.k,
        "support": [{"x": z.x, "y": z.y_index, "p": z.p} for z in inst.support],
        "hypotheses": [{"id": f.id, "table": list(f.table)} for f in inst.hypotheses],
        "loss": loss_obj,
    }
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def random_instance(
    seed: int,
    x_size: int,
    y_size: int,
    h_size: int,
    loss_kind: str = "zero_one",
) -> ProblemInstance:
    """Deterministic random instance over the full (x, y) grid.

    zero_one instances draw y values and tables from a shared integer
    codomain so mismatches occur; squared instances use values in [-1, 1]
    and set the bound to the exact maximum entry of their loss matrix.
    """
    if min(x_size, y_size, h_size) < 1:
        raise ValidationError("random_instance: x_size, y_size, h_size must be >= 1")
    rng = np.random.default_rng(seed)
    n = x_size * y_size
    probs = rng.uniform(0.05, 1.0, n)
    probs = probs / probs.sum()
    support = [(x, yi, float(probs[x * y_size + yi])) for x in range(x_size) for yi in range(y_size)]
    k = max(1, math.ceil(math.log2(n)))

    if loss_kind == "zero_one":
        y_values = [float(i) for i in range(y_size)]
        hyps = [
            (f"h{j}", [float(rng.integers(0, y_size)) for _ in range(x_size)])
            for j in range(h_size)
        ]
        return make_instance(x_size, y_values, k, support, hyps, LossSpec(kind="zero_one", bound=1.0))
    if loss_kind != "squared":
        raise ValidationError(f"random_instance: unsupported loss kind {loss_kind!r}")
    y_values = sorted(float(v) for v in rng.uniform(-1.0, 1.0, y_size))
    hyps = [(f"h{j}", [float(v) for v in rng.uniform(-1.0, 1.0, x_size)]) for j in range(h_size)]
    # |f(x) - y| <= 2 bounds every loss; the bound is then the largest entry
    # of the instance's own loss matrix.
    inst = make_instance(x_size, y_values, k, support, hyps, LossSpec(kind="squared", bound=4.0))
    worst = float(inst.losses.max())
    return replace(inst, loss=LossSpec(kind="squared", bound=worst if worst > 0 else 1.0))


def demo_instance() -> ProblemInstance:
    """The small two-feature instance used throughout the docs and checks."""
    return make_instance(
        x_size=2,
        y_values=[0.0, 1.0],
        k=2,
        support=[(0, 0, 0.3), (0, 1, 0.2), (1, 0, 0.1), (1, 1, 0.4)],
        hypotheses=[
            ("identity", [0.0, 1.0]),
            ("flip", [1.0, 0.0]),
            ("const0", [0.0, 0.0]),
            ("const1", [1.0, 1.0]),
        ],
        loss=LossSpec(kind="zero_one", bound=1.0),
    )
