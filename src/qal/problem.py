"""Finite learning problems with exactly computable ground truth.

A problem instance is a discrete joint distribution over (x, y) pairs, a
finite class of hypothesis tables, and a bounded loss. Every quantity the
rest of the package estimates (risks, the regression function, the noise
variance) is a finite sum here, so it can be computed exactly and used as
an oracle.

The support is three arrays: support code j is the pair (x[j], y_index[j])
with mass probabilities[j], and the quantum data register indexes basis
states by that code. Each instance builds its loss matrix (hypotheses by
support codes) with one array expression per loss kind, and its exact
risks, once on construction; every risk, loss rotation and ERM reads them.

Every ProblemInstance is valid, dataclasses.replace included: its
constructor checks every rule and raises ValidationError on a broken one.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain
from numbers import Integral, Real
from pathlib import Path

import numpy as np

PROB_SUM_TOL = 1e-12

LOSS_KINDS = ("zero_one", "squared", "table")

# Loss-matrix entries (hypotheses x support points) an instance may hold.
MAX_LOSS_ENTRIES = 2**22


class ValidationError(ValueError):
    """An instance or loss specification violates its contract.

    Messages start with the offending field path, e.g. "support[*].p: ...".
    """


@dataclass(frozen=True)
class Hypothesis:
    """A candidate predictor given as a total table over x codes."""

    id: str
    table: tuple[float, ...]


@dataclass(frozen=True)
class LossSpec:
    """Bounded nonnegative loss.

    kind "zero_one" is the exact-mismatch indicator, "squared" is
    (f(x) - y)^2, "table" looks values up per (hypothesis id, x, y_index):
    table[id] holds x_size rows of len(y_values) numbers.
    """

    kind: str
    bound: float
    table: dict[str, tuple[tuple[float, ...], ...]] | None = None


# The built-in types come first: they match JSON values without the slower abstract-class check.
# "sequence", "Hypothesis" and "LossSpec" are the kinds of the constructor's container fields.
_KINDS = {"object": dict, "array": list, "string": str, "integer": (int, Integral), "number": (float, int, Real),
          "sequence": (tuple, list, np.ndarray), "Hypothesis": Hypothesis, "LossSpec": LossSpec}


def expect(value, schema, path: str):
    """value checked against schema; a ValidationError names path, or the path of the part at fault.

    A schema is a kind, [item] for an array of items, {key: schema} for an
    object of exactly those keys, or {"*": schema} for an object with any
    keys. A key written "key?" is optional, and an optional key set to null
    counts as absent. A kind is one of _KINDS: "integer" is any Integral
    and "number" any Real, but a boolean is neither. A number is returned as
    a float, an array as a tuple, and an object as a dict of its present keys.
    """
    if isinstance(schema, str):
        if isinstance(value, bool) or not isinstance(value, _KINDS[schema]):
            raise ValidationError(f"{path}: expected {schema}, got {value!r:.60}")
        if schema != "number":
            return value
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{path}: {value!r:.60} is too large for a float") from None
    if isinstance(schema, list):
        return tuple([expect(v, schema[0], f"{path}[{i}]") for i, v in enumerate(expect(value, "array", path))])
    obj, prefix = expect(value, "object", path), f"{path}." if path else ""
    if "*" in schema:
        return {key: expect(v, schema["*"], f"{prefix}{key}") for key, v in obj.items()}
    checked = {}
    for declared, item in schema.items():
        key = declared.removesuffix("?")
        if obj.get(key) is not None or (key == declared and key in obj):
            checked[key] = expect(obj[key], item, prefix + key)
        elif key == declared:
            raise ValidationError(f"{prefix}{key}: missing field")
    if len(checked) < len(obj):  # an unknown key, or a null optional one
        for key in obj:
            if key not in checked and f"{key}?" not in schema:
                raise ValidationError(f"{prefix}{key}: unknown field")
    return checked


def _all_of(items, kind: str) -> bool:
    """Whether expect accepts every item as kind: a scan per type, not per item."""
    types = {items.dtype.type} if isinstance(items, np.ndarray) and items.dtype != object else set(map(type, items))
    return all(t is not bool and issubclass(t, _KINDS[kind]) for t in types)


def _checked_items(raw, kind: str, path: str):
    """raw, if expect accepts every entry as kind; else its ValidationError, naming path.format(j) for entry j."""
    if not _all_of(raw, kind):
        for j, v in enumerate(raw):
            expect(v, kind, path.format(j))
    return raw


def _checked_tables(tables: list, paths):
    """tables, if every entry of each is a number; else ValidationError naming the path of the first bad table."""
    if not _all_of(chain.from_iterable(tables), "number"):  # one scan over all entries
        for table, path in zip(tables, paths):
            for v in table:
                expect(v, "number", path)
    return tables


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Joint distribution, hypothesis class, and loss, all finite.

    Construction (dataclasses.replace included) copies and freezes the
    support arrays, stores y_values and hypotheses as tuples, and raises
    ValidationError on any broken rule.
    Instances compare by value and are unhashable.
    """

    x_size: int
    y_values: tuple[float, ...]
    k: int
    x: np.ndarray
    y_index: np.ndarray
    probabilities: np.ndarray
    hypotheses: tuple[Hypothesis, ...]
    loss: LossSpec
    # Derived from the fields above on construction (and by
    # dataclasses.replace): losses[i, j] is the loss of hypotheses[i] at
    # support code j on the original scale, risks[i] sums p_j * losses[i, j]
    # left to right over the support, distinct_row[i] is the index of
    # losses[i] among the distinct loss rows, and ids[i] is hypotheses[i].id.
    ids: tuple[str, ...] = field(init=False, repr=False)
    losses: np.ndarray = field(init=False, repr=False)
    risks: np.ndarray = field(init=False, repr=False)
    distinct_row: np.ndarray = field(init=False, repr=False)
    _rows: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("x_size", "k"):
            if expect(getattr(self, name), "integer", name) < 1:
                raise ValidationError(f"{name}: must be >= 1, got {getattr(self, name)}")
        x, y_index, p = np.array(self.x), np.array(self.y_index), np.array(self.probabilities)
        if x.ndim != 1 or not x.shape == y_index.shape == p.shape:
            shapes = f"{x.shape}, {y_index.shape} and {p.shape}"
            raise ValidationError(f"support: x, y_index and probabilities must be 1-D of one length, got {shapes}")
        _checked_items(self.probabilities, "number", "support[{}].p")
        for name, codes in (("x", self.x), ("y", self.y_index)):
            _checked_items(codes, "integer", f"support[{{}}].{name}")
        p = p.astype(float, copy=False)
        n = len(x)
        for name, items in (("support", x), ("hypotheses", self.hypotheses), ("y_values", self.y_values)):
            if not len(expect(items, "sequence", name)):
                raise ValidationError(f"{name}: must be nonempty")
        for name in ("y_values", "hypotheses"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.k < (n - 1).bit_length():  # 2^k < len(support), without forming 2^k
            raise ValidationError(f"k: 2^{self.k} = {2**self.k} cannot hold {n} coded support points")
        if (entries := len(self.hypotheses) * n) > MAX_LOSS_ENTRIES:
            raise ValidationError(f"hypotheses: {entries} loss-matrix entries exceed the cap of {MAX_LOSS_ENTRIES}")
        if (bad := np.flatnonzero(~(np.isfinite(p) & (p >= 0.0)))).size:
            raise ValidationError(f"support[{bad[0]}].p: must be a finite nonnegative probability, got {p[bad[0]]}")
        if abs((total := float(np.cumsum(p)[-1])) - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"support[*].p: probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}")
        _checked_items(self.hypotheses, "Hypothesis", "hypotheses[{}]")
        _checked_items([f.id for f in self.hypotheses], "string", "hypotheses[{}].id")
        rows = {f.id: i for i, f in enumerate(self.hypotheses)}
        if len(rows) != len(self.hypotheses):
            raise ValidationError("hypotheses[*].id: ids must be distinct")
        tables = _checked_items([f.table for f in self.hypotheses], "sequence", "hypotheses[{}].table")
        for j, table in enumerate(tables):
            if len(table) != self.x_size:
                raise ValidationError(f"hypotheses[{j}].table: length {len(table)} != x_size {self.x_size}")
        tables = np.array(_checked_tables(tables, (f"hypotheses[{j}].table" for j in range(len(tables)))), dtype=float)
        if (bad := np.flatnonzero(~np.isfinite(tables).all(axis=1))).size:
            raise ValidationError(f"hypotheses[{bad[0]}].table: non-finite value")
        loss = expect(self.loss, "LossSpec", "loss")
        if loss.kind not in LOSS_KINDS:
            raise ValidationError(f"loss.kind: unknown kind {loss.kind!r}")
        if expect(loss.bound, "number", "loss.bound") <= 0 or not math.isfinite(loss.bound):
            raise ValidationError(f"loss.bound: must be a positive finite real, got {loss.bound}")
        if loss.kind == "table" and loss.table is None:
            raise ValidationError("loss.table: required for kind 'table'")
        if not all(math.isfinite(y) for y in _checked_items(self.y_values, "number", "y_values[{}]")):
            raise ValidationError("y_values: non-finite value")
        for name, codes, size in (("x", x, self.x_size), ("y", y_index, len(self.y_values))):
            if (bad := np.flatnonzero((codes < 0) | (codes >= size))).size:
                raise ValidationError(f"support[{bad[0]}].{name}: {codes[bad[0]]} outside 0..{size - 1}")
        x, y_index = x.astype(np.intp, copy=False), y_index.astype(np.intp, copy=False)
        first = np.unique(x * len(self.y_values) + y_index, return_index=True)[1]  # each pair's first code
        if len(first) < n:
            j = np.setdiff1d(np.arange(n), first)[0]
            raise ValidationError(f"support[{j}]: duplicate pair (x={x[j]}, y={y_index[j]})")
        if loss.kind == "table":
            grids, by_id = [], expect(loss.table, "object", "loss.table")
            paths = [f"loss.table[{f.id!r}]" for f in self.hypotheses]
            for f, path in zip(self.hypotheses, paths):
                grid = by_id.get(f.id)
                if grid is None:
                    raise ValidationError(f"loss.table: no entry for hypothesis {f.id!r}")
                lengths = [len(expect(row, "sequence", path)) for row in expect(grid, "sequence", path)]
                if lengths != [len(self.y_values)] * self.x_size:
                    raise ValidationError(f"{path}: must be x_size rows of len(y_values) numbers")
                grids.append(grid)
            if unknown := [key for key in by_id if key not in rows]:
                raise ValidationError(f"loss.table[{unknown[0]!r}]: names no hypothesis of the class")
            _checked_tables([tuple(chain.from_iterable(grid)) for grid in grids], paths)
            losses = np.array(grids, dtype=float)[:, x, y_index]
        else:
            y = np.array(self.y_values, dtype=float)[y_index]
            losses = (tables[:, x] != y).astype(float) if loss.kind == "zero_one" else (tables[:, x] - y) ** 2
        outside = ~((losses >= 0.0) & (losses <= loss.bound))  # NaN lands outside
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValidationError(
                f"loss: value {float(losses[i, j])} for (hypothesis={self.hypotheses[i].id!r}, x={x[j]}, "
                f"y_index={y_index[j]}) outside [0, {loss.bound}]"
            )
        weighted = losses * p
        risks = np.cumsum(weighted, axis=1, out=weighted)[:, -1] + 0.0  # an all -0.0 row sums to +0.0 from 0.0
        # Each loss row is sorted as one byte string (adding 0.0 folds -0.0
        # into 0.0, so equal rows have equal bytes): np.unique(losses, axis=0)
        # compares rows value by value and takes seconds at the cap.
        keys = np.ascontiguousarray(losses + 0.0).view(f"V{losses.itemsize * n}")[:, 0]
        distinct_row = np.unique(keys, return_inverse=True)[1]
        frozen = dict(
            x=x, y_index=y_index, probabilities=p, losses=losses, risks=risks, distinct_row=distinct_row
        )
        for name, a in frozen.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "ids", tuple(rows))
        object.__setattr__(self, "_rows", rows)

    def __eq__(self, other):
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.init)
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def row(self, f: Hypothesis | str) -> int:
        """Row of f in `losses` and `risks`; f is a class member, by id or object."""
        hyp_id = f if isinstance(f, str) else f.id
        i = self._rows.get(hyp_id)
        if i is None:
            raise ValidationError(f"hypotheses: unknown hypothesis id {hyp_id!r}")
        if not isinstance(f, str) and self.hypotheses[i] is not f and self.hypotheses[i] != f:
            raise ValidationError(f"hypotheses: hypothesis {f.id!r} is not part of the instance")
        return i

    def hypothesis(self, f: Hypothesis | str) -> Hypothesis:
        """The class member f names, by id or object."""
        return self.hypotheses[self.row(f)]


@dataclass(frozen=True)
class ExactStatistics:
    """Exact risks by hypothesis id, and the id of their minimizer."""

    risks: dict[str, float]
    best_id: str


def exact_risk(inst: ProblemInstance, f: Hypothesis | str) -> float:
    """Expected loss of class member f under the instance distribution (exact finite sum)."""
    return float(inst.risks[inst.row(f)])


def best_hypothesis(inst: ProblemInstance) -> str:
    """Id of the exact-risk minimizer; ties broken by lowest list index."""
    return inst.ids[int(np.argmin(inst.risks))]


def regression_and_variance(inst: ProblemInstance) -> tuple[dict[int, float], float]:
    """Conditional mean of y given x, and the expected conditional variance.

    x codes with zero marginal mass are omitted from the map: the
    conditional mean is undefined there.
    """
    x, p = inst.x, inst.probabilities
    y = np.array(inst.y_values)[inst.y_index]
    marginal = np.bincount(x, p)  # each x code's masses added left to right over the support
    seen = marginal > 0.0
    mean = np.divide(np.bincount(x, p * y), marginal, out=np.zeros_like(marginal), where=seen)
    variance = np.cumsum(p * (y - mean[x]) ** 2)[-1]  # a zero-mass x code's points add 0.0
    return dict(zip(np.flatnonzero(seen).tolist(), mean[seen].tolist())), float(variance)


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
    seen = np.fromiter(regression, dtype=np.intp)
    mean = np.fromiter(regression.values(), dtype=float)
    marginal = np.bincount(inst.x, inst.probabilities)[seen]
    bias = np.cumsum(marginal * (np.array(f.table)[seen] - mean) ** 2)[-1]
    return lhs, float(bias + noise)


def exact_statistics(inst: ProblemInstance) -> ExactStatistics:
    """The exact risks keyed by hypothesis id, with the best hypothesis."""
    risks = dict(zip(inst.ids, inst.risks.tolist()))
    return ExactStatistics(risks, best_hypothesis(inst))


def _renormalized(p: np.ndarray) -> np.ndarray:
    """p over its left-to-right sum, so sqrt(p) is a unit vector; a sum off 1 by more than PROB_SUM_TOL is kept."""
    total = np.cumsum(p)[-1] if len(p) else math.nan
    return p / total if abs(total - 1.0) <= PROB_SUM_TOL else p


# The JSON formats of an instance file and of a random instance's arguments, as expect schemas.
INSTANCE_JSON = {
    "x_size": "integer",
    "y_values": ["number"],
    "k": "integer",
    "support": [{"x": "integer", "y": "integer", "p": "number"}],
    "hypotheses": [{"id": "string", "table": ["number"]}],
    "loss": {"kind": "string", "bound": "number", "table?": {"*": [["number"]]}},
}
RANDOM_JSON = {"seed": "integer", "x_size": "integer", "y_size": "integer", "h_size": "integer", "loss_kind?": "string"}


def read_json(path: str | Path, schema: dict) -> dict:
    """The JSON object in the file at path, checked against schema by expect; anything else is a ValidationError."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as e:  # bad JSON, bad UTF-8, an integer too long, or nesting too deep
            raise ValidationError(f"{path}: not valid JSON ({e})") from None
    return expect(expect(obj, "object", str(path)), schema, "")


def load_instance(path: str | Path) -> ProblemInstance:
    """Load and validate an instance from a file in the INSTANCE_JSON format.

    JSON of the wrong shape raises ValidationError naming the field.
    """
    obj = read_json(path, INSTANCE_JSON)
    return ProblemInstance(
        x_size=obj["x_size"],
        y_values=obj["y_values"],
        k=obj["k"],
        x=[z["x"] for z in obj["support"]],
        y_index=[z["y"] for z in obj["support"]],
        probabilities=_renormalized(np.array([z["p"] for z in obj["support"]])),
        hypotheses=[Hypothesis(h["id"], h["table"]) for h in obj["hypotheses"]],
        loss=LossSpec(**obj["loss"]),
    )


def check_random_spec(spec: dict, path: str) -> None:
    """Check random_instance's arguments as a RANDOM_JSON object; a ValidationError names path.key, or path for the cap.

    seed is an integer >= 0; x_size, y_size and h_size are integers >= 1
    whose product is at most MAX_LOSS_ENTRIES; loss_kind, when given, is
    zero_one or squared.
    """
    spec = expect(spec, RANDOM_JSON, path)
    for key, least in (("seed", 0), ("x_size", 1), ("y_size", 1), ("h_size", 1)):
        if spec[key] < least:
            raise ValidationError(f"{path}.{key}: must be >= {least}, got {spec[key]}")
    if (entries := spec["h_size"] * spec["x_size"] * spec["y_size"]) > MAX_LOSS_ENTRIES:
        raise ValidationError(f"{path}: {entries} loss-matrix entries exceed the cap of {MAX_LOSS_ENTRIES}")
    if (kind := spec.get("loss_kind", "zero_one")) not in ("zero_one", "squared"):
        raise ValidationError(f"{path}.loss_kind: must be one of ('zero_one', 'squared'), got {kind!r}")


def random_instance(
    seed: int,
    x_size: int,
    y_size: int,
    h_size: int,
    loss_kind: str = "zero_one",
) -> ProblemInstance:
    """Deterministic random instance over the full (x, y) grid.

    zero_one instances draw y values and tables from a shared integer codomain
    so mismatches occur; the tables are one (h_size, x_size) integers draw,
    which uses the same stream words as a draw per entry. squared instances
    use values in [-1, 1] and set the bound to their loss matrix's exact maximum.
    """
    spec = dict(seed=seed, x_size=x_size, y_size=y_size, h_size=h_size, loss_kind=loss_kind)
    check_random_spec(spec, "random_instance")
    rng = np.random.default_rng(seed)
    n = x_size * y_size
    probs = rng.uniform(0.05, 1.0, n)
    probs = _renormalized(probs / probs.sum())  # made exact: that sum is within PROB_SUM_TOL of 1
    k = max(1, math.ceil(math.log2(n)))

    if loss_kind == "squared":
        y_values = sorted(float(v) for v in rng.uniform(-1.0, 1.0, y_size))
        tables = rng.uniform(-1.0, 1.0, (h_size, x_size))
        # The bound is the largest loss on the full (x, y) grid, which is the support.
        worst = float(((tables[:, :, None] - np.array(y_values)) ** 2).max())
        loss = LossSpec("squared", worst if worst > 0 else 1.0)
    else:  # zero_one, or None for the default
        y_values = [float(i) for i in range(y_size)]
        tables = rng.integers(0, y_size, (h_size, x_size))
        loss = LossSpec("zero_one", 1.0)
    hypotheses = tuple(Hypothesis(f"h{j}", tuple(t)) for j, t in enumerate(tables.astype(float).tolist()))
    x, y_index = np.divmod(np.arange(n), y_size)
    return ProblemInstance(x_size, tuple(y_values), k, x, y_index, probs, hypotheses, loss)


def demo_instance() -> ProblemInstance:
    """The small two-feature instance used throughout the docs and checks."""
    return ProblemInstance(
        x_size=2,
        y_values=(0.0, 1.0),
        k=2,
        x=(0, 0, 1, 1),
        y_index=(0, 1, 0, 1),
        probabilities=(0.3, 0.2, 0.1, 0.4),
        hypotheses=(
            Hypothesis("identity", (0.0, 1.0)),
            Hypothesis("flip", (1.0, 0.0)),
            Hypothesis("const0", (0.0, 0.0)),
            Hypothesis("const1", (1.0, 1.0)),
        ),
        loss=LossSpec("zero_one", 1.0),
    )
