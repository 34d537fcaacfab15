"""Experiment harness: learning trials over (method, epsilon, delta) grids.

One CSV row per trial. Success is judged against exact risks, which the
finite model makes computable, so the success column can be recomputed
from the instance file and the chosen hypothesis alone. Per-trial seeds
derive from (base seed, cell index, trial index), making output byte
identical across runs of the same config.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from .classical import erm_learn, hoeffding_sample_size
from .engine import CapacityError
from .estimator import check_engine, schedule
from .learner import allocate_budget, learn
from .problem import (
    RANDOM_JSON,
    ProblemInstance,
    ValidationError,
    _checked_items,
    check_random_spec,
    exact_statistics,
    expect,
    load_instance,
    random_instance,
    read_json,
)

METHODS = ("quantum", "classical")

# The JSON format of a bench config, as an expect schema; "instance" is an instance file's path.
CONFIG_JSON = {
    "instance?": "string",
    "random?": RANDOM_JSON,
    "epsilons": ["number"],
    "deltas": ["number"],
    "trials": "integer",
    "base_seed": "integer",
    "methods?": ["string"],
    "engine?": "string",
}


@dataclass(frozen=True)
class BenchConfig:
    """One grid run. Exactly one of instance_path / random_spec is set.

    Every field is checked on construction, so a bad grid is rejected
    before any cell runs. random_spec holds random_instance's arguments.
    """

    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]
    trials: int
    base_seed: int
    methods: tuple[str, ...] = METHODS
    engine: str = "analytic"
    instance_path: str | None = None
    random_spec: dict | None = None

    def __post_init__(self):
        for name, grid in (("epsilons", self.epsilons), ("deltas", self.deltas)):
            for i, value in enumerate(_checked_items(tuple(expect(grid, "sequence", name)), "number", name + "[{}]")):
                if not 0.0 < value < 1.0:
                    raise ValidationError(f"{name}[{i}]: must lie in (0, 1), got {value}")
        if not len(self.epsilons) or not len(self.deltas):
            raise ValidationError("epsilons/deltas: grids must be nonempty")
        for name, least in (("trials", 1), ("base_seed", 0)):
            if expect(getattr(self, name), "integer", name) < least:
                raise ValidationError(f"{name}: must be >= {least}, got {getattr(self, name)}")
        if not len(expect(self.methods, "sequence", "methods")) or any(m not in METHODS for m in self.methods):
            raise ValidationError(f"methods: must be a nonempty subset of {METHODS}, got {self.methods}")
        check_engine(self.engine)
        if (self.instance_path is None) == (self.random_spec is None):
            raise ValidationError("config: exactly one of 'instance' and 'random' must be given")
        if self.instance_path is not None:
            expect(self.instance_path, "string", "instance_path")
        else:
            check_random_spec(self.random_spec, "random")


@dataclass(frozen=True)
class BenchRow:
    instance_id: str
    method: str
    epsilon: float
    delta: float
    trial: int
    samples_used: int
    success: int
    risk_gap: float
    reason: str = ""

    def render(self) -> str:
        """The CSV line, in CSV_HEADER's column order; floats print round-trip exact."""
        return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in vars(self).values())


CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


def load_bench_config(path: str | Path) -> BenchConfig:
    """Load a grid config in the CONFIG_JSON format; wrong-shaped JSON raises ValidationError naming the field."""
    obj = read_json(path, CONFIG_JSON)
    return BenchConfig(instance_path=obj.pop("instance", None), random_spec=obj.pop("random", None), **obj)


def resolve_instance(config: BenchConfig) -> tuple[str, ProblemInstance]:
    if config.instance_path is not None:
        return Path(config.instance_path).stem, load_instance(config.instance_path)
    return f"random-{config.random_spec['seed']}", random_instance(**config.random_spec)


def _cell_reasons(config: BenchConfig, inst: ProblemInstance) -> list[str]:
    """Why each grid cell, in (method, epsilon, delta) order, writes no result.

    Applies the learners' own rules: the classical Hoeffding count, and
    the quantum schedule at the per-hypothesis budget. A cell the learner
    would refuse rejects the grid with a ValidationError; the rule's
    message starts with the parameter at fault, which names the grid
    entry. A quantum cell over the qubit cap gets the CapacityError's
    message as its reason; every other cell gets "".
    """
    h_size, bound = len(inst.hypotheses), inst.loss.bound
    reasons = []
    grid = product(config.methods, enumerate(config.epsilons), enumerate(config.deltas))
    for method, (i, epsilon), (j, delta) in grid:
        reason = ""
        try:
            if method == "classical":
                hoeffding_sample_size(bound, h_size, epsilon, delta)
            else:
                schedule(inst, *allocate_budget(h_size, epsilon, delta))
        except CapacityError as e:
            reason = str(e)
        except ValueError as e:
            name = f"deltas[{j}]" if str(e).startswith("delta") else f"epsilons[{i}]"
            raise ValidationError(f"{name}: {method} cell rejected: {e}") from None
        reasons.append(reason)
    return reasons


def _trial_rng(base_seed: int, cell_index: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base_seed, cell_index, trial]))


def run_bench(config: BenchConfig, out_path: str | Path) -> list[BenchRow]:
    """Run every grid cell, write the CSV, and return the rows.

    Every cell is checked against the instance, and the output file is
    opened, before the first cell runs. A cell over the qubit cap writes
    one row per trial with its reason and runs no learner. Cells run in
    deterministic (method, epsilon, delta) order and each row is written
    as its trial ends, so the output depends on the config alone.
    """
    instance_id, inst = resolve_instance(config)
    reasons = _cell_reasons(config, inst)
    stats = exact_statistics(inst)
    best_risk = stats.risks[stats.best_id]
    rows: list[BenchRow] = []
    cells = product(config.methods, config.epsilons, config.deltas)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for cell_index, ((method, epsilon, delta), reason) in enumerate(zip(cells, reasons)):
            for trial in range(config.trials):
                if reason:
                    row = BenchRow(instance_id, method, epsilon, delta, trial, 0, 0, float("nan"), reason)
                else:
                    rng = _trial_rng(config.base_seed, cell_index, trial)
                    if method == "quantum":
                        result = learn(inst, epsilon, delta, rng=rng, engine=config.engine)
                        chosen, samples = result.chosen_id, result.total_quantum_samples
                    else:
                        result = erm_learn(inst, epsilon, delta, rng=rng)
                        chosen, samples = result.chosen_id, result.samples_used
                    gap = stats.risks[chosen] - best_risk
                    row = BenchRow(instance_id, method, epsilon, delta, trial, samples, int(gap <= epsilon), gap)
                fh.write(row.render() + "\n")
                rows.append(row)
    return rows


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(samples) against log(epsilon)."""
    if len(points) < 3:
        raise ValueError(f"slope fit needs at least 3 points, got {len(points)}")
    eps = np.array([p[0] for p in points], dtype=float)
    samples = np.array([p[1] for p in points], dtype=float)
    if np.any(eps <= 0) or np.any(samples <= 0):
        raise ValueError("slope fit needs strictly positive coordinates")
    if np.all(eps == eps[0]):
        raise ValueError("slope fit is degenerate: all epsilon values are equal")
    return float(np.polyfit(np.log(eps), np.log(samples), 1)[0])


def mean_samples_by_epsilon(rows: list[BenchRow], method: str) -> list[tuple[float, float]]:
    """Aggregate (epsilon, mean samples_used) for one method, skipping failed rows."""
    by_eps: dict[float, list[int]] = {}
    for row in rows:
        if row.method == method and not row.reason:
            by_eps.setdefault(row.epsilon, []).append(row.samples_used)
    return [(eps, float(np.mean(v))) for eps, v in sorted(by_eps.items())]
