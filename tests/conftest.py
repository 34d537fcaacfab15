import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from qal.problem import Hypothesis, LossSpec, ProblemInstance, demo_instance, load_instance  # noqa: E402


def table_loss_instance(probs, values_by_hyp, bound):
    """Two-x/two-y instance with explicit per-hypothesis loss tables.

    values_by_hyp maps hypothesis id to a 2x2 nested list indexed (x, y).
    """
    hyp_ids = sorted(values_by_hyp)
    return ProblemInstance(
        x_size=2,
        y_values=(0.0, 1.0),
        k=2,
        x=(0, 0, 1, 1),
        y_index=(0, 1, 0, 1),
        probabilities=probs,
        hypotheses=tuple(Hypothesis(h, (0.0, 0.0)) for h in hyp_ids),
        loss=LossSpec(
            kind="table",
            bound=bound,
            table={h: tuple(tuple(float(v) for v in row) for row in values_by_hyp[h]) for h in hyp_ids},
        ),
    )


def constant_loss_instance(value, probs=(0.5, 0.5)):
    """Two-point instance whose rescaled loss is `value` everywhere."""
    return ProblemInstance(
        x_size=2,
        y_values=(0.0,),
        k=1,
        x=(0, 1),
        y_index=(0, 0),
        probabilities=probs,
        hypotheses=(Hypothesis("f", (0.0, 0.0)),),
        loss=LossSpec("table", 1.0, table={"f": ((value,), (value,))}),
    )


def half_amplitude_instance():
    """Uniform two-point support with losses (0, 1): amplitude exactly 1/2."""
    return ProblemInstance(
        x_size=2,
        y_values=(0.0,),
        k=1,
        x=(0, 1),
        y_index=(0, 0),
        probabilities=(0.5, 0.5),
        hypotheses=(Hypothesis("f", (0.0, 0.0)),),
        loss=LossSpec("table", 1.0, table={"f": ((0.0,), (1.0,))}),
    )


def constant_risk_class(risks, probs=(0.3, 0.2, 0.1, 0.4)):
    """Instance whose hypotheses have the given exact risks (unit bound)."""
    values = {hid: [[v, v], [v, v]] for hid, v in risks.items()}
    return table_loss_instance(probs, values, bound=1.0)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def mutate_json(data, obj, value):
    """Replace one node of obj, up to three levels deep, with value, or drop one key.

    data is Hypothesis's st.data(); obj is changed in place and returned.
    """
    parent, key, node = None, None, obj
    for _ in range(data.draw(st.integers(0, 3))):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
        if not isinstance(node, (dict, list)):
            break
    if parent is None:
        return value
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = value
    return obj


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def demo2():
    return demo_instance()


@pytest.fixture(scope="session")
def separation_instance(repo_root):
    return load_instance(repo_root / "instances" / "separation.json")
