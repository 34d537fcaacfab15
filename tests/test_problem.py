"""Problem-model tests: losses, exact risks, decomposition, loading."""
import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qal.problem import (
    MAX_LOSS_ENTRIES,
    Hypothesis,
    LossSpec,
    ProblemInstance,
    ValidationError,
    best_hypothesis,
    demo_instance,
    exact_risk,
    exact_statistics,
    load_instance,
    random_instance,
    regression_and_variance,
    squared_risk_decomposition,
)
from qal.cli import main

from conftest import constant_loss_instance, json_values, mutate_json, table_loss_instance


def support_points(inst):
    """The support as (x, y_index, p) triples of Python scalars, by code."""
    return list(zip(inst.x.tolist(), inst.y_index.tolist(), inst.probabilities.tolist()))


def scalar_loss(inst, f, x, y_index):
    """Independent oracle: the loss of f at the pair (x, y_index), one entry at a time."""
    y = inst.y_values[y_index]
    if inst.loss.kind == "zero_one":
        return 1.0 if f.table[x] != y else 0.0
    if inst.loss.kind == "squared":
        d = f.table[x] - y
        return d * d
    return inst.loss.table[f.id][x][y_index]


def brute_force_risk(inst, f):
    """Independent oracle: direct summation over the support."""
    return sum(p * scalar_loss(inst, f, x, yi) for x, yi, p in support_points(inst))


def random_table_instance(seed, x_size, y_size, h_size):
    """Random full-grid instance whose loss is a full random table."""
    base = random_instance(seed, x_size, y_size, h_size)
    rng = np.random.default_rng(seed)
    table = {f.id: tuple(map(tuple, rng.uniform(0.0, 1.0, (x_size, y_size)).tolist())) for f in base.hypotheses}
    return dataclasses.replace(base, loss=LossSpec("table", 1.0, table=table))


def one_point_instance(table, y_values, y_index, loss):
    """Instance with a single hypothesis f and all mass on (x=0, y_index)."""
    return ProblemInstance(len(table), y_values, 1, (0,), (y_index,), (1.0,), (Hypothesis("f", table),), loss)


class TestLossMatrix:
    def test_zero_one_match(self):
        inst = one_point_instance((0.0, 1.0), (0.0,), 0, LossSpec("zero_one", 1.0))
        assert inst.losses.tolist() == [[0.0]]

    def test_squared_unit_gap(self):
        inst = one_point_instance((0.0,), (0.0, 1.0), 1, LossSpec("squared", 1.0))
        assert inst.losses.tolist() == [[1.0]]

    def test_squared_half_gap(self):
        inst = one_point_instance((0.5,), (0.0, 1.0), 1, LossSpec("squared", 1.0))
        assert inst.losses.tolist() == [[0.25]]

    def test_table_missing_hypothesis(self):
        spec = LossSpec("table", 1.0, table={"g": ((0.5,),)})
        with pytest.raises(ValidationError, match="^loss.table: no entry for hypothesis 'f'"):
            one_point_instance((0.0,), (0.0,), 0, spec)

    def test_partial_table_rejected(self):
        # A table must define the loss on every (x, y) pair, even off the support.
        spec = LossSpec("table", 1.0, table={"f": ((0.5,),)})
        with pytest.raises(ValidationError, match=r"^loss\.table\['f'\]: must be x_size rows"):
            one_point_instance((0.0, 0.0), (0.0,), 0, spec)


class TestExactRisk:
    def test_demo2_identity_hypothesis(self, demo2):
        f = demo2.hypothesis("identity")
        oracle = brute_force_risk(demo2, f)
        assert oracle == pytest.approx(0.3, abs=1e-15)
        assert exact_risk(demo2, f) == pytest.approx(oracle, abs=1e-15)

    def test_zero_loss_gives_zero_risk(self):
        inst = table_loss_instance(
            (0.3, 0.2, 0.1, 0.4), {"f": [[0.0, 0.0], [0.0, 0.0]], "g": [[-0.0, -0.0], [-0.0, -0.0]]}, bound=1.0
        )
        assert exact_risk(inst, "f") == 0.0
        # A sum started at 0.0 is +0.0 even when every term is -0.0.
        assert inst.risks.tobytes() == np.zeros(2).tobytes()

    def test_point_mass_single_term(self):
        inst = one_point_instance((0.0,), (1.0,), 0, LossSpec("squared", 1.0))
        assert exact_risk(inst, "f") == 1.0

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["zero_one", "squared"])
    def test_risk_within_bound(self, seed, kind):
        inst = random_instance(seed, x_size=3, y_size=3, h_size=4, loss_kind=kind)
        for f in inst.hypotheses:
            r = exact_risk(inst, f)
            assert 0.0 <= r <= inst.loss.bound
            assert r == pytest.approx(brute_force_risk(inst, f), abs=1e-12)

    @pytest.mark.parametrize("kind", ["zero_one", "squared", "table"])
    def test_risks_are_left_to_right_sums_of_the_loss_matrix(self, kind):
        if kind == "table":
            inst = random_table_instance(5, x_size=4, y_size=4, h_size=6)
        else:
            inst = random_instance(5, x_size=4, y_size=4, h_size=6, loss_kind=kind)
        for i, f in enumerate(inst.hypotheses):
            total = 0.0
            for j, (x, yi, p) in enumerate(support_points(inst)):
                v = scalar_loss(inst, f, x, yi)
                assert inst.losses[i, j] == v
                total += p * v
            assert exact_risk(inst, f) == total

    def test_replace_recomputes_the_loss_matrix(self, demo2):
        flipped = dataclasses.replace(demo2, hypotheses=demo2.hypotheses[::-1])
        assert flipped.losses.tolist() == demo2.losses[::-1].tolist()
        assert exact_risk(flipped, "identity") == exact_risk(demo2, "identity")

    def test_non_member_hypothesis_rejected(self, demo2):
        impostor = Hypothesis("identity", (1.0, 1.0))
        with pytest.raises(ValidationError, match="not part of the instance"):
            exact_risk(demo2, impostor)
        with pytest.raises(ValidationError, match="not part of the instance"):
            demo2.row(impostor)
        with pytest.raises(ValidationError, match="unknown hypothesis"):
            exact_risk(demo2, Hypothesis("nope", (0.0, 1.0)))
        assert exact_risk(demo2, "identity") == exact_risk(demo2, demo2.hypothesis("identity"))
        # The member object itself and an equal copy of it are both the member.
        member = demo2.hypotheses[0]
        copy = Hypothesis(member.id, tuple(member.table))
        assert copy is not member and demo2.row(copy) == demo2.row(member) == 0


def with_twins(inst):
    """inst with every hypothesis repeated under a new id, so each loss row occurs at least twice."""
    twins = tuple(Hypothesis(f.id + "-twin", f.table) for f in inst.hypotheses)
    loss = inst.loss
    if loss.kind == "table":
        twin_tables = {t.id: loss.table[f.id] for f, t in zip(inst.hypotheses, twins)}
        loss = dataclasses.replace(loss, table={**loss.table, **twin_tables})
    return dataclasses.replace(inst, hypotheses=inst.hypotheses + twins, loss=loss)


class TestDistinctRowIndex:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["zero_one", "squared", "table"])
    def test_equal_index_exactly_when_loss_rows_are_equal(self, seed, kind):
        if kind == "table":
            inst = with_twins(random_table_instance(seed, x_size=2, y_size=2, h_size=5))
        else:
            inst = with_twins(random_instance(seed, x_size=2, y_size=2, h_size=5, loss_kind=kind))
        index, losses = inst.distinct_row.tolist(), inst.losses.tolist()
        assert sorted(set(index)) == list(range(len(set(map(tuple, losses)))))
        for i in range(len(index)):
            for j in range(len(index)):
                assert (index[i] == index[j]) == (losses[i] == losses[j])

    def test_replace_rebuilds_the_index(self, demo2):
        assert len(set(demo2.distinct_row.tolist())) == len(demo2.hypotheses)
        flipped = dataclasses.replace(demo2, hypotheses=demo2.hypotheses[::-1])
        assert flipped.distinct_row.tolist() == demo2.distinct_row[::-1].tolist()
        twinned = with_twins(demo2)
        assert twinned.distinct_row.tolist() == demo2.distinct_row.tolist() * 2
        with pytest.raises(ValueError, match="read-only"):
            twinned.distinct_row[0] = 1

    def test_signed_zeros_are_one_row(self):
        values = {"a": [[0.0, 0.5], [0.0, 0.0]], "b": [[-0.0, 0.5], [0.0, -0.0]], "c": [[0.5, 0.0], [0.0, 0.0]]}
        index = table_loss_instance((0.25,) * 4, values, bound=1.0).distinct_row.tolist()
        assert index[0] == index[1] != index[2]


class TestBestHypothesis:
    def test_strict_minimum(self, demo2):
        # risks: identity 0.3, flip 0.7, const0 0.6, const1 0.4
        assert best_hypothesis(demo2) == "identity"

    def test_tie_breaks_by_index(self):
        inst = table_loss_instance(
            (0.25, 0.25, 0.25, 0.25),
            {"a": [[0.3, 0.3], [0.3, 0.3]], "b": [[0.3, 0.3], [0.3, 0.3]]},
            bound=1.0,
        )
        assert best_hypothesis(inst) == "a"

    def test_singleton(self):
        inst = table_loss_instance((0.25, 0.25, 0.25, 0.25), {"only": [[0.5, 0.5], [0.5, 0.5]]}, 1.0)
        assert best_hypothesis(inst) == "only"

    @pytest.mark.parametrize("seed", range(6))
    def test_invariant_under_positive_loss_scaling(self, seed):
        rng = np.random.default_rng(seed)
        values = {f"h{i}": rng.uniform(0.0, 1.0, (2, 2)).tolist() for i in range(4)}
        base = table_loss_instance((0.3, 0.2, 0.1, 0.4), values, bound=1.0)
        c = float(rng.uniform(0.5, 10.0))
        scaled_values = {h: (np.array(v) * c).tolist() for h, v in values.items()}
        scaled = table_loss_instance((0.3, 0.2, 0.1, 0.4), scaled_values, bound=c)
        assert best_hypothesis(base) == best_hypothesis(scaled)


class TestRegressionAndVariance:
    def test_uniform_two_point_conditional(self):
        inst = ProblemInstance(
            x_size=1,
            y_values=(0.0, 1.0),
            k=1,
            x=(0, 0),
            y_index=(0, 1),
            probabilities=(0.5, 0.5),
            hypotheses=(Hypothesis("f", (0.0,)),),
            loss=LossSpec("zero_one", 1.0),
        )
        regression, variance = regression_and_variance(inst)
        assert regression == {0: 0.5}
        assert variance == pytest.approx(0.25, abs=1e-15)

    def test_demo2_values(self, demo2):
        # Oracle: conditional means 0.2/0.5 and 0.4/0.5; variance by direct sum.
        regression, variance = regression_and_variance(demo2)
        oracle_var = sum(
            p * (demo2.y_values[yi] - {0: 0.4, 1: 0.8}[x]) ** 2 for x, yi, p in support_points(demo2)
        )
        assert regression[0] == pytest.approx(0.4, abs=1e-15)
        assert regression[1] == pytest.approx(0.8, abs=1e-15)
        assert variance == pytest.approx(oracle_var, abs=1e-15)
        assert variance == pytest.approx(0.20, abs=1e-12)

    def test_deterministic_labels_no_variance(self):
        inst = ProblemInstance(
            x_size=2,
            y_values=(0.0, 1.0),
            k=1,
            x=(0, 1),
            y_index=(0, 1),
            probabilities=(0.5, 0.5),
            hypotheses=(Hypothesis("g", (0.0, 1.0)),),
            loss=LossSpec("squared", 1.0),
        )
        _, variance = regression_and_variance(inst)
        assert variance == 0.0

    def test_zero_marginal_x_omitted_from_map(self):
        inst = ProblemInstance(
            x_size=2,
            y_values=(0.0, 1.0),
            k=1,
            x=(0, 0),  # x=1 never occurs
            y_index=(0, 1),
            probabilities=(0.5, 0.5),
            hypotheses=(Hypothesis("f", (0.0, 0.0)),),
            loss=LossSpec("zero_one", 1.0),
        )
        regression, _ = regression_and_variance(inst)
        assert set(regression) == {0}


class TestSquaredRiskDecomposition:
    def test_demo2_squared_split(self, demo2):
        inst = dataclasses.replace(demo2, hypotheses=(demo2.hypothesis("identity"),), loss=LossSpec("squared", 1.0))
        lhs, rhs = squared_risk_decomposition(inst, "identity")
        assert lhs == pytest.approx(0.30, abs=1e-12)
        assert rhs == pytest.approx(0.10 + 0.20, abs=1e-12)
        assert abs(lhs - rhs) <= 1e-12

    def test_regression_hypothesis_leaves_noise_only(self, demo2):
        inst = dataclasses.replace(demo2, hypotheses=(Hypothesis("fr", (0.4, 0.8)),), loss=LossSpec("squared", 1.0))
        lhs, _ = squared_risk_decomposition(inst, "fr")
        _, variance = regression_and_variance(inst)
        assert lhs == pytest.approx(variance, abs=1e-12)

    def test_deterministic_exact_fit_is_zero(self):
        inst = ProblemInstance(
            x_size=2,
            y_values=(0.0, 1.0),
            k=1,
            x=(0, 1),
            y_index=(0, 1),
            probabilities=(0.5, 0.5),
            hypotheses=(Hypothesis("g", (0.0, 1.0)),),
            loss=LossSpec("squared", 1.0),
        )
        lhs, rhs = squared_risk_decomposition(inst, "g")
        assert lhs == 0.0
        assert rhs == 0.0

    def test_rejects_non_squared_loss(self, demo2):
        with pytest.raises(ValidationError, match="squared"):
            squared_risk_decomposition(demo2, "identity")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        x_size=st.integers(2, 5),
        y_size=st.integers(2, 5),
        h_size=st.integers(1, 5),
    )
    def test_split_is_exact_on_random_instances(self, seed, x_size, y_size, h_size):
        inst = random_instance(seed, x_size, y_size, h_size, loss_kind="squared")
        for f in inst.hypotheses:
            lhs, rhs = squared_risk_decomposition(inst, f)
            assert abs(lhs - rhs) <= 1e-12


class TestLoading:
    def test_demo2_round_trip(self, repo_root, demo2):
        inst = load_instance(repo_root / "instances" / "demo2.json")
        assert len(inst.probabilities) == 4
        assert inst == demo2

    def test_bad_probability_sum_names_field(self):
        with pytest.raises(ValidationError, match=r"^support\[\*\]\.p: probabilities sum to 0\.9, expected 1"):
            ProblemInstance(
                x_size=1,
                y_values=(0.0, 1.0),
                k=1,
                x=(0, 0),
                y_index=(0, 1),
                probabilities=(0.5, 0.4),
                hypotheses=(Hypothesis("f", (0.0,)),),
                loss=LossSpec("zero_one", 1.0),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_non_finite_or_negative_probability_names_field(self, bad):
        # NaN slipped through: both `p < 0` and `abs(total - 1) > tol` are
        # False for it, and every risk came out NaN.
        with pytest.raises(ValidationError, match=r"support\[0\]\.p"):
            ProblemInstance(
                2, (0.0, 1.0), 2, (0, 1), (0, 1), (bad, 1.0),
                (Hypothesis("h", (0.0, 1.0)),), LossSpec("zero_one", 1.0),
            )

    def test_list_parts_build_the_demo_instance(self, repo_root):
        # The constructor stores y_values and hypotheses as tuples, so list
        # parts build an instance equal to the demo, as loaded from its file too.
        inst = ProblemInstance(
            x_size=2,
            y_values=[0.0, 1.0],
            k=2,
            x=[0, 0, 1, 1],
            y_index=[0, 1, 0, 1],
            probabilities=[0.3, 0.2, 0.1, 0.4],
            hypotheses=list(demo_instance().hypotheses),
            loss=LossSpec("zero_one", 1.0),
        )
        assert inst == demo_instance() == load_instance(repo_root / "instances" / "demo2.json")
        assert isinstance(inst.y_values, tuple) and isinstance(inst.hypotheses, tuple)

    def test_empty_hypothesis_class_rejected(self):
        with pytest.raises(ValidationError, match="hypotheses:"):
            ProblemInstance(1, (0.0,), 1, (0,), (0,), (1.0,), (), LossSpec("zero_one", 1.0))

    def test_loss_matrix_beyond_cap_rejected(self, tmp_path, capsys):
        # Such an instance used to build its matrix for minutes, or end in a
        # MemoryError traceback with exit 1.
        x_size = y_size = 64
        h_size = MAX_LOSS_ENTRIES // (x_size * y_size) + 1
        obj = {
            "x_size": x_size,
            "y_values": list(range(y_size)),
            "k": 12,
            "support": [{"x": x, "y": y, "p": 1 / (x_size * y_size)} for x in range(x_size) for y in range(y_size)],
            "hypotheses": [{"id": f"h{j}", "table": [0] * x_size} for j in range(h_size)],
            "loss": {"kind": "zero_one", "bound": 1},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=r"^hypotheses: .* loss-matrix entries exceed"):
            load_instance(path)
        assert main(["learn", "--instance", str(path), "--epsilon", "0.1", "--delta", "0.1", "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: hypotheses: ")

    def test_loss_bound_violation_reported(self):
        with pytest.raises(ValidationError, match="outside"):
            table_loss_instance((0.3, 0.2, 0.1, 0.4), {"f": [[2.0, 0.0], [0.0, 0.0]]}, bound=1.0)

    def test_duplicate_support_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            ProblemInstance(
                x_size=1,
                y_values=(0.0,),
                k=1,
                x=(0, 0),
                y_index=(0, 0),
                probabilities=(0.5, 0.5),
                hypotheses=(Hypothesis("f", (0.0,)),),
                loss=LossSpec("zero_one", 1.0),
            )

    def test_k_too_small_rejected(self):
        with pytest.raises(ValidationError, match="k:"):
            ProblemInstance(
                x_size=2,
                y_values=(0.0, 1.0),
                k=1,
                x=(0, 0, 1, 1),
                y_index=(0, 1, 0, 1),
                probabilities=(0.25, 0.25, 0.25, 0.25),
                hypotheses=(Hypothesis("f", (0.0, 0.0)),),
                loss=LossSpec("zero_one", 1.0),
            )

    def test_random_instance_deterministic(self):
        a = random_instance(7, x_size=3, y_size=2, h_size=4)
        b = random_instance(7, x_size=3, y_size=2, h_size=4)
        assert a == b

    def test_new_y_values_round_trip(self, repo_root, tmp_path):
        # A point's y value once was a stored copy: this instance kept the
        # demo's risks, then reloaded with risks [1, 1, 1, 1].
        inst = dataclasses.replace(demo_instance(), y_values=(5.0, 6.0))
        assert inst.risks.tolist() == [brute_force_risk(inst, f) for f in inst.hypotheses]
        obj = json.loads((repo_root / "instances" / "demo2.json").read_text())
        obj["y_values"] = [5.0, 6.0]
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        reloaded = load_instance(tmp_path / "inst.json")
        assert reloaded == inst
        assert reloaded.risks.tolist() == inst.risks.tolist()

    def test_random_squared_instance_is_built_once(self, monkeypatch):
        calls = []
        post_init = ProblemInstance.__post_init__
        monkeypatch.setattr(ProblemInstance, "__post_init__", lambda self: calls.append(post_init(self)))
        random_instance(1, x_size=3, y_size=2, h_size=4, loss_kind="squared")
        assert len(calls) == 1

    def test_random_squared_bound_is_the_largest_loss(self):
        # The bound once came from a second formula, (t - y) ** 2, which can
        # exceed the loss d * d by one ulp and reject the instance.
        inst = random_instance(83, x_size=4, y_size=3, h_size=3, loss_kind="squared")
        assert inst.loss.bound == inst.losses.max()

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((1, 4, 2, 512, "zero_one"), "3b8a0843161f9e6e92c1e394930ca3a07445685d316ec28ae12d0133e1460674"),
            ((1, 8, 8, 2, "zero_one"), "9287f35cd98a64936a30abe9f177eae487156fabcd0a0d31738de3f49b66b23e"),
            ((2, 4, 2, 512, "squared"), "c61fe1aabe2b80215881d26a7f15f6b3a3353f9624151c52222b027ccebe97c3"),
            ((1, 8, 8, 2, "squared"), "3c3f1e46ce6ee0d3df424775f048d158726d9907c4b8deb41e8f243a7b343ed6"),
            ((13, 3, 3, 2, "squared"), "bc5a68f749ed9ce6048bc6cfb7360ecffbcd13b4528b1fd746cc36082bf707f5"),
            ((83, 4, 3, 3, "squared"), "de15e526efa2503ab0d7c9de359bc17f72202db0091c778c3f5307bdab7af35e"),
        ],
    )
    def test_random_instance_values_are_pinned(self, args, digest):
        # The benchmark's wide-class and statevector shapes among them: a
        # change to the draws or the loss arithmetic moves these bytes.
        inst = random_instance(*args)
        h = hashlib.sha256()
        tables = [f.table for f in inst.hypotheses]
        for a in (inst.loss.bound, inst.y_values, tables, inst.probabilities, inst.losses, inst.risks):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("y_size", [1, 2, 3, 7, 64])
    def test_zero_one_tables_take_the_per_entry_stream(self, y_size):
        # One (h_size, x_size) integers draw takes the same words as one draw
        # per entry, the spare half of a 64-bit word included (9 entries).
        seed, x_size, h_size = 5, 3, 3
        rng = np.random.default_rng(seed)
        rng.uniform(0.05, 1.0, x_size * y_size)  # the support masses come first
        reference = [tuple(float(rng.integers(0, y_size)) for _ in range(x_size)) for _ in range(h_size)]
        assert [f.table for f in random_instance(seed, x_size, y_size, h_size).hypotheses] == reference
        twin = np.random.default_rng(seed)
        twin.uniform(0.05, 1.0, x_size * y_size)
        twin.integers(0, y_size, (h_size, x_size))
        assert twin.integers(0, 2**31, 3).tolist() == rng.integers(0, 2**31, 3).tolist()

    def test_random_instance_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            random_instance(1, x_size=0, y_size=2, h_size=1)

    def test_random_instance_checks_the_cap_before_drawing(self):
        # The 10^12-point probability vector used to be drawn first, ending
        # in a MemoryError.
        with pytest.raises(ValidationError, match=r"^random_instance: .* loss-matrix entries exceed"):
            random_instance(1, 10**6, 10**6, 2)

    def test_probabilities_renormalized_to_unit_vector(self, tmp_path):
        obj = {
            "x_size": 1,
            "y_values": [0.0, 1.0],
            "k": 1,
            "support": [{"x": 0, "y": 0, "p": 0.3 + 4e-13}, {"x": 0, "y": 1, "p": 0.7}],
            "hypotheses": [{"id": "f", "table": [0.0]}],
            "loss": {"kind": "zero_one", "bound": 1.0},
        }
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        inst = load_instance(tmp_path / "inst.json")
        assert math.fsum(inst.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_probabilities_are_a_read_only_field(self, demo2):
        assert demo2.probabilities is demo2.probabilities  # stored once, not derived per read
        assert demo2.probabilities.tolist() == [0.3, 0.2, 0.1, 0.4]
        for name in ("x", "y_index", "probabilities"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(demo2, name)[0] = 1
        moved = dataclasses.replace(
            demo2, x=demo2.x[::-1], y_index=demo2.y_index[::-1], probabilities=demo2.probabilities[::-1]
        )
        assert support_points(moved) == support_points(demo2)[::-1]
        # The constructor copies its arrays: changing one afterwards leaves the instance as built.
        x, y_index, probabilities = np.array([0, 1]), np.array([0, 0]), np.array([0.5, 0.5])
        inst = dataclasses.replace(demo2, x=x, y_index=y_index, probabilities=probabilities)
        x[0], y_index[0], probabilities[:] = 1, 1, (0.9, 0.1)
        assert support_points(inst) == [(0, 0, 0.5), (1, 0, 0.5)]


DEMO_PAIR = demo_instance().hypotheses[:2]
DEMO_IDS = demo_instance().ids


def demo_table_loss(last_entry):
    """A table loss for the demo class: every entry 0.0 but the last of each grid."""
    return LossSpec("table", 1.0, table={h: ((0.0, 0.0), (0.0, last_entry)) for h in DEMO_IDS})


class TestInstanceInvariants:
    """Every rule holds however an instance is made."""

    @pytest.mark.parametrize(
        "path, fields",
        [
            ("k", {"k": 1}),
            ("hypotheses", {"hypotheses": ()}),
            ("hypotheses[*].id", {"hypotheses": (Hypothesis("h", (0.0, 1.0)),) * 2}),
            ("hypotheses[0].table", {"hypotheses": (Hypothesis("short", (0.0,)),)}),
            ("hypotheses[0].table", {"hypotheses": (Hypothesis("nan", (0.0, math.nan)),)}),
            ("hypotheses[2].table", {"hypotheses": (*DEMO_PAIR, Hypothesis("inf", (math.inf, 0.0)))}),
            ("hypotheses[2].table", {"hypotheses": (*DEMO_PAIR, Hypothesis("short", (0.0,)))}),
            ("support", {"x": (), "y_index": (), "probabilities": ()}),
            ("loss.kind", {"loss": LossSpec("bogus", 1.0)}),
            ("loss.bound", {"loss": LossSpec("zero_one", 0.0)}),
            ("loss.bound", {"loss": LossSpec("zero_one", math.inf)}),
            ("loss.bound", {"loss": LossSpec("zero_one", math.nan)}),
            ("loss.table", {"loss": LossSpec("table", 1.0, table=None)}),
            ("loss", {"loss": LossSpec("zero_one", 0.25)}),
            ("y_values", {"y_values": (math.nan, 1.0)}),
            ("support[1].y", {"y_values": (0.0,)}),
            ("support[0].x", {"x": (5,), "y_index": (0,), "probabilities": (1.0,)}),
            ("support[0].p", {"probabilities": (math.nan, 0.2, 0.1, 0.4)}),
            ("support[2].p", {"probabilities": (0.3, 0.2, -0.1, 0.6)}),
            ("support[*].p", {"probabilities": (0.3, 0.2, 0.1, 0.3)}),
            ("support[1]", {"y_index": (0, 0, 0, 1)}),
            ("support", {"probabilities": (0.3, 0.3, 0.4)}),
            ("support[0].x", {"x": (0.5, 0, 1, 1)}),
            ("support[0].x", {"x": (True,), "y_index": (0,), "probabilities": (1.0,)}),
            ("support[3].y", {"y_index": (0, 1, 0, 1.0)}),
            ("support[0].p", {"probabilities": ("0.3", 0.2, 0.1, 0.4)}),
            ("support[0].p", {"probabilities": (True, 0.0, 0.0, 0.0)}),
            ("support[2].x", {"x": (0, 0, True, 1)}),
            ("support[2].x", {"x": (0, 0, True, True)}),
            ("k", {"k": 2.5}),
            ("k", {"k": "2"}),
            ("x_size", {"x_size": "2"}),
            ("x_size", {"x_size": True}),
            ("y_values[0]", {"y_values": ("a", 1.0)}),
            ("loss.bound", {"loss": LossSpec("zero_one", True)}),
            ("loss.bound", {"loss": LossSpec("zero_one", "1")}),
            ("hypotheses[2].table", {"hypotheses": (*DEMO_PAIR, Hypothesis("s", ("0", 1.0)))}),
            ("hypotheses[0].table", {"hypotheses": (Hypothesis("b", (True, 0.0)),)}),
            ("hypotheses[1].id", {"hypotheses": (DEMO_PAIR[0], Hypothesis(5, (0.0, 1.0)))}),
            ("loss.table['identity']", {"loss": demo_table_loss("0.25")}),
            ("loss.table['identity']", {"loss": demo_table_loss(True)}),
            ("hypotheses", {"hypotheses": 5}),
            ("hypotheses[0]", {"hypotheses": ("identity",)}),
            ("hypotheses[0].table", {"hypotheses": (Hypothesis("h", 5),)}),
            ("y_values", {"y_values": 5}),
            ("loss", {"loss": "zero_one"}),
            ("loss.table", {"loss": LossSpec("table", 1.0, table=5)}),
            ("y_values[1]", {"y_values": (0.0, True)}),
            ("loss.table['identity']", {"loss": LossSpec("table", 1.0, table=dict.fromkeys(DEMO_IDS, 5))}),
            ("loss.table['identity']", {"loss": LossSpec("table", 1.0, table=dict.fromkeys(DEMO_IDS, (5, 5)))}),
        ],
        ids=[
            "k=1", "empty-class", "duplicate-id", "short-table", "nan-table", "inf-table-at-2",
            "short-table-at-2", "empty-support", "unknown-kind",
            "bound-0", "bound-inf", "bound-nan", "table-missing", "loss-above-bound",
            "nan-y-value", "y-code-outside", "x-code-outside", "nan-mass", "negative-mass",
            "masses-sum-0.9", "duplicate-pair", "unequal-lengths", "half-x-code", "bool-x-code",
            "float-y-code", "string-mass", "bool-mass", "bool-among-int-codes", "bool-codes-after-ints",
            "half-k", "string-k", "string-x-size", "bool-x-size", "string-y-value", "bool-bound", "string-bound",
            "string-table-entry", "bool-table-entry", "int-id", "string-loss-entry", "bool-loss-entry",
            "int-class", "string-member", "int-table", "int-y-values", "string-loss", "int-loss-table",
            "bool-y-value", "int-loss-grid", "int-loss-rows",
        ],
    )
    def test_replace_is_checked(self, path, fields):
        # A loss-table entry "0.25" or True once read as a number, and each
        # container shape, a loss-table grid or row among them, escaped as a
        # bare TypeError or AttributeError.
        with pytest.raises(ValidationError, match=f"^{re.escape(path)}: "):
            dataclasses.replace(demo_instance(), **fields)

    def test_register_too_small_for_support(self, demo2):
        with pytest.raises(ValidationError, match="^k: .*support"):
            dataclasses.replace(demo2, k=1)

    def test_out_of_range_loss_is_a_contract_violation(self):
        inst = constant_loss_instance(0.5)
        with pytest.raises(ValidationError, match=r"^loss: value 1.5 .* outside \[0, 1.0\]"):
            dataclasses.replace(inst, loss=LossSpec("table", 1.0, table={"f": ((1.5,), (0.0,))}))


def demo2_json(repo_root):
    return json.loads((repo_root / "instances" / "demo2.json").read_text())


class TestInstanceJsonShape:
    # Each of these once escaped as a TypeError traceback with exit code 1.
    @pytest.mark.parametrize(
        "path,value,field",
        [
            ((), [1, 2], "expected object"),
            (("support",), 5, "support: expected array"),
            (("support", 0), "x", r"support\[0\]: expected object"),
            (("support", 1, "p"), "0.2", r"support\[1\]\.p"),
            (("support", 2, "x"), 1.5, r"support\[2\]\.x"),
            (("hypotheses", 0, "table"), None, r"hypotheses\[0\]\.table"),
            (("hypotheses", 1, "id"), 7, r"hypotheses\[1\]\.id"),
            (("y_values", 1), True, r"y_values\[1\]"),
            (("loss",), "zero_one", "loss: expected object"),
            (("k",), "2", "k: expected integer"),
        ],
    )
    def test_wrong_shape_names_field(self, repo_root, tmp_path, capsys, path, value, field):
        obj = demo2_json(repo_root)
        if path:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        else:
            obj = value
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=field):
            load_instance(inst_path)
        args = ["--instance", str(inst_path), "--epsilon", "0.1", "--delta", "0.1", "--seed", "1"]
        assert main(["estimate", "--hypothesis", "identity", *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key, value", [("x", 10**30), ("y", -(2**70))])
    def test_codes_beyond_int64_are_named_exactly(self, repo_root, tmp_path, key, value):
        # Cast through int64 or float, such a code would wrap or round before the range check.
        obj = demo2_json(repo_root)
        obj["support"][0][key] = value
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=rf"^support\[0\]\.{key}: {value} outside 0\.\.1$"):
                load_instance(tmp_path / "inst.json")

    @pytest.mark.parametrize(
        "parent, field",
        [((), "extra"), (("support", 2), "support[2].extra"), (("hypotheses", 1), "hypotheses[1].extra"),
         (("loss",), "loss.extra")],
        ids=["top-level", "support-point", "hypothesis", "loss"],
    )
    def test_unknown_field_is_named(self, repo_root, tmp_path, capsys, parent, field):
        # An instance file used to ignore an unknown key at every level, while a bench config rejected one.
        obj = demo2_json(repo_root)
        node = obj
        for key in parent:
            node = node[key]
        node["extra"] = 1
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=rf"^{re.escape(field)}: unknown field$"):
            load_instance(inst_path)
        assert main(["learn", "--instance", str(inst_path), "--epsilon", "0.1", "--delta", "0.1", "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: unknown field")

    def test_table_loss_file_loads_equal_to_the_built_instance(self, repo_root, tmp_path):
        built = table_loss_instance((0.3, 0.2, 0.1, 0.4), {"f": [[0.5, 0.0], [0.25, 1.0]]}, bound=1.0)
        obj = {
            "x_size": 2,
            "y_values": [0, 1],
            "k": 2,
            "support": [{"x": x, "y": y, "p": p} for x, y, p in support_points(built)],
            "hypotheses": [{"id": "f", "table": [0, 0]}],
            "loss": {"kind": "table", "bound": 1, "table": {"f": [[0.5, 0], [0.25, 1]]}},
        }
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        assert load_instance(tmp_path / "inst.json") == built
        obj["loss"]["table"] = None  # a null optional key is absent
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=r"^loss\.table: required for kind 'table'$"):
            load_instance(tmp_path / "inst.json")

    def test_missing_field_is_named(self, repo_root, tmp_path):
        obj = demo2_json(repo_root)
        del obj["support"][3]["p"]
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match=r"support\[3\]\.p: missing field"):
            load_instance(tmp_path / "inst.json")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=json_values)
    def test_any_json_value_anywhere_loads_or_is_rejected(self, repo_root, tmp_path_factory, data, value):
        path = tmp_path_factory.mktemp("fuzz") / "inst.json"
        path.write_text(json.dumps(mutate_json(data, demo2_json(repo_root), value)))
        try:
            inst = load_instance(path)
        except ValidationError:
            return
        assert len(inst.risks) == len(inst.hypotheses) >= 1


class TestExactStatistics:
    def test_demo2_summary(self, demo2):
        stats = exact_statistics(demo2)
        assert stats.best_id == "identity"
        assert stats.risks == pytest.approx(
            {"identity": 0.3, "flip": 0.7, "const0": 0.6, "const1": 0.4}, abs=1e-12
        )
