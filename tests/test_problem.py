"""Problem-model tests: losses, exact risks, decomposition, loading."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qal.problem import (
    Hypothesis,
    LossSpec,
    SupportPoint,
    ValidationError,
    best_hypothesis,
    exact_risk,
    exact_statistics,
    load_instance,
    loss_value,
    make_instance,
    random_instance,
    regression_and_variance,
    squared_risk_decomposition,
)


from conftest import table_loss_instance


def brute_force_risk(inst, f):
    """Independent oracle: direct summation over the support."""
    total = 0.0
    for z in inst.support:
        if inst.loss.kind == "zero_one":
            v = 1.0 if f.table[z.x] != z.y else 0.0
        elif inst.loss.kind == "squared":
            v = (f.table[z.x] - z.y) ** 2
        else:
            v = inst.loss.table[f.id][z.x][z.y_index]
        total += z.p * v
    return total


class TestLossValue:
    def test_zero_one_match(self):
        f = Hypothesis("f", (0.0, 1.0))
        z = SupportPoint(x=0, y_index=0, y=0.0, p=1.0)
        assert loss_value(LossSpec("zero_one", 1.0), f, z) == 0.0

    def test_squared_unit_gap(self):
        f = Hypothesis("f", (0.0,))
        z = SupportPoint(x=0, y_index=1, y=1.0, p=1.0)
        assert loss_value(LossSpec("squared", 1.0), f, z) == 1.0

    def test_squared_half_gap(self):
        f = Hypothesis("f", (0.5,))
        z = SupportPoint(x=0, y_index=1, y=1.0, p=1.0)
        assert loss_value(LossSpec("squared", 1.0), f, z) == 0.25

    def test_table_missing_hypothesis(self):
        z = SupportPoint(x=0, y_index=0, y=0.0, p=1.0)
        spec = LossSpec("table", 1.0, table={"g": ((0.5,),)})
        with pytest.raises(ValidationError, match="no entry"):
            loss_value(spec, Hypothesis("f", (0.0,)), z)

    def test_table_missing_entry(self):
        z = SupportPoint(x=1, y_index=0, y=0.0, p=1.0)
        spec = LossSpec("table", 1.0, table={"f": ((0.5,),)})
        with pytest.raises(ValidationError, match="missing entry"):
            loss_value(spec, Hypothesis("f", (0.0, 0.0)), z)


class TestExactRisk:
    def test_demo2_identity_hypothesis(self, demo2):
        f = demo2.hypothesis("identity")
        oracle = brute_force_risk(demo2, f)
        assert oracle == pytest.approx(0.3, abs=1e-15)
        assert exact_risk(demo2, f) == pytest.approx(oracle, abs=1e-15)

    def test_zero_loss_gives_zero_risk(self):
        inst = table_loss_instance(
            (0.3, 0.2, 0.1, 0.4), {"f": [[0.0, 0.0], [0.0, 0.0]]}, bound=1.0
        )
        assert exact_risk(inst, "f") == 0.0

    def test_point_mass_single_term(self):
        inst = make_instance(
            x_size=1,
            y_values=[1.0],
            k=1,
            support=[(0, 0, 1.0)],
            hypotheses=[("f", [0.0])],
            loss=LossSpec("squared", 1.0),
        )
        assert exact_risk(inst, "f") == 1.0

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["zero_one", "squared"])
    def test_risk_within_bound(self, seed, kind):
        inst = random_instance(seed, x_size=3, y_size=3, h_size=4, loss_kind=kind)
        for f in inst.hypotheses:
            r = exact_risk(inst, f)
            assert 0.0 <= r <= inst.loss.bound
            assert r == pytest.approx(brute_force_risk(inst, f), abs=1e-12)

    @pytest.mark.parametrize("kind", ["zero_one", "squared"])
    def test_risks_are_left_to_right_sums_of_the_loss_matrix(self, kind):
        inst = random_instance(5, x_size=4, y_size=4, h_size=6, loss_kind=kind)
        for i, f in enumerate(inst.hypotheses):
            total = 0.0
            for j, z in enumerate(inst.support):
                v = loss_value(inst.loss, f, z)
                assert inst.losses[i, j] == v
                total += z.p * v
            assert exact_risk(inst, f) == total

    def test_replace_recomputes_the_loss_matrix(self, demo2):
        flipped = dataclasses.replace(demo2, hypotheses=demo2.hypotheses[::-1])
        assert flipped.losses.tolist() == demo2.losses[::-1].tolist()
        assert exact_risk(flipped, "identity") == exact_risk(demo2, "identity")

    def test_non_member_hypothesis_rejected(self, demo2):
        impostor = Hypothesis("identity", (1.0, 1.0))
        with pytest.raises(ValidationError, match="not part of the instance"):
            exact_risk(demo2, impostor)
        with pytest.raises(ValidationError, match="unknown hypothesis"):
            exact_risk(demo2, Hypothesis("nope", (0.0, 1.0)))
        assert exact_risk(demo2, "identity") == exact_risk(demo2, demo2.hypothesis("identity"))


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
        inst = make_instance(
            x_size=1,
            y_values=[0.0, 1.0],
            k=1,
            support=[(0, 0, 0.5), (0, 1, 0.5)],
            hypotheses=[("f", [0.0])],
            loss=LossSpec("zero_one", 1.0),
        )
        regression, variance = regression_and_variance(inst)
        assert regression == {0: 0.5}
        assert variance == pytest.approx(0.25, abs=1e-15)

    def test_demo2_values(self, demo2):
        # Oracle: conditional means 0.2/0.5 and 0.4/0.5; variance by direct sum.
        regression, variance = regression_and_variance(demo2)
        oracle_var = sum(
            z.p * (z.y - {0: 0.4, 1: 0.8}[z.x]) ** 2 for z in demo2.support
        )
        assert regression[0] == pytest.approx(0.4, abs=1e-15)
        assert regression[1] == pytest.approx(0.8, abs=1e-15)
        assert variance == pytest.approx(oracle_var, abs=1e-15)
        assert variance == pytest.approx(0.20, abs=1e-12)

    def test_deterministic_labels_no_variance(self):
        inst = make_instance(
            x_size=2,
            y_values=[0.0, 1.0],
            k=1,
            support=[(0, 0, 0.5), (1, 1, 0.5)],
            hypotheses=[("g", [0.0, 1.0])],
            loss=LossSpec("squared", 1.0),
        )
        _, variance = regression_and_variance(inst)
        assert variance == 0.0

    def test_zero_marginal_x_omitted_from_map(self):
        inst = make_instance(
            x_size=2,
            y_values=[0.0, 1.0],
            k=1,
            support=[(0, 0, 0.5), (0, 1, 0.5)],  # x=1 never occurs
            hypotheses=[("f", [0.0, 0.0])],
            loss=LossSpec("zero_one", 1.0),
        )
        regression, _ = regression_and_variance(inst)
        assert set(regression) == {0}


class TestSquaredRiskDecomposition:
    def test_demo2_squared_split(self, demo2):
        inst = make_instance(
            x_size=2,
            y_values=[0.0, 1.0],
            k=2,
            support=[(z.x, z.y_index, z.p) for z in demo2.support],
            hypotheses=[("identity", [0.0, 1.0])],
            loss=LossSpec("squared", 1.0),
        )
        lhs, rhs = squared_risk_decomposition(inst, "identity")
        assert lhs == pytest.approx(0.30, abs=1e-12)
        assert rhs == pytest.approx(0.10 + 0.20, abs=1e-12)
        assert abs(lhs - rhs) <= 1e-12

    def test_regression_hypothesis_leaves_noise_only(self):
        inst = make_instance(
            x_size=2,
            y_values=[0.0, 1.0],
            k=2,
            support=[(0, 0, 0.3), (0, 1, 0.2), (1, 0, 0.1), (1, 1, 0.4)],
            hypotheses=[("fr", [0.4, 0.8])],
            loss=LossSpec("squared", 1.0),
        )
        lhs, _ = squared_risk_decomposition(inst, "fr")
        _, variance = regression_and_variance(inst)
        assert lhs == pytest.approx(variance, abs=1e-12)

    def test_deterministic_exact_fit_is_zero(self):
        inst = make_instance(
            x_size=2,
            y_values=[0.0, 1.0],
            k=1,
            support=[(0, 0, 0.5), (1, 1, 0.5)],
            hypotheses=[("g", [0.0, 1.0])],
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
        assert len(inst.support) == 4
        assert inst == demo2

    def test_bad_probability_sum_names_field(self):
        with pytest.raises(ValidationError, match=r"support\[\*\]\.p"):
            make_instance(
                x_size=1,
                y_values=[0.0, 1.0],
                k=1,
                support=[(0, 0, 0.5), (0, 1, 0.4)],
                hypotheses=[("f", [0.0])],
                loss=LossSpec("zero_one", 1.0),
            )

    def test_loss_bound_violation_reported(self):
        with pytest.raises(ValidationError, match="outside"):
            table_loss_instance((0.3, 0.2, 0.1, 0.4), {"f": [[2.0, 0.0], [0.0, 0.0]]}, bound=1.0)

    def test_duplicate_support_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_instance(
                x_size=1,
                y_values=[0.0],
                k=1,
                support=[(0, 0, 0.5), (0, 0, 0.5)],
                hypotheses=[("f", [0.0])],
                loss=LossSpec("zero_one", 1.0),
            )

    def test_k_too_small_rejected(self):
        with pytest.raises(ValidationError, match="k:"):
            make_instance(
                x_size=2,
                y_values=[0.0, 1.0],
                k=1,
                support=[(0, 0, 0.25), (0, 1, 0.25), (1, 0, 0.25), (1, 1, 0.25)],
                hypotheses=[("f", [0.0, 0.0])],
                loss=LossSpec("zero_one", 1.0),
            )

    def test_random_instance_deterministic(self):
        a = random_instance(7, x_size=3, y_size=2, h_size=4)
        b = random_instance(7, x_size=3, y_size=2, h_size=4)
        assert a == b

    def test_save_load_round_trip(self, tmp_path):
        from qal.problem import save_instance

        inst = random_instance(13, x_size=3, y_size=3, h_size=2, loss_kind="squared")
        save_instance(inst, tmp_path / "inst.json")
        assert load_instance(tmp_path / "inst.json") == inst

    def test_random_squared_bound_is_the_largest_loss(self):
        # The bound once came from a second formula, (t - y) ** 2, which can
        # exceed the loss d * d by one ulp and reject the instance.
        inst = random_instance(83, x_size=4, y_size=3, h_size=3, loss_kind="squared")
        assert inst.loss.bound == inst.losses.max()

    def test_random_instance_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            random_instance(1, x_size=0, y_size=2, h_size=1)

    def test_probabilities_renormalized_to_unit_vector(self):
        inst = make_instance(
            x_size=1,
            y_values=[0.0, 1.0],
            k=1,
            support=[(0, 0, 0.3 + 4e-13), (0, 1, 0.7)],
            hypotheses=[("f", [0.0])],
            loss=LossSpec("zero_one", 1.0),
        )
        assert math.fsum(z.p for z in inst.support) == pytest.approx(1.0, abs=1e-15)


class TestExactStatistics:
    def test_demo2_summary(self, demo2):
        stats = exact_statistics(demo2)
        assert stats.best_id == "identity"
        assert stats.risks == pytest.approx(
            {"identity": 0.3, "flip": 0.7, "const0": 0.6, "const1": 0.4}, abs=1e-12
        )
        assert stats.noise_variance == pytest.approx(0.2, abs=1e-12)
