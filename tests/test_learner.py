"""Learner tests: budget split, argmin selection, batch streams."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qal.estimator as estimator
import qal.problem as problem
from qal.engine import closed_form_ae_distribution, draw_outcome, phase_estimates, simulate_ae_distribution
from qal.estimator import EstimateResult, estimate_mean, outcome_laws
from qal.learner import allocate_budget, learn
from qal.problem import ProblemInstance, exact_statistics, random_instance

from conftest import constant_risk_class, table_loss_instance


class TestAllocateBudget:
    @pytest.mark.parametrize(
        "h_size,epsilon,delta,expected",
        [
            (4, 0.1, 0.05, (0.05, 0.0125)),
            (1, 0.3, 0.2, (0.15, 0.2)),
            (8, 0.05, 0.1, (0.025, 0.0125)),
        ],
    )
    def test_split_examples(self, h_size, epsilon, delta, expected):
        assert allocate_budget(h_size, epsilon, delta) == pytest.approx(expected)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            allocate_budget(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            allocate_budget(2, 0.0, 0.1)
        with pytest.raises(ValueError):
            allocate_budget(2, 0.1, 1.0)


class TestLearn:
    def test_separated_risks_pick_the_better_hypothesis(self):
        inst = constant_risk_class({"f1": 0.2, "f2": 0.4})
        hits = 0
        trials = 200
        for seed in range(trials):
            result = learn(inst, epsilon=0.1, delta=0.1, rng=seed)
            hits += result.chosen_id == "f1"
        assert hits / trials >= 0.9

    def test_singleton_class(self):
        inst = constant_risk_class({"only": 0.37})
        result = learn(inst, epsilon=0.1, delta=0.2, rng=0)
        assert result.chosen_id == "only"
        assert set(result.estimates) == {"only"}

    def test_zero_loss_returns_first_and_gap_zero(self):
        inst = constant_risk_class({"a": 0.0, "b": 0.0})
        result = learn(inst, epsilon=0.1, delta=0.2, rng=5)
        assert result.chosen_id == "a"
        stats = exact_statistics(inst)
        assert stats.risks[result.chosen_id] - min(stats.risks.values()) == 0.0

    def test_total_is_sum_of_per_hypothesis_ledgers(self, demo2):
        result = learn(demo2, epsilon=0.1, delta=0.1, rng=2)
        assert result.total_quantum_samples == sum(
            r.ledger.quantum_samples for r in result.estimates.values()
        )
        per_hyp = {r.ledger.quantum_samples for r in result.estimates.values()}
        assert len(per_hyp) == 1
        assert result.total_quantum_samples // len(demo2.hypotheses) == per_hyp.pop()

    def test_budget_recorded(self, demo2):
        result = learn(demo2, epsilon=0.1, delta=0.05, rng=0)
        assert result.budget == (0.05, 0.05 / 4)

    def test_warns_outside_guaranteed_ranges(self, demo2):
        with pytest.warns(UserWarning, match="epsilon"):
            learn(demo2, epsilon=0.2, delta=0.1, rng=0)
        with pytest.warns(UserWarning, match="delta"):
            learn(demo2, epsilon=0.1, delta=0.6, rng=0)

    @pytest.mark.parametrize("epsilon, delta, field", [(5.0, 0.1, "epsilon"), (0.05, 5.0, "delta")])
    def test_budget_is_checked_before_the_guarantee_warnings(self, demo2, epsilon, delta, field):
        # An invalid budget raises before any "outside the guaranteed range" warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} must lie in"):
                learn(demo2, epsilon, delta, rng=0)

    def test_deterministic_per_seed(self, demo2):
        a = learn(demo2, epsilon=0.1, delta=0.1, rng=99)
        b = learn(demo2, epsilon=0.1, delta=0.1, rng=99)
        assert a.chosen_id == b.chosen_id
        assert a.estimates == b.estimates

    def test_scaling_loss_and_epsilon_together_preserves_choice(self):
        values = {
            "f1": [[0.1, 0.3], [0.2, 0.4]],
            "f2": [[0.5, 0.2], [0.4, 0.1]],
            "f3": [[0.3, 0.3], [0.3, 0.3]],
        }
        base = table_loss_instance((0.3, 0.2, 0.1, 0.4), values, bound=1.0)
        c = 4.0
        scaled_values = {h: (np.array(v) * c).tolist() for h, v in values.items()}
        scaled = table_loss_instance((0.3, 0.2, 0.1, 0.4), scaled_values, bound=c)
        for seed in range(10):
            r_base = learn(base, epsilon=0.1, delta=0.2, rng=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # 0.4 is deliberately outside the guaranteed range
                r_scaled = learn(scaled, epsilon=0.1 * c, delta=0.2, rng=seed)
            assert r_base.chosen_id == r_scaled.chosen_id
            for hid in values:
                assert r_scaled.estimates[hid].mu_hat == pytest.approx(
                    c * r_base.estimates[hid].mu_hat, rel=1e-12
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_excess_risk_within_epsilon_usually(self, seed):
        inst = random_instance(seed + 100, x_size=4, y_size=2, h_size=4)
        stats = exact_statistics(inst)
        best = stats.risks[stats.best_id]
        hits = 0
        trials = 60
        for t in range(trials):
            result = learn(inst, epsilon=0.1, delta=0.1, rng=(seed, t))
            hits += stats.risks[result.chosen_id] - best <= 0.1
        assert hits / trials >= 0.85

    def test_wide_class_gate(self):
        # The checks the wide-class benchmark applies to every learn result,
        # read through result.estimates as it reads them.
        inst = random_instance(1, x_size=4, y_size=2, h_size=512, loss_kind="zero_one")
        result = learn(inst, epsilon=0.05, delta=0.05, rng=1, engine="analytic")
        eps_h, delta_h = allocate_budget(512, 0.05, 0.05)
        m = estimator.phase_bits_for_accuracy(eps_h / inst.loss.bound)
        reps = estimator.repetitions_for_confidence(delta_h)
        ids = [f.id for f in inst.hypotheses]
        assert list(result.estimates) == ids
        for est in result.estimates.values():
            assert est.m == m and est.repetitions == reps == len(est.raw_estimates)
            assert est.mu_hat == inst.loss.bound * estimator.median(est.raw_estimates)
        mu = [result.estimates[hid].mu_hat for hid in ids]
        assert result.chosen_id == ids[int(np.argmin(mu))]
        assert result.total_quantum_samples == 512 * reps * (2 ** (m + 1) - 1)

    def test_per_hypothesis_budget_affine_in_log_class_size(self):
        # The per-hypothesis preparation budget follows the union-bound
        # schedule, so it grows affinely in log|H| + log(1/delta).
        sizes = [2, 4, 8, 16]
        budgets = []
        for h in sizes:
            inst = random_instance(7, x_size=4, y_size=2, h_size=h)
            result = learn(inst, epsilon=0.05, delta=0.05, rng=1)
            budgets.append(result.total_quantum_samples // len(inst.hypotheses))
        u = np.log(sizes) + np.log(1 / 0.05)
        coef = np.polyfit(u, budgets, 1)
        fitted = np.polyval(coef, u)
        rel = np.abs(fitted - np.array(budgets)) / np.array(budgets)
        assert rel.max() <= 0.2


random_shapes = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "x_size": st.integers(1, 3),
        "y_size": st.integers(1, 3),
        "h_size": st.integers(1, 6),
        "loss_kind": st.sampled_from(["zero_one", "squared"]),
    }
)


def inverse_cdf_oracle(law, u):
    """Outcome of each deviate: the number of cumulative masses at or below it, capped."""
    cdf = np.cumsum(law)
    return [min(int(np.count_nonzero(cdf <= x)), law.size - 1) for x in u]


class TestBatchStreams:
    @settings(max_examples=25, deadline=None)
    @given(shape=random_shapes, seed=st.integers(0, 2**32 - 1), engine=st.sampled_from(["analytic", "statevector"]))
    def test_learn_draws_row_i_of_one_deviate_matrix(self, shape, seed, engine):
        inst = random_instance(**shape)
        h = len(inst.hypotheses)
        # epsilon is on the original loss scale; squared instances can have a bound far below 1.
        epsilon = 0.1 * min(inst.loss.bound, 1.0)
        result = learn(inst, epsilon=epsilon, delta=0.1, rng=seed, engine=engine)
        m, reps = estimator.schedule(inst, epsilon / 2, 0.1 / h)
        u = np.random.default_rng(seed).random((h, reps))
        for i, (f, row) in enumerate(zip(inst.hypotheses, u)):
            r = result.estimates[f.id]
            ys = inverse_cdf_oracle(outcome_laws(inst, [i], m, engine=engine)[0], row)
            assert r.raw_estimates == tuple(math.sin(math.pi * y / 2**m) ** 2 for y in ys)
            assert r.mu_hat == inst.loss.bound * estimator.median(r.raw_estimates)
        mu = [result.estimates[f.id].mu_hat for f in inst.hypotheses]
        assert result.chosen_id == inst.hypotheses[mu.index(min(mu))].id  # the first minimum

    @settings(max_examples=25, deadline=None)
    @given(shape=random_shapes, seed=st.integers(0, 2**32 - 1), engine=st.sampled_from(["analytic", "statevector"]))
    def test_one_member_batch_is_estimate_mean(self, shape, seed, engine):
        inst = random_instance(**shape)
        row = seed % len(inst.hypotheses)
        f = inst.hypotheses[row]
        eps, delta = 0.05 * inst.loss.bound, 0.05
        by_seed = estimate_mean(inst, f, eps, delta, rng=seed, engine=engine)

        def assert_is_by_seed(batch):
            assert batch.mu_hat.tolist() == [by_seed.mu_hat]
            assert batch.raw.tolist() == [list(by_seed.raw_estimates)]
            assert (batch.m, batch.repetitions, batch.ledger) == (by_seed.m, by_seed.repetitions, by_seed.ledger)

        assert_is_by_seed(estimator.estimate_batch(inst, [row], eps, delta, seed, engine=engine))
        # A Generator gives the same estimate and is left in the same state.
        g_batch, g_mean = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_is_by_seed(estimator.estimate_batch(inst, [row], eps, delta, g_batch, engine=engine))
        assert estimate_mean(inst, f, eps, delta, rng=g_mean, engine=engine) == by_seed
        assert g_batch.random() == g_mean.random()

    @settings(max_examples=25, deadline=None)
    @given(shape=random_shapes, seed=st.integers(0, 2**32 - 1), engine=st.sampled_from(["analytic", "statevector"]))
    def test_raw_estimates_follow_one_uniform_vector(self, shape, seed, engine):
        inst = random_instance(**shape)
        f = inst.hypotheses[seed % len(inst.hypotheses)]
        r = estimate_mean(inst, f, 0.05 * inst.loss.bound, 0.05, rng=seed, engine=engine)
        u = np.random.default_rng(seed).random(r.repetitions)
        ys = inverse_cdf_oracle(outcome_laws(inst, [inst.row(f)], r.m, engine=engine)[0], u)
        expected = tuple(math.sin(math.pi * y / 2**r.m) ** 2 for y in ys)
        assert r.raw_estimates == expected
        assert r.mu_hat == inst.loss.bound * sorted(expected)[r.repetitions // 2]

    @pytest.mark.parametrize("engine", ["analytic", "statevector"])
    def test_one_law_per_distinct_loss_row(self, monkeypatch, engine):
        # The wide-class benchmark instance: 512 zero-one tables over four x
        # codes and two labels, so at most 16 distinct loss rows.
        inst = random_instance(1, x_size=4, y_size=2, h_size=512, loss_kind="zero_one")
        first = np.unique(inst.distinct_row, return_index=True)[1]  # each loss row's first member
        assert len(first) == len(np.unique(inst.losses, axis=0)) == 16
        built = []  # one entry per law built
        if engine == "analytic":

            def counting(a, m):
                built.extend(a)
                return closed_form_ae_distribution(a, m)

            monkeypatch.setattr(estimator, "closed_form_ae_distribution", counting)
            expected = (inst.risks[first] / inst.loss.bound).tolist()  # each representative's amplitude, once
        else:

            def counting(inst, f, m):
                built.append(f.id)
                return simulate_ae_distribution(inst, f, m)

            monkeypatch.setattr(estimator, "simulate_ae_distribution", counting)
            expected = [inst.ids[i] for i in first]
        result = learn(inst, epsilon=0.05, delta=0.05, rng=3, engine=engine)
        assert len(result.estimates) == 512
        assert built == expected and len(built) == 16  # first holds distinct members, so none repeats

    def test_law_blocks_fit_the_deviate_matrix(self, monkeypatch, separation_instance):
        calls = []  # amplitudes per closed-form call

        def counting(a, m):
            calls.append(len(a))
            return closed_form_ae_distribution(a, m)

        monkeypatch.setattr(estimator, "closed_form_ae_distribution", counting)
        wide = random_instance(1, x_size=4, y_size=2, h_size=512, loss_kind="zero_one")
        for seed in range(3):
            calls.clear()
            learn(wide, epsilon=0.05, delta=0.05, rng=seed)
            assert calls == [16]  # one block: 512 * 51 deviates hold all 16 laws of 2^8
        # Four rows with R <= 37 and 2^m >= 256: one law per call, as before blocks.
        distinct = len(np.unique(separation_instance.distinct_row))
        for eps in (0.1, 0.05, 0.025, 0.0125):
            calls.clear()
            learn(separation_instance, epsilon=eps, delta=0.005, rng=0)
            assert calls == [1] * distinct
        # 3966 distinct rows at m = 7, R = 57: blocks of 4096 * 57 // 128 = 1824 laws.
        inst = random_instance(1, 16, 2, 2**12)
        calls.clear()
        result = learn(inst, epsilon=0.1, delta=0.1, rng=5)
        m, reps = result.batch.m, result.batch.repetitions
        assert (m, reps, len(np.unique(inst.distinct_row))) == (7, 57, 3966)
        assert calls == [1824, 1824, 318]
        assert max(calls) * 2**m <= max(len(inst.ids) * reps, 2**m)
        # Each member's row equals its law rebuilt alone, drawn on its own deviates.
        u = np.random.default_rng(5).random((len(inst.ids), reps))
        laws = {}
        for i, row in enumerate(u):
            d = inst.distinct_row[i]
            if d not in laws:
                laws[d] = np.cumsum(closed_form_ae_distribution(float(inst.risks[i] / inst.loss.bound), m))
            u[i] = phase_estimates(m)[draw_outcome(laws[d], row)]
        assert np.array_equal(result.batch.raw, u)

    def test_learn_builds_no_per_member_object(self, monkeypatch):
        inst = random_instance(1, x_size=4, y_size=2, h_size=512, loss_kind="zero_one")  # the wide-class instance

        def refuse(*args, **kwargs):
            raise AssertionError("learn resolved a member or built an EstimateResult")

        with monkeypatch.context() as patch:
            patch.setattr(ProblemInstance, "row", refuse)
            patch.setattr(estimator, "EstimateResult", refuse)
            patch.setattr(estimator, "exact_risk", refuse)
            patch.setattr(problem, "exact_risk", refuse)
            result = learn(inst, epsilon=0.05, delta=0.05, rng=3)
        batch, bound = result.batch, inst.loss.bound
        rebuilt = {
            f.id: EstimateResult(bound * estimator.median(raw), batch.m, batch.repetitions, batch.ledger, tuple(raw))
            for f, raw in zip(inst.hypotheses, batch.raw.tolist())
        }
        assert result.estimates == rebuilt
        assert result.estimates is result.estimates
        # One estimate_mean per member on one Generator reads the same deviate rows.
        g = np.random.default_rng(3)
        eps_h, delta_h = allocate_budget(512, 0.05, 0.05)
        one_by_one = [estimate_mean(inst, f, eps_h, delta_h, rng=g).mu_hat for f in inst.hypotheses]
        assert batch.mu_hat.tolist() == one_by_one
        assert result.chosen_id == inst.hypotheses[one_by_one.index(min(one_by_one))].id

    def test_learn_working_set_is_about_two_deviate_matrices(self):
        # learn holds the deviate matrix and the median's partition copy of it;
        # a grouped copy of the matrix would make the peak three matrices.
        inst = random_instance(1, 2, 2, 2**12)
        learn(inst, 0.1, 0.1, rng=0)  # warm-up: caches and first-call allocations
        tracemalloc.start()
        try:
            result = learn(inst, 0.1, 0.1, rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * result.batch.raw.nbytes

    def test_batch_is_read_only(self, demo2):
        batch = estimator.estimate_batch(demo2, [2, 0], 0.05, 0.05, rng=0)
        assert batch.raw.shape == (2, batch.repetitions) and batch.mu_hat.shape == (2,)
        for a in (batch.raw, batch.mu_hat):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5

