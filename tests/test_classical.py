"""Classical-baseline tests: sample sizing, i.i.d. draws, ERM behavior."""
import math
import time

import numpy as np
import pytest

from qal.classical import draw_iid_samples, erm_learn, hoeffding_sample_size, loss_matrix
from qal.problem import best_hypothesis, exact_statistics, random_instance

from conftest import constant_risk_class, table_loss_instance


class TestHoeffdingSampleSize:
    def test_reference_value(self):
        oracle = math.ceil(2 * math.log(2 * 8 / 0.05) / 0.1**2)
        assert oracle == 1154
        assert hoeffding_sample_size(1.0, 8, 0.1, 0.05) == 1154

    def test_rejects_degenerate_delta(self):
        with pytest.raises(ValueError):
            hoeffding_sample_size(1.0, 1, 0.1, 2.0)
        with pytest.raises(ValueError):
            hoeffding_sample_size(1.0, 1, 0.1, 0.0)

    @pytest.mark.parametrize("delta", [1e-320, 1e-308])
    def test_rejects_delta_whose_union_bound_overflows(self, delta):
        # 2|H|/delta is inf here; the count used to blame epsilon.
        with pytest.raises(ValueError, match=r"^delta=.*overflows"):
            hoeffding_sample_size(1.0, 4, 0.1, delta)

    @pytest.mark.parametrize(
        "bound, h_size, message",
        [(0.0, 2, r"^loss bound must be positive, got 0.0$"), (1.0, 0, r"^hypothesis class size must be >= 1, got 0$")],
    )
    def test_rejects_degenerate_bound_or_class(self, bound, h_size, message):
        with pytest.raises(ValueError, match=message):
            hoeffding_sample_size(bound, h_size, 0.1, 0.1)

    def test_rejects_epsilon_at_or_above_bound(self):
        with pytest.raises(ValueError):
            hoeffding_sample_size(1.0, 2, 1.0, 0.1)

    def test_halving_epsilon_quadruples_the_count(self):
        for eps in (0.2, 0.1, 0.05):
            raw = 2 * math.log(2 * 4 / 0.1) / eps**2
            raw_half = 2 * math.log(2 * 4 / 0.1) / (eps / 2) ** 2
            assert raw_half == pytest.approx(4 * raw, rel=1e-12)
            n, n_half = (
                hoeffding_sample_size(1.0, 4, e, 0.1) for e in (eps, eps / 2)
            )
            assert abs(n_half - 4 * n) <= 4  # ceiling slack only

    @pytest.mark.parametrize("epsilon", [1e-9, 1e-200])
    def test_rejects_counts_beyond_int64(self, epsilon):
        with pytest.raises(ValueError, match="int64"):
            hoeffding_sample_size(4.0, 4, epsilon, 0.05)

    def test_count_near_int64_accepted(self):
        n = hoeffding_sample_size(1.0, 1, 1e-9, 0.5)
        assert 2**61 < n <= np.iinfo(np.int64).max

    def test_bound_enters_quadratically(self):
        n1 = hoeffding_sample_size(1.0, 4, 0.1, 0.1)
        n2 = hoeffding_sample_size(2.0, 4, 0.2, 0.1)
        assert n1 == n2


class TestDrawIidSamples:
    def test_zero_draws(self, demo2):
        assert draw_iid_samples(demo2, 0, rng=0).size == 0

    def test_point_mass_constant(self):
        inst = constant_risk_class({"f": 0.5}, probs=(1.0, 0.0, 0.0, 0.0))
        samples = draw_iid_samples(inst, 50, rng=1)
        assert np.all(samples == 0)

    def test_demo2_frequencies(self, demo2):
        samples = draw_iid_samples(demo2, 100_000, rng=7)
        freqs = np.bincount(samples, minlength=4) / samples.size
        assert np.abs(freqs - [0.3, 0.2, 0.1, 0.4]).max() <= 0.01

    def test_deterministic_per_seed(self, demo2):
        a = draw_iid_samples(demo2, 100, rng=3)
        b = draw_iid_samples(demo2, 100, rng=3)
        assert np.array_equal(a, b)

    def test_negative_count_rejected(self, demo2):
        with pytest.raises(ValueError):
            draw_iid_samples(demo2, -1, rng=0)


class TestErmLearn:
    def test_separated_risks_picked_reliably(self):
        inst = constant_risk_class({"f1": 0.2, "f2": 0.4})
        hits = 0
        trials = 400
        for seed in range(trials):
            hits += erm_learn(inst, 0.1, 0.05, rng=seed).chosen_id == "f1"
        assert hits / trials >= 0.95

    def test_zero_loss_returns_first(self):
        inst = constant_risk_class({"a": 0.0, "b": 0.0})
        result = erm_learn(inst, 0.1, 0.1, rng=0)
        assert result.chosen_id == "a"
        assert all(v == 0.0 for v in result.empirical_risks.values())

    def test_samples_match_schedule(self, demo2):
        result = erm_learn(demo2, 0.1, 0.05, rng=0)
        assert result.samples_used == hoeffding_sample_size(1.0, 4, 0.1, 0.05)

    def test_empirical_risks_are_one_multinomial_draw(self, demo2):
        # Stream contract: the counts are one Multinomial(n, p) draw from rng.
        n = hoeffding_sample_size(1.0, 4, 0.2, 0.2)
        for seed in (11, 12, 13):
            result = erm_learn(demo2, 0.2, 0.2, rng=seed)
            counts = np.random.default_rng(seed).multinomial(n, demo2.probabilities)
            expected = demo2.losses @ counts / n
            assert result.empirical_risks == {f.id: float(e) for f, e in zip(demo2.hypotheses, expected)}

    def test_counts_follow_the_multinomial_law(self):
        # Hypothesis cj has loss 1 on support code j only, so its empirical
        # risk is count_j / n. About 1e9 draws per call: counting that many
        # i.i.d. codes would take 8 GB a call.
        probs = np.array([0.3, 0.2, 0.1, 0.4])
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        inst = table_loss_instance(
            probs,
            {f"c{j}": [[float((x, y) == cell) for y in (0, 1)] for x in (0, 1)] for j, cell in enumerate(cells)},
            bound=1.0,
        )
        seeds = 1000
        results = [erm_learn(inst, 1e-4, 0.05, rng=s) for s in range(seeds)]
        n = results[0].samples_used
        assert n > 10**9
        counts = np.array([[round(r.empirical_risks[f"c{j}"] * n) for j in range(4)] for r in results])
        assert np.all(counts.sum(axis=1) == n)
        var = n * probs * (1 - probs)
        # 5 standard errors for the mean; the sample variance's relative
        # standard error is sqrt(2 / (seeds - 1)).
        assert np.all(np.abs(counts.mean(axis=0) - n * probs) <= 5 * np.sqrt(var / seeds))
        assert np.all(np.abs(counts.var(axis=0, ddof=1) / var - 1) <= 5 * math.sqrt(2 / (seeds - 1)))

    def test_count_above_1e10_runs_in_constant_memory(self, demo2):
        start = time.perf_counter()
        result = erm_learn(demo2, 3e-5, 0.05, rng=1)
        elapsed = time.perf_counter() - start
        assert result.samples_used > 10**10
        assert result.chosen_id == best_hypothesis(demo2)
        assert elapsed < 0.5

    def test_exact_risks_would_reproduce_best_hypothesis(self, demo2):
        stats = exact_statistics(demo2)
        ids = list(stats.risks)
        assert min(ids, key=lambda i: stats.risks[i]) == best_hypothesis(demo2)

    @pytest.mark.parametrize("seed", range(3))
    def test_coverage_on_random_instances(self, seed):
        inst = random_instance(seed + 50, x_size=4, y_size=2, h_size=4)
        stats = exact_statistics(inst)
        best = stats.risks[stats.best_id]
        hits = 0
        trials = 80
        for t in range(trials):
            result = erm_learn(inst, 0.1, 0.1, rng=(seed, t))
            hits += stats.risks[result.chosen_id] - best <= 0.1
        assert hits / trials >= 0.85

    def test_sample_count_slope_is_inverse_quadratic(self, demo2):
        grid = [0.2, 0.1, 0.05, 0.025]
        counts = [hoeffding_sample_size(1.0, 4, e, 0.05) for e in grid]
        slope = np.polyfit(np.log(grid), np.log(counts), 1)[0]
        assert -2.3 <= slope <= -1.7
