"""Mean-estimator tests: schedules, median amplification, coverage, ledgers."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qal.checks import TV_TOL
from qal.engine import CapacityError, ae_error_bound
from qal.estimator import (
    estimate_batch,
    estimate_mean,
    median,
    outcome_laws,
    phase_bits_for_accuracy,
    repetitions_for_confidence,
    schedule,
)
from qal.problem import Hypothesis, ValidationError, random_instance
from conftest import constant_loss_instance, half_amplitude_instance


def scan_phase_bits(epsilon):
    """Independent oracle: scan the worst-case bound directly."""
    m = 1
    while math.pi / 2**m + math.pi**2 / 4**m > epsilon:
        m += 1
    return m


class TestSchedules:
    @pytest.mark.parametrize(
        "epsilon,expected", [(0.05, 7), (0.1, 6), (0.9, 3), (0.025, 8), (0.0125, 8)]
    )
    def test_phase_bits_examples(self, epsilon, expected):
        assert scan_phase_bits(epsilon) == expected
        assert phase_bits_for_accuracy(epsilon) == expected

    def test_phase_bits_meet_the_bound_tightly(self):
        for epsilon in (0.3, 0.11, 0.07, 0.004):
            m = phase_bits_for_accuracy(epsilon)
            assert ae_error_bound(0.5, m) <= epsilon
            assert m == 1 or ae_error_bound(0.5, m - 1) > epsilon

    def test_phase_bits_capacity_error(self):
        with pytest.raises(CapacityError, match="phase bits"):
            phase_bits_for_accuracy(1e-9, max_bits=12)

    def test_phase_bits_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            phase_bits_for_accuracy(0.0)
        with pytest.raises(ValueError):
            phase_bits_for_accuracy(1.0)

    # 6e-309 is subnormal, but its 1/delta is still a finite float.
    @pytest.mark.parametrize("delta,expected", [(0.05, 17), (0.5, 5), (0.1, 13), (6e-309, 3693)])
    def test_repetitions_examples(self, delta, expected):
        oracle = 2 * math.ceil(2.6 * math.log(1.0 / delta)) + 1
        assert oracle == expected
        assert repetitions_for_confidence(delta) == expected

    def test_repetitions_always_odd(self):
        for delta in np.linspace(0.01, 0.99, 23):
            assert repetitions_for_confidence(float(delta)) % 2 == 1

    def test_repetitions_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            repetitions_for_confidence(0.0)
        with pytest.raises(ValueError):
            repetitions_for_confidence(1.0)

    def test_repetitions_reject_delta_whose_inverse_overflows(self):
        # 1/delta is inf below about 5.6e-309; the count used to end in an
        # OverflowError from math.ceil(inf), a traceback with exit 1.
        with pytest.raises(ValueError, match="finite 1/delta"):
            repetitions_for_confidence(1e-320)

    @pytest.mark.parametrize("epsilon,delta", [(0.2, 0.2), (0.1, 0.05), (0.01, 1e-6), (1e-3, 6e-309)])
    def test_schedule_is_the_one_estimate_mean_runs(self, separation_instance, epsilon, delta):
        est = estimate_mean(separation_instance, separation_instance.hypotheses[0], epsilon, delta, rng=0)
        assert schedule(separation_instance, epsilon, delta) == (est.m, est.repetitions)

    @pytest.mark.parametrize(
        "epsilon,delta,error,start",
        [
            (1e-8, 1e-320, ValueError, "delta"),  # delta is checked before the depth
            (1.5, 1e-320, ValueError, "delta"),
            (1.5, 0.1, ValueError, "epsilon"),
            (1e-8, 0.1, CapacityError, "accuracy"),
        ],
    )
    def test_schedule_errors(self, demo2, epsilon, delta, error, start):
        with pytest.raises(error) as info:
            schedule(demo2, epsilon, delta)
        assert type(info.value) is error
        assert str(info.value).startswith(start)


class TestMedian:
    def test_singleton(self):
        assert median([0.1]) == 0.1

    def test_three_values(self):
        assert median([0.3, 0.1, 0.9]) == 0.3

    def test_duplicates(self):
        assert median([0.2, 0.2, 0.8, 0.2, 0.9]) == 0.2

    def test_rejects_empty_and_even(self):
        with pytest.raises(ValueError, match="empty"):
            median([])
        with pytest.raises(ValueError, match="odd"):
            median([0.1, 0.2])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=21).filter(lambda v: len(v) % 2 == 1))
    def test_is_the_middle_order_statistic(self, values):
        m = median(values)
        s = sorted(values)
        assert m == s[len(s) // 2]
        assert sum(v <= m for v in values) >= (len(values) + 1) // 2

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=15).filter(lambda v: len(v) % 2 == 1),
        st.randoms(),
    )
    def test_order_insensitive(self, values, pyrandom):
        shuffled = list(values)
        pyrandom.shuffle(shuffled)
        assert median(shuffled) == median(values)


class TestEstimateMean:
    def test_exactly_representable_constant_loss(self):
        # Rescaled loss 1/2 everywhere: the encoded phase is exactly a
        # quarter turn, so every repetition reads 1/2 and the estimate is
        # deterministic at any seed.
        inst = half_amplitude_instance()
        for seed in (0, 1, 2):
            result = estimate_mean(inst, "f", epsilon=0.3, delta=0.3, rng=seed)
            assert result.mu_hat == pytest.approx(0.5, abs=1e-12)
        assert set(np.round(result.raw_estimates, 12)) == {0.5}

    def test_zero_loss_is_exactly_zero(self):
        inst = constant_loss_instance(0.0)
        result = estimate_mean(inst, "f", epsilon=0.2, delta=0.2, rng=9)
        assert result.mu_hat == 0.0

    def test_demo2_coverage(self, demo2):
        # Exact risk of "identity" is 0.3; at (0.05, 0.1) the schedule
        # guarantees 90% coverage and typically does much better.
        hits = 0
        trials = 300
        for seed in range(trials):
            r = estimate_mean(demo2, "identity", epsilon=0.05, delta=0.1, rng=seed)
            hits += abs(r.mu_hat - 0.3) <= 0.05
        assert hits / trials >= 0.87

    def test_ledger_totals(self, demo2):
        result = estimate_mean(demo2, "identity", epsilon=0.05, delta=0.05, rng=0)
        assert result.m == 7
        assert result.repetitions == 17
        assert result.ledger.quantum_samples == 17 * (2**8 - 1) == 4335
        assert result.ledger.a_calls == 17 * 2**7
        assert result.ledger.a_inv_calls == 17 * (2**7 - 1)

    def test_estimate_scales_back_to_original_bound(self, separation_instance):
        result = estimate_mean(separation_instance, "sign", epsilon=0.2, delta=0.2, rng=4)
        assert 0.0 <= result.mu_hat <= separation_instance.loss.bound
        assert result.mu_hat == separation_instance.loss.bound * median(result.raw_estimates)

    def test_engine_modes_agree_exactly_per_seed(self, demo2):
        f = demo2.hypothesis("identity")
        sv = estimate_mean(demo2, f, epsilon=0.3, delta=0.3, rng=42, engine="statevector")
        an = estimate_mean(demo2, f, epsilon=0.3, delta=0.3, rng=42, engine="analytic")
        assert sv.raw_estimates == an.raw_estimates
        assert sv.mu_hat == an.mu_hat
        assert sv.ledger == an.ledger

    @pytest.mark.parametrize("m", range(8, 13))
    def test_engine_modes_agree_at_real_depths(self, m):
        kind = ["zero_one", "squared"][m % 2]
        inst = random_instance(m, x_size=3, y_size=3, h_size=2, loss_kind=kind)
        f = inst.hypotheses[m % 2]
        # Midway between the worst-case radii at m - 1 and m selects depth m.
        epsilon = inst.loss.bound * 0.5 * (ae_error_bound(0.5, m - 1) + ae_error_bound(0.5, m))
        sv = estimate_mean(inst, f, epsilon, delta=0.05, rng=m, engine="statevector")
        an = estimate_mean(inst, f, epsilon, delta=0.05, rng=m, engine="analytic")
        assert sv.m == an.m == m
        assert sv.raw_estimates == an.raw_estimates
        assert sv.mu_hat == an.mu_hat
        assert sv.ledger == an.ledger

    def test_unknown_engine_rejected(self, demo2):
        with pytest.raises(ValueError, match="engine"):
            estimate_mean(demo2, "identity", 0.2, 0.2, rng=0, engine="tensor")

    def test_unknown_hypothesis_rejected(self, demo2):
        with pytest.raises(Exception, match="unknown hypothesis"):
            estimate_mean(demo2, "nope", 0.2, 0.2, rng=0)

    def test_non_member_hypothesis_rejected(self, demo2):
        impostor = Hypothesis("identity", (1.0, 1.0))
        with pytest.raises(ValidationError, match="not part of the instance"):
            estimate_mean(demo2, impostor, 0.2, 0.2, rng=0)
        by_id = estimate_mean(demo2, "identity", 0.2, 0.2, rng=0)
        assert by_id == estimate_mean(demo2, demo2.hypothesis("identity"), 0.2, 0.2, rng=0)

    @pytest.mark.parametrize("rows", [[], [0, 4], [-1]], ids=["empty", "past-the-class", "negative"])
    def test_batch_rejects_rows_outside_the_class(self, demo2, rows):
        # Checked before any deviate is drawn: no bare IndexError, and -1
        # does not stand for the last member.
        with pytest.raises(ValidationError, match=r"^rows: .*0\.\.3"):
            estimate_batch(demo2, rows, 0.2, 0.2, rng=0)

    def test_batch_rejects_an_unknown_engine_before_drawing(self):
        # Rejected before the (|H|, R) deviate matrix is drawn, so the peak stays below its bytes.
        inst = random_instance(1, x_size=2, y_size=2, h_size=2**16)
        rows = np.arange(2**16)
        matrix_bytes = len(rows) * schedule(inst, 0.1, 1e-6)[1] * 8
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"^engine: must be one of \('statevector', 'analytic'\), got 'bogus'$"):
                estimate_batch(inst, rows, 0.1, 1e-6, rng=0, engine="bogus")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes

    @pytest.mark.parametrize("m", [8, 11, 12, 16])
    def test_engines_agree_at_the_bench_depths(self, demo2, separation_instance, m):
        # separation-grid runs m = 8 to 11; the circuit-engine comparisons elsewhere stop at m = 6.
        for inst in (separation_instance, demo2):
            rows = range(len(inst.hypotheses))
            simulated, analytic = outcome_laws(inst, rows, m, "statevector"), outcome_laws(inst, rows, m, "analytic")
            assert 0.5 * np.abs(simulated - analytic).sum(axis=1).max() <= TV_TOL

    def test_outcome_laws_names_an_unknown_engine(self, demo2):
        # The one engine rule: outcome_laws raises the same ValidationError as estimate_batch.
        with pytest.raises(ValidationError, match=r"^engine: must be one of \('statevector', 'analytic'\), got 'bogus'$"):
            outcome_laws(demo2, [0], 3, "bogus")

    def test_epsilon_must_stay_below_bound(self, demo2):
        with pytest.raises(ValueError, match="epsilon"):
            estimate_mean(demo2, "identity", epsilon=1.5, delta=0.1, rng=0)

    def test_capacity_error_propagates(self, demo2):
        with pytest.raises(CapacityError):
            estimate_mean(demo2, "identity", epsilon=1e-7, delta=0.1, rng=0)

    def test_deterministic_per_seed(self, demo2):
        a = estimate_mean(demo2, "identity", 0.1, 0.1, rng=314)
        b = estimate_mean(demo2, "identity", 0.1, 0.1, rng=314)
        assert a == b

    @pytest.mark.parametrize("seed", range(5))
    def test_estimate_within_unit_interval_times_bound(self, separation_instance, seed):
        r = estimate_mean(separation_instance, "antisign", epsilon=0.4, delta=0.3, rng=seed)
        assert 0.0 <= r.mu_hat <= separation_instance.loss.bound
        assert all(0.0 <= v <= 1.0 for v in r.raw_estimates)

    def test_query_scaling_slope(self, demo2):
        # Deterministic ledger totals across a 4-point accuracy grid.
        grid = [0.2, 0.1, 0.05, 0.025]
        totals = [
            estimate_mean(demo2, "identity", eps, 0.1, rng=0).ledger.quantum_samples
            for eps in grid
        ]
        slope = np.polyfit(np.log(grid), np.log(totals), 1)[0]
        assert -1.2 <= slope <= -0.8
