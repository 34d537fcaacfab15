"""State-engine tests: preparation, loss rotation, phase estimation, laws."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qal.engine import (
    CapacityError,
    QubitLayout,
    _apply_state_reflection,
    ae_error_bound,
    closed_form_ae_distribution,
    draw_outcome,
    estimate_from_phase,
    loss_encoded_state,
    marked_probability,
    prepare_data_state,
    run_ledger,
    simulate_ae_distribution,
    simulate_ae_state,
)
from qal.problem import LossSpec, exact_risk, make_instance, random_instance

from conftest import constant_loss_instance, half_amplitude_instance


def tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class TestPrepareDataState:
    def test_demo2_amplitudes(self, demo2):
        amps = prepare_data_state(demo2)
        expected = np.sqrt([0.3, 0.2, 0.1, 0.4])
        assert np.allclose(amps, expected, atol=1e-15)
        assert np.allclose(np.imag(amps), 0.0)

    def test_point_mass_single_amplitude(self):
        inst = make_instance(
            x_size=1, y_values=[0.0], k=1, support=[(0, 0, 1.0)],
            hypotheses=[("f", [0.0])], loss=LossSpec("zero_one", 1.0),
        )
        amps = prepare_data_state(inst)
        assert amps[0] == 1.0
        assert np.all(amps[1:] == 0.0)

    def test_garbage_mode_is_normalized_and_bigger(self, demo2):
        amps = prepare_data_state(demo2, garbage_mode=True, rng=3)
        assert amps.size == 2 ** (demo2.k + 1)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_register_too_small_for_support(self, demo2):
        shrunk = dataclasses.replace(demo2, k=1)  # bypasses load-time validation
        with pytest.raises(CapacityError, match="support"):
            prepare_data_state(shrunk)


class TestLossRotation:
    def test_zero_loss_leaves_state_unchanged(self):
        inst = constant_loss_instance(0.0)
        state = loss_encoded_state(inst, inst.hypotheses[0])
        assert np.all(state[1::2] == 0.0)
        assert np.allclose(np.abs(state[0::2]) ** 2, [0.5, 0.5])

    def test_full_loss_flips_ancilla(self):
        inst = constant_loss_instance(1.0)
        state = loss_encoded_state(inst, inst.hypotheses[0])
        assert np.allclose(state[0::2], 0.0, atol=1e-15)
        assert np.allclose(np.abs(state[1::2]) ** 2, [0.5, 0.5])

    def test_quarter_loss_on_point_mass(self):
        inst = make_instance(
            x_size=1, y_values=[0.0], k=1, support=[(0, 0, 1.0)],
            hypotheses=[("f", [0.0])],
            loss=LossSpec("table", 1.0, table={"f": ((0.25,),)}),
        )
        state = loss_encoded_state(inst, inst.hypotheses[0])
        assert state[0] == pytest.approx(math.sqrt(0.75), abs=1e-15)
        assert state[1] == pytest.approx(0.5, abs=1e-15)

    def test_out_of_range_loss_is_a_contract_violation(self):
        inst = constant_loss_instance(0.5)
        bad = dataclasses.replace(
            inst, loss=LossSpec("table", 1.0, table={"f": ((1.5,), (0.0,))})
        )
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            loss_encoded_state(bad, bad.hypotheses[0])


class TestMarkedProbability:
    def test_demo2_identity(self, demo2):
        f = demo2.hypothesis("identity")
        a = marked_probability(loss_encoded_state(demo2, f))
        assert a == pytest.approx(0.3, abs=1e-12)

    def test_zero_and_full(self):
        assert marked_probability(loss_encoded_state(*_inst_f(constant_loss_instance(0.0)))) == 0.0
        assert marked_probability(
            loss_encoded_state(*_inst_f(constant_loss_instance(1.0)))
        ) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", ["zero_one", "squared"])
    def test_matches_rescaled_exact_risk(self, seed, kind):
        inst = random_instance(seed, x_size=3, y_size=3, h_size=3, loss_kind=kind)
        for f in inst.hypotheses:
            a = marked_probability(loss_encoded_state(inst, f))
            assert abs(a - exact_risk(inst, f) / inst.loss.bound) <= 1e-10


def _inst_f(inst):
    return inst, inst.hypotheses[0]


class TestStateReflection:
    def test_fixes_axis_and_negates_orthogonal(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        fixed = _apply_state_reflection(psi[None, :].copy(), psi)[0]
        assert np.linalg.norm(fixed - psi) <= 1e-10
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v -= (psi.conj() @ v) * psi
        v /= np.linalg.norm(v)
        negated = _apply_state_reflection(v[None, :].copy(), psi)[0]
        assert np.linalg.norm(negated + v) <= 1e-10


class TestPhaseEstimation:
    def test_zero_amplitude_reads_zero(self):
        inst = constant_loss_instance(0.0)
        dist = simulate_ae_distribution(inst, inst.hypotheses[0], m=3)
        assert dist[0] == pytest.approx(1.0, abs=1e-12)
        y = draw_outcome(dist, np.random.default_rng(0))
        assert y == 0
        assert estimate_from_phase(y, 3) == 0.0

    def test_half_amplitude_exact_phase(self):
        inst = half_amplitude_instance()
        dist = simulate_ae_distribution(inst, inst.hypotheses[0], m=2)
        assert dist[1] == pytest.approx(0.5, abs=1e-12)
        assert dist[3] == pytest.approx(0.5, abs=1e-12)
        assert dist[0] == pytest.approx(0.0, abs=1e-12)
        assert estimate_from_phase(1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_demo2_matches_closed_form(self, demo2):
        f = demo2.hypothesis("identity")
        sim = simulate_ae_distribution(demo2, f, m=5)
        law = closed_form_ae_distribution(0.3, 5)
        assert tv(sim, law) <= 1e-9

    def test_norm_drift_through_full_circuit(self, demo2):
        state = simulate_ae_state(demo2, demo2.hypothesis("identity"), m=6)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10

    def test_garbage_mode_leaves_distribution_unchanged(self, demo2):
        f = demo2.hypothesis("identity")
        plain = simulate_ae_distribution(demo2, f, m=4)
        garbled = simulate_ae_distribution(demo2, f, m=4, garbage_mode=True, rng=11)
        assert tv(plain, garbled) <= 1e-9

    def test_qubit_cap_enforced(self, demo2):
        with pytest.raises(CapacityError, match="cap"):
            simulate_ae_distribution(demo2, demo2.hypothesis("identity"), m=4, qubit_cap=4)


class TestClosedFormLaw:
    def test_zero_amplitude_all_mass_at_zero(self):
        for m in (1, 3, 5):
            dist = closed_form_ae_distribution(0.0, m)
            assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_full_amplitude_mass_at_half_turn(self):
        dist = closed_form_ae_distribution(1.0, 2)
        assert dist[2] == pytest.approx(1.0, abs=1e-12)

    def test_half_amplitude_exact_split(self):
        dist = closed_form_ae_distribution(0.5, 2)
        assert np.allclose(dist, [0.0, 0.5, 0.0, 0.5], atol=1e-12)

    def test_rejects_out_of_range_amplitude(self):
        with pytest.raises(ValueError):
            closed_form_ae_distribution(1.5, 3)

    @settings(max_examples=80, deadline=None)
    @given(a=st.floats(0.0, 1.0), m=st.integers(1, 6))
    def test_law_is_a_symmetric_distribution(self, a, m):
        dist = closed_form_ae_distribution(a, m)
        t = 2**m
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist >= -1e-15)
        for y in range(1, t):
            assert dist[y] == pytest.approx(dist[t - y], abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(y=st.integers(0, 255), m=st.integers(1, 8))
    def test_estimate_symmetric_under_phase_conjugation(self, y, m):
        t = 2**m
        y = y % t
        assert estimate_from_phase(y, m) == pytest.approx(
            estimate_from_phase((t - y) % t, m), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_statevector_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(
            seed, x_size=int(rng.integers(2, 4)), y_size=2, h_size=2,
            loss_kind=["zero_one", "squared"][seed % 2],
        )
        f = inst.hypotheses[seed % 2]
        m = int(rng.integers(2, 7))
        sim = simulate_ae_distribution(inst, f, m)
        law = closed_form_ae_distribution(exact_risk(inst, f) / inst.loss.bound, m)
        assert tv(sim, law) <= 1e-9


class TestLedgerAndSampler:
    def test_run_ledger_closed_form(self):
        for m in range(1, 9):
            ledger = run_ledger(m)
            assert ledger.a_calls == 2**m
            assert ledger.a_inv_calls == 2**m - 1
            assert ledger.quantum_samples == 2 ** (m + 1) - 1

    def test_sampler_quick_coverage(self):
        # Outcome draws should respect the error radius about 8/pi^2 of the time.
        a, m, n = 0.3, 5, 400
        rng = np.random.default_rng(77)
        radius = ae_error_bound(a, m)
        dist = closed_form_ae_distribution(a, m)
        hits = sum(abs(estimate_from_phase(draw_outcome(dist, rng), m) - a) <= radius for _ in range(n))
        assert hits / n >= 0.75


class TestLayout:
    def test_total_and_cap(self):
        layout = QubitLayout(k=3, m=5)
        assert layout.total == 9
        with pytest.raises(CapacityError):
            QubitLayout(k=20, m=10)

    def test_rejects_empty_registers(self):
        with pytest.raises(ValueError):
            QubitLayout(k=0, m=1)
        with pytest.raises(ValueError):
            QubitLayout(k=1, m=0)
