"""State-engine tests: preparation, loss rotation, phase estimation, laws."""
import math
import tracemalloc
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qal import engine
from qal.checks import with_garbage
from qal.engine import (
    QUBIT_CAP,
    CapacityError,
    QueryLedger,
    ae_error_bound,
    circuit_state,
    closed_form_ae_distribution,
    draw_outcome,
    estimate_from_phase,
    loss_encoded_state,
    marked_probability,
    phase_estimates,
    phase_law,
    prepare_data_state,
    run_ledger,
    simulate_ae_distribution,
    simulate_ae_state,
)
from qal.problem import Hypothesis, LossSpec, ProblemInstance, exact_risk, random_instance

from conftest import constant_loss_instance, half_amplitude_instance


def tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def law(state):
    """Outcome law of the phase register of a circuit state."""
    return np.sum(np.abs(state) ** 2, axis=1)


def expanded(circuit):
    """The (2^m, dim) state whose row y is coef[y] @ parts, for a circuit's (coef, parts)."""
    coef, parts = circuit
    return coef @ parts


def literal_circuit_state(psi, m):
    """Reference: the phase-estimation circuit on psi, applied gate by gate.

    Hadamards on the phase register, then for each phase bit j the
    controlled-Q^(2^j) on the rows whose bit j is set, then the Fourier
    transform. Q (sign flip on the marked branch, then the reflection about
    psi) is written out here rather than taken from the engine.
    """
    t = 2**m
    state = np.empty((t, psi.size), dtype=complex)
    state[:] = psi / math.sqrt(t)
    phase_values = np.arange(t)
    for j in range(m):
        rows = ((phase_values >> j) & 1) == 1
        block = state[rows]
        for _ in range(2**j):
            block[:, 1::2] *= -1.0
            block = 2.0 * (block @ psi.conj())[:, None] * psi[None, :] - block
        state[rows] = block
    return np.fft.fft(state, axis=0, norm="ortho")


def states_across_amplitudes_and_dims(m, max_entries):
    """Random states of marked mass a in {0, 1e-300, 1e-9, 0.3, 0.5, 1 - 1e-12, 1}, dims 2 to 1024
    with dim * 2^m <= max_entries, each also with a garbage register (twice the dim)."""
    rng = np.random.default_rng(m)
    for a in (0.0, 1e-300, 1e-9, 0.3, 0.5, 1.0 - 1e-12, 1.0):
        for dim in (2**e for e in range(1, 11) if 2**e * 2**m <= max_entries):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi[0::2] *= math.sqrt(1.0 - a) / np.linalg.norm(psi[0::2])
            psi[1::2] *= math.sqrt(a) / np.linalg.norm(psi[1::2])
            yield psi
            yield with_garbage(psi, rng)


# a = 0.5 +/- 1e-15 puts t phi a hair off a quarter turn; 1e-300 and 1 - 1e-12 put phi a hair off 0 and 1/2.
SPECIAL_AMPLITUDES = (0.0, 1e-300, 1e-9, 0.25, 0.5, 0.5 - 1e-15, 0.5 + 1e-15, 1.0 - 1e-12, 1.0)
DECIMAL_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def decimal_sin_pi(u):
    """sin(pi u) up to sign, by its Taylor series in the current decimal context, after reducing u to [-1/2, 1/2]."""
    x = (u - u.to_integral_value()) * DECIMAL_PI
    term, total, k = x, x, 1
    while abs(term) > Decimal(10) ** (-getcontext().prec - 2):
        term = -term * x * x / ((k + 1) * (k + 2))
        total, k = total + term, k + 2
    return total


def decimal_law(a, m):
    """Reference law at 50 digits: (K(y/t - phi) + K(y/t + phi)) / 2, K(d) = sin^2(pi t d) / (t sin(pi d))^2.

    phi is the double the engine takes, asin(sqrt(a))/pi: an exactly computed phi moves the law by up to
    2.4e-12 at m = 8 through the rounding of asin and sqrt alone.
    """
    t = 2**m
    with localcontext() as ctx:
        ctx.prec = 50
        phi = Decimal(math.asin(math.sqrt(a)) / math.pi)

        def kernel(delta):
            den = t * decimal_sin_pi(delta)
            return Decimal(1) if den == 0 else (decimal_sin_pi(t * delta) / den) ** 2

        return np.array([float((kernel(Decimal(y) / t - phi) + kernel(Decimal(y) / t + phi)) / 2) for y in range(t)])


def alloc_peak(call, *args):
    """tracemalloc peak, in bytes, of one call(*args) after a warm-up call."""
    call(*args)  # the warm-up fills numpy's FFT plan cache
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPrepareDataState:
    def test_demo2_amplitudes(self, demo2):
        amps = prepare_data_state(demo2)
        expected = np.sqrt([0.3, 0.2, 0.1, 0.4])
        assert np.allclose(amps, expected, atol=1e-15)
        assert np.allclose(np.imag(amps), 0.0)

    def test_point_mass_single_amplitude(self):
        inst = ProblemInstance(
            x_size=1, y_values=(0.0,), k=1, x=(0,), y_index=(0,), probabilities=(1.0,),
            hypotheses=(Hypothesis("f", (0.0,)),), loss=LossSpec("zero_one", 1.0),
        )
        amps = prepare_data_state(inst)
        assert amps[0] == 1.0
        assert np.all(amps[1:] == 0.0)


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
        inst = ProblemInstance(
            x_size=1, y_values=(0.0,), k=1, x=(0,), y_index=(0,), probabilities=(1.0,),
            hypotheses=(Hypothesis("f", (0.0,)),),
            loss=LossSpec("table", 1.0, table={"f": ((0.25,),)}),
        )
        state = loss_encoded_state(inst, inst.hypotheses[0])
        assert state[0] == pytest.approx(math.sqrt(0.75), abs=1e-15)
        assert state[1] == pytest.approx(0.5, abs=1e-15)


class TestWithGarbage:
    def test_is_normalized_and_twice_the_size(self, demo2):
        psi = loss_encoded_state(demo2, demo2.hypothesis("identity"))
        garbled = with_garbage(psi, 3)
        assert garbled.size == 2 * psi.size
        assert np.linalg.norm(garbled) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["zero_one", "squared"])
    def test_summing_out_the_garbage_gives_back_psi(self, seed, kind):
        inst = random_instance(seed, x_size=3, y_size=2, h_size=2, loss_kind=kind)
        psi = loss_encoded_state(inst, inst.hypotheses[1])
        garbled = with_garbage(psi, seed).reshape(2, psi.size)
        assert np.abs(np.sum(np.abs(garbled) ** 2, axis=0) - np.abs(psi) ** 2).max() <= 1e-12
        # Both ancilla values of a data code carry the same garbage qubit, so
        # each half keeps psi's loss split code by code.
        split = garbled.reshape(2, -1, 2)
        psi = psi.reshape(-1, 2)
        assert np.abs(split[..., 1] * psi[:, 0] - split[..., 0] * psi[:, 1]).max() <= 1e-12


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


class TestPhaseEstimation:
    def test_zero_amplitude_reads_zero(self):
        inst = constant_loss_instance(0.0)
        dist = simulate_ae_distribution(inst, inst.hypotheses[0], m=3)
        assert dist[0] == pytest.approx(1.0, abs=1e-12)
        ys = draw_outcome(np.cumsum(dist), np.random.default_rng(0).random(5))
        assert ys.tolist() == [0] * 5
        assert estimate_from_phase(0, 3) == 0.0

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
        state = expanded(simulate_ae_state(demo2, demo2.hypothesis("identity"), m=6))
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10

    def test_garbage_leaves_distribution_unchanged(self, demo2):
        f = demo2.hypothesis("identity")
        plain = simulate_ae_distribution(demo2, f, m=4)
        garbled = law(expanded(circuit_state(with_garbage(loss_encoded_state(demo2, f), 11), 4)))
        assert tv(plain, garbled) <= 1e-9

    @pytest.mark.parametrize("garbage", [False, True])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_literal_circuit(self, m, garbage):
        # Loss-encoded states of dim 32 and 128 (64 and 256 with garbage).
        kind = ["zero_one", "squared"][m % 2]
        for size in (3, 8):
            inst = random_instance(m, x_size=size, y_size=size, h_size=2, loss_kind=kind)
            psi = loss_encoded_state(inst, inst.hypotheses[m % 2])
            if garbage:
                psi = with_garbage(psi, 5)
            state = expanded(circuit_state(psi, m))
            reference = literal_circuit_state(psi, m)
            assert state.shape == reference.shape
            assert np.abs(state - reference).max() <= 1e-12

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_literal_circuit_across_amplitudes_and_dims(self, m):
        # Marked mass a from 0 to 1, so one part of the state can be all
        # zeros or nearly so, on dims 2 to 1024 with and without garbage;
        # the widest states run at the shallow depths to keep the reference cheap.
        for state in states_across_amplitudes_and_dims(m, 2**14):
            assert np.abs(expanded(circuit_state(state, m)) - literal_circuit_state(state, m)).max() <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 12])
    def test_phase_law_equals_the_expanded_state_law(self, m):
        # The Gram form of the law against |z|^2 summed over the written state.
        for state in states_across_amplitudes_and_dims(m, 2**18):
            coef, parts = circuit_state(state, m)
            assert np.abs(phase_law(coef, parts) - law(coef @ parts)).max() <= 1e-15

    @pytest.mark.parametrize("m", [1, 2, 6, 12])
    def test_non_involutive_sign_flip_drifts_the_norm(self, demo2, monkeypatch, m):
        # Z^2 != I breaks the plane of the parts; the norm checks must catch
        # it, also at m = 12, where the rows overflow and the norm is NaN.
        def scaled_flip(v):
            v[..., 1::2] *= -1.5

        psi = loss_encoded_state(demo2, demo2.hypothesis("identity"))
        monkeypatch.setattr(engine, "_apply_projector_reflection", scaled_flip)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="state norm drifted"):
            circuit_state(psi, m)

    def test_register_over_the_cap_rejected(self, demo2):
        # One qubit over the cap: raised before any state is allocated.
        with pytest.raises(CapacityError, match="cap"):
            simulate_ae_distribution(demo2, demo2.hypothesis("identity"), m=QUBIT_CAP - demo2.k)


class TestWorkingSet:
    """The circuit holds its (2^m, 2) coordinates and never writes the (2^m, dim) state.

    The coordinates are 2 / dim states (0.25 at dim 8). The law adds one (2^m, 4)
    real product, as many bytes as the coordinates, and the law itself. The state
    bounds below leave room for numpy's fixed buffers; the coordinate bound is
    what a written state breaks at every dim above 2.
    """

    # Deep-narrow dim 8 at m = 12 and shallow-wide dim 128 at m = 10. Both take
    # the one doubling loop; the labels only keep the test ids stable.
    SHAPES = [("doubling", 2, 12), ("row-loop", 8, 10)]

    @staticmethod
    def instance(path, size, m):
        inst = random_instance(1, x_size=size, y_size=size, h_size=2)
        psi = loss_encoded_state(inst, inst.hypotheses[0])
        return inst, psi, 2**m * psi.size * np.dtype(complex).itemsize

    @pytest.mark.parametrize("path,size,m", SHAPES)
    def test_circuit_state_peak(self, path, size, m):
        _, psi, state_bytes = self.instance(path, size, m)
        assert alloc_peak(circuit_state, psi, m) <= 1.25 * state_bytes

    @pytest.mark.parametrize("path,size,m", SHAPES)
    def test_outcome_law_peak(self, path, size, m):
        inst, _, state_bytes = self.instance(path, size, m)
        assert alloc_peak(simulate_ae_distribution, inst, inst.hypotheses[0], m) <= 1.6 * state_bytes

    @pytest.mark.parametrize("dim,m", [(2, 12), (8, 12), (128, 10)])
    def test_outcome_law_holds_only_coordinates(self, dim, m):
        # 2.5 coordinate bytes (the coordinates, the (2^m, 4) product and the
        # law read 2.26) plus a kilobyte per system entry for the parts.
        coordinate_bytes = 2**m * 2 * np.dtype(complex).itemsize
        if dim == 2:  # no instance has k = 0: the circuit and law of simulate_ae_distribution on a uniform psi
            psi = np.full(dim, dim**-0.5, dtype=complex)
            peak = alloc_peak(lambda: phase_law(*circuit_state(psi, m)))
        else:
            inst, psi, _ = self.instance("law", math.isqrt(dim // 2), m)
            assert psi.size == dim
            peak = alloc_peak(simulate_ae_distribution, inst, inst.hypotheses[0], m)
        assert peak <= 2.5 * coordinate_bytes + 1024 * dim


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

    @pytest.mark.parametrize("m", range(1, 15))
    def test_batched_rows_equal_the_scalar_laws(self, m):
        t = 2**m
        rng = np.random.default_rng(m)
        # 0 and 1 put the kernel's zero denominator at y = 0 and y = t/2;
        # sin^2(pi/4) = 0.5 puts a phase on a grid point too.
        amps = (0.0, 0.5, 1.0, math.sin(math.pi / 4) ** 2, *rng.random(20).tolist(), 0.0, 1.0)
        laws = closed_form_ae_distribution(amps, m)
        assert laws.shape == (len(amps), t)
        for a, law in zip(amps, laws):
            alone = closed_form_ae_distribution(a, m)
            assert alone.shape == (t,)
            assert np.array_equal(law, alone)
        assert np.array_equal(closed_form_ae_distribution(list(amps[:3]), m), laws[:3])
        assert laws[0, 0] == laws[2, t // 2] == 1.0  # the denominator-zero entries take the kernel's limit

    def test_empty_batch_has_no_rows(self):
        assert closed_form_ae_distribution((), 3).shape == (0, 8)

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_matches_the_decimal_reference(self, m):
        amps = (*SPECIAL_AMPLITUDES, *np.random.default_rng(m).random(3).tolist())
        for a, law in zip(amps, closed_form_ae_distribution(amps, m)):
            assert np.abs(law - decimal_law(a, m)).max() <= 1e-15, a

    @pytest.mark.parametrize("m", [12, 16, 20, 22])
    def test_mass_is_one(self, m):
        for a in (*SPECIAL_AMPLITUDES, *np.random.default_rng(m).random(2).tolist()):
            assert abs(closed_form_ae_distribution(a, m).sum() - 1.0) <= 1e-14, a

    @pytest.mark.parametrize("m", range(1, 15))
    def test_law_is_its_own_reflection(self, m):
        # The kernels at +phi and -phi are reflections of each other, so their mixture is symmetric bit for bit.
        t = 2**m
        laws = closed_form_ae_distribution((*SPECIAL_AMPLITUDES, *np.random.default_rng(m).random(20).tolist()), m)
        assert np.array_equal(laws, laws[:, -np.arange(t)])

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, math.nan, math.inf])
    @pytest.mark.parametrize("where", [0, 2])
    def test_batched_rejects_any_bad_amplitude(self, bad, where):
        amps = [0.2, 0.4, 0.6]
        amps[where] = bad
        with pytest.raises(ValueError, match=r"^a must lie in \[0, 1\], got "):
            closed_form_ae_distribution(tuple(amps), 4)
        with pytest.raises(ValueError, match=r"^a must lie in \[0, 1\], got "):
            closed_form_ae_distribution(bad, 4)

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
            assert run_ledger(m, runs=17) == QueryLedger(17 * 2**m, 17 * (2**m - 1))

    def test_sampler_quick_coverage(self):
        # Outcome draws should respect the error radius about 8/pi^2 of the time.
        a, m, n = 0.3, 5, 400
        rng = np.random.default_rng(77)
        radius = ae_error_bound(a, m)
        dist = closed_form_ae_distribution(a, m)
        ys = draw_outcome(np.cumsum(dist), rng.random(n))
        hits = np.sum(np.abs(phase_estimates(m)[ys] - a) <= radius)
        assert hits / n >= 0.75

    def test_draw_is_the_inverse_cdf(self):
        # Deviate u maps to the first outcome whose cumulative mass exceeds
        # it; a deviate at or past the last entry maps to the last outcome.
        cdf = np.cumsum([0.25, 0.0, 0.5, 0.25 - 1e-12])
        u = np.array([0.0, 0.2499, 0.25, 0.7, 0.75, 1.0 - 1e-13])
        assert draw_outcome(cdf, u).tolist() == [0, 0, 2, 2, 3, 3]

    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_phase_table_keeps_the_scalar_bits(self, m):
        assert phase_estimates(m).tolist() == [estimate_from_phase(y, m) for y in range(2**m)]
        assert not phase_estimates(m).flags.writeable  # shared between callers


class TestLayout:
    """The register rules, on both circuit entry points."""

    def test_total_and_cap(self, demo2, monkeypatch):
        f = demo2.hypothesis("identity")
        psi = loss_encoded_state(demo2, f)  # k + 1 = 3 qubits
        coef, parts = circuit_state(psi, 5)
        assert (coef.shape, parts.shape, (coef @ parts).shape) == ((2**5, 2), (2, 2**3), (2**5, 2**3))
        with pytest.raises(CapacityError, match=f"{QUBIT_CAP + 1} qubits"):
            circuit_state(psi, QUBIT_CAP - 2)

        # One qubit over the cap is rejected before any state is allocated.
        def never(*args):
            raise AssertionError("a state was allocated")

        monkeypatch.setattr(engine, "loss_encoded_state", never)
        with pytest.raises(CapacityError, match=f"{QUBIT_CAP + 1} qubits"):
            simulate_ae_state(demo2, f, QUBIT_CAP - demo2.k)

    @pytest.mark.parametrize("shape", [(1,), (6,), (2, 4)])
    def test_rejects_psi_that_is_not_a_register_state(self, shape):
        psi = np.zeros(shape, dtype=complex)
        psi.flat[0] = 1.0
        with pytest.raises(ValueError, match="power of two"):
            circuit_state(psi, 3)

    @pytest.mark.parametrize("scale", [2.0, np.nan])
    def test_rejects_unnormalized_psi(self, demo2, scale):
        # Checked up front, not reported as a norm drift after the circuit.
        psi = scale * loss_encoded_state(demo2, demo2.hypothesis("identity"))
        with pytest.raises(ValueError, match="normalized"):
            circuit_state(psi, 3)

    def test_rejects_empty_registers(self, demo2):
        f = demo2.hypothesis("identity")
        with pytest.raises(ValueError, match="m >= 1"):
            simulate_ae_state(demo2, f, 0)
        with pytest.raises(ValueError, match="m >= 1"):
            circuit_state(loss_encoded_state(demo2, f), 0)
        with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
            closed_form_ae_distribution(0.5, 0)
