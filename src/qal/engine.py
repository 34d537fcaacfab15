"""Exact statevector simulation of the amplitude-estimation circuit family.

The register layout, most significant to least significant, is

    [m phase bits] [k data qubits] [loss ancilla]

Data preparation loads sqrt(p_z) onto the dense support codes; the loss
rotation moves sqrt of the rescaled loss onto the ancilla-one branch, so
the ancilla-one mass of the prepared state equals the rescaled expected
loss. The phase-estimation iterate alternates a sign flip on ancilla-one
basis states with a reflection about the prepared state, and the measured
phase register y maps to the estimate a_hat = sin^2(pi y / 2^m). The
circuit runs on any prepared state whose last qubit is the loss ancilla,
so registers above the data (garbage, in the self-checks) ride along.

`circuit_state` returns the state factored: every row Q^y psi is coef[y] @ P
for psi's unmarked and marked parts P, so the doubling of the controlled powers
and the inverse Fourier transform (fft(C P) = fft(C) P) act on the (2^m, 2)
coef, and `phase_law` reads |row y|^2 from coef[y] and the parts' Gram matrix.

`closed_form_ae_distribution` gives the same outcome law analytically:
the prepared state splits evenly between two conjugate eigenvectors of
the iterate, so the phase register follows an equal mixture of two
Fejer-type kernels centered at +/- asin(sqrt(a))/pi. It serves as an
independent oracle for the simulated path and as a fast sampler; D
amplitudes give their D laws as one (D, 2^m) array expression.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .problem import Hypothesis, ProblemInstance

QUBIT_CAP = 24  # the full statevector of the register must fit in memory
NORM_TOL = 1e-10


class CapacityError(RuntimeError):
    """A requested register layout exceeds the qubit cap."""


@dataclass(frozen=True)
class QueryLedger:
    """Oracle accounting: state-preparation and loss-rotation calls."""

    a_calls: int = 0
    a_inv_calls: int = 0

    @property
    def quantum_samples(self) -> int:
        """Total preparation-unitary invocations, forward plus inverse."""
        return self.a_calls + self.a_inv_calls


def run_ledger(m: int, runs: int = 1) -> QueryLedger:
    """Closed-form counts for `runs` runs at depth 2^m.

    One preparation plus one forward and one inverse call per reflection;
    there are 2^m - 1 reflections, so a run costs 2^(m+1) - 1 calls.
    """
    t = 2**m
    return QueryLedger(a_calls=runs * t, a_inv_calls=runs * (t - 1))


def _check_register(system_qubits: int, m: int) -> None:
    """Reject an empty phase register or a register over the qubit cap."""
    if m < 1:
        raise ValueError(f"phase register needs m >= 1, got m={m}")
    if system_qubits + m > QUBIT_CAP:
        raise CapacityError(f"{system_qubits + m} qubits ({system_qubits} system, m={m}) exceed the cap of {QUBIT_CAP}")


def _real_gram(parts: np.ndarray) -> np.ndarray:
    """Gram matrix G of the float views of (p_0, i p_0, p_1, i p_1): |(C P)[y]|^2 = R[y] G R[y]^T, R = C.view(float)."""
    (g00, g01), (_, g11) = (parts.conj()[:, None] * parts).sum(axis=2).tolist()  # pairwise; BLAS rounds to 1e-15
    x, y = g01.real, g01.imag  # <a p_i, b p_j> is Re(conj(a) b p_i^H p_j); g01 may be nonzero
    return np.array([[g00.real, 0.0, x, -y], [0.0, g00.real, y, x], [x, y, g11.real, 0.0], [-y, x, 0.0, g11.real]])


def _check_norm(state: np.ndarray, parts: np.ndarray | None = None) -> None:
    """Raise if the norm of state, or of C @ parts for coordinates C = state, drifts from one."""
    if parts is None:
        norm = np.linalg.norm(state)
    else:  # 4x4 products only
        norm = math.sqrt(np.sum((state.view(float).T @ state.view(float)) * _real_gram(parts)))
    drift = abs(norm - 1.0)
    if not drift <= NORM_TOL:  # a NaN norm fails too
        raise RuntimeError(f"state norm drifted by {drift:.3e} (> {NORM_TOL})")


def prepare_data_state(inst: ProblemInstance) -> np.ndarray:
    """Load sqrt(p_z) onto the support codes of the data register."""
    amps = np.zeros(2**inst.k, dtype=complex)
    amps[: len(inst.probabilities)] = np.sqrt(inst.probabilities)
    return amps


def loss_encoded_state(inst: ProblemInstance, f: Hypothesis) -> np.ndarray:
    """Prepare the data state, append a fresh loss ancilla, and rotate it.

    The rotation acts per basis state: amplitude on |z>|0> splits into
    sqrt(1 - L(z)) |z>|0> + sqrt(L(z)) |z>|1>, L the rescaled loss.
    """
    amps = prepare_data_state(inst)
    vals = np.zeros(amps.size)
    vals[: len(inst.probabilities)] = inst.losses[inst.row(f)] / inst.loss.bound
    state = np.empty((amps.size, 2), dtype=complex)
    state[:, 0] = amps * np.sqrt(1.0 - vals)
    state[:, 1] = amps * np.sqrt(vals)
    state = state.reshape(-1)
    _check_norm(state)
    return state


def marked_probability(state: np.ndarray) -> float:
    """Probability mass on basis states whose loss ancilla reads one."""
    return float(np.sum(np.abs(state[1::2]) ** 2))


def _apply_projector_reflection(v: np.ndarray) -> None:
    """Sign flip on ancilla-one basis states (the last axis), in place."""
    v[..., 1::2] *= -1.0


def circuit_state(psi: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Run the phase-estimation circuit on psi; return the pre-measurement state as (coef, parts).

    psi is a normalized prepared state whose last qubit is the loss ancilla; a psi whose size is not
    a power of two >= 2, or whose norm is not one, raises ValueError before any array is allocated.
    Row y of the state, phase register value y by system basis state, is coef[y] @ parts for coef of
    shape (2^m, 2). After the Hadamards and the controlled powers Q^(2^j), row y is exactly
    Q^y psi / sqrt(2^m); Q = S Z, Z the sign flip on ancilla-one states and S the reflection about psi.

    Every row lies in the plane of the parts P = ((psi + Z psi) / 2, (psi - Z psi) / 2): Z P = F P,
    F = diag(1, -1), and S p = 2 <psi|p> psi - p. So Q maps coordinates c to c (I + M_0) with
    M_0 = P P^H [[2, 2], [-2, -2]] - F - I, and phase bit j maps coef[:2^j] through I + M_j,
    M_(j+1) = 2 M_j + M_j^2 (the identity in Q^(2^j) is never rounded into M_j; unlike (psi, Z psi),
    the parts stay orthogonal as the marked mass nears 0 or 1).
    """
    if psi.ndim != 1 or psi.size < 2 or psi.size & (psi.size - 1):
        raise ValueError(f"psi must be a vector whose size is a power of two >= 2, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"psi must be normalized, got norm {norm:.6g}")
    _check_register(psi.size.bit_length() - 1, m)
    t = 2**m
    z_psi = psi.copy()
    _apply_projector_reflection(z_psi)
    parts = np.array([psi + z_psi, psi - z_psi]) / 2.0  # unmarked and marked parts: psi = p_0 + p_1, Z psi = p_0 - p_1
    coef = np.empty((t, 2), dtype=complex)
    coef[0] = 1.0 / math.sqrt(t)  # Hadamards on the phase register
    eye = np.eye(2)
    step = parts @ parts.conj().T @ np.array([[2.0, 2.0], [-2.0, -2.0]]) - np.diag([2.0, 0.0])  # M_0
    for j in range(m):
        np.matmul(coef[: 2**j], eye + step, out=coef[2**j : 2 ** (j + 1)])
        step = 2.0 * step + step @ step
    np.fft.fft(coef, axis=0, norm="ortho", out=coef)  # inverse Fourier transform on the phase axis: fft(C P) = fft(C) P
    _check_norm(coef, parts)  # through the parts, exactly the rows' norm
    return coef, parts


def simulate_ae_state(inst: ProblemInstance, f: Hypothesis, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The circuit on f's loss-encoded state, as (coef, parts); the register is checked first."""
    _check_register(inst.k + 1, m)
    return circuit_state(loss_encoded_state(inst, f), m)


def phase_law(coef: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Outcome law of the phase register of a circuit state (coef, parts): |coef[y] @ parts|^2 for each y."""
    quad = coef.view(float) @ _real_gram(parts)
    quad *= coef.view(float)
    return quad @ np.ones(4)  # R[y] G R[y]^T: it sums to the squared norm the circuit checks


def simulate_ae_distribution(inst: ProblemInstance, f: Hypothesis, m: int) -> np.ndarray:
    """Exact probabilities of each phase-register outcome y."""
    return phase_law(*simulate_ae_state(inst, f, m))


def draw_outcome(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: the outcome of each uniform deviate in u.

    cdf is the cumulative sum of an outcome law. Its last entry can round
    to just under one; a deviate at or past it maps to the last outcome.
    """
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def estimate_from_phase(y: int, m: int) -> float:
    return math.sin(math.pi * y / 2**m) ** 2


@functools.lru_cache(maxsize=8)
def phase_estimates(m: int) -> np.ndarray:
    """estimate_from_phase(y, m) for every outcome y of a depth-2^m register.

    A table costs 2^m Python sin calls, as much as the rest of a small
    learner run at m = 11, so the last few are kept. They are read-only
    because every caller shares them.
    """
    table = np.array([estimate_from_phase(y, m) for y in range(2**m)])
    table.flags.writeable = False
    return table


def _phase_kernel(delta: np.ndarray, t: int) -> np.ndarray:
    """Squared magnitude of the phase-estimation kernel at offset delta."""
    num = np.sin(np.pi * t * delta) ** 2
    den = (t * np.sin(np.pi * delta)) ** 2
    return np.divide(num, den, out=np.ones_like(num), where=den != 0.0)


def closed_form_ae_distribution(a: float | tuple[float, ...], m: int) -> np.ndarray:
    """Exact outcome law of the phase register, without simulating.

    Equal-weight mixture of the kernels at the two conjugate eigenphases
    +/- asin(sqrt(a))/pi; at a in {0, 1} the phases coincide and the law
    degenerates to a single kernel. One amplitude gives shape (2^m,), D
    amplitudes give (D, 2^m): row d is bit for bit the law of a[d] alone,
    since each phase is one math.asin (np.arcsin can differ in the last bit).
    """
    vals = np.asarray(a, dtype=float).ravel().tolist()
    if bad := [v for v in vals if not 0.0 <= v <= 1.0]:  # NaN is bad too
        raise ValueError(f"a must lie in [0, 1], got {bad[0]}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t = 2**m
    phi = [math.asin(math.sqrt(v)) / math.pi for v in vals]
    # Both kernels of every law in one flat call, cheaper per law than a call each; y - (-phi) is y + phi exactly.
    kernels = _phase_kernel((np.arange(t) / t - np.array([phi, [-p for p in phi]])[..., None]).ravel(), t)
    return (0.5 * (kernels[: t * len(phi)] + kernels[t * len(phi) :])).reshape(np.shape(a) + (t,))


def ae_error_bound(a: float, m: int) -> float:
    """Additive error radius covered with probability at least 8/pi^2."""
    t = 2**m
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / t + math.pi**2 / t**2
