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

`circuit_state` builds phase row y = Q^y psi in one buffer by doubling,
as the controlled powers do; for j >= 1, Q^(2^j) is the identity plus a
2x2 core on psi's unmarked and marked parts, so the rows cost about
4 * 2^m * dim for every dim. The inverse Fourier transform runs in place
on that buffer, and `phase_law` squares |z| in place.

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


def _check_norm(state: np.ndarray) -> None:
    drift = abs(np.linalg.norm(state) - 1.0)
    if drift > NORM_TOL:
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


def circuit_state(psi: np.ndarray, m: int) -> np.ndarray:
    """Run the phase-estimation circuit on psi; return the pre-measurement state.

    psi is a normalized prepared state whose last qubit is the loss
    ancilla; a psi whose size is not a power of two >= 2, or whose norm is
    not one, raises ValueError before any state is allocated. The returned
    array has shape (2^m, psi.size): phase register value by system basis
    state. After the Hadamards and the controlled powers Q^(2^j), row y is
    exactly Q^y psi / sqrt(2^m); Q = S Z, Z the sign flip on ancilla-one
    states and S the reflection about psi. The inverse Fourier transform
    runs in place.

    Row 1 is Q psi. Q rotates the plane of the parts P = ((psi + Z psi) / 2,
    (psi - Z psi) / 2) and is -Z off it: Z P = F P with F = diag(1, -1), and
    Q = -Z + P^T N_0 conj(P), N_0 = [[2, -2], [2, -2]]. As Z^2 = I, Q^(2^j) =
    I + P^T N_j conj(P) for j >= 1, with N_1 = N_0 G N_0 - F N_0 - N_0 F,
    N_(j+1) = 2 N_j + N_j G N_j and G = conj(P) P^T: phase bit j adds rows
    [0, 2^j) times P^H N_j^T P to a copy of them. Unlike (psi, Z psi), the
    parts stay orthogonal as the marked mass nears 0 or 1.
    """
    if psi.ndim != 1 or psi.size < 2 or psi.size & (psi.size - 1):
        raise ValueError(f"psi must be a vector whose size is a power of two >= 2, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"psi must be normalized, got norm {norm:.6g}")
    _check_register(psi.size.bit_length() - 1, m)
    t = 2**m
    state = np.empty((t, psi.size), dtype=complex)
    state[0] = psi / math.sqrt(t)  # Hadamards on the phase register
    z_psi = psi.copy()
    _apply_projector_reflection(z_psi)
    state[1] = (2.0 * np.vdot(psi, z_psi) * psi - z_psi) / math.sqrt(t)
    parts = np.array([psi + z_psi, psi - z_psi]) / 2.0  # unmarked and marked parts
    parts_h = parts.conj().T
    gram = parts.conj() @ parts.T
    n_0 = np.array([[2.0, -2.0], [2.0, -2.0]])
    core = n_0 @ gram @ n_0 - 4.0 * np.eye(2)  # N_1, since F N_0 + N_0 F = 4 I
    for j in range(1, m):
        np.matmul(state[: 2**j] @ (parts_h @ core.T), parts, out=state[2**j : 2 ** (j + 1)])
        state[2**j : 2 ** (j + 1)] += state[: 2**j]
        core = 2.0 * core + core @ gram @ core
    _check_norm(state)
    np.fft.fft(state, axis=0, norm="ortho", out=state)  # inverse Fourier transform on the phase axis, in place
    _check_norm(state)
    return state


def simulate_ae_state(inst: ProblemInstance, f: Hypothesis, m: int) -> np.ndarray:
    """The circuit on f's loss-encoded state; the register is checked first."""
    _check_register(inst.k + 1, m)
    return circuit_state(loss_encoded_state(inst, f), m)


def phase_law(state: np.ndarray) -> np.ndarray:
    """Outcome law of the phase register of a circuit state: |z|^2 summed over the system axis."""
    mag = np.abs(state)
    return np.square(mag, out=mag).sum(axis=1)  # beside the state, only |z| as one half-size array


def simulate_ae_distribution(inst: ProblemInstance, f: Hypothesis, m: int) -> np.ndarray:
    """Exact probabilities of each phase-register outcome y."""
    return phase_law(simulate_ae_state(inst, f, m))


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
