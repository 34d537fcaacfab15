"""Exact statevector simulation of the amplitude-estimation circuit family.

The register layout, most significant to least significant, is

    [m phase bits] [optional garbage qubit] [k data qubits] [loss ancilla]

Data preparation loads sqrt(p_z) onto the dense support codes; the loss
rotation moves sqrt of the rescaled loss onto the ancilla-one branch, so
the ancilla-one mass of the prepared state equals the rescaled expected
loss. The phase-estimation iterate alternates a sign flip on ancilla-one
basis states with a reflection about the prepared state, and the measured
phase register y maps to the estimate a_hat = sin^2(pi y / 2^m).

`closed_form_ae_distribution` gives the same outcome law analytically:
the prepared state splits evenly between two conjugate eigenvectors of
the iterate, so the phase register follows an equal mixture of two
Fejer-type kernels centered at +/- asin(sqrt(a))/pi. It serves as an
independent oracle for the simulated path and as a fast sampler.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import Hypothesis, ProblemInstance

DEFAULT_QUBIT_CAP = 24
NORM_TOL = 1e-10


class CapacityError(RuntimeError):
    """A requested register layout exceeds the configured qubit cap."""


@dataclass(frozen=True)
class QubitLayout:
    """Register sizes for one amplitude-estimation run."""

    k: int
    m: int
    garbage: int = 0
    cap: int = DEFAULT_QUBIT_CAP

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError(f"layout needs k >= 1 and m >= 1, got k={self.k}, m={self.m}")
        if self.total > self.cap:
            raise CapacityError(
                f"layout needs {self.total} qubits (k={self.k}, garbage={self.garbage}, "
                f"1 loss ancilla, m={self.m}) but the cap is {self.cap}"
            )

    @property
    def total(self) -> int:
        return self.k + self.garbage + 1 + self.m


@dataclass
class QueryLedger:
    """Oracle accounting: state-preparation and loss-rotation calls."""

    a_calls: int = 0
    a_inv_calls: int = 0

    @property
    def quantum_samples(self) -> int:
        """Total preparation-unitary invocations, forward plus inverse."""
        return self.a_calls + self.a_inv_calls

    def add(self, other: "QueryLedger") -> None:
        self.a_calls += other.a_calls
        self.a_inv_calls += other.a_inv_calls


def run_ledger(m: int) -> QueryLedger:
    """Closed-form counts for one run at depth 2^m.

    One preparation plus one forward and one inverse call per reflection;
    there are 2^m - 1 reflections, so a_calls + a_inv_calls = 2^(m+1) - 1.
    """
    t = 2**m
    return QueryLedger(a_calls=t, a_inv_calls=t - 1)


def _check_norm(state: np.ndarray) -> None:
    drift = abs(np.linalg.norm(state) - 1.0)
    if drift > NORM_TOL:
        raise RuntimeError(f"state norm drifted by {drift:.3e} (> {NORM_TOL})")


def prepare_data_state(
    inst: ProblemInstance,
    garbage_mode: bool = False,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Load sqrt(p_z) onto the support codes of the data register.

    With garbage_mode, each code is tensored with its own random normalized
    single-qubit state on an extra high register; downstream outcome
    distributions must not depend on those states.
    """
    n = len(inst.support)
    dim = 2**inst.k
    if dim < n:
        raise CapacityError(f"2^{inst.k} = {dim} data basis states cannot hold {n} support codes")
    amps = np.zeros(dim, dtype=complex)
    amps[:n] = np.sqrt(inst.probabilities)
    if not garbage_mode:
        return amps
    rng = np.random.default_rng(rng)
    g = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    out = np.concatenate([amps * g[:, 0], amps * g[:, 1]])
    _check_norm(out)
    return out


def _rescaled_losses(inst: ProblemInstance, f: Hypothesis) -> np.ndarray:
    """Loss row of f divided by the bound, padded to the data register."""
    vals = np.zeros(2**inst.k)
    vals[: len(inst.support)] = inst.losses[inst.row(f)] / inst.loss.bound
    if vals.min() < 0.0 or vals.max() > 1.0:
        raise ValueError(
            f"rescaled loss values must lie in [0, 1], got range "
            f"[{vals.min()}, {vals.max()}] for hypothesis {f.id!r}"
        )
    return vals


def apply_loss_rotation(state: np.ndarray, inst: ProblemInstance, f: Hypothesis) -> np.ndarray:
    """Rotate the loss ancilla by the per-code angle of the rescaled loss.

    Acts as a direct per-basis-state rotation: amplitude on |z>|0> splits
    into sqrt(1 - L(z)) |z>|0> + sqrt(L(z)) |z>|1>.
    """
    vals = _rescaled_losses(inst, f)
    dim = vals.size
    blocks = state.size // (2 * dim)
    reshaped = state.reshape(blocks, dim, 2)
    c = np.sqrt(1.0 - vals)[None, :]
    s = np.sqrt(vals)[None, :]
    a0 = reshaped[:, :, 0].copy()
    a1 = reshaped[:, :, 1].copy()
    out = np.empty_like(reshaped)
    out[:, :, 0] = c * a0 - s * a1
    out[:, :, 1] = s * a0 + c * a1
    out = out.reshape(-1)
    _check_norm(out)
    return out


def loss_encoded_state(
    inst: ProblemInstance,
    f: Hypothesis,
    garbage_mode: bool = False,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Prepare the data state, append a fresh loss ancilla, apply the rotation."""
    base = prepare_data_state(inst, garbage_mode=garbage_mode, rng=rng)
    state = np.zeros(2 * base.size, dtype=complex)
    state[0::2] = base
    return apply_loss_rotation(state, inst, f)


def marked_probability(state: np.ndarray) -> float:
    """Probability mass on basis states whose loss ancilla reads one."""
    return float(np.sum(np.abs(state[1::2]) ** 2))


def _apply_projector_reflection(block: np.ndarray) -> None:
    """Sign flip on ancilla-one basis states, in place."""
    block[..., 1::2] *= -1.0


def _apply_state_reflection(block: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Reflect each row about psi: v -> 2 <psi|v> psi - v."""
    coef = block @ psi.conj()
    return 2.0 * coef[:, None] * psi[None, :] - block


def simulate_ae_state(
    inst: ProblemInstance,
    f: Hypothesis,
    m: int,
    garbage_mode: bool = False,
    rng: np.random.Generator | int | None = None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Run the full phase-estimation circuit; return the pre-measurement state.

    The returned array has shape (2^m, system_dim): phase register value by
    system basis state.
    """
    layout = QubitLayout(k=inst.k, m=m, garbage=1 if garbage_mode else 0, cap=qubit_cap)
    psi = loss_encoded_state(inst, f, garbage_mode=garbage_mode, rng=rng)
    t = 2**layout.m
    state = np.empty((t, psi.size), dtype=complex)
    state[:] = psi / math.sqrt(t)  # Hadamards on the phase register
    _check_norm(state)
    phase_values = np.arange(t)
    for j in range(m):
        rows = ((phase_values >> j) & 1) == 1
        block = state[rows]
        for _ in range(2**j):
            _apply_projector_reflection(block)
            block = _apply_state_reflection(block, psi)
        state[rows] = block
        _check_norm(state)
    # Inverse Fourier transform on the phase axis (exact unitary).
    state = np.fft.fft(state, axis=0, norm="ortho")
    _check_norm(state)
    return state


def simulate_ae_distribution(
    inst: ProblemInstance,
    f: Hypothesis,
    m: int,
    garbage_mode: bool = False,
    rng: np.random.Generator | int | None = None,
    qubit_cap: int = DEFAULT_QUBIT_CAP,
) -> np.ndarray:
    """Exact probabilities of each phase-register outcome y."""
    state = simulate_ae_state(inst, f, m, garbage_mode=garbage_mode, rng=rng, qubit_cap=qubit_cap)
    return np.sum(np.abs(state) ** 2, axis=1)


def draw_outcome(distribution: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw using exactly one uniform deviate."""
    cdf = np.cumsum(distribution)
    y = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(y, distribution.size - 1)


def estimate_from_phase(y: int, m: int) -> float:
    return math.sin(math.pi * y / 2**m) ** 2


def _phase_kernel(delta: np.ndarray, t: int) -> np.ndarray:
    """Squared magnitude of the phase-estimation kernel at offset delta."""
    num = np.sin(np.pi * t * delta) ** 2
    den = (t * np.sin(np.pi * delta)) ** 2
    out = np.empty_like(num)
    exact = den == 0.0
    out[exact] = 1.0
    out[~exact] = num[~exact] / den[~exact]
    return out


def closed_form_ae_distribution(a: float, m: int) -> np.ndarray:
    """Exact outcome law of the phase register, without simulating.

    Equal-weight mixture of the kernels at the two conjugate eigenphases
    +/- asin(sqrt(a))/pi; at a in {0, 1} the phases coincide and the law
    degenerates to a single kernel.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t = 2**m
    phi = math.asin(math.sqrt(a)) / math.pi
    y = np.arange(t)
    return 0.5 * (_phase_kernel(y / t - phi, t) + _phase_kernel(y / t + phi, t))


def ae_error_bound(a: float, m: int) -> float:
    """Additive error radius covered with probability at least 8/pi^2."""
    t = 2**m
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / t + math.pi**2 / t**2
