"""Liouvillian assembly in two independent representations.

Component form: the master equation acting on generalized Bloch vectors,
``rdot = (C + I) r + b``, assembled from the structure tensors of the
generator basis.  Kronecker form: the supermatrix acting on row-major
vectorized density matrices,

    L = -i (H (x) I - I (x) H^T)
        + sum_a g_a (2 L_a (x) L_a^* - L_a^+ L_a (x) I - I (x) L_a^T L_a^*),

where g_a is the full channel rate.  The two constructions share no code
path beyond the basis itself and serve as mutual oracles.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, MalformedLiouvillianError
from .sun_algebra import TRACE_NORMALIZATION, GeneratorBasis, StructureTensors, bloch_scale

__all__ = [
    "HamiltonianSpec",
    "LindbladChannel",
    "LiouvillianComponents",
    "coherent_part",
    "incoherent_part",
    "inhomogeneous_part",
    "channel_matrix",
    "channel_drift",
    "kron_liouvillian",
    "components_from_kron",
    "vec",
    "unvec",
    "trace_preservation_residual",
]

RateLike = float | Callable[[float], float]


def _at(value: RateLike, t: float) -> float:
    return value(t) if callable(value) else value


@dataclass(frozen=True)
class HamiltonianSpec:
    """Coherent generator coefficients c_0 .. c_{N^2-1} (c_0 multiplies I).

    Frequencies are in units of gamma0 with hbar = 1.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(c)):
            raise DimensionError("Hamiltonian coefficients must be finite")
        object.__setattr__(self, "coefficients", c)

    def matrix(self, basis: GeneratorBasis) -> np.ndarray:
        if self.coefficients.shape != (basis.dimension ** 2,):
            raise DimensionError(
                f"need {basis.dimension ** 2} coefficients, got {self.coefficients.shape}")
        return np.tensordot(self.coefficients, basis.generators, axes=1)


@dataclass(frozen=True)
class LindbladChannel:
    """One dissipation channel L(t) = sqrt(control(t)) * sum_j shape_j T_j.

    ``rate`` is the bare channel rate gamma(t); ``control`` the incoherent
    control multiplier.  Only their product enters the dynamics, so
    negative rates (non-Markovian intervals) are admitted verbatim.
    ``control_index`` groups channels that share one unknown control
    parameter when a control system is assembled; ``None`` marks a fixed
    (drift) channel.
    """

    shape: np.ndarray
    rate: RateLike = 1.0
    control: RateLike = 1.0
    control_index: int | None = None
    name: str = ""

    def __post_init__(self):
        s = np.asarray(self.shape, dtype=complex)
        if not np.any(s):
            raise DimensionError(f"channel {self.name!r} has an identically zero shape vector")
        object.__setattr__(self, "shape", s)

    def effective_rate(self, t: float) -> float:
        return _at(self.rate, t) * _at(self.control, t)

    def operator(self, basis: GeneratorBasis) -> np.ndarray:
        return np.tensordot(self.shape, basis.traceless(), axes=1)


@dataclass(frozen=True)
class LiouvillianComponents:
    """Bloch-space generator: rdot = matrix @ r + drift."""

    matrix: np.ndarray
    drift: np.ndarray

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.matrix @ r + self.drift


def coherent_part(hamiltonian: HamiltonianSpec, tensors: StructureTensors) -> np.ndarray:
    """C[i, j] = sum_k c_k f_{kji}; the identity coefficient never contributes."""
    c = np.asarray(hamiltonian.coefficients, dtype=float)
    n = tensors.dimension ** 2 - 1
    if c.shape != (n + 1,):
        raise DimensionError(f"need {n + 1} Hamiltonian coefficients, got {c.shape}")
    return np.einsum("k,kji->ij", c[1:], tensors.f)


def _extended_shape(shape: np.ndarray, tensors: StructureTensors) -> np.ndarray:
    n = tensors.dimension ** 2 - 1
    shape = np.asarray(shape, dtype=complex)
    if shape.shape == (n,):
        return np.concatenate([[0.0], shape])
    if shape.shape == (n + 1,):
        return shape
    raise DimensionError(f"channel shape must have length {n} (or {n + 1}), got {shape.shape}")


def channel_matrix(shape: np.ndarray, tensors: StructureTensors) -> np.ndarray:
    """Unit-rate Bloch-space dissipator matrix of one channel shape vector."""
    l = _extended_shape(shape, tensors)
    a = np.outer(l, l.conj())
    k = np.einsum("mn,mnji->ij", a, tensors.s)
    resid = np.max(np.abs(k.imag))
    if resid > 1e-11:
        raise ArithmeticError(f"dissipator matrix has imaginary residue {resid:.3e}")
    return k.real


def channel_drift(shape: np.ndarray, tensors: StructureTensors) -> np.ndarray:
    """Unit-rate constant Bloch drift of one channel; zero for normal shapes."""
    l = _extended_shape(shape, tensors)[1:]
    b = np.einsum("m,n,mnk->k", l, l.conj(), tensors.g)
    resid = np.max(np.abs(b.imag))
    if resid > 1e-11:
        raise ArithmeticError(f"channel drift has imaginary residue {resid:.3e}")
    return b.real


def incoherent_part(channels: Sequence[LindbladChannel], tensors: StructureTensors,
                    t: float = 0.0) -> np.ndarray:
    """Dissipative Bloch matrix sum_a gamma_a(t) control_a(t) K_a."""
    n = tensors.dimension ** 2 - 1
    out = np.zeros((n, n))
    for ch in channels:
        out += ch.effective_rate(t) * channel_matrix(ch.shape, tensors)
    return out


def inhomogeneous_part(channels: Sequence[LindbladChannel], tensors: StructureTensors,
                       t: float = 0.0) -> np.ndarray:
    """Constant Bloch drift sum_a gamma_a(t) control_a(t) b_a."""
    n = tensors.dimension ** 2 - 1
    out = np.zeros(n)
    for ch in channels:
        out += ch.effective_rate(t) * channel_drift(ch.shape, tensors)
    return out


def assemble_components(hamiltonian: HamiltonianSpec, channels: Sequence[LindbladChannel],
                        tensors: StructureTensors, t: float = 0.0) -> LiouvillianComponents:
    """Full component-form generator at time t."""
    m = coherent_part(hamiltonian, tensors) + incoherent_part(channels, tensors, t)
    return LiouvillianComponents(matrix=m, drift=inhomogeneous_part(channels, tensors, t))


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-major vectorization (C order)."""
    return np.asarray(mat).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape(n, n)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices, (a (x) b)[i m + k, j m + l] = a[i, j] b[k, l].

    The same elementwise products as ``np.kron``, by one broadcast multiply.
    """
    n, m = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


def kron_liouvillian(hamiltonian: HamiltonianSpec, channels: Sequence[LindbladChannel],
                     basis: GeneratorBasis, t: float = 0.0) -> np.ndarray:
    """Supermatrix on row-major vectorized density matrices."""
    dim = basis.dimension
    eye = np.eye(dim, dtype=complex)
    h = hamiltonian.matrix(basis)
    s = -1.0j * (_kron(h, eye) - _kron(eye, h.T))
    for ch in channels:
        l = ch.operator(basis)
        ldl = l.conj().T @ l
        s += ch.effective_rate(t) * (2.0 * _kron(l, l.conj())
                                     - _kron(ldl, eye)
                                     - _kron(eye, ldl.T))
    return s


def trace_preservation_residual(supermatrix: np.ndarray) -> float:
    """max |<<I| L|, zero for a trace-preserving generator."""
    dim = int(round(np.sqrt(supermatrix.shape[0])))
    left = vec(np.eye(dim)) @ supermatrix
    return float(np.max(np.abs(left)))


def components_from_kron(supermatrix: np.ndarray, basis: GeneratorBasis) -> LiouvillianComponents:
    """Project a supermatrix onto the Bloch component form.

    Raises
    ------
    MalformedLiouvillianError
        If the supermatrix fails trace preservation beyond 1e-8.
    """
    resid = trace_preservation_residual(supermatrix)
    if resid > 1e-8:
        raise MalformedLiouvillianError(
            f"supermatrix violates trace preservation by {resid:.3e}")
    dim = basis.dimension
    n = basis.n_traceless
    eta = TRACE_NORMALIZATION
    m = np.empty((n, n))
    for j in range(n):
        image = unvec(supermatrix @ vec(basis.generators[j + 1]))
        col = np.einsum("kab,ba->k", basis.traceless(), image) / eta
        m[:, j] = col.real
    drift_img = unvec(supermatrix @ vec(basis.generators[0]))
    drift = np.einsum("kab,ba->k", basis.traceless(), drift_img).real
    drift /= bloch_scale(dim) * eta
    return LiouvillianComponents(matrix=m, drift=drift)
