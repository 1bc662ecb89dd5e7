"""Liouvillian assembly in two independent representations.

Component form: the master equation acting on generalized Bloch vectors,
``rdot = (C + I) r + b``, assembled from the structure tensors of the
generator basis.  Kronecker form: the supermatrix acting on row-major
vectorized density matrices,

    L = -i (H (x) I - I (x) H^T)
        + sum_a g_a (2 L_a (x) L_a^* - L_a^+ L_a (x) I - I (x) L_a^T L_a^*),

where g_a is the full channel rate.  The two constructions share no code
path beyond the basis itself and serve as mutual oracles.

Every builder follows numpy's shape rules over leading batch axes: one
instance gives one result, a stack a stack.  A generator that depends on time
is a stack along a time axis, its rates arrays over the sample times.
"""

from dataclasses import dataclass
from typing import Sequence

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
        if self.coefficients.shape[-1:] != (basis.dimension ** 2,):
            raise DimensionError(
                f"need {basis.dimension ** 2} coefficients, got {self.coefficients.shape}")
        return np.einsum("...k,kij->...ij", self.coefficients, basis.generators)


@dataclass(frozen=True)
class LindbladChannel:
    """One dissipation channel L(t) = sqrt(control(t)) * sum_j shape_j T_j.

    ``rate`` is the bare channel rate gamma(t); ``control`` the incoherent
    control multiplier.  Only their product enters the dynamics, so
    negative rates (non-Markovian intervals) are admitted verbatim.  The
    shape has length N^2 - 1, or N^2 with the identity coefficient first.
    ``control_index`` groups channels that share one unknown control
    parameter when a control system is assembled; ``None`` marks a fixed
    (drift) channel.
    """

    shape: np.ndarray
    rate: float | np.ndarray = 1.0
    control: float | np.ndarray = 1.0
    control_index: int | None = None
    name: str = ""

    def __post_init__(self):
        s = np.asarray(self.shape, dtype=complex)
        if not np.all(np.any(np.atleast_1d(s), axis=-1)):
            raise DimensionError(f"channel {self.name!r} has an identically zero shape vector")
        object.__setattr__(self, "shape", s)
        object.__setattr__(self, "rate", np.asarray(self.rate, dtype=float))
        object.__setattr__(self, "control", np.asarray(self.control, dtype=float))

    def effective_rate(self):
        return self.rate * self.control

    def operator(self, basis: GeneratorBasis) -> np.ndarray:
        """L over the full basis, identity slot included."""
        return np.einsum("...k,kij->...ij", _extended_shape(self.shape, basis.dimension),
                         basis.generators)


@dataclass(frozen=True)
class LiouvillianComponents:
    """Bloch-space generator: rdot = matrix @ r + drift."""

    matrix: np.ndarray
    drift: np.ndarray

    def apply(self, r: np.ndarray) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self.matrix, r) + self.drift


def coherent_part(hamiltonian: HamiltonianSpec, tensors: StructureTensors) -> np.ndarray:
    """C[i, j] = sum_k c_k f_{kji}; the identity coefficient never contributes."""
    c = np.asarray(hamiltonian.coefficients, dtype=float)
    n = tensors.dimension ** 2 - 1
    if c.shape[-1:] != (n + 1,):
        raise DimensionError(f"need {n + 1} Hamiltonian coefficients, got {c.shape}")
    return np.einsum("...k,kji->...ij", c[..., 1:], tensors.f)


def _extended_shape(shape: np.ndarray, dim: int) -> np.ndarray:
    """The shape over the full basis, a zero identity coefficient first."""
    n = dim ** 2 - 1
    shape = np.asarray(shape, dtype=complex)
    if shape.shape[-1:] == (n,):
        return np.concatenate([np.zeros(shape.shape[:-1] + (1,)), shape], axis=-1)
    if shape.shape[-1:] == (n + 1,):
        return shape
    raise DimensionError(f"channel shape must have length {n} (or {n + 1}), got {shape.shape}")


def channel_matrix(shape: np.ndarray, tensors: StructureTensors) -> np.ndarray:
    """Unit-rate Bloch-space dissipator matrix of one channel shape vector."""
    l = _extended_shape(shape, tensors.dimension)
    a = l[..., :, None] * l[..., None, :].conj()
    k = np.einsum("...mn,mnji->...ij", a, tensors.s)
    resid = np.max(np.abs(k.imag))
    if resid > 1e-11:
        raise ArithmeticError(f"dissipator matrix has imaginary residue {resid:.3e}")
    return k.real


def channel_drift(shape: np.ndarray, tensors: StructureTensors) -> np.ndarray:
    """Unit-rate constant Bloch drift of one channel; zero for normal shapes."""
    l = _extended_shape(shape, tensors.dimension)[..., 1:]
    b = np.einsum("...m,...n,mnk->...k", l, l.conj(), tensors.g)
    resid = np.max(np.abs(b.imag))
    if resid > 1e-11:
        raise ArithmeticError(f"channel drift has imaginary residue {resid:.3e}")
    return b.real


def incoherent_part(channels: Sequence[LindbladChannel], tensors: StructureTensors) -> np.ndarray:
    """Dissipative Bloch matrix sum_a gamma_a control_a K_a."""
    n = tensors.dimension ** 2 - 1
    out = np.zeros((n, n))
    for ch in channels:
        out = out + ch.effective_rate()[..., None, None] * channel_matrix(ch.shape, tensors)
    return out


def inhomogeneous_part(channels: Sequence[LindbladChannel],
                       tensors: StructureTensors) -> np.ndarray:
    """Constant Bloch drift sum_a gamma_a control_a b_a."""
    n = tensors.dimension ** 2 - 1
    out = np.zeros(n)
    for ch in channels:
        out = out + ch.effective_rate()[..., None] * channel_drift(ch.shape, tensors)
    return out


def assemble_components(hamiltonian: HamiltonianSpec, channels: Sequence[LindbladChannel],
                        tensors: StructureTensors) -> LiouvillianComponents:
    """Full component-form generator."""
    m = coherent_part(hamiltonian, tensors) + incoherent_part(channels, tensors)
    drift = inhomogeneous_part(channels, tensors)
    return LiouvillianComponents(matrix=m, drift=np.broadcast_to(drift, m.shape[:-1]))


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-major vectorization (C order)."""
    mat = np.asarray(mat)
    return mat.reshape(*mat.shape[:-2], -1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    n = int(round(np.sqrt(v.shape[-1])))
    return v.reshape(*v.shape[:-1], n, n)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices, (a (x) b)[i m + k, j m + l] = a[i, j] b[k, l].

    The same elementwise products as ``np.kron``, by one broadcast multiply.
    """
    n, m = a.shape[-1], b.shape[-1]
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    return p.reshape(*p.shape[:-4], n * m, n * m)


def kron_liouvillian(hamiltonian: HamiltonianSpec, channels: Sequence[LindbladChannel],
                     basis: GeneratorBasis) -> np.ndarray:
    """Supermatrix on row-major vectorized density matrices."""
    dim = basis.dimension
    eye = np.eye(dim, dtype=complex)
    h = hamiltonian.matrix(basis)
    s = -1.0j * (_kron(h, eye) - _kron(eye, h.mT))
    for ch in channels:
        l = ch.operator(basis)
        ldl = l.conj().mT @ l
        s = s + ch.effective_rate()[..., None, None] * (2.0 * _kron(l, l.conj())
                                                        - _kron(ldl, eye)
                                                        - _kron(eye, ldl.mT))
    return s


def trace_preservation_residual(supermatrix: np.ndarray):
    """max |<<I| L|, zero for a trace-preserving generator."""
    dim = int(round(np.sqrt(supermatrix.shape[-1])))
    left = vec(np.eye(dim)) @ supermatrix
    return np.max(np.abs(left), axis=-1)


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
    # column j: the traceless coefficients of the image of generator j
    images = unvec(np.einsum("ij,kj->ki", supermatrix, vec(basis.generators)))
    cols = np.einsum("kab,jba->kj", basis.traceless(), images).real / TRACE_NORMALIZATION
    return LiouvillianComponents(matrix=cols[:, 1:],
                                 drift=cols[:, 0] / bloch_scale(basis.dimension))
