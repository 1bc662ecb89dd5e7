"""Liouvillian assembly in two independent representations.

Component form: the master equation acting on generalized Bloch vectors,
``rdot = (C + I) r + b``, assembled from the structure tensors of the
generator basis by one builder, ``assemble_components``: the coherent matrix
C, then one pass over the channels, each giving its unit-rate dissipator
matrix and drift from one outer product l l*.  The control system of
``controls`` applies the same builder to r, column by column.  Kronecker
form: the supermatrix acting on row-major vectorized density matrices,

    L = -i (H (x) I - I (x) H^T)
        + sum_a g_a (2 L_a (x) L_a^* - L_a^+ L_a (x) I - I (x) L_a^T L_a^*),

where g_a is the full channel rate.  The two constructions share no code
path beyond the basis itself and serve as mutual oracles.

Every builder follows numpy's shape rules over leading batch axes: one
instance gives one result, a stack a stack.  A generator that depends on time
is a stack along a time axis, its rates arrays over the sample times.  The
builders contract coefficients against fixed tensors row by row,
``(v[..., None, :] @ m)[..., 0, :]``: one vector-matrix product per instance,
so a stack gives the bits of its single calls.  A plain ``v @ m`` over the
stack would be one gemm, which blocks and rounds its sums differently from
the single row's product; an unoptimized ``einsum`` runs the same contraction
several times slower.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, MalformedLiouvillianError
from .sun_algebra import (TRACE_NORMALIZATION, GeneratorBasis, StructureTensors, _first_in_stack,
                          bloch_scale)

__all__ = [
    "HamiltonianSpec",
    "LindbladChannel",
    "LiouvillianComponents",
    "assemble_components",
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
        return _combine(self.coefficients, basis.generators)


@dataclass(frozen=True)
class LindbladChannel:
    """One dissipation channel L = sum_j shape_j T_j at the rate ``rate``.

    ``rate`` is the full channel rate gamma(t), incoherent control included;
    negative rates (non-Markovian intervals) are admitted verbatim.  The
    shape has length N^2 - 1, or N^2 with the identity coefficient first.
    ``control_index`` groups channels that share one unknown control
    parameter when a control system is assembled (their rate is then the
    bare rate the unknown multiplies); ``None`` marks a fixed (drift) channel.
    """

    shape: np.ndarray
    rate: float | np.ndarray = 1.0
    control_index: int | None = None

    def __post_init__(self):
        s = np.asarray(self.shape, dtype=complex)
        if not np.all(np.any(np.atleast_1d(s), axis=-1)):
            raise DimensionError("channel has an identically zero shape vector")
        object.__setattr__(self, "shape", s)
        object.__setattr__(self, "rate", np.asarray(self.rate, dtype=float))

    def operator(self, basis: GeneratorBasis) -> np.ndarray:
        """L over the full basis, identity slot included."""
        return _combine(_extended_shape(self.shape, basis.dimension), basis.generators)


@dataclass(frozen=True)
class LiouvillianComponents:
    """Bloch-space generator: rdot = matrix @ r + drift."""

    matrix: np.ndarray
    drift: np.ndarray

    def apply(self, r: np.ndarray) -> np.ndarray:
        return _rows(r, self.matrix.mT) + self.drift


def _rows(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """v @ m row by row: v (..., K) against m (..., K, M), one vector-matrix
    product per row, so a stack gives the bits of its single calls."""
    return (v[..., None, :] @ m)[..., 0, :]


def _combine(c: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k c_k stack_k for coefficients c (..., k) and a fixed stack (k, ...)."""
    return _rows(c, stack.reshape(len(stack), -1)).reshape(*c.shape[:-1], *stack.shape[1:])


def _coherent_part(hamiltonian: HamiltonianSpec, tensors: StructureTensors) -> np.ndarray:
    """C[i, j] = sum_k c_k f_{kji}; the identity coefficient never contributes."""
    c = np.asarray(hamiltonian.coefficients, dtype=float)
    n = tensors.dimension ** 2 - 1
    if c.shape[-1:] != (n + 1,):
        raise DimensionError(f"need {n + 1} Hamiltonian coefficients, got {c.shape}")
    return _combine(c[..., 1:], tensors.f.swapaxes(1, 2))


def _extended_shape(shape: np.ndarray, dim: int) -> np.ndarray:
    """The shape over the full basis, a zero identity coefficient first."""
    n = dim ** 2 - 1
    shape = np.asarray(shape, dtype=complex)
    if shape.shape[-1:] == (n,):
        return np.concatenate([np.zeros(shape.shape[:-1] + (1,)), shape], axis=-1)
    if shape.shape[-1:] == (n + 1,):
        return shape
    raise DimensionError(f"channel shape must have length {n} (or {n + 1}), got {shape.shape}")


def _channel_parts(shape: np.ndarray, tensors: StructureTensors) -> tuple[np.ndarray, np.ndarray]:
    """Unit-rate Bloch-space dissipator matrix and constant drift of one channel
    shape, from one outer product l l*.  The drift is
    b_k = sum_mn l_m l_n^* g[m, n, k] over the traceless slots, with
    g = (2i / c_N) f; it is zero for normal shapes."""
    l = _extended_shape(shape, tensors.dimension)
    a = l[..., :, None] * l[..., None, :].conj()
    s = tensors.s.swapaxes(2, 3)   # s[m, n, i, j]
    k = _combine(a.reshape(*l.shape[:-1], -1), s.reshape(-1, *s.shape[2:]))
    g = (2.0j / bloch_scale(tensors.dimension)) * tensors.f.astype(complex)
    b = _rows(a[..., 1:, 1:].reshape(*l.shape[:-1], -1), g.reshape(-1, g.shape[-1]))
    for part, name in ((k, "dissipator matrix"), (b, "channel drift")):
        resid = np.max(np.abs(part.imag))
        if resid > 1e-11:
            raise ArithmeticError(f"{name} has imaginary residue {resid:.3e}")
    return k.real, b.real


def assemble_components(hamiltonian: HamiltonianSpec, channels: Sequence[LindbladChannel],
                        tensors: StructureTensors) -> LiouvillianComponents:
    """Full component-form generator: the coherent matrix plus sum_a gamma_a K_a,
    and the drift sum_a gamma_a b_a."""
    coherent = _coherent_part(hamiltonian, tensors)
    n = tensors.dimension ** 2 - 1
    incoherent, drift = np.zeros((n, n)), np.zeros(n)
    for ch in channels:
        k, b = _channel_parts(ch.shape, tensors)
        incoherent = incoherent + ch.rate[..., None, None] * k
        drift = drift + ch.rate[..., None] * b
    m = coherent + incoherent
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
        s = s + ch.rate[..., None, None] * (2.0 * _kron(l, l.conj())
                                            - _kron(ldl, eye)
                                            - _kron(eye, ldl.mT))
    return s


def trace_preservation_residual(supermatrix: np.ndarray):
    """max |<<I| L|, zero for a trace-preserving generator."""
    dim = int(round(np.sqrt(supermatrix.shape[-1])))
    left = vec(np.eye(dim)) @ supermatrix
    return np.max(np.abs(left), axis=-1)


def components_from_kron(supermatrix: np.ndarray, basis: GeneratorBasis) -> LiouvillianComponents:
    """Project a supermatrix, or a stack of them, onto the Bloch component form.

    Raises
    ------
    MalformedLiouvillianError
        If a supermatrix fails trace preservation beyond 1e-8 (the message
        names the first one).
    """
    supermatrix = np.asarray(supermatrix)
    resid = trace_preservation_residual(supermatrix)
    bad = resid > 1e-8
    if bad.any():
        i, where = _first_in_stack(bad, "supermatrix")
        raise MalformedLiouvillianError(
            f"supermatrix violates trace preservation by {resid[i]:.3e}{where}")
    # row j: vec of the image of generator j; column j of cols: its coefficients
    # Tr[T_k L(T_j)] / eta, as rows vec(T_k^T) against the images
    images = _rows(vec(basis.generators), supermatrix.mT[..., None, :, :])
    cols = _rows(vec(basis.traceless().mT), images.mT[..., None, :, :]).real / TRACE_NORMALIZATION
    return LiouvillianComponents(matrix=cols[..., 1:],
                                 drift=cols[..., 0] / bloch_scale(basis.dimension))
