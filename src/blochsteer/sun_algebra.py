"""Hermitian generator bases of SU(N) and generalized Bloch-vector conversions.

The basis is the generalized Gell-Mann family rescaled so that
``Tr[T_i T_j] = 2 delta_ij`` for every dimension, which makes the N = 2
generators exactly the Pauli matrices.  A density matrix is expanded as

    rho = (I + c_N * sum_i r_i T_i) / N,      c_N = sqrt(N (N - 1) / 2),

so for N = 2 this is the familiar rho = (I + r . sigma) / 2 and physical
states satisfy |r| <= 1 (equality for pure states when N = 2).

Ordering of the traceless generators is deterministic: symmetric
off-diagonal pairs (j < k, lexicographic), then antisymmetric pairs,
then the diagonal generators.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MalformedStateError

__all__ = [
    "GeneratorBasis",
    "StructureTensors",
    "TRACE_NORMALIZATION",
    "bloch_scale",
    "build_basis",
    "structure_constants",
    "bloch_to_density",
    "density_to_bloch",
    "random_bloch_vector",
]

TRACE_NORMALIZATION = 2.0
"""Value of Tr[T_i T_j] / delta_ij for the traceless generators."""

_IMAG_RESIDUE_TOL = 1e-12


def bloch_scale(dim: int) -> float:
    """Coefficient c_N = sqrt(N (N - 1) / 2) of the Bloch expansion."""
    return np.sqrt(dim * (dim - 1) / 2.0)


@dataclass(frozen=True)
class GeneratorBasis:
    """SU(N) Hermitian generators T_0 = I, T_1 .. T_{N^2-1} traceless.

    ``generators`` has shape (N^2, N, N); index 0 is the identity.
    """

    dimension: int
    generators: np.ndarray

    @property
    def n_traceless(self) -> int:
        return self.dimension ** 2 - 1

    def traceless(self) -> np.ndarray:
        """The (N^2-1, N, N) stack T_1 .. T_{N^2-1}."""
        return self.generators[1:]


@dataclass(frozen=True)
class StructureTensors:
    """Structure constants f, d-coefficients, and derived dissipator tensors.

    ``f`` and ``d`` are real rank-3 tensors over the traceless indices
    (0-based storage for generator indices 1 .. N^2-1).  ``s`` is the
    rank-4 dissipator projection tensor s[m, n, j, i] with m, n running
    over the full basis (identity slot included) and j, i over the
    traceless part; ``g`` collects the inhomogeneous-term coefficients
    g[m, n, k] so that the constant Bloch drift of a channel with shape
    vector l is sum_mn l_m l_n^* g[m, n, k].
    """

    dimension: int
    f: np.ndarray
    d: np.ndarray
    s: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)


def build_basis(dim: int) -> GeneratorBasis:
    """Construct the generalized Gell-Mann basis for SU(dim).

    Raises
    ------
    DimensionError
        If ``dim < 2``.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise DimensionError(f"generator basis needs integer dimension >= 2, got {dim!r}")
    mats = [np.eye(dim, dtype=complex)]
    # symmetric pairs |j><k| + |k><j|
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    # antisymmetric pairs -i|j><k| + i|k><j|
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    # diagonal generators sqrt(2 / (l (l+1))) * diag(1, ..., 1, -l, 0, ...)
    for l in range(1, dim):
        v = np.zeros(dim)
        v[:l] = 1.0
        v[l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(v).astype(complex))
    return GeneratorBasis(dimension=dim, generators=np.array(mats))


def _product_coefficients(basis: GeneratorBasis) -> np.ndarray:
    """z[a, b, p] with T_a T_b = (eta/N) delta_ab I + sum_p z[a,b,p] T_p (a, b, p traceless)."""
    t = basis.traceless()
    return np.einsum("aij,bjk,pki->abp", t, t, t) / TRACE_NORMALIZATION


def structure_constants(basis: GeneratorBasis) -> StructureTensors:
    """Compute f_{ijk}, d_{ijk} and the cached dissipator tensors.

    f_{ijk} = -i Tr[[T_i, T_j] T_k] / eta and d_{ijk} = Tr[{T_i, T_j} T_k] / eta
    with eta = TRACE_NORMALIZATION.  Imaginary residues beyond 1e-12 are
    rejected; below that they are discarded.
    """
    z = _product_coefficients(basis)
    f_c = -1.0j * (z - np.swapaxes(z, 0, 1))
    d_c = z + np.swapaxes(z, 0, 1)
    for name, tens in (("f", f_c), ("d", d_c)):
        resid = np.max(np.abs(tens.imag))
        if resid > _IMAG_RESIDUE_TOL:
            raise ArithmeticError(f"structure tensor {name} has imaginary residue {resid:.3e}")
    f = f_c.real
    d = d_c.real
    s = _dissipator_tensor(basis, z, f, d)
    g = _inhomogeneous_tensor(basis, f)
    return StructureTensors(dimension=basis.dimension, f=f, d=d, s=s, g=g)


def _dissipator_tensor(basis: GeneratorBasis, z: np.ndarray, f: np.ndarray,
                       d: np.ndarray) -> np.ndarray:
    """s[m, n, j, i] = Tr[T_i (2 T_m T_j T_n - T_n T_m T_j - T_j T_n T_m)] / eta,
    eta = TRACE_NORMALIZATION.

    m, n include the identity slot 0 (where T_0 acts trivially and the
    expression collapses to commutators); j, i are traceless only.
    """
    dim = basis.dimension
    n = basis.n_traceless
    eta = TRACE_NORMALIZATION
    eye = np.eye(n)
    s = np.zeros((n + 1, n + 1, n, n), dtype=complex)
    term1 = (2.0 * eta / dim) * (np.einsum("im,jn->mnji", eye, eye)
                                 - np.einsum("mn,ij->mnji", eye, eye))
    term2 = 2.0 * np.einsum("imp,jnp->mnji", z, z)
    term3 = -np.einsum("nmp,ijp->mnji", z, d.astype(complex))
    s[1:, 1:] = term1 + term2 + term3
    # identity slots: 2 T_j T_n - T_n T_j - T_j T_n = [T_j, T_n], etc.
    s[0, 1:] = np.einsum("jni->nji", 1.0j * f)
    s[1:, 0] = np.einsum("mji->mji", 1.0j * f)
    return s


def _inhomogeneous_tensor(basis: GeneratorBasis, f: np.ndarray) -> np.ndarray:
    """g[m, n, k] giving the constant drift sum_mn l_m l_n^* g[m,n,k] of a channel."""
    return (2.0j / bloch_scale(basis.dimension)) * f.astype(complex)


def _first_in_stack(mask: np.ndarray, noun: str):
    """Index of the first True entry of ``mask`` and the words naming it in a
    message: none for a single instance, " (noun i of the stack)" for a stack."""
    i = np.unravel_index(np.argmax(mask), mask.shape)
    return i, f" ({noun} {', '.join(map(str, i))} of the stack)" if i else ""


def bloch_to_density(r: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Map a generalized Bloch vector (or a stack (..., N^2 - 1)) to its density matrix."""
    r = np.asarray(r, dtype=float)
    n = basis.n_traceless
    if r.shape[-1:] != (n,):
        raise DimensionError(f"Bloch vector must have length {n}, got shape {r.shape}")
    dim = basis.dimension
    rho = (np.eye(dim, dtype=complex)
           + bloch_scale(dim) * np.tensordot(r, basis.traceless(), axes=1)) / dim
    return rho


def density_to_bloch(rho: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Extract the generalized Bloch vector from a density matrix.

    ``rho`` may be one matrix or a stack of shape (..., N, N); a stack gives
    Bloch vectors of shape (..., N^2 - 1).

    Raises
    ------
    MalformedStateError
        If the trace of any matrix deviates from 1 by more than 1e-9 (the
        message names the first one).
    """
    rho = np.asarray(rho, dtype=complex)
    dim = basis.dimension
    if rho.ndim < 2 or rho.shape[-2:] != (dim, dim):
        raise DimensionError(f"density matrix must be {dim}x{dim}, got {rho.shape}")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > 1e-9
    if off.any():
        i, where = _first_in_stack(off, "matrix")
        raise MalformedStateError(f"density matrix trace {tr[i]} is not 1 within 1e-9{where}")
    coeff = dim / (bloch_scale(dim) * TRACE_NORMALIZATION)
    r = coeff * np.einsum("kij,...ji->...k", basis.traceless(), rho)
    return r.real


def random_bloch_vector(dim: int, rng: np.random.Generator, max_norm: float,
                        size: tuple[int, ...] = ()) -> np.ndarray:
    """Uniform-direction Bloch vector with |r| <= max_norm (physical for N = 2);
    a stack of shape (*size, N^2 - 1) from the same two whole-array draws: the
    directions, then the radii."""
    n = dim * dim - 1
    v = rng.normal(size=(*size, n))
    v /= np.sqrt(np.vecdot(v, v))[..., None]
    return v * max_norm * (rng.uniform(size=size) ** (1.0 / n))[..., None]
