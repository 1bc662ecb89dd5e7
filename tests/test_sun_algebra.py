import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsteer import bloch_to_density, build_basis, density_to_bloch, structure_constants
from blochsteer.errors import DimensionError, MalformedStateError
from blochsteer.sun_algebra import bloch_scale, random_bloch_vector

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_pauli_case():
    basis = build_basis(2)
    assert np.allclose(basis.generators[0], np.eye(2))
    for got, want in zip(basis.traceless(), (SX, SY, SZ)):
        assert np.allclose(got, want)


def test_invalid_dimension():
    with pytest.raises(DimensionError):
        build_basis(1)
    with pytest.raises(DimensionError):
        build_basis(0)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_hermiticity_traces_orthogonality(dim):
    basis = build_basis(dim)
    t = basis.generators
    assert len(t) == dim * dim
    for m in t:
        assert np.max(np.abs(m - m.conj().T)) < 1e-14
    assert abs(np.trace(t[0]) - dim) < 1e-14
    for m in t[1:]:
        assert abs(np.trace(m)) < 1e-14
    gram = np.einsum("aij,bji->ab", t[1:], t[1:])
    assert np.max(np.abs(gram - 2.0 * np.eye(dim * dim - 1))) < 1e-12


def test_structure_constants_pauli_oracle():
    # direct commutator computation with hand-built Pauli matrices
    basis = build_basis(2)
    tensors = structure_constants(basis)
    pauli = (SX, SY, SZ)
    for i, j, k in itertools.product(range(3), repeat=3):
        comm = pauli[i] @ pauli[j] - pauli[j] @ pauli[i]
        expected = np.trace(comm @ pauli[k]) / (2j)
        assert abs(tensors.f[i, j, k] - expected.real) < 1e-13
    assert abs(tensors.f[0, 1, 2] - 2.0) < 1e-13
    assert np.max(np.abs(tensors.d)) < 1e-13


@pytest.mark.parametrize("dim", [2, 3])
def test_tensor_symmetries(dim):
    tensors = structure_constants(build_basis(dim))
    f, d = tensors.f, tensors.d
    for perm, sign in [((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                       ((1, 2, 0), +1), ((2, 0, 1), +1)]:
        assert np.max(np.abs(f - sign * np.transpose(f, perm))) < 1e-12
        assert np.max(np.abs(d - np.transpose(d, perm))) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_commutator_reconstruction(dim):
    basis = build_basis(dim)
    tensors = structure_constants(basis)
    t = basis.traceless()
    n = len(t)
    eye = np.eye(dim)
    for i, j in itertools.product(range(n), repeat=2):
        comm = t[i] @ t[j] - t[j] @ t[i]
        anti = t[i] @ t[j] + t[j] @ t[i]
        comm_rec = 1j * np.tensordot(tensors.f[i, j], t, axes=1)
        anti_rec = (4.0 / dim) * (i == j) * eye + np.tensordot(tensors.d[i, j], t, axes=1)
        assert np.max(np.abs(comm - comm_rec)) < 1e-12
        assert np.max(np.abs(anti - anti_rec)) < 1e-12


def test_bloch_density_poles():
    basis = build_basis(2)
    assert np.allclose(bloch_to_density(np.zeros(3), basis), np.eye(2) / 2)
    ground = bloch_to_density(np.array([0.0, 0.0, -1.0]), basis)
    assert np.allclose(ground, np.diag([0.0, 1.0]))
    excited = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(density_to_bloch(excited, basis), [0.0, 0.0, 1.0])


@pytest.mark.parametrize("dim", [2, 3])
def test_round_trip_random_states(dim, rng):
    basis = build_basis(dim)
    for _ in range(100):
        rho = random_density(dim, rng)
        r = density_to_bloch(rho, basis)
        assert np.max(np.abs(bloch_to_density(r, basis) - rho)) < 1e-12
        assert np.dot(r, r) <= 1.0 + 1e-12
    for _ in range(100):
        r = random_bloch_vector(dim, rng, max_norm=0.5)
        back = density_to_bloch(bloch_to_density(r, basis), basis)
        assert np.max(np.abs(back - r)) < 1e-12


def test_bloch_scale_matches_qubit_convention():
    assert bloch_scale(2) == 1.0
    # trace of rho^2 is 1/N + (N-1)/N |r|^2 under this scaling
    basis = build_basis(3)
    r = np.zeros(8)
    r[7] = 0.4
    rho = bloch_to_density(r, basis)
    assert abs(np.trace(rho @ rho).real - (1 / 3 + (2 / 3) * 0.16)) < 1e-12


def test_pure_state_norm_equivalence(rng):
    basis = build_basis(2)
    for _ in range(25):
        unit = random_bloch_vector(2, rng, 1.0)
        unit /= np.linalg.norm(unit)
        rho = bloch_to_density(unit, basis)
        assert np.max(np.abs(rho @ rho - rho)) < 1e-10
        mixed = unit * 0.7
        rho_m = bloch_to_density(mixed, basis)
        assert np.max(np.abs(rho_m @ rho_m - rho_m)) > 1e-3


def test_malformed_inputs():
    basis = build_basis(2)
    with pytest.raises(MalformedStateError):
        density_to_bloch(np.diag([0.7, 0.7]), basis)
    with pytest.raises(DimensionError):
        bloch_to_density(np.zeros(4), basis)
    with pytest.raises(DimensionError):
        density_to_bloch(np.eye(3) / 3, basis)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
def test_round_trip_property(comps):
    r = np.array(comps)
    norm = np.linalg.norm(r)
    if norm > 1.0:
        r = r / (norm + 1e-9)
    basis = build_basis(2)
    rho = bloch_to_density(r, basis)
    w = np.linalg.eigvalsh(rho)
    assert w.min() > -1e-10
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.max(np.abs(density_to_bloch(rho, basis) - r)) < 1e-12


def test_reconstruction_spot_check_dim4(rng):
    # random index triples at the largest supported desk-scale dimension
    basis = build_basis(4)
    tensors = structure_constants(basis)
    t = basis.traceless()
    for _ in range(12):
        i, j = rng.integers(0, len(t), size=2)
        comm = t[i] @ t[j] - t[j] @ t[i]
        rec = 1j * np.tensordot(tensors.f[i, j], t, axes=1)
        assert np.max(np.abs(comm - rec)) < 1e-12


def test_stacked_density_to_bloch_matches_scalar_calls():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        basis = build_basis(dim)
        rhos = np.array([random_density(dim, rng) for _ in range(25)])
        stacked = density_to_bloch(rhos, basis)
        assert stacked.shape == (25, dim * dim - 1)
        for rho, r in zip(rhos, stacked):
            assert np.max(np.abs(r - density_to_bloch(rho, basis))) <= 1e-15
        rhos[11] *= 1.01
        with pytest.raises(MalformedStateError, match="matrix 11"):
            density_to_bloch(rhos, basis)
