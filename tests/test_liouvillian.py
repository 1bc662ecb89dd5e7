import numpy as np
import pytest

from blochsteer import bloch_to_density, density_to_bloch
from blochsteer.controls import SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE
from blochsteer.errors import MalformedLiouvillianError
from blochsteer.liouvillian import (HamiltonianSpec, LindbladChannel, _kron,
                                    assemble_components, channel_drift, channel_matrix,
                                    coherent_part, components_from_kron, incoherent_part,
                                    inhomogeneous_part, kron_liouvillian,
                                    trace_preservation_residual, unvec, vec)
from blochsteer.sun_algebra import random_bloch_vector


def random_instance(dim, rng, n_channels=None):
    n = dim * dim - 1
    ham = HamiltonianSpec(rng.normal(size=dim * dim))
    k = n_channels or int(rng.integers(1, 4))
    chans = [LindbladChannel(shape=rng.normal(size=n) + 1j * rng.normal(size=n),
                             rate=float(rng.normal()), control=float(rng.uniform(0.1, 2)))
             for _ in range(k)]
    return ham, chans


def thermal_channels(gamma, nbar):
    return [LindbladChannel(SIGMA_MINUS_SHAPE, rate=gamma * (nbar + 1), name="emission"),
            LindbladChannel(SIGMA_PLUS_SHAPE, rate=gamma * nbar, name="absorption")]


def test_coherent_part_level_shift(qubit):
    # H = (s0/2)(I + sigma_z) rotates (r_x, r_y) at rate s0 and leaves r_z alone
    _, tensors = qubit
    s0 = 0.73
    mat = coherent_part(HamiltonianSpec([s0 / 2, 0, 0, s0 / 2]), tensors)
    assert np.allclose(mat, [[0, -s0, 0], [s0, 0, 0], [0, 0, 0]], atol=1e-14)


def test_coherent_part_zero_and_antisymmetry(qubit, rng):
    _, tensors = qubit
    assert np.allclose(coherent_part(HamiltonianSpec(np.zeros(4)), tensors), 0.0)
    for _ in range(20):
        mat = coherent_part(HamiltonianSpec(rng.normal(size=4)), tensors)
        assert np.max(np.abs(mat + mat.T)) < 1e-12


def test_incoherent_part_thermal_pair(qubit):
    _, tensors = qubit
    gamma, nbar = 0.8, 0.6
    mat = incoherent_part(thermal_channels(gamma, nbar), tensors)
    total = (2 * nbar + 1) * gamma
    assert np.allclose(mat, np.diag([-total, -total, -2 * total]), atol=1e-12)


def test_incoherent_part_zero_rates(qubit):
    _, tensors = qubit
    assert np.allclose(incoherent_part(thermal_channels(0.0, 0.3), tensors), 0.0)


def test_inhomogeneous_part_thermal_pair(qubit):
    _, tensors = qubit
    gamma, nbar = 1.3, 0.25
    drift = inhomogeneous_part(thermal_channels(gamma, nbar), tensors)
    assert np.allclose(drift, [0.0, 0.0, -2 * gamma], atol=1e-12)


def test_inhomogeneous_vanishes_for_hermitian_channel(qubit):
    _, tensors = qubit
    dephasing = LindbladChannel(np.array([0.0, 0.0, 1.0]), rate=0.9)
    assert np.allclose(channel_drift(dephasing.shape, tensors), 0.0, atol=1e-14)


def test_kron_zero(qubit):
    basis, _ = qubit
    s = kron_liouvillian(HamiltonianSpec(np.zeros(4)), [], basis)
    assert np.allclose(s, 0.0)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 3)])
def test_kron_helper_is_np_kron_bit_for_bit(n, m, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    for left, right in ((a, b), (a, np.eye(m, dtype=complex)), (np.eye(n, dtype=complex), b)):
        assert np.array_equal(_kron(left, right), np.kron(left, right))


def test_kron_reference_supermatrix(qubit):
    # reference generator with H = s0 |e><e| + W sigma_x and thermal channels,
    # in row-major ordering (ee, eg, ge, gg)
    basis, _ = qubit
    gamma, n0, s0, w = 0.7, 0.15, 0.4, 1.1
    npr = 2 * n0 + 1
    ham = HamiltonianSpec([s0 / 2, w, 0.0, s0 / 2])
    got = kron_liouvillian(ham, thermal_channels(gamma, n0), basis)
    expected = gamma * np.array([
        [-(npr + 1), 1j * w / gamma, -1j * w / gamma, npr - 1],
        [1j * w / gamma, -npr - 1j * s0 / gamma, 0, -1j * w / gamma],
        [-1j * w / gamma, 0, -npr + 1j * s0 / gamma, 1j * w / gamma],
        [npr + 1, -1j * w / gamma, 1j * w / gamma, -npr + 1],
    ])
    assert np.max(np.abs(got - expected)) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_oracle_equivalence_random(dim, rng):
    # component form vs supermatrix action on random states
    from blochsteer import build_basis, structure_constants
    basis = build_basis(dim)
    tensors = structure_constants(basis)
    for _ in range(60):
        ham, chans = random_instance(dim, rng)
        comp = assemble_components(ham, chans, tensors)
        sup = kron_liouvillian(ham, chans, basis)
        assert trace_preservation_residual(sup) < 1e-12
        r = random_bloch_vector(dim, rng, 0.9 / np.sqrt(dim))
        rho = bloch_to_density(r, basis)
        image = unvec(sup @ vec(rho)) + np.eye(dim) / dim
        assert np.max(np.abs(comp.apply(r) - density_to_bloch(image, basis))) < 1e-10


def test_incoherent_linearity_in_control(qubit, rng):
    _, tensors = qubit
    shape = rng.normal(size=3) + 1j * rng.normal(size=3)
    for c1, c2 in rng.uniform(0.1, 3.0, size=(10, 2)):
        a = incoherent_part([LindbladChannel(shape, rate=1.0, control=c1)], tensors)
        b = incoherent_part([LindbladChannel(shape, rate=1.0, control=c2)], tensors)
        both = incoherent_part([LindbladChannel(shape, rate=1.0, control=c1 + c2)], tensors)
        assert np.max(np.abs(a + b - both)) < 1e-12


def test_components_from_kron_matches_direct(qubit, rng):
    basis, tensors = qubit
    zero = components_from_kron(np.zeros((4, 4)), basis)
    assert np.allclose(zero.matrix, 0.0) and np.allclose(zero.drift, 0.0)
    for _ in range(25):
        ham, chans = random_instance(2, rng)
        direct = assemble_components(ham, chans, tensors)
        proj = components_from_kron(kron_liouvillian(ham, chans, basis), basis)
        assert np.max(np.abs(proj.matrix - direct.matrix)) < 1e-10
        assert np.max(np.abs(proj.drift - direct.drift)) < 1e-10


def test_components_from_kron_two_level_coefficients(qubit):
    # thermal pair plus level shift reproduces the textbook Bloch coefficients
    basis, _ = qubit
    gamma, nbar, s0 = 0.9, 0.4, 0.3
    ham = HamiltonianSpec([s0 / 2, 0.0, 0.0, s0 / 2])
    comp = components_from_kron(kron_liouvillian(ham, thermal_channels(gamma, nbar), basis),
                                basis)
    total = (2 * nbar + 1) * gamma
    expected = np.array([[-total, -s0, 0.0], [s0, -total, 0.0], [0.0, 0.0, -2 * total]])
    assert np.max(np.abs(comp.matrix - expected)) < 1e-12
    assert np.allclose(comp.drift, [0.0, 0.0, -2 * gamma], atol=1e-12)


def test_components_from_kron_rejects_trace_violation(qubit):
    basis, _ = qubit
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = 1e-3  # pumps trace
    with pytest.raises(MalformedLiouvillianError):
        components_from_kron(bad, basis)


def test_identity_component_shapes_against_oracle(qubit, rng):
    # shape vectors with an identity component exercise the m,n = 0 tensor slots
    basis, tensors = qubit
    for _ in range(10):
        full = rng.normal(size=4) + 1j * rng.normal(size=4)
        mat = channel_matrix(full, tensors)
        drift = channel_drift(full, tensors)
        op = np.tensordot(full, basis.generators, axes=1)
        eye = np.eye(2, dtype=complex)
        sup = (2.0 * np.kron(op, op.conj()) - np.kron(op.conj().T @ op, eye)
               - np.kron(eye, (op.conj().T @ op).T))
        proj = components_from_kron(sup, basis)
        assert np.max(np.abs(mat - proj.matrix)) < 1e-11
        assert np.max(np.abs(drift - proj.drift)) < 1e-11
