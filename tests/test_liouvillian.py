import io

import numpy as np
import pytest

from blochsteer import bloch_to_density, density_to_bloch
from blochsteer.controls import SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE
from blochsteer.errors import DimensionError, MalformedLiouvillianError
from blochsteer.liouvillian import (HamiltonianSpec, LindbladChannel, _kron,
                                    assemble_components, channel_drift, channel_matrix,
                                    coherent_part, components_from_kron, incoherent_part,
                                    inhomogeneous_part, kron_liouvillian,
                                    trace_preservation_residual, unvec, vec)
from blochsteer.sun_algebra import (bloch_scale, build_basis, random_bloch_vector,
                                    structure_constants)


def random_instance(dim, rng, n_channels=None):
    n = dim * dim - 1
    ham = HamiltonianSpec(rng.normal(size=dim * dim))
    k = n_channels or int(rng.integers(1, 4))
    # the full rate: a bare rate times an incoherent control multiplier
    chans = [LindbladChannel(shape=rng.normal(size=n) + 1j * rng.normal(size=n),
                             rate=float(rng.normal()) * float(rng.uniform(0.1, 2)))
             for _ in range(k)]
    return ham, chans


def thermal_channels(gamma, nbar):
    return [LindbladChannel(SIGMA_MINUS_SHAPE, rate=gamma * (nbar + 1)),
            LindbladChannel(SIGMA_PLUS_SHAPE, rate=gamma * nbar)]


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


def test_incoherent_linearity_in_rate(qubit, rng):
    _, tensors = qubit
    shape = rng.normal(size=3) + 1j * rng.normal(size=3)
    for c1, c2 in rng.uniform(0.1, 3.0, size=(10, 2)):
        a = incoherent_part([LindbladChannel(shape, rate=c1)], tensors)
        b = incoherent_part([LindbladChannel(shape, rate=c2)], tensors)
        both = incoherent_part([LindbladChannel(shape, rate=c1 + c2)], tensors)
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
    with pytest.raises(MalformedLiouvillianError, match=r"by 1\.000e-03$"):
        components_from_kron(bad, basis)
    # a stack names its first failing supermatrix
    stack = np.zeros((2, 3, 4, 4), dtype=complex)
    stack[1, 2, 0, 0], stack[1, 1, 3, 3] = 1e-3, 2e-3
    with pytest.raises(MalformedLiouvillianError,
                       match=r"by 2\.000e-03 \(supermatrix 1, 1 of the stack\)$"):
        components_from_kron(stack, basis)


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


@pytest.mark.parametrize("dim", [2, 3])
def test_identity_slot_channels_agree_in_both_forms(dim, rng):
    # a shape of length N^2 carries the identity coefficient first; the
    # Kronecker form builds L over the full basis like the component form does
    basis = build_basis(dim)
    tensors = structure_constants(basis)
    n = dim * dim - 1
    for _ in range(30):
        ham = HamiltonianSpec(rng.normal(size=dim * dim))
        chans = [LindbladChannel(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1),
                                 rate=float(rng.normal()))]
        direct = assemble_components(ham, chans, tensors)
        proj = components_from_kron(kron_liouvillian(ham, chans, basis), basis)
        assert np.max(np.abs(proj.matrix - direct.matrix)) < 1e-11
        assert np.max(np.abs(proj.drift - direct.drift)) < 1e-11
    # a shape of any other length is a DimensionError in both forms
    zero = HamiltonianSpec(np.zeros(dim * dim))
    for length in (n - 1, n + 2):
        bad = [LindbladChannel(np.ones(length))]
        message = rf"channel shape must have length {n} \(or {n + 1}\), got \({length},\)"
        with pytest.raises(DimensionError, match=message):
            assemble_components(zero, bad, tensors)
        with pytest.raises(DimensionError, match=message):
            kron_liouvillian(zero, bad, basis)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_builders_match_single_calls(dim, rng):
    # every builder follows numpy's shape rules: a stack of 25 instances gives
    # the bits of 25 single calls
    basis = build_basis(dim)
    tensors = structure_constants(basis)
    n, k = dim * dim - 1, 25
    coefficients = rng.normal(size=(k, dim * dim))
    shapes = rng.normal(size=(2, k, n)) + 1j * rng.normal(size=(2, k, n))
    full = rng.normal(size=(k, n + 1)) + 1j * rng.normal(size=(k, n + 1))
    rates = rng.normal(size=(2, k)) * rng.uniform(0.1, 2.0, size=(2, k))
    r = np.array([random_bloch_vector(dim, rng, 0.9 / np.sqrt(dim)) for _ in range(k)])
    ham = HamiltonianSpec(coefficients)
    chans = [LindbladChannel(s, rate=g) for s, g in zip(shapes, rates)]

    def instance(i):
        return (HamiltonianSpec(coefficients[i]),
                [LindbladChannel(s[i], rate=g[i]) for s, g in zip(shapes, rates)])

    def same(stacked, single):
        assert stacked.shape == (k, *np.shape(single(0)))
        assert np.array_equal(stacked, [single(i) for i in range(k)])

    same(ham.matrix(basis), lambda i: instance(i)[0].matrix(basis))
    same(coherent_part(ham, tensors), lambda i: coherent_part(instance(i)[0], tensors))
    for shape in (shapes[0], full):
        same(channel_matrix(shape, tensors), lambda i: channel_matrix(shape[i], tensors))
        same(channel_drift(shape, tensors), lambda i: channel_drift(shape[i], tensors))
    same(incoherent_part(chans, tensors), lambda i: incoherent_part(instance(i)[1], tensors))
    same(inhomogeneous_part(chans, tensors),
         lambda i: inhomogeneous_part(instance(i)[1], tensors))
    comp = assemble_components(ham, chans, tensors)
    same(comp.matrix, lambda i: assemble_components(*instance(i), tensors).matrix)
    same(comp.drift, lambda i: assemble_components(*instance(i), tensors).drift)
    same(comp.apply(r), lambda i: assemble_components(*instance(i), tensors).apply(r[i]))
    a = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))
    same(_kron(a, a.conj()), lambda i: np.kron(a[i], a[i].conj()))
    sup = kron_liouvillian(ham, chans, basis)
    same(sup, lambda i: kron_liouvillian(*instance(i), basis))
    same(trace_preservation_residual(sup), lambda i: trace_preservation_residual(sup[i]))
    proj = components_from_kron(sup, basis)
    same(proj.matrix, lambda i: components_from_kron(sup[i], basis).matrix)
    same(proj.drift, lambda i: components_from_kron(sup[i], basis).drift)
    rho = bloch_to_density(r, basis)
    same(rho, lambda i: bloch_to_density(r[i], basis))
    same(vec(rho), lambda i: vec(rho[i]))
    assert np.array_equal(unvec(vec(rho)), rho)
    # a single instance broadcasts against a stack
    one = assemble_components(instance(0)[0], chans, tensors)
    assert np.array_equal(one.matrix[3], assemble_components(
        instance(0)[0], instance(3)[1], tensors).matrix)
    assert one.drift.shape == (k, n)


# The builders' contractions written with einsum, the reference of the row-wise
# products; a shape l runs over the full basis, identity slot first.
def einsum_matrix(coefficients, basis):
    return np.einsum("...k,kij->...ij", coefficients, basis.generators)


def einsum_coherent_part(coefficients, tensors):
    return np.einsum("...k,kji->...ij", coefficients[..., 1:], tensors.f)


def einsum_channel_matrix(l, tensors):
    a = l[..., :, None] * l[..., None, :].conj()
    return np.einsum("...mn,mnji->...ij", a, tensors.s).real


def einsum_channel_drift(l, tensors):
    return np.einsum("...m,...n,mnk->...k", l[..., 1:], l[..., 1:].conj(), tensors.g).real


def einsum_apply(matrix, drift, r):
    return np.einsum("...ij,...j->...i", matrix, r) + drift


def einsum_components_from_kron(supermatrix, basis):
    images = unvec(np.einsum("ij,kj->ki", supermatrix, vec(basis.generators)))
    cols = np.einsum("kab,jba->kj", basis.traceless(), images).real / 2.0
    return cols[:, 1:], cols[:, 0] / bloch_scale(basis.dimension)


@pytest.mark.parametrize("dim", [2, 3])
def test_row_wise_builders_match_the_einsum_contractions(dim, rng):
    # the same sums in another order: equal up to rounding
    basis = build_basis(dim)
    tensors = structure_constants(basis)
    n, k = dim * dim - 1, 25
    coefficients = rng.normal(size=(k, dim * dim))
    full = rng.normal(size=(k, n + 1)) + 1j * rng.normal(size=(k, n + 1))
    ham = HamiltonianSpec(coefficients)
    chans = [LindbladChannel(full, rate=rng.normal(size=k))]
    r = random_bloch_vector(dim, rng, 0.9 / np.sqrt(dim), size=(k,))

    def close(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    close(ham.matrix(basis), einsum_matrix(coefficients, basis))
    close(chans[0].operator(basis), einsum_matrix(full, basis))
    close(coherent_part(ham, tensors), einsum_coherent_part(coefficients, tensors))
    close(channel_matrix(full, tensors), einsum_channel_matrix(full, tensors))
    close(channel_drift(full, tensors), einsum_channel_drift(full, tensors))
    comp = assemble_components(ham, chans, tensors)
    close(comp.apply(r), einsum_apply(comp.matrix, comp.drift, r))
    sup = kron_liouvillian(ham, chans, basis)
    proj = components_from_kron(sup, basis)
    ref = [einsum_components_from_kron(one, basis) for one in sup]
    close(proj.matrix, np.array([matrix for matrix, _ in ref]))
    close(proj.drift, np.array([drift for _, drift in ref]))


def test_selfcheck_builder_calls_do_not_grow_with_the_instances(monkeypatch):
    # each suite checks its whole stack in one call of each builder, so more
    # instances must not add a single call (a per-instance loop would)
    from blochsteer import liouvillian, selfcheck

    calls = {"kron_liouvillian": 0, "assemble_components": 0, "solve_controls": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(liouvillian, "kron_liouvillian")
    counted(liouvillian, "assemble_components")
    counted(selfcheck, "solve_controls")
    assert selfcheck.run_selfcheck(stream=io.StringIO()) == 0
    assert calls == {"kron_liouvillian": 2, "assemble_components": 3, "solve_controls": 1}
    counts = []
    for instances in (4, 40):
        calls.update(dict.fromkeys(calls, 0))
        selfcheck._suite_liouvillian(np.random.default_rng(1), instances)
        selfcheck._suite_solver(np.random.default_rng(1), instances)
        counts.append(dict(calls))
    assert counts[0] == counts[1]


class CountingGenerator:
    """A numpy Generator that counts the calls of its methods."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def test_selfcheck_generator_calls_do_not_grow_with_the_instances():
    # each suite draws whole arrays: per dimension of the Liouvillian suite the
    # coefficients, channel counts, real and imaginary shape parts, rates, and
    # the states' directions and radii; one batch of states and the velocities,
    # rates and shifts for the solver suite; one table for the propagator suite
    from blochsteer import selfcheck
    suites = {"liouvillian": (selfcheck._suite_liouvillian, 14),
              "solver": (selfcheck._suite_solver, 5),
              "propagator": (lambda rng, k: selfcheck._suite_propagator(rng, k, 11), 1)}
    for name, (suite, draws) in suites.items():
        counts = []
        for instances in (4, 40):
            rng = CountingGenerator(1)
            suite(rng, instances)
            counts.append(rng.calls)
        assert counts == [draws, draws], name


@pytest.mark.parametrize("seed", range(10))
def test_selfcheck_suites_pass_at_every_seed(seed):
    # run_selfcheck's instance counts and clauses, at seeds other than its own
    from blochsteer import selfcheck
    worst, residual = selfcheck._suite_liouvillian(np.random.default_rng(seed), 50)
    assert worst < 1e-10 and residual < 1e-12
    worst, boundary = selfcheck._suite_propagator(np.random.default_rng(seed), 5, 201)
    assert worst < 1e-12 and boundary < 1e-10
    worst, back = selfcheck._suite_solver(np.random.default_rng(seed), 100)
    assert worst < 1e-9 and back < 1e-10
