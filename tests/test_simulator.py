import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from blochsteer.controls import (SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE, ControlSchedule,
                                 schedule_from_trajectory)
from blochsteer.environment import LorentzianEnvironment, _log_derivative
from blochsteer.errors import (DimensionError, IntegrationDivergedError, InvalidInputError,
                               MalformedStateError)
from blochsteer.liouvillian import (HamiltonianSpec, LindbladChannel, assemble_components,
                                    kron_liouvillian)
from blochsteer.simulator import (_compose, _density_generators, _hermitian_maps,
                                  _homogeneous, _qubit_parts, _rk4_linear, _stage_coefficients,
                                  _step_maps, _table_run, fidelity_bloch, integrate_bloch,
                                  integrate_density, integrate_density_general,
                                  lab_field_from_effective, renormalized_field,
                                  reservoir_table)
from blochsteer.sun_algebra import bloch_to_density, random_bloch_vector
from blochsteer.trajectories import mixed_inversion_trajectory, tracking_trajectory


def decay_generator(gamma, qubit_tensors):
    """Constant-coefficient spontaneous-decay generator built from the algebra."""
    ham = HamiltonianSpec(np.zeros(4))
    chan = [LindbladChannel(SIGMA_MINUS_SHAPE, rate=gamma)]
    return assemble_components(ham, chan, qubit_tensors)


def constant_run(matrix, drift, y0, times, min_steps):
    """RK4 of ydot = M y + b with constant M and b: the table run of one
    constant coefficient times their homogeneous generator."""
    return _table_run(lambda t: np.ones(1), _homogeneous(matrix, drift)[None],
                      np.append(y0, 1.0), times, min_steps, y0)[:, :-1]


def affine_run(matrix_fun, drift_fun, y0, times, sub):
    """RK4 of ydot = M(t) y + b(t) on the core, ``sub`` steps per output
    interval, with the stacked homogeneous generators of M and b at the
    fine-grid times as its stages."""
    fine = np.linspace(times[0], times[-1], 2 * (len(times) - 1) * sub + 1)
    gens = _homogeneous(matrix_fun(fine), np.broadcast_to(drift_fun(fine), (len(fine), len(y0))))
    return _rk4_linear(lambda idx: gens[idx], np.append(y0, 1.0), times, sub)[:, :-1]


def analytic_decay(r0, gamma, t):
    return np.array([r0[0] * np.exp(-gamma * t),
                     r0[1] * np.exp(-gamma * t),
                     -1.0 + (r0[2] + 1.0) * np.exp(-2.0 * gamma * t)])


def test_constant_decay_matches_analytic(qubit):
    _, tensors = qubit
    gamma = 1.0
    comp = decay_generator(gamma, tensors)
    r0 = np.array([1.0, 0.0, 0.3])
    times = np.linspace(0.0, 5.0, 51)
    states = constant_run(comp.matrix, comp.drift, r0, times, 5000)
    exact = np.array([analytic_decay(r0, gamma, t) for t in times])
    assert np.max(np.abs(states - exact)) < 1e-9


def test_rk4_step_halving_order(qubit):
    _, tensors = qubit
    comp = decay_generator(0.9, tensors)
    r0 = np.array([0.8, -0.2, 0.1])
    times = np.array([0.0, 2.0])
    exact = analytic_decay(r0, 0.9, 2.0)
    errors = []
    for steps in (40, 80):
        states = constant_run(comp.matrix, comp.drift, r0, times, steps)
        errors.append(np.max(np.abs(states[-1] - exact)))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def rk4_loop(matrix_fun, drift_fun, y0, times, sub):
    """Literal per-step RK4 on the integrator's fine grid (test oracle)."""
    n_steps = (len(times) - 1) * sub
    fine = np.linspace(times[0], times[-1], 2 * n_steps + 1)
    h = (times[-1] - times[0]) / n_steps
    y = np.array(y0)
    out = [y]
    for step in range(n_steps):
        t1, t2, t4 = fine[2 * step:2 * step + 3]
        k1 = matrix_fun(t1) @ y + drift_fun(t1)
        k2 = matrix_fun(t2) @ (y + 0.5 * h * k1) + drift_fun(t2)
        k3 = matrix_fun(t2) @ (y + 0.5 * h * k2) + drift_fun(t2)
        k4 = matrix_fun(t4) @ (y + h * k3) + drift_fun(t4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % sub == 0:
            out.append(y)
    return np.array(out)


# (output intervals, steps per interval): one step per interval, several, and
# one interval whose step maps take more bytes than the fine grid, or at d = 4
# than ``_CHUNK_BYTES`` itself (1,500 steps); none fills a whole number of chunks
STEP_MAP_CASES = [(300, 1), (300, 3), (2, 600), (2, 1500)]


@pytest.mark.parametrize("n_out, sub", STEP_MAP_CASES)
def test_step_maps_match_rk4_loop_real_with_drift(rng, n_out, sub):
    rot = rng.normal(size=(3, 3))
    base = 0.5 * (rot - rot.T) - 0.2 * np.eye(3)
    mod = 0.3 * rng.normal(size=(3, 3))
    b0, b1 = rng.normal(size=3), rng.normal(size=3)

    def matrix(t):
        return base + np.sin(2.0 * t)[..., None, None] * mod

    def drift(t):
        return b0 + np.cos(t)[..., None] * b1

    y0 = rng.normal(size=3)
    times = np.linspace(0.0, 3.0, n_out + 1)
    states = affine_run(matrix, drift, y0, times, sub)
    assert states.shape == (n_out + 1, 3)
    assert np.max(np.abs(states - rk4_loop(matrix, drift, y0, times, sub))) <= 1e-12


@pytest.mark.parametrize("n_out, sub", STEP_MAP_CASES)
def test_step_maps_match_rk4_loop_complex_without_drift(rng, n_out, sub):
    gen = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ham = 0.5 * (gen + gen.conj().T)
    damp = 0.1 * np.diag(rng.uniform(size=4))
    mod = 0.2 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))

    def matrix(t):
        return -1j * ham - damp + np.cos(1.5 * t)[..., None, None] * mod

    def drift(t):
        return np.zeros(4, dtype=complex)

    y0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    times = np.linspace(0.0, 2.0, n_out + 1)
    states = affine_run(matrix, drift, y0, times, sub)
    assert states.dtype == complex
    assert np.max(np.abs(states - rk4_loop(matrix, drift, y0, times, sub))) <= 1e-12


def row_sweep(stages, y0, times, sub):
    """The output sweep one interval at a time: each interval's composed map
    applied to the state before it (test oracle of the prefix sweep)."""
    n_out = len(times) - 1
    h = (times[-1] - times[0]) / (n_out * sub)
    out = [y0]
    for j in range(n_out):
        out.append(_compose(_step_maps(stages, j * sub, (j + 1) * sub, h)) @ out[-1])
    return np.array(out)


@pytest.mark.parametrize("n_out, sub", STEP_MAP_CASES)
@pytest.mark.parametrize("dtype", [float, complex])
def test_prefix_sweep_matches_the_row_sweep(rng, n_out, sub, dtype):
    # random stage stacks near a rotation, so the states stay of order one
    d = 4 if dtype is float else 3
    noise = rng.normal(size=(2 * n_out * sub + 1, d, d))
    skew = rng.normal(size=(d, d))
    if dtype is complex:
        noise = noise + 1j * rng.normal(size=noise.shape)
        skew = skew + 1j * rng.normal(size=(d, d))
    gens = 0.5 * (skew - skew.conj().T) + 0.2 * noise
    y0 = np.ones(d, dtype=dtype)
    times = np.linspace(0.0, 2.0, n_out + 1)
    states = _rk4_linear(lambda idx: gens[idx], y0, times, sub)
    expected = row_sweep(lambda idx: gens[idx], y0, times, sub)
    assert np.max(np.abs(states - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_diverging_run_names_the_time_of_the_row_sweep():
    # ydot = diag(rate, 0) y in homogeneous form: each RK4 step over h = 1
    # multiplies y_0 by about rate^4 / 24 = 1e100.  From 1e-300 the state
    # overflows at t = 7, but a product of four steps' maps already at t = 4
    times = np.linspace(0.0, 20.0, 21)
    rate = (24.0 * 1e100) ** 0.25
    gens = np.broadcast_to(np.diag([rate, 0.0, 0.0]), (41, 3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = row_sweep(lambda idx: gens[idx], np.array([1e-300, 0.0, 1.0]), times, 1)
    assert np.flatnonzero(~np.isfinite(rows).all(axis=1))[0] == 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDivergedError, match="^state became non-finite at t = 7$"):
            _rk4_linear(lambda idx: gens[idx], np.array([1e-300, 0.0, 1.0]), times, 1)
        # the products overflow, the states do not: the run goes on
        states = _rk4_linear(lambda idx: gens[idx], np.array([0.0, 1.0, 1.0]), times, 1)
    assert np.array_equal(states, np.tile([0.0, 1.0, 1.0], (21, 1)))


@pytest.mark.parametrize("n_out, sub", [(300, 1), (2, 600)])
def test_density_run_matches_complex_rk4_loop(tracking_env, qubit, n_out, sub):
    # the real Hermitian coordinates against literal complex RK4 on the
    # Kronecker supermatrix of vec rho
    basis = qubit[0]
    traj = tracking_trajectory(tracking_env, 1e-5, 3.0, 3.0)
    sched = schedule_from_trajectory(traj, tracking_env, np.linspace(0.0, 3.0, 61))
    rho0 = bloch_to_density(traj.evaluate(0.0)[0], basis)

    def supermatrix(t):
        c_x, c_y, c_z, rate_minus, rate_plus = (
            float(c[0]) for c in _stage_coefficients(sched, tracking_env, np.array([t]),
                                                        None))
        return kron_liouvillian(HamiltonianSpec([0.0, c_x, c_y, c_z]),
                                [LindbladChannel(SIGMA_MINUS_SHAPE, rate=rate_minus),
                                 LindbladChannel(SIGMA_PLUS_SHAPE, rate=rate_plus)], basis)

    times = np.linspace(0.0, 3.0, n_out + 1)
    run = integrate_density(sched, tracking_env, rho0, times, min_steps=n_out * sub)
    loop = rk4_loop(supermatrix, lambda t: np.zeros(4), rho0.reshape(-1), times, sub)
    assert run.densities.shape == (n_out + 1, 2, 2)
    assert np.max(np.abs(run.densities.reshape(n_out + 1, 4) - loop)) <= 1e-12


def test_stationary_hold(tracking_env, hold):
    # controls solved with rdot = 0 freeze the state despite oscillating rates
    r_target = np.array([0.25, -0.15, -0.55])
    times = np.linspace(0.0, 10.0, 1001)
    sched = schedule_from_trajectory(hold(r_target, 10.0), tracking_env, times)
    run = integrate_bloch(sched, tracking_env, r_target, times)
    assert np.max(np.abs(run.states - r_target)) < 1e-8


def test_dual_representation_agreement(tracking_env, qubit):
    traj = tracking_trajectory(tracking_env, 1e-5, 10.0, 10.0)
    times = np.linspace(0.0, 10.0, 501)
    sched = schedule_from_trajectory(traj, tracking_env, times)
    r0, _ = traj.evaluate(0.0)
    run_b = integrate_bloch(sched, tracking_env, r0, times, min_steps=5000)
    run_d = integrate_density(sched, tracking_env, bloch_to_density(r0, qubit[0]), times,
                              min_steps=5000)
    assert np.max(np.abs(run_b.states - run_d.states)) < 1e-8


def test_density_run_preserves_trace_and_hermiticity(tracking_env, qubit):
    traj = tracking_trajectory(tracking_env, 1e-5, 6.0, 6.0)
    times = np.linspace(0.0, 6.0, 301)
    sched = schedule_from_trajectory(traj, tracking_env, times)
    r0, _ = traj.evaluate(0.0)
    run = integrate_density(sched, tracking_env, bloch_to_density(r0, qubit[0]), times,
                            min_steps=3000)
    traces = np.array([np.trace(rho) for rho in run.densities])
    assert np.max(np.abs(traces - 1.0)) < 1e-10
    herm = max(np.max(np.abs(rho - rho.conj().T)) for rho in run.densities)
    assert herm < 1e-10
    norms = np.linalg.norm(run.states, axis=1)
    assert np.max(norms) <= 1.0 + 1e-7


def test_integration_divergence_raises(tracking_env):
    times = np.linspace(0.0, 10.0, 101)
    huge = np.full_like(times, 1e155)
    sched = ControlSchedule(times=times, omega_x=huge, omega_y=huge,
                            excitation=np.ones_like(times))
    # the run overflows on its way to inf; that must raise, not print warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDivergedError) as err:
            integrate_bloch(sched, tracking_env, np.array([0.0, 0.0, -1.0]), times,
                            min_steps=200)
    assert "t =" in str(err.value)


def test_non_uniform_output_grid_is_rejected():
    # on [0, 1, 3] a uniform-step integrator would report e^-1.5 at t = 1
    minus_one = -np.eye(1), np.zeros(1), np.ones(1)
    with pytest.raises(InvalidInputError, match="uniformly spaced"):
        constant_run(*minus_one, np.array([0.0, 1.0, 3.0]), 300)
    with pytest.raises(InvalidInputError):
        renormalized_field(LorentzianEnvironment(lam=0.5), lambda t: 1.0,
                           np.array([0.0, 1.0, 3.0]))
    # non-finite times are refused before any arithmetic warns
    for times in ([0.0, np.nan, 2.0, 3.0], [0.0, np.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="finite"):
                constant_run(*minus_one, np.array(times), 300)
    rounded = np.linspace(0.0, 3.0, 4)
    rounded[1] += 1e-15
    states = constant_run(*minus_one, rounded, 300)
    assert abs(states[1, 0] - np.exp(-1.0)) < 1e-9


def test_fidelity_trivials():
    # Bloch vectors of the excited, ground and maximally mixed states
    excited, ground, mixed = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), np.zeros(3)
    assert fidelity_bloch(excited, excited) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_bloch(excited, ground) == pytest.approx(0.0, abs=1e-12)
    assert fidelity_bloch(mixed, excited) == pytest.approx(0.5, abs=1e-12)
    rho, sig = np.array([0.3, -0.2, 0.4]), np.array([-0.1, 0.5, 0.2])
    assert abs(fidelity_bloch(rho, sig) - fidelity_bloch(sig, rho)) < 1e-12
    assert 0.0 <= fidelity_bloch(rho, sig) <= 1.0 + 1e-12


def test_fidelity_rejects_unphysical():
    with pytest.raises(MalformedStateError):
        fidelity_bloch(np.array([0.0, 0.0, 1.1]), np.zeros(3))
    # a nan norm is not inside the ball either
    with pytest.raises(MalformedStateError):
        fidelity_bloch(np.array([np.nan, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))


def test_adiabatic_gap_and_limits(tracking_env, reference_protocol):
    times = np.linspace(0.0, 10.0, 501)
    traj = tracking_trajectory(tracking_env, 1e-5, 10.0, 10.0)
    sched = schedule_from_trajectory(traj, tracking_env, times)
    r0, _ = traj.evaluate(0.0)
    engineered = integrate_bloch(sched, tracking_env, r0, times, min_steps=5000,
                                 reference=traj.sample(times)[0])
    adiabatic = reference_protocol(tracking_env, 1e-5, 10.0, 10.0, times, 5000)
    assert adiabatic.min_fidelity < engineered.min_fidelity - 0.01
    # zero drive: the system sits in the thermal steady state
    still = reference_protocol(tracking_env, 1e-5, 0.0, 10.0, times, 5000)
    assert still.min_fidelity > 1.0 - 1e-9
    # slower ramps track better
    slow_times = np.linspace(0.0, 50.0, 501)
    slow = reference_protocol(tracking_env, 1e-5, 10.0, 50.0, slow_times, 10000)
    assert slow.min_fidelity > adiabatic.min_fidelity


def test_fidelity_symmetry_property(rng):
    from blochsteer.sun_algebra import random_bloch_vector
    for _ in range(50):
        r1 = random_bloch_vector(2, rng, 1.0)
        r2 = random_bloch_vector(2, rng, 1.0)
        f12 = fidelity_bloch(r1, r2)
        f21 = fidelity_bloch(r2, r1)
        assert abs(f12 - f21) < 1e-12
        assert 0.0 <= f12 <= 1.0 + 1e-12
        assert abs(fidelity_bloch(r1, r1) - 1.0) < 1e-12


def qutrit_oracle_inputs(rng):
    """A time-dependent qutrit generator with two channels, its coefficient
    table, the channel shapes and a start Bloch vector, drawn from ``rng``."""
    from blochsteer.sun_algebra import random_bloch_vector
    coeffs = rng.normal(size=9)
    mod = rng.normal(size=9)
    shapes = tuple(rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2))

    def generator(t):
        # a stack along t: the first channel's rate is an array over the times
        ham = HamiltonianSpec(coeffs + mod * np.cos(0.9 * t)[..., None])
        channels = [LindbladChannel(shapes[0], rate=0.3 + 0.2 * np.sin(t)),
                    LindbladChannel(shapes[1], rate=0.15)]
        return ham, channels

    def table(t):
        # the same generator as c_1 .. c_8, then the two channel rates
        ham, (first, second) = generator(t)
        return np.column_stack([ham.coefficients[:, 1:], first.rate, np.full_like(t, second.rate)])
    return generator, table, shapes, random_bloch_vector(3, rng, 0.4)


def test_general_dimension_dual_representation(rng, qutrit):
    # dynamics-level oracle for a qutrit: component form vs supermatrix form
    from blochsteer.sun_algebra import bloch_to_density, density_to_bloch
    basis, tensors = qutrit
    generator, table, shapes, r0 = qutrit_oracle_inputs(rng)
    times = np.linspace(0.0, 2.0, 41)

    # the component form as a table run: the table times the homogeneous
    # generators of the unit Hamiltonians and unit-rate channels, whose sum is
    # the generator assembled at the table's coefficients
    unit = assemble_components(HamiltonianSpec(np.eye(8, 9, 1)), [], tensors)
    channel = assemble_components(HamiltonianSpec(np.zeros(9)),
                                  [LindbladChannel(np.array(shapes))], tensors)
    gens = _homogeneous(np.concatenate([unit.matrix, channel.matrix]),
                        np.concatenate([unit.drift, channel.drift]))
    t = np.linspace(0.0, 2.0, 7)
    full = assemble_components(*generator(t), tensors)
    assert np.max(np.abs(np.einsum("nk,kij->nij", table(t), gens)
                         - _homogeneous(full.matrix, full.drift))) < 1e-13
    bloch_states = _table_run(table, gens, np.append(r0, 1.0), times, 800, r0)[:, :-1]
    rhos = integrate_density_general(table, shapes, bloch_to_density(r0, basis), times, basis,
                                     min_steps=800)
    assert rhos.shape == (41, 3, 3)
    assert np.max(np.abs(bloch_states - density_to_bloch(rhos, basis))) < 1e-12


def test_general_run_of_a_schedules_table_is_the_two_level_run(inversion_setup, qubit):
    # the two density entries share one path: a shipped schedule's stage
    # coefficients, as a table, give integrate_density's densities bit for bit
    env, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    times = np.linspace(0.0, t_final, 2001)
    sched = schedule_from_trajectory(traj, env, times)
    rho0 = bloch_to_density(traj.evaluate(0.0)[0], qubit[0])
    rhos = integrate_density_general(lambda t: _stage_coefficients(sched, env, t, None).T,
                                     (SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE), rho0, times,
                                     qubit[0], min_steps=20000)
    run = integrate_density(sched, env, rho0, times, min_steps=20000)
    assert rhos.tobytes() == run.densities.tobytes()


def test_initial_state_of_another_size_names_both_shapes(tracking_env, hold, qubit, qutrit):
    times = np.linspace(0.0, 1.0, 11)
    sched = schedule_from_trajectory(hold(np.array([0.25, -0.15, -0.55]), 1.0),
                                     tracking_env, times)
    runs = [(lambda: integrate_bloch(sched, tracking_env, np.zeros(4), times, min_steps=100),
             r"\(4,\) does not fit generators of shape \(4, 4\)"),
            (lambda: integrate_density(sched, tracking_env, np.eye(3) / 3, times, min_steps=100),
             r"\(3, 3\) does not fit generators of shape \(4, 4\)"),
            (lambda: integrate_density_general(lambda t: np.zeros(9), (np.ones(8),), np.eye(2) / 2,
                                               times, qutrit[0], min_steps=100),
             r"\(2, 2\) does not fit generators of shape \(9, 9\)")]
    for run, message in runs:
        with pytest.raises(DimensionError, match=r"^initial state of shape " + message + "$"):
            run()


def test_density_runs_name_an_initial_state_that_is_not_a_square_matrix(qubit):
    # checked before the Hermitian check: a (2, 3) rho0 equals its conjugate
    # transpose as a vector, and a 1-D rho0 has no transpose to compare
    times = np.linspace(0.0, 1.0, 11)
    for rho0, shape in ((np.ones((2, 3)) / 3, r"\(2, 3\)"),
                        (np.array([0.5, 0.0, 0.0, 0.5]), r"\(4,\)")):
        with pytest.raises(DimensionError, match=r"^initial state of shape " + shape
                                                 + r" does not fit generators of shape \(4, 4\)$"):
            integrate_density_general(lambda t: np.zeros(4), (SIGMA_MINUS_SHAPE,), rho0, times,
                                      qubit[0], min_steps=100)


def test_general_run_refuses_a_shape_of_the_wrong_length(qutrit):
    with pytest.raises(DimensionError, match=r"channel shape must have length 8 \(or 9\)"):
        integrate_density_general(lambda t: np.zeros(9), (SIGMA_MINUS_SHAPE,), np.eye(3) / 3,
                                  np.linspace(0.0, 1.0, 11), qutrit[0], min_steps=100)
    # shapes of unequal lengths: the short one is named, not stacked by numpy
    with pytest.raises(DimensionError, match=r"length 8 \(or 9\), got \(5,\)$"):
        integrate_density_general(lambda t: np.zeros(10), (np.ones(8), np.ones(5)),
                                  np.eye(3) / 3, np.linspace(0.0, 1.0, 11), qutrit[0],
                                  min_steps=100)


def test_general_run_refuses_a_table_of_the_wrong_width(qutrit):
    with pytest.raises(DimensionError, match=r"^coefficient table of shape \(201, 7\) does not "
                                             r"fit shape \(201, 9\)$"):
        integrate_density_general(lambda t: np.zeros((len(t), 7)), (np.ones(8),), np.eye(3) / 3,
                                  np.linspace(0.0, 1.0, 11), qutrit[0], min_steps=100)


def test_general_run_refuses_a_complex_table_for_real_generators(qubit):
    # a complex rate would lose its imaginary part on the real coordinates
    basis = qubit[0]
    with pytest.raises(InvalidInputError, match=r"^coefficient table of dtype complex128 does "
                                                r"not fit real generators$"):
        integrate_density_general(lambda t: [0.0, 0.0, 0.0, 0.3 + 1j], (SIGMA_MINUS_SHAPE,),
                                  np.diag([0.0, 1.0]), np.linspace(0.0, 1.0, 11), basis,
                                  min_steps=100)


def test_general_run_of_a_real_table_runs_it_in_float64(rng, qubit):
    # an integer or float32 table gives the bits of the same table in float64
    basis = qubit[0]
    rho0 = bloch_to_density(random_bloch_vector(2, rng, 0.9), basis)
    times = np.linspace(0.0, 1.0, 11)
    wide = rng.normal(size=(201, 5)).astype(np.float32)
    for table in (np.array([1, -2, 0, 1, 0]), wide):
        runs = [integrate_density_general(lambda t: row, (SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE),
                                          rho0, times, basis, min_steps=100)
                for row in (table, table.astype(float))]
        assert runs[0].tobytes() == runs[1].tobytes()


def test_general_run_without_channels_is_coherent(rng, qutrit):
    # no shapes: the N^2 - 1 unit Hamiltonians alone, the same run as a
    # channel at rate 0, and unitary, so the purity stays put
    basis = qutrit[0]
    assert _density_generators(basis, ()).shape == (8, 9, 9)
    coefficients = rng.normal(size=8)
    rho0 = bloch_to_density(random_bloch_vector(3, rng, 0.4), basis)
    times = np.linspace(0.0, 2.0, 21)
    coherent = integrate_density_general(lambda t: coefficients, (), rho0, times, basis,
                                         min_steps=2000)
    with_rate_0 = integrate_density_general(lambda t: np.append(coefficients, 0.0),
                                            (rng.normal(size=8),), rho0, times, basis,
                                            min_steps=2000)
    assert np.max(np.abs(coherent - with_rate_0)) < 1e-14
    purity = np.einsum("nij,nji->n", coherent, coherent).real
    assert np.max(np.abs(purity - purity[0])) < 1e-12


def supermatrices(basis, shapes):
    """Kronecker supermatrices on vec rho of the unit Hamiltonians, then of a
    unit-rate channel per shape, as the density form stacks them."""
    n = basis.dimension ** 2
    return np.concatenate([
        kron_liouvillian(HamiltonianSpec(np.eye(n - 1, n, 1)), [], basis),
        kron_liouvillian(HamiltonianSpec(np.zeros(n)), [LindbladChannel(np.array(shapes))],
                         basis)])


def test_supermatrices_are_real_on_hermitian_coordinates(rng, qubit, qutrit):
    # S maps Hermitian matrices to Hermitian ones, so P S Q is real: exactly
    # at N = 2, up to rounding at N = 3 with random complex shapes
    p, q = _hermitian_maps(2)
    assert np.array_equal(q @ p, np.eye(4)) and np.array_equal(p @ q, np.eye(4))
    s = supermatrices(qubit[0], (SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE))
    assert not (p @ s @ q).imag.any()
    p, q = _hermitian_maps(3)
    assert np.array_equal(q @ p, np.eye(9)) and np.array_equal(p @ q, np.eye(9))
    s = supermatrices(qutrit[0], rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
    coordinates = p @ s @ q
    assert np.max(np.abs(coordinates.imag)) <= 1e-13 * np.max(np.abs(coordinates.real))
    # the coordinates of a Hermitian rho are real, and Q rebuilds it exactly
    rho = bloch_to_density(random_bloch_vector(3, rng, 0.9), qutrit[0])
    x = p @ rho.reshape(-1)
    assert not x.imag.any()
    assert np.array_equal(q @ x.real, rho.reshape(-1))


def test_density_runs_refuse_a_state_that_is_not_hermitian(tracking_env, hold, qubit, qutrit):
    times = np.linspace(0.0, 1.0, 11)
    sched = schedule_from_trajectory(hold(np.array([0.25, -0.15, -0.55]), 1.0),
                                     tracking_env, times)
    rho0 = bloch_to_density(np.array([0.25, -0.15, -0.55]), qubit[0])
    rho0[0, 1] += 1e-6
    with pytest.raises(InvalidInputError, match=r"not Hermitian: max \|rho0 - rho0\^\+\| "
                                                r"= 1\.000e-06$"):
        integrate_density(sched, tracking_env, rho0, times, min_steps=100)
    with pytest.raises(InvalidInputError, match="not Hermitian"):
        integrate_density_general(lambda t: np.zeros(9), (np.ones(8),),
                                  np.diag([0.5, 0.3, 0.2]) + 0.1j, times, qutrit[0],
                                  min_steps=100)


def test_batched_fidelity_matches_scalar_calls(rng):
    from blochsteer.sun_algebra import random_bloch_vector
    r1 = np.array([random_bloch_vector(2, rng, 1.0) for _ in range(60)])
    r2 = np.array([random_bloch_vector(2, rng, 1.0) for _ in range(60)])
    r1[0] = r2[0] = [0.0, 0.0, 1.0]
    batched = fidelity_bloch(r1, r2)
    assert batched.shape == (60,)
    assert np.array_equal(batched, [fidelity_bloch(a, b) for a, b in zip(r1, r2)])
    r1[30] = [0.0, 0.0, 1.1]
    with pytest.raises(MalformedStateError):
        fidelity_bloch(r1, r2)


def test_fidelity_failure_names_time_and_state(tracking_env, hold):
    r_target = np.array([0.25, -0.15, -0.55])
    times = np.linspace(0.0, 2.0, 21)
    sched = schedule_from_trajectory(hold(r_target, 2.0), tracking_env, times)

    def reference(ts):
        ref = np.tile(r_target, (len(ts), 1))
        ref[ts > 1.25] = [0.0, 0.0, 1.5]
        return ref
    with pytest.raises(MalformedStateError, match=r"reference left the Bloch ball at t = 1.3\b"):
        integrate_bloch(sched, tracking_env, r_target, times, min_steps=200,
                        reference=reference(times))
    # a nan reference state leaves the ball too
    ref = np.tile(r_target, (len(times), 1))
    ref[13, 0] = np.nan
    with pytest.raises(MalformedStateError, match=r"reference left the Bloch ball at t = 1.3\b"):
        integrate_bloch(sched, tracking_env, r_target, times, min_steps=200, reference=ref)


def test_density_run_matches_bloch_run(tracking_env, qubit):
    traj = tracking_trajectory(tracking_env, 1e-5, 10.0, 10.0)
    times = np.linspace(0.0, 10.0, 201)
    sched = schedule_from_trajectory(traj, tracking_env, times)
    r0, _ = traj.evaluate(0.0)
    dens = integrate_density(sched, tracking_env, bloch_to_density(r0, qubit[0]), times,
                             min_steps=2000)
    assert dens.densities.shape == (201, 2, 2)
    path = traj.sample(times)[0]
    bloch = integrate_bloch(sched, tracking_env, r0, times, min_steps=2000, reference=path)
    assert np.max(np.abs(dens.states - bloch.states)) < 1e-12
    assert np.max(np.abs(fidelity_bloch(dens.states, path) - bloch.fidelity)) < 1e-12


# the drive transforms are the (h, w) memory ODE on the shared core, one step
# per output interval; the literal loop and the post-processing are spelled out
TRANSFORM_ENVS = [LorentzianEnvironment(lam=0.5, cavity_detuning=0.5, drive_detuning=0.1),
                  LorentzianEnvironment(lam=0.1, cavity_detuning=0.1, drive_detuning=-0.68)]


@pytest.mark.parametrize("env", TRANSFORM_ENVS)
def test_renormalized_field_matches_rk4_loop(env):
    omega = lambda t: 0.5 * np.sin(0.7 * t) + 0.2 + 0.1j * np.cos(t)
    f0, mu = 0.5 * env.lam, env._memory_rate
    times = np.linspace(0.0, 7.0, 701)
    matrix = np.array([[-1j * env.drive_detuning, -1.0], [f0, -mu]])
    h, w = rk4_loop(lambda t: matrix, lambda t: np.array([-1j * omega(t), 0.0]),
                    np.zeros(2, dtype=complex), times, 1).T
    hdot = -1j * env.drive_detuning * h - w - 1j * np.array([omega(t) for t in times])
    expected = 1j * (hdot - h * _log_derivative(env, times)[0])
    assert np.max(np.abs(renormalized_field(env, omega, times) - expected)) <= 1e-12


@pytest.mark.parametrize("env", TRANSFORM_ENVS)
def test_lab_field_matches_rk4_loop(env):
    omega_r = lambda t: 0.8 * (t / 7.0) ** 2 * (3 - 2 * t / 7.0) + 0.05j * t
    f0, mu = 0.5 * env.lam, env._memory_rate
    times = np.linspace(0.0, 7.0, 701)
    h, w = rk4_loop(lambda t: np.array([[_log_derivative(env, t)[0], 0.0], [f0, -mu]]),
                    lambda t: np.array([-1j * omega_r(t), 0.0]),
                    np.zeros(2, dtype=complex), times, 1).T
    hdot = -1j * np.array([omega_r(t) for t in times]) + h * _log_derivative(env, times)[0]
    expected = 1j * (hdot + 1j * env.drive_detuning * h + w)
    got_times, got = lab_field_from_effective(env, omega_r, 7.0, n=700)
    assert np.array_equal(got_times, times)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_user_functions_are_called_once_per_run(qubit, tracking_env):
    # each integrator calls its user functions once, on the 1-D array of the
    # 201 fine-grid times (100 steps and their half steps), never per node
    basis, tensors = qubit
    comp = decay_generator(0.7, tensors)
    calls = []

    def counted(fun):
        def wrapper(t):
            calls.append(np.shape(t))
            return fun(t)
        return wrapper

    times = np.linspace(0.0, 1.0, 11)
    r0 = np.array([0.3, 0.1, 0.2])
    states = _table_run(counted(lambda t: [1.0]), _homogeneous(comp.matrix, comp.drift)[None],
                        np.append(r0, 1.0), times, 100, r0)[:, :-1]
    assert calls == [(201,)]
    calls.clear()
    rhos = integrate_density_general(counted(lambda t: [0.0, 0.0, 0.0, 0.7]),
                                     (SIGMA_MINUS_SHAPE,), bloch_to_density(r0, basis), times,
                                     basis, min_steps=100)
    assert calls == [(201,)]
    assert np.max(np.abs(rhos - bloch_to_density(states, basis))) < 1e-12
    calls.clear()
    renormalized_field(tracking_env, counted(lambda t: 0.5 + 0.1 * t), times)
    lab_field_from_effective(tracking_env, counted(lambda t: 0.2 * t), 1.0, n=10)
    assert calls == [(21,), (21,)]


# The production generators, one row string per matrix row; "-0" is a
# negative zero.  Order: unit c_x, c_y, c_z, unit sigma- rate, unit sigma+ rate.
# The density form's act on (rho_00, rho_11, Re rho_01, Im rho_01).
BLOCH_GENERATORS = (
    (" 0  0  0  0", " 0  0 -2  0", " 0  2  0  0", " 0  0  0  0"),
    (" 0  0  2  0", " 0  0  0  0", "-2  0  0  0", " 0  0  0  0"),
    (" 0 -2  0  0", " 2  0  0  0", " 0  0  0  0", " 0  0  0  0"),
    ("-1  0  0  0", " 0 -1  0  0", " 0  0 -2 -2", " 0  0  0  0"),
    ("-1  0  0  0", " 0 -1  0  0", " 0  0 -2  2", " 0  0  0  0"),
)
DENSITY_GENERATORS = (
    (" 0  0  0 -2", " 0  0  0  2", " 0  0  0  0", " 1 -1  0  0"),
    (" 0  0 -2  0", " 0  0  2  0", " 1 -1  0  0", " 0  0  0  0"),
    (" 0  0  0  0", " 0  0  0  0", " 0  0  0  2", " 0  0 -2  0"),
    ("-2  0  0  0", " 2  0  0  0", " 0  0 -1  0", " 0  0  0 -1"),
    (" 0  2  0  0", " 0 -2  0  0", " 0  0 -1  0", " 0  0  0 -1"),
)


def _table(rows):
    return np.array([[[float(x) for x in row.split()] for row in mat] for mat in rows])


def test_production_generators_are_pinned_bit_for_bit():
    # every bundled run multiplies these stacks; a refactor of the builders
    # must not move one of their bits, the sign of a zero included
    from blochsteer.simulator import _qubit_parts
    basis, bloch, density = _qubit_parts()
    assert basis.dimension == 2
    assert bloch.shape == density.shape == (5, 4, 4)
    assert bloch.dtype == density.dtype == np.float64
    assert bloch.tobytes() == _table(BLOCH_GENERATORS).tobytes()
    assert density.tobytes() == _table(DENSITY_GENERATORS).tobytes()


def textbook_step_maps(stages, first, last, h):
    """I + (K1 + 2 K2 + 2 K3 + K4) / 6 of each step, written out with fresh
    temporaries (test oracle of the in-place kernel)."""
    g = h * stages(slice(2 * first, 2 * last + 1))
    g1, g2, g4 = g[0:-1:2], g[1::2], g[2::2]
    k2 = g2 + 0.5 * (g2 @ g1)
    k3 = g2 + 0.5 * (g2 @ k2)
    k4 = g4 + g4 @ k3
    maps = (g1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    n = maps.shape[-1]
    maps[:, range(n), range(n)] += 1.0
    return maps


def qubit_stages(gens, rng, n_nodes):
    """Stages of a two-level form: random stage coefficients times its fixed
    generators, stacked as the forward runs stack them."""
    coeffs = rng.normal(size=(5, n_nodes)) * np.array([[3.0], [3.0], [0.5], [0.2], [0.1]])
    flat = gens.reshape(len(gens), -1)
    return lambda idx: (coeffs[:, idx].T @ flat).reshape(-1, *gens.shape[1:])


def drive_stages(rng, n_nodes):
    """Stages of the drive transforms' complex 3 x 3 homogeneous generators;
    ``stages`` returns views of one stack, as a caller's stage function may."""
    g = np.zeros((n_nodes, 3, 3), dtype=complex)
    g[:, 0, :2] = rng.normal(size=(n_nodes, 2)) + 1j * rng.normal(size=(n_nodes, 2))
    g[:, 1, :2] = 0.05, -0.6
    g[:, 0, 2] = -1j * (rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes))
    return lambda idx: g[idx]


STAGE_FORMS = {"bloch 4x4": lambda rng, n: qubit_stages(_qubit_parts()[1], rng, n),
               "density 4x4": lambda rng, n: qubit_stages(_qubit_parts()[2], rng, n),
               "drive 3x3 complex": drive_stages}


@pytest.mark.parametrize("form", STAGE_FORMS)
@pytest.mark.parametrize("first, last", [(0, 1), (3, 259)])
def test_step_maps_equal_the_textbook_expression_bit_for_bit(rng, form, first, last):
    # the kernel reorders no operation, so the maps are equal, not merely close
    stages = STAGE_FORMS[form](rng, 2 * last + 1)
    h = 9.25 / 40000
    maps = _step_maps(stages, first, last, h)
    expected = textbook_step_maps(stages, first, last, h)
    assert maps.dtype == expected.dtype and maps.shape == expected.shape
    assert np.array_equal(maps, expected)


def test_runs_leave_the_callers_arrays_unchanged(qubit, tracking_env, reference_protocol):
    # the kernels write only into their own buffers: never into a generator
    # stack a caller hands in, a broadcast of it, or a shared reservoir table
    basis, tensors = qubit
    times = np.linspace(0.0, 1.0, 11)
    r0 = np.array([0.3, 0.1, 0.2])
    fine = np.linspace(0.0, 1.0, 201)
    comp = decay_generator(0.7, tensors)
    gens = _homogeneous(comp.matrix + 0.1 * np.sin(fine)[:, None, None],
                        np.tile(comp.drift, (len(fine), 1)))
    kept = gens.copy()
    _rk4_linear(lambda idx: gens[idx], np.append(r0, 1.0), times, 10)
    assert np.array_equal(gens, kept)

    table = np.zeros((len(fine), 4))
    table[:, 2] = 0.4 * np.cos(fine)
    table[:, 3] = 0.7 + 0.1 * fine
    kept = table.copy()
    integrate_density_general(lambda t: table, (SIGMA_MINUS_SHAPE,), bloch_to_density(r0, basis),
                              times, basis, min_steps=100)
    assert np.array_equal(table, kept)

    drive = 0.5 + 0.1j * np.linspace(0.0, 1.0, 21)
    kept = drive.copy()
    renormalized_field(tracking_env, lambda t: drive, times)
    assert np.array_equal(drive, kept)

    # tracking's controlled and reference runs share one table
    traj = tracking_trajectory(tracking_env, 1e-5, 10.0, 10.0)
    times = np.linspace(0.0, 10.0, 201)
    sched = schedule_from_trajectory(traj, tracking_env, times)
    table = reservoir_table(tracking_env, times, 2000)
    kept = [a.copy() for a in table]
    r0 = traj.evaluate(0.0)[0]
    shared = [integrate_bloch(sched, tracking_env, r0, times, min_steps=2000, reservoir=table),
              reference_protocol(tracking_env, 1e-5, 10.0, 10.0, times, 2000, reservoir=table)]
    assert all(np.array_equal(a, b) for a, b in zip(table, kept))
    own = [integrate_bloch(sched, tracking_env, r0, times, min_steps=2000),
           reference_protocol(tracking_env, 1e-5, 10.0, 10.0, times, 2000)]
    for a, b in zip(shared, own):
        assert np.array_equal(a.states, b.states)


# The forward runs at the bundled 20,000 steps peak in the reservoir
# evaluation, at about 10.6 fine-grid arrays with the grid itself.  Allocating
# the coefficient array before the table, or keeping the controls alive across
# it, adds several more; the bound sits one array below the 13 arrays of an
# evaluation that builds the three controls, the table and a stacked copy.
# At min_steps = grid = 2000 the fine grid is only twice the output grid, so
# the control splines' solve on the output grid counts: the Bloch run peaks at
# about 20.8 fine-grid arrays when the splines are built before the coefficient
# array and at 25.2 when after it.  The density run, on the 4 x 4 real
# coordinates of a Hermitian rho, takes the Bloch run's step maps and chunks
# and peaks at the same 20.7 there.
PEAK_FINE_ARRAYS = {20000: (12, (integrate_bloch, integrate_density)),
                    2000: (23, (integrate_bloch, integrate_density))}
# The general density run at N = 3 and 20,000 steps, given a (n_fine, 10)
# coefficient table built before it, holds the fine grid and one chunk: one
# output interval's 500 9 x 9 step maps (about one fine-grid array, more than
# ``_CHUNK_BYTES``) and their temporaries, about 6.4 fine-grid arrays in all
# (3.2 when an interval was built in parts of at most ``_CHUNK_BYTES``).  A
# run that copies the table holds ten arrays more; the bound sits below that.
# (The callable interface, which built a complex supermatrix per stage,
# peaked at 515 with the same generator evaluated inside the run.)
GENERAL_PEAK_FINE_ARRAYS = 12


def traced_peak(run, *args, **kwargs):
    """Peak of the memory traced while ``run(*args, **kwargs)`` runs."""
    tracemalloc.start()
    try:
        run(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("min_steps", sorted(PEAK_FINE_ARRAYS))
def test_forward_runs_peak_below_a_bound_in_fine_grid_arrays(inversion_setup, qubit,
                                                             min_steps):
    env, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    times = np.linspace(0.0, t_final, 2001)
    sched = schedule_from_trajectory(traj, env, times)
    r0 = traj.evaluate(0.0)[0]
    fine_nbytes = (2 * min_steps + 1) * np.dtype(float).itemsize
    bound, runs = PEAK_FINE_ARRAYS[min_steps]
    starts = {integrate_bloch: r0, integrate_density: bloch_to_density(r0, qubit[0])}
    for run in runs:
        run(replace(sched), env, starts[run], times, min_steps=min_steps)   # process-wide caches
        fresh = replace(sched)   # the run builds the control splines too
        peak = traced_peak(run, fresh, env, starts[run], times, min_steps=min_steps)
        assert peak <= bound * fine_nbytes, (run.__name__, peak / fine_nbytes)


def test_general_density_run_peaks_below_a_bound_in_fine_grid_arrays(rng, qutrit):
    basis = qutrit[0]
    _, table, shapes, r0 = qutrit_oracle_inputs(rng)
    times = np.linspace(0.0, 2.0, 41)
    fine = np.linspace(0.0, 2.0, 2 * 20000 + 1)   # the run's fine grid
    coefficients = table(fine)
    args = (lambda t: coefficients, shapes, bloch_to_density(r0, basis), times, basis)
    integrate_density_general(*args, min_steps=20000)   # process-wide caches
    peak = traced_peak(integrate_density_general, *args, min_steps=20000)
    assert peak <= GENERAL_PEAK_FINE_ARRAYS * fine.nbytes, peak / fine.nbytes
