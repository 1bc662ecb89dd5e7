from pathlib import Path

import numpy as np
import pytest

from blochsteer.controls import (SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE, ControlSchedule,
                                 assemble_control_system, markovian_reduction_check,
                                 schedule_from_trajectory, solve_controls,
                                 two_level_controls)
from blochsteer.errors import (InvalidInputError, NoUniqueSolutionError,
                               SingularControlError)
from blochsteer.liouvillian import (HamiltonianSpec, LindbladChannel, assemble_components,
                                    components_from_kron, kron_liouvillian)
from blochsteer.sun_algebra import random_bloch_vector
from blochsteer.trajectories import mixed_inversion_trajectory, pure_inversion

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def forward_rates(r, rdot, gamma, shift, ox, oy, n, tensors):
    """Forward vector field of the controlled two-level master equation."""
    ham = HamiltonianSpec([shift / 2, ox, oy, shift / 2])
    chans = [LindbladChannel(SIGMA_MINUS_SHAPE, rate=gamma * (n + 1)),
             LindbladChannel(SIGMA_PLUS_SHAPE, rate=gamma * n)]
    return assemble_components(ham, chans, tensors).apply(r)


def controlled_system(r, rdot, gamma, shift, tensors):
    """Three-unknown system: omega_x, omega_y coherent + shared excitation."""
    channels = [
        LindbladChannel(SIGMA_MINUS_SHAPE, rate=gamma, control_index=None),
        LindbladChannel(SIGMA_MINUS_SHAPE, rate=gamma, control_index=0),
        LindbladChannel(SIGMA_PLUS_SHAPE, rate=gamma, control_index=0),
    ]
    drift = HamiltonianSpec([shift / 2, 0.0, 0.0, shift / 2])
    return assemble_control_system(r, rdot, (1, 2), channels, tensors, drift=drift)


def random_state(rng):
    """A Bloch vector with |r_z| >= 0.1, off the closed forms' field singularity."""
    r = random_bloch_vector(2, rng, 0.95)
    while abs(r[2]) < 0.1:
        r = random_bloch_vector(2, rng, 0.95)
    return r


def test_zero_system_is_degenerate(qubit):
    _, tensors = qubit
    system = assemble_control_system(np.zeros(3), np.zeros(3), (1, 2, 3), [], tensors)
    assert system.matrix.shape == (3, 3)
    assert np.allclose(system.matrix, 0.0) and np.allclose(system.rhs, 0.0)
    with pytest.raises(NoUniqueSolutionError):
        solve_controls(system)


def test_square_system_shape(qubit, rng):
    _, tensors = qubit
    system = controlled_system(random_state(rng), rng.normal(size=3), 0.8, 0.2, tensors)
    assert system.matrix.shape == (3, 3)


def test_generic_solve_matches_closed_form(qubit, rng):
    _, tensors = qubit
    for _ in range(100):
        r = random_state(rng)
        rdot = rng.normal(size=3)
        gamma = float(rng.uniform(0.1, 2.0))
        shift = float(rng.normal())
        closed = np.array(two_level_controls(r, rdot, gamma, shift))
        sol = solve_controls(controlled_system(r, rdot, gamma, shift, tensors))
        assert sol.residual < 1e-12
        assert np.max(np.abs(sol.values - closed)) < 1e-9
        back = forward_rates(r, rdot, gamma, shift, *closed, tensors)
        assert np.max(np.abs(back - rdot)) < 1e-10


def test_system_residual_matches_master_equation(qubit, rng):
    # plugging any candidate controls into the system reproduces the
    # component-form residual exactly
    _, tensors = qubit
    r = random_state(rng)
    rdot = rng.normal(size=3)
    gamma, shift = 0.7, -0.4
    system = controlled_system(r, rdot, gamma, shift, tensors)
    candidate = np.array([0.3, -0.8, 1.7])
    lhs = system.matrix @ candidate - system.rhs
    field = forward_rates(r, rdot, gamma, shift, *candidate, tensors)
    assert np.max(np.abs(lhs - (field - rdot))) < 1e-12


def test_pure_coherent_control_is_singular(qubit, rng):
    # with dissipation fixed, a fully coherent control set cannot steer an
    # open two-level system: the system is rank deficient
    _, tensors = qubit
    channels = [LindbladChannel(SIGMA_MINUS_SHAPE, rate=1.0, control_index=None)]
    r = random_state(rng)
    with pytest.raises(NoUniqueSolutionError) as err:
        solve_controls(assemble_control_system(r, rng.normal(size=3), (1, 2, 3),
                                               channels, tensors))
    assert "deficient direction" in str(err.value)


def test_solver_rejects_nonfinite(qubit):
    _, tensors = qubit
    system = assemble_control_system(np.array([0.1, 0.2, np.nan]), np.zeros(3), (1,),
                                     [], tensors)
    with pytest.raises(InvalidInputError):
        solve_controls(system)


def test_ground_state_hold():
    ox, oy, n = two_level_controls(np.array([0.0, 0.0, -1.0]), np.zeros(3), 0.8, 0.5)
    assert ox == 0.0 and oy == 0.0 and abs(n) < 1e-14


def test_thermal_hold_matches_nullspace(qubit):
    basis, _ = qubit
    nbar, gamma = 0.35, 0.9
    r_thermal = np.array([0.0, 0.0, -1.0 / (2 * nbar + 1)])
    _, _, n = two_level_controls(r_thermal, np.zeros(3), gamma, 0.0)
    assert abs(n - nbar) < 1e-12
    # independent check: r_thermal spans the nullspace of the thermal generator
    chans = [LindbladChannel(SIGMA_MINUS_SHAPE, rate=gamma * (nbar + 1)),
             LindbladChannel(SIGMA_PLUS_SHAPE, rate=gamma * nbar)]
    sup = kron_liouvillian(HamiltonianSpec(np.zeros(4)), chans, basis)
    comp = components_from_kron(sup, basis)
    assert np.max(np.abs(comp.apply(r_thermal))) < 1e-12


def test_singularity_errors():
    with pytest.raises(SingularControlError):
        two_level_controls(np.array([0.3, 0.2, 1e-10]), np.ones(3), 0.5, 0.0)
    with pytest.raises(SingularControlError):
        two_level_controls(np.array([0.3, 0.2, -0.5]), np.ones(3), 0.0, 0.0)


def test_markovian_reduction(rng):
    for _ in range(50):
        r = random_state(rng)
        rdot = rng.normal(size=3)
        report = markovian_reduction_check(r, rdot, 1.0)
        assert report.identity_residual < 1e-12
        assert report.substitution_residual < 1e-12
    axis = markovian_reduction_check(np.array([0.0, 0.0, -0.4]), np.zeros(3), 1.0)
    assert axis.omega_x == 0.0 and axis.omega_y == 0.0


def test_markovian_constant_excitation_constraint(rng):
    # holding N fixed pins the radial rate; a derivative built to satisfy the
    # constraint solves back to exactly that N
    gamma0, nbar = 1.0, 0.8
    for _ in range(20):
        r = random_state(rng)
        tang = np.cross(r, rng.normal(size=3))
        radial = -(2 * nbar + 1) * (r @ r + r[2] ** 2) * gamma0 - 2 * gamma0 * r[2]
        rdot = tang + r * (radial / (r @ r))
        assert abs(r @ rdot - radial) < 1e-12
        _, _, n = two_level_controls(r, rdot, gamma0, 0.0)
        assert abs(n - nbar) < 1e-10


def test_schedule_validation():
    with pytest.raises(InvalidInputError):
        ControlSchedule(times=np.array([0.0, 0.0, 1.0]), omega_x=np.zeros(3),
                        omega_y=np.zeros(3), excitation=np.zeros(3))
    with pytest.raises(InvalidInputError):
        ControlSchedule(times=np.array([0.0, 1.0]), omega_x=np.array([0.0, np.inf]),
                        omega_y=np.zeros(2), excitation=np.zeros(2))


@pytest.mark.parametrize("fields, message", [
    ({"omega_y": np.zeros(3), "protocol": "xz"}, "unexpected keyword argument 'protocol'"),
    ({}, "missing 1 required positional argument: 'omega_y'"),
    ({"omega_y": np.zeros(3), "detuning_r": np.zeros(3)},
     "unexpected keyword argument 'detuning_r'"),
    ({"detuning_r": np.zeros(3), "protocol": "x-detuning"},
     "unexpected keyword argument 'detuning_r'"),
], ids=["unknown", "missing", "foreign-xy", "foreign-x-detuning"])
def test_schedule_fields_follow_the_protocol_table(fields, message):
    # the table has one row, FIELDS: a schedule takes no protocol knob and no
    # x-detuning layout, and a missing or foreign field fails where it is built
    with pytest.raises(TypeError, match=message):
        ControlSchedule(times=np.linspace(0.0, 1.0, 3), omega_x=np.zeros(3),
                        excitation=np.zeros(3), **fields)


@pytest.mark.parametrize("name", ["omega_x", "omega_y", "excitation"])
def test_schedule_needs_every_field(name):
    # an unfit schedule fails where it is built, not later in a run
    fields = {"omega_x": np.zeros(3), "omega_y": np.zeros(3), "excitation": np.zeros(3)}
    with pytest.raises(TypeError, match=name):
        ControlSchedule(times=np.linspace(0.0, 1.0, 3),
                        **{key: value for key, value in fields.items() if key != name})
    with pytest.raises(InvalidInputError, match=f"schedule field {name} must match"):
        ControlSchedule(times=np.linspace(0.0, 1.0, 3), **{**fields, name: None})


def test_schedule_from_trajectory_regularizes_endpoints(inversion_setup):
    # decay rate vanishes exactly at t = 0; the sample is taken one epsilon in
    env, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    times = np.linspace(0.0, t_final, 201)
    sched = schedule_from_trajectory(traj, env, times)
    assert np.all(np.isfinite(sched.excitation))
    assert abs(sched.excitation[0]) < 1.0


def test_zero_rhs_invertible_system(qubit, rng):
    from blochsteer.controls import ControlSystem
    _, tensors = qubit
    system = controlled_system(random_state(rng), np.zeros(3), 0.9, 0.4, tensors)
    assert solve_controls(system).residual < 1e-12
    homogeneous = ControlSystem(coherent=system.coherent, incoherent=system.incoherent,
                                rhs=np.zeros(3), coherent_indices=system.coherent_indices)
    assert np.max(np.abs(solve_controls(homogeneous).values)) < 1e-12


def test_solved_schedule_back_substitutes(qubit, inversion_setup):
    # at every directly evaluable grid point the solved controls reproduce
    # the designed derivative exactly; epsilon-regularized samples (t = 0
    # here, where the decay rate vanishes) carry an O(eps) limit residual
    _, tensors = qubit
    env, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    times = np.linspace(0.0, t_final, 301)
    sched = schedule_from_trajectory(traj, env, times)
    from blochsteer.environment import decay_and_shift
    worst = 0.0
    for i, t in enumerate(times[1:], start=1):
        r, rdot = traj.evaluate(t)
        gamma, shift = decay_and_shift(env, t)
        field = forward_rates(r, rdot, gamma, shift, sched.omega_x[i], sched.omega_y[i],
                              sched.excitation[i], tensors)
        worst = max(worst, float(np.max(np.abs(field - rdot))))
    assert worst < 1e-10


def test_schedule_from_trajectory_pure_midpoint(inversion_setup):
    # the equator crossing sits exactly on a grid point and is removable
    env, t_break, _ = inversion_setup
    t_final = 2.0 * t_break
    traj = pure_inversion(t_final)
    times = np.linspace(0.0, t_final, 200 + 1)  # even grid puts t_final/2 on the grid
    sched = schedule_from_trajectory(traj, env, times)
    mid = 100
    assert abs(times[mid] - t_final / 2) < 1e-12
    assert np.all(np.isfinite(sched.omega_x)) and np.all(np.isfinite(sched.omega_y))
    assert abs(sched.excitation[mid] + 0.5) < 1e-3


def scalar_schedule(traj, env, times):
    """Reference: the scalar solver sample by sample, singular samples replaced
    by the mean of their one-sided probes t -+ 1e-6 t_final."""
    from blochsteer.environment import decay_and_shift
    eps = 1e-6 * traj.t_final

    def at(t):
        r, rdot = traj.evaluate(t)
        return np.array(two_level_controls(r, rdot, *decay_and_shift(env, t)))
    rows, patched = [], []
    for t in times:
        try:
            rows.append(at(t))
        except SingularControlError:
            probes = [p for p in (t - eps, t + eps) if 0.0 <= p <= traj.t_final]
            rows.append(np.mean([at(p) for p in probes], axis=0))
            patched.append(t)
    return np.array(rows), patched


def test_schedule_matches_scalar_solver_loop(inversion_setup):
    # r_z = 0 at t_final / 2 and G = 0 at t = 0 both take the -+ eps path
    env, t_break, _ = inversion_setup
    traj = pure_inversion(2.0 * t_break)
    times = np.linspace(0.0, traj.t_final, 201)
    sched = schedule_from_trajectory(traj, env, times)
    batched = np.column_stack([sched.omega_x, sched.omega_y, sched.excitation])
    expected, patched = scalar_schedule(traj, env, times)
    assert times[0] in patched
    assert times[100] in patched and abs(times[100] - traj.t_final / 2) < 1e-12
    scale = np.maximum(1.0, np.abs(expected))
    assert np.max(np.abs(batched - expected) / scale) <= 1e-12


def test_stacked_solver_matches_scalar_calls(rng):
    r = np.array([random_state(rng) for _ in range(40)])
    rdot = rng.normal(size=(40, 3))
    gamma = rng.uniform(0.1, 2.0, size=40)
    shift = rng.normal(size=40)
    stacked = np.column_stack(two_level_controls(r, rdot, gamma, shift))
    single = np.array([two_level_controls(r[i], rdot[i], gamma[i], shift[i])
                       for i in range(40)])
    assert np.array_equal(stacked, single)
    # one sample gives numpy scalars, with the bits of its row of the stack
    one = two_level_controls(r[5], rdot[5], gamma[5], shift[5])
    assert all(type(v) is np.float64 for v in one)
    assert np.array_equal(one, stacked[5])
    r[7, 2] = 0.0
    with pytest.raises(SingularControlError, match="r_z"):
        two_level_controls(r, rdot, gamma, shift)


def test_genuinely_singular_sample_names_its_time(tracking_env, hold):
    # on the equator for the whole run: the probes around a sample are singular too
    times = np.linspace(0.0, 4.0, 41)
    with pytest.raises(SingularControlError,
                       match=r"r_z.* at t = 4e-06 \(probe of the singular sample at t = 0\)$"):
        schedule_from_trajectory(hold([0.3, 0.4, 0.0], 4.0), tracking_env, times)


@pytest.mark.parametrize("grid", [200, 2000])
@pytest.mark.parametrize("stem", ["tracking", "pure_inversion", "mixed_inversion"])
def test_singular_samples_take_the_mean_of_their_probes_bit_for_bit(stem, grid):
    # G = 0 at t = 0 leaves the one probe eps inside the window; r_z = 0 at the
    # pure inversion's t_i takes the mean of t_i -+ eps.  Each probe set is
    # sampled by one call, as the solve samples all of its probes
    from blochsteer import cli
    from blochsteer.environment import decay_and_shift
    config = cli.load_config(CONFIG_DIR / f"{stem}.cfg")
    env, traj, _ = cli._setup(config)
    times = cli._output_times(traj.t_final, grid)
    eps = 1e-6 * traj.t_final
    sched = schedule_from_trajectory(traj, env, times)
    rows = np.column_stack([sched.omega_x, sched.omega_y, sched.excitation])

    def controls(ts):
        return np.column_stack(two_level_controls(*traj.sample(ts), *decay_and_shift(env, ts)))
    assert np.array_equal(rows[0], controls(np.array([eps]))[0])
    if stem == "pure_inversion":
        t_i = times[grid // 2]
        below, above = controls(np.array([t_i - eps, t_i + eps]))
        assert np.array_equal(rows[grid // 2], 0.5 * (below + above))


def test_grid_without_singular_samples_takes_the_closed_forms_bits(tracking_env):
    # away from t = 0 no sample is singular, and the empty probe set changes nothing
    from blochsteer.environment import decay_and_shift
    from blochsteer.trajectories import tracking_trajectory
    traj = tracking_trajectory(tracking_env, 1e-5, 10.0, 10.0)
    times = np.linspace(1.0, 10.0, 31)
    sched = schedule_from_trajectory(traj, tracking_env, times)
    expected = two_level_controls(*traj.sample(times), *decay_and_shift(tracking_env, times))
    assert np.array_equal([sched.omega_x, sched.omega_y, sched.excitation], expected)


def test_system_without_unknowns_returns_the_drifts_residual(qubit, rng):
    # coherent indices () and drift channels only: nothing to solve for
    _, tensors = qubit
    r = np.array([random_state(rng) for _ in range(4)])
    rdot = rng.normal(size=(4, 3))
    channels = [LindbladChannel(SIGMA_MINUS_SHAPE, rate=np.full(4, 0.7), control_index=None)]
    system = assemble_control_system(r, rdot, (), channels, tensors)
    assert system.matrix.shape == (4, 3, 0)
    solution = solve_controls(system)
    assert solution.values.shape == (4, 0)
    drift = np.array([assemble_components(HamiltonianSpec(np.zeros(4)), [LindbladChannel(
        SIGMA_MINUS_SHAPE, rate=0.7)], tensors).apply(ri) for ri in r])
    assert np.allclose(solution.residual, np.linalg.norm(rdot - drift, axis=-1), atol=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_control_system_matches_single_calls(dim, rng):
    # a stack of 25 systems is assembled and solved (one batched SVD) with the
    # bits of 25 single calls; rdot is built from known controls, so every
    # system is consistent
    from blochsteer.sun_algebra import build_basis, structure_constants
    tensors = structure_constants(build_basis(dim))
    n, k = dim * dim - 1, 25
    coherent_indices = (1, 2) if dim == 2 else tuple(range(1, 7))
    r = np.array([random_bloch_vector(dim, rng, 0.9 / np.sqrt(dim)) for _ in range(k)])
    shapes = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    rates = rng.uniform(0.1, 1.0, size=(3, k))
    drift = rng.normal(size=(k, n + 1))

    def system(i=slice(None), rdot=None):
        channels = [LindbladChannel(shapes[j], rate=rates[j][i], control_index=index)
                    for j, index in enumerate((None, 0, 1 if dim == 3 else 0))]
        rdot = np.zeros_like(r[i]) if rdot is None else rdot[i]
        return assemble_control_system(r[i], rdot, coherent_indices, channels, tensors,
                                       drift=HamiltonianSpec(drift[i]))

    known = rng.normal(size=(k, system().matrix.shape[-1]))
    rest = system()
    rdot = np.einsum("...ij,...j->...i", rest.matrix, known) - rest.rhs
    stacked = system(rdot=rdot)
    singles = [system(i, rdot) for i in range(k)]
    for part in ("coherent", "incoherent", "rhs"):
        assert np.array_equal(getattr(stacked, part), [getattr(s, part) for s in singles])
    solution = solve_controls(stacked)
    single = [solve_controls(s) for s in singles]
    assert solution.values.shape == known.shape and solution.residual.shape == (k,)
    assert np.array_equal(solution.values, [s.values for s in single])
    assert np.array_equal(solution.residual, [s.residual for s in single])
    assert np.max(np.abs(solution.values - known)) < 1e-9


def test_stacked_solve_names_the_failing_instance(qubit, rng):
    _, tensors = qubit
    r = np.array([random_state(rng) for _ in range(12)])
    gamma = rng.uniform(0.5, 1.5, size=12)
    singular = r.copy()
    singular[7] = 0.0   # no coherent column and one incoherent: rank 1
    with pytest.raises(NoUniqueSolutionError,
                       match=r"singular; .*\(instance 7 of the stack\)$"):
        solve_controls(controlled_system(singular, rng.normal(size=(12, 3)), gamma, 0.3,
                                         tensors))
    # with omega_x alone the 3 x 2 systems are overdetermined; all but one are
    # consistent because their rdot comes from known controls
    channels = [LindbladChannel(SIGMA_MINUS_SHAPE, rate=gamma, control_index=0)]
    rest = assemble_control_system(r, np.zeros((12, 3)), (1,), channels, tensors)
    rdot = np.einsum("...ij,...j->...i", rest.matrix, rng.normal(size=(12, 2))) - rest.rhs
    rdot[4] += 0.1
    with pytest.raises(NoUniqueSolutionError,
                       match=r"inconsistent: .*\(instance 4 of the stack\)$"):
        solve_controls(assemble_control_system(r, rdot, (1,), channels, tensors))
