import numpy as np
import pytest

from blochsteer import trajectories
from blochsteer.controls import controllability_check, schedule_from_trajectory
from blochsteer.errors import InfeasibleTrajectoryError, InvalidInputError
from blochsteer.liouvillian import (HamiltonianSpec, LindbladChannel, kron_liouvillian,
                                    vec)
from blochsteer.controls import SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE
from blochsteer.environment import LorentzianEnvironment, decay_and_shift
from blochsteer.sun_algebra import bloch_to_density
from blochsteer.trajectories import (BOUNDARY_TABLE, mixed_inversion_trajectory,
                                     pure_inversion, reference_ramp, reference_ramp_rate,
                                     tracking_trajectory)


def max_norm(path) -> float:
    """Largest |r| over 1000 equally spaced times."""
    r, _ = path.sample(np.linspace(0.0, path.t_final, 1000))
    return float(np.max(np.linalg.norm(r, axis=1)))


def reference_generator(env, n0, omega0, t, basis):
    """Frozen reference Liouvillian supermatrix at time t."""
    gam, shift = decay_and_shift(env, t)
    ham = HamiltonianSpec([shift / 2, omega0, 0.0, shift / 2])
    chans = [LindbladChannel(SIGMA_MINUS_SHAPE, rate=gam * (n0 + 1)),
             LindbladChannel(SIGMA_PLUS_SHAPE, rate=gam * n0)]
    return kron_liouvillian(ham, chans, basis)


def test_reference_ramp_values():
    omega_c, t_final = 10.0, 8.0
    assert reference_ramp(omega_c, t_final, 0.0) == 0.0
    assert abs(reference_ramp(omega_c, t_final, t_final) - omega_c) < 1e-13
    assert abs(reference_ramp(omega_c, t_final, t_final / 2) - omega_c / 2) < 1e-13
    h = 1e-7
    assert abs(reference_ramp(omega_c, t_final, h) - reference_ramp(omega_c, t_final, 0)) < 1e-8
    assert abs(reference_ramp(omega_c, t_final, t_final) -
               reference_ramp(omega_c, t_final, t_final - h)) < 1e-8
    assert reference_ramp_rate(omega_c, t_final, 0.0) == 0.0
    assert reference_ramp_rate(omega_c, t_final, t_final) == 0.0
    with pytest.raises(InvalidInputError):
        reference_ramp(omega_c, t_final, -0.1)
    with pytest.raises(InvalidInputError):
        reference_ramp(omega_c, t_final, t_final + 0.1)


def null_residual(r, env, n0, omega0, t, basis) -> float:
    """Largest entry of the frozen reference generator applied to vec rho(r)."""
    sup = reference_generator(env, n0, omega0, t, basis)
    return float(np.max(np.abs(sup @ vec(bloch_to_density(r, basis)))))


def test_steady_state_thermal(tracking_env):
    # zero drive (omega_c = 0): the path is the thermal state throughout
    r, _ = tracking_trajectory(tracking_env, 0.25, 0.0, 10.0).evaluate(2.0)
    assert np.allclose(r, [0.0, 0.0, -1.0 / 1.5], atol=1e-13)
    # vacuum reservoir pins the ground state
    r0, _ = tracking_trajectory(tracking_env, 0.0, 0.0, 10.0).evaluate(3.0)
    assert np.allclose(r0, [0.0, 0.0, -1.0], atol=1e-13)


def test_steady_state_is_nullvector(qubit, tracking_env, rng):
    basis, _ = qubit
    n0 = 1e-5
    path = tracking_trajectory(tracking_env, n0, 10.0, 10.0)
    for t in rng.uniform(0.3, 10.0, size=12):
        r, _ = path.evaluate(float(t))
        omega0 = reference_ramp(10.0, 10.0, float(t))
        assert null_residual(r, tracking_env, n0, omega0, float(t), basis) < 1e-10


def test_steady_state_degenerate():
    # drive, decay rate and Lamb shift all vanish at t = 0: the thermal state
    env = LorentzianEnvironment(lam=0.5, cavity_detuning=0.0, drive_detuning=0.0)
    thermal = np.array([0.0, 0.0, -1.0 / 1.2])
    path = tracking_trajectory(env, 0.1, 0.0, 10.0)
    assert np.array_equal(path.evaluate(0.0)[0], thermal)
    assert np.array_equal(path.sample(np.zeros(2))[0], [thermal, thermal])


@pytest.mark.parametrize("drive_detuning", [0.0, 0.1])
def test_zero_drive_limit_at_a_huge_final_time_is_finite(drive_detuning):
    # the limit's t_f^2 overflows to inf and the slope underflows to 0, with
    # no OverflowError, whether or not the sample sits on the zero-drive limit
    env = LorentzianEnvironment(lam=0.5, cavity_detuning=0.5, drive_detuning=drive_detuning)
    r, rdot = tracking_trajectory(env, 1e-5, 10.0, 1e200).evaluate(0.0)
    assert np.all(np.isfinite(r)) and rdot[1] == 0.0


def test_tracking_trajectory_endpoints(qubit, tracking_env):
    # undriven at t = 0 (the thermal state), fully driven at t_f
    basis, _ = qubit
    traj = tracking_trajectory(tracking_env, 1e-5, 10.0, 10.0)
    r0, _ = traj.evaluate(0.0)
    rf, _ = traj.evaluate(10.0)
    assert np.allclose(r0, [0.0, 0.0, -1.0 / (1.0 + 2e-5)], atol=1e-14)
    # the closed form (-2 w s0, 2 npr w G, -ss) / (npr (ss + 2 w^2)) at w = omega_c
    g, s0 = decay_and_shift(tracking_env, 10.0)
    npr, w = 1.0 + 2e-5, 10.0
    ss = s0 * s0 + npr ** 2 * g * g
    steady = np.array([-2.0 * w * s0, 2.0 * npr * w * g, -ss]) / (npr * (ss + 2.0 * w * w))
    assert np.allclose(rf, steady, atol=1e-14)
    assert null_residual(r0, tracking_env, 1e-5, 0.0, 0.0, basis) < 1e-10
    assert null_residual(rf, tracking_env, 1e-5, 10.0, 10.0, basis) < 1e-10
    assert max_norm(traj) < 1.0


def test_tracking_derivative_matches_finite_differences(tracking_env):
    traj = tracking_trajectory(tracking_env, 1e-5, 10.0, 10.0)
    h = 1e-5
    for t in (0.7, 2.9, 5.5, 9.3):
        _, rdot = traj.evaluate(t)
        rp, _ = traj.evaluate(t + h)
        rm, _ = traj.evaluate(t - h)
        fd = (rp - rm) / (2 * h)
        denom = max(1e-9, float(np.max(np.abs(rdot))))
        assert np.max(np.abs(fd - rdot)) / denom < 1e-5


def test_pure_inversion_boundary_conditions():
    t_final, theta_mid = 12.0, np.pi / 4
    path = pure_inversion(t_final, theta_mid)
    r0, _ = path.evaluate(0.0)
    rf, _ = path.evaluate(t_final)
    assert np.allclose(r0, [0, 0, -1], atol=1e-12)
    assert np.allclose(rf, [0, 0, 1], atol=1e-12)
    r_mid, rdot_mid = path.evaluate(t_final / 2)
    assert abs(r_mid[2]) < 1e-12                      # equator crossing
    # zero azimuthal-rate condition at the crossing: the polar bump is flat
    h = 1e-6
    r_p, _ = path.evaluate(t_final / 2 + h)
    r_m, _ = path.evaluate(t_final / 2 - h)
    theta_p = np.arctan2(r_p[0], r_p[1])
    theta_m = np.arctan2(r_m[0], r_m[1])
    assert abs(theta_p - theta_m) / (2 * h) < 1e-6
    assert abs(max_norm(path) - 1.0) < 1e-12


def test_pure_inversion_unit_speed_consistency():
    t_final = 9.0
    path = pure_inversion(t_final, np.pi / 5)
    h = 1e-6 * t_final
    for t in np.linspace(0.05 * t_final, 0.95 * t_final, 7):
        r, rdot = path.evaluate(t)
        rp, _ = path.evaluate(t + h)
        rm, _ = path.evaluate(t - h)
        fd = (rp - rm) / (2 * h)
        assert np.max(np.abs(fd - rdot)) < 1e-6 * max(1.0, np.max(np.abs(rdot)))
        assert abs(np.dot(r, rdot)) < 1e-12          # unit sphere: r . rdot = 0


def test_mixed_inversion_knots(inversion_setup):
    _, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    r0, rd0 = traj.evaluate(0.0)
    ri, rdi = traj.evaluate(t_break)
    rf, rdf = traj.evaluate(t_final)
    table = BOUNDARY_TABLE
    assert np.allclose(r0, [0.0, table["r_y"][0][0], table["r_z"][0][0]], atol=1e-12)
    assert np.allclose(rd0, [0.0, 0.0, 0.0], atol=1e-12)
    assert abs(ri[1] - 0.12) < 1e-12 and abs(ri[2]) < 1e-12
    assert abs(rdi[1]) < 1e-12 and abs(rdi[2] - 0.4) < 1e-12
    assert np.allclose(rf, [0.0, 0.0, 1.0], atol=1e-12)
    assert abs(rdf[1]) < 1e-12 and abs(rdf[2] - 1.0) < 1e-12
    # radial rate vanishes at the break, removing the excitation singularity
    assert abs(np.dot(ri, rdi)) < 1e-12
    assert abs(np.linalg.norm(r0) - 1) < 1e-12 and abs(np.linalg.norm(rf) - 1) < 1e-12


# Knot tables built with scipy's CubicHermiteSpline before the numpy cubics;
# each case inserts one knot at the midpoint and scales its slopes by 0.9 in
# two remediation rounds.
SCIPY_KNOT_TABLES = [
    ((8.025624305807515, 9.252612287032694),
     (("r_y", (0.0, 4.0128121529037575, 8.025624305807515, 9.252612287032694),
       (0.0, 0.06, 0.12, 0.0), (0.0, 0.018166811009891898, 0.0, 0.0)),
      ("r_z", (0.0, 4.0128121529037575, 8.025624305807515, 9.252612287032694),
       (-1.0, -0.9012812152903757, 0.0, 1.0), (0.0, 0.07039009174909916, 0.4, 1.0)))),
    ((8.0, 8.5),
     (("r_y", (0.0, 4.0, 8.0, 8.5), (0.0, 0.06, 0.12, 0.0), (0.0, 0.018225, 0.0, 0.0)),
      ("r_z", (0.0, 4.0, 8.0, 8.5), (-1.0, -0.9, 0.0, 1.0),
       (0.0, 0.07087500000000001, 0.4, 1.0)))),
]


@pytest.mark.parametrize("times, expected", SCIPY_KNOT_TABLES)
def test_remediated_knot_table_matches_the_scipy_construction(times, expected):
    knots = mixed_inversion_trajectory(*times).knots
    for (comp, ts, vs, ms), (comp_e, ts_e, vs_e, ms_e) in zip(knots, expected, strict=True):
        assert comp == comp_e and ts == ts_e
        np.testing.assert_allclose(vs, vs_e, rtol=0, atol=1e-16)
        np.testing.assert_allclose(ms, ms_e, rtol=0, atol=1e-16)


def test_mixed_inversion_stays_in_ball(inversion_setup):
    _, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    assert max_norm(traj) <= 1.0 + 1e-9


def test_mixed_inversion_sign_structure(inversion_setup):
    _, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    ts = np.linspace(1e-6, t_final - 1e-6, 2000)
    r, _ = traj.sample(ts)
    before = ts < t_break - 1e-9
    after = ts > t_break + 1e-9
    assert np.all(r[before, 2] < 0)
    assert np.all(r[after, 2] > 0)


def test_mixed_inversion_derivative_consistency(inversion_setup):
    _, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    h = 1e-6 * t_final
    for t in np.linspace(0.07 * t_final, 0.93 * t_final, 9):
        r, rdot = traj.evaluate(t)
        rp, _ = traj.evaluate(t + h)
        rm, _ = traj.evaluate(t - h)
        fd = (rp - rm) / (2 * h)
        assert np.max(np.abs(fd - rdot)) < 1e-6 * max(1.0, np.max(np.abs(rdot)))


def test_mixed_inversion_invalid_and_infeasible(monkeypatch):
    with pytest.raises(InvalidInputError):
        mixed_inversion_trajectory(5.0, 4.0)
    steep = {"r_y": ((0.0, 0.0), (0.12, 0.0), (0.0, 0.0)),
             "r_z": ((-1.0, 0.0), (0.0, 60.0), (1.0, 1.0))}
    monkeypatch.setattr(trajectories, "BOUNDARY_TABLE", steep)
    with pytest.raises(InfeasibleTrajectoryError):
        mixed_inversion_trajectory(8.0, 9.2)
    not_finite = {"r_y": ((0.0, 0.0), (np.nan, 0.0), (0.0, 0.0)),
                  "r_z": ((-1.0, 0.0), (0.0, 0.4), (1.0, 1.0))}
    monkeypatch.setattr(trajectories, "BOUNDARY_TABLE", not_finite)
    with pytest.raises(InfeasibleTrajectoryError, match="r_y knot table"):
        mixed_inversion_trajectory(8.0, 9.2)


@pytest.mark.parametrize("t_break, t_final, message", [
    # the knots crowd against t = 0: the Hermite coefficients overflow
    (1e-300, 9.2526, "r_y knot table: cubic coefficients overflow"),
    # the path is stretched so far that its norm overflows on the check grid
    (8.0256, 1e308, "trajectory norm is not finite at t = "),
])
def test_mixed_inversion_names_extreme_knot_times(t_break, t_final, message):
    with pytest.raises(InfeasibleTrajectoryError) as err:
        mixed_inversion_trajectory(t_break, t_final)
    assert str(err.value).startswith(message)


def test_controllability_pure_inversion(inversion_setup):
    env, t_break, _ = inversion_setup
    t_final = 2.0 * t_break
    traj = pure_inversion(t_final)
    times = np.linspace(0.0, t_final, 801)
    sched = schedule_from_trajectory(traj, env, times)
    report = controllability_check(sched)
    assert report.min_excitation < 0
    assert not report.excitation_nonnegative


def test_controllability_mixed_inversion(inversion_setup):
    # nonnegative excitation everywhere except the structural violation that
    # the endpoint slope forces once the decay-rate minimum exceeds 1/4 in
    # magnitude; the report records it truthfully
    env, t_break, t_final = inversion_setup
    traj = mixed_inversion_trajectory(t_break, t_final)
    times = np.linspace(0.0, t_final, 2001)
    sched = schedule_from_trajectory(traj, env, times)
    report = controllability_check(sched)
    early = times <= 9.0
    assert np.min(sched.excitation[early]) >= -1e-9
    assert report.min_excitation == pytest.approx(-(1 + 4 * decay_and_shift(env, t_final)[0])
                                                  / (4 * decay_and_shift(env, t_final)[0]),
                                                  abs=1e-6)
    assert report.t_min_excitation == pytest.approx(t_final, abs=1e-9)
    assert not report.excitation_nonnegative


def test_controllability_ground_state_hold(tracking_env, hold):
    times = np.linspace(0.0, 5.0, 101)
    ground = hold([0.0, 0.0, -1.0], 5.0)
    sched = schedule_from_trajectory(ground, tracking_env, times)
    report = controllability_check(sched)
    assert report.max_omega_x < 1e-12 and report.max_omega_y < 1e-12
    assert abs(report.min_excitation) < 1e-12
    assert report.excitation_nonnegative


def test_sample_matches_evaluate_loop(tracking_env, inversion_setup):
    # the batched evaluator gives the same path as one evaluate call per sample
    env, t_break, t_final = inversion_setup
    designs = (tracking_trajectory(tracking_env, 1e-5, 10.0, 10.0),
               pure_inversion(2.0 * t_break),
               mixed_inversion_trajectory(t_break, t_final))
    for design, traj in enumerate(designs):
        times = np.linspace(0.0, traj.t_final, 401)
        r, rdot = traj.sample(times)
        assert r.shape == rdot.shape == (len(times), 3)
        for i, t in enumerate(times):
            r_i, rdot_i = traj.evaluate(t)
            assert np.max(np.abs(r[i] - r_i)) <= 1e-15, (design, t)
            assert np.max(np.abs(rdot[i] - rdot_i)) <= 1e-15, (design, t)


def test_sample_names_first_time_outside_window():
    traj = pure_inversion(4.0)
    with pytest.raises(InvalidInputError, match="time 4.5 outside"):
        traj.sample(np.array([0.0, 1.0, 4.5, -1.0]))
