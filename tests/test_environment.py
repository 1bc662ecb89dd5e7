import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from blochsteer.environment import (LorentzianEnvironment, _bisect, correlation_kernel,
                                    decay_and_shift, decay_shift_derivatives,
                                    find_gamma_negmax, find_gamma_zero, propagator_u,
                                    tune_detuning_for_lamb_zero)
from blochsteer.errors import (InvalidInputError, PropagatorZeroError, RootNotFoundError)
from blochsteer.selfcheck import _expm_propagator
from blochsteer.simulator import lab_field_from_effective, renormalized_field


def test_environment_validation():
    with pytest.raises(InvalidInputError):
        LorentzianEnvironment(lam=0.0)
    with pytest.raises(InvalidInputError):
        LorentzianEnvironment(lam=1.0, gamma0=-1.0)


def test_kernel_closed_form():
    env = LorentzianEnvironment(lam=0.8, cavity_detuning=0.3, drive_detuning=-0.2)
    assert abs(correlation_kernel(env, 0.0) - 0.5 * 0.8) < 1e-15
    tau = 1.0 / env.lam
    assert abs(abs(correlation_kernel(env, tau)) - 0.5 * 0.8 * np.exp(-1.0)) < 1e-14
    with pytest.raises(InvalidInputError):
        correlation_kernel(env, -0.1)


def test_kernel_flat_spectrum_area():
    # quadrature of the kernel approaches gamma0/2 for a wide reservoir
    env = LorentzianEnvironment(lam=200.0, cavity_detuning=0.2, drive_detuning=0.1)
    tau = np.linspace(0.0, 0.5, 20001)
    area = simpson(correlation_kernel(env, tau), x=tau)
    assert abs(area - 0.5) < 5e-3


def test_propagator_boundary_and_oracle(rng):
    # the memory equation as a constant-coefficient system: u(t) = [exp(A t)]_00
    worst = 0.0
    for _ in range(20):
        env = LorentzianEnvironment(lam=float(rng.uniform(0.05, 5.0)),
                                    cavity_detuning=float(rng.uniform(-1, 1)),
                                    drive_detuning=float(rng.uniform(-1, 1)))
        assert propagator_u(env, 0.0) == 1.0 + 0.0j
        grid = np.linspace(0.0, 10.0, 400)
        dev = np.max(np.abs(propagator_u(env, grid) - _expm_propagator(env, grid)))
        worst = max(worst, float(dev))
    assert worst <= 1e-12


def test_propagator_matches_expm_oracle_at_degenerate_reservoir():
    # lam = 2 gamma0 with no detuning gives d = 0, the sinhc series branch
    env = LorentzianEnvironment(lam=2.0)
    assert env._d == 0.0
    grid = np.linspace(0.0, 10.0, 400)
    assert np.max(np.abs(propagator_u(env, grid) - _expm_propagator(env, grid))) <= 1e-12


def test_propagator_branch_insensitive():
    # explicit closed form evaluated with both square-root branches
    env = LorentzianEnvironment(lam=0.3, cavity_detuning=0.4, drive_detuning=-0.5)
    d = np.sqrt(complex((env.lam - 1j * env.cavity_detuning) ** 2 - 2 * env.lam))
    for t in (0.3, 1.7, 6.4):
        vals = []
        for branch in (d, -d):
            k = np.exp(-(env.lam + 2j * env.drive_detuning - 1j * env.cavity_detuning) * t / 2)
            vals.append(k * (np.cosh(branch * t / 2)
                             + (env.lam - 1j * env.cavity_detuning) / branch
                             * np.sinh(branch * t / 2)))
        assert abs(vals[0] - vals[1]) < 1e-13
        assert abs(propagator_u(env, t) - vals[0]) < 1e-13


def test_propagator_near_zero_minimum(inversion_setup):
    env, t_break, t_final = inversion_setup
    ts = np.linspace(0.0, 12.0, 4001)
    mags = np.abs(propagator_u(env, ts))
    assert mags.min() < 0.3
    gam = decay_and_shift(env, ts)[0]
    inside = (ts > t_break) & (ts < t_final)
    assert np.all(gam[inside] < 0)


def test_decay_shift_boundary_exact():
    env = LorentzianEnvironment(lam=0.7, cavity_detuning=-0.4, drive_detuning=0.9)
    gam, shift = decay_and_shift(env, 0.0)
    assert abs(gam) < 1e-10
    assert abs(shift - env.drive_detuning) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 5.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_decay_shift_boundary_property(lam, delta, drive):
    env = LorentzianEnvironment(lam=lam, cavity_detuning=delta, drive_detuning=drive)
    gam, shift = decay_and_shift(env, 0.0)
    assert abs(gam) < 1e-10 and abs(shift - drive) < 1e-10


def test_markovian_limit_rates():
    # flat-spectrum limit: the population rate 2*Gamma0 approaches gamma0,
    # with a residual offset of 1/(2 lam) from the finite width
    for lam, tol in ((10.0, 0.06), (20.0, 0.05)):
        env = LorentzianEnvironment(lam=lam)
        ts = np.linspace(3.0 / lam, 10.0, 2001)
        gam = decay_and_shift(env, ts)[0]
        assert np.max(np.abs(2.0 * gam - 1.0)) <= tol


def test_decay_derivatives_match_finite_differences(inversion_setup):
    env, _, _ = inversion_setup
    h = 1e-6
    for t in (0.5, 3.0, 8.5, 9.2):
        g, s, gd, sd = decay_shift_derivatives(env, t)
        g2, s2 = decay_and_shift(env, t + h)
        g1, s1 = decay_and_shift(env, t - h)
        assert abs((g2 - g1) / (2 * h) - gd) < 1e-6
        assert abs((s2 - s1) / (2 * h) - sd) < 1e-6


def test_propagator_zero_error():
    # real-propagator geometry: u crosses zero, rates blow up there
    env = LorentzianEnvironment(lam=0.5, cavity_detuning=0.0, drive_detuning=0.0)
    lo, hi = 4.0, 6.0
    assert propagator_u(env, lo).real > 0 > propagator_u(env, hi).real
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if propagator_u(env, mid).real > 0:
            lo = mid
        else:
            hi = mid
    with pytest.raises(PropagatorZeroError):
        decay_and_shift(env, 0.5 * (lo + hi))


def test_overflowing_closed_form_names_quantity_and_time_without_warnings():
    # the closed forms overflow to inf or nan without a RuntimeWarning; the
    # error names the first quantity and time that are not finite
    env = LorentzianEnvironment(lam=0.1, cavity_detuning=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (np.array([0.0, 1.0, 1e200, 1e300]), 1e200):
            with pytest.raises(InvalidInputError,
                               match=r"^decay_rate is not finite at t = 1e\+200$"):
                decay_and_shift(env, t)
        with pytest.raises(InvalidInputError,
                           match="^propagator magnitude is not finite at t = 0$"):
            decay_shift_derivatives(replace(env, drive_detuning=1e308), np.array([0.0, 1.0]))


def test_renormalized_field_zero_drive(tracking_env):
    grid = np.linspace(0.0, 5.0, 501)
    out = renormalized_field(tracking_env, lambda t: 0.0, grid)
    assert np.max(np.abs(out)) < 1e-14


def test_field_round_trip(tracking_env):
    # prescribe an effective drive, recover the lab drive, re-renormalize
    t_final = 6.0
    omega_r = lambda t: 0.8 * (t / t_final) ** 2 * (3 - 2 * t / t_final)
    times, lab = lab_field_from_effective(tracking_env, omega_r, t_final, n=6000)
    from scipy.interpolate import CubicSpline
    lab_re = CubicSpline(times, lab.real)
    lab_im = CubicSpline(times, lab.imag)
    back = renormalized_field(tracking_env, lambda t: lab_re(t) + 1j * lab_im(t), times)
    target = np.array([omega_r(t) for t in times])
    assert np.max(np.abs(back - target)) < 1e-6


def test_lab_field_zero_effective(tracking_env):
    times, lab = lab_field_from_effective(tracking_env, lambda t: 0.0, 4.0, n=400)
    assert np.max(np.abs(lab)) < 1e-14


def test_renormalized_field_quadrature_crosscheck(tracking_env):
    # h(t) = -i int Omega(s) u(t-s) ds evaluated by Simpson quadrature
    env = tracking_env
    omega = lambda t: 0.5 * np.sin(0.7 * t) + 0.2
    t_eval = 4.0
    grid = np.linspace(0.0, t_eval, 4001)
    out = renormalized_field(env, omega, grid)[-1]
    s = grid
    om = np.array([omega(x) for x in s])
    u_rev = propagator_u(env, t_eval - s)
    h = -1j * simpson(om * u_rev, x=s)
    udot_rev = np.empty_like(u_rev)
    q_all = []
    for x in t_eval - s:
        g, sh = decay_and_shift(env, x)
        q_all.append(complex(-g, -sh))
    udot_rev = np.array(q_all) * u_rev
    hdot = -1j * omega(t_eval) - 1j * simpson(om * udot_rev, x=s)
    g, sh = decay_and_shift(env, t_eval)
    quad = 1j * (hdot - h * complex(-g, -sh))
    assert abs(out - quad) < 1e-8


def test_markovian_limit_field_identity():
    env = LorentzianEnvironment(lam=50.0)
    omega = lambda t: 0.4 + 0.1 * np.sin(t)
    grid = np.linspace(0.0, 5.0, 2001)
    out = renormalized_field(env, omega, grid)
    sel = grid > 3.0 / env.lam
    target = np.array([omega(t) for t in grid])
    rel = np.abs(out[sel] - target[sel]) / np.abs(target[sel])
    assert np.max(rel) < 0.05


def test_find_gamma_zero(inversion_setup):
    env, t_break, t_final = inversion_setup
    assert 0.0 < t_break < t_final
    assert abs(decay_and_shift(env, t_break)[0]) < 1e-9
    # Markovian-like reservoir stays positive
    with pytest.raises(RootNotFoundError):
        find_gamma_zero(LorentzianEnvironment(lam=10.0))
    # window that excludes the root
    with pytest.raises(RootNotFoundError):
        find_gamma_zero(env, window=(1e-6, 5.0))


def test_find_gamma_zero_deterministic(inversion_setup):
    env, _, _ = inversion_setup
    a = find_gamma_zero(env)
    b = find_gamma_zero(env)
    assert a == b


def test_find_gamma_negmax(inversion_setup):
    env, t_break, t_final = inversion_setup
    # first interior minimum of the exact decay rate for this reservoir
    assert abs(t_final - 9.25261) < 0.01
    g, _, gd, _ = decay_shift_derivatives(env, t_final)
    assert g < 0 and abs(gd) < 1e-8
    with pytest.raises(RootNotFoundError):
        find_gamma_negmax(LorentzianEnvironment(lam=10.0), 0.5)
    with pytest.raises(RootNotFoundError):
        find_gamma_negmax(env, t_break, t_max=t_break + 1e-3)


def test_tune_detuning(inversion_setup):
    env, _, _ = inversion_setup
    assert abs(env.drive_detuning - (-0.6792)) < 0.01
    t_break = find_gamma_zero(env)
    assert abs(decay_and_shift(env, t_break)[1]) < 1e-6
    # symmetric reservoir: Lamb shift is identically the drive detuning
    sym = LorentzianEnvironment(lam=0.1, cavity_detuning=0.0)
    tuned = tune_detuning_for_lamb_zero(sym, bracket=(-1.0, 1.0))
    assert abs(tuned) < 1e-6
    with pytest.raises(RootNotFoundError):
        tune_detuning_for_lamb_zero(LorentzianEnvironment(lam=0.1, cavity_detuning=0.1),
                                    bracket=(0.5, 1.0))


def test_decay_zero_is_bit_identical_for_every_drive_detuning(monkeypatch):
    # Gamma0 = Re v carries no drive detuning, so the tuning finds t_i once
    template = LorentzianEnvironment(lam=0.1, cavity_detuning=0.1)
    t_i = find_gamma_zero(template)
    for delta in np.linspace(-2.0, 2.0, 9):
        assert find_gamma_zero(replace(template, drive_detuning=delta)) == t_i
    import blochsteer.environment as environment
    calls = []
    monkeypatch.setattr(environment, "find_gamma_zero",
                        lambda env: calls.append(env) or find_gamma_zero(env))
    tuned = tune_detuning_for_lamb_zero(template, bracket=(-2.0, 0.0))
    assert len(calls) == 1
    assert abs(decay_and_shift(replace(template, drive_detuning=tuned), t_i)[1]) < 1e-8


def test_bisect_returns_an_exact_root_at_the_midpoint():
    calls = []

    def fun(x):
        calls.append(x)
        return x - 0.5
    assert _bisect(fun, 0.0, 1.0) == 0.5
    assert calls == [0.0, 0.5]
