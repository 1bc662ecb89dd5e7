import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from blochsteer import cli, environment
from blochsteer.environment import (LorentzianEnvironment, _bisect, _check_zero_between, _sinhc,
                                    decay_and_shift, decay_shift_derivatives, find_gamma_negmax,
                                    find_gamma_zero, propagator_u, tune_detuning_for_lamb_zero)
from blochsteer.errors import (InvalidInputError, PropagatorZeroError, RootNotFoundError)
from blochsteer.selfcheck import _expm, _expm_propagator
from blochsteer.simulator import lab_field_from_effective, renormalized_field


def test_environment_validation():
    with pytest.raises(InvalidInputError):
        LorentzianEnvironment(lam=0.0)


def test_propagator_boundary_and_oracle(rng):
    # the memory equation as a constant-coefficient system: u(t) = [exp(A t)]_00
    envs = [LorentzianEnvironment(lam=float(rng.uniform(0.05, 5.0)),
                                  cavity_detuning=float(rng.uniform(-1, 1)),
                                  drive_detuning=float(rng.uniform(-1, 1)))
            for _ in range(20)]
    for env in envs:
        assert propagator_u(env, 0.0) == 1.0 + 0.0j
    grid = np.linspace(0.0, 10.0, 400)
    closed = np.array([propagator_u(env, grid) for env in envs])
    assert np.max(np.abs(closed - _expm_propagator(envs, grid))) <= 1e-12


def test_propagator_matches_expm_oracle_at_degenerate_reservoir():
    # lam = 2 gamma0 with no detuning gives d = 0, the sinhc series branch
    env = LorentzianEnvironment(lam=2.0)
    assert env._d == 0.0
    grid = np.linspace(0.0, 10.0, 400)
    assert np.max(np.abs(propagator_u(env, grid) - _expm_propagator([env], grid)[0])) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("norm", [1e-8, 1e-2, 1.0, 5.0, 30.0, 200.0])
def test_expm_matches_scipy(n, norm, rng):
    # norms below theta_13 = 5.37 take the unscaled Pade path, the rest are squared
    from scipy.linalg import expm
    a = rng.normal(size=(200, n, n)) + 1j * rng.normal(size=(200, n, n))
    a *= norm / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]
    ref = expm(a)
    dev = np.max(np.abs(_expm(a) - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    assert dev.max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("norm", [1e-8, 1e-2, 1.0, 5.0, 30.0, 200.0])
def test_expm_of_real_stacks_matches_scipy(n, norm, rng):
    # the Pade kernel itself: a complex stack runs through its real embedding.
    # The reference is scipy's complex path.  On these draws, against 40-digit
    # mpmath, scipy 1.17's real path is off by up to 1.9e-11 (norm 200) and
    # 2.6e-12 (norm 30); its complex path by 3.0e-13, this kernel by 2.2e-13
    from scipy.linalg import expm
    a = rng.normal(size=(200, n, n))
    a *= norm / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]
    ref = expm(a.astype(complex)).real
    got = _expm(a)
    assert got.dtype == np.float64
    dev = np.max(np.abs(got - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    assert dev.max() <= 1e-12


def test_expm_of_zero_is_the_identity():
    identity = np.broadcast_to(np.eye(3), (5, 3, 3))
    complex_zero = _expm(np.zeros((5, 3, 3), dtype=complex))
    assert complex_zero.dtype == np.complex128
    assert np.array_equal(complex_zero, identity)
    assert np.array_equal(_expm(np.zeros((5, 3, 3))), identity)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_expm_rejects_non_finite_input(bad):
    a = np.zeros((4, 2, 2), dtype=complex)
    a[2, 1, 0] = bad
    with pytest.raises(InvalidInputError):
        _expm(a)


@pytest.mark.parametrize("n", [17, 201, 2001, 20001])
def test_zero_between_grid_samples_is_named_on_any_spacing(n):
    # at zero cavity detuning u is real up to the drive phase; it crosses zero
    # at t = 4.8368, between samples, where |u| samples only to 7e-6
    env = LorentzianEnvironment(lam=0.5, cavity_detuning=0.0, drive_detuning=0.1)
    ts = np.linspace(0.0, 10.0, n)
    gam, shift = decay_and_shift(env, ts)   # the samples alone show no zero
    assert np.abs(propagator_u(env, ts)).min() > 1e-6
    with pytest.raises(PropagatorZeroError, match=r"zero at t = 4\.836798305, between "):
        _check_zero_between(env, ts, gam, shift)


@pytest.mark.parametrize("n, between", [(17, "4.375 and t = 5"), (2001, "4.835 and t = 4.84"),
                                        (40001, "4.83675 and t = 4.837")])
def test_zero_search_evaluates_each_time_once(monkeypatch, n, between):
    # the interval ends are evaluated once and carried along; each halving
    # round evaluates the closed form at its midpoints only
    env = LorentzianEnvironment(lam=0.5, cavity_detuning=0.0, drive_detuning=0.1)
    ts = np.linspace(0.0, 10.0, n)
    gam, shift = decay_and_shift(env, ts)
    seen = []
    cosh_g = environment._cosh_g
    monkeypatch.setattr(environment, "_cosh_g",
                        lambda env, t: seen.append(np.copy(t)) or cosh_g(env, t))
    message = f"propagator has a zero at t = 4.836798305, between the grid samples t = {between}"
    with pytest.raises(PropagatorZeroError, match=f"^{re.escape(message)}$"):
        _check_zero_between(env, ts, gam, shift)
    # 2 + rounds arrays: the ends on the grid, then the midpoints, none evaluated twice
    ends, mids = np.concatenate(seen[:2]), np.concatenate(seen[2:])
    assert len(seen) > 2 and np.isin(ends, ts).all()
    assert len(np.unique(mids)) == len(mids) and not np.isin(mids, ends).any()


def _sinhc_on_every_entry(z):
    """sinhc with the series and the quotient on every entry, picked by np.where,
    from numpy's complex sinh."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z * z / 6.0 + z ** 4 / 120.0, np.sinh(safe) / safe)


def test_sinhc_takes_the_series_on_the_small_entries_only(rng):
    z = np.concatenate([
        [0.0, -0.0, 1e-300, 5e-5j, -9.99e-5, 7e-5 - 7e-5j, 1e-4, -1e-4j, 1.0001e-4, 2.0 + 3.0j],
        rng.uniform(-2e-4, 2e-4, 50) + 1j * rng.uniform(-2e-4, 2e-4, 50),
        rng.uniform(-30.0, 30.0, 50) + 1j * rng.uniform(-30.0, 30.0, 50)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, cosh = _sinhc(z)
        scalars = [_sinhc(x) for x in z]
    expected = _sinhc_on_every_entry(z)
    small = np.abs(z) < 1e-4
    # the series entries are the series' own bits; the quotient and cosh z
    # are formed from real functions, within a few ulp of numpy's complex ones
    assert got[small].tobytes() == expected[small].tobytes()
    ulp = np.finfo(float).eps
    assert np.all(np.abs(got - expected) <= 4 * ulp * np.abs(expected))
    assert np.all(np.abs(cosh - np.cosh(z)) <= 4 * ulp * np.abs(np.cosh(z)))
    assert got[0] == 1.0 and got.shape == cosh.shape == z.shape
    for i, (value, cosh_value) in enumerate(scalars):
        assert type(value) is type(cosh_value) is np.complex128
        assert (value, cosh_value) == (got[i], cosh[i])
    assert all(part.shape == (10, 11) for part in _sinhc(z.reshape(10, 11)))


def _complex_closed_form(env, t):
    """The closed form as numpy's complex sinh, cosh and exp give it, the
    oracle of the real-arithmetic one: (Gamma0, s0, |u|) and the rounding
    scales (|v| c + |Delta|, |u| c) of the two rates and of |u|.

    c = (|cosh z| + |(lam - i delta) (t/2) sinhc z|) / |g| >= 1 is the
    condition number of the sum g, by which the rounding of its terms is
    amplified in every quantity divided by or taken from g.  The modulus of
    the prefactor e^{-kappa t} is taken exactly, as e^{-lam t / 2}: numpy's
    complex exp alone rounds it by up to 2 ulp.
    """
    half = 0.5 * t
    z = env._d * half
    sinhc = _sinhc_on_every_entry(z)
    memory = (env.lam - 1j * env.cavity_detuning) * half * sinhc
    g = np.cosh(z) + memory
    v = env.lam * half * sinhc / g
    u_abs = np.exp(-0.5 * env.lam * t) * np.abs(g)
    c = (np.abs(np.cosh(z)) + np.abs(memory)) / np.abs(g)
    return (v.real, env.drive_detuning + v.imag, u_abs,
            np.abs(v) * c + abs(env.drive_detuning), u_abs * c)


def _shipped_environments():
    configs = Path(__file__).resolve().parents[1] / "scripts" / "configs"
    return [cli._setup(cli.load_config(configs / f"{stem}.cfg"))[0]
            for stem in ("tracking", "pure_inversion", "mixed_inversion")]


def test_real_closed_form_matches_the_complex_one_within_4_ulp(rng):
    envs = [LorentzianEnvironment(lam=float(rng.uniform(0.05, 5.0)),
                                  cavity_detuning=float(rng.uniform(-1, 1)),
                                  drive_detuning=float(rng.uniform(-1, 1)))
            for _ in range(20)]
    # the degenerate reservoir (d = 0) takes the series everywhere
    envs += _shipped_environments() + [LorentzianEnvironment(lam=2.0, drive_detuning=0.3)]
    blocks = environment._SCAN_POINTS
    ulp = np.finfo(float).eps
    for env in envs:
        # |d t / 2| < 1e-4 up to t_small, then a grid over three blocks
        t_small = 2e-4 / max(abs(env._d), 1e-300)
        t = np.concatenate([np.linspace(0.0, min(t_small, 1.0), 41),
                            np.linspace(0.0, 12.0, 2 * blocks + 7)])
        gam, shift = decay_and_shift(env, t)
        u_abs = environment._u_abs(env, t, environment._cosh_g(env, t)[0])
        gam0, shift0, u_abs0, rate_scale, u_scale = _complex_closed_form(env, t)
        assert np.all(np.abs(gam - gam0) <= 4 * ulp * rate_scale)
        assert np.all(np.abs(shift - shift0) <= 4 * ulp * rate_scale)
        assert np.all(np.abs(u_abs - u_abs0) <= 4 * ulp * u_scale)
        # one time gives the bits of its entry in the array, at the block edges too
        for i in (0, 1, 40, 41 + blocks - 1, 41 + blocks, 41 + 2 * blocks, len(t) - 1):
            assert decay_and_shift(env, t[i]) == (gam[i], shift[i])
            assert decay_shift_derivatives(env, t[i]) == tuple(
                part[i] for part in decay_shift_derivatives(env, t))


def test_decay_and_shift_peaks_below_five_fine_grid_arrays():
    # the closed form holds one block's temporaries at a time, next to its
    # two outputs
    env = LorentzianEnvironment(lam=0.1, cavity_detuning=0.1, drive_detuning=0.3)
    t = np.linspace(0.0, 20.0, 40001)
    decay_and_shift(env, t)
    tracemalloc.start()
    try:
        decay_and_shift(env, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * t.nbytes, peak / t.nbytes


@pytest.mark.parametrize("ts", [np.array([1e-5, 4.8368]), np.linspace(0.0, 30.0, 17)])
def test_turn_between_samples_without_a_zero_is_not_named(ts):
    # w = e^{i Delta t} u turns by more than 90 degrees between two samples near
    # a deep minimum of |u|, but u has no zero there: the halving resolves the turn
    env = LorentzianEnvironment(lam=1.0, cavity_detuning=0.1, drive_detuning=-0.3)
    w = propagator_u(env, ts) * np.exp(1j * env.drive_detuning * ts)
    assert ((w[1:] * w[:-1].conj()).real < 0).any()
    _check_zero_between(env, ts, *decay_and_shift(env, ts))


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


@pytest.mark.parametrize("lam, t_zero", [(0.1, "8.242034312"), (0.05, "11.07815594"),
                                         (0.3, "5.512890766")])
def test_find_gamma_zero_names_a_pole_at_a_zero_of_u(lam, t_zero):
    # at zero cavity detuning u is real up to the drive's phase and has a real
    # zero, where Gamma0 jumps from + to - through a pole: named, not returned
    with pytest.raises(PropagatorZeroError, match=f"propagator has a zero at t = {t_zero},"):
        find_gamma_zero(LorentzianEnvironment(lam=lam, cavity_detuning=0.0))
    # a detuned reservoir's u has no real zero: the crossing is a zero of Gamma0
    for delta in (0.1, 0.05, 0.3):
        t_i = find_gamma_zero(LorentzianEnvironment(lam=lam, cavity_detuning=delta))
        assert abs(decay_and_shift(LorentzianEnvironment(lam=lam, cavity_detuning=delta),
                                   t_i)[0]) < 1e-9


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


def test_find_gamma_negmax_names_a_vanished_scan_window():
    # 4 pi / |Im d| = 125.66 rounds away against t_start = 1e19: the scan grid
    # has no interval left, and the error says so instead of scanning nothing
    env = LorentzianEnvironment(lam=1e-20, cavity_detuning=0.1, drive_detuning=0.0)
    with pytest.raises(RootNotFoundError) as err:
        find_gamma_negmax(env, 1e19)
    assert str(err.value) == ("decay rate has no interior minimum in (1e+19, 1e+19): "
                              "the scan window 125.664 past t_start vanishes in "
                              "floating point")


def test_tune_detuning(inversion_setup):
    env, _, _ = inversion_setup
    assert abs(env.drive_detuning - (-0.6792)) < 0.01
    t_break = find_gamma_zero(env)
    assert abs(decay_and_shift(env, t_break)[1]) < 1e-6
    # symmetric reservoir: the Lamb shift is identically the drive detuning, but
    # Gamma0 has no zero to tune at, only a pole at the first zero of u
    sym = LorentzianEnvironment(lam=0.1, cavity_detuning=0.0, drive_detuning=0.3)
    ts = np.linspace(0.0, 8.0, 81)
    assert np.max(np.abs(decay_and_shift(sym, ts)[1] - 0.3)) < 1e-12
    with pytest.raises(PropagatorZeroError, match="zero at t = 8.242034312,"):
        find_gamma_zero(sym)
    # s0(t_i) = Delta + Im v(t_i) with Im v(t_i) = 6.73 for this reservoir, so
    # its tuned detuning -6.73 lies outside the bracket [-2, 2]
    narrow = LorentzianEnvironment(lam=0.1, cavity_detuning=0.01)
    t_i = find_gamma_zero(narrow)
    assert abs(decay_and_shift(narrow, t_i)[1] - 6.73) < 0.01
    with pytest.raises(RootNotFoundError, match=r"for Delta in \[-2.0, 2.0\]"):
        tune_detuning_for_lamb_zero(narrow, t_i)


def test_decay_zero_is_bit_identical_for_every_drive_detuning():
    # Gamma0 = Re v carries no drive detuning, so t_i is found once, at Delta = 0
    template = LorentzianEnvironment(lam=0.1, cavity_detuning=0.1)
    t_i = find_gamma_zero(template)
    for delta in np.linspace(-2.0, 2.0, 9):
        assert find_gamma_zero(replace(template, drive_detuning=delta)) == t_i
    tuned = tune_detuning_for_lamb_zero(template, t_i)
    assert abs(decay_and_shift(replace(template, drive_detuning=tuned), t_i)[1]) < 1e-8


def test_bisect_returns_an_exact_root_at_the_midpoint():
    calls = []

    def fun(x):
        calls.append(x)
        return x - 0.5
    assert _bisect(fun, 0.0, 1.0) == 0.5
    assert calls == [0.0, 0.5]
