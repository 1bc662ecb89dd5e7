"""Exactly solvable two-level Lorentzian reservoir.

Closed forms for the propagator u(t), the time-dependent decay rate
Gamma0(t) = -Re[udot/u] and the Lamb shift s0(t) = -Im[udot/u], plus the
root-finding utilities the inversion protocols need (decay-rate zero,
first negative maximum, detuning tuning), which share one bisection.  The
drive renormalization and its inverse are ODEs and live with the RK4 core
in ``simulator``.

Conventions: gamma0 sets the frequency unit; delta = omega0 - omega_c is
the cavity detuning, Delta = omega0 - omega_L the drive detuning.  The
memory kernel is f(tau) = (gamma0 lam / 2) exp(-(lam + i Delta - i delta) tau),
and u solves  udot + i Delta u + int_0^t f(t-s) u(s) ds = 0,  u(0) = 1.
The closed form is

    u(t) = e^{-(lam + 2i Delta - i delta) t / 2}
           [cosh(d t / 2) + (lam - i delta) / d * sinh(d t / 2)],
    d = sqrt((lam - i delta)^2 - 2 gamma0 lam),

which is branch-insensitive (cosh is even and sinh(x)/x is even in d).
"""

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, PropagatorZeroError, RootNotFoundError

__all__ = [
    "LorentzianEnvironment",
    "correlation_kernel",
    "propagator_u",
    "decay_and_shift",
    "decay_shift_derivatives",
    "find_gamma_zero",
    "find_gamma_negmax",
    "tune_detuning_for_lamb_zero",
]

_PROPAGATOR_ZERO_TOL = 1e-12
_SCAN_POINTS = 4001   # samples of the sign-change scan in front of each time bisection


@dataclass(frozen=True)
class LorentzianEnvironment:
    """Lorentzian reservoir parameters, frequencies in units of gamma0."""

    lam: float
    cavity_detuning: float = 0.0
    drive_detuning: float = 0.0
    gamma0: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0 and self.gamma0 > 0):
            raise InvalidInputError(
                f"need lam > 0 and gamma0 > 0, got lam={self.lam}, gamma0={self.gamma0}")
        self._d   # raises before any closed form runs on parameters it cannot represent

    # derived constants of the closed form
    @property
    def _d(self) -> complex:
        """d of the closed form; raises ``InvalidInputError`` when it overflows."""
        z = self.lam - 1j * self.cavity_detuning
        d2 = z * z - 2.0 * self.gamma0 * self.lam   # Python complex: inf, not an error
        if not cmath.isfinite(d2):
            raise InvalidInputError(
                f"reservoir constant d = sqrt((lam - i delta)^2 - 2 gamma0 lam) is not finite "
                f"for lam = {self.lam}, cavity_detuning = {self.cavity_detuning}, "
                f"gamma0 = {self.gamma0}")
        return np.sqrt(d2)

    @property
    def _memory_rate(self) -> complex:
        """Kernel decay rate lam + i Delta - i delta."""
        return self.lam + 1j * self.drive_detuning - 1j * self.cavity_detuning

    @property
    def _envelope_rate(self) -> complex:
        """(lam + 2i Delta - i delta) / 2, the log-derivative of the prefactor."""
        return (self.lam + 2j * self.drive_detuning - 1j * self.cavity_detuning) / 2.0


def _sinhc(z):
    """sinh(z)/z, stable near z = 0 (even in z)."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    out = np.where(small, 1.0 + z * z / 6.0 + z ** 4 / 120.0, np.sinh(safe) / safe)
    return out if out.ndim else complex(out)


def correlation_kernel(env: LorentzianEnvironment, tau):
    """Two-time reservoir correlation f(tau) for tau >= 0."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise InvalidInputError("correlation kernel defined for tau >= 0")
    val = 0.5 * env.lam * env.gamma0 * np.exp(-env._memory_rate * tau)
    return val if val.ndim else complex(val)


def _cosh_g(env: LorentzianEnvironment, t):
    """g(t) = cosh(dt/2) + (lam - i delta) (t/2) sinhc(dt/2); u = e^{-kappa t} g."""
    t = np.asarray(t, dtype=float)
    half = 0.5 * t
    z = env._d * half
    return np.cosh(z) + (env.lam - 1j * env.cavity_detuning) * half * _sinhc(z)


def propagator_u(env: LorentzianEnvironment, t):
    """Closed-form propagator u(t), u(0) = 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidInputError("propagator defined for t >= 0")
    val = np.exp(-env._envelope_rate * t) * _cosh_g(env, t)
    return val if val.ndim else complex(val)


def _log_derivative(env: LorentzianEnvironment, t):
    """q(t) = udot/u = -i Delta - v(t), v = gamma0 lam (t/2) sinhc(dt/2) / g(t).

    Exact at t = 0 (q = -i Delta), so Gamma0(0) = 0 and s0(0) = Delta hold to
    machine precision.

    Raises
    ------
    PropagatorZeroError
        If |u| < 1e-12 at some t; the message names the t of the smallest |u|.
    InvalidInputError
        If the decay rate, Lamb shift or |u| overflows; names the first such t.
    """
    t = np.asarray(t, dtype=float)
    # an overflowing closed form gives inf or nan; the checks below name it
    with np.errstate(over="ignore", invalid="ignore"):
        g = _cosh_g(env, t)
        u_abs = np.abs(np.exp(-env._envelope_rate * t) * g)
        if (u_abs < _PROPAGATOR_ZERO_TOL).any():
            t_bad = np.atleast_1d(t)[np.nanargmin(u_abs)]
            raise PropagatorZeroError(
                f"propagator magnitude < {_PROPAGATOR_ZERO_TOL} at t = {t_bad}")
        half = 0.5 * t
        v = env.gamma0 * env.lam * half * _sinhc(env._d * half) / g
        q = -1j * env.drive_detuning - v
    if not (np.isfinite(q).all() and np.isfinite(u_abs).all()):
        raise _not_finite(t, q, u_abs)
    return (q, v) if q.ndim else (complex(q), complex(v))


def _not_finite(t, q, u_abs) -> InvalidInputError:
    """The error naming the first time at which a rate or |u| is not finite."""
    bad = ~np.isfinite(np.reshape([q.real, q.imag, u_abs], (3, -1)))
    i = int(np.argmax(bad.any(axis=0)))
    name = ("decay_rate", "lamb_shift", "propagator magnitude")[int(np.argmax(bad[:, i]))]
    return InvalidInputError(f"{name} is not finite at t = {np.ravel(t)[i]:.6g}")


def decay_and_shift(env: LorentzianEnvironment, t):
    """(Gamma0, s0) = (-Re, -Im) of the analytic log-derivative of u."""
    q, _ = _log_derivative(env, t)
    q = np.asarray(q)
    out = (-q.real, -q.imag)
    return out if q.ndim else (float(out[0]), float(out[1]))


def decay_shift_derivatives(env: LorentzianEnvironment, t):
    """(Gamma0, s0, dGamma0/dt, ds0/dt), all from closed forms.

    Uses qdot = -f(0) + v (mu + q) with mu the kernel decay rate and
    v the memory-integral ratio, avoiding finite differences.
    """
    q, v = _log_derivative(env, t)
    q = np.asarray(q)
    v = np.asarray(v)
    qdot = -0.5 * env.gamma0 * env.lam + v * (env._memory_rate + q)
    vals = (-q.real, -q.imag, -qdot.real, -qdot.imag)
    return vals if q.ndim else tuple(float(x) for x in vals)


# ---------------------------------------------------------------------------
# root finding


def _bisect(fun, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Root of ``fun`` in [lo, hi] to ``tol`` (at most 200 halvings); a midpoint
    with fun = 0 is returned as is."""
    flo = fun(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fmid = fun(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def find_gamma_zero(env: LorentzianEnvironment, window: tuple[float, float] = None) -> float:
    """First root of Gamma0 with a + to - sign change, to 1e-10 in time.

    Raises
    ------
    RootNotFoundError
        If Gamma0 does not change sign from + to - inside the window.
    """
    if window is None:
        window = (1e-9, 30.0 / env.gamma0)
    lo, hi = window
    ts = np.linspace(lo, hi, _SCAN_POINTS)
    gam = decay_and_shift(env, ts)[0]
    crossings = np.nonzero((gam[:-1] > 0) & (gam[1:] <= 0))[0]
    if len(crossings) == 0:
        raise RootNotFoundError(
            f"decay rate has no + -> - zero crossing in ({lo}, {hi})")
    i = crossings[0]
    return _bisect(lambda t: decay_and_shift(env, t)[0], ts[i], ts[i + 1])


def find_gamma_negmax(env: LorentzianEnvironment, t_start: float,
                      t_max: float = None) -> float:
    """First local minimizer of Gamma0 after t_start (the negative maximum).

    Located by the analytic derivative's - to + sign change, bisected to
    1e-10; requires Gamma0 < 0 at the extremum.
    """
    if t_max is None:
        im_d = abs(np.imag(env._d))
        t_max = t_start + (4.0 * np.pi / im_d if im_d > 1e-9 else 30.0 / env.gamma0)
    ts = np.linspace(t_start + 1e-9, t_max, _SCAN_POINTS)
    dgam = decay_shift_derivatives(env, ts)[2]
    crossings = np.nonzero((dgam[:-1] < 0) & (dgam[1:] >= 0))[0]
    if len(crossings) == 0:
        raise RootNotFoundError(
            f"decay rate has no interior minimum in ({t_start}, {t_max})")
    i = crossings[0]
    t_min = _bisect(lambda t: decay_shift_derivatives(env, t)[2], ts[i], ts[i + 1])
    if decay_and_shift(env, t_min)[0] >= 0:
        raise RootNotFoundError(
            f"first minimum of the decay rate at t = {t_min} is not negative")
    return t_min


def tune_detuning_for_lamb_zero(env: LorentzianEnvironment,
                                bracket: tuple[float, float] = (-2.0, 2.0)) -> float:
    """Drive detuning Delta such that s0 vanishes at the decay-rate zero t_i.

    Bisection over Delta of F(Delta) = s0(t_i; Delta), to 1e-8.  The decay rate
    Gamma0 = Re v does not depend on Delta, even in floating point, so t_i
    is found once, before the bisection, and is the same for every trial
    Delta.

    Raises
    ------
    RootNotFoundError
        If the decay rate has no zero crossing, or F does not change sign
        over the bracket (widen the bracket).
    """
    t_i = find_gamma_zero(env)

    def f_of(delta_drive: float) -> float:
        return decay_and_shift(replace(env, drive_detuning=delta_drive), t_i)[1]

    lo, hi = bracket
    flo, fhi = f_of(lo), f_of(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise RootNotFoundError(
            f"Lamb shift at the decay zero has no sign change for Delta in "
            f"[{lo}, {hi}]; widen the bracket")
    return _bisect(f_of, lo, hi, tol=1e-8)
