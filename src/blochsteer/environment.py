"""Exactly solvable two-level Lorentzian reservoir.

Closed forms for the propagator u(t), the time-dependent decay rate
Gamma0(t) = -Re[udot/u], the Lamb shift s0(t) = -Im[udot/u], the
renormalized drive transform and its inverse, plus the root-finding
utilities the inversion protocols need (decay-rate zero, first negative
maximum, detuning tuning).

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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, PropagatorZeroError, RootNotFoundError

__all__ = [
    "LorentzianEnvironment",
    "EnvSnapshot",
    "correlation_kernel",
    "propagator_u",
    "decay_and_shift",
    "decay_shift_derivatives",
    "renormalized_field",
    "lab_field_from_effective",
    "find_gamma_zero",
    "find_gamma_negmax",
    "tune_detuning_for_lamb_zero",
]

_PROPAGATOR_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class LorentzianEnvironment:
    """Lorentzian reservoir parameters, frequencies in units of gamma0."""

    lam: float
    cavity_detuning: float = 0.0
    drive_detuning: float = 0.0
    gamma0: float = 1.0
    n0: float = 0.0

    def __post_init__(self):
        if not (self.lam > 0 and self.gamma0 > 0):
            raise InvalidInputError(
                f"need lam > 0 and gamma0 > 0, got lam={self.lam}, gamma0={self.gamma0}")

    def replace_drive_detuning(self, value: float) -> "LorentzianEnvironment":
        return LorentzianEnvironment(self.lam, self.cavity_detuning, float(value),
                                     self.gamma0, self.n0)

    # derived constants of the closed form
    @property
    def _d(self) -> complex:
        return np.sqrt(complex((self.lam - 1j * self.cavity_detuning) ** 2
                               - 2.0 * self.gamma0 * self.lam))

    @property
    def _memory_rate(self) -> complex:
        """Kernel decay rate lam + i Delta - i delta."""
        return self.lam + 1j * self.drive_detuning - 1j * self.cavity_detuning

    @property
    def _envelope_rate(self) -> complex:
        """(lam + 2i Delta - i delta) / 2, the log-derivative of the prefactor."""
        return (self.lam + 2j * self.drive_detuning - 1j * self.cavity_detuning) / 2.0


@dataclass(frozen=True)
class EnvSnapshot:
    """Reservoir state at one instant."""

    t: float
    u: complex
    decay_rate: float
    lamb_shift: float


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
    """
    t = np.asarray(t, dtype=float)
    g = _cosh_g(env, t)
    u_abs = np.abs(np.exp(-env._envelope_rate * t) * g)
    if np.min(u_abs) < _PROPAGATOR_ZERO_TOL:
        t_bad = np.atleast_1d(t)[np.argmin(np.atleast_1d(u_abs))]
        raise PropagatorZeroError(f"propagator magnitude < {_PROPAGATOR_ZERO_TOL} at t = {t_bad}")
    half = 0.5 * t
    v = env.gamma0 * env.lam * half * _sinhc(env._d * half) / g
    q = -1j * env.drive_detuning - v
    return (q, v) if q.ndim else (complex(q), complex(v))


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


def snapshot(env: LorentzianEnvironment, t: float) -> EnvSnapshot:
    gam, shift = decay_and_shift(env, t)
    return EnvSnapshot(t=float(t), u=propagator_u(env, t), decay_rate=gam, lamb_shift=shift)


# ---------------------------------------------------------------------------
# drive transforms


def _rk4_complex(rhs, y0: np.ndarray, tgrid: np.ndarray) -> np.ndarray:
    """Fixed-step RK4 over the given grid for a complex first-order system."""
    out = np.empty((len(tgrid), len(y0)), dtype=complex)
    out[0] = y0
    y = np.array(y0, dtype=complex)
    for i in range(len(tgrid) - 1):
        t0, t1 = tgrid[i], tgrid[i + 1]
        h = t1 - t0
        k1 = rhs(t0, y)
        k2 = rhs(t0 + h / 2, y + h / 2 * k1)
        k3 = rhs(t0 + h / 2, y + h / 2 * k2)
        k4 = rhs(t1, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = y
    return out


def renormalized_field(env: LorentzianEnvironment, omega: Callable[[float], complex],
                       tgrid: np.ndarray) -> np.ndarray:
    """Effective drive Omega^R(t) produced by the physical drive Omega(t).

    Solves h' = -i Delta h - w - i Omega, w' = f(0) h - mu w (the local form
    of the memory convolution) and returns i [h' - h u'/u] on the grid.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    f0 = 0.5 * env.gamma0 * env.lam
    mu = env._memory_rate

    def rhs(t, y):
        h, w = y
        return np.array([-1j * env.drive_detuning * h - w - 1j * omega(t),
                         f0 * h - mu * w])

    sol = _rk4_complex(rhs, np.zeros(2, dtype=complex), tgrid)
    h, w = sol[:, 0], sol[:, 1]
    hdot = -1j * env.drive_detuning * h - w - 1j * np.array([omega(t) for t in tgrid])
    q, _ = _log_derivative(env, tgrid)
    return 1j * (hdot - h * q)


def lab_field_from_effective(env: LorentzianEnvironment,
                             omega_r: Callable[[float], complex],
                             t_final: float, n: int = 2000) -> tuple[np.ndarray, np.ndarray]:
    """Physical drive Omega(t) realizing a prescribed effective drive Omega^R(t).

    Integrates h' = -i Omega^R + h u'/u from h(0) = 0 together with the
    memory variable, then reads off Omega = i [h' + i Delta h + w].
    Returns (times, Omega samples).

    Raises
    ------
    PropagatorZeroError
        If u vanishes inside [0, t_final]; the message carries the location.
    """
    tgrid = np.linspace(0.0, float(t_final), n + 1)
    f0 = 0.5 * env.gamma0 * env.lam
    mu = env._memory_rate

    def rhs(t, y):
        h, w = y
        q, _ = _log_derivative(env, t)
        return np.array([-1j * omega_r(t) + h * q, f0 * h - mu * w])

    sol = _rk4_complex(rhs, np.zeros(2, dtype=complex), tgrid)
    h, w = sol[:, 0], sol[:, 1]
    q, _ = _log_derivative(env, tgrid)
    hdot = -1j * np.array([omega_r(t) for t in tgrid]) + h * q
    omega = 1j * (hdot + 1j * env.drive_detuning * h + w)
    return tgrid, omega


# ---------------------------------------------------------------------------
# root finding


def _bisect(fun, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    flo = fun(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fmid = fun(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def find_gamma_zero(env: LorentzianEnvironment, window: tuple[float, float] = None,
                    scan_points: int = 4001) -> float:
    """First root of Gamma0 with a + to - sign change, to 1e-10 in time.

    Raises
    ------
    RootNotFoundError
        If Gamma0 does not change sign from + to - inside the window.
    """
    if window is None:
        window = (1e-9, 30.0 / env.gamma0)
    lo, hi = window
    ts = np.linspace(lo, hi, scan_points)
    gam = decay_and_shift(env, ts)[0]
    crossings = np.nonzero((gam[:-1] > 0) & (gam[1:] <= 0))[0]
    if len(crossings) == 0:
        raise RootNotFoundError(
            f"decay rate has no + -> - zero crossing in ({lo}, {hi})")
    i = crossings[0]
    return _bisect(lambda t: decay_and_shift(env, t)[0], ts[i], ts[i + 1])


def find_gamma_negmax(env: LorentzianEnvironment, t_start: float,
                      t_max: float = None, scan_points: int = 4001) -> float:
    """First local minimizer of Gamma0 after t_start (the negative maximum).

    Located by the analytic derivative's - to + sign change, bisected to
    1e-10; requires Gamma0 < 0 at the extremum.
    """
    if t_max is None:
        im_d = abs(np.imag(env._d))
        t_max = t_start + (4.0 * np.pi / im_d if im_d > 1e-9 else 30.0 / env.gamma0)
    ts = np.linspace(t_start + 1e-9, t_max, scan_points)
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
                                bracket: tuple[float, float] = (-2.0, 2.0),
                                tol: float = 1e-8) -> float:
    """Drive detuning Delta such that s0 vanishes at the decay-rate zero t_i.

    Bisection over Delta of F(Delta) = s0(t_i; Delta).  The decay rate
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
        return decay_and_shift(env.replace_drive_detuning(delta_drive), t_i)[1]

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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fmid = f_of(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
