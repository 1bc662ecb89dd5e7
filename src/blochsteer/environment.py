"""Exactly solvable two-level Lorentzian reservoir.

Closed forms for the propagator u(t), the time-dependent decay rate
Gamma0(t) = -Re[udot/u] and the Lamb shift s0(t) = -Im[udot/u], plus the
three searches the inversion protocols need, which share one bisection: the
decay-rate zero and the first negative maximum bisect the first rise of one
sign-change scan (of -Gamma0 and of dGamma0/dt), and the detuning that
makes s0 vanish at the zero t_i bisects the line s0 = Delta + Im v(t_i).  The
closed forms follow numpy's shape rules: an array of times gives arrays of
its shape, one time gives numpy scalars.  Each closed-form value is
evaluated once per point, in real arithmetic: cosh z and sinh z, z = d t / 2,
come from the real cosh and sinh of Re z and the cos and sin of Im z, which
numpy runs in SIMD loops where its complex functions run one element at a
time, and |u| = e^{-lam t / 2} |g| from the real exp.  Gamma0 and s0 share
that evaluation; the series of sinh(z)/z runs only on the entries that need
it.  Long grids are evaluated in blocks of ``_SCAN_POINTS`` points, so a
table holds one block's temporaries at a time, and one time gives the bits
of its entry in an array.  A run's fine-grid table of
Gamma0 and s0 is evaluated once and checked for a zero of u between nodes,
and tracking's two runs, the controlled one and the reference protocol,
share that table (``simulator.reservoir_table``).  The drive
renormalization and its inverse are ODEs and live with the RK4 core in
``simulator``.

Conventions: the coupling gamma0 is the frequency unit (gamma0 = 1, so it
appears in no formula); delta = omega0 - omega_c is the cavity detuning,
Delta = omega0 - omega_L the drive detuning.  The memory kernel is
f(tau) = (lam / 2) exp(-(lam + i Delta - i delta) tau),
and u solves  udot + i Delta u + int_0^t f(t-s) u(s) ds = 0,  u(0) = 1.
The closed form is

    u(t) = e^{-(lam + 2i Delta - i delta) t / 2}
           [cosh(d t / 2) + (lam - i delta) / d * sinh(d t / 2)],
    d = sqrt((lam - i delta)^2 - 2 lam),

which is branch-insensitive (cosh is even and sinh(x)/x is even in d).
"""

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, PropagatorZeroError, RootNotFoundError

__all__ = [
    "LorentzianEnvironment",
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

    def __post_init__(self):
        if not self.lam > 0:
            raise InvalidInputError(f"need lam > 0, got lam={self.lam}")
        self._d   # raises before any closed form runs on parameters it cannot represent

    # derived constants of the closed form
    @property
    def _d(self) -> complex:
        """d of the closed form; raises ``InvalidInputError`` when it overflows."""
        z = self.lam - 1j * self.cavity_detuning
        d2 = z * z - 2.0 * self.lam   # Python complex: inf, not an error
        if not cmath.isfinite(d2):
            raise InvalidInputError(
                f"reservoir constant d = sqrt((lam - i delta)^2 - 2 lam) is not finite "
                f"for lam = {self.lam}, cavity_detuning = {self.cavity_detuning}")
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
    """(sinh(z)/z, cosh z) for complex z, from the real cosh and sinh of Re z
    and the cos and sin of Im z: numpy runs those real functions in SIMD loops
    and its complex sinh, cosh and exp one element at a time.  sinh(z)/z is
    stable near z = 0 (even in z): the series 1 + z^2/6 + z^4/120 replaces the
    quotient on the entries with |z| < 1e-4 only."""
    z = np.asarray(z, dtype=complex)
    ch, sh = np.cosh(z.real), np.sinh(z.real)
    c, s = np.cos(z.imag), np.sin(z.imag)
    cosh_z, sinh_z = np.empty_like(z), np.empty_like(z)
    np.multiply(ch, c, out=cosh_z.real)
    np.multiply(sh, s, out=cosh_z.imag)
    np.multiply(sh, c, out=sinh_z.real)
    np.multiply(ch, s, out=sinh_z.imag)
    small = np.abs(z) < 1e-4
    sinh_z /= np.where(small, 1.0, z)
    zs = z[small]
    sinh_z[small] = 1.0 + zs * zs / 6.0 + zs ** 4 / 120.0
    return sinh_z[()], cosh_z[()]


def _cosh_g(env: LorentzianEnvironment, t):
    """(g, s): g(t) = cosh(dt/2) + (lam - i delta) (t/2) s with s = sinhc(dt/2);
    u = e^{-kappa t} g.  ``_log_derivative`` reuses s."""
    t = np.asarray(t, dtype=float)
    half = 0.5 * t
    s, cosh_z = _sinhc(env._d * half)
    return cosh_z + (env.lam - 1j * env.cavity_detuning) * half * s, s


def propagator_u(env: LorentzianEnvironment, t):
    """Closed-form propagator u(t), u(0) = 1."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidInputError("propagator defined for t >= 0")
    return np.exp(-env._envelope_rate * t) * _cosh_g(env, t)[0]


def _log_derivative(env: LorentzianEnvironment, t):
    """q(t) = udot/u = -i Delta - v(t), v = lam (t/2) sinhc(dt/2) / g(t).

    Exact at t = 0 (q = -i Delta), so Gamma0(0) = 0 and s0(0) = Delta hold to
    machine precision.

    Raises
    ------
    PropagatorZeroError
        If |u| < 1e-12 at some t; the message names the t of the smallest |u|.
        A zero between samples is not seen here: ``_check_zero_between``
        looks for one on a sampling grid.
    InvalidInputError
        If the decay rate, Lamb shift or |u| overflows; names the first such t.
    """
    t = np.asarray(t, dtype=float)
    # an overflowing closed form gives inf or nan; the checks below name it
    with np.errstate(over="ignore", invalid="ignore"):
        g, s = _cosh_g(env, t)
        u_abs = _u_abs(env, t, g)
        if (u_abs < _PROPAGATOR_ZERO_TOL).any():
            t_bad = np.atleast_1d(t)[np.nanargmin(u_abs)]
            raise PropagatorZeroError(
                f"propagator magnitude < {_PROPAGATOR_ZERO_TOL} at t = {t_bad}")
        v = env.lam * (0.5 * t) * s / g
        q = -1j * env.drive_detuning - v
    if not (np.isfinite(q).all() and np.isfinite(u_abs).all()):
        raise _not_finite(t, q, u_abs)
    return q, v


def _blockwise(rates, env: LorentzianEnvironment, t, n: int):
    """The n real arrays of ``rates(env, block, out)`` over t, which writes
    them into the rows of ``out``, evaluated in blocks of ``_SCAN_POINTS``
    points (a root-finding scan is one block): a long grid holds the closed
    form's temporaries of one block at a time.  Returns n arrays of t's
    shape, numpy scalars for one time.  An error is raised by the first block
    that holds a bad t.
    """
    t = np.asarray(t, dtype=float)
    flat, out = t.reshape(-1), np.empty((n, t.size))
    for start in range(0, t.size, _SCAN_POINTS):
        block = slice(start, start + _SCAN_POINTS)
        rates(env, flat[block], out[:, block])
    return tuple(out.reshape(n, *t.shape))


def _u_abs(env: LorentzianEnvironment, t, g):
    """|u| = e^{-lam t / 2} |g| from g = _cosh_g(env, t)[0], by the real exp.

    The exponent is the real part of the complex product -kappa t, so that an
    overflowing kappa leaves |u| without a value, as it leaves u.
    """
    u_abs = np.exp(-(env._envelope_rate * t).real)
    u_abs *= np.abs(g)
    return u_abs


def _phase_free(env: LorentzianEnvironment, t, g):
    """w = e^{i Delta t} u from g = _cosh_g(env, t)[0]: |w| = |u|, without the drive's phase.

    The rate is written kappa - i Delta (= (lam - i delta) / 2) so that an
    overflowing kappa still makes |w| non-finite.
    """
    return np.exp(-(env._envelope_rate - 1j * env.drive_detuning) * t) * g


def _check_zero_between(env: LorentzianEnvironment, t: np.ndarray, gam: np.ndarray,
                        shift: np.ndarray) -> None:
    """Raise ``PropagatorZeroError`` if u has a zero between two samples of the grid t.

    ``gam`` and ``shift`` are the rates on t.  Near a simple zero t0 of u,
    |w'/w| = |Gamma0 + i (s0 - Delta)| is 1/|t - t0| for w = e^{i Delta t} u, so
    an interval holding t0 has (|w'/w|_k + |w'/w|_{k+1}) (t_{k+1} - t_k) >= 4.
    Each interval past 1 is halved on the closed form of w, evaluated at the
    ends once and then at the midpoints only, keeping a half
    across which w turns by more than 90 degrees (Re w_b conj(w_a) < 0, as it
    does across a zero).  A zero is named where |w| < 1e-12 at a midpoint or
    the turn survives down to adjacent floats; any other turn resolves, so the
    verdict does not depend on the spacing of t.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rate = np.hypot(gam, shift - env.drive_detuning)
        k = np.flatnonzero((rate[1:] + rate[:-1]) * np.diff(t) > 1.0)
        live, a, b = np.arange(len(k)), t[k], t[k + 1]
        wa, wb = (_phase_free(env, x, _cosh_g(env, x)[0]) for x in (a, b))
        zero_at = np.full(len(k), np.nan)
        while len(live):
            m = 0.5 * (a + b)
            wm = _phase_free(env, m, _cosh_g(env, m)[0])
            left = (wm * wa.conj()).real < 0
            turn = left | ((wb * wm.conj()).real < 0)
            found = (np.abs(wm) < _PROPAGATOR_ZERO_TOL) | (turn & ((m == a) | (m == b)))
            zero_at[live[found]] = m[found]
            keep = turn & ~found
            live, a, b = live[keep], np.where(left, a, m)[keep], np.where(left, m, b)[keep]
            wa, wb = np.where(left, wa, wm)[keep], np.where(left, wm, wb)[keep]
    if not np.isnan(zero_at).all():
        i = int(np.nanargmin(zero_at))
        raise PropagatorZeroError(
            f"propagator has a zero at t = {zero_at[i]:.10g}, between the grid samples "
            f"t = {t[k[i]]:.6g} and t = {t[k[i] + 1]:.6g}")


def _not_finite(t, q, u_abs) -> InvalidInputError:
    """The error naming the first time at which a rate or |u| is not finite."""
    bad = ~np.isfinite(np.reshape([q.real, q.imag, u_abs], (3, -1)))
    i = int(np.argmax(bad.any(axis=0)))
    name = ("decay_rate", "lamb_shift", "propagator magnitude")[int(np.argmax(bad[:, i]))]
    return InvalidInputError(f"{name} is not finite at t = {np.ravel(t)[i]:.6g}")


def _rates(env: LorentzianEnvironment, t, out) -> None:
    q, _ = _log_derivative(env, t)
    np.negative(q.real, out=out[0])
    np.negative(q.imag, out=out[1])


def _rates_and_derivatives(env: LorentzianEnvironment, t, out) -> None:
    """Uses qdot = -f(0) + v (mu + q) with mu the kernel decay rate and v the
    memory-integral ratio, avoiding finite differences."""
    q, v = _log_derivative(env, t)
    qdot = -0.5 * env.lam + v * (env._memory_rate + q)
    for row, part in zip(out, (q.real, q.imag, qdot.real, qdot.imag)):
        np.negative(part, out=row)


def decay_and_shift(env: LorentzianEnvironment, t):
    """(Gamma0, s0) = (-Re, -Im) of the analytic log-derivative of u."""
    return _blockwise(_rates, env, t, 2)


def decay_shift_derivatives(env: LorentzianEnvironment, t):
    """(Gamma0, s0, dGamma0/dt, ds0/dt), all from closed forms."""
    return _blockwise(_rates_and_derivatives, env, t, 4)


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


def _first_rise(values: np.ndarray, what: str) -> int:
    """Index of the first i with values[i] < 0 <= values[i + 1], the scan
    interval a time search bisects; ``RootNotFoundError`` "decay rate has no
    {what}" if there is none.  NaN rises nowhere."""
    rises = np.flatnonzero((values[:-1] < 0) & (values[1:] >= 0))
    if len(rises) == 0:
        raise RootNotFoundError(f"decay rate has no {what}")
    return rises[0]


def find_gamma_zero(env: LorentzianEnvironment) -> float:
    """First root of Gamma0 in (1e-9, 30) with a + to - sign change, to 1e-10 in time.

    Raises
    ------
    RootNotFoundError
        If Gamma0 does not change sign from + to - in that interval.
    PropagatorZeroError
        If the first crossing is a pole of Gamma0 at a zero of u, not a zero
        of Gamma0 (at zero cavity detuning u is real up to the drive's phase);
        the message names the t of the zero.
    """
    lo, hi = 1e-9, 30.0
    ts = np.linspace(lo, hi, _SCAN_POINTS)
    gam, shift = decay_and_shift(env, ts)
    i = _first_rise(-gam, f"+ -> - zero crossing in ({lo}, {hi})")
    _check_zero_between(env, ts[i:i + 2], gam[i:i + 2], shift[i:i + 2])
    return _bisect(lambda t: decay_and_shift(env, t)[0], ts[i], ts[i + 1])


def find_gamma_negmax(env: LorentzianEnvironment, t_start: float) -> float:
    """First local minimizer of Gamma0 after t_start (the negative maximum).

    Located by the analytic derivative's - to + sign change, bisected to
    1e-10; requires Gamma0 < 0 at the extremum.  The scan covers
    (t_start, t_start + 4 pi / |Im d|], or 30 past t_start where d is real;
    a window too narrow to resolve next to t_start raises ``RootNotFoundError``.
    """
    im_d = abs(np.imag(env._d))
    width = 4.0 * np.pi / im_d if im_d > 1e-9 else 30.0
    t_max = t_start + width
    ts = np.linspace(t_start + 1e-9, t_max, _SCAN_POINTS)
    dgam = decay_shift_derivatives(env, ts)[2]
    if not np.all(np.diff(ts) > 0):
        raise RootNotFoundError(
            f"decay rate has no interior minimum in ({t_start}, {t_max}): the scan "
            f"window {width:.6g} past t_start vanishes in floating point")
    i = _first_rise(dgam, f"interior minimum in ({t_start}, {t_max})")
    t_min = _bisect(lambda t: decay_shift_derivatives(env, t)[2], ts[i], ts[i + 1])
    if decay_and_shift(env, t_min)[0] >= 0:
        raise RootNotFoundError(
            f"first minimum of the decay rate at t = {t_min} is not negative")
    return t_min


def tune_detuning_for_lamb_zero(env: LorentzianEnvironment, t_i: float) -> float:
    """Drive detuning Delta in [-2, 2] such that s0 vanishes at the decay-rate zero t_i.

    The decay rate Gamma0 = Re v does not depend on Delta, even in floating
    point, so the caller finds t_i once (``find_gamma_zero``) for every
    Delta.  Nor does v itself: s0 = -Im(-i Delta - v) rounds as Delta + Im v,
    a line in Delta with its root at -Im v(t_i).  The root is the bisection
    of that line over [-2, 2], to 1e-8.

    Raises
    ------
    RootNotFoundError
        If -Im v(t_i) lies outside [-2, 2].
    """
    im_v = decay_and_shift(replace(env, drive_detuning=0.0), t_i)[1]
    if not -2.0 <= -im_v <= 2.0:
        raise RootNotFoundError(
            f"Lamb shift at the decay zero t = {t_i} has no sign change for Delta "
            "in [-2.0, 2.0]")
    return _bisect(lambda delta: delta + im_v, -2.0, 2.0, tol=1e-8)
