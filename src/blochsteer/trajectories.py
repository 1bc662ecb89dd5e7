"""Designed Bloch trajectories for tracking and population-inversion tasks.

Three constructions: instantaneous steady-state tracking (the state follows
the null vector of the frozen reference generator), a pure-state inversion
ansatz in spherical coordinates, and a mixed-state piecewise-cubic inversion
path satisfying a knot table of values and derivatives exactly (a cubic
Hermite spline in numpy, ``_cubic``, evaluated with its derivative by
Horner's rule).  A
controllability report summarizes whether a solved schedule is physically
realizable (nonnegative excitation number, bounded fields).

Every closed form here works on time arrays: a trajectory's evaluator maps
n sample times to (r, rdot) of shape (n, 3) in one call, and
``reference_ramp``, ``reference_ramp_rate`` and ``steady_state_bloch`` are
elementwise in t (a scalar t gives a scalar or a length-3 vector).
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._cubic import cubic_derivative, cubic_value, hermite_coefficients, pieces
from .controls import ControlSchedule
from .environment import (LorentzianEnvironment, decay_and_shift,
                          decay_shift_derivatives, propagator_u)
from .errors import (DegenerateSteadyStateError, InfeasibleTrajectoryError,
                     InvalidInputError, PropagatorZeroError)

__all__ = [
    "TrajectorySpec",
    "ControllabilityReport",
    "BOUNDARY_TABLE",
    "reference_ramp",
    "reference_ramp_rate",
    "steady_state_bloch",
    "tracking_trajectory",
    "pure_inversion_trajectory",
    "pure_inversion",
    "mixed_inversion_trajectory",
    "controllability_check",
]

# Rounds of knot insertion and slope scaling before a mixed path is infeasible
_MAX_REMEDIATION = 20


@dataclass(frozen=True)
class TrajectorySpec:
    """A designed path t -> (r(t), rdot(t)) on [0, t_final].

    ``_evaluator`` maps a 1-D array of n times to (r, rdot), each of shape
    (n, 3); ``sample`` is one call of it and ``evaluate`` its one-sample case.
    """

    kind: str
    t_final: float
    _evaluator: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    knots: tuple = ()

    def evaluate(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        r, rdot = self._evaluator(np.array([float(t)]))
        return r[0], rdot[0]

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._evaluator(np.asarray(times, dtype=float))

    def max_norm(self) -> float:
        """Largest |r| over 1000 equally spaced times."""
        ts = np.linspace(0.0, self.t_final, 1000)
        r, _ = self.sample(ts)
        return float(np.max(np.linalg.norm(r, axis=1)))


def _check_window(t, t_final: float):
    """Raise naming the first time outside [0, t_final] (NaN included)."""
    t = np.atleast_1d(t)
    outside = ~((0.0 <= t) & (t <= t_final))
    if outside.any():
        raise InvalidInputError(f"time {float(t[np.argmax(outside)])} outside [0, {t_final}]")


def reference_ramp(omega_c: float, t_final: float, t):
    """Smooth ramp 6 Oc (t/t_f)^2 (1/2 - t/(3 t_f)): 0 at t=0, Oc at t=t_f,
    zero slope at both ends."""
    _check_window(t, t_final)
    s = t / t_final
    return 6.0 * omega_c * s * s * (0.5 - s / 3.0)


def reference_ramp_rate(omega_c: float, t_final: float, t):
    _check_window(t, t_final)
    s = t / t_final
    return 6.0 * omega_c * s * (1.0 - s) / t_final


def _degenerate(z, t):
    """Raise naming the first time at which the steady-state normalizer z vanishes."""
    zero = np.atleast_1d(z == 0.0)
    if zero.any():
        t_bad = float(np.atleast_1d(t)[np.argmax(zero)])
        raise DegenerateSteadyStateError(
            f"steady state undefined at t = {t_bad:g}: decay rate, Lamb shift and drive "
            "all vanish")


def _thermal_factor(n0: float) -> np.float64:
    """2 n0 + 1 as a numpy float, so that its square overflows to inf (caught
    downstream as a non-finite field) instead of raising OverflowError."""
    return np.float64(2.0 * n0 + 1.0)


def steady_state_bloch(env: LorentzianEnvironment, n0: float, omega0, t) -> np.ndarray:
    """Instantaneous steady state of the reference generator at time t.

    At zero drive this is the thermal state (0, 0, -1/(2 n0 + 1)); in
    general it is the null vector of the frozen reference Liouvillian
    (checked against the Kronecker form in the test suite).  ``omega0`` and
    ``t`` may be arrays of n samples; the result then has shape (n, 3).
    """
    g, s0 = decay_and_shift(env, t)
    npr = _thermal_factor(n0)
    ss = s0 ** 2 + npr ** 2 * g ** 2
    z = npr * (ss + 2.0 * omega0 ** 2)
    _degenerate(z, t)
    return np.stack([-2.0 * omega0 * s0 / z, 2.0 * npr * omega0 * g / z, -ss / z], axis=-1)


def tracking_trajectory(env: LorentzianEnvironment, n0: float, omega_c: float,
                        t_final: float) -> TrajectorySpec:
    """Steady-state path under the reference ramp, with analytic derivative.

    Raises
    ------
    PropagatorZeroError
        If u(t) becomes numerically zero inside the window.
    """
    probe = np.abs(propagator_u(env, np.linspace(0.0, t_final, 2001)))
    if np.min(probe) < 1e-10:
        raise PropagatorZeroError(
            f"propagator vanishes inside [0, {t_final}]; steady state undefined there")
    npr = _thermal_factor(n0)

    def evaluator(t: np.ndarray):
        _check_window(t, t_final)
        g, s0, gd, sd = decay_shift_derivatives(env, t)
        w = reference_ramp(omega_c, t_final, t)
        wd = reference_ramp_rate(omega_c, t_final, t)
        ss = s0 * s0 + npr ** 2 * g * g
        ss_d = 2.0 * s0 * sd + 2.0 * npr ** 2 * g * gd
        z = npr * (ss + 2.0 * w * w)
        _degenerate(z, t)
        zd = npr * (ss_d + 4.0 * w * wd)
        r = np.stack([-2.0 * w * s0 / z, 2.0 * npr * w * g / z, -ss / z], axis=-1)
        rdot = np.stack([
            -2.0 * (wd * s0 + w * sd) / z + 2.0 * w * s0 * zd / z ** 2,
            2.0 * npr * (wd * g + w * gd) / z - 2.0 * npr * w * g * zd / z ** 2,
            -ss_d / z + ss * zd / z ** 2,
        ], axis=-1)
        return r, rdot

    return TrajectorySpec(kind="track-steady", t_final=float(t_final), _evaluator=evaluator)


def pure_inversion_trajectory(t_final: float, theta_mid: float, t
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm path from (0,0,-1) to (0,0,1) via polynomial polar angles.

    The polar angle runs pi -> 0 as phi = pi (1 - 3 s^2 + 2 s^3) with
    s = t/t_f, crossing the equator exactly at t_f/2 where the azimuthal
    bump theta = 16 theta_mid s^2 (1-s)^2 has zero slope.  For n sample
    times (r, rdot) have shape (n, 3); a scalar t gives length-3 vectors.
    """
    _check_window(t, t_final)
    s = t / t_final
    phi = np.pi * (1.0 - s * s * (3.0 - 2.0 * s))
    phi_d = -6.0 * np.pi * s * (1.0 - s) / t_final
    theta = 16.0 * theta_mid * s * s * (1.0 - s) ** 2
    theta_d = 32.0 * theta_mid * s * (1.0 - s) * (1.0 - 2.0 * s) / t_final
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    sin_p, cos_p = np.sin(phi), np.cos(phi)
    r = np.stack([sin_t * sin_p, cos_t * sin_p, cos_p], axis=-1)
    rdot = np.stack([theta_d * cos_t * sin_p + phi_d * sin_t * cos_p,
                     -theta_d * sin_t * sin_p + phi_d * cos_t * cos_p,
                     -phi_d * sin_p], axis=-1)
    return r, rdot


def pure_inversion(t_final: float, theta_mid: float = np.pi / 4) -> TrajectorySpec:
    return TrajectorySpec(kind="invert-pure", t_final=float(t_final),
                          _evaluator=lambda t: pure_inversion_trajectory(t_final, theta_mid, t))


BOUNDARY_TABLE = {
    # component: ((value, derivative) at t=0, at t=t_i, at t=t_f)
    "r_y": ((0.0, 0.0), (0.12, 0.0), (0.0, 0.0)),
    "r_z": ((-1.0, 0.0), (0.0, 0.4), (1.0, 1.0)),
}
"""Knot table of the mixed inversion path; r_x is identically zero."""


def mixed_inversion_trajectory(t_break: float, t_final: float,
                               boundary: dict = None) -> TrajectorySpec:
    """Piecewise cubic Hermite path through the knot table, r_x == 0.

    The knots are matched exactly.  If the interpolant leaves the Bloch
    ball between knots, the offending original segment is subdivided at
    its midpoint (knot values and slopes read off the current curve) and
    the inserted slope is scaled by 0.9 repeatedly, up to 20 rounds.

    Raises
    ------
    InvalidInputError
        If t_break >= t_final.
    InfeasibleTrajectoryError
        If remediation cannot restore |r| <= 1.
    """
    if not 0.0 < t_break < t_final:
        raise InvalidInputError(f"need 0 < t_break < t_final, got {t_break}, {t_final}")
    boundary = BOUNDARY_TABLE if boundary is None else boundary
    base_times = np.array([0.0, t_break, t_final])
    knots = {}
    for comp in ("r_y", "r_z"):
        vals = np.array([boundary[comp][i][0] for i in range(3)])
        slopes = np.array([boundary[comp][i][1] for i in range(3)])
        knots[comp] = (base_times.copy(), vals, slopes)

    def build():
        splines = {}
        for comp, (ts, vs, ms) in knots.items():
            try:
                splines[comp] = (ts, hermite_coefficients(ts, vs, ms))
            except InvalidInputError as exc:
                raise InfeasibleTrajectoryError(f"{comp} knot table: {exc}") from None
        return splines

    def curve(spline, t, evaluate=cubic_value):
        ts, coefficients = spline
        return evaluate(coefficients, ts, t, pieces(ts, t))

    def max_violation(splines, n=4001):
        ts = np.linspace(0.0, t_final, n)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.sqrt(curve(splines["r_y"], ts) ** 2 + curve(splines["r_z"], ts) ** 2)
        if not np.all(np.isfinite(norm)):
            raise InfeasibleTrajectoryError(
                f"trajectory norm is not finite at t = {ts[np.argmin(np.isfinite(norm))]:.6g}")
        i = int(np.argmax(norm))
        return float(norm[i]) - 1.0, float(ts[i])

    inserted_times: list[float] = []
    splines = build()
    for _ in range(_MAX_REMEDIATION):
        excess, t_bad = max_violation(splines)
        if excess <= 1e-12:
            break
        # subdivide the offending knot interval once (knot read off the
        # current curve, so the path is unchanged until its slope is scaled)
        ts_z = knots["r_z"][0]
        seg = min(max(int(np.searchsorted(ts_z, t_bad, side="right")) - 1, 0),
                  len(ts_z) - 2)
        if ts_z[seg] not in inserted_times and ts_z[seg + 1] not in inserted_times:
            t_new = 0.5 * (ts_z[seg] + ts_z[seg + 1])
            inserted_times.append(t_new)
            for comp in knots:
                ts, vs, ms = knots[comp]
                j = int(np.searchsorted(ts, t_new))
                at = np.array([t_new])
                knots[comp] = (np.insert(ts, j, t_new),
                               np.insert(vs, j, curve(splines[comp], at)),
                               np.insert(ms, j, curve(splines[comp], at, cubic_derivative)))
        for comp in knots:
            ts, vs, ms = knots[comp]
            ms = ms.copy()
            for t_new in inserted_times:
                ms[int(np.searchsorted(ts, t_new))] *= 0.9
            knots[comp] = (ts, vs, ms)
        splines = build()
    else:
        excess, t_bad = max_violation(splines)
        raise InfeasibleTrajectoryError(
            f"trajectory norm exceeds 1 by {excess:.3e} at t = {t_bad:.4f} "
            f"after {_MAX_REMEDIATION} remediation rounds")

    ry, rz = splines["r_y"], splines["r_z"]

    def evaluator(t: np.ndarray):
        _check_window(t, t_final)
        zero = np.zeros_like(t)
        return (np.stack([zero, curve(ry, t), curve(rz, t)], axis=-1),
                np.stack([zero, curve(ry, t, cubic_derivative),
                          curve(rz, t, cubic_derivative)], axis=-1))

    knot_tuple = tuple((c, tuple(knots[c][0]), tuple(knots[c][1]), tuple(knots[c][2]))
                       for c in ("r_y", "r_z"))
    return TrajectorySpec(kind="invert-mixed", t_final=float(t_final),
                          _evaluator=evaluator, knots=knot_tuple)


@dataclass(frozen=True)
class ControllabilityReport:
    """Physical realizability summary of a solved control schedule."""

    min_excitation: float
    t_min_excitation: float
    excitation_sign_changes: tuple[float, ...]
    max_omega_x: float
    max_second_field: float
    excitation_nonnegative: bool
    fields_bounded: bool

    @property
    def dynamically_controllable(self) -> bool:
        return self.excitation_nonnegative and self.fields_bounded


def controllability_check(schedule: ControlSchedule) -> ControllabilityReport:
    """Report min excitation number, sign changes and field bounds.

    Never raises on physical grounds; the flags carry the verdict.
    """
    n = schedule.excitation
    ts = schedule.times
    i_min = int(np.argmin(n))
    signs = np.sign(n)
    flips = np.nonzero(np.diff(signs) != 0)[0]
    second = schedule.omega_y if schedule.omega_y is not None else schedule.detuning_r
    finite = bool(np.all(np.isfinite(schedule.omega_x)) and np.all(np.isfinite(n))
                  and (second is None or np.all(np.isfinite(second))))
    return ControllabilityReport(
        min_excitation=float(n[i_min]),
        t_min_excitation=float(ts[i_min]),
        excitation_sign_changes=tuple(float(ts[j]) for j in flips),
        max_omega_x=float(np.max(np.abs(schedule.omega_x))),
        max_second_field=float(np.max(np.abs(second))) if second is not None else 0.0,
        excitation_nonnegative=bool(n[i_min] >= -1e-9),
        fields_bounded=finite,
    )
