"""Designed Bloch trajectories for tracking and population-inversion tasks.

Three constructions: instantaneous steady-state tracking (the state follows
the null vector of the frozen reference generator under the reference ramp),
a pure-state inversion ansatz in spherical coordinates, and a mixed-state
piecewise-cubic inversion path satisfying a knot table of values and
derivatives exactly (a cubic Hermite spline in numpy, ``_cubic``, evaluated
with its derivative by Horner's rule).  The tracking path is also what
tracking's reference protocol, the bare ramp ``reference_ramp`` with no
omega_y and N = n0, is checked against.

Every closed form here works on time arrays: a trajectory's evaluator maps
n sample times to (r, rdot) of shape (n, 3) in one call, and
``reference_ramp`` and ``reference_ramp_rate`` are elementwise in t.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._cubic import _offsets, cubic_derivative, cubic_value, hermite_coefficients, pieces
from .environment import LorentzianEnvironment, decay_shift_derivatives
from .errors import InfeasibleTrajectoryError, InvalidInputError

__all__ = [
    "TrajectorySpec",
    "BOUNDARY_TABLE",
    "reference_ramp",
    "reference_ramp_rate",
    "tracking_trajectory",
    "pure_inversion",
    "mixed_inversion_trajectory",
]

# Rounds of knot insertion and slope scaling before a mixed path is infeasible
_MAX_REMEDIATION = 20


@dataclass(frozen=True)
class TrajectorySpec:
    """A designed path t -> (r(t), rdot(t)) on [0, t_final].

    ``_evaluator`` maps a 1-D array of n times to (r, rdot), each of shape
    (n, 3); ``sample`` is one call of it and ``evaluate`` its one-sample case.
    """

    t_final: float
    _evaluator: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    knots: tuple = ()

    def evaluate(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        r, rdot = self._evaluator(np.array([float(t)]))
        return r[0], rdot[0]

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._evaluator(np.asarray(times, dtype=float))


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


def tracking_trajectory(env: LorentzianEnvironment, n0: float, omega_c: float,
                        t_final: float) -> TrajectorySpec:
    """Steady-state path under the reference ramp, with analytic derivative.

    r(t) is the null vector of the frozen reference generator (the ramp, no
    omega_y, N = n0) at time t; at zero drive it is the thermal state
    (0, 0, -1/(2 n0 + 1)).  The path is checked where it is sampled.

    Raises
    ------
    PropagatorZeroError
        If u(t) vanishes at a sampled time (from the reservoir closed form).
    InvalidInputError
        If r or rdot is not finite at a sampled time; names the first one.
    """
    # 2 n0 + 1 as a numpy float: its square overflows to inf (named by the
    # check below) instead of raising OverflowError
    npr = np.float64(2.0 * n0 + 1.0)

    def evaluator(t: np.ndarray):
        _check_window(t, t_final)
        g, s0, gd, sd = decay_shift_derivatives(env, t)
        # an overflowing path, or one with 2 n0 + 1 = 0, gives inf or nan; the
        # check below names it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = reference_ramp(omega_c, t_final, t)
            wd = reference_ramp_rate(omega_c, t_final, t)
            # r = (-2 w s0, 2 npr w G, -ss) / z with ss = s0^2 + npr^2 G^2 and
            # z = npr (ss + 2 w^2).  z vanishes only where the drive and both
            # rates do; r there is its zero-drive limit, the thermal state
            # (0, 0, -1 / npr), and z is taken as 1
            ss = s0 * s0 + npr ** 2 * g * g
            z = npr * (ss + 2.0 * w * w)
            zero = z == 0.0
            z = np.where(zero, 1.0, z)
            r = np.stack([-2.0 * w * s0 / z, 2.0 * npr * w * g / z,
                          np.where(zero, -1.0 / npr, -ss / z)], axis=-1)
            ss_d = 2.0 * s0 * sd + 2.0 * npr ** 2 * g * gd
            zd = npr * (ss_d + 4.0 * w * wd)
            rdot = np.stack([
                -2.0 * (wd * s0 + w * sd) / z + 2.0 * w * s0 * zd / z ** 2,
                2.0 * npr * (wd * g + w * gd) / z - 2.0 * npr * w * g * zd / z ** 2,
                -ss_d / z + ss * zd / z ** 2,
            ], axis=-1)
            # t = 0 at zero drive detuning: the limit t -> 0+, where
            # w ~ 3 Oc t^2 / t_f^2 and G ~ G'(0) t give r_y ~ 2 w / (npr^2 G);
            # t_f^2 as a numpy float, which overflows to inf, not OverflowError
            rdot[zero, 1] = 6.0 * omega_c / (np.float64(t_final) ** 2 * npr ** 2 * gd[zero])
        finite = np.isfinite(r).all(axis=-1) & np.isfinite(rdot).all(axis=-1)
        if not finite.all():
            raise InvalidInputError(
                f"steady-state path is not finite at t = {t[np.argmin(finite)]:.6g}")
        return r, rdot

    return TrajectorySpec(t_final=float(t_final), _evaluator=evaluator)


def pure_inversion(t_final: float, theta_mid: float = np.pi / 4) -> TrajectorySpec:
    """Unit-norm path from (0,0,-1) to (0,0,1) via polynomial polar angles.

    The polar angle runs pi -> 0 as phi = pi (1 - 3 s^2 + 2 s^3) with
    s = t/t_f, crossing the equator exactly at t_f/2 where the azimuthal
    bump theta = 16 theta_mid s^2 (1-s)^2 has zero slope.
    """
    def evaluator(t: np.ndarray):
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

    return TrajectorySpec(t_final=float(t_final), _evaluator=evaluator)


BOUNDARY_TABLE = {
    # component: ((value, derivative) at t=0, at t=t_i, at t=t_f)
    "r_y": ((0.0, 0.0), (0.12, 0.0), (0.0, 0.0)),
    "r_z": ((-1.0, 0.0), (0.0, 0.4), (1.0, 1.0)),
}
"""Knot table of the mixed inversion path; r_x is identically zero."""


def mixed_inversion_trajectory(t_break: float, t_final: float) -> TrajectorySpec:
    """Piecewise cubic Hermite path through ``BOUNDARY_TABLE``, r_x == 0.

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
    comps = ("r_y", "r_z")
    # both components share the knot times; values and slopes have shape (2, knots)
    ts = np.array([0.0, t_break, t_final])
    table = np.array([BOUNDARY_TABLE[comp] for comp in comps], dtype=float)
    vs, ms = table[..., 0], table[..., 1]

    def build(ts, vs, ms):
        coefficients = []
        for comp, v, m in zip(comps, vs, ms):
            try:
                coefficients.append(hermite_coefficients(ts, v, m))
            except InvalidInputError as exc:
                raise InfeasibleTrajectoryError(f"{comp} knot table: {exc}") from None
        return coefficients

    def curves(coefficients, ts, t, *evaluators):
        """Both components at times t, shape (2, len(t)), for each evaluator;
        each sample's piece and offset are found once."""
        i = pieces(ts, t)
        s = _offsets(ts, t, i)
        return [np.array([evaluate(c, s, i) for c in coefficients])
                for evaluate in evaluators]

    def max_violation(coefficients, ts):
        grid = np.linspace(0.0, t_final, 4001)
        with np.errstate(over="ignore", invalid="ignore"):
            (ry, rz), = curves(coefficients, ts, grid, cubic_value)
            norm = np.sqrt(ry ** 2 + rz ** 2)
        if not np.all(np.isfinite(norm)):
            raise InfeasibleTrajectoryError(
                f"trajectory norm is not finite at t = {grid[np.argmin(np.isfinite(norm))]:.6g}")
        i = int(np.argmax(norm))
        return float(norm[i]) - 1.0, float(grid[i])

    inserted_times: list[float] = []
    coefficients = build(ts, vs, ms)
    for _ in range(_MAX_REMEDIATION):
        excess, t_bad = max_violation(coefficients, ts)
        if excess <= 1e-12:
            break
        # subdivide the offending knot interval once (knot read off the
        # current curve, so the path is unchanged until its slope is scaled)
        seg = int(pieces(ts, t_bad))
        if ts[seg] not in inserted_times and ts[seg + 1] not in inserted_times:
            t_new = 0.5 * (ts[seg] + ts[seg + 1])
            inserted_times.append(t_new)
            j = int(np.searchsorted(ts, t_new))
            value, slope = curves(coefficients, ts, np.array([t_new]), cubic_value,
                                  cubic_derivative)
            vs = np.insert(vs, j, value[:, 0], axis=1)
            ms = np.insert(ms, j, slope[:, 0], axis=1)
            ts = np.insert(ts, j, t_new)
        for t_new in inserted_times:
            ms[:, int(np.searchsorted(ts, t_new))] *= 0.9
        coefficients = build(ts, vs, ms)
    else:
        excess, t_bad = max_violation(coefficients, ts)
        raise InfeasibleTrajectoryError(
            f"trajectory norm exceeds 1 by {excess:.3e} at t = {t_bad:.4f} "
            f"after {_MAX_REMEDIATION} remediation rounds")

    def evaluator(t: np.ndarray):
        _check_window(t, t_final)
        zero = np.zeros_like(t)
        (ry, rz), (ry_d, rz_d) = curves(coefficients, ts, t, cubic_value, cubic_derivative)
        return np.stack([zero, ry, rz], axis=-1), np.stack([zero, ry_d, rz_d], axis=-1)

    knot_tuple = tuple((comp, tuple(ts), tuple(v), tuple(m)) for comp, v, m in zip(comps, vs, ms))
    return TrajectorySpec(t_final=float(t_final), _evaluator=evaluator, knots=knot_tuple)
