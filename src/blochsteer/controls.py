"""Reverse engineering of control schedules from designed Bloch trajectories.

Given (r(t), rdot(t)) the two-level closed forms solve the Bloch equations

    rx' =  2 Oy rz - s0 ry - (2N+1) G rx
    ry' =  s0 rx - 2 Ox rz - (2N+1) G ry
    rz' =  2 Ox ry - 2 Oy rx - 2 G ((2N+1) rz + 1)

for (Ox, Oy, N) given the reservoir rate G = Gamma0(t) and Lamb shift s0(t).
The generic path assembles the same linear system for any SU(N) setup, each
column the component-form generator of ``liouvillian.assemble_components``
applied to r, and solves it densely; closed forms and generic solve
cross-check each other; it takes stacks like the Liouvillian builders.

The closed forms follow numpy's shape rules: one sample gives three numpy
floats, a stack of n samples (r, rdot of shape (n, 3), rates of shape (n,))
three arrays, through the same expressions.  ``schedule_from_trajectory``
samples the trajectory and the reservoir once over the whole grid and
solves all regular samples in one call; the few samples on the singular
locus take the mean of their probes, all solved in one more call.

A ``ControlSchedule`` interpolates its fields with the not-a-knot cubic
spline in numpy (``_cubic``): one tridiagonal slope solve for all fields,
then Horner's rule on the piece each time falls in, found by index
arithmetic on the uniform sample grid.  ``controllability_check`` reports
whether a solved schedule is physically realizable (nonnegative excitation
number).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._cubic import (_offsets, cubic_value, hermite_coefficients, not_a_knot_slopes,
                     require_uniform, uniform_pieces)
from .environment import LorentzianEnvironment, decay_and_shift
from .errors import InvalidInputError, NoUniqueSolutionError, SingularControlError
from .liouvillian import HamiltonianSpec, LindbladChannel, assemble_components
from .sun_algebra import StructureTensors, _first_in_stack

__all__ = [
    "SIGMA_MINUS_SHAPE",
    "SIGMA_PLUS_SHAPE",
    "SINGULARITY_TOL",
    "FIELDS",
    "ControlSystem",
    "ControlSolution",
    "ControlSchedule",
    "ControllabilityReport",
    "MarkovianReductionReport",
    "two_level_controls",
    "assemble_control_system",
    "solve_controls",
    "markovian_reduction_check",
    "schedule_from_trajectory",
    "controllability_check",
]

SIGMA_MINUS_SHAPE = np.array([0.5, -0.5j, 0.0])
SIGMA_PLUS_SHAPE = np.array([0.5, 0.5j, 0.0])

SINGULARITY_TOL = 1e-8

FIELDS = ("omega_x", "omega_y", "excitation")
"""The fields of a schedule, in column order."""


def _singular_mask(r: np.ndarray, decay_rate) -> np.ndarray:
    """Samples on the singular locus of the closed forms: |r_z| < SINGULARITY_TOL
    (fields) or |G| < SINGULARITY_TOL (excitation number)."""
    return (np.abs(r.T[2]) < SINGULARITY_TOL) | (np.abs(decay_rate) < SINGULARITY_TOL)


def _singular_error(r: np.ndarray, rdot: np.ndarray, decay_rate: float,
                    where: str = "") -> SingularControlError:
    """The error for one sample (r of shape (3,)) on the singular locus."""
    if abs(r[2]) < SINGULARITY_TOL:
        return SingularControlError(
            f"coherent controls singular: |r_z| = {abs(r[2]):.3e} < {SINGULARITY_TOL}{where}")
    g = decay_rate
    back = float(np.dot(r, rdot)) + 2 * g * r[2]
    return SingularControlError(
        f"excitation number singular: decay rate {g:.3e} vanishes "
        f"(r.rdot + 2 G r_z = {back:.3e}){where}")


def two_level_controls(r: np.ndarray, rdot: np.ndarray, decay_rate, lamb_shift):
    """Closed-form (Omega_x^R, Omega_y^R, N) driving the state along (r, rdot).

    Follows numpy's shape rules: one sample (r, rdot of shape (3,), scalar
    rates) gives three numpy floats, a stack (r, rdot of shape (n, 3), rates
    of shape (n,)) three arrays of shape (n,).

    Raises
    ------
    SingularControlError
        If |r_z| < SINGULARITY_TOL (field singularity) or the excitation number has no
        finite value because the decay rate vanishes while r.rdot + 2 G r_z
        does not; for a stack, at the first such sample.
    """
    r, rdot, g, s0 = (np.asarray(x, dtype=float) for x in (r, rdot, decay_rate, lamb_shift))
    singular = _singular_mask(r, g)
    if singular.any():
        i = np.unravel_index(np.argmax(singular), singular.shape)
        raise _singular_error(r[i], rdot[i], np.broadcast_to(g, singular.shape)[i])
    (rx, ry, rz), (rdx, rdy, _) = r.T, rdot.T
    rr = np.vecdot(r, rdot)
    dd = np.vecdot(r, r) + rz * rz
    excitation = -(2.0 * g * rz + rr + g * dd) / (2.0 * g * dd)
    back = rr + 2.0 * g * rz
    omega_x = (dd * (rx * s0 - rdy) + back * ry) / (2.0 * rz * dd)
    omega_y = (dd * (ry * s0 + rdx) - back * rx) / (2.0 * rz * dd)
    return omega_x, omega_y, excitation


# ---------------------------------------------------------------------------
# generic linear system


@dataclass(frozen=True)
class ControlSystem:
    """Linear system  matrix @ x = rhs.

    ``matrix`` has the coherent columns first, one per selected Hamiltonian
    coefficient in ``coherent_indices`` order, then one incoherent column per
    control group (channels sharing a ``control_index`` are summed, each
    weighted by its rate).  Drift terms (fixed Hamiltonian part and channels
    with ``control_index=None``) are already subtracted from ``rhs``.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    coherent_indices: tuple[int, ...]


@dataclass(frozen=True)
class ControlSolution:
    values: np.ndarray
    residual: float | np.ndarray


def assemble_control_system(r: np.ndarray, rdot: np.ndarray,
                            coherent_indices: Sequence[int],
                            channels: Sequence[LindbladChannel],
                            tensors: StructureTensors,
                            drift: HamiltonianSpec | None = None) -> ControlSystem:
    """Assemble the control linear system at one instant, or a stack of them.

    Selected coherent coefficients and channel control multipliers are the
    unknowns; everything else is drift.  Every column is the component-form
    generator ``assemble_components(...).apply(r)``: of the unit Hamiltonian
    of a coherent index, or of a control group's channels; the right-hand side
    is rdot minus the generator of the drift Hamiltonian and the fixed
    channels.  So the residual of a candidate control vector is the residual
    of the component-form master equation by construction.  Stacked states,
    rates and drifts broadcast to a stack of systems.
    """
    r = np.asarray(r, dtype=float)
    rdot = np.asarray(rdot, dtype=float)
    n = tensors.dimension ** 2 - 1
    if r.shape[-1:] != (n,) or rdot.shape[-1:] != (n,):
        raise InvalidInputError(f"state and derivative must have length {n}")
    for k in coherent_indices:
        if not 1 <= k <= n:
            raise InvalidInputError(f"coherent control index {k} outside 1..{n}")
    units = np.eye(n + 1)
    zero = HamiltonianSpec(np.zeros(n + 1))

    def field(hamiltonian, chans):
        return assemble_components(hamiltonian, chans, tensors).apply(r)

    coherent = [field(HamiltonianSpec(units[k]), []) for k in coherent_indices]
    groups = sorted({ch.control_index for ch in channels if ch.control_index is not None})
    incoherent = [field(zero, [ch for ch in channels if ch.control_index == j]) for j in groups]
    fixed = [ch for ch in channels if ch.control_index is None]
    rhs = rdot - field(zero if drift is None else drift, fixed)
    table = np.stack(np.broadcast_arrays(*coherent, *incoherent, rhs), axis=-1)
    return ControlSystem(matrix=table[..., :-1], rhs=table[..., -1],
                         coherent_indices=tuple(coherent_indices))


def solve_controls(system: ControlSystem) -> ControlSolution:
    """Solve the assembled system (a stack of them by one batched SVD) densely.

    Raises
    ------
    InvalidInputError
        On non-finite entries.
    NoUniqueSolutionError
        If the matrix is rank deficient; the message names the deficient
        direction (right-singular vector of the near-zero singular value);
        also if it is inconsistent.  A stack names its first such instance.
    """
    a = system.matrix
    b = system.rhs
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("control system contains non-finite entries")
    if a.shape[-1] == 0:
        return ControlSolution(values=np.zeros(b.shape[:-1] + (0,)),
                               residual=np.linalg.norm(b, axis=-1))
    u, sing, vt = np.linalg.svd(a, full_matrices=False)
    smax = sing[..., 0]
    rank_tol = max(a.shape[-2:]) * np.finfo(float).eps * smax
    deficient = sing[..., -1] <= np.maximum(rank_tol, 1e-13 * smax)
    if deficient.any():
        i, where = _first_in_stack(deficient, "instance")
        raise NoUniqueSolutionError(
            "control system is singular; deficient direction "
            f"{np.array2string(vt[i][-1], precision=6)} over unknowns "
            f"(coherent {system.coherent_indices} + "
            f"{a.shape[-1] - len(system.coherent_indices)} incoherent)"
            f"{where}")
    x = np.einsum("...ji,...j->...i", vt, np.einsum("...ji,...j->...i", u, b) / sing)
    residual = np.linalg.norm(np.einsum("...ij,...j->...i", a, x) - b, axis=-1)
    inconsistent = residual > 1e-8 * np.maximum(1.0, np.linalg.norm(b, axis=-1))
    if inconsistent.any():
        i, where = _first_in_stack(inconsistent, "instance")
        raise NoUniqueSolutionError(
            f"control system is inconsistent: least-squares residual {residual[i]:.3e}; "
            f"the requested trajectory is not reachable with the selected controls{where}")
    return ControlSolution(values=x, residual=residual)


# ---------------------------------------------------------------------------
# Markovian reduction


@dataclass(frozen=True)
class MarkovianReductionReport:
    identity_residual: float
    substitution_residual: float


def markovian_reduction_check(r: np.ndarray, rdot: np.ndarray,
                              gamma0: float) -> MarkovianReductionReport:
    """Check the Markovian-limit identity of the closed-form controls.

    With s0 = 0 and G = gamma0, the solved excitation number satisfies
    2 G r_z + r.rdot = -(2N+1) (r^2 + r_z^2) G, and substituting it reduces
    the fields to Ox = -(ry' + (2N+1) G ry) / (2 rz),
    Oy = (rx' + (2N+1) G rx) / (2 rz).
    """
    omega_x, omega_y, excitation = two_level_controls(r, rdot, gamma0, 0.0)
    rr = float(np.dot(r, rdot))
    dd = float(np.dot(r, r)) + r[2] ** 2
    identity = 2.0 * gamma0 * r[2] + rr + (2.0 * excitation + 1.0) * dd * gamma0
    g_eff = (2.0 * excitation + 1.0) * gamma0
    ox_sub = -(rdot[1] + g_eff * r[1]) / (2.0 * r[2])
    oy_sub = (rdot[0] + g_eff * r[0]) / (2.0 * r[2])
    sub_res = max(abs(ox_sub - omega_x), abs(oy_sub - omega_y))
    return MarkovianReductionReport(identity_residual=abs(identity),
                                    substitution_residual=sub_res)


# ---------------------------------------------------------------------------
# sampled schedules


@dataclass(frozen=True)
class ControlSchedule:
    """Time-sampled controls, interpolated between samples by the not-a-knot
    cubic spline of each field.

    The fields are ``FIELDS``, each sampled on the time grid.  Times must be
    uniformly spaced, so ``value`` finds a sample's piece by index arithmetic.
    """

    times: np.ndarray
    omega_x: np.ndarray
    omega_y: np.ndarray
    excitation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        # non-finite times are left to require_uniform, before any step is taken
        if t.ndim != 1 or (np.isfinite(t).all() and np.any(np.diff(t) <= 0)):
            raise InvalidInputError("schedule times must be strictly increasing")
        require_uniform(t, "schedule times")
        for name in FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != t.shape:
                raise InvalidInputError(f"schedule field {name} must match the time grid")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"schedule field {name} contains non-finite values")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "times", t)

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """Power coefficients (3, 4, n - 1), one block per field in ``FIELDS``
        order; the fields share one slope solve."""
        values = np.array([getattr(self, name) for name in FIELDS])
        return hermite_coefficients(self.times, values, not_a_knot_slopes(self.times, values))

    def value(self, t: np.ndarray, out):
        """All of ``FIELDS`` at the 1-D array of times t, clamped to the
        sampled span, written into ``out``: one contiguous float row of t's
        length per field, in ``FIELDS`` order.  Returns ``out``.

        One clip, one piece lookup and one set of offsets serve the three fields.
        """
        t = np.clip(t, self.times[0], self.times[-1])
        i = uniform_pieces(self.times, t)
        s = _offsets(self.times, t, i)
        for c, row in zip(self._coefficients, out):
            cubic_value(c, s, i, out=row)
        return out


@dataclass(frozen=True)
class ControllabilityReport:
    """Physical realizability summary of a solved control schedule."""

    min_excitation: float
    t_min_excitation: float
    excitation_sign_changes: tuple[float, ...]
    max_omega_x: float
    max_omega_y: float
    excitation_nonnegative: bool


def controllability_check(schedule: ControlSchedule) -> ControllabilityReport:
    """Report min excitation number, its sign changes and the largest fields.

    Never raises on physical grounds; the flag carries the verdict.  The
    fields are finite by construction (``ControlSchedule`` rejects others).
    """
    n = schedule.excitation
    ts = schedule.times
    i_min = int(np.argmin(n))
    signs = np.sign(n)
    flips = np.nonzero(np.diff(signs) != 0)[0]
    return ControllabilityReport(
        min_excitation=float(n[i_min]),
        t_min_excitation=float(ts[i_min]),
        excitation_sign_changes=tuple(float(ts[j]) for j in flips),
        max_omega_x=float(np.max(np.abs(schedule.omega_x))),
        max_omega_y=float(np.max(np.abs(schedule.omega_y))),
        excitation_nonnegative=bool(n[i_min] >= -1e-9),
    )


def schedule_from_trajectory(trajectory, env: LorentzianEnvironment,
                             times: np.ndarray) -> ControlSchedule:
    """Solve the closed-form controls along a designed trajectory.

    The trajectory is sampled and the reservoir evaluated once over the whole
    grid, and the closed form is solved in one call on the regular samples.
    A sample on the singular locus (the closed forms have finite one-sided
    limits there) takes the mean of the probes t -+ eps, eps = 1e-6 t_final,
    all of them evaluated and solved in one more call; a probe outside
    [0, t_final] is replaced by its partner, so the mean is the one-sided
    value.  A singular probe raises ``SingularControlError`` naming its time
    and its sample's.
    """
    times = np.asarray(times, dtype=float)
    t_final = float(trajectory.t_final)
    eps = 1e-6 * t_final

    def inputs(ts):
        r, rdot = trajectory.sample(ts)
        g, s0 = decay_and_shift(env, ts)
        return r, rdot, g, s0

    r, rdot, g, s0 = inputs(times)
    singular = _singular_mask(r, g)
    regular = ~singular
    rows = np.empty((len(times), 3))
    rows[regular] = np.column_stack(two_level_controls(r[regular], rdot[regular],
                                                       g[regular], s0[regular]))
    t_sing = times[singular]
    probes = np.stack([t_sing - eps, t_sing + eps], axis=1)
    outside = (probes < 0.0) | (probes > t_final)
    probes[outside] = probes[:, ::-1][outside]
    r, rdot, g, s0 = inputs(probes.ravel())
    probe_singular = _singular_mask(r, g)
    if probe_singular.any():
        j = int(np.argmax(probe_singular))
        raise _singular_error(r[j], rdot[j], float(g[j]),
                              f" at t = {probes.flat[j]:.6g} (probe of the singular sample "
                              f"at t = {t_sing[j // 2]:.6g})")
    values = np.column_stack(two_level_controls(r, rdot, g, s0)).reshape(-1, 2, 3)
    rows[singular] = 0.5 * (values[:, 0] + values[:, 1])
    return ControlSchedule(times, *rows.T)
