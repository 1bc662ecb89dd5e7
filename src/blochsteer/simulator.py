"""Forward integration of the controlled master equation and fidelities.

Two independent integrators share one fixed-step RK4 core: the component
form propagates the Bloch vector with matrices assembled from the structure
tensors, the density form propagates the row-major vectorized density
matrix with supermatrices assembled by Kronecker products.  Agreement
between the two is the primary dynamics oracle.

The RK4 core is batched and drift-free.  For ydot = M(t) y one RK4 step is
an exact linear map y -> A y, so the core builds the step maps of a chunk of
a few hundred steps with batched matrix products, composes the maps of each
output interval, and advances with one matrix-vector product per output
node, written straight into the output row; no Python code runs per step.
The step maps are formed in place: three matmul results are scaled and
summed in their own buffers, operation for operation in the order of the
textbook expression, so the in-place form gives its bits with few
temporaries.  The stage stack itself is never scaled in place, because a
caller's stack may share nodes across chunks or be a read-only broadcast.

An affine ODE ydot = M y + b runs in homogeneous form: the state (y, 1)
under the generator [[M, b], [0, 0]].  The Bloch run, ``integrate_affine``
and the drive transforms do so, the Bloch run on homogeneous generators
built once per process.  The density run has no drift; it propagates the
real vector [Re vec rho; Im vec rho] under the Kronecker supermatrices S in
the real block form [[Re S, -Im S], [Im S, Re S]], because a stacked real
8 x 8 product costs far less than the complex 4 x 4 one.

Controls are sampled schedules, interpolated cubically at the half steps;
reservoir coefficients are evaluated from their closed forms exactly, once
per fine-grid point, into a table checked for a zero of u between nodes.
Runs on the same reservoir, output times and ``min_steps`` can share one
table (``reservoir_table``, passed as ``reservoir``): tracking's controlled
run and its reference-protocol run, two schedules on one path, do.  The
two-level runs fill their five stage coefficients into one array in one
pass: the table's rows first, then the three control splines written
straight into their rows.  The splines are built after the table and
before that array, so their solve's temporaries never sit on top of it; a
run given no table evaluates its own and drops it before the splines are
evaluated.  Output grids must be finite and uniform.

The reservoir's drive renormalization Omega -> Omega^R and its inverse are
linear ODEs in (h, w), the local form of the memory convolution, and run
through the same core with one step per output interval.

User coefficient functions are called once, on the 1-D array of fine-grid
times; a constant result is broadcast.

Everything after the core is batched over the output grid as well: the
density run converts all its rows to Bloch vectors in one call, and the
fidelity against a reference is one ``fidelity_bloch`` call over the stack.
A ``reference`` is its states: Bloch vectors of shape (n, 3) at the n
output times.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Callable

import numpy as np

from . import liouvillian as lv
from ._cubic import require_uniform
from .controls import SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE, ControlSchedule
from .environment import (LorentzianEnvironment, _check_zero_between, _log_derivative,
                          decay_and_shift)
from .errors import IntegrationDivergedError, InvalidInputError, MalformedStateError
from .sun_algebra import build_basis, density_to_bloch, structure_constants

__all__ = [
    "SimulationRun",
    "DEFAULT_MIN_STEPS",
    "integrate_affine",
    "integrate_bloch",
    "integrate_density",
    "integrate_density_general",
    "reservoir_table",
    "fidelity_bloch",
    "renormalized_field",
    "lab_field_from_effective",
]

DEFAULT_MIN_STEPS = 20000
# Fine steps handled per batch: keeps the stacked stage and step-map
# temporaries of one chunk well under 1 MB.
_CHUNK_STEPS = 256


@dataclass(frozen=True)
class SimulationRun:
    states: np.ndarray
    fidelity: np.ndarray | None
    densities: np.ndarray | None = None

    @property
    def min_fidelity(self) -> float:
        return float(np.min(self.fidelity))


def _homogeneous(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generators [[M, b], [0, 0]] of ydot = M y + b acting on (y, 1).

    ``m`` has shape (..., d, d) and ``b`` shape (..., d); the result has shape
    (..., d + 1, d + 1), so the affine ODE runs through the linear RK4 core.
    """
    n = b.shape[-1]
    g = np.zeros((*b.shape[:-1], n + 1, n + 1), dtype=np.result_type(m, b))
    g[..., :n, :n] = m
    g[..., :n, n] = b
    return g


@lru_cache(maxsize=1)
def _qubit_parts():
    """Cached N = 2 structure: the basis and the five fixed generators of each form.

    The generators multiply the stage coefficients (c_x, c_y, c_z, rate_minus,
    rate_plus); both forms are built from the same five unit specs, the unit
    c_x, c_y and c_z Hamiltonians and the unit sigma- and sigma+ channels.
    Bloch form: homogeneous 4 x 4 matrices [[K, b], [0, 0]] of the component
    generators, the channel drifts in the last column.  Density form: the
    Kronecker supermatrices in real block form, as 8 x 8 matrices.  Padding
    the Hamiltonian specs with rate-0 channels would turn -0.0 entries of
    their supermatrices into +0.0, so each form takes two stacked calls.
    """
    basis = build_basis(2)
    tensors = structure_constants(basis)
    units = lv.HamiltonianSpec(np.eye(3, 4, 1))
    zero = lv.HamiltonianSpec(np.zeros(4))
    decay = [lv.LindbladChannel(np.array([SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE]))]
    coherent = lv.assemble_components(units, [], tensors)
    dissipative = lv.assemble_components(zero, decay, tensors)
    bloch = _homogeneous(np.concatenate([coherent.matrix, dissipative.matrix]),
                         np.concatenate([coherent.drift, dissipative.drift]))
    s = np.concatenate([lv.kron_liouvillian(units, [], basis),
                        lv.kron_liouvillian(zero, decay, basis)])
    # S acts on [Re vec rho; Im vec rho] as [[Re S, -Im S], [Im S, Re S]]
    density = np.block([[s.real, -s.imag], [s.imag, s.real]])
    return basis, bloch, density


def _reservoir_table(env: LorentzianEnvironment, fine_times: np.ndarray):
    """(Gamma0, s0) on a fine grid, evaluated once per point.

    Raises ``PropagatorZeroError`` if u has a zero on the grid or between two
    of its nodes: the rates have a pole there that no RK4 step can cross.
    """
    gam, shift = decay_and_shift(env, fine_times)
    _check_zero_between(env, fine_times, gam, shift)
    return gam, shift


def reservoir_table(env: LorentzianEnvironment, times: np.ndarray,
                    min_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma0, s0) on the fine grid of a run over ``times`` with ``min_steps``.

    Runs on the same ``env``, ``times`` and ``min_steps`` take it as
    ``reservoir`` in place of evaluating it again.  Raises
    ``PropagatorZeroError`` as a run would.
    """
    return _reservoir_table(env, _fine_grid(np.asarray(times, dtype=float), min_steps)[0])


def _stage_coefficients(schedule: ControlSchedule, env: LorentzianEnvironment,
                        fine_times: np.ndarray, reservoir) -> np.ndarray:
    """Stage coefficients on a fine grid, one row each of (c_x, c_y, c_z,
    rate_minus, rate_plus), filled in one pass into one array.

    The rates come from ``reservoir``, the table on that grid, or when it is
    None from a table evaluated here.  The table is read before the controls
    and never written.  The control splines are built after the table and
    before the array, so neither one's temporaries stack on the array; a
    table evaluated here is dropped before the splines are evaluated.
    """
    gam, shift = _reservoir_table(env, fine_times) if reservoir is None else reservoir
    schedule._coefficients   # builds the splines, a cached property
    coeffs = np.empty((5, len(fine_times)))
    c_x, c_y, c_z, rate_minus, rate_plus = coeffs
    np.multiply(0.5, shift, out=c_z)
    rate_minus[:] = gam
    del gam, shift
    # rate_plus holds N until the rates are formed from it
    schedule.value(fine_times, out=(c_x, c_y, rate_plus))
    n_plus_one = rate_plus + 1.0
    rate_plus *= rate_minus
    rate_minus *= n_plus_one
    return coeffs


def _fine_grid(times: np.ndarray, min_steps: int) -> tuple[np.ndarray, int]:
    """Step nodes and half steps of ``sub`` equal steps per interval of ``times``."""
    require_uniform(times, "output times")
    n_out = len(times) - 1
    sub = max(1, ceil(min_steps / n_out))
    n_steps = n_out * sub
    try:
        fine = np.linspace(times[0], times[-1], 2 * n_steps + 1)
    except MemoryError:
        raise InvalidInputError(
            f"{n_steps} RK4 steps need a fine grid of {2 * n_steps + 1} nodes, "
            "which does not fit in memory") from None
    return fine, sub


def _step_maps(stages, first: int, last: int, h: float) -> np.ndarray:
    """Exact RK4 step maps of fine steps first .. last-1.

    For ydot = M y one RK4 step is the linear map y -> A y: with K1 = h M1,
    K2 = h M2 (I + K1 / 2), K3 = h M2 (I + K2 / 2) and K4 = h M4 (I + K3),
    A = I + (K1 + 2 K2 + 2 K3 + K4) / 6.  Returns shape (last - first, d, d).
    """
    # h * M as fresh products, never in place: a stack from ``stages`` may
    # share its nodes with the next chunk's, or be a read-only broadcast.
    # The step nodes and the half steps go to two contiguous arrays, so the
    # sums below run on contiguous operands.
    m = stages(slice(2 * first, 2 * last + 1))
    nodes, g2 = h * m[0::2], h * m[1::2]
    del m
    g1, g4 = nodes[:-1], nodes[1:]
    # in place, operation for operation the textbook expression
    # (g1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0 with k2 = g2 + 0.5 * (g2 @ g1),
    # k3 = g2 + 0.5 * (g2 @ k2) and k4 = g4 + g4 @ k3: the same bits
    k2 = np.matmul(g2, g1)
    k2 *= 0.5
    k2 += g2
    k3 = np.matmul(g2, k2)
    k3 *= 0.5
    k3 += g2
    k4 = np.matmul(g4, k3)
    k4 += g4
    maps = k2
    maps *= 2.0
    maps += g1
    k3 *= 2.0
    maps += k3
    maps += k4
    maps /= 6.0
    n = maps.shape[-1]
    maps.reshape(len(maps), n * n)[:, ::n + 1] += 1.0
    return maps


def _compose(maps: np.ndarray) -> np.ndarray:
    """Product maps[..., m-1, :, :] @ ... @ maps[..., 0, :, :] by pairwise halving."""
    while maps.shape[-3] > 1:
        pairs = maps[..., 1::2, :, :] @ maps[..., 0:-1:2, :, :]
        if maps.shape[-3] % 2:
            pairs = np.concatenate([pairs, maps[..., -1:, :, :]], axis=-3)
        maps = pairs
    return maps[..., 0, :, :]


def _interval_maps(stages, first: int, last: int, sub: int, h: float) -> np.ndarray:
    """Composed maps of output intervals first .. last-1, each of ``sub`` steps."""
    if sub <= _CHUNK_STEPS:
        maps = _step_maps(stages, first * sub, last * sub, h)
        return _compose(maps.reshape(last - first, sub, *maps.shape[1:]))
    # one interval longer than a chunk (then last == first + 1)
    stop = last * sub
    parts = [_compose(_step_maps(stages, s, min(s + _CHUNK_STEPS, stop), h))
             for s in range(first * sub, stop, _CHUNK_STEPS)]
    return _compose(np.array(parts))[None]


def _rk4_linear(stages, y0: np.ndarray, times: np.ndarray, sub: int) -> np.ndarray:
    """RK4 for ydot = M(t) y with ``sub`` steps per output interval.

    ``stages(idx)`` returns the stacked M at the fine-grid indices ``idx`` (a
    slice; the fine grid holds the step nodes and half steps).  An affine ODE
    runs here in homogeneous form (see ``_homogeneous``).  Works through the
    run in chunks of about ``_CHUNK_STEPS`` steps: builds each step's map with
    batched matmuls, composes the maps of each output interval, then advances
    with one matvec per output node.  Records the state at every output node
    and raises on non-finite states.
    """
    n_out = len(times) - 1
    h = (times[-1] - times[0]) / (n_out * sub)
    per_chunk = max(1, _CHUNK_STEPS // sub)
    out = np.empty((n_out + 1, y0.size), dtype=np.result_type(y0, float))
    out[0] = y0
    y = out[0]
    # a diverging run overflows on its way to inf or nan; the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_out, per_chunk):
            last = min(n_out, first + per_chunk)
            maps = _interval_maps(stages, first, last, sub, h)
            # ndarray.dot: the same bits as @ without the matmul ufunc dispatch
            for interval, row in zip(maps, out[first + 1:last + 1]):
                y = interval.dot(y, out=row)
            finite = np.all(np.isfinite(out[first + 1:last + 1]), axis=1)
            if not finite.all():
                bad = first + 1 + int(np.argmin(finite))
                raise IntegrationDivergedError(
                    f"state became non-finite at t = {times[bad]:.6g}")
    return out


def integrate_affine(matrix_fun, drift_fun, y0: np.ndarray, times: np.ndarray,
                     min_steps: int = DEFAULT_MIN_STEPS) -> np.ndarray:
    """Fixed-step RK4 for ydot = M(t) y + b(t) with callable coefficients.

    The callables are called once, on the step nodes and half steps t, and
    return stacks M (len(t), d, d) and b (len(t), d) or constants.  They run
    through the same core as both integrators.  Returns the states on the
    output grid.
    """
    times = np.asarray(times, dtype=float)
    fine, sub = _fine_grid(times, min_steps)
    m, b = np.asarray(matrix_fun(fine)), np.asarray(drift_fun(fine))
    gens = _homogeneous(np.broadcast_to(m, fine.shape + m.shape[-2:]),
                        np.broadcast_to(b, fine.shape + b.shape[-1:]))
    return _rk4_linear(lambda idx: gens[idx], np.append(y0, 1.0), times, sub)[:, :-1]


def _qubit_run(schedule: ControlSchedule, env: LorentzianEnvironment, y0: np.ndarray,
               times: np.ndarray, min_steps: int, gens: np.ndarray,
               reservoir) -> np.ndarray:
    """RK4 run of a two-level form: the stage generators are the stage
    coefficients times the form's five fixed generators ``gens`` (5, d, d),
    stacked by one matrix product."""
    fine, sub = _fine_grid(times, min_steps)
    coeffs = _stage_coefficients(schedule, env, fine, reservoir)
    flat = gens.reshape(len(gens), -1)

    def stages(idx):
        return (coeffs[:, idx].T @ flat).reshape(-1, *gens.shape[1:])
    return _rk4_linear(stages, y0, times, sub)


def integrate_bloch(schedule: ControlSchedule, env: LorentzianEnvironment,
                    r0: np.ndarray, times: np.ndarray, min_steps: int = DEFAULT_MIN_STEPS,
                    reference: np.ndarray | None = None,
                    reservoir: tuple[np.ndarray, np.ndarray] | None = None) -> SimulationRun:
    """Integrate the component-form Bloch equations under a control schedule.

    ``reference`` holds reference states of shape (n, 3) at ``times``; when
    given, the per-sample Uhlmann fidelity against it is recorded.
    ``reservoir`` is ``reservoir_table(env, times, min_steps)``, passed to
    share one table between runs; None evaluates it here.
    """
    times = np.asarray(times, dtype=float)
    y0 = np.append(np.asarray(r0, dtype=float), 1.0)
    states = _qubit_run(schedule, env, y0, times, min_steps, _qubit_parts()[1],
                        reservoir)[:, :-1]
    fid = _reference_fidelity(states, times, reference)
    return SimulationRun(states=states, fidelity=fid)


def integrate_density(schedule: ControlSchedule, env: LorentzianEnvironment,
                      rho0: np.ndarray, times: np.ndarray,
                      min_steps: int = DEFAULT_MIN_STEPS) -> SimulationRun:
    """Integrate the vectorized density matrix with the Kronecker supermatrix.

    States are reported as Bloch vectors for direct comparison with
    ``integrate_bloch``; this is the primary dynamics oracle.  The density
    matrices themselves are attached to the run as ``densities``; the run
    has no fidelity column.
    """
    times = np.asarray(times, dtype=float)
    basis, _, gens = _qubit_parts()
    vec0 = lv.vec(np.asarray(rho0, dtype=complex))
    y = _qubit_run(schedule, env, np.concatenate([vec0.real, vec0.imag]), times, min_steps,
                   gens, None)
    raw = (y[:, :4] + 1j * y[:, 4:]).reshape(-1, 2, 2)
    return SimulationRun(states=density_to_bloch(raw, basis), fidelity=None, densities=raw)


def _reference_fidelity(states, times, reference):
    """Fidelity of each state against the reference state at its time; raises
    naming the first time at which the forward state or the reference leaves
    the ball."""
    if reference is None:
        return None
    ref = np.asarray(reference, dtype=float)
    norm2 = _norm2(states), _norm2(ref)
    outside = [n2 > 1.0 + _NORM_SLACK for n2 in norm2]
    if np.any(outside[0] | outside[1]):
        i = int(np.argmax(outside[0] | outside[1]))
        which = " and ".join(label for label, mask in zip(("forward state", "reference"), outside)
                             if mask[i])
        raise MalformedStateError(
            f"{which} left the Bloch ball at t = {times[i]:.6g} (norms of forward state, "
            f"reference: {np.sqrt(norm2[0][i]):.12f}, {np.sqrt(norm2[1][i]):.12f})")
    return fidelity_bloch(states, ref)


# ---------------------------------------------------------------------------
# fidelity


_NORM_SLACK = 2e-8


def _norm2(r: np.ndarray):
    # a diverged but finite state overflows to inf, which correctly fails the ball test
    with np.errstate(over="ignore"):
        return np.vecdot(r, r)


def fidelity_bloch(r1: np.ndarray, r2: np.ndarray):
    """Two-level Uhlmann fidelity from Bloch vectors.

    F = (1 + r1.r2 + sqrt((1 - |r1|^2)(1 - |r2|^2))) / 2.  Norms may exceed
    1 by integrator slack up to 2e-8; beyond that the state is unphysical.
    Follows numpy's shape rules: two vectors give a numpy float, two stacks
    of shape (n, 3) an array of shape (n,).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    slack = []
    for r in (r1, r2):
        n2 = _norm2(r)
        if (n2 > 1.0 + _NORM_SLACK).any():
            raise MalformedStateError(f"Bloch norm {np.sqrt(np.max(n2)):.12f} exceeds 1")
        slack.append(np.maximum(0.0, 1.0 - n2))
    val = 0.5 * (1.0 + np.vecdot(r1, r2) + np.sqrt(slack[0] * slack[1]))
    return np.minimum(np.maximum(val, 0.0), 1.0 + 1e-12)


def integrate_density_general(generator_fun, rho0: np.ndarray, times: np.ndarray, basis,
                              min_steps: int = DEFAULT_MIN_STEPS) -> np.ndarray:
    """Kronecker-form integration for any SU(N) setup with a callable generator.

    ``generator_fun(t)`` returns the HamiltonianSpec and the channels at the
    step nodes and half steps t, stacked along t or constant.  Returns the
    density matrices on the output grid.  Slower than the two-level path (a
    supermatrix per stage) but dimension-agnostic.
    """
    times = np.asarray(times, dtype=float)
    fine, sub = _fine_grid(times, min_steps)
    s = lv.kron_liouvillian(*generator_fun(fine), basis)
    supers = np.broadcast_to(s, fine.shape + s.shape[-2:])
    raw = _rk4_linear(lambda idx: supers[idx], lv.vec(np.asarray(rho0, dtype=complex)),
                      times, sub)
    return raw.reshape(len(raw), basis.dimension, basis.dimension)


# ---------------------------------------------------------------------------
# drive transforms


def _drive_ode(env: LorentzianEnvironment, h_row, drive: np.ndarray,
               tgrid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, w) on ``tgrid`` for h' = h_row . (h, w) - i drive, w' = f(0) h - mu w.

    Starts from h = w = 0 and takes one RK4 step per interval, in homogeneous
    form with the drive in the last column; ``h_row`` and ``drive`` hold values
    at the fine-grid nodes (step nodes and half steps).
    """
    g = np.zeros((len(drive), 3, 3), dtype=complex)
    g[:, 0, :2] = h_row
    g[:, 1, :2] = 0.5 * env.lam, -env._memory_rate
    g[:, 0, 2] = -1j * drive
    y = _rk4_linear(lambda idx: g[idx], np.array([0.0, 0.0, 1.0], dtype=complex), tgrid, 1)
    return y[:, 0], y[:, 1]


def renormalized_field(env: LorentzianEnvironment, omega: Callable[[np.ndarray], np.ndarray],
                       tgrid: np.ndarray) -> np.ndarray:
    """Effective drive Omega^R(t) produced by the physical drive Omega(t).

    Solves h' = -i Delta h - w - i Omega, w' = f(0) h - mu w (the local form
    of the memory convolution) on the uniform grid ``tgrid`` and returns
    i [h' - h u'/u] on it.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    fine, _ = _fine_grid(tgrid, len(tgrid) - 1)
    drive = np.broadcast_to(np.asarray(omega(fine), dtype=complex), fine.shape)
    h, w = _drive_ode(env, (-1j * env.drive_detuning, -1.0), drive, tgrid)
    hdot = -1j * env.drive_detuning * h - w - 1j * drive[::2]
    q, _ = _log_derivative(env, tgrid)
    return 1j * (hdot - h * q)


def lab_field_from_effective(env: LorentzianEnvironment,
                             omega_r: Callable[[np.ndarray], np.ndarray],
                             t_final: float, n: int) -> tuple[np.ndarray, np.ndarray]:
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
    fine, _ = _fine_grid(tgrid, n)
    q, _ = _log_derivative(env, fine)
    drive = np.broadcast_to(np.asarray(omega_r(fine), dtype=complex), fine.shape)
    h, w = _drive_ode(env, np.column_stack([q, np.zeros_like(q)]), drive, tgrid)
    hdot = -1j * drive[::2] + h * q[::2]
    return tgrid, 1j * (hdot + 1j * env.drive_detuning * h + w)
