"""Forward integration of the controlled master equation and fidelities.

Two independent integrators share one fixed-step RK4 core: the component
form propagates the Bloch vector with matrices assembled from the structure
tensors, the density form propagates the density matrix, at any N, in real
coordinates, with supermatrices assembled by Kronecker products.
Agreement between the two is the primary dynamics oracle.

The RK4 core is batched and drift-free.  For ydot = M(t) y one RK4 step is
an exact linear map y -> A y, so the core builds the step maps of a chunk
with batched matrix products and composes the maps of each output interval.
A chunk holds whole output intervals, one at least, whose step maps take at
most ``_CHUNK_BYTES`` and no more bytes than the run's fine grid: 1,024
steps of either two-level form once the fine grid is that large (from 8,192
steps on).  An interval of more steps than that is a chunk of its own, built
in parts of that size whose composed maps are multiplied in order.  A prefix
product of the chunk's interval maps, by doubling, gives the map from the
chunk's first node to each output node, and one batched matrix-vector
product from the state there writes all of the chunk's output rows; no
Python code runs per step or per output node.  A chunk with a
non-finite row is redone one interval at a time, since a product of maps
can overflow before the states do.
The step maps are formed in place: three matmul results are scaled and
summed in their own buffers, operation for operation in the order of the
textbook expression, so the in-place form gives its bits with few
temporaries.  The stage stack itself is never scaled in place, because a
caller's stack may share nodes across chunks or be a read-only broadcast.

The runs take the step count they are given.  ``choose_min_steps`` picks one
for a Bloch run by step doubling (Hairer, Norsett and Wanner, "Solving
Ordinary Differential Equations I", sec. II.4): from one stage table at 2
steps per output interval it runs 2 steps and, on every other node, 1 step
per interval, and takes max |y_h - y_2h| / 15 over the output nodes as the
error of the 2-step run.  A step never crosses an output node, where the
control splines have their knots, so the error falls as h^4.

An affine ODE ydot = M y + b runs in homogeneous form: the state (y, 1)
under the generator [[M, b], [0, 0]].  Every run is a table run, the core's
one caller: a coefficient table (n_fine, k) times k fixed generators built
once, the Bloch run's homogeneous.  The density form's, at every N, are the
Kronecker supermatrices S of the unit Hamiltonians and unit-rate channels as
Re P S Q, on the N^2 real coordinates x = P vec rho of a Hermitian rho
(rho_ii, Re rho_ij, Im rho_ij for i < j; vec rho = Q x): 4 x 4 at N = 2.

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
affine ODEs in (h, w), the local form of the memory convolution: table runs
of a complex table (the drive, and u'/u) times fixed homogeneous generators
of the kernel, one step per output interval.  User coefficient functions
(the general density run's table, the transforms' drives) are called once,
on the 1-D array of fine-grid times; a constant is broadcast.

Everything after the core is batched over the output grid as well: the
density run converts all its rows to Bloch vectors in one call, and the
fidelity against a reference is one ``fidelity_bloch`` call over the stack.
A ``reference`` is its states: Bloch vectors of shape (n, 3) at the n
output times.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import ceil, isqrt
from typing import Callable

import numpy as np

from . import liouvillian as lv
from ._cubic import require_uniform
from .controls import SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE, ControlSchedule
from .environment import (LorentzianEnvironment, _check_zero_between, _log_derivative,
                          decay_and_shift)
from .errors import (DimensionError, IntegrationDivergedError, InvalidInputError,
                     MalformedStateError, PropagatorZeroError)
from .sun_algebra import _first_in_stack, build_basis, density_to_bloch, structure_constants

__all__ = [
    "SimulationRun",
    "DEFAULT_MIN_STEPS",
    "STEP_TOLERANCE",
    "choose_min_steps",
    "integrate_bloch",
    "integrate_density",
    "integrate_density_general",
    "reservoir_table",
    "fidelity_bloch",
    "renormalized_field",
    "lab_field_from_effective",
]

DEFAULT_MIN_STEPS = 20000
"""The most RK4 steps ``choose_min_steps`` picks for a run: it takes at most
ceil(DEFAULT_MIN_STEPS / grid) steps per output interval."""
STEP_TOLERANCE = 1e-11
"""Step-doubling error estimate that ``choose_min_steps`` allows a run, on the
Bloch vector.  Two runs at counts it picks then agree far inside the 1e-10 of
the Bloch-vs-Kronecker oracle."""
# Bytes of one chunk's stack of RK4 step maps, at most: 1,024 steps of either
# two-level form (4 x 4).  A run whose fine grid takes fewer bytes takes that
# many instead, so a short run's chunk stays small next to its other arrays.
# Each chunk pays a fixed cost of some tens of numpy calls.  2^18 ran the
# mixed inversion's forward runs no faster at 16,000 steps (at 4,000 the fine
# grid sets the budget) and raised their peak from 10.8 to 12.7 fine-grid
# arrays.
_CHUNK_BYTES = 2 ** 17


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


@lru_cache
def _hermitian_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The density form's coordinates x = P vec rho of an N x N Hermitian rho
    and their inverse vec rho = Q x, both (N^2, N^2), built by index.  x holds
    rho_ii, then Re rho_ij, then Im rho_ij for i < j (row-major order); Q
    rebuilds rho_ji = conj rho_ij.  Every entry is 0, 1, i, 1/2 or i/2 up to
    sign, so no product with one rounds."""
    diag, (i, j) = np.arange(n), np.triu_indices(n, 1)
    upper, lower = i * n + j, j * n + i
    re, im = n + np.arange(len(i)), n + len(i) + np.arange(len(i))
    p, q = np.zeros((2, n * n, n * n), dtype=complex)
    p[diag, diag * (n + 1)] = q[diag * (n + 1), diag] = 1.0
    p[re, upper] = p[re, lower] = 0.5
    p[im, upper], p[im, lower] = -0.5j, 0.5j
    q[upper, re] = q[lower, re] = 1.0
    q[upper, im], q[lower, im] = 1j, -1j
    return p, q


def _density_generators(basis, shapes) -> np.ndarray:
    """Fixed density-form generators (k, N^2, N^2), Re P S Q on the real
    coordinates of ``_hermitian_maps``, for the Kronecker supermatrices S of
    the unit Hamiltonians c_1 .. c_{N^2-1}, then of one unit-rate channel per
    shape in the sequence ``shapes`` (none: a coherent run).  S keeps rho
    Hermitian, so P S Q is real up to rounding.  Padding the Hamiltonian
    specs with rate-0 channels would turn -0.0 entries of their supermatrices
    into +0.0, so the two kinds take two stacked calls."""
    n = basis.dimension ** 2
    units = lv.HamiltonianSpec(np.eye(n - 1, n, 1))
    extended = [lv._extended_shape(shape, basis.dimension) for shape in shapes]
    decay = [lv.LindbladChannel(np.reshape(extended, (-1, n)))]
    s = np.concatenate([lv.kron_liouvillian(units, [], basis),
                        lv.kron_liouvillian(lv.HamiltonianSpec(np.zeros(n)), decay, basis)])
    p, q = _hermitian_maps(basis.dimension)
    return (p @ s @ q).real


@lru_cache(maxsize=1)
def _qubit_parts():
    """Cached N = 2 structure: the basis and the five fixed generators of each form,
    which multiply the stage coefficients (c_x, c_y, c_z, rate_minus, rate_plus).
    Bloch form: homogeneous 4 x 4 matrices [[K, b], [0, 0]] of the component
    generators, the drifts in the last column, built in two stacked calls as
    ``_density_generators`` builds the density form's from sigma- and sigma+."""
    basis = build_basis(2)
    tensors = structure_constants(basis)
    shapes = SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE
    coherent = lv.assemble_components(lv.HamiltonianSpec(np.eye(3, 4, 1)), [], tensors)
    dissipative = lv.assemble_components(lv.HamiltonianSpec(np.zeros(4)),
                                         [lv.LindbladChannel(np.array(shapes))], tensors)
    bloch = _homogeneous(np.concatenate([coherent.matrix, dissipative.matrix]),
                         np.concatenate([coherent.drift, dissipative.drift]))
    return basis, bloch, _density_generators(basis, shapes)


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
    except (MemoryError, ValueError):   # numpy refuses an array too large to index
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


def _interval_maps(stages, first: int, last: int, sub: int, h: float,
                   piece: int) -> np.ndarray:
    """Composed maps of output intervals first .. last-1, each of ``sub`` steps.

    The step maps of at most ``piece`` steps are held at once: an interval of
    more steps, a chunk of its own, is built ``piece`` steps at a time and
    the composed maps of its parts are multiplied in order.
    """
    if sub > piece:
        parts = (_compose(_step_maps(stages, start, min(start + piece, last * sub), h))
                 for start in range(first * sub, last * sub, piece))
        return reduce(lambda total, part: part @ total, parts)[None]
    maps = _step_maps(stages, first * sub, last * sub, h)
    return _compose(maps.reshape(last - first, sub, *maps.shape[1:]))


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """maps[i] <- maps[i] @ ... @ maps[0] for every i, in place: a parallel
    prefix product (Blelloch, "Prefix sums and their applications",
    CMU-CS-90-190, 1990) in its doubling form (Hillis and Steele, "Data
    parallel algorithms", CACM 29, 1986).  The round at stride s multiplies
    each map from s on by the one s before it, so ceil(log2 len(maps))
    batched products replace a product per map."""
    stride = 1
    while stride < len(maps):
        maps[stride:] = maps[stride:] @ maps[:-stride]
        stride *= 2
    return maps


def _rk4_linear(stages, y0: np.ndarray, times: np.ndarray, sub: int) -> np.ndarray:
    """RK4 for ydot = M(t) y with ``sub`` steps per output interval.

    ``stages(idx)`` returns the stacked M at the fine-grid indices ``idx`` (a
    slice; the fine grid holds the step nodes and half steps).  An affine ODE
    runs here in homogeneous form (see ``_homogeneous``).  Works through the
    run in chunks of whole output intervals (see the module docstring): builds
    each step's map with batched matmuls, composes the maps of each output
    interval, turns them into the maps from the chunk's first node by a prefix
    product, and advances to every output node of the chunk by one batched
    matrix-vector product from the state at its first node.  Records the
    state at every output node and raises on non-finite states.  A product of
    maps can overflow before the states do, so a chunk with a non-finite state
    is redone one interval at a time, and the error names the first output
    time at which that sweep's state is not finite.
    """
    n_out = len(times) - 1
    h = (times[-1] - times[0]) / (n_out * sub)
    out = np.empty((n_out + 1, y0.size), dtype=np.result_type(y0, float))
    fine_bytes = (2 * n_out * sub + 1) * np.dtype(float).itemsize
    piece = max(1, min(_CHUNK_BYTES, fine_bytes) // (out.itemsize * y0.size ** 2))
    per_chunk = max(1, piece // sub)
    out[0] = y0
    y = out[0]
    # a diverging run overflows on its way to inf or nan; the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_out, per_chunk):
            last = min(n_out, first + per_chunk)
            rows = out[first + 1:last + 1]
            maps = _prefix_products(_interval_maps(stages, first, last, sub, h, piece))
            np.matmul(maps, y, out=rows)
            if not np.isfinite(rows).all():
                for interval, row in zip(_interval_maps(stages, first, last, sub, h, piece),
                                         rows):
                    y = interval.dot(y, out=row)
                finite = np.all(np.isfinite(rows), axis=1)
                if not finite.all():
                    bad = first + 1 + int(np.argmin(finite))
                    raise IntegrationDivergedError(
                        f"state became non-finite at t = {times[bad]:.6g}")
            y = rows[-1]
    return out


def _table_run(coefficient_fun, gens: np.ndarray, y0: np.ndarray, times: np.ndarray,
               min_steps: int, state) -> np.ndarray:
    """RK4 run whose stage generators are the table ``coefficient_fun(fine)``
    (n_fine, k) or one constant row, on the run's fine grid, times fixed
    generators ``gens`` (k, d, d), stacked by one matrix product in the table's
    dtype.  ``y0`` is the initial ``state`` as the vector they act on; a state
    of another size, or a table of another width, raises ``DimensionError``,
    a complex table for real generators ``InvalidInputError``."""
    if y0.shape != gens.shape[-1:]:
        raise DimensionError(f"initial state of shape {np.shape(state)} does not fit "
                             f"generators of shape {gens.shape[1:]}")
    times = np.asarray(times, dtype=float)
    fine, sub = _fine_grid(times, min_steps)
    coefficients = np.asarray(coefficient_fun(fine))
    if np.iscomplexobj(coefficients) and not np.iscomplexobj(gens):
        raise InvalidInputError(f"coefficient table of dtype {coefficients.dtype} does not "
                                f"fit real generators")
    try:
        table = np.broadcast_to(coefficients, (len(fine), len(gens)))
    except ValueError:
        raise DimensionError(f"coefficient table of shape {coefficients.shape} does not "
                             f"fit shape {(len(fine), len(gens))}") from None
    flat = gens.reshape(len(gens), -1)

    def stages(idx):
        return (table[idx] @ flat).reshape(-1, *gens.shape[1:])
    return _rk4_linear(stages, y0, times, sub)


def _density_run(coefficient_fun, gens: np.ndarray, rho0: np.ndarray, times: np.ndarray,
                 min_steps: int) -> np.ndarray:
    """Density-form table run on the coordinates x = P vec rho0 of a Hermitian
    ``rho0`` (``_hermitian_maps``); returns the densities Q x on the output grid,
    (n, N, N).  A rho0 that is not an N x N matrix for the generators'
    (k, N^2, N^2) raises ``DimensionError``, one that is not Hermitian
    ``InvalidInputError``."""
    rho = np.asarray(rho0, dtype=complex)
    n = isqrt(gens.shape[-1])
    if rho.shape != (n, n):
        raise DimensionError(f"initial state of shape {rho.shape} does not fit "
                             f"generators of shape {gens.shape[1:]}")
    p, q = _hermitian_maps(n)
    gap = np.max(np.abs(lv.vec(rho) - lv.vec(rho.conj().mT)))
    if gap > 1e-12 * np.max(np.abs(rho)):
        raise InvalidInputError(f"initial density matrix is not Hermitian: "
                                f"max |rho0 - rho0^+| = {gap:.3e}")
    y = _table_run(coefficient_fun, gens, (p @ lv.vec(rho)).real, times, min_steps, rho0)
    return (y @ q.T).reshape(-1, n, n)


def integrate_bloch(schedule: ControlSchedule, env: LorentzianEnvironment,
                    r0: np.ndarray, times: np.ndarray, min_steps: int = DEFAULT_MIN_STEPS,
                    reference: np.ndarray | None = None,
                    reservoir: tuple[np.ndarray, np.ndarray] | None = None) -> SimulationRun:
    """Integrate the component-form Bloch equations under a control schedule.

    Takes exactly ceil(``min_steps`` / intervals) RK4 steps per output
    interval; ``choose_min_steps`` picks a count for a given error.
    ``reference`` holds reference states of shape (n, 3) at ``times``; when
    given, the per-sample Uhlmann fidelity against it is recorded.
    ``reservoir`` is ``reservoir_table(env, times, min_steps)``, passed to
    share one table between runs; None evaluates it here.
    """
    y0 = np.append(np.asarray(r0, dtype=float), 1.0)
    states = _table_run(lambda fine: _stage_coefficients(schedule, env, fine, reservoir).T,
                        _qubit_parts()[1], y0, times, min_steps, r0)[:, :-1]
    fid = _reference_fidelity(states, times, reference)
    return SimulationRun(states=states, fidelity=fid)


def integrate_density(schedule: ControlSchedule, env: LorentzianEnvironment,
                      rho0: np.ndarray, times: np.ndarray,
                      min_steps: int = DEFAULT_MIN_STEPS) -> SimulationRun:
    """Integrate the vectorized density matrix with the Kronecker supermatrix.

    States are reported as Bloch vectors for direct comparison with
    ``integrate_bloch``; this is the primary dynamics oracle.  The density
    matrices themselves are attached to the run as ``densities``; the run
    has no fidelity column.  Takes the steps ``integrate_bloch`` takes at
    the same ``min_steps``, on the same fine grid.
    """
    basis, _, gens = _qubit_parts()
    raw = _density_run(lambda fine: _stage_coefficients(schedule, env, fine, None).T, gens,
                       rho0, times, min_steps)
    return SimulationRun(states=density_to_bloch(raw, basis), fidelity=None, densities=raw)


def choose_min_steps(schedule: ControlSchedule, env: LorentzianEnvironment,
                     r0: np.ndarray, times: np.ndarray) -> int:
    """RK4 steps for ``integrate_bloch(schedule, env, r0, times, min_steps)``.

    A step-doubling probe (see the module docstring) estimates the error of
    the run at 2 steps per output interval.  An estimate of at most
    ``STEP_TOLERANCE`` gives 2 steps per interval, a larger one the fewest
    even number s of steps per interval with estimate (2 / s)^4 at most
    ``STEP_TOLERANCE``.  Returns s times the number of output intervals, s at
    most ceil(``DEFAULT_MIN_STEPS`` / intervals); at that cap the run is the
    one at ``DEFAULT_MIN_STEPS``.  Where the cap is at most 2 steps, or the
    probe meets a propagator zero or diverges, the cap is returned without
    more ado, and the run reports what goes wrong.
    """
    times = np.asarray(times, dtype=float)
    n_out = len(times) - 1
    cap = ceil(DEFAULT_MIN_STEPS / n_out)
    if cap <= 2:
        return cap * n_out
    fine, _ = _fine_grid(times, 2 * n_out)
    y0, gens = np.append(np.asarray(r0, dtype=float), 1.0), _qubit_parts()[1]
    try:
        table = _stage_coefficients(schedule, env, fine, None).T
        # the h run, then the 2h run on every other node of the same table
        half = _table_run(lambda _: table, gens, y0, times, 2 * n_out, r0)
        full = _table_run(lambda _: table[::2], gens, y0, times, n_out, r0)
    except (PropagatorZeroError, IntegrationDivergedError):
        return cap * n_out
    # estimate / tolerance, held below inf: an estimate past cap^4 takes the cap
    ratio = min(float(np.max(np.abs(half - full)[:, :-1])) / 15.0 / STEP_TOLERANCE, cap ** 4)
    return min(cap, 2 * max(1, ceil(ratio ** 0.25))) * n_out


def _reference_fidelity(states, times, reference):
    """Fidelity of each state against the reference state at its time; raises
    naming the first time at which the forward state or the reference leaves
    the ball."""
    if reference is None:
        return None
    ref = np.asarray(reference, dtype=float)
    norm2 = _norm2(states), _norm2(ref)
    outside = [~(n2 <= 1.0 + _NORM_SLACK) for n2 in norm2]   # nan is outside
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
    1 by integrator slack up to 2e-8; beyond that, or nan, it is unphysical.
    Follows numpy's shape rules: two vectors give a numpy float, two stacks
    of shape (n, 3) an array of shape (n,).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    slack = []
    for name, r in (("r1", r1), ("r2", r2)):
        n2 = _norm2(r)
        outside = ~(n2 <= 1.0 + _NORM_SLACK)   # nan is outside
        if outside.any():
            i, where = _first_in_stack(outside, "vector")
            raise MalformedStateError(
                f"{name} has Bloch norm {np.sqrt(n2[i]):.12f}, outside the unit ball{where}")
        slack.append(np.maximum(0.0, 1.0 - n2))
    val = 0.5 * (1.0 + np.vecdot(r1, r2) + np.sqrt(slack[0] * slack[1]))
    return np.minimum(np.maximum(val, 0.0), 1.0 + 1e-12)


def integrate_density_general(coefficient_fun, shapes, rho0: np.ndarray, times: np.ndarray,
                              basis, min_steps: int = DEFAULT_MIN_STEPS) -> np.ndarray:
    """Kronecker-form integration for any SU(N), linear in a coefficient table.

    The generator is sum_k c_k(t) S_k over the supermatrices of the unit
    Hamiltonians c_1 .. c_{N^2-1} and of a unit-rate channel per shape vector
    in the sequence ``shapes`` (none for a coherent run).  ``rho0`` is Hermitian.
    ``coefficient_fun(t)`` is called once, on the step nodes and half steps t,
    and returns the table (len(t), N^2 - 1 + len(shapes)) or one constant row:
    c_1 .. c_{N^2-1}, then the channel rates.  Returns the density matrices on
    the output grid, shape (n, N, N).  Takes exactly ceil(``min_steps`` /
    intervals) RK4 steps per output interval.
    """
    return _density_run(coefficient_fun, _density_generators(basis, shapes), rho0, times,
                        min_steps)


# ---------------------------------------------------------------------------
# drive transforms


def _memory_run(matrices, coefficients, tgrid: np.ndarray) -> np.ndarray:
    """(h, w) on the uniform grid ``tgrid`` from h = w = 0, one RK4 step per
    output interval: the table run of ``coefficients`` (constants or fine-grid
    columns) times the homogeneous generators of the fixed 2 x 2 ``matrices``,
    then of the unit drift into h."""
    m = np.array([*matrices, np.zeros((2, 2))], dtype=complex)
    table = np.stack(np.broadcast_arrays(*coefficients), axis=-1)
    y0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    gens = _homogeneous(m, np.eye(len(m), 2, 1 - len(m)))   # drift e_h in the last
    return _table_run(lambda t: table, gens, y0, tgrid, len(tgrid) - 1, y0)[:, :2].T


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
    kernel = [[-1j * env.drive_detuning, -1.0], [0.5 * env.lam, -env._memory_rate]]
    h, w = _memory_run([kernel], (1.0, -1j * drive), tgrid)
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
    w_row = [[0.0, 0.0], [0.5 * env.lam, -env._memory_rate]]
    h, w = _memory_run([[[1.0, 0.0], [0.0, 0.0]], w_row], (q, 1.0, -1j * drive), tgrid)
    hdot = -1j * drive[::2] + h * q[::2]
    return tgrid, 1j * (hdot + 1j * env.drive_detuning * h + w)
