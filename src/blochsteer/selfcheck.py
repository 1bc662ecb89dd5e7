"""Built-in oracle suites for quick integrity checks of an installed build.

Each suite draws its random instances from the generator it is given and
returns its figures of merit; ``run_selfcheck`` and the acceptance tests call
the same suites with their own generators and instance counts.  Each suite
checks all its instances in one call of each builder; the propagator oracle
is a batched numpy Pade matrix exponential, so the suites need numpy alone.
"""

import numpy as np

from . import liouvillian as lv
from .controls import (SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE, assemble_control_system,
                       solve_controls, two_level_controls)
from .environment import LorentzianEnvironment, decay_and_shift, propagator_u
from .errors import InvalidInputError
from .sun_algebra import (bloch_to_density, build_basis, density_to_bloch,
                          random_bloch_vector, structure_constants)

__all__ = ["run_selfcheck"]


def _suite_liouvillian(rng: np.random.Generator, instances: int) -> tuple[float, float]:
    """Component form vs Kronecker supermatrix on ``instances`` random
    generators in each of dimensions 2 and 3.

    Returns the worst deviation between their actions on a random state and
    the worst trace-preservation residual of the supermatrices.  Instances
    with fewer than 3 channels are padded with rate-0 channels.
    """
    worst = residual = 0.0
    for dim in (2, 3):
        basis = build_basis(dim)
        tensors = structure_constants(basis)
        n = dim * dim - 1
        coefficients = np.empty((instances, dim * dim))
        shapes = np.ones((3, instances, n), dtype=complex)
        rates = np.zeros((3, instances))
        r = np.empty((instances, n))
        for i in range(instances):
            coefficients[i] = rng.normal(size=dim * dim)
            for j in range(int(rng.integers(1, 4))):
                shapes[j, i] = rng.normal(size=n) + 1j * rng.normal(size=n)
                rates[j, i] = rng.normal()
            r[i] = random_bloch_vector(dim, rng, 0.9 / np.sqrt(dim))
        ham = lv.HamiltonianSpec(coefficients)
        chans = [lv.LindbladChannel(shape=shape, rate=rate) for shape, rate in zip(shapes, rates)]
        comp = lv.assemble_components(ham, chans, tensors)
        sup = lv.kron_liouvillian(ham, chans, basis)
        residual = max(residual, float(np.max(lv.trace_preservation_residual(sup))))
        rho = lv.vec(bloch_to_density(r, basis))
        image = lv.unvec(np.einsum("...ij,...j->...i", sup, rho)) + np.eye(dim) / dim
        worst = max(worst, float(np.max(np.abs(comp.apply(r) - density_to_bloch(image, basis)))))
    return worst, residual


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack ``a`` of shape (..., n, n).

    Degree-13 Pade approximant with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)); each instance gets its own scaling
    s = max(0, ceil(log2(|A|_1 / theta_13))), so a small instance is not
    squared as often as the largest one in the stack.

    Raises
    ------
    InvalidInputError
        If ``a`` holds a NaN or an infinity.
    """
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix exponential of a non-finite matrix")
    # Pade coefficients b_0 .. b_13; theta_13 = 5.37 is the largest 1-norm at which
    # the unscaled approximant is accurate to double-precision roundoff
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):   # a zero matrix has log2(0) = -inf, so s = 0
        s = np.maximum(np.ceil(np.log2(norm / 5.371920351148152)), 0.0).astype(int)
    a = a * np.exp2(-s)[..., None, None]
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = ident + 2.0 * np.linalg.solve(v - u, u)   # = (V - U)^-1 (V + U); exact at A = 0
    for k in range(int(s.max(initial=0))):
        r = np.where((s > k)[..., None, None], r @ r, r)
    return r


def _expm_propagator(envs, grid: np.ndarray) -> np.ndarray:
    """u on ``grid`` for each reservoir of ``envs`` from the memory equation as a
    local linear system; shape (len(envs), len(grid)).

    u' = -i Delta u - z, z' = f(0) u - mu z with u(0) = 1, z(0) = 0 has
    constant coefficients, so u(t) = [exp(A t)]_00 with A = [[-i Delta, -1],
    [f(0), -mu]]; one batched matrix exponential gives it for every reservoir
    and time.
    """
    a = np.array([[[-1j * env.drive_detuning, -1.0],
                   [0.5 * env.lam, -env._memory_rate]] for env in envs])
    return _expm(grid[:, None, None] * a[:, None])[..., 0, 0]


def _suite_propagator(rng: np.random.Generator, sets: int,
                      points: int) -> tuple[float, float]:
    """Closed-form propagator vs the matrix-exponential oracle on ``points``
    samples of [0, 10] for ``sets`` random reservoirs.

    Returns the worst deviation and the worst departure from the boundary
    identities Gamma0(0) = 0 and s0(0) = Delta.
    """
    grid = np.linspace(0.0, 10.0, points)
    envs = [LorentzianEnvironment(lam=float(rng.uniform(0.05, 5.0)),
                                  cavity_detuning=float(rng.uniform(-1, 1)),
                                  drive_detuning=float(rng.uniform(-1, 1)))
            for _ in range(sets)]
    closed = np.array([propagator_u(env, grid) for env in envs])
    worst = float(np.max(np.abs(closed - _expm_propagator(envs, grid))))
    boundary = 0.0
    for env in envs:
        gam0, shift0 = decay_and_shift(env, 0.0)
        boundary = max(boundary, abs(gam0), abs(shift0 - env.drive_detuning))
    return worst, boundary


def _suite_solver(rng: np.random.Generator, instances: int) -> tuple[float, float]:
    """Closed-form two-level controls vs the generic linear solve on
    ``instances`` random states and velocities.

    Returns the worst deviation between the two and the worst residual of
    the velocity that the closed-form controls give back when substituted
    into the component-form generator.
    """
    basis = build_basis(2)
    tensors = structure_constants(basis)
    draws = []
    for _ in range(instances):
        r = random_bloch_vector(2, rng, 0.95)
        while abs(r[2]) < 0.1:
            r = random_bloch_vector(2, rng, 0.95)
        draws.append((r, rng.normal(size=3), rng.uniform(0.1, 2.0), rng.normal()))
    r, rdot, gam, shift = map(np.array, zip(*draws))
    omega_x, omega_y, excitation = two_level_controls(r, rdot, gam, shift)
    channels = [
        lv.LindbladChannel(SIGMA_MINUS_SHAPE, rate=gam, control_index=None),
        lv.LindbladChannel(SIGMA_MINUS_SHAPE, rate=gam, control_index=0),
        lv.LindbladChannel(SIGMA_PLUS_SHAPE, rate=gam, control_index=0),
    ]
    zero = np.zeros_like(shift)
    drift = lv.HamiltonianSpec(np.column_stack([shift / 2, zero, zero, shift / 2]))
    generic = solve_controls(assemble_control_system(r, rdot, (1, 2), channels, tensors,
                                                     drift=drift)).values
    worst = float(np.max(np.abs(generic - np.column_stack([omega_x, omega_y, excitation]))))
    ham = lv.HamiltonianSpec(np.column_stack([shift / 2, omega_x, omega_y, shift / 2]))
    chans = [lv.LindbladChannel(SIGMA_MINUS_SHAPE, rate=gam * (excitation + 1)),
             lv.LindbladChannel(SIGMA_PLUS_SHAPE, rate=gam * excitation)]
    field = lv.assemble_components(ham, chans, tensors).apply(r)
    return worst, float(np.max(np.abs(field - rdot)))


def run_selfcheck(stream=None) -> int:
    """Run the oracle suites and print one pass/fail line each.

    Returns 0 if every suite passes, 1 otherwise.
    """
    import sys
    stream = stream or sys.stdout
    suites = [
        ("liouvillian component form vs kronecker oracle",
         lambda: _suite_liouvillian(np.random.default_rng(2024), 50),
         (("worst deviation", 1e-10), ("trace residual", 1e-12))),
        ("propagator closed form vs matrix-exponential oracle",
         lambda: _suite_propagator(np.random.default_rng(7), 5, 201),
         (("worst deviation", 1e-12), ("boundary identities", 1e-10))),
        ("closed-form controls vs generic linear solve",
         lambda: _suite_solver(np.random.default_rng(11), 100),
         (("worst deviation", 1e-9), ("back-substitution", 1e-10))),
    ]
    failures = 0
    for name, fun, clauses in suites:
        try:
            figures = fun()
        except Exception as exc:  # a crashed suite is a failure, not an abort
            print(f"FAIL {name}: raised {type(exc).__name__}: {exc}", file=stream)
            failures += 1
            continue
        ok = all(value < tol for value, (_, tol) in zip(figures, clauses))
        detail = ", ".join(f"{label} {value:.3e} (tolerance {tol:g})"
                           for value, (label, tol) in zip(figures, clauses))
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=stream)
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
