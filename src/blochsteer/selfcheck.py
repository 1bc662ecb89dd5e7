"""Built-in oracle suites for quick integrity checks of an installed build.

Each suite draws its random instances from the generator it is given and
returns its figures of merit; ``run_selfcheck`` and the acceptance tests call
the same suites with their own generators and instance counts.
"""

import dataclasses

import numpy as np

from . import liouvillian as lv
from .controls import (SIGMA_MINUS_SHAPE, SIGMA_PLUS_SHAPE, assemble_control_system,
                       solve_controls, two_level_controls)
from .environment import LorentzianEnvironment, decay_and_shift, propagator_u
from .sun_algebra import (bloch_to_density, build_basis, density_to_bloch,
                          random_bloch_vector, structure_constants)

__all__ = ["run_selfcheck"]


def _suite_liouvillian(rng: np.random.Generator, instances: int,
                       perturb_f: float = 0.0) -> tuple[float, float]:
    """Component form vs Kronecker supermatrix on ``instances`` random
    generators in each of dimensions 2 and 3.

    Returns the worst deviation between their actions on a random state and
    the worst trace-preservation residual of the supermatrices.
    """
    worst = residual = 0.0
    for dim in (2, 3):
        basis = build_basis(dim)
        tensors = structure_constants(basis)
        if perturb_f:
            tensors = dataclasses.replace(tensors, f=tensors.f + perturb_f)
        n = dim * dim - 1
        for _ in range(instances):
            ham = lv.HamiltonianSpec(rng.normal(size=dim * dim))
            chans = [lv.LindbladChannel(shape=rng.normal(size=n) + 1j * rng.normal(size=n),
                                        rate=float(rng.normal()))
                     for _ in range(int(rng.integers(1, 4)))]
            comp = lv.assemble_components(ham, chans, tensors)
            sup = lv.kron_liouvillian(ham, chans, basis)
            residual = max(residual, lv.trace_preservation_residual(sup))
            r = random_bloch_vector(dim, rng, 0.9 / np.sqrt(dim))
            image = lv.unvec(sup @ lv.vec(bloch_to_density(r, basis))) + np.eye(dim) / dim
            worst = max(worst, float(np.max(np.abs(comp.apply(r)
                                                   - density_to_bloch(image, basis)))))
    return worst, residual


def _expm_propagator(env: LorentzianEnvironment, grid: np.ndarray) -> np.ndarray:
    """u on ``grid`` from the memory equation as a local linear system.

    u' = -i Delta u - z, z' = f(0) u - mu z with u(0) = 1, z(0) = 0 has
    constant coefficients, so u(t) = [exp(A t)]_00 with A = [[-i Delta, -1],
    [f(0), -mu]]; one batched matrix exponential gives it on the whole grid.
    """
    from scipy.linalg import expm
    f0 = 0.5 * env.gamma0 * env.lam
    mu = env.lam + 1j * (env.drive_detuning - env.cavity_detuning)
    a = np.array([[-1j * env.drive_detuning, -1.0], [f0, -mu]])
    return expm(grid[:, None, None] * a)[:, 0, 0]


def _suite_propagator(rng: np.random.Generator, sets: int,
                      points: int) -> tuple[float, float]:
    """Closed-form propagator vs the matrix-exponential oracle on ``points``
    samples of [0, 10] for ``sets`` random reservoirs.

    Returns the worst deviation and the worst departure from the boundary
    identities Gamma0(0) = 0 and s0(0) = Delta.
    """
    grid = np.linspace(0.0, 10.0, points)
    worst = boundary = 0.0
    for _ in range(sets):
        env = LorentzianEnvironment(lam=float(rng.uniform(0.05, 5.0)),
                                    cavity_detuning=float(rng.uniform(-1, 1)),
                                    drive_detuning=float(rng.uniform(-1, 1)))
        worst = max(worst, float(np.max(np.abs(propagator_u(env, grid)
                                               - _expm_propagator(env, grid)))))
        gam0, shift0 = decay_and_shift(env, 0.0)
        boundary = max(boundary, abs(gam0), abs(shift0 - env.drive_detuning))
    return worst, boundary


def _suite_solver(rng: np.random.Generator, instances: int) -> tuple[float, float]:
    """Closed-form two-level controls vs the generic linear solve on
    ``instances`` random states and velocities.

    Returns the worst deviation between the two and the worst residual of
    the velocity that the closed-form controls give back when substituted
    into the component-form generator.  The closed form solves all instances
    in one call on their stack.
    """
    basis = build_basis(2)
    tensors = structure_constants(basis)
    draws = []
    for _ in range(instances):
        r = random_bloch_vector(2, rng, 0.95)
        while abs(r[2]) < 0.1:
            r = random_bloch_vector(2, rng, 0.95)
        draws.append((r, rng.normal(size=3), rng.uniform(0.1, 2.0), rng.normal()))
    r_all, rdot_all, gam_all, shift_all = map(np.array, zip(*draws))
    controls = np.column_stack(two_level_controls(r_all, rdot_all, gam_all, shift_all))
    worst = back = 0.0
    for r, rdot, gam, shift, closed in zip(r_all, rdot_all, gam_all, shift_all, controls):
        channels = [
            lv.LindbladChannel(SIGMA_MINUS_SHAPE, rate=gam, control_index=None),
            lv.LindbladChannel(SIGMA_MINUS_SHAPE, rate=gam, control_index=0),
            lv.LindbladChannel(SIGMA_PLUS_SHAPE, rate=gam, control_index=0),
        ]
        drift = lv.HamiltonianSpec([shift / 2, 0.0, 0.0, shift / 2])
        system = assemble_control_system(r, rdot, (1, 2), channels, tensors, drift=drift)
        generic = solve_controls(system).values
        worst = max(worst, float(np.max(np.abs(generic - closed))))
        ham = lv.HamiltonianSpec([shift / 2, closed[0], closed[1], shift / 2])
        chans = [lv.LindbladChannel(SIGMA_MINUS_SHAPE, rate=gam * (closed[2] + 1)),
                 lv.LindbladChannel(SIGMA_PLUS_SHAPE, rate=gam * closed[2])]
        field = lv.assemble_components(ham, chans, tensors).apply(r)
        back = max(back, float(np.max(np.abs(field - rdot))))
    return worst, back


def run_selfcheck(perturb_f: float = 0.0, stream=None) -> int:
    """Run the oracle suites and print one pass/fail line each.

    ``perturb_f`` injects a uniform offset into the structure constants
    before the equivalence suite (a fault-injection hook for testing the
    selfcheck itself).  Returns 0 if every suite passes, 1 otherwise.
    """
    import sys
    stream = stream or sys.stdout
    suites = [
        ("liouvillian component form vs kronecker oracle",
         lambda: _suite_liouvillian(np.random.default_rng(2024), 50, perturb_f),
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
