"""End-to-end acceptance checks, one per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Two clauses codify published target values that are inconsistent
with the exact reservoir dynamics and fail by design rather than being
loosened (the checks are kept at their stated tolerances):

* criterion 3: the derived pulse length is asserted to be 9.1201 +- 0.01
  and the excitation number nonnegative throughout.  The decay rate of
  this reservoir does not depend on the drive detuning, and its exact
  first negative maximum sits at t = 9.2526 with depth -0.2846; a depth
  beyond 0.25 forces a negative excitation number at the endpoint for the
  fixed boundary slope 1.  Both sub-checks therefore fail while the
  derived detuning (-0.6792) and the final inversion pass.
* criterion 8: the decay rate is asserted to approach gamma0 in the
  wide-reservoir limit.  With this master-equation convention the exact
  limit is gamma0/2 (the population rate 2*Gamma0 is what approaches
  gamma0), so the first clause fails; the algebraic identity clause
  passes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from blochsteer import (LorentzianEnvironment, bloch_to_density, find_gamma_negmax,
                        find_gamma_zero, tune_detuning_for_lamb_zero)
from blochsteer.cli import ExperimentConfig, run
from blochsteer.controls import (SIGMA_MINUS_SHAPE, markovian_reduction_check,
                                 schedule_from_trajectory)
from blochsteer.environment import decay_and_shift
from blochsteer.liouvillian import (HamiltonianSpec, LindbladChannel,
                                    assemble_components)
from blochsteer.selfcheck import _suite_liouvillian, _suite_propagator, _suite_solver
from blochsteer.simulator import _homogeneous, _table_run, integrate_bloch, integrate_density
from blochsteer.sun_algebra import random_bloch_vector
from blochsteer.trajectories import (mixed_inversion_trajectory, pure_inversion,
                                     tracking_trajectory)

GRID = 2000
MIN_STEPS = 20000


def report(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def tracking_bundle(reference_protocol):
    env = LorentzianEnvironment(lam=0.5, cavity_detuning=0.5, drive_detuning=0.1)
    start = time.perf_counter()
    trajectory = tracking_trajectory(env, 1e-5, 10.0, 10.0)
    times = np.linspace(0.0, 10.0, GRID + 1)
    schedule = schedule_from_trajectory(trajectory, env, times)
    engineered = integrate_bloch(schedule, env, trajectory.evaluate(0.0)[0], times,
                                 min_steps=MIN_STEPS, reference=trajectory.sample(times)[0])
    elapsed = time.perf_counter() - start
    adiabatic = reference_protocol(env, 1e-5, 10.0, 10.0, times, MIN_STEPS)
    return env, times, schedule, engineered, adiabatic, elapsed


@pytest.fixture(scope="module")
def mixed_bundle():
    template = LorentzianEnvironment(lam=0.1, cavity_detuning=0.1)
    start = time.perf_counter()
    t_break = find_gamma_zero(template)
    env = replace(template, drive_detuning=tune_detuning_for_lamb_zero(template, t_break))
    t_final = find_gamma_negmax(env, t_break)
    trajectory = mixed_inversion_trajectory(t_break, t_final)
    times = np.linspace(0.0, t_final, GRID + 1)
    schedule = schedule_from_trajectory(trajectory, env, times)
    forward = integrate_bloch(schedule, env, np.array([0.0, 0.0, -1.0]), times,
                              min_steps=MIN_STEPS, reference=trajectory.sample(times)[0])
    elapsed = time.perf_counter() - start
    return env, t_break, t_final, times, schedule, forward, elapsed


def test_criterion_1_steady_state_tracking(tracking_bundle):
    _, _, _, engineered, _, elapsed = tracking_bundle
    min_fid = engineered.min_fidelity
    ok = min_fid >= 0.999 and elapsed < 10.0
    report(1, ok, f"tracking min fidelity {min_fid:.6f} (>= 0.999), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_2_adiabatic_comparison(tracking_bundle):
    _, _, _, engineered, adiabatic, _ = tracking_bundle
    gap = engineered.min_fidelity - adiabatic.min_fidelity
    ok = gap >= 0.01
    report(2, ok, f"adiabatic min fidelity {adiabatic.min_fidelity:.4f} vs engineered "
                  f"{engineered.min_fidelity:.6f}, gap {gap:.4f} (>= 0.01)")


def test_criterion_3_mixed_inversion(mixed_bundle):
    env, t_break, t_final, _, schedule, forward, elapsed = mixed_bundle
    final_rz = float(forward.states[-1, 2])
    min_n = float(np.min(schedule.excitation))
    clauses = {
        "final r_z": abs(final_rz - 1.0) <= 1e-3,
        "excitation nonnegative": min_n >= -1e-9,
        "derived detuning": abs(env.drive_detuning - (-0.6792)) <= 0.01,
        "derived pulse length": abs(t_final - 9.1201) <= 0.01,
        "runtime": elapsed < 10.0,
    }
    detail = (f"final r_z {final_rz:.6f}, min excitation {min_n:.4f}, "
              f"detuning {env.drive_detuning:.5f}, pulse length {t_final:.5f}, "
              f"runtime {elapsed:.2f}s; failed clauses: "
              f"{[k for k, v in clauses.items() if not v] or 'none'}")
    report(3, all(clauses.values()), detail)


def test_criterion_4_pure_inversion(mixed_bundle):
    env, t_break, _, _, _, _, _ = mixed_bundle
    t_final = 2.0 * t_break
    trajectory = pure_inversion(t_final, np.pi / 4)
    times = np.linspace(0.0, t_final, GRID + 1)
    schedule = schedule_from_trajectory(trajectory, env, times)
    forward = integrate_bloch(schedule, env, np.array([0.0, 0.0, -1.0]), times,
                              min_steps=MIN_STEPS, reference=trajectory.sample(times)[0])
    final_fid = float(forward.fidelity[-1])
    min_n = float(np.min(schedule.excitation))
    ok = final_fid >= 0.999 and min_n < 0
    report(4, ok, f"final fidelity to excited state {final_fid:.6f} (>= 0.999), "
                  f"min excitation {min_n:.3f} (< 0: kinematic but not dynamic)")


def test_criterion_5_liouvillian_oracle():
    # 50 random generators in each of dimensions 2 and 3
    worst, residual = _suite_liouvillian(np.random.default_rng(5), 50)
    ok = worst < 1e-10 and residual < 1e-12
    report(5, ok, f"component vs kronecker action on 100 random instances, "
                  f"worst deviation {worst:.2e} (< 1e-10), trace-preservation residual "
                  f"{residual:.2e} (< 1e-12)")


def test_criterion_6_closed_form_solver_equivalence():
    worst_eq, worst_back = _suite_solver(np.random.default_rng(6), 100)
    ok = worst_eq < 1e-9 and worst_back < 1e-10
    report(6, ok, f"closed form vs generic solve worst {worst_eq:.2e} (< 1e-9), "
                  f"back-substitution worst {worst_back:.2e} (< 1e-10)")


def test_criterion_7_environment_oracle():
    worst, boundary = _suite_propagator(np.random.default_rng(7), 20, 400)
    ok = worst < 1e-12 and boundary < 1e-10
    report(7, ok, f"closed-form propagator vs matrix exponential of the memory-kernel "
                  f"system, sup deviation {worst:.2e} over [0,10] for 20 parameter sets "
                  f"(< 1e-12); boundary identities exact to {boundary:.2e} (< 1e-10)")


def test_criterion_8_markovian_reduction():
    env = LorentzianEnvironment(lam=20.0)
    ts = np.linspace(3.0 / 20.0, 10.0, 2001)
    gam = decay_and_shift(env, ts)[0]
    rate_dev = float(np.max(np.abs(gam - 1.0)))
    limit_ok = rate_dev <= 0.05
    rng = np.random.default_rng(8)
    worst_identity = 0.0
    for _ in range(100):
        r = random_bloch_vector(2, rng, 0.95)
        while abs(r[2]) < 0.1:
            r = random_bloch_vector(2, rng, 0.95)
        rdot = rng.normal(size=3)
        worst_identity = max(worst_identity,
                             markovian_reduction_check(r, rdot, 1.0).identity_residual)
    identity_ok = worst_identity < 1e-12
    ok = limit_ok and identity_ok
    report(8, ok, f"|Gamma0 - gamma0| max {rate_dev:.3f} for t >= 3/lam at lam=20 "
                  f"(<= 0.05 asserted; exact limit is gamma0/2), reduction identity "
                  f"worst {worst_identity:.2e} (< 1e-12)")


def test_criterion_9_numerics_hygiene(tracking_bundle, mixed_bundle, tmp_path, qubit):
    basis, tensors = qubit
    env1, times1, sched1, run1, _, _ = tracking_bundle
    env3, _, t_final3, times3, sched3, run3, _ = mixed_bundle
    dual1 = float(np.max(np.abs(
        integrate_density(sched1, env1, bloch_to_density(run1.states[0], basis), times1,
                          min_steps=MIN_STEPS).states - run1.states)))
    dual3 = float(np.max(np.abs(
        integrate_density(sched3, env3, bloch_to_density(np.array([0.0, 0.0, -1.0]), basis),
                          times3, min_steps=MIN_STEPS).states - run3.states)))
    # fourth-order convergence on the constant-coefficient decay case
    ham = HamiltonianSpec(np.zeros(4))
    comp = assemble_components(ham, [LindbladChannel(SIGMA_MINUS_SHAPE, rate=0.9)], tensors)
    r0 = np.array([0.8, -0.2, 0.1])
    exact = np.array([0.8 * np.exp(-0.9 * 2), -0.2 * np.exp(-0.9 * 2),
                      -1.0 + 1.1 * np.exp(-2 * 0.9 * 2)])
    gens = _homogeneous(comp.matrix, comp.drift)[None]
    errs = [np.max(np.abs(_table_run(lambda t: np.ones(1), gens, np.append(r0, 1.0),
                                     np.array([0.0, 2.0]), n, r0)[-1, :-1] - exact))
            for n in (40, 80)]
    ratio = errs[0] / errs[1]
    # byte-identical reruns of a full experiment
    cfg = ExperimentConfig(experiment="invert-mixed", spectral_width=0.1,
                           cavity_detuning=0.1)
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    identical = all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
                    for f in ("states.csv", "controls.csv", "env.csv"))
    ok = dual1 < 1e-8 and dual3 < 1e-8 and 12.0 <= ratio <= 20.0 and identical
    report(9, ok, f"dual-representation deviation {dual1:.2e} / {dual3:.2e} (< 1e-8), "
                  f"step-halving ratio {ratio:.1f} (in [12,20]), byte-identical reruns: "
                  f"{identical}")
