import numpy as np
import pytest

from blochsteer import (ControlSchedule, LorentzianEnvironment, TrajectorySpec, build_basis,
                        integrate_bloch, reference_ramp, structure_constants,
                        tracking_trajectory)
from blochsteer.cli import ExperimentConfig, _setup


@pytest.fixture(scope="session")
def qubit():
    basis = build_basis(2)
    return basis, structure_constants(basis)


@pytest.fixture(scope="session")
def qutrit():
    basis = build_basis(3)
    return basis, structure_constants(basis)


@pytest.fixture(scope="session")
def tracking_env():
    """Strong-drive tracking configuration (decay rate stays positive)."""
    return LorentzianEnvironment(lam=0.5, cavity_detuning=0.5, drive_detuning=0.1)


@pytest.fixture(scope="session")
def inversion_setup():
    """Narrow-reservoir configuration with derived detuning and switch times,
    derived by the program's own setup (``cli._setup``)."""
    env, _, derived = _setup(ExperimentConfig(experiment="invert-mixed", spectral_width=0.1,
                                              cavity_detuning=0.1))
    return env, derived["t_break"], derived["t_final"]


@pytest.fixture(scope="session")
def hold():
    """Factory of hold trajectories: the state stays at r_target on [0, t_final]."""
    def make(r_target, t_final: float) -> TrajectorySpec:
        r_target = np.asarray(r_target, dtype=float)

        def evaluator(t):
            return np.tile(r_target, (len(t), 1)), np.zeros((len(t), 3))
        return TrajectorySpec(t_final=float(t_final), _evaluator=evaluator)
    return make


@pytest.fixture(scope="session")
def reference_protocol():
    """Factory of tracking's reference-protocol run, as ``cli.run`` makes it: the
    bare ramp, omega_y = 0 and N = n0 from the start of the tracking path,
    checked against that path."""
    def run(env, n0, omega_c, t_final, times, min_steps, reservoir=None):
        path = tracking_trajectory(env, n0, omega_c, t_final)
        ramp = reference_ramp(omega_c, t_final, times)
        schedule = ControlSchedule(times, ramp, np.zeros_like(ramp), np.full_like(ramp, n0))
        return integrate_bloch(schedule, env, path.evaluate(0.0)[0], times,
                               min_steps=min_steps, reference=path.sample(times)[0],
                               reservoir=reservoir)
    return run


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)
