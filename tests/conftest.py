from dataclasses import replace

import numpy as np
import pytest

from blochsteer import (LorentzianEnvironment, TrajectorySpec, build_basis,
                        find_gamma_negmax, find_gamma_zero, structure_constants,
                        tune_detuning_for_lamb_zero)


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
    """Narrow-reservoir configuration with derived detuning and switch times."""
    template = LorentzianEnvironment(lam=0.1, cavity_detuning=0.1)
    t_break = find_gamma_zero(template)
    env = replace(template, drive_detuning=tune_detuning_for_lamb_zero(template, t_break))
    t_final = find_gamma_negmax(env, t_break)
    return env, t_break, t_final


@pytest.fixture(scope="session")
def hold():
    """Factory of hold trajectories: the state stays at r_target on [0, t_final]."""
    def make(r_target, t_final: float) -> TrajectorySpec:
        r_target = np.asarray(r_target, dtype=float)

        def evaluator(t):
            return np.tile(r_target, (len(t), 1)), np.zeros((len(t), 3))
        return TrajectorySpec(t_final=float(t_final), _evaluator=evaluator)
    return make


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)
