import importlib
import pkgutil

import pytest

import blochsteer

MODULES = sorted(info.name for info in pkgutil.iter_modules(blochsteer.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"blochsteer.{name}")
    missing = [symbol for symbol in getattr(module, "__all__", ())
               if not hasattr(module, symbol)]
    assert missing == []


def test_removed_symbols_are_not_exported():
    from blochsteer import controls, environment, errors, simulator, trajectories
    for symbol in ("density_run_from_bloch", "snapshot", "EnvSnapshot", "_rk4_complex",
                   "pure_inversion_trajectory", "two_level_controls_detuning", "PROTOCOLS",
                   "DegenerateSteadyStateError"):
        assert not hasattr(blochsteer, symbol)
        assert not any(hasattr(module, symbol)
                       for module in (controls, environment, errors, simulator, trajectories))
    # the drive transforms moved to the module that owns the RK4 core
    assert not hasattr(environment, "renormalized_field")
    assert blochsteer.renormalized_field is simulator.renormalized_field
    assert blochsteer.lab_field_from_effective is simulator.lab_field_from_effective
