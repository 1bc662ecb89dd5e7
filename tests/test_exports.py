import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blochsteer
from blochsteer.cli import main

MODULES = sorted(info.name for info in pkgutil.iter_modules(blochsteer.__path__)
                 if info.name != "__main__")

# The intended public surface of each module: a later change that adds or
# removes a name edits this table on purpose.
PUBLIC = {
    "_cubic": ["require_uniform", "hermite_coefficients", "not_a_knot_slopes", "pieces",
               "uniform_pieces", "cubic_value", "cubic_derivative"],
    "cli": ["ExperimentConfig", "load_config", "run", "main"],
    "controls": ["SIGMA_MINUS_SHAPE", "SIGMA_PLUS_SHAPE", "SINGULARITY_TOL", "FIELDS",
                 "ControlSystem", "ControlSolution", "ControlSchedule", "ControllabilityReport",
                 "MarkovianReductionReport", "two_level_controls", "assemble_control_system",
                 "solve_controls", "markovian_reduction_check", "schedule_from_trajectory",
                 "controllability_check"],
    "environment": ["LorentzianEnvironment", "propagator_u", "decay_and_shift",
                    "decay_shift_derivatives", "find_gamma_zero", "find_gamma_negmax",
                    "tune_detuning_for_lamb_zero"],
    "errors": ["BlochSteerError", "DimensionError", "MalformedStateError",
               "MalformedLiouvillianError", "SingularControlError", "NoUniqueSolutionError",
               "InvalidInputError", "PropagatorZeroError", "RootNotFoundError",
               "IntegrationDivergedError", "InfeasibleTrajectoryError", "ConfigError"],
    "liouvillian": ["HamiltonianSpec", "LindbladChannel", "LiouvillianComponents",
                    "assemble_components", "kron_liouvillian", "components_from_kron", "vec",
                    "unvec", "trace_preservation_residual"],
    "selfcheck": ["run_selfcheck"],
    "simulator": ["SimulationRun", "DEFAULT_MIN_STEPS", "integrate_bloch", "integrate_density",
                  "integrate_density_general", "reservoir_table", "fidelity_bloch",
                  "renormalized_field", "lab_field_from_effective"],
    "sun_algebra": ["GeneratorBasis", "StructureTensors", "TRACE_NORMALIZATION", "bloch_scale",
                    "build_basis", "structure_constants", "bloch_to_density",
                    "density_to_bloch", "random_bloch_vector"],
    "trajectories": ["TrajectorySpec", "BOUNDARY_TABLE", "reference_ramp",
                     "reference_ramp_rate", "tracking_trajectory", "pure_inversion",
                     "mixed_inversion_trajectory"],
}

# The modules in pipeline order: each imports only modules before it.
PIPELINE = ["errors", "sun_algebra", "_cubic", "environment", "liouvillian", "trajectories",
            "controls", "simulator", "selfcheck", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"blochsteer.{name}")
    missing = [symbol for symbol in getattr(module, "__all__", ())
               if not hasattr(module, symbol)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_each_module_exports_its_intended_surface(name):
    module = importlib.import_module(f"blochsteer.{name}")
    assert module.__all__ == PUBLIC[name]


def test_the_package_reexports_only_public_names():
    public = {symbol for names in PUBLIC.values() for symbol in names}
    reexported = {symbol for symbol in vars(blochsteer)
                  if not symbol.startswith("_") and symbol not in MODULES}
    assert reexported <= public


def test_removed_symbols_are_not_exported():
    from blochsteer import controls, environment, errors, liouvillian, simulator, trajectories
    for symbol in ("density_run_from_bloch", "snapshot", "EnvSnapshot", "_rk4_complex",
                   "pure_inversion_trajectory", "two_level_controls_detuning", "PROTOCOLS",
                   "DegenerateSteadyStateError", "fidelity", "correlation_kernel", "max_norm",
                   "adiabatic_reference_run", "steady_state_bloch",
                   # the component form has one builder, assemble_components
                   "coherent_part", "incoherent_part", "inhomogeneous_part", "channel_matrix",
                   "channel_drift",
                   # every run, the drive transforms included, is a table run
                   "integrate_affine"):
        assert not hasattr(blochsteer, symbol)
        assert not any(hasattr(module, symbol) for module in
                       (controls, environment, errors, liouvillian, simulator, trajectories))
    # methods that no workload called
    assert not hasattr(trajectories.TrajectorySpec, "max_norm")
    assert not hasattr(controls.ControlSchedule, "t_final")
    # the drive transforms moved to the module that owns the RK4 core
    assert not hasattr(environment, "renormalized_field")
    assert blochsteer.renormalized_field is simulator.renormalized_field
    assert blochsteer.lab_field_from_effective is simulator.lab_field_from_effective
    # the controllability report lives with the schedule it reports on
    for symbol in ("controllability_check", "ControllabilityReport"):
        assert not hasattr(trajectories, symbol)
        assert getattr(blochsteer, symbol) is getattr(controls, symbol)


def relative_imports(name: str) -> set[str]:
    """The package modules that module ``name`` imports, anywhere in its source."""
    tree = ast.parse(Path(blochsteer.__file__).with_name(f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_modules_import_only_earlier_pipeline_stages():
    assert sorted(PIPELINE) == MODULES
    for i, name in enumerate(PIPELINE):
        assert relative_imports(name) <= set(PIPELINE[:i]), name


def callers(name: str) -> set[str]:
    """The package functions, as module.function, whose bodies call ``name``."""
    found = set()
    for module in MODULES:
        tree = ast.parse(Path(blochsteer.__file__).with_name(f"{module}.py").read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
                    for node in ast.walk(func)):
                found.add(f"{module}.{func.name}")
    return found


def test_the_rk4_core_has_one_caller():
    # one RK4 entry: every run is a coefficient table times fixed generators
    assert callers("_rk4_linear") == {"simulator._table_run"}


def test_t_break_is_an_unknown_config_key(tmp_path, capsys):
    # an inversion's switch time is always the derived decay-rate zero
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = invert-mixed\nspectral_width = 0.1\nt_break = 8.0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: unknown configuration key 't_break'\n"
    assert not out.exists()
