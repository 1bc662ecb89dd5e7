import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochsteer
from blochsteer.cli import _SCANNABLE, EXPERIMENTS, ExperimentConfig, main, parse_config_text
from blochsteer.errors import ConfigError

# the child interpreter imports the same package as the tests, installed or not
PACKAGE_ROOT = str(Path(blochsteer.__file__).resolve().parents[1])

TRACK_CFG = """
experiment = track-steady
spectral_width = 0.5
cavity_detuning = 0.5
drive_detuning = 0.1
n0 = 1e-5
omega_c = 10.0
t_final = 10.0
grid = 200
min_steps = 2000
"""

MIXED_CFG = """
experiment = invert-mixed
spectral_width = 0.1
cavity_detuning = 0.1
"""


def run_python(*args):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(*args):
    return run_python("-m", "blochsteer", *args)


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "--config" in cp.stdout


def test_track_steady_run(tmp_path):
    cfg = write_cfg(tmp_path, TRACK_CFG)
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    header, data = read_csv(out / "states.csv")
    assert header == ["t", "r_x", "r_y", "r_z", "fidelity"]
    assert data.shape[0] == 201
    assert np.all(np.isfinite(data))
    assert data[:, 4].min() >= 0.999
    ctrl_header, ctrl = read_csv(out / "controls.csv")
    assert ctrl_header == ["t", "omega_x", "omega_y", "excitation"]
    env_header, envdata = read_csv(out / "env.csv")
    assert env_header == ["t", "decay_rate", "lamb_shift"]
    assert np.all(np.isfinite(envdata))
    assert "min_fidelity" in cp.stdout and "adiabatic_min_fidelity" in cp.stdout


def test_invert_mixed_derives_parameters(tmp_path):
    cfg = write_cfg(tmp_path, MIXED_CFG)
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    summary = dict(line.split(" = ") for line in cp.stdout.strip().splitlines())
    assert abs(float(summary["drive_detuning"]) + 0.6792) < 0.01
    assert abs(float(summary["final_r_z"]) - 1.0) < 1e-3
    assert 0.0 < float(summary["t_break"]) < float(summary["t_final"])


def test_malformed_config_exits_2_without_files(tmp_path):
    cfg = write_cfg(tmp_path, "experiment = track-steady\nspectral_width = -3\n")
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 2
    assert "configuration error" in cp.stderr
    assert not out.exists()
    cfg2 = write_cfg(tmp_path, "experiment = track-steady\nwobble = 3\n", "bad.cfg")
    assert run_cli("run", "--config", str(cfg2)).returncode == 2
    assert run_cli("run", "--config", str(tmp_path / "missing.cfg")).returncode == 2


@pytest.mark.parametrize("key, value", [("t_final", "-1"), ("t_final", "nan"),
                                        ("t_final", "inf"), ("t_break", "0"),
                                        ("t_break", "nan")])
def test_nonpositive_or_nonfinite_times_exit_2_without_files(tmp_path, key, value):
    from blochsteer.cli import main
    cfg = write_cfg(tmp_path, f"experiment = invert-pure\nspectral_width = 0.1\n"
                              f"cavity_detuning = 0.1\n{key} = {value}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


ENV_SCAN_LINES = ["experiment = env-scan", "spectral_width = 0.1", "cavity_detuning = 0.1",
                  "t_final = 8.0", "grid = 100"]


@pytest.mark.parametrize("lines", [
    ["experiment = invert-pure", "spectral_width = inf"],
    ["experiment = invert-pure", "spectral_width = 0.1", "gamma0 = inf"],
    ["experiment = invert-pure", "spectral_width = 0.1", "drive_detuning = nan"],
    ENV_SCAN_LINES + ["scan_parameter = spectral_width", "scan_values = -1.0, 0.5"],
    ENV_SCAN_LINES + ["scan_parameter = cavity_detuning", "scan_values = nan"],
], ids=["spectral_width-inf", "gamma0-inf", "drive_detuning-nan",
        "scan-spectral_width-negative", "scan-cavity_detuning-nan"])
def test_nonfinite_values_and_bad_scan_values_exit_2_without_files(tmp_path, lines):
    from blochsteer.cli import main
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_diverging_run_exits_3_with_one_line_and_no_files(tmp_path):
    cfg = write_cfg(tmp_path, """
experiment = track-steady
spectral_width = 0.22846
cavity_detuning = 0.23232
drive_detuning = -0.12032
n0 = 1e-5
omega_c = 7.2839
t_final = 10
grid = 2000
min_steps = 2000
""")
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 3
    assert cp.stderr == ("numerical failure in track-steady: IntegrationDivergedError: "
                         "state became non-finite at t = 9.1\n")
    assert not out.exists()


EXTREME_CONFIGS = {
    "track-steady": TRACK_CFG,
    "invert-pure": "experiment = invert-pure\nspectral_width = 0.1\ncavity_detuning = 0.1\n",
    "invert-mixed": MIXED_CFG,
    # scanning the drive detuning leaves spectral_width to the override
    "env-scan": "\n".join(ENV_SCAN_LINES + ["scan_parameter = drive_detuning",
                                           "scan_values = 0.0, 0.5"]) + "\n",
}
D_NOT_FINITE = "InvalidInputError: reservoir constant d = "
RATE_NOT_FINITE = "InvalidInputError: decay_rate is not finite at t = "
U_NOT_FINITE = "InvalidInputError: propagator magnitude is not finite at t = "


@pytest.mark.parametrize("experiment, override, message", [
    *[(experiment, override, D_NOT_FINITE) for experiment in EXTREME_CONFIGS
      for override in ("spectral_width=1e308", "cavity_detuning=1e308",
                       "cavity_detuning=-1e308")],
    ("env-scan", "gamma0=1e308", D_NOT_FINITE),
    ("env-scan", "t_final=1e308", "InvalidInputError: scan value drive_detuning = 0.0: "
                                  "decay_rate is not finite at t = "),
    ("invert-mixed", "t_break=1e-300", "InfeasibleTrajectoryError: r_y knot table: "
                                       "cubic coefficients overflow"),
    ("invert-mixed", "t_final=1e308", "InfeasibleTrajectoryError: trajectory norm is not "
                                      "finite at t = "),
    # the reservoir closed forms overflow: the decay rate or |u| is named with its t
    *[(experiment, "gamma0=1e-300", RATE_NOT_FINITE)
      for experiment in ("invert-pure", "invert-mixed")],
    ("invert-mixed", "gamma0=1e200", "RootNotFoundError: decay rate has no interior "
                                     "minimum in "),
    ("invert-mixed", "t_break=1e200", RATE_NOT_FINITE),
    ("invert-mixed", "drive_detuning=1e308", U_NOT_FINITE),
    ("invert-mixed", "drive_detuning=-1e308", U_NOT_FINITE),
    ("invert-pure", "t_final=1e200", RATE_NOT_FINITE),
])
def test_extreme_finite_values_exit_3_with_one_line_and_no_files(tmp_path, experiment,
                                                                 override, message):
    cfg = write_cfg(tmp_path, EXTREME_CONFIGS[experiment])
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out), "--override", override,
                 "--override", "grid=100", "--override", "min_steps=100")
    assert cp.returncode == 3
    assert cp.stderr.startswith(f"numerical failure in {experiment}: {message}")
    assert cp.stderr.count("\n") == 1
    assert not out.exists()


def test_overflowing_thermal_factor_exits_3_without_files(tmp_path):
    # (2 n0 + 1)^2 overflows; numpy warnings still precede the exit-3 line here
    cfg = write_cfg(tmp_path, TRACK_CFG)
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out), "--override", "n0=1e200",
                 "--override", "grid=100", "--override", "min_steps=100")
    assert cp.returncode == 3
    assert "numerical failure in track-steady" in cp.stderr
    assert not out.exists()


def test_a_run_imports_no_scipy(tmp_path):
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "mixed_inversion.cfg"
    cp = run_python("-c", "import sys; from blochsteer import cli; "
                          f"cli.run(cli.load_config({str(config)!r}), {str(tmp_path)!r}); "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "states.csv").exists()
    assert cp.stdout == "[]\n"


def test_selfcheck_imports_no_scipy_integrate():
    # the propagator oracle is a matrix exponential, not an ODE solve
    cp = run_python("-c", "import io, sys; from blochsteer.selfcheck import run_selfcheck; "
                          "code = run_selfcheck(stream=io.StringIO()); "
                          "print(code, sorted(m for m in sys.modules "
                          "if m.startswith('scipy.integrate')))")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "0 []\n"


def test_unallocatable_step_count_exits_3_with_one_line_and_no_files(tmp_path):
    # 2e15 fine-grid nodes are 16 PB: numpy refuses the allocation at once
    cfg = write_cfg(tmp_path, TRACK_CFG)
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out),
                 "--override", "min_steps=1000000000000000")
    assert cp.returncode == 3
    assert cp.stderr == ("numerical failure in track-steady: InvalidInputError: "
                         "1000000000000000 RK4 steps need a fine grid of 2000000000000001 "
                         "nodes, which does not fit in memory\n")
    assert not out.exists()


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, TRACK_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("run", "--config", str(cfg), "--out", str(out)).returncode == 0
        outs.append(out)
    for fname in ("states.csv", "controls.csv", "env.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_grid_and_override_flags(tmp_path):
    cfg = write_cfg(tmp_path, TRACK_CFG)
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out), "--override", "grid=64",
                 "--override", "omega_c=5.0", "--override", "min_steps=1000")
    assert cp.returncode == 0, cp.stderr
    _, data = read_csv(out / "states.csv")
    assert data.shape[0] == 65
    _, ctrl = read_csv(out / "controls.csv")
    # ramp tops out at the overridden drive strength
    assert abs(ctrl[-1, 1]) < 6.0


def test_env_scan(tmp_path):
    cfg = write_cfg(tmp_path, """
experiment = env-scan
spectral_width = 0.1
cavity_detuning = 0.1
drive_detuning = 0.0
scan_parameter = spectral_width
scan_values = 0.1, 1.0, 10.0
t_final = 8.0
grid = 100
""")
    out = tmp_path / "scan"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    files = sorted(out.glob("env_*.csv"))
    assert len(files) == 3
    for f in files:
        header, data = read_csv(f)
        assert header == ["t", "decay_rate", "lamb_shift"]
        assert data.shape == (101, 3)
        assert np.all(np.isfinite(data))


@pytest.mark.slow
def test_selfcheck_passes():
    import time
    start = time.perf_counter()
    cp = run_cli("selfcheck")
    elapsed = time.perf_counter() - start
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert cp.stdout.count("PASS") == 3
    assert elapsed < 60.0


@pytest.mark.slow
def test_selfcheck_fault_injection():
    cp = run_cli("selfcheck", "--perturb-f", "0.01")
    assert cp.returncode == 1
    assert "FAIL" in cp.stdout


def test_detuning_protocol_csv_columns(tmp_path, tracking_env, hold):
    # the controls writer emits the detuning column when that protocol is used
    import numpy as np
    from blochsteer.cli import _write_run_files
    from blochsteer.controls import schedule_from_trajectory
    from blochsteer.simulator import integrate_bloch

    r_target = np.array([0.0, 0.45, -0.5])
    path = hold(r_target, 3.0)
    times = np.linspace(0.0, 3.0, 61)
    sched = schedule_from_trajectory(path, tracking_env, times, protocol="x-detuning")
    run = integrate_bloch(sched, tracking_env, r_target, times, min_steps=600,
                          reference=path)
    files = _write_run_files(tmp_path, times, sched, run, tracking_env)
    assert files == ["states.csv", "controls.csv", "env.csv"]
    header, data = read_csv(tmp_path / "controls.csv")
    assert header == ["t", "omega_x", "detuning_r", "excitation"]
    assert np.all(np.isfinite(data))


def test_inversion_setup_respects_overrides():
    from blochsteer.cli import ExperimentConfig, _derive_inversion_setup
    cfg = ExperimentConfig(experiment="invert-mixed", spectral_width=0.1,
                           cavity_detuning=0.1, drive_detuning=-0.7,
                           t_break=8.0, t_final=9.2).validate()
    env, t_break, t_final = _derive_inversion_setup(cfg)
    assert env.drive_detuning == -0.7
    assert t_break == 8.0 and t_final == 9.2


@pytest.mark.parametrize("value", ["1e308", "7.0"])
def test_theta_mid_beyond_one_turn_exits_2_without_files(tmp_path, value):
    from blochsteer.cli import main
    cfg = write_cfg(tmp_path, "experiment = invert-pure\nspectral_width = 0.1\n"
                              f"cavity_detuning = 0.1\ntheta_mid = {value}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_theta_mid_of_one_turn_is_accepted():
    from blochsteer.cli import parse_config_text
    config = parse_config_text("experiment = invert-pure\nspectral_width = 0.1\n"
                               f"theta_mid = {2 * np.pi!r}\n")
    assert config.theta_mid == 2 * np.pi


def test_reservoir_and_trajectory_calls_do_not_grow_with_the_grid(tmp_path, monkeypatch):
    # the pipeline evaluates the closed forms over whole time arrays, so doubling
    # the grid must not add a single call (a per-sample loop would double them)
    from blochsteer import cli, environment
    from blochsteer.trajectories import TrajectorySpec

    calls = {"evaluate": 0, "decay_and_shift": 0}
    evaluate, decay_and_shift = TrajectorySpec.evaluate, environment.decay_and_shift

    def counted_evaluate(self, t):
        calls["evaluate"] += 1
        return evaluate(self, t)

    def counted_decay_and_shift(env, t):
        calls["decay_and_shift"] += 1
        return decay_and_shift(env, t)
    monkeypatch.setattr(TrajectorySpec, "evaluate", counted_evaluate)
    for module in list(vars(blochsteer).values()) + [blochsteer]:
        if getattr(module, "decay_and_shift", None) is decay_and_shift:
            monkeypatch.setattr(module, "decay_and_shift", counted_decay_and_shift)

    config = cli.load_config(Path(__file__).resolve().parents[1]
                             / "scripts" / "configs" / "pure_inversion.cfg")
    counts = []
    # grid 200 is left out: there the forward norm leaves the ball by 1.05e-8
    # (MalformedStateError), the grid-dependent verdict the ROADMAP records
    for grid in (400, 800):
        calls.update(evaluate=0, decay_and_shift=0)
        cli.run(cli.apply_overrides(config, [f"grid={grid}", f"min_steps={grid}"]),
                out_dir=tmp_path / str(grid))
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["evaluate"] > 0 and counts[0]["decay_and_shift"] > 0


CONFIG_KEYS = [f.name for f in fields(ExperimentConfig)]
RAW_VALUES = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-1e400", "abc", "0", "-1", "16",
                     "2000", "20000", "0.1", "1e-300", "1e308", "7.0", "0.1, 0.5", "1, x",
                     ",", *EXPERIMENTS, *_SCANNABLE, "wobble"]),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12))
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS + ["wobble", "Grid", ""]), RAW_VALUES).map(
        lambda pair: f"{pair[0]} = {pair[1]}"),
    st.sampled_from(["no equals sign", "# comment only", "", "= 3", "experiment"]))
# valid configs that the generated lines then override or break
CONFIG_BASES = st.sampled_from([
    [], ["experiment = selfcheck"], ["experiment = invert-pure", "spectral_width = 0.1"],
    TRACK_CFG.strip().splitlines(), EXTREME_CONFIGS["env-scan"].strip().splitlines()])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(CONFIG_BASES, st.lists(CONFIG_LINES, max_size=4))
def test_config_text_parses_to_a_valid_config_or_exits_2_without_files(base, lines):
    # any text: a validated config with every value of its annotated type, or a
    # ConfigError, which the CLI turns into exit 2 before any file is written
    text = "\n".join(base + lines) + "\n"
    try:
        config = parse_config_text(text)
    except ConfigError:
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
            path.write_text(text)
            assert main(["run", "--config", str(path), "--out", str(out)]) == 2
            assert not out.exists()
        return
    assert config.validate() is config
    for f in fields(config):
        value = getattr(config, f.name)
        assert value is None or type(value) is f.type


def test_run_all_experiments_writes_every_config(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    cp = run_python(str(script), "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    stems = sorted(p.stem for p in script.parent.glob("configs/*.cfg"))
    assert stems == ["env_scan", "mixed_inversion", "pure_inversion", "selfcheck", "tracking"]
    assert cp.stdout.count("== ") == len(stems)
    assert sorted(p.name for p in (tmp_path / "env_scan").iterdir()) == [
        f"env_{i:03d}.csv" for i in range(4)]
    for stem in ("mixed_inversion", "pure_inversion", "tracking"):
        assert sorted(p.name for p in (tmp_path / stem).iterdir()) == [
            "controls.csv", "env.csv", "states.csv"]
    assert cp.stdout.count("PASS") == 3   # the selfcheck suites; selfcheck writes no file


def test_run_all_experiments_exits_1_when_a_config_fails(tmp_path, monkeypatch):
    import importlib.util
    from blochsteer import cli
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or
                        (3 if argv[2].endswith("tracking.cfg") else 0))
    assert module.main(["--out", str(tmp_path)]) == 1
    assert len(calls) == 5 and all(argv[0] == "run" for argv in calls)
