import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochsteer
from blochsteer.cli import _SCANNABLE, EXPERIMENTS, ExperimentConfig, main, parse_config_text
from blochsteer.errors import ConfigError, MalformedStateError

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
    return parse_csv(Path(path).read_text())


def parse_csv(text):
    lines = text.strip().splitlines()
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
                                        ("t_final", "inf")])
def test_nonpositive_or_nonfinite_times_exit_2_without_files(tmp_path, capsys, key, value):
    from blochsteer.cli import main
    cfg = write_cfg(tmp_path, TRACK_CFG + f"{key} = {value}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {key} must be finite")
    assert list(out.iterdir()) == []


def test_config_file_that_is_not_utf8_exits_2_without_files(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(TRACK_CFG.encode() + b"# \xff\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config file {cfg}: ")
    assert "can't decode byte 0xff" in err and err.count("\n") == 1
    assert not out.exists()
    # a directory is no config file either
    assert main(["run", "--config", str(tmp_path), "--out", str(out)]) == 2
    assert not out.exists()


ENV_SCAN_LINES = ["experiment = env-scan", "spectral_width = 0.1", "cavity_detuning = 0.1",
                  "t_final = 8.0", "grid = 100"]


@pytest.mark.parametrize("lines", [
    ["experiment = invert-pure", "spectral_width = inf"],
    ["experiment = invert-pure", "spectral_width = 0.1", "drive_detuning = nan"],
    ENV_SCAN_LINES + ["scan_parameter = spectral_width", "scan_values = -1.0, 0.5"],
    ENV_SCAN_LINES + ["scan_parameter = cavity_detuning", "scan_values = nan"],
    # no numpy array holds 2**60 floats; 10**20 is not even an int64
    MIXED_CFG.split("\n")[1:] + ["grid = 100000000000000000000"],
    MIXED_CFG.split("\n")[1:] + ["min_steps = 100000000000000000000"],
], ids=["spectral_width-inf", "drive_detuning-nan",
        "scan-spectral_width-negative", "scan-cavity_detuning-nan",
        "grid-1e20", "min_steps-1e20"])
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
PATH_NOT_FINITE = "InvalidInputError: steady-state path is not finite at t = "


@pytest.mark.parametrize("experiment, override, message", [
    *[(experiment, override, D_NOT_FINITE) for experiment in EXTREME_CONFIGS
      for override in ("spectral_width=1e308", "cavity_detuning=1e308",
                       "cavity_detuning=-1e308")],
    ("env-scan", "t_final=1e308", "InvalidInputError: scan value drive_detuning = 0.0: "
                                  "decay_rate is not finite at t = "),
    # the steady-state path overflows: named with its t, without numpy warnings
    *[("track-steady", override, PATH_NOT_FINITE)
      for override in ("drive_detuning=1e200", "omega_c=1e308",
                       "omega_c=-1e308", "omega_c=1e200", "n0=1e308", "n0=1e200")],
    # the reservoir closed forms overflow: the decay rate or |u| is named with its t
    ("track-steady", "drive_detuning=1e308", U_NOT_FINITE),
    ("track-steady", "drive_detuning=-1e308", U_NOT_FINITE),
    ("track-steady", "t_final=1e200", RATE_NOT_FINITE),
    ("track-steady", "t_final=1e308", RATE_NOT_FINITE),
])
def test_extreme_finite_values_exit_3_with_one_line_and_no_files(tmp_path, experiment,
                                                                 override, message):
    cfg = write_cfg(tmp_path, EXTREME_CONFIGS[experiment])
    out = tmp_path / "out"
    overrides = [arg for item in override.split() for arg in ("--override", item)]
    cp = run_cli("run", "--config", str(cfg), "--out", str(out), *overrides,
                 "--override", "grid=100", "--override", "min_steps=100")
    assert cp.returncode == 3
    assert cp.stderr.startswith(f"numerical failure in {experiment}: {message}")
    assert cp.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("experiment, override, named", [
    *[(experiment, override, named) for experiment in ("invert-pure", "invert-mixed")
      for override, named in (("t_final=10", "t_final"),
                              ("drive_detuning=0", "drive_detuning"),
                              ("t_break=6", "t_break"),
                              ("drive_detuning=0 t_final=10", "drive_detuning and t_final"))],
    # settings that once reached numerical guards of the trajectory and the
    # reservoir; the library tests of those guards call them directly
    ("invert-mixed", "t_break=1e-300", "t_break"),
    ("invert-mixed", "t_final=1e308", "t_final"),
    ("invert-mixed", "spectral_width=1e-20 drive_detuning=0 t_break=1e19", "t_break"),
    ("invert-mixed", "t_break=1e200", "t_break"),
    ("invert-mixed", "drive_detuning=1e308", "drive_detuning"),
    ("invert-mixed", "drive_detuning=-1e308", "drive_detuning"),
    ("invert-pure", "t_final=1e200", "t_final"),
])
def test_inversion_setup_overrides_exit_2_with_one_line_and_no_files(tmp_path, capsys,
                                                                     experiment, override,
                                                                     named):
    # an inversion derives its drive detuning, t_i and t_final from the reservoir
    cfg = write_cfg(tmp_path, EXTREME_CONFIGS[experiment])
    out = tmp_path / "out"
    overrides = [arg for item in override.split() for arg in ("--override", item)]
    assert main(["run", "--config", str(cfg), "--out", str(out), *overrides]) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown configuration key 't_break'\n" if named == "t_break"
        else f"configuration error: {named} cannot be set for {experiment}, which derives "
             "drive_detuning and t_final from the reservoir\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["-0.3", "-0.5", "-2"])
def test_negative_thermal_occupation_exits_2_with_one_line_and_no_files(tmp_path, value):
    # a configuration error, not a numerical failure of the tracking path
    cfg = write_cfg(tmp_path, TRACK_CFG)
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(cfg), "--out", str(out), "--override", f"n0={value}")
    assert cp.returncode == 2
    assert cp.stderr == ("configuration error: n0 must be nonnegative "
                         "(a thermal occupation number)\n")
    assert not out.exists()


def test_a_run_imports_no_scipy(tmp_path):
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "mixed_inversion.cfg"
    cp = run_python("-c", "import sys; from blochsteer import cli; "
                          f"cli.run(cli.load_config({str(config)!r}), {str(tmp_path)!r}); "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "states.csv").exists()
    assert cp.stdout == "[]\n"


def test_importing_the_package_loads_no_cli_selfcheck_argparse_or_scipy():
    # perfbench's setup_s times a fresh "import blochsteer"; the command line,
    # the oracle suites and their imports load only when they are used
    cp = run_python("-c", "import sys, blochsteer; "
                          "print(sorted(m for m in sys.modules if m in "
                          "('blochsteer.cli', 'blochsteer.selfcheck', 'argparse') "
                          "or m.split('.')[0] == 'scipy'))")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\n"


def test_selfcheck_imports_no_scipy():
    # the propagator oracle is a numpy Pade matrix exponential
    cp = run_python("-c", "import io, sys; from blochsteer.selfcheck import run_selfcheck; "
                          "code = run_selfcheck(stream=io.StringIO()); "
                          "print(code, sorted(m for m in sys.modules "
                          "if m.split('.')[0] == 'scipy'))")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "0 []\n"


@pytest.mark.parametrize("stem, experiment, zero", [
    # u has a real zero near t = 4.837 between the fine-grid samples (|u| >= 7.2e-6
    # on them): it is named, not left to the forward run's ball check
    ("tracking", "track-steady", "4.836798305, between the grid samples t = 4.83675 and "
                                 "t = 4.837"),
    # the first + -> - crossing of Gamma0 in the setup scan is a pole at a real zero
    # of u, not a decay-rate zero to switch at
    ("pure_inversion", "invert-pure", "8.242034312, between the grid samples t = 8.235 and "
                                      "t = 8.2425"),
    ("mixed_inversion", "invert-mixed", "8.242034312, between the grid samples t = 8.235 and "
                                        "t = 8.2425"),
])
def test_unresolved_propagator_zero_exits_3_with_one_line_and_no_files(tmp_path, stem,
                                                                       experiment, zero):
    # at zero cavity detuning u is real up to the drive's phase and has real zeros
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / f"{stem}.cfg"
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(config), "--out", str(out),
                 "--override", "cavity_detuning=0")
    assert cp.returncode == 3
    assert cp.stderr == (f"numerical failure in {experiment}: PropagatorZeroError: propagator "
                         f"has a zero at t = {zero}\n")
    assert not out.exists()


def test_far_apart_singular_samples_run(tmp_path):
    # the controls are singular at t = 0 and at t_final / 2, where w = e^{i Delta t} u
    # has turned by more than 90 degrees from its value at the first probe; u has
    # no zero in between, so the run completes
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "pure_inversion.cfg"
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(config), "--out", str(out),
                 "--override", "spectral_width=1.0")
    assert cp.returncode == 0, cp.stderr
    assert "t_break = 4.83680902716762\n" in cp.stdout


def test_tracking_exits_0_at_zero_drive_detuning(tmp_path):
    # at t = 0 the ramp, the decay rate and the Lamb shift all vanish: the path
    # starts in the thermal state with its t -> 0+ slope
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "tracking.cfg"
    out = tmp_path / "out"
    cp = run_cli("run", "--config", str(config), "--out", str(out),
                 "--override", "drive_detuning=0")
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    summary = dict(line.split(" = ") for line in cp.stdout.splitlines())
    assert float(summary["min_fidelity"]) >= 0.999
    _, controls = read_csv(out / "controls.csv")
    assert np.all(np.isfinite(controls))


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


@pytest.mark.parametrize("stem, experiment", [("tracking", "track-steady"),
                                              ("env_scan", "env-scan")])
def test_unallocatable_grid_exits_3_with_one_line_and_no_files(tmp_path, capsys, stem,
                                                               experiment):
    # 10^15 + 1 output times are 8 PB: numpy refuses the allocation at once
    out = tmp_path / "out"
    n = 10 ** 15
    assert main(["run", "--config", str(REPO / "scripts" / "configs" / f"{stem}.cfg"),
                 "--out", str(out), "--override", f"grid={n}",
                 "--override", f"min_steps={n}"]) == 3
    assert capsys.readouterr().err == (
        f"numerical failure in {experiment}: InvalidInputError: a grid of {n + 1} "
        "output times does not fit in memory\n")
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    # below 2**60, so a valid config, but numpy refuses the array outright
    ("grid=1152921504606846975", "a grid of 1152921504606846976 output times does not fit "
                                 "in memory"),
    ("min_steps=576460752303423488", "576460752303424000 RK4 steps need a fine grid of "
                                     "1152921504606848001 nodes, which does not fit in memory"),
], ids=["grid", "min_steps"])
def test_counts_numpy_cannot_index_exit_3_with_one_line_and_no_files(tmp_path, capsys,
                                                                     override, message):
    out = tmp_path / "out"
    assert main(["run", "--config", str(REPO / "scripts" / "configs" / "mixed_inversion.cfg"),
                 "--out", str(out), "--override", override]) == 3
    assert capsys.readouterr().err == ("numerical failure in invert-mixed: InvalidInputError: "
                                       f"{message}\n")
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
    # each override is one more config line: the last line of a key wins and a
    # '#' starts a comment
    cp = run_cli("run", "--config", str(cfg), "--out", str(out), "--override", "grid=32",
                 "--override", "grid=64 # the later line wins", "--override", "omega_c=5.0",
                 "--override", "min_steps=1000")
    assert cp.returncode == 0, cp.stderr
    _, data = read_csv(out / "states.csv")
    assert data.shape[0] == 65
    _, ctrl = read_csv(out / "controls.csv")
    # ramp tops out at the overridden drive strength
    assert abs(ctrl[-1, 1]) < 6.0


def test_env_scan_takes_a_grid_above_min_steps(tmp_path):
    # env-scan integrates nothing, so the min_steps >= grid rule is not its own
    config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "env_scan.cfg"
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--override", "grid=30000"]) == 0
    header, data = read_csv(out / "env_003.csv")
    assert header == ["t", "decay_rate", "lamb_shift"] and data.shape == (30001, 3)
    with pytest.raises(ConfigError, match="min_steps must be at least the grid size"):
        parse_config_text(TRACK_CFG + "grid = 30000\n")


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


def test_selfcheck_fault_injection(monkeypatch, capsys):
    # an offset in the structure constants breaks the component form, which
    # the Kronecker oracle must catch
    from blochsteer import selfcheck
    structure_constants = selfcheck.structure_constants

    def faulty(basis):
        tensors = structure_constants(basis)
        return replace(tensors, f=tensors.f + 0.01)
    monkeypatch.setattr(selfcheck, "structure_constants", faulty)
    assert main(["selfcheck"]) == 1
    assert "FAIL liouvillian component form vs kronecker oracle" in capsys.readouterr().out


def test_detuning_protocol_csv_columns(tmp_path, tracking_env, hold):
    # the controls writer emits the schedule's FIELDS in order: with the
    # x-detuning protocol gone there is no detuning_r column
    from blochsteer.cli import _write_run_files
    from blochsteer.controls import FIELDS, schedule_from_trajectory
    from blochsteer.simulator import integrate_bloch

    r_target = np.array([0.0, 0.45, -0.5])
    path = hold(r_target, 3.0)
    times = np.linspace(0.0, 3.0, 61)
    sched = schedule_from_trajectory(path, tracking_env, times)
    run = integrate_bloch(sched, tracking_env, r_target, times, min_steps=600,
                          reference=path.sample(times)[0])
    files = _write_run_files(tmp_path, times, sched, run, tracking_env)
    assert files == ["states.csv", "controls.csv", "env.csv"]
    header, data = read_csv(tmp_path / "controls.csv")
    assert header == ["t", *FIELDS] == ["t", "omega_x", "omega_y", "excitation"]
    expected = np.column_stack([times, *(getattr(sched, name) for name in FIELDS)])
    assert np.allclose(data, expected, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("experiment", ["invert-mixed", "invert-pure"])
def test_derived_inversion_finds_the_decay_zero_once(tmp_path, monkeypatch, experiment):
    # the decay rate does not depend on the drive detuning: one t_i serves the
    # detuning tuning and t_break
    from blochsteer import cli, environment
    calls = []
    find_gamma_zero = environment.find_gamma_zero
    for module in (cli, environment):
        monkeypatch.setattr(module, "find_gamma_zero",
                            lambda env: calls.append(env) or find_gamma_zero(env))
    config = ExperimentConfig(experiment=experiment, spectral_width=0.1,
                              cavity_detuning=0.1, grid=400, min_steps=400)
    summary = cli.run(config, tmp_path)
    assert len(calls) == 1 and calls[0].drive_detuning == 0.0
    assert summary["t_break"] == find_gamma_zero(calls[0])


@pytest.mark.parametrize("make", [
    lambda: replace(parse_config_text(TRACK_CFG), grid=8),
    lambda: replace(parse_config_text(TRACK_CFG), grid=float("nan")),
    lambda: ExperimentConfig(experiment="env-scan", spectral_width=0.1),
    lambda: ExperimentConfig(experiment="invert-mixed", spectral_width=0.1, t_final=9.2),
    lambda: replace(parse_config_text(MIXED_CFG), drive_detuning=-0.7),
], ids=["replace-grid", "replace-grid-nan", "env-scan-without-scan", "inversion-t_final",
        "replace-inversion-drive_detuning"])
def test_every_construction_is_validated(make):
    with pytest.raises(ConfigError):
        make()


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
        cli.run(replace(config, grid=grid, min_steps=grid), out_dir=tmp_path / str(grid))
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["evaluate"] > 0 and counts[0]["decay_and_shift"] > 0


@pytest.mark.xfail(strict=True, raises=MalformedStateError,
                   reason="grid-dependent verdict: at grid 200 the forward |r| reaches "
                          "1 + 1.05e-8 at t = 8.03; ROADMAP item 1 (exact controls at the "
                          "RK4 stages) is the fix")
def test_bundled_pure_inversion_gives_one_verdict_at_every_grid(tmp_path):
    # the verdict of a designed path must not depend on the output grid: the
    # run completes at grids 200, 400 and 800 alike
    from blochsteer import cli
    config = cli.load_config(Path(__file__).resolve().parents[1]
                             / "scripts" / "configs" / "pure_inversion.cfg")
    for grid in (200, 400, 800):
        summary = cli.run(replace(config, grid=grid), out_dir=tmp_path / str(grid))
        assert summary["files"] == "states.csv,controls.csv,env.csv"


@pytest.mark.parametrize("min_steps", [2000, 20000])
@pytest.mark.parametrize("stem", ["tracking", "pure_inversion", "mixed_inversion"])
def test_one_fine_grid_reservoir_table_per_run(tmp_path, monkeypatch, stem, min_steps):
    # the 2 min_steps + 1 step nodes and half steps are evaluated once per run:
    # tracking's controlled and reference-protocol runs share one table
    from blochsteer import cli, environment
    decay_and_shift = environment.decay_and_shift
    fine_calls = []

    def counted(env, t):
        if np.size(t) == 2 * min_steps + 1 and np.ravel(t)[0] == 0.0:
            fine_calls.append(env)
        return decay_and_shift(env, t)
    for module in list(vars(blochsteer).values()) + [blochsteer]:
        if getattr(module, "decay_and_shift", None) is decay_and_shift:
            monkeypatch.setattr(module, "decay_and_shift", counted)
    config = cli.load_config(Path(__file__).resolve().parents[1]
                             / "scripts" / "configs" / f"{stem}.cfg")
    cli.run(replace(config, min_steps=min_steps), out_dir=tmp_path)
    assert len(fine_calls) == 1


def test_sinhc_runs_once_per_log_derivative(tmp_path, monkeypatch):
    from blochsteer import cli, environment
    log_derivative, sinhc = environment._log_derivative, environment._sinhc
    calls = {"log_derivative": 0, "sinhc_inside": 0}
    inside = []

    def counted_log_derivative(env, t):
        calls["log_derivative"] += 1
        inside.append(True)
        try:
            return log_derivative(env, t)
        finally:
            inside.pop()

    def counted_sinhc(z):
        calls["sinhc_inside"] += bool(inside)
        return sinhc(z)
    monkeypatch.setattr(environment, "_log_derivative", counted_log_derivative)
    monkeypatch.setattr(environment, "_sinhc", counted_sinhc)
    cli.run(parse_config_text(TRACK_CFG), out_dir=tmp_path)
    assert calls["log_derivative"] > 0
    assert calls["sinhc_inside"] == calls["log_derivative"]


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
    [], ["experiment = invert-pure", "spectral_width = 0.1"],
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
    assert replace(config) == config   # constructing it again passes the same checks
    for f in fields(config):
        value = getattr(config, f.name)
        assert value is None or type(value) is f.type


def test_run_all_experiments_writes_every_config(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    cp = run_python(str(script), "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    stems = sorted(p.stem for p in script.parent.glob("configs/*.cfg"))
    assert stems == ["env_scan", "mixed_inversion", "pure_inversion", "tracking"]
    assert cp.stdout.count("== ") == len(stems) + 1   # the configs, then selfcheck
    assert sorted(p.name for p in tmp_path.iterdir()) == stems
    assert sorted(p.name for p in (tmp_path / "env_scan").iterdir()) == [
        f"env_{i:03d}.csv" for i in range(4)]
    for stem in ("mixed_inversion", "pure_inversion", "tracking"):
        assert sorted(p.name for p in (tmp_path / stem).iterdir()) == [
            "controls.csv", "env.csv", "states.csv"]
    assert cp.stdout.count("PASS") == 3   # the selfcheck suites; selfcheck writes no file


@pytest.mark.parametrize("failing", ["tracking.cfg", "selfcheck"])
def test_run_all_experiments_exits_1_when_a_config_fails(tmp_path, monkeypatch, failing):
    import importlib.util
    from blochsteer import cli
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or
                        (3 if any(arg.endswith(failing) for arg in argv) else 0))
    assert module.main(["--out", str(tmp_path)]) == 1
    assert [argv[0] for argv in calls] == ["run"] * 4 + ["selfcheck"]


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("stem", ["tracking", "pure_inversion", "mixed_inversion"])
def test_shipped_configs_match_the_recorded_outputs(tmp_path, stem):
    # the benchmark's rule: each column within 1e-9 of max(1, its largest magnitude)
    import gzip
    from blochsteer import cli
    cli.run(cli.load_config(REPO / "scripts" / "configs" / f"{stem}.cfg"), tmp_path)
    for name in ("states.csv", "controls.csv", "env.csv"):
        recorded = (REPO / "perfbench" / "reference" / stem / f"{name}.gz").read_bytes()
        header, data = read_csv(tmp_path / name)
        ref_header, ref = parse_csv(gzip.decompress(recorded).decode())
        assert header == ref_header and data.shape == ref.shape, name
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=0))
        assert np.all(np.abs(data - ref) <= 1e-9 * scale), name


FILES = "states.csv,controls.csv,env.csv"
SHIPPED_SUMMARIES = {
    "tracking": [("experiment", "track-steady"), ("min_fidelity", 0.999999999999988),
                 ("adiabatic_min_fidelity", 0.675264294009497), ("files", FILES)],
    "pure_inversion": [("experiment", "invert-pure"), ("drive_detuning", -0.679293196648359),
                       ("t_break", 8.02562430580751), ("t_final", 16.051248611615),
                       ("min_fidelity", 0.999999999999877), ("final_fidelity", 1.000000000001),
                       ("final_r_z", 1.0000000000344), ("min_excitation", -1.0),
                       ("files", FILES)],
    "mixed_inversion": [("experiment", "invert-mixed"), ("drive_detuning", -0.679293196648359),
                        ("t_break", 8.02562430580751), ("t_final", 9.25261228703269),
                        ("min_fidelity", 0.999999999999881), ("final_fidelity", 1.000000000001),
                        ("final_r_z", 1.00000000775565), ("min_excitation", -0.121441761657286),
                        ("files", FILES)],
    "env_scan": [("experiment", "env-scan"),
                 ("files", "env_000.csv,env_001.csv,env_002.csv,env_003.csv"),
                 ("scan_parameter", "spectral_width")],
}


def test_the_shipped_setup_keeps_its_bits():
    # lambda = 0.1, delta = 0.1: the three setup searches to the last bit, not
    # only to the summaries' 1e-9
    from blochsteer import cli
    env, _, derived = cli._setup(ExperimentConfig(experiment="invert-mixed", spectral_width=0.1,
                                                  cavity_detuning=0.1))
    assert float(derived["t_break"]).hex() == "0x1.00d1ea106da1ap+3"
    assert float(env.drive_detuning).hex() == "-0x1.5bcc516000000p-1"
    assert float(derived["t_final"]).hex() == "0x1.2815665cebf12p+3"


@pytest.mark.parametrize("stem", sorted(SHIPPED_SUMMARIES))
def test_shipped_summaries_print_their_keys_in_order_as_15g(tmp_path, capsys, stem):
    # the figures are those of the bundled outputs, within the benchmark's 1e-9
    config = REPO / "scripts" / "configs" / f"{stem}.cfg"
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    printed = [line.split(" = ") for line in capsys.readouterr().out.splitlines()]
    assert [key for key, _ in printed] == [key for key, _ in SHIPPED_SUMMARIES[stem]]
    for (key, text), (_, expected) in zip(printed, SHIPPED_SUMMARIES[stem]):
        if isinstance(expected, str):
            assert text == expected, key
        else:
            assert text == "%.15g" % float(text), key
            assert abs(float(text) - expected) <= 1e-9 * max(1.0, abs(expected)), key


SCAN_WITHOUT_T_FINAL = ["experiment = env-scan", "spectral_width = 0.1",
                        "scan_parameter = spectral_width", "scan_values = 0.1, 0.5"]


@pytest.mark.parametrize("lines, message", [
    (["experiment = track-steady", "spectral_width = 0.5", "t_final = 10"],
     "track-steady requires drive_detuning and t_final"),
    (["experiment = track-steady", "spectral_width = 0.5", "drive_detuning = 0.1"],
     "track-steady requires drive_detuning and t_final"),
    (["experiment = track-steady", "spectral_width = 0.5"],
     "track-steady requires drive_detuning and t_final"),
    (SCAN_WITHOUT_T_FINAL, "env-scan requires t_final"),
    (SCAN_WITHOUT_T_FINAL + ["scan_parameter = n0"],
     f"scan_parameter must be one of {_SCANNABLE}"),
    (SCAN_WITHOUT_T_FINAL + ["scan_values = "], "scan_values must list at least one value"),
], ids=["track-no-drive_detuning", "track-no-t_final", "track-neither", "scan-no-t_final",
        "scan-bad-parameter-first", "scan-no-values-first"])
def test_each_experiment_names_the_keys_it_requires(lines, message):
    # a scan's own checks come before its t_final requirement
    with pytest.raises(ConfigError) as err:
        parse_config_text("\n".join(lines))
    assert str(err.value) == message


class _Stopped(Exception):
    pass


@pytest.mark.parametrize("stem", ["tracking", "pure_inversion", "mixed_inversion"])
def test_first_bloch_run_gets_the_solved_schedule_and_the_path_start(tmp_path, monkeypatch,
                                                                      stem):
    # the benchmark's oracle workload patches cli.integrate_bloch, reads the
    # first call's arguments and stops the run there
    import inspect
    from blochsteer import cli
    config = cli.load_config(REPO / "scripts" / "configs" / f"{stem}.cfg")
    solved, calls = [], []
    schedule_from_trajectory = cli.schedule_from_trajectory
    signature = inspect.signature(cli.integrate_bloch)

    def solve(trajectory, env, times):
        solved.append((trajectory, env, schedule_from_trajectory(trajectory, env, times)))
        return solved[-1][2]

    def capture(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        raise _Stopped
    monkeypatch.setattr(cli, "schedule_from_trajectory", solve)
    monkeypatch.setattr(cli, "integrate_bloch", capture)
    out = tmp_path / "out"
    with pytest.raises(_Stopped):
        cli.run(config, out)
    assert not out.exists()
    (trajectory, env, schedule), = solved
    args = calls[0]
    assert args["schedule"] is schedule and args["env"] is env
    if config.drive_detuning is None:   # an inversion derives its detuning
        template = replace(env, drive_detuning=0.0)
        expected = cli.tune_detuning_for_lamb_zero(template, cli.find_gamma_zero(template))
    else:
        expected = config.drive_detuning
    assert env.drive_detuning == expected and env.lam == config.spectral_width
    assert np.array_equal(args["r0"], trajectory.evaluate(0.0)[0])
    assert len(args["times"]) == config.grid + 1
    # the config leaves min_steps unset: the count chosen for this schedule
    assert args["min_steps"] == cli.choose_min_steps(schedule, env, args["r0"], args["times"])


@pytest.mark.parametrize("stem, runs", [("tracking", 2), ("pure_inversion", 1),
                                        ("mixed_inversion", 1), ("env_scan", 0)])
def test_every_forward_run_goes_through_the_one_call_site(tmp_path, monkeypatch, stem, runs):
    # tracking's reference protocol is a second schedule through the same
    # cli.integrate_bloch call: the bare ramp, omega_y = 0 and N = n0, from the
    # same start, checked against the same path, on the same reservoir table
    import inspect
    from blochsteer import cli
    from blochsteer.trajectories import reference_ramp
    config = cli.load_config(REPO / "scripts" / "configs" / f"{stem}.cfg")
    integrate, calls = cli.integrate_bloch, []
    signature = inspect.signature(integrate)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return integrate(*args, **kwargs)
    monkeypatch.setattr(cli, "integrate_bloch", spy)
    cli.run(config, tmp_path)
    assert len(calls) == runs
    if runs < 2:
        return
    controlled, reference = calls
    for name in ("env", "r0", "times", "reference", "reservoir"):
        assert reference[name] is controlled[name], name
    assert controlled["reservoir"] is not None
    # the config leaves min_steps unset: both runs take the count chosen once,
    # for the controlled schedule
    chosen = cli.choose_min_steps(controlled["schedule"], controlled["env"], controlled["r0"],
                                  controlled["times"])
    assert reference["min_steps"] == controlled["min_steps"] == chosen
    schedule = reference["schedule"]
    assert schedule is not controlled["schedule"]
    assert np.array_equal(schedule.times, controlled["times"])
    assert np.array_equal(schedule.omega_x,
                          reference_ramp(config.omega_c, config.t_final, schedule.times))
    assert np.array_equal(schedule.omega_y, np.zeros(config.grid + 1))
    assert np.array_equal(schedule.excitation, np.full(config.grid + 1, config.n0))


def test_an_explicit_min_steps_is_run_as_given_without_the_probe(tmp_path, monkeypatch):
    from blochsteer import cli

    def probe(*args):
        raise AssertionError("the step count was chosen")
    integrate, counts = cli.integrate_bloch, []

    def spy(*args, min_steps, **kwargs):
        counts.append(min_steps)
        return integrate(*args, min_steps=min_steps, **kwargs)
    monkeypatch.setattr(cli, "choose_min_steps", probe)
    monkeypatch.setattr(cli, "integrate_bloch", spy)
    config = cli.load_config(REPO / "scripts" / "configs" / "tracking.cfg")
    cli.run(replace(config, min_steps=3000), tmp_path)
    assert counts == [3000, 3000]


@pytest.mark.parametrize("grid", [16, 2000])
def test_a_count_at_the_cap_is_the_default_run_to_the_bit(tmp_path, monkeypatch, grid):
    # at 16 output intervals the tracking estimate asks for more than the cap
    # of ceil(20000 / 16) steps per interval; at 2000, with a tolerance of
    # 1e-300, so does every estimate
    from blochsteer import cli, simulator
    if grid == 2000:
        monkeypatch.setattr(simulator, "STEP_TOLERANCE", 1e-300)
    config = replace(cli.load_config(REPO / "scripts" / "configs" / "tracking.cfg"), grid=grid)
    summaries = [cli.run(replace(config, min_steps=n), tmp_path / str(n)) for n in (None, 20000)]
    assert summaries[0] == summaries[1]
    for name in ("states.csv", "controls.csv", "env.csv"):
        assert (tmp_path / "None" / name).read_bytes() == (tmp_path / "20000" / name).read_bytes()


def test_readme_library_example_runs():
    text = (REPO / "README.md").read_text()
    example = text.split("## Library example", 1)[1].split("```python\n", 1)[1]
    example = example.split("```", 1)[0]
    printed = []
    namespace = {"print": lambda *args: printed.append(args)}
    exec(compile(example, "README.md", "exec"), namespace)
    (final_state, min_fidelity), = printed
    assert final_state[2] == pytest.approx(1.0, abs=1e-3)
    assert min_fidelity > 0.999


def test_readme_key_table_lists_every_config_key():
    text = (REPO / "README.md").read_text()
    table = text.split("| key ", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    keys = [key for cell, _ in rows for key in re.findall(r"`(\w+)`", cell)]
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
    experiments, = [meaning for cell, meaning in rows if cell.strip() == "`experiment`"]
    assert re.findall(r"`([\w-]+)`", experiments) == list(EXPERIMENTS)


CSV_FILES = ["controls.csv", "env.csv", "states.csv"]


@st.composite
def whole_runs(draw):
    """A valid config of one of the experiments at a small grid, as key = value lines."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    grid = draw(st.integers(16, 100))
    values = {"experiment": experiment, "grid": grid,
              "min_steps": draw(st.integers(grid, 1000)),
              "spectral_width": draw(st.floats(0.01, 20.0)),
              "cavity_detuning": draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))}
    # the inversions derive drive_detuning and t_final; the other two take them
    optional = {"drive_detuning": st.floats(-1.0, 1.0), "t_final": st.floats(0.5, 30.0)}
    for key, strategy in optional.items():
        if not experiment.startswith("invert-") and draw(st.booleans()):
            values[key] = draw(strategy)
    if experiment == "track-steady":
        values.setdefault("drive_detuning", draw(optional["drive_detuning"]))
        values.setdefault("t_final", draw(optional["t_final"]))
        values.update(n0=1e-5, omega_c=draw(st.floats(0.0, 10.0)))
    elif experiment == "env-scan":
        values.setdefault("t_final", draw(optional["t_final"]))
        values["scan_parameter"] = draw(st.sampled_from(_SCANNABLE))
        scan = (st.floats(0.01, 20.0) if values["scan_parameter"] == "spectral_width"
                else st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
        values["scan_values"] = ", ".join(map(repr, draw(st.lists(scan, min_size=1,
                                                                  max_size=3))))
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(whole_runs())
def test_whole_runs_exit_0_with_their_files_or_3_with_one_line_and_no_files(text):
    # the exit-code contract for valid configs: 0 with the expected files and no
    # Python warning, or 3 with one stderr line and no output directory
    config = parse_config_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        path.write_text(text)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(["run", "--config", str(path), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        if code == 3:
            assert stderr.getvalue().startswith(f"numerical failure in {config.experiment}: ")
            assert stderr.getvalue().count("\n") == 1
            assert not out.exists()
            return
        assert code == 0, stderr.getvalue()
        assert stderr.getvalue() == ""
        expected = (CSV_FILES if config.experiment != "env-scan" else
                    [f"env_{i:03d}.csv" for i in range(len(config.scan_values))])
        assert sorted(p.name for p in out.iterdir()) == expected
