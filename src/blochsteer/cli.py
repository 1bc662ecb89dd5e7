"""Configuration-driven experiment runner.

Usage:
    blochsteer run --config experiment.cfg [--out DIR] [--override key=value ...]
    blochsteer selfcheck

Configs are line-oriented ``key = value`` text with ``#`` comments; all
frequencies are in units of the coupling gamma0.  Every run writes three CSV
files into the output directory (``--out``, default ``out``): ``states.csv``
(t, r_x, r_y, r_z, fidelity), ``controls.csv`` (t, omega_x, omega_y,
excitation) and ``env.csv`` (t, decay_rate, lamb_shift), all with
15-significant-digit values, so identical configs produce byte-identical
output.  Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .controls import FIELDS, ControlSchedule, controllability_check, schedule_from_trajectory
from .environment import (LorentzianEnvironment, decay_and_shift, find_gamma_negmax,
                          find_gamma_zero, tune_detuning_for_lamb_zero)
from .errors import BlochSteerError, ConfigError, InvalidInputError
from .selfcheck import run_selfcheck
from .simulator import choose_min_steps, integrate_bloch, reservoir_table
from .trajectories import (mixed_inversion_trajectory, pure_inversion, reference_ramp,
                           tracking_trajectory)

__all__ = ["ExperimentConfig", "load_config", "run", "main"]

_KEY_RULES = {
    "track-steady": (("drive_detuning", "t_final"), ()),
    "invert-pure": ((), ("drive_detuning", "t_final")),
    "invert-mixed": ((), ("drive_detuning", "t_final")),
    "env-scan": (("t_final",), ()),
}
"""Each experiment's (keys it requires, keys it derives from the reservoir and
so rejects when set)."""
EXPERIMENTS = tuple(_KEY_RULES)
_SCANNABLE = ("spectral_width", "cavity_detuning", "drive_detuning")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    spectral_width: float = None
    cavity_detuning: float = 0.0
    drive_detuning: float = None      # derived for inversion runs, never set there
    n0: float = 0.0
    omega_c: float = 0.0
    t_final: float = None             # derived for inversion runs, never set there
    theta_mid: float = float(np.pi / 4)
    grid: int = 2000
    min_steps: int = None             # None: chosen per run by step doubling
    scan_parameter: str = None
    scan_values: tuple = None

    def __post_init__(self):
        """Check every rule, so parsing, construction and ``dataclasses.replace``
        all give a valid config or raise ``ConfigError``."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}")
        for name, kind in _KEY_TYPES.items():
            if kind in (float, int):
                _check_value(name, getattr(self, name))
        if (self.experiment != "env-scan" and self.min_steps is not None
                and self.min_steps < self.grid):
            raise ConfigError("min_steps must be at least the grid size")
        required, derived = _KEY_RULES[self.experiment]
        overridden = [key for key in derived if getattr(self, key) is not None]
        if overridden:
            raise ConfigError(f"{' and '.join(overridden)} cannot be set for {self.experiment}, "
                              f"which derives {' and '.join(derived)} from the reservoir")
        if self.experiment == "env-scan":
            if self.scan_parameter not in _SCANNABLE:
                raise ConfigError(f"scan_parameter must be one of {_SCANNABLE}")
            if not self.scan_values:
                raise ConfigError("scan_values must list at least one value")
            for value in self.scan_values:
                try:
                    _check_value(self.scan_parameter, value)
                except ConfigError as exc:
                    raise ConfigError(f"scan value {value}: {exc}") from None
        if any(getattr(self, key) is None for key in required):
            raise ConfigError(f"{self.experiment} requires {' and '.join(required)}")


_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
"""Each configuration key with the type its value is parsed to (the annotation)."""

_VALUE_RULES = {
    "spectral_width": (lambda v: v is not None and v > 0, "must be set and positive"),
    "n0": (lambda v: v >= 0, "must be nonnegative (a thermal occupation number)"),
    # an azimuth: more than one turn is not a meaningful bump
    "theta_mid": (lambda v: abs(v) <= 2.0 * np.pi, "must lie in [-2 pi, 2 pi]"),
    "t_final": (lambda v: v is None or v > 0, "must be finite and positive when set"),
    "grid": (lambda v: v >= 16, "must be at least 16"),
}
"""Each numeric key's rule beyond being finite, with the error text that names it."""


def _check_value(name: str, value) -> None:
    """The rules of one numeric key, which every scan value obeys as well."""
    # grid and min_steps count floats of one array, and numpy holds no array
    # of 2**60 float64 values (2**63 bytes)
    if isinstance(value, int) and not abs(value) < 2 ** 60:
        raise ConfigError(f"{name} must be below 2**60 in magnitude")
    if value is not None and not np.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    if name in _VALUE_RULES:
        holds, rule = _VALUE_RULES[name]
        if not holds(value):
            raise ConfigError(f"{name} {rule}")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    if kind is str:
        return raw
    if kind is tuple:
        try:
            return tuple(float(x) for x in raw.split(",") if x.strip())
        except ValueError as exc:
            raise ConfigError(f"{key} must be comma-separated numbers: {exc}")
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {expected}, got {raw!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    """The config of ``key = value`` lines; a later line of a key wins."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        values[key] = _parse_value(key, raw)
    if "experiment" not in values:
        raise ConfigError("config must set 'experiment'")
    return ExperimentConfig(**values)


def _read_config(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(_read_config(path))


# ---------------------------------------------------------------------------
# experiment drivers


# Rows turned into Python floats and text, and written, at a time: converting
# a whole table at once leaves its many short-lived objects in the peak
# resident memory.
_CSV_CHUNK_ROWS = 256


def _time_column(times) -> list[str]:
    """Each t as ``%.15g`` with its separator: the first field of every row of
    the CSVs written on these times, formatted once for all of them."""
    return ["%.15g," % t for t in times.tolist()]


def _write_csv(path: Path, header: str, t_text: list[str], columns) -> None:
    """One line per sample: its ``_time_column`` text, then every value of
    ``columns`` as ``%.15g`` (the same text as the printed summary's floats)."""
    row = ",".join(["%.15g"] * len(columns)) + "\n"
    table = np.column_stack(columns)
    with path.open("w") as f:
        f.write(header + "\n")
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            stop = start + _CSV_CHUNK_ROWS
            f.writelines([t + row % tuple(values)
                          for t, values in zip(t_text[start:stop], table[start:stop].tolist())])


def _environment(config: ExperimentConfig, drive_detuning: float) -> LorentzianEnvironment:
    return LorentzianEnvironment(lam=config.spectral_width,
                                 cavity_detuning=config.cavity_detuning,
                                 drive_detuning=drive_detuning)


def _setup(config: ExperimentConfig):
    """(env, trajectory, derived summary entries) of a controlled experiment.

    Tracking takes its reservoir and path from the config.  An inversion
    derives them: the path crosses r_z = 0 at the decay-rate zero t_i, and the
    drive detuning is tuned so that the Lamb shift vanishes there too.  The
    decay rate does not depend on the drive detuning, so t_i is found once, at
    Delta = 0.  The mixed inversion ends at the first negative maximum of the
    decay rate past t_i, the pure one at 2 t_i.
    """
    if config.experiment == "track-steady":
        env = _environment(config, config.drive_detuning)
        return env, tracking_trajectory(env, config.n0, config.omega_c, config.t_final), {}
    template = _environment(config, 0.0)
    t_i = find_gamma_zero(template)
    env = _environment(config, tune_detuning_for_lamb_zero(template, t_i))
    if config.experiment == "invert-mixed":
        t_final = find_gamma_negmax(env, t_i)
        trajectory = mixed_inversion_trajectory(t_i, t_final)
    else:
        t_final = 2.0 * t_i
        trajectory = pure_inversion(t_final, config.theta_mid)
    return env, trajectory, {"drive_detuning": env.drive_detuning, "t_break": t_i,
                             "t_final": t_final}


def _write_run_files(out: Path, times, schedule, run_fwd, env) -> list[str]:
    gam, shift = decay_and_shift(env, times)
    t_text = _time_column(times)
    _write_csv(out / "states.csv", "t,r_x,r_y,r_z,fidelity", t_text,
               [run_fwd.states[:, 0], run_fwd.states[:, 1], run_fwd.states[:, 2],
                run_fwd.fidelity])
    _write_csv(out / "controls.csv", ",".join(("t", *FIELDS)), t_text,
               [getattr(schedule, name) for name in FIELDS])
    _write_csv(out / "env.csv", "t,decay_rate,lamb_shift", t_text, [gam, shift])
    return ["states.csv", "controls.csv", "env.csv"]


def _output_times(t_final: float, grid: int) -> np.ndarray:
    """The grid + 1 uniform output times on [0, t_final]."""
    try:
        return np.linspace(0.0, t_final, grid + 1)
    except (MemoryError, ValueError):   # numpy refuses an array too large to index
        raise InvalidInputError(
            f"a grid of {grid + 1} output times does not fit in memory") from None


def _run_env_scan(config: ExperimentConfig, out: Path) -> dict:
    """Decay rate and Lamb shift for each scan value, one ``env_NNN.csv`` each."""
    times = _output_times(config.t_final, config.grid)
    results = []
    for value in config.scan_values:
        cfg = replace(config, **{config.scan_parameter: value})
        env = _environment(cfg, 0.0 if cfg.drive_detuning is None else cfg.drive_detuning)
        try:
            results.append(decay_and_shift(env, times))
        except InvalidInputError as exc:   # a rate that is not finite, with its t
            raise InvalidInputError(
                f"scan value {config.scan_parameter} = {value}: {exc}") from None
    out.mkdir(parents=True, exist_ok=True)
    t_text = _time_column(times)
    files = [f"env_{i:03d}.csv" for i in range(len(results))]
    for name, (gam, shift) in zip(files, results):
        _write_csv(out / name, "t,decay_rate,lamb_shift", t_text, [gam, shift])
    return {"experiment": config.experiment, "files": ",".join(files),
            "scan_parameter": config.scan_parameter}


def run(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Execute one experiment, writing into ``out_dir``; returns the summary
    mapping that is printed.

    All computation happens before any file is written, so a failing run
    leaves no partial output.
    """
    out = Path(out_dir)
    if config.experiment == "env-scan":
        return _run_env_scan(config, out)
    env, trajectory, derived = _setup(config)
    times = _output_times(trajectory.t_final, config.grid)
    schedule = schedule_from_trajectory(trajectory, env, times)
    r0, _ = trajectory.evaluate(0.0)
    min_steps = config.min_steps
    if min_steps is None:
        min_steps = choose_min_steps(schedule, env, r0, times)
    tracking = config.experiment == "track-steady"
    schedules, reservoir = [schedule], None
    if tracking:
        # the reference protocol on the same path: the bare ramp, omega_y = 0 and
        # N = n0; both runs share one fine-grid reservoir table
        ramp = reference_ramp(config.omega_c, config.t_final, times)
        schedules.append(ControlSchedule(times, ramp, np.zeros_like(ramp),
                                         np.full_like(ramp, config.n0)))
        reservoir = reservoir_table(env, times, min_steps)
    path = trajectory.sample(times)[0]
    run_fwd, *reference = [integrate_bloch(controls, env, r0, times, min_steps=min_steps,
                                           reference=path, reservoir=reservoir)
                           for controls in schedules]
    summary = {"experiment": config.experiment, **derived,
               "min_fidelity": run_fwd.min_fidelity}
    if tracking:
        summary["adiabatic_min_fidelity"] = reference[0].min_fidelity
    else:
        summary["final_fidelity"] = float(run_fwd.fidelity[-1])
        summary["final_r_z"] = float(run_fwd.states[-1, 2])
        summary["min_excitation"] = controllability_check(schedule).min_excitation
    out.mkdir(parents=True, exist_ok=True)
    summary["files"] = ",".join(_write_run_files(out, times, schedule, run_fwd, env))
    return summary


def _print_summary(summary: dict, stream) -> None:
    for key, value in summary.items():
        if isinstance(value, float):
            print(f"{key} = {value:.15g}", file=stream)
        else:
            print(f"{key} = {value}", file=stream)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "selfcheck":
        argparse.ArgumentParser(prog="blochsteer selfcheck").parse_args(argv[1:])
        return run_selfcheck()
    if argv and argv[0] == "run":
        argv = argv[1:]
    parser = argparse.ArgumentParser(prog="blochsteer",
                                     description="run a configured experiment")
    parser.add_argument("--config", required=True, help="path to key = value config file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--override", action="append", default=[],
                        help="key=value config override (repeatable)")
    args = parser.parse_args(argv)
    try:
        # each override is one more config line after the file's
        lines = _read_config(args.config).splitlines() + args.override
        config = parse_config_text("\n".join(lines))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run(config, out_dir=args.out)
    except BlochSteerError as exc:
        print(f"numerical failure in {config.experiment}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    _print_summary(summary, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
