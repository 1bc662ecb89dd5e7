"""Configuration-driven experiment runner.

Usage:
    blochsteer run --config experiment.cfg [--out DIR] [--override key=value ...]
    blochsteer selfcheck [--perturb-f EPS]

Configs are line-oriented ``key = value`` text with ``#`` comments; all
frequencies are in units of gamma0 (gamma0 = 1 by convention).  Every run
writes three CSV files into the output directory: ``states.csv``
(t, r_x, r_y, r_z, fidelity), ``controls.csv`` (t, omega_x,
omega_y | detuning_r, excitation) and ``env.csv`` (t, decay_rate,
lamb_shift), all with 15-significant-digit values, so identical configs
produce byte-identical output.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .controls import schedule_from_trajectory
from .environment import (LorentzianEnvironment, decay_and_shift, find_gamma_negmax,
                          find_gamma_zero, tune_detuning_for_lamb_zero)
from .errors import BlochSteerError, ConfigError, InvalidInputError
from .selfcheck import run_selfcheck
from .simulator import DEFAULT_MIN_STEPS, adiabatic_reference_run, integrate_bloch
from .trajectories import (mixed_inversion_trajectory, pure_inversion,
                           tracking_trajectory)

__all__ = ["ExperimentConfig", "load_config", "run", "main"]

EXPERIMENTS = ("track-steady", "invert-pure", "invert-mixed", "env-scan", "selfcheck")
_SCANNABLE = ("spectral_width", "cavity_detuning", "drive_detuning")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    spectral_width: float = None
    gamma0: float = 1.0
    cavity_detuning: float = 0.0
    drive_detuning: float = None      # None: auto-derived for inversion runs
    n0: float = 0.0
    omega_c: float = 0.0
    t_final: float = None             # None: auto-derived for inversion runs
    t_break: float = None
    theta_mid: float = float(np.pi / 4)
    grid: int = 2000
    min_steps: int = DEFAULT_MIN_STEPS
    scan_parameter: str = None
    scan_values: tuple = None
    out: str = "out"

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; pick one of {EXPERIMENTS}")
        if self.experiment == "selfcheck":
            return self
        self._check_values()
        if self.grid < 16:
            raise ConfigError("grid must be at least 16")
        if self.min_steps < self.grid:
            raise ConfigError("min_steps must be at least the grid size")
        if self.experiment == "track-steady":
            if self.drive_detuning is None or self.t_final is None:
                raise ConfigError("track-steady requires drive_detuning and t_final")
        if self.experiment == "env-scan":
            if self.scan_parameter not in _SCANNABLE:
                raise ConfigError(f"scan_parameter must be one of {_SCANNABLE}")
            if not self.scan_values:
                raise ConfigError("scan_values must list at least one value")
            for value in self.scan_values:
                try:
                    replace(self, **{self.scan_parameter: value})._check_values()
                except ConfigError as exc:
                    raise ConfigError(f"scan value {value}: {exc}") from None
            if self.t_final is None:
                raise ConfigError("env-scan requires t_final")
        return self

    def _check_values(self) -> None:
        """The rules for each float key, which every scan value obeys as well."""
        for name, kind in _KEY_TYPES.items():
            value = getattr(self, name)
            if kind is float and value is not None and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.spectral_width is None or not self.spectral_width > 0:
            raise ConfigError("spectral_width must be set and positive")
        if not self.gamma0 > 0:
            raise ConfigError("gamma0 must be positive")
        if abs(self.theta_mid) > 2.0 * np.pi:
            # an azimuth: more than one turn is not a meaningful bump
            raise ConfigError("theta_mid must lie in [-2 pi, 2 pi]")
        for name in ("t_final", "t_break"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be finite and positive when set")


_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
"""Each configuration key with the type its value is parsed to (the annotation)."""


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
    return ExperimentConfig(**values).validate()


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def apply_overrides(config: ExperimentConfig, overrides) -> ExperimentConfig:
    updates = {}
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, raw = item.split("=", 1)
        updates[key.strip()] = _parse_value(key.strip(), raw)
    if not updates:
        return config
    return replace(config, **updates).validate()


# ---------------------------------------------------------------------------
# experiment drivers


def _fmt(x: float) -> str:
    return f"{x:.15g}"


# Rows turned into Python floats at a time: converting a whole table at once
# leaves its many short-lived float objects in the peak resident memory.
_CSV_CHUNK_ROWS = 256


def _write_csv(path: Path, header: str, columns) -> None:
    """One row per sample, every value as ``%.15g`` (the same text as ``_fmt``)."""
    row = ",".join(["%.15g"] * len(columns))
    table = np.column_stack(columns)
    lines = [header]
    for start in range(0, len(table), _CSV_CHUNK_ROWS):
        lines += [row % tuple(values)
                  for values in table[start:start + _CSV_CHUNK_ROWS].tolist()]
    path.write_text("\n".join(lines) + "\n")


def _environment(config: ExperimentConfig, drive_detuning: float) -> LorentzianEnvironment:
    return LorentzianEnvironment(lam=config.spectral_width,
                                 cavity_detuning=config.cavity_detuning,
                                 drive_detuning=drive_detuning,
                                 gamma0=config.gamma0)


def _derive_inversion_setup(config: ExperimentConfig):
    """(env, t_break, t_final) with detuning and times auto-derived unless set."""
    if config.drive_detuning is None:
        template = _environment(config, 0.0)
        drive = tune_detuning_for_lamb_zero(template)
    else:
        drive = config.drive_detuning
    env = _environment(config, drive)
    t_break = config.t_break if config.t_break is not None else find_gamma_zero(env)
    if config.t_final is not None:
        t_final = config.t_final
    elif config.experiment == "invert-mixed":
        t_final = find_gamma_negmax(env, t_break)
    else:
        t_final = 2.0 * t_break
    return env, t_break, t_final


def _run_controlled(env, trajectory, config: ExperimentConfig):
    times = np.linspace(0.0, trajectory.t_final, config.grid + 1)
    schedule = schedule_from_trajectory(trajectory, env, times)
    r0, _ = trajectory.evaluate(0.0)
    run_fwd = integrate_bloch(schedule, env, r0, times, min_steps=config.min_steps,
                              reference=trajectory)
    return times, schedule, run_fwd


def _write_run_files(out: Path, times, schedule, run_fwd, env) -> list[str]:
    gam, shift = decay_and_shift(env, times)
    files = []
    _write_csv(out / "states.csv", "t,r_x,r_y,r_z,fidelity",
               [times, run_fwd.states[:, 0], run_fwd.states[:, 1], run_fwd.states[:, 2],
                run_fwd.fidelity])
    files.append("states.csv")
    if schedule.protocol == "xy":
        second_name, second = "omega_y", schedule.omega_y
    else:
        second_name, second = "detuning_r", schedule.detuning_r
    _write_csv(out / "controls.csv", f"t,omega_x,{second_name},excitation",
               [times, schedule.omega_x, second, schedule.excitation])
    files.append("controls.csv")
    _write_csv(out / "env.csv", "t,decay_rate,lamb_shift",
               [times, np.atleast_1d(gam), np.atleast_1d(shift)])
    files.append("env.csv")
    return files


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Execute one experiment; returns the summary mapping that is printed.

    All computation happens before any file is written, so a failing run
    leaves no partial output.
    """
    out = Path(out_dir if out_dir is not None else config.out)
    summary: dict[str, float | str] = {"experiment": config.experiment}

    if config.experiment == "selfcheck":
        code = run_selfcheck()
        summary["selfcheck_exit"] = code
        if code != 0:
            raise BlochSteerError("selfcheck reported failures")
        return summary

    if config.experiment == "env-scan":
        times = np.linspace(0.0, config.t_final, config.grid + 1)

        def compute(value: float):
            cfg = replace(config, **{config.scan_parameter: value})
            scan_env = _environment(cfg, 0.0 if cfg.drive_detuning is None
                                    else cfg.drive_detuning)
            try:
                return decay_and_shift(scan_env, times)
            except InvalidInputError as exc:   # a rate that is not finite, with its t
                raise InvalidInputError(
                    f"scan value {config.scan_parameter} = {value}: {exc}") from None

        results = [compute(value) for value in config.scan_values]
        out.mkdir(parents=True, exist_ok=True)
        for i, (value, (gam, shift)) in enumerate(zip(config.scan_values, results)):
            _write_csv(out / f"env_{i:03d}.csv", "t,decay_rate,lamb_shift",
                       [times, gam, shift])
        summary["files"] = ",".join(f"env_{i:03d}.csv" for i in range(len(config.scan_values)))
        summary["scan_parameter"] = config.scan_parameter
        return summary

    if config.experiment == "track-steady":
        env = _environment(config, config.drive_detuning)
        trajectory = tracking_trajectory(env, config.n0, config.omega_c, config.t_final)
        times, schedule, run_fwd = _run_controlled(env, trajectory, config)
        reference = adiabatic_reference_run(env, config.n0, config.omega_c,
                                            config.t_final, times,
                                            min_steps=config.min_steps)
        summary["min_fidelity"] = run_fwd.min_fidelity
        summary["adiabatic_min_fidelity"] = reference.min_fidelity
    else:
        env, t_break, t_final = _derive_inversion_setup(config)
        summary["drive_detuning"] = env.drive_detuning
        summary["t_break"] = t_break
        summary["t_final"] = t_final
        if config.experiment == "invert-pure":
            trajectory = pure_inversion(t_final, config.theta_mid)
        else:
            trajectory = mixed_inversion_trajectory(t_break, t_final)
        times, schedule, run_fwd = _run_controlled(env, trajectory, config)
        summary["min_fidelity"] = run_fwd.min_fidelity
        summary["final_fidelity"] = float(run_fwd.fidelity[-1])
        summary["final_r_z"] = float(run_fwd.states[-1, 2])
        summary["min_excitation"] = float(np.min(schedule.excitation))

    out.mkdir(parents=True, exist_ok=True)
    files = _write_run_files(out, times, schedule, run_fwd, env)
    summary["files"] = ",".join(files)
    return summary


def _print_summary(summary: dict, stream) -> None:
    for key, value in summary.items():
        if isinstance(value, float):
            print(f"{key} = {_fmt(value)}", file=stream)
        else:
            print(f"{key} = {value}", file=stream)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "selfcheck":
        parser = argparse.ArgumentParser(prog="blochsteer selfcheck")
        parser.add_argument("--perturb-f", type=float, default=0.0,
                            help="fault-injection offset added to the structure constants")
        args = parser.parse_args(argv[1:])
        return run_selfcheck(perturb_f=args.perturb_f)
    if argv and argv[0] == "run":
        argv = argv[1:]
    parser = argparse.ArgumentParser(prog="blochsteer",
                                     description="run a configured experiment")
    parser.add_argument("--config", required=True, help="path to key = value config file")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--override", action="append", default=[],
                        help="key=value config override (repeatable)")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        config = apply_overrides(config, args.override)
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
