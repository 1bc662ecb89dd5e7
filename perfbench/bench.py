"""blochsteer benchmark: workloads, output checks, metrics and report.

Run it through ``run.py`` from the root of a checkout; README.md in this
directory names the workloads and metrics.  Each run is one process driving a
closed loop: one client, and each operation starts after the previous one
ends.  Operations run in blocks fixed by the seed, and a run ends at the first
block boundary after ``--seconds``, so every run holds whole blocks.
"""

import dataclasses
import gzip
import inspect
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import blochsteer
# module attributes are looked up at each call, so the tracer's rebinding is seen
from blochsteer import cli, selfcheck, simulator, sun_algebra
from blochsteer.errors import BlochSteerError
from tracer import CONCURRENT, LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = ROOT / "scripts" / "configs"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / ".out"

BUNDLED = ("mixed_inversion", "pure_inversion", "tracking")
CSV_FILES = ("controls.csv", "env.csv", "states.csv")

SETUP_STARTS = 5
"""Fresh interpreters started one at a time for ``setup_s``; the median is reported."""

P90_MIN_OPS = 100
"""op_s.p90 needs ten samples above it."""

REFERENCE_TOL = 1e-9
"""Bundled CSV columns may deviate from the recorded reference by this much,
relative to the column's largest magnitude (at least 1)."""

ORACLE_TOL = 1e-10
"""Bloch form vs Kronecker form, max abs deviation per sample (1.1e-14 measured)."""

FIDELITY_TARGET = 0.999
"""The paper's tracking target.  A design-sweep run whose lowest fidelity is
below it is "below_target", not "ok": at a coarse grid the program's
fourth-order discretization can fall short of it on sharp controls."""

CONVERGENCE_FACTOR = 4.0
"""A below-target shortfall, 1 - min fidelity, must shrink at least this much
when grid and min_steps are doubled (about 15 measured, 16 for fourth order),
or the run fails its check."""

NORM_SLACK = 2e-8
"""Integrator slack on |r| that the program itself tolerates."""

DESIGN_EXPERIMENTS = ("invert-pure", "invert-mixed", "track-steady", "env-scan")
DESIGN_GRIDS = (500, 1000, 2000)


# ---------------------------------------------------------------------------
# output checks


@dataclasses.dataclass(frozen=True)
class Outcome:
    """Result of one operation's output check.

    ``status`` is "ok"; "rejected" when the program raised a BlochSteerError
    and wrote no files (its documented numerical-failure path);
    "below_target" when a design-sweep run passed its checks but its lowest
    fidelity is below FIDELITY_TARGET and converges as the grid is refined;
    or "failed" when an output check failed or the program raised anything
    else.
    """

    status: str
    detail: str = ""
    bytes_written: int = 0
    deviation: float = 0.0
    identical: bool | None = None


def failed(detail):
    return Outcome("failed", detail)


def read_csv(text):
    header, _, body = text.partition("\n")
    return header, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def written_files(out):
    return sorted(p.name for p in out.iterdir()) if out.is_dir() else []


def bytes_in(out):
    return sum(p.stat().st_size for p in out.iterdir())


def error_outcome(exc, out):
    if isinstance(exc, BlochSteerError):
        if written_files(out):
            return failed(f"{type(exc).__name__} left files {written_files(out)}")
        return Outcome("rejected", type(exc).__name__)
    return failed(f"crashed: {type(exc).__name__}: {exc}")


def check_controlled(out, config, summary, refine):
    """Structure and physics checks on the three CSVs of a controlled run.

    ``refine(config)`` returns the lowest fidelity of the same run at twice
    the grid, or None if the program rejects that run; it is called only
    when the fidelity is below target.
    """
    if written_files(out) != list(CSV_FILES):
        return failed(f"wrote {written_files(out)}")
    n = config.grid + 1
    expected = {"states.csv": ("t,r_x,r_y,r_z,fidelity", 5),
                "controls.csv": ("t,omega_x,omega_y,excitation", 4),
                "env.csv": ("t,decay_rate,lamb_shift", 3)}
    data = {}
    for name, (header, width) in expected.items():
        got_header, table = read_csv((out / name).read_text())
        if got_header != header or table.shape != (n, width):
            return failed(f"{name}: header {got_header!r}, shape {table.shape}")
        if not np.all(np.isfinite(table)):
            return failed(f"{name}: non-finite values")
        data[name] = table
    t = data["states.csv"][:, 0]
    if t[0] != 0.0 or np.any(np.diff(t) <= 0):
        return failed("states.csv: time column is not an increasing grid from 0")
    for name in ("controls.csv", "env.csv"):
        if not np.array_equal(data[name][:, 0], t):
            return failed(f"{name}: time column differs from states.csv")
    r = data["states.csv"][:, 1:4]
    norm = float(np.max(np.linalg.norm(r, axis=1)))
    if norm > 1.0 + NORM_SLACK:
        return failed(f"|r| reaches {norm:.12f}")
    fid = data["states.csv"][:, 4]
    min_fid = float(np.min(fid))
    if min_fid < 0.0 or np.max(fid) > 1.0 + 1e-12:
        return failed(f"fidelity in [{min_fid:.6g}, {np.max(fid):.6g}]")
    if abs(min_fid - summary["min_fidelity"]) > 1e-14:
        return failed(f"states.csv min fidelity {min_fid!r} != summary "
                      f"{summary['min_fidelity']!r}")
    drive = summary.get("drive_detuning", config.drive_detuning)
    decay0, shift0 = data["env.csv"][0, 1:]
    if abs(decay0) > 1e-12 or abs(shift0 - drive) > 1e-12 * max(1.0, abs(drive)):
        return failed(f"env.csv at t=0: decay {decay0:.3g}, shift {shift0!r} != {drive!r}")
    if min_fid >= FIDELITY_TARGET:
        return Outcome("ok", bytes_written=bytes_in(out))
    try:
        fine = refine(config)
    except Exception as error:  # anything but the program's rejection path
        return failed(f"refined run crashed: {type(error).__name__}: {error}")
    if fine is None:
        return Outcome("below_target", "fidelity below 0.999, refined run rejected",
                       bytes_written=bytes_in(out))
    if (1.0 - fine) * CONVERGENCE_FACTOR > 1.0 - min_fid:
        return failed(f"fidelity {min_fid:.6g} at grid {config.grid}, {fine:.6g} at twice "
                      "the grid: the shortfall does not converge")
    return Outcome("below_target", "fidelity below 0.999, converges with the grid",
                   bytes_written=bytes_in(out))


def check_env_scan(out, config):
    names = [f"env_{i:03d}.csv" for i in range(len(config.scan_values))]
    if written_files(out) != names:
        return failed(f"wrote {written_files(out)}")
    for name in names:
        header, table = read_csv((out / name).read_text())
        if header != "t,decay_rate,lamb_shift" or table.shape != (config.grid + 1, 3):
            return failed(f"{name}: header {header!r}, shape {table.shape}")
        if not np.all(np.isfinite(table)):
            return failed(f"{name}: non-finite values")
        if abs(table[0, 1]) > 1e-12 or abs(table[0, 2] - config.drive_detuning) > 1e-12:
            return failed(f"{name}: decay rate or Lamb shift wrong at t=0")
    return Outcome("ok", bytes_written=bytes_in(out))


def compare_to_reference(out, reference):
    """Column-by-column comparison with the CSVs recorded for this config."""
    if written_files(out) != list(CSV_FILES):
        return failed(f"wrote {written_files(out)}")
    worst = 0.0
    identical = True
    for name in CSV_FILES:
        text = (out / name).read_text()
        ref_text = reference[name]
        identical = identical and text == ref_text
        header, table = read_csv(text)
        ref_header, ref_table = read_csv(ref_text)
        if header != ref_header or table.shape != ref_table.shape:
            return failed(f"{name}: header {header!r}, shape {table.shape}")
        dev = np.abs(table - ref_table)
        scale = np.maximum(1.0, np.max(np.abs(ref_table), axis=0))
        if not np.all(np.isfinite(dev)) or np.any(dev > REFERENCE_TOL * scale):
            return failed(f"{name}: deviates from reference by {np.max(dev):.3e}")
        worst = max(worst, float(np.max(dev)))
    return Outcome("ok", bytes_written=bytes_in(out), deviation=worst, identical=identical)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One set of inputs.  ``block(k)`` is the k-th block of operations;
    ``prepare(op)`` does an operation's untimed set-up and returns the argument
    of ``execute``, the timed program call; ``check`` judges its output."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._blocks = []
        self.out = WORK_DIR / f"{self.name}-{os.getpid()}"

    def block(self, k):
        while len(self._blocks) <= k:
            self._blocks.append(self.draw_block())
        return self._blocks[k]

    def clear_out(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def warm_up(self):
        """Fill the program's caches and lazy imports before timing."""
        for text in WARMUP_CONFIGS:
            try:
                cli.run(cli.parse_config_text(text), out_dir=self.out / "warmup")
            except BlochSteerError:
                pass  # mixed inversion fails at this grid: the known grid-dependent defect
        shutil.rmtree(self.out / "warmup", ignore_errors=True)


WARMUP_CONFIGS = (
    "experiment = invert-mixed\nspectral_width = 0.1\ncavity_detuning = 0.1\n"
    "grid = 64\nmin_steps = 64",
    "experiment = invert-pure\nspectral_width = 0.1\ncavity_detuning = 0.1\n"
    "grid = 64\nmin_steps = 64",
    "experiment = track-steady\nspectral_width = 0.5\ncavity_detuning = 0.5\n"
    "drive_detuning = 0.1\nn0 = 1e-5\nomega_c = 10\nt_final = 10\ngrid = 64\nmin_steps = 64",
    "experiment = env-scan\nspectral_width = 0.1\ncavity_detuning = 0.1\n"
    "drive_detuning = 0\nscan_parameter = spectral_width\nscan_values = 0.1, 2\n"
    "t_final = 12\ngrid = 64",
)


def load_reference(stem):
    folder = REFERENCE_DIR / stem
    return {name: gzip.decompress((folder / f"{name}.gz").read_bytes()).decode()
            for name in CSV_FILES}


class Bundled(Workload):
    """The shipped controlled configs through ``cli.run``, checked against
    CSVs recorded from the program; the seed orders each block."""

    name = "bundled"

    def __init__(self, seed):
        super().__init__(seed)
        self.configs = {stem: cli.load_config(CONFIG_DIR / f"{stem}.cfg") for stem in BUNDLED}
        self.references = {stem: load_reference(stem) for stem in BUNDLED}

    def draw_block(self):
        return self.rng.sample(BUNDLED, len(BUNDLED))

    def prepare(self, stem):
        self.clear_out()
        return self.configs[stem]

    def execute(self, config):
        return cli.run(config, out_dir=self.out)

    def check(self, stem, result, exc):
        if exc is not None:
            return failed(f"crashed: {type(exc).__name__}: {exc}")
        return compare_to_reference(self.out, self.references[stem])


def design_config(rng, experiment, grid):
    """One draw of the design sweep as config text; draws are never filtered."""
    values = {"experiment": experiment,
              "spectral_width": rng.uniform(0.05, 0.3),
              "cavity_detuning": rng.uniform(0.05, 0.3),
              "grid": grid,
              "min_steps": grid}
    if experiment == "track-steady":
        values.update(drive_detuning=rng.uniform(-0.5, 0.5), omega_c=rng.uniform(1.0, 10.0),
                      n0=1e-5, t_final=10.0)
    elif experiment == "invert-pure":
        values["theta_mid"] = rng.uniform(0.2, 1.2)
    elif experiment == "env-scan":
        values.update(drive_detuning=0.0, scan_parameter="spectral_width",
                      scan_values=", ".join(repr(rng.uniform(0.1, 10.0)) for _ in range(4)),
                      t_final=12.0)
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in values.items())


class DesignSweep(Workload):
    """Seeded parameter sweep in the non-Markovian regime.  Each block holds
    every (experiment, grid) pair once, in seeded order, with its continuous
    parameters drawn independently."""

    name = "design-sweep"

    def draw_block(self):
        cells = [(e, g) for e in DESIGN_EXPERIMENTS for g in DESIGN_GRIDS]
        self.rng.shuffle(cells)
        return [design_config(self.rng, e, g) for e, g in cells]

    def prepare(self, text):
        self.clear_out()
        path = WORK_DIR / f"{self.name}-{os.getpid()}.cfg"
        path.write_text(text)
        return cli.load_config(path)

    def execute(self, config):
        return config, cli.run(config, out_dir=self.out)

    def check(self, text, result, exc):
        if exc is not None:
            return error_outcome(exc, self.out)
        config, summary = result
        if config.experiment == "env-scan":
            return check_env_scan(self.out, config)
        return check_controlled(self.out, config, summary, self.refine)

    def refine(self, config):
        """Lowest fidelity of ``config`` run at twice its grid and min_steps,
        or None if the program rejects that run."""
        finer = dataclasses.replace(config, grid=2 * config.grid,
                                    min_steps=2 * config.min_steps)
        out = WORK_DIR / f"{self.name}-{os.getpid()}-refined"
        try:
            return cli.run(finer, out_dir=out)["min_fidelity"]
        except BlochSteerError:
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)


class _Captured(Exception):
    pass


class OracleVerify(Workload):
    """Kronecker-form forward run of each shipped controlled config against
    its Bloch-form states, plus the selfcheck suites.  The schedule comes from
    an untimed ``cli.run`` per config; the Bloch-form states are those of the
    bundled reference."""

    name = "oracle-verify"

    def __init__(self, seed):
        super().__init__(seed)
        basis = sun_algebra.build_basis(2)
        self.inputs = {}
        for stem in BUNDLED:
            args = self._capture(cli.load_config(CONFIG_DIR / f"{stem}.cfg"))
            rho0 = sun_algebra.bloch_to_density(np.asarray(args["r0"], dtype=float), basis)
            states = read_csv(load_reference(stem)["states.csv"])[1][:, 1:4]
            self.inputs[stem] = (args, rho0, states)

    def _capture(self, config):
        """Arguments of the controlled Bloch run inside ``cli.run``, which is
        stopped there, before it integrates or writes files."""
        signature = inspect.signature(cli.integrate_bloch)
        seen = []

        def capture(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(dict(bound.arguments))
            raise _Captured
        original, cli.integrate_bloch = cli.integrate_bloch, capture
        try:
            cli.run(config, out_dir=self.out)
        except _Captured:
            pass
        finally:
            cli.integrate_bloch = original
        if not seen:
            raise RuntimeError(f"cli.run made no Bloch run for {config.experiment}")
        return seen[0]

    def warm_up(self):
        super().warm_up()
        selfcheck.run_selfcheck(stream=io.StringIO())

    def draw_block(self):
        return self.rng.sample(BUNDLED, len(BUNDLED))

    def prepare(self, stem):
        args, rho0, _ = self.inputs[stem]
        # a fresh schedule, so each operation builds its own control splines
        return dataclasses.replace(args["schedule"]), args, rho0

    def execute(self, prepared):
        schedule, args, rho0 = prepared
        run = simulator.integrate_density(schedule, args["env"], rho0, args["times"],
                                          min_steps=args["min_steps"])
        code = selfcheck.run_selfcheck(stream=io.StringIO())
        return run.states, code

    def check(self, stem, result, exc):
        if exc is not None:
            return failed(f"crashed: {type(exc).__name__}: {exc}")
        states, code = result
        bloch = self.inputs[stem][2]
        if states.shape != bloch.shape:
            return failed(f"density run has shape {states.shape}, Bloch run {bloch.shape}")
        deviation = float(np.max(np.abs(states - bloch)))
        if not deviation <= ORACLE_TOL:
            return failed(f"Bloch vs density deviation {deviation:.3e}")
        if code != 0:
            return failed(f"selfcheck exit {code}")
        return Outcome("ok", deviation=deviation)


WORKLOADS = {cls.name: cls for cls in (Bundled, DesignSweep, OracleVerify)}


# ---------------------------------------------------------------------------
# measurement


def run_op(workload, op, tracer=None):
    """Time one operation (the program call only) and check its output.

    The check runs untraced, so program calls it makes add no spans or counts.
    """
    prepared = workload.prepare(op)
    result = exc = None
    start = perf_counter()
    try:
        if tracer is None:
            result = workload.execute(prepared)
        else:
            result = tracer.call("bench.op", workload.execute, (prepared,), {})
    except Exception as error:  # judged by the check: a rejection or a failure
        exc = error
    elapsed = perf_counter() - start
    if tracer is None:
        return elapsed, workload.check(op, result, exc)
    tracer.uninstall()
    try:
        return elapsed, workload.check(op, result, exc)
    finally:
        tracer.install()


def measure(workload, seconds, after_block=None):
    """Whole blocks until ``seconds`` have passed; returns (op_s, outcome) pairs.

    ``after_block`` runs between blocks; its time does not count.
    """
    records = []
    start = perf_counter()
    paused = 0.0
    k = 0
    while k == 0 or perf_counter() - start - paused < seconds:
        records += [run_op(workload, op) for op in workload.block(k)]
        k += 1
        if after_block is not None:
            pause = perf_counter()
            after_block()
            paused += perf_counter() - pause
    return records


def measure_traced(workload, seconds):
    """Alternate untraced and traced passes over block 0 until ``seconds`` pass.

    Returns the records of every pass and, per pair, the untraced operation
    time, the traced operation time, and the traced pass's spans and counts.
    """
    ops = workload.block(0)
    tracer = Tracer()
    records = []
    pairs = []
    start = perf_counter()
    while not pairs or perf_counter() - start < seconds:
        untraced = [run_op(workload, op) for op in ops]
        tracer.reset()
        tracer.install()
        try:
            traced = []
            for i, op in enumerate(ops):
                tracer.op = i
                traced.append(run_op(workload, op, tracer))
        finally:
            tracer.uninstall()
        for _, outcome in traced:
            tracer.counts["cli.bytes_written"] += outcome.bytes_written
            tracer.counts["ops.attempted"] += 1
            if outcome.status != "ok":
                tracer.counts[f"ops.{outcome.status}.{outcome.detail.split(':')[0]}"] += 1
        records += untraced + traced
        pairs.append((sum(t for t, _ in untraced), sum(t for t, _ in traced),
                      tracer.spans, tracer.counts))
    return records, pairs


class SetupTimer:
    """Wall time for a fresh interpreter to import blochsteer.

    Interpreters start one at a time, spread over the run (one before it and
    one after each block, the rest at its end) so that a slow spell of a
    shared machine weighs on one sample, not on all of them.
    """

    def __init__(self):
        self.samples = []

    def sample(self):
        if len(self.samples) >= SETUP_STARTS:
            return
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import blochsteer"], env=env, check=True,
                       cwd=ROOT, stdin=subprocess.DEVNULL)
        self.samples.append(perf_counter() - start)

    def median(self):
        while len(self.samples) < SETUP_STARTS:
            self.sample()
        return statistics.median(self.samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metrics


ENV_EVAL = ("environment.decay_and_shift", "environment.decay_shift_derivatives",
            "environment.propagator_u")
ENV_SETUP = ("environment.tune_detuning_for_lamb_zero", "environment.find_gamma_zero",
             "environment.find_gamma_negmax")
TRAJECTORY_BUILD = ("trajectories.tracking_trajectory", "trajectories.pure_inversion",
                    "trajectories.mixed_inversion_trajectory")
SOLVERS = ("controls.two_level_controls", "controls.two_level_controls_detuning")
COMPONENT_FORM = ("liouvillian.assemble_components", "liouvillian.coherent_part",
                  "liouvillian.incoherent_part", "liouvillian.inhomogeneous_part",
                  "liouvillian.channel_matrix", "liouvillian.channel_drift",
                  "liouvillian.components_from_kron")


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    The eight layer self times plus ``trace.unattributed_s`` (time inside an
    operation that no layer span covers) add up to ``trace.wall_s``.  Spans
    outside an operation (its untimed set-up) are left out.  Spans on worker
    threads (env-scan's pool) count as calls; their time overlaps the span that
    waits for them, stays in its self time, and is reported as
    ``trace.concurrent_s``.
    """
    calls = Counter()
    self_s = Counter()
    layer_self = Counter()
    wall = 0.0
    concurrent = 0.0
    env_setup = 0.0
    root = []
    for name, parent, start, end, own, _ in spans:
        if parent == CONCURRENT:
            root.append(CONCURRENT)
            concurrent += end - start
        else:
            root.append(name if parent < 0 else root[parent])
        if root[-1] == CONCURRENT:
            calls[name] += 1
        if root[-1] != "bench.op":
            continue
        calls[name] += 1
        self_s[name] += own
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        if name == "bench.op":
            wall += end - start
        elif name in ENV_SETUP and spans[parent][0].startswith("cli."):
            env_setup += end - start

    def total(names):
        return sum(self_s[n] for n in names)

    def per_step(seconds, steps):
        return 1e9 * seconds / steps if steps else 0.0

    bloch_s = self_s["simulator.integrate_bloch"]
    density_s = self_s["simulator.integrate_density"]
    eval_calls = sum(calls[n] for n in ENV_EVAL)
    m = {
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - sum(layer_self[layer] for layer in LAYERS), "s"),
        "trace.concurrent_s": (concurrent, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m.update({
        "cli.bytes_written": (counts["cli.bytes_written"], "bytes"),
        "environment.setup_s": (env_setup, "s"),
        "environment.eval_s": (total(ENV_EVAL), "s"),
        "environment.eval_calls": (eval_calls, "count"),
        "environment.points_per_call": (
            counts["environment.eval_points"] / eval_calls if eval_calls else 0.0, "points/call"),
        "trajectories.build_s": (total(TRAJECTORY_BUILD), "s"),
        "trajectories.evaluate_s": (layer_self["trajectories"] - total(TRAJECTORY_BUILD), "s"),
        "trajectories.evaluate_calls": (calls["trajectories.TrajectorySpec.evaluate"], "count"),
        "trajectories.inserted_knots": (counts["trajectories.inserted_knots"], "count"),
        "controls.schedule_s": (self_s["controls.schedule_from_trajectory"], "s"),
        "controls.solver_s": (total(SOLVERS), "s"),
        "controls.solver_calls": (sum(calls[n] for n in SOLVERS), "count"),
        "controls.singular_samples": (counts["controls.singular_samples"], "count"),
        "controls.spline_s": (self_s["controls.ControlSchedule.value"], "s"),
        "simulator.bloch_s": (bloch_s, "s"),
        "simulator.rk4_steps": (counts["simulator.rk4_steps"], "count"),
        "simulator.bloch_ns_per_step": (per_step(bloch_s, counts["simulator.rk4_steps"]), "ns"),
        "simulator.density_s": (density_s, "s"),
        "simulator.density_rk4_steps": (counts["simulator.density_rk4_steps"], "count"),
        "simulator.density_ns_per_step": (
            per_step(density_s, counts["simulator.density_rk4_steps"]), "ns"),
        "simulator.fidelity_s": (self_s["simulator.fidelity_bloch"], "s"),
        "simulator.fidelity_calls": (calls["simulator.fidelity_bloch"], "count"),
        "liouvillian.assemble_s": (total(COMPONENT_FORM), "s"),
        "liouvillian.kron_s": (self_s["liouvillian.kron_liouvillian"], "s"),
        "liouvillian.calls": (sum(c for n, c in calls.items() if n.startswith("liouvillian.")),
                              "count"),
        "sun_algebra.s": (layer_self["sun_algebra"], "s"),
        "sun_algebra.calls": (sum(c for n, c in calls.items() if n.startswith("sun_algebra.")),
                              "count"),
        "ops.attempted": (counts["ops.attempted"], "count"),
        "ops.rejected": (sum(c for n, c in counts.items() if n.startswith("ops.rejected.")),
                         "count"),
        "ops.below_target": (sum(c for n, c in counts.items()
                                 if n.startswith("ops.below_target.")), "count"),
        "ops.failed": (sum(c for n, c in counts.items() if n.startswith("ops.failed.")),
                       "count"),
    })
    return m


def end_to_end(records, setup_s):
    """{name: (value, unit)} of the untraced run, plus printed-only figures."""
    op_s = [t for t, _ in records]
    ok = sum(1 for _, o in records if o.status == "ok")
    metrics = {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (ok / sum(op_s), "1/s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "fail_frac": (sum(1 for _, o in records if o.status != "ok") / len(records), "ratio"),
    }
    if len(op_s) >= P90_MIN_OPS:
        extra["op_s.p90"] = (statistics.quantiles(op_s, n=10, method="inclusive")[-1], "s")
    return metrics, extra


# ---------------------------------------------------------------------------
# report


def run_record():
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_THREADS")}}


def tally(records):
    return Counter(f"{o.status} {o.detail.split(':')[0]}" for _, o in records
                   if o.status != "ok")


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")


def main(workload_name, seed, seconds, trace):
    if Path(blochsteer.__file__).resolve().parent != (SRC / "blochsteer").resolve():
        print(f"imported blochsteer from {blochsteer.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    setup = SetupTimer()
    if not trace:
        setup.sample()
    workload = WORKLOADS[workload_name](seed)
    try:
        workload.warm_up()
        if trace:
            records, pairs = measure_traced(workload, seconds)
        else:
            records = measure(workload, seconds, setup.sample)
            setup_s = setup.median()
    finally:
        workload.clear_out()
        (WORK_DIR / f"{workload.name}-{os.getpid()}.cfg").unlink(missing_ok=True)

    print(f"blochsteer benchmark: workload {workload_name}, seed {seed}, "
          f"trace {int(trace)}, closed loop, 1 client")
    print("run record: " + json.dumps(run_record()))
    status = Counter(o.status for _, o in records)
    n_failed = status["failed"]
    print(f"operations: {len(records)} attempted, {status['ok']} ok, "
          f"{status['rejected']} rejected, {status['below_target']} below target, "
          f"{n_failed} failed checks")
    for line, count in sorted(tally(records).items()):
        print(f"  {count:5d} {line}")
    deviations = [o.deviation for _, o in records if o.status == "ok"]
    if workload_name != "design-sweep" and deviations:
        label = "reference CSV" if workload_name == "bundled" else "Bloch vs density"
        print(f"{label} max abs deviation: {max(deviations):.3e}")
    if workload_name == "bundled":
        same = sum(1 for _, o in records if o.identical)
        print(f"byte-identical to reference: {same} of {len(records)} operations")

    if trace:
        untraced = statistics.median(p[0] for p in pairs)
        traced = statistics.median(p[1] for p in pairs)
        # report the pass whose traced time is the median, so its parts add up
        ranked = sorted(pairs, key=lambda p: p[1])
        _, _, spans, counts = ranked[(len(ranked) - 1) // 2]
        metrics = layer_metrics(spans, counts)
        metrics["trace.overhead"] = (traced / untraced, "ratio")
        write_spans(workload_name, seed, spans)
        print_metrics(f"per-layer metrics (median of {len(pairs)} traced passes over "
                      f"block 0, {len(workload.block(0))} operations each)", metrics)
    else:
        metrics, extra = end_to_end(records, setup_s)
        print_metrics(f"end-to-end metrics ({len(records)} operations; setup_s over "
                      f"{SETUP_STARTS} interpreter starts)", metrics)
        print_metrics("also reported", extra)
        if "op_s.p90" not in extra:
            print(f"  op_s.p90 omitted: needs {P90_MIN_OPS} operations, run has {len(records)}")
    selected = selected_metrics(trace)
    result = {"correct": n_failed == 0, "attempted": len(records), "failed": n_failed,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in selected}}
    print(json.dumps(result))
    return 0


def selected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def write_spans(workload_name, seed, spans):
    """Spans of the reported pass, one JSON array per line, gzip-compressed."""
    path = WORK_DIR / f"spans-{workload_name}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write('["name", "parent", "start_s", "end_s", "self_s", "op"]\n')
        t0 = spans[0][2] if spans else 0.0
        for name, parent, start, end, own, op in spans:
            f.write(json.dumps([name, parent, start - t0, end - t0, own, op]) + "\n")
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
