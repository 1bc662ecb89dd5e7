"""Tests of the benchmark harness itself, at a tiny problem size."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402

TINY_GRID = 100


class TinySweep(bench.DesignSweep):
    """The design sweep with one draw per experiment at a small grid."""

    def draw_block(self):
        return [bench.design_config(self.rng, e, TINY_GRID) for e in bench.DESIGN_EXPERIMENTS]


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK_DIR", tmp_path)
    return tmp_path


def exact_counts(metrics):
    return {name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "bytes", "points/call")}


def test_smoke_run_reports_every_metric():
    workload = TinySweep(seed=3)
    workload.warm_up()
    records = bench.measure(workload, seconds=0)
    assert len(records) == len(bench.DESIGN_EXPERIMENTS)
    assert all(o.status != "failed" for _, o in records), [o.detail for _, o in records]
    metrics, extra = bench.end_to_end(records, setup_s=1.0)
    assert set(metrics) == {"setup_s", "solves_per_s", "op_s.p50", "peak_rss_mb"}
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values())
    assert 0.0 <= extra["fail_frac"][0] <= 1.0

    _, pairs = bench.measure_traced(workload, seconds=0)
    untraced, traced, spans, counts = pairs[0]
    layer = bench.layer_metrics(spans, counts)
    parts = sum(layer[f"{name}.self_s"][0] for name in bench.LAYERS)
    assert layer["trace.unattributed_s"][0] >= 0
    assert parts + layer["trace.unattributed_s"][0] == pytest.approx(layer["trace.wall_s"][0])
    assert layer["trace.wall_s"][0] == pytest.approx(traced, rel=1e-3)
    assert layer["simulator.rk4_steps"][0] > 0
    assert layer["controls.solver_calls"][0] > 0
    assert layer["ops.attempted"][0] == len(bench.DESIGN_EXPERIMENTS)


def test_exact_counts_repeat_for_the_same_seed():
    runs = []
    for _ in range(2):
        workload = TinySweep(seed=11)
        workload.warm_up()
        records, pairs = bench.measure_traced(workload, seconds=0)
        _, _, spans, counts = pairs[0]
        runs.append((workload.block(0), exact_counts(bench.layer_metrics(spans, counts)),
                     bench.tally(records)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]


def test_reference_check_flags_deviation():
    reference = {name: bench.load_reference("pure_inversion")[name] for name in bench.CSV_FILES}
    out = bench.WORK_DIR / "out"
    out.mkdir()
    for name, text in reference.items():
        (out / name).write_text(text)
    same = bench.compare_to_reference(out, reference)
    assert same.status == "ok" and same.identical and same.deviation == 0.0

    header, first, rest = reference["states.csv"].split("\n", 2)
    t, *values = first.split(",")
    (out / "states.csv").write_text("\n".join([header, ",".join([t, "0.5", *values[1:]]), rest]))
    assert bench.compare_to_reference(out, reference).status == "failed"


def test_coarse_grid_shortfall_is_below_target_unless_it_fails_to_converge():
    # sharp controls: min fidelity 0.98993 at grid 500, 0.99934 at grid 1000
    text = ("experiment = track-steady\nspectral_width = 0.22002321542648\n"
            "cavity_detuning = 0.2401885226662796\ngrid = 500\nmin_steps = 500\n"
            "drive_detuning = 0.4070736935323266\nomega_c = 2.50817987249861\n"
            "n0 = 1e-05\nt_final = 10.0\n")
    workload = bench.DesignSweep(seed=0)
    config, summary = workload.execute(workload.prepare(text))
    assert summary["min_fidelity"] < bench.FIDELITY_TARGET
    outcome = workload.check(text, (config, summary), None)
    assert outcome.status == "below_target", outcome.detail
    stalled = bench.check_controlled(workload.out, config, summary,
                                     lambda finer: summary["min_fidelity"])
    assert stalled.status == "failed"
    workload.clear_out()


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__", "reference"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bundled",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
