"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py [--workloads W ...] [--seeds 1-10] [--trace-seeds 1-3]
                               [--seconds S] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, from the root of
the checkout: untraced over ``--seeds`` and traced over ``--trace-seeds``
(an empty range skips either).  For each metric it prints the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, the distance between the quartiles as a share of the median, next to
the metric's bound in BENCHMARK.json.  ``--out`` writes the runs, the summary,
the commit and the run record as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = next((json.loads(line.split(": ", 1)[1]) for line in lines
                   if line.startswith("run record: ")), None)
    return json.loads(lines[-1]), record, wall


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            "min": min(values), "max": max(values)}


def sweep(workloads, seeds, seconds, trace, bounds):
    out = {}
    record = None
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, record, wall = run_once(workload, seed, seconds, trace)
            runs.append({"seed": seed, "run_wall_s": wall, **result})
            print(f"{workload} seed {seed} trace {trace} ({wall:.0f} s): "
                  f"correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name]["value"] for r in runs])
            summary[name]["unit"] = runs[0]["metrics"][name]["unit"]
            s = summary[name]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {workload:14s} {name:32s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread} "
                  f"bound {bounds.get(name)}", flush=True)
        out[workload] = {"runs": runs, "summary": summary}
    return out, record


def commit():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seeds", type=seed_range, default=seed_range(""))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    report = {"commit": commit(), "seconds": args.seconds, "seeds": args.seeds,
              "trace_seeds": args.trace_seeds}
    for trace, seeds, key in ((0, args.seeds, "end_to_end"), (1, args.trace_seeds, "per_layer")):
        if seeds:
            report[key], report["run_record"] = sweep(args.workloads, seeds, args.seconds,
                                                      trace, bounds)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
