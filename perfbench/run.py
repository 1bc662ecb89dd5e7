"""Entry point of the blochsteer benchmark; run from the root of a checkout.

    python3 perfbench/run.py --workload {bundled,design-sweep,oracle-verify} \\
        --seed N --seconds S --trace {0,1}

Prints a report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Exits 2 without a result when the checkout holds no blochsteer sources.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bundled", "design-sweep", "oracle-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in ("src/blochsteer/__init__.py", "scripts/configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"not a blochsteer checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    # one BLAS thread, pinned before numpy loads, also for the interpreters setup_s starts
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench
    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
