#!/usr/bin/env python3
"""Run every bundled experiment config and drop the CSV output under out/.

Each config goes through ``blochsteer run --config CFG --out OUT/<stem>``
in this process, so its summary, messages and exit code are the CLI's; then
``blochsteer selfcheck`` prints its three suite lines.  Exits 1 if any
config or the selfcheck exits non-zero.

Usage: python scripts/run_all_experiments.py [--out DIR]
"""

import argparse
import sys
from pathlib import Path

from blochsteer import cli

CONFIG_DIR = Path(__file__).parent / "configs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out", help="root output directory")
    args = parser.parse_args(argv)
    failures = 0
    for cfg_path in sorted(CONFIG_DIR.glob("*.cfg")):
        target = Path(args.out) / cfg_path.stem
        print(f"== {cfg_path.name} -> {target}", flush=True)
        failures += cli.main(["run", "--config", str(cfg_path), "--out", str(target)]) != 0
    print("== selfcheck", flush=True)
    failures += cli.main(["selfcheck"]) != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
