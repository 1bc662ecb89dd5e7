"""Record the bundled workload's reference CSVs from the program as it stands.

    python3 perfbench/record_reference.py

Runs each shipped controlled config through ``cli.run`` and stores the three
CSVs, gzip-compressed, under ``perfbench/reference/<config>/``.  Re-record only
in a change that redefines the benchmark; a change to the program is checked
against these files.
"""

import gzip
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from blochsteer.cli import load_config, run  # noqa: E402

from bench import BUNDLED, CONFIG_DIR, CSV_FILES, REFERENCE_DIR  # noqa: E402


def main():
    for stem in BUNDLED:
        folder = REFERENCE_DIR / stem
        folder.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=REFERENCE_DIR) as out:
            run(load_config(CONFIG_DIR / f"{stem}.cfg"), out_dir=out)
            for name in CSV_FILES:
                data = (Path(out) / name).read_bytes()
                (folder / f"{name}.gz").write_bytes(gzip.compress(data, mtime=0))
        print(f"recorded {stem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
