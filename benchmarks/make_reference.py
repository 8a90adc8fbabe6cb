"""Write the reference outputs of the figure workloads.

Usage, from the root of a checkout of the commit whose outputs become the
reference:
    python3 benchmarks/make_reference.py

For every program seed 0..REFERENCE_SEEDS-1 it runs the figure command of
each figure workload and stores the CSV files, by seed, in
benchmarks/reference/<workload>.json.xz.  The .dat twins are checked
against the same CSV text.
"""

import json
import lzma
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from multiqf import cli  # noqa: E402


def main() -> int:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    for workload, files in workloads.FIGURE_FILES.items():
        by_seed = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            out = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
            try:
                (argv,) = workloads.commands(workload, out, seed)
                if cli.main(argv) != 0:
                    raise SystemExit(f"{workload} seed {seed}: command failed")
                by_seed[str(seed)] = {
                    name: (out / name).read_text() for name in files if name.endswith(".csv")
                }
            finally:
                shutil.rmtree(out)
        path = workloads.REFERENCE_DIR / f"{workload}.json.xz"
        with lzma.open(path, "wt", preset=9 | lzma.PRESET_EXTREME) as fh:
            json.dump(by_seed, fh, sort_keys=True)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    scratch.rmdir()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
