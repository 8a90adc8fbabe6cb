"""One repetition of a workload in a fresh interpreter.

Usage (started by run.py):
    python3 benchmarks/worker.py --workload NAME --seed N --out-dir DIR --result FILE
        [--trace 0|1] [--probe]

Times the import of ``multiqf.cli`` plus building its parser (set-up), then
runs the workload's CLI commands through ``multiqf.cli.main`` and records
wall time, process CPU time (all threads) and the peak resident set size of
this process.  ``--probe`` stops after set-up.  The result is written as JSON
to ``--result``.
"""

import os
import sys
import time


def main() -> int:
    # Nothing but os, sys and time is imported before the timed set-up.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import multiqf.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    import argparse
    import json
    import resource
    import traceback
    from pathlib import Path

    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    result = {"setup_s": setup_s}
    if args.probe:
        Path(args.result).write_text(json.dumps(result))
        return 0

    from multiqf import circuits

    out = Path(args.out_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runs = []
    rebuilt = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, argv in enumerate(workloads.commands(args.workload, out, args.seed)):
        if tracer:
            tracer.request = i
        try:
            runs.append({"argv": argv, "rc": cli.main(argv), "error": None})
        except Exception:
            runs.append({"argv": argv, "rc": None, "error": traceback.format_exc()})
    if args.workload == "mesh-design":
        if tracer:
            tracer.request = len(runs)
        try:
            rebuilt = workloads.read_back(circuits, out)
        except Exception:
            result["read_back_error"] = traceback.format_exc()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()

    import numpy as np

    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=peak_kib / 1024.0,
        commands=runs,
        observations=workloads.observe(rebuilt),
        numpy=np.__version__,
        blas=_blas(np),
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


if __name__ == "__main__":
    raise SystemExit(main())
