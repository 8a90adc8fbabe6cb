"""multiqf benchmark: whole CLI workloads, end to end or traced per layer.

Usage, from the root of a checkout:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads (see benchmarks/NOTES.md): two-user-figure, advantage-figure,
mesh-design, verify-gate.  One client in a closed loop: each repetition runs
in a fresh interpreter (benchmarks/worker.py) after the previous one ended,
and repetitions continue until the next one would overrun ``--seconds``
(at least two per run).  Set-up is also measured by interpreters that stop
after it: two before the first repetition and one before each repetition.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced repetitions and reports per-layer metrics
from the traced ones.  Every repetition's outputs are checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outputs go to a temporary directory under
``.bench_tmp/`` in the checkout, removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Set-up-only interpreters started before the first repetition; one more
#: runs before every repetition, so set-up is sampled across the whole run.
SETUP_PROBES = 2
MIN_REPS = 2
#: Every worker is stopped by this time after the run started, so that a
#: hanging program still lets the run end well within 180 s.
TIME_LIMIT_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _worker(workload: str, seed: int, tmp: Path, tag: str, timeout: float,
            trace: bool = False, probe: bool = False) -> tuple[dict | None, Path]:
    """Run one worker process; returns its result (None if it failed) and its output dir."""
    out = tmp / tag
    out.mkdir()
    result_path = tmp / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(out), "--result", str(result_path),
           "--trace", "1" if trace else "0"]
    if probe:
        cmd.append("--probe")
    with open(tmp / f"{tag}.log", "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            log.write(f"\nworker stopped after {timeout:.1f} s\n")
            return None, out
    if proc.returncode != 0 or not result_path.is_file():
        return None, out
    return json.loads(result_path.read_text()), out


def _environment(args, seed: int) -> dict:
    def git_commit() -> str:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, env=env, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multiqf").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest()[:16],
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """Repetitions of one workload with their checks, accumulated as they finish."""

    def __init__(self, workload: str, seed: int, tmp: Path, time_limit: float):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.time_limit = time_limit
        self.setup: list[float] = []
        self.reps: dict[bool, list[dict]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digests: dict | None = None
        self.worker_info: dict = {}

    def probe(self, tag: str) -> None:
        result, out = _worker(self.workload, self.seed, self.tmp, tag, self.time_left(),
                              probe=True)
        shutil.rmtree(out)
        if result is not None:
            self.setup.append(result["setup_s"])

    def repetition(self, tag: str, trace: bool) -> float:
        """Run, check and record one repetition; returns its duration in seconds."""
        began = time.perf_counter()
        self.probe(f"{tag}-probe")
        n_commands = len(workloads.commands(self.workload, Path("."), self.seed))
        result, out = _worker(self.workload, self.seed, self.tmp, tag, self.time_left(),
                              trace=trace)
        self.attempted += n_commands
        if result is None:
            log = (self.tmp / f"{tag}.log").read_text()[-2000:]
            self._fail(f"{tag}: worker failed, all {n_commands} commands lost\n{log}", n_commands)
            shutil.rmtree(out)
            return time.perf_counter() - began
        self.setup.append(result["setup_s"])
        for run in result["commands"]:
            if run["error"] is not None or run["rc"] not in (0, 1):
                self._fail(f"{tag}: {' '.join(run['argv'][:3])}: "
                           f"{run['error'] or 'exit ' + str(run['rc'])}")
        try:
            checks, hashes, extras = workloads.check(
                self.workload, out, result, self.seed, self.first_digests
            )
            units = workloads.units(self.workload, out, result)
        except Exception:  # malformed output: one failed check, and the run goes on
            checks = [("outputs:readable", False, traceback.format_exc())]
            hashes, extras, units = {}, {}, 0
        if self.first_digests is None:
            self.first_digests = hashes
        self.attempted += len(checks)
        for name, ok, detail in checks:
            if not ok:
                self._fail(f"{tag}: check {name} failed: {detail}")
        result.update(extras, units=units, bytes_written=_dir_bytes(out))
        self.worker_info = {"numpy": result.pop("numpy"), "blas": result.pop("blas")}
        result.pop("observations")
        result.pop("commands")
        self.reps[trace].append(result)
        shutil.rmtree(out)
        return time.perf_counter() - began

    def time_left(self) -> float:
        return max(self.time_limit - time.perf_counter(), 0.1)

    def _fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)


def end_to_end(run: Run) -> dict:
    reps = run.reps[False]
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    return {
        "setup_s": statistics.median(run.setup),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "units_per_s": statistics.median(r["units"] for r in reps) / med("wall_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced repetitions (medians for times)."""
    traced = run.reps[True]
    first = traced[0]["trace"]

    def span(name: str) -> dict:
        return first["spans"].get(name, {"calls": 0, "counters": {}, "errors": {}})

    def self_s(name: str) -> float:
        return statistics.median(r["trace"]["spans"].get(name, {}).get("self_s", 0.0)
                                 for r in traced)

    def layer_s(layer: str) -> float:
        return statistics.median(r["trace"]["layers"][layer]["self_s"] for r in traced)

    def pct(name: str, key: str) -> float:
        return statistics.median(r["trace"]["spans"].get(name, {}).get(key, 0.0) for r in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in run.reps[False])
    c = lambda name, key: span(name)["counters"].get(key, 0)  # noqa: E731
    strategy = span("bounds.strategy")
    infeasible = strategy["errors"].get("FeasibilityError", 0)
    verdicts = traced[0].get("verdicts", {"pass": 0, "fail": 0, "skipped": 0})
    m = {
        "circuits.decompose.calls": (span("circuits.decompose")["calls"], "count"),
        "circuits.decompose.self_s": (self_s("circuits.decompose"), "s"),
        "circuits.elements": (c("circuits.decompose", "elements"), "count"),
        "circuits.json.self_s": (self_s("circuits.json"), "s"),
        "circuits.json.bytes": (c("circuits.json", "bytes"), "bytes"),
        "circuits.compose.self_s": (self_s("circuits.compose"), "s"),
        "noise.realize.calls": (span("noise.realize")["calls"], "count"),
        "noise.realizations": (c("noise.realize", "realizations"), "count"),
        "noise.blocks": (c("noise.realize", "blocks"), "count"),
        "noise.realize.self_s": (self_s("noise.realize"), "s"),
        "noise.blocks_per_s": (ratio(c("noise.realize", "blocks"), self_s("noise.realize")), "1/s"),
        "gains.batch.calls": (span("gains.batch")["calls"], "count"),
        "gains.patterns": (c("gains.batch", "patterns"), "count"),
        "gains.batch.self_s": (self_s("gains.batch"), "s"),
        "bounds.two_user.calls": (span("bounds.two_user")["calls"], "count"),
        "bounds.two_user.self_s": (self_s("bounds.two_user"), "s"),
        "bounds.two_user.ms.p50": (pct("bounds.two_user", "ms_p50"), "ms"),
        "bounds.two_user.ms.p97": (pct("bounds.two_user", "ms_p97"), "ms"),
        "bounds.inv_cdf.calls": (span("bounds.inv_cdf")["calls"], "count"),
        "bounds.inv_cdf.self_s": (self_s("bounds.inv_cdf"), "s"),
        "bounds.inv_cdf.per_search": (
            ratio(span("bounds.inv_cdf")["calls"], span("bounds.two_user")["calls"]), "count"),
        "bounds.strategy.calls": (strategy["calls"], "count"),
        "bounds.strategy.self_s": (self_s("bounds.strategy"), "s"),
        "bounds.strategy.infeasible": (infeasible, "count"),
        "bounds.strategy.feasible_ratio": (
            ratio(strategy["calls"] - infeasible, strategy["calls"]), "ratio"),
        "bounds.qubit_cost.calls": (span("bounds.qubit_cost")["calls"], "count"),
        "bounds.qubit_cost.self_s": (self_s("bounds.qubit_cost"), "s"),
        "classical.calls": (first["layers"]["classical"]["calls"], "count"),
        "classical.self_s": (layer_s("classical"), "s"),
        "mcsim.simulate.calls": (span("mcsim.simulate")["calls"], "count"),
        "mcsim.simulate.self_s": (self_s("mcsim.simulate"), "s"),
        "mcsim.trials": (c("mcsim.simulate", "trials"), "count"),
        "mcsim.trials_per_s": (
            ratio(c("mcsim.simulate", "trials"), self_s("mcsim.simulate")), "1/s"),
        "mcsim.simulate.ms.p50": (pct("mcsim.simulate", "ms_p50"), "ms"),
        "mcsim.simulate.ms.p97": (pct("mcsim.simulate", "ms_p97"), "ms"),
        "mcsim.verdict.pass": (verdicts["pass"], "count"),
        "mcsim.verdict.fail": (verdicts["fail"], "count"),
        "mcsim.verdict.skipped": (verdicts["skipped"], "count"),
        "cli.self_s": (layer_s("cli"), "s"),
        "cli.bytes_written": (traced[0]["bytes_written"], "bytes"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    for layer in first["layers"]:
        m[f"{layer}.share"] = (100.0 * layer_s(layer) / traced_wall, "%")
    return m


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multiqf" / "cli.py").is_file():
        print(f"error: no multiqf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that subprocess.run kills and reaps a running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seed = workloads.program_seed(args.workload, args.seed)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        env = _environment(args, seed)
        run = Run(args.workload, seed, tmp, started + TIME_LIMIT_S)
        for i in range(SETUP_PROBES):
            run.probe(f"probe{i}")
        deadline = time.perf_counter() + args.seconds
        durations: list[float] = []
        plan = [False, True] if args.trace else [False]
        i = 0
        while True:
            trace = plan[i % len(plan)]
            durations.append(run.repetition(f"rep{i}", trace))
            i += 1
            enough = all(run.reps[t] for t in plan) and i >= MIN_REPS
            if enough and time.perf_counter() + max(durations) > deadline:
                break
            if not enough and run.failed and i >= 2 * MIN_REPS:
                break
            if run.time_left() < 1.0:
                break
        env.update(run.worker_info)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    ok = bool(run.setup and run.reps[False] and (run.reps[True] or not args.trace))
    if args.trace:
        metrics = per_layer(run) if ok else {}
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(run).items()} if ok else {}
    attempted = max(run.attempted, 1)

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"repetitions untraced={len(run.reps[False])} traced={len(run.reps[True])} "
          f"setup_samples={len(run.setup)}; units_per_s counts "
          f"{workloads.WORKLOADS[args.workload]}")
    for failure in run.failures:
        print("FAILED " + failure)
    print(f"failed_frac {run.failed / attempted:.6g} "
          f"({run.failed} of {attempted} commands and checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.out:
        record = {"environment": env, "metrics": {k: v for k, (v, _) in metrics.items()},
                  "repetitions": run.reps, "setup_s": run.setup, "failures": run.failures}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps({
        "correct": run.failed == 0 and ok,
        "attempted": attempted,
        "failed": run.failed if ok else attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
