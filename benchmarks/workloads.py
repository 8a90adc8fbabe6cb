"""The benchmark's workloads: the CLI commands one repetition makes, and the
checks on what they write.

``commands``, ``read_back`` and ``observe`` run inside a worker process next
to the program; ``check`` and ``units`` run in run.py's process and only
read files and the worker's JSON result, so this module imports no numpy at
module level.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import math
from pathlib import Path

#: Workload name -> unit of its units_per_s.
WORKLOADS = {
    "two-user-figure": "searches",
    "advantage-figure": "realized matrices",
    "mesh-design": "mesh elements written and read back",
    "verify-gate": "simulated trials",
}

#: Reference outputs exist for program seeds 0..REFERENCE_SEEDS-1; a workload
#: seed is mapped onto them so every run can be checked against them.
REFERENCE_SEEDS = 8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Relative tolerance for numeric cells of figure outputs against the
#: reference; text cells and empty cells must match exactly.
FIGURE_RTOL = 1e-9
ROUND_TRIP_TOL = 1e-10

FIGURE_FILES = {
    "two-user-figure": ("figure14.csv", "figure14.dat"),
    "advantage-figure": ("figure17a.csv", "figure17a.dat", "figure17b.csv", "figure17b.dat"),
}
VERIFY_OUTPUTS = ("verify.json", "sabotage.json")
#: Files each repetition must write at the top of its output directory and
#: reproduce byte for byte in later repetitions.
OUTPUT_FILES = {**FIGURE_FILES, "verify-gate": VERIFY_OUTPUTS, "mesh-design": ()}
FIGURE_ID = {"two-user-figure": 14, "advantage-figure": 17}
#: Work per repetition of the figure workloads at the presets: 2 dark-count
#: values x 201 N points of two-user searches; 10 K values x 500 realizations.
FIGURE_UNITS = {"two-user-figure": 402, "advantage-figure": 5000}

MESH_DESIGNS = ("gbs-reck", "gbs-clements")
MESH_K = range(2, 65)

VERIFY_K = range(2, 17)
VERIFY_STRATEGIES = ("first-K-minus-1", "last-only")
VERIFY_SKIPS = ("ValidityError", "FeasibilityError")


def program_seed(workload: str, seed: int) -> int:
    """Seed handed to the program; mesh-design has no random input."""
    return 0 if workload == "mesh-design" else seed % REFERENCE_SEEDS


# --------------------------------------------------------------------------
# Worker side


def commands(workload: str, out: Path, seed: int) -> list[list[str]]:
    """The CLI argument vectors of one repetition, in order."""
    if workload in FIGURE_ID:
        return [["figure", "--id", str(FIGURE_ID[workload]), "--out-dir", str(out),
                 "--seed", str(seed)]]
    if workload == "mesh-design":
        return [
            ["design", "--design", design, "--k", str(k), "--out-dir", str(out / f"{design}-{k}")]
            for design in MESH_DESIGNS
            for k in MESH_K
        ]
    if workload == "verify-gate":
        common = ["verify", "--k-grid", f"{VERIFY_K.start}:{VERIFY_K.stop - 1}",
                  "--p-error", "1e-3", "--seed", str(seed)]
        return [
            common + ["--trials", "200000", "--out", str(out / "verify.json")],
            common + ["--trials", "20000", "--sabotage", "alpha2/4",
                      "--out", str(out / "sabotage.json")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def read_back(circuits, out: Path) -> list[tuple]:
    """Parse every written mesh layout and compose it into its matrix."""
    rebuilt = []
    for design in MESH_DESIGNS:
        for k in MESH_K:
            text = (out / f"{design}-{k}" / "layout.json").read_text()
            layout = circuits.layout_from_json(text)
            rebuilt.append((design, k, layout, circuits.compose_layout(layout)))
    return rebuilt


def observe(rebuilt: list[tuple]) -> list[dict]:
    """Round-trip error against the DFT and the counts of each read-back mesh."""
    import numpy as np

    rows = []
    for design, k, layout, matrix in rebuilt:
        idx = np.arange(k)
        dft = np.exp(2j * np.pi * np.outer(idx, idx) / k) / math.sqrt(k)
        rows.append({
            "design": design,
            "k": k,
            "error": float(np.abs(matrix - dft).max()),
            "bs_count": layout.bs_count,
            "optical_depth": layout.optical_depth,
            "elements": len(layout.elements),
        })
    return rows


# --------------------------------------------------------------------------
# run.py side


def load_reference(workload: str, seed: int) -> dict:
    """Seed-commit outputs of a figure workload, by file name."""
    path = REFERENCE_DIR / f"{workload}.json.xz"
    with lzma.open(path, "rt") as fh:
        return json.load(fh)[str(seed)]


def digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _table(name: str, text: str) -> list[list[str]]:
    if name.endswith(".csv"):
        return list(csv.reader(io.StringIO(text)))
    lines = text.splitlines()
    header = lines[0].removeprefix("# ").split(" ")
    rows = [["" if cell == "nan" else cell for cell in line.split(" ")] for line in lines[1:]]
    return [header] + rows


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(g, w, rel_tol=FIGURE_RTOL, abs_tol=0.0)


def compare_figure(name: str, got_text: str, want_csv: str) -> str | None:
    """None when a figure file matches its reference CSV, else the first difference."""
    got, want = _table(name, got_text), _table("reference.csv", want_csv)
    if got[0] != want[0]:
        return f"header {got[0]} != {want[0]}"
    if len(got) != len(want):
        return f"{len(got) - 1} rows, reference has {len(want) - 1}"
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g_row) != len(w_row):
            return f"row {i}: {len(g_row)} cells, reference has {len(w_row)}"
        for col, g, w in zip(want[0], g_row, w_row):
            if not _cells_match(g, w):
                return f"row {i} {col}: {g!r} != reference {w!r}"
    return None


def _verify_checks(out: Path, result: dict) -> tuple[list, dict]:
    checks = []
    verdicts = {"pass": 0, "fail": 0, "skipped": 0}
    expected_pairs = {(k, s) for k in VERIFY_K for s in VERIFY_STRATEGIES}
    for name, command in zip(VERIFY_OUTPUTS, result["commands"]):
        rc = command["rc"]
        report = json.loads((out / name).read_text())
        all_pass = report["all_pass"]
        checks.append((f"{name}:exit-code", rc == (0 if all_pass else 1),
                       f"exit {rc}, all_pass {all_pass}"))
        pairs = {}
        for entry in report["reports"]:
            typed = ("pass" in entry and isinstance(entry["pass"], bool)
                     and len(entry["scenarios"]) == 2) or entry.get("skipped") in VERIFY_SKIPS
            pairs[(entry["K"], entry["strategy"])] = typed
        covered = set(pairs) == expected_pairs and all(pairs.values())
        checks.append((f"{name}:verdict-or-typed-skip", covered,
                       f"{len(pairs)} pairs, {sum(pairs.values())} with verdict or typed skip"))
        if name == "sabotage.json":
            checks.append(("sabotage.json:gate-fails", all_pass is False, f"all_pass {all_pass}"))
        else:
            for entry in report["reports"]:
                if "skipped" in entry:
                    verdicts["skipped"] += 1
                else:
                    verdicts["pass" if entry["pass"] else "fail"] += 1
    return checks, verdicts


def check(workload: str, out: Path, result: dict, seed: int, first: dict | None) -> tuple:
    """Output checks of one repetition.

    Returns ``(checks, digests, extras)``: ``checks`` is a list of
    ``(name, ok, detail)``; ``digests`` are the output hashes that later
    repetitions must reproduce byte for byte (``first`` holds those of the
    first repetition, None for the first itself); ``extras`` holds the
    verification verdict counts.
    """
    checks: list = []
    extras: dict = {}
    names = OUTPUT_FILES[workload]
    present = [n for n in names if (out / n).is_file()]
    for name in names:
        if name not in present:
            checks.append((f"{name}:written", False, "missing"))
    if workload in FIGURE_FILES:
        reference = load_reference(workload, seed)
        for name in present:
            want = reference[name.replace(".dat", ".csv")]
            diff = compare_figure(name, (out / name).read_text(), want)
            checks.append((f"{name}:matches-reference", diff is None, diff or "ok"))
    elif workload == "verify-gate" and len(present) == len(names):
        verify_checks, extras["verdicts"] = _verify_checks(out, result)
        checks += verify_checks
    elif workload == "mesh-design":
        for row in result.get("observations", []):
            tag = f"{row['design']}-{row['k']}"
            checks.append((f"{tag}:round-trip", row["error"] <= ROUND_TRIP_TOL,
                           f"max error {row['error']:.3g}"))
            want = mesh_counts(row["design"], row["k"])
            got = (row["bs_count"], row["optical_depth"])
            checks.append((f"{tag}:counts", got == want, f"{got} vs {want}"))
        if len(result.get("observations", [])) != len(MESH_DESIGNS) * len(MESH_K):
            detail = result.get("read_back_error", "some layouts were not read back")
            checks.append(("mesh:all-read-back", False, detail))
    hashes = digests(out, present)
    if first is not None:
        for name in present:
            same = hashes[name] == first.get(name)
            checks.append((f"{name}:byte-identical-repeat", same, "ok" if same else "differs"))
    return checks, hashes, extras


def mesh_counts(design: str, k: int) -> tuple[int, int]:
    """(beamsplitter count, optical depth) from the design table.

    The rectangular mesh at K=2 is a single beamsplitter, whose depth is 1,
    not the table's K (the documented exception of acceptance criterion 02).
    """
    bs = k * (k - 1) // 2
    if design == "gbs-clements":
        return bs, 1 if k == 2 else k
    return bs, 2 * k - 3


def units(workload: str, out: Path, result: dict) -> int:
    """Work done by one repetition, in the workload's unit."""
    if workload in FIGURE_UNITS:
        return FIGURE_UNITS[workload]
    if workload == "mesh-design":
        return sum(row["elements"] for row in result.get("observations", []))
    trials = 0
    for name in VERIFY_OUTPUTS:
        path = out / name
        if path.is_file():
            for entry in json.loads(path.read_text())["reports"]:
                trials += sum(s["trials"] for s in entry.get("scenarios", []))
    return trials
