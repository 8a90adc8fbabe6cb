"""Command-line front end: designs, visibility sweeps, figure data, verification.

Every command is deterministic given its flags (plus optional JSON config
file) and seed; outputs are plain CSV (RFC 4180), JSON, and gnuplot-style
.dat files with rows sorted by key, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import operator
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import circuits, classical
from .bounds import (
    STRATEGY_FIRST,
    STRATEGY_LAST,
    BoundResult,
    ECCParams,
    ProtocolParams,
    algorithm_two_user,
    bound_first_detectors,
    bound_last_detector,
    ideal_bound,
    max_users_energy_advantage,
)
from .errors import (
    FeasibilityError,
    MultiqfError,
    ParameterError,
    ValidityError,
    check_int,
    check_real,
)
from .gains import (  # noqa: F401  (batch_gain_set is re-exported)
    BatchGains,
    batch_gain_set,
    gain_set,
    ideal_gain_set,
    streamed_gain_set,
)
from .mcsim import BoundCheck, plan_check, run_checks
from .noise import NoiseModel, realization_bytes, realize_batch, realize_circuit

#: Shared defaults for all figure presets, individually overridable by flag.
PRESETS = {
    "p_error": 1e-5,
    "eta": 0.5,
    "bs_loss_db": -0.2,
    "sigma": 0.01,
    "delta": 0.78,
    "realizations": 500,
    "p_dark": (1e-9, 1e-11),
}

_ADVANTAGE_PRESET = (
    (1e6, 1e14), 3, (2, 4, 7, 10, 16, 25, 40, 60, 80, 100),
    tuple(10.0 ** e for e in np.arange(-11.0, -6.99, 0.25)),
)
#: Figure id -> (N range, points per decade, K values, p_dark values) of its
#: preset.  --n-min, --n-max and --points-per-decade override the N grid of
#: every figure; --p-dark replaces the p_dark values of figures 14-16 and
#: --k-grid the K values of figures 17-18, whose x-axis is the p_dark grid.
FIGURES = {
    14: ((1e4, 1e12), 25, (2,), PRESETS["p_dark"]),
    15: ((1e6, 1e14), 25, (7, 50), PRESETS["p_dark"]),
    16: ((1e8, 1e12), 25, (7, 15), PRESETS["p_dark"][:1]),
    17: _ADVANTAGE_PRESET,
    18: _ADVANTAGE_PRESET,
}
#: Figures 14-16 sweep N; figure 15 also takes the noise level 0.1 next to --sigma.
_SWEEP_SIGMAS = {14: (None,), 15: (None, 0.1), 16: (None,)}

#: Worst-case visibilities for the max-user-count curves.
FIG18_VISIBILITIES = (0.98, 0.95, 0.90, 0.85)

_DESIGN_ALIASES = {
    "optimal": circuits.DESIGN_OPTIMAL,
    "optimal-tree": circuits.DESIGN_OPTIMAL,
    "extendable": circuits.DESIGN_EXTENDABLE,
    "gbs-reck": circuits.DESIGN_RECK,
    "generalized-bs-reck": circuits.DESIGN_RECK,
    "gbs-clements": circuits.DESIGN_CLEMENTS,
    "generalized-bs-clements": circuits.DESIGN_CLEMENTS,
}


def log_spaced(n_min: float, n_max: float, per_decade: int) -> list[float]:
    """Log-spaced grid endpoints included, deduplicated after rounding."""
    check_real("n_min", n_min, 0.0, ends="()")
    check_real("n_max", n_max, n_min)
    check_int("points per decade", per_decade, 1)
    decades = math.log10(n_max) - math.log10(n_min)
    count = max(2, int(round(decades * per_decade)) + 1)
    vals = np.logspace(math.log10(n_min), math.log10(n_max), count)
    out = sorted({float(round(v)) for v in vals})
    return out


def parse_grid(spec: str) -> list[int]:
    """Parse a K-grid flag: 'lo:hi' (inclusive) or comma-separated values."""
    try:
        if ":" in spec:
            lo, hi = spec.split(":")
            grid = list(range(int(lo), int(hi) + 1))
        else:
            grid = [int(v) for v in spec.split(",") if v]
    except ValueError:
        raise ParameterError(f"K grid {spec!r} is not 'lo:hi' or a list of integers") from None
    if not grid:
        raise ParameterError(f"K grid {spec!r} is empty")
    if len(set(grid)) < len(grid):
        raise ParameterError(f"K grid {spec!r} repeats a value")
    return grid


def write_csv(path: Path, cells: Iterable[tuple[str, ...]], fieldnames: list[str]) -> None:
    """Header and formatted rows (``_cells``) as CSV; an empty cell stays empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(cells)


def write_dat(path: Path, cells: Iterable[tuple[str, ...]], fieldnames: list[str]) -> None:
    """The same rows space-separated for gnuplot; an empty cell becomes nan."""
    with open(path, "w") as fh:
        fh.write("# " + " ".join(fieldnames) + "\n")
        fh.writelines(" ".join(c or "nan" for c in row) + "\n" for row in cells)


def _cells(table: dict, fieldnames: list[str]) -> Iterator[tuple[str, ...]]:
    """The rows of a column table (field -> list), each field formatted by ``_fmt``."""
    return zip(*(map(_fmt, table[k]) for k in fieldnames))


def _sorted_cells(table: dict, fields: list[str]) -> list[tuple[str, ...]]:
    """The formatted rows (``_cells``) sorted by the ``str`` of their fields.

    Each cell is formatted once for both; equal keys keep their order.
    """
    rows = zip(*(map(_key_and_cell, table[f]) for f in fields))  # a (key, cell) per field
    keyed = [tuple(zip(*row)) for row in rows]  # (keys, cells) per row
    keyed.sort(key=operator.itemgetter(0))
    return [cells for _, cells in keyed]


def _fmt(value) -> str:
    return _key_and_cell(value)[1]


def _key_and_cell(value) -> tuple[str, str]:
    """``str(value)``, the key figure rows sort by, and the cell ``_fmt`` writes."""
    if type(value) is float:  # a float's str is its repr
        text = repr(value)
        return text, text
    if value is None:
        return "None", ""
    if isinstance(value, (bool, np.bool_)):
        return str(value), "1" if value else "0"
    if isinstance(value, float):  # np.float64, whose str differs from its repr
        return str(value), repr(float(value))
    text = str(value)
    return text, text


#: Most bytes of realizations that ``batch_gains_for`` holds at once
#: (``noise.realization_bytes`` each: the matrix and the draws).  At 8 MiB,
#: 500 tree realizations at K = 40, 60, 80 and 100 take 2, 4, 7 and 10
#: chunks, and a Reck mesh at K = 100 takes 20.
_CHUNK_BYTES = 8 << 20


def _chunk_sizes(layout: circuits.CircuitLayout, realizations: int) -> list[int]:
    """Realizations per chunk: the fewest chunks of at most ``_CHUNK_BYTES``,
    sizes differing by at most one."""
    count = -(-realizations // max(1, _CHUNK_BYTES // realization_bytes(layout)))
    return [realizations // count + (i < realizations % count) for i in range(count)]


def batch_gains_for(
    k: int,
    sigma: float,
    bs_loss_db: float,
    realizations: int,
    seed: int,
    design: str = circuits.DESIGN_OPTIMAL,
) -> BatchGains:
    """``batch_gain_set`` of realizations ``0 .. realizations - 1``, realized
    and reduced one chunk of ``_chunk_sizes`` at a time by
    ``streamed_gain_set``.  Realization ``i`` is still drawn from
    ``(layout, seed, i)``, so the result is bit-identical to one whole stack.
    """
    layout = circuits.build_design(k, design)[1]
    model = NoiseModel(sigma_t=sigma, sigma_p=sigma, bs_loss_db=bs_loss_db, seed=seed)
    check_int("number of realizations", realizations)
    sizes = _chunk_sizes(layout, realizations)
    return streamed_gain_set(
        realize_batch(layout, model, size, start=start)
        for start, size in zip(itertools.accumulate(sizes, initial=0), sizes)
    )


def _params(k: int, n: float, cfg: dict) -> ProtocolParams:
    return ProtocolParams(
        k=k,
        n_bits=n,
        ecc=ECCParams.from_delta(cfg["delta"]),
        p_error=cfg["p_error"],
        eta=cfg["eta"],
        p_dark=cfg["p_dark"],
    )


def sweep_rows(cfg: dict, k: int, gains, n_grid: list[float], p_darks: list[float],
               v: float | None = None, **extra) -> dict[str, list]:
    """Column table (field -> list) of figures 14-16 for one (K, gains) family.

    One call each to both strategy bounds and the ideal curve, and with a
    visibility ``v`` to the iterative two-user search, covers every p_dark
    and N, a column of p_dark against the row of N.  A strategy whose gain
    inequality fails gives infeasible rows, and so does a point whose
    two-user search cannot cross.  The best known (``best_two_user`` at
    K = 2, ``best_k_user`` otherwise) and limiting classical costs are
    computed once per N.  ``extra`` adds columns of one value, such as K.
    """
    p_error, eta = cfg["p_error"], cfg["eta"]
    params = _params(k, np.array(n_grid), dict(cfg, p_dark=np.array(p_darks)[:, None]))
    shape = (len(p_darks), len(n_grid))
    points = {  # the (p_dark, N) grid, p_dark outside
        "p_dark": [p_dark for p_dark in p_darks for _ in n_grid],
        "N": list(n_grid) * len(p_darks),
        "M": [int(m) for m in params.m_pulses.tolist()] * len(p_darks),
    }
    table: dict[str, list] = {}

    def add(strategy: str, **values) -> None:
        """Rows of ``strategy`` at every point, an array value broadcast
        against the grid.  A value left out is the one of a classical row."""
        values = {"alpha2": None, "r": None, "Q": None, "feasible": True, "dominant": False,
                  "valid": True, "k_alpha2_over_m": None, **values, **extra, "strategy": strategy}
        for field, column in points.items():
            table.setdefault(field, []).extend(column)
        for field, value in values.items():
            if np.ndim(value):
                column = np.broadcast_to(value, shape).ravel().tolist()
            else:
                column = [value] * len(points["N"])
            table.setdefault(field, []).extend(column)

    def add_bound(res: BoundResult) -> None:
        fields = {"alpha2": res.alpha2, "r": res.threshold_r, "Q": res.q_qubits,
                  "k_alpha2_over_m": res.photon_load(k)}
        valid = res.within_validity(k)
        if np.ndim(res.feasible):  # a masked point's row is an infeasible one
            fields = {f: np.where(res.feasible, x, None) for f, x in fields.items()}
            valid = valid | ~res.feasible
        add(res.strategy, **fields, feasible=res.feasible, dominant=res.dominant_dark_term,
            valid=valid)

    for strategy, compute in ((STRATEGY_FIRST, bound_first_detectors),
                              (STRATEGY_LAST, bound_last_detector)):
        try:
            add_bound(compute(params, gains))
        except FeasibilityError:
            add(strategy, feasible=False)
    add_bound(ideal_bound(params))
    if k == 2:
        best = [classical.best_two_user(n, p_error) for n in n_grid]
    else:
        best = [classical.best_k_user(k, n, p_error) for n in n_grid]
    add("classical-best", alpha2=[b / eta for b in best], Q=best)
    add("classical-limit",
        alpha2=[classical.photonic_limit_photons(k, n, p_error, eta) for n in n_grid],
        Q=[classical.classical_limit(k, n, p_error) for n in n_grid])
    if v is not None:
        add_bound(algorithm_two_user(params, v))
    return table


def _classical_costs(k: int, n_grid: list[float], cfg: dict, energy: bool):
    """Classical limit and best known K-user cost per N: photons if ``energy``, else bits."""
    p_error, eta = cfg["p_error"], cfg["eta"]
    if energy:
        lim = [classical.photonic_limit_photons(k, n, p_error, eta) for n in n_grid]
    else:
        lim = [classical.classical_limit(k, n, p_error) for n in n_grid]
    best = np.array([classical.best_k_user(k, n, p_error) for n in n_grid])
    return np.array(lim), best / eta if energy else best


def advantage_rows(
    cfg: dict,
    k_grid: list[int],
    p_dark_grid: list[float],
    gains_by_k: dict,
    n_grid: list[float],
    energy: bool,
) -> dict[str, list]:
    """Max advantage over N of the single-detector strategy vs classical costs.

    ``energy=False`` compares transmitted information (bits / qubits);
    ``energy=True`` compares photon numbers under the bit-per-photon rule.
    One bound call covers a (K, circuit) family: every p_dark and N at once.
    Returns a column table (field -> list), one row per (K, circuit, p_dark).
    """
    cfg_p = dict(cfg, p_dark=np.array(p_dark_grid)[:, None])
    table = {f: [] for f in ("K", "p_dark", "circuit", "advantage_limit", "advantage_best")}
    for k in k_grid:
        costs = None
        for kind, gains in (("realistic", gains_by_k[k]), ("ideal-circuit", ideal_gain_set(k))):
            params = _params(k, np.array(n_grid), cfg_p)
            best_limit = best_known = np.zeros(len(p_dark_grid))
            try:
                res = bound_last_detector(params, gains)
            except FeasibilityError:
                pass  # the gain inequality fails at every p_dark and N
            else:
                if costs is None:
                    costs = _classical_costs(k, n_grid, cfg, energy)
                quantum = res.alpha2 if energy else res.q_qubits
                best_limit, best_known = (np.max(c / quantum, axis=1, initial=0.0) for c in costs)
            table["K"] += [k] * len(p_dark_grid)
            table["p_dark"] += p_dark_grid
            table["circuit"] += [kind] * len(p_dark_grid)
            table["advantage_limit"] += best_limit.tolist()
            table["advantage_best"] += best_known.tolist()
    return table


def figure_18b_rows(mu_dark_grid: list[float], cfg: dict) -> dict[str, list]:
    """Column table of the largest K with an energy advantage, per (v_last, mu_dark)."""
    ecc = ECCParams.from_delta(cfg["delta"])
    v_last, mu_dark = zip(*itertools.product(FIG18_VISIBILITIES, mu_dark_grid))
    return {
        "v_last": list(v_last),
        "mu_dark": list(mu_dark),
        "k_max": [max_users_energy_advantage(ecc, v, cfg["p_error"], mu)
                  for v, mu in zip(v_last, mu_dark)],
    }


# --------------------------------------------------------------------------
# Commands


def _splice_config(argv: list[str]) -> list[str]:
    """Expand --config FILE into flag tokens ahead of the explicit flags.

    Explicit flags appear later on the line and therefore win, since
    argparse keeps the last occurrence of a value option.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ParameterError("--config needs a file name")
    path = argv[idx + 1]
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParameterError(f"config {path!r} is not a JSON object")
    tokens: list[str] = []
    for key, value in sorted(data.items()):
        tokens += [f"--{key}", str(value)]
    rest = argv[:idx] + argv[idx + 2 :]
    return rest[:1] + tokens + rest[1:]


def cmd_design(args) -> int:
    design = _DESIGN_ALIASES[args.design]
    matrix, layout = circuits.build_design(args.k, design)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "matrix.json").write_text(circuits.matrix_to_json(matrix))
    (out_dir / "layout.json").write_text(circuits.layout_to_json(layout))
    print(
        f"design={design} K={args.k} bs_count={layout.bs_count} "
        f"optical_depth={layout.optical_depth}"
    )
    return 0


def _check_stacks(k_values, realizations: int) -> None:
    """Reject, before any work, a K whose realization stack is too large."""
    for k in k_values:
        circuits._check_stack(k, realizations)


def cmd_visibility(args) -> int:
    k_values = parse_grid(args.k_grid)
    _check_stacks(k_values, args.realizations)
    design = _DESIGN_ALIASES[args.design]
    fields = ["K", "design", "sigma", "loss_db", "v_first", "v_last", "sd_first", "sd_last"]
    table = {f: [] for f in fields}
    for k in k_values:
        bg = batch_gains_for(k, args.sigma, args.bs_loss_db, args.realizations, args.seed,
                             design=design)
        row = (k, design, args.sigma, args.bs_loss_db,
               bg.v_first, bg.v_last, bg.v_first_sd, bg.v_last_sd)
        for field, value in zip(fields, row):
            table[field].append(value)
    write_csv(Path(args.out), _cells(table, fields), fields)
    print(f"wrote {args.out} ({len(k_values)} rows)")
    return 0


_SWEEP_FIELDS = [
    "K", "p_dark", "sigma", "N", "M", "strategy",
    "alpha2", "r", "Q", "feasible", "dominant", "valid",
]


def cmd_figure(args) -> int:
    (n_min, n_max), per_decade, k_values, p_darks = FIGURES[args.id]
    sweep = args.id in _SWEEP_SIGMAS
    if args.k_grid is not None:
        if sweep:
            raise ParameterError(
                f"figure {args.id} has fixed K values; --k-grid is for figures 17-18"
            )
        k_values = parse_grid(args.k_grid)
    if args.p_dark is not None:
        if not sweep:
            raise ParameterError(f"figure {args.id} sweeps p_dark; --p-dark is for figures 14-16")
        p_darks = (args.p_dark,)
    _check_stacks(k_values, args.realizations)
    n_grid = log_spaced(
        n_min if args.n_min is None else args.n_min,
        n_max if args.n_max is None else args.n_max,
        per_decade if args.points_per_decade is None else args.points_per_decade,
    )
    cfg = dict(PRESETS, p_error=args.p_error, eta=args.eta, delta=args.delta)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def gains_for(k: int, sigma: float) -> BatchGains:
        return batch_gains_for(k, sigma, args.bs_loss_db, args.realizations, args.seed)

    def emit(name: str, table: dict[str, list], fields: list[str]) -> None:
        cells = _sorted_cells(table, fields)
        write_csv(out_dir / f"{name}.csv", cells, fields)
        write_dat(out_dir / f"{name}.dat", cells, fields)
        print(f"wrote {out_dir / name}.csv ({len(cells)} rows)")

    if sweep:
        table: dict[str, list] = {}
        for k in k_values:
            for sigma in _SWEEP_SIGMAS[args.id]:
                sigma = args.sigma if sigma is None else sigma
                bg = gains_for(k, sigma)
                v = bg.v_first if k == 2 else None
                for field, column in sweep_rows(cfg, k, bg.mean, n_grid, p_darks, v,
                                                K=k, sigma=sigma).items():
                    table.setdefault(field, []).extend(column)
        fields = _SWEEP_FIELDS + (["k_alpha2_over_m"] if args.id == 16 else [])
        emit(f"figure{args.id}", table, fields)
        return 0
    batches = {k: gains_for(k, args.sigma) for k in k_values}
    table = advantage_rows(
        cfg, k_values, p_darks,
        {k: bg.mean for k, bg in batches.items()}, n_grid,
        energy=(args.id == 18),
    )
    emit(f"figure{args.id}a", table, list(table))
    if args.id == 17:
        vis = {
            "K": list(batches),
            "v_first": [bg.v_first for bg in batches.values()],
            "v_last": [bg.v_last for bg in batches.values()],
        }
        emit("figure17b", vis, list(vis))
    else:
        mu_grid = [10.0 ** e for e in np.arange(-12.0, -6.99, 0.2)]
        table = figure_18b_rows(mu_grid, cfg)
        emit("figure18b", table, list(table))
    return 0


def cmd_verify(args) -> int:
    ecc = ECCParams.from_delta(args.delta)
    n_bits = args.m_pulses / ecc.c
    alpha2_scale, r_scale = 1.0, 1.0
    spec = args.sabotage
    if spec:
        kind = next((p for p in ("alpha2/", "r*") if spec.startswith(p)), None)
        try:
            factor = float(spec[len(kind):]) if kind else math.nan
        except ValueError:
            factor = math.nan
        if not (math.isfinite(factor) and factor > 0.0):
            print(f"error: unknown sabotage spec {spec!r}", file=sys.stderr)
            return 2
        if kind == "alpha2/":
            alpha2_scale = 1.0 / factor
        else:
            r_scale = factor
    model = NoiseModel(sigma_t=args.sigma, sigma_p=args.sigma, bs_loss_db=args.bs_loss_db,
                       seed=args.seed)
    # Every (K, strategy) check is planned first, so skips are decided
    # before any simulation starts.
    planned = []  # (K, strategy, BoundCheck or the skip it raised)
    for k in parse_grid(args.k_grid):
        layout = circuits.optimal_tree_layout(k)
        transfer = realize_circuit(layout, model, index=0)
        gains = gain_set(transfer)
        params = ProtocolParams(
            k=k, n_bits=n_bits, ecc=ecc, p_error=args.p_error, eta=args.eta,
            p_dark=args.p_dark,
        )
        for strategy in (STRATEGY_FIRST, STRATEGY_LAST):
            try:
                check = plan_check(
                    strategy, params, gains, transfer,
                    trials=args.trials, seed=args.seed,
                    alpha2_scale=alpha2_scale, r_scale=r_scale,
                )
            except (ValidityError, FeasibilityError) as exc:
                check = exc
            planned.append((k, strategy, check))
    results = iter(run_checks([c for _, _, c in planned if isinstance(c, BoundCheck)]))
    reports = []
    all_pass = True
    for k, strategy, check in planned:
        if isinstance(check, BoundCheck):
            rep = next(results)
            reports.append(rep.to_json_dict() | {"K": k, "photon_load": rep.bound.photon_load(k)})
            all_pass &= rep.passed
        else:
            reports.append(
                {"K": k, "strategy": strategy, "skipped": type(check).__name__,
                 "detail": str(check)}
            )
    payload = json.dumps({"all_pass": all_pass, "reports": reports}, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(payload)
        print(f"wrote {args.out}")
    else:
        print(payload)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiqf",
        description="Multi-party coherent-pulse fingerprinting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="emit a referee circuit design")
    p_design.add_argument("--k", type=int, required=True)
    p_design.add_argument("--design", choices=sorted(_DESIGN_ALIASES), default="optimal")
    p_design.add_argument("--out-dir", default=".")
    p_design.set_defaults(func=cmd_design)

    p_vis = sub.add_parser("visibility", help="Monte Carlo visibility sweep")
    p_vis.add_argument("--k-grid", default="2:30")
    p_vis.add_argument("--design", choices=sorted(_DESIGN_ALIASES), default="optimal")
    p_vis.add_argument("--sigma", type=float, default=PRESETS["sigma"])
    p_vis.add_argument("--bs-loss-db", type=float, default=PRESETS["bs_loss_db"])
    p_vis.add_argument("--realizations", type=int, default=PRESETS["realizations"])
    p_vis.add_argument("--seed", type=int, default=0)
    p_vis.add_argument("--out", default="visibility.csv")
    p_vis.set_defaults(func=cmd_visibility)

    p_fig = sub.add_parser("figure", help="emit data series for a preset figure")
    p_fig.add_argument("--id", type=int, required=True, choices=(14, 15, 16, 17, 18))
    p_fig.add_argument("--out-dir", default="figures")
    p_fig.add_argument("--p-error", type=float, default=PRESETS["p_error"])
    p_fig.add_argument("--p-dark", type=float, default=None,
                       help="single dark-count value for figures 14-16 (default: preset)")
    p_fig.add_argument("--sigma", type=float, default=PRESETS["sigma"])
    p_fig.add_argument("--bs-loss-db", type=float, default=PRESETS["bs_loss_db"])
    p_fig.add_argument("--eta", type=float, default=PRESETS["eta"])
    p_fig.add_argument("--delta", type=float, default=PRESETS["delta"])
    p_fig.add_argument("--realizations", type=int, default=PRESETS["realizations"])
    p_fig.add_argument("--points-per-decade", type=int, default=None,
                       help="default: 25 for figures 14-16, 3 for 17-18")
    p_fig.add_argument("--n-min", type=float, default=None)
    p_fig.add_argument("--n-max", type=float, default=None)
    p_fig.add_argument("--k-grid", default=None)
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.set_defaults(func=cmd_figure)

    p_ver = sub.add_parser("verify", help="empirically gate the analytical bounds")
    p_ver.add_argument("--k-grid", default="2,3,4")
    p_ver.add_argument("--m-pulses", type=float, default=1e5)
    p_ver.add_argument("--p-error", type=float, default=1e-2)
    p_ver.add_argument("--p-dark", type=float, default=1e-6)
    p_ver.add_argument("--eta", type=float, default=PRESETS["eta"])
    p_ver.add_argument("--delta", type=float, default=PRESETS["delta"])
    p_ver.add_argument("--sigma", type=float, default=PRESETS["sigma"])
    p_ver.add_argument("--bs-loss-db", type=float, default=PRESETS["bs_loss_db"])
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--sabotage", default=None, help="e.g. alpha2/4 or r*1.5")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    for p in (p_design, p_vis, p_fig, p_ver):
        p.add_argument("--config", default=None,
                       help="JSON file with flag values (explicit flags win)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        argv = _splice_config(list(sys.argv[1:] if argv is None else argv))
        args = _parser().parse_args(argv)
        return args.func(args)
    except (MultiqfError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
