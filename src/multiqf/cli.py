"""Command-line front end: designs, visibility sweeps, figure data, verification.

Every command is deterministic given its flags (plus optional JSON config
file) and seed; outputs are plain CSV (RFC 4180), JSON, and gnuplot-style
.dat files with rows sorted by key, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import circuits, classical
from .bounds import (
    STRATEGY_FIRST,
    STRATEGY_IDEAL,
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
from .errors import FeasibilityError, MultiqfError, ParameterError, ValidityError
from .gains import BatchGains, batch_gain_set, gain_set, ideal_gain_set
from .mcsim import BoundCheck, plan_check, run_checks
from .noise import NoiseModel, realize_batch, realize_circuit

#: Shared defaults for all figure presets, individually overridable by flag.
PRESETS = {
    "p_error": 1e-5,
    "eta": 0.5,
    "bs_loss_db": -0.2,
    "sigma": 0.01,
    "delta": 0.78,
    "realizations": 500,
    "p_dark": (1e-9, 1e-11),
    "points_per_decade": 25,
}

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
    if not (0.0 < n_min <= n_max < math.inf):
        raise ParameterError(
            f"N range [{n_min!r}, {n_max!r}] must be finite, positive and not inverted"
        )
    if per_decade < 1:
        raise ParameterError(f"points per decade must be at least 1, got {per_decade}")
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
    return grid


def write_csv(path: Path, rows: list[dict], fieldnames: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})


def write_dat(path: Path, rows: list[dict], fieldnames: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("# " + " ".join(fieldnames) + "\n")
        for row in rows:
            fh.write(" ".join(_fmt(row.get(k)) or "nan" for k in fieldnames) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _bound_row(res: BoundResult, k: int, n: float, **extra) -> dict:
    return {
        "N": n,
        "M": res.m_pulses,
        "strategy": res.strategy,
        "alpha2": res.alpha2,
        "r": res.threshold_r,
        "Q": res.q_qubits,
        "feasible": res.feasible,
        "dominant": res.dominant_dark_term,
        "valid": res.within_validity(k),
        **extra,
    }


def _classical_row(series: str, bits: float, photons: float, n: float, m: int, **extra) -> dict:
    return {
        "N": n,
        "M": m,
        "strategy": series,
        "alpha2": photons,
        "r": None,
        "Q": bits,
        "feasible": True,
        "dominant": False,
        "valid": True,
        **extra,
    }


def batch_gains_for(
    k: int,
    sigma: float,
    bs_loss_db: float,
    realizations: int,
    seed: int,
    design: str = circuits.DESIGN_OPTIMAL,
) -> BatchGains:
    layout = circuits.build_design(k, design)[1]
    model = NoiseModel(sigma_t=sigma, sigma_p=sigma, bs_loss_db=bs_loss_db, seed=seed)
    return batch_gain_set(realize_batch(layout, model, realizations))


def _params(k: int, n: float, cfg: dict) -> ProtocolParams:
    return ProtocolParams(
        k=k,
        n_bits=n,
        ecc=ECCParams.from_delta(cfg["delta"]),
        p_error=cfg["p_error"],
        eta=cfg["eta"],
        p_dark=cfg["p_dark"],
    )


def strategy_sweep_rows(k: int, gains, n_grid: list[float], cfg: dict, **extra) -> list[dict]:
    """Bound/threshold/qubit rows for both strategies plus the ideal curve."""
    rows = []
    for n in n_grid:
        params = _params(k, n, cfg)
        for compute in (bound_first_detectors, bound_last_detector):
            try:
                rows.append(_bound_row(compute(params, gains), k, n, **extra))
            except FeasibilityError:
                name = STRATEGY_FIRST if compute is bound_first_detectors else STRATEGY_LAST
                rows.append(
                    {
                        "N": n,
                        "M": params.m_pulses,
                        "strategy": name,
                        "alpha2": None,
                        "r": None,
                        "Q": None,
                        "feasible": False,
                        "dominant": False,
                        "valid": True,
                        **extra,
                    }
                )
        rows.append(_bound_row(ideal_bound(params), k, n, **extra))
    return rows


def figure_14_rows(cfg: dict, v: float, n_grid: list[float], gains) -> list[dict]:
    """Two-user comparison: iterative search vs both strategy bounds."""
    rows = strategy_sweep_rows(2, gains, n_grid, cfg, p_dark=cfg["p_dark"])
    for n in n_grid:
        params = _params(2, n, cfg)
        res = algorithm_two_user(params, v)
        rows.append(_bound_row(res, 2, n, p_dark=cfg["p_dark"]))
        rows.append(
            _classical_row(
                "classical-best",
                classical.best_two_user(n, cfg["p_error"]),
                classical.best_two_user(n, cfg["p_error"]) / cfg["eta"],
                n,
                params.m_pulses,
                p_dark=cfg["p_dark"],
            )
        )
        rows.append(
            _classical_row(
                "classical-limit",
                classical.classical_limit(2, n, cfg["p_error"]),
                classical.photonic_limit_photons(2, n, cfg["p_error"], cfg["eta"]),
                n,
                params.m_pulses,
                p_dark=cfg["p_dark"],
            )
        )
    return rows


def figure_15_rows(cfg: dict, k: int, gains, n_grid: list[float]) -> list[dict]:
    """Information per user vs N for one (K, sigma, p_dark) panel."""
    rows = strategy_sweep_rows(
        k, gains, n_grid, cfg, p_dark=cfg["p_dark"], sigma=cfg["sigma"], K=k
    )
    for n in n_grid:
        m = _params(k, n, cfg).m_pulses
        rows.append(
            _classical_row(
                "classical-best",
                classical.best_k_user(k, n, cfg["p_error"]),
                classical.best_k_user(k, n, cfg["p_error"]) / cfg["eta"],
                n, m, p_dark=cfg["p_dark"], sigma=cfg["sigma"], K=k,
            )
        )
        rows.append(
            _classical_row(
                "classical-limit",
                classical.classical_limit(k, n, cfg["p_error"]),
                classical.photonic_limit_photons(k, n, cfg["p_error"], cfg["eta"]),
                n, m, p_dark=cfg["p_dark"], sigma=cfg["sigma"], K=k,
            )
        )
    return rows


def figure_16_rows(cfg: dict, k: int, gains, n_grid: list[float]) -> list[dict]:
    """Information, photon numbers, and the K*alpha2/M validity diagnostic."""
    rows = figure_15_rows(cfg, k, gains, n_grid)
    strategies = (STRATEGY_FIRST, STRATEGY_LAST, STRATEGY_IDEAL)
    for row in rows:
        if row["strategy"] in strategies and row["alpha2"] is not None:
            row["k_alpha2_over_m"] = k * row["alpha2"] / row["M"]
        else:
            row["k_alpha2_over_m"] = None
    return rows


def advantage_rows(
    cfg: dict,
    k_grid: list[int],
    p_dark_grid: list[float],
    gains_by_k: dict,
    n_grid: list[float],
    energy: bool,
) -> list[dict]:
    """Max advantage over N of the single-detector strategy vs classical costs.

    ``energy=False`` compares transmitted information (bits / qubits);
    ``energy=True`` compares photon numbers under the bit-per-photon rule.
    """
    rows = []
    for k in k_grid:
        for kind, gains in (("realistic", gains_by_k[k]), ("ideal-circuit", ideal_gain_set(k))):
            for p_dark in p_dark_grid:
                best_limit = 0.0
                best_known = 0.0
                cfg_p = dict(cfg, p_dark=p_dark)
                for n in n_grid:
                    params = _params(k, n, cfg_p)
                    try:
                        res = bound_last_detector(params, gains)
                    except FeasibilityError:
                        continue
                    if energy:
                        quantum = res.alpha2
                        lim = classical.photonic_limit_photons(k, n, cfg["p_error"], cfg["eta"])
                        best = classical.best_k_user(k, n, cfg["p_error"]) / cfg["eta"]
                    else:
                        quantum = res.q_qubits
                        lim = classical.classical_limit(k, n, cfg["p_error"])
                        best = classical.best_k_user(k, n, cfg["p_error"])
                    best_limit = max(best_limit, lim / quantum)
                    best_known = max(best_known, best / quantum)
                rows.append(
                    {
                        "K": k,
                        "p_dark": p_dark,
                        "circuit": kind,
                        "advantage_limit": best_limit,
                        "advantage_best": best_known,
                    }
                )
    return rows


def figure_18b_rows(mu_dark_grid: list[float], cfg: dict) -> list[dict]:
    ecc = ECCParams.from_delta(cfg["delta"])
    rows = []
    for v in FIG18_VISIBILITIES:
        for mu in mu_dark_grid:
            rows.append(
                {
                    "v_last": v,
                    "mu_dark": mu,
                    "k_max": max_users_energy_advantage(ecc, v, cfg["p_error"], mu),
                }
            )
    return rows


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


def cmd_visibility(args) -> int:
    rows = []
    for k in parse_grid(args.k_grid):
        bg = batch_gains_for(
            k, args.sigma, args.bs_loss_db, args.realizations, args.seed,
            design=_DESIGN_ALIASES[args.design],
        )
        rows.append(
            {
                "K": k,
                "design": _DESIGN_ALIASES[args.design],
                "sigma": args.sigma,
                "loss_db": args.bs_loss_db,
                "v_first": bg.v_first,
                "v_last": bg.v_last,
                "sd_first": bg.v_first_sd,
                "sd_last": bg.v_last_sd,
            }
        )
    fields = ["K", "design", "sigma", "loss_db", "v_first", "v_last", "sd_first", "sd_last"]
    write_csv(Path(args.out), rows, fields)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


_SWEEP_FIELDS = [
    "K", "p_dark", "sigma", "N", "M", "strategy",
    "alpha2", "r", "Q", "feasible", "dominant", "valid",
]


def cmd_figure(args) -> int:
    cfg = dict(PRESETS)
    cfg["p_error"] = args.p_error
    cfg["eta"] = args.eta
    cfg["delta"] = args.delta
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    reals = args.realizations
    p_darks = [args.p_dark] if args.p_dark is not None else list(PRESETS["p_dark"])

    def emit(name: str, rows: list[dict], fields: list[str]) -> None:
        rows = sorted(
            rows, key=lambda r: tuple(str(r.get(k)) for k in fields)
        )
        write_csv(out_dir / f"{name}.csv", rows, fields)
        write_dat(out_dir / f"{name}.dat", rows, fields)
        print(f"wrote {out_dir / name}.csv ({len(rows)} rows)")

    def n_grid_or(n_min: float, n_max: float) -> list[float]:
        """The N grid of the flags, each falling back to the figure's preset."""
        return log_spaced(
            n_min if args.n_min is None else args.n_min,
            n_max if args.n_max is None else args.n_max,
            args.points_per_decade,
        )

    if args.id == 14:
        n_grid = n_grid_or(1e4, 1e12)
        bg = batch_gains_for(2, args.sigma, args.bs_loss_db, reals, seed)
        rows = []
        for p_dark in p_darks:
            cfg_p = dict(cfg, p_dark=p_dark, sigma=args.sigma)
            rows += [
                dict(r, K=2, sigma=args.sigma)
                for r in figure_14_rows(cfg_p, bg.v_first, n_grid, bg.mean)
            ]
        emit("figure14", rows, _SWEEP_FIELDS)
    elif args.id == 15:
        n_grid = n_grid_or(1e6, 1e14)
        rows = []
        for k in (7, 50):
            for sigma in (args.sigma, 0.1):
                bg = batch_gains_for(k, sigma, args.bs_loss_db, reals, seed)
                for p_dark in p_darks:
                    rows += figure_15_rows(dict(cfg, p_dark=p_dark, sigma=sigma), k, bg.mean, n_grid)
        emit("figure15", rows, _SWEEP_FIELDS)
    elif args.id == 16:
        n_grid = n_grid_or(1e8, 1e12)
        rows = []
        for k in (7, 15):
            bg = batch_gains_for(k, args.sigma, args.bs_loss_db, reals, seed)
            rows += figure_16_rows(
                dict(cfg, p_dark=p_darks[0], sigma=args.sigma), k, bg.mean, n_grid
            )
        emit("figure16", rows, _SWEEP_FIELDS + ["k_alpha2_over_m"])
    elif args.id in (17, 18):
        k_grid = parse_grid(args.k_grid) if args.k_grid else [2, 4, 7, 10, 16, 25, 40, 60, 80, 100]
        pd_grid = [10.0 ** e for e in np.arange(-11.0, -6.99, 0.25)]
        n_grid = log_spaced(1e6, 1e14, 3)
        batches = {
            k: batch_gains_for(k, args.sigma, args.bs_loss_db, reals, seed) for k in k_grid
        }
        rows = advantage_rows(
            dict(cfg, sigma=args.sigma), k_grid, pd_grid,
            {k: bg.mean for k, bg in batches.items()}, n_grid,
            energy=(args.id == 18),
        )
        fields = ["K", "p_dark", "circuit", "advantage_limit", "advantage_best"]
        emit(f"figure{args.id}a", rows, fields)
        if args.id == 17:
            vis_rows = [
                {"K": k, "v_first": bg.v_first, "v_last": bg.v_last}
                for k, bg in batches.items()
            ]
            emit("figure17b", vis_rows, ["K", "v_first", "v_last"])
        else:
            mu_grid = [10.0 ** e for e in np.arange(-12.0, -6.99, 0.2)]
            emit("figure18b", figure_18b_rows(mu_grid, cfg), ["v_last", "mu_dark", "k_max"])
    else:
        print(f"unknown figure id {args.id}", file=sys.stderr)
        return 2
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
    # before any simulation, and all their simulations run in one batch.
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
            reports.append(json.loads(rep.to_json()) | {"K": k})
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
                       help="single dark-count value (default: preset pair)")
    p_fig.add_argument("--sigma", type=float, default=PRESETS["sigma"])
    p_fig.add_argument("--bs-loss-db", type=float, default=PRESETS["bs_loss_db"])
    p_fig.add_argument("--eta", type=float, default=PRESETS["eta"])
    p_fig.add_argument("--delta", type=float, default=PRESETS["delta"])
    p_fig.add_argument("--realizations", type=int, default=PRESETS["realizations"])
    p_fig.add_argument("--points-per-decade", type=int, default=PRESETS["points_per_decade"])
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


def main(argv: list[str] | None = None) -> int:
    try:
        argv = _splice_config(list(sys.argv[1:] if argv is None else argv))
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MultiqfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
