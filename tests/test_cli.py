import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from multiqf import bounds, classical, mcsim, noise
from multiqf import circuits as qc
from multiqf import cli
from multiqf.errors import FeasibilityError, ParameterError


def run(argv):
    return cli.main(argv)


class TestDesignCommand:
    def test_optimal_k4_matches_reference(self, tmp_path, capsys):
        assert run(["design", "--k", "4", "--design", "optimal",
                    "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bs_count=3" in out and "optical_depth=2" in out
        matrix = qc.matrix_from_json((tmp_path / "matrix.json").read_text())
        expect = qc.compose_layout(qc.optimal_tree_layout(4))
        assert np.abs(matrix - expect).max() < 1e-12
        layout = qc.layout_from_json((tmp_path / "layout.json").read_text())
        assert layout.bs_count == 3

    def test_clements_k2_single_block(self, tmp_path, capsys):
        assert run(["design", "--k", "2", "--design", "gbs-clements",
                    "--out-dir", str(tmp_path)]) == 0
        assert "bs_count=1" in capsys.readouterr().out

    def test_optimal_k7_metrics(self, tmp_path, capsys):
        run(["design", "--k", "7", "--design", "optimal", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "bs_count=6" in out and "optical_depth=3" in out


class TestVisibilityCommand:
    def test_csv_columns_and_values(self, tmp_path):
        out = tmp_path / "vis.csv"
        run(["visibility", "--k-grid", "2,7", "--realizations", "50",
             "--seed", "4", "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        assert [r["K"] for r in rows] == ["2", "7"]
        assert set(rows[0]) == {"K", "design", "sigma", "loss_db",
                                "v_first", "v_last", "sd_first", "sd_last"}
        assert float(rows[0]["v_first"]) == pytest.approx(0.98, abs=0.01)
        assert float(rows[1]["v_last"]) == pytest.approx(0.93, abs=0.02)

    def test_loss_only_run_matches_analytic(self, tmp_path):
        out = tmp_path / "vis.csv"
        run(["visibility", "--k-grid", "2", "--sigma", "0", "--realizations", "3",
             "--out", str(out)])
        row = next(csv.DictReader(open(out)))
        rho = (10.0 ** (-0.2 / 20.0)) ** 2
        assert float(row["v_first"]) == pytest.approx(0.5 * (1 + rho), abs=1e-12)

    def test_large_stack_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        # K = 2 and 3 fit in 64 realizations under this limit, K = 4 does not
        monkeypatch.setattr(qc, "MAX_STACK_BYTES", 16 * 64 * 9)
        out = tmp_path / "vis.csv"
        assert run(["visibility", "--k-grid", "2:4", "--realizations", "64",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: 64 matrices at K = 4 need 16,384 bytes, above the "
                                "limit of 9,216; ask for fewer realizations or a smaller K\n")
        assert captured.out == "" and not out.exists()


class TestFigureCommand:
    def test_figure14_families_present(self, tmp_path):
        run(["figure", "--id", "14", "--points-per-decade", "1",
             "--realizations", "30", "--n-min", "1e4", "--n-max", "1e8",
             "--out-dir", str(tmp_path)])
        rows = list(csv.DictReader(open(tmp_path / "figure14.csv")))
        series = {r["strategy"] for r in rows}
        assert {"first-K-minus-1", "last-only", "ideal", "two-user-iterative",
                "classical-best", "classical-limit"} <= series
        assert (tmp_path / "figure14.dat").exists()

    @pytest.mark.parametrize("n_bits", ["1e17", "1e20"])
    def test_figure14_overflow_is_a_clean_error(self, tmp_path, capsys, n_bits):
        # the two-user search's binomial masses overflow at these codeword lengths
        code = run(["figure", "--id", "14", "--points-per-decade", "1",
                    "--realizations", "20", "--n-min", n_bits, "--n-max", n_bits,
                    "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: binomial mass exp(") and "overflows" in err
        assert not (tmp_path / "figure14.csv").exists()

    def test_figure17_large_k_is_a_clean_error(self, tmp_path, capsys):
        # 500 realizations at K = 1024 would take 7.8 GiB
        code = run(["figure", "--id", "17", "--k-grid", "1024", "--out-dir", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: 500 matrices at K = 1024 need 8,388,608,000 bytes, "
                                "above the limit of 1,073,741,824; ask for fewer realizations "
                                "or a smaller K\n")
        assert captured.out == "" and not list(tmp_path.iterdir())

    def test_figure16_validity_column(self, tmp_path):
        run(["figure", "--id", "16", "--points-per-decade", "1",
             "--realizations", "30", "--out-dir", str(tmp_path)])
        rows = list(csv.DictReader(open(tmp_path / "figure16.csv")))
        vals = [float(r["k_alpha2_over_m"]) for r in rows if r["k_alpha2_over_m"]]
        assert vals and max(vals) < 0.1

    def test_figure18_kmax_series(self, tmp_path):
        run(["figure", "--id", "18", "--k-grid", "4,8", "--realizations", "20",
             "--out-dir", str(tmp_path)])
        rows = list(csv.DictReader(open(tmp_path / "figure18b.csv")))
        by_v = {}
        for r in rows:
            by_v.setdefault(float(r["v_last"]), []).append(
                (float(r["mu_dark"]), float(r["k_max"]))
            )
        assert set(by_v) == set(cli.FIG18_VISIBILITIES)
        for pts in by_v.values():
            pts.sort()
            ks = [k for _, k in pts]
            assert all(a >= b for a, b in zip(ks, ks[1:]))  # decreasing in mu_dark

    def test_figure17_reads_the_n_flags(self, tmp_path):
        def advantages(*flags):
            out = tmp_path / "-".join(flags or ("preset",))
            assert run(["figure", "--id", "17", "--k-grid", "4", "--realizations", "20",
                        "--out-dir", str(out), *flags]) == 0
            return (out / "figure17a.csv").read_text()

        preset = advantages()
        assert advantages("--n-min", "1e13") != preset
        assert advantages("--n-max", "1e9") != preset
        assert advantages("--points-per-decade", "3") == preset

    def test_figure17_advantage_monotone_in_dark(self, tmp_path):
        run(["figure", "--id", "17", "--k-grid", "4", "--realizations", "20",
             "--out-dir", str(tmp_path)])
        rows = [r for r in csv.DictReader(open(tmp_path / "figure17a.csv"))
                if r["circuit"] == "realistic"]
        pts = sorted((float(r["p_dark"]), float(r["advantage_limit"])) for r in rows)
        advantages = [a for _, a in pts]
        assert all(a >= b - 1e-12 for a, b in zip(advantages, advantages[1:]))


# Row builders of figures 14-16 before sweep_rows replaced them, kept as the
# oracle for its rows.


def reference_bound_row(res, k, n, **extra):
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


def reference_classical_row(series, bits, photons, n, m, **extra):
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


def reference_strategy_sweep_rows(k, gains, n_grid, cfg, **extra):
    rows = []
    for n in n_grid:
        params = cli._params(k, n, cfg)
        for compute in (bounds.bound_first_detectors, bounds.bound_last_detector):
            try:
                rows.append(reference_bound_row(compute(params, gains), k, n, **extra))
            except FeasibilityError:
                name = (bounds.STRATEGY_FIRST if compute is bounds.bound_first_detectors
                        else bounds.STRATEGY_LAST)
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
        rows.append(reference_bound_row(bounds.ideal_bound(params), k, n, **extra))
    return rows


def reference_figure_14_rows(cfg, v, n_grid, gains):
    rows = reference_strategy_sweep_rows(2, gains, n_grid, cfg, p_dark=cfg["p_dark"])
    for n in n_grid:
        params = cli._params(2, n, cfg)
        res = bounds.algorithm_two_user(params, v)
        rows.append(reference_bound_row(res, 2, n, p_dark=cfg["p_dark"]))
        rows.append(
            reference_classical_row(
                "classical-best",
                classical.best_two_user(n, cfg["p_error"]),
                classical.best_two_user(n, cfg["p_error"]) / cfg["eta"],
                n,
                params.m_pulses,
                p_dark=cfg["p_dark"],
            )
        )
        rows.append(
            reference_classical_row(
                "classical-limit",
                classical.classical_limit(2, n, cfg["p_error"]),
                classical.photonic_limit_photons(2, n, cfg["p_error"], cfg["eta"]),
                n,
                params.m_pulses,
                p_dark=cfg["p_dark"],
            )
        )
    return rows


def reference_figure_15_rows(cfg, k, gains, n_grid):
    rows = reference_strategy_sweep_rows(
        k, gains, n_grid, cfg, p_dark=cfg["p_dark"], sigma=cfg["sigma"], K=k
    )
    for n in n_grid:
        m = cli._params(k, n, cfg).m_pulses
        rows.append(
            reference_classical_row(
                "classical-best",
                classical.best_k_user(k, n, cfg["p_error"]),
                classical.best_k_user(k, n, cfg["p_error"]) / cfg["eta"],
                n, m, p_dark=cfg["p_dark"], sigma=cfg["sigma"], K=k,
            )
        )
        rows.append(
            reference_classical_row(
                "classical-limit",
                classical.classical_limit(k, n, cfg["p_error"]),
                classical.photonic_limit_photons(k, n, cfg["p_error"], cfg["eta"]),
                n, m, p_dark=cfg["p_dark"], sigma=cfg["sigma"], K=k,
            )
        )
    return rows


def reference_figure_16_rows(cfg, k, gains, n_grid):
    rows = reference_figure_15_rows(cfg, k, gains, n_grid)
    strategies = (bounds.STRATEGY_FIRST, bounds.STRATEGY_LAST, bounds.STRATEGY_IDEAL)
    for row in rows:
        if row["strategy"] in strategies and row["alpha2"] is not None:
            row["k_alpha2_over_m"] = k * row["alpha2"] / row["M"]
        else:
            row["k_alpha2_over_m"] = None
    return rows


@pytest.fixture(scope="module")
def sweep_gains():
    return {k: cli.batch_gains_for(k, 0.01, -0.2, 30, 0) for k in (2, 7, 15)}


def table_rows(table, fields):
    """The rows of a column table (field -> list) as dicts of ``fields``."""
    return [dict(zip(fields, values)) for values in zip(*(table[f] for f in fields))]


class TestSweepRows:
    @pytest.mark.parametrize("infeasible", [None, "g_d_first_min", "g_d_last_max"])
    @pytest.mark.parametrize("p_dark", cli.PRESETS["p_dark"])
    @pytest.mark.parametrize("figure, k", [(14, 2), (15, 7), (15, 15), (16, 7), (16, 15)])
    def test_rows_equal_the_reference(self, sweep_gains, figure, k, p_dark, infeasible):
        # one family call covers every p_dark series: the presets, with
        # ``p_dark`` first, then 0 and 1e-10; the reference builds each
        # series point by point
        bg, sigma = sweep_gains[k], 0.01
        gains = bg.mean
        if infeasible:  # the strategy's gain inequality fails
            closing = {"g_d_first_min": gains.g_e_first, "g_d_last_max": gains.g_e_last}
            gains = dataclasses.replace(gains, **{infeasible: closing[infeasible]})
        p_darks = (p_dark, *(p for p in cli.PRESETS["p_dark"] if p != p_dark), 0.0, 1e-10)
        n_grid = cli.log_spaced(*cli.FIGURES[figure][0], 1)
        want = []
        for series in p_darks:
            cfg = dict(cli.PRESETS, p_dark=series, sigma=sigma)
            if figure == 14:
                want += [dict(r, K=2, sigma=sigma)
                         for r in reference_figure_14_rows(cfg, bg.v_first, n_grid, gains)]
            elif figure == 15:
                want += reference_figure_15_rows(cfg, k, gains, n_grid)
            else:
                want += reference_figure_16_rows(cfg, k, gains, n_grid)
        got = cli.sweep_rows(dict(cli.PRESETS, sigma=sigma), k, gains, n_grid, p_darks,
                             bg.v_first if k == 2 else None, K=k, sigma=sigma)
        fields = cli._SWEEP_FIELDS + (["k_alpha2_over_m"] if figure == 16 else [])
        assert len({len(column) for column in got.values()}) == 1

        def project(rows):  # repr: a value of another type is another value
            return sorted(repr(tuple(r[f] for f in fields)) for r in rows)

        assert project(table_rows(got, fields)) == project(want)
        infeasible_rows = got["feasible"].count(False)
        assert infeasible_rows == (len(n_grid) * len(p_darks) if infeasible else 0)

    @pytest.mark.parametrize("figure, families", [(14, 1), (15, 4), (16, 2)])
    def test_one_bound_call_per_family(self, tmp_path, monkeypatch, figure, families):
        # three bound calls per (K, sigma) family, and at K = 2 one two-user
        # search, each over the whole (p_dark, N) grid; no per-point params
        bound_calls, point_params = [], []
        names = ("bound_first_detectors", "bound_last_detector", "ideal_bound",
                 "algorithm_two_user")
        for name in names:
            def spy(params, *args, real=getattr(cli, name), name=name):
                bound_calls.append((name, np.shape(params.p_dark), np.shape(params.n_bits)))
                return real(params, *args)

            monkeypatch.setattr(cli, name, spy)

        def protocol_params(**kwargs):
            if np.ndim(kwargs["n_bits"]) == 0:
                point_params.append((kwargs["n_bits"], kwargs["p_dark"]))
            return bounds.ProtocolParams(**kwargs)

        monkeypatch.setattr(cli, "ProtocolParams", protocol_params)
        run(["figure", "--id", str(figure), "--points-per-decade", "1", "--realizations", "20",
             "--out-dir", str(tmp_path)])
        (n_min, n_max), _, _, p_darks = cli.FIGURES[figure]
        n_grid = cli.log_spaced(n_min, n_max, 1)
        per_family = names if figure == 14 else names[:3]
        assert len(bound_calls) == len(per_family) * families
        assert set(bound_calls) == {(name, (len(p_darks), 1), (len(n_grid),))
                                    for name in per_family}
        assert point_params == []


def test_infeasible_two_user_search_gives_infeasible_rows(tmp_path):
    # at N = 10 and 32 (M = 42 and 133) the equal-sequence threshold reaches
    # M before the thresholds meet, so those searches cannot cross
    assert run(["figure", "--id", "14", "--n-min", "10", "--n-max", "1e4",
                "--points-per-decade", "2", "--realizations", "20",
                "--out-dir", str(tmp_path)]) == 0
    rows = [r for r in csv.DictReader(open(tmp_path / "figure14.csv"))
            if r["strategy"] == bounds.STRATEGY_TWO_USER]
    infeasible = {(r["N"], r["M"], r["p_dark"]) for r in rows if r["feasible"] == "0"}
    assert infeasible == {(n, m, p) for n, m in (("10.0", "42"), ("32.0", "133"))
                          for p in ("1e-09", "1e-11")}
    for r in rows:
        filled = [r[f] != "" for f in ("alpha2", "r", "Q")]
        assert filled == [r["feasible"] == "1"] * 3
        if r["feasible"] == "0":  # the cells of any infeasible row
            assert (r["dominant"], r["valid"]) == ("0", "1")


def reference_advantage_rows(cfg, k_grid, p_dark_grid, gains_by_k, n_grid, energy):
    """advantage_rows as one scalar bound per (K, circuit, p_dark, N) point,
    kept as the oracle for the one-call-per-family rows."""
    rows = []
    for k in k_grid:
        for kind, gains in (("realistic", gains_by_k[k]),
                            ("ideal-circuit", cli.ideal_gain_set(k))):
            for p_dark in p_dark_grid:
                best_limit = 0.0
                best_known = 0.0
                cfg_p = dict(cfg, p_dark=p_dark)
                for n in n_grid:
                    params = cli._params(k, n, cfg_p)
                    try:
                        res = bounds.bound_last_detector(params, gains)
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


class TestAdvantageRows:
    @pytest.mark.parametrize("energy", [False, True])
    @pytest.mark.parametrize("n_range", [(1e6, 1e14), (1e8, 1e8)])
    @pytest.mark.parametrize("infeasible", [False, True])
    def test_rows_equal_the_reference(self, sweep_gains, energy, n_range, infeasible):
        gains_by_k = {k: sweep_gains[k].mean for k in (2, 7, 15)}
        if infeasible:  # g_e_last <= g_d_last_max: the K = 7 realistic family cannot work
            gains = gains_by_k[7]
            gains_by_k[7] = dataclasses.replace(gains, g_d_last_max=gains.g_e_last)
        cfg = dict(cli.PRESETS)
        p_darks = cli.FIGURES[17][3]
        n_grid = cli.log_spaced(*n_range, 3)
        got = cli.advantage_rows(cfg, [2, 7, 15], p_darks, gains_by_k, n_grid, energy)
        want = reference_advantage_rows(cfg, [2, 7, 15], p_darks, gains_by_k, n_grid, energy)
        assert table_rows(got, list(got)) == want
        zero = [r for r in want if r["advantage_limit"] == r["advantage_best"] == 0.0]
        assert len(zero) == (len(p_darks) if infeasible else 0)

    @pytest.mark.parametrize("argv, message", [
        (["--id", "17", "--n-min", "0.4", "--n-max", "10"],
         "raw message length must be >= 1, with a finite codeword length"),
        (["--id", "17", "--p-error", "0.3"], "the classical limit needs p_error < 1/4"),
        (["--id", "18", "--p-error", "0.3"], "the classical limit needs p_error < 1/4"),
    ])
    def test_bad_parameters_end_in_one_error_line(self, tmp_path, capsys, argv, message):
        argv = ["figure", *argv, "--k-grid", "4", "--realizations", "20",
                "--out-dir", str(tmp_path)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not list(tmp_path.glob("*.csv"))


class TestVerifyCommand:
    def test_oversized_trial_count_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mcsim, "simulate", None)  # refused before any draw
        out = tmp_path / "verify.json"
        assert run(["verify", "--k-grid", "3", "--trials", str(2**27 + 1),
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: 134,217,729 trials need 1,073,741,832 bytes of int64 statistic, "
            "above the limit of 1,073,741,824; ask for fewer trials\n"
        )
        assert captured.out == "" and not out.exists()

    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--k-grid", "2,3,4", "--seed", "5", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["all_pass"] is True
        assert len(data["reports"]) == 6

    def test_every_verdict_carries_its_photon_load(self, tmp_path):
        # K * alpha2 / M of the bound checked, under the 0.1 of the
        # small-photon regime; a skipped check has no verdict and no load
        out = tmp_path / "verify.json"
        run(["verify", "--k-grid", "5:8", "--p-error", "1e-3", "--trials", "500",
             "--m-pulses", "1e5", "--seed", "5", "--out", str(out)])
        reports = json.loads(out.read_text())["reports"]
        verdicts = [r for r in reports if "pass" in r]
        assert 0 < len(verdicts) < len(reports)
        for r in verdicts:
            assert r["photon_load"] == r["K"] * r["alpha2"] / 1e5 < 0.1
        assert not any("photon_load" in r for r in reports if "skipped" in r)

    def test_sabotage_fails(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--k-grid", "3", "--sabotage", "alpha2/4",
                    "--seed", "5", "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text())
        assert data["all_pass"] is False

    def test_large_sabotage_factor_gives_a_report(self, tmp_path, capsys):
        # alpha2 scaled up 4x needs its own qubit count to clear the sanity floor
        argv = ["verify", "--k-grid", "3", "--seed", "5", "--out"]
        run(argv + [str(tmp_path / "honest.json")])
        code = run(argv + [str(tmp_path / "sabotage.json"), "--sabotage", "alpha2/0.25"])
        assert capsys.readouterr().err == ""
        honest, data = (json.loads((tmp_path / f"{name}.json").read_text())
                        for name in ("honest", "sabotage"))
        assert code == (0 if data["all_pass"] else 1)
        assert [r["strategy"] for r in data["reports"]] == ["first-K-minus-1", "last-only"]
        assert [r["alpha2"] for r in data["reports"]] == [
            4.0 * r["alpha2"] for r in honest["reports"]
        ]

    def test_skipped_checks_simulate_nothing(self, tmp_path, monkeypatch):
        # K = 5..8 at p_error 1e-3 gives passes, a last-only failure and
        # photon-regime skips, decided while planning; the simulations run
        # scenario after scenario of the checked pairs, in plan order
        calls = []
        real = mcsim.simulate

        def simulate(config, seed=0):
            calls.append((config.params.k, config.strategy, config.scenario, seed))
            return real(config, seed)

        monkeypatch.setattr(mcsim, "simulate", simulate)
        out = tmp_path / "verify.json"
        run(["verify", "--k-grid", "5:8", "--p-error", "1e-3", "--trials", "5000",
             "--seed", "3", "--out", str(out)])
        reports = json.loads(out.read_text())["reports"]
        assert [r.get("skipped") for r in reports].count("ValidityError") == 2
        assert {r.get("pass") for r in reports} == {True, False, None}
        checked = [(r["K"], r["strategy"]) for r in reports if "skipped" not in r]
        assert calls == [
            (k, strategy, scenario, 3 + i)
            for k, strategy in checked for i, scenario in enumerate(mcsim.SCENARIOS)
        ]

    @pytest.mark.parametrize("sim_fails, plan_fails, first", [
        ((3, 4), 5, "planning failed at K=5"),  # before any simulation starts
        ((4,), 3, "planning failed at K=3"),
        ((), 5, "planning failed at K=5"),
        ((3, 4), None, "simulation failed at K=3"),
    ])
    def test_first_error_in_serial_order(self, tmp_path, capsys, monkeypatch,
                                         sim_fails, plan_fails, first):
        real_simulate, real_plan = mcsim.simulate, cli.plan_check

        def simulate(config, seed=0):
            k = config.params.k
            if k in sim_fails and config.scenario == mcsim.WORST_DIFFERENT:
                raise ParameterError(f"simulation failed at K={k}")
            return real_simulate(config, seed)

        def plan_check(strategy, params, *args, **kwargs):
            if params.k == plan_fails:
                raise ParameterError(f"planning failed at K={params.k}")
            return real_plan(strategy, params, *args, **kwargs)

        monkeypatch.setattr(mcsim, "simulate", simulate)
        monkeypatch.setattr(cli, "plan_check", plan_check)
        out = tmp_path / "verify.json"
        assert run(["verify", "--k-grid", "2:6", "--trials", "500", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {first}\n"
        assert not out.exists()

    def test_reports_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--k-grid", "2,3", "--seed", "9", "--out", str(a)])
        run(["verify", "--k-grid", "2,3", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 7, "design": "optimal", "out-dir": str(tmp_path)}))
        assert run(["design", "--config", str(cfg)]) == 0
        assert "K=7" in capsys.readouterr().out
        assert run(["design", "--config", str(cfg), "--k", "5"]) == 0
        assert "K=5" in capsys.readouterr().out


class TestParserReuse:
    def test_no_parsed_value_carries_over(self, tmp_path, capsys):
        # main parses every call with one parser, built once per process
        reck = ["design", "--k", "3", "--design", "gbs-reck", "--out-dir", str(tmp_path / "a")]
        seeded = ["visibility", "--k-grid", "2", "--realizations", "3", "--seed", "5",
                  "--out", str(tmp_path / "seeded.csv")]
        plain = ["design", "--k", "3", "--out-dir", str(tmp_path / "b")]
        unseeded = ["visibility", "--k-grid", "2", "--realizations", "3",
                    "--out", str(tmp_path / "unseeded.csv")]
        for argv in (reck, seeded, plain, unseeded):
            assert run(argv) == 0
        capsys.readouterr()
        assert cli._parser() is cli._parser()
        layout = json.loads((tmp_path / "b" / "layout.json").read_text())
        assert layout["design"] == qc.DESIGN_OPTIMAL
        explicit = tmp_path / "explicit.csv"
        assert run(unseeded[:-1] + [str(explicit), "--seed", "0"]) == 0
        assert explicit.read_bytes() == (tmp_path / "unseeded.csv").read_bytes()
        for argv in (reck, seeded, plain, unseeded):
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


class TestDeterminism:
    def test_visibility_csv_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(["visibility", "--k-grid", "2,3", "--realizations", "25",
                 "--seed", "13", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_figure_csv_byte_stable(self, tmp_path):
        da, db = tmp_path / "da", tmp_path / "db"
        for d in (da, db):
            run(["figure", "--id", "14", "--points-per-decade", "1",
                 "--realizations", "20", "--n-min", "1e4", "--n-max", "1e6",
                 "--out-dir", str(d)])
        assert (da / "figure14.csv").read_bytes() == (db / "figure14.csv").read_bytes()


def reference_fmt(value):
    """The cell formatter before the sort key and the cell came from one pass."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def reference_sorted(rows, fieldnames):
    """Rows in the order figure files keep: by the str of every field."""
    return sorted(rows, key=lambda r: tuple(str(r.get(k)) for k in fieldnames))


def reference_write_csv(path, rows, fieldnames):
    """The writers that sorted the rows, then formatted every cell of the
    CSV and the .dat apart."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in reference_sorted(rows, fieldnames):
            writer.writerow({k: reference_fmt(row.get(k)) for k in fieldnames})


def reference_write_dat(path, rows, fieldnames):
    with open(path, "w") as fh:
        fh.write("# " + " ".join(fieldnames) + "\n")
        for row in reference_sorted(rows, fieldnames):
            fh.write(" ".join(reference_fmt(row.get(k)) or "nan" for k in fieldnames) + "\n")


def test_sorted_cells_keep_the_str_order_and_the_cells():
    fields = ["a", "b"]
    values = [None, True, False, np.bool_(True), np.bool_(False), 0.1, -2.5, 1e16, 3,
              "last-only", np.float64(0.1), np.float64(1e-300), np.float64(2.0), 1, 10, 2.0]
    rows = [{"a": x, "b": y} for x in values for y in values[::3]] + [{"a": None, "b": 1.5}]
    table = {f: [r[f] for r in rows] for f in fields}
    want = [tuple(reference_fmt(r[k]) for k in fields) for r in reference_sorted(rows, fields)]
    assert cli._sorted_cells(table, fields) == want
    assert [cli._fmt(v) for v in values] == [reference_fmt(v) for v in values]


@pytest.mark.parametrize("figure", [14, 15, 16, 17, 18])
def test_figure_files_equal_the_record_writers(figure, tmp_path, monkeypatch):
    tables = []
    sorted_cells = cli._sorted_cells

    def spy(table, fields):
        tables.append((table_rows(table, fields), fields))
        return sorted_cells(table, fields)

    monkeypatch.setattr(cli, "_sorted_cells", spy)
    grid = ["--k-grid", "4,7"] if figure >= 17 else ["--n-min", "1e4", "--n-max", "1e9"]
    run(["figure", "--id", str(figure), "--points-per-decade", "1", "--realizations", "20",
         *grid, "--out-dir", str(tmp_path / "new")])
    names = sorted(p.stem for p in (tmp_path / "new").glob("*.csv"))
    assert len(names) == len(tables) == (1 if figure <= 16 else 2)
    (tmp_path / "old").mkdir()
    for name, (rows, fields) in zip(names, tables):
        for suffix, write in ((".csv", reference_write_csv), (".dat", reference_write_dat)):
            write(tmp_path / "old" / (name + suffix), rows, fields)
            new = (tmp_path / "new" / (name + suffix)).read_bytes()
            assert new == (tmp_path / "old" / (name + suffix)).read_bytes(), name + suffix


BAD_INPUT = {
    "empty-verify-grid": (["verify", "--k-grid", "5:3"], 1),
    "empty-figure-grid": (["figure", "--id", "17", "--k-grid", "5:3", "--out-dir", "{tmp}"], 1),
    "non-integer-grid": (["verify", "--k-grid", "3:x"], 1),
    "non-integer-grid-list": (["visibility", "--k-grid", "2,x", "--out", "{tmp}/v.csv"], 1),
    "zero-sabotage-factor": (["verify", "--k-grid", "3", "--sabotage", "alpha2/0"], 2),
    "non-finite-sabotage-factor": (["verify", "--k-grid", "3", "--sabotage", "alpha2/inf"], 2),
    "non-numeric-sabotage-factor": (["verify", "--k-grid", "3", "--sabotage", "r*x"], 2),
    "config-without-value": (["design", "--config"], 1),
    "missing-config": (["design", "--config", "{tmp}/missing.json"], 1),
    "invalid-json-config": (["design", "--config", "{tmp}/bad.json"], 1),
    "non-object-config": (["design", "--config", "{tmp}/list.json"], 1),
    "zero-n-min": (["figure", "--id", "16", "--n-min", "0", "--out-dir", "{tmp}"], 1),
    "negative-n-min": (["figure", "--id", "16", "--n-min", "-5", "--out-dir", "{tmp}"], 1),
    "nan-n-max": (["figure", "--id", "15", "--n-max", "nan", "--out-dir", "{tmp}"], 1),
    "infinite-n-max": (["figure", "--id", "14", "--n-max", "inf", "--out-dir", "{tmp}"], 1),
    "inverted-n-range": (["figure", "--id", "16", "--n-min", "1e9", "--n-max", "1e8",
                          "--out-dir", "{tmp}"], 1),
    "zero-points-per-decade": (["figure", "--id", "14", "--points-per-decade", "0",
                                "--out-dir", "{tmp}"], 1),
    "negative-verify-seed": (["verify", "--k-grid", "3", "--seed", "-1"], 1),
    "negative-figure-seed": (["figure", "--id", "16", "--seed", "-1", "--out-dir", "{tmp}"], 1),
    "negative-visibility-seed": (["visibility", "--k-grid", "2", "--seed", "-2",
                                  "--out", "{tmp}/v.csv"], 1),
    "nan-verify-sigma": (["verify", "--k-grid", "3", "--sigma", "nan"], 1),
    "nan-m-pulses": (["verify", "--k-grid", "3", "--m-pulses", "nan"], 1),
    "infinite-m-pulses": (["verify", "--k-grid", "3", "--m-pulses", "inf"], 1),
    "overflowing-codeword": (["figure", "--id", "16", "--n-min", "1e308", "--n-max", "1e308",
                              "--out-dir", "{tmp}"], 1),
    "oversized-design": (["design", "--design", "extendable", "--k", "70000",
                          "--out-dir", "{tmp}"], 1),
    "design-out-dir-is-a-file": (["design", "--k", "3", "--out-dir", "{tmp}/bad.json"], 1),
    "verify-out-in-missing-dir": (["verify", "--k-grid", "2", "--out", "{tmp}/missing/x.json"], 1),
    "visibility-out-under-a-file": (["visibility", "--k-grid", "2", "--realizations", "5",
                                     "--out", "{tmp}/bad.json/x.csv"], 1),
    "repeated-figure-k": (["figure", "--id", "17", "--k-grid", "4,4", "--out-dir", "{tmp}"], 1),
    "repeated-visibility-k": (["visibility", "--k-grid", "3,3", "--out", "{tmp}/v.csv"], 1),
    "repeated-verify-k": (["verify", "--k-grid", "2,3,2"], 1),
    "k-grid-on-figure-14": (["figure", "--id", "14", "--k-grid", "2", "--out-dir", "{tmp}"], 1),
    "k-grid-on-figure-16": (["figure", "--id", "16", "--k-grid", "7", "--out-dir", "{tmp}"], 1),
    "p-dark-on-figure-17": (["figure", "--id", "17", "--p-dark", "1e-9", "--out-dir", "{tmp}"], 1),
    "p-dark-on-figure-18": (["figure", "--id", "18", "--p-dark", "1e-9", "--out-dir", "{tmp}"], 1),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_bad_input_is_a_clean_error(case, tmp_path, capsys):
    argv, code = BAD_INPUT[case]
    (tmp_path / "bad.json").write_text('{"k": 4,')
    (tmp_path / "list.json").write_text('["--k", 4]')
    assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not list(tmp_path.glob("*.csv"))


# --------------------------------------------------------------------------
# Streamed realizations: batch_gains_for against one whole stack

def assert_batch_gains_equal(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "mean":
            assert_batch_gains_equal(a, b)
        else:
            assert np.array_equal(a, b), field.name


#: Realizations per chunk for each count: chunks of one realization, a
#: remainder of one ([2, 1]) and uneven splits ([125, 125, 125, 124],
#: [167, 167, 166], [101, 100, 100, 100, 100]); one realization is one stack.
PER_CHUNK = {1: 1, 2: 1, 3: 2, 499: 166, 500: 249, 501: 125}


#: (design, K, n) of the streaming oracle.  The meshes' hundreds of
#: realizations at K >= 60 take 3-12 s a case and are left out; the tree
#: and the chain cover those splits.
STREAM_CASES = [
    (design, k, n)
    for design in qc.DESIGNS for k in (2, 7, 33, 60, 100) for n in sorted(PER_CHUNK)
    if not (design in (qc.DESIGN_RECK, qc.DESIGN_CLEMENTS) and k >= 60 and n > 3)
]


@pytest.mark.parametrize("design, k, n", STREAM_CASES)
def test_streamed_gains_equal_one_stack(design, k, n, monkeypatch):
    model = cli.NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=6)
    want = cli.batch_gain_set(cli.realize_batch(qc.build_design(k, design)[1], model, n))
    chunks = []
    realize = cli.realize_batch

    def spy(layout, model, size, start=0):
        chunks.append((start, size))
        return realize(layout, model, size, start=start)

    monkeypatch.setattr(cli, "realize_batch", spy)
    layout = qc.build_design(k, design)[1]
    monkeypatch.setattr(cli, "_CHUNK_BYTES", cli.realization_bytes(layout) * PER_CHUNK[n])
    got = cli.batch_gains_for(k, 0.01, -0.2, n, 6, design=design)
    sizes = [size for _, size in chunks]
    assert [start for start, _ in chunks] == [sum(sizes[:i]) for i in range(len(sizes))]
    assert sum(sizes) == n and max(sizes) <= PER_CHUNK[n] and max(sizes) - min(sizes) <= 1
    assert len(chunks) == -(-n // PER_CHUNK[n])
    assert_batch_gains_equal(got, want)


def test_preset_chunks_hold_at_most_chunk_bytes():
    # figure 17's K values at 500 realizations: a chunk holds its matrices
    # and its draws (32 B per beamsplitter and realization), and K = 40,
    # 60, 80 and 100 stream in 2, 4, 7 and 10 chunks
    counts = {}
    for k in cli.FIGURES[17][2]:
        sizes = cli._chunk_sizes(qc.optimal_tree_layout(k), 500)
        assert sum(sizes) == 500 and max(sizes) - min(sizes) <= 1
        assert max(sizes) * (16 * k * k + 32 * (k - 1)) <= cli._CHUNK_BYTES
        counts[k] = len(sizes)
    assert {k: c for k, c in counts.items() if c > 1} == {40: 2, 60: 4, 80: 7, 100: 10}


def test_streamed_peak_memory_is_one_chunk():
    # the whole (500, 100, 100) stack takes 80 MB; streamed, one chunk of
    # at most 8 MiB of matrices and draws is alive at a time, next to one
    # level's noisy blocks and the gain tables
    tracemalloc.start()
    try:
        cli.batch_gains_for(100, 0.01, -0.2, 500, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 << 20


def test_mesh_chunks_bound_the_noisy_blocks():
    # a Reck mesh at K = 100 has 4,950 noisy blocks per realization.  A
    # chunk counts only their draws next to its matrices, since the blocks
    # are built one level at a time as the composition reaches them, so 500
    # realizations stream in 20 chunks of 25 and the peak stays near one
    # chunk
    layout = qc.build_design(100, qc.DESIGN_RECK)[1]
    assert cli.realization_bytes(layout) == 16 * 100 * 100 + 4950 * noise._DRAW_BYTES
    assert cli._chunk_sizes(layout, 500) == [25] * 20
    tracemalloc.start()
    try:
        cli.batch_gains_for(100, 0.01, -0.2, 500, 0, design="generalized-bs-reck")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20


@pytest.mark.parametrize("design", qc.DESIGNS)
@pytest.mark.parametrize("k", [3, 8, 17, 30])
def test_chunk_size_moves_no_bit(design, k, monkeypatch):
    # chunks of one realization (single products, on the compose kernel's
    # gather path), the default chunks and the whole stack in one chunk
    layout = qc.build_design(k, design)[1]
    got = []
    for chunk_bytes in (cli.realization_bytes(layout), cli._CHUNK_BYTES,
                        64 * cli.realization_bytes(layout)):
        monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
        got.append(cli.batch_gains_for(k, 0.01, -0.2, 64, 6, design=design))
    assert_batch_gains_equal(got[0], got[1])
    assert_batch_gains_equal(got[0], got[2])


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_streamed_counts_are_checked_before_any_draw(bad, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("realized before the count was checked")

    monkeypatch.setattr(cli, "realize_batch", no_draw)
    with pytest.raises(ParameterError, match="realization"):
        cli.batch_gains_for(4, 0.01, -0.2, bad, 0)
