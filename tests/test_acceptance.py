"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance, measures
its own runtime against the stated budget, and prints a single PASS line
(visible with `pytest -s` or in the captured output of failures).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats as st

from multiqf import bounds as b
from multiqf import circuits as qc
from multiqf import classical as cl
from multiqf import gains as gn
from multiqf import mcsim as mc
from multiqf.cli import log_spaced, sweep_rows
from multiqf.errors import ValidityError
from multiqf.noise import NoiseModel, realize_batch, realize_circuit

from test_circuits import U4_PRINTED, U7_PRINTED, table_counts

ECC = b.ECCParams.from_delta(0.78)
SIGMA_MODEL = NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=20260810)


@contextmanager
def budget(seconds: float):
    # process time: the budgets bound the computational scale of a check,
    # which wall clock misstates under runner contention
    start = time.process_time()
    yield
    elapsed = time.process_time() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds the {seconds:.0f}s budget"


def passline(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS: {text}")


def design_matrices(k: int) -> dict[str, np.ndarray]:
    return {
        design: qc.compose_layout(qc.build_design(k, design)[1])
        for design in qc.DESIGNS
    }


def test_criterion_01_printed_matrix_regression():
    with budget(1.0):
        u4 = qc.compose_layout(qc.optimal_tree_layout(4))
        u7 = qc.compose_layout(qc.optimal_tree_layout(7))
        assert np.abs(u4 - U4_PRINTED).max() < 1e-12
        assert np.abs(u7 - U7_PRINTED).max() < 1e-12
    passline(1, "tree layouts for K=4 and K=7 match the printed matrices to 1e-12")


def test_criterion_02_table_counts():
    with budget(1.0):
        for k in range(2, 65):
            for design in qc.DESIGNS:
                layout = qc.build_design(k, design)[1]
                got = (layout.bs_count, layout.optical_depth)
                want = table_counts(k, design)
                if design == qc.DESIGN_CLEMENTS and k == 2:
                    # The stated depth formula K is geometrically impossible
                    # here: a mesh of a single beamsplitter has depth 1
                    # (depth can never exceed the beamsplitter count).
                    assert got == (1, 1)
                    continue
                assert got == want, (k, design, got, want)
    passline(2, "beamsplitter counts and optical depths match the formulas for "
                "K=2..64 (rectangular-mesh depth at K=2 is 1, the only value "
                "a one-splitter mesh admits)")


def test_criterion_03_ideal_gains_and_flip_identity():
    with budget(5.0):
        for k in range(2, 33):
            ideal = gn.ideal_gain_set(k)
            for design, matrix in design_matrices(k).items():
                g = gn.gain_set(matrix)
                assert abs(g.g_e_first - 0.0) < 1e-10
                assert abs(g.g_d_first_min - 4 * (k - 1) / k) < 1e-10
                assert abs(g.g_e_last - k) < 1e-10
                assert abs(g.g_d_last_max - (k - 2) ** 2 / k) < 1e-10
                assert abs(g.g_d_first_min - ideal.g_d_first_min) < 1e-10
                # flipped-input power identity on the zero-sum outputs
                bus = g.last_label - 1
                for flip in range(k):
                    labels = np.ones(k)
                    labels[flip] = -1.0
                    mu = gn.output_photon_numbers(matrix, labels, mu_in=1.0)
                    assert abs(mu.sum() - mu[bus] - 4 * (k - 1) / k) < 1e-10
    passline(3, "ideal gain closed forms and the single-flip power identity hold "
                "for all four designs, K=2..32")


def test_criterion_04_two_user_consistency():
    with budget(1.0):
        for delta in (0.5, 0.78):
            # the rate plays no role here, so any valid c works at delta=1/2
            ecc = b.ECCParams(delta=delta, c=4.0)
            for p_error in (1e-3, 1e-5):
                two_user = math.log(1.0 / p_error) / (2.0 * (1.0 - delta))
                assert b.ideal_alpha2(2, ecc, p_error) == two_user
    passline(4, "the K=2 ideal photon number equals the two-user closed form "
                "to machine precision")


def test_criterion_05_visibility_regression():
    with budget(120.0):
        results = {}
        for k in (2, 7, 100):
            layout = qc.optimal_tree_layout(k)
            results[k] = gn.batch_gain_set(realize_batch(layout, SIGMA_MODEL, 500))
        assert results[2].v_first == pytest.approx(0.98, abs=0.01)
        assert results[2].v_last == pytest.approx(0.98, abs=0.01)
        assert results[7].v_first == pytest.approx(0.96, abs=0.015)
        assert results[7].v_last == pytest.approx(0.93, abs=0.015)
        assert results[100].v_last == pytest.approx(0.85, abs=0.02)
    passline(5, f"500-realization visibilities: v(2)={results[2].v_first:.4f}, "
                f"v_first(7)={results[7].v_first:.4f}, v_last(7)={results[7].v_last:.4f}, "
                f"v_last(100)={results[100].v_last:.4f}")


def test_criterion_06_single_flip_extremality():
    with budget(60.0):
        for k in range(2, 13):
            for matrix in (
                qc.compose_layout(qc.optimal_tree_layout(k)),
                qc.extendable_matrix(k),
                qc.dft_multiport(k),
            ):
                rows = gn.worst_case_pattern_scan(matrix, max_l=k // 2)
                l1_first = min(gf for p, gf, gl in rows if p.l_count == 1)
                l1_last = max(gl for p, gf, gl in rows if p.l_count == 1)
                assert min(gf for _, gf, _ in rows) >= l1_first - 1e-12
                assert max(gl for _, _, gl in rows) <= l1_last + 1e-12
    passline(6, "the full pattern scan confirms single-flip extremality of both "
                "difference gains for K<=12")


def test_criterion_07_oracle_vs_no_click_product():
    # Each K is held to the binomial band of two-sided tail 2.5e-7, so a
    # correct sampler fails one of the four with probability below 1e-6,
    # whatever its random stream; 2,000,000 trials make that band +-8e-4
    # around the exact rate.
    trials = 2_000_000
    with budget(120.0):
        for k, seed in ((2, 2), (3, 3), (4, 4), (7, 7)):
            alpha2 = b.ideal_alpha2(k, ECC, 0.05)  # true error rate 0.05
            params = b.ProtocolParams(
                k=k, n_bits=10**4 / ECC.c, ecc=ECC, p_error=0.05, eta=1.0, p_dark=0.0
            )
            assert params.m_pulses == 10**4
            cfg = mc.SimConfig(
                trials=trials, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
                params=params, transfer=qc.compose_layout(qc.optimal_tree_layout(k)),
                alpha2=alpha2, threshold_r=0.0,
            )
            out = mc.simulate(cfg, seed=seed)
            exact = math.exp(-4 * (1 - ECC.delta) * (k - 1) * alpha2 / k)
            low, high = st.binom.interval(1 - 1e-6 / 4, trials, exact)
            assert low <= out.errors <= high, (k, out.error_rate, exact)
    passline(7, "simulated worst-different error rates match the exact no-click "
                "product within binomial bands of family-wise level 1e-6 "
                "(2,000,000 trials each) for K in {2,3,4,7}")


def test_criterion_08_conservative_bounds_with_guard_and_sabotage():
    with budget(600.0):
        params_by_k = {
            k: b.ProtocolParams(
                k=k, n_bits=10**4 / ECC.c, ecc=ECC, p_error=1e-2, eta=0.5, p_dark=1e-6
            )
            for k in (2, 3, 4)
        }
        gains_by_k, transfer_by_k = {}, {}
        for k in (2, 3, 4):
            transfer_by_k[k] = realize_circuit(qc.optimal_tree_layout(k), SIGMA_MODEL, 0)
            gains_by_k[k] = gn.gain_set(transfer_by_k[k])

        excluded = []
        for k in (2, 3, 4):
            rep = mc.verify_bound(
                b.STRATEGY_FIRST, params_by_k[k], gains_by_k[k], transfer_by_k[k],
                trials=5000, seed=100 + k,
            )
            assert rep.passed, (k, {s: o.error_rate for s, o in rep.outcomes.items()})
            # the single-detector strategy needs more photons than the stated
            # M=1e4 allows within the small-photon regime; the precondition
            # excludes those grid points (they are not feasible cases)
            with pytest.raises(ValidityError):
                mc.verify_bound(
                    b.STRATEGY_LAST, params_by_k[k], gains_by_k[k], transfer_by_k[k],
                    trials=5000, seed=100 + k,
                )
            bound = b.bound_last_detector(params_by_k[k], gains_by_k[k])
            excluded.append(f"K={k}:{k * bound.alpha2 / bound.m_pulses:.2f}")

        sabotage = mc.verify_bound(
            b.STRATEGY_FIRST, params_by_k[3], gains_by_k[3], transfer_by_k[3],
            trials=5000, seed=103, alpha2_scale=0.25,
        )
        assert not sabotage.passed
        assert sabotage.outcomes[mc.WORST_DIFFERENT].wilson_upper_95 > 1e-2
    passline(8, "all in-regime grid points pass both scenario gates; the "
                "single-detector points exceed the K*alpha2/M<0.1 precondition "
                f"({', '.join(excluded)}) and raise the mandated validity error; "
                "the alpha2/4 sabotage run fails as required")


def test_criterion_09_strategy_crossover():
    with budget(60.0):
        batch = realize_batch(qc.optimal_tree_layout(7), SIGMA_MODEL, 500)
        gains = gn.batch_gain_set(batch).mean
        flat, past = [], []
        for n in log_spaced(1e6, 1e14, 2):
            params = b.ProtocolParams(
                k=7, n_bits=n, ecc=ECC, p_error=1e-5, eta=0.5, p_dark=1e-9
            )
            first = b.bound_first_detectors(params, gains)
            last = b.bound_last_detector(params, gains)
            ideal = b.ideal_bound(params)
            assert first.q_qubits > ideal.q_qubits
            assert last.q_qubits > ideal.q_qubits
            if max(first.dominance_ratio, last.dominance_ratio) <= 0.1:
                flat.append((first.q_qubits, last.q_qubits))
            if min(first.dominance_ratio, last.dominance_ratio) >= 10.0:
                past.append((first.q_qubits, last.q_qubits))
        assert flat and past, "grid must cover both regimes"
        assert all(f < l for f, l in flat)
        assert all(l < f for f, l in past)
    passline(9, f"K=7 crossover: {len(flat)} flat-region points with Q_first<Q_last, "
                f"{len(past)} dark-dominated points with Q_last<Q_first, and both "
                "strategies stay above the ideal curve everywhere")


def test_criterion_10_two_user_strategy_agreement():
    with budget(120.0):
        batch = realize_batch(qc.optimal_tree_layout(2), SIGMA_MODEL, 500)
        bg = gn.batch_gain_set(batch)
        checked_before, checked_past = 0, 0
        for p_dark, n_max in ((1e-9, 1e14), (1e-11, 1e16)):
            for n in log_spaced(1e4, n_max, 1):
                params = b.ProtocolParams(
                    k=2, n_bits=n, ecc=ECC, p_error=1e-5, eta=0.5, p_dark=p_dark
                )
                first = b.bound_first_detectors(params, bg.mean)
                last = b.bound_last_detector(params, bg.mean)
                alg = b.algorithm_two_user(params, bg.v_first)
                if max(first.dominance_ratio, last.dominance_ratio) <= 0.1:
                    assert alg.q_qubits <= first.q_qubits
                    assert alg.q_qubits <= last.q_qubits
                    checked_before += 1
                if min(first.dominance_ratio, last.dominance_ratio) >= 10.0:
                    for bound in (first, last):
                        gap = abs(math.log10(bound.q_qubits) - math.log10(alg.q_qubits))
                        assert gap <= 0.1 * math.log10(alg.q_qubits)
                    checked_past += 1
        assert checked_before and checked_past
    passline(10, f"iterative two-user search is the tightest of the three before "
                 f"the elbow ({checked_before} points) and within 10% of both "
                 f"bounds in log10 Q past it ({checked_past} points)")


def test_criterion_11_classical_formulas():
    with budget(1.0):
        assert cl.best_two_user(1e6, 1e-5) == pytest.approx(82000.0)
        assert cl.classical_limit(2, 1e6, 1e-5) == pytest.approx(421.47, abs=0.01)
        for k in (2, 3, 5, 10, 20, 50, 100):
            for n in (1e4, 1e6, 1e8, 1e10, 1e12):
                assert cl.classical_limit(k, n, 1e-5) < cl.best_k_user(k, n, 1e-5)
    passline(11, "two-user cost is 82000 bits at N=1e6, the limit is 421.47 bits, "
                 "and the limit stays below the best-known cost on the sweep grid")


def test_criterion_12_model_validity_guard():
    with budget(60.0):
        cfg = {"p_error": 1e-5, "eta": 0.5, "delta": 0.78, "p_dark": 1e-9, "sigma": 0.01}
        n_grid = log_spaced(1e8, 1e12, 4)
        worst = 0.0
        for k in (7, 15):
            batch = realize_batch(qc.optimal_tree_layout(k), SIGMA_MODEL, 500)
            gains = gn.batch_gain_set(batch).mean
            table = sweep_rows(cfg, k, gains, n_grid, [cfg["p_dark"]])
            for load in table["k_alpha2_over_m"]:
                if load is not None:
                    assert load < 0.1, (k, load)
                    worst = max(worst, load)
    passline(12, f"every photon-number bound on the energy-figure preset keeps "
                 f"K*alpha2/M < 0.1 (worst {worst:.3g})")


def test_criterion_13_decomposition_round_trips():
    with budget(5.0):
        for k in range(2, 17):
            targets = (qc.dft_multiport(k), qc.compose_layout(qc.optimal_tree_layout(k)))
            for target in targets:
                for decompose in (qc.reck_decompose, qc.clements_decompose):
                    err = np.abs(qc.compose_layout(decompose(target)) - target).max()
                    assert err < 1e-10
    passline(13, "triangular and rectangular meshes reconstruct the Fourier and "
                 "tree matrices for K<=16 within 1e-10")


def test_criterion_14_max_users_cross_check():
    with budget(1.0):
        visibilities = (0.98, 0.95, 0.90, 0.85)
        direct = []
        for v in visibilities:
            expect = (
                (1 - 0.78) ** 2 * (2 * v - 1) ** 2 * (1 - 2 * math.sqrt(1e-5)) ** 2
                / (2 * 1e-9 * ECC.c * math.log(2 + 1e5))
            )
            got = b.max_users_energy_advantage(ECC, v, 1e-5, 1e-9)
            assert got == pytest.approx(expect, rel=1e-12)
            direct.append(got)
        assert direct == sorted(direct, reverse=True)  # increasing in v
        assert b.max_users_energy_advantage(ECC, 0.9, 1e-5, 1e-10) > direct[2]
    passline(14, "the max-user-count formula matches direct arithmetic at the "
                 "four preset visibilities and is monotone in v and mu_dark")
