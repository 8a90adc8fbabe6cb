import math

import numpy as np
import pytest

from multiqf import circuits as qc
from multiqf import gains as gn
from multiqf.errors import ParameterError
from multiqf.noise import NoiseModel, realize_batch


def design_matrix(design: str, k: int) -> np.ndarray:
    matrix, layout = qc.build_design(k, design)
    return qc.compose_layout(layout)


class TestOutputPhotonNumbers:
    def test_equal_inputs_ideal_tree(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 4)
        mu = gn.output_photon_numbers(m, gn.EQUAL, mu_in=1.0)
        assert mu == pytest.approx([4.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_single_flip_zero_sum_total(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 4)
        mu = gn.output_photon_numbers(m, (-1, 1, 1, 1), mu_in=1.0)
        assert mu[1:].sum() == pytest.approx(3.0, abs=1e-12)

    def test_zero_matrix(self):
        mu = gn.output_photon_numbers(np.zeros((3, 3)), gn.EQUAL, mu_in=2.0)
        assert mu == pytest.approx([0.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            gn.output_photon_numbers(np.eye(3), (1, -1), mu_in=1.0)

    def test_conservation_for_unitary(self):
        for k in (2, 5, 9):
            m = design_matrix(qc.DESIGN_OPTIMAL, k)
            for pattern in (gn.EQUAL, tuple([-1] + [1] * (k - 1))):
                mu = gn.output_photon_numbers(m, pattern, mu_in=0.3)
                assert mu.sum() == pytest.approx(k * 0.3, abs=1e-10)


class TestGainSet:
    def test_ideal_dft_k5(self):
        g = gn.gain_set(qc.dft_multiport(5))
        assert g.g_e_first == pytest.approx(0.0, abs=1e-10)
        assert g.g_d_first_min == pytest.approx(16 / 5, abs=1e-10)
        assert g.g_e_last == pytest.approx(5.0, abs=1e-10)
        assert g.g_d_last_max == pytest.approx(9 / 5, abs=1e-10)

    @pytest.mark.parametrize("design", qc.DESIGNS)
    @pytest.mark.parametrize("k", [2, 3, 7, 16, 32])
    def test_ideal_closed_forms_all_designs(self, design, k):
        g = gn.gain_set(design_matrix(design, k))
        ideal = gn.ideal_gain_set(k)
        assert g.g_e_first == pytest.approx(ideal.g_e_first, abs=1e-10)
        assert g.g_d_first_min == pytest.approx(ideal.g_d_first_min, abs=1e-10)
        assert g.g_e_last == pytest.approx(ideal.g_e_last, abs=1e-10)
        assert g.g_d_last_max == pytest.approx(ideal.g_d_last_max, abs=1e-10)

    def test_gains_bounded_for_subunitary(self, rng):
        for _ in range(5):
            k = 6
            m = 0.9 * design_matrix(qc.DESIGN_OPTIMAL, k)
            g = gn.gain_set(m)
            vals = [g.g_e_first, g.g_d_first_min, g.g_e_last, g.g_d_last_max]
            assert all(0.0 <= v <= k for v in vals)

    def test_scale_invariance_in_mu_in(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 5)
        base = gn.output_photon_numbers(m, gn.EQUAL, 1.0)
        for mu_in in (1e-6, 10.0):
            scaled = gn.output_photon_numbers(m, gn.EQUAL, mu_in)
            assert scaled / mu_in == pytest.approx(base, abs=1e-9)

    def test_monotone_loss_scaling(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 6)
        g1 = gn.gain_set(m)
        s = 0.7
        g2 = gn.gain_set(s * m)
        assert g2.g_e_last == pytest.approx(s * s * g1.g_e_last, abs=1e-10)
        assert g2.g_d_first_min == pytest.approx(s * s * g1.g_d_first_min, abs=1e-10)

    def test_last_label_override(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 4)
        assert gn.find_last_label(m) == 1
        g = gn.gain_set(m, last_label=1)
        assert g.last_label == 1
        with pytest.raises(ParameterError):
            gn.gain_set(m, last_label=9)

    def test_single_flip_gains_by_flipped_input(self):
        model = NoiseModel(sigma_t=0.02, sigma_p=0.02, bs_loss_db=-0.2, seed=3)
        m = realize_batch(qc.optimal_tree_layout(6), model, 1)[0]
        g = gn.gain_set(m)
        last = g.last_label - 1
        assert g.g_d_first.shape == g.g_d_last.shape == (6,)
        for j in range(6):
            mu = gn.output_photon_numbers(m, [-1 if i == j else 1 for i in range(6)], 1.0)
            assert g.g_d_first[j] == pytest.approx(mu.sum() - mu[last], rel=1e-12)
            assert g.g_d_last[j] == pytest.approx(mu[last], rel=1e-12)
        assert g.g_d_first_min == g.g_d_first[g.worst_pattern_first] == g.g_d_first.min()
        assert g.g_d_last_max == g.g_d_last[g.worst_pattern_last] == g.g_d_last.max()

    def test_ties_pick_the_first_flipped_input(self):
        g = gn.ideal_gain_set(5)
        assert (g.worst_pattern_first, g.worst_pattern_last) == (0, 0)


class TestVisibilities:
    def test_ideal_visibilities_are_one(self):
        v_first, v_last = gn.visibilities(gn.ideal_gain_set(6))
        assert v_first == pytest.approx(1.0, abs=1e-12)
        assert v_last == pytest.approx(1.0, abs=1e-12)

    def test_two_user_reduction(self):
        # at K=2 the formula reduces to (1 + (g_D - g_E)/2) / 2
        g = gn.GainSet(
            k=2, last_label=2, g_e_first=0.1, g_d_first_min=1.9,
            g_e_last=1.8, g_d_last_max=0.05,
            g_d_first=np.array([1.9, 2.0]), g_d_last=np.array([0.05, 0.0]),
        )
        v_first, v_last = gn.visibilities(g)
        assert v_first == pytest.approx(0.5 * (1 + (1.9 - 0.1) / 2))
        assert v_last == pytest.approx(0.5 * (1 + (1.8 - 0.05) / 2))

    def test_loss_only_visibility_matches_analytic(self):
        # single 50:50 block: v = (1 + block power factor) / 2
        lay = qc.optimal_tree_layout(2)
        model = NoiseModel(bs_loss_db=-0.2, seed=0)
        bg = gn.batch_gain_set(realize_batch(lay, model, 3))
        rho = (10.0 ** (-0.2 / 20.0)) ** 2
        assert bg.v_first == pytest.approx(0.5 * (1 + rho), abs=1e-12)
        assert bg.v_first_sd == pytest.approx(0.0, abs=1e-15)


class TestBatchGains:
    def test_visibility_regression_small_batch(self):
        # forty realizations already land on the published operating point
        lay = qc.optimal_tree_layout(7)
        model = NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=11)
        bg = gn.batch_gain_set(realize_batch(lay, model, 40))
        assert bg.v_first == pytest.approx(0.96, abs=0.02)
        assert bg.v_last == pytest.approx(0.93, abs=0.02)
        assert 1e-4 < bg.v_last_sd < 1e-2

    def test_requires_stack(self):
        with pytest.raises(ParameterError):
            gn.batch_gain_set(np.eye(3))


def reference_batch_gain_set(matrices):
    """Per-realization gain sets averaged aggregate by aggregate and flip by flip."""
    sets = [gn.gain_set(m) for m in matrices]
    vis = np.array([gn.visibilities(g) for g in sets])
    flips = {
        name: np.array([np.mean([getattr(g, name)[j] for g in sets]) for j in range(sets[0].k)])
        for name in ("g_d_first", "g_d_last")
    }
    means = {
        name: np.mean([getattr(g, name) for g in sets])
        for name in ("g_e_first", "g_d_first_min", "g_e_last", "g_d_last_max")
    }
    v_first, v_last = gn.visibilities(gn.GainSet(
        k=sets[0].k, last_label=sets[0].last_label, **flips, **means
    ))
    return means, flips, vis, (v_first, v_last, vis[:, 0].std(ddof=1), vis[:, 1].std(ddof=1))


@pytest.mark.parametrize("k", [2, 7, 30])
def test_batch_gains_match_per_realization_average(k):
    lay = qc.optimal_tree_layout(k)
    model = NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=k)
    matrices = realize_batch(lay, model, 200)
    means, flips, vis, summary = reference_batch_gain_set(matrices)
    bg = gn.batch_gain_set(matrices)
    rel = 1e-12
    for name, value in means.items():
        assert getattr(bg.mean, name) == pytest.approx(value, rel=rel, abs=0)
    for name, values in flips.items():
        assert getattr(bg.mean, name).shape == (k,)
        assert getattr(bg.mean, name) == pytest.approx(values, rel=rel, abs=0)
    assert bg.per_realization == pytest.approx(vis, rel=rel, abs=0)
    got = (bg.v_first, bg.v_last, bg.v_first_sd, bg.v_last_sd)
    assert got == pytest.approx(summary, rel=rel, abs=0)


def reference_single_flip_gains(transfers, last):
    """Dense single-flip gains: every output recomputed for every flip."""
    n, k, _ = transfers.shape
    s = transfers.sum(axis=2)
    g_first, g_last = np.empty((2, k + 1, n))
    for j in range(k + 1):
        amp = s if j == 0 else s - 2.0 * transfers[:, :, j - 1]
        mu = amp.real**2 + amp.imag**2
        g_last[j] = mu[:, last]
        g_first[j] = mu.sum(axis=1) - g_last[j]
    return g_first, g_last


#: The figure presets' noise, and noise large enough for tau to clip to 1,
#: which makes blocks, and so transfer entries, exactly zero in some
#: realizations only.
FLIP_MODELS = {
    "presets": NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=4),
    "clipping": NoiseModel(sigma_t=0.8, sigma_p=1.0, seed=3),
}


@pytest.mark.parametrize("model", sorted(FLIP_MODELS))
@pytest.mark.parametrize("k", [2, 7, 33, 60, 100])
@pytest.mark.parametrize("design", qc.DESIGNS)
def test_single_flip_gains_match_dense_loop(design, k, model):
    # realize_batch's row-first stacks, whose all-equal amplitudes are F-ordered
    transfers = realize_batch(qc.build_design(k, design)[1], FLIP_MODELS[model], 24)
    if model == "clipping":
        zero = transfers == 0
        assert (zero.any(axis=0) & ~zero.all(axis=0)).any()
    last = gn.find_last_label(transfers[0]) - 1
    got = gn._single_flip_gains(transfers, last)
    want = reference_single_flip_gains(transfers, last)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestPatternScan:
    def test_ideal_k4_l1_vs_l2(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 4)
        rows = gn.worst_case_pattern_scan(m, max_l=2)
        by_l = {}
        for pattern, g_first, g_last in rows:
            by_l.setdefault(pattern.l_count, []).append((g_first, g_last))
        assert max(g for _, g in by_l[1]) == pytest.approx(1.0, abs=1e-12)
        assert max(g for _, g in by_l[2]) == pytest.approx(0.0, abs=1e-12)

    def test_counts_and_range(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 6)
        rows = gn.worst_case_pattern_scan(m, max_l=3)
        assert len(rows) == math.comb(5, 1) + math.comb(5, 2) + math.comb(5, 3)
        tol = 1e-9
        for _, g_first, g_last in rows:
            assert -tol <= g_first <= 6.0 + tol and -tol <= g_last <= 6.0 + tol

    def test_rejects_last_label_out_of_range(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 4)
        for last_label in (0, 9, 1.5):
            with pytest.raises(ParameterError, match="last_label must be an integer in 1..4"):
                gn.worst_case_pattern_scan(m, last_label=last_label)

    def test_budget_guard(self):
        m = design_matrix(qc.DESIGN_OPTIMAL, 16)
        with pytest.raises(ParameterError):
            gn.worst_case_pattern_scan(m, max_l=8, pattern_budget=100)

    def test_realized_extremes_at_l1(self):
        lay = qc.optimal_tree_layout(8)
        model = NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=21)
        m = realize_batch(lay, model, 1)[0]
        rows = gn.worst_case_pattern_scan(m, max_l=4)
        best_last = max(rows, key=lambda r: r[2])
        best_first = min(rows, key=lambda r: r[1])
        assert best_last[0].l_count == 1
        assert best_first[0].l_count == 1
