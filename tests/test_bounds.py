import functools
import gc
import itertools
import math
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from multiqf import bounds as b
from multiqf.cli import log_spaced
from multiqf.errors import ConvergenceError, FeasibilityError, ParameterError
from multiqf.gains import click_probability, ideal_gain_set

LN1E5 = math.log(1e5)


def reference_log_pmf_array(ks, n, log_q, log_1mq):
    """The per-element lgamma loop that the block-cached log-pmf replaced."""
    lg = math.lgamma
    lgn = lg(n + 1.0)
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        out[i] = lgn - lg(k + 1.0) - lg(n - k + 1.0) + k * log_q + (n - k) * log_1mq
    return out


def reference_qubit_cost(alpha2, m_pulses, epsilon=1e-6):
    """The closure-based bisection that qubit_cost inlined."""
    a = float(alpha2)
    log_target = 2.0 * math.log(epsilon / 2.0)

    def log_lhs(d):
        return math.log(2.0) - a + (a + d) * (1.0 + math.log(a) - math.log(a + d))

    hi = 50.0 * (1.0 + a)
    for _ in range(200):
        if log_lhs(hi) <= log_target:
            break
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-9 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if log_lhs(mid) <= log_target:
            hi = mid
        else:
            lo = mid
    q = (a + hi) * math.log2(m_pulses + a + hi - 1.0) + math.log2(2.0 * hi)
    return q, hi


def reference_log_tail(lo, hi, n, log_q, log_1mq, from_top):
    """The tail window sum with math.fsum, one log-pmf array per window."""
    width = 256
    while True:
        if from_top:
            a, c = max(lo, hi - width + 1), hi
        else:
            a, c = lo, min(hi, lo + width - 1)
        if c >= b._MAX_K:
            raise ParameterError(f"binomial tail window reaches k = {c:.6g}, beyond 2**53")
        logs = b._log_pmf_array(np.arange(a, c + 1, dtype=float), n, log_q, log_1mq)
        m = logs.max()
        total = m + math.log(math.fsum(np.exp(logs - m).tolist()))
        edge = logs[0] if from_top else logs[-1]
        if (a == lo and from_top) or (c == hi and not from_top) or edge - total < -42.0:
            return total
        width *= 4


def reference_fsum_inv_cdf(p, n, q):
    """``binomial_inv_cdf`` before the fast tail sum: the math.fsum window
    sum, then a walk that evaluates one pmf per step."""
    if not 1 <= n <= sys.float_info.max or n != int(n):
        raise ParameterError(f"number of trials must be a positive integer, got {n!r}")
    n = int(n)
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ParameterError("probabilities must lie in [0, 1]")
    if p <= 0.0 or q <= 0.0:
        return 0
    if q >= 1.0 or p >= 1.0:
        return n
    nf = float(n)
    log_q, log_1mq = math.log(q), math.log1p(-q)
    k = _start(p, n, q)
    if p > 0.5:
        target = -((1.0 - p) * (1.0 + b._TIE_FUZZ) + 2.0**-53)
        h = 0.0 if k == n else -b._mass(
            reference_log_tail(k + 1.0, nf, nf, log_q, log_1mq, from_top=False), n
        )
    else:
        target = p * (1.0 - b._TIE_FUZZ)
        h = 1.0 if k == n else b._mass(
            reference_log_tail(0.0, k, nf, log_q, log_1mq, from_top=True), n
        )

    def pmf(kk):
        return b._mass(b._log_pmf_array(np.array([float(kk)]), nf, log_q, log_1mq)[0], n)

    if h >= target:
        while k > 0:
            h_prev = h - pmf(k)
            if h_prev < target:
                return k
            h, k = h_prev, k - 1
        return 0
    while k < n:
        k += 1
        h += pmf(k)
        if h >= target:
            return k
    return n


def _start(p, n, q):
    """The Cornish-Fisher start of the walk."""
    z = b._NORMAL.inv_cdf(min(max(p, 1e-300), 1.0 - 1e-16))
    guess = n * q + z * math.sqrt(n * q * (1.0 - q)) + (z * z - 1.0) * (1.0 - 2.0 * q) / 6.0
    return int(min(max(round(guess), 0), n))


def _reference_binom_cdf(k, n, q):
    """CDF of a binomial, evaluated through the nearer tail in log space."""
    if k < 0:
        return 0.0
    if k >= n or q <= 0.0:
        return 1.0
    if q >= 1.0:
        return 0.0
    log_q, log_1mq = math.log(q), math.log1p(-q)
    if k < n * q:
        return b._mass(reference_log_tail(0.0, k, n, log_q, log_1mq, from_top=True), n)
    return 1.0 - b._mass(reference_log_tail(k + 1.0, n, n, log_q, log_1mq, from_top=False), n)


def reference_binomial_inv_cdf(p, n, q):
    """``binomial_inv_cdf`` before its single walk: full enumeration up to
    n = 2048, then a survival walk for p > 1/2 and a CDF walk that starts
    from the nearer tail (1 - survival at or above the mean)."""
    if not 1 <= n <= sys.float_info.max or n != int(n):
        raise ParameterError(f"number of trials must be a positive integer, got {n!r}")
    n = int(n)
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ParameterError("probabilities must lie in [0, 1]")
    if p <= 0.0 or q <= 0.0:
        return 0
    if q >= 1.0:
        return n
    if p >= 1.0:
        return n

    log_q, log_1mq = math.log(q), math.log1p(-q)
    use_sf = p > 0.5
    s = 1.0 - p
    s_eff = s * (1.0 + b._TIE_FUZZ) + 2.0**-53

    if n <= 2048:
        ks = np.arange(0, n + 1, dtype=float)
        pmfs = np.exp(b._log_pmf_array(ks, float(n), log_q, log_1mq))
        if use_sf:
            # survival G(k) = sum_{j > k} pmf, strictly decreasing in k
            g = np.concatenate([np.cumsum(pmfs[::-1])[::-1][1:], [0.0]])
            hits = np.nonzero(g <= s_eff)[0]
            return int(hits[0])
        cdf = np.cumsum(pmfs)
        return min(int(np.searchsorted(cdf, p * (1.0 - b._TIE_FUZZ))), n)

    k = _start(p, n, q)

    def pmf(kk):
        return b._mass(b._log_pmf_array(np.array([float(kk)]), float(n), log_q, log_1mq)[0], n)

    if use_sf:
        if k >= n:
            g = 0.0
        else:
            g = b._mass(
                reference_log_tail(k + 1.0, float(n), float(n), log_q, log_1mq, from_top=False), n
            )
        if g <= s_eff:
            while k > 0:
                g_prev = g + pmf(k)  # G(k-1)
                if g_prev <= s_eff:
                    g = g_prev
                    k -= 1
                else:
                    return k
            return 0
        while k < n:
            g -= pmf(k + 1)
            k += 1
            if g <= s_eff:
                return k
        return n

    p_eff = p * (1.0 - b._TIE_FUZZ)
    f = _reference_binom_cdf(k, n, q)
    if f >= p_eff:
        while k > 0:
            f -= pmf(k)
            if f >= p_eff:
                k -= 1
            else:
                return k
        return 0
    while k < n:
        k += 1
        f += pmf(k)
        if f >= p_eff:
            return k
    return n


def params_for(k, n_bits, ecc, p_error=1e-5, eta=1.0, p_dark=0.0):
    return b.ProtocolParams(k=k, n_bits=n_bits, ecc=ecc, p_error=p_error,
                            eta=eta, p_dark=p_dark)


class TestEcc:
    def test_rate_from_delta(self):
        ecc = b.ECCParams.from_delta(0.78)
        expect = 1.0 / (1.0 + 0.78 * math.log2(0.78) + 0.22 * math.log2(0.22))
        assert ecc.c == pytest.approx(expect, abs=1e-12)
        assert ecc.c == pytest.approx(4.17, abs=0.01)

    def test_validation(self):
        with pytest.raises(ParameterError):
            b.ECCParams(delta=1.2, c=4.0)
        with pytest.raises(ParameterError):
            b.ECCParams(delta=0.5, c=0.9)

    def test_m_rounding(self, ecc):
        p = params_for(2, 1000, ecc)
        assert p.m_pulses == round(ecc.c * 1000)
        tiny = params_for(2, 1, b.ECCParams(delta=0.5, c=1.1))
        assert tiny.m_pulses == 1


class TestIdealAlpha2:
    def test_two_user_value(self, ecc):
        assert b.ideal_alpha2(2, ecc, 1e-5) == pytest.approx(LN1E5 / (2 * 0.22), rel=1e-12)

    def test_four_user_value(self, ecc):
        expect = 4 / (4 * 0.22 * 3) * LN1E5
        assert b.ideal_alpha2(4, ecc, 1e-5) == pytest.approx(expect, rel=1e-12)

    def test_decreasing_in_k_with_limit(self, ecc):
        vals = [b.ideal_alpha2(k, ecc, 1e-5) for k in range(2, 40)]
        assert all(a > c for a, c in zip(vals, vals[1:]))
        limit = LN1E5 / (4 * 0.22)
        assert vals[-1] > limit
        assert b.ideal_alpha2(4000, ecc, 1e-5) == pytest.approx(limit, rel=1e-3)


class TestQubitCost:
    def test_slack_is_minimal(self):
        for alpha2 in (0.5, 26.166, 800.0):
            _, dcap = b.qubit_cost(alpha2, 10**6)
            a = alpha2

            def log_lhs(d):
                return math.log(2) - a + (a + d) * (1 + math.log(a) - math.log(a + d))

            target = 2 * math.log(1e-6 / 2)
            assert log_lhs(dcap) <= target
            assert log_lhs(dcap * (1 - 1e-3)) > target

    def test_log_approximation_band(self):
        # direct evaluation puts Q just under 3x the alpha2*log2(M) rule of thumb
        q, _ = b.qubit_cost(26.166, round(4.17e6))
        approx = 26.166 * math.log2(4.17e6)
        assert 1.0 < q / approx < 3.0

    def test_monotone_in_alpha2_and_m(self):
        q0, _ = b.qubit_cost(50.0, 10**6)
        q1, _ = b.qubit_cost(51.0, 10**6)
        q2, _ = b.qubit_cost(50.0, 2 * 10**6)
        assert q1 > q0 and q2 > q0

    def test_epsilon_validation(self):
        with pytest.raises(ParameterError):
            b.qubit_cost(10.0, 100, epsilon=2.0)

    def test_bit_identical_to_closure_loop(self):
        rng = np.random.default_rng(8500)
        for _ in range(1500):
            alpha2 = 10.0 ** rng.uniform(-3.0, 6.0)
            m = int(10.0 ** rng.uniform(0.0, 15.0))
            eps = 10.0 ** rng.uniform(-12.0, -0.5)
            assert b.qubit_cost(alpha2, m, eps) == reference_qubit_cost(alpha2, m, eps)


def scalar_qubit_costs(alpha2, m_pulses, epsilon):
    """qubit_cost called point by point over the broadcast of the inputs."""
    a, m = np.broadcast_arrays(alpha2, m_pulses)
    pairs = [reference_qubit_cost(x, int(y), epsilon) for x, y in zip(a.ravel(), m.ravel())]
    return (np.array([q for q, _ in pairs]).reshape(a.shape),
            np.array([d for _, d in pairs]).reshape(a.shape))


class TestQubitCostArrays:
    @given(
        log_alpha2=hst.lists(hst.floats(-6.0, 8.0), min_size=1, max_size=12),
        m=hst.lists(hst.integers(1, 10**15), min_size=1, max_size=6),
        epsilon=hst.sampled_from([1e-12, 1e-6, 1e-3, 0.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_scalar_calls(self, log_alpha2, m, epsilon):
        alpha2 = 10.0 ** np.array(log_alpha2)
        m = np.array(m, dtype=float)
        for a, mm in ((alpha2[:, None], m), (alpha2, m[0]), (alpha2[0], m)):
            q, d = b.qubit_cost(a, mm, epsilon)
            want_q, want_d = scalar_qubit_costs(a, mm, epsilon)
            assert q.shape == d.shape == np.broadcast(a, mm).shape
            assert np.array_equal(q, want_q) and np.array_equal(d, want_d)

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-3, 0.5])
    def test_math_log_redecisions_are_reached(self, epsilon, monkeypatch):
        calls = []
        original = b._log_lhs

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(b, "_log_lhs", spy)
        rng = np.random.default_rng(17)
        alpha2 = 10.0 ** rng.uniform(-6.0, 8.0, 3000)
        m = np.floor(10.0 ** rng.uniform(0.0, 15.0, 3000))
        q, d = b.qubit_cost(alpha2, m, epsilon)
        want_q, want_d = scalar_qubit_costs(alpha2, m, epsilon)
        assert np.array_equal(q, want_q) and np.array_equal(d, want_d)
        assert len(calls) > 100

    @pytest.mark.parametrize("alpha2, m, message", [
        ([1.0, 0.0], 10.0, "alpha2 must be positive"),
        ([1.0, -2.0], 10.0, "alpha2 must be positive"),
        ([1.0, math.nan], 10.0, "alpha2 must be positive"),
        (1.0, [10.0, 0.5], "need at least one pulse"),
        (1.0, [10.0, math.nan], "need at least one pulse"),
    ])
    def test_bad_elements_raise_the_scalar_error(self, alpha2, m, message):
        with pytest.raises(ParameterError, match=message):
            b.qubit_cost(np.array(alpha2), np.array(m))
        with pytest.raises(ParameterError, match=message):  # the last element alone
            b.qubit_cost(float(np.ravel(alpha2)[-1]), float(np.ravel(m)[-1]))


class TestStrategyBoundArrays:
    @pytest.mark.parametrize("bound", [b.bound_first_detectors, b.bound_last_detector])
    def test_fields_equal_per_point_results(self, ecc, bound):
        gains = replace(ideal_gain_set(7), g_e_last=0.9, g_d_last_max=0.05)
        n_grid = np.array([1.0, 1e3, 2.5e7, 1e14])
        p_darks = np.array([[0.0], [1e-11], [1e-6]])
        fields = ("alpha2", "threshold_r", "m_pulses", "q_qubits", "delta_cap",
                  "dominance_ratio")
        params = b.ProtocolParams(k=7, n_bits=n_grid, ecc=ecc, p_error=1e-5, eta=0.5,
                                  p_dark=p_darks)
        res = bound(params, gains)
        for i, p_dark in enumerate(p_darks[:, 0].tolist()):
            for j, n in enumerate(n_grid.tolist()):
                point = bound(replace(params, n_bits=n, p_dark=p_dark), gains)
                for field in fields:
                    got = np.broadcast_to(getattr(res, field), res.alpha2.shape)[i, j]
                    assert got == getattr(point, field), field

    @pytest.mark.parametrize("n_bits, p_dark, message", [
        ([1e6, 0.4], 0.0, "raw message length must be >= 1"),
        ([1e6, math.nan], 0.0, "raw message length must be >= 1"),
        ([1e6, 1e308], 0.0, "finite codeword length"),
        (1e6, [0.0, 1.0], "p_dark must lie in"),
        (1e6, [0.0, math.nan], "p_dark must lie in"),
    ])
    def test_bad_elements_raise_the_scalar_error(self, ecc, n_bits, p_dark, message):
        with pytest.raises(ParameterError, match=message):
            b.ProtocolParams(k=4, n_bits=np.array(n_bits), ecc=ecc, p_error=1e-5,
                             p_dark=np.array(p_dark))


class TestStrategyBounds:
    def test_first_detectors_ideal_closed_form(self, ecc):
        for k in (2, 3, 7):
            params = params_for(k, 10**6, ecc)
            res = b.bound_first_detectors(params, ideal_gain_set(k))
            expect = 2 * k * LN1E5 / (0.22 * (k - 1))
            assert res.alpha2 == pytest.approx(expect, rel=1e-12)
            assert res.alpha2 > 0 and res.feasible

    def test_last_detector_ideal_closed_form(self, ecc):
        for k in (3, 4, 9):
            params = params_for(k, 10**6, ecc)
            res = b.bound_last_detector(params, ideal_gain_set(k))
            expect = k**3 * LN1E5 / (2 * 0.22**2 * (k - 1) ** 2)
            assert res.alpha2 == pytest.approx(expect, rel=1e-12)

    def test_eta_divides_once(self, ecc):
        g = ideal_gain_set(4)
        full = b.bound_first_detectors(params_for(4, 10**6, ecc, eta=1.0), g)
        half = b.bound_first_detectors(params_for(4, 10**6, ecc, eta=0.5), g)
        assert half.alpha2 == pytest.approx(2 * full.alpha2, rel=1e-12)
        # thresholds are detector-side quantities, untouched by eta
        assert half.threshold_r == pytest.approx(full.threshold_r, rel=1e-12)

    def test_feasibility_errors(self, ecc):
        params = params_for(3, 10**4, ecc)
        g = ideal_gain_set(3)
        flat = replace(g, g_d_first_min=g.g_e_first)
        with pytest.raises(FeasibilityError):
            b.bound_first_detectors(params, flat)
        flat = replace(g, g_d_last_max=g.g_e_last)
        with pytest.raises(FeasibilityError):
            b.bound_last_detector(params, flat)

    def test_threshold_values_ideal(self, ecc):
        k = 4
        params = params_for(k, 10**6, ecc, p_dark=1e-9)
        g = ideal_gain_set(k)
        res = b.bound_first_detectors(params, g)
        received = res.alpha2  # eta = 1
        expect_r = 0.5 * received * (1.78 * 0.0 + 0.22 * (4 * 3 / 4)) \
            + (k - 1) * params.m_pulses * 1e-9
        assert res.threshold_r == pytest.approx(expect_r, rel=1e-12)

    def test_elbow_shape_and_sqrt_slope(self, ecc):
        # two-user realistic gains at the 0.98 operating point
        g = replace(
            ideal_gain_set(2),
            g_e_first=0.002, g_d_first_min=1.922, g_e_last=1.91, g_d_last_max=0.002,
        )
        n_grid = [10.0**e for e in range(4, 14)]
        alphas, ratios = [], []
        for n in n_grid:
            res = b.bound_first_detectors(params_for(2, n, ecc, p_dark=1e-9), g)
            alphas.append(res.alpha2)
            ratios.append(res.dominance_ratio)
        # flat region then growth
        assert alphas[1] == pytest.approx(alphas[0], rel=1e-3)
        assert alphas[-1] > 10 * alphas[0]
        past = [i for i, r in enumerate(ratios) if r >= 10.0]
        assert past, "grid must reach the dark-dominated regime"
        i0, i1 = past[0], past[-1]
        slope = (math.log10(alphas[i1]) - math.log10(alphas[i0])) / (
            math.log10(n_grid[i1]) - math.log10(n_grid[i0])
        )
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_monotone_in_inputs(self, ecc):
        g = ideal_gain_set(3)
        base = b.bound_first_detectors(params_for(3, 10**8, ecc, p_dark=1e-9), g)
        more_dark = b.bound_first_detectors(params_for(3, 10**8, ecc, p_dark=1e-8), g)
        longer = b.bound_first_detectors(params_for(3, 10**9, ecc, p_dark=1e-9), g)
        stricter = b.bound_first_detectors(
            params_for(3, 10**8, ecc, p_error=1e-7, p_dark=1e-9), g
        )
        weaker_gain = replace(g, g_d_first_min=g.g_d_first_min * 0.9)
        weaker = b.bound_first_detectors(params_for(3, 10**8, ecc, p_dark=1e-9), weaker_gain)
        assert more_dark.alpha2 > base.alpha2
        assert longer.alpha2 > base.alpha2
        assert stricter.alpha2 > base.alpha2
        assert weaker.alpha2 > base.alpha2

    def test_validity_flag(self, ecc):
        g = ideal_gain_set(4)
        res = b.bound_last_detector(params_for(4, 10**3, ecc, eta=0.5), g)
        assert not res.within_validity(4)
        res = b.bound_last_detector(params_for(4, 10**7, ecc, eta=0.5), g)
        assert res.within_validity(4)

    def test_photon_load(self, ecc):
        # K * alpha2 / M in that operation order, scalar and array alike
        g = ideal_gain_set(4)
        res = b.bound_last_detector(params_for(4, 10**3, ecc, eta=0.5), g)
        assert res.photon_load(4) == 4 * res.alpha2 / res.m_pulses
        assert res.within_validity(4) == (res.photon_load(4) < b.PHOTON_REGIME_LIMIT)
        arr = b.bound_last_detector(params_for(4, np.array([1e3, 1e7]), ecc, eta=0.5), g)
        assert np.array_equal(arr.photon_load(4), 4 * arr.alpha2 / arr.m_pulses)


def _windows(n):
    """Inclusive k windows in [0, n]: at either end, single elements, across block edges."""
    top = int(n)
    edge = b._BLOCK * (top // b._BLOCK)
    cands = [
        (0, 0), (top, top), (top // 2, top // 2), (255, 255), (256, 256),
        (0, 255), (0, 256), (0, 1000), (0, top),
        (top - 300, top), (top - 1, top), (edge - 3, edge + 3), (edge - 1, edge),
        (250, 262), (255, 256), (200, 1100), (511, 1280),
        (top // 2 - 600, top // 2 + 600),
        # three blocks, from the last k of one to the first of the third;
        # a window clipped at n; a window of eight blocks
        (255, 512), (edge - 257, top), (0, 1800),
    ]
    out = []
    for a, c in cands:
        a, c = max(a, 0), min(c, top)
        if a <= c and c - a <= 5000 and (a, c) not in out:
            out.append((a, c))
    return out


def clear_log_pmf_caches():
    """Empty both caches behind ``_log_pmf_array``."""
    for cache in (b._lgamma_k1_block, b._log_binom_block):
        cache.cache_clear()


class TestLogPmfBlocks:
    @pytest.mark.parametrize("n", [1, 7, 255, 256, 257, 2048, 4096, 1e5, 4.17e12])
    @pytest.mark.parametrize("q", [1e-9, 0.3, 0.97])
    def test_equal_to_reference_cold_and_warm(self, n, q):
        n = float(n)
        log_q, log_1mq = math.log(q), math.log1p(-q)
        windows = _windows(n)
        expect = {
            w: reference_log_pmf_array(np.arange(w[0], w[1] + 1, dtype=float), n, log_q, log_1mq)
            for w in windows
        }

        def check(order, clear_each):
            for a, c in order:
                if clear_each:
                    clear_log_pmf_caches()
                got = b._log_pmf_array(np.arange(a, c + 1, dtype=float), n, log_q, log_1mq)
                assert np.array_equal(got, expect[(a, c)]), (a, c)
                got = b._log_pmf_array(range(a, c + 1), n, log_q, log_1mq)
                assert np.array_equal(got, expect[(a, c)]), (a, c)

        check(windows, clear_each=True)
        for order in (windows, windows[::-1]):
            clear_log_pmf_caches()
            check(order, clear_each=False)  # fills the caches in this order
            check(order, clear_each=False)  # every block warm

    def test_warm_blocks_shared_across_q(self):
        n = 4.17e6
        ks = np.arange(1000.0, 1700.0)
        clear_log_pmf_caches()
        for q in (0.3, 1e-6):
            log_q, log_1mq = math.log(q), math.log1p(-q)
            got = b._log_pmf_array(ks, n, log_q, log_1mq)
            assert np.array_equal(got, reference_log_pmf_array(ks, n, log_q, log_1mq))
        # the second q reads the 4 blocks the first one built
        info = b._log_binom_block.cache_info()
        assert (info.misses, info.hits) == (4, 4)

    def test_lgamma_k1_blocks_shared_across_n(self):
        clear_log_pmf_caches()
        log_q, log_1mq = math.log(0.3), math.log1p(-0.3)
        for n in (511.0, 1000.0, 4.17e6, 4.17e12):
            ks = range(200, 400)
            got = b._log_pmf_array(ks, n, log_q, log_1mq)
            assert np.array_equal(got, reference_log_pmf_array(ks, n, log_q, log_1mq))
        assert b._lgamma_k1_block.cache_info().misses == 2  # blocks 0 and 1
        assert b._log_binom_block.cache_info().misses == 8

    def test_cached_block_is_read_only(self):
        blk = b._log_binom_block(1000.0, 3)  # k = 768 .. 1023: past n from 1001
        assert not blk.flags.writeable
        with pytest.raises(ValueError):
            blk[0] = 0.0
        assert b._log_binom_block(1000.0, 3) is blk
        assert len(blk) == b._BLOCK and np.all(blk[233:] == -np.inf)
        assert np.all(np.isfinite(blk[:233]))
        out = b._log_pmf_array(np.arange(700.0, 1001.0), 1000.0, math.log(0.3), math.log1p(-0.3))
        assert out.flags.writeable
        for cached in (blk, b._log_binom_block(1000.0, 2), b._lgamma_k1_block(3)):
            assert not cached.flags.writeable
            assert not np.shares_memory(out, cached)

    def test_caches_hold_at_most_1_mib(self, ecc):
        """Both caches full, after figure 14's 402 searches in N-outer order
        and after a block at each of as many distinct n as the cache holds."""
        clear_log_pmf_caches()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in _FIGURE_14_N:
                for p_dark in (1e-9, 1e-11):
                    b.algorithm_two_user(params_for(2, n, ecc, eta=0.5, p_dark=p_dark), v=0.98)
            after_sweep = tracemalloc.get_traced_memory()[0]
            log_q, log_1mq = math.log(0.3), math.log1p(-0.3)
            for i in range(b._log_binom_block.cache_info().maxsize):  # distinct n and k
                b._log_pmf_array(range(i * b._BLOCK, (i + 1) * b._BLOCK), 1e9 + i, log_q, log_1mq)
            after_largest = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        for cache in (b._lgamma_k1_block, b._log_binom_block):
            info = cache.cache_info()
            assert info.currsize == info.maxsize
        assert after_sweep - before <= 1 << 20
        assert after_largest - before <= 1 << 20


#: Figure 14's N grid: 1e4 to 1e12, 25 points per decade.
_FIGURE_14_N = sorted({float(round(v)) for v in np.logspace(4.0, 12.0, 201)})


#: (p, n, q) over small n, where the reference enumerates every outcome up to
#: n = 2048, and figure 14's codeword lengths M = 4.17 N, whose click
#: probabilities put a few to a few thousand clicks in the mean.
_INV_CDF_GRID = [
    (p, n, q)
    for n in (1, 7, 300, 2048, 2049, 41_700, 4_170_000, 4_170_000_000, 4_170_000_000_000)
    for q in sorted({1e-9, min(0.3, 30 / n), min(0.3, 3000 / n)})
    for p in (1e-5, 0.37, 0.5, 1 - 1e-5)
]

_SCIPY_N = [1, 7, 300, 2048, 4096, 10**5, 10**6]
_SCIPY_Q = [1e-7, 0.01, 0.5, 0.93]
_SCIPY_P = [1e-9, 1e-5, 0.37, 0.9, 1 - 1e-5, 1 - 1e-9]

#: Quantiles around the median, 0.5 to 3e6 successes in the mean, at figure
#: 14's codeword lengths up to M = 4.17e10 and at both q and 1 - q.  From
#: M = 4.17e11 on, the p = 1/2 walk, which the reference started from
#: 1 - survival, can differ by up to 14 (see the changelog); both are then off
#: scipy's ppf by the lgamma log-pmf's error.
_MEDIAN_GRID = [
    (p, n, q)
    for n in (41_700 * 10**e for e in range(7))
    for mean in (0.5, 3, 30, 300, 3e3, 3e4, 3e5, 3e6)
    if mean / n <= 0.5
    for q in (mean / n, 1 - mean / n)
    for p in (0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8)
]


class TestBinomialInvCdf:
    def test_equal_to_reference_loop(self, monkeypatch):
        clear_log_pmf_caches()
        got = [b.binomial_inv_cdf(*args) for args in _INV_CDF_GRID]
        monkeypatch.setattr(b, "_log_pmf_array", reference_log_pmf_array)
        assert got == [b.binomial_inv_cdf(*args) for args in _INV_CDF_GRID]

    @pytest.mark.parametrize("grid", ["inv-cdf", "scipy", "median"])
    def test_equal_to_reference_inv_cdf(self, grid):
        args = {
            "inv-cdf": _INV_CDF_GRID,
            "scipy": list(itertools.product(_SCIPY_P, _SCIPY_N, _SCIPY_Q)),
            "median": _MEDIAN_GRID,
        }[grid]
        got = [b.binomial_inv_cdf(*a) for a in args]
        assert got == [reference_binomial_inv_cdf(*a) for a in args]

    def test_two_user_search_equal_to_reference_loop(self, ecc, monkeypatch):
        searches = [params_for(2, n, ecc, p_dark=1e-9) for n in (1e4, 1e6, 1e8, 1e10, 1e12)]
        got = [b.algorithm_two_user(p, v=0.98) for p in searches]
        monkeypatch.setattr(b, "_log_pmf_array", reference_log_pmf_array)
        assert got == [b.algorithm_two_user(p, v=0.98) for p in searches]

    @pytest.mark.parametrize("n", [0, -3, 2.5, 1e5 + 0.5, 10**400, float("nan"), float("inf")])
    def test_rejects_non_integral_trial_counts(self, n):
        with pytest.raises(ParameterError, match="positive integer"):
            b.binomial_inv_cdf(0.5, n, 0.3)

    @pytest.mark.parametrize("n", [1e20, 2**64])
    def test_rejects_windows_beyond_2_53(self, n):
        # consecutive k near the mean are no longer floats
        with pytest.raises(ParameterError, match="beyond 2\\*\\*53"):
            b.binomial_inv_cdf(0.5, n, 0.3)

    @pytest.mark.parametrize("p", [1e-5, 1 - 1e-5])
    def test_rejects_overflowing_mass(self, p):
        # figure 14's codeword length at N = 1e17: the lgamma log-pmf puts a
        # tail mass beyond the float range (an OverflowError before)
        with pytest.raises(ParameterError, match="overflows"):
            b.binomial_inv_cdf(p, 416_957_673_522_205_120, 1e-9)

    @pytest.mark.parametrize("args", [
        (0.5, True, 0.3), (0.5, False, 0.3), (True, 10, 0.3), (0.5, 10, True),
        (False, 10, 0.3), (0.5, 10, False), (0.5, np.bool_(True), 0.3), (np.bool_(True), 10, 0.3),
    ])
    def test_rejects_bools(self, args):
        with pytest.raises(ParameterError):
            b.binomial_inv_cdf(*args)

    @pytest.mark.parametrize("args", [
        (0.5, "10", 0.3), (0.5, None, 0.3), (0.5, 10, None), ("0.5", 10, 0.3),
        (0.5, 10, 0.3 + 0j), (0.5, [10], 0.3),
    ])
    def test_rejects_non_real_values(self, args):
        with pytest.raises(ParameterError):
            b.binomial_inv_cdf(*args)

    def test_accepts_numpy_scalars(self):
        want = b.binomial_inv_cdf(0.37, 300, 0.3)
        assert b.binomial_inv_cdf(np.float64(0.37), np.int64(300), np.float64(0.3)) == want
        assert b.binomial_inv_cdf(0.37, np.float64(300.0), 0.3) == want
        assert b.binomial_inv_cdf(0.37, np.int32(300), np.float32(0.5)) == b.binomial_inv_cdf(
            0.37, 300, 0.5)

    def test_accepts_integral_floats(self):
        k = b.binomial_inv_cdf(0.37, 300.0, 0.3)
        assert type(k) is int and k == b.binomial_inv_cdf(0.37, 300, 0.3)
        assert type(b.binomial_inv_cdf(0.7, 9.0, 1.0)) is int
        assert b.binomial_inv_cdf(0.5, 1e5, 0.3) == b.binomial_inv_cdf(0.5, 10**5, 0.3)

    def test_enumeration_oracle_small(self):
        # brute-force CDF over the six outcomes of Binomial(5, 1/2)
        pmf = [math.comb(5, i) * 0.5**5 for i in range(6)]
        cdf = np.cumsum(pmf)
        expect = next(k for k in range(6) if cdf[k] >= 0.5)
        assert expect == 2
        assert b.binomial_inv_cdf(0.5, 5, 0.5) == 2

    def test_exact_ties_resolve_like_exact_arithmetic(self):
        # Binomial(n, 1/2) CDF values are dyadic, so p = CDF(k) is an exact
        # float and k is the answer; the summed tails land an ulp either side
        for n in range(1, 54):
            cdf = Fraction(0)
            for k in range(n):
                cdf += Fraction(math.comb(n, k), 2**n)
                assert b.binomial_inv_cdf(float(cdf), n, 0.5) == k, (n, k)

    def test_edges(self):
        assert b.binomial_inv_cdf(1.0, 9, 0.3) == 9
        assert b.binomial_inv_cdf(0.0, 9, 0.3) == 0
        assert b.binomial_inv_cdf(0.7, 9, 0.0) == 0
        assert b.binomial_inv_cdf(0.7, 9, 1.0) == 9

    @pytest.mark.parametrize("n", _SCIPY_N)
    @pytest.mark.parametrize("q", _SCIPY_Q)
    @pytest.mark.parametrize("p", _SCIPY_P)
    def test_against_scipy_grid(self, n, q, p):
        assert b.binomial_inv_cdf(p, n, q) == int(st.binom.ppf(p, n, q))

    @pytest.mark.parametrize("n", [3, 5, 7, 10, 31, 300, 2048, 4096, 10**5, 10**6])
    def test_lower_walk_from_the_mean_or_above(self, n, monkeypatch):
        # p <= 1/2 walks sum the lower tail directly, even where the
        # Cornish-Fisher start lies at or above the mean (q > 1/2 here)
        starts = []
        log_tail = b._log_tail

        def spy(lo, hi, *args, **kwargs):
            starts.append(hi)
            return log_tail(lo, hi, *args, **kwargs)

        monkeypatch.setattr(b, "_log_tail", spy)
        above = 0
        for q in (0.55, 0.6, 0.7, 0.8, 0.93, 0.999):
            for p in (0.45, 0.5):
                starts.clear()
                assert b.binomial_inv_cdf(p, n, q) == int(st.binom.ppf(p, n, q)), (q, p)
                above += bool(starts) and starts[0] >= n * q  # F(n) = 1 is not summed
        assert above >= 2

    @pytest.mark.parametrize("n", [10**9, 10**12])
    def test_huge_n_definitional(self, n):
        q = 2.5e-9
        for p in (1e-5, 0.5, 1 - 1e-5):
            k = b.binomial_inv_cdf(p, n, q)
            assert st.binom.cdf(k, n, q) >= p * (1 - 1e-9)
            assert st.binom.cdf(k - 1, n, q) < p * (1 + 1e-9)

    @given(
        n=hst.integers(min_value=1, max_value=10**6),
        q=hst.floats(min_value=1e-12, max_value=1.0),
        p=hst.floats(min_value=1e-12, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_definitional_property(self, n, q, p):
        k = b.binomial_inv_cdf(p, n, q)
        assert 0 <= k <= n
        if 0 < p < 1 and 0 < q < 1:
            assert st.binom.cdf(k, n, q) >= p * (1 - 1e-9)
            if k > 0:
                assert st.binom.cdf(k - 1, n, q) < p * (1 + 1e-9)


def _near_tie_sets(n, q, p0):
    """Lists of probabilities whose walk targets lie up to three ulps either
    side of a value that the walk from their common start computes: the
    start's tail sum or one or two pmf steps down or up from it, for starts
    within 3 of p0's.  Where a list straddles its value, the answer changes
    within it."""
    nf = float(n)
    log_q, log_1mq = math.log(q), math.log1p(-q)
    upper = p0 > 0.5

    def start_value(k):
        if upper:
            return -b._mass(reference_log_tail(k + 1.0, nf, nf, log_q, log_1mq, False), n)
        return b._mass(reference_log_tail(0.0, k, nf, log_q, log_1mq, True), n)

    def pmf(kk):
        return b._mass(b._log_pmf_array(np.array([float(kk)]), nf, log_q, log_1mq)[0], n)

    def p_of(target):
        if upper:
            return 1.0 - (-target - 2.0**-53) / (1.0 + b._TIE_FUZZ)
        return target / (1.0 - b._TIE_FUZZ)

    k0 = _start(p0, n, q)
    for k in range(max(k0 - 3, 0), min(k0 + 3, n - 1) + 1):
        h0 = start_value(k)
        values = [h0]
        if k >= 2:
            values += [h0 - pmf(k), h0 - pmf(k) - pmf(k - 1)]
        if k + 2 <= n:
            values += [h0 + pmf(k + 1), h0 + pmf(k + 1) + pmf(k + 2)]
        for value in values:
            ps = [p_of(value)]
            for _ in range(3):
                ps = [math.nextafter(ps[0], 0.0), *ps, math.nextafter(ps[-1], 1.0)]
            ps = [p for p in ps if 0.0 < p < 1.0 and (p > 0.5) == upper and _start(p, n, q) == k]
            if ps:
                yield ps


#: Figure 14's codeword lengths and click probabilities, and small n.
_TIE_CASES = [
    (300, 0.3), (2049, 30 / 2049), (41_700, 30 / 41_700), (4_170_000, 3000 / 4_170_000),
    (4_170_000_000, 1e-9), (4_170_000_000_000, 1e-9),
]


class TestFastTailSum:
    """The fast window sum and the array-read walk decide like the math.fsum
    sum and the one-pmf-per-step walk (``reference_fsum_inv_cdf``)."""

    @pytest.mark.parametrize("grid", ["inv-cdf", "scipy", "median"])
    def test_equal_to_fsum_inv_cdf(self, grid):
        args = {
            "inv-cdf": _INV_CDF_GRID,
            "scipy": list(itertools.product(_SCIPY_P, _SCIPY_N, _SCIPY_Q)),
            "median": _MEDIAN_GRID,
        }[grid]
        assert [b.binomial_inv_cdf(*a) for a in args] == [reference_fsum_inv_cdf(*a) for a in args]

    @pytest.mark.parametrize("p_dark", [1e-9, 1e-11])
    def test_two_user_search_equal_to_fsum_inv_cdf(self, ecc, p_dark, monkeypatch):
        searches = [
            params_for(2, 10.0**e, ecc, eta=0.5, p_dark=p_dark) for e in range(4, 13)
        ]
        got = [b.algorithm_two_user(p, v=0.98) for p in searches]
        monkeypatch.setattr(b, "binomial_inv_cdf", reference_fsum_inv_cdf)
        assert got == [b.algorithm_two_user(p, v=0.98) for p in searches]

    @given(
        n=hst.integers(min_value=1, max_value=10**13),
        log_q=hst.floats(min_value=-13.0, max_value=0.0),
        p=hst.floats(min_value=0.0, max_value=1.0),
        flip=hst.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_equal_to_fsum_inv_cdf(self, n, log_q, p, flip):
        q = 10.0**log_q
        q = 1.0 - q if flip else q
        if n * q * (1.0 - q) > 1e10:  # sd at most 1e5
            q = 1e10 / n
        assert b.binomial_inv_cdf(p, n, q) == reference_fsum_inv_cdf(p, n, q)

    @pytest.mark.parametrize("n, q", _TIE_CASES)
    @pytest.mark.parametrize("p0", [1e-5, 0.37, 0.5, 0.63, 0.9])
    def test_near_ties_decide_like_the_fsum_walk(self, n, q, p0, monkeypatch):
        fsum_calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: fsum_calls.append(1) or fsum(xs))
        flips = 0
        for ps in _near_tie_sets(n, q, p0):
            fsum_calls.clear()
            got = [b.binomial_inv_cdf(p, n, q) for p in ps]
            assert got == [reference_fsum_inv_cdf(p, n, q) for p in ps], ps
            assert fsum_calls, "a near tie must be re-decided with math.fsum"
            flips += len(set(got)) > 1
        assert flips >= 1

    def test_fast_sum_decides_figure_14_grid(self, monkeypatch):
        monkeypatch.setattr(math, "fsum", None)  # any exact re-decision fails
        for args in _INV_CDF_GRID + _MEDIAN_GRID:
            b.binomial_inv_cdf(*args)

    def test_forced_fallback_keeps_the_answers(self, ecc, monkeypatch):
        args = _INV_CDF_GRID + _MEDIAN_GRID
        expect = [reference_fsum_inv_cdf(*a) for a in args]
        params = params_for(2, 1e8, ecc, eta=0.5, p_dark=1e-9)
        search = b.algorithm_two_user(params, v=0.98)
        fsum_calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: fsum_calls.append(1) or fsum(xs))
        monkeypatch.setattr(b, "_SUM_BAND", math.inf)  # every comparison is in doubt
        assert [b.binomial_inv_cdf(*a) for a in args] == expect
        assert b.algorithm_two_user(params, v=0.98) == search
        assert len(fsum_calls) >= len(args)

    @pytest.mark.parametrize(
        "p, n, q, singles",
        [
            (1e-300, 300, 0.99, 100 - b._PAD),  # the lower tail's walk reads 100 pmfs up
            (1 - 1e-16, 10**6, 0.5, 43 - b._PAD),  # the upper tail's walk reads 43 down
            (1e-100, 50, 0.01, 50),  # a start at n: no tail, one pmf per step
        ],
    )
    def test_walks_past_the_array(self, p, n, q, singles, monkeypatch):
        # the walk reads `singles` pmfs past the tail's array (or with no
        # tail); they come in one block of up to _WALK_BLOCK terms
        calls, masses, tails = [], [], []
        log_pmf_array, log_tail, mass = b._log_pmf_array, b._log_tail, b._mass

        def spy(ks, *args):
            calls.append(len(ks))
            return log_pmf_array(ks, *args)

        def tail_spy(*args):
            out = log_tail(*args)
            tails.append(len(calls))
            return out

        monkeypatch.setattr(b, "_log_pmf_array", spy)
        monkeypatch.setattr(b, "_log_tail", tail_spy)
        monkeypatch.setattr(b, "_mass", lambda *args: masses.append(1) or mass(*args))
        k = b.binomial_inv_cdf(p, n, q)
        assert len(masses) == singles + (1 + b._PAD if tails else 0)
        walk = calls[tails[-1] if tails else 0 :]
        assert len(walk) == 1 and singles <= walk[0] <= b._WALK_BLOCK
        assert k == reference_fsum_inv_cdf(p, n, q)

    def test_far_start_walks_in_blocks(self, monkeypatch):
        # the Cornish-Fisher start lies 84,391 above the answer: the walk
        # fetches its pmfs a block at a time, not one array call per step
        calls, tails = [], []
        log_pmf_array, log_tail = b._log_pmf_array, b._log_tail

        def spy(ks, *args):
            calls.append(len(ks))
            return log_pmf_array(ks, *args)

        def tail_spy(*args):
            out = log_tail(*args)
            tails.append(len(calls))
            return out

        monkeypatch.setattr(b, "_log_pmf_array", spy)
        monkeypatch.setattr(b, "_log_tail", tail_spy)
        assert b.binomial_inv_cdf(1 - 1e-16, 4_170_000_000_000, 0.5) == 2_085_008_297_783
        walk = calls[tails[-1] :]
        assert walk == [b._WALK_BLOCK] * len(walk)
        assert len(walk) == -(-(84_391 - b._PAD) // b._WALK_BLOCK)


class TestTwoUserAlgorithm:
    def test_ideal_limit_close_to_closed_form(self, ecc):
        params = params_for(2, 1000, ecc)
        res = b.algorithm_two_user(params, v=1.0)
        ideal = LN1E5 / (2 * 0.22)
        assert abs(res.alpha2 - ideal) / ideal < 0.10
        assert res.strategy == b.STRATEGY_TWO_USER

    def test_step_granularity(self, ecc):
        params = params_for(2, 1000, ecc, p_dark=1e-9)
        coarse = b.algorithm_two_user(params, v=0.98, step=1.0)
        fine = b.algorithm_two_user(params, v=0.98, step=0.5)
        assert abs(coarse.alpha2 - fine.alpha2) <= 1.0 + 1e-9

    def test_crossing_is_first_on_grid(self, ecc):
        params = params_for(2, 2000, ecc, p_dark=1e-8)
        res = b.algorithm_two_user(params, v=0.97, step=1.0)
        received = res.alpha2 * params.eta
        r_e, r_d = b._two_user_thresholds(
            received, params.m_pulses, 0.97, ecc.delta, 1e-8, 1e-5, 1e-5
        )
        assert r_d >= r_e
        r_e2, r_d2 = b._two_user_thresholds(
            received - 1.0, params.m_pulses, 0.97, ecc.delta, 1e-8, 1e-5, 1e-5
        )
        assert r_d2 < r_e2

    def test_eta_scales_result(self, ecc):
        res1 = b.algorithm_two_user(params_for(2, 1000, ecc, eta=1.0), v=0.98)
        res2 = b.algorithm_two_user(params_for(2, 1000, ecc, eta=0.5), v=0.98)
        assert res2.alpha2 == pytest.approx(2 * res1.alpha2, rel=1e-12)

    def test_divergence_reports_gap(self, ecc):
        params = params_for(2, 1000, ecc, p_dark=0.0)
        with pytest.raises(ConvergenceError, match="gap"):
            b.algorithm_two_user(params, v=0.51, alpha2_cap=4.0)

    def test_equal_threshold_at_m_is_infeasible(self, ecc):
        # at N = 10 (M = 42) the equal-sequence threshold reaches M first,
        # while the different-sequence one is at most M - 1 at any alpha2
        params = params_for(2, 10, ecc, eta=0.5, p_dark=1e-9)
        m = params.m_pulses
        assert m == 42
        with pytest.raises(FeasibilityError, match="reaches M at alpha2 = 2048"):
            b.algorithm_two_user(params, v=0.98)
        for alpha2 in (2048.0, 1e6, 1e12):
            r_e, r_d = b._two_user_thresholds(alpha2, m, 0.98, ecc.delta, 1e-9, 1e-5, 1e-5)
            assert r_e == m and r_d < m

    def test_rejects_bad_inputs(self, ecc):
        with pytest.raises(ParameterError):
            b.algorithm_two_user(params_for(3, 1000, ecc), v=0.9)
        with pytest.raises(ParameterError):
            b.algorithm_two_user(params_for(2, 1000, ecc), v=0.4)


# The per-point search that the lockstep one replaced, kept as its oracle.


def reference_two_user_thresholds(alpha2, m, v, delta, p_dark, p_error_equal, p_error_diff):
    p_e = click_probability(2.0 * (1.0 - v) * alpha2 / m, 1.0, p_dark)
    p_d = click_probability(2.0 * v * alpha2 / m, 1.0, p_dark)
    mix = min(1.0, (1.0 - delta) * p_d + delta * p_e)
    r_equal = b.binomial_inv_cdf(1.0 - p_error_equal, m, p_e)
    r_diff = b.binomial_inv_cdf(p_error_diff, m, mix) - 1
    return r_equal, r_diff


def reference_two_user(params, v, step=1.0, alpha2_cap=1e6, p_error_equal=None,
                       p_error_diff=None):
    pe_eq = params.p_error if p_error_equal is None else p_error_equal
    pe_df = params.p_error if p_error_diff is None else p_error_diff
    m = params.m_pulses
    delta = params.ecc.delta

    def crossed(alpha2):
        r_e, r_d = reference_two_user_thresholds(alpha2, m, v, delta, params.p_dark, pe_eq, pe_df)
        return r_d >= r_e, r_e, r_d

    ok0, _, _ = crossed(0.0)
    if ok0:
        raise ConvergenceError("threshold search degenerate: crossing at zero photons")
    lo = 0.0
    hi = step
    while True:
        ok, r_e, r_d = crossed(hi)
        if ok:
            break
        if r_e == m:
            raise FeasibilityError(
                f"no threshold crossing possible at M = {m}: the equal-sequence threshold "
                f"reaches M at alpha2 = {hi:.4g}, and the different-sequence one stays "
                "below M"
            )
        if hi > alpha2_cap:
            raise ConvergenceError(
                f"no threshold crossing up to alpha2 = {hi:.4g}; "
                f"remaining gap r_E - r_D = {r_e - r_d}"
            )
        lo = hi
        hi *= 2.0
    while hi - lo > step * 1.0001:
        mid = lo + step * round((hi - lo) / (2.0 * step))
        mid = min(max(mid, lo + step), hi - step)
        ok, _, _ = crossed(mid)
        if ok:
            hi = mid
        else:
            lo = mid
    _, _, r_d = crossed(hi)
    return b._costed(b.STRATEGY_TWO_USER, hi / params.eta, float(r_d), m, params.epsilon)


class TestLockstepSearch:
    """Array ``algorithm_two_user`` against the per-point oracle, bit for bit."""

    @pytest.mark.parametrize(
        "n_range, v, kwargs",
        [
            ((1e4, 1e12, 25), 0.98, {}),  # figure 14's presets
            ((10, 1e4, 2), 0.98, {}),  # infeasible at N = 10 and 32
            ((1e4, 1e14, 2), 0.98, {}),  # windows that widen
            ((1e4, 1e10, 2), 0.98, {"p_error_equal": 1e-3, "p_error_diff": 1e-7}),
            ((1e4, 1e10, 2), 0.98, {"step": 0.37}),
            ((1e4, 1e10, 2), 0.98, {"step": 5.0}),
            ((1e4, 1e10, 2), 0.7, {}),
            ((1e4, 1e10, 2), 1.0, {}),
            ((1e4, 1e10, 2), 0.9999, {}),
        ],
    )
    def test_fields_equal_the_per_point_search(self, ecc, n_range, v, kwargs):
        n_grid = log_spaced(*n_range)
        p_darks = (1e-9, 1e-11)
        params = params_for(2, np.array(n_grid), ecc, eta=0.5, p_dark=np.array(p_darks)[:, None])
        res = b.algorithm_two_user(params, v, **kwargs)
        assert res.alpha2.shape == (2, len(n_grid))
        for (i, p_dark), (j, n) in itertools.product(enumerate(p_darks), enumerate(n_grid)):
            try:
                want = reference_two_user(params_for(2, n, ecc, eta=0.5, p_dark=p_dark), v,
                                          **kwargs)
            except FeasibilityError:
                assert not res.feasible[i, j], (p_dark, n)
                for field in (res.alpha2, res.threshold_r, res.q_qubits):
                    assert math.isnan(field[i, j])
                continue
            got = [x[i, j] for x in (res.alpha2, res.threshold_r, res.q_qubits, res.feasible)]
            assert got == [want.alpha2, want.threshold_r, want.q_qubits, True], (p_dark, n)
        if n_range[0] == 10:
            assert res.feasible.sum() == res.feasible.size - 4

    @pytest.mark.parametrize("n_bits", [1000, np.array([1000.0, 2000.0, 4000.0])])
    def test_small_cap_raises_the_per_point_error(self, ecc, n_bits):
        params = params_for(2, n_bits, ecc, p_dark=0.0)
        with pytest.raises(ConvergenceError) as want:
            reference_two_user(params_for(2, 1000, ecc, p_dark=0.0), 0.51, alpha2_cap=4.0)
        with pytest.raises(ConvergenceError) as got:
            b.algorithm_two_user(params, 0.51, alpha2_cap=4.0)
        assert str(got.value) == str(want.value)

    def test_a_quantile_error_is_the_first_point_s(self, ecc):
        # the binomial masses overflow from N of about 1e17; the array search
        # raises the error the per-point search meets first
        n_grid = [1e4, 1e17, 1e18]
        with pytest.raises(ParameterError) as want:
            for n in n_grid:
                reference_two_user(params_for(2, n, ecc, eta=0.5, p_dark=1e-9), 0.98)
        params = params_for(2, np.array(n_grid), ecc, eta=0.5, p_dark=np.array([[1e-9], [1e-11]]))
        with pytest.raises(ParameterError) as got:
            b.algorithm_two_user(params, 0.98)
        assert str(got.value) == str(want.value)

    def test_scalar_calls_keep_their_types_and_errors(self, ecc):
        params = params_for(2, 1e6, ecc, eta=0.5, p_dark=1e-9)
        got, want = b.algorithm_two_user(params, 0.98), reference_two_user(params, 0.98)
        assert got == want
        assert [type(x) for x in (got.alpha2, got.threshold_r, got.m_pulses)] == [float, float, int]
        with pytest.raises(FeasibilityError) as err:
            b.algorithm_two_user(params_for(2, 10, ecc, eta=0.5, p_dark=1e-9), 0.98)
        with pytest.raises(FeasibilityError) as ref:
            reference_two_user(params_for(2, 10, ecc, eta=0.5, p_dark=1e-9), 0.98)
        assert str(err.value) == str(ref.value)

    def test_fields_do_not_depend_on_the_block_cache(self, ecc, monkeypatch):
        # figure 14's wide grid: searches that cannot cross, and windows that widen
        params = params_for(2, np.array(log_spaced(10, 1e14, 2)), ecc, eta=0.5,
                            p_dark=np.array([[1e-9], [1e-11]]))
        want = b.algorithm_two_user(params, 0.98)
        monkeypatch.setattr(b, "_log_binom_block",
                            functools.lru_cache(maxsize=1)(b._log_binom_block.__wrapped__))
        got = b.algorithm_two_user(params, 0.98)
        assert not got.feasible.all()
        for field in ("alpha2", "threshold_r", "q_qubits", "feasible"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field

    def test_figure_14_builds_each_block_once(self, ecc, monkeypatch):
        # a group of _LANE_M codeword lengths needs more blocks than a
        # 64-block cache holds, but all of them fit in the cache
        builds, body = [], b._log_binom_block.__wrapped__
        size = b._log_binom_block.cache_info().maxsize
        monkeypatch.setattr(b, "_log_binom_block", functools.lru_cache(maxsize=size)(
            lambda n, j: builds.append((n, j)) or body(n, j)))
        params = params_for(2, np.array(log_spaced(1e4, 1e12, 25)), ecc, eta=0.5,
                            p_dark=np.array([[1e-9], [1e-11]]))
        b.algorithm_two_user(params, 0.98)
        assert len(builds) == len(set(builds)) > size

    def test_figure_14_takes_12664_quantile_rows(self, tmp_path, monkeypatch):
        # 402 searches of about 16 threshold pairs; the per-point search took
        # 13,468 quantiles, two more per search to reread the crossing's r_D
        from multiqf import cli

        rows, kernel = [], b._inv_cdf_rows
        monkeypatch.setattr(b, "_inv_cdf_rows",
                            lambda p, *args, **kw: rows.append(len(p)) or kernel(p, *args, **kw))
        assert cli.main(["figure", "--id", "14", "--out-dir", str(tmp_path)]) == 0
        assert sum(rows) == 12_664


def _symmetric_ties():
    """(p, n, 1/2) at every exact CDF value of Binomial(n, 1/2), n < 16."""
    out = []
    for n in range(1, 16):
        cdf = Fraction(0)
        for k in range(n):
            cdf += Fraction(math.comb(n, k), 2**n)
            out.append((float(cdf), n, 0.5))
    return out


#: (p, n, q) rows for ``_inv_cdf_rows``: p either side of 1/2 and at the
#: edges, q at 0, 1 and near 1 (starts at n), figure 14's codeword lengths
#: with means up to 1e5 (windows that widen), and n from 4e15, where the
#: lgamma tail masses exceed 1.
_ROWS_GRID = _symmetric_ties() + [
    (p, n, q)
    for n in (1, 7, 300, 2049, 41_700, 4_170_000, 4_170_000_000, 4_170_000_000_000,
              4_000_000_000_000_000, 8_000_000_000_000_000)
    for q in (0.0, 1.0, 1e-9, 30 / n, 3000 / n, 1e5 / n, 0.5, 1 - 1e-9)
    if q <= 1.0 and (n < 1e6 or q < 1e-3 or q == 1.0)
    for p in (0.0, 1e-5, 0.37, 0.5, 0.63, 1 - 1e-5, 1.0)
]


class TestInvCdfRows:
    def test_equal_to_the_scalar_function(self, monkeypatch):
        scalar, fallbacks = b.binomial_inv_cdf, []
        monkeypatch.setattr(b, "binomial_inv_cdf",
                            lambda *args: fallbacks.append(args) or scalar(*args))
        p, n, q = (np.array(x, dtype=float) for x in zip(*_ROWS_GRID))
        got = b._inv_cdf_rows(p, n, q)
        assert got.tolist() == [scalar(*row) for row in _ROWS_GRID]
        inside = [row for row in _ROWS_GRID if 0 < row[0] < 1 and 0 < row[2] < 1]
        doubted = [row for row in fallbacks if 0 < row[0] < 1 and 0 < row[2] < 1]
        assert 0 < len(doubted) < len(inside) / 4  # the fallback runs; the 2-d rows do most

    def test_every_row_in_doubt_falls_back(self, monkeypatch):
        rows = [row for row in _ROWS_GRID if 0 < row[0] < 1 and 0 < row[2] < 1]
        expect = [b.binomial_inv_cdf(*row) for row in rows]
        scalar, fallbacks = b.binomial_inv_cdf, []
        monkeypatch.setattr(b, "binomial_inv_cdf",
                            lambda *args: fallbacks.append(args) or scalar(*args))
        monkeypatch.setattr(b, "_SUM_BAND", math.inf)  # every comparison is in doubt
        p, n, q = (np.array(x, dtype=float) for x in zip(*rows))
        assert b._inv_cdf_rows(p, n, q).tolist() == expect
        assert len(fallbacks) == len(rows)

    def test_widened_windows_walk_from_the_same_cache(self, monkeypatch):
        # the rows whose windows widen walk from the blocks the 2-d rows built
        hits = []  # the block cache's hits during each walk
        walk, info = b._walk, b._log_binom_block.cache_info

        def spy(*args, **kw):
            before = info().hits
            out = walk(*args, **kw)
            hits.append(info().hits - before)
            return out

        monkeypatch.setattr(b, "_walk", spy)
        n = 4_170_000_000_000
        rows = [(p, n, 1e5 / n) for p in np.linspace(0.01, 0.99, 20)]
        p, n, q = (np.array(x, dtype=float) for x in zip(*rows))
        clear_log_pmf_caches()
        got = b._inv_cdf_rows(p, n, q).tolist()
        assert len(hits) >= 10 and all(h > 0 for h in hits)
        assert got == [b.binomial_inv_cdf(*row) for row in rows]

    @pytest.mark.parametrize("n, q", _TIE_CASES)
    def test_near_ties_decide_like_the_fsum_walk(self, n, q):
        # the targets of each set lie up to three ulps either side of a value
        # the walk computes: a row decides them like the scalar or falls back
        sets = [ps for p0 in (1e-5, 0.37, 0.5, 0.63, 0.9) for ps in _near_tie_sets(n, q, p0)]
        rows = [p for ps in sets for p in ps]
        got = b._inv_cdf_rows(np.array(rows), np.full(len(rows), float(n)), np.full(len(rows), q))
        assert got.tolist() == [reference_fsum_inv_cdf(p, n, q) for p in rows]
        assert any(len(set(got[i : i + len(ps)].tolist())) > 1
                   for i, ps in zip(itertools.accumulate(map(len, sets), initial=0), sets))

    def test_raises_the_scalar_error(self):
        rows = _ROWS_GRID[:20] + [(1e-5, 4.17e17, 1e-9)]
        with pytest.raises(ParameterError) as want:
            for row in rows:
                b.binomial_inv_cdf(*row)
        p, n, q = (np.array(x, dtype=float) for x in zip(*rows))
        with pytest.raises(ParameterError) as got:
            b._inv_cdf_rows(p, n, q)
        assert str(got.value) == str(want.value)


class TestNaiveProtocol:
    def test_error_probability_split(self):
        assert b.naive_error_probability(5, 1e-5) == pytest.approx(2.5e-6, rel=1e-4)
        p_eq, p_df = b.naive_asymmetric_probs(5, 1e-5)
        assert p_eq == pytest.approx(2.5e-6, rel=1e-4)
        assert p_df == pytest.approx(1.0000075e-5, rel=1e-9)

    def test_asymmetric_limit(self):
        _, p_df = b.naive_asymmetric_probs(10, 1e-9)
        assert p_df == pytest.approx(1e-9, rel=1e-6)

    def test_degenerate_two_users(self, ecc):
        params = params_for(2, 1000, ecc, p_dark=1e-9)
        naive = b.naive_protocol(params, v=0.98)
        direct = b.algorithm_two_user(params, v=0.98)
        assert naive.alpha2 == pytest.approx(direct.alpha2, rel=1e-12)

    def test_scaling_factor(self, ecc):
        params = params_for(5, 1000, ecc, p_dark=1e-9)
        naive = b.naive_protocol(params, v=0.98)
        pair = b.algorithm_two_user(
            replace(params, k=2), v=0.98,
            p_error_equal=b.naive_error_probability(5, 1e-5),
            p_error_diff=b.naive_error_probability(5, 1e-5),
        )
        assert naive.alpha2 == pytest.approx(pair.alpha2 * 2 * 4 / 5, rel=1e-12)

    def test_asymmetric_probs_barely_change_result(self, ecc):
        params = params_for(8, 10**5, ecc, p_dark=1e-9)
        sym = b.naive_protocol(params, v=0.98, step=0.25)
        p_eq, p_df = b.naive_asymmetric_probs(8, 1e-5)
        asym = b.naive_protocol(params, v=0.98, step=0.25,
                                p_error_equal=p_eq, p_error_diff=p_df)
        # relaxing the different-sequence tail can only lower the photon
        # number, and only by an amount invisible at log-log plot scale
        assert asym.alpha2 <= sym.alpha2 + 1e-9
        assert abs(math.log10(asym.alpha2) - math.log10(sym.alpha2)) < 0.05


class TestScalingHelpers:
    def test_eta_scaling_matches_bounds(self, ecc):
        # the transmitted photon number scales as 1/eta
        g = ideal_gain_set(4)
        at_half = b.bound_last_detector(params_for(4, 10**6, ecc, eta=0.5), g)
        at_quarter = b.bound_last_detector(params_for(4, 10**6, ecc, eta=0.25), g)
        assert at_half.alpha2 * 0.5 / 0.25 == pytest.approx(at_quarter.alpha2, rel=1e-12)

    def test_max_users_formula(self, ecc):
        val = b.max_users_energy_advantage(ecc, 0.98, 1e-5, 1e-9)
        expect = (
            0.22**2 * (2 * 0.98 - 1) ** 2 * (1 - 2 * math.sqrt(1e-5)) ** 2
            / (2 * 1e-9 * ecc.c * math.log(2 + 1e5))
        )
        assert val == pytest.approx(expect, rel=1e-12)

    def test_max_users_monotonicity_and_zero(self, ecc):
        assert b.max_users_energy_advantage(ecc, 0.5 + 1e-15, 1e-5, 1e-9) < 1e-10
        v_scan = [b.max_users_energy_advantage(ecc, v, 1e-5, 1e-9) for v in (0.9, 0.95, 0.98)]
        assert v_scan[0] < v_scan[1] < v_scan[2]
        d_scan = [b.max_users_energy_advantage(ecc, 0.98, 1e-5, mu) for mu in (1e-9, 1e-10)]
        assert d_scan[0] < d_scan[1]


class TestNaiveVsMultiUserRegime:
    def test_k20_naive_tracks_first_strategy_at_large_n(self, ecc):
        # realistic K=20 operating point: the repeated-pairwise protocol sits
        # near the many-detector bound and above the single-detector bound
        g = replace(
            ideal_gain_set(20),
            g_e_first=0.03,
            g_d_first_min=0.90 * 4 * 19 / 20,
            g_e_last=16.0,
            g_d_last_max=16.0 - 0.80 * 4 * 19 / 20,
        )
        for n in (1e14, 1e15):
            params = b.ProtocolParams(
                k=20, n_bits=n, ecc=ecc, p_error=1e-5, eta=0.5, p_dark=1e-9
            )
            naive = b.naive_protocol(params, v=0.98)
            first = b.bound_first_detectors(params, g)
            last = b.bound_last_detector(params, g)
            assert last.dominant_dark_term  # large-N regime for the comparison
            assert naive.q_qubits > last.q_qubits
            assert abs(math.log10(naive.q_qubits) - math.log10(first.q_qubits)) < 0.2


class TestQubitSlackEquality:
    def test_log_scale_equality_at_minimum(self):
        for alpha2, m in ((26.166, 4_170_000), (500.0, 10**9)):
            _, dcap = b.qubit_cost(alpha2, m)
            a = alpha2
            lhs = math.log(2) - a + (a + dcap) * (1 + math.log(a) - math.log(a + dcap))
            target = 2 * math.log(1e-6 / 2)
            assert abs(lhs - target) <= 1e-6 * abs(target)


class TestTwoUserIndependentReplication:
    @staticmethod
    def scan(params, v):
        """Full independent re-derivation: a linear scan from zero photons
        with scipy quantiles and the exact OR of photon and dark clicks;
        returns the detector-side grid point and its threshold."""
        m, delta, p_dark = params.m_pulses, params.ecc.delta, params.p_dark
        a = 0.0
        while True:
            a += 1.0
            p_e = 1 - math.exp(-2 * (1 - v) * a / m) * (1 - p_dark)
            p_d = 1 - math.exp(-2 * v * a / m) * (1 - p_dark)
            mix = (1 - delta) * p_d + delta * p_e
            r_e = int(st.binom.ppf(1 - 1e-5, m, p_e))
            r_d = int(st.binom.ppf(1e-5, m, mix)) - 1
            if r_d >= r_e:
                return a, r_d
            assert a < 1e5, "scan runaway"

    def test_matches_scipy_linear_scan(self, ecc):
        # the search must land on the scan's grid point and threshold
        params = params_for(2, 5000, ecc, p_dark=1e-7)
        res = b.algorithm_two_user(params, 0.97)
        a, r_d = self.scan(params, 0.97)
        assert res.alpha2 == pytest.approx(a, abs=1e-9)
        assert res.threshold_r == r_d

    def test_dark_clicks_or_ed_not_added(self, ecc):
        # Adding p_dark to the photon click probability counts the both-click
        # event twice; at this dark-count level that search stopped at
        # alpha2 = 498, the exact OR stops at 500.
        params = params_for(2, 2e4, ecc, p_dark=1e-3, eta=0.5)
        res = b.algorithm_two_user(params, 0.97)
        a, r_d = self.scan(params, 0.97)
        assert res.alpha2 == a / 0.5 == 500.0
        assert res.threshold_r == r_d
