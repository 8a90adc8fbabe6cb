"""Bound soundness at random operating points: every bound that
``plan_check`` accepts must keep the exact error of both scenarios at or
below its p_error.

The exact error is the tail of the statistic's law: a sum of independent
binomials, one per (detector, slot type) the strategy reads, whose pmfs come
from scipy and are convolved here, apart from the click oracle.
"""

import math

import numpy as np
import pytest
import scipy.signal as sg
import scipy.stats as st

from multiqf import bounds as b
from multiqf import circuits as qc
from multiqf import gains as gn
from multiqf import mcsim as mc
from multiqf.errors import FeasibilityError, ValidityError
from multiqf.noise import NoiseModel, realize_circuit

#: Operating points drawn, and the seed of the draw.
POINTS = 160
SEED = 22
DESIGNS = {"tree": qc.optimal_tree_layout, "extendable": qc.extendable_layout}


def operating_points():
    """K from 2 to 60, M log-uniform from 1e5 to 1e10, p_error 1e-3 or 1e-5,
    p_dark log-uniform from 1e-11 to 1e-6, sigma 0 or 0.01, either design."""
    rng = np.random.default_rng(SEED)
    for _ in range(POINTS):
        yield {
            "k": int(rng.integers(2, 61)),
            "m_pulses": int(10.0 ** rng.uniform(5.0, 10.0)),
            "p_error": float(rng.choice([1e-3, 1e-5])),
            "p_dark": float(10.0 ** rng.uniform(-11.0, -6.0)),
            "sigma": float(rng.choice([0.0, 0.01])),
            "design": str(rng.choice(sorted(DESIGNS))),
        }


@pytest.fixture(scope="module")
def planned():
    """Strategy -> [(operating point, BoundCheck)] of every accepted bound."""
    ecc = b.ECCParams.from_delta(0.78)
    out = {b.STRATEGY_FIRST: [], b.STRATEGY_LAST: []}
    for i, point in enumerate(operating_points()):
        k, sigma = point["k"], point["sigma"]
        model = NoiseModel(sigma_t=sigma, sigma_p=sigma, bs_loss_db=-0.2, seed=i)
        transfer = realize_circuit(DESIGNS[point["design"]](k), model, index=0)
        params = b.ProtocolParams(
            k=k, n_bits=point["m_pulses"] / ecc.c, ecc=ecc, p_error=point["p_error"],
            eta=0.5, p_dark=point["p_dark"],
        )
        gains = gn.gain_set(transfer)
        for strategy, checks in out.items():
            try:
                checks.append((point, mc.plan_check(strategy, params, gains, transfer,
                                                    trials=100)))
            except (ValidityError, FeasibilityError):
                pass
    return out


def components(config):
    """``[(slots, p)]``: the binomials the statistic of ``config`` sums, with
    the slots of equal click probabilities added together."""
    params = config.params
    k, m = params.k, params.m_pulses
    t = np.asarray(config.transfer, dtype=complex)
    mu_in = config.alpha2 / m

    def click(mu):
        return 1.0 - np.exp(-params.eta * mu) * (1.0 - params.p_dark)

    equal = click(np.abs(t.sum(axis=1)) ** 2 * mu_in)
    slot_types = [(m, equal)]
    if config.scenario == mc.WORST_DIFFERENT:
        x = (1.0 - params.ecc.delta) * m
        m_diff = round(x) if abs(x - round(x)) <= 1e-9 * m else math.floor(x)
        pattern = np.ones(k)
        pattern[config.worst_pattern] = -1.0
        slot_types = [(m - m_diff, equal),
                      (m_diff, click(np.abs(t @ pattern) ** 2 * mu_in))]
    first = config.strategy == b.STRATEGY_FIRST
    return merged([(n, float(p[det])) for det in range(k)
                   if (det != config.last_label - 1) == first for n, p in slot_types])


def merged(reads):
    """``[(slots, p)]``: the binomials ``reads`` with the slots of equal p
    added together, in order of first read."""
    slots = {}
    for n, p in reads:
        slots[p] = slots.get(p, 0) + n
    return [(n, p) for p, n in slots.items()]


def law(parts, direct=False):
    """``(lo, pmf)`` of a sum of independent binomials ``[(n, p)]``: each
    pmf over its mean +- (12 sd + 12), whose outside mass is below 1e-26,
    or a point mass at p = 0 or 1.  Pmfs of more than 64 terms are convolved
    by FFT, unless ``direct``: ``np.convolve`` keeps every term's relative
    accuracy."""
    lo, pmf = 0, np.ones(1)
    for n, p in parts:
        if p in (0.0, 1.0):
            first = last = n if p == 1.0 else 0
        else:
            width = 12.0 * math.sqrt(n * p * (1.0 - p)) + 12.0
            first, last = max(0, math.floor(n * p - width)), min(n, math.ceil(n * p + width))
        part = st.binom.pmf(np.arange(first, last + 1), n, p)
        lo += first
        fft = not direct and min(pmf.size, part.size) > 64
        pmf = sg.fftconvolve(pmf, part) if fft else np.convolve(pmf, part)
    return lo, pmf


def exact_error(config):
    """The probability that the strategy's decision disagrees with the
    scenario: first-K-1 says "different" above the threshold, last-only at
    or below it."""
    lo, pmf = law(components(config))
    cut = min(max(0, math.floor(config.threshold_r) + 1 - lo), pmf.size)
    first = config.strategy == b.STRATEGY_FIRST
    errs_above = first != (config.scenario == mc.WORST_DIFFERENT)
    return float(pmf[cut:].sum() if errs_above else pmf[:cut].sum())


def unsound(checks):
    """(K, design, scenario, exact error / p_error) of every scenario whose
    exact error exceeds p_error * (1 + 1e-9)."""
    return [
        (point["k"], point["design"], config.scenario, err / check.p_error)
        for point, check in checks
        for config, _ in check.jobs
        if (err := exact_error(config)) > check.p_error * (1.0 + 1e-9)
    ]


def test_the_sample_spans_the_ranges(planned):
    accepted = planned[b.STRATEGY_FIRST]
    assert len(accepted) >= 150
    for field in ("p_error", "sigma", "design"):
        assert len({point[field] for point, _ in accepted}) == 2, field
    # item 7's failing region: last-only at K >= 5 with K alpha2 / M near 0.01 to 0.09
    loads = [c.bound.photon_load(p["k"]) for p, c in planned[b.STRATEGY_LAST] if p["k"] >= 5]
    assert min(loads) < 0.01 and max(loads) > 0.05


def test_the_exact_law_matches_a_single_binomial():
    # one component: the law is scipy's pmf over the window, its mass 1
    lo, pmf = law([(10**6, 3e-3)])
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
    ks = np.arange(lo, lo + pmf.size)
    assert np.allclose(pmf, st.binom.pmf(ks, 10**6, 3e-3), rtol=0, atol=1e-18)
    # two components of one p: the law of their summed slots
    lo2, pmf2 = law([(4 * 10**5, 3e-3), (6 * 10**5, 3e-3)])
    want = st.binom.pmf(np.arange(lo2, lo2 + pmf2.size), 10**6, 3e-3)
    assert np.abs(pmf2 - want).max() < 1e-15


def test_first_k_minus_1_bounds_are_sound(planned):
    assert unsound(planned[b.STRATEGY_FIRST]) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_last_only_bounds_are_sound(planned):
    assert unsound(planned[b.STRATEGY_LAST]) == []
