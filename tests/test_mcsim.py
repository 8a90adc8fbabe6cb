import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as st
import test_soundness as soundness

from multiqf import bounds as b
from multiqf import circuits as qc
from multiqf import gains as gn
from multiqf import mcsim as mc
from multiqf.errors import ParameterError, ValidityError
from multiqf.noise import NoiseModel, realize_circuit


def tree_matrix(k):
    return qc.compose_layout(qc.optimal_tree_layout(k))


def differing_slots(delta, m):
    """floor((1 - delta) * m), snapped to the nearest integer within 1e-9 * m."""
    x = (1.0 - delta) * m
    return round(x) if abs(x - round(x)) <= 1e-9 * m else math.floor(x)


def lanes(words):
    """The 16-bit lanes of ``words`` in trial order: lane j of word w, bits
    16j to 16j + 15 by arithmetic, is trial 4w + j."""
    shifts = np.arange(0, 64, 16, dtype=np.uint64)
    return ((np.asarray(words, dtype=np.uint64)[:, None] >> shifts) & np.uint64(0xFFFF)).ravel()


def words_of(lane_values):
    """The words whose lanes are ``lane_values``, in trial order, padded
    with zero lanes."""
    padded = list(lane_values) + [0] * (-len(lane_values) % 4)
    return [sum(int(v) << (16 * j) for j, v in enumerate(padded[i:i + 4]))
            for i in range(0, len(padded), 4)]


def table_sums(reads):
    """``(lo, sums, cells)``: the guide table of the law of the sum of
    ``reads`` [(n, p)] has 16 cells per count of its window, a power of two,
    at most 2**16, and its sums are ``cdf * cells``, where the cdf is the
    law's cumulative sums normalized to end at 1."""
    lo, pmf = mc._law(reads)
    cdf = np.cumsum(pmf)
    cells = min(2**16, 1 << math.ceil(math.log2(16 * cdf.size)))
    return lo, cdf / cdf[-1] * cells, cells


def contract_counts(rng, reads, trials):
    """Counts of the sum of ``reads`` [(n, p)] for ``trials`` trials as the
    contract draws them through one table, and the stream outputs they
    take.  Block by block: one word per four trials, each lane's top bits a
    cell, then one uniform u per trial in a cell that holds a sum, in trial
    order; the count is the smallest k with sums[k] >= cell + u."""
    lo, sums, cells = table_sums(reads)
    held = np.unique(np.floor(sums))
    counts, taken = [], 0
    for start in range(0, trials, mc._TRIAL_BLOCK):
        size = min(mc._TRIAL_BLOCK, trials - start)
        words = rng.bit_generator.random_raw(-(-size // 4))
        cell = lanes(words)[:size] * np.uint64(cells) >> np.uint64(16)
        mixed = np.isin(cell, held)
        x = cell + 0.5  # any point of a cell that holds no sum
        x[mixed] = cell[mixed] + rng.random(np.count_nonzero(mixed))
        counts.append(lo + np.searchsorted(sums, x))
        taken += words.size + int(np.count_nonzero(mixed))
    return np.concatenate(counts), taken


def reads_of(config):
    """``(n, p)`` of every (detector, slot type) the statistic of ``config``
    reads, in detector order: first-K-1 reads the detectors other than the
    photon-keeping one, last-only that one alone."""
    params = config.params
    k = params.k
    m = params.m_pulses
    mu_in = config.alpha2 / m
    transfer = np.asarray(config.transfer, dtype=complex)
    last_label = config.last_label or gn.find_last_label(transfer)

    def photon_numbers(pattern):
        if mu_in == 0.0:
            return np.zeros(k)
        return gn.output_photon_numbers(transfer, pattern, mu_in)

    first = config.strategy == b.STRATEGY_FIRST
    mu_equal = photon_numbers(None)
    if config.scenario == mc.WORST_DIFFERENT:
        flip = config.worst_pattern
        if flip is None:
            gains = gn.gain_set(transfer, last_label=last_label)
            flip = gains.worst_pattern_first if first else gains.worst_pattern_last
        mu_diff = photon_numbers([-1 if i == flip else 1 for i in range(k)])
        m_diff = differing_slots(params.ecc.delta, m)
    else:
        mu_diff = mu_equal
        m_diff = 0
    m_equal = m - m_diff

    def click_prob(mu):
        p = -np.expm1(-params.eta * mu)
        return 1.0 - (1.0 - p) * (1.0 - params.p_dark)

    slot_types = [(m_equal, click_prob(mu_equal))]
    if m_diff:
        slot_types.append((m_diff, click_prob(mu_diff)))
    return [(n, float(p[det])) for det in range(k) if (det == last_label - 1) != first
            for n, p in slot_types]


def grouped(reads):
    """``(groups, wide)``: the reads of one p merged into one binomial of
    their summed slots, in order of first read; consecutive merged ones
    whose window widths sum to under ``_GROUP_COUNTS`` form a group, a
    binomial whose own window is wider has a group of its own, and one
    wider than ``_TABLE_COUNTS`` is left to ``wide``."""
    groups, wide, span = [], [], None
    for n, p in soundness.merged(reads):
        lo, hi = mc._window(n, p)
        if hi - lo >= mc._TABLE_COUNTS:
            wide.append((n, p))
        elif span is not None and span + hi - lo < mc._GROUP_COUNTS:
            groups[-1].append((n, p))
            span += hi - lo
        else:
            groups.append([(n, p)])
            span = hi - lo
    return groups, wide


def reference_statistic(config, seed=0):
    """The statistic ``(trials,)`` drawn as the contract of ``simulate``
    says, one table per group and then the wide binomials, and the stream
    outputs taken (None if a binomial took ``Generator.binomial``'s
    counts)."""
    groups, wide = grouped(reads_of(config))
    rng = pcg(seed)
    stat = np.zeros(config.trials, dtype=np.int64)
    taken = 0
    for group in groups:
        counts, outputs = contract_counts(rng, group, config.trials)
        stat += counts
        taken += outputs
    for n, p in wide:
        stat += rng.binomial(n, p, size=config.trials)
        taken = None
    return stat, taken


def errors_of(config, stat):
    """The trials whose decision on ``stat`` disagrees with the scenario."""
    if config.strategy == b.STRATEGY_FIRST:
        says_different = stat > config.threshold_r
    else:
        says_different = stat <= config.threshold_r
    truly_different = config.scenario == mc.WORST_DIFFERENT
    return int(np.count_nonzero(says_different != truly_different))


def reference_simulate(config, seed=0):
    """``simulate`` by the contract, with every count of the statistic kept."""
    errors = errors_of(config, reference_statistic(config, seed)[0])
    return mc.SimOutcome(
        scenario=config.scenario,
        strategy=config.strategy,
        trials=config.trials,
        errors=errors,
        error_rate=errors / config.trials,
        wilson_upper_95=mc.wilson_upper(errors, config.trials),
    )


def noisy_config(ecc, k, strategy, scenario, trials=2000, last_label=None):
    """A realized tree with dark counts, thresholded at the statistic's
    sample mean in its own scenario, so that about half the trials err."""
    model = NoiseModel(sigma_t=0.02, sigma_p=0.02, bs_loss_db=-0.2, seed=5)
    t = realize_circuit(qc.optimal_tree_layout(k), model, index=0)
    params = make_params(ecc, k, 10**4, 0.05, eta=0.5, p_dark=1e-4)
    return at_mean(mc.SimConfig(
        trials=trials, scenario=scenario, strategy=strategy, params=params,
        transfer=t, alpha2=0.05 * params.m_pulses / k, threshold_r=0.0,
        last_label=last_label,
    ))


def at_mean(cfg):
    """``cfg`` thresholded at the mean of its statistic over a seed-99 sample."""
    return replace(cfg, threshold_r=float(reference_statistic(cfg, seed=99)[0].mean()))


def make_params(ecc, k, m_pulses, p_error, eta=1.0, p_dark=0.0):
    return b.ProtocolParams(
        k=k, n_bits=m_pulses / ecc.c, ecc=ecc, p_error=p_error, eta=eta, p_dark=p_dark
    )


class TestWilson:
    def test_bounds_order(self):
        assert mc.wilson_upper(0, 1000) > 0.0
        assert mc.wilson_upper(10, 1000) >= 10 / 1000
        assert mc.wilson_upper(1000, 1000) == pytest.approx(1.0, abs=1e-9)

    def test_zero_errors_scale(self):
        # ~ z^2 / n for zero observed errors
        up = mc.wilson_upper(0, 5000)
        assert up == pytest.approx(1.6449**2 / (5000 + 1.6449**2), rel=1e-3)

    def test_default_trials(self):
        assert mc.default_trials(1e-2) == 5000
        assert mc.default_trials(1e-5) == 5000
        assert mc.default_trials(0.1) == 500

    @pytest.mark.parametrize("errors, trials", [
        pytest.param(-1, 1000, id="negative-errors"),
        pytest.param(2000, 1000, id="errors-above-trials"),
        pytest.param(float("nan"), 1000, id="nan-errors"),
        pytest.param(True, 1000, id="bool-errors"),
        pytest.param(1, 10.5, id="fractional-trials"),
        pytest.param(0, 0, id="zero-trials"),
    ])
    def test_wilson_rejects(self, errors, trials):
        with pytest.raises(ParameterError):
            mc.wilson_upper(errors, trials)

    @pytest.mark.parametrize("p_error", [
        pytest.param(0, id="zero"),
        pytest.param(float("nan"), id="nan"),
        pytest.param(-1, id="negative"),
        pytest.param(1.0, id="one"),
        pytest.param(True, id="bool"),
        pytest.param("0.1", id="string"),
    ])
    def test_default_trials_rejects(self, p_error):
        with pytest.raises(ParameterError, match="p_error must be a real number in"):
            mc.default_trials(p_error)

    def test_numpy_integers_accepted(self):
        assert mc.wilson_upper(np.int64(10), np.int32(1000)) == mc.wilson_upper(10, 1000)
        assert mc.default_trials(np.float64(0.1)) == 500


class TestSimulate:
    def test_matches_exact_no_click_product(self, ecc):
        # ideal circuit, no dark counts: the worst-different error rate is
        # exactly exp(-4 (1-delta) (K-1) alpha2 / K). Each K is held to the
        # binomial band of two-sided tail 2.5e-7 (family-wise level 1e-6 over
        # the four), which 2,000,000 trials make +-8e-4 around that rate.
        trials = 2_000_000
        for k, seed in ((2, 2), (3, 3), (4, 4), (7, 7)):
            alpha2 = b.ideal_alpha2(k, ecc, 0.05)
            params = make_params(ecc, k, 10**4, 0.05)
            cfg = mc.SimConfig(
                trials=trials, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
                params=params, transfer=tree_matrix(k), alpha2=alpha2, threshold_r=0.0,
            )
            out = mc.simulate(cfg, seed=seed)
            exact = math.exp(-4 * (1 - ecc.delta) * (k - 1) * alpha2 / k)
            low, high = st.binom.interval(1 - 1e-6 / 4, trials, exact)
            assert low <= out.errors <= high, (k, out.error_rate, exact)

    def test_all_equal_ideal_never_errs(self, ecc):
        params = make_params(ecc, 4, 10**4, 0.05)
        cfg = mc.SimConfig(
            trials=3000, scenario=mc.ALL_EQUAL, strategy=b.STRATEGY_FIRST,
            params=params, transfer=tree_matrix(4), alpha2=5.0, threshold_r=0.0,
        )
        assert mc.simulate(cfg, seed=0).error_rate == 0.0

    def test_no_light_last_only_always_errs(self, ecc):
        params = make_params(ecc, 4, 10**4, 0.05)
        cfg = mc.SimConfig(
            trials=200, scenario=mc.ALL_EQUAL, strategy=b.STRATEGY_LAST,
            params=params, transfer=tree_matrix(4), alpha2=0.0, threshold_r=0.0,
        )
        assert mc.simulate(cfg, seed=0).error_rate == 1.0

    def test_samples_outside_photon_regime(self, ecc):
        # K * alpha2 / M = 2: the regime is checked where a bound is planned
        params = make_params(ecc, 4, 100, 0.05)
        cfg = mc.SimConfig(
            trials=100, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
            params=params, transfer=tree_matrix(4), alpha2=50.0, threshold_r=0.0,
        )
        assert mc.simulate(cfg, seed=0) == reference_simulate(cfg, seed=0)

    def test_determinism(self, ecc):
        # thresholded at the sample mean, so about half the trials err and the
        # error count, the only sampled field of the outcome, moves with the seed
        cfg = noisy_config(ecc, 3, b.STRATEGY_LAST, mc.WORST_DIFFERENT, trials=500)
        assert mc.simulate(cfg, seed=7) == mc.simulate(cfg, seed=7)
        assert mc.simulate(cfg, seed=7) != mc.simulate(cfg, seed=8)

    def test_poisson_thinning_invariance(self, ecc):
        t = tree_matrix(3)
        cfg1 = mc.SimConfig(
            trials=400, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
            params=make_params(ecc, 3, 10**4, 0.05, eta=0.4, p_dark=1e-6),
            transfer=t, alpha2=40.0, threshold_r=10.0,
        )
        cfg2 = mc.SimConfig(
            trials=400, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
            params=make_params(ecc, 3, 10**4, 0.05, eta=0.8, p_dark=1e-6),
            transfer=t, alpha2=20.0, threshold_r=10.0,
        )
        assert mc.simulate(cfg1, seed=3) == mc.simulate(cfg2, seed=3)

    def test_rejects_negative_seed(self, ecc):
        cfg = mc.SimConfig(
            trials=100, scenario=mc.ALL_EQUAL, strategy=b.STRATEGY_FIRST,
            params=make_params(ecc, 3, 100, 0.05), transfer=tree_matrix(3),
            alpha2=1.0, threshold_r=0.0,
        )
        for seed in (-1, 0.5):
            with pytest.raises(ParameterError, match="seed"):
                mc.simulate(cfg, seed=seed)

    def test_rejects_bad_config(self, ecc):
        params = make_params(ecc, 3, 100, 0.05)
        with pytest.raises(ParameterError):
            mc.SimConfig(
                trials=0, scenario=mc.ALL_EQUAL, strategy=b.STRATEGY_FIRST,
                params=params, transfer=tree_matrix(3), alpha2=1.0, threshold_r=0.0,
            )
        for trials in (2000.5, True):
            with pytest.raises(ParameterError, match="trials must be a nonnegative integer"):
                mc.SimConfig(
                    trials=trials, scenario=mc.ALL_EQUAL, strategy=b.STRATEGY_FIRST,
                    params=params, transfer=tree_matrix(3), alpha2=1.0, threshold_r=0.0,
                )
        # the int64 statistic of more than 2**27 trials exceeds the 1 GiB
        # array limit; refused before any draw
        with pytest.raises(ParameterError, match="134,217,729 trials need .* above the limit"):
            mc.SimConfig(
                trials=2**27 + 1, scenario=mc.ALL_EQUAL, strategy=b.STRATEGY_FIRST,
                params=params, transfer=tree_matrix(3), alpha2=1.0, threshold_r=0.0,
            )
        with pytest.raises(ParameterError):
            mc.SimConfig(
                trials=10, scenario="sideways", strategy=b.STRATEGY_FIRST,
                params=params, transfer=tree_matrix(3), alpha2=1.0, threshold_r=0.0,
            )
        # 0 is not "derive it", and a label above K or between two would
        # count every detector
        for field, values in (("last_label", (0, 4, -1, 1.5)), ("worst_pattern", (-1, 3, 0.5))):
            for value in values:
                with pytest.raises(ParameterError, match=f"{field} must be an integer in"):
                    mc.SimConfig(
                        trials=10, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
                        params=params, transfer=tree_matrix(3), alpha2=1.0, threshold_r=0.0,
                        **{field: value},
                    )
        # a NaN threshold would otherwise read as a pass: no count exceeds it
        for field in ("alpha2", "threshold_r"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ParameterError, match="finite"):
                    mc.SimConfig(
                        trials=10, scenario=mc.ALL_EQUAL, strategy=b.STRATEGY_FIRST,
                        params=params, transfer=tree_matrix(3),
                        **{"alpha2": 1.0, "threshold_r": 0.0, field: value},
                    )


@pytest.mark.parametrize("field, value, match", [
    pytest.param("alpha2", True, "alpha2 must be a real number", id="alpha2-bool"),
    pytest.param("threshold_r", True, "threshold_r must be a real number", id="threshold_r-bool"),
    pytest.param("alpha2", "5", "alpha2 must be a real number", id="alpha2-str"),
    pytest.param("threshold_r", "3", "threshold_r must be a real number", id="threshold_r-str"),
    pytest.param("last_label", True, "last_label must be an integer in", id="last_label-bool"),
    pytest.param("worst_pattern", False, "worst_pattern must be an integer in",
                 id="worst_pattern-bool"),
])
def test_config_rejects_non_numbers(ecc, field, value, match):
    # a bool would be read as 1 or 0 and a string fail at its first use
    with pytest.raises(ParameterError, match=match):
        mc.SimConfig(
            trials=10, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
            params=make_params(ecc, 3, 100, 0.05), transfer=tree_matrix(3),
            **{"alpha2": 1.0, "threshold_r": 0.0, field: value},
        )


def test_config_takes_numpy_numbers_and_keeps_trials_an_int(ecc):
    cfg = mc.SimConfig(
        trials=np.int64(10), scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
        params=make_params(ecc, 3, 100, 0.05), transfer=tree_matrix(3),
        alpha2=np.float64(1.0), threshold_r=np.int64(0), last_label=np.int64(3),
        worst_pattern=np.int32(0),
    )
    assert type(cfg.trials) is int


@pytest.mark.parametrize("seed", [0, 17, 2**40])
@pytest.mark.parametrize("k", [2, 3, 7, 16])
@pytest.mark.parametrize("scenario", mc.SCENARIOS)
@pytest.mark.parametrize("strategy", [b.STRATEGY_FIRST, b.STRATEGY_LAST])
def test_streamed_counts_match_materialized(ecc, strategy, scenario, k, seed):
    cfg = noisy_config(ecc, k, strategy, scenario)
    out = mc.simulate(cfg, seed=seed)
    assert out == reference_simulate(cfg, seed=seed)
    assert 0 < out.errors < cfg.trials


@pytest.mark.parametrize("last_label", [1, 3, 5])
@pytest.mark.parametrize("scenario", mc.SCENARIOS)
@pytest.mark.parametrize("strategy", [b.STRATEGY_FIRST, b.STRATEGY_LAST])
def test_draws_stop_after_the_last_detector_read(ecc, strategy, scenario, last_label):
    # the photon-losing detector first, in the middle and at the end: the
    # binomials the statistic reads, merged and grouped, draw as the
    # reference does wherever the detector it skips sits (the next test
    # checks that the stream ends after the groups' tables and the wide
    # binomials)
    cfg = noisy_config(ecc, 5, strategy, scenario, last_label=last_label)
    out = mc.simulate(cfg, seed=3)
    assert out == reference_simulate(cfg, seed=3)
    assert 0 < out.errors < cfg.trials


@pytest.mark.parametrize("scenario", mc.SCENARIOS)
@pytest.mark.parametrize("strategy", [b.STRATEGY_FIRST, b.STRATEGY_LAST])
def test_stream_ends_after_the_words_and_uniforms_drawn(ecc, monkeypatch, strategy, scenario):
    # the photon-losing detector in the middle of five, a block and a tail:
    # the reads' windows fit one table, so simulate leaves its stream one
    # output past each word of that table and each uniform of a trial in a
    # cell that holds a sum, and no further
    cfg = noisy_config(ecc, 5, strategy, scenario, trials=mc._TRIAL_BLOCK + 5, last_label=3)
    made = []
    real = np.random.Generator

    def recording(bit_generator):
        made.append(real(bit_generator))
        return made[-1]

    monkeypatch.setattr(np.random, "Generator", recording)
    mc.simulate(cfg, seed=6)
    monkeypatch.undo()
    (rng,) = made
    _, taken = reference_statistic(cfg, seed=6)
    assert taken > -(-cfg.trials // 4)  # and some uniforms
    expect = pcg(6)
    expect.bit_generator.advance(taken)
    assert rng.bit_generator.state == expect.bit_generator.state


@pytest.mark.parametrize("trials", [
    1, mc._TRIAL_BLOCK - 1, mc._TRIAL_BLOCK, mc._TRIAL_BLOCK + 1,
    2 * mc._TRIAL_BLOCK - 1, 2 * mc._TRIAL_BLOCK, 2 * mc._TRIAL_BLOCK + 1,
    4 * mc._TRIAL_BLOCK + 3,
])
@pytest.mark.parametrize("scenario", mc.SCENARIOS)
@pytest.mark.parametrize("strategy", [b.STRATEGY_FIRST, b.STRATEGY_LAST])
def test_trial_blocks_match_materialized(ecc, strategy, scenario, trials):
    # one trial, either side of one and of two blocks, four blocks and a tail; the
    # photon-losing detector is the second of four, so each strategy skips
    # the blocks of a detector its statistic does not read
    cfg = noisy_config(ecc, 4, strategy, scenario, trials=trials, last_label=2)
    assert mc.simulate(cfg, seed=11) == reference_simulate(cfg, seed=11)


@pytest.mark.parametrize("m_pulses", [2**29 - 1, 2**29, 2**30])
@pytest.mark.parametrize("scenario", mc.SCENARIOS)
@pytest.mark.parametrize("strategy", [b.STRATEGY_FIRST, b.STRATEGY_LAST])
def test_statistic_exact_across_its_dtypes(ecc, strategy, scenario, m_pulses):
    # M * K just below 2**31 (an int32 statistic), at it and at 2**32 (int64);
    # every detector clicks in 90% of the slots, so first-K-1 sums about
    # 2.7 M clicks, beyond the int32 range at M = 2**30
    k = 4
    params = make_params(ecc, k, m_pulses, 0.05)
    assert params.m_pulses == m_pulses
    cfg = at_mean(mc.SimConfig(
        trials=mc._TRIAL_BLOCK + 1, scenario=scenario, strategy=strategy, params=params,
        transfer=np.eye(k), alpha2=math.log(10.0) * m_pulses, threshold_r=0.0,
        last_label=k, worst_pattern=0,
    ))
    out = mc.simulate(cfg, seed=5)
    assert out == reference_simulate(cfg, seed=5)
    assert 0 < out.errors < cfg.trials
    if strategy == b.STRATEGY_FIRST and m_pulses == 2**30:
        assert cfg.threshold_r > 2**31


@pytest.mark.parametrize("n, p", [(7, 0.3), (10**4, 0.02), (10**4, 0.97), (2**30, 0.9)])
def test_consecutive_binomial_calls_continue_one_stream(n, p):
    # what the trial blocks of a window wider than _TABLE_COUNTS rely on:
    # two calls draw what one call of the summed size draws, and leave the
    # stream at the same position
    def rng():
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((3, 0))))

    split, whole = rng(), rng()
    drawn = np.concatenate([split.binomial(n, p, size=1000), split.binomial(n, p, size=337)])
    assert np.array_equal(drawn, whole.binomial(n, p, size=1337))
    assert split.random() == whole.random()


def pcg(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))


class Scripted:
    """A generator whose ``bit_generator.random_raw`` hands out ``words``
    and whose ``random`` hands out ``uniforms``, each in order."""

    def __init__(self, words, uniforms=()):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.words_used = self.used = 0

    def random_raw(self, size):
        assert self.words_used + size <= self.words.size
        self.words_used += size
        return self.words[self.words_used - size:self.words_used].copy()

    def random(self, size):
        assert self.used + size <= self.uniforms.size
        self.used += size
        return self.uniforms[self.used - size:self.used].copy()


def drawn_blocks(rng, n, p, trials, table=None):
    """The counts ``simulate`` adds for a group of one binomial it reads."""
    stat = np.zeros(trials, dtype=np.int64)
    (table or mc._CountTable(*mc._law([(n, p)]), np.int64)).add_into(rng, stat)
    return stat


def smallest_count(sums, lo, x):
    """lo plus the smallest k with sums[k] >= x, walked one count at a time."""
    k = 0
    while sums[k] < x:
        k += 1
    return lo + k


def lane_at(x, cells, low=0):
    """``(lane, u)``: the lane whose top bits pick cell floor(x) of a table
    of ``cells`` cells, its low bits ``low``, and the in-cell uniform u, so
    that cell + u == x."""
    cell = math.floor(x)
    u = x - cell
    assert cell + u == x
    return (cell << (16 - cells.bit_length() + 1)) | low, u


#: (n, p): n * p near 0, 1 and 5 and exactly 30, a window clipped to [0, n]
#: (small n), p near 0.5, a mean above 30, p above 0.5 and two point masses.
BINOMIAL_GRID = [
    (10**6, 1e-9), (10**4, 9.9e-5), (10**4, 1e-4), (10**5, 4.9e-5), (500, 0.01),
    (60, 0.5), (120, 0.25), (3000, 0.01), (3, 0.3), (10, 0.45), (41, 0.4999999),
    (1000, 0.1), (10, 0.7), (0, 0.3), (10, 0.0),
]
#: Where numpy's ``Generator.binomial`` samples by inversion.
INVERSION_GRID = [(n, p) for n, p in BINOMIAL_GRID if n and 0 < p <= 0.5 and n * p <= 30.0]


def pooled_columns(values, minimum=50):
    """Column edges over the sorted distinct ``values`` that leave at least
    ``minimum`` pooled observations in each column."""
    values, seen = np.unique(values, return_counts=True)
    edges, held = [values[0]], 0
    for v, c in zip(values, seen):
        if held >= minimum:
            edges.append(v)
            held = 0
        held += c
    if held < minimum and len(edges) > 1:
        edges.pop()
    return np.array(edges + [values[-1] + 1])


class TestBinomialBlocks:
    @pytest.mark.parametrize("seed", [0, 1, 2**40])
    @pytest.mark.parametrize("n, p", BINOMIAL_GRID)
    def test_bit_equal_to_numpy(self, n, p, seed):
        # two blocks and a tail: the counts are the contract's, read off
        # numpy's own words and uniforms, and the stream ends where its does
        trials = 2 * mc._TRIAL_BLOCK + 5
        ours, theirs = pcg(seed), pcg(seed)
        expect, _ = contract_counts(theirs, [(n, p)], trials)
        assert np.array_equal(drawn_blocks(ours, n, p, trials), expect)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("n, p", INVERSION_GRID)
    def test_transcription_is_numpys_sampler(self, n, p):
        # where numpy samples by inversion, 200,000 table counts and 200,000
        # of numpy's own follow one law: a chi-square test of homogeneity
        # over the counts, pooled into columns of at least 50 observations
        draws = 200_000
        ours = drawn_blocks(pcg(4), n, p, draws)
        numpys = pcg(5).binomial(n, p, size=draws)
        edges = pooled_columns(np.concatenate([ours, numpys]))
        table = [np.histogram(c, bins=edges)[0] for c in (ours, numpys)]
        assert len(edges) >= 3
        assert st.chi2_contingency(table).pvalue > 1e-3

    def test_lanes_are_trials_in_word_order(self):
        # lane j of word w is bits 16j to 16j + 15, by arithmetic, and it is
        # trial 4w + j; seven trials read two words, and the eighth lane,
        # in a cell that holds a sum, is never read
        n, p = 60, 0.5
        lo, sums, cells = table_sums([(n, p)])
        held = set(np.floor(sums).astype(int).tolist())
        pure = [c for c in range(cells) if c not in held]
        picks = [pure[i] for i in (0, 40, 150, 300, 500, 700, 900)]
        values = [lane_at(c + 0.5, cells, low=j)[0] for j, c in enumerate(picks)]
        values.append(lane_at(min(held) + 0.5, cells)[0])
        words = words_of(values)
        assert words[0] == sum(v << (16 * j) for j, v in enumerate(values[:4]))
        rng = Scripted(words)
        drawn = drawn_blocks(rng, n, p, 7)
        assert drawn.tolist() == [smallest_count(sums, lo, c + 0.5) for c in picks]
        assert len(set(drawn.tolist())) == 7
        assert (rng.words_used, rng.used) == (2, 0)

    @pytest.mark.parametrize("n, p, cells", [
        (10, 0.0, 16), (10, 1.0, 16), (1, 0.3, 32), (60, 0.5, 1024), (10**6, 0.01, 2**16),
    ])
    def test_lane_shift_picks_the_cell(self, n, p, cells):
        # every lane value once, four blocks of trials: the top log2(cells)
        # bits pick the cell, down to a 16-cell point mass (a shift of 12)
        # and up to 2**16 cells (no shift); a lane in a cell that holds a
        # sum takes the next hand-placed uniform
        table = mc._CountTable(*mc._law([(n, p)]), np.int64)
        lo, sums, want_cells = table_sums([(n, p)])
        assert want_cells == cells == table.guide.size
        lane = np.arange(2**16)
        cell = lane >> (16 - cells.bit_length() + 1)
        mixed = np.isin(cell, np.floor(sums))
        uniforms = (np.arange(np.count_nonzero(mixed)) % 97 + 0.5) / 97
        x = cell + 0.5
        x[mixed] = cell[mixed] + uniforms
        rng = Scripted(words_of(lane.tolist()), uniforms)
        drawn = drawn_blocks(rng, n, p, lane.size, table)
        assert np.array_equal(drawn, lo + np.searchsorted(sums, x))
        assert (rng.words_used, rng.used) == (2**14, uniforms.size)
        if cells == 16:
            assert set(drawn.tolist()) == {lo} and uniforms.size == 0

    @pytest.mark.parametrize("n, p", [
        (3, 0.3), (1000, 0.001), (10, 0.45), (60, 0.5), (10**4, 1e-4), (120, 0.25), (3000, 0.01),
    ])
    def test_rare_uniforms_follow_numpys_loop(self, n, p):
        # cell + u at every cumulative sum exactly, 1 to 4 and 64 ulps either
        # side, and the ends of the table: each gives the smallest k with
        # sums[k] >= cell + u, as a loop up the sums finds it (numpy's
        # inversion loop walks its own sums so), drawn alone and then all
        # as one block; a point in a cell that holds no sum takes no uniform
        lo, sums, cells = table_sums([(n, p)])
        held = set(np.floor(sums).tolist())
        hand = [0.0, cells - np.spacing(float(cells))]
        for s in sums:
            hand += [s + k * np.spacing(s) for k in (-64, -4, -3, -2, -1, 0, 1, 2, 3, 4, 64)]
        hand = [x for x in hand if 0.0 <= x < cells]
        expect = [smallest_count(sums, lo, x) for x in hand]
        placed = [lane_at(x, cells, low=i % 2) for i, x in enumerate(hand)]
        mixed = [math.floor(x) in held for x in hand]
        assert sum(mixed) > len(hand) // 2
        alone = []
        for (lane, u), m in zip(placed, mixed):
            rng = Scripted(words_of([lane]), [u] if m else [])
            alone.append(int(drawn_blocks(rng, n, p, 1)[0]))
            assert rng.used == m
        assert alone == expect
        rng = Scripted(words_of([lane for lane, _ in placed]),
                       [u for (_, u), m in zip(placed, mixed) if m] + [0.5])
        assert drawn_blocks(rng, n, p, len(hand)).tolist() == expect
        assert rng.used == sum(mixed)

    def test_a_block_far_from_every_sum_skips_the_loop(self):
        # the lanes in cells that hold no cumulative sum resolve through
        # the guide table alone: with every sum at -inf, a searched lane
        # would come out past the window, and no uniform is taken
        n, p = 60, 0.5
        table = mc._CountTable(*mc._law([(n, p)]), np.int64)
        lo, sums, cells = table_sums([(n, p)])
        pure = np.flatnonzero(table.guide >= 0)
        assert pure.size > 0.9 * cells
        placed = [lane_at(c + 0.5, cells, low=i % 64)[0] for i, c in enumerate(pure.tolist())]
        expect = [smallest_count(sums, lo, c + 0.5) for c in pure.tolist()]
        table.sums = np.full_like(table.sums, -np.inf)
        rng = Scripted(words_of(placed))
        assert drawn_blocks(rng, n, p, len(placed), table).tolist() == expect
        assert rng.used == 0


@pytest.mark.parametrize("n", [1, 2, 7, 40, 1000, 10**5, 2**20 + 3, 10**8, 2**30])
def test_binomial_cdf_matches_scipy(n):
    # a one-read table's cdf, within 2**-50 * (sd + 16): the log-ratio walk
    # gathers a few ulps per count away from the mode, where the mass sits
    # one sd out
    for p in (1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
        lo, sums, cells = table_sums([(n, p)])
        cdf = sums / cells
        assert (lo, lo + cdf.size - 1) == mc._window(n, p)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        want = st.binom.cdf(np.arange(lo, lo + cdf.size), n, p)
        tol = 2.0**-50 * (math.sqrt(n * p * (1.0 - p)) + 16.0)
        assert np.max(np.abs(cdf - want)) <= tol, p
        # the mass outside the window is beyond double precision
        outside = st.binom.sf(lo + cdf.size - 1, n, p) + (st.binom.cdf(lo - 1, n, p) if lo else 0)
        assert outside < 1e-26, p


@pytest.mark.parametrize("trials", [1, mc._TRIAL_BLOCK, 2 * mc._TRIAL_BLOCK + 5])
def test_advance_equals_drawing_and_dropping(trials):
    # a table's counts take one 64-bit output per word of four trials and
    # one per trial in a cell that holds a sum, so advancing by that many
    # leaves the stream where drawing does
    skipped, drawn = pcg(9), pcg(9)
    _, taken = contract_counts(pcg(9), [(10**5, 1e-4)], trials)
    assert taken >= -(-trials // 4)
    skipped.bit_generator.advance(taken)
    drawn_blocks(drawn, 10**5, 1e-4, trials)
    assert skipped.bit_generator.state == drawn.bit_generator.state


@pytest.mark.parametrize("n, p", [
    (10**4, 1e-6), (10**5, 3e-6), (1000, 0.003), (10**4, 0.003), (10**5, 0.003),
    (10**6, 0.01), (10**4, 0.97),
])
def test_counts_fit_the_binomial_law(n, p):
    # n * p from 0.01 to 1e4, and p above 0.5: 200,000 counts against
    # scipy's pmf, in bins of at least 50 expected counts with the tails
    # merged into the end bins
    draws = 200_000
    counts = drawn_blocks(pcg(13), n, p, draws)
    ks = np.arange(st.binom.ppf(1e-12, n, p), st.binom.isf(1e-12, n, p) + 1)
    expected = st.binom.pmf(ks, n, p) * draws
    expected[0] += st.binom.cdf(ks[0] - 1, n, p) * draws
    expected[-1] += st.binom.sf(ks[-1], n, p) * draws
    observed = np.bincount(np.clip(counts, ks[0], ks[-1]).astype(np.int64) - int(ks[0]),
                           minlength=ks.size)
    # merge each bin below 50 expected counts into its neighbour toward the mode
    edges = [0]
    for i in range(ks.size):
        if expected[edges[-1]:i + 1].sum() >= 50.0 and i + 1 < ks.size:
            edges.append(i + 1)
    if expected[edges[-1]:].sum() < 50.0 and len(edges) > 1:
        edges.pop()
    obs = np.add.reduceat(observed, edges)
    exp = np.add.reduceat(expected, edges)
    assert obs.size >= 2
    assert st.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-3


@pytest.mark.parametrize("delta, m_pulses, m_diff", [
    (0.78, 10**5, 22_000), (0.7, 10**5, 30_000), (0.9, 10**4, 1_000),
    (0.6, 100_001, 40_000), (0.78, 7, 1),
])
def test_differing_slots_are_exact(delta, m_pulses, m_diff):
    # every differing slot of the flipped detector clicks (p = 1) and no
    # equal slot does (p = 0), so first-K-1 counts exactly the differing
    # slots: 22,000 at delta = 0.78 and M = 1e5, where floor((1 - 0.78) * M)
    # gives 21,999
    assert differing_slots(delta, m_pulses) == m_diff
    ecc = b.ECCParams.from_delta(delta)
    params = make_params(ecc, 2, m_pulses, 0.05)
    assert params.m_pulses == m_pulses
    for threshold, errors in ((m_diff - 0.5, 0), (m_diff, 50)):
        cfg = mc.SimConfig(
            trials=50, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
            params=params, transfer=tree_matrix(2), alpha2=100.0 * m_pulses,
            threshold_r=threshold, last_label=1, worst_pattern=1,
        )
        assert mc.simulate(cfg, seed=1).errors == errors


def recorder(monkeypatch, name):
    """The arguments of every call to ``mc.<name>`` from now on."""
    calls = []
    real = getattr(mc, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mc, name, recording)
    return calls


def test_each_table_is_built_once_per_simulation(ecc, monkeypatch):
    # the ideal K = 16 tree with dark counts: the 15 detectors first-K-1
    # reads share one click probability in the equal slots, and the flip's
    # light reaches them at five levels in the differing slots, so 30 reads
    # merge into at most 6 binomials, and one table draws their sum
    k = 16
    params = make_params(ecc, k, 10**4, 0.05, p_dark=1e-4)
    cfg = at_mean(mc.SimConfig(
        trials=2000, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
        params=params, transfer=tree_matrix(k), alpha2=b.ideal_alpha2(k, ecc, 0.05),
        threshold_r=0.0,
    ))
    laws, tables = recorder(monkeypatch, "_law"), recorder(monkeypatch, "_CountTable")
    out = mc.simulate(cfg, seed=4)
    ((merged,),) = laws
    assert len(tables) == 1
    assert len(merged) <= 6 and len({p for _, p in merged}) == len(merged)
    assert sum(n for n, _ in merged) == (k - 1) * params.m_pulses
    assert len(reads_of(cfg)) == 30
    assert out == reference_simulate(cfg, seed=4)


def test_windows_beyond_one_table_split_into_groups(ecc, monkeypatch):
    # a noisy K = 8 tree at M = 3e7: the light of the differing slots and
    # the dark and leaked clicks of the equal slots give binomials whose
    # windows each fit a table but together span more than _GROUP_COUNTS
    # counts, so several tables draw, each over a group of consecutive
    # ones, and a binomial wider than _GROUP_COUNTS has a table of its own
    k = 8
    model = NoiseModel(sigma_t=0.02, sigma_p=0.02, bs_loss_db=-0.2, seed=5)
    t = realize_circuit(qc.optimal_tree_layout(k), model, index=0)
    params = make_params(ecc, k, 3 * 10**7, 0.05, eta=0.5, p_dark=1e-4)
    cfg = at_mean(mc.SimConfig(
        trials=mc._TRIAL_BLOCK + 3, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
        params=params, transfer=t, alpha2=0.05 * params.m_pulses / k, threshold_r=0.0,
    ))
    groups, wide = grouped(reads_of(cfg))
    widths = [[hi - lo for lo, hi in (mc._window(n, p) for n, p in g)] for g in groups]
    assert not wide and max(map(len, widths)) >= 2
    assert all(sum(w) < mc._GROUP_COUNTS for w in widths if len(w) > 1)
    assert any(mc._GROUP_COUNTS < w[0] < mc._TABLE_COUNTS for w in widths if len(w) == 1)
    laws = recorder(monkeypatch, "_law")
    out = mc.simulate(cfg, seed=8)
    assert [list(reads) for (reads,) in laws] == groups
    assert out == reference_simulate(cfg, seed=8)
    assert 0 < out.errors < cfg.trials


@pytest.mark.parametrize("m_pulses, threshold, errors", [
    (10**4, 221, [2399, 2442, 2511, 2474, 2428, 2500, 2423, 2492]),
    (10**12, 22192419762, [2539, 2531, 2503, 2507, 2515, 2509, 2498, 2530]),
])
def test_single_read_draws_keep_their_counts(ecc, m_pulses, threshold, errors):
    # last-only in the all-equal scenario reads one binomial: its table is
    # the one-read table of the per-read sampler (at M = 1e12 its window
    # is numpy's), so the error counts at seeds 0-7, thresholded at the
    # floor of the mean, are the ones that sampler gave
    k = 5
    model = NoiseModel(sigma_t=0.02, sigma_p=0.02, bs_loss_db=-0.2, seed=5)
    t = realize_circuit(qc.optimal_tree_layout(k), model, index=0)
    cfg = mc.SimConfig(
        trials=5000, scenario=mc.ALL_EQUAL, strategy=b.STRATEGY_LAST,
        params=make_params(ecc, k, m_pulses, 0.05, eta=0.5, p_dark=1e-4), transfer=t,
        alpha2=0.05 * m_pulses / k, threshold_r=threshold,
    )
    assert [mc.simulate(cfg, seed).errors for seed in range(8)] == errors


def test_simulate_matches_materialized_in_every_sampling_regime(ecc, monkeypatch):
    # dark clicks (n * p < 1), the flipped input's light in the differing
    # slots (5 <= n * p <= 30) and the equal slots' light (above 30), each
    # a binomial of the one table's law; first-K-1 skips the second
    # detector, which is dark in both
    k = 4
    cfg = at_mean(mc.SimConfig(
        trials=mc._TRIAL_BLOCK + 7, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
        params=make_params(ecc, k, 10**5, 0.05, p_dark=5e-6), transfer=tree_matrix(k),
        alpha2=20.0, threshold_r=0.0, last_label=2, worst_pattern=3,
    ))
    laws = recorder(monkeypatch, "_law")
    out = mc.simulate(cfg, seed=2)
    ((merged,),) = laws
    means = [n * p for n, p in merged]
    assert out == reference_simulate(cfg, seed=2)
    assert 0 < out.errors < cfg.trials
    assert min(means) < 1.0 and max(means) > 30.0
    assert any(5.0 <= m <= 30.0 for m in means)


def check_law(merged, reads):
    """``mc._law(merged)`` against scipy's law of ``merged`` over the same
    window, convolved directly: within 1e-12 relative, or 2**-50 per count
    of the window where that is more (the log-ratio walk of a read's pmf
    drifts by about that per count from its mode, 5e-12 at 24,000 counts),
    and 1e-280 absolute (where products of the far tails go subnormal).
    Where ``merged`` adds up the slots of reads of one p, it is also within
    1e-13 absolute of scipy's law of the unmerged ``reads``."""
    lo, pmf = mc._law(merged)
    assert np.all(pmf >= 0.0)
    pmf = pmf / pmf.sum()
    want_lo, want = soundness.law(merged, direct=True)
    assert (lo, pmf.size) == (want_lo, want.size)
    rtol = max(1e-12, 2.0**-50 * pmf.size)
    assert np.all(np.abs(pmf - want) <= rtol * want + 1e-280)
    if reads != merged:
        want_lo, want = soundness.law(reads)
        at = lo - want_lo
        assert 0 <= at and at + pmf.size <= want.size
        got = np.zeros_like(want)
        got[at:at + pmf.size] = pmf
        assert np.abs(got - want).max() <= 1e-13


#: (design, K, M, p_dark): the transfers of noisy trees and Reck meshes
#: (sigma 0.01) and of ideal trees, whose dark-only detectors share p.
LAW_GRID = [
    ("tree", 2, 10**4, 0.0), ("tree", 5, 10**6, 1e-9), ("tree", 16, 10**8, 1e-6),
    ("tree", 8, 10**4, 1e-6), ("reck", 2, 10**6, 1e-6), ("reck", 4, 10**8, 1e-9),
    ("reck", 7, 10**4, 0.0), ("reck", 12, 10**6, 1e-6), ("reck", 16, 10**8, 0.0),
    ("ideal-tree", 16, 10**6, 1e-6), ("ideal-tree", 8, 10**8, 0.0),
]


@pytest.mark.parametrize("design, k, m_pulses, p_dark", LAW_GRID)
def test_group_laws_match_scipy(ecc, design, k, m_pulses, p_dark):
    # every group simulate draws, both strategies and both scenarios, at
    # K * alpha2 / M = 0.05 (at M = 1e8 the lit detectors' windows are
    # numpy's, which no law covers)
    if design == "ideal-tree":
        t = tree_matrix(k)
    else:
        layout = (qc.optimal_tree_layout(k) if design == "tree"
                  else qc.reck_decompose(qc.dft_multiport(k)))
        t = realize_circuit(layout, NoiseModel(sigma_t=0.01, sigma_p=0.01, seed=k), index=0)
    params = make_params(ecc, k, m_pulses, 0.05, eta=0.5, p_dark=p_dark)
    merges = 0
    for strategy in (b.STRATEGY_FIRST, b.STRATEGY_LAST):
        for scenario in mc.SCENARIOS:
            cfg = mc.SimConfig(
                trials=1, scenario=scenario, strategy=strategy, params=params, transfer=t,
                alpha2=0.05 * m_pulses / k, threshold_r=0.0,
            )
            reads = reads_of(cfg)
            for group in grouped(reads)[0]:
                ps = {p for _, p in group}
                merges += sum(p in ps for _, p in reads) - len(group)
                check_law(group, [(n, p) for n, p in reads if p in ps])
    if design == "ideal-tree" and k > 2:
        assert merges > 0


@pytest.mark.parametrize("merged, reads", [
    # point masses at p = 0 and p = 1, and two reads of one p merged
    ([(10**4, 0.0), (500, 1.0), (10**4, 1e-4), (2000, 0.3)],
     [(10**4, 0.0), (500, 1.0), (6000, 1e-4), (4000, 1e-4), (2000, 0.3)]),
    ([(10**4, 0.0), (10**4, 0.0)], [(10**4, 0.0), (10**4, 0.0)]),
    ([(7, 1.0), (10**5, 3e-3), (50, 0.5)], [(3, 1.0), (4, 1.0), (10**5, 3e-3), (50, 0.5)]),
    # four windows that sum to 3,972 counts, just under _GROUP_COUNTS
    ([(10**5, 0.01), (10**5, 0.02), (10**5, 0.03), (10**6, 1e-3)],
     [(10**5, 0.01), (10**5, 0.02), (10**5, 0.03), (10**6, 1e-3)]),
])
def test_law_at_point_masses_merges_and_the_widest_group(merged, reads):
    check_law(merged, reads)


def per_read_statistic(config, seed=0):
    """The statistic as ``simulate`` drew it before it sampled the law of the
    sum, kept as an oracle: one count per (detector, slot type) read, from
    the one-read table of its (n, p), built at its first read and dropped
    after its last, or from numpy's binomial for a window wider than
    ``_TABLE_COUNTS``."""
    rng = pcg(seed)
    trials = config.trials
    stat = np.zeros(trials, dtype=np.int64)
    reads = reads_of(config)
    last_read = {key: i for i, key in enumerate(reads)}
    tables = {}
    for i, (n, p) in enumerate(reads):
        lo, hi = mc._window(n, p)
        if hi - lo >= mc._TABLE_COUNTS:
            for start in range(0, trials, mc._TRIAL_BLOCK):
                stat[start:start + mc._TRIAL_BLOCK] += rng.binomial(
                    n, p, size=min(mc._TRIAL_BLOCK, trials - start))
        else:
            table = tables.pop((n, p), None) or mc._CountTable(*mc._law([(n, p)]), stat.dtype)
            table.add_into(rng, stat)
            if last_read[n, p] > i:
                tables[n, p] = table
    return stat


def at_error(cfg, target):
    """``cfg`` at the integer threshold whose exact error is nearest
    ``target`` in log scale."""
    lo, pmf = soundness.law(soundness.components(cfg))
    below = np.cumsum(pmf)  # P(statistic <= lo + i)
    errs_above = (cfg.strategy == b.STRATEGY_FIRST) != (cfg.scenario == mc.WORST_DIFFERENT)
    errors = np.clip(1.0 - below if errs_above else below, 1e-300, None)
    return replace(cfg, threshold_r=float(lo + np.argmin(np.abs(np.log(errors / target)))))


def test_both_samplers_follow_the_exact_error(ecc):
    # four configurations, error rates from 1e-3 to 0.5 by scipy's exact
    # law: the sampler of the law of the sum and the per-read sampler each
    # land inside the binomial band of that error, at a family-wise level
    # of 1e-6 over the eight counts
    trials = 200_000
    noisy = NoiseModel(sigma_t=0.02, sigma_p=0.02, bs_loss_db=-0.2, seed=5)
    cases = []
    for k, m_pulses, p_dark, layout, strategy, scenario, target in (
        (5, 10**4, 1e-4, qc.optimal_tree_layout(5), b.STRATEGY_FIRST, mc.WORST_DIFFERENT, 1e-2),
        (8, 10**8, 1e-4, qc.optimal_tree_layout(8), b.STRATEGY_FIRST, mc.ALL_EQUAL, 3e-3),
        (3, 10**5, 1e-6, qc.reck_decompose(qc.dft_multiport(3)), b.STRATEGY_LAST,
         mc.WORST_DIFFERENT, 0.2),
        (16, 10**4, 1e-4, None, b.STRATEGY_FIRST, mc.WORST_DIFFERENT, 0.05),
    ):
        t = tree_matrix(k) if layout is None else realize_circuit(layout, noisy, index=0)
        gains = gn.gain_set(t)
        cfg = at_error(mc.SimConfig(
            trials=trials, scenario=scenario, strategy=strategy,
            params=make_params(ecc, k, m_pulses, 0.05, eta=0.5, p_dark=p_dark), transfer=t,
            alpha2=0.05 * m_pulses / k, threshold_r=0.0, last_label=gains.last_label,
            worst_pattern=(gains.worst_pattern_first if strategy == b.STRATEGY_FIRST
                           else gains.worst_pattern_last),
        ), target)
        cases.append(cfg)
    for seed, cfg in enumerate(cases):
        exact = soundness.exact_error(cfg)
        assert 1e-3 <= exact <= 0.5, (cfg.params.k, exact)
        low, high = st.binom.interval(1 - 1e-6 / 8, trials, exact)
        for errors in (mc.simulate(cfg, seed).errors, errors_of(cfg, per_read_statistic(cfg, seed))):
            assert low <= errors <= high, (cfg.params.k, errors / trials, exact)


@pytest.mark.parametrize("scenario", mc.SCENARIOS)
@pytest.mark.parametrize("strategy", [b.STRATEGY_FIRST, b.STRATEGY_LAST])
def test_wide_windows_draw_numpys_binomial_in_bounded_memory(ecc, strategy, scenario):
    # M = 1e12: the light's windows span millions of counts, so those
    # counts are Generator.binomial's, drawn block by block; the dark-only
    # detectors' means of 1,000 keep a table.  The statistic is int64,
    # 128 KiB, and one block of counts another 128 KiB: no table over a
    # wide window is built
    import tracemalloc

    k = 4
    params = make_params(ecc, k, 10**12, 0.05, p_dark=1e-9)
    assert params.m_pulses == 10**12
    cfg = at_mean(mc.SimConfig(
        trials=mc._TRIAL_BLOCK + 1, scenario=scenario, strategy=strategy, params=params,
        transfer=tree_matrix(k), alpha2=0.1 * params.m_pulses, threshold_r=0.0,
    ))
    mc.simulate(replace(cfg, trials=1), seed=1)  # first-use imports are not counted
    tracemalloc.start()
    try:
        out = mc.simulate(cfg, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    assert out == reference_simulate(cfg, seed=1)
    assert 0 < out.errors < cfg.trials


def test_simulate_memory_is_bounded_by_the_statistic(ecc):
    # 200,000 trials at K = 16: an int32 statistic (0.76 MiB), one block of
    # words, cell indices and int32 counts (0.22 MiB) and one comparison
    # (0.19 MiB)
    import tracemalloc

    k = 16
    cfg = mc.SimConfig(
        trials=200_000, scenario=mc.WORST_DIFFERENT, strategy=b.STRATEGY_FIRST,
        params=make_params(ecc, k, 10**4, 0.05), transfer=tree_matrix(k),
        alpha2=b.ideal_alpha2(k, ecc, 0.05), threshold_r=0.0,
    )
    mc.simulate(replace(cfg, trials=1), seed=1)  # first-use imports are not counted
    tracemalloc.start()
    try:
        mc.simulate(cfg, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20


class TestRunChecks:
    def checks(self, ecc, realized):
        t, gains = realized
        params = make_params(ecc, 3, 10**5, 1e-2, eta=0.5, p_dark=1e-6)
        return [
            mc.plan_check(strategy, params, gains, t, trials=1000, seed=seed, r_scale=r_scale)
            for seed, r_scale in ((1, 1.0), (4, 1.5))
            for strategy in (b.STRATEGY_FIRST, b.STRATEGY_LAST)
        ]

    def test_reports_match_serial_simulations(self, ecc, realized):
        checks = self.checks(ecc, realized)
        reports = mc.run_checks(checks)
        for check, rep in zip(checks, reports, strict=True):
            assert rep == mc.VerifyReport(
                strategy=check.strategy,
                bound=check.bound,
                outcomes={c.scenario: mc.simulate(c, s) for c, s in check.jobs},
                p_error=check.p_error,
            )
        assert [r.passed for r in reports] == [True, True, False, False]

    def test_first_error_in_job_order_is_raised(self, ecc, realized):
        check = self.checks(ecc, realized)[0]
        (equal, s0), (different, s1) = check.jobs
        misshapen = replace(different, transfer=np.eye(2))
        cases = [
            ((equal, -1), (misshapen, s1), "seed must be"),
            ((equal, s0), (misshapen, s1), "transfer matrix shape"),
            ((equal, s0), (different, -1), "seed must be"),
        ]
        for first, second, error in cases:
            broken = replace(check, jobs=(first, second))
            with pytest.raises(ParameterError, match=error):
                mc.run_checks([check, broken, check])

    def test_verify_bound_raises_skip(self, ecc, realized, monkeypatch):
        t, gains = realized
        # at M = 1e3 the bound's K * alpha2 / M is 0.41, outside the regime,
        # and still 0.10 with alpha2 scaled down 4x; planning decides it
        params = make_params(ecc, 3, 10**3, 1e-2, eta=0.5, p_dark=1e-6)
        monkeypatch.setattr(mc, "simulate", None)  # never reached
        for alpha2_scale, ratio in ((1.0, "0.4055"), (0.25, "0.1014")):
            message = (rf"^K \* alpha2 / M = {ratio} is outside the small-photon regime "
                       r"\(< 0\.1\)$")
            with pytest.raises(ValidityError, match=message):
                mc.plan_check(b.STRATEGY_FIRST, params, gains, t, trials=500,
                              alpha2_scale=alpha2_scale)
            with pytest.raises(ValidityError, match=message):
                mc.verify_bound(b.STRATEGY_FIRST, params, gains, t, trials=500,
                                alpha2_scale=alpha2_scale)


@pytest.fixture(scope="module")
def realized(ecc):
    model = NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=777)
    t = realize_circuit(qc.optimal_tree_layout(3), model, index=0)
    return t, gn.gain_set(t)


class TestVerifyBound:
    def test_pipeline_passes(self, ecc, realized):
        t, gains = realized
        params = make_params(ecc, 3, 10**4, 1e-2, eta=0.5, p_dark=1e-6)
        rep = mc.verify_bound(b.STRATEGY_FIRST, params, gains, t, trials=5000, seed=1)
        assert rep.passed
        assert set(rep.outcomes) == set(mc.SCENARIOS)

    def test_sabotaged_alpha_fails_different(self, ecc, realized):
        t, gains = realized
        params = make_params(ecc, 3, 10**4, 1e-2, eta=0.5, p_dark=1e-6)
        rep = mc.verify_bound(
            b.STRATEGY_FIRST, params, gains, t, trials=5000, seed=1, alpha2_scale=0.25
        )
        assert not rep.passed
        assert rep.outcomes[mc.WORST_DIFFERENT].wilson_upper_95 > 1e-2

    def test_scaled_bound_carries_its_own_qubit_cost(self, ecc, realized):
        # alpha2 scaled up 4x: the old qubit count fell below the sanity floor;
        # at M = 1e5 the scaled K * alpha2 / M (0.016) stays in the regime
        t, gains = realized
        params = make_params(ecc, 3, 10**5, 1e-2, eta=0.5, p_dark=1e-6)
        honest = b.bound_first_detectors(params, gains)
        check = mc.plan_check(b.STRATEGY_FIRST, params, gains, t, trials=500,
                              alpha2_scale=4.0)
        assert check.bound.alpha2 == honest.alpha2 * 4.0
        expect = b.qubit_cost(check.bound.alpha2, params.m_pulses, params.epsilon)
        assert (check.bound.q_qubits, check.bound.delta_cap) == expect
        assert check.bound.q_qubits > honest.q_qubits
        unscaled = mc.plan_check(b.STRATEGY_FIRST, params, gains, t, trials=500)
        assert unscaled.bound == honest

    def test_sabotaged_threshold_fails_equal(self, ecc, realized):
        t, gains = realized
        params = make_params(ecc, 3, 10**5, 1e-2, eta=0.5, p_dark=1e-6)
        rep = mc.verify_bound(
            b.STRATEGY_LAST, params, gains, t, trials=5000, seed=1, r_scale=1.5
        )
        assert not rep.passed
        assert rep.outcomes[mc.ALL_EQUAL].wilson_upper_95 > 1e-2

    def test_report_json_shape(self, ecc, realized):
        import json

        t, gains = realized
        params = make_params(ecc, 3, 10**5, 1e-2, eta=0.5, p_dark=1e-6)
        rep = mc.verify_bound(b.STRATEGY_LAST, params, gains, t, trials=2000, seed=1)
        data = rep.to_json_dict()
        assert json.loads(json.dumps(data)) == data
        assert {"strategy", "alpha2", "threshold_r", "p_error", "pass", "scenarios"} <= set(data)
        for sc in data["scenarios"]:
            assert {"strategy", "scenario", "trials", "errors", "error_rate",
                    "wilson_upper_95", "pass"} <= set(sc)

    def test_numpy_integer_trials_give_a_json_report(self, ecc, realized):
        import json

        t, gains = realized
        params = make_params(ecc, 3, 10**5, 1e-2, eta=0.5, p_dark=1e-6)
        rep = mc.verify_bound(b.STRATEGY_LAST, params, gains, t, trials=np.int64(500), seed=1)
        data = rep.to_json_dict()
        assert json.loads(json.dumps(data)) == data
        for sc in data["scenarios"]:
            assert type(sc["trials"]) is int and type(sc["errors"]) is int
            assert type(sc["error_rate"]) is float

    def test_conservative_over_parameter_grid(self, ecc, realized):
        t, gains = realized
        for p_error in (1e-2, 3e-2):
            for p_dark in (1e-7, 1e-6):
                params = make_params(ecc, 3, 10**5, p_error, eta=0.5, p_dark=p_dark)
                for strategy in (b.STRATEGY_FIRST, b.STRATEGY_LAST):
                    rep = mc.verify_bound(strategy, params, gains, t, trials=3000, seed=11)
                    assert rep.passed, (strategy, p_error, p_dark)


class TestIdealGainCrossCheck:
    def test_both_strategies_ideal_circuit(self, ecc):
        # closed-form bounds at ideal gains, checked against the oracle on
        # the ideal tree with no dark counts; M keeps K*alpha2/M deep inside
        # the small-photon regime, where the tail guarantee is airtight
        t = tree_matrix(3)
        gains = gn.gain_set(t)
        params = make_params(ecc, 3, 10**5, 1e-2, eta=1.0, p_dark=0.0)
        for strategy in (b.STRATEGY_FIRST, b.STRATEGY_LAST):
            rep = mc.verify_bound(strategy, params, gains, t, trials=3000, seed=21)
            assert rep.passed, strategy
