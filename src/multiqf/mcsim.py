"""Event-level click-sampling oracle.

Simulates complete protocol runs at the detector level: every pulse slot
produces an independent click per detector with ``gains.click_probability``,
1 - exp(-eta * mu) OR-ed with an independent dark click.  Slots of one type
are i.i.d., so a detector's count over them is a binomial; the counts are
independent, so their sum, the statistic, follows the convolution of their
pmfs.  Drawing from that law is distribution-identical to drawing slot by
slot and adding up, and counts of one click probability add up to one
binomial exactly.

The sampling contract: seed s draws from ``PCG64(SeedSequence((s, 0)))``.
The (detector, slot type) pairs the statistic reads, merged by click
probability into binomials of their summed slots in order of first read,
form groups of consecutive ones whose ``_window`` widths sum to under
``_GROUP_COUNTS``; a binomial whose own window is wider has a group of its
own, and one wider than ``_TABLE_COUNTS`` takes ``Generator.binomial``'s
counts after every group.  Counts go into the statistic in blocks of
``_TRIAL_BLOCK`` trials.  A group's block takes one
``bit_generator.random_raw`` word per four trials: trial 4w + j reads lane
j, bits 16j to 16j + 15, of word w, and the lane's top bits pick a cell of
the guide table over the cdf of the group's law (``_law``, ``_CountTable``).
A cell no cdf sum falls in holds the count; a trial whose cell holds a sum
then draws one ``Generator.random`` uniform u, in trial order after the
block's words, and its count is the smallest k with ``sums[k] >= cell + u``.
A simulation holds 4 B per trial (8 B once M * K reaches 2**31), one block
of scratch and one table at a time.

The oracle knows nothing about the analytical tail bounds; feeding it a
bound's (alpha2, threshold) and checking the empirical error rate against
the target is the package's empirical gate on the bound mathematics.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import circuits
from .bounds import (
    STRATEGY_FIRST,
    STRATEGY_LAST,
    PHOTON_REGIME_LIMIT,
    BoundResult,
    ProtocolParams,
    bound_first_detectors,
    bound_last_detector,
    qubit_cost,
)
from .errors import ParameterError, ValidityError, check_int, check_real, check_type
from .gains import GainSet, _check_transfer, _last_label, click_probability, gain_set
from .gains import output_photon_numbers

ALL_EQUAL = "all-equal"
WORST_DIFFERENT = "worst-different"
SCENARIOS = (ALL_EQUAL, WORST_DIFFERENT)

#: One-sided 95% normal quantile for the Wilson score bound.
_Z95 = 1.6448536269514722

#: Trials per block in ``simulate``: 32 KiB of words, 128 KiB of cell
#: indices and 64 or 128 KiB of counts.
_TRIAL_BLOCK = 1 << 14

#: Most counts one binomial's table spans (a wider window, a standard
#: deviation above about 1,350 counts or M of 1e10 at high click rates, takes
#: numpy's counts); a table's cells per count, which leave under 2% of them
#: holding a sum; its most cells, one per 16-bit lane (256 KiB of int32
#: counts); and so the most counts a group's summed windows span.
_TABLE_COUNTS = 1 << 15
_CELLS_PER_COUNT = 16
_MAX_CELLS = 1 << 16
_GROUP_COUNTS = _MAX_CELLS // _CELLS_PER_COUNT


def wilson_upper(errors: int, trials: int, z: float = _Z95) -> float:
    """One-sided Wilson score upper confidence bound on ``errors`` of ``trials``,
    integers with 0 <= errors <= trials and trials >= 1."""
    check_int("trials", trials, 1)
    check_int("errors", errors, 0, trials)
    check_real("z", z, 0.0)
    phat = errors / trials
    z2 = z * z
    center = phat + z2 / (2.0 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return min(1.0, (center + half) / (1.0 + z2 / trials))


def default_trials(p_error: float) -> int:
    """Trial budget: enough resolution below p_error in (0, 1), capped for desk runs."""
    check_real("p_error", p_error, 0.0, 1.0, "()")
    return int(min(5000, math.ceil(50.0 / p_error)))


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario.

    ``alpha2`` is the transmitted mean photon number per user; the combined
    efficiency in ``params`` is applied inside the click model.
    ``last_label`` is the 1-based photon-keeping output and ``worst_pattern``
    the 0-based input flipped in the adversarial single-flip pattern; when
    omitted they are derived from the transfer matrix (the latter for the
    configured strategy).
    """

    trials: int
    scenario: str
    strategy: str
    params: ProtocolParams
    transfer: np.ndarray
    alpha2: float
    threshold_r: float
    last_label: int | None = None
    worst_pattern: int | None = None

    def __post_init__(self):
        check_int("trials", self.trials)
        # a numpy integer would make the outcome's counts numpy scalars,
        # which the JSON report cannot hold
        object.__setattr__(self, "trials", int(self.trials))
        if self.trials < 1:
            raise ParameterError("need at least one trial")
        if 8 * self.trials > circuits.MAX_STACK_BYTES:
            raise ParameterError(
                f"{self.trials:,} trials need {8 * self.trials:,} bytes of int64 "
                f"statistic, above the limit of {circuits.MAX_STACK_BYTES:,}; "
                "ask for fewer trials"
            )
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"unknown scenario {self.scenario!r}")
        if self.strategy not in (STRATEGY_FIRST, STRATEGY_LAST):
            raise ParameterError(f"unknown strategy {self.strategy!r}")
        check_type("params", self.params, ProtocolParams)
        check_real("alpha2", self.alpha2, 0.0)
        check_real("threshold_r", self.threshold_r)
        k = self.params.k
        for name, lo, hi in (("last_label", 1, k), ("worst_pattern", 0, k - 1)):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name), lo, hi)


@dataclass(frozen=True)
class SimOutcome:
    """Empirical result of one simulated scenario."""

    scenario: str
    strategy: str
    trials: int
    errors: int
    error_rate: float
    wilson_upper_95: float

    def to_json_dict(self, p_error: float) -> dict:
        return asdict(self) | {"pass": bool(self.wilson_upper_95 <= p_error)}


def simulate(config: SimConfig, seed: int = 0) -> SimOutcome:
    """Run the click-level simulation for one scenario.

    The sampling is exact at any alpha2; the small-photon regime the
    analytical bounds rely on is checked where a bound is planned
    (``plan_check``).  The statistic is int32 when M * K < 2**31 (at most
    K - 1 detectors of at most M clicks each).
    """
    check_type("config", config, SimConfig)
    check_int("seed", seed)
    params = config.params
    k = params.k
    m = params.m_pulses
    mu_in = config.alpha2 / m
    transfer = np.asarray(_check_transfer(config.transfer), dtype=complex)
    if transfer.shape != (k, k):
        raise ParameterError(f"transfer matrix shape {transfer.shape} != ({k}, {k})")
    last_label = _last_label(config.last_label, transfer)
    last = last_label - 1
    first = config.strategy == STRATEGY_FIRST

    # (slots, per-detector photon numbers) of the equal slots, then of the
    # slots where the flipped input differs, if there are any.
    mu_equal = output_photon_numbers(transfer, None, mu_in)
    slot_types = [(m, mu_equal)]
    if config.scenario == WORST_DIFFERENT:
        flip = config.worst_pattern
        if flip is None:
            gains = gain_set(transfer, last_label=last_label)
            flip = gains.worst_pattern_first if first else gains.worst_pattern_last
        pattern = np.ones(k)
        pattern[flip] = -1.0
        # 21,999.999999999996 at delta = 0.78 and M = 1e5: the bounds assume
        # 22,000, so a product within 1e-9 * M of an integer is taken as it
        x = (1.0 - params.ecc.delta) * m
        m_diff = round(x) if abs(x - round(x)) <= 1e-9 * m else math.floor(x)
        if m_diff:
            mu_diff = output_photon_numbers(transfer, pattern, mu_in)
            slot_types = [(m - m_diff, mu_equal), (m_diff, mu_diff)]
    slot_types = [(n, click_probability(mu, params.eta, params.p_dark)) for n, mu in slot_types]

    # First-K-1 reads the detectors other than the last, last-only the last
    # alone; reads of one p (the dark-only detectors share one) are merged,
    # then grouped into tables of under _GROUP_COUNTS counts each.
    merged = {}
    for det in range(k):
        if (det != last) == first:
            for n, p in slot_types:
                merged[float(p[det])] = merged.get(float(p[det]), 0) + n
    groups, wide, span = [], [], _GROUP_COUNTS
    for p, n in merged.items():
        lo, hi = _window(n, p)
        if hi - lo >= _TABLE_COUNTS:
            wide.append((n, p))
        elif span + hi - lo < _GROUP_COUNTS:
            groups[-1].append((n, p))
            span += hi - lo
        else:
            groups.append([(n, p)])
            span = hi - lo
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    trials = config.trials
    stat = np.zeros(trials, dtype=np.int32 if int(m) * int(k) < 2**31 else np.int64)
    for group in groups:
        _CountTable(*_law(group), stat.dtype).add_into(rng, stat)
    for n, p in wide:
        for start in range(0, trials, _TRIAL_BLOCK):
            stat[start:start + _TRIAL_BLOCK] += rng.binomial(
                n, p, size=min(_TRIAL_BLOCK, trials - start))
    # First-K-1 says "different" above the threshold, last-only at or
    # below it; a trial errs where that disagrees with the scenario.
    above = int(np.count_nonzero(stat > config.threshold_r))
    errors = above if first != (config.scenario == WORST_DIFFERENT) else trials - above
    return SimOutcome(
        scenario=config.scenario,
        strategy=config.strategy,
        trials=trials,
        errors=errors,
        error_rate=errors / trials,
        wilson_upper_95=wilson_upper(errors, trials),
    )


def _window(n: int, p: float) -> tuple[int, int]:
    """The counts ``lo..hi`` within 12 sd + 12 of the mean of Binomial(n, p),
    clipped to [0, n]; the mass outside is below 1e-26 (the 12 added counts
    keep it there at means near 1, where 12 sd alone leave 1e-12)."""
    mean = n * p
    width = 12.0 * math.sqrt(mean * (1.0 - p)) + 12.0
    return max(0, math.floor(mean - width)), min(n, math.ceil(mean + width))


def _binomial_pmf(n: int, p: float) -> tuple[int, np.ndarray]:
    """``(lo, pmf)``: ``pmf[i]`` is P(X = lo + i), X ~ Binomial(n, p), over
    ``_window(n, p)`` and up to a factor (the mode's term is 1).  The log-pmf
    walks out from the mode by cumulative sums of log (n - k + 1) p / (k q),
    so a term's rounding grows with its distance from the mode."""
    if p == 0.0 or p == 1.0 or n == 0:
        return (n if p == 1.0 else 0), np.ones(1)
    lo, hi = _window(n, p)
    mode = min(hi, max(lo, math.floor((n + 1) * p))) - lo
    k = np.arange(lo + 1, hi + 1, dtype=float)
    steps = np.log((n - k + 1.0) / k * (p / (1.0 - p)))
    logs = np.zeros(hi - lo + 1)
    logs[mode + 1:] = np.cumsum(steps[mode:])
    logs[:mode] = -np.cumsum(steps[:mode][::-1])[::-1]
    return lo, np.exp(logs)


def _law(reads: Sequence[tuple[int, float]]) -> tuple[int, np.ndarray]:
    """``(lo, pmf)`` of the sum of independent Binomial(n, p) over ``reads``
    ``[(n, p)]``, up to a factor, over the sum of their windows: one read's
    ``_binomial_pmf``, else the reads' pmfs convolved one after another by
    ``np.convolve``, each product normalized to sum 1 (a group's windows sum
    to under ``_GROUP_COUNTS``, so under 8e6 products in all)."""
    lo, pmf = _binomial_pmf(*reads[0])
    for n, p in reads[1:]:
        lo_b, b = _binomial_pmf(n, p)
        lo, pmf = lo + lo_b, np.convolve(pmf, b)
        pmf /= pmf.sum()
    return lo, pmf


class _CountTable:
    """Counts of the law ``(lo, pmf)`` through a guide table (Chen & Asau) of
    a power of two cells over its cdf, the cumulative sums of ``pmf``
    normalized to end at 1, whose sums ``cdf * cells`` are exact.
    A 16-bit lane's top ``log2(cells)`` bits pick a cell.  A cell no sum falls
    in holds the count of all its lanes; the others hold -1, and a lane there
    takes a uniform u and the smallest ``lo + i`` with ``sums[i] >= cell + u``."""

    def __init__(self, lo: int, pmf: np.ndarray, dtype):
        self.lo = lo
        cdf = np.cumsum(pmf)
        cells = min(_MAX_CELLS, 1 << (_CELLS_PER_COUNT * cdf.size - 1).bit_length())
        self.shift = _MAX_CELLS.bit_length() - cells.bit_length()
        self.sums = cdf / cdf[-1] * cells
        # sum i lies in cell at[i]: the cells in (at[i - 1], at[i]) hold
        # lo + i; the sums equal to 1 mark the cell past the table
        at = self.sums.astype(np.intp)
        guide = np.repeat(np.arange(self.lo, self.lo + at.size, dtype=dtype),
                          np.diff(at, prepend=-1))
        guide[at] = -1
        self.guide = guide[:cells]

    def add_into(self, rng: np.random.Generator, stat: np.ndarray) -> None:
        """Add one count per trial into ``stat``, ``_TRIAL_BLOCK`` at a time:
        a block's words, then the uniforms of its trials in mixed cells."""
        cells = np.empty(min(stat.size, _TRIAL_BLOCK), dtype=np.intp)
        out = np.empty(cells.size, dtype=stat.dtype)
        for lo in range(0, stat.size, _TRIAL_BLOCK):
            part = stat[lo:lo + _TRIAL_BLOCK]
            words = rng.bit_generator.random_raw(-(-part.size // 4))
            # little-endian 16-bit views: lane j is bits 16j to 16j + 15
            lanes = words.astype("<u8", copy=False).view("<u2")[:part.size]
            cell = np.right_shift(lanes, self.shift, out=cells[:part.size])
            # every cell index is in range: "wrap" only skips the bounds check
            counts = self.guide.take(cell, out=out[:part.size], mode="wrap")
            mixed = np.flatnonzero(counts < 0)
            if mixed.size:
                x = cell[mixed] + rng.random(mixed.size)
                counts[mixed] = self.lo + np.searchsorted(self.sums, x)
            part += counts


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking one analytical bound against the oracle."""

    strategy: str
    bound: BoundResult
    outcomes: dict[str, SimOutcome]
    p_error: float

    @property
    def passed(self) -> bool:
        return all(o.wilson_upper_95 <= self.p_error for o in self.outcomes.values())

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "alpha2": self.bound.alpha2,
            "threshold_r": self.bound.threshold_r,
            "p_error": self.p_error,
            "pass": self.passed,
            "scenarios": [
                self.outcomes[s].to_json_dict(self.p_error) for s in sorted(self.outcomes)
            ],
        }


@dataclass(frozen=True)
class BoundCheck:
    """A strategy bound and the ``(config, seed)`` simulation of each scenario.

    ``jobs`` follows ``SCENARIOS`` order; ``run_checks`` turns the check into
    a ``VerifyReport``.
    """

    strategy: str
    bound: BoundResult
    p_error: float
    jobs: tuple[tuple[SimConfig, int], ...]


def plan_check(
    strategy: str,
    params: ProtocolParams,
    gains: GainSet,
    transfer: np.ndarray,
    trials: int | None = None,
    seed: int = 0,
    alpha2_scale: float = 1.0,
    r_scale: float = 1.0,
) -> BoundCheck:
    """Compute a strategy bound and plan its simulation in both scenarios.

    ``alpha2_scale`` and ``r_scale`` deliberately corrupt the bound (for
    power checks of the gate itself); the honest gate uses both at 1.
    Scenario ``i`` of ``SCENARIOS`` is simulated with seed ``seed + i``.
    Raises ``ValidityError`` when the scaled bound's K * alpha2 / M reaches
    the small-photon limit the analytical model relies on.
    """
    if strategy == STRATEGY_FIRST:
        bound = bound_first_detectors(params, gains)
    elif strategy == STRATEGY_LAST:
        bound = bound_last_detector(params, gains)
    else:
        raise ParameterError(f"unknown strategy {strategy!r}")
    if trials is None:
        trials = default_trials(params.p_error)
    check_int("statistical gating trials", trials, 100)
    check_int("seed", seed)
    check_real("alpha2_scale", alpha2_scale, 0.0, ends="()")
    check_real("r_scale", r_scale, 0.0, ends="()")
    alpha2 = bound.alpha2 * alpha2_scale
    q_qubits, delta_cap = qubit_cost(alpha2, bound.m_pulses, params.epsilon)
    bound = replace(
        bound,
        alpha2=alpha2,
        threshold_r=bound.threshold_r * r_scale,
        q_qubits=q_qubits,
        delta_cap=delta_cap,
    )
    if not bound.within_validity(params.k):
        raise ValidityError(
            f"K * alpha2 / M = {bound.photon_load(params.k):.4g} is outside the "
            f"small-photon regime (< {PHOTON_REGIME_LIMIT})"
        )
    jobs = tuple(
        (
            SimConfig(
                trials=trials,
                scenario=scenario,
                strategy=strategy,
                params=params,
                transfer=transfer,
                alpha2=bound.alpha2,
                threshold_r=bound.threshold_r,
                last_label=gains.last_label,
                worst_pattern=(
                    gains.worst_pattern_first if strategy == STRATEGY_FIRST
                    else gains.worst_pattern_last
                ),
            ),
            seed + i,
        )
        for i, scenario in enumerate(SCENARIOS)
    )
    return BoundCheck(strategy=strategy, bound=bound, p_error=params.p_error, jobs=jobs)


def run_checks(checks: Sequence[BoundCheck]) -> list[VerifyReport]:
    """Simulate every check's scenarios in order, in the calling thread.

    Returns the reports in check order; the first exception in job order
    propagates.
    """
    return [
        VerifyReport(
            strategy=check.strategy,
            bound=check.bound,
            outcomes={config.scenario: simulate(config, seed) for config, seed in check.jobs},
            p_error=check.p_error,
        )
        for check in checks
    ]


def verify_bound(
    strategy: str,
    params: ProtocolParams,
    gains: GainSet,
    transfer: np.ndarray,
    trials: int | None = None,
    seed: int = 0,
    alpha2_scale: float = 1.0,
    r_scale: float = 1.0,
) -> VerifyReport:
    """Compute a strategy bound, then test it empirically in both scenarios.

    The one-check case of ``plan_check`` and ``run_checks``; raises what
    either of them raises.
    """
    (report,) = run_checks([
        plan_check(strategy, params, gains, transfer, trials, seed,
                   alpha2_scale, r_scale)
    ])
    return report
