"""Event-level click-sampling oracle.

Simulates complete protocol runs at the detector level: every pulse slot
produces an independent click per detector with ``gains.click_probability``,
1 - exp(-eta * mu) OR-ed with an independent dark click.  Because slots of
one type are i.i.d., per-trial detector counts are drawn directly from the
matching binomials, which is distribution-identical to slot-by-slot sampling.
The counts are bit-identical to ``Generator.binomial``'s, stream position
included, and are drawn in blocks of trials added straight into the strategy
statistic (``simulate``); where numpy samples by inversion, a guide table
(Chen & Asau) over numpy's own cumulative pmf maps the same uniforms to
counts (``_binomial_blocks``).  A simulation holds 4 B per trial (8 B once
M * K reaches 2**31) plus one block on its worker thread: 128 KiB of int64
counts from BTPE, or 128 KiB of uniforms and 64 KiB of cell indices, counts
and masks.

The oracle knows nothing about the analytical tail bounds; feeding it a
bound's (alpha2, threshold) and checking the empirical error rate against
the target is the package's empirical gate on the bound mathematics.
"""

from __future__ import annotations

import itertools
import math
import os
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

#: Trials per block in ``simulate``: 128 KiB of int64 counts or of uniforms.
_TRIAL_BLOCK = 1 << 14

#: Cells of the guide table that maps a uniform to a low-mean binomial count.
_GUIDE_CELLS = 1 << 10


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
    (``plan_check``).  Counts are drawn in blocks of ``_TRIAL_BLOCK``
    trials (``_binomial_blocks``) and added into the statistic, int32 when
    M * K < 2**31 (at most K - 1 detectors of at most M clicks each).
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
        m_diff = math.floor((1.0 - params.ecc.delta) * m)
        if m_diff:
            mu_diff = output_photon_numbers(transfer, pattern, mu_in)
            slot_types = [(m - m_diff, mu_equal), (m_diff, mu_diff)]
    slot_types = [(n, click_probability(mu, params.eta, params.p_dark)) for n, mu in slot_types]

    # Each detector's counts are drawn in detector order, folded into the
    # strategy statistic and dropped: first-K-1 sums the detectors other
    # than the last, last-only keeps the last alone.  Drawing stops after
    # the last detector the statistic reads, which leaves the earlier
    # draws' stream positions as they are.  Consecutive binomial calls
    # consume the stream as one call of their summed size does, so each
    # (detector, slot type) draw is split into blocks of trials.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
    trials = config.trials
    stat = np.zeros(trials, dtype=np.int32 if int(m) * int(k) < 2**31 else np.int64)
    stop = (k - 1 if last == k - 1 else k) if first else last + 1
    for det in range(stop):
        reads = (det != last) == first
        for slots, p in slot_types:
            lo = 0
            for counts in _binomial_blocks(rng, slots, float(p[det]), trials):
                if reads:
                    stat[lo:lo + counts.size] += counts
                lo += counts.size
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


def _binomial_blocks(rng: np.random.Generator, n: int, p: float, trials: int):
    """Yield ``rng.binomial(n, p, size)`` for consecutive blocks of at most
    ``_TRIAL_BLOCK`` of ``trials`` draws: the same counts, and the stream
    left where numpy leaves it.  Each block is valid until the next.

    Where numpy samples by inversion (0 < p <= 0.5 and n * p <= 30), a draw
    without a restart reads one ``next_double``, so the block's uniforms
    come from ``rng.random`` and a guide table of ``_GUIDE_CELLS`` cells
    over numpy's own pmf turns them into counts.  A uniform within
    ``band`` of a cumulative sum, or in the restart region above the last
    one, may round the other way in numpy's subtractive loop; a block that
    holds one is redone by ``_inversion_loop``, numpy's loop itself.
    """
    sizes = [min(_TRIAL_BLOCK, trials - lo) for lo in range(0, trials, _TRIAL_BLOCK)]
    if not (n > 0 and 0.0 < p <= 0.5 and p * n <= 30.0):
        for size in sizes:
            yield rng.binomial(n, p, size=size)
        return
    # numpy's constants (random_binomial_inversion), then the cumulative
    # sums in units of one cell, which scales every uniform exactly.  numpy
    # subtracts the pmf from the uniform term by term where the sums add it;
    # each step of either rounds by at most 2**-53, so the two can disagree
    # only within (bound + 1) * 2**-52 of a sum, inside ``band``.
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    pmf = [qn]
    for x in range(1, bound + 1):
        pmf.append(((n - x + 1) * p * pmf[-1]) / (x * q))
    cum = np.cumsum(pmf) * _GUIDE_CELLS
    band = (bound + 2) * 2.0**-52 * _GUIDE_CELLS
    # A cell maps to its count when no sum lies within band of it; -1 marks
    # the others, and the restart region.  bound <= 30 + 10 * sqrt(31) < 86,
    # so every count fits an int8.
    edges = np.arange(_GUIDE_CELLS + 1.0)
    low = np.searchsorted(cum, edges[:-1] - band)
    pure = (low == np.searchsorted(cum, edges[1:] + band, side="right")) & (low <= bound)
    guide = np.where(pure, low, -1).astype(np.int8)
    buf = np.empty(_TRIAL_BLOCK)
    cells = np.empty(_TRIAL_BLOCK, dtype=np.int16)
    out = np.empty(_TRIAL_BLOCK, dtype=np.int8)
    for size in sizes:
        u = rng.random(out=buf[:size])
        u *= _GUIDE_CELLS
        cells[:size] = u
        # every cell index is in range: "wrap" only skips the bounds check
        counts = guide.take(cells[:size], out=out[:size], mode="wrap")
        mixed = np.flatnonzero(counts < 0)
        if mixed.size:
            v = u[mixed]
            x = np.searchsorted(cum, v - band)
            if x.max() > bound or np.any(x != np.searchsorted(cum, v + band, side="right")):
                counts = _inversion_loop(rng, n, p, qn, bound, u / _GUIDE_CELLS)
            else:
                counts[mixed] = x
        yield counts


def _inversion_loop(
    rng: np.random.Generator, n: int, p: float, qn: float, bound: int, uniforms: np.ndarray
) -> np.ndarray:
    """numpy's inversion sampler, draw by draw, reading ``uniforms`` and
    then ``rng.random()``: a restart takes one more uniform."""
    q = 1.0 - p
    draws = itertools.chain(uniforms.tolist(), iter(rng.random, None))
    counts = np.empty(uniforms.size, dtype=np.int64)
    for i in range(uniforms.size):
        x, px, u = 0, qn, next(draws)
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, next(draws)
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        counts[i] = x
    return counts


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def simulate_batch(jobs: Sequence[tuple[SimConfig, int]]) -> list[SimOutcome]:
    """Run ``simulate(config, seed)`` for every job, one thread per usable core.

    Every job draws from its own seeded stream and numpy's samplers and
    array operations release the GIL, so the jobs run concurrently and each outcome equals
    that of a serial call.  Returns the outcomes in job order; the first
    exception in job order propagates.  The thread count is ``min(len(jobs),
    usable cores)``, the usable cores being the CPU affinity of this process.
    """
    if not jobs:
        return []
    # Imported here, not at module level: the import takes several
    # milliseconds that every command without simulations would pay.
    from concurrent.futures import ThreadPoolExecutor

    configs, seeds = zip(*jobs)
    with ThreadPoolExecutor(max_workers=min(len(jobs), _usable_cores())) as pool:
        return list(pool.map(simulate, configs, seeds))


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
    """Simulate every check's scenarios in one ``simulate_batch`` call.

    Returns the reports in check order; the first exception in job order
    propagates, which is the one a serial run would have raised.
    """
    outcomes = iter(simulate_batch([job for check in checks for job in check.jobs]))
    return [
        VerifyReport(
            strategy=check.strategy,
            bound=check.bound,
            outcomes={config.scenario: next(outcomes) for config, _ in check.jobs},
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
