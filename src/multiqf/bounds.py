"""Analytical protocol mathematics.

Closed-form photon-number upper bounds and referee thresholds for the two
realistic referee strategies, the ideal-case bound, qubit counting, the
iterative two-user threshold search, and the naive repeated-pairwise
multi-user composition.

Photon-number accounting: every returned ``alpha2`` is the *transmitted*
mean photon number per user.  The combined efficiency ``eta`` (channel loss
times detector efficiency) divides the bound once; referee thresholds are
computed from the detector-side number ``eta * alpha2`` because clicks
happen after the losses.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .classical import _limit_coefficient
from .errors import ConvergenceError, FeasibilityError, MultiqfError, ParameterError
from .errors import check_int, check_real, check_type
from .gains import GainSet, click_probability

STRATEGY_FIRST = "first-K-minus-1"
STRATEGY_LAST = "last-only"
STRATEGY_IDEAL = "ideal"
STRATEGY_TWO_USER = "two-user-iterative"
STRATEGY_NAIVE = "naive"

#: Photon-regime guard: K * alpha2 / M must stay below this for the
#: linearized click model behind the closed-form bounds to apply.
PHOTON_REGIME_LIMIT = 0.1

#: Dark-count addend must exceed this multiple of the 4q^2 addend before the
#: bound is flagged as dark-count dominated (diagnostic only).
DOMINANCE_FACTOR = 10.0

_NORMAL = NormalDist()


@dataclass(frozen=True)
class ECCParams:
    """Distance parameter delta and rate c = M/N of the error-amplifying code."""

    delta: float
    c: float

    def __post_init__(self):
        check_real("delta", self.delta, 0.0, 1.0, "()")
        check_real("code rate c", self.c, 1.0, ends="()")

    @classmethod
    def from_delta(cls, delta: float) -> "ECCParams":
        """Rate implied by the distance parameter for random linear codes."""
        check_real("delta", delta, 0.0, 1.0, "()")
        inv = 1.0 + delta * math.log2(delta) + (1.0 - delta) * math.log2(1.0 - delta)
        if inv <= 0.0:
            raise ParameterError("the code rate diverges at delta = 1/2")
        return cls(delta=delta, c=1.0 / inv)


@dataclass(frozen=True)
class ProtocolParams:
    """Shared protocol-level parameters.

    ``eta`` excludes internal beamsplitter losses (those live in the gains);
    ``p_dark`` is the per-detector, per-pulse-slot dark-click probability.
    ``n_bits`` and ``p_dark`` may be NumPy arrays that broadcast against each
    other; ``bound_first_detectors``, ``bound_last_detector`` and
    ``ideal_bound`` then return arrays of that shape.
    """

    k: int
    n_bits: float
    ecc: ECCParams
    p_error: float
    eta: float = 1.0
    p_dark: float = 0.0
    epsilon: float = 1e-6

    def __post_init__(self):
        check_int("number of users k", self.k, 2)
        check_type("ecc", self.ecc, ECCParams)
        why = "raw message length must be >= 1, with a finite codeword length"
        check_real("n_bits", self.n_bits, 1, array=True, why=why)
        n_max = float(self.n_bits.max()) if isinstance(self.n_bits, np.ndarray) else self.n_bits
        check_real("codeword length", self.ecc.c * n_max, 1, why=why)
        check_real("p_error", self.p_error, 0.0, 1.0, "()")
        check_real("eta", self.eta, 0.0, 1.0, "(]")
        why = "p_dark must lie in [0, 1)"
        check_real("p_dark", self.p_dark, 0.0, 1.0, "[)", array=True, why=why)
        check_real("epsilon", self.epsilon, 0.0, 1.0, "()")

    @property
    def m_pulses(self) -> int | np.ndarray:
        """Codeword length M = round(c * N), at least 1; a float array for array N."""
        m = self.ecc.c * self.n_bits
        if isinstance(m, np.ndarray):
            return np.maximum(1.0, np.rint(m))
        return max(1, round(m))


@dataclass(frozen=True)
class BoundResult:
    """Photon-number bound, referee threshold, and qubit cost for one strategy.

    The numeric fields are arrays of one shape when the bound was computed
    from array parameters.
    """

    strategy: str
    alpha2: float
    threshold_r: float
    m_pulses: int
    q_qubits: float
    delta_cap: float
    dominance_ratio: float = float("nan")
    feasible: bool = True

    def __post_init__(self):
        a, m, q = self.alpha2, self.m_pulses, self.q_qubits
        # an array of feasible flags masks the elements that carry nan
        checked = a[self.feasible] if np.ndim(self.feasible) else a if self.feasible else ()
        if np.size(checked):
            check_real("alpha2", checked, 0.0, ends="()", array=True,
                       why="a feasible bound must carry a positive alpha2")
        # Sanity anchor in the long-codeword regime: the qubit count cannot
        # fall below half the standard alpha2 * log2(M) approximation.
        if isinstance(q, np.ndarray):
            low = np.any((m >= 1000) & (q < 0.5 * a * np.log2(m)))
        else:
            low = m >= 1000 and q < 0.5 * a * math.log2(m)
        if low:
            raise ParameterError("qubit count fell below the large-M sanity floor")

    @property
    def dominant_dark_term(self) -> bool:
        return self.dominance_ratio >= DOMINANCE_FACTOR

    def photon_load(self, k: int) -> float:
        """K * alpha2 / M, which the small-photon regime keeps below 0.1."""
        return k * self.alpha2 / self.m_pulses

    def within_validity(self, k: int) -> bool:
        """Small-photon-regime check K * alpha2 / M < 0.1 for this result."""
        return self.photon_load(k) < PHOTON_REGIME_LIMIT


def ideal_alpha2(k: int, ecc: ECCParams, p_error: float) -> float:
    """Lossless, noiseless photon-number requirement, independent of M."""
    check_int("number of users k", k, 2)
    check_type("ecc", ecc, ECCParams)
    check_real("p_error", p_error, 0.0, 1.0, "()")
    return k / (4.0 * (1.0 - ecc.delta) * (k - 1)) * math.log(1.0 / p_error)


def qubit_cost(alpha2, m_pulses, epsilon: float = 1e-6):
    """Transmitted qubits per user for a coherent fingerprint of alpha2 photons.

    The slack parameter is the smallest positive solution of

        2 exp(-a) (e a / (a + d))^(a + d) <= (epsilon / 2)^2,   a = alpha2,

    found by bisection on the (monotone decreasing) logarithm of the left
    side; the qubit count is then
    (a + d) log2(M + a + d - 1) + log2(2 d).  Returns ``(q, d)``.

    ``alpha2`` and ``m_pulses`` may be NumPy arrays that broadcast; the
    results are then arrays, elementwise bit-equal to scalar calls.
    """
    check_real("alpha2", alpha2, 0.0, ends="()", array=True, why="alpha2 must be positive")
    check_real("m_pulses", m_pulses, 1, array=True, why="need at least one pulse")
    check_real("epsilon", epsilon, 0.0, 1.0, "()")
    log_target = 2.0 * math.log(epsilon / 2.0)
    if isinstance(alpha2, np.ndarray) or isinstance(m_pulses, np.ndarray):
        return _qubit_cost_array(alpha2, m_pulses, log_target)
    a = float(alpha2)
    # log of the left side at d is c0 + (a + d) * (c1 - log(a + d)), grouped
    # as log(2) - a + (a + d) * (1 + log(a) - log(a + d)) rounds.
    log = math.log
    c0 = log(2.0) - a
    c1 = 1.0 + log(a)

    hi = 50.0 * (1.0 + a)
    for _ in range(200):
        s = a + hi
        if c0 + s * (c1 - log(s)) <= log_target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("no bracket for the qubit-count slack parameter")
    lo = 0.0
    while hi - lo > 1e-9 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        s = a + mid
        if c0 + s * (c1 - log(s)) <= log_target:
            hi = mid
        else:
            lo = mid
    delta_cap = hi
    q = (a + delta_cap) * math.log2(m_pulses + a + delta_cap - 1.0) + math.log2(2.0 * delta_cap)
    return q, delta_cap


#: Half-width, relative to s (|log s| + |c1 - log s|) + |value|, of the band
#: around log_target in which the array bisection re-decides its predicate
#: with math.log.  If np.log and math.log each err by at most 4 ulps, the two
#: predicate values differ by less than 2**-49 times that sum (the log
#: difference scaled by s, plus one rounding in each of the three later
#: operations); 2**-40 leaves a factor of 512 for libm error beyond that.
_LOG_BAND = 2.0**-40


def _log_lhs(c0: float, c1: float, s: float) -> float:
    """The bisection predicate's value c0 + s (c1 - log s), with math.log."""
    return c0 + s * (c1 - math.log(s))


def _map(fn, *xs: np.ndarray) -> np.ndarray:
    """``fn`` applied with Python floats to the elements of the 1-d ``xs``."""
    return np.fromiter(map(fn, *(x.tolist() for x in xs)), float, len(xs[0]))


def _qubit_cost_array(alpha2, m_pulses, log_target: float) -> tuple[np.ndarray, np.ndarray]:
    """``qubit_cost`` for broadcasting arrays: the scalar bisection in lockstep.

    Every element follows the scalar bracket and bisection steps; the
    predicate uses np.log and is re-decided with math.log where its value
    lies within ``_LOG_BAND`` of log_target, so each decision, and with it
    every result, equals the scalar one.  math.log and math.log2 also give
    the per-element constants and the final qubit count.
    """
    a, m = (np.asarray(x, dtype=float) for x in np.broadcast_arrays(alpha2, m_pulses))
    shape = a.shape
    a, m = a.ravel(), m.ravel()
    log = math.log
    c0 = log(2.0) - a
    c1 = 1.0 + _map(log, a)

    def satisfied(idx: np.ndarray, d: np.ndarray) -> np.ndarray:
        s = a[idx] + d
        log_s = np.log(s)
        t = c1[idx] - log_s
        value = c0[idx] + s * t
        ok = value <= log_target
        band = _LOG_BAND * (s * (np.abs(log_s) + np.abs(t)) + np.abs(value))
        near = np.flatnonzero(np.abs(value - log_target) <= band)
        if len(near):
            j = idx[near]
            args = zip(c0[j].tolist(), c1[j].tolist(), s[near].tolist())
            ok[near] = [_log_lhs(*v) <= log_target for v in args]
        return ok

    hi = 50.0 * (1.0 + a)
    idx = np.arange(len(a))
    for _ in range(200):
        idx = idx[~satisfied(idx, hi[idx])]
        if not len(idx):
            break
        hi[idx] *= 2.0
    else:
        raise ConvergenceError("no bracket for the qubit-count slack parameter")
    lo = np.zeros_like(a)
    idx = np.arange(len(a))
    while True:
        idx = idx[hi[idx] - lo[idx] > 1e-9 * np.maximum(hi[idx], 1.0)]
        if not len(idx):
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        ok = satisfied(idx, mid)
        hi[idx[ok]] = mid[ok]
        lo[idx[~ok]] = mid[~ok]
    q = (a + hi) * _map(math.log2, m + a + hi - 1.0) + _map(math.log2, 2.0 * hi)
    return q.reshape(shape), hi.reshape(shape)


def _costed(strategy: str, alpha2, threshold_r, m, epsilon: float, feasible=True,
            **extra) -> BoundResult:
    """The bound of ``alpha2`` photons per user, with its qubit count (nan,
    like alpha2, where an array ``feasible`` is False)."""
    if np.ndim(feasible):
        costs = qubit_cost(np.where(feasible, alpha2, 1.0), m, epsilon)
        q_qubits, delta_cap = (np.where(feasible, x, np.nan) for x in costs)
    else:
        q_qubits, delta_cap = qubit_cost(alpha2, m, epsilon)
    return BoundResult(strategy, alpha2, threshold_r, m, q_qubits, delta_cap, feasible=feasible,
                       **extra)


def _assemble(
    strategy: str,
    params: ProtocolParams,
    q: float,
    gain_diff: float,
    dark_weight: float,
    r_gain_sum: float,
    r_dark: float,
) -> BoundResult:
    """Shared tail-bound inversion for both realistic strategies.

    ``q`` and ``gain_diff`` parametrize the quadratic whose positive root is
    the detector-side photon number; ``dark_weight`` counts the detectors
    whose dark clicks enter the statistic.  Array ``params`` (N or p_dark)
    give array fields, elementwise equal to the per-point results.
    """
    delta = params.ecc.delta
    m = params.m_pulses
    ln_inv_p = math.log(1.0 / params.p_error)
    denom = (1.0 - delta) ** 2 * gain_diff**2
    q2_addend = 4.0 * q * q
    dark_addend = 2.0 * denom * dark_weight * m * params.p_dark * ln_inv_p
    sqrt = np.sqrt if isinstance(dark_addend, np.ndarray) else math.sqrt
    received = (4.0 * q + 2.0 * sqrt(q2_addend + dark_addend)) / denom
    alpha2 = received / params.eta
    threshold = 0.5 * received * r_gain_sum + r_dark
    dominance = dark_addend / q2_addend if q2_addend > 0 else float("inf")
    return _costed(strategy, alpha2, threshold, m, params.epsilon, dominance_ratio=dominance)


def bound_first_detectors(params: ProtocolParams, gains: GainSet) -> BoundResult:
    """Strategy counting clicks on the K-1 photon-gaining detectors."""
    check_type("params", params, ProtocolParams)
    check_type("gains", gains, GainSet)
    delta = params.ecc.delta
    diff = gains.g_d_first_min - gains.g_e_first
    if diff <= 0:
        raise FeasibilityError(
            "fingerprinting impossible for the first-detectors strategy: "
            f"min g_D[1,K-1] = {gains.g_d_first_min:.6g} must exceed "
            f"g_E[1,K-1] = {gains.g_e_first:.6g}"
        )
    q = (delta * gains.g_e_first + (1.0 - delta) * gains.g_d_first_min) * math.log(
        1.0 / params.p_error
    )
    return _assemble(
        STRATEGY_FIRST,
        params,
        q=q,
        gain_diff=diff,
        dark_weight=params.k - 1,
        r_gain_sum=(1.0 + delta) * gains.g_e_first + (1.0 - delta) * gains.g_d_first_min,
        r_dark=(params.k - 1) * params.m_pulses * params.p_dark,
    )


def bound_last_detector(params: ProtocolParams, gains: GainSet) -> BoundResult:
    """Strategy watching only the photon-losing detector."""
    check_type("params", params, ProtocolParams)
    check_type("gains", gains, GainSet)
    delta = params.ecc.delta
    diff = gains.g_e_last - gains.g_d_last_max
    if diff <= 0:
        raise FeasibilityError(
            "fingerprinting impossible for the last-detector strategy: "
            f"g_E[K] = {gains.g_e_last:.6g} must exceed "
            f"max g_D[K] = {gains.g_d_last_max:.6g}"
        )
    q = gains.g_e_last * math.log(1.0 / params.p_error)
    return _assemble(
        STRATEGY_LAST,
        params,
        q=q,
        gain_diff=diff,
        dark_weight=1.0,
        r_gain_sum=(1.0 + delta) * gains.g_e_last + (1.0 - delta) * gains.g_d_last_max,
        r_dark=params.m_pulses * params.p_dark,
    )


def ideal_bound(params: ProtocolParams) -> BoundResult:
    """Defectless-circuit reference curve (any-click rule, threshold 0)."""
    check_type("params", params, ProtocolParams)
    alpha2 = ideal_alpha2(params.k, params.ecc, params.p_error)
    return _costed(STRATEGY_IDEAL, alpha2, 0.0, params.m_pulses, params.epsilon)


# --------------------------------------------------------------------------
# Binomial inverse CDF


#: From 2**53 on, consecutive integers are not all floats, so a k window
#: there is not exact.
_MAX_K = 2**53

#: A tail mass above 1 is already wrong, and the lgamma cancellation yields
#: such masses from n of about 4e15 on; only a mass beyond the float range,
#: which cannot be compared with anything, is refused.
_LOG_MASS_MAX = math.log(sys.float_info.max)

#: log C(n, k) is cached in aligned blocks of k: block j covers
#: [j * _BLOCK, (j + 1) * _BLOCK), -inf past n (``_NO_TERMS`` is a block
#: wholly past n).  One search asks for the same (n, k) about 25 times (both
#: thresholds and every bisection step share n = M), and the lanes of one
#: ``_search_lanes`` group share the cache; 256 blocks hold 512 KiB, and with
#: the 64 lgamma(k + 1) blocks the caches hold at most 640 KiB.
_BLOCK = 256
_NO_TERMS = np.full(_BLOCK, -np.inf)
_NO_TERMS.flags.writeable = False


@functools.lru_cache(maxsize=64)
def _lgamma_k1_block(j: int) -> np.ndarray:
    """lgamma(k + 1) for every k in block j, unclipped: it is shared by all n.

    The array is read-only because the cache hands it to every caller.
    """
    ks = np.arange(j * _BLOCK + 1.0, (j + 1) * _BLOCK + 1.0)
    out = np.fromiter(map(math.lgamma, ks.tolist()), float, _BLOCK)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _log_binom_block(n: float, j: int) -> np.ndarray:
    """(lgamma(n + 1) - lgamma(k + 1)) - lgamma(n - k + 1) for the k of block
    j, -inf past n.

    The array is read-only because the cache hands it to every caller.
    """
    lg = math.lgamma
    ks = np.arange(j * _BLOCK, min((j + 1) * _BLOCK, n + 1.0), dtype=float)
    lgnk = np.fromiter(map(lg, (n - ks + 1.0).tolist()), float, len(ks))
    out = np.concatenate([(lg(n + 1.0) - _lgamma_k1_block(j)[: len(ks)]) - lgnk,
                          _NO_TERMS[len(ks) :]])
    out.flags.writeable = False
    return out


def _log_pmf_array(ks: range | np.ndarray, n: float, log_q: float, log_1mq: float) -> np.ndarray:
    """Binomial log-pmf over ``ks``, a run of consecutive integers in [0, n]
    (a ``range``, or an array of them).

    Rounds exactly like lgn - lg(k + 1) - lg(n - k + 1) + k log q + (n - k) log(1 - q)
    term by term; the lgamma prefix comes from the cached blocks.
    """
    first, count = int(ks[0]), len(ks)
    j0 = first // _BLOCK
    prefix = np.concatenate([_log_binom_block(n, j)
                             for j in range(j0, (first + count - 1) // _BLOCK + 1)])
    k = np.arange(first, first + count, dtype=float)
    out = k * log_q
    # float addition commutes: prefix + k log q, bit for bit
    out += prefix[first - j0 * _BLOCK : first - j0 * _BLOCK + count]
    out += (n - k) * log_1mq
    return out


#: Unit of the a-priori error bound of the fast window sum.  For L terms of at
#: most 1 (the largest is exp(0)), np.sum errs by at most (L - 1) 2**-53 of
#: the sum and math.fsum, exactly rounded, by 2**-53; log(sum) >= 0 and the
#: rounding of math.log and of the add of the maximum each cost at most an
#: ulp, so the two totals m + log(sum) differ by less than
#: 2**-53 (L + 4 log(sum) + 2 |total|) to first order.  The bound uses twice
#: that unit.
_SUM_BAND = 2.0**-52


def _logsumexp(values: np.ndarray, exact: bool) -> tuple[float, float]:
    """log of the sum of exp(values), and a bound on its distance from the
    total made with an exactly rounded sum (``exact``: that total, bound 0)."""
    m = float(values.max())
    if m == -math.inf:
        return -math.inf, 0.0
    terms = values - m
    np.exp(terms, out=terms)
    if exact:
        # fsum keeps the accumulation exactly rounded, but the lgamma
        # cancellation in _log_pmf_array errs in the log by ~1e-10 at n = 4e4,
        # 1e-6 at 4e8, 2e-4 at 4e10 and 3e-2 at 4e12 (against mpmath; figure
        # 14 reaches 4e12).
        return m + math.log(math.fsum(terms.tolist())), 0.0
    log_s = math.log(terms.sum())
    total = m + log_s
    return total, _SUM_BAND * (len(values) + 4.0 * log_s + 2.0 * abs(total) + 1.0)


_WIDTH = 256  # terms of a tail window's first try; it widens 4x at a time

#: Log-pmf terms evaluated past the tail window's end, on the side of k
#: that the walk reads when it leaves the window; figure 14's walks take
#: one or two steps.
_PAD = 16


def _log_tail(
    lo: float,
    hi: float,
    n: float,
    log_q: float,
    log_1mq: float,
    from_top: bool,
    exact: bool,
) -> tuple[float, float, np.ndarray, int]:
    """log of the pmf sum over the integer window [lo, hi], with its error bound.

    Terms are accumulated from the boundary nearest the mode and the window
    is widened until the last included term is negligible, so deep tails
    converge after a few hundred terms regardless of n.  The total lies
    within the returned bound of the one an exactly rounded sum gives
    (``exact``: that total, bound 0); a widening test within the bound is
    re-decided by an exact call.  One log-pmf array covers the final window
    and up to _PAD more terms past its fixed end (above hi from the top,
    below lo otherwise); it is returned with its first k.
    """
    width = _WIDTH
    while True:
        if from_top:
            a, b = max(lo, hi - width + 1), hi
        else:
            a, b = lo, min(hi, lo + width - 1)
        if b >= _MAX_K:
            raise ParameterError(f"binomial tail window reaches k = {b:.6g}, beyond 2**53")
        if from_top:
            first, last = a, min(b + _PAD, n, _MAX_K - 1)
        else:
            first, last = max(a - _PAD, 0.0), b
        logs = _log_pmf_array(range(int(first), int(last) + 1), n, log_q, log_1mq)
        window = logs[int(a - first) : int(b - first) + 1]
        total, err = _logsumexp(window, exact)
        if (a == lo and from_top) or (b == hi and not from_top):
            return total, err, logs, int(first)
        gap = float(window[0] if from_top else window[-1]) - total
        if not exact and abs(gap + 42.0) <= err + 2.0**-50 * abs(gap):
            return _log_tail(lo, hi, n, log_q, log_1mq, from_top, True)
        if gap < -42.0:
            return total, err, logs, int(first)
        width *= 4


def _mass(log_mass: float, n: float) -> float:
    if log_mass > _LOG_MASS_MAX:
        raise ParameterError(
            f"binomial mass exp({log_mass:.6g}) at n = {n:.6g} overflows: "
            "the lgamma log-pmf has lost its precision"
        )
    return math.exp(log_mass)


#: Relative fuzz so that exact-tie CDF values (the symmetric-binomial midpoint,
#: say) resolve like exact arithmetic; above the tail sums' error only for n < ~4e3.
_TIE_FUZZ = 5e-12


#: The Cornish-Fisher start's normal quantile, by p: a search asks for the
#: same two error targets again and again.
_normal_quantile = functools.lru_cache(maxsize=16)(_NORMAL.inv_cdf)


def binomial_inv_cdf(p: float, n: int, q: float) -> int:
    """Smallest k with Binomial(n, q) CDF(k) >= p.

    Stable for very large n: a Cornish-Fisher starting point is refined by
    exact probability-mass steps.  The walk tracks the smaller tail, summed
    in log space, so the comparison precision tracks the tail, not 1: the
    CDF F(k) for p <= 1/2 and the survival G(k) = 1 - F(k), carried as -G(k),
    for p > 1/2.  ``n`` is a positive integer, or an integral float.
    """
    why = "number of trials must be a positive integer"
    check_real("n", n, 1, why=why)
    if n != int(n):
        raise ParameterError(f"{why}, got {n!r}")
    n = int(n)
    check_real("p", p, 0.0, 1.0)
    check_real("q", q, 0.0, 1.0)
    if p <= 0.0 or q <= 0.0:
        return 0
    if q >= 1.0:
        return n
    if p >= 1.0:
        return n

    start = _start(p, n, q)
    try:
        return _walk(*start, exact=False)
    except _InDoubt:
        return _walk(*start, exact=True)


def _start(p: float, n: int, q: float) -> tuple[int, int, float, float, float]:
    """The walk's arguments: the Cornish-Fisher start k, n, log q,
    log(1 - q) and the target of h (see ``_walk``)."""
    log_q, log_1mq = math.log(q), math.log1p(-q)
    mean = n * q
    sd = math.sqrt(n * q * (1.0 - q))
    z = _normal_quantile(min(max(p, 1e-300), 1.0 - 1e-16))
    guess = mean + z * sd + (z * z - 1.0) * (1.0 - 2.0 * q) / 6.0
    k = int(min(max(round(guess), 0), n))
    if p > 0.5:
        # The extra 2^-53 absorbs the rounding of 1 - p itself, which
        # dominates the tie tolerance once the survival drops below ~1e-7.
        target = -((1.0 - p) * (1.0 + _TIE_FUZZ) + 2.0**-53)
    else:
        target = p * (1.0 - _TIE_FUZZ)
    return k, n, log_q, log_1mq, target


#: Log-pmf terms fetched at once when the walk leaves its array: a start
#: far from the answer then costs one array call per _WALK_BLOCK steps.
_WALK_BLOCK = 256


#: ``_inv_cdf_rows``' walk steps (figure 14's walks take up to three), the
#: rows of one chunk of its 2-d arrays and the fewest rows it takes (below
#: that the scalar function is faster).
_STEPS, _CHUNK, _MIN_ROWS = np.arange(3.0), 16, 16


class _InDoubt(Exception):
    """A comparison of the fast tail sum lies within its error bound."""


def _walk(k: int, n: int, log_q: float, log_1mq: float, target: float, exact: bool) -> int:
    """``binomial_inv_cdf``'s walk from the start k to the answer.

    h(k) is F(k), or -G(k) = F(k) - 1 for a target below 0: nondecreasing,
    one pmf per step of k.  Its tail comes from the fast sum unless
    ``exact``; ``err`` then bounds h's distance from the exactly summed
    walk's value, and a comparison within it raises ``_InDoubt``, so every
    decision that returns is the exact walk's.
    """
    nf = float(n)
    logs, first = None, k
    if k == n:
        h, err = (0.0 if target < 0.0 else 1.0), 0.0
    else:
        if target < 0.0:
            tail = _log_tail(k + 1.0, nf, nf, log_q, log_1mq, False, exact)
        else:
            tail = _log_tail(0.0, k, nf, log_q, log_1mq, True, exact)
        total, err, logs, first = tail
        if not exact and total + err > _LOG_MASS_MAX:
            raise _InDoubt  # the exact walk raises, or not, with the exact total
        h = _mass(total, n)
        # exp's rounding in both walks, and one subnormal ulp each near underflow
        err = h * (2.0 * err + 2.0**-50) + 2.0**-1073
        if target < 0.0:
            h = -h

    def pmf(kk: int, down: bool) -> float:
        nonlocal logs, first
        if logs is None or not 0 <= kk - first < len(logs):
            # the next _WALK_BLOCK terms on the walk's way; each rounds as
            # it would in a one-element array
            first = max(kk - _WALK_BLOCK + 1, 0) if down else kk
            ks = range(first, min(first + _WALK_BLOCK, n + 1))
            logs = _log_pmf_array(ks, nf, log_q, log_1mq)
        return _mass(logs.item(kk - first), n)

    def decided(h: float) -> float:
        """h, once its comparison with target is sure to be the exact walk's."""
        if not exact and not abs(h - target) > err:
            raise _InDoubt
        return h

    if decided(h) >= target:
        while k > 0:
            h_prev = h - pmf(k, True)
            err += 2.0**-51 * (abs(h_prev) + err)  # the rounding of both walks' steps
            if decided(h_prev) < target:
                return k
            h, k = h_prev, k - 1
        return 0
    while k < n:
        k += 1
        h += pmf(k, False)
        err += 2.0**-51 * (abs(h) + err)
        if decided(h) >= target:
            return k
    return n


def _inv_cdf_rows(p: np.ndarray, n: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``binomial_inv_cdf`` of each row of the 1-d arrays ``p``, ``n``, ``q``.

    Each row's first tail window with _PAD more terms on each side is a row
    of a 2-d log-pmf array, _CHUNK rows at a time, rounded as
    ``_log_pmf_array`` rounds it from the cached blocks; the zeros past a
    short window change the order of np.sum's additions, not its error
    bound.  Each row then walks len(_STEPS) pmfs at most, one cumsum adding
    them in the scalar loop's order; a window that must widen takes the
    scalar tail and walk.  A row the scalar treats specially, or whose mass
    may overflow, or one of whose tests lies within its error bound, goes to
    ``binomial_inv_cdf``, so each k is the scalar one.  The k are floats.
    """
    if len(n) < _MIN_ROWS:  # too few rows to pay for the 2-d arrays
        return _map(lambda pp, nn, qq: binomial_inv_cdf(pp, int(nn), qq), p, n, q)
    p0, n0, q0 = p, n, q
    k = np.empty_like(n)
    rows = np.flatnonzero((p > 0.0) & (q > 0.0) & (q < 1.0) & (p < 1.0) & (n < _MAX_K))
    p, n, q = p[rows], n[rows], q[rows]
    log_q, log_1mq = _map(math.log, q), _map(math.log1p, -q)
    z = _map(_normal_quantile, np.minimum(np.maximum(p, 1e-300), 1.0 - 1e-16))
    mean = n * q
    guess = mean + z * np.sqrt(mean * (1.0 - q)) + (z * z - 1.0) * (1.0 - 2.0 * q) / 6.0
    start = np.minimum(np.maximum(np.rint(guess), 0.0), n)
    upper = p > 0.5  # the survival: its window lies above the start
    target = np.where(upper, -((1.0 - p) * (1.0 + _TIE_FUZZ) + 2.0**-53), p * (1.0 - _TIE_FUZZ))
    a = np.where(upper, np.minimum(start + 1.0, n), np.maximum(start - (_WIDTH - 1), 0.0))
    b = np.where(upper, np.minimum(n, start + _WIDTH), start)
    k0 = a - _PAD  # the k of column 0
    first = np.maximum(np.where(upper, k0, a), 0.0) - k0  # the columns with a log-pmf
    last = np.minimum(np.where(upper, b, start + _PAD), n) - k0
    size = b - a + 1.0

    cols, steps, span = _WIDTH + 2 * _PAD, len(_STEPS), 3  # span: blocks from column 0's
    keys = zip(n.tolist(), *(x.astype(int).tolist() for x in (k0, first + k0, last + k0)))
    keys = [(nn, j) if lo // _BLOCK <= j <= hi // _BLOCK else None
            for nn, c, lo, hi in keys for j in range(c // _BLOCK, c // _BLOCK + span)]
    at = _BLOCK * span * (np.arange(len(rows)) % _CHUNK) + (k0 % _BLOCK).astype(int)
    around = (start - k0).astype(int)[:, None] + np.arange(1 - steps, steps + 1)
    edge = np.where(upper, size - 1.0, 0.0).astype(int)
    top, sums, gap = np.empty((3, len(rows)))
    near = np.empty((len(rows), 2 * steps))  # the terms around the start
    for c in range(0, len(rows), _CHUNK):
        r = slice(c, c + _CHUNK)
        width = int(size[r].max())  # the chunk's widest window
        logs = k0[r, None] + np.arange(width + 2 * _PAD)  # k
        n_k = (n[r, None] - logs) * log_1mq[r, None]
        logs *= log_q[r, None]
        flat = np.concatenate([_NO_TERMS if key is None else _log_binom_block(*key)
                               for key in keys[c * span : (c + _CHUNK) * span]])
        rows_of = as_strided(flat, (len(flat) - cols + 1, logs.shape[1]), flat.strides * 2,
                             writeable=False)
        logs += rows_of[at[r]]
        logs += n_k
        i = np.arange(len(logs))
        near[r] = logs[i[:, None], around[r]]
        window = np.where(np.arange(width) < size[r, None], logs[:, _PAD : _PAD + width], -np.inf)
        top[r] = window.max(axis=1)
        gap[r] = window[i, edge[r]]
        window -= top[r, None]
        sums[r] = np.exp(window, out=window).sum(axis=1)
    log_s = _map(math.log, sums)
    total = top + log_s
    err = _SUM_BAND * (size + 4.0 * log_s + 2.0 * np.abs(total) + 1.0)
    gap -= total
    sure = np.abs(gap + 42.0) > err + 2.0**-50 * np.abs(gap)
    wide = sure & (gap >= -42.0)
    doubt = ~np.where(upper, b == n, a == 0.0) & (~sure | wide) | (start == n) | ~(
        total + err <= _LOG_MASS_MAX)
    h = _map(math.exp, np.where(doubt, 0.0, total))
    err = h * (2.0 * err + 2.0**-50) + 2.0**-1073
    h = np.where(upper, -h, h)

    # the walk: step j reads the pmf at k - j (down) or k + 1 + j (up)
    down = h >= target
    doubt |= ~(np.abs(h - target) > err)
    sign = np.where(down, -1.0, 1.0)[:, None]
    col = (start - k0 + ~down)[:, None] + sign * _STEPS
    lg = np.where(down[:, None], near[:, steps - 1 :: -1], near[:, steps:])
    bad = (col < first[:, None]) | (col > last[:, None]) | ~(lg <= _LOG_MASS_MAX)
    pmf = _map(math.exp, np.where(bad, -np.inf, lg).ravel()).reshape(lg.shape)
    hs = np.cumsum(np.hstack([h[:, None], sign * pmf]), axis=1)
    for j in range(1, steps + 1):  # err in the scalar's steps
        err = err + 2.0**-51 * (np.abs(hs[:, j]) + err)
        bad[:, j - 1] |= ~(np.abs(hs[:, j] - target) > err)
    hit = (hs[:, 1:] < target[:, None]) == down[:, None]
    moved = start[:, None] + sign * (1.0 + _STEPS)
    stop = hit | (moved == np.where(down, 0.0, n)[:, None])
    at = np.arange(len(rows)), stop.argmax(axis=1)
    zero = down & (start == 0.0)  # the scalar's walk down from 0 stops at once
    doubt |= ~zero & (~stop[at] | (np.cumsum(bad, axis=1)[at] > 0))
    k[rows] = np.where(zero, 0.0, moved[at] + (down & hit[at]))
    fallback = np.ones(len(k), dtype=bool)
    fallback[rows[~doubt]] = False
    for i in rows[doubt & wide].tolist():
        try:
            k[i] = _walk(*_start(p0[i].item(), int(n0[i]), q0[i].item()), exact=False)
            fallback[i] = False
        except _InDoubt:
            pass
    for i in np.flatnonzero(fallback).tolist():
        k[i] = binomial_inv_cdf(p0[i].item(), int(n0[i]), q0[i].item())
    return k


# --------------------------------------------------------------------------
# Iterative two-user threshold search and the naive multi-user composition


def _two_user_thresholds(alpha2, m, v: float, delta: float, p_dark, p_error_equal: float,
                         p_error_diff: float) -> tuple[np.ndarray, np.ndarray]:
    """Equal- and different-sequence thresholds of each lane (``alpha2``,
    ``m`` and ``p_dark`` broadcast) at the detector-side ``alpha2``, so the
    click model takes eta = 1; both quantiles of every lane in one
    ``_inv_cdf_rows`` call."""
    shape = np.broadcast_shapes(np.shape(alpha2), np.shape(m), np.shape(p_dark))
    alpha2, m, p_dark = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
                         for x in (alpha2, m, p_dark))
    click = lambda mu, pd: click_probability(mu, 1.0, pd)  # noqa: E731
    p_e = _map(click, 2.0 * (1.0 - v) * alpha2 / m, p_dark)
    p_d = _map(click, 2.0 * v * alpha2 / m, p_dark)
    mix = np.minimum(1.0, (1.0 - delta) * p_d + delta * p_e)
    k = _inv_cdf_rows(np.repeat([1.0 - p_error_equal, p_error_diff], len(m)),
                      np.concatenate([m, m]), np.concatenate([p_e, mix]))
    return k[: len(m)].reshape(shape), (k[len(m) :] - 1).reshape(shape)


#: Distinct codeword lengths searched together.  A group's log C(n, k)
#: blocks (at most 133 at figure 14's presets) must fit in the 256-block
#: cache, or its search evicts and rebuilds them.
_LANE_M = 32


def _search_lanes(m, p_dark, v, delta, step, alpha2_cap, pe_eq, pe_df):
    """``algorithm_two_user``'s search of each lane (1-d ``m``, ``p_dark``):
    its crossing ``hi``, the different-sequence threshold there, and its
    ``FeasibilityError`` if it cannot cross, by lane.

    Lanes are taken in order of M, in groups of _LANE_M distinct M whose
    lanes take the scalar steps in lockstep, one threshold pair per lane and
    round.  Raises a lane's other error, the first in lane order.
    """
    hi, lo, r_d, errors = np.zeros(len(m)), np.zeros(len(m)), np.zeros(len(m)), {}

    def search(lanes: np.ndarray) -> None:
        hi[lanes], lo[lanes] = step, 0.0
        r_e, r = _two_user_thresholds(0.0, m[lanes], v, delta, p_dark[lanes], pe_eq, pe_df)
        for lane in lanes[r >= r_e].tolist():
            errors[lane] = ConvergenceError("threshold search degenerate: crossing at zero photons")
        live, bracket = lanes[r < r_e], np.ones(np.count_nonzero(r < r_e), dtype=bool)
        while live.size:
            h, low = hi[live], lo[live]
            mid = np.minimum(np.maximum(low + step * np.rint((h - low) / (2.0 * step)), low + step),
                             h - step)
            x = np.where(bracket, h, mid)
            r_e, r = _two_user_thresholds(x, m[live], v, delta, p_dark[live], pe_eq, pe_df)
            ok = r >= r_e
            grow = bracket & ~ok
            full = grow & (r_e == m[live])
            capped = grow & ~full & (h > alpha2_cap)
            for i in np.flatnonzero(full | capped).tolist():
                errors[int(live[i])] = FeasibilityError(
                    f"no threshold crossing possible at M = {int(m[live[i]])}: the equal-sequence "
                    f"threshold reaches M at alpha2 = {h[i]:.4g}, and the different-sequence one "
                    "stays below M") if full[i] else ConvergenceError(
                    f"no threshold crossing up to alpha2 = {h[i]:.4g}; "
                    f"remaining gap r_E - r_D = {int(r_e[i] - r[i])}")
            hi[live[ok]], r_d[live[ok]], lo[live[~ok]] = x[ok], r[ok], x[~ok]
            hi[live[grow]] = 2.0 * h[grow]
            bracket = grow & ~full & ~capped
            keep = bracket | ~grow & (hi[live] - lo[live] > step * 1.0001)
            live, bracket = live[keep], bracket[keep]

    def raise_other(lanes: np.ndarray) -> None:
        for error in map(errors.get, lanes.tolist()):
            if error is not None and not isinstance(error, FeasibilityError):
                raise error

    order = np.argsort(m, kind="stable")
    new_m = np.flatnonzero(np.diff(m[order], prepend=np.nan))  # a lane of each M
    for group in np.split(order, new_m[_LANE_M::_LANE_M]):
        try:
            search(group)
        except MultiqfError:  # a quantile raised: search lane by lane, as each point would
            for i in range(len(group)):
                search(group[i : i + 1])
                raise_other(group[i : i + 1])
        raise_other(group)
    return hi, r_d, errors


def algorithm_two_user(
    params: ProtocolParams,
    v: float,
    step: float = 1.0,
    alpha2_cap: float = 1e6,
    p_error_equal: float | None = None,
    p_error_diff: float | None = None,
) -> BoundResult:
    """Iterative two-user photon-number search with exact binomial quantiles.

    Raises the (detector-side) photon number from zero in increments of
    ``step`` until the equal-sequence and different-sequence thresholds
    meet; the returned ``alpha2`` is scaled to the transmitted number by
    the combined efficiency.  The crossing is located by bisection over the
    same step grid, which returns the first grid point whose
    different-sequence threshold has caught up with the equal one.

    Raises ``FeasibilityError`` once the equal-sequence threshold reaches M:
    the different-sequence threshold is at most M - 1, and the equal one
    does not decrease as the photon number grows, so they cannot meet.
    Array ``params`` (N or p_dark) search every point at once, as scalar
    calls would; a point that cannot cross is masked (``feasible`` False,
    nan fields), and another error, the first in order of M, is raised.
    """
    check_type("params", params, ProtocolParams)
    if params.k != 2:
        raise ParameterError("the iterative threshold search is a two-user method")
    check_real("visibility v", v, 0.5, 1.0, "(]")
    check_real("step", step, 0.0, ends="()")
    check_real("alpha2_cap", alpha2_cap, 0.0, ends="()")
    pe_eq = params.p_error if p_error_equal is None else p_error_equal
    pe_df = params.p_error if p_error_diff is None else p_error_diff
    check_real("p_error_equal", pe_eq, 0.0, 1.0, "()")
    check_real("p_error_diff", pe_df, 0.0, 1.0, "()")
    m = params.m_pulses
    shape = np.broadcast_shapes(np.shape(m), np.shape(params.p_dark))
    lanes = (np.broadcast_to(np.asarray(x, dtype=float), shape).ravel() for x in (m, params.p_dark))
    hi, r_d, infeasible = _search_lanes(*lanes, v, params.ecc.delta, step, alpha2_cap, pe_eq, pe_df)
    if not shape:
        if infeasible:
            raise infeasible[0]
        return _costed(STRATEGY_TWO_USER, hi.item() / params.eta, float(r_d.item()), m,
                       params.epsilon)
    feasible = np.ones(len(hi), dtype=bool)
    feasible[list(infeasible)] = False
    alpha2, r = (np.where(feasible, x, np.nan).reshape(shape) for x in (hi / params.eta, r_d))
    return _costed(STRATEGY_TWO_USER, alpha2, r, np.broadcast_to(m, shape), params.epsilon,
                   feasible=feasible.reshape(shape))


def naive_error_probability(k: int, p_error: float) -> float:
    """Per-pair error budget of the repeated-pairwise protocol."""
    check_int("number of users k", k, 2)
    check_real("p_error", p_error, 0.0, 1.0, "()")
    return -math.expm1(math.log1p(-p_error) / (k - 1))


def naive_asymmetric_probs(k: int, p_error: float) -> tuple[float, float]:
    """Worst-case split (equal-case, different-case) per-pair error budgets."""
    p_equal = naive_error_probability(k, p_error)
    p_diff = p_error / (1.0 - p_error) ** ((k - 2) / (k - 1))
    return p_equal, p_diff


def naive_protocol(
    params: ProtocolParams,
    v: float,
    step: float = 1.0,
    p_error_equal: float | None = None,
    p_error_diff: float | None = None,
) -> BoundResult:
    """Repeated-pairwise multi-user protocol built from two-user runs.

    Runs the two-user search at the tightened per-pair error probability
    and scales the photon number by 2(K-1)/K because all interior users
    transmit their pulse train twice.
    """
    check_type("params", params, ProtocolParams)
    k = params.k
    if p_error_equal is None and p_error_diff is None:
        p_pair = naive_error_probability(k, params.p_error)
        p_error_equal = p_error_diff = p_pair
    two_user = replace(params, k=2)
    res = algorithm_two_user(
        two_user,
        v,
        step=step,
        p_error_equal=p_error_equal,
        p_error_diff=p_error_diff,
    )
    alpha2 = res.alpha2 * 2.0 * (k - 1) / k
    return _costed(STRATEGY_NAIVE, alpha2, res.threshold_r, params.m_pulses, params.epsilon)


def max_users_energy_advantage(
    ecc: ECCParams, v_last: float, p_error: float, mu_dark: float
) -> float:
    """Largest user count with an energy advantage over the classical limit.

    Valid in the dark-count-dominated long-message regime, for a fixed
    worst-case visibility of the photon-losing detector.
    """
    check_type("ecc", ecc, ECCParams)
    check_real("visibility v_last", v_last, 0.0, 1.0, "(]")
    check_real("mu_dark", mu_dark, 0.0, ends="()")
    num = (1.0 - ecc.delta) ** 2 * (2.0 * v_last - 1.0) ** 2 * _limit_coefficient(p_error) ** 2
    return num / (2.0 * mu_dark * ecc.c * math.log(2.0 + 1.0 / p_error))
