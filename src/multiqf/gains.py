"""Output photon numbers, gain families, and generalized visibilities.

A "gain" is the ratio of the mean photon number at an output detector (or
group of detectors) to the mean photon number of one input pulse.  Gains
are evaluated for the all-equal input pattern and for phase patterns with
one or more inputs sign-flipped; the worst case over single-flip patterns
drives the protocol bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, ParameterError

#: Sentinel accepted wherever a phase pattern is expected: all inputs equal.
EQUAL = None


@dataclass(frozen=True, slots=True)
class PhasePattern:
    """Vector of +/-1 input phase labels with its minority count L."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.labels or any(v not in (-1, 1) for v in self.labels):
            raise ParameterError("phase labels must be +1 or -1")

    @property
    def l_count(self) -> int:
        plus = sum(1 for v in self.labels if v == 1)
        return min(plus, len(self.labels) - plus)


@dataclass(frozen=True)
class GainSet:
    """The four gain aggregates of one circuit, plus the single-flip gains.

    ``last_label`` is the 1-based index of the photon-keeping output (the
    detector that loses photons when inputs differ); all "first" gains sum
    over the remaining K-1 outputs.  ``g_d_first`` and ``g_d_last`` are
    ``(K,)`` arrays of the first-group and last-detector gains with input
    ``j`` flipped, at index ``j``.
    """

    k: int
    last_label: int
    g_e_first: float
    g_d_first_min: float
    g_e_last: float
    g_d_last_max: float
    g_d_first: np.ndarray
    g_d_last: np.ndarray

    @property
    def worst_pattern_first(self) -> int:
        """Flipped input minimizing the first-group difference gain (first on ties)."""
        return int(np.argmin(self.g_d_first))

    @property
    def worst_pattern_last(self) -> int:
        """Flipped input maximizing the last-detector difference gain (first on ties)."""
        return int(np.argmax(self.g_d_last))


def output_photon_numbers(
    transfer: np.ndarray, pattern, mu_in: float
) -> np.ndarray:
    """Mean photon number at each output for +/-sqrt(mu_in) inputs."""
    t = np.asarray(transfer)
    k = t.shape[0]
    if mu_in <= 0:
        raise ParameterError("mu_in must be positive")
    if pattern is EQUAL:
        labels = np.ones(k)
    else:
        labels = np.asarray(getattr(pattern, "labels", pattern), dtype=float)
        if labels.shape != (k,):
            raise ParameterError(f"pattern length {labels.shape} != dimension {k}")
    amp = t @ (labels * math.sqrt(mu_in))
    return np.abs(amp) ** 2


def find_last_label(transfer: np.ndarray) -> int:
    """1-based index of the output that keeps photons for all-equal inputs."""
    t = np.asarray(transfer)
    return int(np.argmax(np.abs(t.sum(axis=1)))) + 1


def _single_flip_gains(transfers: np.ndarray, last: int) -> tuple[np.ndarray, np.ndarray]:
    """First-group and last-detector gains, per unit mu_in, of an ``(n, K, K)``
    stack: ``(K + 1, n)`` each, row 0 for all inputs equal and row ``1 + j``
    for input ``j`` flipped.  All-equal output amplitudes are the row sums
    ``s``; a flip of input ``j`` makes them ``s - 2 T[:, :, j]``.

    A flip changes only the outputs whose column ``j`` is nonzero in some
    realization of the stack, so only those entries of the all-equal
    ``mu`` are recomputed; elsewhere ``s - 2 * 0`` is ``s``.  The copy of
    ``mu`` keeps its memory order, so ``mu.sum(axis=1)`` adds in the same
    order as over a dense recomputation: for the row-first stacks of
    ``noise.realize_batch`` ``s`` is F-ordered, and a C-ordered ``mu``
    would be summed pairwise and round differently."""
    n, k, _ = transfers.shape
    s = transfers.sum(axis=2)
    support = transfers.any(axis=0)  # (K, K): output a reads input j
    mu_equal = s.real**2 + s.imag**2
    g_first, g_last = np.empty((2, k + 1, n))
    for j in range(k + 1):
        if j == 0:
            mu = mu_equal
        else:
            rows = np.flatnonzero(support[:, j - 1])
            amp = s[:, rows] - 2.0 * transfers[:, rows, j - 1]
            mu = mu_equal.copy(order="K")
            mu[:, rows] = amp.real**2 + amp.imag**2
        g_last[j] = mu[:, last]
        g_first[j] = mu.sum(axis=1) - g_last[j]
    return g_first, g_last


def _last_label(last_label: int | None, transfer: np.ndarray) -> int:
    """``last_label``, checked, or else the photon-keeping output of ``transfer``."""
    k = transfer.shape[0]
    last_label = find_last_label(transfer) if last_label is None else last_label
    if not (isinstance(last_label, (int, np.integer)) and 1 <= last_label <= k):
        raise ParameterError(f"last_label must be an integer in 1..{k}, got {last_label!r}")
    return last_label


def gain_set(transfer: np.ndarray, last_label: int | None = None) -> GainSet:
    """Evaluate the four gain aggregates from the K single-flip patterns.

    Amplitudes come from one product with the pattern columns: in an ideal
    circuit all single-flip patterns tie, and its rounding picks the worst
    pattern ``mcsim`` samples (``batch_gain_set`` rounds differently).
    """
    t = np.asarray(transfer, dtype=complex)
    k = t.shape[0]
    last_label = _last_label(last_label, t)
    cols = np.ones((k, k + 1))
    cols[np.arange(k), np.arange(1, k + 1)] = -1.0
    mu = np.abs(t @ cols) ** 2  # per unit mu_in; gains are mu_in-independent
    g_last = mu[last_label - 1, :, None]
    return _mean_gain_set(k, last_label, mu.sum(axis=0)[:, None] - g_last, g_last)[0]


def _mean_gain_set(k, last_label, g_first, g_last) -> tuple[GainSet, tuple]:
    """Average of ``(K + 1, n)`` gain tables over their n realizations, each
    extremized over its own patterns first, and those per-realization aggregates."""
    each = (g_first[0], g_first[1:].min(axis=0), g_last[0], g_last[1:].max(axis=0))
    mean = GainSet(
        k, last_label, *(float(a.mean()) for a in each),
        g_d_first=g_first[1:].mean(axis=1), g_d_last=g_last[1:].mean(axis=1),
    )
    return mean, each


def ideal_gain_set(k: int) -> GainSet:
    """Closed-form gains of any ideal lossless design: (0, 4(K-1)/K, K, (K-2)^2/K)."""
    if k < 2:
        raise InvalidDimensionError(f"need K >= 2, got {k}")
    g_d_first = 4.0 * (k - 1) / k
    g_d_last = (k - 2) ** 2 / k
    return GainSet(
        k=k,
        last_label=k,
        g_e_first=0.0,
        g_d_first_min=g_d_first,
        g_e_last=float(k),
        g_d_last_max=g_d_last,
        g_d_first=np.full(k, g_d_first),
        g_d_last=np.full(k, g_d_last),
    )


def visibilities(gains: GainSet) -> tuple[float, float]:
    """Generalized visibilities (v_first, v_last) of a gain set.

    Both normalize the realistic gain difference by its ideal value
    4(K-1)/K, reducing to the standard two-detector contrast at K=2.
    """
    if gains.k < 2:
        raise InvalidDimensionError(f"need K >= 2, got {gains.k}")
    return _visibilities(
        gains.k, gains.g_e_first, gains.g_d_first_min, gains.g_e_last, gains.g_d_last_max
    )


def _visibilities(k, g_e_first, g_d_first_min, g_e_last, g_d_last_max):
    """``visibilities`` of the four aggregates, scalars or per-realization arrays."""
    scale = k / (4.0 * (k - 1))
    v_first = 0.5 * (1.0 + scale * (g_d_first_min - g_e_first))
    v_last = 0.5 * (1.0 + scale * (g_e_last - g_d_last_max))
    return v_first, v_last


@dataclass(frozen=True)
class BatchGains:
    """Realization-averaged gains plus per-realization visibility spread.

    The headline visibilities are computed from the averaged gains; the
    per-realization visibilities (column 0: first group, column 1: last
    detector) only feed the standard deviations.
    """

    mean: GainSet
    v_first: float
    v_last: float
    v_first_sd: float
    v_last_sd: float
    per_realization: np.ndarray


def batch_gain_set(matrices: np.ndarray, last_label: int | None = None) -> BatchGains:
    """Average gain aggregates over a batch of realized transfer matrices.

    Each realization is extremized over its own K single-flip patterns
    before averaging, mirroring how a per-experiment worst case would be
    measured.
    """
    matrices = np.asarray(matrices)
    if matrices.ndim != 3:
        raise ParameterError("expected a (n, K, K) stack of matrices")
    n, k, _ = matrices.shape
    last_label = _last_label(last_label, matrices[0])
    g_first, g_last = _single_flip_gains(matrices, last_label - 1)
    mean, each = _mean_gain_set(k, last_label, g_first, g_last)
    vis = np.column_stack(_visibilities(k, *each))
    v_first, v_last = visibilities(mean)
    return BatchGains(
        mean=mean,
        v_first=v_first,
        v_last=v_last,
        v_first_sd=float(vis[:, 0].std(ddof=1)) if n > 1 else 0.0,
        v_last_sd=float(vis[:, 1].std(ddof=1)) if n > 1 else 0.0,
        per_realization=vis,
    )


def worst_case_pattern_scan(
    transfer: np.ndarray,
    last_label: int | None = None,
    max_l: int = 1,
    pattern_budget: int = 500_000,
) -> list[tuple[PhasePattern, float, float]]:
    """Gains for every pattern with minority count L <= max_l.

    Patterns are enumerated up to the global sign flip (the first label is
    pinned to +1), since opposite patterns produce identical photon
    statistics.  Refuses enumerations larger than ``pattern_budget``.
    """
    t = np.asarray(transfer, dtype=complex)
    k = t.shape[0]
    last = _last_label(last_label, t) - 1
    if max_l < 1 or max_l > k // 2:
        raise ParameterError(f"max_l must be in 1..{k // 2}")
    total = sum(math.comb(k - 1, l) for l in range(1, max_l + 1))
    if total > pattern_budget:
        raise ParameterError(
            f"{total} patterns exceed the budget of {pattern_budget}; "
            "raise pattern_budget to force the scan"
        )

    rows = []
    for l in range(1, max_l + 1):
        for flips in itertools.combinations(range(1, k), l):
            labels = np.ones(k)
            labels[list(flips)] = -1.0
            mu = np.abs(t @ labels) ** 2
            g_last = float(mu[last])
            rows.append(
                (PhasePattern(tuple(int(v) for v in labels)), float(mu.sum() - g_last), g_last)
            )
    return rows
