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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .circuits import _check_dim
from .errors import ParameterError, check_int, check_real, check_type

#: Sentinel accepted wherever a phase pattern is expected: all inputs equal.
EQUAL = None


@dataclass(frozen=True, slots=True)
class PhasePattern:
    """Vector of +/-1 input phase labels with its minority count L."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = self.labels
        if not (isinstance(labels, tuple) and labels
                and all(v in (-1, 1) and not isinstance(v, bool) for v in labels)):
            raise ParameterError(f"phase labels must be a tuple of +1 and -1, got {labels!r}")

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
    ``j`` flipped, at index ``j``.  Every gain is a finite number >= 0.
    """

    k: int
    last_label: int
    g_e_first: float
    g_d_first_min: float
    g_e_last: float
    g_d_last_max: float
    g_d_first: np.ndarray
    g_d_last: np.ndarray

    def __post_init__(self):
        check_int("k", self.k, 2)
        check_int("last_label", self.last_label, 1, self.k)
        for name in ("g_e_first", "g_d_first_min", "g_e_last", "g_d_last_max", "g_d_first",
                     "g_d_last"):
            check_real(name, getattr(self, name), 0.0, array=True)
        if not np.shape(self.g_d_first) == np.shape(self.g_d_last) == (self.k,):
            raise ParameterError(f"g_d_first and g_d_last must be ({self.k},) arrays")

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
    """Mean photon number at each output for +/-sqrt(mu_in) inputs (zeros at 0)."""
    t = _check_transfer(transfer)
    k = t.shape[0]
    check_real("mu_in", mu_in, 0.0, why="mu_in must be nonnegative")
    if pattern is EQUAL:
        labels = np.ones(k)
    else:
        labels = np.asarray(getattr(pattern, "labels", pattern))
        if labels.shape != (k,) or labels.dtype.kind not in "iuf" or not np.isfinite(labels).all():
            raise ParameterError(f"pattern must hold {k} finite real labels, got {pattern!r}")
        labels = labels.astype(float)
    amp = t @ (labels * math.sqrt(mu_in))
    return np.abs(amp) ** 2


def click_probability(mu, eta: float, p_dark):
    """Click probability of a detector in a pulse slot of mean photon number
    ``mu`` (scalar or array): 1 - exp(-eta * mu), OR-ed with a dark click."""
    expm1 = np.expm1 if isinstance(mu, np.ndarray) else math.expm1
    p = -expm1(-eta * mu)
    return 1.0 - (1.0 - p) * (1.0 - p_dark)


def find_last_label(transfer: np.ndarray) -> int:
    """1-based index of the output that keeps photons for all-equal inputs."""
    t = _check_transfer(transfer)
    return int(np.argmax(np.abs(t.sum(axis=1)))) + 1


def _check_transfer(transfer) -> np.ndarray:
    """``transfer`` as an array, if it is a nonempty square matrix of finite numbers."""
    try:
        t = np.asarray(transfer)
    except ValueError:  # ragged rows
        t = np.array(())
    if not (t.ndim == 2 and 0 < len(t) == t.shape[1] and t.dtype.kind in "iufc"
            and np.isfinite(t).all()):
        raise ParameterError("transfer must be a square matrix of finite numbers, "
                             f"got shape {t.shape} of {t.dtype}")
    return t


def _single_flip_gains(transfers: np.ndarray, last: int) -> tuple[np.ndarray, np.ndarray]:
    """First-group and last-detector gains, per unit mu_in, of an ``(n, K, K)``
    stack: ``(K + 1, n)`` each, row 0 for all inputs equal and row ``1 + j``
    for input ``j`` flipped.  All-equal output amplitudes are the row sums
    ``s``; a flip of input ``j`` makes them ``s - 2 T[:, :, j]``.

    A flip changes only the outputs whose column ``j`` is nonzero in some
    realization of the stack, so only those entries of the all-equal
    ``mu`` are recomputed; elsewhere ``s - 2 * 0`` is ``s``.  The copy of
    ``mu`` keeps its memory order, so its row sums add in the same order
    as over a dense recomputation (``_add_columns``).

    Each realization's gains depend only on its own matrix, not on the
    stack around it, so a batch can be reduced in chunks and the tables
    joined along their second axis."""
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
        g_first[j] = _add_columns(mu) - g_last[j]
    return g_first, g_last


def _add_columns(mu: np.ndarray) -> np.ndarray:
    """Row sums of an ``(n, K)`` table, adding its K columns one after another.

    That is how numpy sums an F-ordered table of two or more rows, such as
    the ``mu`` of a row-first stack from ``noise.realize_batch``.  A single
    row, or a C-ordered table, numpy would sum pairwise, which rounds
    differently from K = 8 on; a running sum keeps the order there, so a
    realization's gains do not depend on the size or layout of its stack.
    """
    if len(mu) > 1 and mu.flags.f_contiguous:
        return mu.sum(axis=1)
    return np.cumsum(mu, axis=1)[:, -1]


def _last_label(last_label: int | None, transfer: np.ndarray) -> int:
    """``last_label``, checked, or else the photon-keeping output of ``transfer``."""
    k = transfer.shape[0]
    last_label = find_last_label(transfer) if last_label is None else last_label
    check_int("last_label", last_label, 1, k)
    return last_label


def gain_set(transfer: np.ndarray, last_label: int | None = None) -> GainSet:
    """Evaluate the four gain aggregates from the K single-flip patterns.

    Amplitudes come from one product with the pattern columns: in an ideal
    circuit all single-flip patterns tie, and its rounding picks the worst
    pattern ``mcsim`` samples (``batch_gain_set`` rounds differently).
    """
    t = np.asarray(_check_transfer(transfer), dtype=complex)
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
    _check_dim(k)
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
    check_type("gains", gains, GainSet)
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
    return streamed_gain_set([matrices], last_label)


def streamed_gain_set(stacks: Iterable[np.ndarray], last_label: int | None = None) -> BatchGains:
    """``batch_gain_set`` of the realizations of several stacks, in order.

    Each stack is reduced to its ``(K + 1, n)`` gain tables before the next
    is taken, so a generator of stacks keeps one alive at a time.  A
    realization's tables depend only on its own matrix, and ``last_label``
    defaults to that of the first realization, so the result is
    bit-identical to ``batch_gain_set`` of the concatenated stack.
    """
    tables, shape = [], None
    for stack in stacks:
        stack = np.asarray(stack)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.dtype.kind not in "iufc":
            raise ParameterError("expected a (n, K, K) stack of matrices")
        if len(stack) == 0:
            raise ParameterError("need at least one realization")
        if shape is None:
            shape, last_label = stack.shape[1:], _last_label(last_label, stack[0])
        elif stack.shape[1:] != shape:
            raise ParameterError(f"every stack must hold {shape} matrices, got {stack.shape[1:]}")
        tables.append(_single_flip_gains(stack, last_label - 1))
        del stack  # the next stack is made with no other stack alive
    if not tables:
        raise ParameterError("need at least one realization")
    g_first, g_last = (np.concatenate(t, axis=1) for t in zip(*tables))
    k, n = g_first.shape[0] - 1, g_first.shape[1]
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
    t = np.asarray(_check_transfer(transfer), dtype=complex)
    k = t.shape[0]
    last = _last_label(last_label, t) - 1
    check_int("max_l", max_l, 1, k // 2)
    check_int("pattern_budget", pattern_budget)
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
