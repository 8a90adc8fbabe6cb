"""Classical fingerprinting baselines.

Cost formulas only: the best-known two-user protocol, the best-known
K-user block protocol, and the information-theoretic lower limit that no
classical protocol can beat, plus the photonic-bit energy equivalent of
that limit.  All costs are bits per user.
"""

from __future__ import annotations

import math

from .errors import ParameterError


def _check(k: int | None, n_bits: float, p_error: float) -> None:
    if k is not None and k < 2:
        raise ParameterError("need at least two users")
    if n_bits < 1:
        raise ParameterError("message length must be >= 1")
    if not 0.0 < p_error < 1.0:
        raise ParameterError("p_error must lie in (0, 1)")


def best_two_user(n_bits: float, p_error: float) -> float:
    """Cost of the best-known two-user protocol: repetitions x 2 sqrt(N)."""
    _check(None, n_bits, p_error)
    reps = math.ceil(math.log(p_error) / math.log(0.75))
    return reps * 2.0 * math.sqrt(n_bits)


def _ceil_log2_ratio(num: int, den: int) -> int:
    """Exact ceil(log2(num/den)) for positive integers."""
    e = max(0, math.ceil(math.log2(num / den)))
    while (1 << e) * den < num:
        e += 1
    while e > 0 and (1 << (e - 1)) * den >= num:
        e -= 1
    return e


def best_k_user(k: int, n_bits: float, p_error: float) -> float:
    """Cost of the best-known K-user protocol (random block exchange).

    Each user repeatedly sends four random blocks of ceil(3N/K) bits plus
    block labels; the repetition count drives the error below p_error.
    """
    _check(k, n_bits, p_error)
    n = int(n_bits)
    block = -(-3 * n // k)
    reps = math.ceil(math.log(p_error) / math.log(1.0 - (1.0 - math.exp(-0.5)) / 9.0))
    label_bits = 4 * _ceil_log2_ratio(3 * n, block)
    return reps * (8.0 * math.sqrt(2.0 * block) + label_bits)


def _check_limit(k: int, n_bits: float, p_error: float) -> None:
    """``_check`` plus the p_error < 1/4 domain of the classical limit."""
    _check(k, n_bits, p_error)
    if p_error >= 0.25:
        raise ParameterError("the classical limit needs p_error < 1/4")


def classical_limit(k: int, n_bits: float, p_error: float) -> float:
    """Lower bound on bits/user for any classical K-user protocol."""
    _check_limit(k, n_bits, p_error)
    return (1.0 - 2.0 * math.sqrt(p_error)) * math.sqrt(n_bits) / (
        2.0 * math.sqrt(k * math.log(2.0))
    ) - 1.0 / k


def photonic_limit_photons(k: int, n_bits: float, p_error: float, eta: float) -> float:
    """Photon count of a photonic-bit protocol running at the classical limit.

    One bit is carried by one photon; the combined efficiency scales the
    transmitted number, and the O(1/K) term is dropped as a many-user
    approximation.
    """
    _check_limit(k, n_bits, p_error)
    if not 0.0 < eta <= 1.0:
        raise ParameterError("eta must lie in (0, 1]")
    return (1.0 - 2.0 * math.sqrt(p_error)) * math.sqrt(n_bits) / (
        2.0 * eta * math.sqrt(k * math.log(2.0))
    )


def claim_c1_check(na: float, nb: float, ma: float, mb: float, p_error: float) -> bool:
    """Two-sided message-length feasibility test for private-coin protocols.

    True iff both cross inequalities hold; any classical protocol with
    error at most p_error must satisfy them, which is the primitive behind
    ``classical_limit``.
    """
    if min(na, nb, ma, mb) < 0:
        raise ParameterError("message lengths must be nonnegative")
    if not 0.0 < p_error < 0.25:
        raise ParameterError("p_error must lie in (0, 1/4)")
    margin = (1.0 - 2.0 * math.sqrt(p_error)) ** 2
    lhs_a = ma * math.ceil(8.0 * math.log(2.0) * (1.0 + mb) / margin)
    lhs_b = mb * math.ceil(8.0 * math.log(2.0) * (1.0 + ma) / margin)
    return na <= lhs_a and nb <= lhs_b
