"""Classical fingerprinting baselines.

Cost formulas only: the best-known two-user protocol, the best-known
K-user block protocol, and the information-theoretic lower limit that no
classical protocol can beat, plus the photonic-bit energy equivalent of
that limit.  All costs are bits per user.
"""

from __future__ import annotations

import math

from .errors import ParameterError, check_int, check_real


def _limit_coefficient(p_error: float) -> float:
    """1 - 2 sqrt(p_error), the sqrt(N) coefficient of the classical limit,
    for p_error in (0, 1/4): above 1/4 it turns negative."""
    check_real("p_error", p_error, 0.0, 1.0, "()")
    if p_error >= 0.25:
        raise ParameterError("the classical limit needs p_error < 1/4")
    return 1.0 - 2.0 * math.sqrt(p_error)


def best_two_user(n_bits: float, p_error: float) -> float:
    """Cost of the best-known two-user protocol: repetitions x 2 sqrt(N)."""
    check_real("n_bits", n_bits, 1)
    check_real("p_error", p_error, 0.0, 1.0, "()")
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
    check_int("number of users k", k, 2)
    check_real("n_bits", n_bits, 1)
    check_real("p_error", p_error, 0.0, 1.0, "()")
    n = int(n_bits)
    block = -(-3 * n // k)
    reps = math.ceil(math.log(p_error) / math.log(1.0 - (1.0 - math.exp(-0.5)) / 9.0))
    label_bits = 4 * _ceil_log2_ratio(3 * n, block)
    return reps * (8.0 * math.sqrt(2.0 * block) + label_bits)


def classical_limit(k: int, n_bits: float, p_error: float) -> float:
    """Lower bound on bits/user for any classical K-user protocol."""
    check_int("number of users k", k, 2)
    check_real("n_bits", n_bits, 1)
    return _limit_coefficient(p_error) * math.sqrt(n_bits) / (
        2.0 * math.sqrt(k * math.log(2.0))
    ) - 1.0 / k


def photonic_limit_photons(k: int, n_bits: float, p_error: float, eta: float) -> float:
    """Photon count of a photonic-bit protocol running at the classical limit.

    One bit is carried by one photon; the combined efficiency scales the
    transmitted number, and the O(1/K) term is dropped as a many-user
    approximation.
    """
    check_int("number of users k", k, 2)
    check_real("n_bits", n_bits, 1)
    coefficient = _limit_coefficient(p_error)
    check_real("eta", eta, 0.0, 1.0, "(]")
    return coefficient * math.sqrt(n_bits) / (
        2.0 * eta * math.sqrt(k * math.log(2.0))
    )


def claim_c1_check(na: float, nb: float, ma: float, mb: float, p_error: float) -> bool:
    """Two-sided message-length feasibility test for private-coin protocols.

    True iff both cross inequalities hold; any classical protocol with
    error at most p_error must satisfy them, which is the primitive behind
    ``classical_limit``.
    """
    for name, length in (("na", na), ("nb", nb), ("ma", ma), ("mb", mb)):
        check_real(name, length, 0.0)
    margin = _limit_coefficient(p_error) ** 2
    lhs_a = ma * math.ceil(8.0 * math.log(2.0) * (1.0 + mb) / margin)
    lhs_b = mb * math.ceil(8.0 * math.log(2.0) * (1.0 + ma) / margin)
    return na <= lhs_a and nb <= lhs_b
