"""Monte Carlo fabrication-imperfection model.

Each ideal unbalanced beamsplitter block is replaced by its realistic
four-factor equivalent: a lossy channel-flip, a noisy symmetric 50:50
beamsplitter, a pair of noisy phase shifters, and a second noisy symmetric
beamsplitter.  Composing the noisy blocks in layout order yields a
sub-unitary transfer matrix, one per Monte Carlo realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import _UBS, CircuitLayout, _check_stack, _compose
from .errors import ParameterError, check_int, check_real, check_type


@dataclass(frozen=True)
class NoiseModel:
    """Fabrication noise and loss levels.

    ``sigma_t`` jitters the amplitude transmittance of each symmetric 50:50
    beamsplitter as tau = (1 + sigma_t * randn) / sqrt(2); ``sigma_p`` adds
    Gaussian phase errors (radians) to the two internal shifters of every
    block.  ``bs_loss_db`` is the power loss (dB, <= 0) attributed to one
    unbalanced-beamsplitter building block, shared equally by its two
    internal symmetric beamsplitters; the block amplitude scale is the
    single constant ``10**(bs_loss_db / 20)``.
    """

    sigma_t: float = 0.0
    sigma_p: float = 0.0
    bs_loss_db: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_real("sigma_t", self.sigma_t, 0.0)
        check_real("sigma_p", self.sigma_p, 0.0)
        check_real("bs_loss_db", self.bs_loss_db, hi=0.0)
        check_int("seed", self.seed)

    @property
    def block_amplitude(self) -> float:
        """Amplitude factor applied by one lossy block (the flip-matrix scale)."""
        return 10.0 ** (self.bs_loss_db / 20.0)


#: numpy's ``SeedSequence`` hash: a pool of 4 uint32 words mixed with these
#: constants (O'Neill's seed hashing), and PCG64's 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(value: int) -> list[int]:
    """The uint32 words of a nonnegative int, least significant first: at
    least one, as ``SeedSequence`` splits each int of its entropy."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8, uint32)`` over arrays: entry
    ``i`` of ``entropy[w]`` is word ``w`` of the ``i``-th entropy.  The hash
    constants step the same way whatever the data, so one pass of uint32
    array arithmetic (which wraps modulo 2**32) serves every entry."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # entropy longer than the pool is folded in word by word
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _pcg64_states(seed: int, indices) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence((seed, i)))`` for each index.

    The seed words are shared; the indices are hashed together, one group
    per word count.  PCG64 reads ``generate_state(4, uint64)`` as its
    initial state (words 0-1, high first) and stream (words 2-3), and
    seeds as ``pcg_setseq_128_srandom_r``: ``inc = 2 * stream + 1``, then
    ``state = (inc + initial) * multiplier + inc``, all modulo 2**128.
    """
    seed_words, indices = _words(int(seed)), [int(i) for i in indices]
    groups: dict[int, list[int]] = {}
    for pos, index in enumerate(indices):
        groups.setdefault(len(_words(index)), []).append(pos)
    out: list[tuple[int, int]] = [(0, 0)] * len(indices)
    for width, pos in groups.items():
        group = [indices[p] for p in pos]
        entropy = [np.full(len(group), w, dtype=np.uint32) for w in seed_words]
        entropy += [
            np.array([index >> 32 * w & _MASK32 for index in group], dtype=np.uint32)
            for w in range(width)
        ]
        state = np.array(_hash_words(entropy), dtype=np.uint64)
        # generate_state(4, uint64) pairs the uint32 words, low word first
        words = (state[0::2] | state[1::2] << np.uint64(32)).T.tolist()
        for p, (init_hi, init_lo, seq_hi, seq_lo) in zip(pos, words):
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            out[p] = (((init_hi << 64 | init_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc
    return out


#: Bytes of one noisy block's four standard normals.
_DRAW_BYTES = 4 * 8


def realization_bytes(layout: CircuitLayout) -> int:
    """Bytes that ``realize_batch`` holds per realization of a layout: its
    K x K complex matrix and the draws of its unbalanced beamsplitters
    (``_DRAW_BYTES`` each).  The noisy blocks are built one group at a time
    as the composition reaches them, so only one group's are alive."""
    return 16 * layout.dim**2 + _DRAW_BYTES * int(np.count_nonzero(layout.kind == _UBS))


def _blocks(omega: np.ndarray, model: NoiseModel, draws: np.ndarray) -> np.ndarray:
    """Realistic 2x2 blocks, ``(n_bs, n, 2, 2)``, for beamsplitters of angle
    ``omega = asin(sqrt(t))``.  ``draws[j, i]`` are the four standard normals
    of beamsplitter ``j`` in realization ``i``: the two symmetric-beamsplitter
    transmittance errors, then the two shifter phase errors.

    Transmittance amplitudes are clipped to [0, 1] so the block stays
    physical for large noise draws.  The flip is applied as a scaled row
    swap of the first beamsplitter, the diagonal shift as a scaling of its
    columns, and the second beamsplitter as a stacked 2x2 matmul, which
    rounds like single ones.  Every operation acts on each block alone, so
    a block's bits do not depend on which others are built with it.
    """
    omega = omega.reshape(-1, 1)
    tau = np.clip((1.0 + model.sigma_t * draws[..., :2]) / math.sqrt(2.0), 0.0, 1.0)
    ph_a = omega + math.pi + model.sigma_p * draws[..., 2]
    ph_b = -omega + model.sigma_p * draws[..., 3]

    def sym(tau: np.ndarray) -> np.ndarray:
        out = np.empty(tau.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = tau
        out[..., 0, 1] = out[..., 1, 0] = 1j * np.sqrt(1.0 - tau * tau)
        return out

    # the flip times sym(tau1) is sym(tau1) with its rows swapped and scaled,
    # and the diagonal shift scales its columns.  Each entry of both products
    # is a real or an imaginary number times a complex one: one rounded
    # product per part, fused or not, so both are bit-equal to the matmuls
    # (up to the sign of an exact zero).  The last product sums two complex
    # products per entry, so it stays a matmul: fusing would change its bits.
    first = model.block_amplitude * sym(tau[..., 0])[..., ::-1, :]
    first[..., 0] *= np.exp(1j * ph_a)[..., None]
    first[..., 1] *= np.exp(1j * ph_b)[..., None]
    return first @ sym(tau[..., 1])


def _realize(layout: CircuitLayout, model: NoiseModel, start: int, n: int) -> np.ndarray:
    """Realizations ``start .. start + n - 1`` of a layout, ``(n, K, K)``.  Realization ``i``
    draws ``standard_normal((n_bs, 4))`` from its own stream,
    ``PCG64(SeedSequence((seed, i)))``: the same draws as four at a time per
    unbalanced beamsplitter, in layout order.  The streams are seeded in
    bulk (``_pcg64_states``), and the blocks are built from the draws one
    group at a time as ``_compose`` asks for them.  A stack above
    ``circuits.MAX_STACK_BYTES`` is rejected before any draw."""
    check_type("layout", layout, CircuitLayout)
    check_type("model", model, NoiseModel)
    _check_stack(layout.dim, n)
    indices = range(start, start + n)
    omega = layout._omega
    draws, one = np.empty((len(omega), n, 4)), np.empty((len(omega), 4))
    # one generator per call, reseeded per realization: calls share no state
    rng = np.random.Generator(np.random.PCG64(0))
    for i, (state, inc) in enumerate(_pcg64_states(model.seed, indices)):
        rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        draws[:, i] = rng.standard_normal(out=one)

    def blocks(columns: np.ndarray) -> np.ndarray:
        # (4, L, n, 1): the four coefficients of each beamsplitter over realizations
        out = _blocks(omega[columns], model, draws[columns])
        return out.reshape(len(columns), n, 4).transpose(2, 0, 1)[..., None]

    return _compose(layout, blocks, n)


def realize_circuit(
    layout: CircuitLayout, model: NoiseModel, index: int = 0
) -> np.ndarray:
    """One noisy realization of a layout; deterministic in (layout, seed, index).

    Unbalanced beamsplitters become noisy blocks; free-standing phase
    shifters and explicit symmetric beamsplitters compose at their ideal
    values (the imperfections of the shifters internal to each block are
    already part of the block model).
    """
    check_int("realization index", index)
    return _realize(layout, model, index, 1)[0]


def realize_batch(
    layout: CircuitLayout, model: NoiseModel, n: int, start: int = 0
) -> np.ndarray:
    """Realizations ``start .. start + n - 1`` with per-index RNG substreams,
    ``(n, K, K)``.

    Realization i depends only on (layout, model.seed, i), so batches are
    reproducible regardless of evaluation order or batch size, and a batch
    from ``start`` is that slice of any larger batch from 0.
    """
    check_int("number of realizations", n)
    check_int("first realization index", start)
    if n < 1:
        raise ParameterError("need at least one realization")
    return _realize(layout, model, start, n)
