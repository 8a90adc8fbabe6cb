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
from .errors import ParameterError


def _check_seed(seed) -> None:
    """Raise ``ParameterError`` unless ``seed`` is a nonnegative integer.

    numpy's ``SeedSequence`` takes only those; checked up front, a bad seed
    is a typed error rather than numpy's ``ValueError`` at the first draw.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")


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
        if not (0 <= self.sigma_t < math.inf and 0 <= self.sigma_p < math.inf):
            raise ParameterError("noise std-devs must be finite and nonnegative")
        if not self.bs_loss_db <= 0:
            raise ParameterError("bs_loss_db is a loss and must be <= 0")
        _check_seed(self.seed)

    @property
    def block_amplitude(self) -> float:
        """Amplitude factor applied by one lossy block (the flip-matrix scale)."""
        return 10.0 ** (self.bs_loss_db / 20.0)


def _rng_for(model: NoiseModel, index: int) -> np.random.Generator:
    """Documented deterministic map (seed, realization index) -> RNG stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((model.seed, index))))


def _noisy_blocks(t, model: NoiseModel, draws: np.ndarray) -> np.ndarray:
    """Realistic 2x2 blocks, ``(n_bs, n, 2, 2)``, for transmittances ``t``.

    ``draws[j, i]`` are the four standard normals of beamsplitter ``j`` in
    realization ``i``: the two symmetric-beamsplitter transmittance errors,
    then the two shifter phase errors.  Transmittance amplitudes are clipped
    to [0, 1] so the block stays physical for large noise draws.  The flip
    is applied as a scaled row swap of the first beamsplitter, and the
    other factors are multiplied as stacked 2x2 matmuls, which round like
    single ones.
    """
    t = np.asarray(t, dtype=float)
    bad = ~((t >= 0.0) & (t <= 1.0))  # NaN fails too
    if bad.any():
        raise ParameterError(f"power transmittance outside [0, 1]: {t[bad.argmax()]}")
    # math.asin, not np.arcsin: the two differ in the last bit
    omega = np.array([math.asin(math.sqrt(x)) for x in t.tolist()]).reshape(-1, 1)
    tau = np.clip((1.0 + model.sigma_t * draws[..., :2]) / math.sqrt(2.0), 0.0, 1.0)
    ph_a = omega + math.pi + model.sigma_p * draws[..., 2]
    ph_b = -omega + model.sigma_p * draws[..., 3]

    def sym(tau: np.ndarray) -> np.ndarray:
        out = np.empty(tau.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = out[..., 1, 1] = tau
        out[..., 0, 1] = out[..., 1, 0] = 1j * np.sqrt(1.0 - tau * tau)
        return out

    shift = np.zeros(ph_a.shape + (2, 2), dtype=complex)
    shift[..., 0, 0], shift[..., 1, 1] = np.exp(1j * ph_a), np.exp(1j * ph_b)
    # the flip times sym(tau1) is sym(tau1) with its rows swapped and scaled:
    # each entry of that product has one nonzero term, so this is bit-equal
    return (model.block_amplitude * sym(tau[..., 0])[..., ::-1, :]) @ shift @ sym(tau[..., 1])


def noisy_block(t: float, model: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """Realistic 2x2 block for an unbalanced beamsplitter of transmittance t,
    from four standard normals drawn from ``rng`` (see ``_noisy_blocks``)."""
    return _noisy_blocks([t], model, rng.standard_normal((1, 1, 4)))[0, 0]


def _realize(layout: CircuitLayout, model: NoiseModel, indices) -> np.ndarray:
    """Realizations ``indices`` of a layout, ``(n, K, K)``.  Realization ``i``
    draws ``standard_normal((n_bs, 4))`` from its own stream: the same draws
    as four at a time per unbalanced beamsplitter, in layout order.  A
    stack above ``circuits.MAX_STACK_BYTES`` is rejected before any draw."""
    _check_stack(layout.dim, len(indices))
    t = layout.value[layout.kind == _UBS]
    draws = np.stack([_rng_for(model, i).standard_normal((len(t), 4)) for i in indices], 1)
    # (4, n_bs, n, 1): the four coefficients of each beamsplitter over realizations
    coef = _noisy_blocks(t, model, draws).reshape(len(t), len(indices), 4).transpose(2, 0, 1)
    return _compose(layout, coef[..., None], len(indices))


def realize_circuit(
    layout: CircuitLayout, model: NoiseModel, index: int = 0
) -> np.ndarray:
    """One noisy realization of a layout; deterministic in (layout, seed, index).

    Unbalanced beamsplitters become noisy blocks; free-standing phase
    shifters and explicit symmetric beamsplitters compose at their ideal
    values (the imperfections of the shifters internal to each block are
    already part of the block model).
    """
    return _realize(layout, model, [index])[0]


def realize_batch(layout: CircuitLayout, model: NoiseModel, n: int) -> np.ndarray:
    """n independent realizations with per-index RNG substreams, ``(n, K, K)``.

    Realization i depends only on (layout, model.seed, i), so batches are
    reproducible regardless of evaluation order or batch size.
    """
    if n < 1:
        raise ParameterError("need at least one realization")
    return _realize(layout, model, range(n))
