import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from multiqf import circuits as qc
from multiqf import noise
from multiqf.errors import ParameterError
from multiqf.noise import NoiseModel, noisy_block, realize_batch, realize_circuit

from test_circuits import ORACLE_K, ORACLE_LAYOUTS, oracle_layout

IDEAL_50_50 = np.array([[2**-0.5, 2**-0.5], [-(2**-0.5), 2**-0.5]])


def test_noiseless_block_is_ideal():
    rng = np.random.default_rng(0)
    blk = noisy_block(0.5, NoiseModel(), rng)
    assert np.abs(blk - IDEAL_50_50).max() < 1e-12


def test_noiseless_block_general_t():
    rng = np.random.default_rng(0)
    blk = noisy_block(0.3, NoiseModel(), rng)
    expect = np.array(
        [[math.sqrt(0.3), math.sqrt(0.7)], [-math.sqrt(0.7), math.sqrt(0.3)]]
    )
    assert np.abs(blk - expect).max() < 1e-12


def test_loss_only_block_scale():
    # the whole block carries the single amplitude constant 10^(dB/20)
    rng = np.random.default_rng(0)
    blk = noisy_block(0.5, NoiseModel(bs_loss_db=-0.2), rng)
    scale = 10.0 ** (-0.2 / 20.0)
    assert scale == pytest.approx(0.97724, abs=1e-5)
    assert np.abs(blk - scale * IDEAL_50_50).max() < 1e-12


def test_block_rejects_bad_t():
    with pytest.raises(ParameterError):
        noisy_block(1.5, NoiseModel(), np.random.default_rng(0))


def test_model_validation():
    with pytest.raises(ParameterError):
        NoiseModel(sigma_t=-0.1)
    with pytest.raises(ParameterError):
        NoiseModel(bs_loss_db=0.4)
    bad = [
        {"sigma_t": math.nan}, {"sigma_p": math.nan}, {"sigma_t": math.inf},
        {"sigma_p": -math.inf}, {"bs_loss_db": math.nan},
        {"seed": -1}, {"seed": 1.5}, {"seed": 2.0}, {"seed": True}, {"seed": "3"},
    ]
    for kwargs in bad:
        with pytest.raises(ParameterError):
            NoiseModel(**kwargs)
    NoiseModel(seed=np.int64(3))


@pytest.mark.parametrize("k", [2, 5, 9, 16])
@pytest.mark.parametrize("design", [qc.DESIGN_OPTIMAL, qc.DESIGN_EXTENDABLE])
def test_noiseless_limit_matches_ideal_composition(k, design):
    layout = qc.build_design(k, design)[1]
    real = realize_circuit(layout, NoiseModel(), index=0)
    assert np.abs(real - qc.compose_layout(layout)).max() < 1e-12


def test_noiseless_limit_with_phase_shifters():
    for decompose in (qc.clements_decompose, qc.reck_decompose):
        layout = decompose(qc.dft_multiport(5))
        real = realize_circuit(layout, NoiseModel(), index=3)
        assert np.abs(real - qc.dft_multiport(5)).max() < 1e-12


def test_determinism_same_seed_and_index():
    layout = qc.optimal_tree_layout(6)
    model = NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=99)
    a = realize_circuit(layout, model, index=4)
    b = realize_circuit(layout, model, index=4)
    assert np.array_equal(a, b)
    c = realize_circuit(layout, model, index=5)
    assert not np.array_equal(a, c)


def test_batch_matches_per_index_calls():
    layout = qc.optimal_tree_layout(4)
    model = NoiseModel(sigma_t=0.02, sigma_p=0.01, bs_loss_db=-0.2, seed=7)
    batch = realize_batch(layout, model, 5)
    assert batch.shape == (5, 4, 4)
    for i in range(5):
        assert np.array_equal(batch[i], realize_circuit(layout, model, index=i))


def test_singular_values_bounded_and_loss_floor():
    layout = qc.optimal_tree_layout(8)
    model = NoiseModel(sigma_t=0.01, sigma_p=0.01, bs_loss_db=-0.2, seed=1)
    depth = layout.optical_depth
    floor = (10.0 ** (-0.2 / 20.0)) ** depth
    for i in range(20):
        s = np.linalg.svd(realize_circuit(layout, model, index=i), compute_uv=False)
        assert s.max() <= 1.0 + 1e-9
        # every input->output path crosses at most `depth` lossy blocks
        assert s.min() >= floor - 1e-9


def test_loss_only_shrinks_any_input():
    layout = qc.optimal_tree_layout(5)
    t = realize_circuit(layout, NoiseModel(bs_loss_db=-0.5), index=0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.linalg.norm(t @ a) <= np.linalg.norm(a) + 1e-12


def test_extreme_noise_stays_physical():
    # tau clipping keeps the block well defined even for wild draws
    layout = qc.optimal_tree_layout(4)
    model = NoiseModel(sigma_t=0.8, sigma_p=1.0, seed=3)
    for i in range(50):
        m = realize_circuit(layout, model, index=i)
        assert np.isfinite(m).all()
        assert np.linalg.svd(m, compute_uv=False).max() <= 1.0 + 1e-9


def _rng_for(model, index):
    """The per-realization stream, built one index at a time: the oracle of
    the bulk seeding in ``noise._pcg64_states``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((model.seed, index))))


def reference_noisy_block(t, model, draws):
    """One block from four scalar draws and three 2x2 matmuls."""
    omega = math.asin(math.sqrt(t))
    tau1 = min(1.0, max(0.0, (1.0 + model.sigma_t * draws[0]) / math.sqrt(2.0)))
    tau2 = min(1.0, max(0.0, (1.0 + model.sigma_t * draws[1]) / math.sqrt(2.0)))
    ph_a = omega + math.pi + model.sigma_p * draws[2]
    ph_b = -omega + model.sigma_p * draws[3]

    def sym(tau):
        c = 1j * math.sqrt(1.0 - tau * tau)
        return np.array([[tau, c], [c, tau]])

    flip = model.block_amplitude * np.array([[0.0, 1.0], [1.0, 0.0]])
    shift = np.array([[np.exp(1j * ph_a), 0.0], [0.0, np.exp(1j * ph_b)]])
    return flip @ sym(tau1) @ shift @ sym(tau2)


def reference_realize_circuit(layout, model, index):
    """Element-by-element realization: one block, four draws, per beamsplitter."""
    k = layout.dim
    rng = _rng_for(model, index)
    m = np.eye(k, dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for el in layout.elements:
        if el.kind == qc.UNBALANCED_BS:
            a, b = el.ports[0] - 1, el.ports[1] - 1
            blk = reference_noisy_block(el.t, model, rng.standard_normal(4))
            ra = m[a].copy()
            m[a] = blk[0, 0] * ra + blk[0, 1] * m[b]
            m[b] = blk[1, 0] * ra + blk[1, 1] * m[b]
        elif el.kind == qc.SYMMETRIC_BS:
            a, b = el.ports[0] - 1, el.ports[1] - 1
            ra = m[a].copy()
            m[a] = inv_sqrt2 * (ra + 1j * m[b])
            m[b] = inv_sqrt2 * (1j * ra + m[b])
        else:
            m[el.ports[0] - 1] *= np.exp(1j * el.phase)
    if layout.output_perm is not None:
        m = m[list(layout.output_perm)]
    return m


NOISY = NoiseModel(sigma_t=0.02, sigma_p=0.03, bs_loss_db=-0.2, seed=17)


@pytest.mark.parametrize("name", ORACLE_LAYOUTS)
@pytest.mark.parametrize("k", ORACLE_K)
def test_realizations_match_element_loop(name, k):
    layout = oracle_layout(name, k)
    batch = realize_batch(layout, NOISY, 4)
    for i in range(4):
        assert np.array_equal(batch[i], reference_realize_circuit(layout, NOISY, i))
    assert np.array_equal(realize_circuit(layout, NOISY, index=9),
                          reference_realize_circuit(layout, NOISY, 9))


#: Noise models of the block tests; the large-noise one clips tau at both ends.
BLOCK_MODELS = [NOISY, NoiseModel(), NoiseModel(sigma_t=0.8, sigma_p=1.0, seed=3)]


@pytest.mark.parametrize("model", BLOCK_MODELS)
def test_block_matches_reference_block(model):
    for i, t in enumerate((0.0, 1.0, 0.5, 0.3, 0.999)):
        for j in range(20):
            seed = (i, j)
            got = noisy_block(t, model, np.random.default_rng(seed))
            want = reference_noisy_block(t, model, np.random.default_rng(seed).standard_normal(4))
            assert np.array_equal(got, want)


@pytest.mark.parametrize("model", BLOCK_MODELS)
@pytest.mark.parametrize("n_bs, n", [(99, 500), (120, 7)])
def test_stacked_blocks_match_reference_block(model, n_bs, n):
    # transmittances 0, 0.5, 1 and random ones along the beamsplitters; under
    # clipping an exact zero may differ in sign only, which np.array_equal
    # ignores and no output reads
    rng = np.random.default_rng(n_bs)
    t = np.resize(np.concatenate([[0.0, 0.5, 1.0], rng.random(7)]), n_bs)
    draws = rng.standard_normal((n_bs, n, 4))
    got = noise._blocks(qc._asin_sqrt(t), model, draws)
    assert got.shape == (n_bs, n, 2, 2)
    for j, i in np.ndindex(n_bs, n):
        want = reference_noisy_block(t[j], model, draws[j, i])
        assert np.array_equal(got[j, i], want), (j, i)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**70, 2**128 + 3])
def test_bulk_seeding_equals_per_index_streams(seed):
    # the last two seeds span three and five uint32 words: with a two-word
    # index (2**32, 2**40) or at five words, the entropy is longer than
    # SeedSequence's pool of four words
    model = NoiseModel(seed=seed)
    indices = [*range(1000), 2**32, 2**40]
    got = noise._pcg64_states(seed, indices)
    for index, (state, inc) in zip(indices, got):
        want = _rng_for(model, index).bit_generator.state["state"]
        assert (state, inc) == (want["state"], want["inc"]), index


def test_realization_at_a_two_word_index():
    layout = qc.optimal_tree_layout(6)
    index = 2**32 + 3
    assert np.array_equal(realize_circuit(layout, NOISY, index=index),
                          reference_realize_circuit(layout, NOISY, index))


def test_block_rows_are_successive_four_draws():
    # realizations draw standard_normal((n_bs, 4)) at once; row j is what
    # the j-th of n_bs calls of standard_normal(4) on the same stream gives
    whole = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, 2))))
    stepwise = np.random.Generator(np.random.PCG64(np.random.SeedSequence((5, 2))))
    rows = whole.standard_normal((99, 4))
    for j in range(99):
        assert np.array_equal(rows[j], stepwise.standard_normal(4))


def test_batch_prefix_is_smaller_batch():
    layout = qc.optimal_tree_layout(9)
    five = realize_batch(layout, NOISY, 5)
    three = realize_batch(layout, NOISY, 3)
    assert np.array_equal(five[:3], three)


@pytest.mark.parametrize("start, n", [(0, 4), (1, 1), (3, 2), (5, 4), (8, 1)])
def test_batch_from_start_is_a_slice(start, n):
    layout = qc.optimal_tree_layout(9)
    whole = realize_batch(layout, NOISY, 9)
    assert np.array_equal(realize_batch(layout, NOISY, n, start=start), whole[start : start + n])
    assert np.array_equal(realize_batch(layout, NOISY, 1, start=start)[0],
                          realize_circuit(layout, NOISY, index=start))


def test_concurrent_batches_are_independent():
    # each call loads its own generator: a shared one would let one thread
    # reseed it between another's state load and its draws
    layout = qc.optimal_tree_layout(9)
    whole = realize_batch(layout, NOISY, 40)
    starts = [0, 10, 20, 30] * 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(realize_batch, layout, NOISY, 10, start=s) for s in starts]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for start, batch in zip(starts, got):
        assert np.array_equal(batch, whole[start : start + 10]), start


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", True, False, -1, None, np.float64(2.0)])
def test_counts_and_indices_are_typed(bad, monkeypatch):
    layout = qc.optimal_tree_layout(4)

    def no_draw(*args):
        raise AssertionError("drew before the arguments were checked")

    monkeypatch.setattr(noise, "_pcg64_states", no_draw)
    with pytest.raises(ParameterError, match="number of realizations"):
        realize_batch(layout, NOISY, bad)
    with pytest.raises(ParameterError, match="first realization index"):
        realize_batch(layout, NOISY, 2, start=bad)
    with pytest.raises(ParameterError, match="realization index"):
        realize_circuit(layout, NOISY, bad)
    with pytest.raises(ParameterError, match="need at least one realization"):
        realize_batch(layout, NOISY, 0)


def test_numpy_integer_counts_and_indices_are_accepted():
    layout = qc.optimal_tree_layout(4)
    batch = realize_batch(layout, NOISY, np.int64(2), start=np.int32(1))
    assert np.array_equal(batch, realize_batch(layout, NOISY, 3)[1:])
    assert np.array_equal(realize_circuit(layout, NOISY, np.uint8(2)), batch[1])


def test_bad_transmittance_in_layout_is_rejected():
    bad = qc.CircuitLayout(3, "custom", (qc.CircuitElement(qc.UNBALANCED_BS, (1, 2), t=1.5),))
    with pytest.raises(ParameterError):
        realize_circuit(bad, NOISY)


def test_stack_above_the_limit_is_rejected_before_any_draw(monkeypatch):
    layout = qc.optimal_tree_layout(4)  # 16 * 4**2 = 256 bytes per realization
    monkeypatch.setattr(qc, "MAX_STACK_BYTES", 256 * 10)
    assert realize_batch(layout, NOISY, 10).shape == (10, 4, 4)

    def no_draw(*args):
        raise AssertionError("drew before the stack size was checked")

    monkeypatch.setattr(noise, "_pcg64_states", no_draw)
    with pytest.raises(ParameterError, match="11 matrices at K = 4"):
        realize_batch(layout, NOISY, 11)
    monkeypatch.setattr(qc, "MAX_STACK_BYTES", 255)
    with pytest.raises(ParameterError, match="need 256 bytes, above the limit of 255"):
        qc.compose_layout(layout)


def test_stack_limit_admits_figure_17():
    # 500 realizations fit up to K = 366
    assert 16 * 500 * 366**2 <= qc.MAX_STACK_BYTES < 16 * 500 * 367**2
