"""The level-scheduled composition kernel against element-by-element oracles.

``circuits._compose`` applies a layout level by level, one stacked row
update per element kind and level; ``reference_compose`` and
``reference_realize_circuit`` apply it one element at a time.  They must
agree bit for bit on any valid layout, whatever the order of its elements,
its ``layer`` column or the gather bound.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from multiqf import circuits as qc
from multiqf.noise import NoiseModel, realize_batch

from test_circuits import reference_compose
from test_noise import reference_realize_circuit

NOISY = NoiseModel(sigma_t=0.02, sigma_p=0.03, bs_loss_db=-0.2, seed=17)

#: Gather bounds: every update a single row, chunks of a few rows, the default.
BOUNDS = (1, 4096, qc._GATHER_BYTES)

phases = hst.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@hst.composite
def elements(draw, k, kinds=qc.KINDS):
    """One element of one of ``kinds``, or a run of up to three shifters on one port."""
    kind = draw(hst.sampled_from(kinds))
    layer = draw(hst.integers(0, 50))  # arbitrary: the kernel must not read it
    if kind == qc.PHASE_SHIFTER:
        port = draw(hst.integers(1, k))
        return [qc.CircuitElement(kind, (port,), phase=draw(phases), layer=layer)
                for _ in range(draw(hst.integers(1, 3)))]
    a = draw(hst.integers(1, k - 1))
    ports = (a, draw(hst.integers(a + 1, k)))
    t = draw(hst.floats(min_value=0.0, max_value=1.0)) if kind == qc.UNBALANCED_BS else None
    return [qc.CircuitElement(kind, ports, t=t, layer=layer)]


@hst.composite
def layouts(draw, max_dim=12):
    """Valid layouts holding all three element kinds and a random ``output_perm``."""
    k = draw(hst.integers(2, max_dim))
    runs = draw(hst.lists(elements(k), max_size=24))
    runs += [draw(elements(k, (kind,))) for kind in qc.KINDS]
    runs = draw(hst.permutations(runs))
    perm = draw(hst.none() | hst.permutations(range(k)).map(tuple))
    return qc.CircuitLayout(k, "random", tuple(e for run in runs for e in run), perm)


@given(layout=layouts(), bound=hst.sampled_from(BOUNDS))
@settings(max_examples=80, deadline=None)
def test_compose_matches_element_loop(layout, bound):
    with mock.patch.object(qc, "_GATHER_BYTES", bound):
        assert np.array_equal(qc.compose_layout(layout), reference_compose(layout))


@given(layout=layouts(), n=hst.sampled_from([1, 3]), bound=hst.sampled_from(BOUNDS))
@settings(max_examples=40, deadline=None)
def test_realizations_match_element_loop(layout, n, bound):
    with mock.patch.object(qc, "_GATHER_BYTES", bound):
        batch = realize_batch(layout, NOISY, n)
    for i in range(n):
        assert np.array_equal(batch[i], reference_realize_circuit(layout, NOISY, i))


@given(layout=layouts(max_dim=24))
@settings(max_examples=8, deadline=None)
def test_500_realizations_match_element_loop(layout):
    # at the default bound, rows of 500 realizations are stacked a few at a
    # time for small K and updated one at a time from K = 33 on
    batch = realize_batch(layout, NOISY, 500)
    for i in range(500):
        assert np.array_equal(batch[i], reference_realize_circuit(layout, NOISY, i))


def untouched_row_layout():
    """A run of three shifters on every port before any beamsplitter, so on
    rows no element has touched yet (among them the first and the last
    column of the identity), then beamsplitters and one more shifter."""
    ps, ubs, sbs = qc.PHASE_SHIFTER, qc.UNBALANCED_BS, qc.SYMMETRIC_BS
    phases = np.random.default_rng(5).uniform(-10.0, 10.0, (5, 3)).tolist()
    elements = [qc.CircuitElement(ps, (port,), phase=phase)
                for port in range(1, 6) for phase in phases[port - 1]]
    elements += [qc.CircuitElement(ubs, (1, 2), t=0.3), qc.CircuitElement(sbs, (4, 5)),
                 qc.CircuitElement(ps, (2,), phase=1.7), qc.CircuitElement(ubs, (2, 5), t=0.8)]
    return qc.CircuitLayout(5, "untouched rows", tuple(elements), (2, 0, 4, 1, 3))


def test_shifters_on_untouched_rows_one_row_at_a_time():
    # on the single-row path a shifter on an untouched row would update one
    # column; the update is widened to two
    layout = untouched_row_layout()
    with mock.patch.object(qc, "_GATHER_BYTES", 1):
        assert np.array_equal(qc.compose_layout(layout), reference_compose(layout))
        batch = realize_batch(layout, NOISY, 3)
    for i in range(3):
        assert np.array_equal(batch[i], reference_realize_circuit(layout, NOISY, i))


CLIPPING = NoiseModel(sigma_t=0.8, sigma_p=1.0, seed=3)


@pytest.mark.parametrize("model", [NOISY, CLIPPING], ids=["noisy", "clipping"])
@pytest.mark.parametrize("design", [qc.DESIGN_OPTIMAL, qc.DESIGN_EXTENDABLE])
def test_500_realizations_at_k100(design, model):
    # figure 17's largest stack: rows of 800 KB, updated one at a time over
    # their column hulls
    layout = qc.build_design(100, design)[1]
    batch = realize_batch(layout, model, 500)
    for i in (0, 1, 250, 499):
        assert np.array_equal(batch[i], reference_realize_circuit(layout, model, i))


@pytest.fixture
def updates(monkeypatch):
    """Counts the stacked (``_update``) and single-row (``_update_row``) updates,
    and checks that every stacked update gathers at most ``_GATHER_BYTES``
    per operand."""
    counts = Counter()
    stacked, single = qc._update, qc._update_row

    def counted_stacked(m, code, rows, c):
        assert rows.shape[1] * m[0].nbytes <= qc._GATHER_BYTES
        counts["stacked"] += 1
        stacked(m, code, rows, c)

    def counted_single(*args):
        counts["single"] += 1
        single(*args)

    monkeypatch.setattr(qc, "_update", counted_stacked)
    monkeypatch.setattr(qc, "_update_row", counted_single)
    return counts


@pytest.mark.parametrize(
    "design, n_elements, expected",
    [
        # one update per level and kind: a shifter level, then a beamsplitter level
        (qc.DESIGN_RECK, 4095, 251),
        (qc.DESIGN_CLEMENTS, 4094, 129),
        (qc.DESIGN_OPTIMAL, 63, 6),
        (qc.DESIGN_EXTENDABLE, 63, 63),
    ],
)
def test_stacked_updates_at_k64(design, n_elements, expected, updates):
    layout = qc.build_design(64, design)[1]
    assert len(layout.kind) == n_elements
    updates.clear()  # build_design composes the tree
    qc.compose_layout(layout)
    assert updates == {"stacked": expected}


@pytest.mark.parametrize("design, columns", [
    # a full-row update would cover 99 x 100 = 9,900 columns
    (qc.DESIGN_OPTIMAL, 672),
    (qc.DESIGN_EXTENDABLE, 5049),
])
def test_single_row_updates_cover_the_column_hulls(design, columns, monkeypatch):
    widths = []
    single = qc._update_row

    def spy(m, code, rows, c):
        widths.append(m.shape[2])
        single(m, code, rows, c)

    monkeypatch.setattr(qc, "_update_row", spy)
    realize_batch(qc.build_design(100, design)[1], NOISY, 500)
    assert len(widths) == 99 and sum(widths) == columns


def test_large_rows_are_updated_one_at_a_time(updates):
    # a row of 300 realizations at K = 30 takes 144 KB, so two exceed the bound
    layout = qc.optimal_tree_layout(30)
    realize_batch(layout, NOISY, 300)
    assert updates == {"single": 29}
    updates.clear()
    realize_batch(layout, NOISY, 100)  # 48 KB rows, five per update
    assert updates["single"] == 0 and 0 < updates["stacked"] < 29
