import cmath
import json
import math

import numpy as np
import pytest

from multiqf import circuits as qc
from multiqf.errors import DecompositionError, InvalidDimensionError, LayoutError

from conftest import haar_unitary

SQ2 = 1.0 / math.sqrt(2.0)

U4_PRINTED = np.array(
    [
        [0.5, 0.5, 0.5, 0.5],
        [-SQ2, SQ2, 0, 0],
        [-0.5, -0.5, 0.5, 0.5],
        [0, 0, -SQ2, SQ2],
    ]
)

_s = 1.0 / (2.0 * math.sqrt(21.0))
U7_PRINTED = np.array(
    [
        [1 / math.sqrt(7)] * 7,
        [-SQ2, SQ2, 0, 0, 0, 0, 0],
        [-0.5, -0.5, 0.5, 0.5, 0, 0, 0],
        [0, 0, -SQ2, SQ2, 0, 0, 0],
        [-3 * _s, -3 * _s, -3 * _s, -3 * _s] + [2 / math.sqrt(21)] * 3,
        [0, 0, 0, 0, -SQ2, SQ2, 0],
        [0, 0, 0, 0, -1 / math.sqrt(6), -1 / math.sqrt(6), math.sqrt(2 / 3)],
    ]
)


def row_sum_structure(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Exactly one row sums to sqrt(K), the rest to zero."""
    k = m.shape[0]
    sums = m.sum(axis=1)
    big = np.abs(sums - math.sqrt(k)) < tol
    zero = np.abs(sums) < tol
    return big.sum() == 1 and zero.sum() == k - 1


class TestDftMultiport:
    def test_k2_is_balanced_splitter(self):
        expect = SQ2 * np.array([[1, 1], [1, -1]])
        assert np.abs(qc.dft_multiport(2) - expect).max() < 1e-12

    def test_k3_entry(self):
        got = qc.dft_multiport(3)[1, 2]
        expect = np.exp(1j * 4 * np.pi / 3) / math.sqrt(3)
        assert abs(got - expect) < 1e-12

    @pytest.mark.parametrize("k", range(2, 17))
    def test_unitary_and_row_sums(self, k):
        u = qc.dft_multiport(k)
        assert np.abs(u.conj().T @ u - np.eye(k)).max() < 1e-12
        assert row_sum_structure(u, tol=1e-12)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidDimensionError):
            qc.dft_multiport(1)


class TestExtendable:
    def test_k2_matrix(self):
        expect = np.array([[-SQ2, SQ2], [SQ2, SQ2]])
        assert np.abs(qc.extendable_matrix(2) - expect).max() < 1e-12

    def test_k3_prefix_entry(self):
        assert abs(qc.extendable_matrix(3)[1, 0] - (-1 / math.sqrt(6))) < 1e-12

    @pytest.mark.parametrize("k", range(2, 17))
    def test_row_sums(self, k):
        assert row_sum_structure(qc.extendable_matrix(k), tol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16])
    def test_layout_composes_to_matrix(self, k):
        lay = qc.extendable_layout(k)
        assert np.abs(qc.compose_layout(lay) - qc.extendable_matrix(k)).max() < 1e-12

    def test_k4_transmittances_and_depth(self):
        lay = qc.extendable_layout(4)
        ts = [e.t for e in lay.elements if e.kind == qc.UNBALANCED_BS]
        assert ts == pytest.approx([1 / 2, 2 / 3, 3 / 4])
        assert lay.optical_depth == 3
        lay8 = qc.extendable_layout(8)
        assert (lay8.bs_count, lay8.optical_depth) == (7, 7)


class TestOptimalTree:
    def test_printed_k4(self):
        got = qc.compose_layout(qc.optimal_tree_layout(4))
        assert np.abs(got - U4_PRINTED).max() < 1e-12

    def test_printed_k7(self):
        got = qc.compose_layout(qc.optimal_tree_layout(7))
        assert np.abs(got - U7_PRINTED).max() < 1e-12

    def test_k7_counts(self):
        lay = qc.optimal_tree_layout(7)
        assert (lay.bs_count, lay.optical_depth) == (6, 3)

    def test_split_transmittances_k2(self):
        lay = qc.optimal_tree_layout(2)
        assert len(lay.elements) == 1 and lay.elements[0].t == pytest.approx(0.5)

    @pytest.mark.parametrize("k", range(2, 33))
    def test_row_sum_structure_and_bus_first(self, k):
        m = qc.compose_layout(qc.optimal_tree_layout(k))
        assert row_sum_structure(m)
        assert abs(m[0].sum() - math.sqrt(k)) < 1e-10


class TestComposeLayout:
    def test_empty_layout_is_identity(self):
        lay = qc.CircuitLayout(dim=3, design="custom", elements=())
        assert np.abs(qc.compose_layout(lay) - np.eye(3)).max() == 0

    def test_unit_transmittance_block_is_identity(self):
        el = qc.CircuitElement(qc.UNBALANCED_BS, (1, 2), t=1.0)
        lay = qc.CircuitLayout(dim=2, design="custom", elements=(el,))
        assert np.abs(qc.compose_layout(lay) - np.eye(2)).max() == 0

    def test_port_out_of_range(self):
        el = qc.CircuitElement(qc.UNBALANCED_BS, (1, 5), t=0.5)
        lay = qc.CircuitLayout(dim=3, design="custom", elements=(el,))
        with pytest.raises(LayoutError):
            qc.compose_layout(lay)

    def test_energy_conservation(self, rng):
        for k in (2, 5, 9):
            m = qc.compose_layout(qc.optimal_tree_layout(k))
            a = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            assert np.linalg.norm(m @ a) == pytest.approx(np.linalg.norm(a), abs=1e-10)

    def test_bad_output_perm(self):
        lay = qc.CircuitLayout(dim=3, design="custom", elements=(), output_perm=(0, 0, 1))
        with pytest.raises(LayoutError):
            qc.compose_layout(lay)


def reference_compose(layout):
    """Element-by-element product: one in-place row update per element."""
    k = layout.dim
    m = np.eye(k, dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for el in layout.elements:
        if el.kind == qc.UNBALANCED_BS:
            a, b = el.ports[0] - 1, el.ports[1] - 1
            st = math.sqrt(el.t)
            sr = math.sqrt(1.0 - el.t)
            ra = m[a].copy()
            m[a] = st * ra + sr * m[b]
            m[b] = -sr * ra + st * m[b]
        elif el.kind == qc.SYMMETRIC_BS:
            a, b = el.ports[0] - 1, el.ports[1] - 1
            ra = m[a].copy()
            m[a] = inv_sqrt2 * (ra + 1j * m[b])
            m[b] = inv_sqrt2 * (1j * ra + m[b])
        else:
            m[el.ports[0] - 1] *= cmath.exp(1j * el.phase)
    if layout.output_perm is not None:
        m = m[list(layout.output_perm)]
    return m


ORACLE_K = [2, 3, 7, 16, 30]
ORACLE_LAYOUTS = ["tree", "extendable", "reck", "clements", "mixed"]


def mixed_elements(k):
    """Symmetric beamsplitters and phase shifters around a tree."""
    return (
        qc.CircuitElement(qc.SYMMETRIC_BS, (1, k)),
        qc.CircuitElement(qc.PHASE_SHIFTER, (k,), phase=0.7),
        *qc.optimal_tree_layout(k).elements,
        qc.CircuitElement(qc.SYMMETRIC_BS, (1, 2)),
        qc.CircuitElement(qc.PHASE_SHIFTER, (1,), phase=-2.1),
    )


def oracle_layout(name, k):
    """Layouts that between them hold every element kind and an output_perm."""
    if name == "tree":
        return qc.optimal_tree_layout(k)
    if name == "extendable":
        return qc.extendable_layout(k)
    if name in ("reck", "clements"):
        decompose = qc.reck_decompose if name == "reck" else qc.clements_decompose
        return decompose(qc.dft_multiport(k))
    # outputs reversed
    return qc.CircuitLayout(k, "custom", mixed_elements(k), output_perm=tuple(range(k - 1, -1, -1)))


@pytest.mark.parametrize("name", ORACLE_LAYOUTS)
@pytest.mark.parametrize("k", ORACLE_K)
def test_compose_matches_element_loop(name, k):
    layout = oracle_layout(name, k)
    assert np.array_equal(qc.compose_layout(layout), reference_compose(layout))


class TestDecompositions:
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12, 16])
    def test_reck_round_trip_dft(self, k):
        u = qc.dft_multiport(k)
        lay = qc.reck_decompose(u)
        assert lay.bs_count == k * (k - 1) // 2
        assert lay.optical_depth == 2 * k - 3
        assert np.abs(qc.compose_layout(lay) - u).max() < 1e-10

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 12, 16])
    def test_clements_round_trip_dft(self, k):
        u = qc.dft_multiport(k)
        lay = qc.clements_decompose(u)
        assert lay.bs_count == k * (k - 1) // 2
        assert lay.optical_depth == (k if k > 2 else 1)
        assert np.abs(qc.compose_layout(lay) - u).max() < 1e-10

    @pytest.mark.parametrize("k", [3, 6, 11, 16])
    def test_round_trip_haar_and_tree(self, k, rng):
        for u in (haar_unitary(k, rng), qc.compose_layout(qc.optimal_tree_layout(k))):
            for decompose in (qc.reck_decompose, qc.clements_decompose):
                lay = decompose(u)
                assert np.abs(qc.compose_layout(lay) - u).max() < 1e-10

    def test_reck_identity_all_bar(self):
        lay = qc.reck_decompose(np.eye(4, dtype=complex))
        assert all(e.t == 1.0 for e in lay.elements if e.kind == qc.UNBALANCED_BS)
        assert np.abs(qc.compose_layout(lay) - np.eye(4)).max() == 0

    def test_reck_k2_single_block(self):
        lay = qc.reck_decompose(qc.dft_multiport(2))
        assert lay.bs_count == 1
        assert np.abs(qc.compose_layout(lay) - qc.dft_multiport(2)).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(DecompositionError):
            qc.reck_decompose(np.ones((3, 3)))
        with pytest.raises(DecompositionError):
            qc.clements_decompose(2.0 * np.eye(3))

    @pytest.mark.parametrize("decompose", [qc.reck_decompose, qc.clements_decompose])
    def test_unitarity_tolerance_at_k64(self, decompose):
        u = qc.dft_multiport(64)
        for scale, residual in ((1 + 5e-10, 1e-9), (1 + 5e-13, 1e-12)):
            v = scale * u
            err = np.abs(v.conj().T @ v - np.eye(64)).max()
            assert residual / 2 < err < residual * 2
        with pytest.raises(DecompositionError, match="not unitary"):
            decompose((1 + 5e-10) * u)
        assert decompose((1 + 5e-13) * u).bs_count == 64 * 63 // 2


# Step-by-step reference for the mesh decompositions: one Givens step and
# one element pair at a time, in the order the nulling defines.


def _reference_blocks(k, blocks, output_phases):
    """Elements of a mesh given as (mode, t, phi) blocks, layer by layer."""
    elements, depth = [], [0] * k
    for mode, t, phi in blocks:
        layer = max(depth[mode], depth[mode + 1])
        if abs(phi) > 1e-14:
            elements.append(
                qc.CircuitElement(qc.PHASE_SHIFTER, (mode + 1,), phase=phi, layer=layer)
            )
        elements.append(
            qc.CircuitElement(qc.UNBALANCED_BS, (mode + 1, mode + 2), t=t, layer=layer)
        )
        depth[mode] = depth[mode + 1] = layer + 1
    for port, phi in enumerate(output_phases, start=1):
        if abs(phi) > 1e-14:
            elements.append(
                qc.CircuitElement(qc.PHASE_SHIFTER, (port,), phase=float(phi), layer=max(depth))
            )
    return qc.CircuitLayout(dim=k, design="reference", elements=tuple(elements))


def _reference_residual(v):
    assert np.abs(v - np.diag(np.diag(v))).max() < 1e-8
    for i in range(v.shape[0]):
        v[i, i] = v[i, i] / abs(v[i, i])
    return np.angle(np.diag(v))


def reference_reck(u):
    k = u.shape[0]
    vt = u.T.copy()
    blocks = []
    for i in range(k - 1, 0, -1):
        for j in range(0, i):
            a, b = complex(vt[j, i]), complex(vt[j + 1, i])
            aa, ab = abs(a), abs(b)
            if aa == 0.0:
                blocks.append((j, 1.0, 0.0))
                continue
            if ab == 0.0:
                t, phi = 0.0, 0.0
            else:
                t = ab * ab / (aa * aa + ab * ab)
                phi = cmath.phase(a * (-b).conjugate())
            st, sr, e = math.sqrt(t), math.sqrt(1.0 - t), cmath.exp(-1j * phi)
            g = np.array([[st * e, sr], [-sr * e, st]])
            vt[j : j + 2] = np.matmul(g, vt[j : j + 2])
            vt[j, i] = 0.0
            blocks.append((j, t, phi))
    return _reference_blocks(k, blocks, _reference_residual(vt))


def reference_clements(u):
    k = u.shape[0]
    v = u.copy()
    rights, lefts = [], []
    for d in range(1, k):
        if d % 2 == 1:
            for j in range(d):
                row, col = k - 1 - j, d - 1 - j
                a, b = complex(v[row, col]), complex(v[row, col + 1])
                aa, ab = abs(a), abs(b)
                if aa == 0.0:
                    rights.append((col, 1.0, 0.0))
                    continue
                if ab == 0.0:
                    t, phi = 0.0, 0.0
                else:
                    t = ab * ab / (aa * aa + ab * ab)
                    phi = cmath.phase(a * (-b).conjugate())
                st, sr, e = math.sqrt(t), math.sqrt(1.0 - t), cmath.exp(-1j * phi)
                g = np.array([[st * e, -sr * e], [sr, st]])
                v[:, col : col + 2] = np.matmul(v[:, col : col + 2], g)
                v[row, col] = 0.0
                rights.append((col, t, phi))
        else:
            for j in range(d):
                row, col = k - d + j, j
                a, b = complex(v[row - 1, col]), complex(v[row, col])
                aa, ab = abs(a), abs(b)
                if ab == 0.0:
                    lefts.append((row - 1, 1.0, 0.0))
                    continue
                if aa == 0.0:
                    t, phi = 0.0, 0.0
                else:
                    t = aa * aa / (aa * aa + ab * ab)
                    phi = cmath.phase(b * a.conjugate())
                st, sr, e = math.sqrt(t), math.sqrt(1.0 - t), cmath.exp(1j * phi)
                g = np.array([[st * e, sr], [-sr * e, st]])
                v[row - 1 : row + 1] = np.matmul(g, v[row - 1 : row + 1])
                v[row, col] = 0.0
                lefts.append((row - 1, t, phi))
    _reference_residual(v)
    diag = np.exp(1j * np.angle(np.diag(v)))
    pushed = []
    for mode, t, phi in reversed(lefts):
        d1, d2 = diag[mode], diag[mode + 1]
        pushed.append((mode, t, cmath.phase(-d1 / d2)))
        diag[mode] = -cmath.exp(-1j * phi) * d2
    return _reference_blocks(k, rights + pushed, np.angle(diag))


class TestMeshesAgainstStepwiseReference:
    @staticmethod
    def check(layout, reference):
        # t and the phases are not compared: where the DFT has degenerate
        # pairs, rounding picks them, and both choices compose to U
        assert [(e.kind, e.ports, e.layer) for e in layout.elements] == [
            (e.kind, e.ports, e.layer) for e in reference.elements
        ]
        assert (layout.bs_count, layout.optical_depth) == (
            reference.bs_count,
            reference.optical_depth,
        )
        assert np.abs(qc.compose_layout(layout) - qc.compose_layout(reference)).max() < 1e-12

    @pytest.mark.parametrize("k", range(2, 65))
    def test_dft(self, k):
        u = qc.dft_multiport(k)
        self.check(qc.reck_decompose(u), reference_reck(u))
        self.check(qc.clements_decompose(u), reference_clements(u))

    def test_phase_threshold_boundary(self):
        # shifters of exactly _PHASE_EPS radians are left out, larger ones kept
        eps = qc._PHASE_EPS
        blocks = [(0, 0.5, eps), (1, 0.3, -eps), (0, 0.7, 2 * eps), (1, 1.0, 0.0)]
        output_phases = np.array([eps, -2 * eps, 0.4])
        modes, t, phi = (np.array(x) for x in zip(*blocks))
        layout = qc._mesh_layout(3, "mesh", modes, t, phi, output_phases)
        self.check(layout, _reference_blocks(3, blocks, output_phases))
        assert layout.bs_count == 4 and len(layout.elements) == 7

    @pytest.mark.parametrize("k", [3, 6, 11, 16])
    def test_haar_tree_and_identity(self, k, rng):
        targets = (
            haar_unitary(k, rng),
            qc.compose_layout(qc.optimal_tree_layout(k)),
            np.eye(k, dtype=complex),
        )
        for u in targets:
            self.check(qc.reck_decompose(u), reference_reck(u))
            self.check(qc.clements_decompose(u), reference_clements(u))


class TestTableCounts:
    @pytest.mark.parametrize("k", range(2, 65))
    def test_formula_helper(self, k):
        assert qc.table_counts(k, qc.DESIGN_OPTIMAL) == (k - 1, math.ceil(math.log2(k)))
        assert qc.table_counts(k, qc.DESIGN_EXTENDABLE) == (k - 1, k - 1)
        assert qc.table_counts(k, qc.DESIGN_RECK) == (k * (k - 1) // 2, 2 * k - 3)
        assert qc.table_counts(k, qc.DESIGN_CLEMENTS) == (k * (k - 1) // 2, k)


@pytest.mark.parametrize("k", [1, qc.MAX_DIM + 1, 70000])
def test_builders_reject_dimension_out_of_range(k):
    # checked before anything is allocated: K = 70000 needs 36.5 GiB dense
    builders = [qc.dft_multiport, qc.extendable_matrix, qc.extendable_layout,
                qc.optimal_tree_layout]
    builders += [lambda k, d=design: qc.build_design(k, d) for design in qc.DESIGNS]
    builders += [lambda k, d=design: qc.table_counts(k, d) for design in qc.DESIGNS]
    for build in builders:
        with pytest.raises(InvalidDimensionError, match=f"in 2..{qc.MAX_DIM}, got {k}"):
            build(k)
    assert qc.optimal_tree_layout(qc.MAX_DIM).bs_count == qc.MAX_DIM - 1


class TestSingleFlipIdentity:
    @pytest.mark.parametrize("design", qc.DESIGNS)
    @pytest.mark.parametrize("k", [2, 3, 4, 7, 8, 16])
    def test_flipped_input_power_on_zero_sum_rows(self, design, k):
        matrix, layout = qc.build_design(k, design)
        m = qc.compose_layout(layout) if design != qc.DESIGN_EXTENDABLE else matrix
        alpha2, pulses = 3.7, 50
        amp = math.sqrt(alpha2 / pulses)
        bus = int(np.argmax(np.abs(m.sum(axis=1))))
        for flip in range(k):
            a = np.full(k, amp, dtype=complex)
            a[flip] = -amp
            out = np.abs(m @ a) ** 2
            rest = out.sum() - out[bus]
            assert rest == pytest.approx(4 * (k - 1) * alpha2 / (k * pulses), abs=1e-10)


def reference_layout_to_json(layout):
    """The record-by-record writer: one dict per element of ``layout.elements``."""
    return json.dumps(
        {
            "dim": layout.dim,
            "design": layout.design,
            "bs_count": layout.bs_count,
            "optical_depth": layout.optical_depth,
            "output_perm": list(layout.output_perm) if layout.output_perm else None,
            "elements": [
                {
                    "kind": e.kind,
                    "ports": list(e.ports),
                    "t": e.t,
                    "omega": math.asin(math.sqrt(e.t)) if e.kind == qc.UNBALANCED_BS else e.phase,
                    "layer": e.layer,
                }
                for e in layout.elements
            ],
        }
    )


JSON_ORACLE = [(name, k) for name in ORACLE_LAYOUTS for k in ORACLE_K] + [
    ("reck", 64), ("clements", 64)
]


class TestJsonInterfaces:
    def test_matrix_round_trip(self):
        m = qc.dft_multiport(5)
        back = qc.matrix_from_json(qc.matrix_to_json(m))
        assert np.abs(back - m).max() < 1e-15

    @pytest.mark.parametrize("name, k", JSON_ORACLE)
    def test_layout_json_matches_record_writer(self, name, k):
        layout = oracle_layout(name, k)
        got, want = qc.layout_to_json(layout), reference_layout_to_json(layout)
        # equal token lists mean equal strings; a failure then names the first
        # differing token instead of diffing one megabyte-long line
        assert got.split(", ") == want.split(", ")

    def test_layout_json_extreme_floats(self):
        # the direct writer formats floats with float.__repr__, as json does
        elements = [
            qc.CircuitElement(qc.PHASE_SHIFTER, (1,), phase=phase, layer=i)
            for i, phase in enumerate((-0.0, 5e-324, 1e300, -1e300, 0.1))
        ] + [
            qc.CircuitElement(qc.UNBALANCED_BS, (1, 2), t=t, layer=9)
            for t in (0.0, -0.0, 5e-324, 1.0, 1.0 - 2**-53)
        ]
        layout = qc.CircuitLayout(2, "custom", tuple(elements))
        text = qc.layout_to_json(layout)
        assert text == reference_layout_to_json(layout)
        assert '"omega": -0.0' in text and '"omega": 5e-324' in text and "1e+300" in text
        assert qc.layout_from_json(text).value.tobytes() == layout.value.tobytes()

    def test_layout_round_trip(self):
        layouts = [oracle_layout(name, k) for name, k in JSON_ORACLE]
        layouts += [qc.optimal_tree_layout(6), qc.extendable_layout(5),
                    qc.clements_decompose(qc.dft_multiport(4))]
        for lay in layouts:
            back = qc.layout_from_json(qc.layout_to_json(lay))
            for name in ("kind", "ports", "value", "layer"):
                assert np.array_equal(getattr(back, name), getattr(lay, name), equal_nan=True)
            assert back.elements == lay.elements
            assert back.bs_count == lay.bs_count
            assert back.optical_depth == lay.optical_depth
            assert back.output_perm == lay.output_perm
            assert np.array_equal(qc.compose_layout(back), qc.compose_layout(lay))
        for k in ORACLE_K:
            assert oracle_layout("mixed", k).elements == mixed_elements(k)


MALFORMED = {
    "unknown-kind": qc.CircuitElement("mirror", (1, 2), t=0.5),
    "beamsplitter-one-port": qc.CircuitElement(qc.UNBALANCED_BS, (1,), t=0.5),
    "symmetric-one-port": qc.CircuitElement(qc.SYMMETRIC_BS, (2,)),
    "shifter-two-ports": qc.CircuitElement(qc.PHASE_SHIFTER, (1, 2), phase=0.3),
    "beamsplitter-without-t": qc.CircuitElement(qc.UNBALANCED_BS, (1, 2)),
    "shifter-without-phase": qc.CircuitElement(qc.PHASE_SHIFTER, (2,)),
    "port-0": qc.CircuitElement(qc.UNBALANCED_BS, (0, 2), t=0.5),
    "shifter-port-0": qc.CircuitElement(qc.PHASE_SHIFTER, (0,), phase=0.3),
    "port-k+1": qc.CircuitElement(qc.SYMMETRIC_BS, (2, 4)),
    "shifter-port-k+1": qc.CircuitElement(qc.PHASE_SHIFTER, (4,), phase=0.3),
    "unordered-ports": qc.CircuitElement(qc.UNBALANCED_BS, (2, 1), t=0.5),
    "equal-ports": qc.CircuitElement(qc.SYMMETRIC_BS, (2, 2)),
    "t=-0.1": qc.CircuitElement(qc.UNBALANCED_BS, (1, 2), t=-0.1),
    "t=1.5": qc.CircuitElement(qc.UNBALANCED_BS, (1, 2), t=1.5),
    "t=nan": qc.CircuitElement(qc.UNBALANCED_BS, (1, 2), t=math.nan),
    "phase=nan": qc.CircuitElement(qc.PHASE_SHIFTER, (2,), phase=math.nan),
    "phase=inf": qc.CircuitElement(qc.PHASE_SHIFTER, (2,), phase=math.inf),
    "non-integer-port": qc.CircuitElement(qc.UNBALANCED_BS, (1.5, 3), t=0.5),
    "string-port": qc.CircuitElement(qc.SYMMETRIC_BS, ("1", 3)),
    "string-t": qc.CircuitElement(qc.UNBALANCED_BS, (1, 2), t="0.5"),
    "string-phase": qc.CircuitElement(qc.PHASE_SHIFTER, (1,), phase="0.3"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_element_is_rejected(case):
    # after a valid element, so the check covers more than the first row
    el = MALFORMED[case]
    elements = (qc.CircuitElement(qc.UNBALANCED_BS, (1, 3), t=0.5), el)
    with pytest.raises(LayoutError):
        qc.compose_layout(qc.CircuitLayout(3, "custom", elements))
    record = {"kind": el.kind, "ports": list(el.ports), "layer": 0}
    record |= {"t": el.t} if el.t is not None else {}
    record |= {"omega": el.phase} if el.phase is not None else {}
    text = json.dumps({"dim": 3, "design": "custom", "output_perm": None, "elements": [
        {"kind": qc.UNBALANCED_BS, "ports": [1, 3], "t": 0.5, "omega": None, "layer": 0}, record
    ]})
    with pytest.raises(LayoutError):
        qc.compose_layout(qc.layout_from_json(text))


def reference_layout_from_json(text):
    """The reader that checked each record with one ``_row`` call
    (``_record_row``: a record that is not an object with a kind and ports
    is a ``LayoutError``)."""
    data = json.loads(text)
    rows = [qc._record_row(e) for e in data["elements"]]
    perm = data.get("output_perm")
    return qc.CircuitLayout._from_columns(
        data["dim"], data["design"], qc._columns(rows), tuple(perm) if perm else None
    )


_UBS_RECORD = {"kind": qc.UNBALANCED_BS, "ports": [1, 3], "t": 0.5, "omega": 0.7, "layer": 0}
_PS_RECORD = {"kind": qc.PHASE_SHIFTER, "ports": [2], "t": None, "omega": 0.3, "layer": 1}
_SBS_RECORD = {"kind": qc.SYMMETRIC_BS, "ports": [1, 2], "t": None, "omega": None, "layer": 2}

#: One bad field per record: its kind, port count, t or phase, port type, value.
BAD_RECORDS = {
    "unknown-kind": _UBS_RECORD | {"kind": "mirror"},
    "list-kind": _UBS_RECORD | {"kind": ["mirror"]},
    "beamsplitter-one-port": _UBS_RECORD | {"ports": [1]},
    "symmetric-three-ports": _SBS_RECORD | {"ports": [1, 2, 3]},
    "shifter-two-ports": _PS_RECORD | {"ports": [1, 2]},
    "shifter-no-port": _PS_RECORD | {"ports": []},
    "beamsplitter-without-t": {k: v for k, v in _UBS_RECORD.items() if k != "t"},
    "beamsplitter-null-t": _UBS_RECORD | {"t": None},
    "shifter-without-phase": _PS_RECORD | {"omega": None},
    "non-integer-port": _UBS_RECORD | {"ports": [1.5, 3]},
    "string-port": _SBS_RECORD | {"ports": ["1", 3]},
    "nested-port": _PS_RECORD | {"ports": [[2]]},
    "string-t": _UBS_RECORD | {"t": "0.5"},
    "t=nan": _UBS_RECORD | {"t": math.nan},
    "phase=inf": _PS_RECORD | {"omega": -math.inf},
    "ports-not-a-list": _UBS_RECORD | {"ports": 5},
    "float-layer": _PS_RECORD | {"layer": 1.5},
    "string-layer": _SBS_RECORD | {"layer": "0"},
    "without-kind": {k: v for k, v in _UBS_RECORD.items() if k != "kind"},
    "not-an-object": 3,
}

_MATRIX = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}

#: One bad field per document, read by the layout or the matrix reader, and
#: the typed error it raises.
BAD_DOCUMENTS = {
    "layout-dim-string": ("layout", {"dim": "3"}, InvalidDimensionError),
    "layout-dim-float": ("layout", {"dim": 3.0}, InvalidDimensionError),
    "layout-dim-missing": ("layout", {"dim": None}, InvalidDimensionError),
    "layout-elements-object": ("layout", {"elements": {}}, LayoutError),
    "layout-elements-missing": ("layout", {"elements": None}, LayoutError),
    "layout-design-number": ("layout", {"design": 3}, LayoutError),
    "layout-output-perm-number": ("layout", {"output_perm": 5}, LayoutError),
    "matrix-dim-string": ("matrix", {"dim": "2"}, InvalidDimensionError),
    "matrix-ragged-rows": ("matrix", {"re": [[1.0, 0.0], [0.0]]}, LayoutError),
    "matrix-missing-im": ("matrix", {"im": None}, LayoutError),
    "matrix-string-entries": ("matrix", {"re": [["1", "0"], ["0", "1"]]}, LayoutError),
    "matrix-wrong-shape": ("matrix", {"dim": 3}, LayoutError),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS)
def test_malformed_document_is_rejected(case):
    reader, change, error = BAD_DOCUMENTS[case]
    if reader == "layout":
        data = json.loads(_layout_text([_UBS_RECORD]))
        read = qc.layout_from_json
    else:
        data = _MATRIX
        read = qc.matrix_from_json

    def text(data):
        return json.dumps({k: v for k, v in data.items() if v is not None})  # None: no key

    read(text(data))  # without the change it reads, output_perm key or not
    with pytest.raises(error):
        read(text(data | change))
    for text in ("[]", "3", '"layout"'):  # not a JSON object at all
        with pytest.raises(LayoutError):
            read(text)


def _layout_text(records):
    return json.dumps({"dim": 3, "design": "custom", "output_perm": None, "elements": records})


def _error(read, text):
    """Type and message of the error ``read`` raises (a ragged port list
    makes numpy raise a ValueError, not a LayoutError)."""
    with pytest.raises((LayoutError, ValueError)) as info:
        read(text)
    return type(info.value), str(info.value)


class TestLayoutFromJsonChecks:
    @pytest.mark.parametrize("case", BAD_RECORDS)
    def test_first_bad_record_names_the_error(self, case):
        for other in BAD_RECORDS:
            for records in (
                [_UBS_RECORD, BAD_RECORDS[case], _PS_RECORD, BAD_RECORDS[other]],
                [_SBS_RECORD, BAD_RECORDS[other], BAD_RECORDS[case]],
            ):
                text = _layout_text(records)
                assert _error(qc.layout_from_json, text) == _error(reference_layout_from_json, text)

    def test_messages(self):
        def message(case):
            text = _layout_text([_UBS_RECORD, BAD_RECORDS[case]])
            kind, message = _error(qc.layout_from_json, text)
            assert kind is LayoutError
            return message

        assert message("unknown-kind") == "unknown element kind: 'mirror'"
        assert message("shifter-two-ports") == "phase-shifter needs 1 port(s), got [1, 2]"
        assert message("beamsplitter-without-t") == (
            "unbalanced-beamsplitter on ports [1, 3] without a t"
        )
        assert message("shifter-without-phase") == "phase-shifter on ports [2] without a phase"
        assert message("non-integer-port") == (
            "element ports must be integers, t and phases real numbers"
        )
        assert message("phase=inf") == "phase-shifter with a non-finite t or phase: -inf"

    def test_unusual_records_read_like_the_record_reader(self):
        records = [
            _UBS_RECORD | {"t": 1},  # an integer t
            _UBS_RECORD | {"ports": [True, 3]},  # a boolean port beside integer ones
            _SBS_RECORD | {"t": "ignored", "omega": [0.1]},
            {k: v for k, v in _PS_RECORD.items() if k not in ("t", "layer")},
        ]
        for chosen in ([records[0]], [records[1]], records, [_SBS_RECORD], [records[2]], []):
            text = _layout_text(chosen)
            got, want = qc.layout_from_json(text), reference_layout_from_json(text)
            for name in ("kind", "ports", "value", "layer"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b, equal_nan=True), name


class TestRowSumsAllDesigns:
    @pytest.mark.parametrize("design", qc.DESIGNS)
    def test_composed_matrix_row_structure(self, design):
        for k in range(2, 33):
            layout = qc.build_design(k, design)[1]
            assert row_sum_structure(qc.compose_layout(layout)), (design, k)
