"""Referee multiport circuits.

Ideal transfer matrices and elementary-element layouts for the four circuit
designs (optimal tree, extendable chain, and generalized beamsplitters via
triangular Reck or rectangular Clements meshes), plus composition of layouts
back into matrices and decomposition of arbitrary unitaries into meshes.

Conventions used throughout:

* A transfer matrix is a dense complex ``(K, K)`` ndarray mapping input
  amplitudes to output amplitudes, ``b = T @ a``.
* Every unbalanced beamsplitter is embedded per the single 2x2 convention

      [[ sqrt(t),        sqrt(1 - t)],
       [-sqrt(1 - t),    sqrt(t)    ]]

  acting on ports ``(l_min, l_max)``, i.e. the minus sign sits in the
  ``(l_max, l_min)`` slot.
* Phase shifters are free-standing single-port elements; decompositions
  keep their residual output phases as explicit elements so that the
  reconstruction is exact, not merely exact up to output phases.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError, InvalidDimensionError, LayoutError, ParameterError
from .errors import check_int, check_real, check_type

UNBALANCED_BS = "unbalanced-beamsplitter"
SYMMETRIC_BS = "symmetric-beamsplitter"
PHASE_SHIFTER = "phase-shifter"
#: Element kinds; ``CircuitLayout.kind`` holds indices into this tuple.
KINDS = (UNBALANCED_BS, SYMMETRIC_BS, PHASE_SHIFTER)
_UBS, _SBS, _PS = range(3)

DESIGN_OPTIMAL = "optimal-tree"
DESIGN_EXTENDABLE = "extendable"
DESIGN_RECK = "generalized-bs-reck"
DESIGN_CLEMENTS = "generalized-bs-clements"
DESIGNS = (DESIGN_OPTIMAL, DESIGN_EXTENDABLE, DESIGN_CLEMENTS, DESIGN_RECK)

_UNITARITY_TOL = 1e-10
_PHASE_EPS = 1e-14

#: Largest multiport dimension a builder accepts; a dense K x K complex
#: matrix at this size takes 16 MiB.
MAX_DIM = 1024
#: Largest stack of composed matrices, in bytes, that ``_compose`` builds:
#: ``n`` complex K x K matrices take ``16 n K**2`` bytes (1 GiB holds 500
#: realizations up to K = 366).  A larger request is a ``ParameterError``.
MAX_STACK_BYTES = 1 << 30


def _check_dim(k: int) -> None:
    check_int("multiport dimension", k, 2, MAX_DIM, InvalidDimensionError)


def _check_transmittance(t: np.ndarray, error: type = LayoutError) -> None:
    """Raise ``error`` unless every power transmittance in ``t`` lies in [0, 1]."""
    bad = ~((t >= 0.0) & (t <= 1.0))  # NaN fails too
    if bad.any():
        raise error(f"power transmittance outside [0, 1]: {t[bad.argmax()]}")


def _check_stack(k: int, n: int) -> None:
    """Raise ``ParameterError`` if ``n`` K x K complex matrices exceed
    ``MAX_STACK_BYTES``."""
    size = 16 * n * k * k
    if size > MAX_STACK_BYTES:
        raise ParameterError(
            f"{n} matrices at K = {k} need {size:,} bytes, above the limit of "
            f"{MAX_STACK_BYTES:,}; ask for fewer realizations or a smaller K"
        )


class CircuitElement(NamedTuple):
    """One elementary optical element (immutable).

    ``ports`` are 1-based; beamsplitters carry ``(l_min, l_max)`` with
    ``l_min < l_max``, phase shifters a single port.  ``t`` is the power
    transmittance of a beamsplitter, ``phase`` the shift in radians.
    ``layer`` is the 0-based position along the optical depth.
    """

    kind: str
    ports: tuple[int, ...]
    t: float | None = None
    phase: float | None = None
    layer: int = 0


class CircuitLayout:
    """Ordered circuit elements plus design metadata, stored as columns.

    Element ``n`` is row ``n`` of four arrays: ``kind`` (int8 index into
    ``KINDS``), ``ports`` (``(n, 2)``, 1-based; a phase shifter's second
    port is 0), ``value`` (``t`` of an unbalanced beamsplitter, the phase
    of a phase shifter, NaN for a symmetric beamsplitter) and ``layer``.
    A bad dimension or design name and structurally malformed elements are
    rejected here; port ranges, ``t`` and ``output_perm`` are checked when
    the layout is composed.  ``elements`` is a view of the columns as
    ``CircuitElement`` records, built on first access.

    ``output_perm``, when present, relabels the raw composed product:
    output ``i`` of the circuit is row ``output_perm[i]`` (0-based) of the
    raw element product.  The extendable chain needs this because its
    conventional matrix presentation lists the photon-keeping output last,
    which no product of the fixed 2x2 blocks can produce directly.
    """

    def __init__(
        self,
        dim: int,
        design: str,
        elements: tuple[CircuitElement, ...],
        output_perm: tuple[int, ...] | None = None,
    ):
        _check_dim(dim)
        if not (isinstance(design, str) and isinstance(elements, (tuple, list))
                and all(isinstance(e, CircuitElement) for e in elements)):
            raise LayoutError("a layout needs a design name and a sequence of CircuitElement, "
                              f"got {design!r} and {elements!r}")
        self.dim, self.design, self.output_perm = dim, design, output_perm
        self.kind, self.ports, self.value, self.layer = _columns(
            [_row(e.kind, e.ports, e.t, e.phase, e.layer) for e in elements]
        )

    @classmethod
    def _from_columns(
        cls, dim: int, design: str, columns, output_perm=None, depth: int | None = None
    ) -> CircuitLayout:
        """A layout from trusted columns; a builder that knows the optical
        depth passes it as ``depth``."""
        layout = cls.__new__(cls)
        layout.dim, layout.design, layout.output_perm = dim, design, output_perm
        layout.kind, layout.ports, layout.value, layout.layer = columns
        if depth is not None:
            layout._depth = depth
        return layout

    @cached_property
    def elements(self) -> tuple[CircuitElement, ...]:
        return tuple(
            CircuitElement(PHASE_SHIFTER, (a,), None, v, layer) if code == _PS
            else CircuitElement(UNBALANCED_BS, (a, b), v, None, layer) if code == _UBS
            else CircuitElement(SYMMETRIC_BS, (a, b), None, None, layer)
            for code, (a, b), v, layer in zip(
                self.kind.tolist(), self.ports.tolist(), self.value.tolist(),
                self.layer.tolist(),
            )
        )

    @property
    def bs_count(self) -> int:
        return int(np.count_nonzero(self.kind != _PS))

    @property
    def optical_depth(self) -> int:
        """Maximum number of beamsplitters on any input->output path."""
        return self._depth

    @cached_property
    def _plan(self) -> _Plan:
        """The composition plan of a stack (``_compose``)."""
        return _make_plan(self, hulls=True)

    @cached_property
    def _omega(self) -> np.ndarray:
        """``asin(sqrt(t))`` of each unbalanced beamsplitter, in layout order:
        the angle of a noisy block (``noise``); a t outside [0, 1] is a
        ``ParameterError``."""
        t = self.value[self.kind == _UBS]
        _check_transmittance(t, ParameterError)
        return _asin_sqrt(t)

    @cached_property
    def _depth(self) -> int:
        ports = self.ports[self.kind != _PS] - 1
        return _levels(self.dim, ports[:, 0].tolist(), ports[:, 1].tolist())[1] // 2


def _asin_sqrt(t: np.ndarray) -> np.ndarray:
    """``asin(sqrt(t))`` elementwise for t in [0, 1]."""
    # math.asin, not np.arcsin: the two differ in the last bit
    return np.array([math.asin(math.sqrt(x)) for x in t.tolist()])


def _row(kind, ports, t, phase, layer) -> tuple:
    """One element's ``(kind code, port a, port b, value, layer)`` row."""
    if kind == PHASE_SHIFTER:
        code, n_ports, value = _PS, 1, phase
    elif kind == UNBALANCED_BS:
        code, n_ports, value = _UBS, 2, t
    elif kind == SYMMETRIC_BS:
        code, n_ports, value = _SBS, 2, math.nan
    else:
        raise LayoutError(f"unknown element kind: {kind!r}")
    if not isinstance(ports, (tuple, list)) or len(ports) != n_ports:
        raise LayoutError(f"{kind} needs {n_ports} port(s), got {ports}")
    if value is None:
        missing = "phase" if code == _PS else "t"
        raise LayoutError(f"{kind} on ports {ports} without a {missing}")
    return code, ports[0], ports[1] if n_ports == 2 else 0, value, layer


def _columns(rows: list[tuple]) -> tuple[np.ndarray, ...]:
    """The ``(kind, ports, value, layer)`` columns of ``_row`` rows."""
    kind, a, b, value, layer = zip(*rows) if rows else ((),) * 5
    # no dtype yet: numpy would turn 1.5 or "1" into port 1 and "0.5" into t
    try:
        ports, value = np.array([a, b]).T.reshape(-1, 2), np.array(value)
    except ValueError:  # a nested port
        ports = value = np.array(())
    if rows and (ports.dtype.kind not in "iu" or value.dtype.kind not in "iuf"):
        raise LayoutError("element ports must be integers, t and phases real numbers")
    layer = np.array(layer)
    if rows and layer.dtype.kind not in "iu":
        raise LayoutError(f"element layers must be integers, got {layer.tolist()}")
    kind, value = np.array(kind, dtype=np.int8), value.astype(float)
    bad = ~np.isfinite(value) & (kind != _SBS)
    if bad.any():
        raise LayoutError(f"{KINDS[kind[bad.argmax()]]} with a non-finite t or phase: "
                          f"{value[bad.argmax()]}")
    return kind, ports.astype(np.intp), value, layer.astype(np.intp)


def _levels(k: int, first: list[int], second: list[int]) -> tuple[list[int], int]:
    """Earliest level of each step on 0-based ports ``(first[n], second[n])``,
    in order, and the number of levels.

    A one-port step has ``first[n] == second[n]``.  One-port steps take even
    levels and two-port steps odd ones, so the steps of one level touch
    disjoint ports and all have one port count.  In a sequence of two-port
    steps only, level ``2 l + 1`` is optical layer ``l``, and the number of
    levels is twice the optical depth.
    """
    depth = [0] * k
    levels = []
    for a, b in zip(first, second):
        d = depth[a] if depth[a] > depth[b] else depth[b]
        if d & 1 == (a == b):
            d += 1
        levels.append(d)
        depth[a] = depth[b] = d + 1
    return levels, max(depth, default=0)


def _mesh_layout(
    k: int, design: str, modes: np.ndarray, t: np.ndarray, phi: np.ndarray,
    output_phases: np.ndarray,
) -> CircuitLayout:
    """Layout of a mesh given as arrays, one entry per block.

    Block ``n`` is a phase shifter ``phi[n]`` on the 0-based mode
    ``modes[n]`` followed by a beamsplitter of transmittance ``t[n]`` on
    modes ``(modes[n], modes[n] + 1)``, both on the beamsplitter's layer;
    ``output_phases`` are shifters on the outputs at layer = depth.  A
    phase shifter of at most ``_PHASE_EPS`` radians is left out.
    """
    levels, n_levels = _levels(k, modes.tolist(), (modes + 1).tolist())
    layers, depth = np.array(levels, dtype=np.intp) // 2, n_levels // 2
    n = len(modes)
    kind = np.full(2 * n + k, _PS, dtype=np.int8)
    kind[1 : 2 * n : 2] = _UBS
    ports = np.zeros((2 * n + k, 2), dtype=np.intp)
    ports[: 2 * n, 0] = np.repeat(modes + 1, 2)
    ports[2 * n :, 0] = np.arange(1, k + 1)
    ports[1 : 2 * n : 2, 1] = modes + 2
    value = np.concatenate([np.stack([phi, t], axis=1).reshape(-1), output_phases])
    layer = np.concatenate([np.repeat(layers, 2), np.full(k, depth)])
    keep = (kind == _UBS) | (np.abs(value) > _PHASE_EPS)
    return CircuitLayout._from_columns(
        k, design, (kind[keep], ports[keep], value[keep], layer[keep]), depth=depth
    )


def dft_multiport(k: int) -> np.ndarray:
    """Discrete-Fourier multiport: u_ij = exp(2*pi*i*(i-1)(j-1)/K)/sqrt(K)."""
    _check_dim(k)
    idx = np.arange(k)
    return np.exp(2j * np.pi * np.outer(idx, idx) / k) / math.sqrt(k)


def extendable_matrix(k: int) -> np.ndarray:
    """Closed-form matrix of the extendable chain design.

    Row j (1-based, j < K) holds ``-1/sqrt((j+1)j)`` in columns 1..j and
    ``sqrt(j/(j+1))`` in column j+1; the last row is uniformly 1/sqrt(K).
    """
    _check_dim(k)
    m = np.zeros((k, k))
    for j in range(1, k):
        m[j - 1, :j] = -1.0 / math.sqrt((j + 1) * j)
        m[j - 1, j] = math.sqrt(j / (j + 1))
    m[k - 1, :] = 1.0 / math.sqrt(k)
    return m.astype(complex)


def extendable_layout(k: int) -> CircuitLayout:
    """Chain of K-1 unbalanced beamsplitters with t_k = (k-1)/k."""
    _check_dim(k)
    j = np.arange(2, k + 1)
    columns = (
        np.full(k - 1, _UBS, dtype=np.int8),
        np.stack([np.ones_like(j), j], axis=1),
        (j - 1) / j,
        j - 2,
    )
    # The raw chain product keeps the photon-gaining bus on output 1; the
    # conventional presentation lists it last.
    perm = tuple(range(1, k)) + (0,)
    return CircuitLayout._from_columns(k, DESIGN_EXTENDABLE, columns, perm, depth=k - 1)


def optimal_tree_layout(k: int) -> CircuitLayout:
    """Binary-tree layout with K-1 beamsplitters and depth ceil(log2 K).

    Labels are split recursively into a ceil-half and a floor-half group;
    the beamsplitter joining two groups of total size n has transmittance
    ceil(n/2)/n and connects the first labels of the two groups.  The
    photon-keeping output is port 1.
    """
    _check_dim(k)
    rows: list[tuple[int, int, float, int]] = []

    def split(first: int, n: int) -> int:
        """Depth of the subtree over labels ``first .. first + n - 1``."""
        if n == 1:
            return 0
        n_hi = -(-n // 2)
        d = max(split(first, n_hi), split(first + n_hi, n - n_hi))
        rows.append((first, first + n_hi, n_hi / n, d))
        return d + 1

    depth = split(1, k)
    a, b, t, layer = zip(*rows)
    columns = (
        np.full(k - 1, _UBS, dtype=np.int8),
        np.array([a, b], dtype=np.intp).T,
        np.array(t),
        np.array(layer, dtype=np.intp),
    )
    return CircuitLayout._from_columns(k, DESIGN_OPTIMAL, columns, depth=depth)


#: Largest operand, in bytes, that one stacked row update of a single
#: product gathers: the elements of one level and kind are updated in
#: chunks whose rows fit in it.
_GATHER_BYTES = 256 * 1024


class _Plan(NamedTuple):
    """What composing a layout needs of it besides the beamsplitters'
    coefficients (``_make_plan``).

    The elements are in group order: one group per (level, kind), each in
    layout order, ending at each of ``ends``.  Per element in that order,
    ``codes`` holds the kind, ``rows`` (``(2, E)``) the storage rows (a
    shifter's first row twice), ``column`` the index among the unbalanced
    beamsplitters and ``factor`` (``(E, 1, 1)``) a shifter's phase factor.
    ``hulls``, built for stacks only, holds each element's two storage rows
    and the columns ``[left, right)`` it updates on the single-row path.
    """

    perm: list[int]
    ends: list[int]
    codes: list[int]
    rows: np.ndarray
    column: np.ndarray
    factor: np.ndarray
    hulls: list[tuple[int, int, int, int]] | None


def _make_plan(layout: CircuitLayout, hulls: bool) -> _Plan:
    """Validate a layout and schedule its elements by level (``_Plan``)."""
    k = layout.dim
    perm = list(range(k)) if layout.output_perm is None else layout.output_perm
    integers = isinstance(perm, (tuple, list)) and all(
        isinstance(p, (int, np.integer)) and not isinstance(p, bool) for p in perm
    )
    if not (integers and sorted(perm) == list(range(k))):
        raise LayoutError(f"output_perm is not a permutation of 0..{k - 1}")
    perm = list(perm)
    kind, ports = layout.kind, layout.ports
    a, b = ports[:, 0], ports[:, 1]
    bad = (a < 1) | np.where(kind == _PS, a > k, (b <= a) | (b > k))
    if bad.any():
        raise LayoutError(f"ports out of range or unordered: {ports[bad.argmax()].tolist()}")
    _check_transmittance(layout.value[kind == _UBS])
    rows = np.argsort(perm)[ports - 1]  # 1-based port -> storage row
    rows[:, 1] = np.where(kind == _PS, rows[:, 0], rows[:, 1])
    levels = _levels(k, rows[:, 0].tolist(), rows[:, 1].tolist())[0]
    key = np.array(levels, dtype=np.intp) * len(KINDS) + kind
    order = np.argsort(key, kind="stable")
    ends = (np.flatnonzero(np.diff(key[order], append=-1)) + 1).tolist()
    rows, codes = rows[order].T, kind[order]
    column = (np.cumsum(kind == _UBS) - 1)[order]
    factor = np.ones((len(order), 1, 1), dtype=complex)
    ps = codes == _PS
    factor[ps, 0, 0] = [cmath.exp(1j * v) for v in layout.value[order[ps]].tolist()]
    spans = None
    if hulls:
        # columns [left, right) that can hold each storage row's nonzeros
        left, right = perm[:], [p + 1 for p in perm]
        spans = []
        for a, b in rows.T.tolist():
            left[a] = left[b] = lo = min(left[a], left[b])
            right[a] = right[b] = hi = max(right[a], right[b])
            if hi - lo < 2:  # a shifter on an untouched row
                lo = min(lo, k - 2)
                hi = lo + 2
            spans.append((a, b, lo, hi))
    return _Plan(perm, ends, codes.tolist(), rows, column, factor, spans)


def _compose(layout: CircuitLayout, blocks, n: int = 1) -> np.ndarray:
    """Stack of ``n`` ordered products of a layout's elements, first element first.

    ``blocks(columns)`` gives the complex coefficients ``(b00, b01, b10,
    b11)`` of the unbalanced beamsplitters ``columns`` (indices among them,
    in layout order) as ``(4, len(columns), n, 1)``: one block per product,
    or ``n = 1`` for one ideal product.  It is called once per group, so a
    noisy stack holds one group's blocks at a time.  The stack is stored
    row first, ``(K, n, K)``, so row ``a`` of every product is one
    contiguous ``(n, K)`` slice, with rows at their ``output_perm``
    position from the start; the result is the ``(n, K, K)`` transposed
    view.

    Elements are applied by level (``_levels`` over the ports, a phase
    shifter being a one-port step), so the elements of one level touch
    disjoint rows and commute exactly; every row sees the same operations,
    in the same order, as element by element.  The path depends on ``n``
    alone.  A single product (``compose_layout``, ``realize_circuit``)
    applies each level as one stacked row update per element kind, in
    chunks of at most ``_GATHER_BYTES`` of rows.  A stack of ``n > 1``
    updates each element alone, in place through views, and only over the
    columns that can be nonzero: each storage row keeps the hull ``[left,
    right)`` of its nonzero columns, starting from its ``output_perm``
    column, and an element updates the union hull of its two rows.  Outside
    it both rows are zero, so the result equals the full-row update under
    ``==`` (a full-row update could only have given -0.0 there).  An update
    is at least 2 columns wide, since numpy can round a complex product
    over one column differently from the same product over a longer row.
    A stack's plan is kept on the layout (``_plan``); a single product's is
    built per call.
    """
    k = layout.dim
    _check_stack(k, n)
    plan = layout._plan if n > 1 else _make_plan(layout, hulls=False)
    m = np.zeros((k, n, k), dtype=complex)
    m[np.arange(k), :, plan.perm] = 1.0
    step = max(1, _GATHER_BYTES // m[0].nbytes)
    start = 0
    for end in plan.ends:
        code = plan.codes[start]
        ubs = code == _UBS
        c = blocks(plan.column[start:end]) if ubs else plan.factor[start:end]
        if n > 1:
            for j, (a, b, lo, hi) in enumerate(plan.hulls[start:end]):
                _update_row(m[:, :, lo:hi], code, (a, b), c[:, j] if ubs else c[j])
        else:
            for lo in range(start, end, step):
                hi = min(lo + step, end)
                part = slice(lo - start, hi - start)
                _update(m, code, plan.rows[:, lo:hi], c[:, part] if ubs else c[part])
        start = end
    return m.transpose(1, 0, 2)


def _update(m: np.ndarray, code: int, rows: np.ndarray, c: np.ndarray) -> None:
    """Apply ``L`` elements of one kind on disjoint storage rows to the
    row-first stack ``m``.  ``rows`` is ``(2, L)``, each element's first
    row over its second (a shifter's first row twice); ``c`` is ``(4, L,
    ...)`` beamsplitter coefficients or ``(L, 1, 1)`` phase factors.  The
    rows are gathered, updated and scattered back."""
    if code == _PS:
        m[rows[0]] = m[rows[0]] * c
        return
    r = m[rows]  # (2, L, n, K): first rows over second rows
    if code == _UBS:
        # coefficient first: numpy's complex c * x and x * c can round apart;
        # p[i, j] = b_ij * r[j], so new row i is p[i, 0] + p[i, 1]
        p = c.reshape(2, 2, *c.shape[1:]) * r
        m[rows] = p[:, 0] + p[:, 1]
    else:
        # new rows ra + 1j rb and 1j ra + rb; complex addition commutes bit for bit
        j = 1j * r
        m[rows] = (1.0 / math.sqrt(2.0)) * (r + j[::-1])


def _update_row(m: np.ndarray, code: int, rows: tuple[int, int], c: np.ndarray) -> None:
    """``_update`` for a single element, in place through views of its rows;
    ``rows`` is the pair of storage rows and ``c`` is ``(4, ...)``
    coefficients or a ``(1, 1)`` phase factor."""
    a, b = rows
    ra, rb = m[a], m[b]
    if code == _PS:
        ra *= c
        return
    if code == _UBS:
        new_a = c[0] * ra + c[1] * rb
        m[b] = c[2] * ra + c[3] * rb
    else:
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        new_a = inv_sqrt2 * (ra + 1j * rb)
        m[b] = inv_sqrt2 * (1j * ra + rb)
    m[a] = new_a


def compose_layout(layout: CircuitLayout) -> np.ndarray:
    """Ordered product of the embedded element matrices, first element first."""
    check_type("layout", layout, CircuitLayout)
    t = layout.value[layout.kind == _UBS]
    with np.errstate(invalid="ignore"):  # _compose rejects t outside [0, 1]
        st, sr = np.sqrt(t), np.sqrt(1.0 - t)
    # complex, not float: numpy multiplies by a real scalar as by that
    # complex number, only slower
    coef = np.stack([st, sr, -sr, st]).astype(complex)[..., None, None]
    return _compose(layout, lambda columns: coef[:, columns])[0]


def _check_unitary(u: np.ndarray, tol: float) -> np.ndarray:
    check_real("tol", tol, 0.0, ends="()")
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError):  # not numbers, or ragged rows
        u = np.array(())
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DecompositionError(f"expected a square matrix, got shape {u.shape}")
    k = u.shape[0]
    _check_dim(k)
    # einsum keeps this product off multithreaded BLAS: for large K the
    # BLAS worker threads would spin on through the decomposition and
    # count against the caller's process time.
    err = np.abs(np.einsum("ij,ik->jk", u.conj(), u) - np.eye(k)).max()
    if err > tol:
        raise DecompositionError(f"matrix is not unitary: max |U^H U - I| = {err:.3e}")
    return u


def reck_decompose(u: np.ndarray, tol: float = _UNITARITY_TOL) -> CircuitLayout:
    """Triangular mesh: K(K-1)/2 beamsplitter blocks, depth 2K-3.

    Nulls the below-diagonal entries row by row from the bottom using
    right-multiplications on adjacent column pairs; what remains is a
    diagonal of unit phases kept as output shifters.

    Step (i, j), taken for i = K-1..1 and j = 0..i-1 in that order, nulls
    entry (i, j) by mixing columns j and j+1 and lies on mesh layer
    tau = j + 2(K-1-i).  The steps of one layer mix disjoint column pairs,
    and every step that shares a column with an earlier step of that order
    lies on an earlier layer, so nulling the 2K-3 layers one batch at a
    time gives the step-by-step result.
    """
    u = _check_unitary(u, tol)
    k = u.shape[0]
    n = k * (k - 1) // 2
    vt = u.T.copy()  # work transposed so the column pairs are contiguous rows
    flat = vt.reshape(-1)
    ks = np.arange(k)
    t_by_layer = np.empty(n)
    phi_by_layer = np.empty(n)
    i_by_layer, counts = [], []
    start = 0
    with np.errstate(invalid="ignore"):  # t is 0/0 where a = b = 0
        for tau in range(2 * k - 3):
            lo, hi = max(1, k - 1 - tau // 2), min(k - 1, 2 * k - 3 - tau)
            m = hi - lo + 1
            i = ks[lo : hi + 1]
            j0 = tau - 2 * (k - 1 - lo)
            # j runs j0, j0+2, ... with i, so the pairs (j, j+1) tile
            # consecutive rows; both rows of a pair are already nulled past
            # column i
            pairs = vt[j0 : j0 + 2 * m, : hi + 1].reshape(m, 2, hi + 1)
            # entries (j, i) lie 2K+1 apart in memory, from (j0, lo) on
            first, stop = j0 * k + lo, (j0 + 2 * m) * k
            a, b = flat[first : stop : 2 * k + 1], flat[first + k : stop : 2 * k + 1]
            aa, ab = np.abs(a), np.abs(b)
            t = ab * ab / (aa * aa + ab * ab)
            phi = np.angle(a * (-b).conj())
            zero = (aa == 0.0) | (ab == 0.0)
            if zero.any():
                # a = 0 takes the bar state (t = 1), b = 0 the cross state (t = 0)
                t[aa == 0.0] = 1.0
                phi[zero] = 0.0
            st, sr, e = np.sqrt(t), np.sqrt(1.0 - t), np.exp(-1j * phi)
            g = np.empty((m, 2, 2), dtype=complex)
            g[:, 0, 0] = st * e
            g[:, 0, 1] = sr
            g[:, 1, 0] = -sr * e
            g[:, 1, 1] = st
            pairs[...] = g @ pairs
            a[...] = 0.0
            t_by_layer[start : start + m] = t
            phi_by_layer[start : start + m] = phi
            i_by_layer.append(i)
            counts.append(m)
            start += m
    _check_diagonal_residual(vt)
    i = np.concatenate(i_by_layer)
    j = np.repeat(np.arange(2 * k - 3), counts) - 2 * (k - 1 - i)
    order = n - i * (i + 1) // 2 + j  # position of step (i, j) in the stepwise order
    modes, t, phi = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
    modes[order], t[order], phi[order] = j, t_by_layer, phi_by_layer
    return _mesh_layout(k, DESIGN_RECK, modes, t, phi, np.angle(np.diag(vt)))


def clements_decompose(u: np.ndarray, tol: float = _UNITARITY_TOL) -> CircuitLayout:
    """Rectangular mesh: K(K-1)/2 beamsplitter blocks, depth K.

    Alternates right- and left-multiplications along anti-diagonals, then
    commutes the residual diagonal through the left factors so that every
    block keeps the standard embedding and all residual phases end up at
    the outputs.

    The nulling is one chain (the first step of each anti-diagonal reads
    entries the last step of the previous one wrote), so it runs a step at
    a time.
    """
    u = _check_unitary(u, tol)
    k = u.shape[0]
    v = u.copy()
    g = np.empty((2, 2), dtype=complex)
    g_flat = g.reshape(4)
    sqrt, phase, exp = math.sqrt, cmath.phase, cmath.exp
    rights: list[tuple[int, float, float]] = []
    lefts: list[tuple[int, float, float]] = []
    for d in range(1, k):
        if d % 2 == 1:
            # right-multiplications mix columns: work on the transpose, where
            # a step mixes two contiguous rows by the transposed block
            w = v.T.copy()
            item = w.item
            for j in range(d):
                row, col = k - 1 - j, d - 1 - j
                a, b = item(col, row), item(col + 1, row)
                aa, ab = abs(a), abs(b)
                if aa == 0.0:
                    rights.append((col, 1.0, 0.0))
                    continue
                if ab == 0.0:
                    t, phi = 0.0, 0.0
                else:
                    t = ab * ab / (aa * aa + ab * ab)
                    phi = phase(a * (-b).conjugate())
                st, sr, e = sqrt(t), sqrt(1.0 - t), exp(-1j * phi)
                g_flat[:] = (st * e, sr, -sr * e, st)
                pair = w[col : col + 2]
                pair[...] = g.dot(pair)
                pair[0, row] = 0.0
                rights.append((col, t, phi))
            v = w.T.copy()
        else:
            item = v.item
            for j in range(d):
                row, col = k - d + j, j
                a, b = item(row - 1, col), item(row, col)
                aa, ab = abs(a), abs(b)
                if ab == 0.0:
                    lefts.append((row - 1, 1.0, 0.0))
                    continue
                if aa == 0.0:
                    t, phi = 0.0, 0.0
                else:
                    t = aa * aa / (aa * aa + ab * ab)
                    phi = phase(b * a.conjugate())
                st, sr, e = sqrt(t), sqrt(1.0 - t), exp(1j * phi)
                g_flat[:] = (st * e, sr, -sr * e, st)
                pair = v[row - 1 : row + 1]
                pair[...] = g.dot(pair)
                pair[1, col] = 0.0
                lefts.append((row - 1, t, phi))
    _check_diagonal_residual(v)

    # U = L1^-1 ... Lp^-1 D R_q ... R_1.  Push D leftward through each L
    # using B(t, phi)^-1 diag(d1, d2) = diag(-e^{-i phi} d2, d2) B(t, phi~)
    # with e^{i phi~} = -d1/d2 on the block's two modes.  The pushed-through
    # blocks run innermost-first, which is the application order directly
    # after the right-side blocks.
    diag = np.exp(1j * np.angle(np.diag(v))).tolist()
    pushed = []
    for mode, t, phi in reversed(lefts):
        d1, d2 = diag[mode], diag[mode + 1]
        pushed.append((mode, t, phase(-d1 / d2)))
        diag[mode] = -exp(-1j * phi) * d2
    modes, t, phi = (np.array(x) for x in zip(*rights, *pushed))
    return _mesh_layout(k, DESIGN_CLEMENTS, modes, t, phi, np.angle(diag))


def _check_diagonal_residual(v: np.ndarray) -> None:
    k = v.shape[0]
    off = np.abs(v - np.diag(np.diag(v))).max()
    mod = np.abs(np.abs(np.diag(v)) - 1.0).max()
    if not (off <= 1e-8 and mod <= 1e-8):  # a NaN residual fails too
        raise DecompositionError(
            f"nulling left a non-diagonal residual (off {off:.3e}, |diag|-1 {mod:.3e})"
        )
    for i in range(k):
        v[i, i] = v[i, i] / abs(v[i, i])


def build_design(k: int, design: str) -> tuple[np.ndarray, CircuitLayout]:
    """Ideal transfer matrix and elementary layout for a named design."""
    _check_dim(k)
    if design == DESIGN_OPTIMAL:
        layout = optimal_tree_layout(k)
        return compose_layout(layout), layout
    if design == DESIGN_EXTENDABLE:
        layout = extendable_layout(k)
        return extendable_matrix(k), layout
    if design == DESIGN_RECK:
        target = dft_multiport(k)
        return target, reck_decompose(target)
    if design == DESIGN_CLEMENTS:
        target = dft_multiport(k)
        return target, clements_decompose(target)
    raise LayoutError(f"unknown design {design!r}; expected one of {DESIGNS}")


def table_counts(k: int, design: str) -> tuple[int, int]:
    """Expected (beamsplitter count, optical depth) for a design of size K."""
    _check_dim(k)
    if design == DESIGN_OPTIMAL:
        return k - 1, math.ceil(math.log2(k))
    if design == DESIGN_EXTENDABLE:
        return k - 1, k - 1
    if design == DESIGN_CLEMENTS:
        return k * (k - 1) // 2, k
    if design == DESIGN_RECK:
        return k * (k - 1) // 2, 2 * k - 3
    raise LayoutError(f"unknown design {design!r}")


def matrix_to_json(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    return json.dumps(
        {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}
    )


def matrix_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    try:
        k, re, im = data["dim"], np.array(data["re"]), np.array(data["im"])
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: ragged rows
        raise LayoutError(f"matrix JSON needs a dim and re and im rows: {exc!r}") from None
    _check_dim(k)
    if not all(x.shape == (k, k) and x.dtype.kind in "iuf" for x in (re, im)):
        raise LayoutError(f"matrix JSON re and im must be {k} x {k} arrays of real numbers")
    return re.astype(float) + 1j * im.astype(float)


def layout_to_json(layout: CircuitLayout) -> str:
    """The layout as one JSON object; every element is one record with its
    ``kind``, ``ports``, ``t``, ``omega`` (the phase, or asin(sqrt(t)) for
    an unbalanced beamsplitter) and ``layer``.

    Only the header goes through ``json.dumps``.  The records are written
    directly: their floats are finite (``_columns`` rejects the others), and
    ``float.__repr__`` is what ``json`` writes for a finite float.
    """
    head = json.dumps(
        {
            "dim": layout.dim,
            "design": layout.design,
            "bs_count": layout.bs_count,
            "optical_depth": layout.optical_depth,
            "output_perm": list(layout.output_perm) if layout.output_perm else None,
            "elements": [],
        }
    )
    asin, sqrt = math.asin, math.sqrt
    records = [
        f'{{"kind": "{PHASE_SHIFTER}", "ports": [{a}], "t": null, "omega": {v!r}, '
        f'"layer": {layer}}}' if code == _PS
        # math.asin, not np.arcsin: the two differ in the last bit
        else f'{{"kind": "{UNBALANCED_BS}", "ports": [{a}, {b}], "t": {v!r}, '
        f'"omega": {asin(sqrt(v))!r}, "layer": {layer}}}' if code == _UBS
        else f'{{"kind": "{SYMMETRIC_BS}", "ports": [{a}, {b}], "t": null, "omega": null, '
        f'"layer": {layer}}}'
        for code, (a, b), v, layer in zip(
            layout.kind.tolist(), layout.ports.tolist(), layout.value.tolist(),
            layout.layer.tolist(),
        )
    ]
    return head.removesuffix("[]}") + "[" + ", ".join(records) + "]}"


def layout_from_json(text: str) -> CircuitLayout:
    data = json.loads(text)
    if not (isinstance(data, dict) and isinstance(data.get("elements"), list)
            and isinstance(data.get("design"), str)
            and isinstance(data.get("output_perm"), (list, type(None)))):
        raise LayoutError("layout JSON needs an elements list, a design name and an "
                          "output_perm list or null")
    _check_dim(data.get("dim"))
    records, perm = data["elements"], data.get("output_perm")
    columns = _record_columns(records)
    if columns is None:  # raise the first malformed record's error
        columns = _columns(list(map(_record_row, records)))
    return CircuitLayout._from_columns(
        data["dim"], data["design"], columns, tuple(perm) if perm else None
    )


def _record_row(e) -> tuple:
    """``_row`` of the JSON element record ``e``."""
    try:
        return _row(e["kind"], e["ports"], e.get("t"), e.get("omega"), e.get("layer", 0))
    except (KeyError, TypeError, AttributeError):
        raise LayoutError(f"malformed element record: {e!r}") from None


_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}


def _record_columns(records: list) -> tuple[np.ndarray, ...] | None:
    """The ``(kind, ports, value, layer)`` columns of JSON element records,
    checked column by column; None if a record is malformed (or merely
    unusual, such as a boolean port), which ``_row`` and ``_columns`` then
    decide record by record."""
    if not records:
        return None
    try:
        kind = np.array([_KIND_CODE.get(e["kind"], -1) for e in records], dtype=np.int8)
        ports = [e["ports"] for e in records]
        if kind.min() < 0 or not np.array_equal(
            np.fromiter(map(len, ports), np.intp, len(ports)), np.where(kind == _PS, 1, 2)
        ):
            return None
        first = np.array([p[0] for p in ports])
        second = np.array([p[-1] for p in ports])
        value = np.array([e.get("omega") if c == _PS else e.get("t")
                          for e, c in zip(records, kind.tolist()) if c != _SBS])
        layer = np.array([e.get("layer", 0) for e in records])
    except (KeyError, TypeError, ValueError):
        return None
    if any(x.dtype.kind not in kinds or x.ndim != 1
           for x, kinds in ((first, "iu"), (second, "iu"), (value, "iuf"), (layer, "iu"))):
        return None
    if not np.isfinite(value).all():
        return None
    ports = np.stack([first, np.where(kind == _PS, 0, second)], axis=1).astype(np.intp)
    full = np.full(len(records), math.nan)
    full[kind != _SBS] = value
    return kind, ports, full, layer.astype(np.intp)
