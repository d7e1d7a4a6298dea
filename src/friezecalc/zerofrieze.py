"""0-frieze patterns: all-nonzero arrays whose neighbouring diamonds vanish.

A 0-frieze is a Z^2-indexed array t[i,j] (j >= i-1) of nonzero values with

    t[i,j]*t[i+1,j+1] - t[i+1,j]*t[i,j+1] = 0   for all j >= i,

determined by its first two rows u_i = t[i,i-1] and v_i = t[i,i].  The
zero diamond rule makes t[i,j]/t[i,j-1] independent of i, so each row is a
running product of seed ratios, t[i,j] = v_i * prod_{k=i+1..j} v_k/u_k.
That product is the rank-one structure: t[i,j] = a_i * b_j on any connected
window, which :func:`rank1_factorize` recovers.

Nothing here computes with field elements cell by cell.  As in
:mod:`friezecalc.matrix`, values are held on a lattice: a value over Q is
an int over an int denominator, over Q(sqrt(d)) a pair p + q*sqrt(d) over
one.  A row of :class:`ZeroFrieze` multiplies numerators and denominators
separately and divides both by their gcd, which is exact.  Both checks are homogeneous of degree 2:
scaling every cell by the common denominator D scales the zero diamond
rule and the closing check t = a*b (after clearing a and b as well) by a
nonzero integer, so each holds on the lattice exactly when it holds on the
field elements.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from .errors import FactorizationImpossibleError, ZeroEntryError
from .field import FieldDescriptor, FieldElement, _element, _join
from .frieze import InfiniteFrieze, SeedRow
from .matrix import (
    RULE_ZERO_DIAMOND,
    ValidationReport,
    Violation,
    _common_field,
    _det2,
    _report_side,
)

__all__ = [
    "ZeroFrieze",
    "check_zero_diamond",
    "from_frieze",
    "rank1_factorize",
    "window_cells",
]

RULE_NONZERO = "nonzero"


def _nonzero(row, name: str, shift: int) -> Callable[[int], FieldElement]:
    """row(i) as the entry (i, i+shift), with a zero value raised as an error."""
    fn = row.value if isinstance(row, SeedRow) else row

    def read(i: int) -> FieldElement:
        val = fn(i)
        if val.is_zero:
            raise ZeroEntryError((i, i + shift), f"{name}[{i}] is zero")
        return val

    return read


class ZeroFrieze:
    """Evaluator for t[i,j] from the rows u and v.

    Rows may be :class:`SeedRow` values or arbitrary callables on Z (the
    latter is how 0-friezes derived from a frieze are backed); ``u(i)`` and
    ``v(i)`` read them and raise :class:`ZeroEntryError` on a zero.  The zero
    diamond rule t[i,j]*t[i+1,j-1] = t[i,j-1]*t[i+1,j] carries t[i,j]/t[i,j-1]
    down to t[j,j]/t[j,j-1] = v_j/u_j, so row i is one list, t[i,i] = v_i and
    t[i,j] = t[i,j-1]*v_j/u_j, read as v_i, v_{i+1}, u_{i+1}, v_{i+2}, ...
    The factor v_k/u_k is divided out once per k and kept, so an R x C
    window reads O(R + C) seeds; a kept factor's reads succeeded once and
    are pure, so skipping them hides no error.

    Cells are held on a lattice, as in the frieze rows of
    :mod:`friezecalc.matrix`: the step v_k/u_k is cleared once to A_k/S_k,
    with A_k an int over Q or a pair (p, q) = p + q*sqrt(d) over
    Q(sqrt(d)) and S_k a positive int, and row i keeps
    t[i,j] = N(i,j)/M(i,j) with

        N(i,j) = N(i,j-1)*A_j / g,    M(i,j) = M(i,j-1)*S_j / g,

    starting from v_i cleared over its own denominator, where g is the gcd
    of M(i,j-1)*S_j and the coefficients of N(i,j-1)*A_j.  The products are
    exact in Z or Z[sqrt(d)] and Z, and g divides both sides, so N/M is
    t[i,j] itself; a cell takes one gcd and no field element.  N/M is also
    the element's own form, M > 0 and gcd(p, q, M) = 1 for N = p + q*sqrt(d)
    (a row starts at v_i's own ints, and each step divides by the full gcd),
    so :meth:`entry` builds the element from N and M with no reduction.
    The gcd keeps a cell as small as its value: the steps of the 0-frieze
    of a frieze f at k' telescope, v_k/u_k = f[k',k'+k-1]/f[k',k'+k-2] for
    k >= 3, and without it N and M would carry every cancelled factor.
    Each value is cleared over its own field and a cell keeps the field
    that the product of elements would give it, the join of the seeds it
    reads (an int meeting a pair is read as the pair (v, 0)).  No entry is
    zero: each is a product of nonzero seeds.  Evaluation order never
    changes values or errors; same ownership contract as
    :class:`InfiniteFrieze`.
    """

    def __init__(self, u, v, field: FieldDescriptor):
        self.field = field
        # The seed readers must not refer back to self: a reference cycle
        # would keep every evaluated row alive until the cyclic collector runs.
        self.u = _nonzero(u, "u", -1)
        self.v = _nonzero(v, "v", 0)
        # Row i -> (N, M, field) of t[i,i], t[i,i+1], ...
        self._rows: dict[int, list[tuple]] = {}
        # k -> (A_k, S_k, field) of v_k/u_k.
        self._steps: dict[int, tuple] = {}

    def entry(self, i: int, j: int) -> FieldElement:
        if j < i - 1:
            raise ValueError(f"0-frieze entries need j >= i-1, got ({i},{j})")
        if j == i - 1:
            return self.u(i)
        row = self._rows.get(i)
        if row is None:
            vi = self.v(i)
            den, [[n]] = vi.field.lattice([[vi]])
            row = self._rows[i] = [(n, den, vi.field)]
        if len(row) <= j - i:
            steps = self._steps
            n, m, fd = row[-1]
            for k in range(i + len(row), j + 1):
                step = steps.get(k)
                if step is None:
                    s = self.v(k) / self.u(k)
                    den, [[a]] = s.field.lattice([[s]])
                    step = steps[k] = (a, den, s.field)
                a, s, sf = step
                if sf.d != fd.d:
                    nf, fd = fd, _join(fd, sf)
                    if nf.d != fd.d:
                        n = (n, 0)
                    if sf.d != fd.d:
                        a = (a, 0)
                m *= s
                if fd.d is None:
                    n *= a
                    g = math.gcd(n, m)
                    if g > 1:
                        n, m = n // g, m // g
                else:
                    (n0, n1), (a0, a1) = n, a
                    n0, n1 = n0 * a0 + fd.d * n1 * a1, n0 * a1 + n1 * a0
                    g = math.gcd(n0, n1, m)
                    if g > 1:
                        n0, n1, m = n0 // g, n1 // g, m // g
                    n = (n0, n1)
                row.append((n, m, fd))
        v, den, fd = row[j - i]
        return _element(v, 0, den, fd) if fd.d is None else _element(*v, den, fd)


def from_frieze(f: InfiniteFrieze, k: int) -> ZeroFrieze:
    """The 0-frieze attached to a frieze along its k-th diagonals.

    The first two rows are read off the frieze:

        u_i = -2*x[k+i-3]                       (i <= 2)
        u_i = -2*x[k+i-2]                       (i >= 3)
        v_i = -2*f[k+i-2,k+1]*x[k+i-2]/f[k+i-1,k+1]   (i <= 1)
        v_i = x[k]                              (i = 2)
        v_i = -2*f[k,k+i-1]*x[k+i-2]/f[k,k+i-2]       (i >= 3)

    and everything deeper follows from the zero diamond rule.  v_i reads
    column k+1 of the frieze for i <= 1 and its row k for i >= 3; a 0-frieze
    row reads both, so column k+1 has its own evaluator, and neither read
    replaces the other's stored runs.
    """
    fd = f.field
    minus2 = fd.from_int(-2)
    column = InfiniteFrieze(f.seeds)

    def u_fn(i: int) -> FieldElement:
        return minus2 * f.x(k + i - 3 if i <= 2 else k + i - 2)

    def v_fn(i: int) -> FieldElement:
        if i == 2:
            return f.x(k)
        if i <= 1:
            top = minus2 * column.entry(k + i - 2, k + 1) * f.x(k + i - 2)
            return top / column.entry(k + i - 1, k + 1)
        return minus2 * f.entry(k, k + i - 1) * f.x(k + i - 2) / f.entry(k, k + i - 2)

    return ZeroFrieze(u_fn, v_fn, fd)


def window_cells(
    zf: ZeroFrieze, col_start: int, cols: int, rows: int
) -> dict[tuple[int, int], FieldElement]:
    """Evaluate a parallelogram window: rows r = 0..rows-1 give t[i, i+r-1]
    for i in [col_start, col_start+cols); r = 0 is the u row, r = 1 the v row.
    """
    if cols < 1 or rows < 1:
        raise ValueError("window must have positive size")
    return {
        (i, i + r - 1): zf.entry(i, i + r - 1)
        for r in range(rows)
        for i in range(col_start, col_start + cols)
    }


def check_zero_diamond(cells: Mapping[tuple[int, int], FieldElement]) -> ValidationReport:
    """Verify nonzero-ness and the zero diamond rule on every diamond whose
    four corners lie in the given cells.

    The checks run on the cells scaled by the lcm D of all their coefficient
    denominators, over the join of their fields: ints over Q, pairs
    (p, q) = p + q*sqrt(d) over Q(sqrt(d)).  Scaling keeps zero as zero, and
    the diamond t[i,j]*t[i+1,j+1] - t[i+1,j]*t[i,j+1] has degree 2, so it
    scales by D^2 and vanishes on the cells exactly when it vanishes on
    theirs scaled.  A failing diamond reports its value v/D^2, where v is
    the scaled diamond already computed, held in the join of its corners'
    fields, as the diamond on field elements would be.
    """
    if not cells:
        return ValidationReport()
    zero = next(iter(cells.values())).field.zero
    keys = sorted(cells)
    fd = _common_field(cells.values())
    d = fd.d
    den, [row] = fd.lattice([[cells[c] for c in keys]])
    g = dict(zip(keys, row))
    z = 0 if d is None else (0, 0)
    out = [Violation(RULE_NONZERO, c, cells[c], zero) for c in keys if g[c] == z]
    for (i, j), t in zip(keys, row):
        if j < i:
            continue
        se, s, e = g.get((i + 1, j + 1)), g.get((i + 1, j)), g.get((i, j + 1))
        if se is None or s is None or e is None:
            continue
        v = _det2(t, se, s, e, d)
        if v != z:
            corners = [(i, j), (i + 1, j + 1), (i + 1, j), (i, j + 1)]
            lhs = _report_side(fd, v, den**2, [cells[c] for c in corners])
            out.append(Violation(RULE_ZERO_DIAMOND, (i, j), lhs, zero))
    return ValidationReport(tuple(out))


def rank1_factorize(
    cells: Mapping[tuple[int, int], FieldElement]
) -> tuple[dict[int, FieldElement], dict[int, FieldElement]]:
    """Factor the window as t[i,j] = a_i * b_j, normalized by a_{i0} = 1
    at the smallest row index i0.

    Raises :class:`FactorizationImpossibleError` when some generalized 2x2
    minor is nonzero (the cells are not a piece of a 0-frieze), and
    ValueError on zero entries or a disconnected window.

    a and b are propagated along the cells by field division.  The closing
    check t[i,j] = a_i*b_j, over every cell in sorted order, runs on three
    lattices over the join of the cells' fields: t = G/D_t, a = A/D_a and
    b = B/D_b, with G, A, B ints or pairs p + q*sqrt(d) and D_t, D_a, D_b
    ints.  Multiplying by D_t*D_a*D_b, it is the degree-2 relation
    A_i*(D_t*B_j) - G_ij*(D_a*D_b) = 0, one 2x2 determinant per cell.
    """
    if not cells:
        raise ValueError("empty window")
    for idx, val in cells.items():
        if val.is_zero:
            raise ValueError(f"zero entry at {idx}; 0-frieze entries are nonzero")
    fd = next(iter(cells.values())).field
    i0 = min(i for i, _ in cells)
    a: dict[int, FieldElement] = {i0: fd.one}
    b: dict[int, FieldElement] = {}
    changed = True
    while changed:
        changed = False
        for (i, j), val in cells.items():
            if i in a and j not in b:
                b[j] = val / a[i]
                changed = True
            elif j in b and i not in a:
                a[i] = val / b[j]
                changed = True
    missing = [(i, j) for (i, j) in cells if i not in a or j not in b]
    if missing:
        raise ValueError(f"window is not connected: cannot reach {missing[0]}")
    keys = sorted(cells)
    common = _common_field(cells.values())
    d = common.d
    dt, [g] = common.lattice([[cells[c] for c in keys]])
    da, [av] = common.lattice([list(a.values())])
    db, [bv] = common.lattice([list(b.values())])
    if d is None:
        bv, k, z = [v * dt for v in bv], da * db, 0
    else:
        bv, k, z = [(p * dt, q * dt) for p, q in bv], (da * db, 0), (0, 0)
    ga, gb = dict(zip(a, av)), dict(zip(b, bv))
    for (i, j), v in zip(keys, g):
        if _det2(ga[i], gb[j], v, k, d) != z:
            raise FactorizationImpossibleError((i, j))
    return a, b
