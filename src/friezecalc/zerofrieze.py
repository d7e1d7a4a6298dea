"""0-frieze patterns: all-nonzero arrays whose neighbouring diamonds vanish.

A 0-frieze is a Z^2-indexed array t[i,j] (j >= i-1) of nonzero values with

    t[i,j]*t[i+1,j+1] - t[i+1,j]*t[i,j+1] = 0   for all j >= i,

determined by its first two rows u_i = t[i,i-1] and v_i = t[i,i].  The
zero diamond rule makes t[i,j]/t[i,j-1] independent of i, so each row is a
running product of seed ratios, t[i,j] = v_i * prod_{k=i+1..j} v_k/u_k,
which :class:`ZeroFrieze` computes on field elements, one product per cell.
That product is the rank-one structure: t[i,j] = a_i * b_j on any connected
window, which :func:`rank1_factorize` recovers.
"""

from __future__ import annotations

from .errors import FactorizationImpossibleError, ZeroEntryError
from .field import FieldDescriptor, FieldElement
from .frieze import InfiniteFrieze, SeedRow, _joint_period
from .matrix import RULE_ZERO_DIAMOND, ValidationReport, Violation, _Cleared, _common_field, _det2

TYPE_CHECKING = False  # true only for type checkers, so `typing` is never imported
if TYPE_CHECKING:
    from typing import Callable, Mapping

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
    down to t[j,j]/t[j,j-1] = v_j/u_j, so row i is one list of field
    elements, t[i,i] = v_i and t[i,j] = t[i,j-1]*s_j with s_j = v_j/u_j, read
    as v_i, v_{i+1}, u_{i+1}, v_{i+2}, ...  The step s_k is divided out once
    per k and kept, so an R x C window reads O(R + C) seeds and each cell
    below the v row is one element product; a kept step's reads succeeded
    once and are pure, so skipping them hides no error.  A cell is held as
    its element, in lowest terms (each product reduces by one gcd), and lies
    in the join of the fields of the seeds it reads.  No entry is zero: each
    is a product of nonzero seeds.  Evaluation order never changes values or
    errors; same ownership contract as :class:`InfiniteFrieze`.

    When u and v are both :class:`SeedRow` cycles, of lcm period Q, row i
    is read from the list of row i mod Q: t[i,j] reads seeds and steps at
    i..j only, which repeat with period Q, so t[i+Q,j+Q] = t[i,j] by the
    same element operations.  Cycle values are nonzero, so these reads need
    no fallback: an operation succeeds, or fails first, at every shift alike.
    """

    def __init__(self, u, v, field: FieldDescriptor):
        self.field = field
        # The seed readers must not refer back to self: a reference cycle
        # would keep every evaluated row alive until the cyclic collector runs.
        self.u = _nonzero(u, "u", -1)
        self.v = _nonzero(v, "v", 0)
        # Row i -> [t[i,i], t[i,i+1], ...]; k -> s_k = v_k/u_k.
        self._rows: dict[int, list[FieldElement]] = {}
        self._steps: dict[int, FieldElement] = {}
        self._period = _joint_period(u, v)

    def entry(self, i: int, j: int) -> FieldElement:
        if j < i - 1:
            raise ValueError(f"0-frieze entries need j >= i-1, got ({i},{j})")
        if j == i - 1:
            return self.u(i)
        if self._period is not None:
            shift = i - i % self._period
            i, j = i - shift, j - shift
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = [self.v(i)]
        for k in range(i + len(row), j + 1):
            s = self._steps.get(k)
            if s is None:
                s = self._steps[k] = self.v(k) / self.u(k)
            row.append(row[-1] * s)
        return row[j - i]


def from_frieze(f: InfiniteFrieze, k: int) -> ZeroFrieze:
    """The 0-frieze attached to a frieze along its k-th diagonals.

    The first two rows are read off the frieze:

        u_i = -2*x[k+i-3]                       (i <= 2)
        u_i = -2*x[k+i-2]                       (i >= 3)
        v_i = -2*f[k+i-2,k+1]*x[k+i-2]/f[k+i-1,k+1]   (i <= 1)
        v_i = x[k]                              (i = 2)
        v_i = -2*f[k,k+i-1]*x[k+i-2]/f[k,k+i-2]       (i >= 3)

    and everything deeper follows from the zero diamond rule.  v_i reads
    column k+1 of the frieze for i <= 1 and its row k for i >= 3, both
    through ``f``, which keeps every cell it computed.
    """
    fd = f.field
    minus2 = fd.from_int(-2)

    def u_fn(i: int) -> FieldElement:
        return minus2 * f.x(k + i - 3 if i <= 2 else k + i - 2)

    def v_fn(i: int) -> FieldElement:
        if i == 2:
            return f.x(k)
        if i <= 1:
            top = minus2 * f.entry(k + i - 2, k + 1) * f.x(k + i - 2)
            return top / f.entry(k + i - 1, k + 1)
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

    The diamond t[i,j]*t[i+1,j+1] - t[i+1,j]*t[i,j+1] has degree 2, so the
    checks run on the cells cleared by ``matrix._Cleared``, and a failing
    diamond reports its value in the join of its corners' fields.  On the
    cells of a :class:`ZeroFrieze` every diamond vanishes by construction, so
    a failure there is a fault in the running product; the check catches
    cells that did not come from it.
    """
    if not cells:
        return ValidationReport()
    zero = next(iter(cells.values())).field.zero
    keys = sorted(cells)
    c = _Cleared([[cells[k] for k in keys]])
    d, z, [row] = c.d, c.zero, c.grid
    g = dict(zip(keys, row))
    out = [Violation(RULE_NONZERO, k, cells[k], zero) for k in keys if g[k] == z]
    for (i, j), t in zip(keys, row):
        if j < i:
            continue
        se, s, e = g.get((i + 1, j + 1)), g.get((i + 1, j)), g.get((i, j + 1))
        if se is None or s is None or e is None:
            continue
        v = _det2(t, se, s, e, d)
        if v != z:
            corners = [(i, j), (i + 1, j + 1), (i + 1, j), (i, j + 1)]
            lhs = c.side(v, [cells[k] for k in corners])
            out.append(Violation(RULE_ZERO_DIAMOND, (i, j), lhs, zero))
    return ValidationReport(tuple(out))


def rank1_factorize(
    cells: Mapping[tuple[int, int], FieldElement]
) -> tuple[dict[int, FieldElement], dict[int, FieldElement]]:
    """Factor the window as t[i,j] = a_i * b_j, normalized by a_{i0} = 1
    at the smallest row index i0.

    Raises :class:`FactorizationImpossibleError` when some generalized 2x2
    minor is nonzero (the cells are not a piece of a 0-frieze), and
    ValueError on zero entries or a disconnected window.  On the cells of a
    :class:`ZeroFrieze` the closing check holds by construction, so it fails
    there only through a fault in the running product.

    a and b are propagated along the cells by field division, one division
    per factor.  The closing check t[i,j] = a_i*b_j runs over every cell in
    sorted order, as ``FieldElement.is_product`` on each cell, which tests
    the product on the elements' own ints without reducing it; the fields of
    the cells are joined first, so a window mixing two quadratic fields
    raises there.
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
    _common_field(cells.values())
    for i, j in sorted(cells):
        if not cells[i, j].is_product(a[i], b[j]):
            raise FactorizationImpossibleError((i, j))
    return a, b
