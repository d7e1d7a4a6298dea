"""Classical finite friezes and minor matrices, with determinant checks.

Two families of frieze matrices with known determinants:

* Conway-Coxeter: for a quiddity sequence (a_1..a_k) coming from a polygon
  triangulation, the matrix built from x = 1, y_i = a_i has the corner
  entry m[1,k] = 1 and determinant -(-2)^(k-2).
* 2 x n minor matrices: A[i,j] = the 2x2 column minor D_{min,max} of a
  2 x n matrix; its determinant is -(-2)^(n-2)*D_{1n}*prod(D_{i,i+1}).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import OrderViolationError, ZeroMinorError
from .field import RATIONAL, FieldDescriptor, FieldElement, _checked_record, _join
from .matrix import (
    FriezeMatrix,
    SeedData,
    _common_field,
    build_from_seeds,
    det_closed_form,
    det_elimination,
)

__all__ = [
    "DetCheckReport",
    "QuiddityData",
    "Triangulation",
    "TwoRowMatrix",
    "baur_marsh_det_check",
    "cc_det_check",
    "cc_matrix",
    "delta_minor_matrix",
    "quiddity_from_triangulation",
]


class QuiddityData(_checked_record("QuiddityData", "a")):
    """A candidate quiddity sequence: a tuple of k >= 3 positive integers."""

    __slots__ = ()

    def __new__(cls, a):
        a = tuple(int(v) for v in a)
        if len(a) < 3:
            raise ValueError("quiddity sequences have length k >= 3")
        if any(v < 1 for v in a):
            raise ValueError("quiddity entries must be positive integers")
        return super().__new__(cls, a)

    @property
    def k(self) -> int:
        return len(self.a)


def _crossing(d1: tuple[int, int], d2: tuple[int, int]) -> bool:
    p, q = d1
    r, s = d2
    return (p < r < q < s) or (r < p < s < q)


class Triangulation(_checked_record("Triangulation", "k diagonals")):
    """A full triangulation of a convex k-gon: k-3 non-crossing diagonals.

    Vertices are 1..k; the diagonals are a frozenset of ordered pairs (p, q)
    with p < q.
    """

    __slots__ = ()

    def __new__(cls, k, diagonals):
        diags = frozenset(tuple(sorted(d)) for d in diagonals)
        if k < 3:
            raise ValueError("polygon needs k >= 3 vertices")
        if len(diags) != k - 3:
            raise ValueError(f"a {k}-gon triangulation has {k - 3} diagonals, got {len(diags)}")
        for p, q in diags:
            if not (1 <= p < q <= k) or q - p < 2 or (p, q) == (1, k):
                raise ValueError(f"({p},{q}) is not a diagonal of a {k}-gon")
        diag_list = sorted(diags)
        for idx, d1 in enumerate(diag_list):
            for d2 in diag_list[idx + 1:]:
                if _crossing(d1, d2):
                    raise ValueError(f"diagonals {d1} and {d2} cross")
        return super().__new__(cls, k, diags)


def quiddity_from_triangulation(t: Triangulation) -> QuiddityData:
    """a_i = 1 + the number of diagonals at vertex i: they cut the angle
    between the two sides at i into that many triangles."""
    counts = [1] * t.k
    for p, q in t.diagonals:
        counts[p - 1] += 1
        counts[q - 1] += 1
    return QuiddityData(tuple(counts))


def cc_matrix(q: QuiddityData) -> FriezeMatrix:
    """Frieze matrix of a finite frieze of order k: x = 1, y_i = a_i.

    Raises :class:`OrderViolationError` when the corner entry m[1,k] is not
    1, i.e. the sequence is not a genuine quiddity sequence; construction
    may also hit a zero entry for bad sequences.
    """
    one = RATIONAL.one
    seeds = SeedData(
        tuple(one for _ in range(q.k - 1)),
        tuple(RATIONAL.from_int(v) for v in q.a[: q.k - 2]),
    )
    m = build_from_seeds(seeds, RATIONAL)
    if m.entry(1, q.k) != one:
        raise OrderViolationError(
            f"m[1,{q.k}] = {m.entry(1, q.k)} != 1: not a quiddity sequence of order {q.k}"
        )
    return m


class DetCheckReport(namedtuple("DetCheckReport", "det det_oracle expected")):
    """Closed-form determinant, elimination oracle, and the expected value.

    ``expected`` restates the theorem; it is not a third route.  For ``cc``
    it is -(-2)^(k-2), the closed form -(-2)^(k-2)*m[1,k]*prod(x_i) with
    x = 1 and the m[1,k] = 1 that :func:`cc_matrix` has already asserted;
    for ``bm`` it is ``det`` itself, :func:`det_closed_form` on the minor
    matrix.  So ``det == expected`` cannot fail, and the check is
    ``det == det_oracle``: the closed form against row-reduced elimination.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.det == self.det_oracle == self.expected


def cc_det_check(q: QuiddityData) -> DetCheckReport:
    """Both determinant routes against the expected -(-2)^(k-2)."""
    m = cc_matrix(q)
    expected = -(RATIONAL.from_int(-2) ** (q.k - 2))
    return DetCheckReport(det_closed_form(m), det_elimination(m), expected)


class TwoRowMatrix(_checked_record("TwoRowMatrix", "top bottom")):
    """A 2 x n matrix given by its two rows, held as tuples; n >= 2."""

    __slots__ = ()

    def __new__(cls, top, bottom):
        top, bottom = tuple(top), tuple(bottom)
        if len(top) != len(bottom) or len(top) < 2:
            raise ValueError("need two rows of equal length n >= 2")
        return super().__new__(cls, top, bottom)

    @property
    def n(self) -> int:
        return len(self.top)

    @property
    def field(self) -> FieldDescriptor:
        return _common_field(self.top + self.bottom)

    def minor(self, i: int, j: int) -> FieldElement:
        """Column minor D_ij = a_i*b_j - a_j*b_i, 1-based."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"columns ({i},{j}) outside 1..{self.n}")
        return self.top[i - 1] * self.bottom[j - 1] - self.top[j - 1] * self.bottom[i - 1]


def delta_minor_matrix(x: TwoRowMatrix) -> FriezeMatrix:
    """Symmetric matrix of column minors: A[i,j] = D_{min(i,j),max(i,j)}.

    The minors satisfy the Ptolemy relation identically, so the result is a
    frieze matrix whenever no off-diagonal minor vanishes; a vanishing one
    raises :class:`ZeroMinorError` with the offending column pair.
    """
    n = x.n
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        # D_ii = a_i*b_i - a_i*b_i = 0, in the field of column i.
        grid[i][i] = _join(x.top[i].field, x.bottom[i].field).zero
        for j in range(i + 1, n):
            minor = grid[i][j] = grid[j][i] = x.minor(i + 1, j + 1)
            if minor.is_zero:
                raise ZeroMinorError(i + 1, j + 1)
    return FriezeMatrix(grid)


def baur_marsh_det_check(x: TwoRowMatrix) -> DetCheckReport:
    """Both determinant routes against -(-2)^(n-2)*D_{1n}*prod(D_{i,i+1})."""
    a = delta_minor_matrix(x)
    det = det_closed_form(a)
    return DetCheckReport(det, det_elimination(a), det)
