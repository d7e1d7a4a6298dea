"""Frieze matrices: construction, validation, triangulation, determinants.

A frieze matrix is a symmetric n x n matrix over an exact field whose
entries vanish exactly on the diagonal and satisfy the generalized diamond
rule

    m[i,j]*m[i+1,j+1] - m[i+1,j]*m[i,j+1] = m[i,i+1]*m[j,j+1]

for 1 <= i, i+1 <= j <= n-1.  Such a matrix is fully determined by its
first two off-diagonals x_i = m[i,i+1] and y_i = m[i,i+2].  All public
indices are 1-based, matching the conventional notation.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import ZeroEntryError
from .field import FieldDescriptor, FieldElement, _checked_record, _join, format_element

__all__ = [
    "EliminationTrace",
    "FriezeMatrix",
    "SeedData",
    "TriangularMatrix",
    "ValidationReport",
    "Violation",
    "build_from_seeds",
    "check_ptolemy",
    "check_t_properties",
    "det_closed_form",
    "det_elimination",
    "reconstruct_entry",
    "triangulate",
    "validate",
]

# Rule identifiers used in validation reports.
RULE_SYMMETRY = "symmetry"
RULE_ZERO_DIAGONAL = "zero_diagonal"
RULE_NONZERO_OFF_DIAGONAL = "nonzero_off_diagonal"
RULE_DIAMOND = "diamond"
RULE_PTOLEMY = "ptolemy"
RULE_ZERO_DIAMOND = "zero_diamond"
RULE_DIAGONAL_RELATION = "diagonal_relation"


class Violation(namedtuple("Violation", "rule indices lhs rhs")):
    """One failed rule (a str), its indices (a tuple of ints) and both sides
    of the equation that should have held."""

    __slots__ = ()

    def __str__(self) -> str:
        return (
            f"{self.rule} at {self.indices}: "
            f"{format_element(self.lhs)} != {format_element(self.rhs)}"
        )


class ValidationReport(namedtuple("ValidationReport", "violations", defaults=((),))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _common_field(entries) -> FieldDescriptor:
    fd = None
    for e in entries:
        fd = e.field if fd is None else _join(fd, e.field)
    if fd is None:
        raise ValueError("matrix has no entries")
    return fd


def _det2(a, b, c, e, d: int | None):
    """a*b - c*e on lattice values: ints, or pairs p + q*sqrt(d)."""
    if d is None:
        return a * b - c * e
    (a0, a1), (b0, b1), (c0, c1), (e0, e1) = a, b, c, e
    return (a0 * b0 - c0 * e0 + d * (a1 * b1 - c1 * e1), a0 * b1 + a1 * b0 - c0 * e1 - c1 * e0)


class _Cleared:
    """``rows`` of entries cleared over their common denominator D (``den``),
    the lcm of every coefficient denominator: ``grid`` holds D*e for each
    entry e, an int over Q or a pair (p, q) = p + q*sqrt(d) over Q(sqrt(d)),
    in ``field``, the join of the entries' fields unless one is given;
    ``zero`` is the lattice zero.

    Every relation the checks run on a grid has degree 2: each side is a sum
    of products of two entries.  Scaling every entry by the nonzero integer D
    keeps zero as zero and scales each side by D^2, so a relation holds on
    the entries exactly when it holds on the grid, and a side v computed on
    the grid is v/D^2 on the entries, which :meth:`side` builds.
    """

    __slots__ = ("field", "d", "den", "grid", "zero")

    def __init__(self, rows, field: FieldDescriptor | None = None):
        fd = self.field = field if field is not None else _common_field(e for r in rows for e in r)
        self.d = fd.d
        self.den, self.grid = fd.lattice(rows)
        self.zero = 0 if fd.d is None else (0, 0)

    def side(self, v, entries) -> FieldElement:
        """v/D^2 for a side v computed on the grid: one side of a failed
        relation, held where field arithmetic on the ``entries`` it reads
        would hold it, in the join of their fields."""
        f = _common_field(entries)
        if f.d != self.d:
            # One of the two fields is Q, so the side is rational: v is p or (p, 0).
            v = (v, 0) if self.d is None else v[0]
        return f.from_lattice(v, self.den**2)


class FriezeMatrix:
    """Square matrix of exact field elements with 1-based access.

    Construction does not enforce the frieze rules, so candidate matrices
    (including deliberately broken fixtures) are representable; use
    :func:`validate` to obtain a rule-by-rule report.
    """

    __slots__ = ("_rows", "n", "field")

    def __init__(self, rows):
        grid = tuple(tuple(r) for r in rows)
        n = len(grid)
        if n < 2 or any(len(r) != n for r in grid):
            raise ValueError("matrix must be square with n >= 2")
        self._rows = grid
        self.n = n
        self.field = _common_field(e for r in grid for e in r)

    def entry(self, i: int, j: int) -> FieldElement:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside 1..{self.n}")
        return self._rows[i - 1][j - 1]

    def rows(self) -> tuple[tuple[FieldElement, ...], ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, FriezeMatrix):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, field={self.field})"


class SeedData(_checked_record("SeedData", "x y")):
    """The determining data: n-1 values x_i and n-2 values y_i, all nonzero,
    held as tuples."""

    __slots__ = ()

    def __new__(cls, x, y):
        x, y = tuple(x), tuple(y)
        if len(x) < 1 or len(y) != len(x) - 1:
            raise ValueError("need len(x) = n-1 >= 1 and len(y) = n-2")
        if any(v.is_zero for v in x) or any(v.is_zero for v in y):
            raise ValueError("seed entries must be nonzero")
        return super().__new__(cls, x, y)

    @property
    def n(self) -> int:
        return len(self.x) + 1


class _FriezeRows:
    """Entries e(i, j), j - i >= 1, of a frieze with seed rows
    x(i) = e(i, i+1) and y(i) = e(i, i+2), filled by the linear row rule

        e(i,j) = (e(i,j-1)*y(j-2) - e(i,j-2)*x(j-1)) / x(j-2).      (L)

    Proof from the diamond rule e(i,j)*e(i+1,j-1) = e(i,j-1)*e(i+1,j) -
    x(i)*x(j-1) (D) with e(i,i) = 0, by induction on j - i.  L holds at
    j - i = 2: y(i)*x(i) = x(i)*y(i) - 0.  For j - i >= 3, multiply D by
    x(j-2), use L at (i+1, j), then D at (i, j-1):

        e(i,j)*e(i+1,j-1)*x(j-2)
          = e(i,j-1)*(e(i+1,j-1)*y(j-2) - e(i+1,j-2)*x(j-1)) - x(i)*x(j-1)*x(j-2)
          = e(i,j-1)*e(i+1,j-1)*y(j-2) - x(j-1)*e(i,j-2)*e(i+1,j-1),

    and divide by the nonzero e(i+1,j-1) to get L at (i, j).  A cell thus
    reads only its own row, and its step factors y(j-2)/x(j-2), x(j-1)/x(j-2)
    depend on its column alone.

    Cells are held fraction-free, as e(i,j) = N(i,j)/M(i,j) with N an int
    over Q or a pair (p, q) = p + q*sqrt(d) over Q(sqrt(d)), and M a positive
    int.  Column j's step factors are cleared once, to A_j/S_j and B_j/S_j
    with S_j the lcm of their denominators; row i's seeds x(i), y(i) are
    cleared over one M(i,i+1) = M(i,i+2).  With M(i,j) = M(i,j-1)*S_j for
    j - i >= 3, M(i,j-1) = k_j*M(i,j-2) where k_j = 1 at j - i = 3 and
    k_j = S_{j-1} below, so L reads

        e(i,j) = N(i,j-1)/M(i,j-1) * A_j/S_j - N(i,j-2)/M(i,j-2) * B_j/S_j
               = (N(i,j-1)*A_j - N(i,j-2)*(k_j*B_j)) / M(i,j):

    N(i,j) is that numerator, exact in Z or Z[sqrt(d)], and e(i,j) = 0
    exactly when N(i,j) = 0.  A cell takes no gcd, no division and no field
    element; :meth:`get` builds the element N/M, in lowest terms, when it
    returns one.  A cell also keeps the field that L on field elements would
    give it, the join of the fields it is computed from, and holds N in that
    field (an int meeting a pair is read as the pair (v, 0)).  Of a field the
    engine asks only ``d``, ``lattice`` and ``from_lattice``.

    Row i is stored as one list [e(i,i+1), e(i,i+2), e(i,i+3), ...], only
    ever extended to the right; its cell e(i,i+3) clears the seeds x(i),
    y(i) over one M as the list's first two entries.  A list holds e(i,j)
    only while rows i+1..j-3 hold column j, so the cone of a stored cell,
    every e(a,b) with i <= a <= b <= j, is stored too: a hit is one length
    check, and nothing stored is ever dropped.  The kernel :meth:`_extend`
    computes a union of cones row by row, the highest row first.  A read
    raises the first failure of its cone by increasing d = j - i, then i:
    when the kernel raises, the read evaluates its cone again in that order,
    skipping the stored cells.  A cell reads e(i,j-1), y(j-2), e(i,j-2),
    x(j-1), x(j-2), in row d = 3 y(i), y(i+1), x(i), x(i+2), x(i+1) as the
    diamond rule did; once its column has factors it skips the seed reads,
    which succeeded then and are pure, so values and raised errors never
    depend on earlier requests.  A computed zero raises
    :class:`ZeroEntryError` with ``zero_message.format(i=i, j=j)``.
    """

    __slots__ = ("_x", "_y", "_zero_message", "_rows", "_steps")

    def __init__(self, x, y, zero_message: str):
        self._x = x
        self._y = y
        self._zero_message = zero_message
        # Row i -> (N, M, field) of e(i, i+1), e(i, i+2), e(i, i+3), ...
        self._rows: dict[int, list[tuple]] = {}
        # Column j -> (A_j, B_j, S_j, field).
        self._steps: dict[int, tuple] = {}

    def get(self, i: int, j: int) -> FieldElement:
        """e(i, j) for j - i >= 1."""
        if j - i < 3:
            return self._x(i) if j - i == 1 else self._y(i)
        rows = self._rows
        row = rows.get(i, ())
        if len(row) < j - i:
            # Row t holds column j when it has j - t cells; the rows above
            # the first one that does hold it too.
            t = i + 1
            while t < j - 2 and len(rows.get(t, ())) < j - t:
                t += 1
            try:
                self._extend(i, t, j - i - 3, i + 1)
            except Exception:
                # Raise the cone's first failure by increasing d, then i.
                for d in range(3, j - i + 1):
                    for a in range(i, j - d + 1):
                        if len(rows.get(a, ())) < d:
                            self._extend(a, a + 1, d - 3, a + 1)
                raise
            row = rows[i]
        v, den, fd = row[j - i - 1]
        return fd.from_lattice(v, den)

    def row(self, r: int, lo: int, hi: int) -> list[FieldElement]:
        """``[self.get(i, i + r + 3) for i in range(lo, hi)]``, their cones
        computed in one kernel call."""
        if hi <= lo:
            return []
        try:
            self._extend(lo, hi + r, r, hi)
        except Exception:
            # Each read raises as it would alone, so the first failing one does.
            return [self.get(i, i + r + 3) for i in range(lo, hi)]
        rows = self._rows
        return [fd.from_lattice(v, den) for v, den, fd in (rows[i][r + 2] for i in range(lo, hi))]

    def _extend(self, lo: int, hi: int, r: int, end: int) -> None:
        """Extend each row i in [lo, hi), the highest first, to the column
        min(i, end - 1) + r + 3: the union of the cones of e(c, c + r + 3)
        for c < end.  Rows i + 1 .. j - 3 hold each column j that row i
        gets, by the list invariant or because they came first."""
        x, y, steps, rows = self._x, self._y, self._steps, self._rows
        for i in range(hi - 1, lo - 1, -1):
            row = rows.get(i)
            stop = (i if i < end else end - 1) + r + 4
            for j in range(i + 1 + len(row) if row else i + 3, stop):
                # A row's first cell e(i, i+3) reads the seeds y(i), x(i) as
                # elements and clears them over one M, as its first entries.
                step = steps.get(j)
                left = y(i) if row is None else row[-1]
                yj = y(j - 2) if step is None else None
                right = x(i) if row is None else row[-2]
                if step is None:
                    xj, div = x(j - 1), x(j - 2)
                    s0, s1 = yj / div, xj / div
                    cf = _join(s0.field, s1.field)
                    den, [(a, b)] = cf.lattice([(s0, s1)])
                    step = steps[j] = (a, b, den, cf)
                a, b, s, cf = step
                if row is None:
                    lf = rf = _join(left.field, right.field)
                    lm, [(lv, rv)] = lf.lattice([(left, right)])
                    row = rows[i] = [(rv, lm, lf), (lv, lm, lf)]
                else:
                    (lv, lm, lf), (rv, _, rf) = left, right
                fd = cf
                if not (lf is rf is cf):
                    fd = _join(lf, cf)  # the field of e(i,j-2) is in that of e(i,j-1)
                    lv, rv, a, b = (
                        v if f.d == fd.d else (v, 0)
                        for v, f in ((lv, lf), (rv, rf), (a, cf), (b, cf))
                    )
                d = fd.d
                if j - i > 3:
                    k = steps[j - 1][2]
                    b = b * k if d is None else (b[0] * k, b[1] * k)
                v = _det2(lv, a, rv, b, d)
                if not (v if d is None else v[0] or v[1]):
                    raise ZeroEntryError((i, j), self._zero_message.format(i=i, j=j))
                row.append((v, lm * s, fd))


def build_from_seeds(
    seeds: SeedData, field: FieldDescriptor | None = None
) -> FriezeMatrix:
    """Fill the matrix from x, y by the row rule of the diamond rule.

    Anti-diagonals are filled by increasing distance d = j - i, each entry
    m[i,j] = (m[i,j-1]*y_{j-2} - m[i,j-2]*x_{j-1}) / x_{j-2}.  Raises
    :class:`ZeroEntryError` (with the offending 1-based index) when a
    computed off-diagonal entry vanishes, i.e. the seeds generate no frieze
    matrix.
    """
    fd = field if field is not None else _common_field(seeds.x + seeds.y)
    n = seeds.n
    x, y = seeds.x, seeds.y
    rows = _FriezeRows(
        lambda i: x[i - 1], lambda i: y[i - 1], "seeds generate a zero entry at ({i},{j})"
    )
    # Fill the cone of m[1,n] first, so a zero is reported in anti-diagonal order.
    rows.get(1, n)
    m = [[fd.zero] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            m[i - 1][j - 1] = m[j - 1][i - 1] = rows.get(i, j)
    return FriezeMatrix(m)


def validate(m: FriezeMatrix) -> ValidationReport:
    """Check symmetry, the diagonal rules and every diamond instance.

    Every violated rule is reported with both sides of the failed
    equation; nothing is raised.  The checks run on the entries cleared by
    :class:`_Cleared`, where a diamond relation holds exactly when it holds
    on M.
    """
    n = m.n
    zero = m.field.zero
    rows = m.rows()
    c = _Cleared(rows, m.field)
    d, g, z = c.d, c.grid, c.zero
    out: list[Violation] = []
    for i in range(n):
        if g[i][i] != z:
            out.append(Violation(RULE_ZERO_DIAGONAL, (i + 1, i + 1), rows[i][i], zero))
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] != g[j][i]:
                out.append(Violation(RULE_SYMMETRY, (i + 1, j + 1), rows[i][j], rows[j][i]))
            if g[i][j] == z:
                out.append(Violation(RULE_NONZERO_OFF_DIAGONAL, (i + 1, j + 1), zero, zero))
    for i in range(1, n):
        r, s = g[i - 1], g[i]
        for j in range(i + 1, n):
            # The right side m[i,i+1]*m[j,j+1] is a 2x2 determinant with a zero row.
            lhs = _det2(r[j - 1], s[j], s[j - 1], r[j], d)
            rhs = _det2(r[i], g[j - 1][j], z, z, d)
            if lhs != rhs:
                e = m.entry
                corners = (e(i, j), e(i + 1, j + 1), e(i + 1, j), e(i, j + 1))
                lhs = c.side(lhs, corners)
                rhs = c.side(rhs, (e(i, i + 1), e(j, j + 1)))
                out.append(Violation(RULE_DIAMOND, (i, j), lhs, rhs))
    return ValidationReport(tuple(out))


def check_ptolemy(
    m: FriezeMatrix, quad: tuple[int, int, int, int] | None = None
) -> ValidationReport:
    """Check m[i,k]m[j,l] = m[i,j]m[k,l] + m[i,l]m[j,k].

    With ``quad`` given, checks that single quadruple (which must satisfy
    1 <= i <= j <= k <= l <= n, else IndexError); otherwise checks every
    quadruple, equalities included (those hold trivially).

    Both sides have degree 2 in the entries, so the checks run on the
    entries cleared by :class:`_Cleared`, a grid g.  Without ``quad``, a
    certificate comes first: when every diagonal cell is zero and
    g[1,2] != 0, the relations (1, 2, k, l) for 3 <= k < l <= n are tested,
    and each one that fails names a bad cell (k, l).  Only the quadruples
    that hold a bad cell among their six index pairs can fail, so only those
    are scanned, and none when no cell is bad; every quadruple is scanned
    when the diagonal or g[1,2] rules the certificate out, or when the bad
    cells would name more candidates than there are quadruples.  Only the
    scan builds violations.  Proof: take a_c = g[1,c], b_c = g[2,c] for
    c >= 2 and a_1 = 0, b_1 = -g[1,2], and the 2x2 minors
    D(k,l) = a_k*b_l - a_l*b_k.  Then D(k,l) = g[1,2]*g[k,l] for k <= l: for
    k = l, k = 1 or k = 2 by the zero diagonal, and for k >= 3 exactly when
    the relation (1, 2, k, l) holds.  The minors of any 2 x n matrix satisfy
    D(i,k)*D(j,l) = D(i,j)*D(k,l) + D(i,l)*D(j,k) (the three-term Plücker
    relation).  A relation i <= j <= k <= l reads the six cells (i,k),
    (j,l), (i,j), (k,l), (i,l), (j,k); when none is bad, substituting
    g[1,2]*g for D turns Plücker into the relation multiplied by g[1,2]^2,
    which is nonzero, so the relation holds.  The certificate reads only
    cells the scan reads, the upper triangle and the diagonal.
    """
    n = m.n
    if quad is not None and not (1 <= quad[0] <= quad[1] <= quad[2] <= quad[3] <= n):
        raise IndexError(f"quadruple {quad} must satisfy 1 <= i <= j <= k <= l <= {n}")
    c = _Cleared(m.rows(), m.field)
    d, g, z = c.d, c.grid, c.zero

    def failing(quads):
        for i, j, k, l in quads:
            gi, gj = g[i], g[j]
            if d is None:
                holds = gi[k] * gj[l] == gi[j] * g[k][l] + gi[l] * gj[k]
            else:
                # Both sides expanded in Z[sqrt(d)]: the sqrt(d) parts, then the rest.
                (a0, a1), (b0, b1) = gi[k], gj[l]
                (c0, c1), (e0, e1) = gi[j], g[k][l]
                (f0, f1), (h0, h1) = gi[l], gj[k]
                holds = (
                    a0 * b1 + a1 * b0 == c0 * e1 + c1 * e0 + f0 * h1 + f1 * h0
                    and a0 * b0 - c0 * e0 - f0 * h0 == d * (c1 * e1 + f1 * h1 - a1 * b1)
                )
            if not holds:
                yield i, j, k, l

    if quad is not None:
        quads = [tuple(x - 1 for x in quad)]
    else:
        quads = itertools.combinations_with_replacement(range(n), 4)
        if g[0][1] != z and all(g[i][i] == z for i in range(n)):
            certificate = ((0, 1, k, l) for k in range(2, n) for l in range(k + 1, n))
            bad = [(k, l) for _, _, k, l in failing(certificate)]
            # Each bad cell names n(n+1)/2 candidates; there are C(n+3, 4) quadruples.
            if len(bad) * n * (n + 1) // 2 <= math.comb(n + 3, 4):
                pairs = list(itertools.combinations_with_replacement(range(n), 2))
                quads = sorted({tuple(sorted((p, q, x, y))) for p, q in bad for x, y in pairs})
    out = []
    for i, j, k, l in failing(quads):
        # gi[j]*g[k][l] + gi[l]*gj[k] is the 2x2 determinant with -gj[k].
        gi, gj, h = g[i], g[j], g[j][k]
        lhs = _det2(gi[k], gj[l], z, z, d)
        rhs = _det2(gi[j], g[k][l], gi[l], -h if d is None else (-h[0], -h[1]), d)
        i, j, k, l = i + 1, j + 1, k + 1, l + 1
        e = m.entry
        lhs = c.side(lhs, (e(i, k), e(j, l)))
        rhs = c.side(rhs, (e(i, j), e(k, l), e(i, l), e(j, k)))
        out.append(Violation(RULE_PTOLEMY, (i, j, k, l), lhs, rhs))
    return ValidationReport(tuple(out))


class TriangularMatrix(FriezeMatrix):
    """Upper triangular companion of a frieze matrix.

    Rows 1 and 2 are rows 2 and 1 of the source; below them
    t[i,j] = -2*m[1,j]*m[i-1,i]/m[1,i-1] for j >= i and 0 otherwise.
    Its determinant is minus that of the source matrix.
    """

    __slots__ = ()

    def diagonal(self) -> tuple[FieldElement, ...]:
        return tuple(self._rows[i][i] for i in range(self.n))


class EliminationTrace(namedtuple("EliminationTrace", "matrices steps")):
    """The intermediate matrices of the row reduction, swap included.

    ``matrices[k]`` is the k-th stage (k = 0 is the row swap), a tuple of
    row tuples; the last stage equals the closed-form triangular matrix.
    ``steps[k]`` is a human-readable description of the row operations
    producing stage k.
    """

    __slots__ = ()


def _t_closed_form(m: FriezeMatrix) -> TriangularMatrix:
    n = m.n
    zero = m.field.zero
    minus2 = m.field.from_int(-2)
    rows: list[tuple[FieldElement, ...]] = [
        tuple(m.entry(2, j) for j in range(1, n + 1)),
        tuple(m.entry(1, j) for j in range(1, n + 1)),
    ]
    for i in range(3, n + 1):
        pivot = m.entry(1, i - 1)
        if pivot.is_zero:
            raise ZeroDivisionError(
                f"m[1,{i - 1}] = 0; input is not a frieze matrix"
            )
        coeff = minus2 * m.entry(i - 1, i) / pivot
        rows.append(
            tuple(zero for _ in range(i - 1))
            + tuple(coeff * m.entry(1, j) for j in range(i, n + 1))
        )
    return TriangularMatrix(rows)


def _row_step(v, dr: int, s: int, t, u, d: int | None) -> tuple[list, int]:
    """The row v/dr made (v*s - t*u) / (dr*s), in lowest terms: new lattice
    values, ints over Q or pairs p + q*sqrt(d) over Q(sqrt(d)), and their
    int denominator.  s is a nonzero int and t a lattice value, so the
    gcd of dr*s and the new values divides each of them exactly."""
    ds = dr * s
    if d is None:
        new = [x * s - t * y for x, y in zip(v, u)]
        q = math.gcd(ds, *new)
        return ([x // q for x in new] if q != 1 else new), ds // q
    (t0, t1), dt1 = t, d * t[1]
    new = [
        (x0 * s - t0 * y0 - dt1 * y1, x1 * s - t0 * y1 - t1 * y0)
        for (x0, x1), (y0, y1) in zip(v, u)
    ]
    q = math.gcd(ds, *(x for w in new for x in w))
    return ([(x0 // q, x1 // q) for x0, x1 in new] if q != 1 else new), ds // q


def _elimination_trace(m: FriezeMatrix) -> EliminationTrace:
    """Apply the literal row-operation schedule and record every stage.

    Multipliers are taken from the original matrix entries, not from the
    current pivots, so the trace certifies the prescribed schedule rather
    than generic Gaussian elimination.

    The rows start on the entries cleared by :class:`_Cleared`: work row r
    is v_r / D_r, with v_r ints or pairs p + q*sqrt(d) and D_r an int, all
    starting at the common denominator.  The multiplier a/b has a, b in
    that lattice, and a/b = a*conj(b) / N(b) over Q(sqrt(d)) (over Q read
    conj(b) = 1 and N(b) = b), so R_r <- R_r - (a/b)*R_k is the step
    :func:`_row_step` with s = N(b)*D_k and t = a*conj(b)*D_r.  A column
    where v_k is zero keeps its value (a - c*0 = a) and its element;
    elements are built only for the changed entries, and a row that a stage
    leaves alone is the same tuple in both stages.
    """
    n = m.n
    fd = m.field
    rows = m.rows()
    c = _Cleared(rows, fd)
    d, den, g, z = c.d, c.den, c.grid, c.zero
    vecs, dens, elems = [g[1], g[0], *g[2:]], [den] * n, [rows[1], rows[0], *rows[2:]]
    mats, steps = [tuple(elems)], ["swap rows 1 and 2"]
    # Stage (k, a_row, b_col, targets): R_i <- R_i - (m[a_row,i]/m[1,b_col])*R_k.
    schedule = [(1, 1, 2, range(3, n + 1)), (2, 2, 2, range(3, n + 1))]
    schedule += [(k, 1, k, range(k + 1, n + 1)) for k in range(3, n)]
    for k, a_row, b_col, targets in schedule[: n - 1]:
        pivot = m.entry(1, b_col)
        if k >= 3 and pivot.is_zero:
            raise ZeroDivisionError(f"m[1,{k}] = 0; input is not a frieze matrix")
        vk, b = vecs[k - 1], g[0][b_col - 1]
        nz = [j for j, v in enumerate(vk) if v != z]
        ops = []
        for i in targets:
            c = m.entry(a_row, i) / pivot
            ops.append(f"R{i} <- R{i} - ({format_element(c)})*R{k}")
            a, dr = g[a_row - 1][i - 1], dens[i - 1]
            if d is None:
                s, t = b * dens[k - 1], a * dr
            else:
                s = (b[0] * b[0] - d * b[1] * b[1]) * dens[k - 1]
                t = (a[0] * b[0] - d * a[1] * b[1]) * dr, (a[1] * b[0] - a[0] * b[1]) * dr
            new, dr = vecs[i - 1], dens[i - 1] = _row_step(vecs[i - 1], dr, s, t, vk, d)
            row = list(elems[i - 1])
            for j in nz:
                row[j] = fd.from_lattice(new[j], dr)
            elems[i - 1] = tuple(row)
        steps.append("; ".join(ops) if ops else "no-op")
        mats.append(tuple(elems))
    return EliminationTrace(tuple(mats), tuple(steps))


def triangulate(
    m: FriezeMatrix, keep_trace: bool = False
) -> tuple[TriangularMatrix, EliminationTrace | None]:
    """Closed-form triangular companion, optionally with the full trace.

    The trace is produced by actually performing the row operations, so it
    is an independent path: its last stage must coincide with the closed
    form whenever the input is a genuine frieze matrix.
    """
    t = _t_closed_form(m)
    trace = _elimination_trace(m) if keep_trace else None
    return t, trace


def det_closed_form(m: FriezeMatrix) -> FieldElement:
    """-(-2)^(n-2) * m[1,n] * product of the x_i; needs a valid input."""
    n = m.n
    acc = m.entry(1, n)
    for i in range(1, n):
        acc = acc * m.entry(i, i + 1)
    return -(m.field.from_int(-2) ** (n - 2)) * acc


def _square_grid(m) -> tuple[list[list[FieldElement]], FieldDescriptor]:
    """The rows of a matrix or a plain grid, as lists, and their common field."""
    a = [list(r) for r in (m.rows() if isinstance(m, FriezeMatrix) else m)]
    if any(len(r) != len(a) for r in a):
        raise ValueError("matrix must be square")
    return a, _common_field(e for r in a for e in r)


def det_elimination(m) -> FieldElement:
    """Exact determinant by row-reduced elimination.

    Works on any square matrix of field elements: frieze matrices, their
    triangular companions, or a plain grid.  Row r is held as v_r / D_r in
    lowest terms, v_r ints over Q or pairs (p, q) = p + q*sqrt(d) over
    Q(sqrt(d)), from the lcm D_r of its denominators, and its columns are
    read last first (a permutation of sign (-1)^(n(n-1)/2)).  Step k takes
    the first row with a nonzero cell b in column k as the pivot row (a
    swap flips the sign); with 1/b = conj(b)/N(b) (over Q read conj(b) = 1,
    N(b) = b), R_r <- R_r - (v_r[k]/b)*R_k is :func:`_row_step` with
    s = N(b) and t = v_r[k]*conj(b), in which D_k cancels, on the trailing
    block.  The determinant is the product of the pivots b/D_k, one lattice
    value over one int, made an element at the end.  Every division is by a
    gcd, so exact; a column without a nonzero cell gives zero.  On a frieze
    matrix, whose upper triangle is the minors of a 2 x n matrix divided by
    m[1,2] (see :func:`check_ptolemy`), rows 1 and 2 then clear each row i
    in every column j > i, so from step 3 on each column holds one nonzero
    cell: the elimination costs O(n^2) operations, not O(n^3).
    """
    a, fd = _square_grid(m)
    d = fd.d
    rows = [(v, den) for den, [v] in (fd.lattice([row[::-1]]) for row in a)]
    zero, prod = (0, 1) if d is None else ((0, 0), (1, 0))
    scale = (-1) ** (len(a) * (len(a) - 1) // 2)
    while rows:
        p = next((r for r, (v, _) in enumerate(rows) if v[0] != zero), None)
        if p is None:
            return fd.zero
        if p:
            rows[0], rows[p] = rows[p], rows[0]
            scale = -scale
        ((b, *u), dk), rest = rows[0], rows[1:]
        scale *= dk
        if d is None:
            prod, s = prod * b, b
        else:
            (b0, b1), (p0, p1) = b, prod
            prod, s = (p0 * b0 + d * p1 * b1, p0 * b1 + p1 * b0), b0 * b0 - d * b1 * b1
        rows = []
        for (x, *v), dr in rest:
            t = x if d is None else (x[0] * b0 - d * x[1] * b1, x[1] * b0 - x[0] * b1)
            rows.append((v, dr) if x == zero else _row_step(v, dr, s, t, u, d))
    return fd.from_lattice(prod, scale)


def reconstruct_entry(m: FriezeMatrix, i: int, j: int) -> FieldElement:
    """Recover m[i,j] from the first two rows and the x_t alone.

    m[i,j] = m[1,i]m[2,j]/m[1,2] + m[2,i]m[1,j]/m[1,2]
             - 2 * sum_{t=3..i} m[1,i]m[1,j]m[t-1,t] / (m[1,t]m[1,t-1])

    defined for 3 <= i <= n and i <= j <= n.
    """
    n = m.n
    if not (3 <= i <= n) or not (i <= j <= n):
        raise IndexError(f"need 3 <= i <= j <= {n}, got ({i},{j})")
    e = m.entry
    x12 = e(1, 2)
    acc = e(1, i) * e(2, j) / x12 + e(2, i) * e(1, j) / x12
    s = m.field.zero
    for t in range(3, i + 1):
        s = s + e(1, i) * e(1, j) * e(t - 1, t) / (e(1, t) * e(1, t - 1))
    return acc - m.field.from_int(2) * s


def check_t_properties(t: TriangularMatrix, m: FriezeMatrix) -> ValidationReport:
    """Verify the two structural identities of the triangular companion.

    (a) every neighbouring 2x2 determinant above the diagonal vanishes:
        t[i,j]t[i+1,j+1] - t[i+1,j]t[i,j+1] = 0 for i >= 2, j >= i+1;
    (b) t[i,i]t[i+1,i+1] + 2*m[i,i+1]*t[i,i+1] = 0 for i >= 2.

    Both have degree 2 in the entries of t and the m[i,i+1], so they run
    on those entries cleared by :class:`_Cleared`.
    """
    n = t.n
    zero = m.field.zero
    # Row n + 1 holds -2*m[i,i+1] at column i - 1, so (b) is a 2x2 determinant too.
    c = _Cleared(t.rows() + (tuple(-2 * m.entry(i, i + 1) for i in range(2, n)),))
    d, g, z = c.d, c.grid, c.zero
    e = t.entry
    out = []
    for i in range(2, n):
        r, s = g[i - 1], g[i]
        for j in range(i + 1, n):
            lhs = _det2(r[j - 1], s[j], s[j - 1], r[j], d)
            if lhs != z:
                corners = (e(i, j), e(i + 1, j + 1), e(i + 1, j), e(i, j + 1))
                out.append(Violation(RULE_ZERO_DIAMOND, (i, j), c.side(lhs, corners), zero))
    for i in range(2, n):
        lhs = _det2(g[i - 1][i - 1], g[i][i], g[n][i - 2], g[i - 1][i], d)
        if lhs != z:
            # The factor 2 of the relation is held in m.field, as zero is.
            reads = (e(i, i), e(i + 1, i + 1), zero, m.entry(i, i + 1), e(i, i + 1))
            out.append(Violation(RULE_DIAGONAL_RELATION, (i,), c.side(lhs, reads), zero))
    return ValidationReport(tuple(out))
