"""Shared fixtures: parsed example matrices and the random matrix corpus."""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from friezecalc import (
    RATIONAL,
    ElementSyntaxError,
    FieldDescriptor,
    FieldElement,
    FieldMismatchError,
    FriezeMatrix,
    SeedRow,
    TwoRowMatrix,
    ZeroEntryError,
    ZeroMinorError,
    build_from_seeds,
    delta_minor_matrix,
    parse_element,
    serialize,
)
from friezecalc.field import _join
from friezecalc.matrix import SeedData, _det2, _square_grid
from friezecalc.zerofrieze import _nonzero

FIXTURES = Path(__file__).parent / "fixtures"

Q5 = FieldDescriptor(5)


def rat(v) -> object:
    return RATIONAL.element(Fraction(v))


def el5(text: str) -> object:
    return parse_element(text, Q5)


# The element parser before coefficients were built from the matched ints:
# each coefficient goes through Fraction's own string parser and is added to
# zero.  It is the reference for `parse_element`.
_REFERENCE_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?
        \s*(?P<rat>\d+(?:/\d+)?)?
        (?:\s*(?(rat)(?:\*\s*)?)sqrt\(\s*(?P<arg>-?\d+)\s*\))?
        \s*""",
    re.VERBOSE,
)


def reference_parse_element(text: str, field: FieldDescriptor) -> FieldElement:
    a = b = Fraction(0)
    pos = 0
    while True:
        m = _REFERENCE_TERM.match(text, pos)
        sign, rat, arg = m.groups()
        if rat is None and arg is None:
            raise ElementSyntaxError(f"expected a term at {text[pos:]!r}")
        if pos and sign is None:
            raise ElementSyntaxError("terms must be joined by '+' or '-'")
        coeff = Fraction(f"{sign or ''}{rat or 1}")
        if arg is None:
            a += coeff
        elif field.is_rational or int(arg) != field.d:
            raise ElementSyntaxError(f"sqrt({int(arg)}) does not belong to {field}")
        else:
            b += coeff
        pos = m.end()
        if pos == len(text):
            return FieldElement(a, b, field)


# The element as a pair of Fractions, as the package held it before it held
# three ints: the reference for `FieldElement`, `format_element` and the
# descriptor's `lattice` and `from_lattice`.
@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """Immutable a + b*sqrt(d); plain rational when the field is Q."""

    a: Fraction
    b: Fraction
    field: FieldDescriptor

    def __post_init__(self):
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", _reference_rational(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", _reference_rational(self.b))
        if self.field.is_rational and self.b != 0:
            raise FieldMismatchError("rational element cannot carry a sqrt part")

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _coerce(self, other):
        if isinstance(other, ReferenceElement):
            return other
        if isinstance(other, (int, Fraction)):
            return ReferenceElement(Fraction(other), Fraction(0), self.field)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceElement(self.a + o.a, self.b + o.b, _join(self.field, o.field))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return ReferenceElement(-self.a, -self.b, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fd = _join(self.field, o.field)
        if fd.is_rational:
            return ReferenceElement(self.a * o.a, Fraction(0), fd)
        d = fd.d
        return ReferenceElement(
            self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, fd
        )

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero element")
        if self.field.is_rational:
            return ReferenceElement(1 / self.a, Fraction(0), self.field)
        norm = self.a * self.a - self.field.d * self.b * self.b
        return ReferenceElement(self.a / norm, -self.b / norm, self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = ReferenceElement(Fraction(1), Fraction(0), self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        _join(self.field, o.field)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.field.d))


def _reference_rational(x) -> Fraction:
    if not isinstance(x, int):
        raise TypeError(f"coefficient must be an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


def reference_format_element(x: ReferenceElement, compact: bool = False) -> str:
    if x.b == 0:
        return str(x.a)
    d = x.field.d
    sep = "" if compact else " "

    def radical(c: Fraction) -> str:
        return f"sqrt({d})" if c == 1 else f"{c}*sqrt({d})"

    if x.a == 0:
        return radical(x.b) if x.b > 0 else "-" + radical(-x.b)
    sign = "+" if x.b > 0 else "-"
    return f"{x.a}{sep}{sign}{sep}{radical(abs(x.b))}"


def reference_lattice(fd: FieldDescriptor, rows):
    den = math.lcm(*(c.denominator for r in rows for e in r for c in (e.a, e.b)))
    if fd.d is None:
        return den, [[e.a.numerator * (den // e.a.denominator) for e in r] for r in rows]
    return den, [
        [(e.a.numerator * (den // e.a.denominator), e.b.numerator * (den // e.b.denominator))
         for e in r]
        for r in rows
    ]


def reference_from_lattice(fd: FieldDescriptor, v, den: int) -> ReferenceElement:
    p, q = (v, 0) if fd.d is None else v
    return ReferenceElement(
        Fraction(p, den) if p else Fraction(0), Fraction(q, den) if q else Fraction(0), fd
    )


def load_fixture(name: str):
    return json.loads((FIXTURES / name).read_text())


# Seeded random rationals, elements, seed data and frieze matrices for the
# tests.  Rejection sampling retries when the drawn data fails a nonzero
# condition; magnitudes stay small (|num| <= 9, den <= 4 by default) to keep
# entry growth manageable on the larger sizes.
def random_rational(
    rng: random.Random, max_num: int = 9, max_den: int = 4, nonzero: bool = False
) -> Fraction:
    while True:
        val = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if not (nonzero and val == 0):
            return val


def random_element(
    rng: random.Random,
    field: FieldDescriptor,
    max_num: int = 9,
    max_den: int = 4,
    nonzero: bool = False,
) -> FieldElement:
    while True:
        a = random_rational(rng, max_num, max_den)
        # Half of the quadratic draws stay rational to vary the mix.
        b = Fraction(0)
        if not field.is_rational and rng.random() < 0.5:
            b = random_rational(rng, 3, 2)
        el = field.element(a, b)
        if not (nonzero and el.is_zero):
            return el


def random_seed_data(rng: random.Random, n: int, field: FieldDescriptor) -> SeedData:
    if n < 2:
        raise ValueError("need n >= 2")
    x = tuple(random_element(rng, field, nonzero=True) for _ in range(n - 1))
    y = tuple(random_element(rng, field, nonzero=True) for _ in range(n - 2))
    return SeedData(x, y)


def random_frieze_matrix(
    rng: random.Random, n: int, field: FieldDescriptor, max_tries: int = 500
) -> FriezeMatrix:
    """Draw seeds until the construction succeeds (no zero entries).

    Raises ValueError when ``max_tries`` draws all fail.
    """
    for _ in range(max_tries):
        try:
            return build_from_seeds(random_seed_data(rng, n, field), field)
        except ZeroEntryError:
            continue
    raise ValueError(f"no frieze matrix of size {n} found in {max_tries} tries")


def reference_random_two_row_matrix(
    rng: random.Random, n: int, max_abs: int = 9, max_tries: int = 500
) -> TwoRowMatrix:
    """The draw that tested every minor by building the whole minor matrix
    in field elements: the reference for `random_two_row_matrix`."""
    for _ in range(max_tries):
        x = TwoRowMatrix(
            tuple(RATIONAL.from_int(rng.randint(-max_abs, max_abs)) for _ in range(n)),
            tuple(RATIONAL.from_int(rng.randint(-max_abs, max_abs)) for _ in range(n)),
        )
        try:
            delta_minor_matrix(x)
        except ZeroMinorError:
            continue
        return x
    raise ValueError(f"no nonzero-minor 2x{n} matrix found in {max_tries} tries")


@pytest.fixture(scope="session")
def exm_printed():
    return serialize.matrix_from_json(load_fixture("exm_as_printed.json"))


@pytest.fixture(scope="session")
def exm_corrected():
    return serialize.matrix_from_json(load_fixture("exm_corrected.json"))


@pytest.fixture(scope="session")
def exm_seeds():
    x = tuple(el5(s) for s in ("1", "-2", "6", "2", "1"))
    y = tuple(el5(s) for s in ("2", "1", "-1", "sqrt(5)"))
    return SeedData(x, y)


@pytest.fixture(scope="session")
def const23():
    """The constant frieze matrix with x = 2, y = 3 at size 6."""
    return build_from_seeds(
        SeedData(tuple(rat(2) for _ in range(5)), tuple(rat(3) for _ in range(4)))
    )


@pytest.fixture(scope="session")
def corpus_rational():
    """200 random frieze matrices over Q with n in [3, 12]."""
    rng = random.Random(20240811)
    return [random_frieze_matrix(rng, 3 + i % 10, RATIONAL) for i in range(200)]


@pytest.fixture(scope="session")
def corpus_quadratic():
    """50 random frieze matrices over Q(sqrt(5)) with n in [3, 12]."""
    rng = random.Random(5050)
    return [random_frieze_matrix(rng, 3 + i % 10, Q5) for i in range(50)]


# Seed-row strategies over Q and Q(sqrt(5)) for the recurrence engine.
seed_fields = st.sampled_from([RATIONAL, Q5])
pin_fields = st.sampled_from([RATIONAL, Q5, FieldDescriptor(-3)])
_small = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def nonzero_elements(fd):
    b = _small if not fd.is_rational else st.just(Fraction(0))
    return st.builds(fd.element, _small, b).filter(lambda e: not e.is_zero)


def mixed_elements(fd):
    """Nonzero elements of ``fd``, some of them held as elements of Q."""
    return st.one_of(nonzero_elements(fd), nonzero_elements(RATIONAL))


@st.composite
def seed_rows(draw, fd, elements=nonzero_elements):
    """A cycle of 1-3 values, or a table of 4-12 values starting near 0."""
    if draw(st.booleans()):
        return SeedRow.cycle(draw(st.lists(elements(fd), min_size=1, max_size=3)))
    values = draw(st.lists(elements(fd), min_size=4, max_size=12))
    return SeedRow.table(draw(st.integers(-6, 0)), values)


# Requests (i, d) for entry(i, i + d + shift): columns near 0, rows up to 7,
# in any order, so later requests may extend stored rows to the left or
# hit windows disjoint from earlier ones.
entry_requests = st.lists(
    st.tuples(st.integers(-4, 6), st.integers(0, 7)), min_size=2, max_size=8
)


def outcome(entry, i: int, j: int):
    """The value of entry(i, j), or the type, indices and text of the error it raises."""
    try:
        return entry(i, j)
    except Exception as exc:  # errors are part of the outcome
        return type(exc).__name__, getattr(exc, "indices", getattr(exc, "index", None)), str(exc)


def with_field(entry):
    """``entry``, returning each value with the field it is held in."""

    def read(i, j):
        value = entry(i, j)
        return value, value.field

    return read


def diamond_entry(row0, row1, base: int, zero_message: str, i: int, j: int, coeff=None):
    """e(i, j) by the diamond rule, the reference for the package's row rules.

    e(a, a+base) = row0(a), e(a, a+base+1) = row1(a) and, deeper,

        e(a,b) = (e(a,b-1)*e(a+1,b) - coeff(a,b)) / e(a+1,b-1)

    (no subtraction without ``coeff``).  Each call evaluates the whole cone of
    (i, j) anew, by increasing b - a, then a, reading seeds in that order; a
    computed zero raises ZeroEntryError with ``zero_message``.
    """
    cells = {}

    def e(a, b):
        r = b - a - base
        return row0(a) if r == 0 else row1(a) if r == 1 else cells[a, b]

    for d in range(base + 2, j - i + 1):
        for a in range(i, j - d + 1):
            b = a + d
            num = e(a, b - 1) * e(a + 1, b)
            if coeff is not None:
                num = num - coeff(a, b)
            cells[a, b] = num / e(a + 1, b - 1)
            if cells[a, b].is_zero:
                raise ZeroEntryError((a, b), zero_message.format(i=a, j=b))
    return e(i, j)


FRIEZE_ZERO = "frieze entry ({i},{j}) is zero; the seeds generate no frieze"


def diamond_frieze_entry(x, y, zero_message: str, i: int, j: int):
    """e(i, j), j > i, of the frieze with seed rows x, y by the diamond rule."""
    return diamond_entry(x, y, 1, zero_message, i, j, lambda a, b: x(a) * x(b - 1))


def det_cofactor(m):
    """Exact determinant of a matrix or a plain square grid by first-row
    cofactor expansion: the reference for the elimination kernel, whose
    cost is exponential in n, so small n only."""
    a, fd = _square_grid(m)
    n = len(a)

    def expand(rows, cols):
        if len(cols) == 1:
            return a[rows[0]][cols[0]]
        top = rows[0]
        rest = rows[1:]
        acc = fd.zero
        for t, c in enumerate(cols):
            if a[top][c].is_zero:
                continue
            sub = expand(rest, cols[:t] + cols[t + 1:])
            term = a[top][c] * sub
            acc = acc + term if t % 2 == 0 else acc - term
        return acc

    return expand(tuple(range(n)), tuple(range(n)))


def reference_bareiss(m):
    """Exact determinant by integer-preserving (Bareiss) elimination: the
    package's kernel before row-reduced elimination replaced it, and a
    reference for that kernel.

    Each row is scaled by the lcm D_i of its coefficient denominators, so
    that DM has entries in Z (held as ints) or in Z[sqrt(d)] (held as pairs
    (p, q) = p + q*sqrt(d)) and det(M) = det(DM) / prod(D_i).  Bareiss
    elimination on DM divides exactly by the previous pivot; over
    Z[sqrt(d)] it multiplies by the pivot's conjugate and divides by its
    integer norm.  Every such division checks its remainder.  Row swaps are
    tracked and a fully zero pivot column short-circuits to zero.
    """
    inexact = "Bareiss division left a remainder; the elimination kernel is wrong"
    a, fd = _square_grid(m)
    n = len(a)
    d = fd.d
    scale = 1
    g = []
    for row in a:
        den, [v] = fd.lattice([row])
        scale *= den
        g.append(v)
    zero, prev = (0, 1) if d is None else ((0, 0), (1, 0))
    sign = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if g[r][k] != zero), None)
        if pivot_row is None:
            return fd.zero
        if pivot_row != k:
            g[k], g[pivot_row] = g[pivot_row], g[k]
            sign = -sign
        top = g[k]
        p = top[k]
        if d is None:
            # g[i][j] <- (g[i][j]*p - g[i][k]*g[k][j]) / prev, exactly.
            for row in g[k + 1:]:
                c = row[k]
                for j in range(k + 1, n):
                    q, r = divmod(row[j] * p - c * top[j], prev)
                    if r:
                        raise ArithmeticError(inexact)
                    row[j] = q
        else:
            # The same update in Z[sqrt(d)]; dividing by prev = v0 + v1*sqrt(d)
            # is multiplying by v0 - v1*sqrt(d) and dividing by v0^2 - d*v1^2.
            p0, p1 = p
            v0, v1 = prev
            norm = v0 * v0 - d * v1 * v1
            dp1, dv1 = d * p1, d * v1
            for row in g[k + 1:]:
                c0, c1 = row[k]
                dc1 = d * c1
                for j in range(k + 1, n):
                    x0, x1 = row[j]
                    y0, y1 = top[j]
                    t0 = x0 * p0 + x1 * dp1 - c0 * y0 - dc1 * y1
                    t1 = x0 * p1 + x1 * p0 - c0 * y1 - c1 * y0
                    q0, r0 = divmod(t0 * v0 - t1 * dv1, norm)
                    q1, r1 = divmod(t1 * v0 - t0 * v1, norm)
                    if r0 or r1:
                        raise ArithmeticError(inexact)
                    row[j] = (q0, q1)
        prev = p
    return fd.from_lattice(g[n - 1][n - 1], sign * scale)


class ProductZeroFrieze:
    """t[i,j] of the 0-frieze with rows u, v as a running product of field
    elements, t[i,i] = v_i and t[i,j] = t[i,j-1]*(v_j/u_j).  It is the same
    algorithm as the package's ``ZeroFrieze``, kept apart from it so that a
    change to the package's rows is pinned; ``diamond_zero_entry`` is the
    independent route.  It reads the seeds as the package does, v_i first,
    then v_k before u_k, each step v_k/u_k once, and keeps each row, so a
    request may extend an earlier one."""

    def __init__(self, u, v):
        self.u = _nonzero(u, "u", -1)
        self.v = _nonzero(v, "v", 0)
        self._rows = {}
        self._steps = {}

    def entry(self, i: int, j: int):
        if j < i - 1:
            raise ValueError(f"0-frieze entries need j >= i-1, got ({i},{j})")
        if j == i - 1:
            return self.u(i)
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = [self.v(i)]
        for k in range(i + len(row), j + 1):
            step = self._steps.get(k)
            if step is None:
                step = self._steps[k] = self.v(k) / self.u(k)
            row.append(row[-1] * step)
        return row[j - i]


class ReferenceRows:
    """The frieze row engine as it was before its cells were computed by one
    kernel, with each missing row extended by ``_cover`` and each row read
    through a ``_row`` closure: the reference for ``matrix._FriezeRows``.

    Same rule, cell order, seed reads, errors and stored runs: rows d = 3 + r
    as runs ``_starts[r]``, ``_runs[r]`` of (N, M, field) cells, where N/M is
    e(i, i + d) over the lattice of the row's denominator chain.  The new
    row read is pinned against ``[get(i, i + r + 3) for i in range(lo, hi)]``.
    """

    __slots__ = ("_x", "_y", "_zero_message", "_starts", "_runs", "_steps", "_seeds")

    def __init__(self, x, y, zero_message: str):
        self._x = x
        self._y = y
        self._zero_message = zero_message
        # Row d = 3 + r holds (N, M, field) of e(i, i+d) for i in
        # [_starts[r], _starts[r] + len(_runs[r])).
        self._starts: list[int] = []
        self._runs: list[list[tuple]] = []
        # Column j -> (A_j, B_j, S_j, field).
        self._steps: dict[int, tuple] = {}
        # i -> (N, M, field) of y(i), over the M of its row.
        self._seeds: dict[int, tuple] = {}

    def get(self, i: int, j: int) -> FieldElement:
        """e(i, j) for j - i >= 1."""
        r = j - i - 3
        if r < 0:
            return self._x(i) if r == -2 else self._y(i)
        starts, runs = self._starts, self._runs
        if r >= len(runs) or not 0 <= i - starts[r] < len(runs[r]):
            # Row t of the cone needs columns [i, i + r - t + 1).  Each
            # stored row t >= 1 runs over [s, e) with row t - 1 holding
            # [s, e + 1), so the first row down from r that holds its
            # columns holds the cone below it.
            t = r
            while t >= 0 and (
                t >= len(runs) or not (starts[t] <= i and i + r - t + 1 <= starts[t] + len(runs[t]))
            ):
                t -= 1
            for t in range(t + 1, r + 1):
                self._cover(t, i, i + r - t + 1)
        v, den, fd = runs[r][i - starts[r]]
        return fd.from_lattice(v, den)

    def _cover(self, r: int, lo: int, hi: int) -> None:
        """Make row r hold columns [lo, hi), computing the missing ones in
        order; row r - 1 holds [lo, hi + 1) already.  A run replaced by a
        disjoint one takes the rows above it along, whose runs it held up."""
        if r == len(self._runs):
            self._starts.append(lo)
            self._runs.append([])
        start, run = self._starts[r], self._runs[r]
        stop = start + len(run)
        if hi < start or lo > stop:
            del self._starts[r + 1:], self._runs[r + 1:]
            start = stop = self._starts[r] = lo
            run = self._runs[r] = []
        if lo < start:
            run[:0] = self._cells(r, lo, start)
            self._starts[r] = lo
        if stop < hi:
            run.extend(self._cells(r, stop, hi))

    def _row(self, r: int):
        if r < 0:
            return self._seeds.__getitem__
        start, run = self._starts[r], self._runs[r]
        return lambda i: run[i - start]

    def _cells(self, r: int, lo: int, hi: int) -> list[tuple]:
        # Row d = 3 reads the seeds y(i), x(i) as elements and clears them.
        up, up2 = (self._y, self._x) if r == 0 else (self._row(r - 1), self._row(r - 2))
        x, y, steps, seeds = self._x, self._y, self._steps, self._seeds
        out = []
        for i in range(lo, hi):
            j = i + r + 3
            step = steps.get(j)
            if step is None:
                left, yj, right, xj, div = up(i), y(j - 2), up2(i), x(j - 1), x(j - 2)
                s0, s1 = yj / div, xj / div
                cf = _join(s0.field, s1.field)
                den, [(a, b)] = cf.lattice([(s0, s1)])
                step = steps[j] = (a, b, den, cf)
            else:
                left, right = up(i), up2(i)
            a, b, s, cf = step
            if r == 0:
                lf = rf = _join(left.field, right.field)
                lm, [(lv, rv)] = lf.lattice([(left, right)])
                seeds[i] = (lv, lm, lf)
            else:
                (lv, lm, lf), (rv, _, rf) = left, right
            fd = cf
            if not (lf is rf is cf):
                fd = _join(lf, cf)  # the field of e(i,j-2) is in that of e(i,j-1)
                lv, rv, a, b = (
                    v if f.d == fd.d else (v, 0) for v, f in ((lv, lf), (rv, rf), (a, cf), (b, cf))
                )
            d = fd.d
            if r:
                k = steps[j - 1][2]
                b = b * k if d is None else (b[0] * k, b[1] * k)
            v = _det2(lv, a, rv, b, d)
            if not (v if d is None else v[0] or v[1]):
                raise ZeroEntryError((i, j), self._zero_message.format(i=i, j=j))
            out.append((v, lm * s, fd))
        return out
