"""Acceptance criteria, one test per criterion, exact equality throughout.

Every check is exact (no tolerances): the identities under test live in
Q or Q(sqrt(5)) and are verified with exact arithmetic.  Each test prints
one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from friezecalc import (
    RATIONAL,
    FactorizationImpossibleError,
    FriezeSeeds,
    InfiniteFrieze,
    SeedRow,
    ZeroFrieze,
    baur_marsh_det_check,
    cc_det_check,
    cc_matrix,
    check_ptolemy,
    check_t_properties,
    check_zero_diamond,
    delta_minor_matrix,
    det_closed_form,
    det_elimination,
    extract_m_minus,
    extract_m_plus,
    from_frieze,
    quiddity_from_triangulation,
    rank1_factorize,
    reconstruct_entry,
    triangulate,
    validate,
    window_cells,
)
from friezecalc.generators import random_triangulation, random_two_row_matrix
from friezecalc.matrix import _FriezeRows
from friezecalc.serialize import matrix_from_json, zero_seeds_from_json

from conftest import Q5, load_fixture, random_frieze_matrix, random_rational, rat
from test_matrix import assert_trace_valid


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL: {title}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS: {title}")


def test_criterion_1_determinant_theorem(corpus_rational, corpus_quadratic):
    with criterion(1, "closed-form determinant equals elimination (200 Q + 50 Q(sqrt5))"):
        start = time.monotonic()
        assert len(corpus_rational) >= 200 and len(corpus_quadratic) >= 50
        for m in corpus_rational + corpus_quadratic:
            assert 3 <= m.n <= 12
            assert det_closed_form(m) == det_elimination(m)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"determinant sweep took {elapsed:.1f}s"


def test_criterion_2_conway_coxeter():
    with criterion(2, "100 random triangulations: det = -(-2)^(k-2), corner 1, positive region"):
        rng = random.Random(2024)
        for idx in range(100):
            k = 3 + idx % 10
            q = quiddity_from_triangulation(random_triangulation(rng, k))
            m = cc_matrix(q)  # raises OrderViolationError unless m[1,k] = 1
            assert m.entry(1, k) == RATIONAL.one
            for i in range(1, k + 1):
                for j in range(i + 1, k + 1):
                    e = m.entry(i, j)
                    assert e.b == 0 and e.a.denominator == 1 and e.a > 0
            report = cc_det_check(q)
            assert report.ok
            assert report.expected == -(RATIONAL.from_int(-2) ** (k - 2))


def test_criterion_3_minor_matrix_determinants():
    with criterion(3, "100 random 2xn matrices: det(A) = -(-2)^(n-2)*D1n*prod(Di,i+1)"):
        rng = random.Random(30303)
        for idx in range(100):
            n = 2 + idx % 7
            x = random_two_row_matrix(rng, n)
            report = baur_marsh_det_check(x)
            assert report.ok
            acc = x.minor(1, n)
            for i in range(1, n):
                acc = acc * x.minor(i, i + 1)
            assert report.expected == -(RATIONAL.from_int(-2) ** (n - 2)) * acc


def test_criterion_4_ptolemy_exhaustive(corpus_rational, corpus_quadratic):
    with criterion(4, "all quadruple relations hold on every generated matrix with n <= 10"):
        checked = 0
        for m in corpus_rational + corpus_quadratic:
            if m.n > 10:
                continue
            assert check_ptolemy(m).ok
            checked += 1
        assert checked >= 100


def test_criterion_5_triangulation_fidelity(corpus_rational, corpus_quadratic):
    with criterion(5, "50 traces match the stage closed forms; det(T) = -det(M)"):
        small = [m for m in corpus_rational + corpus_quadratic if m.n <= 8]
        assert len(small) >= 50
        for m in small[:50]:
            t, _ = assert_trace_valid(m)  # stagewise oracle + final equality
            assert det_elimination(t) == -det_elimination(m)


def test_criterion_6_entry_reconstruction(corpus_rational, corpus_quadratic):
    with criterion(6, "reconstruct_entry(M,i,j) = m[i,j] for all 3 <= i <= j <= n"):
        for m in corpus_rational + corpus_quadratic:
            for i in range(3, m.n + 1):
                for j in range(i, m.n + 1):
                    assert reconstruct_entry(m, i, j) == m.entry(i, j)


def test_criterion_7_t_matrix_structure(corpus_rational, corpus_quadratic):
    with criterion(7, "zero-diamond and diagonal identities hold on every T"):
        for m in corpus_rational + corpus_quadratic:
            t, _ = triangulate(m)
            assert check_t_properties(t, m).ok


def test_criterion_8_fixture_values():
    with criterion(8, "worked-example values reproduce exactly"):
        # constant frieze x = 2, y = 3: the three deeper rows
        f = InfiniteFrieze(
            FriezeSeeds(SeedRow.cycle([rat(2)]), SeedRow.cycle([rat(3)]), RATIONAL)
        )
        assert f.entry(0, 3) == rat(Fraction(5, 2))
        assert f.entry(0, 4) == rat(Fraction(3, 4))
        assert f.entry(0, 5) == rat(Fraction(-11, 8))

        # the two 3x3 matrices cut from the displayed quadratic frieze
        from friezecalc.serialize import frieze_seeds_from_json

        fig = InfiniteFrieze(frieze_seeds_from_json(load_fixture("figure_frieze_seeds.json")))
        assert [[str(e) for e in row] for row in extract_m_plus(fig, 2, 3).rows()] == [
            ["0", "6", "-1"], ["6", "0", "2"], ["-1", "2", "0"]
        ]
        assert [[str(e) for e in row] for row in extract_m_minus(fig, 2, 3).rows()] == [
            ["0", "6", "1"], ["6", "0", "-2"], ["1", "-2", "0"]
        ]

        # 0-frieze engine: rows 3..5 from the printed first two rows
        u, v, fd = zero_seeds_from_json(load_fixture("zerofrieze_example_seeds.json"))
        zf = ZeroFrieze(u, v, fd)
        assert [str(zf.entry(i, i + 1)) for i in range(-1, 4)] == [
            "-1/4", "-5/4", "3/2", "3/2", "-5/4"
        ]
        assert zf.entry(1, 3) == rat(Fraction(9, 8))
        assert zf.entry(0, 2) == rat(Fraction(5, 8))
        assert zf.entry(0, 3) == rat(Fraction(15, 32))

        # derived 0-frieze of the constant frieze: u row and v at the anchor
        tk = from_frieze(f, 0)
        assert all(tk.u(i) == rat(-4) for i in range(-3, 4))
        assert tk.v(2) == rat(2)


def test_criterion_9_errata_detection():
    with criterion(9, "printed example is flagged at (3,5); corrected one passes"):
        printed = matrix_from_json(load_fixture("exm_as_printed.json"))
        report = validate(printed)
        assert not report.ok
        assert [(v.rule, v.indices) for v in report.violations] == [("diamond", (3, 5))]
        assert report.violations[0].lhs == rat(-6)
        assert report.violations[0].rhs == rat(6)

        corrected = matrix_from_json(load_fixture("exm_corrected.json"))
        assert validate(corrected).ok
        expected = corrected.field.element(-384, -192)
        assert det_closed_form(corrected) == expected
        assert det_elimination(corrected) == expected


def test_criterion_10_rank1_factorization():
    with criterion(10, "rank-1 factorization exact on 20 windows; perturbations detected"):
        rng = random.Random(101)
        windows = 0
        while windows < 20:
            u = [rat(random_rational(rng, 6, 3, nonzero=True)) for _ in range(rng.randint(1, 3))]
            v = [rat(random_rational(rng, 6, 3, nonzero=True)) for _ in range(rng.randint(1, 3))]
            zf = ZeroFrieze(SeedRow.cycle(u), SeedRow.cycle(v), RATIONAL)
            cells = window_cells(zf, rng.randint(-3, 0), 10, 6)
            assert check_zero_diamond(cells).ok
            a, b = rank1_factorize(cells)
            for (i, j), val in cells.items():
                assert a[i] * b[j] == val

            # every cell with both a row mate and a column mate is pinned by
            # the product structure, so perturbing it must be detected
            rows = {}
            cols = {}
            for (i, j) in cells:
                rows[i] = rows.get(i, 0) + 1
                cols[j] = cols.get(j, 0) + 1
            constrained = [
                key for key in cells if rows[key[0]] > 1 and cols[key[1]] > 1
            ]
            for key in rng.sample(constrained, 5):
                broken = dict(cells)
                broken[key] = broken[key] * rat(2)
                with pytest.raises(FactorizationImpossibleError):
                    rank1_factorize(broken)
            windows += 1


def _sympy_value(sympy, e):
    """a + b*sqrt(d) as a sympy number, with sqrt(d) as sympy.sqrt(d)."""
    value = sympy.Rational(e.a.numerator, e.a.denominator)
    if e.b:
        value += sympy.Rational(e.b.numerator, e.b.denominator) * sympy.sqrt(e.field.d)
    return value


def _sympy_det(sympy, m):
    det = sympy.Matrix([[_sympy_value(sympy, e) for e in row] for row in m.rows()]).det()
    # Rationalize and expand to the canonical a + b*sqrt(d).
    return sympy.expand(sympy.radsimp(det))


def test_criterion_11_outside_oracle():
    sympy = pytest.importorskip("sympy")
    with criterion(11, "elimination, closed form and sympy agree (CC, minor and Q(sqrt5) matrices)"):
        rng = random.Random(11)
        matrices = [
            cc_matrix(quiddity_from_triangulation(random_triangulation(rng, k)))
            for k in (4, 9, 16, 25, 40)
        ]
        matrices += [delta_minor_matrix(random_two_row_matrix(rng, n)) for n in (3, 6, 9, 12)]
        quadratic = [random_frieze_matrix(rng, n, Q5) for n in (3, 4, 5, 5, 6, 6)]
        assert any(e.b and e.a.denominator > 1 for m in quadratic for r in m.rows() for e in r)
        for m in matrices + quadratic:
            det = det_elimination(m)
            assert det == det_closed_form(m)
            assert _sympy_value(sympy, det) == _sympy_det(sympy, m)


class _GenericField:
    """The field of :class:`_Generic` elements over the sympy field of
    fractions ``domain``, as the package asks of it: with ``d`` None the
    engine's kernel and the degree-2 checks are plain ``*`` and ``-``, and an
    element's lattice value is the element itself, over denominator 1."""

    d = None

    def __init__(self, domain):
        self.domain = domain
        self.zero = _Generic(domain.zero, self)
        self.one = _Generic(domain.one, self)

    def from_int(self, n):
        return _Generic(self.domain(n), self)

    def lattice(self, rows):
        return 1, [[e.v for e in r] for r in rows]

    def from_lattice(self, v, den):
        return _Generic(v / den, self)


class _Generic:
    """An element of a sympy field of fractions, with the arithmetic and the
    ``field`` that the package asks of a field element: the frieze engine
    divides the seeds into step factors and runs the row rule on their
    lattice values, and ``det_closed_form`` multiplies and raises to powers."""

    __slots__ = ("v", "field")

    def __init__(self, v, field):
        self.v = v
        self.field = field

    def __mul__(self, other):
        return _Generic(self.v * other.v, self.field)

    def __sub__(self, other):
        return _Generic(self.v - other.v, self.field)

    def __truediv__(self, other):
        return _Generic(self.v / other.v, self.field)

    def __pow__(self, n):
        return _Generic(self.v**n, self.field)

    def __neg__(self):
        return _Generic(-self.v, self.field)

    def __eq__(self, other):
        return self.v == other.v

    @property
    def is_zero(self):
        return not self.v


def test_criterion_12_generic_identities():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    with criterion(12, "generic frieze matrices, n = 3..8, and friezes on generic cycles"):
        for n in range(3, 9):
            field = sympy.QQ.frac_field(*sympy.symbols(f"x1:{n} y1:{n - 1}"))
            generic = _GenericField(field)
            x, y = field.gens[: n - 1], field.gens[n - 1:]
            # The package's own row-rule engine, run on indeterminate seeds.
            rows = _FriezeRows(
                lambda i: _Generic(x[i - 1], generic),
                lambda i: _Generic(y[i - 1], generic),
                "zero at ({i},{j})",
            )

            def m(i, j):
                return field.zero if i == j else rows.get(min(i, j), max(i, j)).v

            for i in range(1, n):
                for j in range(i + 1, n):
                    diamond = m(i, j) * m(i + 1, j + 1) - m(i + 1, j) * m(i, j + 1)
                    assert diamond == x[i - 1] * x[j - 1]
            grid = [[m(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
            det = DomainMatrix(grid, (n, n), field).det()
            assert det == -((-2) ** (n - 2)) * m(1, n) * math.prod(x)
            assert m(1, n).denom == math.prod(x[1: n - 2], start=field.one).numer
        # Friezes on generic x, y cycles of period p < 6: the cones of
        # M+(1, 6) and M-(1, 6) reach past i = p, so their reads go through
        # the residue shift.
        for p in (3, 4, 5):
            field = sympy.QQ.frac_field(*sympy.symbols(f"x1:{p + 1} y1:{p + 1}"))
            generic = _GenericField(field)
            x, y = (
                SeedRow.cycle([_Generic(g, generic) for g in gens])
                for gens in (field.gens[:p], field.gens[p:])
            )
            f = InfiniteFrieze(FriezeSeeds(x, y, generic))
            for extract in (extract_m_plus, extract_m_minus):
                mat = extract(f, 1, 6)
                assert validate(mat).ok
                grid = [[e.v for e in row] for row in mat.rows()]
                assert DomainMatrix(grid, (6, 6), field).det() == det_closed_form(mat).v
