"""Frieze-matrix construction, validation, triangulation and determinants."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from friezecalc import (
    RATIONAL,
    FieldDescriptor,
    FriezeMatrix,
    SeedData,
    TriangularMatrix,
    ZeroEntryError,
    build_from_seeds,
    check_ptolemy,
    check_t_properties,
    det_closed_form,
    det_elimination,
    format_element,
    reconstruct_entry,
    triangulate,
    validate,
)
from friezecalc import matrix
from friezecalc.matrix import _elimination_trace
from friezecalc.serialize import field_to_json, matrix_to_json

from conftest import Q5, det_cofactor, el5, random_frieze_matrix, rat, reference_bareiss


def grid_of(m) -> list[list[str]]:
    return [[str(e) for e in row] for row in m.rows()]


class TestBuildFromSeeds:
    def test_constant_x2_y3(self):
        m = build_from_seeds(
            SeedData(tuple(rat(2) for _ in range(4)), tuple(rat(3) for _ in range(3)))
        )
        for i in range(1, 3):
            assert m.entry(i, i + 3) == rat(Fraction(5, 2))
        assert m.entry(1, 5) == rat(Fraction(3, 4))
        assert validate(m).ok

    def test_n3_is_just_the_seeds(self):
        m = build_from_seeds(SeedData((rat(1), rat(1)), (rat(1),)))
        assert grid_of(m) == [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]

    def test_quadratic_seeds(self, exm_seeds, exm_corrected):
        m = build_from_seeds(exm_seeds)
        assert m.entry(1, 4) == el5("2")
        assert m.entry(2, 5) == el5("1/2")
        assert m.entry(3, 6) == el5("-3 - 1/2*sqrt(5)")
        assert m.entry(2, 6) == el5("-1/2 + 1/4*sqrt(5)")
        assert m.entry(1, 6) == el5("-1 - 1/2*sqrt(5)")
        assert m == exm_corrected
        assert validate(m).ok

    def test_zero_entry_reported_with_index(self):
        # x = y = 1 forces a zero at distance 3
        seeds = SeedData(tuple(rat(1) for _ in range(4)), tuple(rat(1) for _ in range(3)))
        with pytest.raises(ZeroEntryError) as info:
            build_from_seeds(seeds)
        assert info.value.indices == (1, 4)

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError):
            SeedData((rat(1), rat(0)), (rat(1),))


class TestValidate:
    def test_printed_example_flags_diamond(self, exm_printed):
        report = validate(exm_printed)
        assert not report.ok
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.rule == "diamond"
        assert v.indices == (3, 5)
        assert v.lhs == rat(-6) and v.rhs == rat(6)

    def test_corrected_example_passes(self, exm_corrected):
        assert validate(exm_corrected).ok

    def test_zero_off_diagonal(self):
        m = build_from_seeds(SeedData((rat(1), rat(1)), (rat(1),)))
        rows = [list(r) for r in m.rows()]
        rows[0][2] = rows[2][0] = RATIONAL.zero
        report = validate(FriezeMatrix(rows))
        assert any(
            v.rule == "nonzero_off_diagonal" and v.indices == (1, 3)
            for v in report.violations
        )

    def test_asymmetry_and_diagonal(self):
        m = build_from_seeds(SeedData((rat(1), rat(1)), (rat(1),)))
        rows = [list(r) for r in m.rows()]
        rows[0][1] = rat(7)
        rows[1][1] = rat(1)
        report = validate(FriezeMatrix(rows))
        rules = {v.rule for v in report.violations}
        assert "symmetry" in rules and "zero_diagonal" in rules


class TestPtolemy:
    def test_trivial_quadruple(self, exm_corrected):
        assert check_ptolemy(exm_corrected, (2, 2, 4, 6)).ok

    def test_example_quadruple(self, exm_corrected):
        m = exm_corrected
        assert m.entry(1, 4) * m.entry(3, 6) == el5("-6 - sqrt(5)")
        assert check_ptolemy(m, (1, 3, 4, 6)).ok

    def test_exhaustive_on_constant_matrix(self, const23):
        assert check_ptolemy(const23).ok

    def test_bad_quadruple_rejected(self, const23):
        with pytest.raises(IndexError):
            check_ptolemy(const23, (3, 1, 4, 6))
        with pytest.raises(IndexError):
            check_ptolemy(const23, (1, 2, 3, 7))

    def test_violation_reported_on_corrupted_matrix(self, exm_printed):
        report = check_ptolemy(exm_printed)
        assert not report.ok


def reference_ptolemy(m, quad=None):
    """The scan on field elements that the integer-lattice scan replaced."""
    quads = [quad] if quad else itertools.combinations_with_replacement(range(1, m.n + 1), 4)
    out = []
    for i, j, k, l in quads:
        lhs = m.entry(i, k) * m.entry(j, l)
        rhs = m.entry(i, j) * m.entry(k, l) + m.entry(i, l) * m.entry(j, k)
        if lhs != rhs:
            out.append(("ptolemy", (i, j, k, l), lhs, rhs, lhs.field, rhs.field))
    return out


def ptolemy_violations(report):
    return [
        (v.rule, v.indices, v.lhs, v.rhs, v.lhs.field, v.rhs.field) for v in report.violations
    ]


_ptolemy_fields = st.sampled_from([RATIONAL, FieldDescriptor(5), FieldDescriptor(-3)])
_ptolemy_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def ptolemy_matrices(draw):
    """A frieze matrix of size 2-7 with mixed denominators and mixed-field
    seeds, left alone or
    with one symmetric pair changed, one entry changed (breaking symmetry;
    the new value may be a plain rational) or one diagonal entry nonzero."""
    fd = draw(_ptolemy_fields)
    n = draw(st.integers(2, 7))
    b = st.just(0) if fd.is_rational else _ptolemy_coeffs
    nonzero = st.builds(fd.element, _ptolemy_coeffs, b).filter(bool)
    # Seeds held in fd or in Q, so entries, and the sides of a failed
    # relation, may be held in either.
    seed = nonzero | st.builds(RATIONAL.element, _ptolemy_coeffs).filter(bool)
    x = draw(st.lists(seed, min_size=n - 1, max_size=n - 1))
    y = draw(st.lists(seed, min_size=n - 2, max_size=n - 2))
    try:
        rows = [list(r) for r in build_from_seeds(SeedData(x, y), fd).rows()]
    except ZeroEntryError:
        assume(False)
    change = draw(st.sampled_from(["none", "symmetric pair", "one entry", "diagonal"]))
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    if change == "symmetric pair":
        rows[i][j] = rows[j][i] = rows[i][j] + draw(nonzero)
    elif change == "one entry":
        rows[j][i] = RATIONAL.element(draw(_ptolemy_coeffs))
    elif change == "diagonal":
        rows[i][i] = draw(nonzero)
    return FriezeMatrix(rows)


def reference_validate(m):
    """The rule checks on field elements that the integer-lattice checks replaced."""
    n, zero = m.n, m.field.zero
    out = []
    for i in range(1, n + 1):
        if not m.entry(i, i).is_zero:
            out.append(("zero_diagonal", (i, i), m.entry(i, i), zero))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if m.entry(i, j) != m.entry(j, i):
                out.append(("symmetry", (i, j), m.entry(i, j), m.entry(j, i)))
            if m.entry(i, j).is_zero:
                out.append(("nonzero_off_diagonal", (i, j), zero, zero))
    for i in range(1, n):
        for j in range(i + 1, n):
            lhs = m.entry(i, j) * m.entry(i + 1, j + 1) - m.entry(i + 1, j) * m.entry(i, j + 1)
            rhs = m.entry(i, i + 1) * m.entry(j, j + 1)
            if lhs != rhs:
                out.append(("diamond", (i, j), lhs, rhs))
    return [(*v, v[2].field, v[3].field) for v in out]


@st.composite
def matrices_with_zero_pairs(draw):
    """A matrix of :func:`ptolemy_matrices`, or one whose symmetric
    off-diagonal pair at a drawn position is set to zero."""
    m = draw(ptolemy_matrices())
    if not draw(st.booleans()):
        return m
    rows = [list(r) for r in m.rows()]
    i, j = sorted(draw(st.lists(st.integers(0, m.n - 1), min_size=2, max_size=2, unique=True)))
    rows[i][j] = rows[j][i] = m.field.zero
    return FriezeMatrix(rows)


@st.composite
def minor_matrices(draw):
    """The symmetric matrix of the column minors D_ij = a_i*b_j - a_j*b_i of
    a random 2 x n matrix, n in [2, 7], built directly so that minors may be
    zero: D_12 is zero in about half of them (column 2 a multiple of
    column 1).  Every Ptolemy relation holds on it (Plücker), so only the
    certificate's m[1,2] != 0 can tell the two routes apart.  Sometimes one
    symmetric pair is changed."""
    fd = draw(_ptolemy_fields)
    n = draw(st.integers(2, 7))
    b = st.just(0) if fd.is_rational else _ptolemy_coeffs
    elem = st.builds(fd.element, _ptolemy_coeffs, b)
    top = draw(st.lists(elem, min_size=n, max_size=n))
    bottom = draw(st.lists(elem, min_size=n, max_size=n))
    if draw(st.booleans()):
        c = draw(elem)
        top[1], bottom[1] = c * top[0], c * bottom[0]
    rows = [[top[i] * bottom[j] - top[j] * bottom[i] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    if draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        rows[i][j] = rows[j][i] = rows[i][j] + draw(elem.filter(bool))
    return FriezeMatrix(rows)


@given(
    matrices_with_zero_pairs() | minor_matrices(),
    st.lists(st.integers(0, 8), min_size=4, max_size=4),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_ptolemy_scan_matches_reference(m, quad, ordered):
    assert ptolemy_violations(check_ptolemy(m)) == reference_ptolemy(m)
    quad = tuple(sorted(quad) if ordered else quad)
    if 1 <= quad[0] <= quad[1] <= quad[2] <= quad[3] <= m.n:
        assert ptolemy_violations(check_ptolemy(m, quad)) == reference_ptolemy(m, quad)
    else:
        with pytest.raises(IndexError):
            check_ptolemy(m, quad)


class _CountingInt(int):
    """An int that counts the products it is the left factor of."""

    products = 0

    def __mul__(self, other):
        _CountingInt.products += 1
        return int(self) * other


def test_valid_matrix_is_cleared_by_the_first_two_rows(monkeypatch):
    """A valid 20 x 20 matrix over Q is cleared after the (n-2)(n-3)/2 = 153
    relations (1, 2, k, l), three products each, with no scan.  A corrupted
    one gets the reference report: one bad cell (5, 12) is scanned through
    its n(n+1)/2 = 210 quadruples alone; a changed first row fails many
    relations (1, 2, k, l), and a changed g[1,2] fails them all, which
    scans every quadruple."""

    class Counted(matrix._Cleared):
        def __init__(self, rows, field=None):
            super().__init__(rows, field)
            self.grid = [[_CountingInt(v) for v in r] for r in self.grid]

    monkeypatch.setattr(matrix, "_Cleared", Counted)
    m = random_frieze_matrix(random.Random(20), 20, RATIONAL)
    _CountingInt.products = 0
    assert check_ptolemy(m).ok
    assert _CountingInt.products == 3 * 153
    for i, j in ((5, 12), (1, 7), (1, 2)):
        rows = [list(r) for r in m.rows()]
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = rows[i - 1][j - 1] + rat(1)
        bad = FriezeMatrix(rows)
        _CountingInt.products = 0
        report = check_ptolemy(bad)
        assert not report.ok and ptolemy_violations(report) == reference_ptolemy(bad)
        # Three products per relation tested, and three more per violation built.
        scanned = _CountingInt.products // 3 - 153 - len(report.violations)
        if (i, j) == (5, 12):
            assert 0 < scanned <= 20 * 21 // 2
        if (i, j) == (1, 2):
            assert scanned == math.comb(23, 4)


@given(matrices_with_zero_pairs())
@settings(max_examples=200, deadline=None)
def test_validate_matches_reference(m):
    assert ptolemy_violations(validate(m)) == reference_validate(m)


def expected_stage_entry(m, k, i, j):
    """Independent closed form for stage k of the elimination, case by case.

    Stages 0..2 are the swap and the two explicit first reductions; from
    stage 3 on the entries follow the four-case description with the
    partial-sum form for the not-yet-reduced block.
    """
    e = m.entry
    if i == 1:
        return e(2, j)
    if i == 2:
        return e(1, j)
    if k == 0:
        return e(i, j)

    def m2(i, j):  # stage-2 value for rows >= 3
        return e(i, j) - e(1, i) * e(2, j) / e(1, 2) - e(2, i) * e(1, j) / e(1, 2)

    if k == 1:
        return e(i, j) - e(1, i) * e(2, j) / e(1, 2)
    if k == 2:
        return m2(i, j)
    if j <= min(i - 1, k):
        return m.field.zero
    if 3 <= i <= k + 1 and j >= i:
        return m.field.from_int(-2) * e(1, j) * e(i - 1, i) / e(1, i - 1)
    assert i >= k + 2 and j >= k + 1
    acc = m2(i, j)
    for t in range(3, k + 1):
        stage_t = m.field.from_int(-2) * e(1, j) * e(t - 1, t) / e(1, t - 1)
        acc = acc - e(1, i) * stage_t / e(1, t)
    return acc


def assert_trace_valid(m):
    t, trace = triangulate(m, keep_trace=True)
    n = m.n
    assert len(trace.matrices) == n
    for k, stage in enumerate(trace.matrices):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert stage[i - 1][j - 1] == expected_stage_entry(m, k, i, j), (
                    f"stage {k} mismatch at ({i},{j})"
                )
    assert trace.matrices[-1] == t.rows()
    det_m = det_elimination(m)
    for stage in trace.matrices:
        assert det_elimination(stage) == -det_m
    return t, trace


class TestTriangulate:
    def test_n3_fixture(self):
        m = build_from_seeds(SeedData((rat(1), rat(1)), (rat(1),)))
        t, _ = triangulate(m)
        assert grid_of(t) == [["1", "0", "1"], ["0", "1", "1"], ["0", "0", "-2"]]
        assert det_elimination(t) == rat(-2)
        assert det_cofactor(m) == rat(2)

    def test_example_diagonal(self, exm_corrected):
        t, _ = triangulate(exm_corrected)
        assert [str(v) for v in t.diagonal()] == ["1", "1", "8", "-12", "2", "-2 - sqrt(5)"]

    def test_first_two_rows_swapped(self, exm_corrected):
        t, _ = triangulate(exm_corrected)
        m = exm_corrected
        assert t.rows()[0] == tuple(m.entry(2, j) for j in range(1, 7))
        assert t.rows()[1] == tuple(m.entry(1, j) for j in range(1, 7))

    def test_json_keeps_the_triangular_shape(self, exm_corrected, const23):
        for m in (const23, exm_corrected):
            t, _ = triangulate(m)
            # The shape of the former triangular_to_json, written out.
            expected = {
                "field": field_to_json(t.field),
                "n": t.n,
                "entries": [[format_element(e) for e in row] for row in t.rows()],
            }
            assert matrix_to_json(t) == expected
        assert expected["field"] == {"kind": "quadratic", "d": 5}

    def test_trace_matches_stage_oracle(self, exm_corrected, const23):
        assert_trace_valid(exm_corrected)
        assert_trace_valid(const23)

    def test_trace_on_randoms(self):
        rng = random.Random(7)
        for _ in range(10):
            assert_trace_valid(random_frieze_matrix(rng, rng.randint(2, 8), RATIONAL))

    def test_trace_step_descriptions(self, const23):
        _, trace = triangulate(const23, keep_trace=True)
        assert trace.steps[0] == "swap rows 1 and 2"
        assert "R3 <- R3" in trace.steps[1]


def reference_trace(m):
    """The literal schedule on field elements that the lattice trace replaced."""
    n = m.n
    work = [list(r) for r in m.rows()]
    work[0], work[1] = work[1], work[0]
    mats, steps = [tuple(map(tuple, work))], ["swap rows 1 and 2"]

    def reduce_rows(pivot_row, coeff_of, targets):
        ops = []
        for i in targets:
            c = coeff_of(i)
            work[i - 1] = [a - c * b for a, b in zip(work[i - 1], work[pivot_row - 1])]
            ops.append(f"R{i} <- R{i} - ({format_element(c)})*R{pivot_row}")
        steps.append("; ".join(ops) if ops else "no-op")
        mats.append(tuple(map(tuple, work)))

    x12 = m.entry(1, 2)
    reduce_rows(1, lambda i: m.entry(1, i) / x12, range(3, n + 1))
    reduce_rows(2, lambda i: m.entry(2, i) / x12, range(3, n + 1))
    for k in range(3, n):
        pivot = m.entry(1, k)
        if pivot.is_zero:
            raise ZeroDivisionError(f"m[1,{k}] = 0; input is not a frieze matrix")
        reduce_rows(k, lambda i: m.entry(1, i) / pivot, range(k + 1, n + 1))
    return mats[:n], steps[:n]


def _outcome(f, m):
    try:
        return f(m)
    except ZeroDivisionError as err:
        return str(err)


@given(matrices_with_zero_pairs())
@settings(max_examples=200, deadline=None)
def test_trace_matches_reference(m):
    """Every stage entry's value and text, and the steps, equal the field-element
    loop's, and so does a ZeroDivisionError; on a single-field matrix, the fields too."""
    expected = _outcome(reference_trace, m)
    got = _outcome(_elimination_trace, m)
    if isinstance(expected, str):
        assert got == expected
        return
    mats, steps = expected
    assert got.steps == tuple(steps)
    assert len(got.matrices) == len(mats)
    single = all(e.field == m.field for r in m.rows() for e in r)
    for stage, ref in zip(got.matrices, mats):
        for row, ref_row in zip(stage, ref, strict=True):
            for e, r in zip(row, ref_row, strict=True):
                assert (e.a, e.b, format_element(e)) == (r.a, r.b, format_element(r))
                assert not single or e.field == r.field


class TestDeterminants:
    def test_identity_like(self):
        eye = [[RATIONAL.one if i == j else RATIONAL.zero for j in range(4)] for i in range(4)]
        assert det_elimination(eye) == RATIONAL.one
        assert det_cofactor(eye) == RATIONAL.one

    def test_minor_matrix_by_hand(self):
        grid = [
            [rat(0), rat(-3), rat(-6)],
            [rat(-3), rat(0), rat(-3)],
            [rat(-6), rat(-3), rat(0)],
        ]
        assert det_elimination(grid) == rat(-108)
        assert det_cofactor(grid) == rat(-108)

    def test_swap_accounting(self):
        grid = [[RATIONAL.zero, RATIONAL.one], [RATIONAL.one, RATIONAL.zero]]
        assert det_elimination(grid) == rat(-1)

    def test_singular(self):
        one = RATIONAL.one
        grid = [[one, one], [one, one]]
        assert det_elimination(grid).is_zero

    def test_example_value(self, exm_corrected):
        expected = el5("-384 - 192*sqrt(5)")
        assert det_closed_form(exm_corrected) == expected
        assert det_elimination(exm_corrected) == expected
        assert det_cofactor(exm_corrected) == expected

    def test_closed_equals_elimination_on_randoms(self):
        rng = random.Random(99)
        for _ in range(25):
            m = random_frieze_matrix(rng, rng.randint(3, 9), RATIONAL)
            d = det_closed_form(m)
            assert d == det_elimination(m)
            if m.n <= 6:
                assert d == det_cofactor(m)

    def test_n2(self):
        m = build_from_seeds(SeedData((rat(3),), ()))
        assert det_closed_form(m) == rat(-9)
        assert det_elimination(m) == rat(-9)


# Coefficients with mixed denominators, in every field the kernel branches
# on: Q, and Q(sqrt(d)) for positive and negative d.
_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_fields = st.sampled_from([RATIONAL, FieldDescriptor(5), FieldDescriptor(2), FieldDescriptor(-3)])


@st.composite
def square_grids(draw):
    """An n x n grid, n in [1, 6], with zero entries and, sometimes, a
    repeated row or a zero column."""
    fd = draw(_fields)
    n = draw(st.integers(1, 6))
    b = st.just(0) if fd.is_rational else _coeffs
    entry = st.one_of(st.just(fd.zero), st.builds(fd.element, _coeffs, b))
    grid = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["plain", "repeated row", "zero column"]))
    if shape == "repeated row" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        grid[j] = list(grid[i])
    elif shape == "zero column":
        c = draw(st.integers(0, n - 1))
        for row in grid:
            row[c] = fd.zero
    return grid


@given(square_grids())
@settings(max_examples=200, deadline=None)
def test_elimination_matches_cofactor(grid):
    assert det_elimination(grid) == reference_bareiss(grid) == det_cofactor(grid)


def test_frieze_matrix_needs_two_elimination_steps(monkeypatch):
    """Columns read last first, rows 1 and 2 clear every other row of a
    valid frieze matrix beyond its diagonal: a 20 x 20 one takes 2(n-2)
    row steps, each row but the one with a zero cell once per step."""
    calls = []
    step = matrix._row_step
    monkeypatch.setattr(matrix, "_row_step", lambda *args: calls.append(1) or step(*args))
    m = random_frieze_matrix(random.Random(20), 20, Q5)
    assert det_elimination(m) == det_closed_form(m)
    assert len(calls) == 2 * (20 - 2)


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_elimination_matches_bareiss_on_fractional_friezes(n):
    """Exact equality with the Bareiss reference and the closed form on
    Q(sqrt 5) frieze matrices whose coefficients have denominators."""
    m = random_frieze_matrix(random.Random(n), n, Q5)
    assert any(e._den > 1 for r in m.rows() for e in r)
    assert det_elimination(m) == reference_bareiss(m) == det_closed_form(m)


class TestReconstruct:
    def test_i3_j3_always_zero(self, exm_corrected, const23):
        assert reconstruct_entry(exm_corrected, 3, 3).is_zero
        assert reconstruct_entry(const23, 3, 3).is_zero

    def test_example_entry(self, exm_corrected):
        assert reconstruct_entry(exm_corrected, 3, 4) == el5("6")

    def test_constant_matrix_y_entry(self, const23):
        assert reconstruct_entry(const23, 4, 6) == rat(3)

    def test_full_range(self, exm_corrected):
        m = exm_corrected
        for i in range(3, m.n + 1):
            for j in range(i, m.n + 1):
                assert reconstruct_entry(m, i, j) == m.entry(i, j)

    def test_index_errors(self, const23):
        for bad in ((2, 3), (3, 2), (7, 7), (3, 7)):
            with pytest.raises(IndexError):
                reconstruct_entry(const23, *bad)


class TestTProperties:
    def test_example(self, exm_corrected):
        t, _ = triangulate(exm_corrected)
        assert check_t_properties(t, exm_corrected).ok

    def test_quiddity_matrix(self):
        m = build_from_seeds(
            SeedData(tuple(rat(1) for _ in range(3)), (rat(1), rat(2)))
        )
        t, _ = triangulate(m)
        assert check_t_properties(t, m).ok

    def test_perturbed_t_reports_zero_diamond(self, const23):
        t, _ = triangulate(const23)
        rows = [list(r) for r in t.rows()]
        rows[2][4] = rows[2][4] + rat(1)
        report = check_t_properties(TriangularMatrix(tuple(tuple(r) for r in rows)), const23)
        assert not report.ok
        assert any(v.rule == "zero_diamond" for v in report.violations)

    def test_sqrt_part_in_the_t_of_a_rational_matrix(self, const23):
        t, _ = triangulate(const23)
        rows = [list(r) for r in t.rows()]
        rows[2][4] = rows[2][4] + FieldDescriptor(5).element(0, 1)
        t = TriangularMatrix(tuple(tuple(r) for r in rows))
        report = check_t_properties(t, const23)
        assert not report.ok
        assert ptolemy_violations(report) == reference_t_properties(t, const23)


def reference_t_properties(t, m):
    """The two identities on field elements that the lattice checks replaced."""
    n, zero, two = t.n, m.field.zero, m.field.from_int(2)
    out = []
    for i in range(2, n):
        for j in range(i + 1, n):
            lhs = t.entry(i, j) * t.entry(i + 1, j + 1) - t.entry(i + 1, j) * t.entry(i, j + 1)
            if not lhs.is_zero:
                out.append(("zero_diamond", (i, j), lhs, zero, lhs.field, zero.field))
    for i in range(2, n):
        lhs = t.entry(i, i) * t.entry(i + 1, i + 1) + two * m.entry(i, i + 1) * t.entry(i, i + 1)
        if not lhs.is_zero:
            out.append(("diagonal_relation", (i,), lhs, zero, lhs.field, zero.field))
    return out


@given(ptolemy_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_t_properties_match_reference(m, data):
    """On the closed-form T of a valid or changed matrix, left alone or with
    one entry changed: an element added (of Q(sqrt(5)) to the T of a
    rational matrix), or the entry replaced by a plain rational."""
    try:
        t, _ = triangulate(m)
    except ZeroDivisionError:
        assume(False)
    rows = [list(r) for r in t.rows()]
    i, j = data.draw(st.integers(0, m.n - 1)), data.draw(st.integers(0, m.n - 1))
    change = data.draw(st.sampled_from(["none", "add", "replace"]))
    if change == "add":
        fd = FieldDescriptor(5) if m.field.is_rational else m.field
        a = st.just(0) | _ptolemy_coeffs  # a = 0: only the sqrt(5) part changes
        rows[i][j] += data.draw(st.builds(fd.element, a, _ptolemy_coeffs))
    elif change == "replace":
        rows[i][j] = RATIONAL.element(data.draw(_ptolemy_coeffs))
    t = TriangularMatrix(tuple(tuple(r) for r in rows))
    assert ptolemy_violations(check_t_properties(t, m)) == reference_t_properties(t, m)
