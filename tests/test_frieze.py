"""Infinite friezes: lazy evaluation, cones, matrix extraction, periods."""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezecalc import (
    RATIONAL,
    FriezeSeeds,
    InfiniteFrieze,
    SeedRow,
    WindowExceededError,
    ZeroEntryError,
    ZeroFrieze,
    build_from_seeds,
    cone_entries,
    det_closed_form,
    det_elimination,
    detect_period,
    extract_m_minus,
    extract_m_plus,
    validate,
)
from friezecalc import cli
from friezecalc.field import FieldElement, format_element
from friezecalc import matrix
from friezecalc.matrix import SeedData, _FriezeRows
from friezecalc.serialize import frieze_seeds_from_json

from conftest import (
    FRIEZE_ZERO,
    Q5,
    ReferenceRows,
    diamond_frieze_entry,
    el5,
    entry_requests,
    load_fixture,
    mixed_elements,
    nonzero_elements,
    outcome,
    pin_fields,
    rat,
    seed_fields,
    seed_rows,
    with_field,
)

MATRIX_ZERO = "seeds generate a zero entry at ({i},{j})"


class CountingRow(SeedRow):
    """A seed row that counts its reads."""

    __slots__ = ("reads",)

    def __init__(self, values, start=None):
        super().__init__(values, start)
        self.reads = 0

    def value(self, i):
        self.reads += 1
        return super().value(i)


def stored_cells(rows) -> set:
    """The cells (i, j), j - i >= 3, that the engine ``rows`` holds."""
    return {(i, i + 1 + k) for i, row in rows._rows.items() for k in range(2, len(row))}


def cone(i: int, j: int) -> set:
    """The cells (a, b), b - a >= 3, of the cone of e(i, j)."""
    return {(a, b) for a in range(i, j - 2) for b in range(a + 3, j + 1)}


def assert_cones_stored(rows, read: set, held: set) -> None:
    """The engine ``rows`` holds a cone-closed set of cells, with the cells
    ``held`` (the cones of the reads that succeeded) and none outside the
    cells ``read`` (the cones of every read made)."""
    cells = stored_cells(rows)
    # The cone of (a, b) is (a, b) with the cones of (a, b - 1) and (a + 1, b).
    assert all({(a, b - 1), (a + 1, b)} <= cells for a, b in cells if b - a > 3)
    assert held <= cells <= read


def cycle_tables(x, y, n: int = 80) -> FriezeSeeds:
    """Q(sqrt 5) seeds whose x and y are tables over [0, n) that repeat the
    cycles ``x`` and ``y``: read by the engine, with no period."""
    return frieze_seeds_from_json({
        "field": {"kind": "quadratic", "d": 5},
        "x": {"table": {"start": 0, "values": [x[k % len(x)] for k in range(n)]}},
        "y": {"table": {"start": 0, "values": [y[k % len(y)] for k in range(n)]}},
    })


def counting_det2(monkeypatch) -> list:
    """Count the engine's cells as they are computed: each takes one
    ``matrix._det2``.  Returns the list that grows by one per cell."""
    calls = []
    det2 = matrix._det2

    def counted(*args):
        calls.append(args)
        return det2(*args)

    monkeypatch.setattr(matrix, "_det2", counted)
    return calls


def engine_frieze(seeds: FriezeSeeds) -> InfiniteFrieze:
    """An evaluator with its period off: every read goes to the engine."""
    f = InfiniteFrieze(seeds)
    f._period = None
    return f


def small_elements(fd):
    """Nonzero elements of ``fd`` with small integer coefficients, so that
    zero entries are likely."""
    b = st.integers(-1, 1) if fd.d is not None else st.just(0)
    return st.builds(fd.element, st.integers(-2, 3), b).filter(lambda e: not e.is_zero)


def settle(fn):
    """The elements ``fn()`` returns with their fields and text (other values
    as they are), or the type, indices and text of the error it raises."""
    try:
        got = fn()
    except Exception as exc:  # errors are part of the outcome
        return type(exc).__name__, getattr(exc, "indices", getattr(exc, "index", None)), str(exc)
    return [(e, e.field, format_element(e)) if isinstance(e, FieldElement) else e for e in got]


def const_frieze(xv=2, yv=3) -> InfiniteFrieze:
    return InfiniteFrieze(
        FriezeSeeds(SeedRow.cycle([rat(xv)]), SeedRow.cycle([rat(yv)]), RATIONAL)
    )


@pytest.fixture(scope="module")
def figure_frieze() -> InfiniteFrieze:
    return InfiniteFrieze(frieze_seeds_from_json(load_fixture("figure_frieze_seeds.json")))


class TestSeedRow:
    def test_cycle_wraps(self):
        row = SeedRow.cycle([rat(2), rat(3)])
        assert row.value(-1) == rat(3) and row.value(4) == rat(2)

    def test_table_window(self):
        row = SeedRow.table(-1, [rat(1), rat(2)])
        assert row.value(0) == rat(2)
        with pytest.raises(WindowExceededError):
            row.value(1)

    def test_period(self):
        assert SeedRow.table(0, [rat(1)]).period is None
        assert SeedRow.cycle([rat(1)] * 4).period == 4

    def test_zero_values_rejected(self):
        with pytest.raises(ValueError):
            SeedRow.cycle([rat(0)])


class TestEntries:
    def test_constant_rows(self):
        f = const_frieze()
        assert f.entry(0, 3) == rat(Fraction(5, 2))
        assert f.entry(0, 4) == rat(Fraction(3, 4))
        assert f.entry(0, 5) == rat(Fraction(-11, 8))

    def test_diagonal_is_zero(self):
        f = const_frieze()
        for i in (-3, 0, 11):
            assert f.entry(i, i).is_zero

    def test_all_ones_has_no_frieze(self):
        f = const_frieze(1, 1)
        with pytest.raises(ZeroEntryError):
            f.entry(0, 3)

    def test_j_below_i_rejected(self):
        with pytest.raises(ValueError):
            const_frieze().entry(3, 2)

    def test_diamonds_hold_posthoc(self):
        # re-check the defining relation on every evaluated diamond,
        # independently of the order the recurrence filled them in
        f = const_frieze()
        f.entry(-2, 8)
        for i in range(-2, 5):
            for j in range(i + 1, 7):
                lhs = f.entry(i, j) * f.entry(i + 1, j + 1) - f.entry(i + 1, j) * f.entry(i, j + 1)
                assert lhs == f.x(i) * f.x(j)

    def test_memo_transparency(self):
        fa, fb = const_frieze(), const_frieze()
        first = (fa.entry(0, 9), fa.entry(3, 6))
        second = (fb.entry(3, 6), fb.entry(0, 9))
        assert first == (second[1], second[0])


class TestCone:
    def test_single_point(self):
        f = const_frieze()
        assert cone_entries(f, 4, 4) == [((4, 4), RATIONAL.zero)]

    def test_values_of_small_cone(self):
        f = const_frieze()
        entries = dict(cone_entries(f, 0, 3))
        assert len(entries) == 10
        assert all(entries[(i, i)].is_zero for i in range(4))
        assert [entries[(i, i + 1)] for i in range(3)] == [rat(2)] * 3
        assert [entries[(i, i + 2)] for i in range(2)] == [rat(3)] * 2
        assert entries[(0, 3)] == rat(Fraction(5, 2))

    def test_triangular_count(self):
        assert len(cone_entries(const_frieze(), 0, 5)) == 21

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="cone needs j >= i"):
            cone_entries(const_frieze(), 3, 2)


class TestExtract:
    def test_figure_m_plus(self, figure_frieze):
        m = extract_m_plus(figure_frieze, 2, 3)
        assert [[str(e) for e in row] for row in m.rows()] == [
            ["0", "6", "-1"],
            ["6", "0", "2"],
            ["-1", "2", "0"],
        ]

    def test_figure_m_minus(self, figure_frieze):
        m = extract_m_minus(figure_frieze, 2, 3)
        assert [[str(e) for e in row] for row in m.rows()] == [
            ["0", "6", "1"],
            ["6", "0", "-2"],
            ["1", "-2", "0"],
        ]

    def test_figure_full_cone_is_the_example_matrix(self, figure_frieze, exm_corrected):
        assert extract_m_plus(figure_frieze, 0, 6) == exm_corrected

    def test_first_column_reads_the_diagonal(self):
        m = extract_m_plus(const_frieze(), 0, 4)
        assert [str(m.entry(i, 1)) for i in range(1, 5)] == ["0", "2", "3", "5/2"]

    def test_n2(self):
        f = const_frieze()
        assert extract_m_plus(f, 3, 2).entry(1, 2) == rat(2)
        assert extract_m_minus(f, 3, 2).entry(1, 2) == rat(2)

    def test_m_minus_offdiagonals(self):
        m = extract_m_minus(const_frieze(), 3, 3)
        assert (m.entry(1, 2), m.entry(1, 3), m.entry(2, 3)) == (rat(2), rat(3), rat(2))

    def test_extracted_matrices_are_frieze_matrices(self, figure_frieze):
        rng = random.Random(3)
        for _ in range(10):
            f = InfiniteFrieze(
                FriezeSeeds(
                    SeedRow.cycle([rat(rng.choice([1, 2, 3, -2])) for _ in range(2)]),
                    SeedRow.cycle([rat(rng.choice([1, 3, 5, -1]))]),
                    RATIONAL,
                )
            )
            k = rng.randint(-3, 3)
            n = rng.randint(2, 6)
            try:
                mats = [extract_m_plus(f, k, n), extract_m_minus(f, k, n)]
            except ZeroEntryError:
                continue
            for m in mats:
                assert validate(m).ok
                assert det_closed_form(m) == det_elimination(m)

    def test_cone_matches_lower_triangle(self, figure_frieze):
        k, n = 1, 4
        m = extract_m_plus(figure_frieze, k, n)
        cone = dict(cone_entries(figure_frieze, k, k + n - 1))
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                assert m.entry(i, j) == cone[(k + j - 1, k + i - 1)]


def reference_extract(f, k, n, sign):
    """M+(k,n) or M-(k,n) read entry by entry over both triangles, row by row:
    the two extractors that the shared body replaced."""
    if sign == "plus":
        return [
            [f.entry(k + min(i, j) - 1, k + max(i, j) - 1) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    return [
        [f.entry(k - max(i, j) + 2, k - min(i, j) + 2) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.data(), seed_fields, st.integers(-4, 6), st.integers(2, 7), st.sampled_from(["plus", "minus"])
)
def test_extract_matches_reference(data, fd, k, n, sign):
    """Equal entries, or the same first failing read (a window or a zero entry)."""
    seeds = FriezeSeeds(data.draw(seed_rows(fd)), data.draw(seed_rows(fd)), fd)
    extract = extract_m_plus if sign == "plus" else extract_m_minus

    def extracted(k, n):
        return extract(InfiniteFrieze(seeds), k, n).rows()

    def reference(k, n):
        return tuple(map(tuple, reference_extract(InfiniteFrieze(seeds), k, n, sign)))

    assert outcome(extracted, k, n) == outcome(reference, k, n)


class TestPeriod:
    def test_constant_is_one_periodic(self):
        assert detect_period(const_frieze(), 4, 5) == 1

    def test_alternating_x(self):
        f = InfiniteFrieze(
            FriezeSeeds(SeedRow.cycle([rat(2), rat(3)]), SeedRow.cycle([rat(5)]), RATIONAL)
        )
        assert detect_period(f, 4, 4) == 2

    def test_bound_too_small(self):
        f = InfiniteFrieze(
            FriezeSeeds(SeedRow.cycle([rat(2), rat(3)]), SeedRow.cycle([rat(5)]), RATIONAL)
        )
        assert detect_period(f, 1, 4) is None

    def test_window_errors_propagate(self):
        # constant tables: deciding P = 1 needs entries beyond the window
        f = InfiniteFrieze(
            FriezeSeeds(
                SeedRow.table(-1, [rat(2)] * 6),
                SeedRow.table(-1, [rat(3)] * 6),
                RATIONAL,
            )
        )
        with pytest.raises(WindowExceededError):
            detect_period(f, 3, 3)

    def test_period_beyond_depth_reads_each_run_once(self):
        # x has period exactly 25 and y_i >= x_i + x_{i+1} keeps every entry
        # positive.  At P = depth the two sides' columns are disjoint; an
        # evaluator that dropped cells for a disjoint read would rebuild a
        # whole cone per comparison (about 400,000 seed reads here).
        period = 25
        x = CountingRow.cycle([rat(1 + k % 3) for k in range(period - 1)] + [rat(5)])
        y = CountingRow.cycle([rat(11)])
        f = InfiniteFrieze(FriezeSeeds(x, y, RATIONAL))
        assert detect_period(f, period, period) == period
        assert x.reads + y.reads <= 10 * (period + period) * period


class TestEngine:
    """The row-rule engine behind frieze matrices and friezes, pinned to the
    diamond rule it is derived from."""

    def test_first_failing_read_does_not_depend_on_stored_factors(self):
        # x's window [3, 10) is narrower than y's [0, 12) on both sides.  A cell
        # (i, i+3) reads y(i), y(i+1), x(i), x(i+2), x(i+1): (1, 4) fails at x(1),
        # where reading the step factors first would fail at x(2), and (9, 12)
        # at x(11), where reading x(j-2) first would fail at x(10).
        seeds = FriezeSeeds(
            SeedRow.table(3, [rat(v) for v in (2, 3, 5, 7, 11, 13, 17)]),
            SeedRow.table(0, [rat(v) for v in range(20, 32)]),
            RATIONAL,
        )
        warm = InfiniteFrieze(seeds)
        warm.entry(3, 10)  # stores the step factors of columns 6..10
        warm.entry(4, 9)
        for (i, j), index in {(1, 4): 1, (9, 12): 11, (1, 7): 1, (6, 12): 10, (0, 5): 0}.items():
            expected = outcome(InfiniteFrieze(seeds).entry, i, j)
            assert expected[:2] == ("WindowExceededError", index)
            assert outcome(warm.entry, i, j) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data(), seed_fields, st.integers(3, 9))
    def test_matrix_is_the_cone_of_a_table_frieze(self, data, fd, n):
        x = data.draw(st.lists(nonzero_elements(fd), min_size=n - 1, max_size=n - 1))
        y = data.draw(st.lists(nonzero_elements(fd), min_size=n - 2, max_size=n - 2))
        f = InfiniteFrieze(FriezeSeeds(SeedRow.table(1, x), SeedRow.table(1, y), fd))
        try:
            m = build_from_seeds(SeedData(x, y), fd)
        except ZeroEntryError:
            with pytest.raises(ZeroEntryError):
                extract_m_plus(f, 1, n)
            return
        assert extract_m_plus(f, 1, n) == m

    @settings(max_examples=150, deadline=None)
    @given(st.data(), seed_fields, entry_requests)
    def test_request_order_does_not_matter(self, data, fd, requests):
        seeds = FriezeSeeds(data.draw(seed_rows(fd)), data.draw(seed_rows(fd)), fd)
        shared = InfiniteFrieze(seeds)
        for i, d in requests:
            fresh = InfiniteFrieze(seeds)
            assert outcome(shared.entry, i, i + d) == outcome(fresh.entry, i, i + d)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), pin_fields, entry_requests)
    def test_row_rule_matches_diamond_rule(self, data, fd, requests):
        x, y = data.draw(seed_rows(fd)), data.draw(seed_rows(fd))
        f = InfiniteFrieze(FriezeSeeds(x, y, fd))
        for i, d in requests:
            expected = (
                fd.zero if d == 0
                else outcome(partial(diamond_frieze_entry, x.value, y.value, FRIEZE_ZERO), i, i + d)
            )
            assert outcome(f.entry, i, i + d) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data(), pin_fields, st.integers(2, 9))
    def test_build_from_seeds_matches_diamond_rule(self, data, fd, n):
        x = tuple(data.draw(st.lists(nonzero_elements(fd), min_size=n - 1, max_size=n - 1)))
        y = tuple(data.draw(st.lists(nonzero_elements(fd), min_size=n - 2, max_size=n - 2)))

        def matrix(_i, _j):
            return build_from_seeds(SeedData(x, y), fd).rows()

        def reference(_i, _j):
            entry = partial(diamond_frieze_entry, lambda i: x[i - 1], lambda i: y[i - 1], MATRIX_ZERO)
            entry(1, n)
            return tuple(
                tuple(fd.zero if i == j else entry(min(i, j), max(i, j)) for j in range(1, n + 1))
                for i in range(1, n + 1)
            )

        assert outcome(matrix, 1, n) == outcome(reference, 1, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), pin_fields, entry_requests)
    def test_values_and_fields_match_diamond_rule(self, data, fd, requests):
        # Seed values are held in fd or in Q, so neighbouring cells may be held
        # in different fields; each must be held where the diamond rule's is.
        x = data.draw(seed_rows(fd, mixed_elements))
        y = data.draw(seed_rows(fd, mixed_elements))
        f = InfiniteFrieze(FriezeSeeds(x, y, fd))
        reference = partial(diamond_frieze_entry, x.value, y.value, FRIEZE_ZERO)
        for i, d in requests:
            if d:
                expected = outcome(with_field(reference), i, i + d)
                assert outcome(with_field(f.entry), i, i + d) == expected

    def test_mixed_field_seeds(self):
        # x over Q and y over Q(sqrt 5); then a y with one Q(sqrt 5) value in
        # four, where a cell held in Q can sit beside one held in Q(sqrt 5).
        x = SeedRow.cycle([rat(2), rat(Fraction(1, 3)), rat(5)])
        for y in (
            SeedRow.cycle([el5("3 + sqrt(5)"), el5("9/2")]),
            SeedRow.cycle([rat(7), rat(3), rat(Fraction(9, 2)), el5("6 + 1/2*sqrt(5)")]),
        ):
            f = InfiniteFrieze(FriezeSeeds(x, y, Q5))
            reference = partial(diamond_frieze_entry, x.value, y.value, FRIEZE_ZERO)
            fields = set()
            for i in range(-4, 4):
                for j in range(i + 1, i + 11):
                    value, field = with_field(f.entry)(i, j)
                    assert (value, field) == with_field(reference)(i, j)
                    fields.add(field)
            assert Q5 in fields
            m = build_from_seeds(
                SeedData(tuple(map(x.value, range(1, 9))), tuple(map(y.value, range(1, 8))))
            )
            for i in range(1, 9):
                for j in range(i + 1, 10):
                    assert with_field(m.entry)(i, j) == with_field(reference)(i, j)
        assert RATIONAL in fields

    @pytest.mark.parametrize("by", ["entry", "row", "cone"])
    def test_each_cell_is_computed_once(self, by):
        # Read as `frieze gen` reads a window, depth by depth, cell by cell or
        # a depth row at a time, or as `frieze cone` reads a cone, row-major:
        # no stored cell is ever dropped, and at the end the engine holds the
        # cells of the cones read and no others.  Every cell it computes is
        # stored, so each of those cells was computed exactly once.  The
        # seeds are tables of cycle values over [0, 80), which cover every
        # read, so that the evaluator reads the engine at the indices read
        # (on cycles it shifts each read into one period).
        f = InfiniteFrieze(cycle_tables(["2", "1/2 + sqrt(5)", "3/2"], ["9", "15/2 + sqrt(5)"]))
        held = set()

        def check(value):
            nonlocal held
            now = stored_cells(f._rows)
            assert held <= now
            held = now
            return value

        if by == "cone":
            entry = f.entry
            f.entry = lambda i, j: check(entry(i, j))
            cone_entries(f, 0, 40)
            # The cone of (0, 40), below the seed rows.
            expected = {(a, b) for a in range(41) for b in range(a + 3, 41)}
        else:
            for d in range(40):
                if by == "row":
                    check(f.row(d, 0, 40))
                else:
                    for i in range(40):
                        check(f.entry(i, i + d))
            # The cones of the window's deepest row hold those of the rest.
            expected = {
                (a, b) for i in range(40) for a in range(i, i + 40) for b in range(a + 3, i + 40)
            }
        assert held == expected

    @settings(max_examples=400, deadline=None)
    @given(
        st.data(),
        pin_fields,
        st.lists(
            st.tuples(
                st.sampled_from(["entry", "row", "cone"]),
                st.integers(-6, 6),
                st.integers(0, 9),
                st.integers(0, 12),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_engine_matches_reference_rows(self, data, fd, requests):
        # Small-integer seeds make zero entries likely, and table seeds give x
        # and y windows of their own.  Single reads, depth-row reads and cone
        # reads in any order give the reference engine's values, fields and
        # text, or its error.  After each one the engine holds a cone-closed
        # set of cells: the cones of the reads that succeeded, and nothing
        # outside the cones read.  Both evaluators have their period off, so
        # every read goes to the engine.
        def elements(f):
            return st.one_of(mixed_elements(f), small_elements(f))

        x, y = data.draw(seed_rows(fd, elements)), data.draw(seed_rows(fd, elements))
        f, ref = engine_frieze(FriezeSeeds(x, y, fd)), engine_frieze(FriezeSeeds(x, y, fd))
        ref._rows = ReferenceRows(x.value, y.value, FRIEZE_ZERO)
        read, held = set(), set()

        for kind, i, d, width in requests:
            if kind == "entry":
                got = settle(lambda: [f.entry(i, i + d)])
                expected = settle(lambda: [ref.entry(i, i + d)])
                cones = cone(i, i + d)
            elif kind == "row":
                got = settle(lambda: f.row(d, i, i + width))
                expected = settle(lambda: [ref.entry(c, c + d) for c in range(i, i + width)])
                cones = set().union(*(cone(c, c + d) for c in range(i, i + width)))
            else:
                got = settle(lambda: [v for _, v in cone_entries(f, i, i + d)])
                expected = settle(lambda: [v for _, v in cone_entries(ref, i, i + d)])
                cones = cone(i, i + d)
            assert got == expected
            read |= cones
            if isinstance(got, list):
                held |= cones
            assert_cones_stored(f._rows, read, held)

    @settings(max_examples=300, deadline=None)
    @given(
        st.data(),
        seed_fields,
        st.lists(st.tuples(st.integers(-25, 25), st.integers(1, 10)), min_size=1, max_size=12),
    )
    def test_each_stored_run_is_held_up_by_the_row_below(self, data, fd, requests):
        # Requests far apart, whose cones meet or not.  After every request,
        # raised or not, each stored cell (i, j) is held up by rows i + 1 ..
        # j - 3 holding column j, so the stored cells are cone-closed: the
        # cones of the reads that succeeded, and nothing outside those read.
        x, y = (
            SeedRow.cycle(data.draw(st.lists(nonzero_elements(fd), min_size=1, max_size=3)))
            for _ in range(2)
        )
        rows = _FriezeRows(x.value, y.value, FRIEZE_ZERO)
        read, held = set(), set()
        for i, d in requests:
            got = outcome(rows.get, i, i + d)
            read |= cone(i, i + d)
            if not isinstance(got, tuple):
                held |= cone(i, i + d)
            assert_cones_stored(rows, read, held)

    def test_table_window_extends_once_per_depth_row(self, monkeypatch):
        # A 40 x 40 window of table seeds, read as `frieze gen` reads it, a
        # depth row at a time: each depth d >= 3 extends the union of its
        # cones in one kernel call, and reading the window again cell by
        # cell computes nothing.
        f = InfiniteFrieze(cycle_tables(["2", "1/2 + sqrt(5)", "3/2"], ["9", "15/2 + sqrt(5)"]))
        calls = []
        extend = _FriezeRows._extend

        def counted(rows, *args):
            calls.append(args)
            return extend(rows, *args)

        monkeypatch.setattr(_FriezeRows, "_extend", counted)
        window = [f.row(d, 0, 40) for d in range(40)]
        assert window == [[f.entry(i, i + d) for i in range(40)] for d in range(40)]
        assert calls == [(0, 40 + d - 3, d - 3, 40) for d in range(3, 40)]

    def test_period_on_tables_computes_each_cell_once(self, monkeypatch):
        # `frieze period` reads both sides through one evaluator, which keeps
        # every cell it computed: each cell takes one kernel step.
        x, y = ["2", "1/2 + sqrt(5)", "3/2"], ["9", "15/2 + sqrt(5)"]
        cycles = frieze_seeds_from_json(
            {"field": {"kind": "quadratic", "d": 5}, "x": {"cycle": x}, "y": {"cycle": y}}
        )
        period = detect_period(InfiniteFrieze(cycles), 12, 12)
        f = InfiniteFrieze(cycle_tables(x, y))
        cells = counting_det2(monkeypatch)
        assert detect_period(f, 12, 12) == period is not None
        assert len(cells) == len(stored_cells(f._rows)) > 0

    def test_window_does_field_operations_per_column(self, tmp_path, monkeypatch, capsys):
        # Fractional Q(sqrt 5) cycles with y_i >= x_i + x_(i+1), so no entry is
        # zero.  A 20 x 20 window reads 400 entries from under 40 columns: a
        # column's two step factors take a few field operations, a cell none.
        seeds = {
            "field": {"kind": "quadratic", "d": 5},
            "x": {"cycle": ["2", "1/2 + sqrt(5)", "3/2"]},
            "y": {"cycle": ["9", "15/2 + sqrt(5)"]},
        }
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(seeds))
        counts = Counter()
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inv"):

            def counted(*args, _op=getattr(FieldElement, name), _name=name):
                counts[_name] += 1
                return _op(*args)

            monkeypatch.setattr(FieldElement, name, counted)
        argv = ["frieze", "gen", "--seeds", str(path), "--rows", "20", "--cols", "20"]
        assert cli.run(argv) == 0
        assert "sqrt(5)" in capsys.readouterr().out
        assert 0 < sum(counts.values()) <= 10 * (20 + 20)


class TestPeriodicReads:
    """Reads of cycle-seeded friezes and 0-friezes shifted into one period,
    pinned to the engine read at the entries' own indices and to rows read
    without the period."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.data(),
        pin_fields,
        st.lists(
            st.tuples(
                st.sampled_from(["entry", "row", "cone", "plus", "minus", "period", "zero"]),
                st.integers(-8, 8),
                st.integers(0, 9),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_periodic_reads_match_the_engine(self, data, fd, requests):
        # Small-integer cycles make zero entries likely: a read shifted into
        # [0, P) must give the engine's own values, and its errors at the
        # indices the engine names for the entry read.  0-frieze rows read
        # from row i mod Q must equal rows computed at i.
        elements = st.one_of(small_elements(fd), small_elements(RATIONAL))

        def cycle():
            return SeedRow.cycle(data.draw(st.lists(elements, min_size=1, max_size=3)))

        seeds = FriezeSeeds(cycle(), cycle(), fd)
        u, v = cycle(), cycle()
        f, ref = InfiniteFrieze(seeds), engine_frieze(seeds)
        zf, zref = ZeroFrieze(u, v, fd), ZeroFrieze(u, v, fd)
        zref._period = None

        def reads(g, z, kind, i, d, w):
            if kind == "entry":
                return [g.entry(i, i + d)]
            if kind == "row":
                return g.row(d, i, i + w)
            if kind == "cone":
                return [e for _, e in cone_entries(g, i, i + d)]
            if kind in ("plus", "minus"):
                m = (extract_m_plus if kind == "plus" else extract_m_minus)(g, i, w + 1)
                return [e for row in m.rows() for e in row]
            if kind == "period":
                return [detect_period(g, w, d + 1, i)]
            return [z.entry(i, i + d - 1)]

        for request in requests:
            got = settle(lambda: reads(f, zf, *request))
            assert got == settle(lambda: reads(ref, zref, *request))

    def test_window_fills_each_depth_once(self):
        # A 40 x 40 window of cycles of lengths 3 and 2 (P = 6), read as
        # `frieze gen` reads it, a depth row at a time, then again cell by
        # cell: each depth d >= 3 takes one engine call for its P residues,
        # and no entry below the seed rows is read from the engine.
        seeds = frieze_seeds_from_json({
            "field": {"kind": "quadratic", "d": 5},
            "x": {"cycle": ["2", "1/2 + sqrt(5)", "3/2"]},
            "y": {"cycle": ["9", "15/2 + sqrt(5)"]},
        })
        f, ref = InfiniteFrieze(seeds), engine_frieze(seeds)
        calls = []

        class Recorder:
            def __init__(self, rows):
                self.rows = rows

            def row(self, *args):
                calls.append(("row", *args))
                return self.rows.row(*args)

            def get(self, i, j):
                calls.append(("get", i, j))
                return self.rows.get(i, j)

        f._rows = Recorder(f._rows)
        window = [f.row(d, 0, 40) for d in range(40)]
        assert window == [[f.entry(i, i + d) for i in range(40)] for d in range(40)]
        assert window == [ref.row(d, 0, 40) for d in range(40)]
        assert [c for c in calls if c[0] == "row"] == [("row", d - 3, 0, 6) for d in range(3, 40)]
        assert all(j - i < 3 for kind, i, j in (c for c in calls if c[0] == "get"))

    def test_wide_period_reads_only_the_cone(self, tmp_path, monkeypatch, capsys):
        # Cycles of 1000 and 999 values have P = 999,000.  A read is shifted
        # into [0, P), so `frieze cone --i 0 --j 3` computes the cells of its
        # cone, as on table seeds, not one per residue.  x_i in {1, 2, 3} and
        # y_i = 10 >= x_i + x_{i+1} keep every entry positive.
        doc = {
            "field": {"kind": "rational"},
            "x": {"cycle": [str(1 + k % 3) for k in range(1000)]},
            "y": {"cycle": ["10"] * 999},
        }
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(doc))
        cells = counting_det2(monkeypatch)
        assert cli.run(["frieze", "cone", "--seeds", str(path), "--i", "0", "--j", "3"]) == 0
        assert '"entries"' in capsys.readouterr().out
        assert 0 < len(cells) <= 3 * 3
