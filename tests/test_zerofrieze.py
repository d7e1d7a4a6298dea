"""0-friezes: recursion engine, derivation from a frieze, rank-1 structure."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezecalc import (
    RATIONAL,
    FactorizationImpossibleError,
    FieldElement,
    FriezeSeeds,
    InfiniteFrieze,
    SeedRow,
    ZeroFrieze,
    build_from_seeds,
    check_zero_diamond,
    from_frieze,
    rank1_factorize,
    triangulate,
    window_cells,
)
from friezecalc.cli import run
from friezecalc.matrix import RULE_ZERO_DIAMOND, SeedData, ValidationReport, Violation
from friezecalc.serialize import zero_seeds_from_json

from conftest import (
    FIXTURES,
    FRIEZE_ZERO,
    Q5,
    ProductZeroFrieze,
    diamond_entry,
    diamond_frieze_entry,
    el5,
    entry_requests,
    load_fixture,
    mixed_elements,
    outcome,
    pin_fields,
    random_rational,
    rat,
    seed_fields,
    seed_rows,
    with_field,
)

ZERO_MESSAGE = "0-frieze entry ({i},{j}) is zero; the rows admit no 0-frieze"


def diamond_zero_entry(u, v, i: int, j: int):
    """t[i,j], j >= i-1, of the 0-frieze with rows u, v by the zero diamond rule."""
    return diamond_entry(u, v, -1, ZERO_MESSAGE, i, j)


def diamond_from_frieze_rows(x, y, fd, k: int):
    """The rows u, v of from_frieze(f, k), written out on diamond-rule entries."""
    minus2 = fd.from_int(-2)

    def f(i, j):
        return diamond_frieze_entry(x, y, FRIEZE_ZERO, i, j)

    def u(i):
        return minus2 * x(k + i - 3 if i <= 2 else k + i - 2)

    def v(i):
        if i == 2:
            return x(k)
        if i <= 1:
            return minus2 * f(k + i - 2, k + 1) * x(k + i - 2) / f(k + i - 1, k + 1)
        return minus2 * f(k, k + i - 1) * x(k + i - 2) / f(k, k + i - 2)

    return u, v


def field_check_zero_diamond(cells):
    """check_zero_diamond on field elements, diamond by diamond: the
    reference for the lattice check."""
    if not cells:
        return ValidationReport()
    zero = next(iter(cells.values())).field.zero
    out = [Violation("nonzero", c, cells[c], zero) for c in sorted(cells) if cells[c].is_zero]
    for (i, j) in sorted(cells):
        corners = [(i, j), (i + 1, j + 1), (i + 1, j), (i, j + 1)]
        if j < i or not all(c in cells for c in corners):
            continue
        lhs = cells[(i, j)] * cells[(i + 1, j + 1)] - cells[(i + 1, j)] * cells[(i, j + 1)]
        if not lhs.is_zero:
            out.append(Violation(RULE_ZERO_DIAMOND, (i, j), lhs, zero))
    return ValidationReport(tuple(out))


def field_rank1_factorize(cells):
    """rank1_factorize with its closing check t[i,j] = a_i*b_j on field
    elements: the reference for the check on the elements' ints."""
    if not cells:
        raise ValueError("empty window")
    for idx, val in cells.items():
        if val.is_zero:
            raise ValueError(f"zero entry at {idx}; 0-frieze entries are nonzero")
    fd = next(iter(cells.values())).field
    a, b = {min(i for i, _ in cells): fd.one}, {}
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
    for (i, j), val in sorted(cells.items()):
        if val != a[i] * b[j]:
            raise FactorizationImpossibleError((i, j))
    return a, b


def sides(report):
    """Each violation of ``report``, with the fields its two sides are held in."""
    return [(v, v.lhs.field, v.rhs.field) for v in report.violations]


def settled(check, cells):
    """check(cells), or the type, indices and text of the error it raises."""
    return outcome(lambda _i, _j: check(cells), 0, 0)


@st.composite
def windows(draw):
    """A 0-frieze window on mixed-field cycles, in any insertion order, with
    up to three cells scaled, shifted, zeroed or dropped."""
    fd = draw(pin_fields)
    u, v = (
        SeedRow.cycle(draw(st.lists(mixed_elements(fd), min_size=1, max_size=3)))
        for _ in range(2)
    )
    cells = window_cells(
        ZeroFrieze(u, v, fd), draw(st.integers(-3, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    )
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(cells)))
        action = draw(st.sampled_from(["scale", "shift", "zero", "drop"]))
        if action == "drop" and len(cells) > 1:
            del cells[key]
        elif action == "zero":
            cells[key] = fd.zero
        elif action != "drop":
            c = draw(mixed_elements(fd))
            cells[key] = cells[key] * c if action == "scale" else cells[key] + c
    return {key: cells[key] for key in draw(st.permutations(list(cells)))}


@pytest.fixture(scope="module")
def example_engine() -> ZeroFrieze:
    u, v, fd = zero_seeds_from_json(load_fixture("zerofrieze_example_seeds.json"))
    return ZeroFrieze(u, v, fd)


def const_frieze() -> InfiniteFrieze:
    return InfiniteFrieze(
        FriezeSeeds(SeedRow.cycle([rat(2)]), SeedRow.cycle([rat(3)]), RATIONAL)
    )


class TestRecursion:
    def test_printed_rows_reproduce(self, example_engine):
        zf = example_engine
        third = [str(zf.entry(i, i + 1)) for i in range(-1, 4)]
        assert third == ["-1/4", "-5/4", "3/2", "3/2", "-5/4"]
        assert zf.entry(1, 3) == rat(Fraction(9, 8))
        assert zf.entry(0, 2) == rat(Fraction(5, 8))
        assert zf.entry(2, 4) == rat(Fraction(5, 8))
        assert zf.entry(0, 3) == rat(Fraction(15, 32))
        assert zf.entry(1, 4) == rat(Fraction(15, 32))

    def test_all_ones(self):
        zf = ZeroFrieze(SeedRow.cycle([rat(1)]), SeedRow.cycle([rat(1)]), RATIONAL)
        assert all(
            zf.entry(i, j) == RATIONAL.one
            for i in range(-2, 3)
            for j in range(i - 1, i + 5)
        )

    def test_constant_v_powers(self):
        c = rat(Fraction(3, 7))
        zf = ZeroFrieze(SeedRow.cycle([rat(1)]), SeedRow.cycle([c]), RATIONAL)
        assert zf.entry(0, 1) == c * c
        assert zf.entry(0, 2) == c**3
        assert zf.entry(2, 5) == c**4

    def test_bad_index(self, example_engine):
        with pytest.raises(ValueError):
            example_engine.entry(2, 0)

    def test_memo_transparency(self):
        def fresh():
            return ZeroFrieze(
                SeedRow.cycle([rat(-4)]), SeedRow.cycle([rat(2), rat(-3)]), RATIONAL
            )

        za, zb = fresh(), fresh()
        first = (za.entry(0, 5), za.entry(1, 3))
        second = (zb.entry(1, 3), zb.entry(0, 5))
        assert first == (second[1], second[0])

    def test_window_reads_each_step_factor_once(self):
        calls = {"u": 0, "v": 0}

        def counted(name, base):
            def read(i):
                calls[name] += 1
                return rat(base + i % 3)

            return read

        rows = cols = 20
        zf = ZeroFrieze(counted("u", 2), counted("v", 3), RATIONAL)
        window_cells(zf, -3, cols, rows)
        # One read per row start and one per column factor, not one per cell.
        assert calls["u"] <= 2 * (rows + cols)
        assert calls["v"] <= 2 * (rows + cols)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), seed_fields, entry_requests)
    def test_request_order_does_not_matter(self, data, fd, requests):
        u, v = data.draw(seed_rows(fd)), data.draw(seed_rows(fd))
        shared = ZeroFrieze(u, v, fd)
        for i, d in requests:
            fresh = ZeroFrieze(u, v, fd)
            assert outcome(shared.entry, i, i + d - 1) == outcome(fresh.entry, i, i + d - 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), pin_fields, entry_requests)
    def test_running_product_matches_zero_diamond_rule(self, data, fd, requests):
        u, v = data.draw(seed_rows(fd)), data.draw(seed_rows(fd))
        zf = ZeroFrieze(u, v, fd)
        reference = partial(diamond_zero_entry, u.value, v.value)
        for i, d in requests:
            assert outcome(zf.entry, i, i + d - 1) == outcome(reference, i, i + d - 1)


    @settings(max_examples=150, deadline=None)
    @given(st.data(), pin_fields, entry_requests)
    def test_lattice_rows_match_the_field_element_product(self, data, fd, requests):
        # Seed values are held in fd or in Q, so a row may start in Q and
        # meet a step held in fd; each cell must be held where the product
        # of field elements holds it, and fail with the same error.
        u = data.draw(seed_rows(fd, mixed_elements))
        v = data.draw(seed_rows(fd, mixed_elements))
        zf, reference = ZeroFrieze(u, v, fd), ProductZeroFrieze(u, v)
        for i, d in requests:
            expected = outcome(with_field(reference.entry), i, i + d - 1)
            assert outcome(with_field(zf.entry), i, i + d - 1) == expected


class TestFromFrieze:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), pin_fields, st.integers(-3, 3), entry_requests)
    def test_matches_the_diamond_rule_on_both_arrays(self, data, fd, k, requests):
        x, y = data.draw(seed_rows(fd)), data.draw(seed_rows(fd))
        zf = from_frieze(InfiniteFrieze(FriezeSeeds(x, y, fd)), k)
        u, v = diamond_from_frieze_rows(x.value, y.value, fd, k)
        reference = partial(diamond_zero_entry, u, v)
        for i, d in requests:
            assert outcome(zf.entry, i, i + d - 1) == outcome(reference, i, i + d - 1)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), pin_fields, st.integers(-3, 3), entry_requests)
    def test_lattice_rows_match_the_field_element_product(self, data, fd, k, requests):
        x = data.draw(seed_rows(fd, mixed_elements))
        y = data.draw(seed_rows(fd, mixed_elements))
        zf = from_frieze(InfiniteFrieze(FriezeSeeds(x, y, fd)), k)
        other = from_frieze(InfiniteFrieze(FriezeSeeds(x, y, fd)), k)
        reference = ProductZeroFrieze(other.u, other.v)
        for i, d in requests:
            expected = outcome(with_field(reference.entry), i, i + d - 1)
            assert outcome(with_field(zf.entry), i, i + d - 1) == expected

    def test_cells_are_held_in_lowest_terms(self):
        # The steps v_k/u_k = f[0,k-1]/f[0,k-2] telescope; a cell that kept
        # the factors they cancel would grow with its row.  Every stored cell
        # is (p + q*sqrt(d))/den with den > 0 and gcd(p, q, den) = 1, and
        # `entry` returns it as stored: over Q(sqrt 5), over Q, and on rows
        # that start in Q and join Q(sqrt 5) at their first step held there
        # (u over Q, v over Q(sqrt 5)).
        x = SeedRow.cycle([el5("3/2 + 1/2*sqrt(5)"), rat(Fraction(5, 3))])
        y = SeedRow.cycle([el5("9 + sqrt(5)"), el5("8 + 1/3*sqrt(5)")])
        qx = SeedRow.cycle([rat(Fraction(3, 2)), rat(Fraction(5, 3))])
        qy = SeedRow.cycle([rat(9), rat(Fraction(25, 3))])
        u = SeedRow.cycle([rat(Fraction(-2, 3)), rat(4), rat(Fraction(6, 5))])
        v = SeedRow.cycle([rat(Fraction(9, 4)), el5("1/2 + 3/2*sqrt(5)"), rat(6), rat(Fraction(3, 7))])
        joined = False
        for zf in (
            from_frieze(InfiniteFrieze(FriezeSeeds(x, y, Q5)), 0),
            from_frieze(InfiniteFrieze(FriezeSeeds(qx, qy, RATIONAL)), 0),
            ZeroFrieze(u, v, Q5),
        ):
            window_cells(zf, 0, 12, 12)
            for i, row in zf._rows.items():
                joined = joined or row[0].field == RATIONAL != row[-1].field
                for j, cell in enumerate(row, start=i):
                    assert cell._den > 0 and math.gcd(cell._p, cell._q, cell._den) == 1
                    assert zf.entry(i, j) is cell
        assert joined

    def test_u_row_constant(self):
        tk = from_frieze(const_frieze(), 0)
        assert all(tk.u(i) == rat(-4) for i in range(-4, 5))

    def test_v_at_two_is_x_k(self):
        for k in (-1, 0, 3):
            assert from_frieze(const_frieze(), k).v(2) == rat(2)

    def test_v_at_three_follows_the_defining_formula(self):
        # -2 * f[k,k+2] * x[k+1] / f[k,k+1] = -2*3*2/2 = -6
        tk = from_frieze(const_frieze(), 0)
        assert tk.v(3) == rat(-6)

    def test_windows_satisfy_zero_diamond(self):
        rng = random.Random(1234)
        count = 0
        while count < 20:
            x = [rat(random_rational(rng, 5, 3, nonzero=True)) for _ in range(rng.randint(1, 3))]
            y = [rat(random_rational(rng, 5, 3, nonzero=True)) for _ in range(rng.randint(1, 3))]
            f = InfiniteFrieze(
                FriezeSeeds(SeedRow.cycle(x), SeedRow.cycle(y), RATIONAL)
            )
            try:
                cells = window_cells(from_frieze(f, rng.randint(-2, 2)), -4, 10, 6)
            except Exception:
                continue  # seeds admitting no frieze; redraw
            assert check_zero_diamond(cells).ok
            count += 1


class TestZeroDiamondCheck:
    def test_t_matrix_block(self):
        m = build_from_seeds(
            SeedData(tuple(rat(v) for v in (1, -2, 3, 2, 1)), tuple(rat(v) for v in (2, 1, -1, 3)))
        )
        t, _ = triangulate(m)
        cells = {
            (i, j): t.entry(i, j)
            for i in range(2, t.n + 1)
            for j in range(i, t.n + 1)
        }
        assert check_zero_diamond(cells).ok

    def test_perturbation_is_localized(self, example_engine):
        cells = window_cells(example_engine, -2, 4, 4)
        cells[(0, 1)] = cells[(0, 1)] + rat(1)
        report = check_zero_diamond(cells)
        assert not report.ok
        touched = {v.indices for v in report.violations}
        assert touched <= {(-1, 0), (-1, 1), (0, 0), (0, 1)}

    def test_zero_cell_reported(self, example_engine):
        cells = window_cells(example_engine, -2, 4, 3)
        cells[(0, 1)] = RATIONAL.zero
        report = check_zero_diamond(cells)
        assert any(v.rule == "nonzero" for v in report.violations)


class TestRank1:
    def test_all_ones(self):
        zf = ZeroFrieze(SeedRow.cycle([rat(1)]), SeedRow.cycle([rat(1)]), RATIONAL)
        a, b = rank1_factorize(window_cells(zf, 0, 5, 4))
        assert all(v == RATIONAL.one for v in a.values())
        assert all(v == RATIONAL.one for v in b.values())

    def test_example_window_reconstructs(self, example_engine):
        cells = window_cells(example_engine, -2, 3, 5)
        a, b = rank1_factorize(cells)
        assert a[min(a)] == RATIONAL.one
        for (i, j), val in cells.items():
            assert a[i] * b[j] == val

    def test_perturbed_cell_detected(self, example_engine):
        cells = window_cells(example_engine, -2, 3, 5)
        cells[(-1, 0)] = cells[(-1, 0)] * rat(2)
        with pytest.raises(FactorizationImpossibleError):
            rank1_factorize(cells)

    def test_sqrt_perturbed_cell_detected(self, example_engine):
        # Adding sqrt(5) to a rational cell leaves the rational component of
        # the closing check as it was; only the sqrt(5) component fails.
        cells = window_cells(example_engine, -2, 3, 5)
        cells[(-1, 0)] = cells[(-1, 0)] + el5("sqrt(5)")
        with pytest.raises(FactorizationImpossibleError) as info:
            rank1_factorize(cells)
        assert info.value.indices == (-1, 0)

    def test_zero_cell_rejected(self, example_engine):
        cells = window_cells(example_engine, -2, 3, 4)
        cells[(-1, 0)] = RATIONAL.zero
        with pytest.raises(ValueError):
            rank1_factorize(cells)

    def test_random_windows_roundtrip(self):
        rng = random.Random(77)
        for _ in range(10):
            u = [rat(random_rational(rng, 6, 3, nonzero=True)) for _ in range(rng.randint(1, 3))]
            v = [rat(random_rational(rng, 6, 3, nonzero=True)) for _ in range(rng.randint(1, 3))]
            zf = ZeroFrieze(SeedRow.cycle(u), SeedRow.cycle(v), RATIONAL)
            cells = window_cells(zf, rng.randint(-3, 0), 8, 5)
            a, b = rank1_factorize(cells)
            assert all(a[i] * b[j] == val for (i, j), val in cells.items())


class TestLatticeChecks:
    @settings(max_examples=200, deadline=None)
    @given(windows())
    def test_zero_diamond_matches_field_elements(self, cells):
        got, expected = check_zero_diamond(cells), field_check_zero_diamond(cells)
        assert sides(got) == sides(expected)
        assert list(map(str, got.violations)) == list(map(str, expected.violations))

    @settings(max_examples=200, deadline=None)
    @given(windows())
    def test_rank1_matches_field_elements(self, cells):
        assert settled(rank1_factorize, cells) == settled(field_rank1_factorize, cells)

    def test_mixed_field_window(self):
        # Only u at odd i is held in Q(sqrt 5): the diamond at (-1, -1) reads
        # cells held in Q alone, so its failed side is held in Q, while the
        # one at (0, 0) reads u_1 and is held in Q(sqrt 5).
        u = SeedRow.cycle([rat(-2), el5("1 + sqrt(5)")])
        v = SeedRow.cycle([rat(3), rat(Fraction(1, 3))])
        cells = window_cells(ZeroFrieze(u, v, Q5), -2, 5, 5)
        assert {c.field for c in cells.values()} == {RATIONAL, Q5}
        cells[(0, 0)] = cells[(0, 0)] + rat(1)
        report = check_zero_diamond(cells)
        assert sides(report) == sides(field_check_zero_diamond(cells))
        assert {v.lhs.field for v in report.violations} == {RATIONAL, Q5}
        got = settled(rank1_factorize, cells)
        assert got == settled(field_rank1_factorize, cells)
        assert got[0] == "FactorizationImpossibleError"

    def test_disconnected_and_empty_windows(self):
        cells = {(0, 0): rat(2), (1, 1): rat(3)}
        for bad in (cells, {}):
            assert settled(rank1_factorize, bad) == settled(field_rank1_factorize, bad)
            assert settled(rank1_factorize, bad)[0] == "ValueError"

    @staticmethod
    def count_operations(monkeypatch) -> Counter:
        """Count every field-element operator call, by operator name."""
        calls: Counter = Counter()
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "inv", "__pow__", "__eq__",
        ):
            def counted(*args, _op=getattr(FieldElement, name), _name=name):
                calls[_name] += 1
                return _op(*args)

            monkeypatch.setattr(FieldElement, name, counted)
        return calls

    def test_check_makes_few_field_element_operations(self, monkeypatch, capsys):
        # Over the whole run each cell below the v row is one product and each
        # step v_k/u_k one division, and the checks divide once per factor
        # a_i, b_j but a_0 = 1.  The u and v cycles have lengths 3 and 2, so
        # rows i and i mod 6 are one row: a window of R rows and C >= 6
        # columns from column 0 computes the (R - 2)*6 cells below the v row
        # of rows 0..5 and the steps k = 1 .. 5 + R - 2, and it has C factors
        # a_i and C + R - 1 factors b_j.  Cell by cell on field elements the
        # checks alone made 3,155 operator calls.
        calls = self.count_operations(monkeypatch)
        seeds = str(FIXTURES / "zerofrieze_s5_seeds.json")
        rows = cols = 20
        assert run(["zerofrieze", "check", seeds, "--rows", str(rows), "--cols", str(cols)]) == 0
        assert '"ok": true' in capsys.readouterr().out
        period = 6
        steps = period + rows - 3
        factors = cols - 1 + cols + rows - 1
        assert calls == {"__mul__": (rows - 2) * period, "__truediv__": steps + factors}

    def test_checks_divide_once_per_factor(self, monkeypatch):
        u, v, fd = zero_seeds_from_json(load_fixture("zerofrieze_s5_seeds.json"))
        cells = window_cells(ZeroFrieze(u, v, fd), -3, 12, 9)
        calls = self.count_operations(monkeypatch)
        assert check_zero_diamond(cells).ok
        a, b = rank1_factorize(cells)
        assert sum(calls.values()) == calls["__truediv__"] == len(a) - 1 + len(b)
