"""Quiddity sequences, polygon triangulations and 2 x n minor matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezecalc import (
    RATIONAL,
    OrderViolationError,
    QuiddityData,
    Triangulation,
    TwoRowMatrix,
    ZeroEntryError,
    ZeroMinorError,
    baur_marsh_det_check,
    cc_det_check,
    cc_matrix,
    check_ptolemy,
    delta_minor_matrix,
    det_closed_form,
    det_elimination,
    quiddity_from_triangulation,
)
from friezecalc.classical import DetCheckReport
from friezecalc.generators import random_triangulation, random_two_row_matrix
from friezecalc.matrix import FriezeMatrix

from conftest import Q5, outcome, rat, reference_bareiss, reference_random_two_row_matrix


def ints(*vs):
    return tuple(RATIONAL.from_int(v) for v in vs)


class TestTriangulation:
    def test_triangle(self):
        t = Triangulation(3, frozenset())
        assert quiddity_from_triangulation(t).a == (1, 1, 1)

    def test_square_with_diagonal(self):
        t = Triangulation(4, frozenset({(1, 3)}))
        assert quiddity_from_triangulation(t).a == (2, 1, 2, 1)

    def test_pentagon_fan(self):
        t = Triangulation(5, frozenset({(1, 3), (1, 4)}))
        assert quiddity_from_triangulation(t).a == (3, 1, 2, 2, 1)

    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            Triangulation(6, frozenset({(1, 3), (2, 4), (1, 4)}))

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            Triangulation(5, frozenset({(1, 3)}))

    def test_boundary_edge_rejected(self):
        with pytest.raises(ValueError):
            Triangulation(4, frozenset({(1, 4)}))

    def test_incidence_sum(self):
        rng = random.Random(5)
        for _ in range(20):
            k = rng.randint(3, 12)
            q = quiddity_from_triangulation(random_triangulation(rng, k))
            assert sum(q.a) == 3 * (k - 2)


def reference_quiddity(t):
    """a_i as the number of triangles at vertex i, the triangles found as the
    3-cliques of sides plus diagonals: the count that the diagonal count
    replaced."""
    edges = set(t.diagonals) | {(i, i + 1) for i in range(1, t.k)} | {(1, t.k)}
    triangles = [
        (p, q, s)
        for p, q in sorted(edges)
        for s in range(q + 1, t.k + 1)
        if (p, s) in edges and (q, s) in edges
    ]
    assert len(triangles) == t.k - 2
    counts = [0] * t.k
    for tri in triangles:
        for v in tri:
            counts[v - 1] += 1
    return tuple(counts)


@given(st.integers(3, 60), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_quiddity_matches_triangle_count(k, rng):
    t = random_triangulation(rng, k)
    assert quiddity_from_triangulation(t).a == reference_quiddity(t)


class TestCcMatrix:
    def test_triangle_matrix(self):
        m = cc_matrix(QuiddityData((1, 1, 1)))
        assert [[str(e) for e in row] for row in m.rows()] == [
            ["0", "1", "1"],
            ["1", "0", "1"],
            ["1", "1", "0"],
        ]

    def test_square_quiddity(self):
        m = cc_matrix(QuiddityData((1, 2, 1, 2)))
        assert m.entry(1, 3) == rat(1)
        assert m.entry(2, 4) == rat(2)
        assert m.entry(1, 4) == rat(1)

    def test_pentagon_fan_quiddity(self):
        m = cc_matrix(QuiddityData((3, 1, 2, 2, 1)))
        assert m.entry(1, 5) == rat(1)
        for i in range(1, 6):
            for j in range(i + 1, 6):
                e = m.entry(i, j)
                assert e.b == 0 and e.a.denominator == 1 and e.a > 0

    def test_order_violation(self):
        with pytest.raises(OrderViolationError):
            cc_matrix(QuiddityData((2, 2, 2)))

    def test_sequence_without_frieze(self):
        with pytest.raises(ZeroEntryError):
            cc_matrix(QuiddityData((1, 1, 1, 1)))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            QuiddityData((1, 0, 1))
        with pytest.raises(ValueError):
            QuiddityData((1, 1))


class TestCcDet:
    @pytest.mark.parametrize(
        "quiddity,expected",
        [((1, 1, 1), "2"), ((1, 2, 1, 2), "-4"), ((3, 1, 2, 2, 1), "8")],
    )
    def test_fixtures(self, quiddity, expected):
        report = cc_det_check(QuiddityData(quiddity))
        assert report.ok
        assert str(report.det) == expected

    def test_random_triangulations(self):
        rng = random.Random(31)
        for _ in range(30):
            k = rng.randint(3, 12)
            q = quiddity_from_triangulation(random_triangulation(rng, k))
            report = cc_det_check(q)
            assert report.ok
            assert report.expected == -(RATIONAL.from_int(-2) ** (k - 2))

    @pytest.mark.parametrize("k", [10, 25, 44])
    def test_elimination_matches_bareiss(self, k):
        """Exact equality of the elimination kernel, the Bareiss reference
        and the expected -(-2)^(k-2) on integer cc matrices."""
        q = quiddity_from_triangulation(random_triangulation(random.Random(k), k))
        m = cc_matrix(q)
        det = det_elimination(m)
        assert det == reference_bareiss(m) == -(RATIONAL.from_int(-2) ** (k - 2))

    def test_rotation_preserves_determinant(self):
        rng = random.Random(13)
        for _ in range(15):
            k = rng.randint(3, 10)
            q = quiddity_from_triangulation(random_triangulation(rng, k))
            for s in (1, k // 2):
                assert cc_det_check(QuiddityData(q.a[s:] + q.a[:s])).ok


class TestMinorMatrix:
    def test_by_hand(self):
        x = TwoRowMatrix(ints(1, 2, 3), ints(4, 5, 6))
        a = delta_minor_matrix(x)
        assert [[str(e) for e in row] for row in a.rows()] == [
            ["0", "-3", "-6"],
            ["-3", "0", "-3"],
            ["-6", "-3", "0"],
        ]

    def test_proportional_columns(self):
        x = TwoRowMatrix(ints(1, 2, 2), ints(2, 4, 1))
        with pytest.raises(ZeroMinorError) as info:
            delta_minor_matrix(x)
        assert info.value.indices == (1, 2)

    def test_identity_two_columns(self):
        x = TwoRowMatrix(ints(1, 0), ints(0, 1))
        a = delta_minor_matrix(x)
        assert [[str(e) for e in row] for row in a.rows()] == [["0", "1"], ["1", "0"]]


class TestMinorDet:
    def test_by_hand(self):
        report = baur_marsh_det_check(TwoRowMatrix(ints(1, 2, 3), ints(4, 5, 6)))
        assert report.ok
        assert str(report.det) == "-108"

    def test_n2(self):
        report = baur_marsh_det_check(TwoRowMatrix(ints(1, 0), ints(0, 1)))
        assert report.ok
        assert str(report.det) == "-1"

    def test_random_instances(self):
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(3, 8)
            x = random_two_row_matrix(rng, n)
            assert baur_marsh_det_check(x).ok

    def test_minor_matrices_satisfy_ptolemy(self):
        rng = random.Random(53)
        for _ in range(10):
            x = random_two_row_matrix(rng, rng.randint(3, 7))
            assert check_ptolemy(delta_minor_matrix(x)).ok


def reference_delta_minor_matrix(x: TwoRowMatrix) -> FriezeMatrix:
    """Reference: the minor matrix with every minor read anew, each
    off-diagonal one for the zero check, then all n^2 for the grid."""
    n = x.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if x.minor(i, j).is_zero:
                raise ZeroMinorError(i, j)
    return FriezeMatrix(
        [[x.minor(min(i, j), max(i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def reference_baur_marsh_det_check(x: TwoRowMatrix) -> DetCheckReport:
    """Reference: the report, reading the expected value's minors from x anew."""
    a = reference_delta_minor_matrix(x)
    n = x.n
    acc = x.minor(1, n)
    for i in range(1, n):
        acc = acc * x.minor(i, i + 1)
    expected = -(x.field.from_int(-2) ** (n - 2)) * acc
    return DetCheckReport(det_closed_form(a), det_elimination(a), expected)


def with_fields(check):
    """``check``, returning the entries of its matrix, or the three values of
    its report, each with its field."""

    def run(x, _):
        out = check(x)
        values = (
            [e for r in out.rows() for e in r] if isinstance(out, FriezeMatrix)
            else [out.det, out.det_oracle, out.expected]
        )
        return [(e, e.field) for e in values]

    return run


# Small coefficients make zero minors common; each entry is over Q or Q(sqrt 5).
_coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)
_entry = st.one_of(
    st.builds(RATIONAL.element, _coeff),
    st.builds(Q5.element, _coeff, st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2)])),
)
_two_rows = st.integers(2, 7).flatmap(
    lambda n: st.tuples(*[st.lists(_entry, min_size=n, max_size=n)] * 2)
)


@settings(max_examples=200, deadline=None)
@given(_two_rows)
def test_minors_match_the_triple_read_reference(rows):
    x = TwoRowMatrix(*rows)
    for check, reference in (
        (delta_minor_matrix, reference_delta_minor_matrix),
        (baur_marsh_det_check, reference_baur_marsh_det_check),
    ):
        assert outcome(with_fields(check), x, None) == outcome(with_fields(reference), x, None)


def test_two_row_draws_match_the_reference():
    """Testing the minors on the drawn ints keeps every draw and every rng
    call of the draw that built the minor matrix."""
    for seed in (1, 2, 3):
        for n in range(2, 21):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_two_row_matrix(rng, n) == reference_random_two_row_matrix(ref, n)
            assert rng.getstate() == ref.getstate()


def test_each_minor_is_computed_once(monkeypatch):
    calls = []
    minor = TwoRowMatrix.minor

    def counted(self, i, j):
        calls.append((i, j))
        return minor(self, i, j)

    monkeypatch.setattr(TwoRowMatrix, "minor", counted)
    x = random_two_row_matrix(random.Random(20), 20)
    calls.clear()
    assert baur_marsh_det_check(x).ok
    assert len(calls) <= 20 * 19 // 2
