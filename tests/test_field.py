"""Exact field arithmetic, parsing and formatting."""

from __future__ import annotations

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezecalc import (
    RATIONAL,
    ElementSyntaxError,
    FieldDescriptor,
    FieldElement,
    FieldMismatchError,
    format_element,
    parse_element,
)

from conftest import (
    ReferenceElement,
    reference_format_element,
    reference_from_lattice,
    reference_lattice,
    reference_parse_element,
)

Q5 = FieldDescriptor(5)
QM1 = FieldDescriptor(-1)

fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
descriptors = st.sampled_from([RATIONAL, Q5, FieldDescriptor(2), QM1, FieldDescriptor(-7)])


@st.composite
def elements(draw, field=None):
    fd = field if field is not None else draw(descriptors)
    a = draw(fractions)
    b = draw(fractions) if not fd.is_rational else Fraction(0)
    return fd.element(a, b)


class TestDescriptor:
    def test_rejects_square_d(self):
        for bad in (0, 1, 4, 9, 10**6):
            with pytest.raises(ValueError):
                FieldDescriptor(bad)

    def test_negative_d_allowed(self):
        assert FieldDescriptor(-1).kind == "quadratic"
        assert FieldDescriptor(-5).d == -5

    def test_kind(self):
        assert RATIONAL.kind == "rational"
        assert Q5.kind == "quadratic"


class TestParse:
    def test_paper_seed_value(self):
        x = parse_element("5 - 1/2*sqrt(5)", Q5)
        assert x.a == 5 and x.b == Fraction(-1, 2)

    def test_zero(self):
        assert parse_element("0", RATIONAL).is_zero

    def test_lowest_terms(self):
        assert parse_element("3/6", RATIONAL).a == Fraction(1, 2)

    def test_star_optional(self):
        assert parse_element("2*sqrt(5)", Q5) == parse_element("2sqrt(5)", Q5)
        assert parse_element("2 sqrt(5)", Q5) == Q5.element(0, 2)

    def test_negative_radicand(self):
        assert parse_element("sqrt(-1)", QM1) == QM1.element(0, 1)

    def test_wrong_radicand(self):
        with pytest.raises(ElementSyntaxError):
            parse_element("sqrt(3)", Q5)
        with pytest.raises(ElementSyntaxError):
            parse_element("sqrt(5)", RATIONAL)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_element("1/0", RATIONAL)

    @pytest.mark.parametrize(
        "bad",
        [
            "", "1 +", "* 2", "2 ** sqrt(5)", "sqrt(5", "1 2", "x", "1/-2",
            "2*", "*sqrt(5)", "sqrt(5)2", "2 3", "+-1", "sqrt (5)", "1 /2",
            "sqrt(5)*2", "   ", "sqrt(5)sqrt(5)",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ElementSyntaxError):
            parse_element(bad, Q5)

    @pytest.mark.parametrize(
        "text, a, b",
        [
            ("+1", 1, 0),
            ("1+2", 3, 0),
            ("2 * sqrt(5)", 0, 2),
            ("- sqrt(5)", 0, -1),
            (" 1 - 1/2sqrt(5) ", 1, Fraction(-1, 2)),
            ("1 + 1/2 - sqrt(5) + 3*sqrt(5)", Fraction(3, 2), 2),
        ],
    )
    def test_accepted_forms(self, text, a, b):
        assert parse_element(text, Q5) == Q5.element(a, b)

    @settings(max_examples=500, deadline=None)
    @given(
        st.sampled_from([RATIONAL, Q5, QM1]),
        st.text() | st.text(alphabet="0123456789/+-* sqrt()\t٣x", max_size=30),
    )
    def test_arbitrary_text_raises_only_input_errors(self, fd, text):
        try:
            parse_element(text, fd)
        except (ElementSyntaxError, ZeroDivisionError, ValueError):
            pass


_blank = st.text(alphabet=" \t", max_size=2)
_digits = st.text(alphabet="0123456789", min_size=1, max_size=8) | st.sampled_from(["0", "٣", "12٣"])


@st.composite
def grammar_texts(draw):
    """Text shaped like the element grammar: sums of 1-4 terms with optional
    signs, '*', blanks and tabs, zero denominators, and radicals of the field
    or of another one."""
    out = []
    for k in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "+", "-"] if k == 0 else ["+", "-", "+", "-", ""]))
        num = draw(st.none() | _digits)
        if num is not None and draw(st.booleans()):
            num += "/" + draw(st.just("0") | _digits)
        out += [draw(_blank), sign, draw(_blank), num or ""]
        arg = draw(st.none() | st.sampled_from(["5", "-1", "3", "-5", "0", "2", " 5 ", "\t-1"]))
        if arg is not None:
            out += [draw(st.sampled_from(["", "*", " * ", "\t*", " "])), f"sqrt({arg})"]
    return "".join(out) + draw(_blank)


def _parsed(parse, text, fd):
    """Value, field and canonical text of ``parse(text, fd)``, or the type
    and message of the error it raises."""
    try:
        x = parse(text, fd)
    except Exception as exc:  # errors are part of the outcome
        return type(exc), str(exc)
    return x.a, x.b, x.field, format_element(x)


class TestParsePin:
    """`parse_element` against the reference parser that builds each
    coefficient with Fraction's string parser."""

    @settings(max_examples=1000, deadline=None)
    @given(
        st.sampled_from([RATIONAL, Q5, QM1]),
        grammar_texts()
        | st.text()
        | st.text(alphabet="0123456789/+-* sqrt()\t٣x", max_size=30),
    )
    def test_same_outcome_as_reference(self, fd, text):
        assert _parsed(parse_element, text, fd) == _parsed(reference_parse_element, text, fd)

    @pytest.mark.parametrize(
        "text",
        [
            "1" * 4301,
            "-" + "7" * 4301 + "/3",
            "1/" + "2" * 4301,
            "1 + " + "9" * 5000 + "*sqrt(5)",
            "2 - " + "3" * 4301 + "/" + "4" * 4301,
            "sqrt(" + "5" * 4301 + ")",
        ],
        ids=["num", "signed-num", "den", "sqrt-coefficient", "num-and-den", "radicand"],
    )
    def test_digit_strings_past_the_int_limit(self, text):
        with pytest.raises(ValueError):
            parse_element(text, Q5)
        assert _parsed(parse_element, text, Q5) == _parsed(reference_parse_element, text, Q5)


class TestCoefficients:
    @pytest.mark.parametrize("bad", [0.1, 2.0, "1/2"])
    def test_only_int_and_fraction(self, bad):
        with pytest.raises(TypeError):
            RATIONAL.element(bad)
        with pytest.raises(TypeError):
            Q5.element(1, bad)
        with pytest.raises(TypeError):
            RATIONAL.from_int(bad)

    def test_equal_values_hash_equal(self):
        assert len({RATIONAL.from_int(2), 2}) == 1
        assert hash(Q5.element(Fraction(1, 2), 0)) == hash(Fraction(1, 2))
        assert hash(Q5.element(2, 0)) == hash(RATIONAL.from_int(2))

    def test_elements_of_two_fields_share_a_set(self):
        s = {Q5.element(1, 1), FieldDescriptor(2).element(1, 1)}
        assert len(s) == 2

    def test_copy_pickle_and_immutability(self):
        for x in (
            RATIONAL.element(Fraction(-7, 3)),
            RATIONAL.zero,
            Q5.element(Fraction(1, 2), Fraction(-5, 6)),
            Q5.element(3, 0),
        ):
            for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert y == x and y.field == x.field
                assert format_element(y) == format_element(x)
            for name in ("a", "b", "field", "_p", "_den", "other"):
                with pytest.raises(AttributeError):
                    setattr(x, name, 1)
            with pytest.raises(AttributeError):
                del x.field


class TestFormat:
    def test_rational(self):
        assert format_element(RATIONAL.element(Fraction(-11, 8))) == "-11/8"

    def test_zero(self):
        assert format_element(Q5.zero) == "0"

    def test_unit_sqrt_coefficient(self):
        assert format_element(Q5.element(-2, -1)) == "-2 - sqrt(5)"
        assert format_element(Q5.element(0, 1)) == "sqrt(5)"
        assert format_element(Q5.element(0, -1)) == "-sqrt(5)"

    def test_general(self):
        assert format_element(Q5.element(5, Fraction(-1, 2))) == "5 - 1/2*sqrt(5)"

    def test_compact_is_single_token(self):
        s = format_element(Q5.element(Fraction(-3, 2), Fraction(1, 4)), compact=True)
        assert " " not in s
        assert parse_element(s, Q5) == Q5.element(Fraction(-3, 2), Fraction(1, 4))


class TestArithmetic:
    def test_conjugate_product(self):
        assert Q5.element(1, 1) * Q5.element(1, -1) == RATIONAL.from_int(-4)

    def test_inverse_of_two(self):
        assert RATIONAL.from_int(2).inv() == RATIONAL.element(Fraction(1, 2))

    def test_negation_expansion(self):
        # (-1) * (-1 - 1/2 sqrt 5) = 1 + 1/2 sqrt 5
        val = (-Q5.one) * Q5.element(-1, Fraction(-1, 2))
        assert val == Q5.element(1, Fraction(1, 2))

    def test_rational_embeds(self):
        assert RATIONAL.from_int(3) + Q5.element(0, 1) == Q5.element(3, 1)
        assert RATIONAL.from_int(2) == Q5.element(2, 0)

    def test_cross_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            Q5.one + FieldDescriptor(2).one
        with pytest.raises(FieldMismatchError):
            Q5.element(1, 1) == FieldDescriptor(2).element(1, 1)

    def test_int_mixing(self):
        assert Q5.element(1, 1) * 2 == Q5.element(2, 2)
        assert 1 - RATIONAL.from_int(3) == RATIONAL.from_int(-2)
        assert 1 / RATIONAL.from_int(4) == RATIONAL.element(Fraction(1, 4))

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            Q5.zero.inv()
        with pytest.raises(ZeroDivisionError):
            RATIONAL.one / RATIONAL.zero

    def test_pow(self):
        assert RATIONAL.from_int(-2) ** 4 == RATIONAL.from_int(16)
        assert Q5.element(0, 1) ** 2 == Q5.element(5, 0)
        assert RATIONAL.from_int(2) ** -2 == RATIONAL.element(Fraction(1, 4))

    @settings(max_examples=300, deadline=None)
    @given(elements(), elements(), elements(), st.sampled_from([None, "a", "b"]))
    def test_is_product_is_the_product_compared(self, x, y, t, target):
        # t is x*y itself, or x*y moved in one component, when the fields
        # join; otherwise an unrelated element, so that a mismatch raises.
        try:
            xy = x * y
        except FieldMismatchError:
            xy = None
        if xy is not None and target is not None and not xy.field.is_rational:
            t = xy + (t.a if target == "a" else xy.field.element(0, t.a))
        elif xy is not None and target is not None:
            t = xy if target == "a" else xy + t.a

        def settle(fn):
            try:
                return fn()
            except FieldMismatchError as exc:
                return str(exc)

        assert settle(lambda: t.is_product(x, y)) == settle(lambda: t == x * y)


@settings(max_examples=600)
@given(elements())
def test_parse_format_roundtrip(x):
    assert parse_element(format_element(x), x.field) == x
    assert parse_element(format_element(x, compact=True), x.field) == x


@settings(max_examples=300)
@given(elements(), elements(field=RATIONAL))
def test_roundtrip_volume(x, y):
    # together with the case above this drives well past 1000 random elements
    assert parse_element(format_element(x), x.field) == x
    assert parse_element(format_element(y), y.field) == y


@settings(max_examples=500)
@given(st.data(), descriptors)
def test_field_axioms(data, fd):
    x = data.draw(elements(field=fd))
    y = data.draw(elements(field=fd))
    z = data.draw(elements(field=fd))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + fd.zero == x
    assert x * fd.one == x


@settings(max_examples=300)
@given(st.data(), descriptors)
def test_nonzero_elements_invert(data, fd):
    # soundness of the zero test: every (a, b) != (0, 0) must invert exactly
    x = data.draw(elements(field=fd))
    if x.is_zero:
        x = x + fd.one
    assert x * x.inv() == fd.one
    assert (x / x) == fd.one


# The pin against the Fraction-pair reference: the four fields, elements of
# Q mixed with those of Q(sqrt(d)), zeros, and ints and Fractions as operands.
pin_descriptors = st.sampled_from([RATIONAL, Q5, FieldDescriptor(2), QM1])
_coefficients = st.just(Fraction(0)) | st.fractions(
    min_value=-60, max_value=60, max_denominator=12
)


@st.composite
def _coefficient_triples(draw, fd):
    """(a, b, field) of an element of ``fd``, of Q or of any of the four fields."""
    f = draw(st.sampled_from([fd, fd, RATIONAL]) | pin_descriptors)
    return draw(_coefficients), Fraction(0) if f.is_rational else draw(_coefficients), f


def _pinned(fn, fmt):
    """What the pin compares of fn(): a, b, field, text (plain and compact)
    and hash of an element, a bool as it is, or an error's type and message."""
    try:
        x = fn()
    except Exception as exc:  # errors are part of the outcome
        return type(exc), str(exc)
    if isinstance(x, bool):
        return x
    return x.a, x.b, x.field, fmt(x), fmt(x, compact=True), hash(x)


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq)


@settings(max_examples=500, deadline=None)
@given(
    st.data(),
    pin_descriptors,
    st.integers(-4, 4),
    st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
def test_elements_match_the_fraction_pair_reference(data, fd, k, n):
    triples = data.draw(st.lists(_coefficient_triples(fd), min_size=2, max_size=4))
    new = [FieldElement(*t) for t in triples]
    ref = [ReferenceElement(*t) for t in triples]

    def same(new_fn, ref_fn):
        assert _pinned(new_fn, format_element) == _pinned(ref_fn, reference_format_element)

    x, y, rx, ry = new[0], new[1], ref[0], ref[1]
    same(lambda: x, lambda: rx)
    for op in _BINARY:
        same(lambda: op(x, y), lambda: op(rx, ry))
        same(lambda: op(x, n), lambda: op(rx, n))
        same(lambda: op(n, x), lambda: op(n, rx))
    same(lambda: -x, lambda: -rx)
    same(x.inv, rx.inv)
    same(lambda: x**k, lambda: rx**k)
    # A lattice holds the elements of its field and of Q.
    rows = [i for i, (_, _, f) in enumerate(triples) if f in (fd, RATIONAL)]
    if rows:
        lattice = fd.lattice([[new[i] for i in rows], [new[rows[0]]]])
        assert lattice == reference_lattice(fd, [[ref[i] for i in rows], [ref[rows[0]]]])
    p, q = data.draw(st.integers(-99, 99)), data.draw(st.integers(-99, 99))
    den = data.draw(st.integers(-40, 40).filter(bool))
    v = p if fd.is_rational else (p, q)
    same(lambda: fd.from_lattice(v, den), lambda: reference_from_lattice(fd, v, den))
