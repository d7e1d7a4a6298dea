"""Exact field arithmetic, parsing and formatting."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friezecalc import (
    RATIONAL,
    ElementSyntaxError,
    FieldDescriptor,
    FieldMismatchError,
    format_element,
    parse_element,
)

from conftest import reference_parse_element

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
