"""Exact elements of Q and of quadratic extensions Q(sqrt(d)).

Every value is an immutable pair of rationals (a, b) denoting a + b*sqrt(d),
with b = 0 forced over plain Q.  All arithmetic is exact; there is no
floating point anywhere.  Rationals are kept in lowest terms with positive
denominator (``fractions.Fraction`` guarantees this), and d is required to
be a non-square integer so that a + b*sqrt(d) = 0 iff a = b = 0.

Text grammar for parsing/formatting::

    expr := term (('+'|'-') term)*
    term := rat | rat? '*'? 'sqrt(' int ')'
    rat  := int ('/' posint)?
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ElementSyntaxError",
    "FieldDescriptor",
    "FieldElement",
    "FieldMismatchError",
    "RATIONAL",
    "format_element",
    "parse_element",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FieldMismatchError(ValueError):
    """Two elements live in different fields and neither embeds in the other."""


class ElementSyntaxError(ValueError):
    """An element string does not match the grammar or names the wrong radical."""


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@dataclass(frozen=True)
class FieldDescriptor:
    """The coefficient field: plain rationals (d is None) or Q(sqrt(d)).

    d may be negative; the only requirement is that it is not a perfect
    square (and not 0 or 1), which keeps sqrt(d) irrational.
    """

    d: int | None = None

    def __post_init__(self):
        if self.d is not None and (self.d in (0, 1) or _is_square(self.d)):
            raise ValueError(
                f"d={self.d} is a square; the extension would collapse to Q"
            )

    @property
    def kind(self) -> str:
        return "rational" if self.d is None else "quadratic"

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def element(self, a, b=0) -> "FieldElement":
        return FieldElement(a, b, self)

    def lattice(self, rows) -> tuple[int, list[list]]:
        """``(den, rows of den * entries)`` for the lcm ``den`` of every
        coefficient denominator of ``rows``: ints over Q, pairs
        (p, q) = p + q*sqrt(d) over Q(sqrt(d))."""
        den = math.lcm(*(c.denominator for r in rows for e in r for c in (e.a, e.b)))
        if self.d is None:
            return den, [[e.a.numerator * (den // e.a.denominator) for e in r] for r in rows]
        return den, [
            [(e.a.numerator * (den // e.a.denominator), e.b.numerator * (den // e.b.denominator))
             for e in r]
            for r in rows
        ]

    def from_lattice(self, v, den: int) -> "FieldElement":
        """The element v / den of a lattice value v: an int over Q, a pair
        (p, q) = p + q*sqrt(d) over Q(sqrt(d)); ``den`` is a nonzero int."""
        p, q = (v, 0) if self.d is None else v
        return FieldElement(
            Fraction(p, den) if p else _ZERO, Fraction(q, den) if q else _ZERO, self
        )

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(n, _ZERO, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(_ZERO, _ZERO, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(_ONE, _ZERO, self)

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


RATIONAL = FieldDescriptor()


def _rational(x) -> Fraction:
    """An int coefficient as a Fraction; floats and all else are refused."""
    if not isinstance(x, int):
        raise TypeError(f"coefficient must be an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


def _join(f1: FieldDescriptor, f2: FieldDescriptor) -> FieldDescriptor:
    """Common field of two descriptors; Q embeds into any Q(sqrt(d))."""
    if f1.d == f2.d:
        return f1
    if f1.d is None:
        return f2
    if f2.d is None:
        return f1
    raise FieldMismatchError(f"cannot mix elements of {f1} and {f2}")


@dataclass(frozen=True, eq=False)
class FieldElement:
    """Immutable a + b*sqrt(d); plain rational when the field is Q."""

    a: Fraction
    b: Fraction
    field: FieldDescriptor

    def __post_init__(self):
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", _rational(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", _rational(self.b))
        if self.field.is_rational and self.b != 0:
            raise FieldMismatchError("rational element cannot carry a sqrt part")

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement(Fraction(other), _ZERO, self.field)
        return None

    def __add__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fd = _join(self.field, o.field)
        return FieldElement(self.a + o.a, self.b + o.b, fd)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.a, -self.b, self.field)

    def __mul__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fd = _join(self.field, o.field)
        if fd.is_rational:
            return FieldElement(self.a * o.a, _ZERO, fd)
        d = fd.d
        return FieldElement(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            fd,
        )

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero element")
        if self.field.is_rational:
            return FieldElement(1 / self.a, _ZERO, self.field)
        # Nonzero norm is guaranteed because d is a non-square.
        norm = self.a * self.a - self.field.d * self.b * self.b
        return FieldElement(self.a / norm, -self.b / norm, self.field)

    def __truediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inv() ** (-k)
        out = FieldElement(_ONE, _ZERO, self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        _join(self.field, o.field)  # reject cross-field comparison
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # With b == 0 hash as the rational part, like the int or Fraction
        # that the element compares equal to.  Otherwise hash d too, since
        # comparing elements of two quadratic fields raises.
        return hash(self.a) if self.b == 0 else hash((self.a, self.b, self.field.d))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def format_element(x: FieldElement, compact: bool = False) -> str:
    """Canonical string; round-trips through :func:`parse_element`.

    ``compact`` omits spaces so the result is a single whitespace-free token
    (used by the grid text format).
    """
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


# One term of the grammar above, matched again and again from the start of
# the string: a sign (required after the first term), a rational as its
# numerator and denominator digits, a '*' only between a rational and a sqrt,
# and a sqrt.  Each part may be absent, so the pattern always matches; a term
# with neither a rational nor a sqrt is an error.
_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?
        \s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?)?
        (?:\s*(?(num)(?:\*\s*)?)sqrt\(\s*(?P<arg>-?\d+)\s*\))?
        \s*""",
    re.VERBOSE,
)


def parse_element(text: str, field: FieldDescriptor) -> FieldElement:
    """Parse an element string in the grammar above, canonicalized.

    Each coefficient is built from the integers its digits spell, and the
    first rational and the first sqrt term are taken as they are; later
    terms are added to them.  Raises :class:`ElementSyntaxError` on
    malformed input or when a sqrt term names a radical other than the
    field's d, ZeroDivisionError on a zero denominator, and ValueError on a
    digit string longer than ``sys.get_int_max_str_digits()``.
    """
    a = b = None
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, num, den, arg = m.groups()
        if num is None and arg is None:
            raise ElementSyntaxError(f"expected a term at {text[pos:]!r}")
        if pos and sign is None:
            raise ElementSyntaxError("terms must be joined by '+' or '-'")
        p = int(num) if num else 1
        coeff = Fraction(-p if sign == "-" else p, int(den or 1))
        if arg is None:
            a = coeff if a is None else a + coeff
        elif field.is_rational or int(arg) != field.d:
            raise ElementSyntaxError(f"sqrt({int(arg)}) does not belong to {field}")
        else:
            b = coeff if b is None else b + coeff
        pos = m.end()
        if pos == len(text):
            return FieldElement(a or _ZERO, b or _ZERO, field)
