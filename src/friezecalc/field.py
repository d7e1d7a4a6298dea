"""Exact elements of Q and of quadratic extensions Q(sqrt(d)).

Every value is an immutable element (p + q*sqrt(d)) / den held as three
ints, with den > 0, gcd(p, q, den) = 1 and q = 0 forced over plain Q.  d is
required to be a non-square integer, so that a + b*sqrt(d) = 0 iff
a = b = 0: an element has one pair of rational coefficients a = p/den and
b = q/den, and that pair one such triple (see :class:`FieldElement`), so
equal elements are equal triples.  All arithmetic is exact integer
arithmetic with one gcd per result; there is no floating point anywhere.

Text grammar for parsing/formatting::

    expr := term (('+'|'-') term)*
    term := rat | rat? '*'? 'sqrt(' int ')'
    rat  := int ('/' posint)?
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

__all__ = [
    "ElementSyntaxError",
    "FieldDescriptor",
    "FieldElement",
    "FieldMismatchError",
    "RATIONAL",
    "format_element",
    "parse_element",
]


class FieldMismatchError(ValueError):
    """Two elements live in different fields and neither embeds in the other."""


class ElementSyntaxError(ValueError):
    """An element string does not match the grammar or names the wrong radical."""


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _checked_record(name: str, fields: str) -> type:
    """The named-tuple base of a record that checks its fields in ``__new__``:
    its ``_make``, and so ``_replace``, build through that ``__new__`` too."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class FieldDescriptor(_checked_record("FieldDescriptor", "d")):
    """The coefficient field: plain rationals (d is None) or Q(sqrt(d)).

    d may be negative; the only requirement is that it is not a perfect
    square (and not 0 or 1), which keeps sqrt(d) irrational.
    """

    __slots__ = ()

    def __new__(cls, d: int | None = None):
        if d is not None and (d in (0, 1) or _is_square(d)):
            raise ValueError(f"d={d} is a square; the extension would collapse to Q")
        return super().__new__(cls, d)

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
        element denominator of ``rows``, which is the lcm of every
        coefficient denominator: ints over Q, pairs (p, q) = p + q*sqrt(d)
        over Q(sqrt(d))."""
        den = math.lcm(*(e._den for r in rows for e in r))
        if self.d is None:
            return den, [[e._p * (den // e._den) for e in r] for r in rows]
        return den, [[(e._p * (k := den // e._den), e._q * k) for e in r] for r in rows]

    def from_lattice(self, v, den: int) -> "FieldElement":
        """The element v / den of a lattice value v: an int over Q, a pair
        (p, q) = p + q*sqrt(d) over Q(sqrt(d)); ``den`` is a nonzero int."""
        p, q = (v, 0) if self.d is None else v
        g = math.gcd(p, q, den)
        if den < 0:
            g = -g
        return _element(p // g, q // g, den // g, self)

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(n, 0, self)

    @property
    def zero(self) -> "FieldElement":
        return _element(0, 0, 1, self)

    @property
    def one(self) -> "FieldElement":
        return _element(1, 0, 1, self)

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt({self.d}))"


RATIONAL = FieldDescriptor()


def _rational(x):
    """An int or Fraction coefficient as a Fraction; floats and all else are refused."""
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x
    if not isinstance(x, int):
        raise TypeError(f"coefficient must be an int or a Fraction, not {type(x).__name__}")
    return Fraction(x)


def _join(f1: FieldDescriptor, f2: FieldDescriptor) -> FieldDescriptor:
    """Common field of two descriptors; Q embeds into any Q(sqrt(d))."""
    if f1 is f2 or f1.d == f2.d:
        return f1
    if f1.d is None:
        return f2
    if f2.d is None:
        return f1
    raise FieldMismatchError(f"cannot mix elements of {f1} and {f2}")


class FieldElement:
    """Immutable (p + q*sqrt(d)) / den; plain rational when the field is Q.

    ``FieldElement(a, b, field)`` is a + b*sqrt(d) for coefficients a, b
    given as ints or Fractions.  It is held as the ints p = a*den,
    q = b*den and den, for den the lcm L of the denominators of a and b;
    ``a`` and ``b`` are read back as Fractions.  The triple is unique, with
    den > 0 and gcd(p, q, den) = 1: p and q are ints exactly when den is a
    multiple k*L, and then k divides p, q and den; at den = L, a prime r
    dividing L divides the denominator of a, say, to the full power it has
    in L, so r divides neither the numerator of a nor L/denominator(a), and
    not p.  So ``==`` compares ints, and every result is brought to this
    form by one three-way gcd.

    Assigning or deleting any attribute raises AttributeError; a copy or a
    pickle rebuilds the element from ``(a, b, field)``.
    """

    __slots__ = ("_p", "_q", "_den", "field")

    def __new__(cls, a, b, field: FieldDescriptor):
        if type(a) is int and type(b) is int:
            p, q, den = a, b, 1
        else:
            a, b = _rational(a), _rational(b)
            den = math.lcm(a.denominator, b.denominator)
            p, q = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        if q and field.is_rational:
            raise FieldMismatchError("rational element cannot carry a sqrt part")
        return _element(p, q, den, field)

    def __setattr__(self, name, value):
        raise AttributeError(f"field elements are immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"field elements are immutable; cannot delete {name!r}")

    def __reduce__(self):
        return FieldElement, (self.a, self.b, self.field)

    @property
    def a(self):
        """The rational part p/den, as a Fraction."""
        from fractions import Fraction

        return Fraction(self._p, self._den)

    @property
    def b(self):
        """The coefficient q/den of sqrt(d), as a Fraction."""
        from fractions import Fraction

        return Fraction(self._q, self._den)

    @property
    def is_zero(self) -> bool:
        return not (self._p or self._q)

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            return other
        if type(other) is int:
            return _element(other, 0, 1, self.field)
        from fractions import Fraction

        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return _element(other.numerator, 0, other.denominator, self.field)
        return None

    def __add__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fd = _join(self.field, o.field)
        d1, d2 = self._den, o._den
        if d1 == d2:
            return _reduced(self._p + o._p, self._q + o._q, d1, fd)
        return _reduced(self._p * d2 + o._p * d1, self._q * d2 + o._q * d1, d1 * d2, fd)

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
        return _element(-self._p, -self._q, self._den, self.field)

    def __mul__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fd = _join(self.field, o.field)
        p1, q1, p2, q2 = self._p, self._q, o._p, o._q
        den = self._den * o._den
        if q1 and q2:
            return _reduced(p1 * p2 + fd.d * q1 * q2, p1 * q2 + q1 * p2, den, fd)
        return _reduced(p1 * p2, p1 * q2 + q1 * p2, den, fd)

    __rmul__ = __mul__

    def is_product(self, x: "FieldElement", y: "FieldElement") -> bool:
        """``self == x * y``, without building the product: with r = sqrt(d)
        it tests (p_x + q_x*r)*(p_y + q_y*r)*den = (p + q*r)*den_x*den_y in
        Z[r], component by component, which holds exactly when the elements
        are equal, since the dens are nonzero and 1, r are independent over
        Q.  It joins the fields as the product and comparison would."""
        fd = _join(self.field, _join(x.field, y.field))
        m = x._den * y._den
        p = x._p * y._p + (fd.d * x._q * y._q if x._q and y._q else 0)
        q = x._p * y._q + x._q * y._p
        return p * self._den == self._p * m and q * self._den == self._q * m

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        return _quotient(self.field.one, self)

    def __truediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quotient(self, o)

    def __rtruediv__(self, other) -> "FieldElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self)

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inv() ** (-k)
        out = self.field.one
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
        return self._p == o._p and self._q == o._q and self._den == o._den

    def __hash__(self):
        # With b == 0 hash as the rational part, like the int or Fraction
        # that the element compares equal to.  Otherwise hash d too, since
        # comparing elements of two quadratic fields raises.
        if self._q:
            return hash((self.a, self.b, self.field.d))
        return hash(self._p) if self._den == 1 else hash(self.a)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


_new_object = object.__new__
_set_p, _set_q, _set_den, _set_field = (
    s.__set__ for s in (FieldElement._p, FieldElement._q, FieldElement._den, FieldElement.field)
)


def _element(p: int, q: int, den: int, field: FieldDescriptor) -> FieldElement:
    """The element (p + q*sqrt(d)) / den, for ints already in canonical form."""
    x = _new_object(FieldElement)
    _set_p(x, p)
    _set_q(x, q)
    _set_den(x, den)
    _set_field(x, field)
    return x


def _reduced(p: int, q: int, den: int, field: FieldDescriptor) -> FieldElement:
    """The element (p + q*sqrt(d)) / den for den > 0, divided by gcd(p, q, den)."""
    g = math.gcd(p, q, den)
    if g != 1:
        p, q, den = p // g, q // g, den // g
    return _element(p, q, den, field)


def _quotient(x: FieldElement, y: FieldElement) -> FieldElement:
    """x / y; a zero y raises ZeroDivisionError before the fields are joined."""
    p, q = y._p, y._q
    if not (p or q):
        raise ZeroDivisionError("inverse of zero element")
    fd = _join(x.field, y.field)
    k = y._den
    if q:
        # 1/(p + q*sqrt(d)) = (p - q*sqrt(d)) / (p^2 - d*q^2), and the norm
        # p^2 - d*q^2 is nonzero because d is a non-square.
        x0, x1 = x._p, x._q
        n0, n1 = (x0 * p - fd.d * x1 * q) * k, (x1 * p - x0 * q) * k
        norm = p * p - fd.d * q * q
    else:
        n0, n1, norm = x._p * k, x._q * k, p
    if norm < 0:
        n0, n1, norm = -n0, -n1, -norm
    return _reduced(n0, n1, x._den * norm, fd)


def _rational_text(n: int, den: int) -> str:
    """The text of the Fraction n/den, for den > 0."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def format_element(x: FieldElement, compact: bool = False) -> str:
    """Canonical string; round-trips through :func:`parse_element`.

    ``compact`` omits spaces so the result is a single whitespace-free token
    (used by the grid text format).  The coefficients p/den and q/den are
    written in lowest terms.
    """
    p, q, den = x._p, x._q, x._den
    if not q:
        # gcd(p, den) = 1 here.
        return str(p) if den == 1 else f"{p}/{den}"
    d = x.field.d
    sep = "" if compact else " "

    def radical(c: int) -> str:
        return f"sqrt({d})" if c == den else f"{_rational_text(c, den)}*sqrt({d})"

    if not p:
        return radical(q) if q > 0 else "-" + radical(-q)
    sign = "+" if q > 0 else "-"
    return f"{_rational_text(p, den)}{sep}{sign}{sep}{radical(abs(q))}"


def _format_rows(rows, compact: bool = False) -> list[list[str]]:
    """``[[format_element(e, compact) for e in row] for row in rows]``,
    formatting each value once: a text is kept by the element's value
    (p, q, den, d), and a row object met again (the rows a trace stage
    leaves alone) gets the same list of texts.  Rows are known by id, so
    pass a sequence of rows that it holds, not a generator that makes them.
    """
    text: dict[tuple, str] = {}
    done: dict[int, list[str]] = {}
    for row in rows:
        if id(row) not in done:
            done[id(row)] = [
                text.get(k) or text.setdefault(k, format_element(e, compact))
                for e in row
                for k in ((e._p, e._q, e._den, e.field.d),)
            ]
    return [done[id(row)] for row in rows]


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

    Each term is read as the integers n/k its digits spell and added to the
    sum (p + q*sqrt(d)) / den, which is brought to lowest terms once, at the
    end.  Raises :class:`ElementSyntaxError` on malformed input or when a
    sqrt term names a radical other than the field's d, ZeroDivisionError
    on a zero denominator (before the radical is checked, with the message
    of ``Fraction(n, 0)``), and ValueError on a digit string longer than
    ``sys.get_int_max_str_digits()``.
    """
    p, q, den = 0, 0, 1
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, num, k, arg = m.groups()
        if num is None and arg is None:
            raise ElementSyntaxError(f"expected a term at {text[pos:]!r}")
        if pos and sign is None:
            raise ElementSyntaxError("terms must be joined by '+' or '-'")
        n = int(num) if num else 1
        if sign == "-":
            n = -n
        k = int(k) if k else 1
        if not k:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        if arg is None:
            p, q, den = p * k + n * den, q * k, den * k
        elif field.is_rational or int(arg) != field.d:
            raise ElementSyntaxError(f"sqrt({int(arg)}) does not belong to {field}")
        else:
            p, q, den = p * k, q * k + n * den, den * k
        pos = m.end()
        if pos == len(text):
            return _reduced(p, q, den, field)
