"""Exact Gaussian-rational scalars (elements of Q(i)).

A scalar (a + b*i)/d is held as three Python ints in normal form: d > 0 and
gcd(a, b, d) = 1, so zero is (0, 0, 1).  Every operation returns its result
in normal form, hence two scalars are equal exactly when their fields are,
and equality, hashing and dict comparison (``linalg.vec_eq``) are exact
field by field.  Most operands met in practice are Gaussian integers
(d = 1), and the arithmetic takes a gcd-free path for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


class GScalar:
    """A Gaussian rational (a + b*i)/d with arbitrary-precision int fields.

    Immutable and always normalised (d > 0, gcd(a, b, d) = 1).  ``re`` and
    ``im`` give the parts as Fractions.  A real scalar equals and hashes
    like the equal int or Fraction.  Conjugation is the involutive field
    automorphism fixing the rational part.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        # re + im*i, each part an int, Fraction or GScalar
        a1, b1, d1 = _fields(re)
        a2, b2, d2 = _fields(im)
        a, b, d = a1 * d2 - b2 * d1, b1 * d2 + a2 * d1, d1 * d2
        g = gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    def __setattr__(self, *a):
        raise AttributeError("GScalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        d, f = self.d, other.d
        if d == 1 and f == 1:
            z = _new(GScalar)
            _set_a(z, self.a + other.a)
            _set_b(z, self.b + other.b)
            _set_d(z, 1)
            return z
        if d == f:
            return _make(self.a + other.a, self.b + other.b, d)
        return _make(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    def __sub__(self, other):
        d, f = self.d, other.d
        if d == 1 and f == 1:
            z = _new(GScalar)
            _set_a(z, self.a - other.a)
            _set_b(z, self.b - other.b)
            _set_d(z, 1)
            return z
        if d == f:
            return _make(self.a - other.a, self.b - other.b, d)
        return _make(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __neg__(self):
        z = _new(GScalar)
        _set_a(z, -self.a)
        _set_b(z, -self.b)
        _set_d(z, self.d)
        return z

    def __mul__(self, other):
        a, b, d = self.a, self.b, self.d
        c, e, f = other.a, other.b, other.d
        if not b and d == 1:
            if a == 1:
                return other
            re, im, den = a * c, a * e, f
        elif not e and f == 1:
            if c == 1:
                return self
            re, im, den = a * c, b * c, d
        else:
            re, im, den = a * c - b * e, a * e + b * c, d * f
        if den != 1:
            return _make(re, im, den)
        z = _new(GScalar)
        _set_a(z, re)
        _set_b(z, im)
        _set_d(z, 1)
        return z

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        a, b, d = self.a, self.b, self.d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero GScalar")
            z = _new(GScalar)
            if a < 0:
                a, d = -a, -d
            # gcd(a, d) = 1 already
            _set_a(z, d)
            _set_b(z, 0)
            _set_d(z, a)
            return z
        return _make(d * a, -d * b, a * a + b * b)

    def conj(self):
        if not self.b:
            return self
        z = _new(GScalar)
        _set_a(z, self.a)
        _set_b(z, -self.b)
        _set_d(z, self.d)
        return z

    def is_zero(self):
        return not self.a and not self.b

    def is_real(self):
        return not self.b

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, GScalar):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (not self.b and self.d == other.denominator
                    and self.a == other.numerator)
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return "GScalar(%s)" % self

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return "%si" % im
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else "%si" % mag
        return "%s%s%s" % (re, sign, istr)


_set_a = GScalar.a.__set__
_set_b = GScalar.b.__set__
_set_d = GScalar.d.__set__


def _fields(x):
    """(a, b, d) of an int, Fraction or GScalar, d > 0."""
    if type(x) is int:
        return x, 0, 1
    if isinstance(x, GScalar):
        return x.a, x.b, x.d
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator, 0, f.denominator


def _make(a, b, d):
    """The GScalar (a + b i)/d for d > 0, reduced by gcd(a, b, d)."""
    g = gcd(a, b, d)
    z = _new(GScalar)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


ZERO = GScalar(0)
ONE = GScalar(1)
MINUS_ONE = GScalar(-1)
I_UNIT = GScalar(0, 1)
FOURTH_ROOTS = (ONE, I_UNIT, MINUS_ONE, GScalar(0, -1))


def gs(x) -> GScalar:
    """Coerce an int, Fraction or GScalar into a GScalar."""
    if isinstance(x, GScalar):
        return x
    return GScalar(x)


def parse_scalar(text: str) -> GScalar:
    """Parse "p/q", "i", "-i", "p/q*i" or "a+b*i" into a GScalar."""
    s = text.strip().replace(" ", "").replace("*i", "i")
    if s in ("i", "+i"):
        return I_UNIT
    if s == "-i":
        return GScalar(0, -1)
    if s.endswith("i"):
        body = s[:-1]
        # split off a trailing imaginary term of a composite a+bi / a-bi
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part = body[:k]
                im_part = body[k:]
                if im_part in ("+", "-"):
                    im_part += "1"
                return GScalar(Fraction(re_part), Fraction(im_part))
        if body in ("", "+"):
            return I_UNIT
        if body == "-":
            return GScalar(0, -1)
        return GScalar(0, Fraction(body))
    return GScalar(Fraction(s))


def render_scalar(z: GScalar) -> str:
    return str(z)
