"""Exact Gaussian-rational scalars (elements of Q(i))."""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


class GScalar:
    """A Gaussian rational re + im*i with arbitrary-precision Fraction parts.

    Immutable.  Conjugation is the involutive field automorphism fixing the
    rational part.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GScalar is immutable")

    def __add__(self, other):
        return GScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GScalar(-self.re, -self.im)

    def __mul__(self, other):
        a, b = self.re, self.im
        if b == 0:
            if a == 1:
                return other
            if a == -1:
                return -other
            d = other.im
            if d == 0:
                c = other.re
                if c == 1:
                    return self
                return GScalar(a * c, _F0)
            return GScalar(a * other.re, a * d)
        c, d = other.re, other.im
        if d == 0:
            if c == 1:
                return self
            return GScalar(a * c, b * c)
        return GScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        a, b = self.re, self.im
        if b == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero GScalar")
            return GScalar(1 / a, _F0)
        n = a * a + b * b
        return GScalar(a / n, -b / n)

    def conj(self):
        if self.im == 0:
            return self
        return GScalar(self.re, -self.im)

    def is_zero(self):
        return not self.re and not self.im

    def is_real(self):
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, GScalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return "GScalar(%s)" % self

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return "%si" % self.im
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else "%si" % mag
        return "%s%s%s" % (self.re, sign, istr)


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
