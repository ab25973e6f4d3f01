"""Field laws of GScalar against an oracle of exact Fraction pairs (re, im)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from l2betti.scalars import GScalar, ONE, ZERO, render_scalar

BIG = 10 ** 30
nums = st.one_of(st.integers(-6, 6), st.integers(-BIG, BIG))
dens = st.one_of(st.integers(1, 6), st.integers(1, BIG))
rats = st.builds(Fraction, nums, dens)
# a Gaussian rational as its oracle pair (re, im); a third of them real
pairs = st.one_of(st.tuples(rats, st.just(Fraction(0))), st.tuples(rats, rats))

SETTINGS = settings(max_examples=300, deadline=None)


def scalar(p):
    return GScalar(p[0], p[1])


def value(z):
    return (z.re, z.im)


def assert_normal(z):
    assert all(type(getattr(z, f)) is int for f in GScalar.__slots__)
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1


def old_render(re, im):
    """The rendering of (re, im) before scalars were held as ints."""
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


@SETTINGS
@given(pairs, pairs)
def test_ring_operations_match_the_oracle(p, q):
    (a, b), (c, d) = p, q
    x, y = scalar(p), scalar(q)
    for z, want in ((x + y, (a + c, b + d)),
                    (x - y, (a - c, b - d)),
                    (-x, (-a, -b)),
                    (x * y, (a * c - b * d, a * d + b * c)),
                    (x.conj(), (a, -b))):
        assert_normal(z)
        assert value(z) == want


@SETTINGS
@given(pairs, pairs)
def test_inverse_and_division_match_the_oracle(p, q):
    (a, b), (c, d) = p, q
    assume(c or d)
    n = c * c + d * d
    inv = scalar(q).inverse()
    assert_normal(inv)
    assert value(inv) == (c / n, -d / n)
    quo = scalar(p) / scalar(q)
    assert_normal(quo)
    assert value(quo) == ((a * c + b * d) / n, (b * c - a * d) / n)


@SETTINGS
@given(pairs)
def test_predicates_match_the_oracle(p):
    z = scalar(p)
    assert z.is_zero() == (p == (0, 0))
    assert bool(z) == (p != (0, 0))
    assert z.is_real() == (p[1] == 0)


@SETTINGS
@given(pairs, pairs)
def test_equality_and_hash_are_those_of_the_value(p, q):
    x, y = scalar(p), scalar(q)
    assert (x == y) == (p == q)
    assert x == scalar(p) and hash(x) == hash(scalar(p))


@SETTINGS
@given(rats, rats)
def test_real_scalars_equal_and_hash_like_fractions(r, s):
    z = GScalar(r)
    assert z == r and hash(z) == hash(r)
    assert (z == s) == (r == s)
    if r.denominator == 1:
        n = int(r)
        assert z == n and hash(z) == hash(n)
    assume(s)
    assert GScalar(r, s) != r


@SETTINGS
@given(pairs, st.integers(1, 50))
def test_normal_form_forgets_the_written_denominator(p, k):
    a, b = p
    z = scalar(p)
    assert_normal(z)
    scaled = GScalar(Fraction(a.numerator * k, a.denominator * k),
                     Fraction(b.numerator * k, b.denominator * k))
    assert (scaled.a, scaled.b, scaled.d) == (z.a, z.b, z.d)
    assert value(z) == p


def test_normal_form_of_a_half():
    z = GScalar(Fraction(2, 4))
    assert (z.a, z.b, z.d) == (1, 0, 2)
    assert z == GScalar(Fraction(1, 2)) and hash(z) == hash(GScalar(Fraction(1, 2)))
    assert (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
    assert (GScalar(Fraction(3, 2)) - GScalar(Fraction(3, 2))).d == 1


@SETTINGS
@given(pairs)
def test_rendering_is_unchanged(p):
    assert render_scalar(scalar(p)) == old_render(*p)


def test_rendering_examples():
    assert [render_scalar(GScalar(Fraction(*re), Fraction(*im))) for re, im in (
        ((0, 1), (0, 1)), ((0, 1), (1, 1)), ((0, 1), (-1, 1)), ((0, 1), (-2, 3)),
        ((1, 2), (1, 1)), ((1, 2), (-3, 4)), ((-5, 1), (0, 1)))] == \
        ["0", "i", "-i", "-2/3i", "1/2+i", "1/2-3/4i", "-5"]


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_scalars_are_immutable():
    with pytest.raises(AttributeError):
        ONE.a = 2
