import random
from fractions import Fraction
from math import gcd

import pytest

from azumaya.scalars import ONE, ZERO, I, gr
from helpers import rand_scalar


def test_canonical_lowest_terms():
    x = gr(Fraction(2, 4), Fraction(-6, 8))
    assert x.re == Fraction(1, 2) and x.im == Fraction(-3, 4)
    assert str(x) == "1/2-3/4i"
    assert str(gr(3)) == "3"
    assert str(I) == "0+1i"


def test_field_axioms_on_samples():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_division_and_conjugation():
    x = gr(1, 2)
    y = gr(3, -1)
    assert (x / y) * y == x
    assert x * x.conjugate() == gr(x.norm())
    with pytest.raises(ZeroDivisionError):
        x / ZERO


def test_powers():
    assert I**2 == -1
    assert I**-1 == -I
    assert gr(2) ** 10 == 1024


def test_hash_consistent_with_int_equality():
    assert gr(5) == 5 and hash(gr(5)) == hash(Fraction(5))


class PairRef:
    """Q(i) as a pair of Fractions: the oracle for the integer-triple core."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return PairRef(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return PairRef(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return PairRef(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.norm()
        return PairRef((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __neg__(self):
        return PairRef(-self.re, -self.im)

    def __pow__(self, k):
        out, base = PairRef(1), (PairRef(1) / self if k < 0 else self)
        for _ in range(abs(k)):
            out = out * base
        return out

    def conjugate(self):
        return PairRef(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def hash(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def str(self):
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}i"

    def repr(self):
        return f"gr({self.re!r}, {self.im!r})" if self.im else f"gr({self.re!r})"


def rand_part(rng):
    """A rational with zero, small, huge and negative numerators, and
    denominators up to 10**30."""
    if rng.random() < 0.2:
        return Fraction(0)
    den = rng.choice([1, 1, rng.randint(1, 12), rng.randint(1, 10**6), rng.randint(1, 10**30)])
    top = 10 ** rng.choice([1, 3, 12, 30])
    return Fraction(rng.randint(-top, top), den)


def assert_same(x, ref):
    """x equals the reference, and its triple is canonical."""
    assert (x.re, x.im) == (ref.re, ref.im)
    a, b, d = x._a, x._b, x._d
    assert d > 0 and gcd(a, b, d) == 1
    assert str(x) == ref.str() and repr(x) == ref.repr()
    assert hash(x) == ref.hash()
    assert x.sort_key() == (ref.re, ref.im)
    assert x.is_real() == (not ref.im)
    assert x.is_integer() == (not ref.im and ref.re.denominator == 1)
    assert x.is_zero() == (not ref.re and not ref.im)


def test_integer_triple_core_matches_fraction_pairs():
    rng = random.Random(2024)
    for _ in range(600):
        p, q = (rand_part(rng), rand_part(rng)), (rand_part(rng), rand_part(rng))
        if rng.random() < 0.3:  # 'a/b' string inputs
            x = gr(str(p[0]), str(p[1]))
        else:
            x = gr(*p)
        y, rx, ry = gr(*q), PairRef(*p), PairRef(*q)
        assert_same(x, rx)
        assert_same(x + y, rx + ry)
        assert_same(x - y, rx - ry)
        assert_same(x * y, rx * ry)
        assert_same(-x, -rx)
        assert_same(x.conjugate(), rx.conjugate())
        assert x.norm() == rx.norm()
        k = rng.randint(-3, 3)
        if ry.norm():
            assert_same(x / y, rx / ry)
            assert_same(y ** k, ry ** k)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        # mixed operands: ints and Fractions on either side
        n, f = rng.randint(-10**20, 10**20), p[0]
        assert_same(x + n, rx + PairRef(n))
        assert_same(n - x, PairRef(n) - rx)
        assert_same(f * x, PairRef(f) * rx)
        if f:
            assert_same(x / f, rx / PairRef(f))
            assert_same(n / gr(f), PairRef(n) / PairRef(f))


def test_equality_and_hash_against_int_fraction_and_str():
    rng = random.Random(7)
    for _ in range(500):
        f = rand_part(rng)
        x = gr(f)
        assert x == f and f == x and hash(x) == hash(f)
        assert gr(str(f)) == x and hash(gr(str(f))) == hash(x)
        assert (x == str(f)) is False
        if f.denominator == 1:
            n = int(f)
            assert x == n and n == x and hash(x) == hash(n)
        assert (x + gr(0, 1)) != f
    a = gr(Fraction(2, 4), Fraction(-6, 8))
    b = gr("1/2", "-3/4")
    assert a == b and hash(a) == hash(b)
    c = gr(1, 2) * gr(Fraction(1, 4), -1) / gr(1, 2) * 2 + gr(0, Fraction(5, 4))
    assert a == c and hash(a) == hash(c) and (a._a, a._b, a._d) == (c._a, c._b, c._d) == (2, -3, 4)


def test_the_constructor_reads_ints_bools_fractions_and_strings_only():
    class Int(int):
        pass

    class Frac(Fraction):
        pass

    assert gr(True, False) == gr(1) and gr(False, True) == I
    assert gr(Int(3), Frac(1, 2)) == gr(3, Fraction(1, 2))
    assert gr("3/6", Fraction(-2, 4)) == gr(Fraction(1, 2), Fraction(-1, 2))
    for bad in (1.5, None, 1j, [1], Fraction(1, 2) * 1.0):
        for args in ((bad,), (1, bad), (bad, "1/2"), (Fraction(1, 3), bad)):
            with pytest.raises(TypeError, match="^cannot interpret .* as exact rationals$"):
                gr(*args)
    for text in ("abc", "1/2/3", "", "i"):
        with pytest.raises(ValueError):
            gr(text)
        with pytest.raises(ValueError):
            gr(1, text)
    with pytest.raises(ZeroDivisionError):
        gr("1/0")
