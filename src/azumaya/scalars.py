"""Exact scalars: rationals and Gaussian rationals, over Q(i) with no floating point.

A :class:`GaussianRational` is three Python ints ``(a, b, d)`` for ``(a + b*i) / d``,
one common denominator as in FLINT's ``fmpq``, kept canonical (``d > 0``,
``gcd(a, b, d) == 1``) by at most one ``math.gcd`` per operation, so identities are
tested with ``==``.  Integer kernels leave the objects through ``clear_denominators``
(a row of values as one denominator and Gaussian-integer ``(re, im)`` pairs) and come
back through ``from_pair``.  ``Fraction`` is met only at the edges: the constructor reads it,
and ``.re``, ``.im``, ``norm()`` and ``sort_key()`` return it.  Values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction  # the plain rational type, canonical: gcd(|num|, den) == 1, den > 0
_new = object.__new__
_PARTS = {int, bool, Fraction, str}  # the types of the parts the constructor reads
_EXACT = (int, Fraction)  # other operands are left to their reflected method (NotImplemented)


def _make(a: int, b: int, d: int) -> "GaussianRational":
    x = _new(GaussianRational)  # trusted: (a, b, d) is already canonical
    x._a, x._b, x._d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    g = gcd(d, a, b)  # (a + b*i) / d for d > 0, made canonical
    return _make(a, b, d) if g == 1 else _make(a // g, b // g, d // g)


def _sum(a, b, d, c, e, f) -> "GaussianRational":  # an operand with d == 1 keeps it canonical
    if f == 1:
        return _make(a + c * d, b + e * d, d)
    if d == 1:
        return _make(a * f + c, b * f + e, f)
    if d == f:
        return _reduced(a + c, b + e, d)
    return _reduced(a * f + c * d, b * f + e * d, d * f)


class GaussianRational:
    """An element ``re + im*i`` of Q(i), held as ``(a + b*i) / d``."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:  # the common case: already canonical over 1
            self._a, self._b, self._d = re, im, 1
            return
        if not (type(re) in _PARTS and type(im) in _PARTS  # a subclass takes the isinstance test
                or all(isinstance(x, (int, str, Fraction)) for x in (re, im))):
            raise TypeError(f"cannot interpret {(re, im)!r} as exact rationals")
        re = Fraction(re) if isinstance(re, str) else re
        im = Fraction(im) if isinstance(im, str) else im
        q, s = re.denominator, im.denominator
        g = gcd(q, s)  # over lcm(q, s) each part stays coprime to the denominator
        self._a, self._b, self._d = re.numerator * (s // g), im.numerator * (q // g), q // g * s

    re = property(lambda self: Fraction(self._a, self._d))
    im = property(lambda self: Fraction(self._b, self._d))

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return _make(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def is_integer(self) -> bool:
        return not self._b and self._d == 1

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = GaussianRational.coerce(other)
        return _sum(self._a, self._b, self._d, other._a, other._b, other._d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = GaussianRational.coerce(other)
        return _sum(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = GaussianRational.coerce(other)
        a, b, d, c, e, f = self._a, self._b, self._d, other._a, other._b, other._d
        if not e:  # a real operand skips the cross terms
            re, im = a * c, b * c
        elif not b:
            re, im = a * c, a * e
        else:
            re, im = a * c - b * e, a * e + b * c
        return _make(re, im, 1) if d == 1 and f == 1 else _reduced(re, im, d * f)

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = GaussianRational.coerce(other)
        a, b, d, c, e, f = self._a, self._b, self._d, other._a, other._b, other._d
        if e:  # times the conjugate over the norm
            return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))
        if not c:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced(a * f, b * f, d * c) if c > 0 else _reduced(-a * f, -b * f, -d * c)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        out, base, k = ONE, (ONE / self if k < 0 else self), abs(k)
        while k:
            out, base, k = out * base if k & 1 else out, base * base, k >> 1
        return out

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def norm(self) -> Fraction:  # re^2 + im^2, the field norm down to Q
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def sort_key(self):  # no field order exists: canonical output and stable sorts only
        return (self.re, self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):  # equal to hash(Fraction) for real values
        return hash(self.re) if not self._b else hash((self.re, self.im))

    def __str__(self) -> str:  # canonical compact form: "a/b" when real, "a/b+c/di" otherwise
        im = self.im
        return f"{self.re}{'+' if im > 0 else '-'}{abs(im)}i" if im else str(self.re)

    def __repr__(self) -> str:
        return f"gr({self.re!r}, {self.im!r})" if self._b else f"gr({self.re!r})"

    __radd__, __rmul__ = __add__, __mul__


def clear_denominators(values):
    """``(den, pairs)`` for a sequence of GaussianRationals: ``den`` the lcm of their
    denominators and ``pairs`` the ``(re, im)`` int pairs of ``den * value``, in order."""
    den = lcm(*(x._d for x in values))
    if den == 1:
        return 1, [(x._a, x._b) for x in values]
    return den, [(x._a * (q := den // x._d), x._b * q) for x in values]


def from_pair(re: int, im: int, den: int) -> GaussianRational:
    """``(re + im*i) / den`` for ints with ``den > 0``, made canonical."""
    return _reduced(re, im, den)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor accepting ints, Fractions and 'a/b' strings."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
