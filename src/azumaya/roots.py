"""Complete linear factorization of univariate polynomials over Q(i).

Modular method (Loos, SIAM J. Comput. 12(2), 1983; von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 5, 6 and 14-15), in Z[i] until the
roots are returned.  p, cleared to Z[i] and made monic as
g(y) = lc^(n-1) p(y/lc), has the roots y = lc*x in Z[i] for the roots x of
p in Q(i).  h is g if g is squarefree mod 3, and otherwise g / gcd(g, g')
by a modular gcd (_squarefree_part).  The roots of h mod the first prime
q = 3 (mod 4) with h squarefree mod q lie in F_{q^2} = Z[i]/(q): found by
evaluating h at every residue while q^2 is small, by Cantor-Zassenhaus
beyond.  Each is Newton-lifted past twice a Fujiwara bound, and synthetic
division of g by (y - Y) both certifies a candidate Y (its remainder is
g(Y)) and counts its multiplicity.  Every root of g is a simple root of h
mod q and lifts uniquely, so none is missed: what is left of g has no root
in Q(i), and SpectrumNotSplit names the matching factor of p.
"""

from __future__ import annotations

from itertools import chain, product
from math import isqrt
from operator import itemgetter

from .errors import SpectrumNotSplit
from .poly import UniPoly
from .scalars import ZERO, clear_denominators
from .zi import (_divmod, _eval, _gcd, _gi_div, _gi_inv, _gi_mul, _powmod, _reduce, _sub, _symmetric,
                 _zx_deriv, _zx_exact_quo)

# exponents e of the Mersenne primes 2^e - 1 (each = 3 mod 4), the first
# primes of the modular gcd; the first serves alone on the usual input
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)
# for q^2 up to this, the roots mod q are found by evaluating at every
# residue of F_{q^2} rather than by Cantor-Zassenhaus
_ENUMERATE_MAX = 128


def _split(f, q):
    """The roots in F_{q^2} of f, a product of distinct linear factors."""
    if len(f) < 2:
        return []
    if len(f) == 2:
        a, b = _gi_mul(f[0], _gi_inv(f[1], q))
        return [(-a % q, -b % q)]
    # (y + a)^((q^2 - 1)/2) is 1 exactly at the roots r with r + a a nonzero
    # square, and some shift a in F_{q^2} separates any two roots
    for k in range(q * q):
        w = _powmod([(k % q, k // q), (1, 0)], (q * q - 1) // 2, f, q)
        h = _gcd(f, _sub(w, [(1, 0)], q), q)
        if 2 <= len(h) < len(f):
            return _split(h, q) + _split(_divmod(f, h, q)[0], q)
    raise AssertionError("no shift splits a squarefree product")  # pragma: no cover


def _lift(g, dg, r, q, bound):
    """Newton-lift the simple root r of g mod q until the modulus exceeds
    2 * bound; the symmetric residue is the only candidate root in Z[i]."""
    m = q
    while m <= 2 * bound:
        m *= m
        a, b = _gi_mul(_eval(g, r, m), _gi_inv(_eval(dg, r, m), m))
        r = ((r[0] - a) % m, (r[1] - b) % m)
    return _symmetric([r], m)[0]


def _primes_3_mod_4():
    q = 3
    while True:
        if all(q % t for t in range(3, isqrt(q) + 1, 2)):
            yield q
        q += 4


def _monic(h: UniPoly):
    """h cleared to Z[i] and made monic, g(y) = lc^(n-1) h(y / lc); returns
    g, g' and lc, the leading coefficient of the cleared h."""
    c = clear_denominators(h.coeffs)[1]
    g, power = [(1, 0)], (1, 0)
    for ck in reversed(c[:-1]):
        g.append(_gi_mul(ck, power))
        power = _gi_mul(power, c[-1])
    g.reverse()
    return g, _zx_deriv(g), c[-1]


def _squarefree_mod(g, dg, q):
    return len(_gcd(_reduce(g, q), _reduce(dg, q), q)) == 1


def _squarefree_part(g, dg):
    """g / gcd(g, g') for a monic g over Z[i].

    The monic gcd d lies in Z[i][y] with real and imaginary parts of at most
    2^n ||g||_2 (Mignotte).  Its images mod the Mersenne primes, then every
    prime q = 3 (mod 4), are combined by CRT.  No gcd mod q has a lower
    degree than d, so a prime whose gcd has a higher degree is dropped, and a
    trivial one proves g squarefree.  Once the modulus passes twice the
    bound, the candidate is d unless every prime so far was unlucky, and it
    is kept only if it divides g and g' exactly.
    """
    n = len(g) - 1
    bound = (isqrt(sum(a * a + b * b for a, b in g)) + 1) << n
    deg, m, d = n - 1, 1, []
    for q in chain(((1 << e) - 1 for e in _MERSENNE_EXPONENTS), _primes_3_mod_4()):
        dq = _gcd(_reduce(g, q), _reduce(dg, q), q)
        k = len(dq) - 1
        if k == 0:
            return g
        if k > deg:
            continue
        t = _gi_inv(dq[-1], q)
        dq = [(x % q, y % q) for x, y in (_gi_mul(c, t) for c in dq)]
        if k < deg or m == 1:
            deg, m, d = k, q, dq
        else:
            t = pow(m, -1, q)
            d = [(a + m * ((c - a) * t % q), b + m * ((e - b) * t % q)) for (a, b), (c, e) in zip(d, dq)]
            m *= q
        if m > 2 * bound:
            cand = _symmetric(d, m)
            h = _zx_exact_quo(g, cand)
            if h is not None and _zx_exact_quo(dg, cand) is not None:
                return h


def _fujiwara(g):
    """A power of two at least 2 max_j |g_(n-j)|^(1/j) (Fujiwara), which
    bounds the absolute value of every root of the monic g."""
    return 2 << max(-(-(a * a + b * b).bit_length() // (2 * j))
                    for j, (a, b) in enumerate(reversed(g[:-1]), 1))


def _roots_mod(h, q):
    """The roots in F_{q^2} of h, squarefree mod q."""
    hq = _reduce(h, q)
    if q * q <= _ENUMERATE_MAX:
        return [r for r in product(range(q), repeat=2) if _eval(hq, r, q) == (0, 0)]
    x = [(0, 0), (1, 0)]
    return _split(_gcd(hq, _sub(_powmod(x, q * q, hq, q), x, q), q), q)


def split_roots(p: UniPoly):
    """Root multiset of p over Q(i), as ((root, multiplicity), ...) sorted
    by (re, im).  Raises SpectrumNotSplit if p has an irreducible factor of
    degree >= 2 over Q(i), and ValueError on the zero polynomial.  Every
    root is y / lc, so the roots sort by the Gaussian integer y * conj(lc),
    a positive multiple of the root."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no root multiset")
    roots = []  # (sort key, root, multiplicity)
    # strip roots at 0 first so constant terms below are nonzero
    k0 = 0
    while k0 <= p.degree and p.coeffs[k0].is_zero():
        k0 += 1
    if k0:
        roots.append(((0, 0), ZERO, k0))
        p = UniPoly(p.var, p.coeffs[k0:])
    if p.degree == 1:
        root = -p.coeffs[0] / p.coeffs[1]
        roots.append((clear_denominators([root])[1][0], root, 1))
    elif p.degree >= 2:
        g, dg, lc = _monic(p)
        h, dh, q = g, dg, 3
        if not _squarefree_mod(g, dg, q):
            h = _squarefree_part(g, dg)
            dh = _zx_deriv(h)
            q = next(q for q in _primes_3_mod_4() if _squarefree_mod(h, dh, q))
        bound = _fujiwara(g)
        for r in _roots_mod(h, q):
            y = _lift(h, dh, r, q, bound)
            # synthetic division: its remainder g(y) certifies the root
            mult, linear = 0, [(-y[0], -y[1]), (1, 0)]
            while (quo := _zx_exact_quo(g, linear)) is not None:
                g, mult = quo, mult + 1
            if mult:
                roots.append((_gi_mul(y, (lc[0], -lc[1])), _gi_div(y, lc), mult))
        if len(g) > 1:
            # what is left of p: coefficient j is p.lc * g_j / lc^(k - j)
            out, c = [], (1, 0)
            for x in reversed(g):
                out.append(p.coeffs[-1] * _gi_div(x, c))
                c = _gi_mul(c, lc)
            raise SpectrumNotSplit(f"no linear factorization over Q(i): {UniPoly(p.var, out[::-1])}")
    return tuple((root, mult) for _, root, mult in sorted(roots, key=itemgetter(0)))
