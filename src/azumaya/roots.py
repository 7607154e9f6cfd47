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

from .errors import SpectrumNotSplit
from .poly import UniPoly, _zx_addmul
from .scalars import ZERO, clear_denominators, from_pair

# exponents e of the Mersenne primes 2^e - 1 (each = 3 mod 4), the first
# primes of the modular gcd; the first serves alone on the usual input
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)
# for q^2 up to this, the roots mod q are found by evaluating at every
# residue of F_{q^2} rather than by Cantor-Zassenhaus
_ENUMERATE_MAX = 128


def _gi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_inv(x, m):
    """x^-1 mod m, for m a power of a prime q = 3 (mod 4) and x != 0 mod q."""
    t = pow(x[0] * x[0] + x[1] * x[1], -1, m)
    return (x[0] * t % m, -x[1] * t % m)


def _eval(f, x, m):
    """f(x) mod m."""
    a = b = 0
    for c, d in reversed(f):
        a, b = (a * x[0] - b * x[1] + c) % m, (a * x[1] + b * x[0] + d) % m
    return (a, b)


def _reduce(f, q):
    """f over F_{q^2}: pairs reduced mod q, zero leading pairs dropped."""
    f = [(a % q, b % q) for a, b in f]
    while f and f[-1] == (0, 0):
        f.pop()
    return f


def _sub(f, g, q):
    n = max(len(f), len(g))
    f, g = f + [(0, 0)] * (n - len(f)), g + [(0, 0)] * (n - len(g))
    return _reduce([(a - c, b - d) for (a, b), (c, d) in zip(f, g)], q)


def _divmod(f, g, q):
    """Quotient and remainder of f by g over F_{q^2}; f may be unreduced."""
    f, quo = list(f), []
    inv = _gi_inv(g[-1], q)
    while len(f) >= len(g):
        a, b = _gi_mul(f.pop(), inv)
        quo.append((a % q, b % q))
        k = len(f) - len(g) + 1
        for j in range(len(g) - 1):
            a, b = _gi_mul(quo[-1], g[j])
            f[k + j] = (f[k + j][0] - a, f[k + j][1] - b)
    return quo[::-1], _reduce(f, q)


def _gcd(f, g, q):
    while g:
        f, g = g, _divmod(f, g, q)[1]
    return f


def _powmod(f, e, h, q):
    """f^e mod h over F_{q^2}, by repeated squaring."""
    def mulmod(u, v):
        re, im = [0] * (len(u) + len(v) - 1), [0] * (len(u) + len(v) - 1)
        _zx_addmul(re, im, u, v)
        return _divmod(list(zip(re, im)), h, q)[1]
    out = [(1, 0)]
    while e:
        if e & 1:
            out = mulmod(out, f)
        f = mulmod(f, f)
        e >>= 1
    return out


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


def _deriv(f):
    return [(k * a, k * b) for k, (a, b) in enumerate(f)][1:]


def _monic(h: UniPoly):
    """h cleared to Z[i] and made monic, g(y) = lc^(n-1) h(y / lc); returns
    g, g' and lc, the leading coefficient of the cleared h."""
    c = clear_denominators(h.coeffs)[1]
    g, power = [(1, 0)], (1, 0)
    for ck in reversed(c[:-1]):
        g.append(_gi_mul(ck, power))
        power = _gi_mul(power, c[-1])
    g.reverse()
    return g, _deriv(g), c[-1]


def _squarefree_mod(g, dg, q):
    return len(_gcd(_reduce(g, q), _reduce(dg, q), q)) == 1


def _symmetric(f, m):
    """The pairs of f mod m as residues in (-m/2, m/2]."""
    return [tuple(c - m if c > m // 2 else c for c in x) for x in f]


def _exact_quo(f, d):
    """f / d over Z[i] for a monic d, or None if d does not divide f."""
    f, k = list(f), len(d) - 1
    quo = []
    for top in range(len(f) - 1, k - 1, -1):
        a, b = f[top]
        quo.append((a, b))
        for j in range(k):
            c, e = d[j]
            x, y = f[top - k + j]
            f[top - k + j] = (x - a * c + b * e, y - a * e - b * c)
    if any(x != (0, 0) for x in f[:k]):
        return None
    return quo[::-1]


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
            h = _exact_quo(g, cand)
            if h is not None and _exact_quo(dg, cand) is not None:
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
    degree >= 2 over Q(i), and ValueError on the zero polynomial."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no root multiset")
    roots = {}
    # strip roots at 0 first so constant terms below are nonzero
    k0 = 0
    while k0 <= p.degree and p.coeffs[k0].is_zero():
        k0 += 1
    if k0:
        roots[ZERO] = k0
        p = UniPoly(p.var, p.coeffs[k0:])
    if p.degree == 1:
        roots[-p.coeffs[0] / p.coeffs[1]] = 1
    elif p.degree >= 2:
        g, dg, lc = _monic(p)
        h, dh, q = g, dg, 3
        if not _squarefree_mod(g, dg, q):
            h = _squarefree_part(g, dg)
            dh = _deriv(h)
            q = next(q for q in _primes_3_mod_4() if _squarefree_mod(h, dh, q))
        bound = _fujiwara(g)
        norm = lc[0] * lc[0] + lc[1] * lc[1]
        for r in _roots_mod(h, q):
            y = _lift(h, dh, r, q, bound)
            # synthetic division: its remainder g(y) certifies the root
            mult, linear = 0, [(-y[0], -y[1]), (1, 0)]
            while (quo := _exact_quo(g, linear)) is not None:
                g, mult = quo, mult + 1
            if mult:
                # y / lc
                roots[from_pair(y[0] * lc[0] + y[1] * lc[1], y[1] * lc[0] - y[0] * lc[1], norm)] = mult
        if len(g) > 1:
            # what is left of p: coefficient j is p.lc * g_j / lc^(k - j)
            out, c, den = [], (1, 0), 1
            for x in reversed(g):
                out.append(p.coeffs[-1] * from_pair(*_gi_mul(x, c), den))
                c, den = _gi_mul(c, (lc[0], -lc[1])), den * norm
            raise SpectrumNotSplit(f"no linear factorization over Q(i): {UniPoly(p.var, out[::-1])}")
    return tuple(sorted(roots.items(), key=lambda kv: kv[0].sort_key()))
