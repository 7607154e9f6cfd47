"""Complete linear factorization of univariate polynomials over Q(i).

Modular method (Loos, SIAM J. Comput. 12(2), 1983; von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 6 and 14-15).  p, cleared to Z[i]
and made monic as g(y) = lc^(n-1) p(y/lc), has the roots y = lc*x for the
roots x of p in Q(i).  If g is squarefree mod one of the first few primes
q = 3 (mod 4), so is p (g is monic, so a repeated root stays repeated mod
q), and that q is kept.  Only otherwise is p replaced by its squarefree
part h = p / gcd(p, p') over Q(i), and g rebuilt from h; this is always the
route when p has a repeated root.  The roots of g mod the first prime
q = 3 (mod 4) with g squarefree mod q lie in F_{q^2} = Z[i]/(q).  While
q^2 is small they are found by evaluating g at every residue, beyond that
by Cantor-Zassenhaus, whose cost grows with log q rather than q^2.  Each
is Newton-lifted past twice a Cauchy bound and kept if g vanishes on it
exactly.  Each is a simple root mod q and lifts uniquely, so none is
missed: a factor of p left after deflating by every root has no root in
Q(i), and SpectrumNotSplit names it.
"""

from __future__ import annotations

from itertools import islice, product
from math import isqrt

from .errors import SpectrumNotSplit
from .poly import UniPoly, _zx_addmul
from .scalars import GaussianRational, ZERO, clear_denominators

# a monic g squarefree mod one of this many first primes q = 3 (mod 4)
# proves p squarefree, and the gcd over Q(i) is skipped
_SQUAREFREE_TRIES = 4
# for q^2 up to this, the roots mod q are found by evaluating g at every
# residue of F_{q^2} rather than by Cantor-Zassenhaus
_ENUMERATE_MAX = 128


def _gi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_inv(x, m):
    """x^-1 mod m, for m a power of a prime q = 3 (mod 4) and x != 0 mod q."""
    t = pow(x[0] * x[0] + x[1] * x[1], -1, m)
    return (x[0] * t % m, -x[1] * t % m)


def _eval(f, x, m=0):
    """f(x), reduced mod m, or exact when m is 0."""
    a = b = 0
    for c, d in reversed(f):
        a, b = a * x[0] - b * x[1] + c, a * x[1] + b * x[0] + d
        if m:
            a, b = a % m, b % m
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
    return tuple(c - m if c > m // 2 else c for c in r)


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
    return g, [(k * a, k * b) for k, (a, b) in enumerate(g)][1:], c[-1]


def _squarefree_mod(g, dg, q):
    return len(_gcd(_reduce(g, q), _reduce(dg, q), q)) == 1


def _distinct_roots(p: UniPoly):
    """The distinct roots in Q(i) of p, of degree >= 2 with p(0) != 0."""
    g, dg, lc = _monic(p)
    primes = _primes_3_mod_4()
    q = next((q for q in islice(primes, _SQUAREFREE_TRIES) if _squarefree_mod(g, dg, q)), None)
    if q is None:
        d = p.gcd(p.deriv())
        if d.degree > 0:
            g, dg, lc = _monic(p.exact_div(d))
            primes = _primes_3_mod_4()
        # else g is unchanged and the primes already tried fail again
        q = next(q for q in primes if _squarefree_mod(g, dg, q))
    gq = _reduce(g, q)
    if q * q <= _ENUMERATE_MAX:
        mod_q = [r for r in product(range(q), repeat=2) if _eval(gq, r, q) == (0, 0)]
    else:
        x = [(0, 0), (1, 0)]
        mod_q = _split(_gcd(gq, _sub(_powmod(x, q * q, gq, q), x, q), q), q)
    bound = 1 + max(abs(a) + abs(b) for a, b in g[:-1])
    out = []
    for r in mod_q:
        y = _lift(g, dg, r, q, bound)
        if _eval(g, y) == (0, 0):
            out.append(GaussianRational(*y) / GaussianRational(*lc))
    return out


def _deflate(p: UniPoly, root: GaussianRational) -> UniPoly:
    """Synthetic division of p by (x - root); caller guarantees p(root) = 0."""
    n = p.degree
    out = [ZERO] * n
    acc = ZERO
    for k in range(n, 0, -1):
        acc = acc * root + p.coeffs[k]
        out[k - 1] = acc
    return UniPoly(p.var, out)


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
        for r in _distinct_roots(p):
            p = _deflate(p, r)
            roots[r] = 1
            while p(r).is_zero():
                p = _deflate(p, r)
                roots[r] += 1
        if p.degree >= 1:
            raise SpectrumNotSplit(f"no linear factorization over Q(i): {p}")
    return tuple(sorted(roots.items(), key=lambda kv: kv[0].sort_key()))
