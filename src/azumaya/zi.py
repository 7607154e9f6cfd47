"""Gaussian-integer arithmetic: the integer passes of the exact kernels.

Values over Q(i) enter the layer through `scalars.clear_denominators`, as
one denominator and the (re, im) int pairs of den * value, and leave it
through `scalars.from_pair`, one call per nonzero coefficient.  In between
everything is ints:

- a Gaussian integer is an ``(re, im)`` pair, and a vector a list of pairs
  (`_zi_dot`, `_zi_cross` and `_zi_quo`, the row steps of `linalg`);
- a dense polynomial over Z[i] is a list of pairs, lowest degree first,
  with no trailing (0, 0) (the zero polynomial is []); its accumulator is
  two int lists, re and im.  `_zx_addmul` is its one product, shared by
  `UniPoly.__mul__`, `higgsing.ode_residual` and `_zx_dot`, the dot
  product with which `higgsing.spectral_curve` runs `linalg._berkowitz`,
  each entry of a `PolyMatrix` product is summed and `_powmod` squares;
- a sparse multivariate one is a dict from packed exponents to pairs: the
  exponents (e_1..e_n) pack into the int sum_i e_i * 2^(w*i) (Kronecker
  substitution; von zur Gathen & Gerhard, Modern Computer Algebra, section
  8.4), so the product of two monomials is the sum of two ints, with no
  carry while every exponent stays below 2^w.  `_zi_addmul` is its one
  product and `_zi_adddot` its dot product, shared by the `MultiPoly` and
  `MPolyMatrix` products, the trace contraction of `kahler` and
  `linalg.ring_det`.  An accumulator may hold pairs that cancelled to
  (0, 0);
- over F_{q^2} = Z[i]/(q), for a prime q = 3 (mod 4), a polynomial is a
  dense one with its pairs reduced mod q, for the modular root finding of
  `roots`.

The layer returns pairs, lists, term dicts and coefficient tuples; the
polynomial and matrix types are built by the modules that own them.
"""

from __future__ import annotations

from .scalars import ZERO, clear_denominators, from_pair

# ---------------------------------------------------------------------------
# in and out of the layer


def _regroup(items, groups):
    """items, in order, in lists as long as the sequences of groups."""
    it = iter(items)
    return [[next(it) for _ in g] for g in groups]


def _zi_cleared(groups):
    """(den, pairs): den the lcm of the denominators of the GaussianRationals
    in the sequences groups, and each sequence times den, as a list of Z[i]
    pairs."""
    den, pairs = clear_denominators([c for g in groups for c in g])
    return den, _regroup(pairs, groups)


def _zi_packed(polys, factors: int = 2):
    """(den, width, dicts): den the lcm of the denominators of every
    coefficient of the MultiPolys, and each one times den as a sparse Z[i]
    polynomial, its exponents packed at `width` bits per variable, enough
    for a product of `factors` of them."""
    den, pairs = clear_denominators([c for p in polys for c in p.terms.values()])
    w = (factors * max((x for p in polys for e in p.terms for x in e), default=0)).bit_length()
    it = iter(pairs)
    return den, w, [{sum(x << w * i for i, x in enumerate(e)): next(it) for e in p.terms} for p in polys]


def _zi_grids(grids, factors: int = 2):
    """(den, width, grids): `_zi_packed` of the entries of grids of
    MultiPolys, in grids of the same shape."""
    rows = [row for g in grids for row in g]
    den, w, flat = _zi_packed([e for row in rows for e in row], factors)
    return den, w, _regroup(_regroup(flat, rows), grids)


def _zi_unpacked(acc, den: int, w: int, n: int) -> dict:
    """The terms of acc / den, for acc packed at w bits for each of n
    variables: exponent tuples to GaussianRationals, with one from_pair per
    nonzero coefficient."""
    mask, shifts = (1 << w) - 1, [w * i for i in range(n)]
    return {tuple(e >> s & mask for s in shifts): from_pair(re, im, den)
            for e, (re, im) in acc.items() if re or im}


def _zx_out(re, im, den: int) -> tuple:
    """The coefficients (re + im*i) / den of a dense accumulator, as
    GaussianRationals without the trailing zeros."""
    if not (any(re) or any(im)):
        return ()
    cs = [from_pair(x, y, den) if x or y else ZERO for x, y in zip(re, im)]
    while cs[-1] is ZERO:
        cs.pop()
    return tuple(cs)


def _zx_values(f, den: int) -> tuple:
    """The coefficients of f / den as GaussianRationals, for f a dense Z[i]
    polynomial."""
    return tuple([from_pair(x, y, den) if x or y else ZERO for x, y in f])


def _gi_div(z, c, s: int = 1):
    """z / (c * s) as a GaussianRational, for Gaussian integers z and c != 0
    and an int s > 0: z times the conjugate of c, over |c|^2 * s."""
    (x, y), (cr, ci) = z, c
    return from_pair(x * cr + y * ci, y * cr - x * ci, (cr * cr + ci * ci) * s)


# ---------------------------------------------------------------------------
# vectors over Z[i]


def _zi_cross(u, r, p, f):
    """[p * x - f * t for x, t in zip(u, r)] over Z[i]."""
    (pr, pi), (fr, fi) = p, f
    if pi or fi:
        return [(pr * x - pi * y - fr * s + fi * t, pr * y + pi * x - fr * t - fi * s)
                for (x, y), (s, t) in zip(u, r)]
    return [(pr * x - fr * s, pr * y - fr * t) for (x, y), (s, t) in zip(u, r)]


def _zi_quo(u, d, m=(1, 0)):
    """[x * m / d for x in u] over Z[i], each quotient exact."""
    (mr, mi), (dr, di) = m, d
    if di:  # times m * conj(d), over |d|^2
        mr, mi, dr = mr * dr + mi * di, mi * dr - mr * di, dr * dr + di * di
    if mi:
        return [((x * mr - y * mi) // dr, (x * mi + y * mr) // dr) for x, y in u]
    return u if mr == dr == 1 else [(x * mr // dr, y * mr // dr) for x, y in u]


def _zi_dot(u, v):
    """The dot product of two sequences of Z[i] (re, im) pairs, up to the end
    of the shorter."""
    re = im = 0
    for (a, b), (c, d) in zip(u, v):
        if d:
            re += a * c - b * d
            im += a * d + b * c
        elif c:  # a real entry of v skips the cross terms
            re += a * c
            im += b * c
    return (re, im)


# ---------------------------------------------------------------------------
# dense polynomials over Z[i]


def _zx_addmul(re, im, u, v, sign=1):
    """Add sign * u * v, for sign 1 or -1, into the coefficients re + im*i
    (two int lists, long enough) of a dense polynomial over Z[i], for u and
    v lists of (re, im) pairs, lowest degree first.  A zero coefficient of u
    is skipped and a real one skips the cross terms.  The indices are
    counted by hand, which is cheaper than enumerate on the short lists of
    most products."""
    i = 0
    for a, b in u:
        if sign < 0:
            a, b = -a, -b
        k = i
        if b:
            for c, d in v:
                re[k] += a * c - b * d
                im[k] += a * d + b * c
                k += 1
        elif a:
            for c, d in v:
                re[k] += a * c
                im[k] += a * d
                k += 1
        i += 1


def _zx_dot(u, v):
    """The sum of the products of u and v entry by entry, up to the end of
    the shorter, for sequences of dense Z[i] polynomials."""
    pairs = [(f, g) for f, g in zip(u, v) if f and g]
    n = max([len(f) + len(g) - 1 for f, g in pairs], default=0)
    re, im = [0] * n, [0] * n
    for f, g in pairs:
        _zx_addmul(re, im, f, g)
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    return list(zip(re[:n], im[:n]))


def _zx_deriv(f):
    """The derivative of a dense polynomial over Z[i]."""
    return [(k * a, k * b) for k, (a, b) in enumerate(f[1:], 1)]


def _zx_exact_quo(f, d):
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


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over Z[i]


def _zi_addmul(acc, f, g):
    """Add the product f * g of two Z[i] polynomials into acc."""
    get = acc.get
    gs = g.items()
    for e1, (a, b) in f.items():
        for e2, (c, d) in gs:
            e = e1 + e2
            p = get(e)
            if p is None:
                acc[e] = (a * c - b * d, a * d + b * c)
            else:
                acc[e] = (p[0] + a * c - b * d, p[1] + a * d + b * c)


def _zi_adddot(acc, u, v):
    """acc plus the sum of the products of u and v entry by entry, up to the
    end of the shorter, for Z[i] polynomials, with the cancelled terms
    dropped."""
    for f, g in zip(u, v):
        _zi_addmul(acc, f, g)
    return {e: x for e, x in acc.items() if x[0] or x[1]}


def _zi_neg(f):
    return {e: (-a, -b) for e, (a, b) in f.items()}


def _zi_matmul(a, b):
    """The product of two grids of Z[i] polynomials."""
    cols = list(zip(*b))
    return [[_zi_adddot({}, row, col) for col in cols] for row in a]


def _zi_partial(f, k: int, w: int):
    """The partial derivative of a Z[i] polynomial, packed at w bits per
    variable, by its k-th variable."""
    shift, mask, out = k * w, (1 << w) - 1, {}
    for e, (a, b) in f.items():
        if j := e >> shift & mask:
            out[e - (1 << shift)] = (j * a, j * b)
    return out


# ---------------------------------------------------------------------------
# Gaussian integers modulo m, and polynomials over F_{q^2}


def _gi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_inv(x, m):
    """x^-1 mod m, for m a power of a prime q = 3 (mod 4) and x != 0 mod q."""
    t = pow(x[0] * x[0] + x[1] * x[1], -1, m)
    return (x[0] * t % m, -x[1] * t % m)


def _symmetric(f, m):
    """The pairs of f mod m as residues in (-m/2, m/2]."""
    return [tuple(c - m if c > m // 2 else c for c in x) for x in f]


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
    out = [(1, 0)]
    while e:
        if e & 1:
            out = _divmod(_zx_dot([out], [f]), h, q)[1]
        f = _divmod(_zx_dot([f], [f]), h, q)[1]
        e >>= 1
    return out
