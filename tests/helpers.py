"""Shared test oracles and seeded generators.

Every oracle here is deliberately implemented by a different route than
the library path it checks: brute-force evaluation kernels instead of
Krylov chains, conjugate-partition partial sums instead of rank formulas,
naive field elimination instead of fraction-free elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add

from azumaya.linalg import Matrix, kernel_basis, rref
from azumaya.poly import MultiPoly, UniPoly, _zx_addmul, monomials_up_to
from azumaya.scalars import GaussianRational, ONE, ZERO, clear_denominators, from_pair, gr

SMALL_POOL = [gr(0), gr(1), gr(-1), gr(2), gr(0, 1), gr(0, -1), gr(Fraction(1, 2))]


def rand_scalar(rng: random.Random, pool=SMALL_POOL) -> GaussianRational:
    return pool[rng.randrange(len(pool))]


def rand_matrix(rng: random.Random, r: int, pool=SMALL_POOL) -> Matrix:
    return Matrix([[rand_scalar(rng, pool) for _ in range(r)] for _ in range(r)])


def rand_upper_triangular(rng: random.Random, r: int, pool=SMALL_POOL) -> Matrix:
    rows = []
    for i in range(r):
        row = [ZERO] * i + [rand_scalar(rng, pool) for _ in range(r - i)]
        rows.append(row)
    return Matrix(rows)


def rand_invertible(rng: random.Random, r: int) -> Matrix:
    from azumaya.linalg import rank

    while True:
        m = rand_matrix(rng, r)
        if rank(m) == r:
            return m


# ---------------------------------------------------------------------------
# brute-force minimal polynomial: kernel of evaluation on 1, z, ..., z^d


def brute_min_poly(m: Matrix, var: str = "z") -> UniPoly:
    r = m.nrows
    powers = [Matrix.identity(r)]
    for _ in range(r):
        powers.append(powers[-1] * m)
    for d in range(0, r + 1):
        cols = [p.vec() for p in powers[: d + 1]]
        ker = kernel_basis(Matrix.from_columns(cols))
        if ker:
            coeffs = list(ker[0])
            p = UniPoly(var, coeffs)
            return p.monic()
    raise AssertionError("no vanishing polynomial of degree <= r")


# ---------------------------------------------------------------------------
# brute-force vanishing ideal at explicit points


def brute_vanishing_at_points(points, nvars: int, degree: int, variables):
    monos = monomials_up_to(nvars, degree)
    rows = []
    for pt in points:
        row = []
        for e in monos:
            val = ONE
            for x, k in zip(pt, e):
                val = val * x**k
            row.append(val)
        rows.append(row)
    ker = kernel_basis(Matrix(rows))
    reduced, _ = rref([list(v) for v in ker], len(monos))
    out = []
    for row in reduced:
        if all(c.is_zero() for c in row):
            continue
        out.append(MultiPoly(variables, dict(zip(monos, row))))
    return tuple(out)


def span_signature(polys, nvars: int, degree: int):
    """Canonical signature of the span of polynomials of degree <= degree."""
    monos = monomials_up_to(nvars, degree)
    rows = []
    for f in polys:
        rows.append([f.terms.get(e, ZERO) for e in monos])
    if not rows:
        return ()
    reduced, _ = rref(rows, len(monos))
    out = []
    for row in reduced:
        if any(not c.is_zero() for c in row):
            out.append(tuple((c.re, c.im) for c in row))
    return tuple(out)


# ---------------------------------------------------------------------------
# dominance order by conjugate-partition partial sums


def conjugate_partition(parts):
    if not parts:
        return ()
    out = []
    for j in range(1, parts[0] + 1):
        out.append(sum(1 for x in parts if x >= j))
    return tuple(out)


def dominates(lam, mu) -> bool:
    """lam <= mu in the dominance order, decided through conjugates:
    partial sums of conj(mu) never exceed those of conj(lam)."""
    if sum(lam) != sum(mu):
        return False
    cl, cm = conjugate_partition(lam), conjugate_partition(mu)
    n = max(len(cl), len(cm))
    sl = sm = 0
    for k in range(n):
        sl += cl[k] if k < len(cl) else 0
        sm += cm[k] if k < len(cm) else 0
        if sm > sl:
            return False
    return True


def jordan_nilpotent(parts) -> Matrix:
    """Block-diagonal nilpotent Jordan matrix with the given block sizes."""
    n = sum(parts)
    rows = [[ZERO] * n for _ in range(n)]
    base = 0
    for size in parts:
        for i in range(size - 1):
            rows[base + i][base + i + 1] = ONE
        base += size
    return Matrix(rows)


# ---------------------------------------------------------------------------
# naive (non-fraction-free) rank over the field


def naive_rank(m: Matrix) -> int:
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(r + 1, nr):
            f = a[i][c]
            if not f.is_zero():
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


# ---------------------------------------------------------------------------
# object-level polynomial arithmetic over GaussianRationals: the products,
# the determinant and the trace contraction that the integer passes over
# Z[i][z] and Z[i][z_1..z_n] replaced; and the Bareiss characteristic
# polynomial over Z[i][x] that Berkowitz's recurrence replaced


def unipoly_mul(p: UniPoly, q: UniPoly) -> UniPoly:
    """p * q coefficient by coefficient, one GaussianRational product per
    pair of coefficients; a constant takes the other operand's variable."""
    if p.var == q.var or q.degree < 1:
        var = p.var
    elif p.degree < 1:
        var = q.var
    else:
        raise ValueError(f"variable mismatch: {p.var} vs {q.var}")
    out = [ZERO] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs, i):
            out[j] = out[j] + x * y
    return UniPoly(var, out)


def mpoly_mul(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """f * g term by term, one GaussianRational product per pair of terms."""
    if f.vars != g.vars:
        raise ValueError(f"variable mismatch: {f.vars} vs {g.vars}")
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return MultiPoly(f.vars, out)


def mpoly_dot(u, v):
    """The sum of the products of u and v entry by entry, u not empty."""
    products = [mpoly_mul(f, g) for f, g in zip(u, v)]
    return sum(products[1:], products[0])


def mpoly_matrix_mul(a, b):
    """The product of two MPolyMatrix, each entry a dot product of a row and
    a column."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    cols = tuple(zip(*b.rows))
    return a._new([mpoly_dot(r, c) for c in cols] for r in a.rows)


def cofactor_det(rows, zero, one):
    """Determinant by expansion along rows, memoized over column masks."""
    n = len(rows)
    if n == 0:
        return one
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square grid")
    memo = {}

    def minor(r, mask):
        if r == n:
            return one
        if mask not in memo:
            acc, sign = zero, 1
            for c in range(n):
                if not mask & 1 << c:
                    term = mpoly_mul(rows[r][c], minor(r + 1, mask | 1 << c))
                    acc = acc + term if sign == 1 else acc - term
                    sign = -sign
            memo[mask] = acc
        return memo[mask]

    return minor(0, 0)


def bareiss_char_poly(m: Matrix, var: str = "lambda") -> UniPoly:
    """det(x*I - m) by one-step Bareiss elimination over Z[i][x].

    Row i of x*I - m is first multiplied by d_i, the lcm of the
    denominators in row i of m, so every entry lies in Z[i][x].  The k-th
    pivot is then d_1...d_k times the leading principal k x k minor of
    x*I - m, a monic polynomial of degree k: no row is ever swapped, and
    the last pivot is d_1...d_n times the determinant, divided out once.
    Each step (x * p - f * t) / prev is an exact division over Z[i][x].
    """
    n = m.nrows
    if n == 0:
        return UniPoly.one(var)
    a, scale = [], 1
    for i, row in enumerate(m.rows):
        d, pairs = clear_denominators(row)
        scale *= d
        a.append([[(-re, -im), (d, 0)] if j == i else [(-re, -im)] if re or im else []
                  for j, (re, im) in enumerate(pairs)])
    prev = [(1, 0)]
    for c in range(n - 1):
        top, p = a[c], a[c][c]
        for row in a[c + 1:]:
            f = row[c]
            for j in range(c + 1, n):
                row[j] = _zx_exact_div(_zx_sub_products(row[j], p, f, top[j]), prev)
        prev = p
    return UniPoly._new(var, tuple(from_pair(re, im, scale) for re, im in a[n - 1][n - 1]))


def _zx_sub_products(x, p, f, t):
    """x * p - f * t over Z[i][x], as (re, im) int lists without trailing zeros."""
    size = max(len(x) + len(p), len(f) + len(t), 1) - 1
    re, im = [0] * size, [0] * size
    _zx_addmul(re, im, x, p)
    _zx_addmul(re, im, f, t, -1)
    while size and not (re[size - 1] or im[size - 1]):
        size -= 1
    return re[:size], im[:size]


def _zx_exact_div(num, den):
    """The quotient of num = (re, im) by den over Z[i][x], den with a positive
    integer leading coefficient; raises ArithmeticError unless it is exact."""
    re, im = num
    lead, top = den[-1][0], len(den) - 1
    q = [None] * max(len(re) - top, 0)
    for k in range(len(q) - 1, -1, -1):
        (a, ra), (b, rb) = divmod(re[k + top], lead), divmod(im[k + top], lead)
        if ra or rb:
            raise ArithmeticError("inexact division over Z[i][x]")
        q[k] = (a, b)
        for j, (c, d) in enumerate(den[:top]):
            re[k + j] -= a * c - b * d
            im[k + j] -= a * d + b * c
    if any(re[:top]) or any(im[:top]):
        raise ArithmeticError("inexact division over Z[i][x]")
    return q


def contracted_trace_form(w):
    """trace_form by slot contraction: the product of the pre-factor with
    each slot's partial and post-factor, and for the last slot the sum of
    dpart[i][j] * q[j][i] with q = post * acc."""
    from azumaya.kahler import ClassicalForm

    coeffs = {}

    def accumulate(acc, slots, idx):
        (dm, post), rest = slots[0], slots[1:]
        dparts = [dm.partial(k) for k in range(len(w.vars))]
        if rest:
            for k, dpart in enumerate(dparts):
                if not dpart.is_zero():
                    accumulate(mpoly_matrix_mul(mpoly_matrix_mul(acc, dpart), post), rest, idx + (k,))
            return
        q = mpoly_matrix_mul(post, acc).transpose().vec()
        for k, dpart in enumerate(dparts):
            if not dpart.is_zero():
                c = mpoly_dot(dpart.vec(), q)
                key = idx + (k,)
                coeffs[key] = coeffs[key] + c if key in coeffs else c

    for t in w.terms:
        accumulate(t.pre, t.factors, ())
    return ClassicalForm(w.vars, w.degree, coeffs)


# ---------------------------------------------------------------------------
# root extraction by the Q(i) route: squarefree part by the gcd over Q(i),
# roots mod q by evaluation at every residue, lifting one q-adic digit at a
# time, deflation and evaluation in GaussianRational


def _qi_monic(h: UniPoly):
    """h cleared to Z[i] and made monic, g(y) = lc^(n-1) h(y / lc): g, g', lc."""
    c = clear_denominators(h.coeffs)[1]
    n, lc = len(c) - 1, GaussianRational(*c[-1])
    g = [GaussianRational(*ck) * lc ** (n - 1 - k) for k, ck in enumerate(c[:-1])] + [ONE]
    g = [(x.re.numerator, x.im.numerator) for x in g]
    return g, [(k * a, k * b) for k, (a, b) in enumerate(g)][1:], lc


def _zi_value(f, a, b, m):
    """f(a + b i) mod m, as a pair."""
    re = im = 0
    for c, d in reversed(f):
        re, im = (re * a - im * b + c) % m, (re * b + im * a + d) % m
    return re, im


def _simple_roots_mod(g, dg, q):
    """The roots of g in Z[i]/(q), q = 3 (mod 4), as pairs with the inverse
    of g' at each; None if g' vanishes at one of them."""
    out = []
    for a in range(q):
        for b in range(q):
            if _zi_value(g, a, b, q) == (0, 0):
                c, d = _zi_value(dg, a, b, q)
                if (c, d) == (0, 0):
                    return None
                t = pow(c * c + d * d, -1, q)
                out.append(((a, b), (c * t % q, -d * t % q)))
    return out


def qi_split_roots(p: UniPoly):
    """split_roots by the Q(i) route.  p is replaced by p / gcd(p, p') over
    Q(i) and made monic over Z[i] as g, whose roots y = lc * x have real and
    imaginary parts of at most 1 + max |g_j| (Cauchy).  At the first prime
    q = 3 (mod 4) where g' vanishes at no root of g mod q, every root of g
    in Z[i] is one of those roots mod q, lifted one q-adic digit at a time
    past twice the bound.  A candidate y / lc is kept if p vanishes on it,
    and p is deflated over Q(i) by each root as often as it vanishes there."""
    from azumaya.errors import SpectrumNotSplit

    if p.is_zero():
        raise ValueError("the zero polynomial has no root multiset")
    found = {}
    k0 = 0
    while p.coeffs[k0].is_zero():
        k0 += 1
    if k0:
        found[ZERO] = k0
        p = UniPoly(p.var, p.coeffs[k0:])
    if p.degree == 1:
        found[-p.coeffs[0] / p.coeffs[1]] = 1
    elif p.degree >= 2:
        g, dg, lc = _qi_monic(p.exact_div(p.gcd(p.deriv())))
        q = 3
        while any(q % t == 0 for t in range(3, q, 2)) or (mod_q := _simple_roots_mod(g, dg, q)) is None:
            q += 4
        bound = 1 + max(abs(a) + abs(b) for a, b in g[:-1])
        for (a, b), (c, d) in mod_q:
            m = q
            while m <= 2 * bound:
                # a + b i is a root mod m; the next digit t makes it one mod m q
                u, v = (x // m for x in _zi_value(g, a, b, m * q))
                ta, tb = -(u * c - v * d) % q, -(u * d + v * c) % q
                a, b, m = a + m * ta, b + m * tb, m * q
            root = gr(a - m if 2 * a > m else a, b - m if 2 * b > m else b) / lc
            while p(root).is_zero():
                quo = [ZERO] * p.degree
                acc = ZERO
                for k in range(p.degree, 0, -1):
                    acc = acc * root + p.coeffs[k]
                    quo[k - 1] = acc
                p = UniPoly(p.var, quo)
                found[root] = found.get(root, 0) + 1
        if p.degree >= 1:
            raise SpectrumNotSplit(f"no linear factorization over Q(i): {p}")
    return tuple(sorted(found.items(), key=lambda kv: kv[0].sort_key()))
