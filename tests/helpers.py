"""Shared test oracles and seeded generators.

Every oracle here is deliberately implemented by a different route than
the library path it checks: brute-force evaluation kernels instead of
Krylov chains, conjugate-partition partial sums instead of rank formulas,
Gauss-Jordan elimination over the field instead of fraction-free
elimination over Z[i].
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from operator import add

from azumaya.higgsing import PolyMatrix
from azumaya.linalg import Matrix
from azumaya.poly import MultiPoly, UniPoly, monomials_up_to
from azumaya.scalars import GaussianRational, ONE, ZERO, clear_denominators, from_pair, gr
from azumaya.zi import _gi_div, _zi_cleared, _zi_cross, _zi_dot, _zi_quo, _zx_addmul

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
        ker = rref_kernel(list(zip(*cols)), d + 1)
        if ker:
            coeffs = list(ker[0])
            p = UniPoly(var, coeffs)
            return p.monic()
    raise AssertionError("no vanishing polynomial of degree <= r")


# ---------------------------------------------------------------------------
# minimal polynomial as the lcm of the Krylov-local ones, over Q(i)


def _krylov_local_min_poly(a, den: int, i: int, var: str) -> UniPoly:
    """Monic minimal polynomial of m = a / den relative to the i-th standard
    basis vector, for a grid a of (re, im) int pairs, by a fraction-free
    incremental echelon of the Krylov vectors a^k e_i."""
    n = len(a)
    kept = []  # (pivot column, reduced vector, combination)
    v = [(0, 0)] * n
    v[i] = (1, 0)
    for k in range(n + 1):
        w, comb = v, [(0, 0)] * k + [(1, 0)]
        for c, row, rcomb in kept:
            f = w[c]
            if f == (0, 0):
                continue
            w = _zi_cross(w, row, row[c], f)
            comb = _zi_cross(comb, rcomb + [(0, 0)] * (len(comb) - len(rcomb)), row[c], f)
        piv = next((j for j, x in enumerate(w) if x != (0, 0)), None)
        g = (gcd(*(x for pair in w for x in pair), *(x for pair in comb for x in pair)), 0)
        w, comb = _zi_quo(w, g), _zi_quo(comb, g)
        if piv is None:
            return UniPoly(var, [_gi_div(x, comb[k], den ** (k - j)) for j, x in enumerate(comb)])
        kept.append((piv, w, comb))
        v = [_zi_dot(row, v) for row in a]
    raise AssertionError("Krylov chain exceeded matrix size")


def lcm_min_poly(m: Matrix, var: str = "z") -> UniPoly:
    """The minimal polynomial of m as the lcm, by Euclid over Q(i), of its
    minimal polynomials relative to the standard basis vectors."""
    den, a = _zi_cleared(m.rows)
    out = UniPoly.one(var)
    for i in range(m.nrows):
        local = _krylov_local_min_poly(a, den, i, var)
        out = local if not out.degree else out.lcm(local)
        if out.degree == m.nrows:
            break
    return out


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
    ker = rref_kernel(rows, len(monos))
    reduced, _ = rref(ker, len(monos))
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


def loop_precede(j1, j2) -> bool:
    """The closure order as orbits.precede first decided it: equal
    support-length data and rank(J1^j) <= rank(J2^j) at every point for
    every j from 1 up to the largest part."""
    if j1.support() != j2.support():
        return False
    for (_, p1), (_, p2) in zip(j1.entries, j2.entries):
        for j in range(1, max(p1[0] if p1 else 0, p2[0] if p2 else 0) + 1):
            if sum(max(x - j, 0) for x in p1) > sum(max(x - j, 0) for x in p2):
                return False
    return True


def jordan_nilpotent(parts) -> Matrix:
    """Block-diagonal nilpotent Jordan matrix with the given block sizes."""
    return jordan_matrix([(ZERO, size) for size in parts])


def rand_partition(rng: random.Random, n: int):
    """Random parts summing to n, in the order drawn."""
    parts = []
    while sum(parts) < n:
        parts.append(rng.randint(1, n - sum(parts)))
    return parts


def partitions_of(n: int):
    """All partitions of n, each weakly decreasing, in lexicographic order."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(remaining, maxpart), 0, -1):
            rec(remaining - k, k, prefix + [k])

    rec(n, n, [])
    return out


def jordan_matrix(blocks) -> Matrix:
    """Block-diagonal matrix of Jordan blocks, given as (eigenvalue, size)
    pairs, upper bidiagonal."""
    diag, sup = [], []
    for ev, size in blocks:
        diag += [gr(ev) if isinstance(ev, int) else ev] * size
        sup += [ONE] * (size - 1) + [ZERO]
    n = len(diag)
    return Matrix([[diag[i] if j == i else sup[i] if j == i + 1 else ZERO for j in range(n)] for i in range(n)])


def block_diagonal(blocks) -> Matrix:
    """The block-diagonal matrix of square matrices."""
    n = sum(b.nrows for b in blocks)
    rows, base = [], 0
    for b in blocks:
        for r in b.rows:
            rows.append([ZERO] * base + list(r) + [ZERO] * (n - base - b.nrows))
        base += b.nrows
    return Matrix(rows)


def conjugate(m: Matrix, p: Matrix) -> Matrix:
    """p m p^-1, with p^-1 from the Gauss-Jordan oracle."""
    return p * m * rref_solve(p, Matrix.identity(m.nrows))


def big_invertible(rng: random.Random, n: int, digits: int, den_digits: int = 0) -> Matrix:
    """L * U for unit lower and upper triangular L and U with Gaussian
    integer entries of `digits` digits, so of determinant 1; with
    `den_digits`, each row is then divided by its own denominator of that
    many digits."""
    def unit_triangular(lower):
        def entry(i, j):
            if i == j or (j < i) != lower:
                return ONE if i == j else ZERO
            return gr(rng.randrange(-10 ** digits, 10 ** digits), rng.randrange(-10 ** digits, 10 ** digits))
        return Matrix([[entry(i, j) for j in range(n)] for i in range(n)])
    rows = (unit_triangular(True) * unit_triangular(False)).rows
    if den_digits:
        dens = [rng.randrange(10 ** (den_digits - 1), 10 ** den_digits) for _ in rows]
        rows = [[x / d for x in r] for r, d in zip(rows, dens)]
    return Matrix(rows)


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over the field


def rref(rows, ncols: int):
    """Reduced row echelon over the field; returns (rows, pivot columns)."""
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rref_kernel(rows, ncols: int):
    """The canonical kernel basis read off `rref`: one vector per free
    column, 1 there, 0 at the other free columns and after."""
    a, pivots = rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, pc in zip(a, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return tuple(basis)


def rref_solve(a: Matrix, b: Matrix) -> Matrix:
    """a * x = b read off `rref` of [a | b], with the refusals of `solve_exact`."""
    if a.nrows != b.nrows:
        raise ValueError("dimension mismatch in solve")
    rows, pivots = rref([ra + rb for ra, rb in zip(a.rows, b.rows)], a.ncols + b.ncols)
    if any(p >= a.ncols for p in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) != a.ncols:
        raise ValueError("coefficient matrix does not have full column rank")
    return Matrix([row[a.ncols:] for row in rows[:a.ncols]])


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


def poly_matrix_mul(a, b):
    """The product of two PolyMatrix, each entry a sum of `unipoly_mul`s;
    the result is in the variable of the non-constant operand, or of a when
    both are constant."""
    var = b.var if a.is_constant() and not b.is_constant() else a.var
    cols = tuple(zip(*b.rows))
    return PolyMatrix([[sum((unipoly_mul(x, y) for x, y in zip(r, c)), UniPoly.zero(var)) for c in cols]
                       for r in a.rows], var)


def gauge_solutions(a1, a2, a3, a4, lam, var: str):
    """B_ij = g E_ij g^-1 in the order E11, E12, E21, E22, for
    g = I - (z/lam) N, g^-1 = I + (z/lam) N and N = A - (tr A / 2) I, built
    entry by entry from UniPoly products of whatever a_i are passed in:
    the closed forms of `higgsing` for constant a_i under the solvability
    constraint, and a probe of how they fail for polynomial ones."""
    t = UniPoly.x(var) * (ONE / lam)
    h, p, q = t * (a1 - a4) * (ONE / 2), t * a2, t * a3
    g, ginv = ((1 - h, -p), (-q, 1 + h)), ((1 + h, p), (q, 1 - h))
    return tuple(PolyMatrix([[x * y for y in ginv[j]] for x in (g[0][i], g[1][i])], var)
                 for i in range(2) for j in range(2))


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
