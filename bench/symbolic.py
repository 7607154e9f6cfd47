"""The `symbolic` workload: polynomial-matrix computations of `higgsing`
and `kahler`, which use almost no root extraction and no Q(i) char_poly
above 2 x 2.

- sweep: fundamental_solutions + ode_residual on the constant solvable
  coefficient matrices A = [[u, u*c], [-u/c, -u]] of acceptance
  criterion 01, a seeded sample of its (u, c, lambda) grid.
- combine: HiggsSolution.combine + classify_deformation, with the degree-0
  term B0 built with a known spectrum.
- curve: spectral_curve of polynomial Higgs fields, r = 2..5.
- trace: trace_form / pullback_form on commuting pairs of 1..3 square
  matrices over Q(i)[x, y], as in acceptance criterion 08.

Every expected value is computed by the benchmark's own arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

import azumaya as az

import exact as ex
from exact import GQ
from ops import Op, expect, mpoly, scal, upoly

HALF = Fraction(1, 2)
PARAM = [1, -1, 2, -2, HALF, -HALF]
LAMBDAS = [(1, 0), (2, 0), (HALF, 0), (0, 1)]
POOL = [(0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (0, -1), (HALF, 0)]
# where the benchmark evaluates polynomial identities itself
Z0 = [GQ(0), GQ(1), GQ(Fraction(-1, 2)), GQ(2, 1)]
XY = ("x", "y")


# ---------------------------------------------------------------------------
# building library objects from plain data


def _gr(pair):
    return az.gr(pair[0], pair[1])


def poly_matrix(rows):
    """rows of coefficient lists of (re, im) pairs -> PolyMatrix in z."""
    return az.PolyMatrix([[az.UniPoly("z", [_gr(c) for c in e]) for e in row] for row in rows])


def problem(a, lam):
    return az.HiggsProblem(poly_matrix([[[x] for x in row] for row in a]), _gr(lam))


def _mpoly_matrix(rows, variables=XY):
    return az.MPolyMatrix(variables, [[az.MultiPoly(variables, {e: _gr(c) for e, c in f.items()})
                                       for f in row] for row in rows])


# ---------------------------------------------------------------------------
# own checks of polynomial-matrix outputs


def ode_holds(a, lam, b) -> bool:
    """lam * B'(z0) + A B(z0) - B(z0) A = 0 at each z0 in Z0, for a
    constant 2x2 A and B given as a grid of own coefficient lists."""
    for z0 in Z0:
        bz = [[ex.peval(e, z0) for e in row] for row in b]
        db = [[ex.peval(ex.pderiv(e), z0) for e in row] for row in b]
        comm = ex.mat_sub(ex.mat_mul(a, bz), ex.mat_mul(bz, a))
        for i in range(2):
            for j in range(2):
                if lam * db[i][j] + comm[i][j]:
                    return False
    return True


def curve_slice_holds(phi, curve) -> bool:
    """The curve (own dict poly in (z, lam)) sliced at each z0 in Z0 equals
    det(lam I - Phi(z0)); both sides have degree r in lam, so they are
    compared at lam = 0..r."""
    r = len(phi)
    for z0 in Z0:
        m = [[ex.peval(e, z0) for e in row] for row in phi]
        for t in range(r + 1):
            tg = GQ(t)
            shifted = [[(tg if i == j else ex.ZERO) - m[i][j] for j in range(r)] for i in range(r)]
            if ex.meval(curve, (z0, tg)) != ex.det(shifted):
                return False
    return True


def dtrace(x):
    """{(k,): d tr(X) / d x_k} for an own matrix X over Q(i)[x, y]."""
    t = ex.mtrace(x)
    out = {}
    for k in range(2):
        c = ex.mpartial(t, k)
        if c:
            out[(k,)] = c
    return out


def classical_form(out):
    expect(out.degree == 1, "trace form of a 1-form has degree != 1")
    return {tuple(idx): mpoly(c) for idx, c in out.coeffs.items()}


def _check_trace(want):
    def check(out):
        expect(classical_form(out) == want, "trace form differs from d tr(.)")
    return check


# ---------------------------------------------------------------------------
# generators


def solvable_a(u, c):
    """[[u, u*c], [-u/c, -u]]: (a1 - a4)^2 + 4 a2 a3 = 4u^2 - 4u^2 = 0."""
    u, c = Fraction(u), Fraction(c)
    return [[(u, 0), (u * c, 0)], [(-u / c, 0), (-u, 0)]]


def _own_const(a):
    return [[GQ(*x) for x in row] for row in a]


def check_sweep(a, lam):
    own_a, own_lam = _own_const(a), GQ(*lam)

    def check(out):
        sols, residuals = out
        expect(len(sols) == 4, "expected four fundamental solutions")
        for k, (b, res) in enumerate(zip(sols, residuals)):
            expect(res.is_zero(), "ode_residual of a fundamental solution is not zero")
            grid = [[upoly(e) for e in row] for row in b.entries]
            expect(ode_holds(own_a, own_lam, grid), "lam B' + [A, B] != 0 at a sample point")
            at0 = [[ex.peval(e, ex.ZERO) for e in row] for row in grid]
            unit = [[GQ(int(2 * i + j == k)) for j in range(2)] for i in range(2)]
            expect(at0 == unit, "B_k(0) is not the k-th matrix unit")
    return check


def sweep_op(u, c, lam):
    a = solvable_a(u, c)

    def fn():
        p = problem(a, lam)
        sols = az.fundamental_solutions(p)
        return sols, [az.ode_residual(p, b) for b in sols]
    return Op("sweep", fn, check_sweep(a, lam))


def degree0(rng, unit=ex.ONE):
    """B0 = Q T Q^-1 with T diag(n1, n2), a Jordan block, or scalar; the
    eigenvalues are multiplied by `unit`."""
    n1, n2 = unit * GQ(*rng.choice(POOL)), unit * GQ(*rng.choice(POOL))
    shape = rng.choice(("diag", "diag", "jordan", "scalar"))
    if shape == "diag" and n1 == n2:
        shape = "jordan"
    if shape != "diag":
        n2 = n1
    t = [[n1, ex.ONE if shape == "jordan" else ex.ZERO], [ex.ZERO, n2]]
    k = GQ(rng.choice((1, -1, 2)))
    q, qi = [[ex.ONE, k], [ex.ZERO, ex.ONE]], [[ex.ONE, -k], [ex.ZERO, ex.ONE]]
    if rng.random() < 0.5:
        q, qi = [[ex.ONE, ex.ZERO], [k, ex.ONE]], [[ex.ONE, ex.ZERO], [-k, ex.ONE]]
    return ex.mat_mul(ex.mat_mul(q, t), qi), sorted({n1.key(): n1, n2.key(): n2}.items()), shape


def check_combine(a, lam, b0, eigen, shape):
    own_a, own_lam = _own_const(a), GQ(*lam)
    nus = [ev for _, ev in eigen]

    def check(out):
        s, rep = out
        grid = [[upoly(e) for e in row] for row in s.b.entries]
        expect([[scal(x) for x in row] for row in s.b0.rows] == b0, "degree-0 term != bhat")
        expect(ode_holds(own_a, own_lam, grid), "lam B' + [A, B] != 0 at a sample point")
        tr = ex.padd(grid[0][0], grid[1][1])
        dt = ex.padd(ex.pmul(grid[0][0], grid[1][1]), ex.pscale(ex.pmul(grid[0][1], grid[1][0]), GQ(-1)))
        tr0 = ex.ptrim([b0[0][0] + b0[1][1]])
        dt0 = ex.ptrim([b0[0][0] * b0[1][1] - b0[0][1] * b0[1][0]])
        expect(tr == tr0 and dt == dt0, "char poly of B differs from that of B0")
        got = [scal(x) for x in rep.eigenvalues]
        if shape == "diag":
            expect(rep.case == "a" and got == nus, f"case/eigenvalues {rep.case} {got}")
            expect(upoly(rep.kernel_ideal) == ex.from_roots(nus), "kernel ideal != (v-n1)(v-n2)")
        else:
            expect(rep.case == "b" and got == nus * 2, f"case/eigenvalues {rep.case} {got}")
            expect(rep.filtered == (shape == "jordan"), "filtered flag")
            want_ideal = ex.from_roots(nus * (2 if shape == "jordan" else 1))
            expect(upoly(rep.kernel_ideal) == want_ideal, "kernel ideal")
        for nu, basis in rep.components:
            nu = scal(nu)
            for v in basis:
                v = [upoly(e) for e in v]
                for i in range(2):
                    acc = []
                    for j in range(2):
                        e = ex.padd(grid[i][j], [-nu] if i == j else [])
                        acc = ex.padd(acc, ex.pmul(e, v[j]))
                    expect(not acc, "kernel line is not killed by B - nu")
    return check


def combine_op(rng, u, c, lam, unit=ex.ONE):
    a = solvable_a(u, c)
    b0, eigen, shape = degree0(rng, unit)
    bhat = [(x.re, x.im) for row in b0 for x in row]

    def fn():
        p = problem(a, lam)
        s = az.HiggsSolution.combine(p, [_gr(x) for x in bhat])
        return s, az.classify_deformation(p, s)
    return Op("combine", fn, check_combine(a, lam, b0, eigen, shape))


def random_poly_matrix(rng, r, degree=2, unit=ex.ONE):
    """r x r coefficient lists of (re, im) pairs, each coefficient drawn
    from POOL (or zero) and multiplied by `unit`."""
    rows = []
    for _ in range(r):
        row = []
        for _ in range(r):
            coeffs = [unit * GQ(*rng.choice(POOL)) if rng.random() < 0.6 else ex.ZERO for _ in range(degree + 1)]
            row.append([(c.re, c.im) for c in coeffs])
        rows.append(row)
    return rows


def own_poly_matrix(rows):
    return [[ex.ptrim([GQ(*c) for c in e]) for e in row] for row in rows]


def check_curve(phi):
    def check(out):
        expect(tuple(out.vars) == ("z", "lambda"), "curve variables")
        expect(curve_slice_holds(phi, mpoly(out)), "curve sliced at z0 != det(lam - Phi(z0))")
    return check


def curve_op(rng, r, unit=ex.ONE):
    rows = random_poly_matrix(rng, r, unit=unit)
    return Op("curve", lambda: az.spectral_curve(poly_matrix(rows)), check_curve(own_poly_matrix(rows)))


def rand_mpoly(rng, degree):
    out = {}
    for _ in range(4):
        e = tuple(rng.randrange(0, degree + 1) for _ in range(2))
        c = GQ(*rng.choice(POOL))
        if sum(e) <= degree and c:
            out[e] = c
    return out


def commuting_pair(rng, r, unit=ex.ONE):
    """Two polynomials of degree <= 2 in one matrix W with linear entries,
    the entries multiplied by `unit`."""
    w = [[ex.mscale(rand_mpoly(rng, 1), unit) for _ in range(r)] for _ in range(r)]
    ident = [[ex.mconst(2, ex.ONE) if i == j else {} for j in range(r)] for i in range(r)]

    def poly_of():
        acc = [[{} for _ in range(r)] for _ in range(r)]
        power = ident
        for _ in range(3):
            c = GQ(*rng.choice(POOL))
            acc = [[ex.madd(x, ex.mscale(y, c)) for x, y in zip(ra, rb)] for ra, rb in zip(acc, power)]
            power = ex.mmat_mul(power, w)
        return acc
    return poly_of(), poly_of()


def plain_mpoly_matrix(m):
    return [[{e: (c.re, c.im) for e, c in f.items()} for f in row] for row in m]


def eval_on_pair(f, m1, m2):
    """f(M1, M2) for an own polynomial f in two variables and own commuting
    matrices over Q(i)[x, y]."""
    r = len(m1)
    out = [[{} for _ in range(r)] for _ in range(r)]
    for e, c in f.items():
        t = [[ex.mconst(2, c) if i == j else {} for j in range(r)] for i in range(r)]
        for _ in range(e[0]):
            t = ex.mmat_mul(t, m1)
        for _ in range(e[1]):
            t = ex.mmat_mul(t, m2)
        out = [[ex.madd(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(out, t)]
    return out


def trace_ops(rng, r, unit=ex.ONE):
    m, mp = commuting_pair(rng, r, unit)
    pm, pmp = plain_mpoly_matrix(m), plain_mpoly_matrix(mp)
    a, b = GQ(*rng.choice(POOL)), GQ(*rng.choice(POOL))
    lin = [[ex.madd(ex.mscale(x, a), ex.mscale(y, b)) for x, y in zip(ra, rb)] for ra, rb in zip(m, mp)]
    prod = ex.mmat_mul(m, mp)
    f = rand_mpoly(rng, 2)
    pf = {e: (c.re, c.im) for e, c in f.items()}
    fm = eval_on_pair(f, m, mp)
    ag, bg = _gr((a.re, a.im)), _gr((b.re, b.im))

    def linear():
        x, y = _mpoly_matrix(pm), _mpoly_matrix(pmp)
        return az.trace_form(az.d(x * ag + y * bg))

    def leibniz():
        return az.trace_form(az.leibniz_expand(_mpoly_matrix(pm), _mpoly_matrix(pmp)))

    def product():
        return az.trace_form(az.d(_mpoly_matrix(pm) * _mpoly_matrix(pmp)))

    def passover():
        x, y = _mpoly_matrix(pm), _mpoly_matrix(pmp)
        return az.trace_form(az.d(y).left_mul(x) - az.d(y).right_mul(x))

    def chain():
        phi = az.MorphismToAffine(("u", "v"), (_mpoly_matrix(pm), _mpoly_matrix(pmp)))
        g = az.MultiPoly(("u", "v"), {e: _gr(c) for e, c in pf.items()})
        return az.trace_form(az.pullback_form(phi, az.classical_d(g)))

    return [
        Op("trace", linear, _check_trace(dtrace(lin))),
        Op("trace", leibniz, _check_trace(dtrace(prod))),
        Op("trace", product, _check_trace(dtrace(prod))),
        Op("trace", passover, _check_trace({})),
        Op("pullback", chain, _check_trace(dtrace(fm))),
    ]


SWEEP_OPS = 48
COMBINE_OPS = 24
CURVE_SIZES = [2] * 5 + [3] * 6 + [4] * 6 + [5] * 2
TRACE_SIZES = [1, 1, 2, 2, 2, 2, 3, 3]


UNITS = [GQ(1), GQ(0, 1), GQ(-1), GQ(0, -1)]


def build(seed: int):
    # `shape` fixes every input's structure and so the cost of a pass; the
    # seed only flips signs and multiplies by units, which leaves the cost
    # alone but changes every coefficient of the inputs and outputs.
    shape = random.Random("symbolic")
    rng = random.Random(f"symbolic-{seed}")
    grid = [(u, c, lam) for u in PARAM for c in PARAM for lam in LAMBDAS]
    ops = [sweep_op(u * rng.choice((1, -1)), c * rng.choice((1, -1)), lam)
           for u, c, lam in shape.sample(grid, SWEEP_OPS)]
    ops += [combine_op(shape, *shape.choice(grid), unit=rng.choice(UNITS)) for _ in range(COMBINE_OPS)]
    ops += [curve_op(shape, r, rng.choice(UNITS)) for r in CURVE_SIZES]
    for r in TRACE_SIZES:
        ops += trace_ops(shape, r, rng.choice(UNITS))
    return ops
