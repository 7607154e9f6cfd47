import random
from fractions import Fraction

import pytest

from azumaya.higgsing import PolyMatrix
from azumaya.kahler import MPolyMatrix
from azumaya.linalg import Matrix
from azumaya.poly import MultiPoly, UniPoly, monomials_up_to
from azumaya.scalars import ONE, GaussianRational, clear_denominators, gr
from azumaya.zi import _zx_addmul, _zx_out
from helpers import SMALL_POOL, rand_matrix, rand_scalar, unipoly_mul


z = UniPoly.x("z")


def rand_unipoly(rng, max_deg=4):
    return UniPoly("z", [rand_scalar(rng) for _ in range(rng.randrange(0, max_deg + 2))])


def test_leading_coefficient_trimmed():
    p = UniPoly("z", [1, 2, 0, 0])
    assert p.degree == 1 and p.coeffs == (gr(1), gr(2))
    assert UniPoly("z", [0, 0]).is_zero()


def test_divmod_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        a = rand_unipoly(rng)
        b = rand_unipoly(rng)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_gcd_lcm():
    p = (z - 1) * (z - 2) ** 2
    q = (z - 2) * (z + 3)
    assert p.gcd(q) == (z - 2)
    assert p.lcm(q) == ((z - 1) * (z - 2) ** 2 * (z + 3)).monic()


def test_eval_matrix_horner():
    m = Matrix([[0, 1], [0, 0]])
    assert (z**2).eval_matrix(m).is_zero()
    p = z**2 - 3 * z + 2
    comp = Matrix([[0, -2], [1, 3]])
    assert p.eval_matrix(comp).is_zero()


def test_exact_div_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        (z**2 + 1).exact_div(z - 1)


def test_constants_adopt_the_other_variable():
    c = UniPoly.constant(gr(5), "v")
    assert (c + z).var == "z" and (c * z).var == "z"
    assert (z + c).var == "z" and (z * c).var == "z"
    with pytest.raises(ValueError):
        z + UniPoly.x("v")


def test_multipoly_canonical_term_order():
    f = MultiPoly(("x", "y"), {(0, 2): 1, (1, 0): 2, (0, 0): 3, (1, 1): 4})
    assert [e for e, _ in f.sorted_terms()] == [(0, 0), (1, 0), (0, 2), (1, 1)]
    assert not MultiPoly(("x",), {(0,): 0}).terms


def test_multipoly_arithmetic_and_partial():
    x = MultiPoly.variable(("x", "y"), "x")
    y = MultiPoly.variable(("x", "y"), "y")
    f = (x + y) ** 2
    assert f == x * x + 2 * (x * y) + y * y
    assert f.partial(0) == 2 * x + 2 * y
    assert f.eval_scalars([gr(1), gr(2)]) == 9


def test_eval_generic_on_commuting_matrices():
    x = MultiPoly.variable(("x", "y"), "x")
    y = MultiPoly.variable(("x", "y"), "y")
    f = x * y - y * x
    a = Matrix.diag([1, 2])
    b = Matrix.diag([3, 4])
    assert f.eval_generic([a, b], Matrix.identity(2)).is_zero()

    # sparse polynomials with exponents up to 7, against a term-by-term product
    rng = random.Random(41)
    ident = Matrix.identity(3)
    m = rand_matrix(rng, 3)
    family = [m, m * m + ident * 2, ident - m]  # polynomials in m commute
    for variables in (("x",), ("x", "y"), ("x", "y", "w")):
        n = len(variables)
        polys = [MultiPoly.zero(variables), MultiPoly.constant(variables, gr(2, -1))]
        for _ in range(10):
            terms = {tuple(rng.randrange(8) for _ in range(n)): rand_scalar(rng) for _ in range(rng.randrange(1, 6))}
            polys.append(MultiPoly(variables, terms))
        scalars = [rand_scalar(rng) for _ in range(n)]
        for f in polys:
            want = _term_by_term(f, scalars, gr(1))
            assert f.eval_scalars(scalars) == f.eval_generic(scalars, gr(1)) == want
            assert f.eval_generic(family[:n], ident) == _term_by_term(f, family[:n], ident)


def _term_by_term(f, values, one):
    """f on values, each term built from one * c by one product per unit of exponent."""
    acc = one * 0
    for e, c in f.terms.items():
        t = one * c
        for v, k in zip(values, e):
            for _ in range(k):
                t = t * v
        acc = acc + t
    return acc


def test_monomials_up_to_counts():
    # C(D + k, k) monomials of degree <= D in k variables
    assert len(monomials_up_to(1, 5)) == 6
    assert len(monomials_up_to(2, 2)) == 6
    assert len(monomials_up_to(3, 2)) == 10


def _power_cases():
    """(value, the one of its ring) for each type with a power."""
    t, xy = UniPoly.x("t"), ("x", "y")
    x, y = MultiPoly.variable(xy, "x"), MultiPoly.variable(xy, "y")
    return [
        (gr(Fraction(2, 3), -1), ONE),
        (UniPoly("t", [gr(1, 1), Fraction(1, 2), -1]), UniPoly.one("t")),
        (x * gr(1, 2) + y * Fraction(1, 3) + 1, MultiPoly.constant(xy, 1)),
        (Matrix([[1, gr(0, 1)], [Fraction(1, 2), 2]]), Matrix.identity(2)),
        (PolyMatrix([[t + 1, 1], [0, t * gr(0, 1)]], "t"), PolyMatrix.identity(2, "t")),
        (MPolyMatrix(xy, [[x, 1], [y * Fraction(1, 2), 0]]), MPolyMatrix.identity(xy, 2)),
    ]


@pytest.mark.parametrize("value, one", _power_cases(), ids=lambda v: type(v).__name__)
def test_a_power_is_the_repeated_product(value, one):
    products = [one]
    for k in range(10):
        got = value ** k
        assert got == products[k] and type(got) is type(value)
        assert getattr(got, "vars", None) == getattr(value, "vars", None)
        assert getattr(got, "var", None) == getattr(value, "var", None)
        products.append(products[k] * value)
    if isinstance(value, GaussianRational):
        for k in range(1, 4):
            assert value ** -k == ONE / products[k]


def test_unipoly_multi_lift():
    p = z**2 - 3 * z + 2
    f = p.as_multi(("z", "v"), 0)
    assert f.eval_scalars([gr(1), gr(99)]) == 0


# ---------------------------------------------------------------------------
# arithmetic results are canonical and agree with sympy's exact Q(i)[...]


ORACLE_POOL = [gr(0), gr(0), gr(1), gr(-1), gr(2), gr(0, 1), gr(Fraction(1, 2)), gr(Fraction(-2, 3), Fraction(1, 5))]
SCALARS = [0, 3, Fraction(-1, 2), gr(0), gr(1, -1), gr(Fraction(2, 3), 2)]


def _oracle_unipolys(rng):
    """Seeded polynomials in z of degree <= 4 (zero and constants among
    them, some with inner zero coefficients), plus constants in w."""
    ps = [UniPoly("z", [rand_scalar(rng, ORACLE_POOL) for _ in range(rng.randrange(0, 6))]) for _ in range(30)]
    ps += [UniPoly.zero("z"), UniPoly.one("z"), UniPoly.constant(gr(2, 1), "w"), UniPoly.zero("w"), z ** 3 - 1]
    return ps


def _oracle_multipolys(rng, variables=("x", "y")):
    ps = []
    for _ in range(20):
        terms = {}
        for _ in range(rng.randrange(0, 5)):
            terms[(rng.randrange(3), rng.randrange(3))] = rand_scalar(rng, ORACLE_POOL)
        ps.append(MultiPoly(variables, terms))
    return ps + [MultiPoly.zero(variables), MultiPoly.constant(variables, gr(0, -1))]


def _assert_canonical_uni(p, var):
    assert type(p) is UniPoly and p.var == var
    assert all(type(c) is GaussianRational for c in p.coeffs)
    assert p.coeffs == UniPoly(p.var, p.coeffs).coeffs
    assert not p.coeffs or not p.coeffs[-1].is_zero()


WIDE_POOL = SMALL_POOL + [gr(3, -5), gr(Fraction(-2, 3), Fraction(5, 7)), gr(0, Fraction(1, 4)),
                          gr(Fraction(7, 6)), gr(-4, 1)]


def test_products_match_the_object_level_oracle():
    rng = random.Random(29)

    def poly(var, max_deg, pool):
        return UniPoly(var, [rand_scalar(rng, pool) for _ in range(rng.randrange(0, max_deg + 2))])

    zero, five_w = UniPoly.zero("w"), UniPoly.constant(gr(5, -1), "w")
    cases = [(zero, z), (z, zero), (zero, zero), (five_w, z * z - 1), (z - 1, five_w), (five_w, five_w),
             (z + 1, z - 1), (z - gr(0, 1), z + gr(0, 1)), (UniPoly("z", [gr(Fraction(1, 2)), gr(0, 1)]),) * 2]
    for pool in (SMALL_POOL, WIDE_POOL):
        for max_deg in (0, 1, 3, 6):
            cases += [(poly("z", max_deg, pool), poly(rng.choice("zw") if max_deg == 0 else "z", 4, pool))
                      for _ in range(25)]
    for a, b in cases:
        got, want = a * b, unipoly_mul(a, b)
        _assert_canonical_uni(got, want.var)
        assert got.coeffs == want.coeffs
    with pytest.raises(ValueError, match="^variable mismatch: z vs v$"):
        z * UniPoly.x("v")


def _zi_path_product(a, b):
    """a * b as the Z[i] pass makes it: both cleared to one denominator,
    multiplied by `zi._zx_addmul` and divided by its square."""
    var = a.var if b.degree < 1 else b.var
    if not a.coeffs or not b.coeffs:
        return UniPoly(var, ())
    den, pairs = clear_denominators(a.coeffs + b.coeffs)
    n = len(a.coeffs) + len(b.coeffs) - 1
    re, im = [0] * n, [0] * n
    _zx_addmul(re, im, pairs[:len(a.coeffs)], pairs[len(a.coeffs):])
    return UniPoly._new(var, _zx_out(re, im, den * den))


def test_a_constant_operand_gives_the_product_of_the_zi_pass():
    rng = random.Random(31)
    pool = WIDE_POOL + [gr(Fraction(10**12 + 1, 3 * 10**9), -7), gr(Fraction(-5, 10**15), Fraction(1, 9))]

    def poly(var, length):
        return UniPoly(var, [rand_scalar(rng, pool) for _ in range(length)])

    cases = [(poly("z", 1), poly(rng.choice("zw"), rng.randrange(0, 7))) for _ in range(150)]
    cases += [(poly("w", rng.randrange(0, 2)), poly("z", rng.randrange(0, 2))) for _ in range(50)]
    for c, p in cases:
        for a, b in ((c, p), (p, c)):
            got, want = a * b, _zi_path_product(a, b)
            assert got.var == want.var
            assert [(x._a, x._b, x._d) for x in got.coeffs] == [(x._a, x._b, x._d) for x in want.coeffs]


def _assert_canonical_multi(p, variables):
    assert type(p) is MultiPoly and p.vars == variables
    for e, c in p.terms.items():
        assert type(c) is GaussianRational and not c.is_zero()
        assert type(e) is tuple and len(e) == len(variables) and all(type(k) is int and k >= 0 for k in e)


def test_arithmetic_results_are_canonical_and_agree_with_sympy():
    pytest.importorskip("sympy")
    from sympy import Poly, symbols
    from sympy.polys.domains import QQ, QQ_I

    gens = symbols("z x y")

    def to_qq_i(c):
        c = GaussianRational.coerce(c)
        return QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))

    def from_qq_i(c):
        return gr(Fraction(int(c.x.numerator), int(c.x.denominator)),
                  Fraction(int(c.y.numerator), int(c.y.denominator)))

    def uni(p):  # every UniPoly goes to z: a constant in w is a constant in z
        return Poly.from_dict({(k,): to_qq_i(c) for k, c in enumerate(p.coeffs) if c} or {(0,): QQ_I(0)},
                              gens[0], domain=QQ_I)

    def multi(p):
        return Poly.from_dict({e: to_qq_i(c) for e, c in p.terms.items()} or {(0, 0): QQ_I(0)},
                              *gens[1:], domain=QQ_I)

    def terms_of(s):
        return {e: from_qq_i(c) for e, c in s.as_dict(native=True).items() if c}

    def check_uni(got, want, var):
        _assert_canonical_uni(got, var)
        assert {(k,): c for k, c in enumerate(got.coeffs) if c} == terms_of(want)

    def check_multi(got, want, variables=("x", "y")):
        _assert_canonical_multi(got, variables)
        assert got.terms == terms_of(want)

    rng = random.Random(77)
    ps = _oracle_unipolys(rng)
    for p in ps:
        sp = uni(p)
        check_uni(-p, -sp, p.var)
        check_uni(p.deriv(), sp.diff(gens[0]), p.var)
        check_uni(p - p, sp - sp, p.var)
        check_uni(p + (-p), sp - sp, p.var)
        for c in SCALARS:
            sc = uni(UniPoly.constant(c, "z"))
            check_uni(p * c, sp * sc, p.var)
            check_uni(p + c, sp + sc, p.var)
            check_uni(p - c, sp - sc, p.var)
            check_uni(c * p, sp * sc, p.var)
            check_uni(c + p, sc + sp, p.var)
            check_uni(c - p, sc - sp, p.var)
        for q in rng.sample(ps, 8) + [-p + UniPoly("z", [1]), -p]:
            sq = uni(q)
            var = q.var if p.is_constant() and not q.is_constant() else p.var
            check_uni(p + q, sp + sq, var)
            check_uni(p - q, sp - sq, var)
            check_uni(p * q, sp * sq, var)
            if not q.is_zero():
                quo, rem = p.divmod(q)
                want_quo, want_rem = sp.div(sq)
                check_uni(quo, want_quo, p.var)
                check_uni(rem, want_rem, p.var)

    ms = _oracle_multipolys(rng)
    for p in ms:
        sp = multi(p)
        check_multi(-p, -sp)
        check_multi(p - p, sp - sp)
        check_multi(p + (-p), sp - sp)
        for k in range(2):
            check_multi(p.partial(k), sp.diff(gens[1 + k]))
        for c in SCALARS:
            sc = multi(MultiPoly.constant(p.vars, c))
            check_multi(p * c, sp * sc)
            check_multi(p + c, sp + sc)
            check_multi(p - c, sp - sc)
            check_multi(c * p, sp * sc)
            check_multi(c + p, sc + sp)
            check_multi(c - p, sc - sp)
        for q in rng.sample(ms, 8) + [-p + MultiPoly.constant(p.vars, 1), -p]:
            sq = multi(q)
            check_multi(p + q, sp + sq)
            check_multi(p - q, sp - sq)
            check_multi(p * q, sp * sq)
