import random
from fractions import Fraction

from azumaya.poly import MultiPoly, UniPoly
from azumaya.scalars import GaussianRational, clear_denominators, gr
from azumaya.zi import (
    _gi_div,
    _regroup,
    _zi_cleared,
    _zi_packed,
    _zi_partial,
    _zi_unpacked,
    _zx_addmul,
    _zx_deriv,
    _zx_out,
)
from helpers import rand_scalar

POOL = [gr(0), gr(1), gr(-1), gr(2), gr(0, 1), gr(0, -3), gr(Fraction(1, 2)), gr(Fraction(-2, 3), Fraction(1, 5))]


def test_zx_addmul_adds_sign_times_the_product_into_the_accumulator():
    u = [(1, 2), (3, 0), (0, 0), (0, -1)]  # 1+2i + 3z - i z^3
    v = [(2, -1), (-4, 0), (5, 3)]
    start_re, start_im = [7, -1, 0, 2, 9, 4, 6], [-7, 3, 1, 0, -2, 5, 8]
    want = [GaussianRational(0)] * 7
    for i, x in enumerate(u):
        for j, y in enumerate(v, i):
            want[j] += gr(*x) * gr(*y)
    for sign in (1, -1):
        re, im = list(start_re), list(start_im)
        _zx_addmul(re, im, u, v, sign)
        assert [gr(x, y) for x, y in zip(re, im)] == [gr(x, y) + sign * w
                                                       for x, y, w in zip(start_re, start_im, want)]
        _zx_addmul(re, im, v, u, -sign)  # the product commutes, so this undoes it
        assert (re, im) == (start_re, start_im)


def test_gaussian_quotient_agrees_with_field_division():
    rng = random.Random(21)
    for _ in range(300):
        z = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        k = rng.randint(1, 10**4)
        # c real, purely imaginary and general, of either sign
        for c in ((k * rng.choice((1, -1)), 0), (0, k * rng.choice((1, -1))), (rng.randint(-99, 99) or 1, k)):
            for s in (1, rng.randint(2, 10**9)):
                assert _gi_div(z, c, s) == gr(*z) / (gr(*c) * s)


def test_cleared_groups_keep_their_values_and_shape():
    rng = random.Random(22)
    for _ in range(50):
        groups = [tuple(rand_scalar(rng, POOL) for _ in range(rng.randrange(4))) for _ in range(rng.randrange(5))]
        den, pairs = _zi_cleared(groups)
        assert den == clear_denominators([c for g in groups for c in g])[0]
        assert [[gr(x, y) / den for x, y in g] for g in pairs] == [list(g) for g in groups]
    assert _regroup("abcdef", [(1, 2), (), (3,), (4, 5, 6)]) == [["a", "b"], [], ["c"], ["d", "e", "f"]]


def test_pack_partial_unpack_agrees_with_multipoly_partial():
    rng = random.Random(23)
    for nvars in (1, 2, 3):
        variables = ("x", "y", "z")[:nvars]
        for _ in range(40):
            terms = {tuple(rng.randrange(6) for _ in variables): rand_scalar(rng, POOL) for _ in range(rng.randrange(6))}
            f = MultiPoly(variables, terms)
            den, w, (packed,) = _zi_packed([f])
            assert _zi_unpacked(packed, den, w, nvars) == f.terms
            for k in range(nvars):
                assert _zi_unpacked(_zi_partial(packed, k, w), den, w, nvars) == f.partial(k).terms


def test_dense_derivative_agrees_with_unipoly_deriv():
    rng = random.Random(24)
    for _ in range(100):
        p = UniPoly("z", [rand_scalar(rng, POOL) for _ in range(rng.randrange(7))])
        den, pairs = clear_denominators(p.coeffs)
        d = _zx_deriv(pairs)
        assert _zx_out([x for x, _ in d], [y for _, y in d], den) == p.deriv().coeffs


def test_dense_out_drops_a_zero_result_and_a_cancelled_top():
    assert _zx_out([0, 0, 0], [0, 0, 0], 7) == ()
    assert _zx_out([], [], 1) == ()
    # (z + i)(z - i) - (z^2 + 2) = -1: the top two coefficients cancel
    re, im = [0] * 3, [0] * 3
    _zx_addmul(re, im, [(0, 1), (1, 0)], [(0, -1), (1, 0)])
    _zx_addmul(re, im, [(2, 0), (0, 0), (1, 0)], [(1, 0)], -1)
    assert (re, im) == ([-1, 0, 0], [0, 0, 0])
    assert _zx_out(re, im, 3) == (gr(Fraction(-1, 3)),)
    # a zero below the top stays
    assert _zx_out([4, 0, 0, 2], [0, 0, 0, -6], 4) == (gr(1), gr(0), gr(0), gr(Fraction(1, 2), Fraction(-3, 2)))
