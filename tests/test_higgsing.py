import random
from fractions import Fraction

import pytest

from azumaya import higgsing
from azumaya.errors import NonConstantA, SolvabilityViolated, SpectrumNotSplit
from azumaya.higgsing import (
    HiggsProblem,
    HiggsSolution,
    PolyMatrix,
    WeylTrunc,
    classify_deformation,
    fundamental_solutions,
    ode_residual,
    solvability_check,
    spectral_curve,
    weyl_commutator_check,
)
from azumaya.linalg import Matrix, char_poly
from azumaya.poly import MultiPoly, UniPoly
from azumaya.roots import split_roots
from azumaya.scalars import I, gr
from helpers import cofactor_det, gauge_solutions, poly_matrix_mul, rand_scalar


z = UniPoly.x("z")

PARAM = [gr(1), gr(-1), gr(2), gr(-2), gr(Fraction(1, 2)), gr(Fraction(-1, 2))]
SWEEP = PARAM + [gr(3), gr(-3), gr(Fraction(1, 3)), gr(Fraction(-1, 3))]
LAMBDAS = [gr(1), gr(2), gr(Fraction(1, 2)), I]
UNITS = [Matrix([[int(2 * i + j == k) for j in range(2)] for i in range(2)]) for k in range(4)]


def solvable_problem(u, c, lam) -> HiggsProblem:
    # a1 - a4 = 2u, a2 = u*c, a3 = -u/c makes the discriminant vanish
    a = PolyMatrix([[u, u * c], [-u / c, -u]])
    return HiggsProblem(a, lam)


def test_solvability_examples():
    assert solvability_check(HiggsProblem(PolyMatrix([[0, 1], [0, 0]]), 1))
    assert not solvability_check(HiggsProblem(PolyMatrix([[1, 0], [0, 0]]), 1))
    for u in (gr(1), gr(Fraction(2, 3))):
        for c in (gr(2), gr(Fraction(-1, 5))):
            assert solvability_check(solvable_problem(u, c, gr(1)))


def test_fundamental_solution_examples():
    p = HiggsProblem(PolyMatrix([[0, 1], [0, 0]]), 1)
    b1, b2, b3, b4 = fundamental_solutions(p)
    assert b1 == PolyMatrix([[UniPoly("z", (1,)), z], [0, 0]])
    assert b4 == PolyMatrix([[0, -z], [0, UniPoly("z", (1,))]])
    # A = 0: the four solutions degenerate to the matrix units
    units = fundamental_solutions(HiggsProblem(PolyMatrix.zeros(2), 1))
    assert units[0] == PolyMatrix([[1, 0], [0, 0]])
    assert units[1] == PolyMatrix([[0, 1], [0, 0]])
    assert units[2] == PolyMatrix([[0, 0], [1, 0]])
    assert units[3] == PolyMatrix([[0, 0], [0, 1]])


def test_fundamental_solution_errors():
    with pytest.raises(SolvabilityViolated):
        fundamental_solutions(HiggsProblem(PolyMatrix([[1, 0], [0, 0]]), 1))
    a = PolyMatrix([[z, z * z], [UniPoly.constant(gr(-1), "z"), -z]])
    p = HiggsProblem(a, 1)
    assert solvability_check(p)
    with pytest.raises(NonConstantA):
        fundamental_solutions(p)


def test_ode_residual_examples():
    p = HiggsProblem(PolyMatrix([[3, 7], [0, 3]]), 2)
    assert ode_residual(p, PolyMatrix.identity(2)).is_zero()
    p0 = HiggsProblem(PolyMatrix.zeros(2), 1)
    zi = PolyMatrix([[z, 0], [0, z]])
    assert ode_residual(p0, zi) == PolyMatrix.identity(2)


def test_full_parameter_sweep_residuals_vanish():
    for u in SWEEP:
        for c in SWEEP:
            for lam in LAMBDAS:
                p = solvable_problem(u, c, lam)
                # a zero residual and B_k(0) = E_k determine B_k uniquely
                for k, b in enumerate(fundamental_solutions(p)):
                    assert ode_residual(p, b).is_zero()
                    assert b.constant_part() == UNITS[k]


def test_solution_space_closed_under_linear_combinations():
    rng = random.Random(4)
    for _ in range(25):
        u, c = PARAM[rng.randrange(len(PARAM))], PARAM[rng.randrange(len(PARAM))]
        lam = LAMBDAS[rng.randrange(len(LAMBDAS))]
        p = solvable_problem(u, c, lam)
        bhat = [rand_scalar(rng) for _ in range(4)]
        sols = fundamental_solutions(p)
        b = PolyMatrix.zeros(2)
        for x, s in zip(bhat, sols):
            b = b + s * x
        assert ode_residual(p, b).is_zero()


def test_combine_is_the_sum_of_the_fundamental_solutions():
    rng = random.Random(12)
    for _ in range(25):
        u, c = PARAM[rng.randrange(len(PARAM))], PARAM[rng.randrange(len(PARAM))]
        p = solvable_problem(u, c, LAMBDAS[rng.randrange(len(LAMBDAS))])
        bhat = [rand_scalar(rng) for _ in range(4)]
        b = PolyMatrix.zeros(2)
        for x, s in zip(bhat, fundamental_solutions(p)):
            b = b + s * x
        assert HiggsSolution.combine(p, bhat).b == b


def test_nonconstant_coefficients_break_the_closed_forms():
    # Solvable with polynomial entries: a1-a4 = 2uz, a2 = u*c*z^2, a3 = -u/c.
    u, c = gr(1), gr(2)
    a1, a4 = z * u, z * (-u)
    a2 = z * z * (u * c)
    a3 = UniPoly.constant(-u / c, "z")
    p = HiggsProblem(PolyMatrix([[a1, a2], [a3, a4]]), 1)
    assert solvability_check(p)
    candidates = gauge_solutions(a1, a2, a3, a4, gr(1), "z")
    residuals = [ode_residual(p, b) for b in candidates]
    # The closed forms differentiate as if the coefficients were constant,
    # so every one of them fails the ODE here.
    assert all(not r.is_zero() for r in residuals)


def _gaussian(rng, digits):
    b = 10 ** digits - 1
    return gr(rng.randint(-b, b), rng.randint(-b, b))


@pytest.mark.parametrize("digits", [1, 10, 30])
def test_closed_forms_match_the_gauge_oracle(digits):
    rng = random.Random(40 + digits)
    for _ in range(8):
        # a1 - a4 = 2u, a2 = u c, a3 = -u / c: solvable for any s, u and c != 0
        s, u, c = _gaussian(rng, digits), _gaussian(rng, digits), _gaussian(rng, digits) or gr(1)
        a = [s + u, u * c, -u / c, s - u]
        lam = (_gaussian(rng, digits) or gr(3)) / rng.randint(1, 10 ** digits)
        p = HiggsProblem(PolyMatrix([a[:2], a[2:]]), lam)
        want = gauge_solutions(*a, lam, "z")
        assert fundamental_solutions(p) == want
        for bhat in ([gr(0)] * 4, [_gaussian(rng, digits) / rng.randint(1, 10 ** digits) for _ in range(4)],
                     [gr(0), _gaussian(rng, digits), gr(0), gr(0)], [gr(1), gr(0), gr(0), gr(1)]):
            b = PolyMatrix.zeros(2)
            for x, sol in zip(bhat, want):
                b = b + sol * x
            assert HiggsSolution.combine(p, bhat).b == b


def test_a_corrupted_closed_form_is_refused(monkeypatch):
    p = solvable_problem(gr(Fraction(2, 3)), gr(-3), I)
    gauge = higgsing._gauge

    def corrupted(*args):
        den, ((k11, k12), row) = gauge(*args)
        return den, ((k11, (k12[0] + 1, k12[1])), row)

    monkeypatch.setattr(higgsing, "_gauge", corrupted)
    with pytest.raises(AssertionError, match="^closed-form solution failed the ODE"):
        fundamental_solutions(p)
    with pytest.raises(AssertionError, match="^closed-form solution failed the ODE"):
        HiggsSolution.combine(p, (1, 2, 0, -1))


def test_a_constant_operand_takes_the_variable_of_the_other():
    t = UniPoly.x("t")
    c, m = PolyMatrix([[1, 2], [3, 4]], "z"), PolyMatrix([[t, 1], [0, t]], "t")
    cases = [(c * m, [[t, 2 * t + 1], [3 * t, 4 * t + 3]]), (m * c, [[t + 3, 2 * t + 4], [3 * t, 4 * t]]),
             (c + m, [[t + 1, 3], [3, t + 4]]), (m + c, [[t + 1, 3], [3, t + 4]]),
             (c - m, [[1 - t, 1], [3, 4 - t]]), (m - c, [[t - 1, -1], [-3, t - 4]])]
    for got, rows in cases:
        assert got.vars == ("t",) and all(e.var == "t" for row in got.rows for e in row)
        assert got == PolyMatrix(rows, "t")
    assert (c * c).vars == (c + c).vars == ("z",)
    zm = PolyMatrix([[z, 0], [0, 1]])
    for op in (lambda: zm * m, lambda: m * zm, lambda: zm + m, lambda: m - zm):
        with pytest.raises(ValueError, match="^variable mismatch"):
            op()


@pytest.mark.parametrize("r", range(1, 5))
def test_poly_matrix_product_matches_the_entrywise_oracle(r):
    rng = random.Random(60 + r)
    for _ in range(30):
        var_a, var_b = rng.choice([("z", "z"), ("z", "z"), ("t", "z"), ("z", "t")])
        a, b = (PolyMatrix([[UniPoly(v, [_rand_gaussian(rng) for _ in range(rng.randint(0, d + 1))])
                             for _ in range(r)] for _ in range(r)], v)
                for v, d in ((var_a, rng.randint(0, 3)), (var_b, rng.randint(0, 3))))
        if var_a != var_b and not (a.is_constant() or b.is_constant()):
            with pytest.raises(ValueError, match="^variable mismatch"):
                a * b
            continue
        got = a * b
        assert got == poly_matrix_mul(a, b) and got.var == (var_b if a.is_constant() and not b.is_constant() else var_a)
        assert all(e.var == got.var for row in got.rows for e in row)
    q = Matrix([[_rand_gaussian(rng) for _ in range(r)] for _ in range(r)])
    assert a * q == poly_matrix_mul(a, PolyMatrix(q.rows, a.var))
    with pytest.raises(ValueError, match="^variable mismatch"):
        q * a


def _rand_gaussian(rng):
    # zero a quarter of the time; otherwise real or Gaussian, with denominators
    kind = rng.randrange(4)
    re, im = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2))
    return gr(0) if kind == 0 else gr(re, im if kind == 3 else 0)


def _rand_poly_matrix(rng, var, max_degree):
    # entries of length 0 (zero) to max_degree + 1; length 1 is a constant
    return PolyMatrix([[UniPoly(var, [_rand_gaussian(rng) for _ in range(rng.randint(0, max_degree + 1))])
                        for _ in range(2)] for _ in range(2)], var)


@pytest.mark.parametrize("a_degree, b_var", [(0, "z"), (0, "t"), (2, "z")],
                         ids=["constant-A", "constant-A-b-in-t", "polynomial-A"])
def test_ode_residual_matches_the_matrix_product_oracle(a_degree, b_var):
    rng = random.Random(20 + a_degree + len(b_var))
    for _ in range(60):
        a = _rand_poly_matrix(rng, "z", a_degree)
        b = _rand_poly_matrix(rng, b_var, rng.choice((0, 1, 3)))
        lam = _rand_gaussian(rng) or gr(Fraction(2, 3), Fraction(-1, 5))
        res = ode_residual(HiggsProblem(a, lam), b)
        assert res == b.deriv() * lam + (a * b - b * a)
        assert all(e.var == b_var for row in res.rows for e in row)


def test_ode_residual_builds_no_polynomial_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("a polynomial product was built")

    p = solvable_problem(gr(Fraction(2, 3)), gr(-3), I)
    sols = fundamental_solutions(p)
    a = PolyMatrix([[z, z * z], [UniPoly.constant(gr(-1), "z"), -z]])
    residuals = lambda: [ode_residual(p, b) for b in sols] + [ode_residual(HiggsProblem(a, 2), sols[1])]
    expected = residuals()
    monkeypatch.setattr(PolyMatrix, "__mul__", refuse)
    monkeypatch.setattr(UniPoly, "__mul__", refuse)
    assert residuals() == expected
    assert all(r.is_zero() for r in expected[:4]) and not expected[4].is_zero()


def test_ode_residual_refusals_keep_their_text():
    p = HiggsProblem(PolyMatrix([[z, 1], [0, -z]]), 1)
    t = UniPoly.x("t")
    with pytest.raises(ValueError, match=r"^dimension mismatch$"):
        ode_residual(p, PolyMatrix.identity(3))
    with pytest.raises(ValueError, match=r"^variable mismatch: z vs t$"):
        ode_residual(p, PolyMatrix([[t, 0], [0, t]], "t"))


def test_degree_zero_term_and_char_poly_claim():
    rng = random.Random(8)
    for _ in range(40):
        u, c = PARAM[rng.randrange(len(PARAM))], PARAM[rng.randrange(len(PARAM))]
        lam = LAMBDAS[rng.randrange(len(LAMBDAS))]
        p = solvable_problem(u, c, lam)
        bhat = [rand_scalar(rng) for _ in range(4)]
        s = HiggsSolution.combine(p, bhat)
        assert s.b0 == Matrix([[bhat[0], bhat[1]], [bhat[2], bhat[3]]])
        assert s.b.char_poly_bivariate("v") == char_poly(s.b0, "v").as_multi(
            ("z", "v"), 1
        )


def test_classify_case_a():
    p = HiggsProblem(PolyMatrix.zeros(2), 1)
    s = HiggsSolution.combine(p, (1, 0, 0, 2))
    rep = classify_deformation(p, s)
    assert rep.case == "a"
    assert rep.kernel_ideal == (UniPoly.x("v") - 1) * (UniPoly.x("v") - 2)
    assert len(rep.components) == 2
    for ev, basis in rep.components:
        assert len(basis) == 1  # rank-1 kernel line


def test_classify_case_a_with_z_dependence():
    p = HiggsProblem(PolyMatrix([[0, 1], [0, 0]]), 1)
    s = HiggsSolution.combine(p, (1, 0, 0, 0))  # B = [[1, z], [0, 0]]
    rep = classify_deformation(p, s)
    assert rep.case == "a"
    assert [str(e) for e in rep.eigenvalues] == ["0", "1"]
    assert rep.kernel_ideal == UniPoly("v", (0, -1, 1))
    by_ev = {str(ev): basis for ev, basis in rep.components}
    assert by_ev["0"] == ((z, UniPoly("z", (-1,))),)
    assert by_ev["1"] == ((UniPoly.one("z"), UniPoly.zero("z")),)


def test_classify_case_b():
    p = HiggsProblem(PolyMatrix.zeros(2), 1)
    s = HiggsSolution.combine(p, (5, 0, 0, 5))
    rep = classify_deformation(p, s)
    assert rep.case == "b" and not rep.filtered
    assert rep.kernel_ideal == UniPoly("v", (-5, 1))

    s2 = HiggsSolution.combine(p, (0, 1, 0, 0))
    rep2 = classify_deformation(p, s2)
    assert rep2.case == "b" and rep2.filtered
    assert rep2.kernel_ideal == UniPoly("v", (0, 0, 1))
    (ev, basis), = rep2.components
    assert ev == gr(0) and len(basis) == 1


def test_classify_rejects_nonsolutions_and_nonsplit():
    p = HiggsProblem(PolyMatrix.zeros(2), 1)
    bad = HiggsSolution((0, 0, 0, 0), PolyMatrix([[z, 0], [0, 0]]))
    with pytest.raises(ValueError):
        classify_deformation(HiggsProblem(PolyMatrix.zeros(2), 1), bad)
    s = HiggsSolution.combine(p, (0, 2, 1, 0))  # B0 = [[0,2],[1,0]]: v^2 - 2
    with pytest.raises(SpectrumNotSplit):
        classify_deformation(p, s)


def test_spectral_curve_examples():
    lam = MultiPoly.variable(("z", "lambda"), "lambda")
    zz = MultiPoly.variable(("z", "lambda"), "z")
    assert spectral_curve(PolyMatrix([[z, 0], [0, -z]])) == lam * lam - zz * zz
    assert spectral_curve(PolyMatrix([[0, 1], [z, 0]])) == lam * lam - zz
    f = z**3 - z + 2
    assert spectral_curve(PolyMatrix([[f]])) == lam - f.as_multi(("z", "lambda"), 0)


@pytest.mark.parametrize("r", range(1, 8))
def test_spectral_curve_matches_the_cofactor_oracle(r):
    rng = random.Random(r)
    variables = ("z", "lambda")
    zero, one = MultiPoly.zero(variables), MultiPoly.constant(variables, 1)
    lam = MultiPoly.variable(variables, "lambda")
    pool = [gr(0), gr(1), gr(-2), gr(Fraction(1, 2)), gr(Fraction(-1, 3)), gr(0, 1), gr(Fraction(2, 3), 1)]
    phis = [PolyMatrix.zeros(r)]  # zero entries, then constant ones, then polynomials of degree up to 1 and 2
    for degree in (0, 1, 2):
        phis.append(PolyMatrix([[UniPoly("z", [rng.choice(pool) for _ in range(rng.randrange(degree + 2))])
                                 for _ in range(r)] for _ in range(r)]))
    for phi in phis:
        grid = [[(lam if i == j else zero) - e.as_multi(variables, 0) for j, e in enumerate(row)]
                for i, row in enumerate(phi.rows)]
        assert spectral_curve(phi) == cofactor_det(grid, zero, one)


def test_spectral_curve_block_multiplicative():
    top = PolyMatrix([[z, 1], [0, -z]])
    bot = PolyMatrix([[z * z]])
    block = PolyMatrix(
        [
            [top.entries[0][0], top.entries[0][1], UniPoly.zero("z")],
            [top.entries[1][0], top.entries[1][1], UniPoly.zero("z")],
            [UniPoly.zero("z"), UniPoly.zero("z"), bot.entries[0][0]],
        ]
    )
    assert spectral_curve(block) == spectral_curve(top) * spectral_curve(bot)


def test_spectral_curve_contains_graph_points():
    rng = random.Random(12)
    for _ in range(20):
        phi = PolyMatrix(
            [
                [UniPoly("z", [rand_scalar(rng) for _ in range(3)]) for _ in range(2)]
                for _ in range(2)
            ]
        )
        curve = spectral_curve(phi)
        for z0 in (gr(0), gr(1), gr(-2), I):
            m = phi.eval_at(z0)
            try:
                roots = split_roots(char_poly(m, "t"))
            except SpectrumNotSplit:
                continue
            for ev, _ in roots:
                assert curve.eval_scalars([z0, ev]) == 0


def test_weyl_truncation():
    assert weyl_commutator_check(WeylTrunc(2))
    w = WeylTrunc(5)
    state = (UniPoly("z", (0, 0, 0, 1)),)  # z^3 with cap 5
    assert w.commutator_action(state) == state
    assert weyl_commutator_check(WeylTrunc(16, r=3))
    # boundary degree cap-1 is excluded from the guarantee
    w4 = WeylTrunc(4)
    top = (UniPoly("z", (0, 0, 0, 1)),)
    assert w4.commutator_action(top) != top
    with pytest.raises(ValueError):
        weyl_commutator_check(WeylTrunc(1))
