import itertools
import random
from fractions import Fraction

import pytest

from azumaya.kahler import (
    ClassicalForm,
    FormalForm,
    FormTerm,
    MorphismToAffine,
    MPolyMatrix,
    classical_d,
    d,
    leibniz_expand,
    pullback,
    pullback_form,
    tensor,
    trace_form,
)
from azumaya.poly import MultiPoly
from azumaya.scalars import gr
from helpers import contracted_trace_form, mpoly_matrix_mul, mpoly_mul, rand_scalar


V1 = ("z",)
V2 = ("x", "y")


def rand_mpoly(rng, variables=V2, degree=1):
    terms = {}
    for _ in range(3):
        e = tuple(rng.randrange(0, degree + 1) for _ in variables)
        if sum(e) <= degree:
            terms[e] = rand_scalar(rng)
    return MultiPoly(variables, terms)


def rand_mmatrix(rng, r=2, variables=V2, degree=1):
    return MPolyMatrix(
        variables, [[rand_mpoly(rng, variables, degree) for _ in range(r)] for _ in range(r)]
    )


def commuting_pair(rng, r=2, variables=V2):
    """Two polynomials in one random matrix; they always commute."""
    w = rand_mmatrix(rng, r, variables)
    ident = MPolyMatrix.identity(variables, r)

    def poly_of(mat):
        acc = MPolyMatrix.zeros(variables, r)
        power = ident
        for _ in range(3):
            acc = acc + power * rand_scalar(rng)
            power = power * mat
        return acc

    return poly_of(w), poly_of(w)


def test_d_linearity_under_trace():
    rng = random.Random(1)
    for _ in range(20):
        m = rand_mmatrix(rng)
        mp = rand_mmatrix(rng)
        a, b = rand_scalar(rng), rand_scalar(rng)
        lhs = trace_form(d(m * a + mp * b))
        rhs = trace_form(d(m)).scale(a) + trace_form(d(mp)).scale(b)
        assert lhs == rhs
    zero = MPolyMatrix.zeros(V2, 2)
    assert trace_form(d(zero)).is_zero()


def test_leibniz_under_trace():
    rng = random.Random(2)
    for _ in range(20):
        m = rand_mmatrix(rng)
        mp = rand_mmatrix(rng)
        assert trace_form(d(m * mp)) == trace_form(leibniz_expand(m, mp))


def test_pass_over_under_trace_for_all_matrices():
    # trace cyclicity makes m (dm') - (dm') m vanish with no hypotheses
    rng = random.Random(3)
    for _ in range(20):
        m = rand_mmatrix(rng)
        mp = rand_mmatrix(rng)
        w = d(mp).left_mul(m) - d(mp).right_mul(m)
        assert trace_form(w).is_zero()


def test_trace_form_examples():
    for r in (1, 2, 3):
        zi = MPolyMatrix.identity(V1, r) * MultiPoly.variable(V1, "z")
        assert trace_form(d(zi)).coefficient_list() == [MultiPoly.constant(V1, r)]
    e12 = MPolyMatrix(V1, [[0, 1], [0, 0]])
    e21 = MPolyMatrix(V1, [[0, 0], [1, 0]])
    assert trace_form(d(e21).left_mul(e12)).is_zero()


def test_diagonal_leibniz_doubling():
    # for one diagonal matrix, trace(d(m^2)) = 2 trace(m dm)
    zvar = MultiPoly.variable(V1, "z")
    m = MPolyMatrix(V1, [[zvar, 0], [0, zvar * gr(2)]])
    lhs = trace_form(d(m * m))
    rhs = trace_form(d(m).left_mul(m)).scale(2)
    assert lhs == rhs


def test_tensor_examples():
    z1 = MPolyMatrix.identity(V1, 1) * MultiPoly.variable(V1, "z")
    two = tensor(d(z1), d(z1))
    tf = trace_form(two)
    assert tf.degree == 2
    assert tf.coefficient((0, 0)) == MultiPoly.constant(V1, 1)

    e11z = MPolyMatrix(V1, [[MultiPoly.variable(V1, "z"), 0], [0, 0]])
    tf2 = trace_form(tensor(d(e11z), d(e11z)))
    assert tf2.coefficient((0, 0)) == MultiPoly.constant(V1, 1)


def test_tensor_middle_relator_under_trace():
    rng = random.Random(5)
    for _ in range(15):
        m1 = rand_mmatrix(rng)
        m2 = rand_mmatrix(rng)
        m = rand_mmatrix(rng)
        lhs = tensor(d(m1).right_mul(m), d(m2))
        rhs = tensor(d(m1), d(m2).left_mul(m))
        assert trace_form(lhs) == trace_form(rhs)


def test_pullback_function_multiplicative():
    rng = random.Random(6)
    for _ in range(15):
        m1, m2 = commuting_pair(rng)
        phi = MorphismToAffine(("u", "v"), (m1, m2))
        f = rand_mpoly(rng, ("u", "v"), 2)
        g = rand_mpoly(rng, ("u", "v"), 2)
        assert pullback(phi, f * g) == pullback(phi, f) * pullback(phi, g)


def test_pullback_form_examples():
    zvar = MultiPoly.variable(V1, "z")
    m = MPolyMatrix(V1, [[zvar, 1], [0, zvar]])
    phi = MorphismToAffine(("y",), (m,))
    f = MultiPoly(("y",), {(2,): 1})
    assert pullback(phi, f) == m * m
    pbf = pullback_form(phi, classical_d(f))
    assert trace_form(pbf) == trace_form(d(m * m))
    # constant functions pull back to the zero form
    const = MultiPoly.constant(("y",), 7)
    assert trace_form(pullback_form(phi, classical_d(const))).is_zero()
    # identity embedding: y -> z I has trace r dz
    for r in (1, 2, 3):
        zi = MPolyMatrix.identity(V1, r) * zvar
        phi_r = MorphismToAffine(("y",), (zi,))
        got = trace_form(pullback_form(phi_r, [MultiPoly.constant(("y",), 1)]))
        assert got.coefficient_list() == [MultiPoly.constant(V1, r)]


def test_pullback_chain_rule_under_trace():
    rng = random.Random(7)
    for _ in range(25):
        m1, m2 = commuting_pair(rng)
        phi = MorphismToAffine(("u", "v"), (m1, m2))
        f = rand_mpoly(rng, ("u", "v"), 2)
        g = rand_mpoly(rng, ("u", "v"), 2)
        lhs = trace_form(pullback_form(phi, classical_d(f * g)))
        rhs = trace_form(
            pullback_form(phi, classical_d(g)).left_mul(pullback(phi, f))
            + pullback_form(phi, classical_d(f)).right_mul(pullback(phi, g))
        )
        assert lhs == rhs


def test_commuting_families_pass_precondition():
    rng = random.Random(8)
    for _ in range(20):
        m1, m2 = commuting_pair(rng, r=3)
        MorphismToAffine(("u", "v"), (m1, m2))  # must not raise


def test_non_commuting_images_rejected():
    a = MPolyMatrix(V1, [[0, 1], [0, 0]])
    b = MPolyMatrix(V1, [[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        MorphismToAffine(("u", "v"), (a, b))


def test_formal_form_syntactic_equality():
    m = MPolyMatrix(V1, [[MultiPoly.variable(V1, "z"), 0], [0, 1]])
    assert (d(m) - d(m)).terms == () or trace_form(d(m) - d(m)).is_zero()


def _x_only(rng, r):
    """A matrix whose entries do not involve y, so its partial in y is zero."""
    return MPolyMatrix(V2, [[MultiPoly(V2, {(k, 0): rand_scalar(rng) for k in range(2)}) for _ in range(r)]
                            for _ in range(r)])


def _reference_trace_form(w):
    """trace(pre * D_k1(dm_1) * post_1 * ... * D_ks(dm_s) * post_s) for every
    index tuple (k_1, ..., k_s), by full matrix products."""
    coeffs = {}
    for t in w.terms:
        for idx in itertools.product(range(len(w.vars)), repeat=w.degree):
            acc = t.pre
            for k, (dm, post) in zip(idx, t.factors):
                acc = acc * dm.partial(k) * post
            coeffs[idx] = coeffs.get(idx, MultiPoly.zero(w.vars)) + acc.trace()
    return ClassicalForm(w.vars, w.degree, coeffs)


def test_trace_form_matches_explicit_products():
    rng = random.Random(23)
    zero_partials = 0
    for r in (1, 2, 3):
        for _ in range(4):
            forms = []
            for _ in range(2):
                terms = []
                for _ in range(2):
                    dm = _x_only(rng, r) if rng.random() < 0.4 else rand_mmatrix(rng, r)
                    zero_partials += dm.partial(1).is_zero() and not dm.is_zero()
                    terms.append(FormTerm(rand_mmatrix(rng, r), ((dm, rand_mmatrix(rng, r)),)))
                forms.append(FormalForm(V2, r, 1, terms))
            for w in forms + [tensor(*forms)]:
                assert trace_form(w) == _reference_trace_form(w)
    assert zero_partials >= 5


# coefficients over 2 and over 3, Gaussian ones, and zero
WIDE_POOL = [gr(0), gr(1), gr(-1), gr(Fraction(1, 2)), gr(Fraction(-2, 3)), gr(0, 1), gr(Fraction(1, 3), -2),
             gr(Fraction(5, 6), Fraction(1, 2))]
VARIABLES = [("z",), ("x", "y"), ("x", "y", "w")]


def wide_mpoly(rng, variables, degree=2):
    if rng.random() < 0.2:
        return MultiPoly.zero(variables)
    monos = [e for e in itertools.product(range(degree + 1), repeat=len(variables)) if sum(e) <= degree]
    return MultiPoly(variables, {e: rng.choice(WIDE_POOL) for e in rng.sample(monos, min(3, len(monos)))})


def wide_matrix(rng, r, variables):
    rows = [[wide_mpoly(rng, variables) for _ in range(r)] for _ in range(r)]
    if rng.random() < 0.2:
        rows[rng.randrange(r)] = [MultiPoly.zero(variables)] * r
    return MPolyMatrix(variables, rows)


def test_products_match_the_object_level_oracle():
    rng = random.Random(61)
    for r in (1, 2, 3, 4):
        for variables in VARIABLES:
            for _ in range(6):
                a, b = wide_matrix(rng, r, variables), wide_matrix(rng, r, variables)
                assert a * b == mpoly_matrix_mul(a, b)
                f, g = a.rows[0][0], b.rows[r - 1][0]
                assert f * g == mpoly_mul(f, g)
    x = wide_matrix(rng, 2, V2)
    assert x * MPolyMatrix.zeros(V2, 2) == MPolyMatrix.zeros(V2, 2) == MPolyMatrix.zeros(V2, 2) * x
    assert x * MPolyMatrix.identity(V2, 2) == x


def test_products_refuse_mismatches_before_any_work():
    zero_x, zero_y = MPolyMatrix.zeros(("x",), 2), MPolyMatrix.zeros(("y",), 2)
    with pytest.raises(ValueError, match=r"^variable mismatch: \('x',\) vs \('y',\)$"):
        zero_x * zero_y
    with pytest.raises(ValueError, match="^dimension mismatch: 2x2 times 3x3$"):
        zero_x * MPolyMatrix.zeros(("x",), 3)
    f, g = MultiPoly.zero(("x",)), MultiPoly.zero(("y",))
    with pytest.raises(ValueError, match=r"^variable mismatch: \('x',\) vs \('y',\)$"):
        f * g


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_trace_form_matches_the_contraction_oracle(degree):
    rng = random.Random(70 + degree)
    for r in (1, 2, 3) if degree < 3 else (1, 2):
        for variables in VARIABLES:
            parts = []
            for _ in range(degree):
                w = d(wide_matrix(rng, r, variables)).left_mul(wide_matrix(rng, r, variables))
                parts.append(w + d(wide_matrix(rng, r, variables)).right_mul(wide_matrix(rng, r, variables)))
            w = tensor(*parts)
            assert trace_form(w) == contracted_trace_form(w)


def test_pullback_form_matches_the_contraction_oracle():
    rng = random.Random(74)
    for r in (1, 2, 3):
        for variables in VARIABLES:
            phi = MorphismToAffine(("u", "v"), commuting_pair(rng, r, variables))
            f = MultiPoly(("u", "v"), {(2, 0): gr(Fraction(1, 3)), (1, 1): gr(0, 2), (0, 3): gr(-1)})
            w = pullback_form(phi, classical_d(f))
            assert trace_form(w) == contracted_trace_form(w)
            images = phi.images
            assert pullback(phi, f) == (mpoly_matrix_mul(images[0], images[0]) * gr(Fraction(1, 3))
                                        + mpoly_matrix_mul(images[0], images[1]) * gr(0, 2)
                                        - mpoly_matrix_mul(mpoly_matrix_mul(images[1], images[1]), images[1]))
