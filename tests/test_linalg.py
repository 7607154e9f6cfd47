import random
from fractions import Fraction

import pytest

from azumaya.linalg import (
    Matrix,
    char_poly,
    commutator,
    kernel_basis,
    min_poly,
    power_ranks,
    rank,
    ring_det,
    solve_exact,
)
from azumaya.poly import MultiPoly, UniPoly
from azumaya.scalars import gr
from helpers import SMALL_POOL, brute_min_poly, naive_rank, rand_invertible, rand_matrix, rand_scalar


z = UniPoly.x("z")


def test_commutator_examples():
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    assert commutator(e12, e21) == Matrix([[1, 0], [0, -1]])
    m = rand_matrix(random.Random(0), 3)
    assert commutator(Matrix.identity(3), m).is_zero()
    assert commutator(m, m).is_zero()
    with pytest.raises(ValueError):
        commutator(e12, Matrix.identity(3))


def test_rank_examples():
    assert rank(Matrix.zeros(3)) == 0
    assert rank(Matrix.identity(5)) == 5
    assert rank(Matrix.jordan_block(0, 3) ** 2) == 1


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(3)) == ()
    kb = kernel_basis(Matrix.zeros(2))
    assert kb == ((gr(1), gr(0)), (gr(0), gr(1)))
    kb = kernel_basis(Matrix([[1, 1], [1, 1]]))
    assert len(kb) == 1
    v = kb[0]
    assert v[0] + v[1] == 0 and not v[0].is_zero()


def test_matrix_product_associative_on_samples():
    rng = random.Random(9)
    for _ in range(30):
        r = rng.randrange(1, 5)
        a, b, c = (rand_matrix(rng, r) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_rank_plus_kernel_dimension():
    rng = random.Random(5)
    for _ in range(100):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        m = Matrix([[gr(rng.randrange(-2, 3)) for _ in range(c)] for _ in range(r)])
        assert rank(m) + len(kernel_basis(m)) == c


def test_bareiss_agrees_with_naive_elimination():
    rng = random.Random(17)
    for _ in range(200):
        r = rng.randrange(1, 7)
        m = rand_matrix(rng, r)
        assert rank(m) == naive_rank(m)


def test_char_poly_examples():
    assert char_poly(Matrix.identity(2), "z") == (z - 1) ** 2
    assert char_poly(Matrix([[0, 1], [0, 0]]), "z") == z**2
    assert char_poly(Matrix([[0, -2], [1, 3]]), "z") == z**2 - 3 * z + 2


def test_char_poly_block_diagonal_multiplicative():
    rng = random.Random(23)
    for _ in range(20):
        a = rand_matrix(rng, rng.randrange(1, 4))
        b = rand_matrix(rng, rng.randrange(1, 4))
        n = a.nrows + b.nrows
        rows = [[gr(0)] * n for _ in range(n)]
        for i in range(a.nrows):
            for j in range(a.nrows):
                rows[i][j] = a.rows[i][j]
        for i in range(b.nrows):
            for j in range(b.nrows):
                rows[a.nrows + i][a.nrows + j] = b.rows[i][j]
        assert char_poly(Matrix(rows), "z") == char_poly(a, "z") * char_poly(b, "z")


def test_char_poly_monic_of_full_degree():
    rng = random.Random(29)
    for _ in range(50):
        r = rng.randrange(1, 6)
        cp = char_poly(rand_matrix(rng, r))
        assert cp.degree == r and cp.leading() == gr(1)


def test_min_poly_examples():
    assert min_poly(Matrix.identity(3) * gr(4)) == z - 4
    assert min_poly(Matrix.diag([1, 2])) == (z - 1) * (z - 2)
    assert min_poly(Matrix([[0, 1], [0, 0]])) == z**2


def test_min_poly_matches_brute_force_and_divides_char_poly():
    rng = random.Random(31)
    for _ in range(150):
        r = rng.randrange(1, 6)
        m = rand_matrix(rng, r)
        mp = min_poly(m)
        assert mp == brute_min_poly(m)
        assert mp.divides(char_poly(m, "z"))
        assert mp.eval_matrix(m).is_zero()


def test_solve_exact():
    a = Matrix([[1, 2], [3, 4], [5, 6]])
    x = Matrix([[7], [8]])
    b = a * x
    assert solve_exact(a, b) == x
    with pytest.raises(ValueError):
        solve_exact(a, Matrix([[1], [0], [0]]))


def test_ring_det_matches_char_poly_determinant():
    rng = random.Random(37)
    for _ in range(20):
        r = rng.randrange(1, 5)
        m = rand_matrix(rng, r)
        variables = ("t",)
        grid = [
            [MultiPoly.constant(variables, m.rows[i][j]) for j in range(r)]
            for i in range(r)
        ]
        det = ring_det(grid, MultiPoly.zero(variables), MultiPoly.constant(variables, 1))
        # det(m) = (-1)^r * char_poly(m)(0)
        expected = char_poly(m, "z")(0) * gr(-1) ** r
        assert det == MultiPoly.constant(variables, expected)


def test_power_ranks():
    nilpotent = Matrix.jordan_block(0, 3)
    assert power_ranks(nilpotent, 0) == [2, 1]
    assert power_ranks(Matrix.zeros(2), 0) == []
    # eigenvalue 0 of multiplicity 2 in a 3x3 matrix: the ranks settle at 1
    assert power_ranks(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 5]]), 1) == [2]
    with pytest.raises(ArithmeticError):
        power_ranks(Matrix.identity(2), 0)


# ---------------------------------------------------------------------------
# sympy's exact Gaussian-rational matrices (the QQ_I domain) as an
# independent oracle for rank, char_poly and min_poly


def _oracle_matrices():
    """Seeded matrices with r <= 6: generic ones, singular products B*C of
    a smaller inner size, derogatory c*I + B*C with inner size <= r - 2,
    and conjugates of Jordan forms with a repeated block."""
    rng = random.Random(41)
    pool = SMALL_POOL + [gr(3, -2), gr(Fraction(-2, 3), Fraction(1, 5))]

    def rect(n, k):
        return Matrix([[rand_scalar(rng, pool) for _ in range(k)] for _ in range(n)])

    out = [Matrix.zeros(3), Matrix.identity(4) * gr(2, 1)]
    for r in range(1, 7):
        out.append(rand_matrix(rng, r, pool))
        if r >= 2:
            k = rng.randrange(1, r)
            out.append(rect(r, k) * rect(k, r))
        if r >= 3:
            k = rng.randrange(1, r - 1)
            out.append(Matrix.identity(r) * rand_scalar(rng, pool) + rect(r, k) * rect(k, r))
            # one eigenvalue, Jordan blocks of sizes 2, 2, ..., (1)
            ev = rand_scalar(rng, pool)
            jordan = Matrix([[ev if j == i else gr(int(j == i + 1 and i % 2 == 0)) for j in range(r)]
                             for i in range(r)])
            p = rand_invertible(rng, r)
            out.append(p * jordan * solve_exact(p, Matrix.identity(r)))
    return out


def test_rank_char_poly_min_poly_against_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(m):
        return DomainMatrix([[QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))
                              for x in row] for row in m.rows], (m.nrows, m.ncols), QQ_I)

    def from_sympy(c):
        return gr(Fraction(int(c.x.numerator), int(c.x.denominator)),
                  Fraction(int(c.y.numerator), int(c.y.denominator)))

    def sympy_min_poly(s, n):
        # the first linear relation among vec(I), vec(s), vec(s^2), ...
        powers = [DomainMatrix.eye(n, QQ_I)]
        while True:
            stack = DomainMatrix([[p.to_list()[i][j] for p in powers] for i in range(n) for j in range(n)],
                                 (n * n, len(powers)), QQ_I)
            null = stack.nullspace().to_list()
            if null:
                v = null[0]
                return [from_sympy(c / v[-1]) for c in v]
            powers.append(powers[-1] * s)

    singular = derogatory = 0
    for m in _oracle_matrices():
        s, n = to_sympy(m), m.nrows
        assert rank(m) == s.rank()
        assert list(char_poly(m, "z").coeffs) == [from_sympy(c) for c in reversed(s.charpoly())]
        mp = min_poly(m)
        assert list(mp.coeffs) == sympy_min_poly(s, n)
        singular += rank(m) < n
        derogatory += mp.degree < n
    assert singular >= 6 and derogatory >= 10
