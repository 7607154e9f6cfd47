import random
import time
from fractions import Fraction

import pytest

from azumaya.linalg import (
    Matrix,
    char_poly,
    commutator,
    kernel_basis,
    kernel_chain,
    min_poly,
    rank,
    ring_det,
    solve_exact,
)
from azumaya.higgsing import PolyMatrix
from azumaya.kahler import MPolyMatrix
from azumaya.poly import MultiPoly, UniPoly
from azumaya.scalars import gr
from azumaya.poly import monomial_values, monomials_up_to
from helpers import (SMALL_POOL, bareiss_char_poly, big_invertible, block_diagonal, brute_min_poly, cofactor_det, conjugate,
                     jordan_matrix, jordan_nilpotent, lcm_min_poly, naive_rank, rand_invertible, rand_matrix, rand_partition,
                     rand_scalar, rref, rref_kernel, rref_solve)


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


def test_matrix_power_by_squaring():
    m = rand_matrix(random.Random(3), 3)
    assert m ** 0 == Matrix.identity(3)
    assert m ** 1 == m
    product = Matrix.identity(3)
    for k in range(1, 8):
        product = product * m
        assert m ** k == product
    with pytest.raises(ValueError):
        m ** -1
    # the identity keeps the class and the variables of the polynomial matrices
    w = UniPoly.x("w")
    p = PolyMatrix([[w, 1], [0, w * w]], "w")
    assert p ** 0 == PolyMatrix.identity(2, "w") and type(p ** 0) is PolyMatrix and (p ** 0).vars == ("w",)
    assert p ** 3 == p * p * p
    variables = ("x", "y")
    q = MPolyMatrix(variables, [[MultiPoly.variable(variables, "x"), 1], [0, MultiPoly.variable(variables, "y")]])
    assert q ** 0 == MPolyMatrix.identity(variables, 2) and type(q ** 0) is MPolyMatrix and (q ** 0).vars == variables
    assert q ** 0 * q == q
    assert Matrix([]) ** 0 == Matrix([])


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
        s = rand_scalar(rng)
        assert s * a == a * s


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


def _elimination_cases():
    """Seeded matrices for the eliminations: tall, sparse intertwiner systems
    (2r^2 x r^2, r = 2..5), wide evaluation systems (r^2 x C(r+2, 2)), dense
    1-digit Gaussian matrices of every shape up to 6 x 6 and of lower rank,
    rows over distinct fractional denominators, 30- and 300-digit Gaussian
    entries, zero rows, zero columns, empty shapes, pivots that are not
    real, and staircases whose rows keep a 0 in the pivot column for
    several steps before they are used."""
    rng = random.Random(67)

    def gauss(digits=1):
        b = 10 ** digits - 1
        return gr(rng.randint(-b, b), rng.randint(-b, b))

    def grid(n, k, entry=gauss):
        return Matrix([[entry() for _ in range(k)] for _ in range(n)])

    def commuting_pair(r):
        m = Matrix([[gauss() if j >= i else gr(0) for j in range(r)] for i in range(r)])
        g = rand_invertible(rng, r)
        ginv = rref_solve(g, Matrix.identity(r))
        return g * m * ginv, g * (m * m + m * gauss()) * ginv

    out = [Matrix([]), Matrix.zeros(3, 0), Matrix([[]]), Matrix.zeros(1), Matrix.zeros(2, 4)]
    for r in range(2, 6):  # the equations g m_i = m'_i g of azpoint.intertwiner_space
        ms = commuting_pair(r)
        g = rand_invertible(rng, r)
        ginv = rref_solve(g, Matrix.identity(r))
        rows = []
        for m1, m2 in zip(ms, (g * m * ginv for m in ms)):
            for a in range(r):
                for b in range(r):
                    row = [gr(0)] * (r * r)
                    for c in range(r):
                        row[a * r + c] += m1.rows[c][b]
                        row[c * r + b] -= m2.rows[a][c]
                    rows.append(row)
        out.append(Matrix(rows))
    for r in range(2, 5):  # the evaluation map of azpoint.vanishing_ideal, degree r
        values = monomial_values(commuting_pair(r), Matrix.identity(r), monomials_up_to(2, r))
        out.append(Matrix.from_columns([v.vec() for v in reversed(values)]))
    for n in range(1, 7):
        for k in range(1, 7):
            out.append(grid(n, k))
        inner = rng.randrange(1, n + 1)
        out.append(grid(n, inner) * grid(inner, n))
    for n in (3, 5):
        dens = rng.sample(range(2, 10 ** 6), n)
        out.append(Matrix([[gauss() / d for _ in range(n)] for d in dens]))
        out.append(Matrix([[gauss() / d for _ in range(n + 1)] for d in dens]) * grid(n + 1, 2) * grid(2, n))
    for digits in (30, 300):
        out += [grid(5, 5, lambda: gauss(digits)), grid(3, 5, lambda: gauss(digits)),
                grid(5, 2, lambda: gauss(digits)) * grid(2, 5, lambda: gauss(digits))]
    for n in (3, 6):  # zero rows and zero columns among the others
        m = [list(row) for row in grid(n, n).rows]
        for row in m:
            row[1] = gr(0)
        m[2] = [gr(0)] * n
        out.append(Matrix(m))
    for n in (3, 5):  # every pivot a Gaussian integer that is not real
        out.append(Matrix([[gr(rng.randint(-3, 3), rng.choice((-2, -1, 1, 2))) for _ in range(n)] for _ in range(n)]))
    for n, digits in ((6, 1), (8, 1), (6, 30)):  # row i zero left of column z_i, the rows shuffled
        for _ in range(4):
            rows = [[gr(0)] * z + [gauss(digits) for _ in range(n - z)] for z in (rng.randrange(n) for _ in range(n + 2))]
            rng.shuffle(rows)
            out.append(Matrix(rows))
    return out


def _answer(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", str(exc))


def test_eliminations_agree_with_the_gauss_jordan_oracle():
    rng = random.Random(71)
    for m in _elimination_cases():
        _, pivots = rref(m.rows, m.ncols)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == rref_kernel(m.rows, m.ncols)
        x = Matrix([[rand_scalar(rng) for _ in range(2)] for _ in range(m.ncols)])
        for b in (m * x, Matrix([[rand_scalar(rng) for _ in range(3)] for _ in range(m.nrows)])):
            assert _answer(solve_exact, m, b) == _answer(rref_solve, m, b)
    # the first two steps leave the third and the fourth row alone, and the
    # third and the fourth step take their pivots from them
    m = Matrix([[1, 2, 3, 4], [2, 1, 0, 5], [0, 0, 0, gr(3, 1)], [0, 0, gr(1, -2), 7], [0, 3, 1, 1]])
    assert rank(m) == 4 and kernel_basis(m) == ()
    assert solve_exact(m, m * Matrix([[1], [gr(0, 1)], [2], [3]])) == Matrix([[1], [gr(0, 1)], [2], [3]])


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


def _char_poly_inputs(n, rng):
    """Seeded n x n matrices: integer, Gaussian, singular, nilpotent, with
    small fractions, and with rows over different 30-digit denominators."""
    big = 10**30

    def grid(entry):
        return [[entry() for _ in range(n)] for _ in range(n)]

    gauss = grid(lambda: gr(rng.randint(-9, 9), rng.randint(-9, 9)))
    singular = gauss[:-1] + [[x + y for x, y in zip(gauss[0], gauss[-2])]] if n > 1 else [[gr(0)]] * n
    g = Matrix([[gr(rng.randint(-3, 3)) if j < i else gr(int(i == j)) for j in range(n)] for i in range(n)])
    strict = Matrix([[gr(rng.randint(-9, 9), rng.randint(-1, 1)) if j > i else gr(0) for j in range(n)] for i in range(n)])
    dens = [rng.randint(1, big) for _ in range(n)]
    return {
        "integer": Matrix(grid(lambda: rng.randint(-9, 9))),
        "gaussian": Matrix(gauss),
        "singular": Matrix(singular),
        "nilpotent": g * strict * solve_exact(g, Matrix.identity(n)),
        "small-fractions": Matrix(grid(lambda: gr(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-1, 1)))),
        "row-denominators": Matrix([[gr(Fraction(rng.randint(-big, big), d), Fraction(rng.randint(-big, big), d))
                                     for _ in range(n)] for d in dens]),
    }


@pytest.mark.parametrize("n", range(11))
def test_char_poly_matches_the_bareiss_oracle(n):
    for kind, m in _char_poly_inputs(n, random.Random(100 + n)).items():
        cp = char_poly(m, "z")
        assert cp == bareiss_char_poly(m, "z"), kind
        if kind == "nilpotent":
            assert cp == z**n
        if kind == "singular" and n:
            assert cp.constant_term() == 0


def test_min_poly_examples():
    assert min_poly(Matrix.identity(3) * gr(4)) == z - 4
    assert min_poly(Matrix.diag([1, 2])) == (z - 1) * (z - 2)
    assert min_poly(Matrix([[0, 1], [0, 0]])) == z**2
    assert min_poly(Matrix([])) == UniPoly.one("z")


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


@pytest.mark.parametrize("variables", [("t",), ("z", "lambda"), ("t0", "t1", "t2")])
def test_ring_det_matches_the_cofactor_oracle(variables):
    rng = random.Random(len(variables))
    pool = [gr(0), gr(1), gr(-2), gr(Fraction(1, 2)), gr(Fraction(-1, 3)), gr(0, 1), gr(Fraction(2, 3), 1)]
    zero, one = MultiPoly.zero(variables), MultiPoly.constant(variables, 1)
    for r in range(7):
        for _ in range(3 if r < 6 else 1):
            grid = [[MultiPoly(variables, {tuple(rng.randrange(3) for _ in variables): rng.choice(pool)
                                           for _ in range(rng.randrange(3))}) for _ in range(r)] for _ in range(r)]
            if r > 1 and rng.random() < 0.3:
                grid[1] = list(grid[0])  # two equal rows: the determinant is zero
            assert ring_det(grid, zero, one) == cofactor_det(grid, zero, one)
    assert ring_det([], zero, one) is one


def test_ring_det_refusals_keep_their_text():
    x, y = MultiPoly.variable(("x",), "x"), MultiPoly.variable(("y",), "y")
    zero, one = MultiPoly.zero(("x",)), MultiPoly.constant(("x",), 1)
    with pytest.raises(ValueError, match="^determinant of a non-square grid$"):
        ring_det([[x, x]], zero, one)
    with pytest.raises(ValueError, match=r"^variable mismatch: \('x',\) vs \('y',\)$"):
        ring_det([[x, zero], [zero, y]], zero, one)


def _derogatory(rng, n, kind):
    """An n x n block-diagonal matrix of the given kind, before conjugation."""
    ev = rng.choice([gr(0), gr(3), gr(Fraction(-2, 3)), gr(1, 2), gr(Fraction(1, 2), Fraction(-5, 7))])
    if kind == "scalar":
        return Matrix.identity(n) * ev
    if kind == "nilpotent":
        return jordan_nilpotent(rand_partition(rng, n))
    if kind == "repeated":  # equal blocks at one eigenvalue
        k = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        return jordan_matrix([(ev, k)] * (n // k))
    if kind == "quadratic":  # x^2 - 2, irreducible over Q(i), with Jordan blocks beside it
        q = rng.randrange(1, n // 2 + 1)
        rest = [(rng.choice([ev, gr(0, 1)]), p) for p in rand_partition(rng, n - 2 * q)] if n > 2 * q else []
        return block_diagonal([Matrix([[0, 2], [1, 0]])] * q + ([jordan_matrix(rest)] if rest else []))
    return jordan_matrix([(rng.choice([ev, gr(0, 1), gr(Fraction(1, 3))]), p) for p in rand_partition(rng, n)])


@pytest.mark.parametrize("digits", [1, 10, 30])
def test_min_poly_matches_the_lcm_oracle(digits):
    # the product of the local minimal polynomials of out(m) e_i against the
    # lcm over Q(i) of those of e_i, on derogatory matrices, where the lcm
    # is not a single local polynomial
    rng = random.Random(61 + digits)
    kinds = ("scalar", "nilpotent", "repeated", "quadratic", "mixed")
    for n in range(9):
        # every kind at each size with 1-digit conjugators, two with larger ones
        for kind in kinds if digits == 1 else (kinds[n % 5], kinds[(n + 2) % 5]):
            if kind == "quadratic" and n < 2 or n == 0 and kind != "scalar":
                continue
            b = _derogatory(rng, n, kind) if n else Matrix([])
            m = conjugate(b, big_invertible(rng, n, digits, den_digits=rng.choice([0, 2]))) if n else b
            mp = min_poly(m)
            assert mp == lcm_min_poly(m) == min_poly(b), (n, kind)


def test_min_poly_of_a_dense_matrix_of_1000_digit_integers():
    # generic, so the Krylov route of min_poly and the Berkowitz route of
    # char_poly must agree; the Krylov chain over fractions took about 11 s
    rng = random.Random(53)
    m = Matrix([[rng.randrange(-10**1000, 10**1000) for _ in range(8)] for _ in range(8)])
    start = time.perf_counter()
    mp = min_poly(m)
    assert time.perf_counter() - start < 5
    assert mp == char_poly(m, "z")


def test_kernel_chain():
    e1, e2, e3 = Matrix.identity(3).rows
    assert kernel_chain(Matrix.jordan_block(0, 3), 3) == ([1, 2, 3], (e1, e2, e3))
    assert kernel_chain(Matrix.zeros(2), 2) == ([2], Matrix.identity(2).rows)
    # eigenvalue 0 of multiplicity 2 in a 3x3 matrix: the kernels settle at 2
    assert kernel_chain(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 5]]), 2) == ([1, 2], (e1, e2))
    with pytest.raises(ArithmeticError, match="settle at dimension 0, below 2"):
        kernel_chain(Matrix.identity(2), 2)
    # the same matrix in another basis: the basis is kernel_basis of the last power
    g = Matrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    m = g * Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 5]]) * solve_exact(g, Matrix.identity(3))
    assert kernel_chain(m, 2) == ([1, 2], kernel_basis(m * m))


def test_kernel_chain_on_rows_of_different_denominators():
    # a nilpotent matrix conjugated by one whose rows have distinct
    # fractional denominators: its rows are cleared by different factors,
    # so row a of the kernel basis must be scaled by row a's factor, or the
    # chain read is that of D n for D the diagonal of those factors
    rng = random.Random(67)
    for _ in range(40):
        parts = rand_partition(rng, 5)
        p = Matrix([[gr(rng.randrange(-9, 10), rng.randrange(-3, 4)) / (i + 2) ** rng.randint(1, 3)
                     for _ in range(5)] for i in range(5)])
        if naive_rank(p) < 5:
            continue
        n = conjugate(jordan_nilpotent(parts), p)
        dims, basis = kernel_chain(n, 5)
        assert dims == [sum(min(x, j) for x in parts) for j in range(1, max(parts) + 1)]
        power = Matrix.identity(5)
        for _ in dims:
            power = power * n
        assert basis == kernel_basis(power)


# ---------------------------------------------------------------------------
# sympy's exact Gaussian-rational matrices (the QQ_I domain) as an
# independent oracle for rank, char_poly and min_poly


def _oracle_matrices():
    """Seeded matrices with r <= 6: generic ones, singular products B*C of
    a smaller inner size, derogatory c*I + B*C with inner size <= r - 2,
    conjugates of Jordan forms with a repeated block, and matrices with
    30-digit numerators whose rows have distinct denominators."""
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
    big = random.Random(43)

    def big_entry(den, gaussian):
        return gr(Fraction(big.randrange(-10**30, 10**30), den * big.randrange(1, 4)),
                  Fraction(big.randrange(-10**30, 10**30), den * big.randrange(1, 4)) if gaussian else 0)

    def big_rect(dens, k, gaussian):
        return Matrix([[big_entry(d, gaussian) for _ in range(k)] for d in dens])

    for r in range(2, 6):
        dens = big.sample(range(2, 10**6), r)  # row i over multiples of dens[i]
        for gaussian in (False, True):
            out.append(big_rect(dens, r, gaussian))
            out.append(big_rect(dens, r - 1, gaussian) * big_rect([1] * (r - 1), r, gaussian))
            out.append(Matrix.identity(r) * big_entry(7, gaussian)
                       + big_rect(dens, 1, gaussian) * big_rect([1], r, gaussian))
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
