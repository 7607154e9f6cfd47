"""Print a digest of every benchmark operation's output, one line each.

    python3 tools/digest_outputs.py ROOT --seeds 901 902 903

ROOT is the root of a checkout. The script imports `azumaya` from
ROOT/src and the workload builders from ROOT/bench, runs each operation of
the `spectral`, `symbolic` and `requests` workloads at every seed, and
then of the smoke set that every workload shares, once, and then of a
fixed, seeded group of library calls that no workload reaches (`extra`
below: `trace_form` of degree-2 and degree-3 tensors, `hilbert_chow` at
n = 12 and 20 on dense Gaussian matrices, on rows of different fractional
denominators, on 30-digit entries and on a 30-digit matrix of split
spectrum, `spectral_curve` at r = 6..10 with Gaussian and fractional
coefficients and on a constant Phi, `conjugacy` of arity-2 pairs at r = 3
and 4, which takes `ring_det` in the intertwiner coordinates, one of them
a pair of scalar matrices whose 16-dimensional Hom space makes that a
generic 4x4 determinant, `split_roots` of squarefree
polynomials with two roots 3 * 7 * 11 apart, so that no prime below 19
serves and the roots mod q come from Cantor-Zassenhaus, one of them with a
factor x^2 - 2 that does not split, `split_roots` of the large inputs of
`large_root_inputs` below, which take the modular gcd, `rank`,
`kernel_basis` and `solve_exact` on the ladder of `elimination_inputs`
below (entries of up to 1000 digits, pivots that are not real, tall
sparse intertwiner systems and a wide evaluation system), and
`ode_residual` with a polynomial A, against random B and against the
closed forms g E_ij g^-1 built from its non-constant a_i with public
`UniPoly` arithmetic, which fail the ODE),
and prints `bench/run.py`'s `digest` of each output (or the exception it
raised). Last it prints the exit code and the stdout of
`cli.main(["scenario", "run-all"])`. It writes no file. Two checkouts
give the same output exactly when every operation and every scenario
answers the same, so a change that must keep outputs byte-identical is
checked with one diff:

    diff <(python3 tools/digest_outputs.py OLD --seeds 901 902 903) \\
         <(python3 tools/digest_outputs.py NEW --seeds 901 902 903)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import os
import random
import sys
from fractions import Fraction

COEFFS = [(0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (0, -1), (Fraction(1, 2), 0), (Fraction(-2, 3), 1)]


def large_root_inputs():
    """(label, polynomial) for the large inputs of `split_roots`: a 30x30
    characteristic polynomial times (z - 3)^2, the characteristic
    polynomials of block-triangular 30x30 matrices (a dense 20x20 block
    over ten distinct integer eigenvalues) at seeds 0..4, the degree-31
    product of 30 roots with one doubled, and seeded products of Gaussian
    and fractional roots of multiplicity up to 7, some of them times an
    irreducible quadratic."""
    import azumaya as az

    z = az.UniPoly.x("z")
    rng = random.Random(0)
    cp = az.char_poly(az.Matrix([[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]), "z")
    out = [("cp30 * (z - 3)^2", cp * (z - 3) ** 2)]
    for seed in range(5):
        rng = random.Random(seed)
        diag = rng.sample(range(-9, 10), 10)
        rows = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]
        for i in range(20, 30):
            rows[i][:i] = [0] * i
            rows[i][i] = diag[i - 20]
        out.append((f"block-triangular {seed}", az.char_poly(az.Matrix(rows), "z")))
    roots = [az.gr(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    roots += [az.gr(Fraction(1, 2), Fraction(k, 3)) for k in range(-2, 3)]
    p = az.UniPoly.constant(az.gr(3, -1), "z") * (z - roots[7])
    for r in roots:
        p = p * (z - r)
    out.append(("degree-31 repeated root", p))
    rng = random.Random("high-multiplicity")
    for k in range(6):
        p = az.UniPoly.constant(az.gr(rng.randint(1, 9), rng.randint(-9, 9)) / rng.randint(1, 5), "z")
        for _ in range(rng.randint(2, 4)):
            r = az.gr(Fraction(rng.randint(-40, 40), rng.randint(1, 6)), Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
            p = p * (z - r) ** rng.randint(1, 7)
        if k % 2:
            p = p * ((z - rng.randint(-5, 5)) ** 2 - rng.choice([2, 3, -5, 6]))
        out.append((f"high multiplicity {k}", p))
    return out


def elimination_inputs():
    """(label, name, arguments) for calls of the `linalg` eliminations
    `rank`, `kernel_basis` and `solve_exact` on a fixed, seeded ladder:
    dense 8x8 Gaussian matrices of 1, 30, 300 and 1000 digits, invertible
    and of rank 5 (its dependent rows spread among the others), and a
    solve against two columns of as many digits; a 12x12 matrix over
    distinct row denominators of rank 9, and the inverse of a 12x12 1-digit
    Gaussian matrix; 20x20 matrices of 1 digit (invertible) and of 30
    digits (rank 15); the tall, sparse intertwiner systems of `conjugacy`
    for conjugate commuting pairs at r = 5 and 8; the 144 x 91 evaluation
    system of `vanishing_ideal` for a commuting pair at r = 12, D = 12; and
    two refused solves, an inconsistent one and one of a singular matrix."""
    import azumaya as az
    from azumaya.linalg import solve_exact
    from azumaya.poly import monomial_values, monomials_up_to

    rng = random.Random("elimination")

    def gauss(digits):
        b = 10 ** digits - 1
        return az.gr(rng.randint(-b, b), rng.randint(-b, b))

    def grid(n, k, entry):
        return [[entry() for _ in range(k)] for _ in range(n)]

    def of_rank(n, k, entry):
        """n x n of rank k: n - k rows are combinations of the k others."""
        rows = grid(k, n, entry)
        for _ in range(n - k):
            cs = [az.gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(k)]
            rows.append([sum((c * row[j] for c, row in zip(cs, rows[:k])), az.gr(0)) for j in range(n)])
        rng.shuffle(rows)
        return az.Matrix(rows)

    def conjugator(r):
        """A seeded unit-triangular matrix with its rows permuted, and its inverse."""
        rows = [[az.gr(1) if i == j else gauss(1) if j > i else az.gr(0) for j in range(r)] for i in range(r)]
        rng.shuffle(rows)
        g = az.Matrix(rows)
        return g, solve_exact(g, az.Matrix.identity(r))

    def commuting_pair(r):
        m = az.Matrix([[gauss(1) if j >= i else az.gr(0) for j in range(r)] for i in range(r)])
        g, ginv = conjugator(r)
        return g * m * ginv, g * (m * m + m * gauss(1)) * ginv

    def intertwiner_system(r):
        """The equations g m_i = m'_i g of `azpoint.intertwiner_space`, for
        a commuting pair and its conjugate."""
        ms = commuting_pair(r)
        g, ginv = conjugator(r)
        rows = []
        for m1, m2 in zip(ms, (g * m * ginv for m in ms)):
            for a in range(r):
                for b in range(r):
                    row = [az.gr(0)] * (r * r)
                    for c in range(r):
                        row[a * r + c] += m1.rows[c][b]
                        row[c * r + b] -= m2.rows[a][c]
                    rows.append(row)
        return az.Matrix(rows)

    def evaluation_system(r, degree):
        """The matrix of `vanishing_ideal`'s evaluation map for a commuting pair."""
        values = monomial_values(commuting_pair(r), az.Matrix.identity(r), monomials_up_to(2, degree))
        return az.Matrix.from_columns([v.vec() for v in reversed(values)])

    out = []
    for digits in (1, 30, 300, 1000):
        m = az.Matrix(grid(8, 8, lambda: gauss(digits)))
        b = az.Matrix(grid(8, 2, lambda: gauss(digits)))
        out += [(f"8x8 {digits}-digit", "rank", (m,)), (f"8x8 {digits}-digit", "kernel_basis", (m,)),
                (f"8x8 {digits}-digit", "solve_exact", (m, b))]
        m = of_rank(8, 5, lambda: gauss(digits))
        out += [(f"8x8 {digits}-digit rank 5", "rank", (m,)), (f"8x8 {digits}-digit rank 5", "kernel_basis", (m,))]
    m = of_rank(12, 9, lambda: gauss(1) / rng.randint(1, 40))
    m = az.Matrix([[x / d for x in row] for row, d in zip(m.rows, rng.sample(range(1, 10 ** 6), 12))])
    out += [("12x12 row denominators rank 9", "rank", (m,)), ("12x12 row denominators rank 9", "kernel_basis", (m,))]
    out.append(("12x12 1-digit inverse", "solve_exact", (az.Matrix(grid(12, 12, lambda: gauss(1))), az.Matrix.identity(12))))
    m = az.Matrix(grid(20, 20, lambda: gauss(1)))
    out += [("20x20 1-digit", "rank", (m,)), ("20x20 1-digit", "kernel_basis", (m,))]
    m = of_rank(20, 15, lambda: gauss(30))
    out += [("20x20 30-digit rank 15", "rank", (m,)), ("20x20 30-digit rank 15", "kernel_basis", (m,))]
    for r in (5, 8):
        m = intertwiner_system(r)
        out += [(f"intertwiner r={r}", "rank", (m,)), (f"intertwiner r={r}", "kernel_basis", (m,))]
    m = evaluation_system(12, 12)
    out += [("image r=12 D=12", "rank", (m,)), ("image r=12 D=12", "kernel_basis", (m,))]
    a = az.Matrix(grid(3, 2, lambda: gauss(1)))
    out.append(("3x2 inconsistent", "solve_exact", (a, az.Matrix(grid(3, 2, lambda: gauss(1))))))
    a = of_rank(4, 3, lambda: gauss(1))
    out.append(("4x4 rank 3", "solve_exact", (a, a * az.Matrix(grid(4, 1, lambda: gauss(1))))))
    return out


def extra():
    """(kind, call) for each library call of the fixed group."""
    import azumaya as az
    from azumaya.linalg import solve_exact

    rng = random.Random("digest-extra")

    def scalar():
        return az.gr(*rng.choice(COEFFS))

    def mpoly_matrix(variables, r, degree=2):
        monos = [e for e in itertools.product(range(degree + 1), repeat=len(variables)) if sum(e) <= degree]
        return az.MPolyMatrix(variables, [[az.MultiPoly(variables, {e: scalar() for e in rng.sample(monos, 3)})
                                           if rng.random() < 0.8 else 0 for _ in range(r)] for _ in range(r)])

    def tensor_form(variables, r, degree):
        parts = []
        for _ in range(degree):
            w = az.d(mpoly_matrix(variables, r)).left_mul(mpoly_matrix(variables, r))
            parts.append(w + az.d(mpoly_matrix(variables, r)).right_mul(mpoly_matrix(variables, r)))
        return az.tensor(*parts)

    def phi(r, degree=2):
        return az.PolyMatrix([[az.UniPoly("z", [scalar() for _ in range(degree + 1)]) for _ in range(r)]
                              for _ in range(r)])

    def colliding_roots(k):
        """k distinct roots in Q(i), the last one the first plus 3 * 7 * 11."""
        roots = []
        while len(roots) < k - 1:
            x = az.gr(rng.randint(-9, 9), rng.randint(-9, 9)) / rng.choice([1, 1, 2, 3])
            if x not in roots:
                roots.append(x)
        return roots + [roots[0] + 231]

    def point(*ms):
        return az.RepPoint(("x", "y"), ms)

    def conjugate_pair(*ms):
        """ms and its conjugate by a seeded unit-triangular g with its rows permuted."""
        r = ms[0].nrows
        rows = [[az.gr(1) if i == j else scalar() if j > i else az.gr(0) for j in range(r)] for i in range(r)]
        rng.shuffle(rows)
        g = az.Matrix(rows)
        ginv = solve_exact(g, az.Matrix.identity(r))
        return point(*ms), point(*(g * m * ginv for m in ms))

    def gauge_candidates(problem):
        """g E_ij g^-1 for g = I - (z/lam) N, g^-1 = I + (z/lam) N and
        N = A - (tr A / 2) I, in the order E11, E12, E21, E22."""
        (a1, a2), (a3, a4) = problem.a.rows
        t = az.UniPoly.x("z") * (1 / problem.lam)
        h, p, q = t * (a1 - a4) * Fraction(1, 2), t * a2, t * a3
        g, ginv = ((1 - h, -p), (-q, 1 + h)), ((1 + h, p), (q, 1 - h))
        return [az.PolyMatrix([[x * y for y in ginv[j]] for x in (g[0][i], g[1][i])]) for i in range(2) for j in range(2)]

    def unit(i, j):
        """The 3x3 matrix unit E_ij."""
        return az.Matrix([[int((a, b) == (i, j)) for b in range(3)] for a in range(3)])

    calls = []
    for variables, r, degree in [(("x", "y"), 2, 2), (("x", "y", "w"), 1, 2), (("x",), 3, 2),
                                 (("x", "y"), 1, 3), (("x", "y"), 2, 3)]:
        w = tensor_form(variables, r, degree)
        calls.append(("trace_form", lambda w=w: az.trace_form(w)))
    big = 10**30
    dense = [[scalar() for _ in range(12)] for _ in range(12)]
    fractional = [[az.gr(rng.randint(-9, 9), rng.randint(-9, 9)) / d for _ in range(20)]
                  for d in (rng.randint(1, 40) for _ in range(20))]
    digits = [[az.gr(rng.randint(-big, big), rng.randint(-big, big)) / d for _ in range(12)]
              for d in (rng.randint(1, big) for _ in range(12))]
    integers = [[rng.randint(-big, big) for _ in range(20)] for _ in range(20)]
    tri = [[scalar() if j == i else az.gr(rng.randint(-big, big)) if j > i else 0 for j in range(12)]
           for i in range(12)]
    _, split = conjugate_pair(az.Matrix(tri), az.Matrix(tri))
    for rows in (dense, fractional, digits, integers, split.matrices[0].rows):
        m = az.Matrix(rows)
        calls.append(("hilbert_chow", lambda m=m: az.hilbert_chow(m)))
    for r, degree in ((6, 2), (7, 2), (8, 2), (9, 2), (10, 2), (9, 0)):
        p = phi(r, degree)
        calls.append(("spectral_curve", lambda p=p: az.spectral_curve(p)))
    a3 = az.Matrix([[scalar() for _ in range(3)] for _ in range(3)])
    nil = az.Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    ident = az.Matrix.identity(3)
    pairs = [conjugate_pair(a3, a3 * a3 + a3 * scalar()),
             conjugate_pair(az.Matrix.diag([1, 1, 2, 2]), az.Matrix.diag([0, 0, 3, az.gr(0, 1)])),
             conjugate_pair(nil, nil * nil),
             (point(ident, az.Matrix.diag([1, 1, 2])), point(ident, az.Matrix.diag([2, 1, 1]))),
             (point(unit(0, 1), unit(0, 2)), point(unit(0, 1), unit(2, 1))),  # not conjugate
             (point(az.Matrix.identity(4), az.Matrix.diag([2] * 4)),) * 2]
    for t1, t2 in pairs:
        calls.append(("conjugacy", lambda t1=t1, t2=t2: az.conjugacy(t1, t2)))
    for k in (3, 4, 6):
        p = az.UniPoly.from_roots(colliding_roots(k), "x")
        calls.append(("split_roots", lambda p=p: az.split_roots(p)))
    p = az.UniPoly.from_roots(colliding_roots(4), "x") * az.UniPoly("x", [-2, 0, 1])
    calls.append(("split_roots", lambda p=p: az.split_roots(p)))
    for _, p in large_root_inputs():
        calls.append(("split_roots", lambda p=p: az.split_roots(p)))
    for label, name, args in elimination_inputs():
        calls.append((name, lambda fn=getattr(az.linalg, name), args=args: fn(*args)))
    for degree in (1, 2, 3):
        problem = az.HiggsProblem(phi(2, degree), scalar() or az.gr(3))
        for b in (phi(2, degree + 1), *gauge_candidates(problem)):
            calls.append(("ode_residual", lambda problem=problem, b=b: az.ode_residual(problem, b)))
    return calls


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="root of the checkout whose outputs are printed")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout either
    sys.set_int_max_str_digits(0)  # the ladder's kernels hold ints of over 4300 digits
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]

    import cli_requests
    import spectral
    import symbolic
    from run import digest

    groups = [(f"{name} {seed}", [(op.kind, op.fn) for op in build(seed)]) for seed in args.seeds
              for name, build in (("spectral", spectral.build), ("symbolic", symbolic.build),
                                  ("requests", cli_requests.build))]
    groups.append(("smoke", [(op.kind, op.fn) for op in cli_requests.smoke()]))
    groups.append(("extra", extra()))
    for label, calls in groups:
        for i, (kind, fn) in enumerate(calls):
            try:
                out = digest(fn())
            except Exception as exc:  # an operation's refusal is part of its answer
                out = ("raised", type(exc).__name__, str(exc))
            print(f"{label} {i} {kind}: {out!r}")
    from azumaya import cli

    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = cli.main(["scenario", "run-all"])
    print(f"scenario run-all: exit {code}")
    print(text.getvalue(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
