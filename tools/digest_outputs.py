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
factor x^2 - 2 that does not split, and `ode_residual` with a polynomial
A, against random B and against the closed-form B of non-constant a_i),
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


def extra():
    """(kind, call) for each library call of the fixed group."""
    import azumaya as az
    from azumaya.higgsing import _formula_solutions
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
    for degree in (1, 2, 3):
        problem = az.HiggsProblem(phi(2, degree), scalar() or az.gr(3))
        for b in (phi(2, degree + 1), *_formula_solutions(*problem.a.rows[0], *problem.a.rows[1], problem.lam, "z")):
            calls.append(("ode_residual", lambda problem=problem, b=b: az.ode_residual(problem, b)))
    return calls


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="root of the checkout whose outputs are printed")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout either
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
