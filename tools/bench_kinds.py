"""Time the benchmark's operations kind by kind, and a ladder of large
inputs, best of k, and write BENCH_kinds.json.

    python3 tools/bench_kinds.py ROOT [--seeds 901 902 903] [--repeat 5] \\
        [--out BENCH_kinds.json]

ROOT is the root of a checkout. The script imports `azumaya` from ROOT/src
and the workload builders from ROOT/bench, which it does not change. For
each workload (`spectral`, `symbolic`, `requests`) it builds the
operations of every seed, groups them by kind, and times each kind as the
sum over its operations, best of `--repeat` passes, all in one process.
Outputs are not checked; a refusal is timed like an answer. Then it times
each input of `large_inputs`, best of `--repeat`:

- `min_poly` of an 8x8 derogatory matrix, two Jordan blocks of size 4 at
  one Gaussian eigenvalue, conjugated by a dense invertible matrix of
  Gaussian entries of 1, 10, 30 and 100 digits;
- the `Matrix` product of two 8x8 and of two 12x12 Gaussian matrices whose
  entries each have their own denominator of 3 or of 30 digits;
- `jordan_data` at r = 6 and 8 of Jordan blocks at three eigenvalues,
  conjugated by L * U of 30-digit entries with each row divided by its
  own 30-digit denominator;
- `fundamental_solutions` and `HiggsSolution.combine` (with a random
  Bhat of as many digits) of a constant solvable A of Gaussian entries of
  1, 10, 30 and 100 digits and lam over a denominator of as many digits;
- the `PolyMatrix` product of two 4x4 matrices of degree-10 entries of
  3-digit Gaussian coefficients, each entry over its own 30-digit
  denominator, and each coefficient over its own.

Two checkouts are compared by running the script from one of them on each:

    python3 tools/bench_kinds.py OLD --out old.json
    python3 tools/bench_kinds.py NEW --out new.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys

from bench_roots import best_of

WORKLOADS = ("spectral", "symbolic", "requests")


def large_inputs():
    """(label, call) for the ladder above, seeded."""
    import azumaya as az
    from azumaya.linalg import rank, solve_exact
    from azumaya.orbits import jordan_data_of_matrix

    rng = random.Random("kinds")

    def gauss(digits):
        b = 10 ** digits - 1
        return az.gr(rng.randint(-b, b), rng.randint(-b, b))

    def unit_triangular(n, digits, lower):
        return az.Matrix([[az.gr(1) if i == j else gauss(digits) if (j < i) == lower else az.gr(0)
                           for j in range(n)] for i in range(n)])

    def dense(n, digits):
        while True:
            p = az.Matrix([[gauss(digits) for _ in range(n)] for _ in range(n)])
            if rank(p) == n:
                return p

    def conjugated(blocks, p):
        """The Jordan matrix of (eigenvalue, size) blocks, conjugated by p."""
        diag = [ev for ev, size in blocks for _ in range(size)]
        sup = [k + 1 < size for _, size in blocks for k in range(size)]
        n = len(diag)
        b = az.Matrix([[diag[i] if j == i else az.gr(int(sup[i] and j == i + 1)) for j in range(n)]
                       for i in range(n)])
        return p * b * solve_exact(p, az.Matrix.identity(n))

    def row_fractional(n, digits):
        """L * U for unit-triangular L and U, each row over its own denominator."""
        p = unit_triangular(n, digits, True) * unit_triangular(n, digits, False)
        dens = [rng.randint(10 ** (digits - 1), 10 ** digits - 1) for _ in range(n)]
        return az.Matrix([[x / d for x in row] for row, d in zip(p.rows, dens)])

    def fractional(n, den_digits):
        return az.Matrix([[gauss(3) / rng.randint(10 ** (den_digits - 1), 10 ** den_digits - 1) for _ in range(n)]
                          for _ in range(n)])

    def solvable(digits):
        """A constant HiggsProblem: a1 - a4 = 2u, a2 = u c, a3 = -u / c."""
        s, u, c = gauss(digits), gauss(digits), gauss(digits) or az.gr(1)
        lam = (gauss(digits) or az.gr(1)) / rng.randint(1, 10 ** digits)
        return az.HiggsProblem(az.PolyMatrix([[s + u, u * c], [-u / c, s - u]]), lam)

    def poly_matrix(same_den):
        def entry():
            d = rng.randint(10 ** 29, 10 ** 30 - 1)
            return az.UniPoly("z", [gauss(3) / (d if same_den else rng.randint(10 ** 29, 10 ** 30 - 1))
                                    for _ in range(11)])
        return az.PolyMatrix([[entry() for _ in range(4)] for _ in range(4)])

    out = []
    ev = az.gr(2, -1)
    for digits in (1, 10, 30, 100):
        m = conjugated([(ev, 4)] * 2, dense(8, digits))
        out.append((f"min_poly 8x8 derogatory {digits}-digit conjugator", lambda m=m: az.min_poly(m)))
    for n in (8, 12):
        for den_digits in (3, 30):
            a, b = fractional(n, den_digits), fractional(n, den_digits)
            out.append((f"Matrix product {n}x{n} distinct {den_digits}-digit denominators", lambda a=a, b=b: a * b))
    for r, blocks in ((6, [(az.gr(1, 2), 2), (az.gr(1, 2), 1), (az.gr(-3, 1) / 5, 3)]),
                      (8, [(az.gr(0, 1), 3), (az.gr(0, 1), 1), (az.gr(2), 2), (az.gr(7, 3), 2)])):
        m = conjugated(blocks, row_fractional(r, 30))
        out.append((f"jordan_data r={r} 30-digit denominators", lambda m=m: jordan_data_of_matrix(m)))
    for digits in (1, 10, 30, 100):
        p, bhat = solvable(digits), [gauss(digits) for _ in range(4)]
        out.append((f"fundamental_solutions {digits}-digit", lambda p=p: az.fundamental_solutions(p)))
        out.append((f"combine {digits}-digit", lambda p=p, bhat=bhat: az.HiggsSolution.combine(p, bhat)))
    for same_den, label in ((True, "entry"), (False, "coefficient")):
        a, b = poly_matrix(same_den), poly_matrix(same_den)
        out.append((f"PolyMatrix product 4x4 degree 10, 30-digit denominator per {label}", lambda a=a, b=b: a * b))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="root of the checkout whose operations are timed")
    p.add_argument("--seeds", type=int, nargs="+", default=[901, 902, 903])
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--out", default="BENCH_kinds.json")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout either
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]

    import cli_requests
    import spectral
    import symbolic

    builders = {"spectral": spectral.build, "symbolic": symbolic.build, "requests": cli_requests.build}

    def run_all(fns):
        for fn in fns:
            try:
                fn()
            except Exception:  # a refusal is part of an operation's answer
                pass

    kinds = {}
    for name in WORKLOADS:
        groups = {}
        for seed in args.seeds:
            for op in builders[name](seed):
                groups.setdefault(op.kind, []).append(op.fn)
        run_all([fn for fns in groups.values() for fn in fns])  # warm up
        kinds[name] = {kind: {"ops": len(fns), "best_s": round(best_of(args.repeat, lambda: run_all(fns)), 6)}
                       for kind, fns in sorted(groups.items())}

    result = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "repeat": args.repeat,
        "seeds": args.seeds,
        "kinds": kinds,
        "large": {label: {"best_s": round(best_of(args.repeat, fn), 6)} for label, fn in large_inputs()},
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
