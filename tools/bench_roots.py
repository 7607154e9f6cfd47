"""Time `roots.split_roots`, best of k, and write BENCH_roots.json.

    python3 tools/bench_roots.py ROOT [--seeds 901 902 903] [--repeat 5] \\
        [--out BENCH_roots.json]

ROOT is the root of a checkout. The script imports `azumaya` from ROOT/src
and the `spectral` workload builder from ROOT/bench, which it does not
change. It runs one pass of the `spectral` operations of each seed with
`split_roots` wrapped, to collect the polynomials that pass hands it, and
then times `split_roots` on all of them together, best of `--repeat`
passes. It also times each large input of `digest_outputs.large_root_inputs`
(the same script directory), best of `--repeat`. Answers that raise
`SpectrumNotSplit` are timed like the others. Two checkouts are compared
by running the script from one of them on each:

    python3 tools/bench_roots.py OLD --out old.json
    python3 tools/bench_roots.py NEW --out new.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time


def best_of(k, fn):
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="root of the checkout whose split_roots is timed")
    p.add_argument("--seeds", type=int, nargs="+", default=[901, 902, 903])
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--out", default="BENCH_roots.json")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout either
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]

    import azumaya  # noqa: F401  (imports every module that uses split_roots)
    from azumaya import roots
    from azumaya.errors import SpectrumNotSplit
    from digest_outputs import large_root_inputs
    import spectral

    split_roots = roots.split_roots
    inputs = []

    def collect(poly):
        inputs.append(poly)
        return split_roots(poly)

    # every module that imported the name calls it under its own binding
    users = [m for m in list(sys.modules.values())
             if m is not None and getattr(m, "__name__", "").startswith("azumaya")
             and getattr(m, "split_roots", None) is split_roots]
    for mod in users:
        mod.split_roots = collect
    for seed in args.seeds:
        for op in spectral.build(seed):
            try:
                op.fn()
            except Exception:  # a refusal is part of an operation's answer
                pass
    for mod in users:
        mod.split_roots = split_roots

    def answer(poly):
        try:
            split_roots(poly)
        except SpectrumNotSplit:
            pass

    def run_all():
        for poly in inputs:
            answer(poly)

    result = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "repeat": args.repeat,
        "spectral": {"seeds": args.seeds, "calls": len(inputs), "best_s": round(best_of(args.repeat, run_all), 6)},
        "large": {label: {"degree": poly.degree, "best_s": round(best_of(args.repeat, lambda: answer(poly)), 6)}
                  for label, poly in large_root_inputs()},
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
