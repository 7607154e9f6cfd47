"""Time the `linalg` eliminations, best of k, and write BENCH_elim.json.

    python3 tools/bench_elim.py ROOT [--seeds 901 902 903] [--repeat 5] \\
        [--out BENCH_elim.json]

ROOT is the root of a checkout. The script imports `azumaya` from ROOT/src
and the `spectral` workload builder from ROOT/bench, which it does not
change. It runs one pass of the `spectral` operations of each seed with
`rank`, `kernel_basis` and `solve_exact` wrapped, to collect the arguments
that pass hands them, and then times each of the three on all of its
arguments together, best of `--repeat` passes. It also times each call of
the seeded ladder `digest_outputs.elimination_inputs` (the same script
directory), best of `--repeat`. Refusals are timed like answers. Two
checkouts are compared by running the script from one of them on each:

    python3 tools/bench_elim.py OLD --out old.json
    python3 tools/bench_elim.py NEW --out new.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from bench_roots import best_of

NAMES = ("rank", "kernel_basis", "solve_exact")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", help="root of the checkout whose eliminations are timed")
    p.add_argument("--seeds", type=int, nargs="+", default=[901, 902, 903])
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--out", default="BENCH_elim.json")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout either
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]

    import azumaya  # noqa: F401  (imports every module that uses the eliminations)
    from azumaya import linalg
    from digest_outputs import elimination_inputs
    import spectral

    inputs = {name: [] for name in NAMES}

    def collector(name, fn):
        def collect(*a):
            inputs[name].append(a)
            return fn(*a)
        return collect

    # every module that imported a name calls it under its own binding,
    # linalg itself included (solve_exact calls kernel_basis; the kernel
    # chains call neither name, only the integer core under kernel_basis)
    originals = {name: getattr(linalg, name) for name in NAMES}
    bound = [(m, name) for m in list(sys.modules.values()) for name in NAMES
             if m is not None and getattr(m, "__name__", "").startswith("azumaya")
             and getattr(m, name, None) is originals[name]]
    for mod, name in bound:
        setattr(mod, name, collector(name, originals[name]))
    for seed in args.seeds:
        for op in spectral.build(seed):
            try:
                op.fn()
            except Exception:  # a refusal is part of an operation's answer
                pass
    for mod, name in bound:
        setattr(mod, name, originals[name])

    def answer(fn, a):
        try:
            fn(*a)
        except ValueError:
            pass

    def run_all(name):
        fn = originals[name]
        for a in inputs[name]:
            answer(fn, a)

    result = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "repeat": args.repeat,
        "spectral": {name: {"seeds": args.seeds, "calls": len(inputs[name]),
                            "best_s": round(best_of(args.repeat, lambda: run_all(name)), 6)} for name in NAMES},
        "ladder": {f"{name} {label}": {"shape": f"{a[0].nrows}x{a[0].ncols}",
                                       "best_s": round(best_of(args.repeat, lambda: answer(originals[name], a)), 6)}
                   for label, name, a in elimination_inputs()},
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
