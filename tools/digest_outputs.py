"""Print a digest of every benchmark operation's output, one line each.

    python3 tools/digest_outputs.py ROOT --seeds 901 902 903

ROOT is the root of a checkout. The script imports `azumaya` from
ROOT/src and the workload builders from ROOT/bench, runs each operation of
the `spectral`, `symbolic` and `requests` workloads at every seed, and
then of the smoke set that every workload shares, once, and prints
`bench/run.py`'s `digest` of each output (or the exception it raised).
Last it prints the exit code and the stdout of
`cli.main(["scenario", "run-all"])`. It writes no file. Two checkouts give
the same output exactly when every operation and every scenario answers
the same, so a change that must keep outputs byte-identical is checked
with one diff:

    diff <(python3 tools/digest_outputs.py OLD --seeds 901 902 903) \\
         <(python3 tools/digest_outputs.py NEW --seeds 901 902 903)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys


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

    groups = [(f"{name} {seed}", build(seed)) for seed in args.seeds
              for name, build in (("spectral", spectral.build), ("symbolic", symbolic.build),
                                  ("requests", cli_requests.build))]
    groups.append(("smoke", cli_requests.smoke()))
    for label, ops in groups:
        for i, op in enumerate(ops):
            try:
                out = digest(op.fn())
            except Exception as exc:  # an operation's refusal is part of its answer
                out = ("raised", type(exc).__name__, str(exc))
            print(f"{label} {i} {op.kind}: {out!r}")
    from azumaya import cli

    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = cli.main(["scenario", "run-all"])
    print(f"scenario run-all: exit {code}")
    print(text.getvalue(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
