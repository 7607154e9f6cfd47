"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py OLD.json [OLD2.json ...] -- NEW.json [NEW2.json ...]

Each file is a result file written by bench/run.py (bench/out/*.json) or a
file holding the JSON line it prints. For every metric the script prints
the median of each set, the change of the new median against the old one,
and each set's spread (distance between first and third quartile over the
median). A change smaller than the old set's spread is not resolved.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as fh:
        text = fh.read().strip()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = json.loads(text.splitlines()[-1])
    return {k: v["value"] for k, v in data["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    old = [load(p) for p in argv[:cut]]
    new = [load(p) for p in argv[cut + 1:]]
    if not old or not new:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"{'metric':44s} {'old median':>12s} {'new median':>12s} {'change':>8s} {'old spread':>10s} {'new spread':>10s}")
    for name in old[0]:
        a = [r[name] for r in old if name in r]
        b = [r[name] for r in new if name in r]
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else float("nan")
        print(f"{name:44s} {ma:12.6g} {mb:12.6g} {change:+8.1%} {spread(a):10.3f} {spread(b):10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
