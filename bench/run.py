"""Benchmark of azumaya: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload spectral|symbolic|requests \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `azumaya` from `src/` of
that checkout and refuses to run on any other copy. It is one process with
no threads; the only other processes are the fresh `python -m azumaya`
(and, traced, `import azumaya.cli`) interpreters it times one at a time.

A run builds the workload's operations from the seed, warms up one
operation of each kind, then repeats whole passes over all operations, in
a new seeded order each pass, until the next pass would end after S
seconds (at least MIN_PASSES passes). Every output of every pass is
checked against the benchmark's own computation.

The host this was tuned on runs the same code up to twice as slow in
stretches of seconds to minutes. So the repeats of each operation are
spread over the whole run, a stdlib reference loop is timed every
REF_EVERY_S seconds, and every timed sample is scaled by the host speed
that loop shows around it (see HostSpeed). An operation's time is the
median of its scaled repeats. Process start-up slows more than the loop
does, so `cold_start_ms` is gauged by a bare interpreter started next to
each timed one (see BARE_START_MS). The unscaled fastest repeats are kept
in the result file.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
the library is wrapped by `tracer.Tracer` and the last line holds the
per-layer metrics (its timings are slowed by the wrappers and are not
end-to-end figures). Results and span traces are also written under
bench/out/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import bisect
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction

from ops import CheckError

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_PASSES = 2
COLD_STARTS = 24
IMPORT_SAMPLES = 5
REF_EVERY_S = 0.125
REF_WINDOW_S = 1.0
# The machine the benchmark was tuned on (2 cores, shared) runs the same
# code up to twice as slow for seconds to minutes at a time. The slowdown
# comes in bursts shorter than most operations, so a short reference loop
# shows it in its mean, not its median. Every timed sample is therefore
# scaled by REFERENCE_LOOP_MS / (mean of the ref_loop() samples taken
# within REF_WINDOW_S of it): times are reported in seconds of that machine
# at the speed where ref_loop() takes REFERENCE_LOOP_MS on average, its
# usual state. The unscaled figures are kept in the result file.
REFERENCE_LOOP_MS = 2.45
# Starting a process slows far more than computing in those stretches, and
# the reference loop does not see it. A bare interpreter (`python -c pass`)
# is started just before each timed `python -m azumaya`; cold_start_ms is
# BARE_START_MS, the bare start of that machine in its usual state, plus
# the median over the pairs of (azumaya start - bare start), scaled like
# any other sample.
BARE_START_MS = 65.0


def since_process_start() -> float:
    """Seconds since this process was started (10 ms resolution), read
    from /proc; since the script started where /proc is missing."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def ref_loop() -> float:
    """Seconds taken by a fixed stdlib Fraction loop, a gauge of host speed."""
    t = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k, k + 1) * Fraction(3, 7)
    return time.perf_counter() - t


class HostSpeed:
    """The host's speed through a run, from its (time, ref_loop()) samples."""

    def __init__(self, samples):
        self.t = [t for t, _ in samples]
        self.d = [d for _, d in samples]

    def scale(self, t) -> float:
        """REFERENCE_LOOP_MS over the mean ref_loop() near time t."""
        lo = bisect.bisect_left(self.t, t - REF_WINDOW_S)
        hi = bisect.bisect_right(self.t, t + REF_WINDOW_S)
        if hi - lo < 3:  # outside the sampled stretch: the nearest samples
            j = bisect.bisect_left(self.t, t)
            lo, hi = max(0, j - 4), min(len(self.t), j + 4)
        return REFERENCE_LOOP_MS / 1e3 / statistics.fmean(self.d[lo:hi])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start(request, env):
    """Spawn-to-exit seconds of a bare `python -c pass`, then of `python -m
    azumaya` answering one request, and what is wrong with its answer
    (None if nothing)."""
    argv, text, check = request
    out = []
    for cmd in (["-c", "pass"], ["-m", "azumaya", *argv]):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, *cmd], input=text, capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=60)
        out.append(time.perf_counter() - t)
    try:
        check((proc.returncode, proc.stdout))
    except CheckError as exc:
        return (*out, f"cold start: {exc}")
    return (*out, None)


def import_seconds(env):
    """A cold `import azumaya.cli`, timed inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import azumaya.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=60, check=True)
    return float(proc.stdout)


def quantile(values, q):
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("spectral", "symbolic", "requests"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def digest(x):
    """A plain, comparable copy of a library output, read through the
    __slots__ of its value classes."""
    if x is None or isinstance(x, (bool, int, str, Fraction)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(digest(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((digest(k), digest(v)) for k, v in x.items()))
    return (type(x).__name__,) + tuple(digest(getattr(x, s)) for s in type(x).__slots__)


class Run:
    """Operation outcomes of one run.

    The first output of each operation is checked against the benchmark's
    own computation; a later output is checked again only if it differs
    from the first one, and otherwise shares its verdict.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.seen = {}  # operation index -> (digest of its output, verdict)

    def record(self, i, op, out, error):
        self.attempted += 1
        if error is None:
            d = digest(out)
            prev = self.seen.get(i)
            if prev is not None and prev[0] == d:
                verdict = prev[1]
            else:
                try:
                    op.check(out)
                    verdict = None
                except CheckError as exc:
                    verdict = str(exc)
                self.seen[i] = (d, verdict)
            if verdict is None:
                return
        else:
            verdict = f"raised {type(error).__name__}: {error}"
        if not op.known_fault:
            self.wrong.append(f"{op.kind}: {verdict}")
            if error is None:
                return
        self.failed += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    import azumaya

    if not os.path.abspath(azumaya.__file__).startswith(SRC + os.sep):
        print(f"azumaya was imported from {azumaya.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import cli_requests
    import spectral
    import symbolic

    builders = {"spectral": (spectral.build, cli_requests.cold_hilbert_chow),
                "symbolic": (symbolic.build, cli_requests.cold_spectral_curve),
                "requests": (cli_requests.build, cli_requests.cold_orbit_extremes)}
    build, cold_request = builders[args.workload]
    ops = build(args.seed) + cli_requests.smoke()
    cold = cold_request(args.seed)
    env = child_env()

    warm = Run()
    kinds = set()
    for i, op in enumerate(ops):
        if op.kind not in kinds:
            kinds.add(op.kind)
            out, error = _call(op.fn)
            warm.record(i, op, out, error)
    setup_s = since_process_start()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    run = Run()
    n = len(ops)
    times = [[] for _ in range(n)]
    ref, colds, pass_s = [], [], []
    start = time.perf_counter()

    def spawn():
        t = time.perf_counter() - start
        bare, azu, wrong = cold_start(cold, env)
        colds.append((t, bare, azu))
        if wrong:
            run.wrong.append(wrong)

    next_ref = next_cold = start
    cold_gap = args.seconds / COLD_STARTS
    gc.collect()
    gc.disable()
    try:
        passes = 0
        while True:
            order = list(range(n))
            random.Random(f"order-{args.seed}-{passes}").shuffle(order)
            t_pass = time.perf_counter()
            for i in order:
                now = time.perf_counter()
                if now >= next_ref:
                    ref.append((now - start, ref_loop()))
                    next_ref = now + REF_EVERY_S
                if now >= next_cold and len(colds) < COLD_STARTS:
                    spawn()
                    next_cold = now + cold_gap
                op = ops[i]
                fn = op.fn if tracer is None else (lambda: tracer.run_op(i, op.kind, op.fn))
                t = time.perf_counter()
                out, error = _call(fn)
                times[i].append((t - start, time.perf_counter() - t))
                run.record(i, op, out, error)
            passes += 1
            pass_s.append(time.perf_counter() - t_pass)
            if tracer is not None:
                tracer.recording = False
            gc.collect()
            elapsed = time.perf_counter() - start
            if passes >= MIN_PASSES and elapsed + pass_s[-1] > args.seconds:
                break
    finally:
        gc.enable()
    while len(colds) < COLD_STARTS:
        spawn()

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpus": os.cpu_count(), "ops": n, "passes": passes,
        "pass_s": pass_s, "kinds": [op.kind for op in ops],
        # [seconds into the measurement, duration] of every sample; cold
        # samples hold the bare and then the azumaya duration
        "ref_samples": ref, "op_samples": times, "cold_samples": colds,
        "warmup_wrong": warm.wrong, "wrong": run.wrong[:50],
    }
    host = HostSpeed(ref)
    if tracer is None:
        # each operation at the median of its repeats, every repeat scaled
        # to the reference host speed at the time it ran
        per_op = [statistics.median(d * host.scale(t) for t, d in ts) for ts in times]
        metrics = {
            "setup_s": (setup_s * host.scale(0.0), "s"),
            "batch_s": (sum(per_op), "s"),
            "op_p50_ms": (quantile(per_op, 0.5) * 1e3, "ms"),
            "op_p90_ms": (quantile(per_op, 0.9) * 1e3, "ms"),
            "cold_start_ms": (BARE_START_MS + statistics.median((a - b) * host.scale(t) for t, b, a in colds) * 1e3,
                              "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        fastest = [min(d for _, d in ts) for ts in times]
        result["unscaled_fastest"] = {
            "setup_s": setup_s, "batch_s": sum(fastest), "op_p50_ms": quantile(fastest, 0.5) * 1e3,
            "op_p90_ms": quantile(fastest, 0.9) * 1e3, "cold_start_ms": min(a for _, _, a in colds) * 1e3,
        }
    else:
        metrics = tracer.metrics(passes)
        metrics["cli.import_s"] = (min(import_seconds(env) for _ in range(IMPORT_SAMPLES)), "s")
        metrics["host.ref_loop_ms"] = (statistics.fmean(host.d) * 1e3, "ms")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = not warm.wrong and not run.wrong
    line = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": result["metrics"]}
    _write(args, result, tracer)
    for msg in (warm.wrong + run.wrong)[:20]:
        print(f"WRONG {msg}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def _call(fn):
    try:
        return fn(), None
    except Exception as exc:  # an operation's failure is counted, not fatal
        return None, exc


def _write(args, result, tracer):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for sid, parent, name, s, e in tracer.records():
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": s, "end": e}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
