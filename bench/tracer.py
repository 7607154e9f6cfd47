"""Per-layer tracing, installed from outside the library.

`Tracer.install()` replaces public functions and methods of the `azumaya`
modules by wrappers, in every module namespace that holds them, so calls
made inside the library are seen too. A wrapper keeps a stack of open
spans: a span's self time is its duration minus the time of the spans it
opened. Calls, self time and counters are summed in memory. Span records
(id, parent id, name, start, end; the root span of each is the benchmark
operation) are kept for the run's first pass and written out when the
benchmark ends. The ring operations called hundreds of thousands of times
(polynomial and matrix products, MultiPoly construction) are summed but
not recorded one by one, to keep memory small.

Only the traced run installs the wrappers; the end-to-end run calls the
library as it is.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import azumaya as az

# (span name, module, attribute path) for every timed function
SPANS = [
    ("linalg.char_poly", "azumaya.linalg", "char_poly"),
    ("linalg.min_poly", "azumaya.linalg", "min_poly"),
    ("linalg.rank", "azumaya.linalg", "rank"),
    ("linalg.kernel_basis", "azumaya.linalg", "kernel_basis"),
    ("linalg.solve_exact", "azumaya.linalg", "solve_exact"),
    ("linalg.ring_det", "azumaya.linalg", "ring_det"),
    ("linalg.Matrix.mul", "azumaya.linalg", "Matrix.__mul__"),
    ("roots.split_roots", "azumaya.roots", "split_roots"),
    ("azpoint.hilbert_chow", "azumaya.azpoint", "hilbert_chow"),
    ("azpoint.pushforward", "azumaya.azpoint", "pushforward"),
    ("azpoint.support_length", "azumaya.azpoint", "support_length"),
    ("azpoint.vanishing_ideal", "azumaya.azpoint", "vanishing_ideal"),
    ("azpoint.image_ideal_univar", "azumaya.azpoint", "image_ideal_univar"),
    ("azpoint.conjugacy", "azumaya.azpoint", "conjugacy"),
    ("orbits.jordan_data", "azumaya.orbits", "jordan_data"),
    ("orbits.precede", "azumaya.orbits", "precede"),
    ("higgsing.fundamental_solutions", "azumaya.higgsing", "fundamental_solutions"),
    ("higgsing.ode_residual", "azumaya.higgsing", "ode_residual"),
    ("higgsing.classify_deformation", "azumaya.higgsing", "classify_deformation"),
    ("higgsing.spectral_curve", "azumaya.higgsing", "spectral_curve"),
    ("higgsing.PolyMatrix.mul", "azumaya.higgsing", "PolyMatrix.__mul__"),
    ("kahler.trace_form", "azumaya.kahler", "trace_form"),
    ("kahler.pullback_form", "azumaya.kahler", "pullback_form"),
    ("kahler.MPolyMatrix.mul", "azumaya.kahler", "MPolyMatrix.__mul__"),
    ("poly.UniPoly.mul", "azumaya.poly", "UniPoly.__mul__"),
    ("poly.UniPoly.divmod", "azumaya.poly", "UniPoly.divmod"),
    ("poly.UniPoly.gcd", "azumaya.poly", "UniPoly.gcd"),
    ("poly.MultiPoly.mul", "azumaya.poly", "MultiPoly.__mul__"),
    ("poly.MultiPoly.init", "azumaya.poly", "MultiPoly.__init__"),
    ("cli.main", "azumaya.cli", "main"),
]

# summed, but not recorded span by span
HOT = {"linalg.Matrix.mul", "higgsing.PolyMatrix.mul", "kahler.MPolyMatrix.mul", "poly.UniPoly.mul",
       "poly.UniPoly.divmod", "poly.UniPoly.gcd", "poly.MultiPoly.mul", "poly.MultiPoly.init"}

# functions whose returned values feed scalars.max_coeff_bits
BITS_OF = {"linalg.char_poly", "linalg.min_poly", "linalg.rank", "linalg.kernel_basis", "linalg.solve_exact",
           "linalg.ring_det", "linalg.Matrix.mul", "roots.split_roots"}

SCALAR_COUNTS = {"scalars.mul": ("__mul__", "__rmul__"), "scalars.add": ("__add__", "__radd__", "__sub__"),
                 "scalars.div": ("__truediv__",)}


def _replace_everywhere(orig, new):
    """Rebind every module-level name in azumaya that refers to orig."""
    for name, mod in list(sys.modules.items()):
        if name == "azumaya" or name.startswith("azumaya."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)


def _public_functions(module_name):
    mod = importlib.import_module(module_name)
    return [(key, val) for key, val in vars(mod).items()
            if isinstance(val, types.FunctionType) and not key.startswith("_") and val.__module__ == module_name]


def coeff_bits(x) -> int:
    """Largest numerator or denominator bit length inside a returned value."""
    if isinstance(x, bool):
        return 0
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, az.GaussianRational):
        return max(coeff_bits(x.re), coeff_bits(x.im))
    if isinstance(x, az.UniPoly):
        return max((coeff_bits(c) for c in x.coeffs), default=0)
    if isinstance(x, az.MultiPoly):
        return max((coeff_bits(c) for c in x.terms.values()), default=0)
    if isinstance(x, az.Matrix):
        return max((coeff_bits(c) for row in x.rows for c in row), default=0)
    if isinstance(x, (tuple, list)):
        return max((coeff_bits(c) for c in x), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [child seconds, recorded id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []          # (id, parent id, name, start, end)
        self.recording = True    # keep span records (the run turns this off after its first pass)
        self.max_bits = 0
        self.split_depth = 0
        self.roots_found = 0

    # -- spans ----------------------------------------------------------

    def span(self, name, fn, on_result=None):
        stack, spans, calls, self_s = self.stack, self.spans, self.calls, self.self_s
        hot = name in HOT
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            record = tracer.recording and not hot
            if record:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if record:
                    spans[sid] = (sid, parent, name, start, end)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def run_op(self, index, kind, fn):
        """One benchmark operation as the root span of its calls."""
        return self.span(f"op {index} {kind}", fn)()

    def _bits(self, out):
        b = coeff_bits(out)
        if b > self.max_bits:
            self.max_bits = b

    # -- installation ---------------------------------------------------

    def install(self):
        for name, module_name, path in SPANS:
            self._wrap(name, module_name, path)
        for key, _ in _public_functions("azumaya.torus"):
            self._wrap(f"torus.{key}", "azumaya.torus", key)
        for key, _ in _public_functions("azumaya.jsonio"):
            if key.startswith("parse_"):
                self._wrap(f"jsonio.parse.{key}", "azumaya.jsonio", key)
            elif key.endswith("_json") or key == "scalar_string":
                self._wrap(f"jsonio.serialize.{key}", "azumaya.jsonio", key)
        self._wrap("jsonio.serialize.canonical_json", "azumaya.cli", "canonical_json")
        self._count_scalars()
        self._count_root_evals()

    def _wrap(self, name, module_name, path):
        mod = importlib.import_module(module_name)
        if name == "roots.split_roots":
            on_result = self._split_result
        elif name in BITS_OF:
            on_result = self._bits
        else:
            on_result = None
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            orig = vars(cls)[attr]
            new = self.span(name, orig, on_result)
            for key, val in list(vars(cls).items()):
                if val is orig:
                    setattr(cls, key, new)
            return
        orig = getattr(mod, path)
        new = self.span(name, orig, on_result)
        if name == "roots.split_roots":
            new = self._split_guard(new)
        _replace_everywhere(orig, new)

    def _count_scalars(self):
        cls = az.GaussianRational
        counts = self.counts
        for key, attrs in SCALAR_COUNTS.items():
            for attr in attrs:
                orig = vars(cls)[attr]

                def counted(a, b, _orig=orig, _key=key):
                    counts[_key] += 1
                    return _orig(a, b)
                setattr(cls, attr, counted)

    def _count_root_evals(self):
        orig = az.UniPoly.__call__
        tracer = self

        def call(p, x):
            if tracer.split_depth:
                tracer.counts["roots.evals"] += 1
            return orig(p, x)
        az.UniPoly.__call__ = call

    def _split_result(self, out):
        self._bits(out)
        self.roots_found += sum(mult for _, mult in out)

    def _split_guard(self, fn):
        tracer = self

        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            tracer.split_depth += 1
            try:
                return fn(*args, **kwargs)
            except az.SpectrumNotSplit:
                tracer.counts["roots.nonsplit"] += 1
                raise
            finally:
                tracer.split_depth -= 1
        return guarded

    # -- results --------------------------------------------------------

    def metrics(self, passes: int):
        """Per-pass layer metrics: calls and self seconds divided by passes."""
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        torus = [k for k in self.calls if k.startswith("torus.")]
        out["torus.calls"] = (sum(self.calls[k] for k in torus) / passes, "count")
        out["torus.self_s"] = (sum(self.self_s[k] for k in torus) / passes, "s")
        for group in ("parse", "serialize"):
            keys = [k for k in self.calls if k.startswith(f"jsonio.{group}.")]
            out[f"jsonio.{group}_s"] = (sum(self.self_s[k] for k in keys) / passes, "s")
        for key in SCALAR_COUNTS:
            out[f"{key}.calls"] = (self.counts[key] / passes, "count")
        out["scalars.max_coeff_bits"] = (self.max_bits, "bits")
        evals = self.counts["roots.evals"]
        out["roots.evals_per_root"] = (evals / self.roots_found if self.roots_found else 0.0, "ratio")
        out["roots.nonsplit.calls"] = (self.counts["roots.nonsplit"] / passes, "count")
        return out

    def records(self):
        return [s for s in self.spans if s is not None]
