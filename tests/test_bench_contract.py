"""What the benchmark in bench/ needs of the matrix and scalar classes.

bench/tracer.py times each matrix class's product through the `__mul__`
in that class's own namespace, times the `UniPoly` and `MultiPoly`
products through the `__mul__` in their class dicts, and counts Q(i)
operations through the `GaussianRational` operators in its class dict. bench/run.py's `digest`
reads a value through `type(x).__slots__`. The check runs in a fresh
interpreter, so the tracer's patching of the library stays out of the
other tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
from fractions import Fraction
import azumaya as az
from run import digest
from tracer import Tracer

z = az.UniPoly.x("z")
p1 = az.PolyMatrix([[z, 1], [0, 1]])
p2 = az.PolyMatrix([[z, 1], [0, 2]])
xy = ("x", "y")
tracer = Tracer()
tracer.install()
az.Matrix([[1, 2], [3, 4]]) * az.Matrix([[0, 1], [1, 0]])
p1 * p2
az.MPolyMatrix(xy, [[az.MultiPoly.variable(xy, "x"), 1], [0, 1]]) * az.MPolyMatrix.identity(xy, 2)
names = ("linalg.Matrix.mul", "higgsing.PolyMatrix.mul", "kahler.MPolyMatrix.mul")
poly_names = ("poly.UniPoly.mul", "poly.MultiPoly.mul")
before = [tracer.calls[name] for name in poly_names]
(z + 1) * (z - 2)
(az.MultiPoly.variable(xy, "x") + 1) * az.MultiPoly.variable(xy, "y")
poly_calls = [tracer.calls[name] - b for name, b in zip(poly_names, before)]
scalar_keys = ("scalars.mul", "scalars.add", "scalars.div")

def scalar_counts(fn):
    before = [tracer.counts[k] for k in scalar_keys]
    fn()
    return [tracer.counts[k] - b for k, b in zip(scalar_keys, before)]

x, y = az.gr(1, 2), az.gr(Fraction(1, 3), -1)
print(json.dumps({
    "calls": {name: tracer.calls[name] for name in names},
    "poly_calls": poly_calls,
    "scalar_counts": [scalar_counts(lambda: x * y), scalar_counts(lambda: x + y), scalar_counts(lambda: x / y)],
    "scalar_digest": digest(az.gr(Fraction(1, 2))) != digest(az.gr(Fraction(1, 3))),
    "digest_tells_apart": digest(p1) != digest(p2),
    "digest_stable": digest(p1) == digest(az.PolyMatrix([[z, 1], [0, 1]])),
}))
"""


def test_tracer_and_digest_see_each_matrix_class():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["calls"] == {"linalg.Matrix.mul": 1, "higgsing.PolyMatrix.mul": 1, "kahler.MPolyMatrix.mul": 1}
    assert out["poly_calls"] == [1, 1]
    assert out["digest_tells_apart"] and out["digest_stable"]
    assert out["scalar_counts"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert out["scalar_digest"]
