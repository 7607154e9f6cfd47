"""The benchmark's own exact arithmetic, written apart from `azumaya`.

Every expected value the checkers compare against is computed here, with
`fractions.Fraction` and plain containers, so that no checker relies on
the code it checks:

- Gaussian rationals are `GQ` values.
- Univariate polynomials are lists of `GQ`, lowest degree first, with no
  trailing zero.
- Multivariate polynomials are dicts from exponent tuples to nonzero `GQ`.
- Matrices are lists of rows.
"""

from __future__ import annotations

from fractions import Fraction


class GQ:
    """An element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return GQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GQ(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, o):
        return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return GQ((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        return isinstance(o, GQ) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def key(self):
        return (self.re, self.im)

    def __repr__(self):
        return f"GQ({self.re}, {self.im})"


ZERO = GQ()
ONE = GQ(1)


# ---------------------------------------------------------------------------
# the documented scalar text format


def fmt_string(x: GQ) -> str:
    """Canonical string of a scalar: "a/b" when real, else "a/b+c/di"."""
    if not x.im:
        return str(x.re)
    sign = "+" if x.im > 0 else "-"
    return f"{x.re}{sign}{abs(x.im)}i"


def fmt_json(x: GQ):
    """JSON form of a scalar: an integer when it is one, else the string."""
    if not x.im and x.re.denominator == 1:
        return int(x.re)
    return fmt_string(x)


def parse_json_scalar(v) -> GQ:
    """Read a scalar printed in the documented format; raises ValueError."""
    if isinstance(v, bool):
        raise ValueError(f"not a scalar: {v!r}")
    if isinstance(v, int):
        return GQ(v)
    if not isinstance(v, str):
        raise ValueError(f"not a scalar: {v!r}")
    if not v.endswith("i"):
        return GQ(Fraction(v))
    body = v[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        raise ValueError(f"not a canonical complex scalar: {v!r}")
    return GQ(Fraction(body[:cut]), Fraction(body[cut:]))


# ---------------------------------------------------------------------------
# univariate polynomials


def ptrim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def padd(p, q):
    n = max(len(p), len(q))
    return ptrim([(p[k] if k < len(p) else ZERO) + (q[k] if k < len(q) else ZERO) for k in range(n)])


def pscale(p, c: GQ):
    return ptrim([a * c for a in p])


def pmul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return ptrim(out)


def from_roots(roots):
    """prod (z - root), the roots given with repetition."""
    p = [ONE]
    for r in roots:
        p = pmul(p, [-r, ONE])
    return p


def peval(p, x: GQ) -> GQ:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p):
    return ptrim([p[k] * GQ(k) for k in range(1, len(p))])


# ---------------------------------------------------------------------------
# matrices


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def det(rows) -> GQ:
    """Determinant by Gaussian elimination over the field."""
    a = [list(r) for r in rows]
    n = len(a)
    out = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return ZERO
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        p = a[c][c]
        out = out * p
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / p
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


# ---------------------------------------------------------------------------
# multivariate polynomials


def madd(f, h):
    out = dict(f)
    for e, c in h.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mscale(f, c: GQ):
    return {e: a * c for e, a in f.items()} if c else {}


def mmul(f, h):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in h.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, ZERO) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def mpartial(f, k: int):
    out = {}
    for e, c in f.items():
        if e[k]:
            e2 = list(e)
            e2[k] -= 1
            out[tuple(e2)] = c * GQ(e[k])
    return out


def meval(f, point) -> GQ:
    acc = ZERO
    for e, c in f.items():
        t = c
        for x, k in zip(point, e):
            for _ in range(k):
                t = t * x
        acc = acc + t
    return acc


def mconst(nvars: int, c: GQ):
    return {(0,) * nvars: c} if c else {}


def mmat_mul(a, b):
    """Product of square matrices with multivariate polynomial entries."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                acc = madd(acc, mmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mtrace(a):
    acc = {}
    for i in range(len(a)):
        acc = madd(acc, a[i][i])
    return acc


def num_monomials(nvars: int, degree: int) -> int:
    """Monomials of total degree <= degree in nvars variables."""
    out = 1
    for k in range(1, nvars + 1):
        out = out * (degree + k) // k
    return out


# ---------------------------------------------------------------------------
# partitions


def conjugate_partition(parts):
    return tuple(sum(1 for x in parts if x >= j) for j in range(1, (max(parts) if parts else 0) + 1))


def dominated(lam, mu) -> bool:
    """lam <= mu in the dominance order, decided on conjugate partitions:
    lam <= mu iff every partial sum of conj(lam) is >= that of conj(mu)."""
    if sum(lam) != sum(mu):
        return False
    cl, cm = conjugate_partition(lam), conjugate_partition(mu)
    sl = sm = 0
    for k in range(max(len(cl), len(cm))):
        sl += cl[k] if k < len(cl) else 0
        sm += cm[k] if k < len(cm) else 0
        if sm > sl:
            return False
    return True


def filtration(parts):
    """Ranks sum_i max(lambda_i - j, 0) for j = 1, 2, ... until zero."""
    out = []
    j = 1
    while True:
        k = sum(max(x - j, 0) for x in parts)
        if not k:
            return out
        out.append(k)
        j += 1
