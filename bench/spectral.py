"""The `spectral` workload: Hilbert-Chow, Jordan and support data of seeded
matrices whose Jordan form is known by construction.

Each input is M = P * B * P^-1 with B block diagonal (Jordan blocks, and
for some inputs the companion block of a quadratic that is irreducible
over Q(i)) and P an integer unimodular matrix, so that M has Gaussian
integer entries and every expected output follows from B alone. The
commuting pairs are P * D1 * P^-1, P * D2 * P^-1 with D1, D2 diagonal.

The schedule of operations (kind, size, eigenvalue class) and each
operation's spectrum and block structure are fixed, so that the cost of a
pass hardly depends on the seed. The seed picks P, and for the "small" and
"quad" classes a symmetry of the spectrum (a unit factor and complex
conjugation); the spectra of the "big" classes are used as they are, so
that root extraction does the same work for every seed. Eigenvalue
classes:

- "small": Gaussian integers with |re|, |im| <= 2. Here char_poly,
  min_poly and rank carry the cost.
- "big": four distinct eigenvalues, all (or, with "bigquad", three) of
  height 5..9, so root extraction enumerates many divisor candidates.
  These inputs set op_p90_ms.
- "quad": small eigenvalues plus one irreducible quadratic factor, so
  hilbert_chow reports no roots.
- "bigquad": both of the above.
"""

from __future__ import annotations

import random

import azumaya as az

import exact as ex
from exact import GQ
from ops import Op, expect, mpoly, point_key, scal, upoly

SMALL = [(0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1), (1, 1),
         (1, -1), (-1, 1), (-1, -1), (0, 2), (0, -2), (2, 1), (1, 2), (-2, 1)]

# z^2 + a1*z + a0 as (a0, a1); none has a root in Q(i).
QUADS = [((-2, 0), (0, 0)), ((-3, 0), (0, 0)), ((2, 0), (0, 0)), ((3, 0), (0, 0)),
         ((1, 0), (1, 0)), ((-6, 0), (0, 0)), ((0, -1), (0, 0))]

# (kind, size r, eigenvalue class, number of slots or the slots themselves)
SCHEDULE = (
    [("hilbert_chow", r, "small", c) for r, c in ((3, 4), (4, 4), (5, 3), (6, 1), (7, 1), (8, 1))]
    + [("image_ideal_univar", r, "small", c) for r, c in ((3, 3), (4, 3), (5, 2), (6, 1), (7, 1), (8, 1))]
    + [("jordan_data", r, "small", c) for r, c in ((3, 3), (4, 3), (5, 2))]
    + [("pushforward", r, "small", c) for r, c in ((3, 3), (4, 3), (5, 1))]
    + [("conjugacy", r, "small", 3) for r in (3, 4)]
    + [("vanishing_ideal", r, "pair", c) for r, c in ((3, 3), (4, 1))]
    + [("support_length", r, "pair", c) for r, c in ((3, 3), (4, 3), (5, 1))]
    + [("pushforward", r, "pair", 2) for r in (3, 4)]
    + [("hilbert_chow", r, "quad", 1) for r in range(4, 7)]
    + [("image_ideal_univar", 6, "bigquad", 2)]
    # The heavy inputs. Their spectra are fixed per slot; these slots were
    # picked so that each costs about 50..100 ms here, which puts op_p90_ms
    # in the middle of this group rather than on its edge.
    + [("hilbert_chow", 4, "big", (0, 1, 4, 7, 8, 11, 15, 16, 21))]
    + [("hilbert_chow", 5, "big", (0, 1, 2, 17, 18))]
    + [("hilbert_chow", 6, "bigquad", (2, 9, 12, 23))]
    + [("jordan_data", 4, "big", (0, 1))]
)

# ---------------------------------------------------------------------------
# input generation


def _big(rng):
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if max(abs(a), abs(b)) >= 5:
            return (a, b)


def composition(rng, n, k):
    """n split into k positive parts."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def partition(rng, n):
    parts = []
    while n:
        x = rng.randint(1, n)
        parts.append(x)
        n -= x
    return tuple(sorted(parts, reverse=True))


UNITS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def structure(shape, rng, r, cls):
    """[(eigenvalue, partition)], [quadratic] for an r x r input.

    `shape` fixes the spectrum and the block structure, so that the cost of
    an operation does not depend on the seed. For the small classes `rng`
    picks one unit and whether to conjugate, applied to the whole spectrum.
    """
    quads = [shape.choice(QUADS)] if cls in ("quad", "bigquad") else []
    n = r - 2 * len(quads)
    big = cls in ("big", "bigquad")
    k = min(n, 4) if big else shape.randint(1, min(n, 4))
    nbig = (k if cls == "big" else 3) if big else 0
    evs = []
    while len(evs) < k:
        ev = _big(shape) if len(evs) < nbig else shape.choice(SMALL)
        if ev not in evs:
            evs.append(ev)
    mults = composition(shape, n, k)
    turn = (lambda x: x) if big else _symmetry(rng)
    eigen = [(turn(GQ(*ev)), partition(shape, m)) for ev, m in zip(evs, mults)]
    u = turn(ex.ONE)
    quads = [(_pair_of(turn(GQ(*a0)) * u), _pair_of(turn(GQ(*a1)))) for a0, a1 in quads]
    return eigen, quads


def _symmetry(rng):
    """x -> u * x or u * conj(x) for a seeded unit u."""
    u, flip = GQ(*rng.choice(UNITS)), rng.random() < 0.5
    return lambda x: u * (GQ(x.re, -x.im) if flip else x)


def _pair_of(x):
    return (int(x.re), int(x.im))


def block_matrix(eigen, quads):
    blocks = []
    for ev, parts in eigen:
        for size in parts:
            blocks.append([[ev if i == j else ex.ONE if j == i + 1 else ex.ZERO
                            for j in range(size)] for i in range(size)])
    for a0, a1 in quads:
        blocks.append([[ex.ZERO, ex.ONE], [-GQ(*a0), -GQ(*a1)]])
    n = sum(len(b) for b in blocks)
    out = [[ex.ZERO] * n for _ in range(n)]
    o = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[o + i][o:o + len(row)] = row
        o += len(b)
    return out


def unimodular(rng, r):
    """An integer unimodular P and its inverse, from r row additions."""
    p, q = ex.identity(r), ex.identity(r)
    for _ in range(r):
        i, j = rng.sample(range(r), 2)
        c = GQ(rng.choice((1, -1)))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] = row[j] - c * row[i]
    return p, q


def plain(m):
    """Gaussian integer matrix as nested (re, im) int pairs."""
    out = []
    for row in m:
        assert all(x.re.denominator == 1 and x.im.denominator == 1 for x in row)
        out.append(tuple((int(x.re), int(x.im)) for x in row))
    return tuple(out)


def conjugated(rng, b):
    p, q = unimodular(rng, len(b))
    return plain(ex.mat_mul(ex.mat_mul(p, b), q))


def matrix(rows):
    return az.Matrix([[az.gr(a, b) for a, b in row] for row in rows])


def single_point(rows):
    return az.RepPoint(("z",), (matrix(rows),))


def pair_point(rows1, rows2):
    return az.RepPoint(("x", "y"), (matrix(rows1), matrix(rows2)))


# ---------------------------------------------------------------------------
# expected values


def char_poly_of(eigen, quads):
    p = ex.from_roots([ev for ev, parts in eigen for _ in range(sum(parts))])
    for a0, a1 in quads:
        p = ex.pmul(p, [GQ(*a0), GQ(*a1), ex.ONE])
    return p


def min_poly_of(eigen, quads):
    p = ex.from_roots([ev for ev, parts in eigen for _ in range(parts[0])])
    for a0, a1 in quads:
        p = ex.pmul(p, [GQ(*a0), GQ(*a1), ex.ONE])
    return p


def sorted_eigen(eigen):
    return sorted(eigen, key=lambda e: e[0].key())


def check_hilbert_chow(eigen, quads):
    want_cp = char_poly_of(eigen, quads)
    want_roots = None if quads else [(ev.key(), sum(p)) for ev, p in sorted_eigen(eigen)]

    def check(out):
        cp, roots = out
        expect(upoly(cp) == want_cp, "char_poly differs from prod (z - lambda)^m")
        if want_roots is None:
            expect(roots is None, "non-split input reported roots")
        else:
            expect(roots is not None, "split input reported no roots")
            got = [(scal(rt).key(), m) for rt, m in roots]
            expect(got == want_roots, f"roots {got} != {want_roots}")
    return check


def check_min_poly(eigen, quads):
    want = min_poly_of(eigen, quads)

    def check(out):
        expect(upoly(out) == want, "minimal polynomial differs from that of J")
    return check


def check_jordan(eigen):
    want = [((ev.key(),), tuple(p)) for ev, p in sorted_eigen(eigen)]

    def check(out):
        got = [(point_key(pt), tuple(parts)) for pt, parts in out.entries]
        expect(got == want, f"Jordan data {got} != {want}")
    return check


def check_pushforward_single(eigen):
    want = [((ev.key(),), sum(p), tuple(ex.filtration(p))) for ev, p in sorted_eigen(eigen)]

    def check(out):
        got = [(point_key(pt), ln, tuple(ranks)) for pt, ln, ranks in out.entries]
        expect(got == want, f"pushforward {got} != {want}")
    return check


def _joint_points(d1, d2):
    counts = {}
    for a, b in zip(d1, d2):
        counts[(a.key(), b.key())] = counts.get((a.key(), b.key()), 0) + 1
    return sorted(counts.items())


def check_support_pair(d1, d2):
    want = _joint_points(d1, d2)

    def check(out):
        got = [(point_key(pt), ln) for pt, ln in out.entries]
        expect(got == want, f"support {got} != {want}")
    return check


def check_support_single(eigen):
    want = [((ev.key(),), sum(p)) for ev, p in sorted_eigen(eigen)]

    def check(out):
        got = [(point_key(pt), ln) for pt, ln in out.entries]
        expect(got == want, f"support {got} != {want}")
    return check


def check_pushforward_pair(d1, d2):
    want = [(pt, n, ()) for pt, n in _joint_points(d1, d2)]

    def check(out):
        got = [(point_key(pt), ln, tuple(ranks)) for pt, ln, ranks in out.entries]
        expect(got == want, f"pushforward {got} != {want}")
    return check


def check_vanishing(d1, d2, r):
    own = vanishing_check(d1, d2, r)
    return lambda out: own([mpoly(f) for f in out])


def vanishing_check(d1, d2, r):
    """Check of a degree <= r vanishing-ideal basis given as own dict polys."""
    pts = {(a.key(), b.key()): (a, b) for a, b in zip(d1, d2)}
    want_size = ex.num_monomials(2, r) - len(pts)

    def check(polys):
        expect(len(polys) == want_size, f"{len(polys)} generators, expected {want_size}")
        leads = set()
        for terms in polys:
            expect(terms, "zero generator")
            for pt in pts.values():
                expect(not ex.meval(terms, pt), "generator does not vanish at a joint eigenpoint")
            lead = min(terms, key=lambda e: (sum(e), e))
            expect(lead not in leads, "generators are not in echelon form")
            leads.add(lead)
    return check


def check_conjugacy(conjugate: bool):
    def check(out):
        if conjugate:
            expect(out == "conjugate", f"conjugate pair reported {out!r}")
        else:
            expect(out != "conjugate", "pair with different Jordan partitions reported conjugate")
    return check


# ---------------------------------------------------------------------------


def other_partition(rng, eigen):
    """Same spectrum, a different partition at one eigenvalue."""
    idx = [i for i, (_, p) in enumerate(eigen) if sum(p) >= 2]
    i = rng.choice(idx)
    ev, parts = eigen[i]
    while True:
        new = partition(rng, sum(parts))
        if new != parts:
            break
    return eigen[:i] + [(ev, new)] + eigen[i + 1:]


def diagonal_pair(shape, rng, r, kmin=2):
    """Commuting P D1 P^-1, P D2 P^-1 with D1, D2 diagonal: the joint points
    and their counts come from `shape`, a symmetry of each coordinate and P
    from `rng`. Returns the diagonals d1, d2 and the two matrices."""
    k = shape.randint(kmin, min(r, 4))
    pts = []
    while len(pts) < k:
        pt = (shape.choice(SMALL), shape.choice(SMALL))
        if pt not in pts:
            pts.append(pt)
    counts = composition(shape, r, k)
    t1, t2 = _symmetry(rng), _symmetry(rng)
    d1 = [t1(GQ(*pt[0])) for pt, c in zip(pts, counts) for _ in range(c)]
    d2 = [t2(GQ(*pt[1])) for pt, c in zip(pts, counts) for _ in range(c)]
    p, q = unimodular(rng, r)
    m1, m2 = (plain(ex.mat_mul(ex.mat_mul(p, block_matrix([(x, (1,)) for x in d], [])), q)) for d in (d1, d2))
    return d1, d2, m1, m2


def _op(rng, kind, r, cls, slot):
    """Operation number `slot` of a schedule row; `rng` is the seeded stream."""
    shape = random.Random(f"{kind}-{r}-{cls}-{slot}")
    if cls == "pair":
        d1, d2, m1, m2 = diagonal_pair(shape, rng, r)
        if kind == "vanishing_ideal":
            return Op(kind, lambda: az.vanishing_ideal(pair_point(m1, m2)), check_vanishing(d1, d2, r))
        if kind == "support_length":
            return Op(kind, lambda: az.support_length(pair_point(m1, m2)), check_support_pair(d1, d2))
        return Op("pushforward", lambda: az.pushforward(pair_point(m1, m2)), check_pushforward_pair(d1, d2))

    while True:
        eigen, quads = structure(shape, rng, r, cls)
        if kind != "conjugacy" or any(sum(p) >= 2 for _, p in eigen):
            break
    b = block_matrix(eigen, quads)
    m = conjugated(rng, b)
    if kind == "hilbert_chow":
        return Op(kind, lambda: az.hilbert_chow(matrix(m)), check_hilbert_chow(eigen, quads))
    if kind == "image_ideal_univar":
        return Op(kind, lambda: az.image_ideal_univar(single_point(m)), check_min_poly(eigen, quads))
    if kind == "jordan_data":
        return Op(kind, lambda: az.jordan_data(single_point(m)), check_jordan(eigen))
    if kind == "pushforward":
        return Op(kind, lambda: az.pushforward(single_point(m)), check_pushforward_single(eigen))
    if kind == "support_length":
        return Op(kind, lambda: az.support_length(single_point(m)), check_support_single(eigen))
    # conjugacy: the last slot of each size compares with a different partition
    conj = slot % 3 != 2
    target = plain(b if conj else block_matrix(other_partition(shape, eigen), quads))
    return Op(kind, lambda: az.conjugacy(single_point(m), single_point(target)), check_conjugacy(conj))


def build(seed: int):
    rng = random.Random(f"spectral-{seed}")
    ops = []
    for kind, r, cls, slots in SCHEDULE:
        for slot in range(slots) if isinstance(slots, int) else slots:
            ops.append(_op(rng, kind, r, cls, slot))
    return ops
