"""Jordan-form data for punctual fibers and the orbit-closure order.

An orbit of commuting-tuple data over a curve is labeled, point by point,
by the Jordan partition of the nilpotent part of the local action.  The
closure order is decided by rank-sequence comparison: J precedes J' iff
the support-length data agree and rank(J_p^j) <= rank(J'_p^j) at every
point for every power j, with rank computed from block sizes as
sum_i max(lambda_i - j, 0).
"""

from __future__ import annotations

from .azpoint import RepPoint, SupportLengthData
from .linalg import Matrix, char_poly, power_ranks
from .roots import split_roots
from .scalars import GaussianRational


def check_partition(parts) -> tuple:
    parts = tuple(int(x) for x in parts)
    if any(x <= 0 for x in parts):
        raise ValueError("partition parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition must be weakly decreasing")
    return parts


def partition_power_rank(parts, j: int) -> int:
    """Rank of the j-th power of a nilpotent Jordan matrix with these blocks."""
    return sum(max(x - j, 0) for x in parts)


def partition_filtration(parts) -> tuple:
    """Ranks of successive powers, listed until they reach zero."""
    out = []
    j = 1
    while True:
        r = partition_power_rank(parts, j)
        if r == 0:
            return tuple(out)
        out.append(r)
        j += 1


class JordanData:
    """Canonical per-point Jordan data: ((point, partition), ...) sorted by
    the coordinatewise (re, im) order of the points."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        norm = []
        seen = set()
        for pt, parts in entries:
            pt = tuple(GaussianRational.coerce(x) for x in pt)
            parts = check_partition(parts)
            key = tuple(x.sort_key() for x in pt)
            if key in seen:
                raise ValueError("duplicate point in Jordan data")
            seen.add(key)
            norm.append((pt, parts))
        norm.sort(key=lambda e: tuple(x.sort_key() for x in e[0]))
        self.entries = tuple(norm)

    def support(self) -> SupportLengthData:
        return SupportLengthData((pt, sum(parts)) for pt, parts in self.entries)

    def total(self) -> int:
        return sum(sum(parts) for _, parts in self.entries)

    def __eq__(self, other):
        if not isinstance(other, JordanData):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = ", ".join(
            "(" + ",".join(str(x) for x in pt) + f"):{parts}"
            for pt, parts in self.entries
        )
        return "J{" + body + "}"


# An orbit is identified with its Jordan-form data; no extra geometry is
# stored, so the label type is the data type itself.
OrbitLabel = JordanData


def jordan_data(t: RepPoint) -> JordanData:
    """Jordan data of a single-matrix point, from global rank sequences.

    For an eigenvalue with multiplicity mu the number of blocks of size
    >= j is rank((m-ev)^(j-1)) - rank((m-ev)^j); the invertible part of
    m-ev contributes equally to both terms and drops out.
    """
    if t.arity != 1:
        raise ValueError("Jordan data is defined for single-matrix points")
    return jordan_data_of_matrix(t.matrices[0])


def jordan_data_of_matrix(m: Matrix) -> JordanData:
    roots = split_roots(char_poly(m, var="z"))
    r = m.nrows
    entries = []
    for ev, mult in roots:
        ranks = [r] + power_ranks(m - Matrix.identity(r) * ev, r - mult) + [r - mult]
        # sizes[j - 1] is the number of blocks of size >= j
        sizes = [a - b for a, b in zip(ranks, ranks[1:])]
        parts = []
        for size in range(len(sizes), 0, -1):
            count = sizes[size - 1] - (sizes[size] if size < len(sizes) else 0)
            parts.extend([size] * count)
        entries.append(((ev,), parts))
    return JordanData(entries)


def precede(j1: JordanData, j2: JordanData) -> bool:
    """The closure order: identical support-length data and pointwise
    rank-sequence inequality rank(J1^j) <= rank(J2^j) for all j >= 1."""
    if j1.support() != j2.support():
        return False
    for (pt1, p1), (pt2, p2) in zip(j1.entries, j2.entries):
        bound = max(p1[0] if p1 else 0, p2[0] if p2 else 0)
        for j in range(1, bound + 1):
            if partition_power_rank(p1, j) > partition_power_rank(p2, j):
                return False
    return True


def orbit_closure_contains(outer: OrbitLabel, inner: OrbitLabel) -> bool:
    """True iff the inner orbit lies in the closure of the outer one."""
    return precede(inner, outer)


def maximal_orbit(s: SupportLengthData) -> OrbitLabel:
    """One full Jordan block per point."""
    return JordanData((pt, (ln,)) for pt, ln in s.entries)


def minimal_orbit(s: SupportLengthData) -> OrbitLabel:
    """Fully split (semisimple) local type per point."""
    return JordanData((pt, (1,) * ln) for pt, ln in s.entries)


def filtration_ranks(j: JordanData):
    """Per point, the rank sequence of powers of the nilpotent action."""
    return tuple((pt, partition_filtration(parts)) for pt, parts in j.entries)


def partitions_of(n: int):
    """All partitions of n, each weakly decreasing, in lexicographic order."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(remaining, maxpart), 0, -1):
            rec(remaining - k, k, prefix + [k])

    rec(n, n, [])
    return out
