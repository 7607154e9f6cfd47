"""Jordan-form data for punctual fibers and the orbit-closure order.

An orbit of commuting-tuple data over a curve is labeled, point by point,
by the Jordan partition of the nilpotent part of the local action.  The
closure order is rank-sequence comparison: J precedes J' iff the
support-length data agree and rank(J_p^j) <= rank(J'_p^j) at every point
for every power j, with rank computed from block sizes as
sum_i max(lambda_i - j, 0).  `precede` decides it in time linear in the
number of parts, by the equivalent dominance order of the partitions.
"""

from __future__ import annotations

from itertools import accumulate

from .azpoint import RepPoint, SupportLengthData
from .linalg import Matrix, eigen_chains
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
    """Jordan data of a single-matrix point, from its kernel chains.

    For an eigenvalue ev the number of blocks of size >= j is
    d_j - d_(j-1), with d_j = dim ker (m-ev)^j and d_0 = 0, so the
    partition is the conjugate of these steps.
    """
    if t.arity != 1:
        raise ValueError("Jordan data is defined for single-matrix points")
    return jordan_data_of_matrix(t.matrices[0])


def jordan_data_of_matrix(m: Matrix) -> JordanData:
    entries = []
    for ev, dims, _ in eigen_chains(m):
        steps = [b - a for a, b in zip([0] + dims, dims)]
        entries.append(((ev,), [sum(s >= k for s in steps) for k in range(1, steps[0] + 1)]))
    return JordanData(entries)


def precede(j1: JordanData, j2: JordanData) -> bool:
    """The closure order: identical support-length data and pointwise
    rank-sequence inequality rank(J1^j) <= rank(J2^j) for all j >= 1."""
    if j1.support() != j2.support():
        return False
    for (_, p1), (_, p2) in zip(j1.entries, j2.entries):
        # rank(J1^j) is n less the sum of the first j parts of the conjugate
        # partition, and conjugation reverses the dominance order (Macdonald,
        # Symmetric Functions and Hall Polynomials, I (1.11)), so the ranks
        # are ordered for all j iff every sum of the first k parts of p1 is
        # at most that of p2; past the last part of p2 its sum is n
        if any(a > b for a, b in zip(accumulate(p1), accumulate(p2))):
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
