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

from .azpoint import RepPoint, SupportLengthData, _PointKeyed, _point
from .linalg import Matrix, eigen_chains


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


class JordanData(_PointKeyed):
    """Canonical per-point Jordan data: ((point, partition), ...)."""

    __slots__ = ("entries",)
    _REPEATED, _TAG = "duplicate point in Jordan data", "J"

    @staticmethod
    def _entry(e):
        pt, parts = e
        return _point(pt), check_partition(parts)

    def support(self) -> SupportLengthData:
        return SupportLengthData((pt, sum(parts)) for pt, parts in self.entries)

    def total(self) -> int:
        return sum(sum(parts) for _, parts in self.entries)


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

