"""Morphisms from an Azumaya point to affine targets.

A morphism with fundamental module C^r into an affine scheme cut out by
relators is the same thing as a tuple of pairwise-commuting r x r matrices
on which every relator vanishes.  This module decides membership, computes
degree-bounded image ideals, decomposes the pushforward of the fundamental
module over the support, and decides GL_r conjugacy of tuples.
"""

from __future__ import annotations

import random

from .errors import SpectrumNotSplit
from .linalg import (
    Matrix,
    char_poly,
    commutator,
    kernel_basis,
    min_poly,
    power_ranks,
    rank,
    ring_det,
    solve_exact,
)
from .poly import MultiPoly, UniPoly, monomials_up_to
from .scalars import GaussianRational, ONE, ZERO


class AffinePresentation:
    """Generator/relator data for an affine coordinate ring."""

    __slots__ = ("vars", "relators")

    def __init__(self, variables, relators=()):
        self.vars = tuple(variables)
        rel = []
        for f in relators:
            if f.vars != self.vars:
                raise ValueError("relator uses undeclared variables")
            rel.append(f)
        self.relators = tuple(rel)


class RepPoint:
    """A point of the representation scheme: one matrix per target variable.

    Commutation and relator vanishing are not enforced at construction;
    `rep_check` decides them.  Operations that require a genuine point say
    so in their contracts.
    """

    __slots__ = ("vars", "matrices", "r")

    def __init__(self, variables, matrices):
        self.vars = tuple(variables)
        self.matrices = tuple(matrices)
        if len(self.vars) != len(self.matrices):
            raise ValueError("arity mismatch: one matrix per variable required")
        if not self.matrices:
            raise ValueError("a representation point needs at least one matrix")
        r = self.matrices[0].nrows
        for m in self.matrices:
            if not m.is_square() or m.nrows != r:
                raise ValueError("matrices must be square of one common size")
        self.r = r

    @property
    def arity(self) -> int:
        return len(self.matrices)


class SupportLengthData:
    """Finite support with local lengths: ((point, length), ...) with the
    points pairwise distinct, sorted by coordinatewise (re, im)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        norm = []
        seen = set()
        for pt, ln in entries:
            pt = tuple(GaussianRational.coerce(x) for x in pt)
            ln = int(ln)
            if ln <= 0:
                raise ValueError("lengths must be positive")
            key = tuple(x.sort_key() for x in pt)
            if key in seen:
                raise ValueError("duplicate support point")
            seen.add(key)
            norm.append((pt, ln))
        norm.sort(key=lambda e: tuple(x.sort_key() for x in e[0]))
        self.entries = tuple(norm)

    def total(self) -> int:
        return sum(ln for _, ln in self.entries)

    def points(self):
        return tuple(pt for pt, _ in self.entries)

    def __eq__(self, other):
        if not isinstance(other, SupportLengthData):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = ", ".join(
            "(" + ",".join(str(x) for x in pt) + f"):{ln}" for pt, ln in self.entries
        )
        return "{" + body + "}"


class PushforwardModule:
    """Support-length data enriched with the local nilpotent filtration.

    Per point: (point, length, ranks) where ranks[j-1] is the rank of the
    j-th power of the local nilpotent action, listed until it reaches zero.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        norm = []
        for pt, ln, ranks in entries:
            pt = tuple(GaussianRational.coerce(x) for x in pt)
            norm.append((pt, int(ln), tuple(int(k) for k in ranks)))
        norm.sort(key=lambda e: tuple(x.sort_key() for x in e[0]))
        self.entries = tuple(norm)

    def support(self) -> SupportLengthData:
        return SupportLengthData((pt, ln) for pt, ln, _ in self.entries)

    def __eq__(self, other):
        if not isinstance(other, PushforwardModule):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


# ---------------------------------------------------------------------------
# membership and image ideals


def rep_check(t: RepPoint, pres: AffinePresentation | None = None) -> bool:
    """True iff all pairwise commutators vanish and every relator evaluates
    to the zero matrix on the tuple."""
    if pres is not None and len(pres.vars) != t.arity:
        raise ValueError("arity mismatch between point and presentation")
    mats = t.matrices
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not commutator(mats[i], mats[j]).is_zero():
                return False
    if pres is not None:
        ident = Matrix.identity(t.r)
        for f in pres.relators:
            if not f.eval_generic(mats, ident).is_zero():
                return False
    return True


def image_ideal_univar(t: RepPoint) -> UniPoly:
    """Generator of the kernel ideal for a single-variable target: the
    minimal polynomial of the matrix, in the target variable."""
    if t.arity != 1:
        raise ValueError("univariate image ideal needs exactly one matrix")
    return min_poly(t.matrices[0], var=t.vars[0])


def vanishing_ideal(t: RepPoint, degree_bound: int | None = None):
    """Canonical basis of {f : deg f <= D, f(tuple) = 0}.

    The space is the exact kernel of the evaluation map sending a
    polynomial of degree <= D to the matrix it takes on the tuple; the
    returned basis rows are in reduced echelon form with respect to the
    canonical monomial order.  D defaults to the module rank.
    """
    d = t.r if degree_bound is None else int(degree_bound)
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    monos = monomials_up_to(t.arity, d)
    ident = Matrix.identity(t.r)
    cols = []
    for e in monos:
        m = ident
        for mat, k in zip(t.matrices, e):
            for _ in range(k):
                m = m * mat
        cols.append(m.vec())
    ev = Matrix.from_columns(cols)
    coeff_rows = [list(v) for v in kernel_basis(ev)]
    from .linalg import rref

    reduced, _ = rref(coeff_rows, len(monos))
    out = []
    for row in reduced:
        if all(c.is_zero() for c in row):
            continue
        out.append(MultiPoly(t.vars, {e: c for e, c in zip(monos, row)}))
    return tuple(out)


# ---------------------------------------------------------------------------
# support decomposition and pushforward


def _basis_matrix(vectors) -> Matrix:
    return Matrix.from_columns(list(vectors))


def _restrict(m: Matrix, basis) -> Matrix:
    """Matrix of m on an m-invariant subspace, in the given column basis."""
    b = _basis_matrix(basis)
    return solve_exact(b, m * b)


def _combine(basis, coeff_vec):
    """Linear combination of basis vectors with the given coefficients."""
    out = [ZERO] * len(basis[0])
    for c, v in zip(coeff_vec, basis):
        if c.is_zero():
            continue
        out = [acc + c * x for acc, x in zip(out, v)]
    return tuple(out)


def _joint_decomposition(t: RepPoint):
    """Iterated splitting into joint generalized eigenspaces.

    Returns a list of (point, basis) with basis a tuple of column vectors
    spanning the corresponding subspace of C^r.  Raises SpectrumNotSplit
    if any restricted characteristic polynomial fails to split.
    """
    full = tuple(
        tuple(ONE if i == j else ZERO for i in range(t.r)) for j in range(t.r)
    )
    spaces = [((), full)]
    for m in t.matrices:
        refined = []
        for prefix, basis in spaces:
            mr = _restrict(m, basis)
            for ev, mult in split_roots_of(mr):
                shifted = mr - Matrix.identity(mr.nrows) * ev
                ker = kernel_basis(shifted**mult)
                sub = tuple(_combine(basis, kv) for kv in ker)
                refined.append((prefix + (ev,), sub))
        spaces = refined
    spaces.sort(key=lambda s: tuple(x.sort_key() for x in s[0]))
    return spaces


def split_roots_of(m: Matrix):
    from .roots import split_roots

    return split_roots(char_poly(m, var="z"))


def support_length(t: RepPoint) -> SupportLengthData:
    """Joint generalized-eigenspace decomposition of C^r under the tuple."""
    spaces = _joint_decomposition(t)
    return SupportLengthData((pt, len(basis)) for pt, basis in spaces)


def pushforward(t: RepPoint) -> PushforwardModule:
    """Support-length data with local filtration ranks.

    At a point p the local coordinate action is N = m_1 - p_1*I restricted
    to the joint generalized eigenspace when the target is a curve; for
    more variables it is the fixed generic combination sum_i i*(m_i - p_i*I),
    an implementation convention (the filtration is canonical only over a
    curve).
    """
    spaces = _joint_decomposition(t)
    out = []
    for pt, basis in spaces:
        n = Matrix.zeros(t.r)
        for i, (m, p_i) in enumerate(zip(t.matrices, pt), start=1):
            n = n + (m - Matrix.identity(t.r) * p_i) * i
        out.append((pt, len(basis), power_ranks(_restrict(n, basis), 0)))
    return PushforwardModule(out)


def hilbert_chow(m: Matrix):
    """(characteristic polynomial, root multiset or None when non-split)."""
    cp = char_poly(m, var="lambda")
    try:
        from .roots import split_roots

        roots = split_roots(cp)
    except SpectrumNotSplit:
        roots = None
    return cp, roots


# ---------------------------------------------------------------------------
# conjugacy

CONJUGATE = "conjugate"
NOT_CONJUGATE = "not-conjugate"
PROBABLY_NOT_CONJUGATE = "probably-not-conjugate"

_SYMBOLIC_SIZE_LIMIT = 4
_RANDOM_TRIALS = 20


def intertwiner_space(t1: RepPoint, t2: RepPoint):
    """Exact basis of {g : g m_i = m'_i g for all i}, as matrices."""
    if t1.r != t2.r or t1.arity != t2.arity:
        raise ValueError("intertwiners need equal rank and arity")
    r = t1.r
    rows = []
    for m1, m2 in zip(t1.matrices, t2.matrices):
        # equation (a,b):  sum_c g[a][c] m1[c][b] - sum_c m2[a][c] g[c][b] = 0
        for a in range(r):
            for b in range(r):
                row = [ZERO] * (r * r)
                for c in range(r):
                    row[a * r + c] = row[a * r + c] + m1.rows[c][b]
                    row[c * r + b] = row[c * r + b] - m2.rows[a][c]
                rows.append(row)
    basis = kernel_basis(Matrix(rows))
    return tuple(
        Matrix([v[i * r : (i + 1) * r] for i in range(r)]) for v in basis
    )


def _det_of_generic_combination(kets, r):
    """det(sum_j t_j K_j) as a polynomial in formal coordinates t_j."""
    tvars = tuple(f"t{j}" for j in range(len(kets)))
    zero = MultiPoly.zero(tvars)
    grid = [[zero for _ in range(r)] for _ in range(r)]
    for j, k in enumerate(kets):
        tj = MultiPoly.variable(tvars, tvars[j])
        for a in range(r):
            for b in range(r):
                if not k.rows[a][b].is_zero():
                    grid[a][b] = grid[a][b] + tj * k.rows[a][b]
    one = MultiPoly.constant(tvars, ONE)
    return ring_det(grid, zero, one)


def conjugacy(t1: RepPoint, t2: RepPoint, seed: int = 0) -> str:
    """Conjugacy status of two tuples under the common GL_r action.

    For rank <= 4 the symbolic determinant of a generic combination of an
    intertwiner basis decides exactly.  For larger ranks the determinant is
    evaluated at deterministic pseudo-random exact points; a nonzero value
    certifies conjugacy, while universal vanishing plus a failed
    certificate search only reports "probably-not-conjugate".
    """
    kets = intertwiner_space(t1, t2)
    if not kets:
        return NOT_CONJUGATE
    r = t1.r
    if r <= _SYMBOLIC_SIZE_LIMIT:
        det = _det_of_generic_combination(kets, r)
        return CONJUGATE if not det.is_zero() else NOT_CONJUGATE
    rng = random.Random(seed)
    for _ in range(_RANDOM_TRIALS):
        g = Matrix.zeros(r)
        for k in kets:
            g = g + k * GaussianRational(rng.randrange(-9, 10), rng.randrange(-9, 10))
        if rank(g) == r:
            return CONJUGATE
    for k in kets:
        if rank(k) == r:
            return CONJUGATE
    return PROBABLY_NOT_CONJUGATE


def is_conjugate(t1: RepPoint, t2: RepPoint, seed: int = 0) -> bool:
    return conjugacy(t1, t2, seed=seed) == CONJUGATE
