"""Exact dense linear algebra over Q(i) and its polynomial rings.

`Matrix` is the one dense matrix type.  Its entries lie in Q(i), in
Q(i)[z] (the subclass `higgsing.PolyMatrix`) or in Q(i)[z_1..z_n] (the
subclass `kahler.MPolyMatrix`); the subclasses only coerce their entries
and add domain methods.  Rank and the characteristic polynomial share one
one-step Bareiss (fraction-free) elimination, over Q(i) and over Q(i)[x],
so no rational-function entries ever appear.  Kernels and solves use
reduced row echelon form over the field.
"""

from __future__ import annotations

from operator import mul, truediv

from .poly import MultiPoly, UniPoly
from .scalars import GaussianRational, ONE, ZERO


class Matrix:
    """Immutable dense matrix over Q(i) or a polynomial ring on it.

    `vars` names the variables of the entry ring, () for Q(i).  Every
    arithmetic result keeps the class and the variables of its left
    operand.
    """

    __slots__ = ("nrows", "ncols", "rows", "vars")
    _SEP = " "  # entry separator of repr; polynomial entries hold spaces

    def __init__(self, rows):
        rows = tuple(tuple(GaussianRational.coerce(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix")
        self._fill(rows, ())

    def _fill(self, rows, variables) -> "Matrix":
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        self.vars = variables
        return self

    def _new(self, rows) -> "Matrix":
        """The trusted constructor of arithmetic results: rows already in
        this matrix's entry ring, kept as they are, under its class and
        variables."""
        return object.__new__(type(self))._fill(tuple(map(tuple, rows)), self.vars)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return cls([[ZERO] * m for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, entries) -> "Matrix":
        entries = [GaussianRational.coerce(x) for x in entries]
        n = len(entries)
        return cls([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        return cls(list(zip(*cols))) if cols else cls([])

    @classmethod
    def jordan_block(cls, eigenvalue, size: int) -> "Matrix":
        ev = GaussianRational.coerce(eigenvalue)
        rows = [[ZERO] * size for _ in range(size)]
        for i in range(size):
            rows[i][i] = ev
            if i + 1 < size:
                rows[i][i + 1] = ONE
        return cls(rows)

    # -- queries ------------------------------------------------------------

    @property
    def entries(self):
        """The rows, under the name the polynomial matrices have always had."""
        return self.rows

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)

    def vec(self):
        """Row-major flattening."""
        return tuple(x for r in self.rows for x in r)

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return _sum(self.rows[i][i] for i in range(self.nrows))

    def transpose(self) -> "Matrix":
        return self._new(zip(*self.rows)) if self.rows else self

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return self._new(
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return self._new(
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        )

    def __neg__(self) -> "Matrix":
        return self._new([-a for a in r] for r in self.rows)

    def __mul__(self, other):
        """Matrix product, or the product by a scalar of Q(i) or of the
        entry ring."""
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"dimension mismatch: {self.nrows}x{self.ncols} times "
                    f"{other.nrows}x{other.ncols}"
                )
            cols = tuple(zip(*other.rows))
            return self._new([_dot(r, c) for c in cols] for r in self.rows)
        if not isinstance(other, (UniPoly, MultiPoly)):
            other = GaussianRational.coerce(other)
        return self._new([a * other for a in r] for r in self.rows)

    def __rmul__(self, other):
        # scalars commute with every entry; matrix-matrix uses __mul__
        return self * other

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        out = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def apply_vector(self, v):
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(_dot(r, v) for r in self.rows)

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                f"dimension mismatch: {self.nrows}x{self.ncols} vs "
                f"{other.nrows}x{other.ncols}"
            )

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.vars == other.vars and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(self._SEP.join(str(x) for x in r) for r in self.rows)
        return f"[{body}]"


def _sum(terms):
    """The sum of the terms in their own ring; ZERO when there are none."""
    terms = iter(terms)
    acc = next(terms, ZERO)
    for t in terms:
        acc = acc + t
    return acc


def _dot(u, v):
    return _sum(map(mul, u, v))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """ab - ba for square matrices of the same size."""
    if not (a.is_square() and b.is_square() and a.nrows == b.nrows):
        raise ValueError("commutator needs square matrices of equal size")
    return a * b - b * a


# ---------------------------------------------------------------------------
# elimination


def _bareiss(a, ncols: int, one, div):
    """One-step Bareiss (fraction-free) elimination of the grid a, in place.

    Column by column, the first nonzero entry p at or below the current
    row is the pivot, and every entry below and right of it becomes
    (a[i][j] * p - a[i][c] * a[r][j]) / prev, prev being the pivot before
    (`one` at the start).  Over an integral domain each division is exact
    (Cohen, A Course in Computational Algebraic Number Theory, section
    2.2); `div` performs it.  Entries left of a pivot are not cleared, as
    nothing reads them again.  Returns the rank.
    """
    nr = len(a)
    prev = one
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        p = top[c]
        for i in range(r + 1, nr):
            row = a[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = div(row[j] * p - f * top[j], prev)
        prev = p
        r += 1
    return r


def rank(m: Matrix) -> int:
    """Rank by Bareiss elimination over Q(i)."""
    return _bareiss([list(r) for r in m.rows], m.ncols, ONE, truediv)


def power_ranks(n: Matrix, floor: int):
    """Ranks of n, n^2, n^3, ... while they stay above floor.

    The ranks of the powers fall until they settle; floor must be the rank
    they settle at.  The first power of rank floor ends the list and is
    not in it.
    """
    ranks = []
    power, cur = n, rank(n)
    while cur > floor:
        if ranks and cur == ranks[-1]:
            raise ArithmeticError(f"the ranks of the powers settle at {cur}, above {floor}")
        ranks.append(cur)
        power = power * n
        cur = rank(power)
    return ranks


def rref(rows, ncols: int):
    """Reduced row echelon over the field; returns (rows, pivot columns)."""
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_basis(m: Matrix):
    """Canonical exact basis of the right null space (possibly empty)."""
    a, pivots = rref(m.rows, m.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * m.ncols
        v[fc] = ONE
        for r_idx, pc in enumerate(pivots):
            v[pc] = -a[r_idx][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve_exact(a: Matrix, b: Matrix) -> Matrix:
    """Solve a * x = b for a with full column rank; raises on inconsistency."""
    if a.nrows != b.nrows:
        raise ValueError("dimension mismatch in solve")
    aug = [list(ra) + list(rb) for ra, rb in zip(a.rows, b.rows)]
    rows, pivots = rref(aug, a.ncols + b.ncols)
    if any(p >= a.ncols for p in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) != a.ncols:
        raise ValueError("coefficient matrix does not have full column rank")
    x = [[ZERO] * b.ncols for _ in range(a.ncols)]
    for r_idx, pc in enumerate(pivots):
        x[pc] = rows[r_idx][a.ncols:]
    return Matrix(x)


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials


def char_poly(m: Matrix, var: str = "lambda") -> UniPoly:
    """det(x*I - m), by Bareiss elimination over Q(i)[x].

    Every division is an exact polynomial division.  The k-th pivot is
    the leading principal k x k minor of x*I - m, a monic polynomial of
    degree k, so no row is ever swapped and the last pivot is the
    determinant.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    if n == 0:
        return UniPoly.one(var)
    x = UniPoly.x(var)
    a = [
        [
            (x if i == j else UniPoly.zero(var)) - UniPoly.constant(m.rows[i][j], var)
            for j in range(n)
        ]
        for i in range(n)
    ]
    _bareiss(a, n, UniPoly.one(var), UniPoly.exact_div)
    return a[n - 1][n - 1]


def _krylov_min_poly(m: Matrix, v, var: str) -> UniPoly:
    """Monic minimal polynomial of m relative to the vector v.

    The Krylov vectors v, m v, m^2 v, ... are stacked as columns; at each
    step one rref of the stack with the next vector appended tells whether
    that vector depends on the ones before it and, if so, its coefficients.
    """
    cols = [tuple(v)]
    for k in range(1, m.nrows + 1):
        cur = m.apply_vector(cols[-1])
        ech, pivots = rref(zip(*cols, cur), k + 1)
        if len(pivots) == k:
            return UniPoly(var, [-ech[i][k] for i in range(k)] + [ONE])
        cols.append(cur)
    raise AssertionError("Krylov chain exceeded matrix size")  # pragma: no cover


def min_poly(m: Matrix, var: str = "z") -> UniPoly:
    """Monic generator of the vanishing ideal {f : f(m) = 0}.

    Computed as the lcm of the Krylov-local minimal polynomials of the
    standard basis vectors; stops early once the degree reaches the size.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.nrows
    out = UniPoly.one(var)
    for i in range(n):
        e = tuple(ONE if j == i else ZERO for j in range(n))
        out = out.lcm(_krylov_min_poly(m, e, var))
        if out.degree == n:
            break
    return out.monic()


# ---------------------------------------------------------------------------
# generic determinant (used for symbolic matrices over other rings)


def ring_det(rows, zero, one):
    """Determinant by expansion along columns, memoized over column masks.

    Division-free, so it works over any commutative ring whose elements
    support +, * and unary -.  Intended for small sizes.
    """
    n = len(rows)
    if n == 0:
        return one
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square grid")
    memo = {}

    def minor(r, mask):
        if r == n:
            return one
        key = mask
        if key in memo:
            return memo[key]
        acc = zero
        sign = 1
        for c in range(n):
            bit = 1 << c
            if mask & bit:
                continue
            entry = rows[r][c]
            sub = minor(r + 1, mask | bit)
            term = entry * sub
            acc = acc + term if sign == 1 else acc - term
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, 0)
