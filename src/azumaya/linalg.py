"""Exact dense linear algebra over Q(i) and its polynomial rings.

`Matrix` is the one dense matrix type.  Its entries lie in Q(i), in
Q(i)[z] (the subclass `higgsing.PolyMatrix`) or in Q(i)[z_1..z_n] (the
subclass `kahler.MPolyMatrix`); the subclasses only coerce their entries
and add domain methods.  Rank and the characteristic polynomial share one
one-step Bareiss (fraction-free) elimination, each with its ring's step:
rank over Q(i), char_poly over Z[i][x] after each row of x*I - m is
cleared of its denominators, so no rational-function entries ever appear
(its products are the dense Z[i] product of `poly`).
min_poly runs its Krylov chains over Z[i] too, on the matrix cleared of
its denominators once, with a fraction-free incremental echelon.  Kernels
and solves use reduced row echelon form over the field.  ring_det, the
determinant of a grid of multivariate polynomials, clears the grid once
and expands its cofactors over Z[i][z_1..z_n] with the integer kernel of
`poly`.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .poly import MultiPoly, UniPoly, _zi_addmul, _zi_cleared, _zi_multi, _zx_addmul
from .roots import split_roots
from .scalars import GaussianRational, ONE, ZERO, clear_denominators, from_pair


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
            self._check_product(other)
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
        if k == 0:
            return Matrix.identity(self.nrows)
        out, base = None, self
        while True:  # binary powering; no product by the identity, no square past the top bit
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def _check_product(self, other: "Matrix"):
        if self.ncols != other.nrows:
            raise ValueError(
                f"dimension mismatch: {self.nrows}x{self.ncols} times "
                f"{other.nrows}x{other.ncols}"
            )

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


def commute(mats) -> bool:
    """True iff the matrices commute pairwise."""
    return all(commutator(a, b).is_zero() for i, a in enumerate(mats) for b in mats[i + 1 :])


# ---------------------------------------------------------------------------
# elimination


def _bareiss(a, ncols: int, one, step):
    """One-step Bareiss (fraction-free) elimination of the grid a, in place.

    Column by column, the first nonzero (truthy) entry p at or below the
    current row is the pivot, and every entry x below and right of it
    becomes step(x, p, f, t, prev) = (x * p - f * t) / prev, with f the
    entry of x's row in the pivot column, t the entry of the pivot row in
    x's column and prev the pivot before (`one` at the start).  Over an
    integral domain each division is exact (Cohen, A Course in
    Computational Algebraic Number Theory, section 2.2); `step` is the
    ring's own.  Entries left of a pivot are not cleared, as nothing reads
    them again.  Returns the rank.
    """
    nr = len(a)
    prev = one
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        p = top[c]
        for i in range(r + 1, nr):
            row = a[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = step(row[j], p, f, top[j], prev)
        prev = p
        r += 1
    return r


def _qi_step(x, p, f, t, prev):
    return (x * p - f * t) / prev


def rank(m: Matrix) -> int:
    """Rank by Bareiss elimination over Q(i)."""
    return _bareiss([list(r) for r in m.rows], m.ncols, ONE, _qi_step)


def kernel_chain(n: Matrix, dim: int):
    """Dimensions of ker n, ker n^2, ... up to dim, and the `kernel_basis`
    of the last.

    The kernels of the powers grow until they settle; dim must be the
    dimension they settle at (the multiplicity of the eigenvalue 0), and the
    list ends with the first power whose kernel reaches it.  Raises
    ArithmeticError if the kernels settle below dim.
    """
    ker = kernel_basis(n)
    dims = [len(ker)]
    while dims[-1] < dim:
        # ker n^(j+1) = {v : n v in ker n^j}, the kernel of [K | n] for K a
        # basis of ker n^j, read without K's coordinates; the columns of K
        # all hold pivots, so the basis read off is kernel_basis(n^(j+1))
        k = len(ker)
        aug = Matrix([tuple(v[a] for v in ker) + row for a, row in enumerate(n.rows)])
        ker = tuple(v[k:] for v in kernel_basis(aug))
        if len(ker) == dims[-1]:
            raise ArithmeticError(f"the kernels of the powers settle at dimension {len(ker)}, below {dim}")
        dims.append(len(ker))
    return dims, ker


def eigen_chains(m: Matrix):
    """(ev, dims, basis) for each root ev of char_poly(m), with dims and
    basis the `kernel_chain` of m - ev up to its multiplicity: basis spans
    the generalized eigenspace.  Raises SpectrumNotSplit if char_poly(m)
    does not split over Q(i)."""
    ident = Matrix.identity(m.nrows)
    return [(ev, *kernel_chain(m - ident * ev, mult)) for ev, mult in split_roots(char_poly(m, var="z"))]


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
    """Canonical exact basis of the right null space (possibly empty): one
    vector per free column, 1 there, 0 at the other free columns and after."""
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
    """det(x*I - m), by Bareiss elimination over Z[i][x].

    Row i of x*I - m is first multiplied by d_i, the lcm of the
    denominators in row i of m, so every entry lies in Z[i][x].  The k-th
    pivot is then d_1...d_k times the leading principal k x k minor of
    x*I - m, a monic polynomial of degree k: no row is ever swapped, and
    the last pivot is d_1...d_n times the determinant, divided out once.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    if n == 0:
        return UniPoly.one(var)
    a = []
    scale = 1
    for i, row in enumerate(m.rows):
        d, pairs = clear_denominators(row)
        scale *= d
        a.append([
            [(-re, -im), (d, 0)] if j == i else [(-re, -im)] if re or im else []
            for j, (re, im) in enumerate(pairs)
        ])
    _bareiss(a, n, [(1, 0)], _zx_step)
    return UniPoly._new(var, tuple(from_pair(re, im, scale) for re, im in a[n - 1][n - 1]))


def _zx_step(x, p, f, t, prev):
    """(x * p - f * t) / prev over Z[i][x], in the dense lists of `poly`;
    prev has a positive integer leading coefficient."""
    n = max(len(x) + len(p) if x else 1, len(f) + len(t) if f and t else 1) - 1
    if not n:
        return []
    re, im = [0] * n, [0] * n
    _zx_addmul(re, im, x, p)
    _zx_addmul(re, im, f, t, -1)
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    return _zx_exact_div(re[:n], im[:n], prev)


def _zx_exact_div(re, im, den):
    """The quotient by den of the polynomial with coefficients re + im*i
    (two int lists, consumed), for den over Z[i] with a positive integer
    leading coefficient.  Raises ArithmeticError unless it is exact."""
    lead, top = den[-1][0], len(den) - 1
    if not top and lead == 1:
        return list(zip(re, im))
    q = [None] * max(len(re) - top, 0)
    for k in range(len(q) - 1, -1, -1):
        a, b = re[k + top], im[k + top]
        if lead != 1:
            a, ra = divmod(a, lead)
            b, rb = divmod(b, lead)
            if ra or rb:
                raise ArithmeticError("inexact division over Z[i][x]")
        q[k] = (a, b)
        for j in range(top):
            c, d = den[j]
            re[k + j] -= a * c - b * d
            im[k + j] -= a * d + b * c
    if any(re[:top]) or any(im[:top]):
        raise ArithmeticError("inexact division over Z[i][x]")
    return q


def _krylov_min_poly(a, den: int, i: int, var: str) -> UniPoly:
    """Monic minimal polynomial of m = a / den relative to the i-th standard
    basis vector, a being a grid of (re, im) int pairs.

    The Krylov vectors v_k = a^k e_i feed a fraction-free incremental
    echelon: each new vector is cross-multiplied against the rows kept so
    far, each kept row carrying its combination of v_0..v_k, and divided by
    the integer content of row and combination together.  The first vector
    that reduces to zero gives the relation sum_j c_j v_j = 0, that is the
    minimal polynomial sum_j (c_j / c_k) x^j of a relative to e_i; for m
    the coefficient of x^j is divided by den^(k-j) besides.
    """
    n = len(a)
    kept = []  # (pivot column, reduced vector, combination)
    v = [(0, 0)] * n
    v[i] = (1, 0)
    for k in range(n + 1):
        w, comb = v, [(0, 0)] * k + [(1, 0)]
        for c, row, rcomb in kept:
            fr, fi = w[c]
            if not (fr or fi):
                continue
            w = _zi_cross(w, row, row[c], (fr, fi))
            comb = _zi_cross(comb, rcomb + [(0, 0)] * (len(comb) - len(rcomb)), row[c], (fr, fi))
        piv = next((j for j, (x, y) in enumerate(w) if x or y), None)
        g = gcd(*(x for pair in w for x in pair), *(x for pair in comb for x in pair))
        if g > 1:
            w = [(x // g, y // g) for x, y in w]
            comb = [(x // g, y // g) for x, y in comb]
        if piv is None:  # c_j / c_k, over c_k times its conjugate
            cr, ci = comb[k]
            norm = cr * cr + ci * ci
            return UniPoly._new(var, tuple(
                from_pair(x * cr + y * ci, y * cr - x * ci, norm * den ** (k - j))
                for j, (x, y) in enumerate(comb)
            ))
        kept.append((piv, w, comb))
        v = [_zi_dot(row, v) for row in a]
    raise AssertionError("Krylov chain exceeded matrix size")  # pragma: no cover


def _zi_cross(u, r, p, f):
    """[p * x - f * t for x, t in zip(u, r)] over Z[i]."""
    (pr, pi), (fr, fi) = p, f
    if pi or fi:
        return [(pr * x - pi * y - fr * s + fi * t, pr * y + pi * x - fr * t - fi * s)
                for (x, y), (s, t) in zip(u, r)]
    return [(pr * x - fr * s, pr * y - fr * t) for (x, y), (s, t) in zip(u, r)]


def _zi_dot(u, v):
    re = im = 0
    for (a, b), (c, d) in zip(u, v):
        if c or d:
            re += a * c - b * d
            im += a * d + b * c
    return (re, im)


def min_poly(m: Matrix, var: str = "z") -> UniPoly:
    """Monic generator of the vanishing ideal {f : f(m) = 0}.

    Computed as the lcm of the Krylov-local minimal polynomials of the
    standard basis vectors, over den * m with den the lcm of all the
    denominators of m; stops early once the degree reaches the size.
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.nrows
    den, pairs = clear_denominators(m.vec())
    a = [pairs[k:k + n] for k in range(0, n * n, n)]
    out = UniPoly.one(var)
    for i in range(n):
        local = _krylov_min_poly(a, den, i, var)
        out = local if not out.degree else out.lcm(local)
        if out.degree == n:
            break
    return out


# ---------------------------------------------------------------------------
# determinant of a grid of multivariate polynomials


def ring_det(rows, zero, one):
    """Determinant of a square grid of MultiPolys over shared variables.

    The grid is cleared once to den * grid over Z[i][z_1..z_n], and its
    determinant is expanded along rows, memoized over the masks of the
    columns used, each cofactor product added by `poly._zi_addmul`; the
    result is det(den * grid) / den^n.  Division-free and exponential in
    the size, so intended for small sizes.  `zero` and `one` are the zero
    and one of the ring; `one` is the determinant of the empty grid.
    """
    n = len(rows)
    if n == 0:
        return one
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square grid")
    entries = [e for r in rows for e in r]
    for e in entries:
        zero._same_vars(e)
    den, w, flat = _zi_cleared(entries, n)
    grid = [flat[i:i + n] for i in range(0, n * n, n)]
    neg = [[{e: (-a, -b) for e, (a, b) in f.items()} for f in row] for row in grid]
    memo = {}

    def minor(r, mask):
        """det of rows r.. on the columns outside mask (r bits set)."""
        if r == n - 1:
            return grid[r][(~mask & (1 << n) - 1).bit_length() - 1]
        if mask in memo:
            return memo[mask]
        acc, odd = {}, False
        for c in range(n):
            if mask >> c & 1:
                continue
            f = (neg if odd else grid)[r][c]
            odd = not odd
            if f:
                _zi_addmul(acc, f, minor(r + 1, mask | 1 << c))
        memo[mask] = acc = {e: v for e, v in acc.items() if v[0] or v[1]}
        return acc

    return _zi_multi(zero.vars, minor(0, 0), den ** n, w)
