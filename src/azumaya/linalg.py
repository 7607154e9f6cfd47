"""Exact dense linear algebra over Q(i) and its polynomial rings.

`Matrix` is the one dense matrix type.  Its entries lie in Q(i), in
Q(i)[z] (the subclass `higgsing.PolyMatrix`) or in Q(i)[z_1..z_n] (the
subclass `kahler.MPolyMatrix`); the subclasses only coerce their entries
and add domain methods.  A product over Q(i) runs over Z[i], each row of
the left factor and each column of the right one cleared by its own
denominator.  Rank, kernels and solves read one elimination, `_echelon`,
a one-step Bareiss (fraction-free) elimination over Z[i] on rows that the
caller has cleared, with back substitution over Z[i] (`_kernel`).  The
kernel chains of `kernel_chain` and `eigen_chains` stay on those integer
rows from step to step, and only their last basis becomes Q(i) values.
Every determinant is one division-free recurrence,
Berkowitz's (`_berkowitz`), run over integers after the input is cleared
of its denominators once: char_poly over Z[i], `higgsing.spectral_curve`
over the dense Z[i][z] lists of `zi`, and ring_det, the determinant of a
grid of multivariate polynomials, over the sparse Z[i][z_1..z_n] dicts of
`zi`.  Each passes its ring's dot product, the one place where the
recurrence multiplies.  min_poly runs its Krylov chains over Z[i] too, on
the matrix cleared of its denominators once, with a fraction-free
incremental echelon, and takes no lcm of polynomials: each start vector
is out(m) e_i for out the product so far.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, mul, sub

from .poly import MultiPoly, UniPoly
from .roots import split_roots
from .scalars import GaussianRational, ONE, ZERO, _power, clear_denominators, from_pair
from .zi import (_gi_div, _zi_adddot, _zi_cleared, _zi_cross, _zi_dot, _zi_grids, _zi_neg, _zi_quo, _zi_unpacked,
                 _zx_dot)


class Matrix:
    """Immutable dense matrix over Q(i) or a polynomial ring on it.

    `vars` names the variables of the entry ring, () for Q(i).  Every
    arithmetic result keeps the class and the variables of its left
    operand, except that a constant `PolyMatrix` takes the variable of a
    non-constant one.
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

    def _new(self, rows, variables=None) -> "Matrix":
        """The trusted constructor of arithmetic results: rows already in
        the entry ring, kept as they are, under this matrix's class and its
        variables (or the given ones)."""
        return object.__new__(type(self))._fill(tuple(map(tuple, rows)), variables or self.vars)

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

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        """self + other or self - other (op is add or sub), entry by entry."""
        self._same_shape(other)
        return self._new(map(op, r1, r2) for r1, r2 in zip(self.rows, other.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Matrix":
        return self._new([-a for a in r] for r in self.rows)

    def __mul__(self, other):
        """Matrix product, or the product by a scalar of Q(i) or of the
        entry ring."""
        if isinstance(other, Matrix):
            self._check_product(other)
            if other.vars:  # the polynomial matrices multiply in their own classes
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            # over Z[i]: each row and each column cleared by its own denominator
            cols = [clear_denominators(c) for c in zip(*other.rows)]
            return self._new([from_pair(*_zi_dot(r, c), d * e) for e, c in cols]
                             for d, r in map(clear_denominators, self.rows))
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
        if k == 0:  # the identity over the entry ring, whose elements all have x ** 0 and x * 0
            e = self.rows[0][0] if self.rows else ONE
            one, zero = e ** 0, e * 0
            return self._new([one if i == j else zero for j in range(self.nrows)] for i in range(self.nrows))
        return _power(self, k)

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
    """True iff the matrices commute pairwise: ab and ba are compared entry
    by entry, with no commutator built."""
    if len(mats) > 1 and any(not m.is_square() or m.nrows != mats[0].nrows for m in mats):
        raise ValueError("commutator needs square matrices of equal size")
    return all((a * b).rows == (b * a).rows for i, a in enumerate(mats) for b in mats[i + 1:])


# ---------------------------------------------------------------------------
# elimination


def _echelon(rows, ncols: int):
    """The pivot rows of a one-step Bareiss (fraction-free) elimination of
    rows over Z[i]: (pivot column, row) pairs, the columns increasing.

    The rows are lists of (re, im) pairs, each row already cleared of its
    denominators by the caller; they are rewritten in place.  The pivot
    row top of column c is the first remaining row nonzero there, and
    each row with f = row[c] != 0 becomes (top[c] * row - f * top) / d,
    exactly, d being the pivot that last rewrote it (Bareiss, Math. Comp.
    22, 1968).  Bareiss would also scale a row with f = 0 by the pivot over
    the pivot before; those factors telescope, so they are applied at once,
    by that division by d, or by scaling a pivot row by the pivot before
    over d.  Entries left of column c are not cleared, as nothing reads them.
    """
    rest = [[row, (1, 0)] for row in rows]
    out = []
    prev = (1, 0)
    for c in range(ncols):
        i = next((i for i, (row, _) in enumerate(rest) if row[c] != (0, 0)), None)
        if i is None:
            continue
        top, d = rest.pop(i)
        if d != prev:
            top[c:] = _zi_quo(top[c:], d, prev)
        p, tail = top[c], top[c + 1:]
        for item in rest:
            row, d = item
            f = row[c]
            if f != (0, 0):
                row[c + 1:] = _zi_quo(_zi_cross(row[c + 1:], tail, p, f), d)
                item[1] = p
        out.append((c, top))
        prev = p
    return out


def rank(m: Matrix) -> int:
    """The number of pivots of `_echelon`."""
    return len(_echelon([clear_denominators(r)[1] for r in m.rows], m.ncols))


def _kernel(rows, ncols: int):
    """q * v over Z[i] for each `kernel_basis` vector v of the pair rows,
    q being the last `_echelon` pivot left of v's free column (Cramer's
    rule puts q * v over Z[i], and back substitution divides exactly)."""
    echelon = _echelon(rows, ncols)
    t = 0  # the number of pivot rows left of j
    for j in range(ncols):
        if t < len(echelon) and echelon[t][0] == j:
            t += 1
            continue
        q = echelon[t - 1][1][echelon[t - 1][0]] if t else (1, 0)
        w = [(0, 0)] * j + [q] + [(0, 0)] * (ncols - j - 1)
        for c, row in reversed(echelon[:t]):  # w is 0 left of c and right of j
            x, y = _zi_quo([_zi_dot(row[c + 1:j + 1], w[c + 1:j + 1])], row[c])[0]
            w[c] = (-x, -y)
        yield w


def _primitive(w):
    """The Z[i] vector w divided by the gcd of its integer parts."""
    g = gcd(*(x for pair in w for x in pair))
    return w if g == 1 else [(x // g, y // g) for x, y in w]


def _cleared(w):
    """D * w / q, for q the last nonzero entry of the Z[i] vector w and D
    the lcm of the denominators of w / q: w times conj(q), made primitive.
    A `kernel_basis` vector is w / q, 1 at its free column and 0 after it,
    so its last nonzero entry is D."""
    a, b = next(x for x in reversed(w) if x != (0, 0))
    return _primitive([(x * a + y * b, y * a - x * b) for x, y in w])


def _canonical(w):
    """The GaussianRational vector w / q, for q the last nonzero entry of the
    Z[i] vector w."""
    q = next(x for x in reversed(w) if x != (0, 0))
    return tuple(_gi_div(x, q) if x != (0, 0) else ZERO for x in w)


def kernel_basis(m: Matrix):
    """Canonical exact basis of the right null space (possibly empty): one
    vector per free column, 1 there, 0 at the other free columns and after."""
    return tuple(map(_canonical, _kernel([clear_denominators(r)[1] for r in m.rows], m.ncols)))


def _kernel_chain(rows, ncols: int, dim: int):
    """`kernel_chain` over Z[i], for rows = [(s, pairs)]: the pairs of s
    times a row of n, for an int s > 0."""
    ker = [_cleared(w) for w in _kernel([list(r) for _, r in rows], ncols)]
    dims = [len(ker)]
    while dims[-1] < dim:
        # ker n^(j+1) = {v : n v in ker n^j}, the kernel of [K | n] for K a
        # basis of ker n^j, read without K's coordinates; the columns of K
        # all hold pivots, so the basis read off is kernel_basis(n^(j+1)).
        # Column l of K is v / D for a vector v of ker: row a of [K | n] is
        # cleared by t, the lcm of s and of the denominators D / gcd(D, v[a])
        k, qs = len(ker), [next(x for x, _ in reversed(v) if x) for v in ker]
        aug = []
        for a, (s, r) in enumerate(rows):
            t = lcm(s, *(q // gcd(q, *v[a]) for v, q in zip(ker, qs)))
            aug.append([(v[a][0] * t // q, v[a][1] * t // q) for v, q in zip(ker, qs)]
                       + [(t // s * x, t // s * y) for x, y in r])
        ker = [_cleared(w[k:]) for w in _kernel(aug, k + ncols)]
        if len(ker) == dims[-1]:
            raise ArithmeticError(f"the kernels of the powers settle at dimension {len(ker)}, below {dim}")
        dims.append(len(ker))
    return dims, tuple(map(_canonical, ker))


def kernel_chain(n: Matrix, dim: int):
    """Dimensions of ker n, ker n^2, ... up to dim, and the `kernel_basis`
    of the last.

    The kernels of the powers grow until they settle; dim must be the
    dimension they settle at (the multiplicity of the eigenvalue 0), and the
    list ends with the first power whose kernel reaches it.  Raises
    ArithmeticError if the kernels settle below dim.
    """
    return _kernel_chain([clear_denominators(r) for r in n.rows], n.ncols, dim)


def eigen_chains(m: Matrix):
    """(ev, dims, basis) for each root ev of char_poly(m), with dims and
    basis the `kernel_chain` of m - ev up to its multiplicity: basis spans
    the generalized eigenspace.  Each row of m is cleared once, to den_a
    times it, and row a of m - ev, for ev = (x + y*i) / e, is held as
    lcm(den_a, e) times it.
    Raises SpectrumNotSplit if char_poly(m) does not split over Q(i)."""
    rows = [clear_denominators(r) for r in m.rows]
    out = []
    for ev, mult in split_roots(char_poly(m, var="z")):
        e, ((x, y),) = clear_denominators([ev])
        shifted = []
        for a, (d, r) in enumerate(rows):
            t = lcm(d, e)
            r = [(t // d * u, t // d * v) for u, v in r]
            r[a] = (r[a][0] - t // e * x, r[a][1] - t // e * y)
            shifted.append((t, r))
        out.append((ev, *_kernel_chain(shifted, m.ncols, mult)))
    return out


def solve_exact(a: Matrix, b: Matrix) -> Matrix:
    """Solve a * x = b for a with full column rank; raises on inconsistency.
    Column j of x is read off the `kernel_basis` vector of [a | -b] that is 1
    at -b_j; a vector is nonzero past a's columns only if it is free there."""
    if a.nrows != b.nrows:
        raise ValueError("dimension mismatch in solve")
    n = a.ncols
    basis = kernel_basis(Matrix([ra + tuple(-x for x in rb) for ra, rb in zip(a.rows, b.rows)]))
    if sum(any(v[n:]) for v in basis) < b.ncols:
        raise ValueError("inconsistent linear system")
    if len(basis) != b.ncols:
        raise ValueError("coefficient matrix does not have full column rank")
    return Matrix([[v[i] for v in basis] for i in range(n)])


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials


def _berkowitz(a, dot, neg, one):
    """The coefficients of det(x*I - a), highest degree first, for a square
    grid a over a commutative ring: `dot` is the ring's dot product (the
    sum of the products of two sequences entry by entry, up to the end of
    the shorter), `neg` its negation and `one` its one.

    Berkowitz's division-free recurrence (Inform. Process. Lett. 18, 1984;
    after Samuelson, 1942).  With a_k the leading k x k block of a, R the
    first k entries of row k and S those of column k, the characteristic
    polynomial of a_(k+1) is T p, for p that of a_k and T the lower
    triangular Toeplitz matrix with first column 1, -a[k][k], -R S,
    -R a_k S, ..., -R a_k^(k-1) S.  About n^4 / 4 ring products, all
    taken by `dot`, and no division.
    """
    p = [one]
    for k, row in enumerate(a):
        block = a[:k]  # a dot with a vector of length k reads only the first k entries of a row
        r = [neg(x) for x in row[:k]]
        v = [ai[k] for ai in block]
        q = [one, neg(row[k])]
        for j in range(k):
            if j:
                v = [dot(ai, v) for ai in block]
            q.append(dot(r, v))
        p = [dot(q[i::-1], p) for i in range(k + 2)]
    return p


def char_poly(m: Matrix, var: str = "lambda") -> UniPoly:
    """det(x*I - m), by `_berkowitz` over Z[i].

    m is cleared once to den * m with den the lcm of its denominators; the
    coefficient of x^k in the characteristic polynomial of den * m is then
    den^(n-k) times that of m, and is divided by it once.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    den, a = _zi_cleared(m.rows)
    c = _berkowitz(a, _zi_dot, lambda x: (-x[0], -x[1]), (1, 0))
    return UniPoly._new(var, tuple(from_pair(re, im, den ** j) for j, (re, im) in enumerate(c))[::-1])


def _krylov_min_poly(a, v):
    """The monic minimal polynomial of a relative to v, a being a grid and v
    a vector of (re, im) int pairs: a list of pairs, lowest degree first.

    The Krylov vectors a^k v feed a fraction-free incremental echelon: each
    new vector is cross-multiplied against the rows kept so far, each kept
    row carrying its combination of v_0..v_k, and divided by the integer
    content of row and combination together.  The first vector that reduces
    to zero gives the relation sum_j c_j a^j v = 0, that is the polynomial
    sum_j (c_j / c_k) x^j.  It divides the characteristic polynomial of a,
    monic over Z[i], so by Gauss's lemma each quotient is exact.
    """
    kept = []  # (pivot column, reduced vector, combination)
    for k in range(len(a) + 1):
        w, comb = v, [(0, 0)] * k + [(1, 0)]
        for c, row, rcomb in kept:
            f = w[c]
            if f != (0, 0):
                w = _zi_cross(w, row, row[c], f)
                comb = _zi_cross(comb, rcomb + [(0, 0)] * (len(comb) - len(rcomb)), row[c], f)
        piv = next((j for j, (x, y) in enumerate(w) if x or y), None)
        if piv is None:
            return _zi_quo(comb, comb[k])
        g = (gcd(*(x for pair in w for x in pair), *(x for pair in comb for x in pair)), 0)
        kept.append((piv, _zi_quo(w, g), _zi_quo(comb, g)))
        v = [_zi_dot(row, v) for row in a]
    raise AssertionError("Krylov chain exceeded matrix size")  # pragma: no cover


def min_poly(m: Matrix, var: str = "z") -> UniPoly:
    """Monic generator of the vanishing ideal {f : f(m) = 0}.

    Over a = den * m, den the lcm of all the denominators of m, with no
    lcm of polynomials: for out the minimal polynomial of a on the Krylov
    spaces of e_0..e_(i-1), w = out(a) e_i has the minimal polynomial
    mu_(e_i) / gcd(mu_(e_i), out) (Augot & Camion, Linear Algebra Appl.
    260, 1997), so out times it, the local `_krylov_min_poly` of w, is the
    lcm of out and mu_(e_i).  w is taken by Horner's rule over Z[i] and made
    primitive, and e_i is skipped when w = 0.  Stops once the degree reaches
    the size; at the end the coefficient of x^j of out, of degree d, is
    divided by den^(d - j).
    """
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.nrows
    den, a = _zi_cleared(m.rows)
    out = [(1, 0)]
    for i in range(n):
        w = [(int(j == i), 0) for j in range(n)]  # out is monic
        for x, y in reversed(out[:-1]):
            w = [_zi_dot(row, w) for row in a]
            w[i] = (w[i][0] + x, w[i][1] + y)
        if not any(x or y for x, y in w):
            continue
        out = _zx_dot([_krylov_min_poly(a, _primitive(w))], [out])
        if len(out) > n:
            break
    return UniPoly._new(var, tuple(from_pair(x, y, den ** j) for j, (x, y) in enumerate(reversed(out)))[::-1])


# ---------------------------------------------------------------------------
# determinant of a grid of multivariate polynomials


def ring_det(rows, zero, one):
    """Determinant of a square grid of MultiPolys over shared variables.

    The grid is cleared once to den * grid over Z[i][z_1..z_n], in the
    sparse packed dicts of `zi._zi_addmul`, and `_berkowitz` runs over
    them with the dot product `zi._zi_adddot`: the determinant is
    (-1)^n times the constant coefficient, divided by den^n once.  `zero`
    and `one` are the zero and one of the ring; `one` is the determinant of
    the empty grid.
    """
    n = len(rows)
    if n == 0:
        return one
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square grid")
    for r in rows:
        for e in r:
            zero._same_vars(e)
    den, w, (grid,) = _zi_grids([rows], n)
    c0 = _berkowitz(grid, lambda u, v: _zi_adddot({}, u, v), _zi_neg, {0: (1, 0)})[-1]
    return MultiPoly._new(zero.vars, _zi_unpacked(_zi_neg(c0) if n % 2 else c0, den ** n, w, len(zero.vars)))
