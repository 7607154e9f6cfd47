"""Deformation-quantized Higgsing: the first-order matrix ODE

    lam * dB/dz + [A, B] = 0,     A, B in M_2(C[z]),  lam != 0,

its closed-form solutions for constant A under the solvability constraint
(a1-a4)^2 + 4*a2*a3 = 0, the branch classification of a solution by the
eigenvalues of its degree-0 term, a truncated action of the polynomial
Weyl algebra, and classical spectral curves det(lam - Phi(z)).

Every closed form is one gauge transform: N = A - (tr A / 2) I has
N^2 = ((a1-a4)^2/4 + a2*a3) I = 0, so with K = N / lam the matrix
g = I - z K = exp(-z K) has g^-1 = I + z K, and

    B = g Bhat g^-1 = Bhat + z (Bhat K - K Bhat) - z^2 K Bhat K

solves the ODE with B(0) = Bhat (B_k = g E_k g^-1 for the matrix units
E_k), certified by a zero `ode_residual`.  K is cleared to Gaussian
integers once, and each closed form is three 2x2 products over Z[i].
For polynomial a_i the same formulas generally fail the ODE, so the
closed forms insist on a constant A.
"""

from __future__ import annotations

from .errors import NonConstantA, SolvabilityViolated, SpectrumNotSplit
from .linalg import Matrix, _berkowitz, char_poly
from .poly import MultiPoly, UniPoly, _trimmed
from .roots import split_roots
from .scalars import GaussianRational, ONE, ZERO, clear_denominators, from_pair
from .zi import _regroup, _zi_cleared, _zi_dot, _zx_addmul, _zx_deriv, _zx_dot, _zx_out, _zx_values


class PolyMatrix(Matrix):
    """Square matrix over Q(i)[var], one variable shared by all entries."""

    _SEP = ", "

    def __init__(self, entries, var: str = "z"):
        grid = []
        for row in entries:
            new = []
            for e in row:
                if isinstance(e, UniPoly):
                    if not e.is_constant() and e.var != var:
                        raise ValueError("entry variable mismatch")
                    new.append(e.rename(var))
                else:
                    new.append(UniPoly.constant(GaussianRational.coerce(e), var))
            grid.append(tuple(new))
        if any(len(row) != len(grid) for row in grid):
            raise ValueError("polynomial matrix must be square")
        self._fill(tuple(grid), (var,))

    @classmethod
    def zeros(cls, r: int, var: str = "z") -> "PolyMatrix":
        return cls([[ZERO] * r for _ in range(r)], var)

    @classmethod
    def identity(cls, r: int, var: str = "z") -> "PolyMatrix":
        return cls([[ONE if i == j else ZERO for j in range(r)] for i in range(r)], var)

    @property
    def var(self) -> str:
        return self.vars[0]

    def _var_with(self, other: Matrix) -> str:
        """The variable of a result of self and other: a constant operand
        adopts the other's."""
        if other.vars in ((), self.vars) or other.is_constant():
            return self.var
        if self.is_constant():
            return other.var
        raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def _entrywise(self, other, op) -> "PolyMatrix":
        var = self._var_with(other)
        return op(self, other) if var == self.var else PolyMatrix(op(self, other).rows, var)

    def __add__(self, other):
        return self._entrywise(other, Matrix.__add__)

    def __sub__(self, other):
        return self._entrywise(other, Matrix.__sub__)

    def __mul__(self, other):
        """Matrix product over Z[i][z], each row of self and each column of
        other cleared by its own denominator (d and e) and each entry the
        dot product `zi._zx_dot` divided by d * e once, or the product by a
        scalar or an entry."""
        if not isinstance(other, Matrix):
            return super().__mul__(other)
        self._check_product(other)
        if not isinstance(other, PolyMatrix):  # a matrix over Q(i)
            other = PolyMatrix(other.rows, self.var)
        var = self._var_with(other)
        cols = [_zi_cleared([e.coeffs for e in c]) for c in zip(*other.rows)]
        return self._new([[UniPoly._new(var, _zx_values(_zx_dot(r, c), d * e)) for e, c in cols]
                          for d, r in (_zi_cleared([e.coeffs for e in row]) for row in self.rows)], (var,))

    def deriv(self) -> "PolyMatrix":
        """Entrywise formal derivative in the matrix variable."""
        return self._new([a.deriv() for a in row] for row in self.rows)

    def eval_at(self, z0) -> Matrix:
        z0 = GaussianRational.coerce(z0)
        return Matrix([[a(z0) for a in row] for row in self.rows])

    def is_constant(self) -> bool:
        return all(a.is_constant() for row in self.rows for a in row)

    def constant_part(self) -> Matrix:
        return Matrix([[a.constant_term() for a in row] for row in self.rows])

    def char_poly_bivariate(self, eig_var: str = "v") -> MultiPoly:
        """det(v*I - B) as an exact polynomial in (matrix variable, v)."""
        return spectral_curve(self, eig_var)


def spectral_curve(phi: PolyMatrix, eig_var: str = "lambda") -> MultiPoly:
    """det(lam*I - Phi(z)) as a bivariate polynomial in (z, lam).

    Every exact point of the graph lands on this curve: when Phi(z0) has
    split spectrum, its eigenvalues are exactly the roots of the curve
    sliced at z0.  Phi is cleared once to den * Phi over Z[i][z], and
    `linalg._berkowitz` runs on it with the dense dot product
    `zi._zx_dot`; the coefficient of lam^k is divided by den^(r-k) once.
    """
    if phi.var == eig_var:
        raise ValueError(f"the eigenvalue variable {eig_var!r} is also the matrix variable")
    r = phi.nrows
    den, polys = _zi_cleared([e.coeffs for row in phi.rows for e in row])
    c = _berkowitz(_regroup(polys, phi.rows), _zx_dot, lambda f: [(-a, -b) for a, b in f], [(1, 0)])
    return MultiPoly._new((phi.var, eig_var), {(e, r - j): from_pair(re, im, den ** j) for j, f in enumerate(c)
                                               for e, (re, im) in enumerate(f) if re or im})


# ---------------------------------------------------------------------------
# the deformation problem


class HiggsProblem:
    """Coefficient data (A, lam) of the deformation ODE, A 2x2."""

    __slots__ = ("a", "lam")

    def __init__(self, a: PolyMatrix, lam):
        if a.nrows != 2:
            raise ValueError("the closed-form theory is for 2x2 coefficient matrices")
        lam = GaussianRational.coerce(lam)
        if lam.is_zero():
            raise ValueError("lam must be nonzero")
        self.a = a
        self.lam = lam


def solvability_check(p: HiggsProblem) -> bool:
    """Exact identity test of (a1-a4)^2 + 4*a2*a3 = 0."""
    (a1, a2), (a3, a4) = p.a.rows
    d = a1 - a4
    return (d * d + 4 * (a2 * a3)).is_zero()


def ode_residual(p: HiggsProblem, b: PolyMatrix) -> PolyMatrix:
    """lam * dB/dz + A*B - B*A in b's variable; b solves the system iff
    this is zero.  One pass over Z[i][z]: lam, A and b are cleared to one
    denominator d, and each entry of d^2 times the residual is summed in
    two int lists by the dense product `zi._zx_addmul`."""
    a, n = p.a, b.nrows
    if n != a.nrows:
        raise ValueError("dimension mismatch")
    if a.var != b.var and not (a.is_constant() or b.is_constant()):
        raise ValueError(f"variable mismatch: {a.var} vs {b.var}")
    d, ((lam,), *ints) = _zi_cleared([(p.lam,), *(e.coeffs for m in (a, b) for row in m.rows for e in row)])
    size = max(map(len, ints[:n * n])) + max(map(len, ints[n * n:])) - 1  # holds B' too
    ia, ib = _regroup(ints[:n * n], a.rows), _regroup(ints[n * n:], b.rows)
    d2, rows = d * d, []
    for i in range(n):
        row = []
        for k in range(n):
            re, im = [0] * size, [0] * size
            _zx_addmul(re, im, [lam], _zx_deriv(ib[i][k]))  # lam B'
            for j in range(n):
                _zx_addmul(re, im, ia[i][j], ib[j][k])
                _zx_addmul(re, im, ib[i][j], ia[j][k], -1)
            row.append(UniPoly._new(b.var, _zx_out(re, im, d2)))
        rows.append(row)
    return b._new(rows)


def _gauge(a1, a2, a3, a4, lam):
    """K = N / lam for N = A - (tr A / 2) I, cleared once: (den, k) with k
    the 2x2 grid of the Z[i] pairs of den * K."""
    den, k = clear_denominators([x / lam for x in ((a1 - a4) / 2, a2, a3, (a4 - a1) / 2)])
    return den, (k[:2], k[2:])


def _conjugated(a: PolyMatrix, den: int, k, bhat) -> PolyMatrix:
    """g Bhat g^-1 = Bhat + z (Bhat K - K Bhat) - z^2 K Bhat K in a's
    variable, for den * K = k from `_gauge` and Bhat the 2x2 grid of the
    four values bhat: three 2x2 products over Z[i], and one from_pair per
    coefficient, of z^j over e * den^j for e the denominator of Bhat."""
    e, b = clear_denominators(bhat)
    b, kc = (b[:2], b[2:]), list(zip(*k))
    kb = [[_zi_dot(r, c) for c in zip(*b)] for r in k]
    bk, kbk = ([[_zi_dot(r, c) for c in kc] for r in m] for m in (b, kb))
    return a._new([UniPoly._new(a.var, _trimmed([from_pair(x, y, e), from_pair(s - u, t - v, e * den),
                                                  from_pair(-w, -q, e * den * den)]))
                   for (x, y), (s, t), (u, v), (w, q) in zip(*rows)] for rows in zip(b, bk, kb, kbk))


def _constant_coefficients(p: HiggsProblem):
    """(a1, a2, a3, a4) of A, which must be constant and solvable."""
    if not solvability_check(p):
        raise SolvabilityViolated("(a1-a4)^2 + 4 a2 a3 != 0")
    if not p.a.is_constant():
        raise NonConstantA(
            "closed-form solutions are certified for constant coefficients only"
        )
    return [a.constant_term() for row in p.a.rows for a in row]


def _certified(p: HiggsProblem, b: PolyMatrix) -> PolyMatrix:
    res = ode_residual(p, b)
    if not res.is_zero():
        raise AssertionError(f"closed-form solution failed the ODE: {res!r}")
    return b


def fundamental_solutions(p: HiggsProblem):
    """The four fundamental solutions B1..B4 of the system, as a tuple.

    Requires the solvability constraint and a constant coefficient matrix;
    each returned matrix is asserted to have exactly zero ODE residual.
    """
    den, k = _gauge(*_constant_coefficients(p), p.lam)  # Bhat = E11, E12, E21, E22
    return tuple(_certified(p, _conjugated(p.a, den, k, [ONE if j == i else ZERO for j in range(4)]))
                 for i in range(4))


def _coordinates(bhat):
    bhat = tuple(GaussianRational.coerce(x) for x in bhat)
    if len(bhat) != 4:
        raise ValueError("bhat must have four coordinates")
    return bhat


class HiggsSolution:
    """A solution B = sum_k bhat_k * B_k = g Bhat g^-1 with its degree-0 term."""

    __slots__ = ("bhat", "b", "b0")

    def __init__(self, bhat, b: PolyMatrix):
        self.bhat = _coordinates(bhat)
        self.b = b
        self.b0 = b.constant_part()

    @classmethod
    def combine(cls, p: HiggsProblem, bhat) -> "HiggsSolution":
        """g Bhat g^-1 with Bhat = [[b1, b2], [b3, b4]], the solution with
        B(0) = Bhat, certified by its ODE residual."""
        bhat = _coordinates(bhat)
        den, k = _gauge(*_constant_coefficients(p), p.lam)
        return cls(bhat, _certified(p, _conjugated(p.a, den, k, bhat)))


class BranchReport:
    """Outcome of classifying a solution by the spectrum of its degree-0 term.

    case "a": two distinct eigenvalues; two components, each carrying a
    rank-1 kernel line with a canonical polynomial basis vector.
    case "b": one repeated eigenvalue; either the solution is scalar (the
    kernel ideal is linear, no extra filtration) or its nilpotent shift
    squares to zero (quadratic kernel ideal, `filtered` set, with the
    rank-1 sub-line recorded).
    """

    __slots__ = ("case", "eigenvalues", "kernel_ideal", "components", "filtered")

    def __init__(self, case, eigenvalues, kernel_ideal, components, filtered):
        self.case = case
        self.eigenvalues = tuple(eigenvalues)
        self.kernel_ideal = kernel_ideal
        self.components = tuple(components)
        self.filtered = bool(filtered)


def _poly_vector_canonical(v1: UniPoly, v2: UniPoly):
    """Primitive, first-nonzero-entry-monic representative of span{(v1, v2)}."""
    if v1.is_zero() and v2.is_zero():
        raise ValueError("zero vector has no canonical representative")
    g = v1.gcd(v2) if not (v1.is_zero() or v2.is_zero()) else (v2 if v1.is_zero() else v1).monic()
    v1, v2 = v1.exact_div(g), v2.exact_div(g)
    lead = v1.leading() if not v1.is_zero() else v2.leading()
    return (v1 * lead.inverse(), v2 * lead.inverse())


def _kernel_line(m: PolyMatrix):
    """Canonical polynomial basis of the kernel of a singular 2x2 matrix."""
    (m11, m12), (m21, m22) = m.entries
    if m.is_zero():
        one, zero = UniPoly.one(m.var), UniPoly.zero(m.var)
        return ((one, zero), (zero, one))
    v = _poly_vector_canonical(m12, -m11) if m11 or m12 else _poly_vector_canonical(m22, -m21)
    if any(r1 * v[0] + r2 * v[1] for r1, r2 in m.entries):
        raise ValueError("matrix kernel is trivial over the function field")
    return (v,)


def classify_deformation(p: HiggsProblem, s: HiggsSolution) -> BranchReport:
    """Branch classification of a zero-residual solution.

    The image component structure is read from the eigenvalues of the
    degree-0 term; the characteristic polynomial of the full solution
    equals that of the degree-0 term, so the kernel ideal in the
    eigenvalue variable is v^2 - trace(B0) v + det(B0).
    """
    res = ode_residual(p, s.b)
    if not res.is_zero():
        raise ValueError("classification requires a zero ODE residual")
    ideal = char_poly(s.b0, var="v")
    roots = split_roots(ideal)  # may raise SpectrumNotSplit
    ident = PolyMatrix.identity(2, s.b.var)
    if len(roots) == 2:
        nus = (roots[0][0], roots[1][0])
        comps = [(nu, _kernel_line(s.b - ident * nu)) for nu in nus]
        return BranchReport("a", nus, ideal, comps, False)
    nu = roots[0][0]
    shifted = s.b - ident * nu
    if shifted.is_zero():
        linear = UniPoly("v", (-nu, ONE))
        return BranchReport("b", (nu, nu), linear, ((nu, _kernel_line(shifted)),), False)
    if not (shifted * shifted).is_zero():
        raise AssertionError("Cayley-Hamilton violated for a 2x2 solution")
    line = _kernel_line(shifted)
    return BranchReport("b", (nu, nu), ideal, ((nu, line),), True)


# ---------------------------------------------------------------------------
# truncated Weyl action


class WeylTrunc:
    """Degree-truncated action of the one-variable Weyl algebra.

    Operators act on r-tuples of polynomials of degree < cap; multiplication
    by z drops any term that would reach the cap, differentiation is exact.
    The relation [d, z] = 1 therefore holds on degrees <= cap - 2 only.
    """

    __slots__ = ("cap", "r", "var")

    def __init__(self, cap: int, r: int = 1, var: str = "z"):
        if cap < 1:
            raise ValueError("degree cap must be at least 1")
        if r < 1:
            raise ValueError("rank must be positive")
        self.cap = cap
        self.r = r
        self.var = var

    def _truncate(self, p: UniPoly) -> UniPoly:
        return UniPoly(self.var, p.coeffs[: self.cap])

    def mul_z(self, state):
        z = UniPoly.x(self.var)
        return tuple(self._truncate(p * z) for p in state)

    def d_z(self, state):
        return tuple(p.deriv() for p in state)

    def commutator_action(self, state):
        return tuple(
            a - b
            for a, b in zip(self.d_z(self.mul_z(state)), self.mul_z(self.d_z(state)))
        )

    def basis(self, max_degree: int):
        for i in range(self.r):
            for d in range(max_degree + 1):
                state = [UniPoly.zero(self.var)] * self.r
                mono = [ZERO] * d + [ONE]
                state[i] = UniPoly(self.var, mono)
                yield tuple(state)


def weyl_commutator_check(w: WeylTrunc) -> bool:
    """[d, z] acts as the identity on all states of degree <= cap - 2."""
    if w.cap < 2:
        raise ValueError("need a degree cap of at least 2")
    for state in w.basis(w.cap - 2):
        if w.commutator_action(state) != state:
            return False
    return True
