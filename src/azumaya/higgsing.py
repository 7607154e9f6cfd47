"""Deformation-quantized Higgsing: the first-order matrix ODE

    lam * dB/dz + [A, B] = 0,     A, B in M_2(C[z]),  lam != 0,

its closed-form fundamental solutions for constant A satisfying the
solvability constraint (a1-a4)^2 + 4*a2*a3 = 0, the branch classification
of a solution by the eigenvalues of its degree-0 term, a truncated action
of the polynomial Weyl algebra, and classical spectral curves
det(lam - Phi(z)) of polynomial Higgs fields.

Closed forms are derived with the a_i treated as constants; for genuinely
polynomial a_i they generally fail the ODE (the residual picks up a
derivative term), which is why `fundamental_solutions` insists on a
constant coefficient matrix while `ode_residual` stays fully general.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonConstantA, SolvabilityViolated, SpectrumNotSplit
from .linalg import Matrix, char_poly, ring_det
from .poly import MultiPoly, UniPoly
from .roots import split_roots
from .scalars import GaussianRational, ONE, ZERO


class PolyMatrix(Matrix):
    """Square matrix over Q(i)[var], one variable shared by all entries."""

    _SEP = ", "
    # bound here too, so that patching the product of one matrix class
    # (as bench/tracer.py does) leaves the others alone
    __mul__ = Matrix.__mul__

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

    def deriv(self) -> "PolyMatrix":
        """Entrywise formal derivative in the matrix variable."""
        return self._new([a.deriv() for a in row] for row in self.rows)

    def eval_at(self, z0) -> Matrix:
        z0 = GaussianRational.coerce(z0)
        return Matrix([[a(z0) for a in row] for row in self.rows])

    def degree(self) -> int:
        return max((a.degree for row in self.rows for a in row), default=-1)

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def constant_part(self) -> Matrix:
        return Matrix([[a.constant_term() for a in row] for row in self.rows])

    def char_poly_bivariate(self, eig_var: str = "v") -> MultiPoly:
        """det(v*I - B) as an exact polynomial in (matrix variable, v)."""
        return spectral_curve(self, eig_var)


def spectral_curve(phi: PolyMatrix, eig_var: str = "lambda") -> MultiPoly:
    """det(lam*I - Phi(z)) as a bivariate polynomial in (z, lam).

    Every exact point of the graph lands on this curve: when Phi(z0) has
    split spectrum, its eigenvalues are exactly the roots of the curve
    sliced at z0.
    """
    variables = (phi.var, eig_var)
    zero = MultiPoly.zero(variables)
    v = MultiPoly.variable(variables, eig_var)
    grid = [
        [(v if i == j else zero) - e.as_multi(variables, 0) for j, e in enumerate(row)]
        for i, row in enumerate(phi.rows)
    ]
    return ring_det(grid, zero, MultiPoly.constant(variables, ONE))


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

    @property
    def a1(self) -> UniPoly:
        return self.a.entries[0][0]

    @property
    def a2(self) -> UniPoly:
        return self.a.entries[0][1]

    @property
    def a3(self) -> UniPoly:
        return self.a.entries[1][0]

    @property
    def a4(self) -> UniPoly:
        return self.a.entries[1][1]


def solvability_check(p: HiggsProblem) -> bool:
    """Exact identity test of (a1-a4)^2 + 4*a2*a3 = 0."""
    d = p.a1 - p.a4
    return (d * d + 4 * (p.a2 * p.a3)).is_zero()


def ode_residual(p: HiggsProblem, b: PolyMatrix) -> PolyMatrix:
    """lam * dB/dz + A*B - B*A; b solves the system iff this is zero."""
    if b.nrows != p.a.nrows:
        raise ValueError("dimension mismatch")
    return b.deriv() * p.lam + (p.a * b - b * p.a)


def _formula_solutions(a1, a2, a3, a4, lam, var: str):
    """The four closed-form solutions, with whatever a_i are passed in.

    Correct solutions only for constant a_i under the solvability
    constraint; exposed separately so the non-constant behavior can be
    probed empirically through ode_residual.
    """
    z = UniPoly.x(var)
    z2 = z * z
    li = ONE / lam
    li2 = li * li
    half = GaussianRational(Fraction(1, 2))
    d = a1 - a4
    b1 = PolyMatrix(
        [
            [1 + z2 * (a2 * a3) * li2, z * a2 * li - z2 * (d * a2) * (half * li2)],
            [-(z * a3 * li) - z2 * (d * a3) * (half * li2), -(z2 * (a2 * a3) * li2)],
        ],
        var,
    )
    b2 = PolyMatrix(
        [
            [z * a3 * li - z2 * (d * a3) * (half * li2),
             1 - z * d * li - z2 * (a2 * a3) * li2],
            [-(z2 * (a3 * a3) * li2),
             -(z * a3 * li) + z2 * (d * a3) * (half * li2)],
        ],
        var,
    )
    b3 = PolyMatrix(
        [
            [-(z * a2 * li) - z2 * (d * a2) * (half * li2),
             -(z2 * (a2 * a2) * li2)],
            [1 + z * d * li - z2 * (a2 * a3) * li2,
             z * a2 * li + z2 * (d * a2) * (half * li2)],
        ],
        var,
    )
    b4 = PolyMatrix(
        [
            [-(z2 * (a2 * a3) * li2), -(z * a2 * li) + z2 * (d * a2) * (half * li2)],
            [z * a3 * li + z2 * (d * a3) * (half * li2), 1 + z2 * (a2 * a3) * li2],
        ],
        var,
    )
    return (b1, b2, b3, b4)


def fundamental_solutions(p: HiggsProblem):
    """The four fundamental solutions B1..B4 of the system, as a tuple.

    Requires the solvability constraint and a constant coefficient matrix;
    each returned matrix is asserted to have exactly zero ODE residual.
    """
    if not solvability_check(p):
        raise SolvabilityViolated("(a1-a4)^2 + 4 a2 a3 != 0")
    if not p.a.is_constant():
        raise NonConstantA(
            "closed-form solutions are certified for constant coefficients only"
        )
    var = p.a.var
    consts = [p.a.entries[i][j].constant_term() for i in range(2) for j in range(2)]
    sols = _formula_solutions(*consts, p.lam, var)
    for b in sols:
        res = ode_residual(p, b)
        if not res.is_zero():
            raise AssertionError(f"closed-form solution failed the ODE: {res!r}")
    return sols


class HiggsSolution:
    """A solution B = sum_i bhat_i * B_i with its degree-0 term."""

    __slots__ = ("bhat", "b", "b0")

    def __init__(self, bhat, b: PolyMatrix):
        self.bhat = tuple(GaussianRational.coerce(x) for x in bhat)
        if len(self.bhat) != 4:
            raise ValueError("bhat must have four coordinates")
        self.b = b
        self.b0 = b.constant_part()

    @classmethod
    def combine(cls, p: HiggsProblem, bhat) -> "HiggsSolution":
        sols = fundamental_solutions(p)
        bhat = tuple(GaussianRational.coerce(x) for x in bhat)
        if len(bhat) != 4:
            raise ValueError("bhat must have four coordinates")
        b = PolyMatrix.zeros(2, p.a.var)
        for c, s in zip(bhat, sols):
            b = b + s * c
        return cls(bhat, b)


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
        one = UniPoly.one(m.var)
        zero = UniPoly.zero(m.var)
        return ((one, zero), (zero, one))
    if not (m11.is_zero() and m12.is_zero()):
        v = _poly_vector_canonical(m12, -m11)
    else:
        v = _poly_vector_canonical(m22, -m21)
    for row in m.entries:
        check = row[0] * v[0] + row[1] * v[1]
        if not check.is_zero():
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
        (nu_m, _), (nu_p, _) = roots
        comps = []
        for nu in (nu_m, nu_p):
            line = _kernel_line(s.b - ident * nu)
            comps.append((nu, line))
        return BranchReport("a", (nu_m, nu_p), ideal, comps, False)
    nu = roots[0][0]
    shifted = s.b - ident * nu
    if shifted.is_zero():
        linear = UniPoly("v", (-nu, ONE))
        ones = _kernel_line(shifted)
        return BranchReport("b", (nu, nu), linear, ((nu, ones),), False)
    sq = shifted * shifted
    if not sq.is_zero():
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
