"""Formal Kähler differentials on matrix coordinate rings M_r(C[z_1..z_n]).

A formal 1-form is a sum of terms a * (dm) * b; a degree-s tensor is a sum
of terms a0 * dm_1 * a1 (x) dm_2 * a2 (x) ... (x) dm_s * as.  No normal
form for the defining relations (linearity, Leibniz, commutativity
pass-over) is attempted.  Instead the module exposes a *sound* equality
oracle, `trace_form`: map each differentiand to its entrywise classical
differential and take the trace of the matrix product.  Trace cyclicity
absorbs the pass-over relation and linearity/Leibniz map to their
classical counterparts, so equal formal elements always have equal trace
forms; the converse is not claimed.

The entrywise differential itself does NOT satisfy pass-over (the
obstruction is [m, Dm'] != 0), which is why only its trace composite is
exposed as an oracle.
"""

from __future__ import annotations

from .linalg import Matrix, commute
from .poly import MultiPoly
from .scalars import GaussianRational, ONE
from .zi import _zi_adddot, _zi_grids, _zi_matmul, _zi_partial, _zi_unpacked


class MPolyMatrix(Matrix):
    """Square matrix with multivariate polynomial entries over shared vars."""

    _SEP = ", "

    def __init__(self, variables, entries):
        variables = tuple(variables)
        grid = []
        for row in entries:
            new = []
            for e in row:
                if isinstance(e, MultiPoly):
                    if e.vars != variables:
                        raise ValueError("entry variables mismatch")
                    new.append(e)
                else:
                    new.append(MultiPoly.constant(variables, e))
            grid.append(tuple(new))
        if any(len(row) != len(grid) for row in grid):
            raise ValueError("matrix must be square")
        self._fill(tuple(grid), variables)

    def __mul__(self, other):
        """Matrix product in one pass over Z[i][z_1..z_n] (both operands
        cleared to one denominator den, each entry summed in ints and
        divided by den^2 once), or the product by a scalar or an entry."""
        if not isinstance(other, Matrix):
            return super().__mul__(other)
        self._check_product(other)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        den, w, (a, b) = _zi_grids((self.rows, other.rows))
        return self._new([MultiPoly._new(self.vars, _zi_unpacked(e, den * den, w, len(self.vars))) for e in row]
                         for row in _zi_matmul(a, b))

    @classmethod
    def zeros(cls, variables, r: int) -> "MPolyMatrix":
        z = MultiPoly.zero(variables)
        return cls(variables, [[z] * r for _ in range(r)])

    @classmethod
    def identity(cls, variables, r: int) -> "MPolyMatrix":
        z = MultiPoly.zero(variables)
        o = MultiPoly.constant(variables, ONE)
        return cls(variables, [[o if i == j else z for j in range(r)] for i in range(r)])

    def partial(self, index: int) -> "MPolyMatrix":
        """Entrywise classical partial derivative."""
        return self._new([a.partial(index) for a in row] for row in self.rows)


class FormTerm:
    """a0 * dm_1 * a1 (x) dm_2 * a2 (x) ... : one pre-factor, then one
    (differentiand, post-factor) pair per tensor slot."""

    __slots__ = ("pre", "factors")

    def __init__(self, pre: MPolyMatrix, factors):
        self.pre = pre
        self.factors = tuple((dm, post) for dm, post in factors)
        if not self.factors:
            raise ValueError("a form term needs at least one differential slot")

    @property
    def degree(self) -> int:
        return len(self.factors)

    def __eq__(self, other):
        if not isinstance(other, FormTerm):
            return NotImplemented
        return self.pre == other.pre and self.factors == other.factors

    def __hash__(self):
        return hash((self.pre, self.factors))


class FormalForm:
    """A formal differential tensor of homogeneous degree s >= 1.

    Terms are kept literally; `canonical_terms` only sorts and drops terms
    with an identically zero slot, it does not decide the word problem.
    """

    __slots__ = ("vars", "r", "degree", "terms")

    def __init__(self, variables, r: int, degree: int, terms):
        self.vars = tuple(variables)
        self.r = int(r)
        self.degree = int(degree)
        if self.r < 1:
            raise ValueError(f"the rank r must be at least 1, not {self.r}")
        if self.degree < 1:
            raise ValueError(f"the degree must be at least 1, not {self.degree}")
        kept = []
        for t in terms:
            if t.degree != self.degree:
                raise ValueError("mixed tensor degrees in one form")
            if t.pre.is_zero() or any(dm.is_zero() or post.is_zero() for dm, post in t.factors):
                continue
            kept.append(t)
        self.terms = tuple(kept)

    @classmethod
    def zero(cls, variables, r: int, degree: int = 1) -> "FormalForm":
        return cls(variables, r, degree, ())

    def __add__(self, other: "FormalForm") -> "FormalForm":
        self._compat(other)
        return FormalForm(self.vars, self.r, self.degree, self.terms + other.terms)

    def __sub__(self, other: "FormalForm") -> "FormalForm":
        return self + (-other)

    def __neg__(self) -> "FormalForm":
        return FormalForm(
            self.vars,
            self.r,
            self.degree,
            tuple(FormTerm(-t.pre, t.factors) for t in self.terms),
        )

    def left_mul(self, a: MPolyMatrix) -> "FormalForm":
        return FormalForm(
            self.vars,
            self.r,
            self.degree,
            tuple(FormTerm(a * t.pre, t.factors) for t in self.terms),
        )

    def right_mul(self, b: MPolyMatrix) -> "FormalForm":
        out = []
        for t in self.terms:
            head = t.factors[:-1]
            dm, post = t.factors[-1]
            out.append(FormTerm(t.pre, head + ((dm, post * b),)))
        return FormalForm(self.vars, self.r, self.degree, out)

    def scale(self, c) -> "FormalForm":
        c = GaussianRational.coerce(c)
        return FormalForm(
            self.vars,
            self.r,
            self.degree,
            tuple(FormTerm(t.pre * c, t.factors) for t in self.terms),
        )

    def _compat(self, other: "FormalForm"):
        if self.vars != other.vars or self.r != other.r or self.degree != other.degree:
            raise ValueError("form shape mismatch")

    def canonical_terms(self):
        return tuple(sorted(self.terms, key=lambda t: repr((t.pre, t.factors))))

    def same_terms(self, other: "FormalForm") -> bool:
        """Syntactic identity after term-list canonicalization; a sound
        but very incomplete equality check."""
        return self.canonical_terms() == other.canonical_terms()


def d(m: MPolyMatrix) -> FormalForm:
    """The built-in derivation: the single-term form I * dm * I."""
    ident = MPolyMatrix.identity(m.vars, m.nrows)
    return FormalForm(m.vars, m.nrows, 1, (FormTerm(ident, ((m, ident),)),))


def leibniz_expand(m: MPolyMatrix, mp: MPolyMatrix) -> FormalForm:
    """(dm) m' + m dm', the right-hand side of the Leibniz relation."""
    ident = MPolyMatrix.identity(m.vars, m.nrows)
    return FormalForm(
        m.vars,
        m.nrows,
        1,
        (
            FormTerm(ident, ((m, mp),)),
            FormTerm(m, ((mp, ident),)),
        ),
    )


def tensor(*forms: FormalForm) -> FormalForm:
    """Tensor product over the matrix ring, multilinear in the terms.

    The pre-factor of each right term is absorbed into the post-factor of
    the last slot of the left term; under the trace oracle this is exactly
    the middle-slot pass-over relation.
    """
    if not forms:
        raise ValueError("tensor of no forms")
    out = forms[0]
    for nxt in forms[1:]:
        if out.vars != nxt.vars or out.r != nxt.r:
            raise ValueError("form shape mismatch")
        terms = []
        for t1 in out.terms:
            for t2 in nxt.terms:
                head = t1.factors[:-1]
                dm, post = t1.factors[-1]
                terms.append(
                    FormTerm(t1.pre, head + ((dm, post * t2.pre),) + t2.factors)
                )
        out = FormalForm(out.vars, out.r, out.degree + nxt.degree, terms)
    return out


class ClassicalForm:
    """A commutative differential tensor: coefficients indexed by tuples of
    variable indices (one index per tensor slot)."""

    __slots__ = ("vars", "degree", "coeffs")

    def __init__(self, variables, degree: int, coeffs=None):
        self.vars = tuple(variables)
        self.degree = int(degree)
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.degree:
                raise ValueError("index arity mismatch")
            if not c.is_zero():
                clean[idx] = c
        self.coeffs = clean

    def coefficient(self, idx) -> MultiPoly:
        return self.coeffs.get(tuple(idx), MultiPoly.zero(self.vars))

    def coefficient_list(self):
        """For 1-forms: the coefficient of each dz_k, in variable order."""
        if self.degree != 1:
            raise ValueError("coefficient_list is for 1-forms")
        return [self.coefficient((k,)) for k in range(len(self.vars))]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ClassicalForm") -> "ClassicalForm":
        if self.vars != other.vars or self.degree != other.degree:
            raise ValueError("form shape mismatch")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            s = out.get(idx, MultiPoly.zero(self.vars)) + c
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return ClassicalForm(self.vars, self.degree, out)

    def __sub__(self, other: "ClassicalForm") -> "ClassicalForm":
        return self + other.scale(-1)

    def scale(self, c) -> "ClassicalForm":
        c = GaussianRational.coerce(c)
        return ClassicalForm(
            self.vars, self.degree, {idx: v * c for idx, v in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, ClassicalForm):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(
            (self.vars, self.degree, tuple(sorted((i, hash(c)) for i, c in self.coeffs.items())))
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            mono = "(x)".join(f"d{self.vars[k]}" for k in idx)
            parts.append(f"({self.coeffs[idx]})*{mono}")
        return " + ".join(parts)


def trace_form(w: FormalForm) -> ClassicalForm:
    """The sound trace oracle: a*(dm)*b maps to trace(a * Dm * b) with Dm
    the entrywise differential; degree-s terms contract slotwise.  One pass
    over Z[i][z_1..z_n]: every matrix of the form is cleared to one
    denominator den, and each coefficient, a sum of products of 2s + 1
    matrices, is divided by den^(2s + 1) once."""
    n, size = len(w.vars), 2 * w.degree + 1
    mats = [m for t in w.terms for m in (t.pre, *(x for f in t.factors for x in f))]
    den, width, grids = _zi_grids([m.rows for m in mats], size)
    coeffs = {}
    for i in range(0, len(grids), size):  # pre, then dm and post of each slot
        pre, *slots = grids[i:i + size]
        parts = [[[[_zi_partial(f, k, width) for f in row] for row in dm] for k in range(n)] for dm in slots[::2]]
        _accumulate(coeffs, pre, list(zip(parts, slots[1::2])), ())
    scale = den ** size
    return ClassicalForm(w.vars, w.degree, {idx: MultiPoly._new(w.vars, _zi_unpacked(c, scale, width, n))
                                            for idx, c in coeffs.items()})


def _accumulate(coeffs, acc, slots, idx):
    """Add trace(acc * dpart_1 * post_1 * ... * dpart_s * post_s) to the
    coefficient of each index tuple (k_1, ..., k_s) of the slots' partials,
    over grids of Z[i] polynomials."""
    dparts, post = slots[0]
    if len(slots) == 1:  # trace(acc * dpart * post) = sum of dpart[i][j] * q[j][i] with q = post * acc
        q = [f for col in zip(*_zi_matmul(post, acc)) for f in col]
    for k, dpart in enumerate(dparts):
        if not any(any(row) for row in dpart):
            continue
        if len(slots) > 1:
            _accumulate(coeffs, _zi_matmul(_zi_matmul(acc, dpart), post), slots[1:], idx + (k,))
        else:
            key = idx + (k,)
            coeffs[key] = _zi_adddot(coeffs.get(key, {}), [f for row in dpart for f in row], q)


# ---------------------------------------------------------------------------
# pullback along a morphism to an affine target


class MorphismToAffine:
    """Assignment of a commuting matrix family to the target variables,
    i.e. the pull-back-of-functions of a morphism into affine space."""

    __slots__ = ("target_vars", "images")

    def __init__(self, target_vars, images):
        self.target_vars = tuple(target_vars)
        self.images = tuple(images)
        if len(self.target_vars) != len(self.images):
            raise ValueError("one image matrix per target variable required")
        if not self.images:
            raise ValueError("empty morphism data")
        first = self.images[0]
        for m in self.images:
            if m.vars != first.vars or m.nrows != first.nrows:
                raise ValueError("image matrices must share variables and rank")
        if not commute(self.images):
            raise ValueError("non-commuting images do not define a morphism")

    @property
    def source_vars(self):
        return self.images[0].vars

    @property
    def r(self) -> int:
        return self.images[0].nrows


def pullback(phi: MorphismToAffine, f: MultiPoly) -> MPolyMatrix:
    """f evaluated on the image family: the pulled-back function."""
    if f.vars != phi.target_vars:
        raise ValueError("function must live in the target variables")
    ident = MPolyMatrix.identity(phi.source_vars, phi.r)
    return f.eval_generic(phi.images, ident)


def pullback_form(phi: MorphismToAffine, coefficients) -> FormalForm:
    """Pull back the classical 1-form sum_k f_k dy_k to the formal
    sum_k phi#(f_k) * d(phi#(y_k))."""
    coefficients = list(coefficients)
    if len(coefficients) != len(phi.target_vars):
        raise ValueError("one coefficient polynomial per target variable")
    out = FormalForm.zero(phi.source_vars, phi.r, 1)
    for f_k, y_img in zip(coefficients, phi.images):
        out = out + d(y_img).left_mul(pullback(phi, f_k))
    return out


def classical_d(f: MultiPoly):
    """Coefficient list of the classical differential of f: (df/dy_k)_k."""
    return [f.partial(k) for k in range(len(f.vars))]
