"""Polynomials over Q(i): dense univariate and sparse multivariate.

``UniPoly`` keeps a dense coefficient tuple, lowest degree first, with the
leading coefficient nonzero (the zero polynomial is the empty tuple).
``MultiPoly`` keeps a map from exponent tuples to nonzero coefficients;
the canonical term order is graded lexicographic on the declared variable
order (serialization lists terms by ascending (total degree, exponents)).
Products run in integer passes over Z[i], in the arithmetic of ``zi``.

The public constructors coerce and validate their input.  Arithmetic
results are already canonical and go through the trusted ``_new`` of each
class, which stores them as they are.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .scalars import GaussianRational, ONE, ZERO, _power, clear_denominators
from .zi import _zi_addmul, _zi_packed, _zi_unpacked, _zx_addmul, _zx_out

_object_new = object.__new__


def _coerce_scalar(c) -> GaussianRational:
    return GaussianRational.coerce(c)


class UniPoly:
    """Univariate polynomial with GaussianRational coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs=()):
        self.var = var
        self.coeffs = _trimmed([_coerce_scalar(c) for c in coeffs])

    @classmethod
    def _new(cls, var: str, coeffs: tuple) -> "UniPoly":
        """The trusted constructor of arithmetic results: a tuple of
        GaussianRationals with no trailing zero, kept as it is."""
        p = _object_new(cls)
        p.var = var
        p.coeffs = coeffs
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, var: str = "z") -> "UniPoly":
        return cls(var, ())

    @classmethod
    def one(cls, var: str = "z") -> "UniPoly":
        return cls(var, (ONE,))

    @classmethod
    def constant(cls, c, var: str = "z") -> "UniPoly":
        return cls(var, (c,))

    @classmethod
    def x(cls, var: str = "z") -> "UniPoly":
        return cls(var, (ZERO, ONE))

    @classmethod
    def from_roots(cls, roots, var: str = "z") -> "UniPoly":
        p = cls.one(var)
        for r in roots:
            p = p * cls(var, (-_coerce_scalar(r), ONE))
        return p

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            return ZERO
        return self.coeffs[-1]

    def constant_term(self) -> GaussianRational:
        return self.coeffs[0] if self.coeffs else ZERO

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _common_var(self, other: "UniPoly") -> str:
        """The variable of a result; a constant adopts the other operand's."""
        if self.var == other.var or len(other.coeffs) <= 1:
            return self.var
        if len(self.coeffs) <= 1:
            return other.var
        raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def _merge(self, other, op) -> "UniPoly":
        """self + other or self - other (op is add or sub), coefficientwise."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = UniPoly.constant(other, self.var)
        var = self._common_var(other)
        a, b = self.coeffs, other.coeffs
        out = list(map(op, a, b))
        if len(a) > len(b):
            return UniPoly._new(var, tuple(out) + a[len(b):])
        if len(a) < len(b):
            return UniPoly._new(var, tuple(out + [op(ZERO, y) for y in b[len(a):]]))
        return UniPoly._new(var, _trimmed(out))

    def __add__(self, other):
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._new(self.var, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        return self._merge(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce_scalar(other)
            if c.is_zero():
                return UniPoly._new(self.var, ())
            return UniPoly._new(self.var, tuple([a * c for a in self.coeffs]))
        var = self._common_var(other)
        a, b = (self.coeffs, other.coeffs) if len(self.coeffs) <= len(other.coeffs) else (other.coeffs, self.coeffs)
        if len(a) <= 1:  # a constant operand: one scalar product per coefficient
            return UniPoly._new(var, tuple([a[0] * c for c in b]) if a else ())
        den, pairs = clear_denominators(a + b)
        re, im = [0] * (len(a) + len(b) - 1), [0] * (len(a) + len(b) - 1)
        _zx_addmul(re, im, pairs[:len(a)], pairs[len(a):])
        return UniPoly._new(var, _zx_out(re, im, den * den))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, k) if k else UniPoly.one(self.var)

    def divmod(self, other: "UniPoly"):
        """Exact field-coefficient long division: (quotient, remainder)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        self._common_var(other)  # raises on a variable mismatch
        bs = other.coeffs
        rem = list(self.coeffs)
        d = len(bs) - 1
        lead = bs[-1]
        q = [ZERO] * max(len(rem) - d, 0)
        while len(rem) > d:
            k = len(rem) - 1 - d
            f = rem.pop() / lead  # cancels the leading term exactly
            q[k] = f
            for j in range(d):
                rem[k + j] = rem[k + j] - f * bs[j]
            while rem and rem[-1].is_zero():
                rem.pop()
        return UniPoly._new(self.var, tuple(q)), UniPoly._new(self.var, tuple(rem))

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def divides(self, other: "UniPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return other.divmod(self)[1].is_zero()

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly._new(self.var, tuple([c / lead for c in self.coeffs]))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def lcm(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.var)
        g = self.gcd(other)
        return (self * other).exact_div(g).monic()

    def deriv(self) -> "UniPoly":
        cs = self.coeffs
        return UniPoly._new(self.var, tuple([cs[k] * k for k in range(1, len(cs))]))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        x = _coerce_scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m):
        """Horner evaluation on a square exact matrix."""
        from .linalg import Matrix

        acc = Matrix.zeros(m.nrows, m.ncols)
        ident = Matrix.identity(m.nrows)
        for c in reversed(self.coeffs):
            acc = acc * m + ident * c
        return acc

    def rename(self, var: str) -> "UniPoly":
        return UniPoly._new(var, self.coeffs)

    def as_multi(self, variables, index: int) -> "MultiPoly":
        """Lift into a multivariate ring, mapping the variable to slot `index`."""
        n = len(variables)
        terms = {}
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            e = [0] * n
            e[index] = k
            terms[tuple(e)] = c
        return MultiPoly(tuple(variables), terms)

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = UniPoly.constant(other, self.var)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_constant() and other.is_constant():
            return self.coeffs == other.coeffs
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var if not self.is_constant() else "", self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == ONE else f"({c})*"
                parts.append(f"{head}{self.var}" + (f"^{k}" if k > 1 else ""))
        return " + ".join(parts)

    __repr__ = __str__


class MultiPoly:
    """Sparse multivariate polynomial over Q(i) in named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            c = _coerce_scalar(c)
            if c.is_zero():
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent tuple length does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = c
        self.terms = clean

    @classmethod
    def _new(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """The trusted constructor of arithmetic results: a dict from
        exponent tuples of ints to nonzero GaussianRationals, kept as it
        is."""
        p = _object_new(cls)
        p.vars = variables
        p.terms = terms
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c) -> "MultiPoly":
        v = tuple(variables)
        return cls(v, {(0,) * len(v): c})

    @classmethod
    def variable(cls, variables, name) -> "MultiPoly":
        v = tuple(variables)
        i = v.index(name)
        e = [0] * len(v)
        e[i] = 1
        return cls(v, {tuple(e): ONE})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def sorted_terms(self):
        """Terms in the canonical order: ascending (total degree, exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic -----------------------------------------------------------

    def _same_vars(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def _merge(self, other, op) -> "MultiPoly":
        """self + other or self - other (op is add or sub), term by term."""
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(self.vars, other)
        self._same_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = op(out[e] if e in out else ZERO, c)
            if s.is_zero():
                del out[e]
            else:
                out[e] = s
        return MultiPoly._new(self.vars, out)

    def __add__(self, other):
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._new(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._merge(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce_scalar(other)
            if c.is_zero():
                return MultiPoly._new(self.vars, {})
            return MultiPoly._new(self.vars, {e: a * c for e, a in self.terms.items()})
        self._same_vars(other)
        den, w, (f, g) = _zi_packed((self, other))
        acc = {}
        _zi_addmul(acc, f, g)
        return MultiPoly._new(self.vars, _zi_unpacked(acc, den * den, w, len(self.vars)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, k) if k else MultiPoly.constant(self.vars, ONE)

    def partial(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to the index-th variable."""
        out = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            e2 = list(e)
            e2[index] = k - 1
            out[tuple(e2)] = c * k
        return MultiPoly._new(self.vars, out)

    # -- evaluation -------------------------------------------------------------

    def eval_scalars(self, values) -> GaussianRational:
        return self.eval_generic([_coerce_scalar(v) for v in values], ONE)

    def eval_generic(self, values, one):
        """Evaluate on any commuting family supporting * and +.

        `one` is the multiplicative identity of the target (the value of
        the empty monomial and of the zero polynomial, times ZERO).
        """
        if len(values) != len(self.vars):
            raise ValueError("wrong number of values")
        terms = self.sorted_terms()
        if not terms:
            return one * ZERO
        monos = monomial_values(values, one, [e for e, _ in terms])
        products = [m * c for m, (_, c) in zip(monos, terms)]
        return sum(products[1:], products[0])

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(self.sorted_terms())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            if mono:
                parts.append(f"({c})*{mono}" if c != ONE else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)

    __repr__ = __str__


def _trimmed(cs: list) -> tuple:
    """The coefficients without their trailing zeros."""
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def monomials_up_to(nvars: int, degree: int):
    """All exponent tuples of total degree <= degree, in canonical order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], degree, nvars)
    out.sort(key=lambda e: (sum(e), e))
    return out


def monomial_values(values, one, exps):
    """The value of each exponent tuple in exps on a commuting family of
    scalars or matrices; the empty monomial is `one`.  Each value keeps a
    table of its powers, filled only on the way to the exponents needed (an
    odd power is the one below times the value, an even one the square of
    its half), so consecutive exponents cost one product each and a lone
    exponent k about 2*log2(k) products and entries, not k."""
    tables = [{0: one, 1: v} for v in values]
    out = []
    for e in exps:
        acc = one
        for table, k in zip(tables, e):
            if k:
                chain = []
                while k not in table:
                    chain.append(k)
                    k = k - 1 if k & 1 else k >> 1
                for k in reversed(chain):  # ends at the exponent of e
                    table[k] = table[k - 1] * table[1] if k & 1 else table[k >> 1] * table[k >> 1]
                acc = table[k] if acc is one else acc * table[k]
        out.append(acc)
    return out
