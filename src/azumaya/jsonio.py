"""Canonical JSON encoding and liberal decoding of the domain types.

Output is deterministic: scalars print as JSON integers when they are
rational integers and otherwise as canonical lowest-terms strings such as
"1/2" or "1/2-3/4i"; objects are emitted with sorted keys by the CLI.
Input accepts integers, the string forms, and {"re": "a/b", "im": "c/d"}
objects interchangeably wherever a scalar is expected.  A scalar literal
may have at most MAX_LITERAL_DIGITS digits in its numerator and in its
denominator, and a decimal exponent of at most MAX_LITERAL_DIGITS in
absolute value; an integer field (exponents, ranks, lengths, torus
classes, ...) at most MAX_LITERAL_DIGITS digits.  Longer values are refused
before any integer is built.
"""

from __future__ import annotations

from fractions import Fraction

from .azpoint import AffinePresentation, PushforwardModule, RepPoint, SupportLengthData
from .higgsing import PolyMatrix
from .kahler import ClassicalForm, FormTerm, FormalForm, MorphismToAffine, MPolyMatrix
from .linalg import Matrix
from .orbits import JordanData
from .poly import MultiPoly, UniPoly
from .scalars import GaussianRational
from .torus import AzCircleMorphism, Component, HomologyClass, SurrogateClass, TorusGeometry, WeightedCycle


class InputError(Exception):
    """Malformed input payload (schema, shape or scalar syntax)."""


def build(cls, *args):
    """cls(*args) from parsed fields, with a value that the type (or
    function) refuses, by its ValueError, reported as malformed input."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_array(value, field: str) -> list:
    """The list of an array field.  Anything else is refused, a string in
    particular, which would otherwise be read character by character."""
    if not isinstance(value, list):
        raise InputError(f"field {field!r} is not an array: {value!r:.40}")
    return value


def parse_var(value) -> str:
    """The name in the 'var' field of a polynomial or polynomial matrix."""
    if not isinstance(value, str):
        raise InputError(f"field 'var' is not a string: {value!r:.40}")
    return value


def parse_names(value, field: str) -> tuple:
    """The variable names of an array field, each a string.  A repeated name
    is refused: it would stand for two coordinates at once."""
    names = tuple(parse_array(value, field))
    seen = set()
    for v in names:
        if not isinstance(v, str):
            raise InputError(f"field {field!r} holds a name that is not a string: {v!r:.40}")
        if v in seen:
            raise InputError(f"field {field!r} repeats the name {v!r}")
        seen.add(v)
    return names


MAX_LITERAL_DIGITS = 1000
_INT_LIMIT = 10**MAX_LITERAL_DIGITS
# Bounds on the work of the requests that small integer fields or short
# inputs make slow.  On a 2-core host the largest accepted weyl-check
# answers in about 0.7 s, the largest accepted image on small matrices in
# about 0.02 s, the pullback of u^1000 du along u -> [[x + y]] in about
# 0.2 s, a one-term trace of 3^8 index tuples in about 0.1 s, and the
# spectral curve of a 12x12 matrix of degree-10 entries with 1-digit
# Gaussian coefficients, the slowest at r*d = 120 for r = 2..12, in about
# 1.3 s.
MAX_MONOMIALS = 100  # image: monomials of degree <= D in the point's variables
MAX_WEYL_TERMS = 200_000  # weyl-check: r*N*(r + N), r*(N-1) states of r entries
MAX_EXPONENT = 1000  # every exponent of a polynomial's terms, and the degree of a coefficient array
MAX_FORM_INDICES = 10_000  # kahler trace: index tuples (k_1..k_s), len(vars)^degree
MAX_CURVE_DEGREE = 120  # spectral-curve: r*d, for r x r entries of degree <= d
MAX_SUPPORT_LENGTH = 10_000  # orbit-extremes: the support lengths in sum, the parts of the minimal orbit


# ---------------------------------------------------------------------------
# scalars


def parse_scalar(obj) -> GaussianRational:
    try:
        if isinstance(obj, bool):
            raise InputError(f"not a scalar: {obj!r}")
        if isinstance(obj, int):
            if abs(obj) >= _INT_LIMIT:
                raise InputError(f"integer exceeds the limit of {MAX_LITERAL_DIGITS} digits")
            return GaussianRational(obj)
        if isinstance(obj, str):
            return _parse_scalar_string(obj)
        if isinstance(obj, dict):
            return GaussianRational(
                _fraction(str(obj.get("re", 0))), _fraction(str(obj.get("im", 0)))
            )
    except InputError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar {obj!r}: {exc}") from exc
    raise InputError(f"cannot read a scalar from {obj!r}")


def parse_int(value, field: str) -> int:
    """The integer of an integer field: a JSON integer, an integral float or
    an integer string.  A bool, a float with a fractional part and a string
    that is not an integer are refused, and so is more than
    MAX_LITERAL_DIGITS digits, before int() runs: int() of a long digit
    string takes quadratic time."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InputError(f"integer field {field!r} is not an integer: {value!r}")
    if isinstance(value, str):
        too_long = len(value.strip().lstrip("+-").replace("_", "")) > MAX_LITERAL_DIGITS
    else:
        too_long = isinstance(value, int) and abs(value) >= _INT_LIMIT
    if too_long:
        raise InputError(f"integer field {field!r} exceeds the limit of {MAX_LITERAL_DIGITS} digits")
    try:
        return int(value)
    except ValueError as exc:  # a string that is not an integer
        raise InputError(f"integer field {field!r} is not an integer: {value[:40]!r}") from exc


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing a literal past the digit limits first."""
    mantissa, _, exponent = text.lower().partition("e")
    if exponent:
        exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
        if len(exponent) > len(str(MAX_LITERAL_DIGITS)) or (
            exponent.isdigit() and int(exponent) > MAX_LITERAL_DIGITS
        ):
            raise InputError(
                f"decimal exponent of {text[:40]!r} exceeds the limit of {MAX_LITERAL_DIGITS}"
            )
    if len(mantissa) > MAX_LITERAL_DIGITS and any(
        sum(ch.isdigit() for ch in part) > MAX_LITERAL_DIGITS for part in mantissa.split("/")
    ):
        raise InputError(
            f"numerator or denominator of {text[:40]!r} exceeds the limit of "
            f"{MAX_LITERAL_DIGITS} digits"
        )
    return Fraction(text)


def _parse_scalar_string(s: str) -> GaussianRational:
    s = s.strip().replace(" ", "")
    if not s:
        raise InputError("empty scalar string")
    if s.endswith(("i", "I")):
        body = s[:-1]
        re_part, im_part = "0", body
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part, im_part = body[:k], body[k:]
                break
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        return GaussianRational(_fraction(re_part), _fraction(im_part))
    return GaussianRational(_fraction(s))


def scalar_json(g: GaussianRational):
    """JSON integer when possible, canonical string otherwise."""
    if g.is_integer():
        return int(g.re)
    return str(g)


def scalar_string(g: GaussianRational) -> str:
    """Always the canonical string form (for labels such as roots)."""
    return str(g)


# ---------------------------------------------------------------------------
# polynomials and matrices


def parse_matrix(obj) -> Matrix:
    """A square matrix: n nonempty rows of n scalars each."""
    if isinstance(obj, dict) and "matrix" in obj:
        obj = obj["matrix"]
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputError("a matrix is a nonempty nested array")
    bad = next((row for row in obj if len(row) != len(obj)), None)
    if bad is not None:
        raise InputError(f"not a square matrix: {len(obj)} row(s), one of {len(bad)} entries")
    return Matrix([[parse_scalar(x) for x in row] for row in obj])


def matrix_json(m: Matrix):
    return [[scalar_json(x) for x in row] for row in m.rows]


def parse_unipoly(obj, var: str = "z") -> UniPoly:
    if isinstance(obj, dict):
        var = parse_var(obj.get("var", var))
        obj = obj.get("coeffs", [])
    if not isinstance(obj, list):
        raise InputError("a univariate polynomial is a coefficient array, lowest first")
    if len(obj) > MAX_EXPONENT + 1:
        raise InputError(f"a coefficient array of degree {len(obj) - 1} exceeds the limit of {MAX_EXPONENT}")
    return UniPoly(var, [parse_scalar(c) for c in obj])


def unipoly_json(p: UniPoly):
    return [scalar_json(c) for c in p.coeffs]


def parse_terms(obj, variables) -> MultiPoly:
    if isinstance(obj, dict):
        obj = obj.get("terms", [])
    if not isinstance(obj, list):
        raise InputError("polynomial terms must be a list of {exps, coef}")
    terms = {}
    for t in obj:
        if not isinstance(t, dict) or "exps" not in t or "coef" not in t:
            raise InputError("each term needs 'exps' and 'coef'")
        exps = tuple(parse_int(e, "exps") for e in parse_array(t["exps"], "exps"))
        if len(exps) != len(variables):
            raise InputError("exponent arity does not match the variables")
        if any(e > MAX_EXPONENT for e in exps):
            raise InputError(f"exponent {max(exps)} exceeds the limit of {MAX_EXPONENT}")
        c = parse_scalar(t["coef"])
        if exps in terms:
            raise InputError("duplicate exponent tuple in term list")
        terms[exps] = c
    return build(MultiPoly, tuple(variables), terms)


def terms_json(f: MultiPoly):
    return [
        {"exps": list(e), "coef": scalar_json(c)} for e, c in f.sorted_terms()
    ]


# ---------------------------------------------------------------------------
# representation points


def parse_rep_point(obj) -> RepPoint:
    if not isinstance(obj, dict):
        raise InputError("a representation point is an object")
    try:
        variables = parse_names(obj["vars"], "vars")
        mats = [parse_matrix(m) for m in parse_array(obj["matrices"], "matrices")]
    except KeyError as exc:
        raise InputError(f"representation point needs {exc}") from exc
    t = build(RepPoint, variables, mats)
    if "r" in obj and parse_int(obj["r"], "r") != t.r:
        raise InputError("declared rank does not match the matrices")
    return t


def parse_presentation(obj) -> AffinePresentation:
    if not isinstance(obj, dict) or "vars" not in obj:
        raise InputError("a presentation is {vars, relators}")
    variables = parse_names(obj["vars"], "vars")
    relators = [parse_terms(r, variables) for r in parse_array(obj.get("relators", []), "relators")]
    return build(AffinePresentation, variables, relators)


def parse_support(obj) -> SupportLengthData:
    if isinstance(obj, dict):
        obj = obj.get("support", obj.get("entries"))
    if not isinstance(obj, list):
        raise InputError("support-length data is a list of {point, length}")
    entries = []
    for e in obj:
        try:
            entries.append((tuple(parse_scalar(x) for x in parse_array(e["point"], "point")),
                            parse_int(e["length"], "length")))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad support entry {e!r}") from exc
    if sum(n for _, n in entries) > MAX_SUPPORT_LENGTH:
        raise InputError(f"support lengths exceed the limit of {MAX_SUPPORT_LENGTH} in total")
    return build(SupportLengthData, entries)


def pushforward_json(pf: PushforwardModule):
    return {
        "entries": [
            {
                "point": [scalar_string(x) for x in pt],
                "length": ln,
                "filtration_ranks": list(ranks),
            }
            for pt, ln, ranks in pf.entries
        ]
    }


# ---------------------------------------------------------------------------
# orbits


def parse_jordan(obj) -> JordanData:
    if isinstance(obj, dict):
        obj = obj.get("jordan", obj.get("entries"))
    if not isinstance(obj, list):
        raise InputError("Jordan data is a list of {point, partition}")
    entries = []
    for e in obj:
        try:
            pt = tuple(parse_scalar(x) for x in parse_array(e["point"], "point"))
            parts = tuple(parse_int(x, "partition") for x in parse_array(e["partition"], "partition"))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad Jordan entry {e!r}") from exc
        entries.append((pt, parts))
    return build(JordanData, entries)


def jordan_json(j: JordanData):
    return [
        {"point": [scalar_string(x) for x in pt], "partition": list(parts)}
        for pt, parts in j.entries
    ]


# ---------------------------------------------------------------------------
# torus


def parse_morphism(obj) -> AzCircleMorphism:
    if not isinstance(obj, dict) or "tau" not in obj:
        raise InputError("a torus morphism is {tau, components, profile?}")
    geom = build(TorusGeometry, parse_scalar(obj["tau"]))
    comps = []
    for i, c in enumerate(parse_array(obj.get("components", []), "components")):
        if not isinstance(c, dict):
            raise InputError(f"component {i} is not an object: {c!r:.40}")
        cls = c.get("class")
        if not isinstance(cls, list) or len(cls) != 2:
            raise InputError("component class must be [p, q]")
        wrap = parse_int(c.get("wrap", 1), "wrap")
        full = HomologyClass(parse_int(cls[0], "class") * wrap, parse_int(cls[1], "class") * wrap)
        comps.append(
            build(
                Component,
                parse_int(c.get("d", 1), "d"),
                full,
                parse_scalar(c.get("offset", 0)),
                parse_int(c.get("fiber_rank", 1), "fiber_rank"),
            )
        )
    profile = None
    if obj.get("profile") is not None:
        profile = tuple(parse_jordan(j) for j in parse_array(obj["profile"], "profile"))
    return AzCircleMorphism(geom, comps, profile)


def morphism_json(phi: AzCircleMorphism):
    comps = []
    for c in phi.components:
        if c.wrap.is_zero():
            cls, wrap = [0, 0], 0
        else:
            prim, m = c.wrap.primitive()
            cls, wrap = [prim.p, prim.q], m
        comps.append(
            {
                "class": cls,
                "d": c.d,
                "fiber_rank": c.fiber_rank,
                "offset": scalar_json(phi.geometry.reduce(c.offset)),
                "wrap": wrap,
            }
        )
    out = {"tau": scalar_json(phi.geometry.tau), "components": comps}
    if phi.profile is not None:
        out["profile"] = [jordan_json(j) for j in phi.profile]
    return out


def surrogate_json(s: SurrogateClass):
    return [s.r, s.p, s.q]


def parse_surrogate(obj) -> SurrogateClass:
    if isinstance(obj, dict):
        obj = obj.get("target", obj.get("surrogate"))
    if not isinstance(obj, list) or len(obj) != 3:
        raise InputError("a surrogate class is [r, p, q]")
    return build(SurrogateClass, *(parse_int(x, "surrogate") for x in obj))


def cycle_json(cyc: WeightedCycle):
    return {
        "lines": [
            {
                "class": [prim.p, prim.q],
                "offset": scalar_json(offset),
                "wrap": wraps,
                "rank": length,
            }
            for prim, offset, wraps, length in cyc.lines
        ],
        "points": [
            {"point": scalar_string(pt), "length": ln} for pt, ln in cyc.points
        ],
    }


# ---------------------------------------------------------------------------
# higgsing


def parse_poly_matrix(obj, var: str = "z") -> PolyMatrix:
    if isinstance(obj, dict):
        var = parse_var(obj.get("var", var))
        obj = obj.get("entries")
    if not isinstance(obj, list) or not obj:
        raise InputError("a polynomial matrix is a nested array of coefficient arrays")
    grid = []
    for row in obj:
        new = []
        for e in parse_array(row, "matrix row"):
            if isinstance(e, list):
                new.append(parse_unipoly(e, var))
            else:
                new.append(UniPoly.constant(parse_scalar(e), var))
        grid.append(new)
    return build(PolyMatrix, grid, var)


def poly_matrix_degree(obj) -> tuple:
    """(r, d) for a polynomial matrix payload, read before its coefficients
    are: r the number of rows and d the largest degree of an entry, at least
    0.  Each coefficient array is read from its end down to its last nonzero
    scalar, so trailing zeros do not count.  A malformed shape, and an array
    longer than MAX_EXPONENT allows, count for nothing here;
    `parse_poly_matrix` refuses them."""
    rows = obj.get("entries") if isinstance(obj, dict) else obj
    rows = rows if isinstance(rows, list) else []
    d = 0
    for e in (e for row in rows if isinstance(row, list) for e in row if isinstance(e, list)):
        if len(e) <= MAX_EXPONENT + 1:
            d = next((k for k in range(len(e) - 1, d, -1) if parse_scalar(e[k])), d)
    return len(rows), d


def poly_matrix_json(b: PolyMatrix):
    return [[unipoly_json(e) for e in row] for row in b.entries]


# ---------------------------------------------------------------------------
# kahler


def parse_mpoly_matrix(obj, variables=None) -> MPolyMatrix:
    if isinstance(obj, dict):
        own = parse_names(obj.get("vars", list(variables or ())), "vars")
        if variables is not None and own != tuple(variables):
            raise InputError(f"matrix variables {own} differ from {tuple(variables)}")
        variables, obj = own, obj.get("entries")
    if variables is None:
        raise InputError("matrix over a polynomial ring needs variables")
    variables = tuple(variables)
    if not isinstance(obj, list) or not obj:
        raise InputError("matrix entries must be a nested array of term lists")
    grid = []
    for row in obj:
        new = []
        for e in parse_array(row, "matrix row"):
            if isinstance(e, list):
                new.append(parse_terms(e, variables))
            else:
                new.append(MultiPoly.constant(variables, parse_scalar(e)))
        grid.append(new)
    return build(MPolyMatrix, variables, grid)


def mpoly_matrix_json(m: MPolyMatrix):
    return [[terms_json(e) for e in row] for row in m.entries]


def parse_formal_form(obj) -> FormalForm:
    if not isinstance(obj, dict) or "vars" not in obj or "r" not in obj:
        raise InputError("a formal form is {vars, r, terms}")
    variables = parse_names(obj["vars"], "vars")
    r = parse_int(obj["r"], "r")
    terms = []
    degree = parse_int(obj.get("degree", 1), "degree")
    for i, t in enumerate(parse_array(obj.get("terms", []), "terms")):
        if not isinstance(t, dict):
            raise InputError(f"form term {i} is not an object: {t!r:.40}")
        # the term's matrices are parsed and checked against r before a
        # missing "pre" or "post" becomes an r x r identity
        pre = parse_mpoly_matrix(t["pre"], variables) if "pre" in t else None
        factors = [
            (parse_mpoly_matrix(f["dm"], variables),
             parse_mpoly_matrix(f["post"], variables) if "post" in f else None)
            for f in parse_array(t.get("factors", []), "factors")
        ]
        if not factors:
            raise InputError("a form term needs at least one differential factor")
        for m in (pre, *(x for pair in factors for x in pair)):
            if m is not None and (m.nrows, m.ncols) != (r, r):
                raise InputError(f"r = {r} does not match the {m.nrows}x{m.ncols} matrix of form term {i}")
        ident = MPolyMatrix.identity(variables, r)
        terms.append(FormTerm(ident if pre is None else pre,
                              [(dm, ident if post is None else post) for dm, post in factors]))
        if "degree" not in obj:  # a declared degree is kept: FormalForm checks the terms against it
            degree = len(factors)
    return build(FormalForm, variables, r, degree, terms)


def formal_form_json(w: FormalForm):
    return {
        "vars": list(w.vars),
        "r": w.r,
        "degree": w.degree,
        "terms": [
            {
                "pre": mpoly_matrix_json(t.pre),
                "factors": [
                    {"dm": mpoly_matrix_json(dm), "post": mpoly_matrix_json(post)}
                    for dm, post in t.factors
                ],
            }
            for t in w.canonical_terms()
        ],
    }


def classical_form_json(f: ClassicalForm):
    return {
        "vars": list(f.vars),
        "degree": f.degree,
        "form": [
            {"index": list(idx), "coef": terms_json(f.coeffs[idx])}
            for idx in sorted(f.coeffs)
        ],
    }


def parse_affine_morphism(obj) -> MorphismToAffine:
    if not isinstance(obj, dict) or "target_vars" not in obj or "images" not in obj:
        raise InputError("a morphism is {target_vars, source_vars, r?, images}")
    source_vars = parse_names(obj.get("source_vars", []), "source_vars")
    images = [parse_mpoly_matrix(m, source_vars or None) for m in parse_array(obj["images"], "images")]
    target_vars = parse_names(obj["target_vars"], "target_vars")
    return build(MorphismToAffine, target_vars, images)
