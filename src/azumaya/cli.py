"""Batch front end: JSON in, canonical JSON out.

Every subcommand reads a JSON payload (``--input FILE`` or ``-`` for
stdin), dispatches to the library, and prints one canonical JSON object:
sorted keys, compact separators, lowest-terms scalars.  A command's flags
are payload fields: ``--degree-bound 3`` sets ``"degree_bound": 3``.
Exit codes: 0 success, 1 domain error (for example a non-split spectrum),
2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import comb
from typing import Callable, NamedTuple, Sequence

from . import jsonio
from .azpoint import (
    conjugacy,
    hilbert_chow,
    image_ideal_univar,
    pushforward,
    rep_check,
    vanishing_ideal,
)
from .errors import DomainError
from .higgsing import (
    HiggsProblem,
    HiggsSolution,
    classify_deformation,
    solvability_check,
    spectral_curve,
    WeylTrunc,
    weyl_commutator_check,
)
from .jsonio import InputError
from .kahler import classical_d, pullback_form, trace_form
from .linalg import char_poly
from .orbits import maximal_orbit, minimal_orbit, precede
from .torus import (
    amalgamate,
    is_special_lagrangian,
    pushforward_cycle,
    slag_representative,
    total_class,
    validate_profile,
)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# handlers: payload dict -> output dict


def run_rep_check(payload):
    t = jsonio.parse_rep_point(payload["point"] if "point" in payload else payload)
    pres = None
    if isinstance(payload, dict) and payload.get("presentation") is not None:
        pres = jsonio.parse_presentation(payload["presentation"])
    return {"rep_check": rep_check(t, pres)}


def run_image(payload):
    t = jsonio.parse_rep_point(payload["point"] if "point" in payload else payload)
    if t.arity == 1:
        p = image_ideal_univar(t)
        return {"var": t.vars[0], "min_poly": jsonio.unipoly_json(p)}
    bound = payload.get("degree_bound")
    d = t.r if bound is None else jsonio.parse_int(bound, "degree_bound")
    if d < 0:
        raise InputError(f"image: degree_bound must be nonnegative, not {d}")
    if d > jsonio.MAX_MONOMIALS or comb(t.arity + d, d) > jsonio.MAX_MONOMIALS:
        raise InputError(f"image: the monomials of degree <= {d} in {t.arity} variables "
                         f"exceed the limit of {jsonio.MAX_MONOMIALS}")
    basis = vanishing_ideal(t, d)
    return {
        "vars": list(t.vars),
        "degree_bound": d,
        "basis": [jsonio.terms_json(f) for f in basis],
    }


def run_pushforward(payload):
    t = jsonio.parse_rep_point(payload["point"] if "point" in payload else payload)
    return jsonio.pushforward_json(pushforward(t))


def run_hilbert_chow(payload):
    m = jsonio.parse_matrix(payload)
    cp, roots = hilbert_chow(m)
    out = {"char_poly": jsonio.unipoly_json(cp)}
    if roots is None:
        out["roots"] = None
    else:
        out["roots"] = [
            {"root": jsonio.scalar_string(r), "mult": mult} for r, mult in roots
        ]
    return out


def run_conjugate(payload):
    t1 = jsonio.parse_rep_point(payload["t1"])
    t2 = jsonio.parse_rep_point(payload["t2"])
    status = conjugacy(t1, t2, seed=jsonio.parse_int(payload.get("seed", 0), "seed"))
    return {"status": status, "conjugate": status == "conjugate"}


def run_orbit_compare(payload):
    j1 = jsonio.parse_jordan(payload["j1"])
    j2 = jsonio.parse_jordan(payload["j2"])
    return {
        "j1_precedes_j2": precede(j1, j2),
        "j2_precedes_j1": precede(j2, j1),
    }


def run_orbit_extremes(payload):
    s = jsonio.parse_support(payload)
    return {
        "maximal": jsonio.jordan_json(maximal_orbit(s)),
        "minimal": jsonio.jordan_json(minimal_orbit(s)),
    }


def run_higgsing_solve(payload):
    a = jsonio.parse_poly_matrix(payload["A"])
    problem = jsonio.build(HiggsProblem, a, jsonio.parse_scalar(payload["lambda"]))
    out = {"solvable": solvability_check(problem)}
    bhat = payload.get("bhat")
    if bhat is None:
        return out
    bhat = [jsonio.parse_scalar(x) for x in jsonio.parse_array(bhat, "bhat")]
    sol = jsonio.build(HiggsSolution.combine, problem, bhat)  # certifies a zero ODE residual
    eig = sol.b.var + "'"  # internal and never printed: any name but the matrix variable's
    bi = spectral_curve(sol.b, eig)
    b0cp = char_poly(sol.b0, eig)
    report = classify_deformation(problem, sol)
    out.update(
        {
            "bhat": [jsonio.scalar_json(x) for x in sol.bhat],
            "B": jsonio.poly_matrix_json(sol.b),
            "B0": jsonio.matrix_json(sol.b0),
            "residual_zero": True,
            "char_poly_matches_degree0": bi == b0cp.as_multi((sol.b.var, eig), 1),
            "branch": {
                "case": report.case,
                "eigenvalues": [jsonio.scalar_string(x) for x in report.eigenvalues],
                "kernel_ideal": jsonio.unipoly_json(report.kernel_ideal),
                "components": [
                    {
                        "eigenvalue": jsonio.scalar_string(ev),
                        "kernel_basis": [
                            [jsonio.unipoly_json(e) for e in vec] for vec in basis
                        ],
                    }
                    for ev, basis in report.components
                ],
                "filtered": report.filtered,
            },
        }
    )
    return out


def run_spectral_curve(payload):
    obj = payload["phi"] if "phi" in payload else payload
    r, d = jsonio.poly_matrix_degree(obj)  # before the coefficients are parsed
    if r * d > jsonio.MAX_CURVE_DEGREE:
        raise InputError(f"spectral-curve: the curve degree r*d = {r}*{d} exceeds the limit of "
                         f"{jsonio.MAX_CURVE_DEGREE}")
    phi = jsonio.parse_poly_matrix(obj)
    curve = jsonio.build(spectral_curve, phi)
    return {"vars": list(curve.vars), "curve": jsonio.terms_json(curve)}


def run_weyl_check(payload):
    if not isinstance(payload, dict):
        raise InputError("weyl-check: the payload must be a JSON object")
    cap = jsonio.parse_int(payload.get("N", payload.get("cap", 16)), "N")
    r = jsonio.parse_int(payload.get("r", 1), "r")
    w = jsonio.build(WeylTrunc, cap, r)
    if cap < 2:
        raise InputError(f"weyl-check: N = {cap} is below the limit of 2")
    if r * cap * (r + cap) > jsonio.MAX_WEYL_TERMS:
        raise InputError(f"weyl-check: r*N*(r+N) exceeds the limit of {jsonio.MAX_WEYL_TERMS}")
    return {"cap": cap, "rank": r, "checked_degrees": cap - 2, "ok": weyl_commutator_check(w)}


def run_torus_class(payload):
    phi = jsonio.parse_morphism(payload)
    sc, _ = total_class(phi)
    return {"surrogate": jsonio.surrogate_json(sc)}


def run_torus_amalgamate(payload):
    phi1 = jsonio.parse_morphism(payload["phi1"])
    phi2 = jsonio.parse_morphism(payload["phi2"])
    phi = amalgamate(phi1, phi2)
    sc, _ = total_class(phi)
    return {
        "morphism": jsonio.morphism_json(phi),
        "surrogate": jsonio.surrogate_json(sc),
    }


def run_torus_slag(payload):
    target = jsonio.parse_surrogate(payload["target"])
    geom = jsonio.parse_morphism({"tau": payload["tau"], "components": []}).geometry
    phi = slag_representative(target, geom)
    sc, _ = total_class(phi)
    return {
        "morphism": jsonio.morphism_json(phi),
        "surrogate": jsonio.surrogate_json(sc),
        "special_lagrangian": is_special_lagrangian(phi),
    }


def run_torus_cancel(payload):
    phi1 = jsonio.parse_morphism(payload["phi1"])
    phi2 = jsonio.parse_morphism(payload["phi2"])
    merged = amalgamate(phi1, phi2)
    sc, _ = total_class(merged)
    final = slag_representative(sc, merged.geometry)
    cyc = pushforward_cycle(final)
    return {
        "morphism": jsonio.morphism_json(final),
        "cycle": jsonio.cycle_json(cyc),
        "line_part_empty": cyc.line_part_empty(),
        "rank": final.rank,
    }


def run_torus_validate_profile(payload):
    phi = jsonio.parse_morphism(payload)
    return {"valid": validate_profile(phi)}


def run_kahler_trace(payload):
    w = jsonio.parse_formal_form(payload["form"] if "form" in payload else payload)
    limit = jsonio.MAX_FORM_INDICES  # n^min(s, bits) > limit iff n^s > limit, for n >= 2
    if len(w.vars) ** min(w.degree, limit.bit_length()) > limit:
        raise InputError(f"kahler trace: {len(w.vars)}^{w.degree} index tuples exceed the limit of {limit}")
    return jsonio.classical_form_json(trace_form(w))


def run_kahler_pullback(payload):
    phi = jsonio.parse_affine_morphism(payload["phi"])
    form = payload.get("form")
    if form is None:
        raise InputError("kahler pullback needs a 'form' payload")
    if isinstance(form, dict) and "function" in form:
        f = jsonio.parse_terms(form["function"], phi.target_vars)
        coeffs = classical_d(f)
    else:
        coeffs = [jsonio.parse_terms(t, phi.target_vars) for t in jsonio.parse_array(form, "form")]
    w = pullback_form(phi, coeffs)
    return {
        "formal": jsonio.formal_form_json(w),
        "trace": jsonio.classical_form_json(trace_form(w)),
    }


def run_scenarios(payload):
    from .scenarios import SCENARIOS

    results = []
    all_pass = True
    for sc in SCENARIOS:
        out = dispatch(sc.command, sc.payload)
        got = canonical_json(out)
        want = canonical_json(sc.expected)
        entry = {"name": sc.name, "status": "pass" if got == want else "fail"}
        if got != want:
            all_pass = False
            entry["expected"] = sc.expected
            entry["got"] = out
        results.append(entry)
    return {"all_pass": all_pass, "results": results}


def json_or_text(text: str):
    """The value of a JSON-valued flag: JSON when the text parses, else the text."""
    try:
        return json.loads(text)
    except ValueError:
        return text


class Flag(NamedTuple):
    """``--name VALUE`` sets the payload field ``name``, "-" read as "_"."""
    name: str
    type: Callable = str
    help: str | None = None
    metavar: str | None = None


class Command(NamedTuple):
    handler: Callable  # payload -> output dict
    help: str | None = None  # None for a subcommand of a group in GROUPS
    flags: Sequence[Flag] = ()
    input: bool = True  # takes --input FILE


GROUPS = {
    "higgsing": "deformation ODE tools",
    "torus": "A-branes on the flat torus",
    "kahler": "formal differential forms",
    "scenario": "bundled worked examples",
}

COMMANDS = {
    ("rep-check",): Command(run_rep_check, "commutation and relator membership"),
    ("image",): Command(run_image, "image ideal of a point", [Flag("degree-bound", int)]),
    ("pushforward",): Command(run_pushforward, "Chan-Paton module decomposition"),
    ("hilbert-chow",): Command(run_hilbert_chow, "characteristic polynomial and root cycle"),
    ("conjugate",): Command(run_conjugate, "GL_r conjugacy of two tuples", [Flag("seed", int)]),
    ("orbit-compare",): Command(run_orbit_compare, "closure order on Jordan data"),
    ("orbit-extremes",): Command(run_orbit_extremes, "maximal/minimal orbit over a support"),
    ("higgsing", "solve"): Command(run_higgsing_solve, None, [
        Flag("A", json_or_text, "2x2 polynomial matrix, JSON"),
        Flag("lambda", str, "nonzero scalar", "LAM"),
        Flag("bhat", json_or_text, "four scalars, JSON array")]),
    ("spectral-curve",): Command(run_spectral_curve, "det(lambda - Phi(z))",
                                 [Flag("phi", json_or_text, "square polynomial matrix, JSON")]),
    ("weyl-check",): Command(run_weyl_check, "truncated [d, z] = 1 check",
                             [Flag("N", int, "degree cap"), Flag("r", int, "tuple rank")]),
    ("torus", "class"): Command(run_torus_class),
    ("torus", "amalgamate"): Command(run_torus_amalgamate),
    ("torus", "slag"): Command(run_torus_slag),
    ("torus", "cancel"): Command(run_torus_cancel),
    ("torus", "validate-profile"): Command(run_torus_validate_profile),
    ("kahler", "trace"): Command(run_kahler_trace, None, [Flag("form", json_or_text, "formal form, JSON")]),
    ("kahler", "pullback"): Command(run_kahler_pullback, None, [
        Flag("phi", json_or_text, "morphism to affine space, JSON"),
        Flag("form", json_or_text, "classical 1-form coefficients, JSON")]),
    ("scenario", "run-all"): Command(run_scenarios, input=False),
}


def dispatch(command, payload):
    entry = COMMANDS.get(tuple(command))
    if entry is None:
        raise InputError(f"unknown command {' '.join(command)}")
    return entry.handler(payload)


# ---------------------------------------------------------------------------
# argument parsing


def _read_payload(args, flags) -> dict:
    payload = {}
    if getattr(args, "input", None):
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError(f"cannot read {args.input}: {exc}") from exc
        try:
            payload = json.loads(text)
        except ValueError as exc:  # also integers past Python's int-string limit
            raise InputError(f"invalid JSON input: {exc}") from exc
    for flag in flags:
        field = flag.name.replace("-", "_")
        value = getattr(args, field)
        if value is not None:
            if not isinstance(payload, dict):
                raise InputError("inline flags need an object payload")
            payload[field] = value
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azumaya",
        description="Exact computations for matrix-tuple brane morphisms.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    groups = {}
    for command, entry in COMMANDS.items():
        if len(command) == 1:
            p = sub.add_parser(command[0], help=entry.help)
        else:
            group, name = command
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest="subcmd", required=True
                )
            p = groups[group].add_parser(name)
        if entry.input:
            p.add_argument("--input", help="JSON file path or - for stdin")
        for flag in entry.flags:
            p.add_argument("--" + flag.name, type=flag.type, help=flag.help, metavar=flag.metavar)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: building it costs more than a
    small request, and it is not built at import, which would slow cold start."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = (args.cmd,) if getattr(args, "subcmd", None) is None else (args.cmd, args.subcmd)
    try:
        payload = _read_payload(args, COMMANDS[command].flags)
        # jsonio.MAX_LITERAL_DIGITS bounds every input literal, but exact
        # results can outgrow Python's int-to-string limit (five 1000-digit
        # eigenvalues make a 5000-digit determinant): lift it while they
        # are computed and written out.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            out = dispatch(command, payload)
            text = canonical_json(out)
        finally:
            sys.set_int_max_str_digits(limit)
    except InputError as exc:
        print(canonical_json({"error": "malformed-input", "detail": str(exc)}))
        return 2
    except (KeyError, TypeError) as exc:
        print(canonical_json({"error": "malformed-input", "detail": f"missing or bad field: {exc}"}))
        return 2
    except DomainError as exc:
        code = type(exc).__name__
        kebab = "".join("-" + c.lower() if c.isupper() else c for c in code).lstrip("-")
        print(canonical_json({"error": kebab, "detail": str(exc)}))
        return 1
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(canonical_json({"error": "domain-error", "detail": str(exc)}))
        return 1
    print(text)
    if command == ("scenario", "run-all") and not out.get("all_pass", False):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
