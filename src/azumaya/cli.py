"""Batch front end: JSON in, canonical JSON out.

Every subcommand reads a JSON payload (``--input FILE`` or ``-`` for
stdin; some commands also take inline JSON flags), dispatches to the
library, and prints one canonical JSON object: sorted keys, compact
separators, lowest-terms scalars.  Exit codes: 0 success, 1 domain error
(for example a non-split spectrum), 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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
    ode_residual,
    solvability_check,
    spectral_curve,
    WeylTrunc,
    weyl_commutator_check,
)
from .jsonio import InputError
from .kahler import classical_d, pullback_form, trace_form
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


def run_rep_check(payload, options=None):
    t = jsonio.parse_rep_point(payload["point"] if "point" in payload else payload)
    pres = None
    if isinstance(payload, dict) and payload.get("presentation") is not None:
        pres = jsonio.parse_presentation(payload["presentation"])
    return {"rep_check": rep_check(t, pres)}


def run_image(payload, options=None):
    options = options or {}
    t = jsonio.parse_rep_point(payload["point"] if "point" in payload else payload)
    if t.arity == 1:
        p = image_ideal_univar(t)
        return {"var": t.vars[0], "min_poly": jsonio.unipoly_json(p)}
    bound = options.get("degree_bound")
    if bound is not None:
        bound = jsonio.parse_int(bound, "degree_bound")
    basis = vanishing_ideal(t, bound)
    return {
        "vars": list(t.vars),
        "degree_bound": t.r if bound is None else bound,
        "basis": [jsonio.terms_json(f) for f in basis],
    }


def run_pushforward(payload, options=None):
    t = jsonio.parse_rep_point(payload["point"] if "point" in payload else payload)
    return jsonio.pushforward_json(pushforward(t))


def run_hilbert_chow(payload, options=None):
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


def run_conjugate(payload, options=None):
    options = options or {}
    t1 = jsonio.parse_rep_point(payload["t1"])
    t2 = jsonio.parse_rep_point(payload["t2"])
    status = conjugacy(t1, t2, seed=jsonio.parse_int(options.get("seed", 0), "seed"))
    return {"status": status, "conjugate": status == "conjugate"}


def run_orbit_compare(payload, options=None):
    j1 = jsonio.parse_jordan(payload["j1"])
    j2 = jsonio.parse_jordan(payload["j2"])
    return {
        "j1_precedes_j2": precede(j1, j2),
        "j2_precedes_j1": precede(j2, j1),
    }


def run_orbit_extremes(payload, options=None):
    s = jsonio.parse_support(payload)
    return {
        "maximal": jsonio.jordan_json(maximal_orbit(s)),
        "minimal": jsonio.jordan_json(minimal_orbit(s)),
    }


def run_higgsing_solve(payload, options=None):
    a = jsonio.parse_poly_matrix(payload["A"])
    lam = jsonio.parse_scalar(payload["lambda"])
    problem = HiggsProblem(a, lam)
    out = {"solvable": solvability_check(problem)}
    bhat = payload.get("bhat")
    if bhat is None:
        return out
    if not out["solvable"]:
        from .errors import SolvabilityViolated

        raise SolvabilityViolated("(a1-a4)^2 + 4 a2 a3 != 0")
    sol = HiggsSolution.combine(problem, [jsonio.parse_scalar(x) for x in bhat])
    residual = ode_residual(problem, sol.b)
    from .linalg import char_poly

    bi = sol.b.char_poly_bivariate("v")
    b0cp = char_poly(sol.b0, "v")
    report = classify_deformation(problem, sol)
    out.update(
        {
            "bhat": [jsonio.scalar_json(x) for x in sol.bhat],
            "B": jsonio.poly_matrix_json(sol.b),
            "B0": jsonio.matrix_json(sol.b0),
            "residual_zero": residual.is_zero(),
            "char_poly_matches_degree0": bi == b0cp.as_multi((sol.b.var, "v"), 1),
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


def run_spectral_curve(payload, options=None):
    phi = jsonio.parse_poly_matrix(payload["phi"] if "phi" in payload else payload)
    curve = spectral_curve(phi)
    return {"vars": list(curve.vars), "curve": jsonio.terms_json(curve)}


def run_weyl_check(payload, options=None):
    cap = jsonio.parse_int(payload.get("N", payload.get("cap", 16)), "N")
    r = jsonio.parse_int(payload.get("r", 1), "r")
    w = WeylTrunc(cap, r)
    return {"cap": cap, "rank": r, "checked_degrees": cap - 2, "ok": weyl_commutator_check(w)}


def run_torus_class(payload, options=None):
    phi = jsonio.parse_morphism(payload)
    sc, _ = total_class(phi)
    return {"surrogate": jsonio.surrogate_json(sc)}


def run_torus_amalgamate(payload, options=None):
    phi1 = jsonio.parse_morphism(payload["phi1"])
    phi2 = jsonio.parse_morphism(payload["phi2"])
    phi = amalgamate(phi1, phi2)
    sc, _ = total_class(phi)
    return {
        "morphism": jsonio.morphism_json(phi),
        "surrogate": jsonio.surrogate_json(sc),
    }


def run_torus_slag(payload, options=None):
    target = jsonio.parse_surrogate(payload["target"])
    geom = jsonio.parse_morphism({"tau": payload["tau"], "components": []}).geometry
    phi = slag_representative(target, geom)
    sc, _ = total_class(phi)
    return {
        "morphism": jsonio.morphism_json(phi),
        "surrogate": jsonio.surrogate_json(sc),
        "special_lagrangian": is_special_lagrangian(phi),
    }


def run_torus_cancel(payload, options=None):
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


def run_torus_validate_profile(payload, options=None):
    phi = jsonio.parse_morphism(payload)
    return {"valid": validate_profile(phi)}


def run_kahler_trace(payload, options=None):
    w = jsonio.parse_formal_form(payload["form"] if "form" in payload else payload)
    return jsonio.classical_form_json(trace_form(w))


def run_kahler_pullback(payload, options=None):
    phi = jsonio.parse_affine_morphism(payload["phi"])
    form = payload.get("form")
    if form is None:
        raise InputError("kahler pullback needs a 'form' payload")
    if isinstance(form, dict) and "function" in form:
        f = jsonio.parse_terms(form["function"], phi.target_vars)
        coeffs = classical_d(f)
    else:
        coeffs = [jsonio.parse_terms(t, phi.target_vars) for t in form]
    w = pullback_form(phi, coeffs)
    return {
        "formal": jsonio.formal_form_json(w),
        "trace": jsonio.classical_form_json(trace_form(w)),
    }


def run_scenarios(payload, options=None):
    from .scenarios import SCENARIOS

    results = []
    all_pass = True
    for sc in SCENARIOS:
        out = dispatch(sc.command, sc.payload, sc.options)
        got = canonical_json(out)
        want = canonical_json(sc.expected)
        entry = {"name": sc.name, "status": "pass" if got == want else "fail"}
        if got != want:
            all_pass = False
            entry["expected"] = sc.expected
            entry["got"] = out
        results.append(entry)
    return {"all_pass": all_pass, "results": results}


HANDLERS = {
    ("rep-check",): run_rep_check,
    ("image",): run_image,
    ("pushforward",): run_pushforward,
    ("hilbert-chow",): run_hilbert_chow,
    ("conjugate",): run_conjugate,
    ("orbit-compare",): run_orbit_compare,
    ("orbit-extremes",): run_orbit_extremes,
    ("higgsing", "solve"): run_higgsing_solve,
    ("spectral-curve",): run_spectral_curve,
    ("weyl-check",): run_weyl_check,
    ("torus", "class"): run_torus_class,
    ("torus", "amalgamate"): run_torus_amalgamate,
    ("torus", "slag"): run_torus_slag,
    ("torus", "cancel"): run_torus_cancel,
    ("torus", "validate-profile"): run_torus_validate_profile,
    ("kahler", "trace"): run_kahler_trace,
    ("kahler", "pullback"): run_kahler_pullback,
    ("scenario", "run-all"): run_scenarios,
}


def dispatch(command, payload, options=None):
    handler = HANDLERS.get(tuple(command))
    if handler is None:
        raise InputError(f"unknown command {' '.join(command)}")
    return handler(payload, options or {})


# ---------------------------------------------------------------------------
# argument parsing


def _read_payload(args) -> dict:
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
    for key in ("A", "phi", "form", "bhat"):
        val = getattr(args, key, None)
        if val is not None:
            if not isinstance(payload, dict):
                raise InputError("inline flags need an object payload")
            try:
                payload[key] = json.loads(val)
            except ValueError:
                payload[key] = val
    lam = getattr(args, "lam", None)
    if lam is not None:
        payload["lambda"] = lam
    for key in ("N", "r"):
        val = getattr(args, key, None)
        if val is not None:
            payload[key] = val
    return payload


def _options(args) -> dict:
    out = {}
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "degree_bound", None) is not None:
        out["degree_bound"] = args.degree_bound
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="azumaya",
        description="Exact computations for matrix-tuple brane morphisms.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, input_flag=True, seed=False, degree=False):
        if input_flag:
            p.add_argument("--input", help="JSON file path or - for stdin")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if degree:
            p.add_argument("--degree-bound", dest="degree_bound", type=int)
        return p

    common(sub.add_parser("rep-check", help="commutation and relator membership"))
    common(sub.add_parser("image", help="image ideal of a point"), degree=True)
    common(sub.add_parser("pushforward", help="Chan-Paton module decomposition"))
    common(sub.add_parser("hilbert-chow", help="characteristic polynomial and root cycle"))
    common(sub.add_parser("conjugate", help="GL_r conjugacy of two tuples"), seed=True)
    common(sub.add_parser("orbit-compare", help="closure order on Jordan data"))
    common(sub.add_parser("orbit-extremes", help="maximal/minimal orbit over a support"))

    hig = sub.add_parser("higgsing", help="deformation ODE tools")
    hsub = hig.add_subparsers(dest="subcmd", required=True)
    hs = common(hsub.add_parser("solve"))
    hs.add_argument("--A", help="2x2 polynomial matrix, JSON")
    hs.add_argument("--lambda", dest="lam", help="nonzero scalar")
    hs.add_argument("--bhat", help="four scalars, JSON array")

    sc = common(sub.add_parser("spectral-curve", help="det(lambda - Phi(z))"))
    sc.add_argument("--phi", help="square polynomial matrix, JSON")

    wc = common(sub.add_parser("weyl-check", help="truncated [d, z] = 1 check"))
    wc.add_argument("--N", type=int, help="degree cap")
    wc.add_argument("--r", type=int, help="tuple rank")

    tor = sub.add_parser("torus", help="A-branes on the flat torus")
    tsub = tor.add_subparsers(dest="subcmd", required=True)
    for name in ("class", "amalgamate", "slag", "cancel", "validate-profile"):
        common(tsub.add_parser(name))

    kah = sub.add_parser("kahler", help="formal differential forms")
    ksub = kah.add_subparsers(dest="subcmd", required=True)
    kt = common(ksub.add_parser("trace"))
    kt.add_argument("--form", help="formal form, JSON")
    kp = common(ksub.add_parser("pullback"))
    kp.add_argument("--phi", help="morphism to affine space, JSON")
    kp.add_argument("--form", help="classical 1-form coefficients, JSON")

    scn = sub.add_parser("scenario", help="bundled worked examples")
    ssub = scn.add_subparsers(dest="subcmd", required=True)
    srun = ssub.add_parser("run-all")
    srun.add_argument("--seed", type=int, default=0)

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
        payload = _read_payload(args)
        # jsonio.MAX_LITERAL_DIGITS bounds every input literal, but exact
        # results can outgrow Python's int-to-string limit (five 1000-digit
        # eigenvalues make a 5000-digit determinant): lift it while they
        # are computed and written out.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            out = dispatch(command, payload, _options(args))
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
