"""The `requests` workload: a stream of small JSON requests (r <= 3) through
`azumaya.cli.main` in the benchmark's process, with stdin and stdout
swapped for in-memory buffers.

It covers every subcommand and is weighted toward `torus`, the orbit
commands and `weyl-check`, so that it spends its time on argument parsing,
JSON parsing and serialization rather than on elimination. Every response
must be one line of canonical JSON (sorted keys, compact separators) with
the exit code of the documented contract (0 ok, 1 domain error, 2
malformed input); its body is checked against the benchmark's own
computation.

Two requests are kept although the program fails them today: hilbert-chow
on the non-square [[1,2]] and on [[]]. The contract calls them malformed
input (exit 2); the program answers exit 1 `domain-error`. They count as
failed until the program is mended.

This module also builds the smoke set that every workload runs: one small
request per subcommand, plus support_length and jordan_data called
directly, so that every layer the traced run reports is exercised on every
workload.
"""

from __future__ import annotations

import io
import json
import random
import sys
from fractions import Fraction
from math import gcd

import azumaya as az
import azumaya.cli as cli

import exact as ex
import spectral as sp
import symbolic as sy
from exact import GQ
from ops import CheckError, Op, expect

HALF = Fraction(1, 2)
TAUS = [GQ(0, 1), GQ(HALF, 1), GQ(0, 2), GQ(Fraction(1, 3), Fraction(3, 2))]
OFFSETS = [GQ(0), GQ(HALF), GQ(Fraction(1, 4), HALF), GQ(0, Fraction(1, 3))]
POINTS = [GQ(0), GQ(1), GQ(-1), GQ(0, 1), GQ(HALF), GQ(1, -1)]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def call(argv, text):
    """cli.main(argv) with `text` on stdin; returns (exit code, stdout)."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved


def response_check(want_code: int, body):
    """Check of (exit code, stdout): one canonical JSON line, the contract's
    exit code, and `body(obj)` on the parsed object."""
    def check(out):
        code, text = out
        expect(text.endswith("\n") and text.count("\n") == 1, "response is not one line")
        line = text[:-1]
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise CheckError(f"response is not JSON: {exc}") from None
        expect(canonical(obj) == line, "response is not canonical JSON")
        expect(code == want_code, f"exit code {code}, the contract says {want_code}")
        body(obj)
    return check


def error_body(name):
    def body(obj):
        expect(obj.get("error") == name and "detail" in obj, f"error {obj.get('error')!r} != {name!r}")
    return body


def equals(want):
    def body(obj):
        expect(obj == want, f"response {canonical(obj)[:200]} != {canonical(want)[:200]}")
    return body


def request(kind, argv, payload, want_code, body, known_fault=False, raw=None):
    text = raw if raw is not None else ("" if payload is None else json.dumps(payload))
    if payload is not None or raw is not None:
        argv = argv + ["--input", "-"]
    return Op(kind, lambda: call(argv, text), response_check(want_code, body), known_fault)


# ---------------------------------------------------------------------------
# JSON forms of the benchmark's own values


def sj(x: GQ):
    return ex.fmt_json(x)


def matrix_json(m):
    return [[sj(x) for x in row] for row in m]


def plain_matrix_json(rows):
    return [[sj(GQ(a, b)) for a, b in row] for row in rows]


def terms_json(f):
    return [{"coef": sj(c), "exps": list(e)} for e, c in sorted(f.items(), key=lambda kv: (sum(kv[0]), kv[0]))]


def parse_terms(terms):
    return {tuple(t["exps"]): ex.parse_json_scalar(t["coef"]) for t in terms}


def parse_upoly(coeffs):
    return [ex.parse_json_scalar(c) for c in coeffs]


def mpoly_matrix_json(m):
    return [[terms_json(f) for f in row] for row in m]


def classical_json(form):
    return {"degree": 1, "form": [{"coef": terms_json(form[idx]), "index": list(idx)} for idx in sorted(form)],
            "vars": ["x", "y"]}


# ---------------------------------------------------------------------------
# matrices with a known spectrum


def _spectral_input(rng, r):
    eigen, quads = sp.structure(rng, rng, r, "small")
    return eigen, quads, sp.conjugated(rng, sp.block_matrix(eigen, quads))


def hilbert_chow_req(rng, r):
    eigen, quads, m = _spectral_input(rng, r)
    want = {"char_poly": [sj(c) for c in sp.char_poly_of(eigen, quads)],
            "roots": [{"mult": sum(p), "root": ex.fmt_string(ev)} for ev, p in sp.sorted_eigen(eigen)]}
    return request("hilbert-chow", ["hilbert-chow"], plain_matrix_json(m), 0, equals(want))


def _point_json(rows, var="z"):
    return {"matrices": [plain_matrix_json(rows)], "r": len(rows), "vars": [var]}


def image_req(rng, r):
    eigen, quads, m = _spectral_input(rng, r)
    want = {"min_poly": [sj(c) for c in sp.min_poly_of(eigen, quads)], "var": "z"}
    return request("image", ["image"], {"point": _point_json(m)}, 0, equals(want))


def image_pair_req(rng, r):
    d1, d2, m1, m2 = sp.diagonal_pair(rng, rng, r, kmin=1)
    vanishing = sp.vanishing_check(d1, d2, r)

    def body(obj):
        expect(obj.get("vars") == ["x", "y"] and obj.get("degree_bound") == r, "image header")
        vanishing([parse_terms(f) for f in obj["basis"]])
    payload = {"point": {"matrices": [plain_matrix_json(m1), plain_matrix_json(m2)], "r": r, "vars": ["x", "y"]}}
    return request("image", ["image"], payload, 0, body)


def pushforward_req(rng, r):
    eigen, _, m = _spectral_input(rng, r)
    want = {"entries": [{"filtration_ranks": ex.filtration(p), "length": sum(p), "point": [ex.fmt_string(ev)]}
                        for ev, p in sp.sorted_eigen(eigen)]}
    return request("pushforward", ["pushforward"], {"point": _point_json(m)}, 0, equals(want))


def conjugate_req(rng, r, conjugate):
    while True:
        eigen, quads = sp.structure(rng, rng, r, "small")
        if any(sum(p) >= 2 for _, p in eigen):
            break
    b = sp.block_matrix(eigen, quads)
    m = sp.conjugated(rng, b)
    target = sp.plain(b if conjugate else sp.block_matrix(sp.other_partition(rng, eigen), quads))
    want = {"conjugate": conjugate, "status": "conjugate" if conjugate else "not-conjugate"}
    return request("conjugate", ["conjugate"], {"t1": _point_json(m), "t2": _point_json(target)}, 0, equals(want))


def rep_check_req(rng, r):
    if rng.random() < 0.5:
        _, _, m1, m2 = sp.diagonal_pair(rng, rng, r, kmin=1)
        want = True
    else:
        m1 = tuple(tuple(rng.choice(sp.SMALL) for _ in range(r)) for _ in range(r))
        m2 = tuple(tuple(rng.choice(sp.SMALL) for _ in range(r)) for _ in range(r))
        a = [[GQ(*x) for x in row] for row in m1]
        b = [[GQ(*x) for x in row] for row in m2]
        want = ex.mat_mul(a, b) == ex.mat_mul(b, a)
    payload = {"point": {"matrices": [plain_matrix_json(m1), plain_matrix_json(m2)], "r": r, "vars": ["x", "y"]}}
    return request("rep-check", ["rep-check"], payload, 0, equals({"rep_check": want}))


# ---------------------------------------------------------------------------
# orbits


def _jordan(rng, npts):
    pts = rng.sample(POINTS, npts)
    return [(pt, sp.partition(rng, rng.randint(2, 5))) for pt in pts]


def _jordan_json(entries):
    return [{"partition": list(p), "point": [sj(pt)]} for pt, p in entries]


def precedes(j1, j2):
    s1 = {pt.key(): p for pt, p in j1}
    s2 = {pt.key(): p for pt, p in j2}
    if {k: sum(p) for k, p in s1.items()} != {k: sum(p) for k, p in s2.items()}:
        return False
    return all(ex.dominated(s1[k], s2[k]) for k in s1)


def orbit_compare_req(rng):
    j1 = _jordan(rng, rng.randint(1, 2))
    if rng.random() < 0.8:
        j2 = [(pt, sp.partition(rng, sum(p))) for pt, p in j1]
    else:
        j2 = _jordan(rng, rng.randint(1, 2))
    want = {"j1_precedes_j2": precedes(j1, j2), "j2_precedes_j1": precedes(j2, j1)}
    payload = {"j1": _jordan_json(j1), "j2": _jordan_json(j2)}
    return request("orbit-compare", ["orbit-compare"], payload, 0, equals(want))


def orbit_extremes_req(rng):
    support = [(pt, rng.randint(1, 4)) for pt in rng.sample(POINTS, rng.randint(1, 3))]
    ordered = sorted(support, key=lambda e: e[0].key())
    want = {"maximal": [{"partition": [n], "point": [ex.fmt_string(pt)]} for pt, n in ordered],
            "minimal": [{"partition": [1] * n, "point": [ex.fmt_string(pt)]} for pt, n in ordered]}
    payload = {"support": [{"length": n, "point": [sj(pt)]} for pt, n in support]}
    return request("orbit-extremes", ["orbit-extremes"], payload, 0, equals(want))


# ---------------------------------------------------------------------------
# torus


def _components(rng, k):
    out = []
    for _ in range(k):
        out.append({"class": [rng.randint(-3, 3), rng.randint(-3, 3)], "d": rng.randint(1, 3),
                    "fiber_rank": rng.randint(1, 2), "offset": sj(rng.choice(OFFSETS)), "wrap": rng.randint(1, 2)})
    return out


def surrogate(comps):
    """(r; p, q) = sum over components of (d f; p w f, q w f)."""
    r = sum(c["d"] * c["fiber_rank"] for c in comps)
    p = sum(c["class"][0] * c["wrap"] * c["fiber_rank"] for c in comps)
    q = sum(c["class"][1] * c["wrap"] * c["fiber_rank"] for c in comps)
    return [r, p, q]


def torus_class_req(rng):
    tau = rng.choice(TAUS)
    comps = _components(rng, rng.randint(1, 4))
    payload = {"components": comps, "tau": sj(tau)}
    return request("torus class", ["torus", "class"], payload, 0, equals({"surrogate": surrogate(comps)}))


def amalgamate_req(rng):
    tau = sj(rng.choice(TAUS))
    c1, c2 = _components(rng, rng.randint(1, 3)), _components(rng, rng.randint(1, 3))
    want = [a + b for a, b in zip(surrogate(c1), surrogate(c2))]

    def body(obj):
        expect(obj.get("surrogate") == want, f"amalgamated class {obj.get('surrogate')} != {want}")
        expect(obj["morphism"]["tau"] == tau and len(obj["morphism"]["components"]) == len(c1) + len(c2),
               "amalgamated morphism is not the concatenation")
    payload = {"phi1": {"components": c1, "tau": tau}, "phi2": {"components": c2, "tau": tau}}
    return request("torus amalgamate", ["torus", "amalgamate"], payload, 0, body)


def slag_components(r, p, q):
    if p == 0 and q == 0:
        return [{"class": [0, 0], "d": 1, "fiber_rank": r, "offset": 0, "wrap": 0}]
    g0 = gcd(r, abs(p), abs(q))
    p1, q1 = p // g0, q // g0
    h = gcd(abs(p1), abs(q1))
    return [{"class": [p1 // h, q1 // h], "d": r // g0, "fiber_rank": 1, "offset": 0, "wrap": h}] * g0


def slag_req(rng):
    tau = sj(rng.choice(TAUS))
    r, p, q = rng.randint(1, 6), rng.randint(-4, 4), rng.randint(-4, 4)
    want = {"morphism": {"components": slag_components(r, p, q), "tau": tau},
            "special_lagrangian": True, "surrogate": [r, p, q]}
    return request("torus slag", ["torus", "slag"], {"target": [r, p, q], "tau": tau}, 0, equals(want))


def cancel_req(rng):
    tau = sj(rng.choice(TAUS))
    classes = [[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(rng.randint(1, 2))]
    c1 = [{"class": c, "d": rng.randint(1, 3)} for c in classes]
    c2 = [{"class": [-c[0], -c[1]], "d": rng.randint(1, 3)} for c in classes]
    rank = sum(c["d"] for c in c1 + c2)
    want = {"cycle": {"lines": [], "points": [{"length": rank, "point": "0"}]}, "line_part_empty": True,
            "morphism": {"components": slag_components(rank, 0, 0), "tau": tau}, "rank": rank}
    payload = {"phi1": {"components": c1, "tau": tau}, "phi2": {"components": c2, "tau": tau}}
    return request("torus cancel", ["torus", "cancel"], payload, 0, equals(want))


def profile_req(rng, length):
    n = rng.randint(2, 5)
    labels = [sp.partition(rng, n) for _ in range(length)]
    payload = {"components": [{"class": [1, 0], "d": n}], "profile": [_jordan_json([(GQ(0), p)]) for p in labels],
               "tau": sj(rng.choice(TAUS))}
    if length % 2 and length > 1:
        return request("torus validate-profile", ["torus", "validate-profile"], payload, 1, error_body("profile-error"))
    valid = all(ex.dominated(labels[2 * i + 1], labels[2 * i]) and ex.dominated(labels[2 * i + 1], labels[(2 * i + 2) % length])
                for i in range(length // 2))
    return request("torus validate-profile", ["torus", "validate-profile"], payload, 0, equals({"valid": valid}))


# ---------------------------------------------------------------------------
# higgsing, curves, kahler


def _const_poly_json(a):
    return [[[sj(GQ(*x))] for x in row] for row in a]


def higgsing_req(rng, with_bhat=True):
    u, c, lam = rng.choice(sy.PARAM), rng.choice(sy.PARAM), rng.choice(sy.LAMBDAS)
    a = sy.solvable_a(u, c)
    payload = {"A": _const_poly_json(a), "lambda": sj(GQ(*lam))}
    if not with_bhat:
        return request("higgsing solve", ["higgsing", "solve"], payload, 0, equals({"solvable": True}))
    b0, eigen, shape = sy.degree0(rng)
    payload["bhat"] = [sj(x) for row in b0 for x in row]
    own_a, own_lam = [[GQ(*x) for x in row] for row in a], GQ(*lam)
    nus = [ev for _, ev in eigen]

    def body(obj):
        expect(obj["solvable"] is True and obj["residual_zero"] is True and obj["char_poly_matches_degree0"] is True,
               "solve flags")
        expect(obj["B0"] == matrix_json(b0), "B0 != bhat")
        grid = [[parse_upoly(e) for e in row] for row in obj["B"]]
        expect(sy.ode_holds(own_a, own_lam, grid), "lam B' + [A, B] != 0 at a sample point")
        branch = obj["branch"]
        want_case = "a" if shape == "diag" else "b"
        want_evs = [ex.fmt_string(x) for x in (nus if shape == "diag" else nus * 2)]
        expect(branch["case"] == want_case and branch["eigenvalues"] == want_evs, "branch case/eigenvalues")
    return request("higgsing solve", ["higgsing", "solve"], payload, 0, body)


def unsolvable_req(rng):
    payload = {"A": [[[1], [1]], [[0], [0]]], "bhat": [1, 0, 0, 0], "lambda": sj(GQ(*rng.choice(sy.LAMBDAS)))}
    return request("higgsing solve", ["higgsing", "solve"], payload, 1, error_body("solvability-violated"))


def curve_req(rng, r):
    rows = sy.random_poly_matrix(rng, r)
    phi = sy.own_poly_matrix(rows)

    def body(obj):
        expect(obj.get("vars") == ["z", "lambda"], "curve variables")
        expect(sy.curve_slice_holds(phi, parse_terms(obj["curve"])), "curve sliced at z0 != det(lam - Phi(z0))")
    phi_json = [[[sj(GQ(*c)) for c in e] for e in row] for row in rows]
    return Op("spectral-curve", lambda: call(["spectral-curve", "--phi", json.dumps(phi_json)], ""),
              response_check(0, body))


def kahler_trace_req(rng, r):
    m = [[sy.rand_mpoly(rng, 2) for _ in range(r)] for _ in range(r)]
    payload = {"form": {"r": r, "terms": [{"factors": [{"dm": mpoly_matrix_json(m)}]}], "vars": ["x", "y"]}}
    return request("kahler trace", ["kahler", "trace"], payload, 0, equals(classical_json(sy.dtrace(m))))


def kahler_pullback_req(rng, r):
    m1, m2 = sy.commuting_pair(rng, r)
    f = sy.rand_mpoly(rng, 2)
    want = classical_json(sy.dtrace(sy.eval_on_pair(f, m1, m2)))

    def body(obj):
        expect(obj["trace"] == want, "pulled-back trace form differs from d tr(f(M1, M2))")
    payload = {"form": {"function": terms_json(f)},
               "phi": {"images": [mpoly_matrix_json(m1), mpoly_matrix_json(m2)], "source_vars": ["x", "y"],
                       "target_vars": ["u", "v"]}}
    return request("kahler pullback", ["kahler", "pullback"], payload, 0, body)


def weyl_req(rng):
    n, r = rng.randint(4, 12), rng.randint(1, 2)
    want = {"cap": n, "checked_degrees": n - 2, "ok": True, "rank": r}
    return Op("weyl-check", lambda: call(["weyl-check", "--N", str(n), "--r", str(r)], ""), response_check(0, equals(want)))


def scenario_req():
    def body(obj):
        expect(obj.get("all_pass") is True and obj["results"], "scenario run-all did not pass")
        expect(all(e["status"] == "pass" for e in obj["results"]), "a scenario failed")
    return Op("scenario run-all", lambda: call(["scenario", "run-all"], ""), response_check(0, body))


# ---------------------------------------------------------------------------
# malformed and domain-error requests (inputs fixed, not seeded)


def malformed_reqs():
    bad = error_body("malformed-input")
    return [
        request("malformed", ["hilbert-chow"], None, 2, bad, raw="[[1, 2"),
        request("malformed", ["rep-check"], {"point": {"vars": ["z"]}}, 2, bad),
        request("malformed", ["orbit-compare"], {"j1": [{"point": [0], "partition": [1, 2]}],
                                                 "j2": [{"point": [0], "partition": [3]}]}, 2, bad),
        request("malformed", ["hilbert-chow"], [["x", 1], [0, 1]], 2, bad),
        request("malformed", ["torus", "slag"], {"target": [1, 2], "tau": "0+1i"}, 2, bad),
        # kept faults: the contract says exit 2 malformed-input; today exit 1 domain-error
        request("malformed shape", ["hilbert-chow"], [[1, 2]], 2, bad, known_fault=True),
        request("malformed shape", ["hilbert-chow"], [[]], 2, bad, known_fault=True),
    ]


def tau_mismatch_req():
    payload = {"phi1": {"components": [{"class": [1, 0]}], "tau": "0+1i"},
               "phi2": {"components": [{"class": [0, 1]}], "tau": "0+2i"}}
    return request("torus amalgamate", ["torus", "amalgamate"], payload, 1, error_body("domain-error"))


# ---------------------------------------------------------------------------


def _direct_support(rng):
    eigen, quads, m = _spectral_input(rng, 2)
    return Op("support_length", lambda: az.support_length(sp.single_point(m)), sp.check_support_single(eigen))


def _direct_jordan(rng):
    eigen, quads, m = _spectral_input(rng, 2)
    return Op("jordan_data", lambda: az.jordan_data(sp.single_point(m)), sp.check_jordan(eigen))


def smoke():
    """One small request per subcommand (no scenario run-all) and the two
    library calls no subcommand reaches; kinds are prefixed "smoke ". The
    set is the same for every seed and workload."""
    rng = random.Random("smoke")
    ops = [hilbert_chow_req(rng, 2), rep_check_req(rng, 2), image_req(rng, 2), image_pair_req(rng, 2),
           pushforward_req(rng, 2), conjugate_req(rng, 2, True), orbit_compare_req(rng), orbit_extremes_req(rng),
           higgsing_req(rng), curve_req(rng, 2), weyl_req(rng), torus_class_req(rng), amalgamate_req(rng),
           slag_req(rng), cancel_req(rng), profile_req(rng, 2), kahler_trace_req(rng, 1),
           kahler_pullback_req(rng, 1), _direct_support(rng), _direct_jordan(rng)]
    for op in ops:
        op.kind = "smoke " + op.kind
    return ops


def build(seed: int):
    # The many small torus and orbit requests are drawn from the seed. The
    # few requests whose cost depends on their draw (sizes, partitions,
    # polynomials, weyl-check's N) come from a fixed stream, so that the
    # cost of a pass and its upper percentiles do not depend on the seed.
    rng = random.Random(f"requests-{seed}")
    fixed = random.Random("requests")
    ops = []
    ops += [torus_class_req(rng) for _ in range(14)]
    ops += [amalgamate_req(rng) for _ in range(12)]
    ops += [slag_req(rng) for _ in range(12)]
    ops += [cancel_req(rng) for _ in range(10)]
    ops += [profile_req(rng, length) for length in (1, 2, 2, 2, 4, 4, 4, 4, 6, 6, 6, 6, 3, 3)]
    ops += [orbit_compare_req(rng) for _ in range(18)]
    ops += [orbit_extremes_req(rng) for _ in range(10)]
    ops += [rep_check_req(rng, r) for r in (2, 2, 3, 3, 3)]
    ops += [weyl_req(fixed) for _ in range(10)]
    ops += [scenario_req()]
    ops += [hilbert_chow_req(fixed, r) for r in (2, 2, 3, 3, 3, 3)]
    ops += [image_req(fixed, r) for r in (2, 3, 3)] + [image_pair_req(fixed, r) for r in (2, 3)]
    ops += [pushforward_req(fixed, r) for r in (2, 3, 3, 3)]
    ops += [conjugate_req(fixed, r, c) for r, c in ((2, True), (3, True), (2, False), (3, False))]
    ops += [higgsing_req(fixed) for _ in range(4)] + [higgsing_req(fixed, False), unsolvable_req(fixed)]
    ops += [curve_req(fixed, r) for r in (2, 2, 3, 3)]
    ops += [kahler_trace_req(fixed, r) for r in (1, 2, 2)]
    ops += [kahler_pullback_req(fixed, r) for r in (1, 2)]
    ops += malformed_reqs() + [tau_mismatch_req()]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# the smallest request of each workload, for a fresh process


def cold_orbit_extremes(seed):
    rng = random.Random(f"cold-requests-{seed}")
    support = [(rng.choice(POINTS), rng.randint(1, 3))]
    pt, n = support[0]
    payload = {"support": [{"length": n, "point": [sj(pt)]}]}
    want = {"maximal": [{"partition": [n], "point": [ex.fmt_string(pt)]}],
            "minimal": [{"partition": [1] * n, "point": [ex.fmt_string(pt)]}]}
    return ["orbit-extremes", "--input", "-"], json.dumps(payload), response_check(0, equals(want))


def cold_hilbert_chow(seed):
    rng = random.Random(f"cold-spectral-{seed}")
    eigen, quads, m = _spectral_input(rng, 3)
    want = {"char_poly": [sj(c) for c in sp.char_poly_of(eigen, quads)],
            "roots": [{"mult": sum(p), "root": ex.fmt_string(ev)} for ev, p in sp.sorted_eigen(eigen)]}
    return ["hilbert-chow", "--input", "-"], json.dumps(plain_matrix_json(m)), response_check(0, equals(want))


def cold_spectral_curve(seed):
    rng = random.Random(f"cold-symbolic-{seed}")
    rows = sy.random_poly_matrix(rng, 2)
    phi = sy.own_poly_matrix(rows)

    def body(obj):
        expect(sy.curve_slice_holds(phi, parse_terms(obj["curve"])), "curve sliced at z0 != det(lam - Phi(z0))")
    phi_json = [[[sj(GQ(*c)) for c in e] for e in row] for row in rows]
    return ["spectral-curve", "--phi", json.dumps(phi_json)], "", response_check(0, body)
