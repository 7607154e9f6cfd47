"""Tests of the benchmark's own checkers: each accepts the library's real
output and rejects a deliberately corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import azumaya as az  # noqa: E402
import cli_requests as cr  # noqa: E402
import exact as ex  # noqa: E402
import spectral as sp  # noqa: E402
import symbolic as sy  # noqa: E402
from exact import GQ  # noqa: E402
from ops import CheckError  # noqa: E402

# eigenvalue 2 with blocks (2, 1) and eigenvalue 1+i with block (1,)
EIGEN = [(GQ(2), (2, 1)), (GQ(1, 1), (1,))]


def _matrix():
    return sp.conjugated(random.Random(7), sp.block_matrix(EIGEN, []))


def test_hilbert_chow_check_rejects_a_perturbed_root():
    check = sp.check_hilbert_chow(EIGEN, [])
    cp, roots = az.hilbert_chow(sp.matrix(_matrix()))
    check((cp, roots))
    (root, mult), *rest = roots
    with pytest.raises(CheckError):
        check((cp, ((root + az.gr(0, 1), mult), *rest)))


def test_hilbert_chow_check_rejects_roots_of_a_non_split_input():
    quads = [((-2, 0), (0, 0))]
    m = sp.conjugated(random.Random(3), sp.block_matrix(EIGEN, quads))
    check = sp.check_hilbert_chow(EIGEN, quads)
    cp, roots = az.hilbert_chow(sp.matrix(m))
    check((cp, roots))
    with pytest.raises(CheckError):
        check((cp, ((az.gr(2), 3),)))


def test_jordan_check_rejects_a_wrong_partition():
    check = sp.check_jordan(EIGEN)
    out = az.jordan_data(sp.single_point(_matrix()))
    check(out)
    wrong = az.JordanData([(pt, (1,) * sum(parts)) for pt, parts in out.entries])
    with pytest.raises(CheckError):
        check(wrong)


def test_pushforward_check_rejects_wrong_filtration_ranks():
    check = sp.check_pushforward_single(EIGEN)
    out = az.pushforward(sp.single_point(_matrix()))
    check(out)
    wrong = az.PushforwardModule([(pt, ln, ranks + (1,)) for pt, ln, ranks in out.entries])
    with pytest.raises(CheckError):
        check(wrong)


def test_vanishing_check_rejects_a_missing_or_non_vanishing_generator():
    d1, d2 = [GQ(0), GQ(1), GQ(1)], [GQ(1), GQ(0), GQ(0)]
    m1 = sp.plain(sp.block_matrix([(x, (1,)) for x in d1], []))
    m2 = sp.plain(sp.block_matrix([(x, (1,)) for x in d2], []))
    check = sp.check_vanishing(d1, d2, 3)
    out = az.vanishing_ideal(sp.pair_point(m1, m2))
    check(out)
    with pytest.raises(CheckError):
        check(out[1:])
    bumped = out[0] + az.MultiPoly(("x", "y"), {(0, 0): az.gr(1)})
    with pytest.raises(CheckError):
        check((bumped,) + out[1:])


def test_curve_check_rejects_a_changed_coefficient():
    rows = sy.random_poly_matrix(random.Random(5), 3)
    check = sy.check_curve(sy.own_poly_matrix(rows))
    out = az.spectral_curve(sy.poly_matrix(rows))
    check(out)
    e, c = next(iter(out.terms.items()))
    wrong = az.MultiPoly(out.vars, {**out.terms, e: c + az.gr(1)})
    with pytest.raises(CheckError):
        check(wrong)


def test_sweep_check_rejects_a_solution_that_fails_the_ode():
    a, lam = sy.solvable_a(2, sy.HALF), (1, 0)
    op = sy.sweep_op(2, sy.HALF, lam)
    sols, residuals = op.fn()
    op.check((sols, residuals))
    p = sy.problem(a, lam)
    wrong = sols[0] + az.PolyMatrix([[az.UniPoly("z", [0, 1]), 0], [0, 0]])
    with pytest.raises(CheckError):
        op.check(((wrong,) + sols[1:], [az.ode_residual(p, b) for b in (wrong,) + sols[1:]]))


def test_trace_check_rejects_a_wrong_trace_form():
    ops = sy.trace_ops(random.Random(11), 2)
    for op in ops:
        op.check(op.fn())
    linear = ops[0]
    out = linear.fn()
    idx, c = next(iter(out.coeffs.items()))
    wrong = az.ClassicalForm(out.vars, 1, {**out.coeffs, idx: c + az.MultiPoly.constant(out.vars, 1)})
    with pytest.raises(CheckError):
        linear.check(wrong)


def test_torus_check_rejects_a_wrong_surrogate_class():
    op = cr.torus_class_req(random.Random(2))
    code, text = op.fn()
    op.check((code, text))
    r, p, q = cr.json.loads(text)["surrogate"]
    with pytest.raises(CheckError):
        op.check((code, cr.canonical({"surrogate": [r, p, q + 1]}) + "\n"))


def test_response_check_rejects_a_non_canonical_json_line():
    op = cr.orbit_extremes_req(random.Random(4))
    code, text = op.fn()
    op.check((code, text))
    obj = cr.json.loads(text)
    spaced = cr.json.dumps(obj, sort_keys=True)
    unsorted = cr.json.dumps(dict(reversed(list(obj.items()))), separators=(",", ":"))
    for line in (spaced, unsorted):
        with pytest.raises(CheckError):
            op.check((code, line + "\n"))
    with pytest.raises(CheckError):
        op.check((code, text + text))


def test_response_check_rejects_a_wrong_exit_code():
    op = cr.slag_req(random.Random(9))
    code, text = op.fn()
    op.check((code, text))
    with pytest.raises(CheckError):
        op.check((1, text))


def test_kept_shape_requests_want_exit_2_malformed_input():
    kept = [op for op in cr.malformed_reqs() if op.known_fault]
    assert len(kept) == 2
    today = (1, cr.canonical({"detail": "non-square", "error": "domain-error"}) + "\n")
    mended = (2, cr.canonical({"detail": "non-square", "error": "malformed-input"}) + "\n")
    for op in kept:
        op.check(mended)
        with pytest.raises(CheckError):
            op.check(today)


def test_own_arithmetic_agrees_with_a_hand_expansion():
    # (z - 1)(z - i) = z^2 - (1 + i) z + i
    assert ex.from_roots([GQ(1), GQ(0, 1)]) == [GQ(0, 1), GQ(-1, -1), GQ(1)]
    assert ex.det([[GQ(1), GQ(2)], [GQ(3), GQ(4)]]) == GQ(-2)
    assert ex.filtration((3, 1)) == [2, 1]
    assert ex.dominated((2, 2), (3, 1)) and not ex.dominated((3, 1), (2, 2))
    assert ex.parse_json_scalar("-1/2+3i") == GQ(Fraction(-1, 2), 3)
    assert ex.fmt_json(GQ(Fraction(1, 2), -1)) == "1/2-1i"
