"""Acceptance suite: one test per criterion, all exact (no tolerances).

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the PASS
lines); each test prints a single line when its criterion holds.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from azumaya.azpoint import RepPoint, rep_check, support_length, vanishing_ideal
from azumaya.higgsing import (
    HiggsProblem,
    HiggsSolution,
    PolyMatrix,
    WeylTrunc,
    classify_deformation,
    fundamental_solutions,
    ode_residual,
    spectral_curve,
    weyl_commutator_check,
)
from azumaya.kahler import (
    MorphismToAffine,
    MPolyMatrix,
    classical_d,
    d,
    leibniz_expand,
    pullback,
    pullback_form,
    trace_form,
)
from azumaya.errors import SpectrumNotSplit
from azumaya.linalg import Matrix, char_poly, min_poly, rank
from azumaya.orbits import (
    JordanData,
    partition_power_rank,
    precede,
)
from azumaya.poly import MultiPoly
from azumaya.roots import split_roots
from azumaya.scalars import I, gr
from azumaya.torus import (
    AzCircleMorphism,
    Component,
    HomologyClass,
    SurrogateClass,
    TorusGeometry,
    amalgamate,
    intersection,
    pushforward_cycle,
    slag_representative,
    total_class,
    validate_profile,
)
from helpers import (
    brute_min_poly,
    brute_vanishing_at_points,
    dominates,
    jordan_nilpotent,
    partitions_of,
    rand_scalar,
    rand_upper_triangular,
    span_signature,
)


def _report(num: int, text: str):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


PARAM = [gr(1), gr(-1), gr(2), gr(-2), gr(Fraction(1, 2)), gr(Fraction(-1, 2))]
LAMBDAS = [gr(1), gr(2), gr(Fraction(1, 2)), I]


def _solvable(u, c, lam):
    return HiggsProblem(PolyMatrix([[u, u * c], [-u / c, -u]]), lam)


def test_criterion_01_higgsing_fundamental_solutions_exact():
    start = time.monotonic()
    checked = 0
    for u in PARAM:
        for c in PARAM:
            for lam in LAMBDAS:
                p = _solvable(u, c, lam)
                for b in fundamental_solutions(p):
                    assert ode_residual(p, b).is_zero()
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"sweep took {elapsed:.2f}s"
    _report(1, f"{checked} closed-form solutions have exact zero residual in {elapsed:.2f}s")


def test_criterion_02_higgsing_bullet_claims():
    rng = random.Random(2024)
    case_a_seen = 0
    for _ in range(200):
        u = PARAM[rng.randrange(len(PARAM))]
        c = PARAM[rng.randrange(len(PARAM))]
        lam = LAMBDAS[rng.randrange(len(LAMBDAS))]
        p = _solvable(u, c, lam)
        bhat = [rand_scalar(rng) for _ in range(4)]
        s = HiggsSolution.combine(p, bhat)
        # (a) the degree-0 term is exactly the coordinate matrix
        assert s.b0 == Matrix([[bhat[0], bhat[1]], [bhat[2], bhat[3]]])
        # (b) char poly of the full solution equals that of the degree-0 term
        assert spectral_curve(s.b, "v") == char_poly(s.b0, "v").as_multi(
            (s.b.var, "v"), 1
        )
        # (c) in the simple-spectrum branch the kernel ideal is
        #     v^2 - trace(B0) v + det(B0)
        try:
            rep = classify_deformation(p, s)
        except SpectrumNotSplit:
            continue
        if rep.case == "a":
            case_a_seen += 1
            assert rep.kernel_ideal == char_poly(s.b0, "v")
            assert len(rep.components) == 2
    assert case_a_seen >= 50
    _report(2, f"200 draws: degree-0 term, char-poly identity, {case_a_seen} case-(a) ideals")


def test_criterion_03_orbit_closure_criterion():
    pair_count = 0
    for n in range(1, 7):
        parts = partitions_of(n)
        for lam, mu in itertools.product(parts, repeat=2):
            j1 = JordanData([((0,), lam)])
            j2 = JordanData([((0,), mu)])
            assert precede(j1, j2) == dominates(lam, mu)
            pair_count += 1
    rank_checks = 0
    for n in range(1, 7):
        for parts in partitions_of(n):
            m = jordan_nilpotent(parts)
            power = Matrix.identity(n)
            for j in range(1, n + 1):
                power = power * m
                assert partition_power_rank(parts, j) == rank(power)
                rank_checks += 1
    _report(3, f"{pair_count} dominance pairs and {rank_checks} rank-formula checks agree")


def test_criterion_04_image_pushforward_oracle():
    rng = random.Random(404)
    pool = [gr(0), gr(1), gr(-1), gr(0, 1), gr(2), gr(Fraction(1, 2))]
    for _ in range(100):
        r = rng.randrange(1, 6)
        m = rand_upper_triangular(rng, r, pool)
        assert min_poly(m) == brute_min_poly(m)
        roots = split_roots(char_poly(m, "z"))
        s = support_length(RepPoint(("z",), (m,)))
        assert {pt[0].sort_key(): ln for pt, ln in s.entries} == {
            rt.sort_key(): mult for rt, mult in roots
        }
    _report(4, "100 upper-triangular draws: min-poly oracle and support lengths match")


def test_criterion_05_vanishing_ideal_oracle():
    rng = random.Random(505)
    pool = [gr(0), gr(1), gr(-1), gr(0, 1), gr(0, -1), gr(2)]
    for _ in range(50):
        r = rng.randrange(1, 5)
        d1 = [pool[rng.randrange(len(pool))] for _ in range(r)]
        d2 = [pool[rng.randrange(len(pool))] for _ in range(r)]
        t = RepPoint(("z1", "z2"), (Matrix.diag(d1), Matrix.diag(d2)))
        assert rep_check(t)
        basis = vanishing_ideal(t, 2)
        seen = {}
        for a, b in zip(d1, d2):
            seen[(a.sort_key(), b.sort_key())] = (a, b)
        pts = [seen[k] for k in sorted(seen)]
        oracle = brute_vanishing_at_points(pts, 2, 2, ("z1", "z2"))
        assert span_signature(basis, 2, 2) == span_signature(oracle, 2, 2)
    _report(5, "50 diagonal pairs: degree-2 vanishing ideal equals the point-evaluation kernel")


def test_criterion_06_torus_class_arithmetic():
    sq = TorusGeometry(I)
    fig = AzCircleMorphism(
        sq,
        [
            Component(1, HomologyClass(1, 0)),
            Component(1, HomologyClass(1, 0)),
            Component(2, HomologyClass(1, 0)),
        ],
    )
    assert total_class(fig)[0] == SurrogateClass(4, 3, 0)

    rng = random.Random(606)
    for _ in range(500):
        phis = []
        for _ in range(2):
            comps = [
                Component(
                    rng.randrange(1, 4),
                    HomologyClass(rng.randrange(-3, 4), rng.randrange(-3, 4)),
                    gr(Fraction(rng.randrange(0, 4), 4)),
                    rng.randrange(1, 3),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            phis.append(AzCircleMorphism(sq, comps))
        s1, p1 = total_class(phis[0])
        s2, p2 = total_class(phis[1])
        s3, p3 = total_class(amalgamate(phis[0], phis[1]))
        assert s3 == s1 + s2 and p3 == p1 + p2

    for _ in range(50):
        p, q = rng.randrange(-3, 4), rng.randrange(-3, 4)
        r1, r2 = rng.randrange(1, 4), rng.randrange(1, 4)
        phi1 = slag_representative(SurrogateClass(r1, p, q), sq)
        phi2 = slag_representative(SurrogateClass(r2, -p, -q), sq)
        merged = amalgamate(phi1, phi2)
        sc, proj = total_class(merged)
        assert proj == HomologyClass(0, 0)
        final = slag_representative(sc, sq)
        cyc = pushforward_cycle(final)
        assert cyc.line_part_empty() and cyc.total_rank() == r1 + r2

    a, b = HomologyClass(1, 0), HomologyClass(0, 1)
    assert intersection(a, b) == 1
    for _ in range(50):
        c1 = HomologyClass(rng.randrange(-5, 6), rng.randrange(-5, 6))
        c2 = HomologyClass(rng.randrange(-5, 6), rng.randrange(-5, 6))
        assert intersection(c1, c2) == -intersection(c2, c1)
    _report(6, "merge (4;3,0), 500 additivity pairs, 50 cancellations, intersection form")


def test_criterion_07_profile_validation():
    sq = TorusGeometry(I)
    j2 = JordanData([((0,), (2,))])
    j11 = JordanData([((0,), (1, 1))])
    base = AzCircleMorphism(sq, [Component(1, HomologyClass(1, 0), 0, 2)])
    results = (
        validate_profile(base.with_profile([j2, j2])),
        validate_profile(base.with_profile([j2, j11, j11, j11])),
        validate_profile(base.with_profile([j11, j2, j11, j11])),
    )
    assert results == (True, True, False)

    rng = random.Random(707)
    for _ in range(100):
        n = rng.randrange(2, 6)
        parts = partitions_of(n)
        k = rng.randrange(1, 4)
        intervals = [
            JordanData([((0,), parts[rng.randrange(len(parts))])]) for _ in range(k)
        ]
        profile = []
        for i in range(k):
            left, right = intervals[i], intervals[(i + 1) % k]
            choices = [
                p
                for p in parts
                if precede(JordanData([((0,), p)]), left)
                and precede(JordanData([((0,), p)]), right)
            ]
            junction = JordanData([((0,), choices[rng.randrange(len(choices))])])
            profile.extend([left, junction])
        phi = AzCircleMorphism(
            sq, [Component(1, HomologyClass(1, 0), 0, n)], tuple(profile)
        )
        assert validate_profile(phi)
    _report(7, "worked profiles give (True, True, False); 100 dominated junctions validate")


def _rand_mpoly(rng, variables, degree=2):
    terms = {}
    for _ in range(4):
        e = tuple(rng.randrange(0, degree + 1) for _ in variables)
        if sum(e) <= degree:
            terms[e] = rand_scalar(rng)
    return MultiPoly(variables, terms)


def _commuting_pair(rng, r, variables):
    w = MPolyMatrix(
        variables,
        [[_rand_mpoly(rng, variables, 1) for _ in range(r)] for _ in range(r)],
    )
    ident = MPolyMatrix.identity(variables, r)

    def poly_of(mat):
        acc = MPolyMatrix.zeros(variables, r)
        power = ident
        for _ in range(3):
            acc = acc + power * rand_scalar(rng)
            power = power * mat
        return acc

    return poly_of(w), poly_of(w)


def test_criterion_08_kahler_soundness():
    rng = random.Random(808)
    variables = ("x", "y")
    for _ in range(100):
        r = rng.randrange(1, 4)
        m, mp = _commuting_pair(rng, r, variables)
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert trace_form(d(m * a + mp * b)) == trace_form(d(m)).scale(a) + trace_form(
            d(mp)
        ).scale(b)
        assert trace_form(d(m * mp)) == trace_form(leibniz_expand(m, mp))
        w = d(mp).left_mul(m) - d(mp).right_mul(m)
        assert trace_form(w).is_zero()
    for _ in range(50):
        r = rng.randrange(1, 4)
        m1, m2 = _commuting_pair(rng, r, variables)
        phi = MorphismToAffine(("u", "v"), (m1, m2))
        f = _rand_mpoly(rng, ("u", "v"))
        g = _rand_mpoly(rng, ("u", "v"))
        lhs = trace_form(pullback_form(phi, classical_d(f * g)))
        rhs = trace_form(
            pullback_form(phi, classical_d(g)).left_mul(pullback(phi, f))
            + pullback_form(phi, classical_d(f)).right_mul(pullback(phi, g))
        )
        assert lhs == rhs
    _report(8, "100 soundness triples and 50 chain-rule instances hold exactly")


def test_criterion_09_weyl_truncation():
    for cap in range(2, 17):
        assert weyl_commutator_check(WeylTrunc(cap))
    _report(9, "[d, z] = 1 on degrees <= cap-2 for caps 2..16")


def test_criterion_10_scenario_determinism():
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "azumaya", "scenario", "run-all"],
            capture_output=True,
        )
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    data = json.loads(runs[0])
    assert data["all_pass"] is True
    _report(10, f"scenario run-all: {len(data['results'])} scenarios, byte-identical output")
