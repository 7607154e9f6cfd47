import io
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from azumaya import azpoint, cli
from azumaya.azpoint import (
    AffinePresentation,
    PushforwardModule,
    RepPoint,
    SupportLengthData,
    conjugacy,
    hilbert_chow,
    image_ideal_univar,
    intertwiner_space,
    is_conjugate,
    pushforward,
    rep_check,
    support_length,
    vanishing_ideal,
)
from azumaya.errors import SpectrumNotSplit
from azumaya.linalg import Matrix, rank
from azumaya.poly import MultiPoly, UniPoly
from azumaya.roots import split_roots
from azumaya.linalg import char_poly
from azumaya.scalars import gr
from helpers import (
    brute_vanishing_at_points,
    jordan_nilpotent,
    rand_invertible,
    rand_upper_triangular,
    span_signature,
)


z = UniPoly.x("z")
J2 = Matrix([[0, 1], [0, 0]])


def single(m, var="z"):
    return RepPoint((var,), (m,))


def test_rep_check():
    assert rep_check(single(Matrix([[1, 7], [0, 3]])))
    t = RepPoint(("x", "y"), (J2, J2.transpose()))
    assert not rep_check(t)
    pres = AffinePresentation(("z",), [MultiPoly(("z",), {(2,): 1})])
    assert rep_check(single(J2), pres)
    assert not rep_check(single(Matrix.identity(2)), pres)
    # a lone exponent k costs about 2*log2(k) products, not k
    start = time.perf_counter()
    assert rep_check(single(J2), AffinePresentation(("z",), [MultiPoly(("z",), {(10**6,): 1, (10**6 + 1,): 1})]))
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError):
        rep_check(single(J2), AffinePresentation(("x", "y"), []))


def test_image_ideal_univar():
    assert image_ideal_univar(single(Matrix.diag([1, 2]))) == (z - 1) * (z - 2)
    assert image_ideal_univar(single(J2)) == z**2  # non-reduced image point
    assert image_ideal_univar(single(Matrix.identity(4) * gr(9))) == z - 9
    with pytest.raises(ValueError):
        image_ideal_univar(RepPoint(("x", "y"), (J2, J2)))


def test_image_ideal_annihilates_matrix():
    rng = random.Random(2)
    for _ in range(30):
        m = rand_upper_triangular(rng, rng.randrange(1, 5))
        p = image_ideal_univar(single(m))
        assert p.eval_matrix(m).is_zero()


def test_vanishing_ideal_examples():
    t = RepPoint(("z1", "z2"), (Matrix.diag([0, 1]), Matrix.zeros(2)))
    basis = vanishing_ideal(t, 1)
    z2 = MultiPoly(("z1", "z2"), {(0, 1): 1})
    assert any(f == z2 for f in basis)

    t = RepPoint(("z1", "z2"), (Matrix.diag([7, 7]), Matrix.diag([-2, -2])))
    basis = vanishing_ideal(t, 1)
    want = span_signature(
        [
            MultiPoly(("z1", "z2"), {(1, 0): 1, (0, 0): -7}),
            MultiPoly(("z1", "z2"), {(0, 1): 1, (0, 0): 2}),
        ],
        2,
        1,
    )
    assert span_signature(basis, 2, 1) == want

    # two distinct diagonal points: the degree-<=1 kernel is 1-dimensional
    t = RepPoint(("z1", "z2"), (Matrix.diag([1, 2]), Matrix.diag([3, 4])))
    basis = vanishing_ideal(t, 1)
    assert len(basis) == 1
    f = basis[0]
    assert f.eval_scalars([gr(1), gr(3)]) == 0
    assert f.eval_scalars([gr(2), gr(4)]) == 0


def test_support_length_examples():
    assert support_length(single(Matrix.identity(3))).entries == (((gr(1),), 3),)
    s = support_length(single(Matrix.diag([1, 2, 2])))
    assert s.entries == (((gr(1),), 1), ((gr(2),), 2))
    t = RepPoint(("x", "y"), (Matrix.diag([0, 0, 1]), Matrix.diag([5, 5, 7])))
    s = support_length(t)
    assert s.entries == (((gr(0), gr(5)), 2), ((gr(1), gr(7)), 1))
    with pytest.raises(SpectrumNotSplit):
        support_length(single(Matrix([[0, 2], [1, 0]])))


def test_support_length_total_and_projections():
    rng = random.Random(13)
    for _ in range(40):
        r = rng.randrange(1, 5)
        mats = [rand_upper_triangular(rng, r, [gr(0), gr(1), gr(0, 1)]) for _ in range(1)]
        # build a genuinely commuting pair from one matrix and a polynomial in it
        m = mats[0]
        m2 = m * m + m * gr(3)
        t = RepPoint(("x", "y"), (m, m2))
        assert rep_check(t)
        s = support_length(t)
        assert s.total() == r
        # projection of support to each coordinate matches its root multiset
        for k, mat in enumerate(t.matrices):
            proj = {}
            for pt, ln in s.entries:
                key = pt[k].sort_key()
                proj[key] = proj.get(key, 0) + ln
            roots = split_roots(char_poly(mat, "z"))
            assert {rt.sort_key(): mult for rt, mult in roots} == proj


def test_pushforward_examples():
    pf = pushforward(single(Matrix.diag([1, 2])))
    assert pf.entries == (((gr(1),), 1, ()), ((gr(2),), 1, ()))
    pf = pushforward(single(J2))
    assert pf.entries == (((gr(0),), 2, (1,)),)
    bd = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    pf = pushforward(single(bd))
    assert pf.entries == (((gr(0),), 3, (1,)),)


def _jordan_block_tuple(blocks, arity):
    """The tuple diag(p_1 + c_1*J, p_2 + c_2*J, ...) over blocks, one per
    entry (point p, coefficients c, partition of the nilpotent J)."""
    r = sum(sum(parts) for _, _, parts in blocks)
    mats = []
    for i in range(arity):
        rows = [[gr(0)] * r for _ in range(r)]
        base = 0
        for pt, coeffs, parts in blocks:
            nil = jordan_nilpotent(parts)
            for a in range(nil.nrows):
                rows[base + a][base + a] = pt[i]
                for b in range(nil.ncols):
                    if not nil.rows[a][b].is_zero():
                        rows[base + a][base + b] = coeffs[i]
            base += nil.nrows
        mats.append(Matrix(rows))
    return mats


def test_pushforward_of_conjugated_jordan_blocks_matches_partition_arithmetic():
    # on the block at p, N = sum_i i*(m_i - p_i) = (sum_i i*c_i) * J, so its
    # ranks are those of a nilpotent Jordan matrix of the block's partition,
    # sum_k max(part_k - j, 0) for j = 1 .. largest part - 1, or none when
    # the coefficients cancel (c_2 = -1/2 at arity 2)
    rng = random.Random(29)
    coords = [gr(0), gr(1), gr(-1, 2), gr(0, 1)]
    scales = [gr(1), gr(2), gr(-1), gr(1, 1), gr(Fraction(-1, 2))]
    for arity in (1, 2, 3):
        for _ in range(6):
            points = rng.sample(list(itertools.product(coords, repeat=arity)), rng.randint(1, 3))
            blocks = []
            for pt in points:
                parts = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2))), reverse=True)
                blocks.append((pt, (gr(1),) + tuple(rng.choice(scales) for _ in range(arity - 1)), parts))
            while sum(sum(parts) for _, _, parts in blocks) > 8:
                blocks.pop()
            mats = _jordan_block_tuple(blocks, arity)
            g = rand_invertible(rng, mats[0].nrows)
            ginv = _inverse(g)
            t = RepPoint(tuple("xyw"[:arity]), [g * m * ginv for m in mats])
            want = []
            for pt, coeffs, parts in blocks:
                cancel = sum((c * i for i, c in enumerate(coeffs, start=1)), gr(0)).is_zero()
                ranks = () if cancel else [sum(max(x - j, 0) for x in parts) for j in range(1, parts[0])]
                want.append((pt, sum(parts), ranks))
            assert pushforward(t) == PushforwardModule(want)
            assert support_length(t) == SupportLengthData((pt, ln) for pt, ln, _ in want)


def test_pushforward_reads_the_filtration_of_the_one_nilpotent_coordinate():
    # x = g(p + J)g^-1 and y = g(q*I)g^-1 meet in the one point (p, q), where
    # N = 1*(x - p) + 2*(y - q) is g J g^-1: the ranks of its powers are
    # sum_k max(part_k - j, 0), while y's nilpotent part is zero.  With the
    # two swapped, N = 2*g J g^-1 has the same ranks.
    rng = random.Random(31)
    p, q = gr(1, 1), gr(-2)
    for parts in ([1], [2], [3, 1], [2, 2, 1], [4, 2]):
        r = sum(parts)
        g = rand_invertible(rng, r)
        ginv = _inverse(g)
        x = g * (Matrix.identity(r) * p + jordan_nilpotent(parts)) * ginv
        y = g * (Matrix.identity(r) * q) * ginv
        ranks = tuple(sum(max(k - j, 0) for k in parts) for j in range(1, parts[0]))
        assert pushforward(RepPoint(("x", "y"), (x, y))).entries == (((p, q), r, ranks),)
        assert pushforward(RepPoint(("x", "y"), (y, x))).entries == (((q, p), r, ranks),)


def test_no_space_is_restricted_after_the_last_split(monkeypatch):
    sizes = []
    restrict = azpoint._restrict
    monkeypatch.setattr(azpoint, "_restrict", lambda local, basis: sizes.append(len(basis)) or restrict(local, basis))
    m = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    assert pushforward(single(m)).entries == (((gr(1),), 2, (1,)), ((gr(2),), 1, ()))
    assert support_length(single(m)) == SupportLengthData([((gr(1),), 2), ((gr(2),), 1)])
    assert sizes == []
    # two matrices: one restriction per eigenvalue of x, none per joint point
    t = RepPoint(("x", "y"), (Matrix.diag([1, 1, 2]), Matrix.diag([3, 4, 5])))
    assert support_length(t) == SupportLengthData([((gr(1), gr(3)), 1), ((gr(1), gr(4)), 1), ((gr(2), gr(5)), 1)])
    assert sizes == [2, 1]


def test_a_last_split_that_fails_is_spectrum_not_split(monkeypatch, capsys):
    # on C^2, where x = I, the last split is by x + 2y, whose characteristic
    # polynomial z^2 - 2z - 7 has no root in Q(i)
    payload = {"point": {"vars": ["x", "y"], "matrices": [[[1, 0], [0, 1]], [[0, 2], [1, 0]]]}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code = cli.main(["pushforward", "--input", "-"])
    out = json.loads(capsys.readouterr().out)
    assert (code, out["error"]) == (1, "spectrum-not-split")
    assert out["detail"].startswith("no linear factorization over Q(i): ")


def test_support_and_pushforward_refuse_a_tuple_that_does_not_commute():
    with pytest.raises(ValueError, match="the matrices of the tuple do not commute"):
        support_length(RepPoint(("x", "y"), (J2, Matrix.diag([1, 2]))))
    with pytest.raises(ValueError, match="the matrices of the tuple do not commute"):
        pushforward(RepPoint(("x", "y"), (J2, J2.transpose())))


def test_vanishing_ideal_refuses_a_tuple_that_does_not_commute():
    # xy and yx take the values E11 and E22 here, so no kernel of the
    # evaluation map is well defined
    with pytest.raises(ValueError, match="the matrices of the tuple do not commute"):
        vanishing_ideal(RepPoint(("x", "y"), (J2, J2.transpose())), 2)


def test_higgsing_morita_consistency():
    # distinct eigenvalues: two reduced points; merged: one fat point
    a, b = gr(2), gr(5)
    apart = pushforward(single(Matrix.diag([a, b])))
    assert [(pt, ln, ranks) for pt, ln, ranks in apart.entries] == [
        ((a,), 1, ()),
        ((b,), 1, ()),
    ]
    merged = pushforward(single(Matrix.diag([a, a])))
    assert merged.entries == (((a,), 2, ()),)


def test_hilbert_chow():
    cp, roots = hilbert_chow(Matrix.identity(2))
    assert roots == ((gr(1), 2),)
    cp, roots = hilbert_chow(J2)
    assert roots == ((gr(0), 2),)
    cp, roots = hilbert_chow(Matrix.diag([1, 2, 2]))
    assert roots == ((gr(1), 1), (gr(2), 2))
    cp, roots = hilbert_chow(Matrix([[0, 2], [1, 0]]))  # z^2 - 2: not split
    assert roots is None and not cp.is_zero()


def test_intertwiner_space_examples():
    sc = single(Matrix.identity(2) * gr(3))
    assert len(intertwiner_space(sc, sc)) == 4
    t_j = single(J2)
    t_0 = single(Matrix.zeros(2))
    space = intertwiner_space(t_j, t_0)
    assert len(space) == 2
    for g in space:
        assert (g * J2).is_zero()
    t_jt = single(J2.transpose())
    space = intertwiner_space(t_j, t_jt)
    flip = Matrix([[0, 1], [1, 0]])
    assert any(rank(g) == 2 for g in space)
    assert (flip * J2) == (J2.transpose() * flip)


def test_conjugacy_examples():
    t_j = single(J2)
    assert is_conjugate(t_j, single(J2.transpose()))
    assert not is_conjugate(t_j, single(Matrix.zeros(2)))
    assert is_conjugate(t_j, t_j)
    assert conjugacy(t_j, single(Matrix.zeros(2))) == "not-conjugate"


def test_conjugacy_is_equivalence_on_samples():
    rng = random.Random(19)
    pts = []
    for _ in range(6):
        r = rng.randrange(2, 4)
        m = rand_upper_triangular(rng, r, [gr(0), gr(1)])
        g = rand_invertible(rng, r)
        ginv_rows = _inverse(g)
        conj = g * m * ginv_rows
        pts.append((single(m), single(conj)))
    for t1, t2 in pts:
        assert is_conjugate(t1, t2) and is_conjugate(t2, t1)
        assert support_length(t1) == support_length(t2)
        assert pushforward(t1) == pushforward(t2)


def test_conjugacy_probabilistic_path_for_large_rank():
    rng = random.Random(7)
    r = 5
    m = rand_upper_triangular(rng, r, [gr(0), gr(1)])
    g = rand_invertible(rng, r)
    conj = g * m * _inverse(g)
    assert conjugacy(single(m), single(conj)) == "conjugate"
    # rank or char_poly differ, so the answer is certain, at any rank
    for r in (5, 12):
        start = time.perf_counter()
        other = Matrix.diag([0] * (r - 1) + [1])
        assert conjugacy(single(Matrix.zeros(r)), single(other)) == "not-conjugate"
        assert time.perf_counter() - start < 0.2
    same_rank = conjugacy(single(Matrix.diag([1, 1, 1, 1, 2])), single(Matrix.diag([1, 1, 1, 1, 3])))
    assert same_rank == "not-conjugate"


def _inverse(g: Matrix) -> Matrix:
    from azumaya.linalg import solve_exact

    return solve_exact(g, Matrix.identity(g.nrows))


@pytest.mark.parametrize(
    "mats, degree",
    [((Matrix([[1]]), Matrix([[2]])), 16), ((Matrix.diag([1, 2, 3]), Matrix.diag([0, 1, -1])), 12)],
    ids=["1x1-D16", "diagonal-3x3-D12"],
)
def test_vanishing_ideal_at_high_degree_is_fast_and_matches_the_points(mats, degree):
    t = RepPoint(("z1", "z2"), mats)
    start = time.perf_counter()
    basis = vanishing_ideal(t, degree)
    assert time.perf_counter() - start < 1.0
    points = [tuple(m.rows[i][i] for m in mats) for i in range(t.r)]
    assert basis == brute_vanishing_at_points(points, 2, degree, t.vars)
