import itertools
import random

import pytest

from azumaya.azpoint import RepPoint, SupportLengthData, pushforward
from azumaya.linalg import Matrix, rank, solve_exact
from azumaya.orbits import (
    JordanData,
    filtration_ranks,
    jordan_data,
    jordan_data_of_matrix,
    maximal_orbit,
    minimal_orbit,
    orbit_closure_contains,
    partition_power_rank,
    partitions_of,
    precede,
)
from azumaya.scalars import gr
from helpers import dominates, jordan_nilpotent, rand_invertible


def test_jordan_data_examples():
    m = jordan_nilpotent((3, 1))
    jd = jordan_data(RepPoint(("z",), (m,)))
    assert jd.entries == (((gr(0),), (3, 1)),)
    jd = jordan_data(RepPoint(("z",), (Matrix.diag([1, 2]),)))
    assert jd.entries == (((gr(1),), (1,)), ((gr(2),), (1,)))
    jd = jordan_data(RepPoint(("z",), (Matrix.zeros(4),)))
    assert jd.entries == (((gr(0),), (1, 1, 1, 1)),)


def test_jordan_data_recovers_all_partitions():
    for n in range(1, 7):
        for parts in partitions_of(n):
            jd = jordan_data_of_matrix(jordan_nilpotent(parts))
            assert jd.entries == (((gr(0),), parts),)


def test_jordan_data_invariant_under_conjugation():
    rng = random.Random(3)
    for parts in partitions_of(4):
        m = jordan_nilpotent(parts) + Matrix.identity(4) * gr(2)
        g = rand_invertible(rng, 4)
        conj = g * m * solve_exact(g, Matrix.identity(4))
        assert jordan_data_of_matrix(conj) == jordan_data_of_matrix(m)


def test_pushforward_filtration_matches_jordan_data():
    # pushforward ranks the powers of the local action on each generalized
    # eigenspace, jordan_data the powers of m - ev on the whole space; both
    # go through linalg.power_ranks and must give the same filtration
    rng = random.Random(11)
    eigen = [gr(0), gr(1), gr(-1, 2), gr(0, 1)]
    for r in range(1, 7):
        for _ in range(4):
            blocks = []
            while sum(blocks) < r:
                blocks.append(rng.randint(1, r - sum(blocks)))
            diag, sup = [], []
            for size in blocks:
                ev = rng.choice(eigen)
                diag += [ev] * size
                sup += [1] * (size - 1) + [0]
            m = Matrix([[diag[i] if j == i else gr(sup[i] if j == i + 1 else 0) for j in range(r)]
                        for i in range(r)])
            g = rand_invertible(rng, r)
            t = RepPoint(("z",), (g * m * solve_exact(g, Matrix.identity(r)),))
            pf = tuple((pt, ranks) for pt, _, ranks in pushforward(t).entries)
            assert pf == filtration_ranks(jordan_data(t))


def test_precede_examples():
    j22 = JordanData([((0,), (2, 2))])
    j31 = JordanData([((0,), (3, 1))])
    assert precede(j22, j31)
    assert not precede(j31, j22)
    assert precede(j31, j31) and precede(j22, j22)
    assert not precede(JordanData([((0,), (2,))]), JordanData([((1,), (2,))]))


def test_precede_matches_dominance_order():
    for n in range(1, 7):
        for lam, mu in itertools.product(partitions_of(n), repeat=2):
            j1 = JordanData([((0,), lam)])
            j2 = JordanData([((0,), mu)])
            assert precede(j1, j2) == dominates(lam, mu), (lam, mu)


def test_rank_formula_matches_matrix_powers():
    for n in range(1, 7):
        for parts in partitions_of(n):
            m = jordan_nilpotent(parts)
            power = Matrix.identity(n)
            for j in range(1, n + 1):
                power = power * m
                assert partition_power_rank(parts, j) == rank(power)


def test_precede_is_partial_order():
    for n in range(1, 7):
        parts = partitions_of(n)
        labels = [JordanData([((0,), p)]) for p in parts]
        for a in labels:
            assert precede(a, a)
        for a, b in itertools.product(labels, repeat=2):
            if precede(a, b) and precede(b, a):
                assert a == b
        for a, b, c in itertools.product(labels, repeat=3):
            if precede(a, b) and precede(b, c):
                assert precede(a, c)


def test_extremes():
    s = SupportLengthData([((gr(0),), 3)])
    assert maximal_orbit(s) == JordanData([((0,), (3,))])
    assert minimal_orbit(s) == JordanData([((0,), (1, 1, 1))])
    s2 = SupportLengthData([((gr(0),), 2), ((gr(1),), 1)])
    assert maximal_orbit(s2) == JordanData([((0,), (2,)), ((1,), (1,))])
    assert minimal_orbit(s2) == JordanData([((0,), (1, 1)), ((1,), (1,))])


def test_every_orbit_between_extremes():
    for n in range(1, 6):
        s = SupportLengthData([((gr(0),), n)])
        top = maximal_orbit(s)
        bottom = minimal_orbit(s)
        for parts in partitions_of(n):
            j = JordanData([((0,), parts)])
            assert precede(bottom, j)
            assert precede(j, top)


def test_orbit_closure_contains():
    s = SupportLengthData([((gr(0),), 4)])
    top, bottom = maximal_orbit(s), minimal_orbit(s)
    assert orbit_closure_contains(top, bottom)
    assert not orbit_closure_contains(bottom, top)
    assert orbit_closure_contains(top, top)


def test_filtration_ranks():
    assert filtration_ranks(JordanData([((0,), (3,))]))[0][1] == (2, 1)
    assert filtration_ranks(JordanData([((0,), (1, 1, 1))]))[0][1] == ()
    assert filtration_ranks(JordanData([((0,), (2, 1))]))[0][1] == (1,)


def test_canonical_label_validation():
    with pytest.raises(ValueError):
        JordanData([((0,), (1, 2))])  # not weakly decreasing
    with pytest.raises(ValueError):
        JordanData([((0,), (2, 0))])  # nonpositive part
    with pytest.raises(ValueError):
        JordanData([((0,), (1,)), ((0,), (2,))])  # duplicate point
