import random
from fractions import Fraction

import pytest

from azumaya.errors import ProfileError
from azumaya.orbits import JordanData, precede
from azumaya.scalars import I, gr
from azumaya.torus import (
    AzCircleMorphism,
    Component,
    HomologyClass,
    SurrogateClass,
    TorusGeometry,
    amalgamate,
    direction,
    intersection,
    is_special_lagrangian,
    pushforward_cycle,
    slag_representative,
    total_class,
    validate_profile,
)
from helpers import partitions_of

SQ = TorusGeometry(I)


def hc(p, q):
    return HomologyClass(p, q)


def morphism(*comps, geometry=SQ, profile=None):
    return AzCircleMorphism(geometry, comps, profile)


def test_intersection_form():
    assert intersection(hc(1, 0), hc(0, 1)) == 1
    assert intersection(hc(0, 1), hc(1, 0)) == -1
    assert intersection(hc(2, 1), hc(1, 1)) == 1
    c = hc(4, -7)
    assert intersection(c, c) == 0


def test_direction_examples():
    assert direction(hc(1, 0), SQ) == gr(1)
    assert direction(hc(0, 1), SQ) == I
    assert direction(hc(2, 2), SQ) == gr(1) + I
    with pytest.raises(ValueError):
        direction(hc(0, 0), SQ)


def test_geometry_validation_and_offset_reduction():
    with pytest.raises(ValueError):
        TorusGeometry(gr(1))
    g = TorusGeometry(gr(Fraction(1, 2), 1))
    assert g.reduce(gr(Fraction(5, 2), 0)) == gr(Fraction(1, 2))
    # offset s + t*tau reduces both coordinates mod 1
    assert g.reduce(g.tau * 3 + gr(2)) == gr(0)


def test_special_lagrangian_examples():
    assert is_special_lagrangian(morphism(Component(1, hc(1, 0))))
    assert not is_special_lagrangian(
        morphism(Component(1, hc(1, 0)), Component(1, hc(0, 1)))
    )
    assert is_special_lagrangian(
        morphism(Component(1, hc(1, 0)), Component(1, hc(2, 0)))
    )
    # same line, opposite orientation: not calibrated by one direction
    assert not is_special_lagrangian(
        morphism(Component(1, hc(1, 0)), Component(1, hc(-1, 0)))
    )
    # point branes never obstruct
    assert is_special_lagrangian(
        morphism(Component(1, hc(0, 0), 0, 3), Component(2, hc(1, 1)))
    )


def test_pushforward_cycle_examples():
    cyc = pushforward_cycle(morphism(Component(1, hc(1, 0))))
    assert [t[2:] for t in cyc.lines] == [(1, 1)] and not cyc.points
    cyc2 = pushforward_cycle(morphism(Component(2, hc(1, 0))))
    assert [t[2:] for t in cyc2.lines] == [(1, 2)]
    # splitting a component into finer equal pieces is invisible
    split = pushforward_cycle(
        morphism(Component(1, hc(1, 0)), Component(1, hc(1, 0)))
    )
    assert split == cyc2
    wrapped = pushforward_cycle(morphism(Component(2, hc(2, 0), 0, 3)))
    assert [t[2:] for t in wrapped.lines] == [(2, 6)]
    pt = pushforward_cycle(morphism(Component(1, hc(0, 0), gr(Fraction(1, 3)), 2)))
    assert pt.line_part_empty() and pt.points == ((gr(Fraction(1, 3)), 2),)


def test_amalgamate_examples():
    pa = morphism(Component(1, hc(1, 0)))
    pb = morphism(Component(1, hc(0, 1)))
    pc = amalgamate(pa, pb)
    sc, proj = total_class(pc)
    assert sc == SurrogateClass(2, 1, 1) and proj == hc(1, 1)
    empty = morphism()
    again = amalgamate(pa, empty)
    assert total_class(again) == total_class(pa)
    assert pushforward_cycle(again) == pushforward_cycle(pa)
    # brane-anti-brane at the class level
    p1 = morphism(Component(1, hc(3, -2)))
    p2 = morphism(Component(1, hc(-3, 2)))
    assert total_class(amalgamate(p1, p2))[1] == hc(0, 0)
    with pytest.raises(ValueError):
        amalgamate(pa, morphism(Component(1, hc(1, 0)), geometry=TorusGeometry(gr(0, 2))))


def test_total_class_examples():
    fig = morphism(
        Component(1, hc(1, 0)), Component(1, hc(1, 0)), Component(2, hc(1, 0))
    )
    assert total_class(fig)[0] == SurrogateClass(4, 3, 0)
    assert total_class(morphism())[0] == SurrogateClass(0, 0, 0)
    assert total_class(morphism(Component(1, hc(5, -1))))[0] == SurrogateClass(1, 5, -1)
    # fiber rank multiplies both the covering rank and the projected class
    assert total_class(morphism(Component(2, hc(1, 1), 0, 3)))[0] == SurrogateClass(
        6, 3, 3
    )


def test_amalgamate_cycle_is_termwise_sum():
    rng = random.Random(55)
    for _ in range(50):
        phis = []
        for _ in range(2):
            comps = [
                Component(
                    rng.randrange(1, 4),
                    hc(rng.randrange(-2, 3), rng.randrange(-2, 3)),
                    gr(Fraction(rng.randrange(0, 2), 2)),
                    rng.randrange(1, 3),
                )
                for _ in range(rng.randrange(1, 3))
            ]
            phis.append(morphism(*comps))
        merged = pushforward_cycle(amalgamate(phis[0], phis[1]))
        assert merged == pushforward_cycle(phis[0]) + pushforward_cycle(phis[1])


def test_class_additivity_on_seeded_pairs():
    rng = random.Random(100)
    for _ in range(200):
        phis = []
        for _ in range(2):
            comps = [
                Component(
                    rng.randrange(1, 4),
                    hc(rng.randrange(-3, 4), rng.randrange(-3, 4)),
                    gr(Fraction(rng.randrange(0, 3), 3)),
                    rng.randrange(1, 3),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            phis.append(morphism(*comps))
        sc1, p1 = total_class(phis[0])
        sc2, p2 = total_class(phis[1])
        sc3, p3 = total_class(amalgamate(phis[0], phis[1]))
        assert sc3 == sc1 + sc2
        assert p3 == p1 + p2


def test_slag_representative_examples():
    rep = slag_representative(SurrogateClass(1, 1, 1), SQ)
    assert is_special_lagrangian(rep)
    assert total_class(rep)[0] == SurrogateClass(1, 1, 1)

    point_brane = slag_representative(SurrogateClass(2, 0, 0), SQ)
    cyc = pushforward_cycle(point_brane)
    assert cyc.line_part_empty() and point_brane.rank == 2

    rep430 = slag_representative(SurrogateClass(4, 3, 0), SQ)
    assert total_class(rep430)[0] == SurrogateClass(4, 3, 0)
    assert is_special_lagrangian(rep430)

    multi = slag_representative(SurrogateClass(6, 2, 4), SQ)
    assert len(multi.components) == 2
    assert total_class(multi)[0] == SurrogateClass(6, 2, 4)

    with pytest.raises(ValueError):
        slag_representative(SurrogateClass(0, 1, 0), SQ)


def test_slag_representative_preserves_class_on_seeded_targets():
    rng = random.Random(41)
    for _ in range(100):
        r = rng.randrange(1, 7)
        p, q = rng.randrange(-5, 6), rng.randrange(-5, 6)
        target = SurrogateClass(r, p, q)
        rep = slag_representative(target, SQ)
        assert total_class(rep)[0] == target
        assert is_special_lagrangian(rep)


def test_brane_anti_brane_cancellation():
    rng = random.Random(4242)
    for _ in range(30):
        p, q = rng.randrange(-3, 4), rng.randrange(-3, 4)
        r1, r2 = rng.randrange(1, 4), rng.randrange(1, 4)
        phi1 = slag_representative(SurrogateClass(r1, p, q), SQ)
        phi2 = slag_representative(SurrogateClass(r2, -p, -q), SQ)
        merged = amalgamate(phi1, phi2)
        sc, proj = total_class(merged)
        assert proj == hc(0, 0)
        final = slag_representative(sc, SQ)
        cyc = pushforward_cycle(final)
        assert cyc.line_part_empty()
        assert cyc.total_rank() == r1 + r2


def test_profile_examples():
    j2 = JordanData([((0,), (2,))])
    j11 = JordanData([((0,), (1, 1))])
    base = morphism(Component(1, hc(1, 0), 0, 2))

    assert validate_profile(base.with_profile([j2]))
    assert validate_profile(base.with_profile([j2, j2]))
    assert validate_profile(base.with_profile([j2, j11, j11, j11]))
    assert not validate_profile(base.with_profile([j11, j2, j11, j11]))

    with pytest.raises(ProfileError):
        validate_profile(base)
    with pytest.raises(ProfileError):
        validate_profile(base.with_profile([]))
    with pytest.raises(ProfileError):
        validate_profile(base.with_profile([j2, j11, j2]))


def test_random_profiles_with_dominated_junctions_validate():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randrange(2, 6)
        parts = partitions_of(n)
        intervals = [
            JordanData([((0,), parts[rng.randrange(len(parts))])])
            for _ in range(rng.randrange(1, 4))
        ]
        profile = []
        k = len(intervals)
        ok = True
        for i in range(k):
            left = intervals[i]
            right = intervals[(i + 1) % k]
            choices = [
                p
                for p in parts
                if precede(JordanData([((0,), p)]), left)
                and precede(JordanData([((0,), p)]), right)
            ]
            assert choices  # the fully split partition always qualifies
            junction = JordanData([((0,), choices[rng.randrange(len(choices))])])
            profile.extend([left, junction])
        phi = morphism(Component(1, hc(1, 0), 0, n), profile=tuple(profile))
        assert validate_profile(phi)
