import io
import json
import random
import sys
import time
from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest

from azumaya import roots as roots_module
from azumaya.cli import main
from azumaya.errors import SpectrumNotSplit
from azumaya.linalg import Matrix, char_poly
from azumaya.poly import UniPoly
from azumaya.roots import split_roots
from azumaya.scalars import I, gr
from helpers import qi_split_roots, rand_upper_triangular


z = UniPoly.x("z")


def test_split_examples():
    assert split_roots(z**2 - 1) == ((gr(-1), 1), (gr(1), 1))
    assert split_roots(z**2 + 1) == ((-I, 1), (I, 1))
    with pytest.raises(SpectrumNotSplit):
        split_roots(z**2 - 2)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        split_roots(UniPoly.zero("z"))


def test_multiplicities_and_sum_to_degree():
    p = (z - 1) ** 3 * (z + I) ** 2 * z
    roots = split_roots(p)
    assert {str(r): m for r, m in roots} == {"1": 3, "0-1i": 2, "0": 1}
    assert sum(m for _, m in roots) == p.degree


def test_rational_and_fractional_roots():
    p = (2 * z - 1) * (3 * z + 2)
    roots = split_roots(p)
    assert roots == ((gr(Fraction(-2, 3)), 1), (gr(Fraction(1, 2)), 1))
    q = UniPoly.from_roots([gr(Fraction(1, 2), Fraction(-3, 4))]) * (z - 5)
    assert split_roots(q) == ((gr(Fraction(1, 2), Fraction(-3, 4)), 1), (gr(5), 1))


def test_partial_split_raises():
    p = (z - 1) * (z**2 - 2)
    with pytest.raises(SpectrumNotSplit):
        split_roots(p)


def test_upper_triangular_spectrum_is_diagonal():
    rng = random.Random(41)
    for _ in range(50):
        r = rng.randrange(1, 6)
        t = rand_upper_triangular(rng, r)
        diag = {}
        for i in range(r):
            d = t.rows[i][i]
            diag[(d.re, d.im)] = diag.get((d.re, d.im), 0) + 1
        roots = split_roots(char_poly(t, "z"))
        assert {(rt.re, rt.im): m for rt, m in roots} == diag


def _gauss_rational(rng, height):
    return gr(
        Fraction(rng.randint(-height, height), rng.randint(1, 4)),
        Fraction(rng.randint(-height, height), rng.randint(1, 3)) if rng.random() < 0.6 else 0,
    )


def test_split_matches_roots_known_by_construction():
    # lc * prod (z - r)^m * prod ((z - s)^2 - k)^e: the quadratics are
    # irreducible over Q(i) since neither k nor -k is a rational square, so
    # the remaining factor named by SpectrumNotSplit is lc times their product
    rng = random.Random(2023)
    for _ in range(120):
        height = rng.choice([1, 2, 5, 9, 40])
        lc = _gauss_rational(rng, height)
        while lc.is_zero():
            lc = _gauss_rational(rng, height)
        want = {}
        for _ in range(rng.randint(0, 4)):
            r = _gauss_rational(rng, height)
            want[r] = want.get(r, 0) + rng.randint(1, 7)
        rest = UniPoly.constant(lc, "z")
        for _ in range(rng.choice([0, 0, 1, 2])):
            s = _gauss_rational(rng, 3)
            k = rng.choice([2, 3, 5, 6, 7, -2, -3, -5, -6, -7])
            rest = rest * ((z - s) ** 2 - k) ** rng.randint(1, 3)
        p = rest
        for r, m in want.items():
            p = p * (z - r) ** m
        if rest.degree == 0:
            got = split_roots(p)
            assert got == tuple(sorted(want.items(), key=lambda kv: kv[0].sort_key()))
            assert sum(m for _, m in got) == p.degree
        else:
            with pytest.raises(SpectrumNotSplit) as err:
                split_roots(p)
            assert str(err.value) == f"no linear factorization over Q(i): {rest}"


def test_prime_skipping():
    # the discriminant 100947^2 = (3*7*11*19*23)^2 makes the roots collide
    # mod every prime q = 3 (mod 4) up to 23, so those primes are passed over
    assert 100947 == 3 * 7 * 11 * 19 * 23
    p = (z - 1) * (z - 100948)
    assert split_roots(p) == ((gr(1), 1), (gr(100948), 1))
    assert split_roots(p * (z - 1) * (3 * z - 2)) == (
        (gr(Fraction(2, 3)), 1), (gr(1), 2), (gr(100948), 1))
    # all primes = 3 (mod 4) below 2000 collide: the first usable prime is
    # past 2000, where the roots mod q are still found without a search
    # over its q^2 residues
    big = 1
    for q in range(3, 2000, 4):
        if all(q % t for t in range(3, int(q**0.5) + 1, 2)):
            big *= q
    assert split_roots((z - I) * (z - I - big)) == ((gr(0, 1), 1), (gr(big, 1), 1))


def _count_gcd_calls(monkeypatch):
    calls = []
    gcd = UniPoly.gcd
    monkeypatch.setattr(UniPoly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    return calls


def _answer(p, split=split_roots):
    try:
        return split(p)
    except SpectrumNotSplit as err:
        return str(err)


def _block_triangular(seed):
    """A 30 x 30 matrix in [-9, 9]: a dense 20 x 20 block, whose
    characteristic polynomial is irreducible, and ten distinct eigenvalues
    on the diagonal below it."""
    rng = random.Random(seed)
    n, k = 30, 10
    diag = rng.sample(range(-9, 10), k)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    for i in range(n - k, n):
        rows[i][:i] = [0] * i
        rows[i][i] = diag[i - (n - k)]
    return rows


def test_squarefree_input_skips_the_gcd_over_q_i(monkeypatch):
    # the characteristic polynomial is squarefree; at seeds 0, 1, 3 and 4 its
    # roots collide mod 3, 7, 11 and 19, and the modular gcd proves it
    # squarefree; the ten roots are found and divided out, and what is left
    # is the characteristic polynomial of the 20 x 20 block
    calls = _count_gcd_calls(monkeypatch)
    for seed in range(5):
        rows = _block_triangular(seed)
        p = char_poly(Matrix(rows), "z")
        start = time.perf_counter()
        got = _answer(p)
        assert time.perf_counter() - start < 0.2
        assert calls == []
        block = char_poly(Matrix([row[:20] for row in rows[:20]]), "z")
        assert got == f"no linear factorization over Q(i): {block}"


def test_a_repeated_root_skips_the_gcd_over_q_i(monkeypatch):
    roots = [gr(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    roots += [gr(Fraction(1, 2), Fraction(k, 3)) for k in range(-2, 3)]
    want = {r: 1 for r in roots}
    want[roots[7]] = 2
    p = UniPoly.constant(gr(3, -1), "z")
    for r, m in want.items():
        p = p * (z - r) ** m
    assert p.degree == 31
    oracle = qi_split_roots(p)
    calls = _count_gcd_calls(monkeypatch)
    start = time.perf_counter()
    got = split_roots(p)
    assert time.perf_counter() - start < 0.2
    assert calls == []
    assert got == oracle == tuple(sorted(want.items(), key=lambda kv: kv[0].sort_key()))


def test_roots_of_large_norm(monkeypatch):
    # roots far past any single small prime; and in (z - 5)(z + 3), |5|
    # exceeds max |g_(n-j)|^(1/j) = 15^(1/2), so the factor 2 of the Fujiwara
    # bound is needed to lift it mod 3 to 81 rather than to 9
    big = 10**40
    cases = [((z - big) ** 2 * (z + big * I), ((gr(0, -big), 1), (gr(big), 2))),
             ((z - 5) * (z + 3), ((gr(-3), 1), (gr(5), 1))),
             (2 * (3 * z - big) ** 3 * (z - I * big) * (z - 5), ((gr(0, big), 1), (gr(5), 1), (gr(Fraction(big, 3)), 3)))]
    want = [qi_split_roots(p) for p, _ in cases]
    assert want == [w for _, w in cases]
    # with 300 small primes only, a gcd such as z - 10^40 is put together by
    # CRT (a finite sequence, so that a fault ends the loop rather than hangs)
    small = list(islice(roots_module._primes_3_mod_4(), 300))
    with monkeypatch.context() as patch:
        patch.setattr(roots_module, "_MERSENNE_EXPONENTS", ())
        patch.setattr(roots_module, "_primes_3_mod_4", lambda: iter(small))
        assert [split_roots(p) for p, _ in cases] == want
    assert [split_roots(p) for p, _ in cases] == want


def test_an_unlucky_prime_is_rejected_by_the_certificate(monkeypatch):
    # (z + s)^2 - P with s = isqrt(P) has a double root mod P, so the gcd of
    # g and g' mod P is (z - 1)(z + s), not z - 1, and P alone passes twice
    # the bound; the certificate refuses that candidate, and the next prime
    # gives the gcd of lower degree
    unlucky = 2**31 - 1
    s = isqrt(unlucky)
    quadratic = (z + s) ** 2 - unlucky
    p = (z - 1) ** 2 * quadratic
    monkeypatch.setattr(roots_module, "_MERSENNE_EXPONENTS", (31,) + roots_module._MERSENNE_EXPONENTS)
    tried = []
    exact_quo = roots_module._zx_exact_quo
    monkeypatch.setattr(roots_module, "_zx_exact_quo",
                        lambda f, d: tried.append((len(d) - 1, exact_quo(f, d) is not None)) or exact_quo(f, d))
    with pytest.raises(SpectrumNotSplit) as err:
        split_roots(p)
    assert str(err.value) == f"no linear factorization over Q(i): {quadratic}" == _answer(p, qi_split_roots)
    # (degree of the divisor, divides): the certificate refuses the candidate
    # of P and accepts z - 1 for g and g'; synthetic divisions by z - y follow
    assert tried[:3] == [(2, False), (1, True), (1, True)]


def test_the_gcd_primes_are_proven_prime():
    # Lucas-Lehmer: for an odd prime e, 2^e - 1 is prime exactly when
    # s_(e-2) = 0 mod 2^e - 1, with s_0 = 4 and s_(k+1) = s_k^2 - 2
    exps = roots_module._MERSENNE_EXPONENTS
    for e in exps:
        assert all(e % t for t in range(2, isqrt(e) + 1))
        m, x = 2**e - 1, 4
        for _ in range(e - 2):
            x = (x * x - 2) % m
        assert x == 0 and m % 4 == 3


def test_roots_mod_a_small_prime_are_enumerated(monkeypatch):
    def refuse(*args):
        raise AssertionError("Cantor-Zassenhaus is not needed for q = 3")

    # the residues of 1, i, -1 and 1 +- sqrt(2) in F_9 are distinct
    split = (z - 1) * (z - I) * (z + 1)
    p = split * (z**2 - 2 * z - 1)
    g, dg, _ = roots_module._monic(p)
    assert roots_module._squarefree_mod(g, dg, 3)
    monkeypatch.setattr(roots_module, "_split", refuse)
    monkeypatch.setattr(roots_module, "_powmod", refuse)
    assert split_roots(split) == ((gr(-1), 1), (gr(0, 1), 1), (gr(1), 1))
    with pytest.raises(SpectrumNotSplit) as err:
        split_roots(p)
    assert str(err.value) == f"no linear factorization over Q(i): {z**2 - 2 * z - 1}"


def test_roots_mod_a_large_prime_use_cantor_zassenhaus(monkeypatch):
    # the q = 2003 case of test_prime_skipping
    big = 1
    for q in range(3, 2000, 4):
        if all(q % t for t in range(3, int(q**0.5) + 1, 2)):
            big *= q
    calls = []
    split = roots_module._split
    monkeypatch.setattr(roots_module, "_split", lambda f, q: calls.append(q) or split(f, q))
    start = time.perf_counter()
    assert split_roots((z - I) * (z - I - big)) == ((gr(0, 1), 1), (gr(big, 1), 1))
    assert time.perf_counter() - start < 1.0
    assert calls[0] == 2003


@pytest.mark.parametrize(
    "rows, roots, text",
    [
        (
            [[1000000007, 0], [0, 998244353]],
            ((gr(998244353), 1), (gr(1000000007), 1)),
            '{"char_poly":[998244359987710471,-1998244360,1],'
            '"roots":[{"mult":1,"root":"998244353"},{"mult":1,"root":"1000000007"}]}',
        ),
        (
            [[0, 1], [999999999999999989, 0]],
            None,
            '{"char_poly":[-999999999999999989,0,1],"roots":null}',
        ),
    ],
    ids=["split", "non-split"],
)
def test_large_eigenvalues(rows, roots, text, monkeypatch, capsys):
    # a root finder that factors the constant term (about 10^18 here) by
    # trial division runs for minutes on these
    p = char_poly(Matrix(rows), "z")
    start = time.perf_counter()
    if roots is None:
        with pytest.raises(SpectrumNotSplit):
            split_roots(p)
    else:
        assert split_roots(p) == roots
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(rows)))
    assert main(["hilbert-chow", "--input", "-"]) == 0
    assert capsys.readouterr().out == text + "\n"
