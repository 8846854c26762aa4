import random
import time
from fractions import Fraction

import mpmath
import pytest

from hilbertpoincare.cyclotomic import (CyclotomicInteger, _cos_table_fixed,
                                        additive_character)
from hilbertpoincare.intervals import contains, from_fixed, lo, hi

from oracles import cos_table_direct, cyclotomic_poly, phi_reduce


def zeta(m, t=1):
    return CyclotomicInteger.root_of_unity(m, t)


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_zero_tests():
    assert (zeta(2) + 1).is_zero()
    s = CyclotomicInteger.zero()
    for i in range(7):
        s = s + zeta(7, i)
    assert s.is_zero()
    assert not (zeta(7) + 1).is_zero()
    assert (zeta(6) * zeta(6) - zeta(3)).is_zero()


def _phi_multiple(M, rng):
    """h * Phi_M in Z[x]/(x^M - 1) for a random h with three terms: a
    representation of 0 that is not the zero vector."""
    out = [0] * M
    for _ in range(3):
        shift, a = rng.randrange(M), rng.randint(-5, 5)
        for i, c in enumerate(cyclotomic_poly(M)):
            out[(i + shift) % M] += a * c
    return CyclotomicInteger(M, out)


def _oracle(v):
    """(is zero, integer value or None, is real) from the Phi_M remainder."""
    red = phi_reduce(v.order, v.coeffs)
    real = not any(phi_reduce(v.order, (v - v.conjugate()).coeffs))
    return not any(red), red[0] if not any(red[1:]) else None, real


def test_predicates_match_phi_reduction():
    # every order up to 300: random values, values that are 0, integers n
    # and real values written as n or x + conj(x) plus multiples of Phi_M
    rng = random.Random(300)
    for M in range(1, 301):
        zero, n = _phi_multiple(M, rng), rng.randint(-50, 50)
        x = CyclotomicInteger(M, [rng.randint(-3, 3) for _ in range(M)])
        real = x + x.conjugate() + _phi_multiple(M, rng)
        for v in (zero, zero + n, x, x + zero, real, real + n, x - x.conjugate()):
            assert (v.is_zero(), v.as_int(), v.is_real()) == _oracle(v), (M, v)
        assert zero == 0 and zero + n == n and (zero + n).as_int() == n
        assert x + zero == x and x + zero + 1 != x
        y = x + CyclotomicInteger.root_of_unity(M, rng.randrange(M)) * rng.randint(-1, 1)
        assert (x == y) == _oracle(x - y)[0], M


def test_mixed_order_equality():
    assert zeta(6, 2) == zeta(3, 1)
    assert zeta(4, 2) == CyclotomicInteger.from_int(-1)
    assert zeta(8, 0) == 1


def test_conjugation():
    x = zeta(5) + 3 * zeta(5, 2)
    assert x.conjugate().conjugate() == x
    # a Kloosterman-style symmetric combination is real
    y = zeta(5, 1) + zeta(5, 4)
    assert y.is_real()
    assert not zeta(5).is_real()


def test_as_int():
    assert (zeta(3, 0) * 7).as_int() == 7
    assert zeta(3).as_int() is None
    # 1 + z5 + z5^2 + z5^3 + z5^4 = 0 -> z5^4 = -1 - z5 - z5^2 - z5^3
    v = sum((zeta(5, i) for i in range(5)), CyclotomicInteger.zero())
    assert v.as_int() == 0


def test_complex_and_real_intervals():
    for m, t in ((12, 5), (7, 3), (2, 1), (1, 0)):
        x = zeta(m, t)
        re, im = x.complex_interval(80)
        r = from_fixed(*x.real_interval(80), 80, 96)   # integer bounds at scale 2^80
        with mpmath.workprec(200):   # reference well beyond the 80-bit enclosure
            # cospi/sinpi are exact at rational multiples of pi where the value
            # is 0 or +-1; exp(2j*pi*t/m) gives Im zeta_2 = 1.1e-61, not 0
            angle = mpmath.mpf(2 * t) / m
            real, imag = mpmath.cospi(angle), mpmath.sinpi(angle)
            assert contains(re, real) and contains(im, imag)
            assert contains(r, real)
            assert hi(r) - lo(r) < mpmath.mpf(2) ** -60


def test_real_interval_negative_coeffs():
    r = from_fixed(*(zeta(9, 2) * (-3) + zeta(9, 5) * 11).real_interval(80), 80, 96)
    with mpmath.workprec(200):
        truth = (-3 * mpmath.cos(2 * mpmath.pi * 2 / 9)
                 + 11 * mpmath.cos(2 * mpmath.pi * 5 / 9))
        assert contains(r, truth)


@pytest.mark.parametrize("precision", (64, 96))
def test_complex_interval_contains_direct_sum(precision):
    # 419 and 3839: odd orders, where every entry but j = 0 sums a folded
    # pair; the random vectors are not symmetric, so im takes the rotated path
    rng = random.Random(precision)
    for M in list(range(1, 65)) + [419, 3839]:
        x = CyclotomicInteger(M, [rng.randint(-9, 9) for _ in range(M)])
        re, im = x.complex_interval(precision)
        with mpmath.workprec(200):
            truth = mpmath.fsum(v * mpmath.expjpi(mpmath.mpf(2 * j) / M)
                                for j, v in enumerate(x.coeffs))
            assert contains(re, truth.real) and contains(im, truth.imag), M
        bound = (sum(abs(v) for v in x.coeffs) + 1) * mpmath.mpf(2) ** (4 - precision)
        assert hi(re) - lo(re) <= bound and hi(im) - lo(im) <= bound, M


@pytest.mark.parametrize("precision", (64, 96, 200))
def test_cos_tables_match_direct_loop(precision):
    # 101, 395 and 59 are the largest orders the certify, recurrence and
    # weil workloads reach, and 295 one that earlier certify ladders reached;
    # the half table is the direct loop's j <= M/2
    for M in list(range(1, 121)) + [295, 395]:
        los, his = cos_table_direct(M, precision)
        assert _cos_table_fixed(M, precision) == (los[:M // 2 + 1], his[:M // 2 + 1]), M


@pytest.mark.parametrize("precision", (64, 96, 200))
def test_cos_tables_at_large_orders(precision):
    # the rotation's radius grows with j, so test far entries of orders
    # where the direct loop is too slow to compare the whole table
    rng = random.Random(precision)
    for M in (3839, 10291, 15356):
        los, his = _cos_table_fixed(M, precision)
        assert len(los) == len(his) == M // 2 + 1
        for j in [0, 1, M // 4, M // 2] + [rng.randint(0, M // 2) for _ in range(64)]:
            with mpmath.workprec(precision + 64):
                truth = mpmath.ldexp(mpmath.cospi(mpmath.mpf(2 * j) / M), precision)
                assert los[j] <= truth <= his[j], (M, j)
            assert his[j] - los[j] <= 2, (M, j)


def test_cos_table_at_a_large_order_is_fast():
    # the order of kloosterman --d 5 --nu 1/delta --mu 1/delta --c "(100,3)"
    start = time.perf_counter()
    _cos_table_fixed.__wrapped__(10291, 96)
    assert time.perf_counter() - start < 0.1


def test_additive_character_examples(F5):
    one_over_delta = F5.one() / F5.delta
    assert one_over_delta.trace() == 1
    assert additive_character(one_over_delta).as_int() == 1
    half = F5.one() * Fraction(1, 4)   # trace 1/2
    assert additive_character(half) == zeta(2)
    third = F5.one() * Fraction(1, 6)  # trace 1/3
    assert additive_character(third) == zeta(3)


def test_shape_checks_survive_python_O():
    # explicit raises, not asserts: a wrong coefficient count or lift order
    with pytest.raises(ValueError):
        CyclotomicInteger(3, [1, 2])
    with pytest.raises(ValueError):
        CyclotomicInteger(0, [])
    with pytest.raises(ValueError):
        zeta(4).lift(6)
