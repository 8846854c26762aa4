from fractions import Fraction

import mpmath

from hilbertpoincare.cyclotomic import (CyclotomicInteger, additive_character,
                                        cyclotomic_poly)
from hilbertpoincare.intervals import contains, lo, hi


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
        r = x.real_interval(80)
        with mpmath.workprec(200):   # reference well beyond the 80-bit enclosure
            val = mpmath.exp(2j * mpmath.pi * t / m)
            assert contains(re, val.real) and contains(im, val.imag)
            assert contains(r, val.real)
            assert hi(r) - lo(r) < mpmath.mpf(2) ** -60


def test_real_interval_negative_coeffs():
    r = (zeta(9, 2) * (-3) + zeta(9, 5) * 11).real_interval(80)
    with mpmath.workprec(200):
        truth = (-3 * mpmath.cos(2 * mpmath.pi * 2 / 9)
                 + 11 * mpmath.cos(2 * mpmath.pi * 5 / 9))
        assert contains(r, truth)


def test_json_roundtrip():
    x = zeta(12, 7) + zeta(12, 1) * 4 - 2
    d = x.to_json()
    y = CyclotomicInteger.from_json(d)
    assert (x - y).is_zero()


def test_additive_character_examples(F5):
    one_over_delta = F5.one() / F5.delta
    assert one_over_delta.trace() == 1
    assert additive_character(one_over_delta).as_int() == 1
    half = F5.from_fraction(Fraction(1, 4))   # trace 1/2
    assert additive_character(half) == zeta(2)
    third = F5.from_fraction(Fraction(1, 6))  # trace 1/3
    assert additive_character(third) == zeta(3)
