import math
import random
from fractions import Fraction

import mpmath
from mpmath import iv, mp
from mpmath.libmp import to_rational
import pytest
from hypothesis import given, settings, strategies as st

from hilbertpoincare.bessel import besselj_eval
from hilbertpoincare.intervals import hi, lo, prec_guard

from oracles import (besselj_interval, besselj_rational, besselj_upward_recurrence,
                     exact_fixed)


def besselJ(order, x, precision):
    """The enclosure of J_order over the interval x, as an interval."""
    return besselj_interval(order, x, precision)[0]


def test_zero_argument():
    v = besselJ(5, iv.mpf(0), 64)
    assert lo(v) == 0 and hi(v) == 0


def test_j3_at_1_against_rational_oracle():
    olo, ohi = besselj_upward_recurrence(3, Fraction(1))
    v = besselJ(3, iv.mpf(1), 96)
    # the oracle interval and the package interval must overlap, and the
    # frozen reference digit string must lie in both
    mp.prec = 200
    ref = mpmath.mpf("0.019563353982668405918905321621751508254508954928056")
    assert lo(v) <= ref <= hi(v)
    assert float(olo) <= float(ref) <= float(ohi)
    slo, shi = besselj_rational(3, Fraction(1))
    assert float(slo) <= float(ref) <= float(shi)


def test_magnitude_bound_grid():
    for x in (0.1, 1.0, 10.0, 100.0):
        for k in (4, 8, 12):
            v = besselJ(k - 1, iv.mpf(x), 64)
            assert lo(v) >= -1 and hi(v) <= 1


def test_nj_examples():
    # the two-embedding factor J_{k-1}(x1) J_{k-1}(x2) as a coefficient term
    # multiplies it
    z = besselJ(7, iv.mpf(0), 64) * besselJ(7, iv.mpf(3.3), 64)
    assert lo(z) == 0 and hi(z) == 0
    s = besselJ(7, iv.mpf(2.2), 64)
    with prec_guard(64):
        both = besselJ(7, iv.mpf(2.2), 64) * besselJ(7, iv.mpf(2.2), 64)
    sq_hi = mpmath.fmul(hi(s), hi(s), exact=True)
    sq_lo = mpmath.fmul(lo(s), lo(s), exact=True)
    assert lo(both) <= sq_hi and hi(both) >= sq_lo


def test_oracle_containment_sample():
    mp.prec = 200
    rng = random.Random(41)
    for _ in range(120):
        order = rng.randint(1, 19)
        x = mpmath.mpf(rng.random()) * 50
        value = besselJ(order, iv.mpf(x), 64)
        truth = mpmath.besselj(order, x)
        assert lo(value) <= truth <= hi(value), (order, x)


def test_interval_argument_containment():
    mp.prec = 120
    x = iv.mpf([2.5, 2.75])
    v = besselJ(6, x, 64)
    for t in (2.5, 2.6, 2.75):
        truth = mpmath.besselj(6, mpmath.mpf(t))
        assert lo(v) <= truth <= hi(v)


def test_precision_exhausted_flag():
    value, exact_enough = besselj_interval(3, iv.mpf(50000), 64)
    assert not exact_enough
    assert lo(value) == -1 and hi(value) == 1


def test_width_monotone_in_precision():
    w = []
    for prec in (53, 96, 160):
        v = besselJ(5, iv.mpf(7), prec)
        w.append(hi(v) - lo(v))
    assert w[0] >= w[1] >= w[2]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 15), st.floats(0.01, 30))
def test_oracle_containment_property(order, x):
    mp.prec = 150
    value = besselJ(order, iv.mpf(x), 64)
    truth = mpmath.besselj(order, mpmath.mpf(x))
    assert lo(value) <= truth <= hi(value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(range(3, 24, 2)),
       st.fractions(min_value=Fraction(1, 10**4), max_value=60, max_denominator=10**4))
def test_factorial_envelope_against_rational_oracle(order, x):
    # |J_n(x)| <= (x/2)^n / n! (DLMF 10.14.4), the per-factor bound of
    # `tail_bound`, judged by the exact rational series
    a, b = besselj_rational(order, x)
    bound = (x / 2) ** order / math.factorial(order)
    assert -bound <= a and b <= bound, (order, x, a, b, bound)


# -- the fixed-point kernel over the whole evaluated range ----------------------

def _exact(v) -> Fraction:
    return Fraction(*to_rational(v._mpf_))


def _encloses(value, order, x, precision: int) -> bool:
    """Does the enclosure contain J_order(x) for the dyadic x (float or mpf)?

    The exact rational series decides up to x = 1000, where it still takes
    well under a second; 320-bit mpmath decides beyond that.
    """
    if x <= 1000:
        a, b = besselj_rational(order, _exact(mpmath.mpf(x)),
                                tol=Fraction(1, 2 ** (precision + 40)))
        return _exact(lo(value)) <= a and b <= _exact(hi(value))
    with mpmath.workprec(320):
        return lo(value) <= mpmath.besselj(order, mpmath.mpf(x)) <= hi(value)


@pytest.mark.parametrize("order", (3, 5, 7, 9, 11))
def test_fixed_point_points_up_to_eval_cap(order):
    # up to ARG_CAP = 2500, the largest argument the series is summed at
    for x in (1e-3, 0.7, 13.25, 97.5, 480.125, 1000.0, 1700.5, 2500.0):
        value, exact_enough = besselj_interval(order, iv.mpf(x), 96)
        assert exact_enough, x
        assert _exact(hi(value)) - _exact(lo(value)) <= Fraction(1, 2 ** 96), x
        assert _encloses(value, order, x, 96), x


def test_fixed_point_interval_arguments():
    # (argument interval, points of it whose value the enclosure must hold)
    tiny = mpmath.ldexp(1, -1100)   # below the smallest double
    cases = (((0.0, 0.0), (0.0,)),
             ((0.0, tiny), (0.0, tiny)),
             ((-0.5, 0.75), (0.0, 0.375, 0.75)),
             ((2.5, 2.75), (2.5, 2.625, 2.75)),
             ((611.0, 611.0078125), (611.0, 611.00390625, 611.0078125)),
             ((1999.5, 2000.0), (1999.5, 2000.0)))
    for order in (3, 7, 11):
        for (a, b), points in cases:
            value = besselJ(order, iv.mpf([a, b]), 96)
            for t in points:
                assert _encloses(value, order, t, 96), (order, a, b, t)


def test_eval_leaves_mpmath_precision_unchanged():
    mp.prec, iv.prec = 77, 61
    for x in (0, 1e-3, 13.25, [2.5, 2.75], 2500.0, 50000.0):
        besselj_eval(7, exact_fixed(iv.mpf(x)), 96)
        assert (mp.prec, iv.prec) == (77, 61), x
