import random
from fractions import Fraction

import mpmath
from mpmath import iv, mp
from mpmath.libmp import to_rational
import pytest
from hypothesis import given, settings, strategies as st

from hilbertpoincare.bessel import besselJ, besselj_eval, envelope_hi, nj_product
from hilbertpoincare.intervals import hi, lo

from oracles import besselj_rational, besselj_upward_recurrence


def test_zero_argument():
    v = besselJ(5, iv.mpf(0))
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


def test_envelope_examples():
    k = 8
    e = envelope_hi(k, iv.mpf(2 * (k - 1)) / iv.e, Fraction(0))
    assert abs(e - 1) < 1e-10
    assert envelope_hi(k, iv.mpf(0), Fraction(1, 2)) == 0
    # envelope dominates |J| for small x
    mp.prec = 120
    for x in (0.05, 0.3, 1.5):
        truth = abs(mpmath.besselj(7, mpmath.mpf(x)))
        assert truth <= envelope_hi(8, iv.mpf(x), Fraction(0)) + mpmath.mpf("1e-25")


def test_envelope_monotone_eta():
    # larger eta weakens the exponent, enlarging the bound when base < 1
    e0 = envelope_hi(8, iv.mpf(1), Fraction(0))
    e5 = envelope_hi(8, iv.mpf(1), Fraction(1, 2))
    assert e5 >= e0


def test_nj_examples():
    z = nj_product(8, iv.mpf(0), iv.mpf(3.3))
    assert lo(z) == 0 and hi(z) == 0
    s = besselJ(7, iv.mpf(2.2), 64)
    both = nj_product(8, iv.mpf(2.2), iv.mpf(2.2), 64)
    sq_hi = mpmath.fmul(hi(s), hi(s), exact=True)
    sq_lo = mpmath.fmul(lo(s), lo(s), exact=True)
    assert lo(both) <= sq_hi and hi(both) >= sq_lo


def test_oracle_containment_sample():
    mp.prec = 200
    rng = random.Random(41)
    for _ in range(120):
        order = rng.randint(1, 19)
        x = mpmath.mpf(rng.random()) * 50
        res = besselj_eval(order, iv.mpf(x), 64)
        truth = mpmath.besselj(order, x)
        assert lo(res.value) <= truth <= hi(res.value), (order, x)


def test_interval_argument_containment():
    mp.prec = 120
    x = iv.mpf([2.5, 2.75])
    v = besselJ(6, x, 64)
    for t in (2.5, 2.6, 2.75):
        truth = mpmath.besselj(6, mpmath.mpf(t))
        assert lo(v) <= truth <= hi(v)


def test_precision_exhausted_flag():
    res = besselj_eval(3, iv.mpf(50000), 64)
    assert not res.exact_enough
    assert lo(res.value) == -1 and hi(res.value) == 1


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
    res = besselj_eval(order, iv.mpf(x), 64)
    truth = mpmath.besselj(order, mpmath.mpf(x))
    assert lo(res.value) <= truth <= hi(res.value)


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
    # up to BESSEL_ARG_EVAL_CAP = 2500, the largest argument poincare evaluates
    for x in (1e-3, 0.7, 13.25, 97.5, 480.125, 1000.0, 1700.5, 2500.0):
        res = besselj_eval(order, iv.mpf(x), 96)
        assert res.exact_enough, x
        assert _exact(hi(res.value)) - _exact(lo(res.value)) <= Fraction(1, 2 ** 96), x
        assert _encloses(res.value, order, x, 96), x


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
            value = besselj_eval(order, iv.mpf([a, b]), 96).value
            for t in points:
                assert _encloses(value, order, t, 96), (order, a, b, t)


def test_eval_leaves_mpmath_precision_unchanged():
    mp.prec, iv.prec = 77, 61
    for x in (0, 1e-3, 13.25, [2.5, 2.75], 2500.0, 50000.0):
        besselj_eval(7, iv.mpf(x), 96)
        assert (mp.prec, iv.prec) == (77, 61), x
