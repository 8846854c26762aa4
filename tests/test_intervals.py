"""The integer power kernel: `iroot` and `inv_pow_fixed`, judged by exact
integer inequalities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbertpoincare.intervals import inv_pow_fixed, iroot

DENOMINATORS = (1, 2, 3, 4, 6, 12, 14)
exponents = st.builds(Fraction, st.integers(-40, 120), st.sampled_from(DENOMINATORS))
rationals = st.one_of(
    st.builds(Fraction, st.integers(1, 10**7), st.integers(1, 10**7)),
    st.integers(1, 10**7),
    # n_o (t + 1), the least norm of a tail block, with a rational n_o
    st.builds(lambda p, q, t: Fraction(p, q) * (t + 1),
              st.integers(1, 1000), st.integers(1, 1000), st.integers(0, 10**4)))


def _brackets(x, s, wp, lo_, hi_):
    """lo^b <= (2^wp x^-s)^b <= hi^b, cleared of denominators."""
    P, Q = Fraction(x).as_integer_ratio()
    a, b = s.as_integer_ratio()
    if a < 0:
        P, Q, a = Q, P, -a
    mid = Q ** a << max(b * wp, 0)
    scale = P ** a << max(-b * wp, 0)
    return lo_ ** b * scale <= mid <= hi_ ** b * scale


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rationals, exponents, st.integers(-40, 240))
def test_bounds_bracket_the_power(x, s, wp):
    lo_, hi_ = inv_pow_fixed(x, s, wp)
    assert 0 <= lo_ <= hi_ <= lo_ + 1
    assert _brackets(x, s, wp, lo_, hi_)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 10**4), st.integers(0, 6), st.integers(1, 40),
       st.sampled_from(DENOMINATORS), st.integers(0, 60))
def test_exact_powers_have_equal_bounds(u, e, a, b, extra):
    # x = (2^e/u)^b, s = a/b: 2^wp x^-s = u^a 2^(wp - e a), an integer
    wp = e * a + extra
    assert inv_pow_fixed(Fraction(2 ** e, u) ** b, Fraction(a, b), wp) == \
        (u ** a << extra,) * 2


@pytest.mark.parametrize("b", DENOMINATORS[1:])
def test_iroot_at_the_boundaries(b):
    # r^b + 1 < (r + 1)^b needs b >= 2
    for r in [1, 2, 3, 7, 255, 256, 10**6 + 3, 2**64 - 1, 3**50, 2**130 + 1]:
        n = r ** b
        assert (iroot(n - 1, b), iroot(n, b), iroot(n + 1, b)) == (r - 1, r, r), r
    assert iroot(0, b) == 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**2000), st.sampled_from(DENOMINATORS + (5, 7, 24)))
def test_iroot_is_the_floor_root(n, b):
    r = iroot(n, b)
    assert r ** b <= n < (r + 1) ** b
