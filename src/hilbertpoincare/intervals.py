"""Thin helpers over mpmath's interval arithmetic.

All rigorous real enclosures in this package are mpmath ``iv.mpf`` values.
mpmath rounds interval endpoints outward, so any sequence of interval
operations started from exact inputs yields a true enclosure.  These helpers
centralize exact-rational conversion, endpoint extraction and the working
precision, which mpmath keeps as context state.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import iv

DEFAULT_PREC = 96


class prec_guard:
    """Context manager: run a block at (at least) the given precision."""

    def __init__(self, bits):
        self.bits = max(int(bits), 16)

    def __enter__(self):
        self.old = iv.prec
        if iv.prec < self.bits:
            iv.prec = self.bits
        return iv

    def __exit__(self, *exc):
        iv.prec = self.old
        return False


def iv_from_fraction(q) -> "iv.mpf":
    """Enclosure of an exact rational (int or Fraction)."""
    if isinstance(q, int):
        return iv.mpf(q)
    q = Fraction(q)
    if q.denominator == 1:
        return iv.mpf(q.numerator)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def iv_sqrt_fraction(q):
    """Enclosure of sqrt of a nonnegative rational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    return iv.sqrt(iv_from_fraction(q))


def lo(x) -> mpmath.mpf:
    """Lower endpoint as a plain mpf, exactly (never rounded to mp.prec)."""
    return mpmath.mp.make_mpf(x._mpi_[0])


def hi(x) -> mpmath.mpf:
    """Upper endpoint as a plain mpf, exactly (never rounded to mp.prec)."""
    return mpmath.mp.make_mpf(x._mpi_[1])


def width(x) -> mpmath.mpf:
    return hi(x) - lo(x)


def sup_abs(x) -> mpmath.mpf:
    """Upper bound for |t| over t in the interval."""
    return max(abs(lo(x)), abs(hi(x)))


def contains(x, value) -> bool:
    """Does the interval contain the given mpf/int/Fraction value?

    For Fraction values the test is done against an enclosure of the value,
    so True is only reported when containment is certain.
    """
    if isinstance(value, Fraction):
        v = iv_from_fraction(value)
        return lo(x) <= lo(v) and hi(v) <= hi(x)
    v = mpmath.mpf(value)
    return lo(x) <= v <= hi(x)


def overlaps(x, y) -> bool:
    return lo(x) <= hi(y) and lo(y) <= hi(x)


def iv_pow_frac(x, p: Fraction):
    """x**p for a positive interval x and exact rational exponent p."""
    p = Fraction(p)
    if p.denominator == 1:
        return x ** int(p)
    if lo(x) < 0:
        raise ValueError("fractional power of non-positive interval")
    if p.denominator == 2:
        return iv.sqrt(x ** p.numerator) if p.numerator >= 0 else 1 / iv.sqrt(x ** (-p.numerator))
    return iv.exp(iv.log(x) * iv_from_fraction(p))


def iv_max(x, y):
    """Interval enclosure of max(s, t) over s in x, t in y."""
    return iv.mpf([max(lo(x), lo(y)), max(hi(x), hi(y))])


def iv_min(x, y):
    """Interval enclosure of min(s, t) over s in x, t in y."""
    return iv.mpf([min(lo(x), lo(y)), min(hi(x), hi(y))])


def iv_str(x) -> str:
    """Deterministic decimal rendering of an endpoint pair, 20 digits each."""
    return "[%s, %s]" % (mpmath.nstr(lo(x), 20), mpmath.nstr(hi(x), 20))


def mpf_str(x) -> str:
    return mpmath.nstr(mpmath.mpf(x), 20)
