"""Real quadratic field arithmetic.

A field F = Q(sqrt(d)) is represented with its integral basis (1, omega),
omega = sqrt(d) for d = 2,3 mod 4 and omega = (1+sqrt(d))/2 for d = 1 mod 4.
Elements are stored exactly as (a + b*omega)/den with arbitrary-precision
integers; every sign/positivity decision is made over exact rationals, with
intervals used only for numeric output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache

from mpmath import iv

from . import arith
from .errors import NotSquarefree, ZeroElement
from .intervals import prec_guard


def _sign_a_plus_b_sqrt(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) (d > 1 squarefree, so zero only if a=b=0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # mixed signs: compare a^2 with d*b^2
    lhs, rhs = a * a, d * b * b
    if lhs == rhs:  # would mean sqrt(d) rational
        raise AssertionError("squarefree d>1 cannot satisfy a^2 = d b^2")
    bigger_abs_is_rational = lhs > rhs
    return (1 if a > 0 else -1) if bigger_abs_is_rational else (1 if b > 0 else -1)


class Elt:
    """Element (a + b*omega)/den of F, normalized with den > 0 and gcd 1."""

    __slots__ = ("field", "a", "b", "den")

    def __init__(self, field, a, b, den=1):
        if den == 0:
            raise ZeroDivisionError("element denominator is zero")
        if den < 0:
            a, b, den = -a, -b, -den
        g = math.gcd(math.gcd(abs(a), abs(b)), den)
        if g > 1:
            a, b, den = a // g, b // g, den // g
        self.field = field
        self.a = a
        self.b = b
        self.den = den

    # -- basic structure -------------------------------------------------
    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_integral(self):
        return self.den == 1

    def __eq__(self, other):
        if not isinstance(other, Elt):
            if isinstance(other, int):
                other = self.field.from_int(other)
            else:
                return NotImplemented
        return (self.field.d == other.field.d and self.a == other.a
                and self.b == other.b and self.den == other.den)

    def __hash__(self):
        return hash((self.field.d, self.a, self.b, self.den))

    def __repr__(self):
        core = f"({self.a},{self.b})" if self.b else f"{self.a}"
        return core if self.den == 1 else f"{core}/{self.den}"

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        F = self.field
        return Elt(F, self.a * other.den + other.a * self.den,
                   self.b * other.den + other.b * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Elt(self.field, -self.a, -self.b, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        F = self.field
        a, b = F.mul_coords(self.a, self.b, other.a, other.b)
        return Elt(F, a, b, self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero element")
        # 1/other = den(other) * conj(n) / N(n) for the numerator n of other
        F = self.field
        ca, cb = other.a + other.b * F.c1, -other.b
        a, b = F.mul_coords(self.a, self.b, ca, cb)
        n = other.a * ca + other.b * cb * F.c0
        return Elt(F, a * other.den, b * other.den, self.den * n)

    def __pow__(self, m: int):
        F = self.field
        if m < 0:
            return F.one() / self ** (-m)
        result, base = F.one(), self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, Elt):
            return other
        if isinstance(other, int):
            return Elt(self.field, other, 0, 1)
        if isinstance(other, Fraction):
            return Elt(self.field, other.numerator, 0, other.denominator)
        raise TypeError(f"cannot coerce {other!r}")

    # -- field-theoretic maps ---------------------------------------------
    def conj(self):
        F = self.field
        return Elt(F, self.a + self.b * F.c1, -self.b, self.den)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a + self.b * self.field.c1, self.den)

    def norm(self) -> Fraction:
        F = self.field
        return Fraction(self.a * self.a + self.a * self.b * F.c1 - self.b * self.b * F.c0,
                        self.den * self.den)

    def sqrt_form(self, embedding: int):
        """(A, B, q) with sigma_i(self) = (A + B*sqrt(d)) / q, q = 2*den or den."""
        F = self.field
        if F.basis_kind == "sqrt":
            A, B, q = self.a, self.b, self.den
        else:
            A, B, q = 2 * self.a + self.b, self.b, 2 * self.den
        if embedding == 2:
            B = -B
        return A, B, q

    def sign_at(self, embedding: int) -> int:
        """Exact sign of sigma_i(self); 0 only for the zero element."""
        if self.is_zero():
            return 0
        A, B, _ = self.sqrt_form(embedding)
        return _sign_a_plus_b_sqrt(A, B, self.field.d)

    def is_totally_positive(self) -> bool:
        if self.is_zero():
            raise ZeroElement("total positivity undefined for 0")
        return self.sign_at(1) > 0 and self.sign_at(2) > 0

    def embeddings(self, precision: int):
        """Pair of intervals enclosing (sigma_1(x), sigma_2(x)).  When A and
        B have opposite signs, (A^2 - d B^2)/(q (A - B sqrt d)) cancels nothing
        (sigma_2(2 eps_plus^40) ~ 10^-17 is lost to A + B sqrt 5 at 64 bits)."""
        with prec_guard(precision):
            sq = iv.sqrt(iv.mpf(self.field.d))
            out = []
            for emb in (1, 2):
                A, B, q = self.sqrt_form(emb)
                if A * B < 0:
                    out.append(iv.mpf(A * A - self.field.d * B * B)
                               / ((iv.mpf(A) - iv.mpf(B) * sq) * q))
                else:
                    out.append((iv.mpf(A) + iv.mpf(B) * sq) / iv.mpf(q))
            return tuple(out)

    def to_json(self):
        d = {"a": str(self.a), "b": str(self.b)}
        if self.den != 1:
            d["den"] = str(self.den)
        return d


def cf_walk(d: int, P: int, Q: int):
    """The continued fraction of theta_0 = (P + sqrt d)/Q, Q | d - P^2.

    Yields, for n = 0, 1, ..., the state (P_n, Q_n) of the complete quotient
    theta_n = (P_n + sqrt d)/Q_n and the coordinates (u, v) of the product
    (theta_0 - a_0)...(theta_{n-1} - a_{n-1}) = u + v*theta_0, without end.
    The partial quotient is a = floor(theta) = (P + s + [Q < 0]) // Q with
    s = isqrt(d), and theta - a = (sqrt d - P')/Q = 1/theta' with P' = aQ - P,
    Q' = (d - P'^2)/Q.  As Z + theta Z = (theta - a)(Z + theta' Z), the
    lattice Z + theta_0 Z is the product times Z + theta_n Z.  With h/k the
    convergents of theta_0, the product is (-1)^n (h_{n-1} - k_{n-1} theta_0).
    """
    s = math.isqrt(d)
    h, h_prev, k, k_prev, sign = 1, 0, 0, 1, 1
    while True:
        yield (P, Q), (sign * h, -sign * k)
        a = (P + s + (Q < 0)) // Q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        P = a * Q - P
        Q = (d - P * P) // Q
        sign = -sign


class RealQuadraticField:
    """Q(sqrt(d)) with its integral basis, units and different."""

    def __init__(self, d: int):
        if d <= 1:
            raise NotSquarefree(f"d must be squarefree and > 1, got {d}")
        if not arith.is_squarefree(d):
            raise NotSquarefree(f"{d} has a square factor")
        self.d = d
        if d % 4 == 1:
            self.basis_kind = "half"
            self.c0, self.c1 = (d - 1) // 4, 1  # omega^2 = c0 + c1*omega
            self.D = d
            self.omega_pq = (1, 2)              # omega = (P + sqrt d)/Q
        else:
            self.basis_kind = "sqrt"
            self.c0, self.c1 = d, 0
            self.D = 4 * d
            self.omega_pq = (0, 1)
        # f = sum of inertial degrees of primes over 2
        self.f2 = 1 if self.basis_kind == "sqrt" else 2
        # the continued fraction of omega up to its first repeated state: the
        # principal cycle, and the fundamental unit as the inverse of the
        # product of one period.  Omega, not sqrt d: for d = 1 mod 4 the
        # latter gives a unit of Z[sqrt d], possibly eps^3 (Cohen, GTM 138,
        # section 5.7)
        self.principal_cycle = {}
        for state, (u, v) in cf_walk(d, *self.omega_pq):
            pi = Elt(self, u, v)
            if state in self.principal_cycle:
                break
            self.principal_cycle[state] = pi
        self.fundamental_unit = self.principal_cycle[state] / pi
        self.fu_norm = int(self.fundamental_unit.norm())
        if self.fu_norm == -1:
            self.eps_plus = self.fundamental_unit * self.fundamental_unit
        else:
            self.eps_plus = self.fundamental_unit  # norm +1 units are totally positive
        # the different is generated by f'(omega) = 2*omega - c1, of norm -D
        self.delta = self.totally_positive_associate(Elt(self, -self.c1, 2, 1))
        self._narrow_h1 = None

    # -- constructors ------------------------------------------------------
    def elt(self, a, b=0, den=1) -> Elt:
        return Elt(self, a, b, den)

    def from_int(self, n: int) -> Elt:
        return Elt(self, n, 0, 1)

    def one(self) -> Elt:
        return Elt(self, 1, 0, 1)

    def zero(self) -> Elt:
        return Elt(self, 0, 0, 1)

    def omega(self) -> Elt:
        return Elt(self, 0, 1, 1)

    def mul_coords(self, x0, x1, y0, y1):
        """Coordinates of (x0 + x1*omega)(y0 + y1*omega): omega^2 = c0 + c1*omega."""
        return x0 * y0 + x1 * y1 * self.c0, x0 * y1 + x1 * y0 + x1 * y1 * self.c1

    def __repr__(self):
        return f"Q(sqrt {self.d})"

    def spec_string(self) -> str:
        return f"Qsqrt:{self.d}"

    # -- units ---------------------------------------------------------------
    def totally_positive_associate(self, g: Elt):
        """A totally positive unit multiple of g, or None when there is none.

        When N(g) > 0 it is g or -g.  When N(g) < 0 the unit has norm -1, so
        one exists iff the fundamental unit eps does, and it is g*eps or -g*eps.
        """
        if g.norm() < 0:
            if self.fu_norm != -1:
                return None
            g = g * self.fundamental_unit
        return g if g.is_totally_positive() else -g

    def is_unit(self, x: Elt) -> bool:
        return x.is_integral() and abs(x.norm()) == 1

    # -- balancing ------------------------------------------------------------
    def A_interval(self, precision: int):
        """The balancing constant A = sqrt(sigma_1(eps_plus))."""
        with prec_guard(precision):
            return iv.sqrt(self.eps_plus.embeddings(precision)[0])

    def balanced_representative(self, x: Elt):
        """(y, m) with y = x * eps_plus^m minimizing |log |sigma1(y)/sigma2(y)||.

        With q(m) = sigma1(x eps_plus^m)^2 / |N(x)| = |sigma1/sigma2|(x
        eps_plus^m), |log q(m)| <= |log q(m+1)| exactly when
        sigma1(x^2 eps_plus^(2m+1)) >= |N(x)|, one exact sign test that is
        monotone in m.  The least m passing it is the answer, found by
        doubling and bisection, unless it passes with equality: then q(m)
        q(m+1) = 1, and as q increases with m, q(m) < 1 < q(m+1).  Such a tie
        goes to m + 1, the y with |sigma1(y)| > |sigma2(y)|, so y depends only
        on the orbit x eps_plus^Z, not on which member x is.
        """
        if x.is_zero():
            raise ZeroElement("cannot balance 0")
        x2, nx, eps = x * x, abs(x.norm()), self.eps_plus

        @cache
        def excess(m):  # sign of sigma1(x^2 eps_plus^(2m+1)) - |N(x)|
            return (x2 * eps ** (2 * m + 1) - nx).sign_at(1)

        lo_m, hi_m = (-1, 0) if excess(0) >= 0 else (0, 1)
        while excess(lo_m) >= 0:
            lo_m, hi_m = 2 * lo_m, lo_m
        while excess(hi_m) < 0:
            lo_m, hi_m = hi_m, 2 * hi_m
        while hi_m - lo_m > 1:
            mid = (lo_m + hi_m) // 2
            lo_m, hi_m = (lo_m, mid) if excess(mid) >= 0 else (mid, hi_m)
        m = hi_m + 1 if excess(hi_m) == 0 else hi_m
        return x * eps ** m, m

    # -- narrow class number ----------------------------------------------------
    @property
    def narrow_h1(self) -> bool:
        """Narrow class number 1 test: wide h = 1 plus a norm -1 unit."""
        if self._narrow_h1 is None:
            if self.fu_norm != -1:
                self._narrow_h1 = False
            else:
                from . import ideals  # deferred: ideals imports this module
                self._narrow_h1 = ideals.wide_class_number_is_one(self)
        return self._narrow_h1


@lru_cache(maxsize=None)
def make_field(d: int) -> RealQuadraticField:
    """Construct (and cache) Q(sqrt(d)) with all derived data populated."""
    return RealQuadraticField(d)


def parse_field_spec(spec: str) -> RealQuadraticField:
    if not spec.startswith("Qsqrt:"):
        raise ValueError(f"bad field spec {spec!r}, expected 'Qsqrt:<d>'")
    return make_field(int(spec.split(":", 1)[1]))
