"""Independent oracles used to pin expected values.

These deliberately avoid the package's interval/cyclotomic code paths:
rational-arithmetic Bessel series, mpmath high-precision reference values,
a direct floating summation of the truncated Poincare coefficient sum, an
exhaustive search for the fundamental unit, principality by a search of
the box that a balanced generator lies in, Kloosterman membership by
fractional-ideal arithmetic, the HNF of an ideal generated by field
elements from 2x2 minors and a Bezout combination, the valuation of an
element by repeated exact division of its principal ideal, Kloosterman slopes
from Fraction traces, Z[zeta_M] values reduced modulo the cyclotomic
polynomial, ideal counts a_F(n) from a sieve over the prime powers with
local counts read off a Kronecker symbol computed by quadratic reciprocity,
zeta_F(s) from a_F partial sums or from mpmath's Hurwitz zeta with the
same Kronecker symbol, the tail bound's pieces summed by mpmath at 200
bits, and the envelopes of one class's unit orbit summed term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import mpmath
from mpmath import iv, mp

from hilbertpoincare.errors import NotDivisible
from hilbertpoincare.ideals import (FractionalIdeal, IdealHNF, different_ideal,
                                    element_ideal, ideal_exact_divide,
                                    principal_ideal)
from hilbertpoincare.bessel import besselj_eval
from hilbertpoincare.intervals import DEFAULT_PREC, from_fixed, hi, iv_pow_frac, prec_guard
from hilbertpoincare.kloosterman import KloostermanQuery
from hilbertpoincare.poincare import LOG_STEPS, CoefficientEvaluator, chi_mu
from hilbertpoincare.residues import residue_ring


# -- Bessel: exact-rational series with alternating/geometric remainder -----

def besselj_rational(order: int, x: Fraction, tol=Fraction(1, 10**30)):
    """(lo, hi) rational bounds for J_order(x) at rational x >= 0."""
    x = Fraction(x)
    t = (x / 2) ** order / math.factorial(order)
    s = t
    m = 0
    while True:
        m += 1
        t = -t * (x / 2) ** 2 / (m * (order + m))
        s += t
        ratio = (x / 2) ** 2 / ((m + 1) * (order + m + 1))
        if ratio < 1:
            rem = abs(t) * ratio / (1 - ratio)
            if rem < tol:
                return s - rem, s + rem


def besselj_upward_recurrence(n: int, x: Fraction, tol=Fraction(1, 10**30)):
    """(lo, hi) for J_n(x) via J_{m+1} = (2m/x) J_m - J_{m-1} from J_0, J_1.

    Rational interval arithmetic throughout; fine for small n and moderate x
    (the recurrence loses accuracy when n >> x).
    """
    lo0, hi0 = besselj_rational(0, x, tol)
    lo1, hi1 = besselj_rational(1, x, tol)
    if n == 0:
        return lo0, hi0
    prev, cur = (lo0, hi0), (lo1, hi1)
    for m in range(1, n):
        c = Fraction(2 * m) / x
        cand = [c * cur[0] - prev[1], c * cur[0] - prev[0],
                c * cur[1] - prev[1], c * cur[1] - prev[0]]
        prev, cur = cur, (min(cand), max(cand))
    return cur


def besselj_rational_order0(x: Fraction, tol=Fraction(1, 10**30)):
    """J_0 series needs its own start (no such term in the package path)."""
    x = Fraction(x)
    t = Fraction(1)
    s = t
    m = 0
    while True:
        m += 1
        t = -t * (x / 2) ** 2 / (m * m)
        s += t
        ratio = (x / 2) ** 2 / ((m + 1) * (m + 1))
        if ratio < 1:
            rem = abs(t) * ratio / (1 - ratio)
            if rem < tol:
                return s - rem, s + rem


# patch order-0 into the series helper
def _besselj_rational_any(order, x, tol=Fraction(1, 10**30)):
    if order == 0:
        return besselj_rational_order0(x, tol)
    return besselj_rational(order, x, tol)


besselj_rational_any = _besselj_rational_any


# -- the package's integer bounds, converted at the test's boundary -----------

def exact_fixed(x):
    """The interval x as exact integer bounds (lo, hi, w) on 2^w x."""
    ends = [_raw_fraction(e) for e in x._mpi_]
    w = max(e.denominator for e in ends).bit_length() - 1
    lo_, hi_ = (e.numerator * ((1 << w) // e.denominator) for e in ends)
    return lo_, hi_, w


def fixed_fractions(t):
    """The integer bounds (lo, hi, w) as the exact Fractions lo/2^w, hi/2^w."""
    lo_, hi_, w = t
    return Fraction(lo_) / Fraction(2) ** w, Fraction(hi_) / Fraction(2) ** w


def besselj_interval(order: int, x, precision: int):
    """`besselj_eval` over the interval x, as (enclosure interval,
    exact_enough); the interval is exactly the integer bounds."""
    res = besselj_eval(order, exact_fixed(x), precision)
    lo_, hi_, w = res.value
    return from_fixed(lo_, hi_, w, max(w, 16)), res.exact_enough


# -- direct-summation Poincare coefficient oracle ---------------------------

def poincare_truncated_oracle(params, nu, mu, X, M, prec_bits: int = 200):
    """chi + prefactor * truncated double sum, summed directly at high
    precision with mpmath (complex-exponential Kloosterman terms and
    mpmath.besselj); shares only the representative enumeration with the
    package.  A paired ring lists one unit of each pair {x, -x}; -x has the
    opposite trace and cos is even, so each listed unit is counted twice
    there."""
    old = mp.prec
    mp.prec = prec_bits
    try:
        F = params.field
        k = params.k
        ev = CoefficientEvaluator(params, nu, mu)
        classes = ev.classes_upto(X)
        sqd = mp.sqrt(F.d)
        w1 = (F.c1 + sqd) / 2 if F.basis_kind == "half" else sqd
        w2 = (F.c1 - sqd) / 2 if F.basis_kind == "half" else -sqd

        def emb(e, which):
            w = w1 if which == 1 else w2
            return (mp.mpf(e.a) + mp.mpf(e.b) * w) / mp.mpf(e.den)

        total = mp.mpf(0)
        for (t, m, c_elt, modulus) in classes:
            ring = residue_ring(modulus)
            c1a, c2a = abs(emb(c_elt, 1)), abs(emb(c_elt, 2))
            for j in range(-M, M + 1):
                eps = F.eps_plus ** j
                if modulus.norm() == 1:
                    s_val = mp.mpf(1)
                else:
                    q = KloostermanQuery(F, nu, eps * mu, modulus, c_elt)
                    r1, r2, s1, s2 = q.trace_data()
                    weight = 2 if ring.paired else 1
                    s_val = mp.mpf(0)
                    for (u, v, ui, vi) in ring.unit_data():
                        tr = r1 * u + r2 * v + s1 * ui + s2 * vi
                        s_val += weight * mp.cos(2 * mp.pi * mp.mpf(tr.numerator)
                                                 / mp.mpf(tr.denominator))
                z = nu * eps * mu
                x1 = 4 * mp.pi * mp.sqrt(emb(z, 1)) / c1a
                x2 = 4 * mp.pi * mp.sqrt(emb(z, 2)) / c2a
                mfrac = Fraction(m)
                total += (s_val * mp.mpf(mfrac.denominator) / mp.mpf(mfrac.numerator)
                          * mpmath.besselj(k - 1, x1) * mpmath.besselj(k - 1, x2))
        nn, nm = Fraction(nu.norm()), Fraction(mu.norm())
        pref = (mp.sqrt(mp.mpf(nn.numerator) / nn.denominator
                        / (mp.mpf(nm.numerator) / nm.denominator)) ** (k - 1)
                * (2 * mp.pi) ** 2
                * mp.mpf(params.norm_cd().numerator) / mp.mpf(params.norm_cd().denominator)
                / mp.sqrt(F.D))
        return chi_mu(nu, mu) + pref * total
    finally:
        mp.prec = old


# -- fundamental unit: exhaustive search on the omega-coefficient -------------

def pell_search_fundamental_unit(d: int):
    """(a, b, norm) of the smallest unit a + b*omega > 1 of Q(sqrt d).

    For each b >= 1 the two unit norms force a^2 (resp. s^2 = (2a + b)^2)
    to one of two integers, d*b^2 -+ t with t = 1 (resp. 4); the first b
    admitting a solution gives the fundamental unit, taking the smaller root
    when both norms admit one.  A b is skipped only when neither integer is
    a square modulo L = 55440, so the search stays exhaustive.
    """
    t, L = (4 if d % 4 == 1 else 1), 55440
    squares = {x * x % L for x in range(L)}
    passing = [r for r in range(L) if (d * r * r - t) % L in squares
               or (d * r * r + t) % L in squares]
    for base in range(0, 10**8, L):
        for b in (base + r for r in passing if base + r):
            n = d * b * b
            for s2, nrm in ((n - t, -1), (n + t, 1)):
                s = math.isqrt(s2)
                if s * s == s2 and (t == 1 or (s - b) % 2 == 0):
                    return (s if t == 1 else (s - b) // 2), b, nrm
    raise AssertionError(f"no unit with b < 10^8 for d = {d}")


# -- principality: the box in which a balanced generator must lie ---------------

def norm_equation_box(x: IdealHNF) -> int:
    """vmax with |v| <= vmax for some generator u + v*omega of x, if any.

    A balanced generator g has |sigma_1(g)/sigma_2(g)| in [1/eps_plus,
    eps_plus], so |sigma_i(g)| <= A sqrt(N(x)) with A^2 = sigma_1(eps_plus),
    and |v| sqrt(D) = |sigma_1(g) - sigma_2(g)| <= 2 A sqrt(N(x))."""
    F, e = x.field, x.field.eps_plus
    with mpmath.workprec(128):
        root = mp.sqrt(F.d)
        w1 = (1 + root) / 2 if F.d % 4 == 1 else root
        return int(mp.floor(2 * mp.sqrt((e.a + e.b * w1) / e.den * x.norm() / F.D))) + 1


def norm_equation_search(x: IdealHNF):
    """A generator of x from the box of `norm_equation_box`, or None when the
    box has none.  For each v, |N(u + v*omega)| = N(x) fixes
    (2u + v*c1)^2 = v^2 D +- 4 N(x)."""
    F, n = x.field, x.norm()
    vmax = norm_equation_box(x)
    for v in range(-vmax, vmax + 1):
        for s2 in (v * v * F.D + 4 * n, v * v * F.D - 4 * n):
            s = math.isqrt(max(s2, 0))
            if s * s != s2:
                continue
            for root in {s, -s}:
                if (root - v * F.c1) % 2 == 0:
                    g = F.elt((root - v * F.c1) // 2, v)
                    if x.contains(g):
                        return g
    return None


# -- balanced exponent: minimize |log|s1/s2|| in high-precision floats ----------

def balanced_exponent_oracle(field, x, candidates=None):
    """The m minimizing |log|s1(y)/s2(y)|| for y = x * eps_plus^m, ties to
    the larger m (the y with |s1(y)| > |s2(y)|), from mpmath logs of the
    embeddings.

    The precision grows with the coordinates, so the cancellation in
    a + b*omega_2 stays far inside it; qualities within 2^(-prec/2) count as
    ties.  Without candidates, the window around the real minimizer is used.
    """
    bits = max(abs(t).bit_length() for t in (x.a, x.b, x.den))
    with mpmath.workprec(4 * bits + 128):
        root = mp.sqrt(field.d)
        w1, w2 = ((1 + root) / 2, (1 - root) / 2) if field.d % 4 == 1 else (root, -root)
        s1, s2 = ((x.a + x.b * w) / x.den for w in (w1, w2))
        e = field.eps_plus
        r = mp.log(abs(s1)) - mp.log(abs(s2))
        step = 2 * mp.log((e.a + e.b * w1) / e.den)  # log|s1/s2| of eps_plus
        if candidates is None:
            m0 = int(mp.nint(-r / step))
            candidates = range(m0 - 2, m0 + 3)
        tol = mp.mpf(2) ** (-mp.prec // 2)
        best = None
        for m in sorted(candidates, reverse=True):
            q = abs(r + m * step)
            if best is None or q < best[1] - tol:
                best = (m, q)
        return best[0]


# -- ideals generated by elements: the Z-span of every g and g*omega ------------

def _index(vecs):
    """gcd of the 2x2 minors: the index of a full-rank lattice in Z^2."""
    return math.gcd(*(u1 * v2 - u2 * v1 for i, (u1, v1) in enumerate(vecs)
                      for (u2, v2) in vecs[i + 1:]))


def _bezout(ks):
    """(g, s) with g = gcd(ks) > 0 and sum(s_i * k_i) = g."""
    g, s = 0, []
    for k in ks:
        x0, y0, r0, x1, y1, r1 = 1, 0, g, 0, 1, k
        while r1:
            q = r0 // r1
            x0, x1, y0, y1, r0, r1 = x1, x0 - q * x1, y1, y0 - q * y1, r1, r0 - q * r1
        g, s = r0, [x0 * t for t in s] + [y0]
    return (g, s) if g > 0 else (-g, [-t for t in s])


def ideal_from_elements(gens) -> IdealHNF:
    """HNF of the O-module generated by integral elements, with Elt products.

    The lattice is the Z-span of every g and g*omega.  Its index a*c is the
    gcd of the 2x2 minors and c the gcd of the omega-coordinates.  A vector
    (u, v) lies on the lattice {a, b + c*omega} exactly when u = (v/c)*b mod
    a; a Bezout combination of the v/c gives b, checked on every vector."""
    F = gens[0].field
    vecs = [(h.a, h.b) for g in gens for h in (g, g * F.omega())]
    c = math.gcd(*(v for _, v in vecs))
    a = _index(vecs) // c
    one, s = _bezout([v // c for _, v in vecs])
    assert one == 1
    b = sum(t * u for t, (u, _) in zip(s, vecs)) % a
    assert all((u - (v // c) * b) % a == 0 for u, v in vecs)
    return IdealHNF(F, a, b, c)


def valuation_oracle(x, pr: IdealHNF) -> int:
    """v_pr of a nonzero field element, uncapped: the valuation of its
    numerator's principal ideal, by repeated exact division by pr, minus
    that of its denominator's."""
    F = x.field

    def v(g):
        y, k = principal_ideal(g), 0
        while True:
            try:
                y = ideal_exact_divide(y, pr)
            except NotDivisible:
                return k
            k += 1

    return v(F.elt(x.a, x.b)) - v(F.from_int(x.den))


def z_basis(x: IdealHNF):
    """The ideal's Z-basis {a, b + c*omega} as field elements."""
    return [x.field.elt(x.a, 0), x.field.elt(x.b, x.c)]


# -- Kloosterman slopes by Fraction traces --------------------------------------

def slopes_by_fractions(field, nu, mu, modulus, c):
    """(slopes, member): Tr(t/c) and Tr(t*omega/c) mod 1 for t = nu, mu, with
    1/c = conj(c)/N(c) from Fraction norms, and the trace-integrality test of
    membership on the HNF basis of the modulus."""
    inv_c = c.conj() * (1 / c.norm())
    slopes, member = [], True
    for t in (nu, mu):
        y = t * inv_c
        r1, r2 = y.trace(), (y * field.omega()).trace()
        member = member and ((modulus.a * r1).denominator == 1
                             and (modulus.b * r1 + modulus.c * r2).denominator == 1)
        slopes += (r1 - math.floor(r1), r2 - math.floor(r2))
    return tuple(slopes), member


# -- Kloosterman membership by fractional ideals ------------------------------

def in_kloosterman_domain(field, t, modulus, c) -> bool:
    """Is t in c*(m d)^{-1}?  Decided with fractional-ideal products and an
    inverse rather than traces."""
    if t.is_zero():
        return True
    dom = element_ideal(c) / (FractionalIdeal(modulus)
                              * FractionalIdeal(different_ideal(field)))
    return dom.contains(t)


# -- fixed-point trig tables: one iv.cos per entry ------------------------------

def _raw_fraction(raw) -> Fraction:
    sign, man, exp, _bc = raw
    v = man * Fraction(2) ** exp
    return -v if sign else v


def cos_table_direct(M: int, precision: int):
    """(floors, ceilings) of 2^precision * cos(2 pi j / M) for every j < M,
    each entry from its own iv.cos at precision + 32 bits."""
    old = iv.prec
    iv.prec = max(old, precision + 32)
    try:
        two_pi = 2 * iv.pi
        scale = iv.mpf(2) ** precision
        los, his = [], []
        for j in range(M):
            a, b = (iv.cos(two_pi * iv.mpf(j) / iv.mpf(M)) * scale)._mpi_
            los.append(math.floor(_raw_fraction(a)))
            his.append(math.ceil(_raw_fraction(b)))
    finally:
        iv.prec = old
    return tuple(los), tuple(his)


# -- Z[zeta_M]: canonical remainders modulo the cyclotomic polynomial ----------

def _polydiv_exact(num, den):
    """Quotient of integer polynomials (low to high) by a monic divisor."""
    num, n = list(num), len(den) - 1
    out = [0] * (len(num) - n)
    for i in range(len(num) - 1, n - 1, -1):
        q = out[i - n] = num[i]
        for j in range(n + 1):
            num[i - n + j] -= q * den[j]
    assert not any(num), "non-exact polynomial division"
    return out


@cache
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Phi_M (low to high): x^M - 1 divided by Phi_d for each proper divisor d."""
    poly = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def phi_reduce(order: int, coeffs) -> list[int]:
    """The remainder of sum_j coeffs[j] x^j modulo Phi_order: the value's
    coordinates in the power basis of Z[zeta_order], zero only for 0."""
    mod = cyclotomic_poly(order)
    rem, n = list(coeffs), len(mod) - 1
    for i in range(len(rem) - 1, n - 1, -1):
        q = rem[i]
        if q:
            for j in range(n + 1):
                rem[i - n + j] -= q * mod[j]
    return rem[:n]


# -- a_F(n), and zeta_F(s) from a_F partial sums or mpmath's Hurwitz zeta -------

def af_sieve(field, limit: int) -> list[int]:
    """a_F(n) for 0 <= n <= limit (a_F(0) = 0): multiplicative, with
    a_F(p^e) = e + 1, 1 - e mod 2 or 1 as (D/p) = 1, -1 or 0.  Each prime
    power p^e multiplies in its count at the n it divides exactly."""
    D = field.D
    a = [0] + [1] * limit
    composite = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        composite[p * p::p] = b"\x01" * len(range(p * p, limit + 1, p))
        chi = kronecker_symbol(D, p)
        pe, e = p, 1
        while pe <= limit:
            local = e + 1 if chi == 1 else (1 - e % 2 if chi == -1 else 1)
            if local != 1:
                for n in range(pe, limit + 1, pe):
                    if (n // pe) % p:
                        a[n] *= local
            pe, e = pe * p, e + 1
    return a


def zeta_F_partial_sum(field, s: Fraction, terms: int):
    """Enclosure of zeta_F(s), s > 3/2: sum_{t <= terms} a_F(t) t^-s plus
    [0, tail] with the divisor-bound tail 2 terms^(3/2-s)/(s - 3/2), from
    a_F(t) <= d(t) <= 2 sqrt(t)."""
    a = af_sieve(field, terms)
    with prec_guard(DEFAULT_PREC):
        total = iv.mpf(0)
        for t in range(1, terms + 1):
            if a[t]:
                total += a[t] / iv_pow_frac(iv.mpf(t), s)
        tail = (2 * iv_pow_frac(iv.mpf(terms), Fraction(3, 2) - s)
                / (iv.mpf(s.numerator) / s.denominator - 1.5))
        return total + iv.mpf([0, hi(tail)])


def kronecker_symbol(D: int, n: int) -> int:
    """(D/n) for n >= 1: the factor 2 of n by (D/2), the odd part as a
    Jacobi symbol by quadratic reciprocity."""
    t = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            t = -t
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def zeta_F_mpmath(field, s: Fraction, prec_bits: int = 200):
    """zeta(s) * sum_a (D/a) zeta(s, a/D) / D^s by mpmath at prec_bits."""
    D = field.D
    with mpmath.workprec(prec_bits):
        s = mpmath.mpf(s.numerator) / s.denominator
        L = mpmath.fsum(kronecker_symbol(D, a) * mpmath.zeta(s, mpmath.mpf(a) / D)
                        for a in range(1, D + 1))
        return +(mpmath.zeta(s) * L / mpmath.mpf(D) ** s)


# -- the tail bound's formula, summed by mpmath at 200 bits ---------------------

def _sigmas(field):
    """The two embeddings x -> (sigma_1(x), sigma_2(x)) as mpfs, from sqrt(d)."""
    root = mp.sqrt(field.d)
    w = ((1 + root) / 2, (1 - root) / 2) if field.d % 4 == 1 else (root, -root)
    return lambda x, i: (x.a + x.b * w[i]) / mp.mpf(x.den)


def _real(q):
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def log2_floor_oracle(x) -> int:
    """floor(LOG_STEPS log2 x) for a rational x > 0: mpmath's logarithm,
    then settled by exact comparison of x^LOG_STEPS with powers of 2."""
    x = Fraction(x) ** LOG_STEPS
    e = int(mp.floor(mp.log(_real(x), 2)))
    while Fraction(2) ** (e + 1) <= x:
        e += 1
    while Fraction(2) ** e > x:
        e -= 1
    return e


def orbit_oracle(field, k: int, nu, mu, cs, J: int, prec_bits: int = 200):
    """(A, [(orbit, rho) for c in cs]) at prec_bits, A = sqrt(sigma_1(eps_plus)).
    For the class of c, orbit sums the factorial envelopes
    min(1, (x1 A^j/X0)^n) min(1, (x2 A^-j/X0)^n) over |j| <= J one by one,
    with n = k - 1, X0 = 2 (n!)^(1/n), x_i = 4 pi sqrt(sigma_i(nu mu))/
    |sigma_i(c)|, and rho = x1 x2/X0^2."""
    n = k - 1
    with mpmath.workprec(prec_bits):
        sigma = _sigmas(field)
        A = mp.sqrt(sigma(field.eps_plus, 0))
        pows = [A ** j for j in range(-J, J + 1)]
        x0 = 2 * mp.root(math.factorial(n), n)
        g = [4 * mp.pi * mp.sqrt(sigma(nu * mu, i)) / x0 for i in (0, 1)]
        out = []
        for c in cs:
            u, v = (g[i] / abs(sigma(c, i)) for i in (0, 1))
            orbit = mp.fsum(min(1, u * a) ** n * min(1, v / a) ** n for a in pows)
            out.append((orbit, u * v))
        return A, out


def tail_oracle(field, k: int, nu, mu, X, M: int, prec_bits: int = 200):
    """(tail, norms, window) of `CoefficientEvaluator.tail_bound` for
    c = n = O, where N(cd) = N(cnd) = D, as plain mpfs at prec_bits.

    The same bound, computed apart from the package's intervals and power
    kernel: a_F from `af_sieve`, the embeddings from sqrt(d), C2 from the
    Kronecker symbol and every power and logarithm by mpmath.  The omitted
    norms t > X/D are cut into the blocks of `tail_bound` (steps of
    max(1, int(0.42 t)) up to t0 = max(32 tx, 4096)), each block's ideals
    counted at its least norm D (t + 1) with the orbit weight
    L ln 2/(LOG_STEPS ln A) + 1 + 2/(1 - A^-n), L = max(p_hi - l(D (t + 1)),
    l(D t2) + 1 - p_lo), l = `log2_floor_oracle` and p_lo, p_hi the floor
    and ceiling of LOG_STEPS log2 rho's numerator P0 = e0^(1/n).  For
    t > t0 the sums of a_F(t) (D t)^-s are 2 D^-s t0^(3/2-s)/(s - 3/2), at
    s = n with the weight's constant part (L at t0 less l(D t0)) and at
    s = n - 1/2 with the factor 2/(e ln A)."""
    D, n = field.D, k - 1
    with mpmath.workprec(prec_bits):
        sigma = _sigmas(field)

        def power(x, s):
            return mp.power(x if isinstance(x, mp.mpf) else _real(x), _real(s))

        def beyond(s):
            return 2 * power(D, -s) * power(t0, Fraction(3, 2) - s) / (_real(s) - 1.5)

        tx = int(Fraction(X) / D)
        t0 = max(32 * tx, 4096)
        a = af_sieve(field, t0)
        blocks, t = [], tx
        while t < t0:
            t2 = min(t + max(1, int(0.42 * t)), t0)
            if sum(a[t + 1:t2 + 1]):
                blocks.append((t, t2, sum(a[t + 1:t2 + 1])))
            t = t2

        A = mp.sqrt(sigma(field.eps_plus, 0))
        nu_mu = nu * mu
        base = 2 * mp.pi * mp.sqrt(max(sigma(nu_mu, 0), sigma(nu_mu, 1))) * A
        fact = math.factorial(n)
        f2 = 2 if field.d % 4 == 1 else 1
        c2 = mp.sqrt(_real(math.prod(Fraction(4, p) ** (1 + kronecker_symbol(D, p))
                                     for p in (2, 3))))
        n_nu, n_mu = Fraction(nu.norm()), Fraction(mu.norm())
        weil = 2 ** (2 + mp.mpf(f2) / 2) * mp.sqrt(D) * mp.sqrt(_real(abs(n_nu))) * c2 / D
        factor = (power(n_nu / n_mu, Fraction(n, 2)) * (2 * mp.pi) ** 2 * D / mp.sqrt(D)
                  * min(mp.mpf(1) / D, weil))
        e0 = ((2 * mp.pi) ** 2 * mp.sqrt(_real(n_nu * n_mu))) ** n / fact ** 2
        p0 = LOG_STEPS * mp.log(e0, 2) / n
        p_lo, p_hi = int(mp.floor(p0)), int(mp.ceil(p0))

        def weight(t, t2):
            return max(p_hi - log2_floor_oracle(D * (t + 1)),
                       log2_floor_oracle(D * t2) + 1 - p_lo)

        per_step = mp.log(2) / (LOG_STEPS * mp.log(A))
        const = 1 + 2 / (1 - power(A, -n))
        f = max(0, weight(t0 - 1, t0) - log2_floor_oracle(D * t0))
        orbits = (mp.fsum(cnt * power(D * (t + 1), -n) * (weight(t, t2) * per_step + const)
                          for t, t2, cnt in blocks)
                  + beyond(n) * (f * per_step + const)
                  + beyond(n - Fraction(1, 2)) * 2 / (mp.e * mp.log(A)))
        norms = factor * e0 * orbits
        r0 = power(A, -n)
        msum = mp.fsum(a[t] * power(D * t, Fraction(-n, 2)) for t in range(1, tx + 1))
        window = factor * base ** n / fact * 2 * r0 ** (M + 1) / (1 - r0) * msum
        return norms + window, norms, window
