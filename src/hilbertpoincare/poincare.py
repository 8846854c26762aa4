"""Certified Fourier coefficients of Hilbert Poincare series.

The nu-th coefficient of the mu-th series for weight k, base ideal c and
level n is

  c_k(nu, mu) = chi_mu(nu) + (N(nu)/N(mu))^((k-1)/2) * (2 pi)^2 N(cd)/sqrt(D)
                * sum over eps in O^{x+}, classes c0 of (cnd / O^x)^*
                  of S_{(c0)(cd)^{-1}}(nu, eps*mu; c0)/|N(c0)|
                    * J_{k-1}(4 pi sqrt(s1(nu eps mu))/|s1(c0)|)
                    * J_{k-1}(4 pi sqrt(s2(nu eps mu))/|s2(c0)|).

The truncation keeps unit-class representatives with |N(c0)| <= X (balanced
generators) and unit exponents eps = eps_plus^j with |j| <= M; everything
omitted is covered by a rigorous tail bound combining the Weil/trivial
Kloosterman bound with the factorial Bessel envelope
|J_{k-1}(x)| <= min(1, (x/2)^(k-1)/(k-1)!).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import iv

from . import arith
from .bessel import besselj_eval
from .errors import BudgetExceeded, MembershipViolated, NotIntegral, PreconditionViolated
from .field import Elt, RealQuadraticField
from .ideals import (FractionalIdeal, IdealHNF, different_ideal, element_ideal,
                     ideal_count_upto, ideal_product, ideal_sum, ideals_of_norm,
                     is_prime_element, is_principal, kronecker_prefix,
                     principal_ideal, unit_ideal)
from .intervals import (DEFAULT_PREC, dec_str, exact_add, exact_mul, fixed_iv,
                        fixed_mul, floor_ceil, from_fixed, hi, inv_pow_fixed,
                        iv_ends, iv_from_fraction, iv_max, iv_min, iv_pow_frac,
                        iv_sqrt_fraction, iv_str, lo, overlaps, prec_guard,
                        quotient_iv, scaled_div, scaled_iv, scaled_mul, sup_abs,
                        width)
from .kloosterman import KloostermanQuery, kloosterman_exact
from .residues import DEFAULT_ENUM_BUDGET

DEFAULT_ETA = Fraction(1, 2)
# bits beyond the precision in the Bessel arguments of a coefficient term
ARG_GUARD = 64
# A term whose a-priori bound B, times the prefactor over the class norm, is
# below 2^-BUDGET_BITS of its evaluator's tail is added as [-B, B], not
# computed (`CoefficientEvaluator._class_sum`).  The tail already sits in
# every enclosure as +-tail, and the bounded terms widen the finite part by
# at most their number times 2^-BUDGET_BITS tail: under 2^-10 of the tail
# below 2^20 terms (certify's largest rung over Q(sqrt5), X = 20000 and
# M = 16, has 56,661), and a certify margin falls by as little.  A smaller
# value would skip more terms at a visible cost in width; at 30 the
# recurrence at X = 2000, M = 3 still computes about a fifth of its terms.
BUDGET_BITS = 30
# bits beyond the precision at which the tail's sums over the omitted norms
# are added (`CoefficientEvaluator._omitted_af_sum`)
TAIL_GUARD = 8


# ---------------------------------------------------------------------------
# parameters and value containers

def require_weight(k: int):
    """The weights the paper's theorems cover: even k >= 4."""
    if k < 4 or k % 2:
        raise PreconditionViolated("weight k must be even and >= 4")


class PoincareParams:
    """Weight k, base fractional ideal c (with generator when principal),
    integral level n."""

    def __init__(self, field: RealQuadraticField, k: int, cideal=None, level=None):
        require_weight(k)
        self.field = field
        self.k = k
        if cideal is None:
            cideal = FractionalIdeal(unit_ideal(field))
        if isinstance(cideal, IdealHNF):
            cideal = FractionalIdeal(cideal)
        self.cideal = cideal
        self.level = level if level is not None else unit_ideal(field)
        if isinstance(self.level, FractionalIdeal):
            self.level = self.level.as_integral()
        self._classes: list = []           # [(t, m = N(cnd) t, c_elt, modulus)]
        self._tmax = 0                     # the table holds every t <= _tmax
        self._window_sums: dict = {}       # precision -> (wp, prefix sums of m^-(k-1)/2)

    def norm_cd(self) -> Fraction:
        return self.cideal.norm() * self.field.D   # N(different) = D

    def norm_cnd(self) -> Fraction:
        return self.norm_cd() * self.level.norm()

    def classes_upto(self, X):
        """Unit-class data for all |N(c)| <= X, balanced representatives: one
        table per params, read by all its evaluators and extended as X grows."""
        n_o, F = self.norm_cnd(), self.field
        tmax = int(Fraction(X) / n_o)
        if tmax > self._tmax:
            o_frac = (self.cideal * FractionalIdeal(self.level)
                      * FractionalIdeal(different_ideal(F)))
            for t in range(self._tmax + 1, tmax + 1):
                for J in ideals_of_norm(F, t):
                    num = ideal_product(o_frac.num, J)
                    g = is_principal(num)
                    if g is None:
                        raise PreconditionViolated(
                            f"non-principal class ideal {num} (h+ > 1?)")
                    g, _ = F.balanced_representative(g)
                    c_elt = g / F.from_int(o_frac.den)
                    modulus = ideal_product(self.level, J)
                    self._classes.append((t, n_o * t, c_elt, modulus))
            self._tmax = tmax
        return [cl for cl in self._classes if cl[0] <= tmax]

    def window_sum(self, n: int, precision: int):
        """Sum of m^-(k-1)/2 over the first n classes of the table, enclosed
        at `precision`: one list of integer prefix sums of `inv_pow_fixed`
        bounds per precision, at one scale 2^wp at which the least norm n_o
        keeps about precision + TAIL_GUARD bits, extended as the table grows."""
        s = Fraction(self.k - 1, 2)
        wp, sums = self._window_sums.setdefault(precision, (
            precision + TAIL_GUARD + math.ceil(s * math.log2(self.norm_cnd())), [(0, 0)]))
        for (_t, m, _c, _mod) in self._classes[len(sums) - 1:n]:
            p_lo, p_hi = inv_pow_fixed(m, s, wp)
            sums.append((sums[-1][0] + p_lo, sums[-1][1] + p_hi))
        return from_fixed(*sums[n], wp, precision)

    def to_json(self):
        return {"field": self.field.spec_string(), "k": self.k,
                "c": self.cideal.to_json(), "level": self.level.to_json()}


@dataclass(frozen=True)
class TailSplit:
    """Upper bounds on the three pieces of the tail, in the tail's units."""
    norms0: object               # mpf: omitted norms, j = 0
    norms: object                # mpf: omitted norms, j != 0, at exponent theta
    window: object               # mpf: enumerated norms, |j| > M
    theta: Fraction              # interpolation exponent chosen for `norms`


@dataclass
class CoefficientValue:
    chi_term: int
    finite_part: object          # interval: prefactor * truncated double sum
    tail: object                 # mpf >= 0, bound on everything omitted
    X: object
    M: int
    eta: Fraction
    tail_split: TailSplit        # the pieces of `tail`; not in to_json
    scale: Fraction = Fraction(1)   # N(mu)^(k-1) for the symmetric variant
    terms_bounded: int = 0       # terms added as [-B, B]; not in to_json
    terms_computed: int = 0      # terms summed from S J J; not in to_json

    def enclosure(self):
        """Interval certain to contain the true coefficient, at the caller's precision."""
        return (iv.mpf(self.chi_term) + self.finite_part
                + iv.mpf([-self.tail, self.tail])) * iv_from_fraction(self.scale)

    def to_json(self):
        return {"chi": self.chi_term, "finite_part": iv_ends(self.finite_part),
                "tail": dec_str(self.tail, True),
                "cutoffs": {"X": str(self.X), "M": self.M, "eta": str(self.eta)}}


@dataclass
class Certificate:
    params: PoincareParams
    mu: Elt
    verdict: str                 # "NONZERO" | "INCONCLUSIVE"
    coefficient: CoefficientValue
    margin: object               # mpf; > 0 iff NONZERO
    reason: str | None = None    # INCONCLUSIVE only: "criterion unreachable"
                                 # or "budget exhausted"

    def to_json(self):
        doc = {"schema": "v1", "params": self.params.to_json(),
               "mu": self.mu.to_json(), "verdict": self.verdict,
               "margin": dec_str(self.margin, False), **self.coefficient.to_json()}
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


def chi_mu(nu: Elt, mu: Elt) -> int:
    """1 iff nu/mu is a totally positive unit (exact test)."""
    if nu.is_zero() or mu.is_zero():
        raise PreconditionViolated("chi requires nonzero arguments")
    t = nu / mu
    return 1 if t.field.is_unit(t) and t.is_totally_positive() else 0


# ---------------------------------------------------------------------------
# the ideal counts a_F(t) beyond the last norm block

def _af_tail(n_o, s: Fraction, T: int, wp: int):
    """Integer bounds at scale 2^wp on 2 n_o^-s T^(3/2-s)/(s - 3/2), an upper
    bound on sum_{t > T} a_F(t) (n_o t)^-s for s > 3/2, from a_F(t) <= d(t)
    <= 2 sqrt(t).  With s = a/b, n_o^-s T^(3/2-s) = (n_o^(2a) T^(2a-3b))^(-1/(2b))
    is one `inv_pow_fixed`, and 2/(s - 3/2) = 4b/(2a - 3b)."""
    a, b = s.as_integer_ratio()
    r_lo, r_hi = inv_pow_fixed(n_o ** (2 * a) * T ** (2 * a - 3 * b), Fraction(1, 2 * b), wp)
    return r_lo * 4 * b // (2 * a - 3 * b), -(-r_hi * 4 * b // (2 * a - 3 * b))


def _log2(x) -> float:
    """log2 of a positive mpf from its mantissa and exponent, whatever the
    working precision."""
    return math.log2(x.man) + x.exp


# ---------------------------------------------------------------------------
# the evaluator

class CoefficientEvaluator:
    """Incremental certified evaluation of c_k(nu, mu) for fixed arguments.

    Per class, `_terms` keeps the Bessel bases and every term computed so
    far, so raising the cutoffs on a certification ladder only adds terms.
    """

    def __init__(self, params: PoincareParams, nu: Elt, mu: Elt,
                 eta: Fraction = DEFAULT_ETA, precision: int = DEFAULT_PREC,
                 enum_budget: int = DEFAULT_ENUM_BUDGET):
        F = params.field
        if not F.narrow_h1:
            raise PreconditionViolated(
                "coefficient evaluation requires narrow class number 1")
        for name, t in (("mu", mu), ("nu", nu)):
            if t.is_zero() or not t.is_totally_positive():
                raise MembershipViolated(f"{name} must be totally positive")
            if not params.cideal.contains(t):
                raise MembershipViolated(f"{name}={t} is not in the base ideal")
        eta = Fraction(eta)
        if not (0 < eta < 1):
            raise PreconditionViolated("eta must lie in (0, 1)")
        self.params = params
        self.nu = nu
        self.mu = mu
        self.eta = eta
        self.precision = precision
        self.enum_budget = enum_budget
        self.F = F
        self.k = params.k
        self.chi = chi_mu(nu, mu)
        self.n_o = params.norm_cnd()       # N(cnd), the class-norm unit
        self.n_b = params.norm_cd()        # N(cd)
        self._classes = params._classes    # the params' table, not a copy
        self._terms: dict = {}             # modulus key -> [b1, b2, {j: term}]
        self._fact = math.factorial(self.k - 1)
        self._log2_fact = math.log2(self._fact)
        bits = precision + ARG_GUARD
        with prec_guard(bits):             # g_i = 4 pi sqrt(s_i(nu mu))
            self._g = [scaled_iv(4 * iv.pi * iv.sqrt(e), bits)
                       for e in (nu * mu).embeddings(bits)]
            A = F.A_interval(bits)
            self._a_pows = ([(1, 1, 0), scaled_iv(A, bits)],       # A^i
                            [(1, 1, 0), scaled_iv(1 / A, bits)])   # A^-i
        self._sqrt_d = math.isqrt(F.d << 2 * bits)   # sqrt(d) in [r, r + 1] / 2^bits
        self._log2_a = math.log2(self._a_pows[0][1][1]) - self._a_pows[0][1][2]
        self._eps_mu = [(mu, mu)]          # (eps_plus^i mu, eps_plus^-i mu)
        self._prefactor = None
        self._tc = None                    # tail constants, on first use

    # -- enumeration ---------------------------------------------------------
    def classes_upto(self, X):
        """`PoincareParams.classes_upto`."""
        return self.params.classes_upto(X)

    def prefactor(self):
        if self._prefactor is None:
            with prec_guard(self.precision):
                rq = (self.nu.norm() / self.mu.norm()) ** (self.k - 1)
                pf = (iv_sqrt_fraction(rq) * (2 * iv.pi) ** 2
                      * iv_from_fraction(self.n_b)
                      / iv_sqrt_fraction(Fraction(self.F.D)))
                self._prefactor = pf
        return self._prefactor

    # -- individual terms ----------------------------------------------------
    def term(self, cls, j: int, rings=None):
        """One (class, unit exponent) term S * J_{k-1}(x1) * J_{k-1}(x2), not
        yet divided by the class norm, as integer bounds (lo, hi, w) on 2^w
        times it; not cached, and `rings` goes to `kloosterman_exact`.  As
        s1(eps_plus^j) = A^2j = 1/s2(eps_plus^j), the Bessel arguments are
        b1 A^j and b2 A^-j, b_i = g_i/|s_i(c)| (in `_terms`).

        Every step is sound on its own (bits = precision + ARG_GUARD):
        - b_i: `_arg_bases`, a few units of 2^-bits relative on each side;
        - A^i and A^-i: A and 1/A from `scaled_iv`, each power the last one
          times A^+-1 by `scaled_mul`, which floors the lower end and ceils the
          upper one; so A^i's radius, kept as its two ends, grows by at most
          one unit a step, and x_i = b_i A^+-j gains one more;
        - J: `besselj_eval` on those bounds, its own series tail plus the
          width of x_i (|J'| <= 1), in integers at its scale;
        - Re S: the integer cosine sum at scale 2^precision, or |S| <= N(m)
          when the ring is over budget;
        - S J J: the hull of the end products, exact (`exact_mul`)."""
        _, _, c_elt, modulus = cls
        F, p = self.F, self.precision
        bits = p + ARG_GUARD
        b = self._terms.setdefault(modulus.key(), [None, None, {}])
        if b[0] is None:
            b[:2] = self._arg_bases(c_elt)
        up, down = self._unit_powers(j)
        while len(self._eps_mu) <= abs(j):   # eps_plus^-1 = conj(eps_plus)
            a, z = self._eps_mu[-1]
            self._eps_mu.append((a * F.eps_plus, z * F.eps_plus.conj()))
        x1 = scaled_mul(b[0], up, bits)
        x2 = scaled_mul(b[1], down, bits)
        q = KloostermanQuery(F, self.nu, self._eps_mu[abs(j)][j < 0], modulus, c_elt)
        try:
            s = (*kloosterman_exact(q, self.enum_budget, rings).real_interval(p), p)
        except BudgetExceeded:
            # over budget: S is a sum of phi(m) <= N(m) roots of unity
            n = int(modulus.norm())
            s = (-n, n, 0)
        j1 = besselj_eval(self.k - 1, x1, p).value
        j2 = besselj_eval(self.k - 1, x2, p).value
        return exact_mul(exact_mul(s, j1), j2)

    def _arg_bases(self, c):
        """[b_1, b_2], b_i = g_i/|s_i(c)|, as triples of about precision +
        ARG_GUARD bits.  With s_i(c) = (A +- B sqrt(d))/q (`Elt.sqrt_form`),
        the embedding where A and B sqrt(d) have one sign has q |s(c)| in
        [L, L + |B|] / 2^bits, L = |A| 2^bits + |B| r (r = `_sqrt_d`), with no
        cancellation; the other embedding is |N(c)| over it.  g_i came from
        `scaled_iv` (under one unit lost), and each `scaled_div` and
        `scaled_mul` below loses under one more."""
        bits = self.precision + ARG_GUARD
        A, B, q = c.sqrt_form(1)
        i = 0 if A * B >= 0 else 1                # A and B sqrt(d) add in s_(i+1)
        L = (abs(A) << bits) + abs(B) * self._sqrt_d
        n = abs(c.norm())                         # |s_1(c) s_2(c)|
        out = [None, None]
        gl, gh, w = self._g[i]                    # g q / (q |s|)
        out[i] = scaled_div((gl * q, gh * q, w), (L, L + abs(B), bits), bits)
        big = (L * n.denominator, (L + abs(B)) * n.denominator, bits)
        nq = q * n.numerator                      # g q |s| / (q |N|)
        out[1 - i] = scaled_div(scaled_mul(self._g[1 - i], big, bits), (nq, nq, 0), bits)
        return out

    def term_bound(self, cls, j: int, bases):
        """Integer bounds (-B, B, w) on 2^w times the term that `term(cls,
        j)` encloses, from no Kloosterman sum and no Bessel series: |S| <=
        N(m), as S is a sum of phi(m) <= N(m) roots of unity, and |J_{k-1}(x)|
        <= min(1, (x/2)^(k-1)/(k-1)!) (DLMF 10.14.1, 10.14.4) at the upper
        end of each argument b_i A^+-j, taken exactly from `bases` and
        `_a_pows`."""
        up, down = self._unit_powers(j)
        e1, u1 = self._envelope(bases[0], up)
        e2, u2 = self._envelope(bases[1], down)
        big = int(cls[3].norm()) * e1 * e2
        return -big, big, u1 + u2

    def _unit_powers(self, j: int):
        """(A^j, A^-j) as triples, each the last power times A^+-1."""
        up, down = self._a_pows
        bits = self.precision + ARG_GUARD
        while len(up) <= abs(j):
            up.append(scaled_mul(up[-1], up[1], bits))
            down.append(scaled_mul(down[-1], down[1], bits))
        return (up[j], down[j]) if j >= 0 else (down[-j], up[-j])

    def _envelope(self, b, a):
        """(e, u) with min(1, (x/2)^n/n!) <= e/2^u, n = k - 1, for every x
        below the product of the upper ends of the triples b and a; e keeps
        about 64 bits, rounded up."""
        n = self.k - 1
        h, w = b[1] * a[1], b[2] + a[2]          # x <= h/2^w
        s = max(h.bit_length() - 64, 0)
        h, w = -(-h >> s), w - s
        num, shift = h ** n, -(w + 1) * n        # (x/2)^n <= num 2^shift
        u = 64 + self._fact.bit_length() - num.bit_length() - shift
        e = floor_ceil(num, shift + u, self._fact)[1]
        return (1, 0) if u <= 0 or e >> u else (e, u)

    def _class_sum(self, cls, M: int, rings, budget, tally):
        """One class's sum over |j| <= M divided by its norm m, an interval.

        A term whose bound B (`term_bound`) is under 2^budget m (`_budget`)
        is added as [-B, B] and not computed.  log2 B is read in floats from
        log2 of the arguments: that decides only which terms are computed,
        and the B added is exact.  Computed terms are kept per class and j,
        so the sum is rebuilt from them and the bounds on every call, and
        depends only on the cutoffs and the budget, never on earlier calls.
        The terms add exactly (`exact_add`), so the sum takes the scale of
        its finest term and a tiny sum keeps the relative width of its
        terms.  Once per call it is divided by m, floor below and ceiling
        above (under one unit of that scale), and rounded outward to the
        precision.  `tally` counts [bounded, computed] terms."""
        _, m, c_elt, modulus = cls
        m, key = Fraction(m), modulus.key()
        entry = self._terms.get(key)
        bases = entry[:2] if entry else self._arg_bases(c_elt)
        budget += (math.log2(m.numerator) - math.log2(m.denominator)
                   - math.log2(modulus.norm()))
        l1, l2 = (math.log2(b[1]) - b[2] for b in bases)
        n, la, lf = self.k - 1, self._log2_a, self._log2_fact
        done = entry[2] if entry else {}
        acc, bounded = (0, 0, 0), 0
        for j in range(-M, M + 1):
            # log2 of the envelopes at b1 A^j and b2 A^-j, an estimate of
            # log2(B/N(m)) that decides only whether to bound
            if (min(n * (l1 + j * la - 1) - lf, 0)
                    + min(n * (l2 - j * la - 1) - lf, 0)) < budget:
                acc = exact_add(acc, self.term_bound(cls, j, bases))
                bounded += 1
                continue
            if j not in done:
                t = self.term(cls, j, rings)
                done = self._terms[key][2]       # `term` made the entry
                done[j] = t
            acc = exact_add(acc, done[j])
        tally[0] += bounded
        tally[1] += 2 * M + 1 - bounded
        return quotient_iv(acc, m, self.precision)

    def _budget(self, tail):
        """log2 of 2^-BUDGET_BITS tail / prefactor, less 2^-20 for the
        floats (whose error is far smaller): a term of bound B in a class of
        norm m is bounded when log2 B < this + log2 m, so its prefactor * B
        / m stays below 2^-BUDGET_BITS tail."""
        return _log2(tail) - BUDGET_BITS - _log2(hi(self.prefactor())) - 2 ** -20

    # -- tail bound -------------------------------------------------------------
    def _tail_constants(self):
        """The tail's factors that do not depend on the cutoffs, computed on
        first use: the Kloosterman bound kt, the j = 0 envelope e0, the
        class-count table, the interpolation grid as (theta, s, e1 * 2r/(1 - r))
        over the thetas that give a bound, and r0 and e1_0 of the window."""
        if self._tc is not None:
            return self._tc
        with prec_guard(self.precision):
            F, k = self.F, self.k
            A = F.A_interval(self.precision)
            nu_mu = self.nu * self.mu
            w1, w2 = nu_mu.embeddings(self.precision)
            gmax = iv.sqrt(iv_max(w1, w2))
            # per-term Kloosterman bound: min(trivial |S| <= N(m), Weil)
            nbar = Fraction(element_ideal(self.nu).num.norm())
            prefix = kronecker_prefix(F)
            weil = (iv_pow_frac(iv.mpf(2), 2 + Fraction(F.f2, 2))
                    * iv_sqrt_fraction(Fraction(F.D)) * iv_sqrt_fraction(nbar)
                    * c2_constant(prefix) / iv_from_fraction(self.n_b))
            kt = iv_min(iv_from_fraction(1 / self.n_b), weil)
            fact = Fraction(math.factorial(k - 1))
            e0 = (iv_pow_frac((2 * iv.pi) ** 2 * iv.sqrt(
                iv_from_fraction(self.nu.norm() * self.mu.norm())), Fraction(k - 1))
                / iv_from_fraction(fact * fact))
            base = 2 * iv.pi * gmax * A   # per-factor envelope base at |c_i| >= sqrt(m)/A
            # j != 0 over the omitted norms: the large factor is interpolated
            # with exponent theta, the small one decays like r^|j|
            grid = []
            for theta in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                          Fraction(5, 6), 1 - Fraction(self.eta, k - 1)):
                s = Fraction((k - 1)) * (1 + theta) / 2
                if s <= Fraction(3, 2):
                    continue
                r = 1 / iv_pow_frac(A, Fraction(k - 1) * (1 - theta))
                if hi(r) >= 1:
                    continue
                e1 = (iv_pow_frac(base, Fraction(k - 1) * (1 + theta))
                      / iv_pow_frac(iv_from_fraction(fact), 1 + theta))
                grid.append((theta, s, e1 * (2 * r / (1 - r))))
            r0 = 1 / iv_pow_frac(A, Fraction(k - 1))
            e1_0 = iv_pow_frac(base, Fraction(k - 1)) / iv_from_fraction(fact)
            self._tc = (kt, e0, prefix, grid, r0, e1_0)
        return self._tc

    def _omitted_af_sum(self, s: Fraction, blocks, t0: int):
        """Upper bound on sum_{t > tx} a_F(t) (n_o t)^{-s}: each of `tail_bound`'s
        blocks (t, count) adds its count of ideals at its least norm
        n_o (t + 1), and `_af_tail` bounds t > t0.  The terms are integer
        bounds (`inv_pow_fixed`) at one scale 2^wp, at which the first
        block's power keeps about precision + TAIL_GUARD bits, added exactly
        and converted once."""
        n_o = self.n_o
        least = n_o * ((blocks[0][0] if blocks else t0) + 1)
        wp = self.precision + TAIL_GUARD + math.ceil(s * math.log2(least))
        total_lo, total_hi = _af_tail(n_o, s, t0, wp)
        for t, cnt in blocks:
            p_lo, p_hi = inv_pow_fixed(n_o * (t + 1), s, wp)
            total_lo, total_hi = total_lo + cnt * p_lo, total_hi + cnt * p_hi
        return from_fixed(total_lo, total_hi, wp, self.precision)

    def tail_bound(self, X, M: int):
        """Upper bound on |prefactor * (all omitted terms)|, and its split.

        Per-factor Bessel bound: |J_{k-1}(x)| <= min(1, (x/2)^(k-1)/(k-1)!).
        For the omitted unit exponents (enumerated norms) only the small
        embedding factor is used: it decays like A^{-(k-1)|j|}.  For the
        omitted norms, the large factor is interpolated with an exponent
        theta in (0,1) to trade unit-decay against norm-decay; every theta
        gives a valid bound, so we take the best over a small grid.  All six
        sums over the omitted norms share one list of block counts.

        Returns (tail, TailSplit): the pieces are bounded from the same
        intervals as the tail itself.
        """
        with prec_guard(self.precision):
            k = self.k
            kt, e0, prefix, grid, r0, e1_0 = self._tail_constants()
            n_o = self.n_o
            tx = int(Fraction(X) / n_o)
            # blocks (t, number of ideals of norm in (t, t2]), the nonempty ones
            # of a partition of (tx, t0], at O(sqrt t0) each
            t0 = max(32 * tx, 4096)
            blocks, t, below = [], tx, ideal_count_upto(prefix, tx)
            while t < t0:
                t2 = min(t + max(1, int(0.42 * t)), t0)
                upto = ideal_count_upto(prefix, t2)
                if upto > below:
                    blocks.append((t, upto - below))
                t, below = t2, upto
            # -- omitted norms (t > tx), all unit exponents ----------------
            # j = 0: product of both factorial envelopes, exact norm m.
            nt = e0 * self._omitted_af_sum(Fraction(k - 1), blocks, t0)
            # j != 0: min over the interpolation grid.
            best = best_theta = None
            for theta, s, weight in grid:
                piece = weight * self._omitted_af_sum(s, blocks, t0)
                if best is None or hi(piece) < hi(best):
                    best, best_theta = piece, theta
            nt0, nt = nt, nt + best
            # -- enumerated norms, |j| > M: small-factor bound only --------
            sa0 = 2 * iv_pow_frac(r0, M + 1) / (1 - r0)
            msum = self.params.window_sum(len(self.classes_upto(X)), self.precision)
            ut = e1_0 * sa0 * msum
            factor = self.prefactor() * kt
            split = TailSplit(hi(factor * nt0), hi(factor * best),
                              hi(factor * ut), best_theta)
            return hi(factor * (nt + ut)), split

    # -- main entry ----------------------------------------------------------
    def evaluate(self, X, M: int) -> CoefficientValue:
        """The enclosure at cutoffs X and M, summed as `evaluate_together` sums."""
        return evaluate_together([self], X, M)[0]


def evaluate_together(evaluators, X, M: int) -> list[CoefficientValue]:
    """The evaluators' enclosures at cutoffs X and M, in one pass over the
    classes of their shared params.  A class's `rings` dict serves every
    evaluator, so its ring is enumerated at most once per pass.

    Every tail comes first, and it sets its evaluator's error budget: a term
    whose a-priori bound B (|S| <= N(m) times the factorial envelope of each
    Bessel factor) puts at most 2^-BUDGET_BITS of the tail into the finite
    part is added as [-B, B] instead of being computed.  So each bounded
    term widens the finite part by under 2^-BUDGET_BITS tail, and the value
    counts its bounded and computed terms.  The budget is a function of the
    evaluator and (X, M), computed terms are kept, a class's terms and
    bounds add exactly (`CoefficientEvaluator._class_sum`) and classes add
    in table order, so a value is bit-identical however the ladder reached
    it.  The pass runs at the evaluators' shared precision."""
    if X < 0 or M < 0:
        raise PreconditionViolated("cutoffs X and M must be >= 0")
    if len({(id(ev.params), ev.precision) for ev in evaluators}) != 1:
        raise PreconditionViolated("evaluators must share one PoincareParams and precision")
    tails = [ev.tail_bound(X, M) for ev in evaluators]
    budgets = [ev._budget(tail) for ev, (tail, _) in zip(evaluators, tails)]
    tallies = [[0, 0] for _ in evaluators]
    accs = [iv.mpf(0)] * len(evaluators)
    with prec_guard(evaluators[0].precision):
        for cls in evaluators[0].classes_upto(X):
            rings = {}
            for i, ev in enumerate(evaluators):
                accs[i] += ev._class_sum(cls, M, rings, budgets[i], tallies[i])
        return [CoefficientValue(ev.chi, ev.prefactor() * acc, tail, X, M, ev.eta, split,
                                 terms_bounded=n[0], terms_computed=n[1])
                for ev, acc, (tail, split), n in zip(evaluators, accs, tails, tallies)]


def coefficient(params: PoincareParams, nu: Elt, mu: Elt, X, M: int,
                eta: Fraction = DEFAULT_ETA, **kw) -> CoefficientValue:
    return CoefficientEvaluator(params, nu, mu, eta, **kw).evaluate(X, M)


def coefficient_tilde(params: PoincareParams, nu: Elt, mu: Elt, X, M: int,
                      eta: Fraction = DEFAULT_ETA, **kw) -> CoefficientValue:
    """The symmetric variant N(mu)^(k-1) * c_k(nu, mu)."""
    val = coefficient(params, nu, mu, X, M, eta, **kw)
    val.scale = Fraction(mu.norm()) ** (params.k - 1)
    return val


# ---------------------------------------------------------------------------
# certification

@dataclass
class CertifyBudget:
    """Caps of the cutoffs X and M.  The ladder starts at X = max(64, 8 N(cnd))
    and M = 4, each clamped to its cap."""
    max_X: int = 20000
    max_M: int = 16

    def __post_init__(self):
        if min(self.max_X, self.max_M) < 0:
            raise PreconditionViolated("cutoffs X and M must be >= 0")


def criterion_unreachable(val: CoefficientValue) -> bool:
    """True when every point of the enclosure is at distance >= 1 from 1,
    so that no enclosure of the same coefficient can certify |c - 1| < 1."""
    enc = val.enclosure()
    return bool(lo(enc) >= 2 or hi(enc) <= 0)


def certify_nonvanishing(params: PoincareParams, mu: Elt,
                         budget: CertifyBudget | None = None,
                         eta: Fraction = DEFAULT_ETA, **kw) -> Certificate:
    """Raise the cutoffs until |c_k(mu,mu) - 1| < 1 is certified.

    Each rung reads its own result.  The ladder stops as soon as the
    enclosure proves the criterion unreachable.  Otherwise the next rung
    raises the cutoff whose omitted terms dominate the tail: X doubles when
    the omitted norms bound at least as much as the unit window |j| > M,
    else M grows by 2; a cutoff at its cap leaves the other to rise.

    The verdict NONZERO is sound unconditionally: the enclosure places the
    coefficient within distance < 1 of 1.  Otherwise the verdict is
    INCONCLUSIVE, never a wrong answer, with the reason the ladder stopped:
    "criterion unreachable" (the certificate holds the enclosure that shows
    it) or "budget exhausted" (it holds the rung of largest margin).
    """
    budget = budget or CertifyBudget()
    ev = CoefficientEvaluator(params, mu, mu, eta, **kw)
    X = min(max(64, int(8 * ev.n_o)), budget.max_X)
    M = min(4, budget.max_M)
    best = None
    while True:
        val = ev.evaluate(X, M)
        with prec_guard(ev.precision):
            dist = sup_abs(iv.mpf(val.chi_term) + val.finite_part - 1)
            # rounded down at both steps: a positive margin must be provable
            margin = mpmath.fsub(mpmath.fsub(1, dist, rounding="d"), val.tail, rounding="d")
            if margin > 0:
                return Certificate(params, mu, "NONZERO", val, margin)
            if criterion_unreachable(val):
                return Certificate(params, mu, "INCONCLUSIVE", val, margin,
                                   "criterion unreachable")
            if best is None or margin > best[0]:
                best = (margin, val)
            if X >= budget.max_X and M >= budget.max_M:
                return Certificate(params, mu, "INCONCLUSIVE", best[1], best[0],
                                   "budget exhausted")
            split = val.tail_split
            if M >= budget.max_M or (X < budget.max_X
                                     and split.norms0 + split.norms >= split.window):
                X = min(2 * X, budget.max_X)
            else:
                M = min(M + 2, budget.max_M)


def audit_certificate(cert: Certificate) -> bool:
    """Re-check a certificate's claim from its stored enclosure: the NONZERO
    criterion, or that the criterion is unreachable."""
    val = cert.coefficient
    with prec_guard(DEFAULT_PREC):
        if cert.verdict != "NONZERO":
            return cert.reason != "criterion unreachable" or criterion_unreachable(val)
        dist = sup_abs(iv.mpf(val.chi_term) + val.finite_part - 1)
        return bool(mpmath.fadd(dist, val.tail, rounding="u") < 1)


# ---------------------------------------------------------------------------
# effective constants and thresholds

def c2_constant(prefix):
    """C2 = max over ideals of 2^pr(m)/sqrt(N(m)), enclosed, from the field's
    `kronecker_prefix`.  Only primes of norm < 4 increase the ratio, so C2^2
    is (4/p)^(1 + chi_D(p)) over p = 2, 3: 1 + chi_D(p) ideals have norm p.
    """
    square = Fraction(1)
    for p in (2, 3):
        square *= Fraction(4, p) ** (1 + prefix[p] - prefix[p - 1])
    return iv_sqrt_fraction(square)


def zeta_F_enclosure(field, s: Fraction, precision: int):
    """zeta_F(s) = zeta(s) L(s, chi_D) for real s > 1, with chi_D(a) read off
    `kronecker_prefix` and D^-s zeta(s, a/D) enclosed by Euler-Maclaurin for
    each residue 0 < a < D (chi_D(D) = 0).

    For real s > 1, q > 0 and integers N, J >= 1 (F. Johansson, Numer.
    Algorithms 69 (2015), Thm. 1, from |B_2J(t - [t])| <= 4 (2J)!/(2 pi)^2J),
      zeta(s, q) = sum_{n<N} (n+q)^-s + x^(1-s)/(s-1) + x^-s/2
                   + sum_{j=1}^J B_2j/(2j)! (s)_{2j-1} x^(-s-2j+1) + R,
      |R| <= 4 |(s)_2J|/(2 pi)^2J * x^(1-s-2J)/(s+2J-1),   x = N + q.
    With q = a/D and X = ND + a, (n + q)^-s = D^s (nD + a)^-s, so
      D^-s zeta(s, a/D) = sum_{n<N} (nD+a)^-s + X^(1-s)/D * P(D/X),
      P(y) = 1/(s-1) + y/2 + sum_j c_j y^2j +- rho y^2J,
    with c_j = B_2j (s)_{2j-1}/(2j)! and rho = 4 (s)_{2J-1}/(2 pi)^2J;
    zeta(s) is the case D = a = 1.  For J = 3N (2J just below 2 pi N, where
    the remainder is least over J) the remainder is about (3/(pi e))^6N,
    nine bits per N, so N = precision/8 + 1 leaves room for its polynomial
    factor when s <= 4; a larger s shrinks X^(1-s) instead.  Everything but
    pi and the final product is exact integer arithmetic at scale 2^wp, each
    step rounded outward (the prime powers p^-s by `inv_pow_fixed`), with
    one guard bit for each doubling of the number of terms.
    """
    s = Fraction(s)
    if s <= 1:
        raise PreconditionViolated("zeta_F enclosure requires s > 1")
    D = field.D
    N = precision // 8 + 1
    J = 3 * N
    top = (N + 1) * D
    wp = precision + top.bit_length()
    coef, rising = [], s                        # rising = (s)_{2j-1}
    for j in range(1, J + 1):
        num, den = mpmath.bernfrac(2 * j)
        c = Fraction(num, den * math.factorial(2 * j)) * rising
        coef.append(floor_ceil(c.numerator, wp, c.denominator))
        if j < J:
            rising *= (s + 2 * j - 1) * (s + 2 * j)
    # m^-s for m <= top: inv_pow_fixed on primes, a product on composites
    spf, pw = arith.smallest_prime_factors(top), [None, (1 << wp, 1 << wp)]
    for m in range(2, top + 1):
        p = spf[m]
        pw.append(inv_pow_fixed(m, s, wp) if p == m else fixed_mul(pw[p], pw[m // p], wp))
    with prec_guard(wp):
        rho = fixed_iv(4 * iv_from_fraction(rising) / (2 * iv.pi) ** (2 * J), wp)[1]
    coef[-1] = (coef[-1][0] - rho, coef[-1][1] + rho)
    head = floor_ceil(s.denominator, wp, s.numerator - s.denominator)    # 1/(s-1)

    def scaled_hurwitz(a, D):
        """Integer bounds on 2^wp D^-s zeta(s, a/D)."""
        X = N * D + a
        u = floor_ceil(D * D, wp, X * X)
        poly = coef[-1]
        for c in reversed(coef[:-1]):
            poly = fixed_mul(poly, u, wp)
            poly = (poly[0] + c[0], poly[1] + c[1])
        poly = fixed_mul(poly, u, wp)
        half_y = floor_ceil(D, wp, 2 * X)
        bracket = (head[0] + half_y[0] + poly[0], head[1] + half_y[1] + poly[1])
        x_lo, x_hi = pw[X]                      # X^(1-s)/D = X^-s X/D
        lo_, hi_ = fixed_mul(bracket, (x_lo * X // D, -(-x_hi * X // D)), wp)
        direct = [pw[n * D + a] for n in range(N)]
        return lo_ + sum(t[0] for t in direct), hi_ + sum(t[1] for t in direct)

    prefix = kronecker_prefix(field)
    L_lo = L_hi = 0
    for a in range(1, D):
        chi = prefix[a] - prefix[a - 1]
        if chi:
            lo_, hi_ = scaled_hurwitz(a, D)
            L_lo, L_hi = (L_lo + lo_, L_hi + hi_) if chi > 0 else (L_lo - hi_, L_hi - lo_)
    z_lo, z_hi = fixed_mul((L_lo, L_hi), scaled_hurwitz(1, 1), wp)    # zeta(s) > 1
    return from_fixed(z_lo, z_hi, wp, precision)


@dataclass
class ConstantsLedger:
    field: RealQuadraticField
    eta: Fraction
    A: object
    C1: object
    C2: object
    C3: object
    C4: object
    C5: object
    C6: object
    C7: object
    C8: object
    C9: object
    zetaF: object      # zeta_F(3 - eta) enclosure
    C: object          # final threshold constant (interval; use lower end)

    def to_json(self):
        out = {"eta": str(self.eta)}
        for name in ("A", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
                     "C9", "zetaF", "C"):
            out[name] = iv_str(getattr(self, name))
        return out


_ledger_cache: dict = {}


def effective_constants(field, eta: Fraction = DEFAULT_ETA) -> ConstantsLedger:
    """Assemble the effective-constant chain for the non-vanishing threshold.

    The chain bounds, for balanced integral mu and even k >= 4,
      |c_k(mu,mu) - 1| <= C9 * (k-1)^eta * (2 pi e/(k-1))^(2k-2)
                          * N(mu)^(k-1/2) * N(cnd)^(-k+1+eta),
    with C9 = C4 * U0 * S_A * zeta_F(3-eta); solving < 1 for N(mu) and taking
    per-factor infima over even k >= 4 yields the k-free constant C of the
    displayed threshold.
    """
    eta = Fraction(eta)
    if not (0 < eta < 1):
        raise PreconditionViolated("eta must lie in (0,1)")
    ckey = (field.d, eta)
    if ckey in _ledger_cache:
        return _ledger_cache[ckey]
    with prec_guard(DEFAULT_PREC):
        A = field.A_interval(DEFAULT_PREC)
        c1 = A * A
        c2 = c2_constant(kronecker_prefix(field))
        two = iv.mpf(2)
        c3 = iv_pow_frac(two, 2 + Fraction(field.f2, 2)) * \
            iv_sqrt_fraction(Fraction(field.D)) * c2
        c4 = (2 * iv.pi) ** 2 * iv_pow_frac(two, 2 + Fraction(field.f2, 2)) * c2
        # U0: balanced-argument envelope constant
        u0 = iv_max(iv.mpf(1), iv_pow_frac(c1 / (2 * iv.pi * iv.e), eta))
        c5 = c4 * u0
        # unit sums: S_A at exponent eta (used in the chain) and the
        # eps-product form at exponent 2*eta (the ledger's C8)
        r1 = 1 / iv_pow_frac(A, eta)
        sa = 1 + 2 * r1 / (1 - r1)
        c6 = c5 * sa
        zf = zeta_F_enclosure(field, Fraction(3) - eta, DEFAULT_PREC)
        c7 = c6 * zf
        r2 = 1 / iv_pow_frac(A, 2 * eta)
        c8 = 1 + 2 * r2 / (1 - r2)
        c9 = c7
        # k-free threshold constant: product of per-factor infima over even k>=4
        two_pi_e = 2 * iv.pi * iv.e
        f1 = iv_min(iv.mpf(1), 1 / iv_pow_frac(c9, Fraction(2, 7)))
        f2 = 1 / (two_pi_e * two_pi_e)
        # max of ln(k-1)/(k-1/2) over even k >= 4 is at k = 4
        f3 = 1 / iv_pow_frac(iv.mpf(3), Fraction(2, 7) * eta)
        nd = field.D   # N(different) = D
        f4 = iv_pow_frac(iv_from_fraction(nd), Fraction(2, 7) * (3 - eta))
        c_final = f1 * f2 * f3 * f4
        ledger = ConstantsLedger(field, eta, A, c1, c2, c3, c4, c5, c6, c7,
                                 c8, c9, zf, c_final)
        _ledger_cache[ckey] = ledger
        return ledger


def _ledger_at(field, eta: Fraction, ledger: ConstantsLedger | None) -> ConstantsLedger:
    """The given ledger, which must be the one at `eta`, else the field's."""
    if ledger is not None and ledger.eta != eta:
        raise PreconditionViolated(f"threshold at eta = {eta} given the eta = {ledger.eta} ledger")
    return ledger or effective_constants(field, eta)


def threshold_thm32(field, k: int, cideal, level, eta: Fraction = DEFAULT_ETA,
                    ledger: ConstantsLedger | None = None):
    """Norm threshold below which balanced mu certify NONZERO (lower bound).

    Returns the displayed value C (k-1)^((2k-2)/(k-1/2)) N(cn)^((k-1-eta)/(k-1/2)).
    """
    require_weight(k)
    if isinstance(cideal, FractionalIdeal):
        if not cideal.is_integral():
            raise PreconditionViolated("threshold requires an integral base ideal")
        cideal = cideal.as_integral()
    ledger = _ledger_at(field, Fraction(eta), ledger)
    with prec_guard(DEFAULT_PREC):
        ncn = Fraction(cideal.norm()) * Fraction(level.norm())
        gamma = Fraction(2 * k - 1, 2)     # k - 1/2
        val = (ledger.C
               * iv_pow_frac(iv.mpf(k - 1), Fraction(2 * k - 2) / gamma)
               * iv_pow_frac(iv_from_fraction(ncn), (Fraction(k - 1) - Fraction(eta)) / gamma))
        return lo(val)


def threshold_cor33(field, k: int, cideal: FractionalIdeal, level,
                    alpha: Elt, ledger: ConstantsLedger | None = None):
    """Fractional-ideal threshold at the ledger's eta (default 1/2): Thm. 3.2's
    threshold for the integral ideal alpha*c, divided by N(alpha)."""
    require_weight(k)
    if isinstance(cideal, IdealHNF):
        cideal = FractionalIdeal(cideal)
    if not alpha.is_totally_positive():
        raise PreconditionViolated("alpha must be totally positive")
    scaled = cideal * element_ideal(alpha)
    if not scaled.is_integral():
        raise NotIntegral("alpha * c must be an integral ideal")
    ledger = ledger or effective_constants(field, Fraction(1, 2))
    th = threshold_thm32(field, k, scaled, level, ledger.eta, ledger)
    with prec_guard(DEFAULT_PREC):
        return lo(iv.mpf(th) / iv_from_fraction(Fraction(alpha.norm())))


def threshold_thm35(field, k: int, level, ledger: ConstantsLedger | None = None):
    """Threshold formula for the SL2(O)-type series (formula level only), eta = 1/2:
    C (k-1)^(2 - 6/(2k-1)) N(n)^((4k-3)/(4k-2))."""
    require_weight(k)
    ledger = _ledger_at(field, Fraction(1, 2), ledger)
    with prec_guard(DEFAULT_PREC):
        val = (ledger.C
               * iv_pow_frac(iv.mpf(k - 1), Fraction(2) - Fraction(6, 2 * k - 1))
               * iv_pow_frac(iv_from_fraction(Fraction(level.norm())),
                             Fraction(4 * k - 3, 4 * k - 2)))
        return lo(val)


# ---------------------------------------------------------------------------
# coefficient recurrences and relation reports

@dataclass
class RecurrenceReport:
    status: str          # "consistent" | "inconsistent" | "inconclusive"
    lhs: object          # enclosure interval
    rhs: object
    shared_width: object
    scale: object


def _cor45_hypotheses(params: PoincareParams, p: Elt, exponents: dict,
                      elements: dict):
    """Check, in this order: narrow class number 1, a totally positive
    generator q of c, each exponent >= 1, p a totally positive prime element,
    and p coprime to (product of elements) q^-len(elements) n."""
    F = params.field
    if not F.narrow_h1:
        raise PreconditionViolated("narrow class number 1 required")
    q_gen = is_principal(params.cideal.num)
    if q_gen is None or not q_gen.is_totally_positive():
        raise PreconditionViolated("base ideal needs a totally positive generator")
    q_gen = q_gen / F.from_int(params.cideal.den)
    if min(exponents.values()) < 1:
        raise PreconditionViolated(f"{', '.join(exponents)} must be >= 1")
    if not (is_prime_element(p) and p.is_totally_positive()):
        raise PreconditionViolated("p must be a totally positive prime element")
    copr = FractionalIdeal(params.level)
    for x in elements.values():
        copr = copr * element_ideal(x) / element_ideal(q_gen)
    if not copr.is_integral():
        raise PreconditionViolated("coprimality data is not integral")
    if not ideal_sum(principal_ideal(p), copr.num).is_unit_ideal():
        raise PreconditionViolated(
            f"p must be coprime to {'*'.join(elements)}*q^-{len(elements)}*n")


def recurrence_check_cor45(params: PoincareParams, nu: Elt, mu: Elt, p: Elt,
                           m: int, n: int, X, M: int,
                           eta: Fraction = DEFAULT_ETA, rel_tol=Fraction(1, 1000),
                           **kw) -> RecurrenceReport:
    """Check ct(nu p^m, mu p^n) = ct(nu, mu p^(m+n)) + N((p))^(k-1) ct(nu p^(m-1), mu p^(n-1)).

    All three symmetric coefficients are evaluated as enclosures at the given
    cutoffs; consistency means the left interval meets the right interval
    sum.  Enclosures too wide relative to the identity's scale come back
    "inconclusive" rather than a hollow "consistent".
    """
    _cor45_hypotheses(params, p, {"m": m, "n": n}, {"nu": nu, "mu": mu})
    args = ((nu * p ** m, mu * p ** n), (nu, mu * p ** (m + n)),
            (nu * p ** (m - 1), mu * p ** (n - 1)))
    evs = [CoefficientEvaluator(params, a, b, eta, **kw) for a, b in args]
    lhs_v, t1, t2 = evaluate_together(evs, X, M)
    for val, (_, b) in zip((lhs_v, t1, t2), args):
        val.scale = Fraction(b.norm()) ** (params.k - 1)   # as coefficient_tilde
    with prec_guard(evs[0].precision):
        lhs = lhs_v.enclosure()
        np_pow = iv_from_fraction(p.norm() ** (params.k - 1))
        rhs = t1.enclosure() + np_pow * t2.enclosure()
        shared = max(width(lhs), width(rhs))
        scale = max(sup_abs(lhs), sup_abs(rhs), mpmath.mpf(1))
        if not overlaps(lhs, rhs):
            status = "inconsistent"
        elif shared < mpmath.mpf(float(Fraction(rel_tol))) * scale:
            status = "consistent"
        else:
            status = "inconclusive"
        return RecurrenceReport(status, lhs, rhs, shared, scale)


@dataclass
class RelationsReport:
    base: Certificate
    outcomes: dict       # exponent -> Certificate
    advisory: bool       # base certificate inconclusive => advisory only
    dichotomy_witnessed: bool | None


def nonvanishing_relations_report(params: PoincareParams, mu: Elt, p: Elt,
                                  m: int, budget: CertifyBudget | None = None,
                                  **kw) -> RelationsReport:
    """Certification outcomes for mu p^(m-1), mu p^m, mu p^(m+1).

    When the base series at mu certifies NONZERO, the expected dichotomy is:
    either the middle one is nonzero, or both neighbors are.  INCONCLUSIVE
    certificates cannot refute it, so the report is advisory in that case.
    """
    _cor45_hypotheses(params, p, {"m": m}, {"mu": mu})
    base = certify_nonvanishing(params, mu, budget, **kw)
    outcomes = {e: certify_nonvanishing(params, mu * p ** e, budget, **kw)
                for e in (m - 1, m, m + 1) if e >= 0}
    advisory = base.verdict != "NONZERO"
    witnessed = None
    if not advisory:
        mid = outcomes[m].verdict == "NONZERO"
        side = (outcomes[m - 1].verdict == "NONZERO"
                and outcomes[m + 1].verdict == "NONZERO")
        witnessed = mid or side
    return RelationsReport(base, outcomes, advisory, witnessed)
