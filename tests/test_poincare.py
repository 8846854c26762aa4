import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv, mp

from hilbertpoincare.errors import MembershipViolated, PreconditionViolated
from hilbertpoincare.ideals import (FractionalIdeal, ideals_of_norm,
                                    principal_ideal, unit_ideal)
from hilbertpoincare.intervals import contains, hi, lo, overlaps, sup_abs
from hilbertpoincare.poincare import (CertifyBudget, CoefficientEvaluator,
                                      PoincareParams, audit_certificate,
                                      certify_nonvanishing, chi_mu,
                                      coefficient, coefficient_tilde,
                                      effective_constants,
                                      nonvanishing_relations_report,
                                      recurrence_check_cor45,
                                      threshold_cor33, threshold_thm32,
                                      threshold_thm35, zeta_F_enclosure)

from oracles import poincare_truncated_oracle


def small_totally_positive(F, rng, bound=6):
    while True:
        x = F.elt(rng.randint(1, bound), rng.randint(-bound, bound))
        if not x.is_zero() and x.is_totally_positive():
            return x


def test_chi_examples(F5):
    assert chi_mu(F5.one(), F5.one()) == 1
    assert chi_mu(F5.eps_plus * F5.elt(2, 1), F5.elt(2, 1)) == 1
    assert chi_mu(F5.from_int(2), F5.one()) == 0
    assert chi_mu(F5.fundamental_unit, F5.one()) == 0  # not totally positive


def test_empty_truncation(F5):
    params = PoincareParams(F5, 8)
    v = coefficient(params, F5.one(), F5.one(), 0, 0)
    assert lo(v.finite_part) == 0 == hi(v.finite_part)
    assert v.tail > 0 and v.chi_term == 1


def test_membership_preconditions(F5):
    params = PoincareParams(F5, 8)
    with pytest.raises(MembershipViolated):
        coefficient(params, F5.omega(), F5.one(), 10, 1)  # omega not tot. pos.
    with pytest.raises(PreconditionViolated):
        PoincareParams(F5, 7)
    with pytest.raises(PreconditionViolated):
        coefficient(PoincareParams(F5, 8), F5.one(), F5.one(), 10, 1, Fraction(2))


def test_oracle_containment_k8(F5):
    params = PoincareParams(F5, 8)
    val = coefficient(params, F5.one(), F5.one(), 400, 3)
    oracle = poincare_truncated_oracle(params, F5.one(), F5.one(), 400, 3)
    # truncated oracle lies in chi + finite_part
    acc = iv.mpf(val.chi_term) + val.finite_part
    assert lo(acc) <= oracle <= hi(acc)
    # and |value - 1| < 1 at these cutoffs
    assert sup_abs(acc - 1) + mpmath.mpf(val.tail) < 1


def test_unit_invariance(F5):
    params = PoincareParams(F5, 8)
    a = coefficient(params, F5.one(), F5.one(), 300, 3)
    b = coefficient(params, F5.one(), F5.eps_plus, 300, 3)
    assert overlaps(a.enclosure(), b.enclosure())


def test_tilde_symmetry_and_scale(F5):
    params = PoincareParams(F5, 8)
    mu = F5.elt(2, 1)
    a = coefficient_tilde(params, F5.one(), mu, 300, 3)
    b = coefficient_tilde(params, mu, F5.one(), 300, 3)
    assert overlaps(a.enclosure(), b.enclosure())
    c = coefficient_tilde(params, F5.one(), F5.one(), 100, 2)
    d = coefficient(params, F5.one(), F5.one(), 100, 2)
    assert c.scale == 1 and overlaps(c.enclosure(), d.enclosure())


def test_tail_monotone(F5):
    params = PoincareParams(F5, 8)
    ev = CoefficientEvaluator(params, F5.one(), F5.one())
    tails = [ev.tail_bound(X, M) for X, M in ((50, 2), (100, 4), (200, 6), (400, 8))]
    assert all(b <= a for a, b in zip(tails, tails[1:]))


def test_enclosure_consistency_across_cutoffs(F5):
    rng = random.Random(2)
    for _ in range(10):
        params = PoincareParams(F5, rng.choice([8, 10, 12]))
        nu = small_totally_positive(F5, rng, 3)
        mu = small_totally_positive(F5, rng, 3)
        a = coefficient(params, nu, mu, 150, 2)
        b = coefficient(params, nu, mu, 300, 4)
        assert overlaps(a.enclosure(), b.enclosure())


def test_constant_chain_dominates_coefficient(F5):
    """The assembled bound C9 (k-1)^eta (2 pi e/(k-1))^(2k-2) N(mu)^(k-1/2)
    N(cnd)^(-k+1+eta) must dominate |c_k(mu,mu) - 1| on concrete samples."""
    from hilbertpoincare.intervals import iv_from_fraction, iv_pow_frac, prec_guard
    from mpmath import iv as _iv
    eta = Fraction(1, 2)
    led = effective_constants(F5, eta)
    ncnd = Fraction(5)  # N(cnd) for c = n = O over Q(sqrt 5)
    for k, mu in ((8, F5.one()), (12, F5.one()), (8, F5.elt(2, 1))):
        params = PoincareParams(F5, k)
        val = coefficient(params, mu, mu, 400, 4)
        dist = sup_abs(iv.mpf(val.chi_term) + val.finite_part - 1) \
            + mpmath.mpf(val.tail)
        with prec_guard(96):
            bound = (led.C9
                     * iv_pow_frac(_iv.mpf(k - 1), eta)
                     * iv_pow_frac(2 * _iv.pi * _iv.e / _iv.mpf(k - 1),
                                   Fraction(2 * k - 2))
                     * iv_pow_frac(iv_from_fraction(Fraction(mu.norm())),
                                   Fraction(2 * k - 1, 2))
                     * iv_pow_frac(iv_from_fraction(ncnd),
                                   Fraction(-k + 1) + eta))
        assert dist <= lo(bound), (k, mu, dist, lo(bound))


def test_certify_k8_and_audit(F5):
    cert = certify_nonvanishing(PoincareParams(F5, 8), F5.one())
    assert cert.verdict == "NONZERO" and cert.margin > 0
    assert audit_certificate(cert)
    oracle = poincare_truncated_oracle(
        PoincareParams(F5, 8), F5.one(), F5.one(),
        cert.coefficient.X, cert.coefficient.M)
    enc = cert.coefficient.enclosure()
    assert lo(enc) <= oracle + mpmath.mpf(cert.coefficient.tail)
    acc = iv.mpf(cert.coefficient.chi_term) + cert.coefficient.finite_part
    assert lo(acc) <= oracle <= hi(acc)


def test_certify_degenerate_budget(F5):
    cert = certify_nonvanishing(PoincareParams(F5, 8), F5.one(),
                                CertifyBudget(max_X=0, max_M=0, start_X=0,
                                              start_M=0))
    # with X clamped to the tiny start and M = 0 the tail exceeds the margin
    assert cert.verdict in ("NONZERO", "INCONCLUSIVE")
    zero_cert = certify_nonvanishing(
        PoincareParams(F5, 8), F5.one(),
        CertifyBudget(max_X=1, max_M=0, start_X=1, start_M=0))
    assert zero_cert.verdict == "INCONCLUSIVE"


def test_over_budget_terms_take_trivial_bound(F5):
    # a ring over the residue budget gives its term |S| <= N(m) instead of
    # an error; each such term must still contain the exactly summed one
    params = PoincareParams(F5, 8)
    full = CoefficientEvaluator(params, F5.one(), F5.one())
    capped = CoefficientEvaluator(params, F5.one(), F5.one(), enum_budget=10)
    widened = 0
    for cls in full.classes_upto(150):
        for j in (-1, 0, 1):
            b = capped.term(cls, j)
            a = full.term(cls, j)
            assert lo(b) <= lo(a) and hi(a) <= hi(b)
            widened += cls[3].norm() > 10 and hi(b) - lo(b) > hi(a) - lo(a)
    assert widened > 0
    assert capped.evaluate(150, 1).tail == full.evaluate(150, 1).tail


def test_effective_constants(F5):
    led = effective_constants(F5, Fraction(1, 2))
    # C1 = A^2 = (3+sqrt5)/2
    with mpmath.workprec(200):
        assert contains(led.C1, (3 + mpmath.sqrt(5)) / 2)
    # C8 vs 500-term geometric oracle: sum over j of A^(-2 eta |j|)
    mp.prec = 160
    A2 = (3 + mpmath.sqrt(5)) / 2   # sigma1(eps_plus) = A^2
    s = mpmath.mpf(1)
    for j in range(1, 500):
        s += 2 * A2 ** (-mpmath.mpf("0.5") * j)  # |eps_j|^{-eta} = A^{-2 eta j}
    # 500-term oracle sits just below the closed form; its truncation error
    # is ~A^(-500), far below the enclosure width
    assert lo(led.C8) - mpmath.mpf("1e-40") <= s <= hi(led.C8)
    # C2 sampled inequality: 2^pr(m) <= C2 sqrt(N(m))
    rng = random.Random(4)
    from hilbertpoincare.ideals import factor_ideal
    for _ in range(60):
        n = rng.randint(2, 300)
        for idl in ideals_of_norm(F5, n)[:1]:
            pr = len(factor_ideal(idl))
            assert 2 ** pr <= hi(led.C2) * mpmath.sqrt(idl.norm()) * (1 + 1e-15)
    assert lo(led.C) > 0 and hi(led.C) < 1


def test_zeta_factorization_oracle(F5):
    # zeta_F(4) = zeta(4) * L(4, chi_5), both by independent partial sums
    enc = zeta_F_enclosure(F5, Fraction(4), 4000)
    mp.prec = 150

    def chi5(n):
        return {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}[n % 5]

    z4 = sum(mpmath.mpf(1) / mpmath.mpf(n) ** 4 for n in range(1, 4000))
    l4 = sum(mpmath.mpf(chi5(n)) / mpmath.mpf(n) ** 4 for n in range(1, 4000))
    prod = z4 * l4
    assert lo(enc) - mpmath.mpf("1e-8") <= prod <= hi(enc) + mpmath.mpf("1e-8")


def test_threshold_monotonicity(F5):
    O = unit_ideal(F5)
    ths = [threshold_thm32(F5, k, O, O) for k in range(4, 42, 2)]
    assert all(t > 0 for t in ths)
    assert all(b > a for a, b in zip(ths, ths[1:]))
    lvls = [n for n in (1, 4, 5, 9, 11, 20, 31, 45, 80, 100)
            if ideals_of_norm(F5, n)]
    vals = [threshold_thm32(F5, 8, O, ideals_of_norm(F5, n)[0]) for n in lvls]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_threshold_cor33(F5):
    O = unit_ideal(F5)
    th = threshold_thm32(F5, 8, O, O, Fraction(1, 2))
    c33 = threshold_cor33(F5, 8, FractionalIdeal(O), O, F5.one())
    assert abs(c33 - th) < 1e-12 * abs(th)
    # monotone decreasing in N(alpha)
    a1 = threshold_cor33(F5, 8, FractionalIdeal(O), O, F5.from_int(2))
    assert a1 < c33
    # fractional base ideal: c = p5^{-1}, alpha a generator of p5
    p5 = principal_ideal(F5.elt(2, 1))
    cfrac = FractionalIdeal(unit_ideal(F5)) / p5
    v = threshold_cor33(F5, 8, cfrac, O, F5.elt(2, 1))
    assert v > 0


def test_threshold_thm35(F5):
    O = unit_ideal(F5)
    vals = [threshold_thm35(F5, k, O) for k in (4, 8, 16, 32)]
    assert all(v > 0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    lvl_vals = [threshold_thm35(F5, 8, ideals_of_norm(F5, n)[0])
                for n in (1, 4, 5, 9, 11)]
    assert all(b > a for a, b in zip(lvl_vals, lvl_vals[1:]))
    assert threshold_thm35(F5, 4, O) > 0


def test_recurrence_small(F5):
    params = PoincareParams(F5, 8)
    p = F5.elt(3, 2)
    rep = recurrence_check_cor45(params, F5.one(), F5.one(), p, 1, 1,
                                 300, 3, rel_tol=Fraction(1))
    assert rep.status in ("consistent", "inconclusive")
    assert lo(rep.lhs) <= hi(rep.rhs) and lo(rep.rhs) <= hi(rep.lhs)
    # coprimality precondition: level divisible by p
    lvl = principal_ideal(p)
    with pytest.raises(PreconditionViolated):
        recurrence_check_cor45(PoincareParams(F5, 8, level=lvl),
                               F5.one(), F5.one(), p, 1, 1, 100, 2)


def test_relations_report(F5):
    params = PoincareParams(F5, 8)
    p = F5.elt(3, 2)
    rep = nonvanishing_relations_report(params, F5.one(), p, 1,
                                        CertifyBudget(max_X=2000, max_M=8))
    assert rep.base.verdict == "NONZERO"
    assert not rep.advisory
    assert rep.dichotomy_witnessed in (True, False)
    with pytest.raises(PreconditionViolated):
        nonvanishing_relations_report(PoincareParams(F5, 8, level=principal_ideal(p)),
                                      F5.one(), p, 1)
