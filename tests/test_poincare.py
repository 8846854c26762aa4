import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv, mp
from mpmath.libmp import from_rational, round_ceiling, round_floor, to_rational

from hilbertpoincare import kloosterman, poincare
from hilbertpoincare.arith import is_squarefree
from hilbertpoincare.bessel import BesselEval
from hilbertpoincare.errors import MembershipViolated, PreconditionViolated
from hilbertpoincare.field import RealQuadraticField, make_field
from hilbertpoincare.hecke import HeckeContext
from hilbertpoincare.ideals import (FractionalIdeal, ideals_of_norm,
                                    principal_ideal, unit_ideal)
from hilbertpoincare.intervals import (contains, hi, lo, overlaps, prec_guard,
                                       sup_abs, width)
from hilbertpoincare.poincare import (CertifyBudget, CoefficientEvaluator,
                                      CoefficientValue, PoincareParams,
                                      audit_certificate, certify_nonvanishing,
                                      chi_mu, coefficient, coefficient_tilde,
                                      criterion_unreachable,
                                      effective_constants, evaluate_together,
                                      nonvanishing_relations_report,
                                      recurrence_check_cor45,
                                      threshold_cor33, threshold_thm32,
                                      threshold_thm35, zeta_F_enclosure)

from oracles import (fixed_fractions, log2_floor_oracle, orbit_oracle,
                     poincare_truncated_oracle, tail_oracle, zeta_F_mpmath,
                     zeta_F_partial_sum)


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
    tails = [ev.tail_bound(X, M)[0] for X, M in ((50, 2), (100, 4), (200, 6), (400, 8))]
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
                                CertifyBudget(max_X=0, max_M=0))
    # with X and M clamped to caps of 0 the tail exceeds the margin
    assert cert.verdict in ("NONZERO", "INCONCLUSIVE")
    zero_cert = certify_nonvanishing(
        PoincareParams(F5, 8), F5.one(),
        CertifyBudget(max_X=1, max_M=0))
    assert zero_cert.verdict == "INCONCLUSIVE"


def _oracle_in_enclosure(params, mu, val):
    oracle = poincare_truncated_oracle(params, mu, mu, val.X, val.M)
    acc = iv.mpf(val.chi_term) + val.finite_part
    return lo(acc) <= oracle <= hi(acc)


def test_certify_stops_when_criterion_unreachable(F5):
    # c_6(1, 1) ~ 2.812: the first rung's enclosure already lies above 2
    params = PoincareParams(F5, 6)
    cert = certify_nonvanishing(params, F5.one())
    val = cert.coefficient
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.reason == "criterion unreachable"
    assert (val.X, val.M) == (64, 4)
    assert lo(val.enclosure()) >= 2 and audit_certificate(cert)
    assert cert.to_json()["reason"] == "criterion unreachable"
    assert _oracle_in_enclosure(params, F5.one(), val)


def test_certify_raises_the_dominant_cutoff(F5, monkeypatch):
    # each rung raises the cutoff whose piece of the tail is the larger: X
    # while the omitted norms bound at least the window |j| > M, else M; on
    # this ladder both rise
    params = PoincareParams(F5, 8)
    mu = F5.elt(4, 1)
    rungs, evaluate = [], CoefficientEvaluator.evaluate
    monkeypatch.setattr(CoefficientEvaluator, "evaluate", lambda self, X, M:
                        rungs.append(evaluate(self, X, M)) or rungs[-1])
    cert = certify_nonvanishing(params, mu)
    val = cert.coefficient
    assert cert.verdict == "NONZERO" and cert.reason is None
    assert [(r.X, r.M) for r in rungs] == [(64, 4), (128, 4), (256, 4), (256, 6), (512, 6)]
    for r, up in zip(rungs, rungs[1:]):
        x_rose = r.tail_split.norms >= r.tail_split.window
        assert (up.X, up.M) == ((2 * r.X, r.M) if x_rose else (r.X, r.M + 2))
    assert val is rungs[-1]
    assert cert.margin > 0 and audit_certificate(cert)
    assert "reason" not in cert.to_json()
    assert _oracle_in_enclosure(params, mu, val)


def test_certify_c11_at_weight_8_over_every_small_field():
    # the 75 fields with h+ = 1 and d < 1000, large units included
    # (eps_plus of Q(sqrt 193) is about 10^13): the unit-orbit tail does not
    # grow with the unit, so c_8(1, 1) certifies over each of them
    fields = [F for F in (make_field(d) for d in range(2, 1000) if is_squarefree(d))
              if F.narrow_h1]
    assert len(fields) == 75
    certified = [F.d for F in fields
                 if certify_nonvanishing(PoincareParams(F, 8), F.one()).verdict == "NONZERO"]
    assert len(certified) >= 70 and 193 in certified


def test_certify_budget_exhausted(F5):
    # c_4(1, 1) = 0, so every enclosure straddles 0 and the ladder runs out
    params = PoincareParams(F5, 4)
    cert = certify_nonvanishing(params, F5.one(),
                                CertifyBudget(max_X=256, max_M=6))
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.reason == "budget exhausted" and audit_certificate(cert)
    top = CoefficientEvaluator(params, F5.one(), F5.one()).evaluate(256, 6)
    val = cert.coefficient
    assert (val.X, val.M) == (256, 6) and val.tail == top.tail
    assert lo(val.finite_part) == lo(top.finite_part)
    assert hi(val.finite_part) == hi(top.finite_part)


# with chi = 1 the enclosure is [1 + f - t, 1 + f + t]
@pytest.mark.parametrize("finite, tail, unreachable", [
    ("1.02", "0.01", True),       # [2.01, 2.03]
    ("1", "0", True),             # [2, 2]: |c - 1| = 1 exactly
    ("0.95", "0.01", False),      # [1.94, 1.96]: |c - 1| may be 0.95
    ("0.99", "0.005", False),     # [1.985, 1.995]
    ("0", "0.5", False),          # [0.5, 1.5]
    ("-1.5", "0.25", True),       # [-0.75, -0.25]
    ("-1", "0", True),            # [0, 0]
    ("-0.98", "0.01", False),     # [0.01, 0.03]
    ("-1.02", "0.03", False),     # [-0.05, 0.01]
])
def test_criterion_unreachable_boundary(finite, tail, unreachable):
    val = CoefficientValue(1, iv.mpf(finite), mpmath.mpf(tail), 0, 0, None)
    assert criterion_unreachable(val) == unreachable


def test_negative_cutoffs_rejected(F5):
    params = PoincareParams(F5, 8)
    for X, M in ((-5, 2), (100, -1)):
        with pytest.raises(PreconditionViolated):
            coefficient(params, F5.one(), F5.one(), X, M)
    for kw in ({"max_X": -5}, {"max_M": -1}):
        with pytest.raises(PreconditionViolated):
            CertifyBudget(**kw)


def test_over_budget_terms_take_trivial_bound(F5):
    # a ring over the residue budget gives its term |S| <= N(m) instead of
    # an error; each such term must still contain the exactly summed one
    params = PoincareParams(F5, 8)
    full = CoefficientEvaluator(params, F5.one(), F5.one())
    capped = CoefficientEvaluator(params, F5.one(), F5.one(), enum_budget=10)
    widened = 0
    for cls in full.classes_upto(150):
        for j in (-1, 0, 1):
            b_lo, b_hi = fixed_fractions(capped.term(cls, j))
            a_lo, a_hi = fixed_fractions(full.term(cls, j))
            assert b_lo <= a_lo and a_hi <= b_hi
            widened += cls[3].norm() > 10 and b_hi - b_lo > a_hi - a_lo
    assert widened > 0
    assert capped.evaluate(150, 1).tail == full.evaluate(150, 1).tail


def test_evaluate_shares_one_ring_per_class(F5, monkeypatch):
    # each class's 2M + 1 sums share one ring, built at most once and dead
    # before the next class builds its own; the finite part is bit-identical
    # to terms computed with a fresh ring per call, each class's summed
    # exactly, divided by its norm and rounded outward once
    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    built = []
    real = kloosterman.residue_ring

    def tracked(modulus, *args, **kwargs):
        if any(r() is not None for _, r in built):
            gc.collect()
        assert all(r() is None for _, r in built), "a ring outlived its class"
        ring = real(modulus, *args, **kwargs)
        built.append((modulus.key(), weakref.ref(ring)))
        return ring

    monkeypatch.setattr(kloosterman, "residue_ring", tracked)
    params = PoincareParams(F5, 8)
    ev = CoefficientEvaluator(params, F5.one(), F5.one())
    val = ev.evaluate(200, 3)
    gc.collect()
    assert all(r() is None for _, r in built)
    builds = Counter(key for key, _ in built)
    classes = Counter(cls[3].key() for cls in ev.classes_upto(200)
                      if cls[3].norm() > 1)
    # the value cache starts empty, so "at most once" is exactly once here
    assert len(classes) == 15 and builds == classes, builds - classes

    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    ev2 = CoefficientEvaluator(params, F5.one(), F5.one())
    with prec_guard(ev2.precision):
        acc = iv.mpf(0)
        for cls in ev2.classes_upto(200):
            ends = [fixed_fractions(ev2.term(cls, j)) for j in range(-3, 4)]
            part = [sum(end) / Fraction(cls[1]) for end in zip(*ends)]
            acc += iv.make_mpf(tuple(from_rational(q.numerator, q.denominator,
                                                   ev2.precision, rnd)
                                     for q, rnd in zip(part, (round_floor, round_ceiling))))
        finite = ev2.prefactor() * acc
    assert (lo(finite), hi(finite)) == (lo(val.finite_part), hi(val.finite_part))


def test_evaluators_of_one_params_share_the_class_table(F5, monkeypatch):
    calls = []
    real = RealQuadraticField.balanced_representative

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(RealQuadraticField, "balanced_representative", counted)
    params = PoincareParams(F5, 8)
    a = CoefficientEvaluator(params, F5.one(), F5.one())
    b = CoefficientEvaluator(params, F5.elt(3, -1), F5.one())
    a.evaluate(100, 1)
    b.evaluate(100, 1)
    assert a._classes is b._classes is params._classes
    assert len(calls) == len(params.classes_upto(100)) > 0
    evaluate_together([a, b], 200, 1)
    assert len(calls) == len(params.classes_upto(200))
    with pytest.raises(PreconditionViolated):
        evaluate_together([a, CoefficientEvaluator(PoincareParams(F5, 8),
                                                   F5.one(), F5.one())], 100, 1)
    with pytest.raises(PreconditionViolated):   # one pass runs at one precision
        evaluate_together([a, CoefficientEvaluator(params, F5.one(), F5.one(),
                                                   precision=64)], 100, 1)


def test_recurrence_builds_one_ring_per_modulus(F5, monkeypatch):
    # the three coefficients share one pass over the classes: each modulus
    # is enumerated once in all, and its ring dies with its class
    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    built = []
    real = kloosterman.residue_ring

    def tracked(modulus, *args, **kwargs):
        if any(r() is not None for _, r in built):
            gc.collect()
        assert all(r() is None for _, r in built), "a ring outlived its class"
        ring = real(modulus, *args, **kwargs)
        built.append((modulus.key(), weakref.ref(ring)))
        return ring

    monkeypatch.setattr(kloosterman, "residue_ring", tracked)
    params = PoincareParams(F5, 8)
    recurrence_check_cor45(params, F5.one(), F5.one(), F5.elt(3, 2), 1, 1, 200, 2)
    gc.collect()
    assert all(r() is None for _, r in built)
    builds = Counter(key for key, _ in built)
    moduli = {cls[3].key() for cls in params.classes_upto(200) if cls[3].norm() > 1}
    assert len(moduli) == 15 and builds == Counter(moduli), builds


@pytest.mark.parametrize("d, mu", [(5, (3, -1)), (2, (3, 1))])
@pytest.mark.parametrize("precision", [64, 96])
def test_bessel_arguments_from_powers_of_A(d, mu, precision, monkeypatch):
    # x_i(j) = g_i A^(+-j) / |s_i(c)| must contain the arguments embedded
    # directly from nu eps_plus^j mu, here to 200 bits: the small embedding
    # of eps_plus^j cancels about twice the bit length of its coordinates,
    # so the working precision adds that much
    F = make_field(d)
    nu, mu = F.one(), F.elt(*mu)
    args = []
    monkeypatch.setattr(poincare, "besselj_eval",
                        lambda order, x, prec: args.append(x) or BesselEval((-1, 1, 0), False))
    ev = CoefficientEvaluator(PoincareParams(F, 8), nu, mu, precision=precision)
    for cls in ev.classes_upto(30):
        c1, c2 = cls[2].embeddings(200)
        for j in range(-12, 13):
            del args[:]
            ev.term(cls, j)
            z = nu * F.eps_plus ** j * mu
            bits = 200 + 2 * max(abs(z.a), abs(z.b)).bit_length()
            with prec_guard(bits):
                z1, z2 = z.embeddings(bits)
                direct = (4 * iv.pi * iv.sqrt(z1) / abs(c1),
                          4 * iv.pi * iv.sqrt(z2) / abs(c2))
            for x, y in zip(args, direct):
                x_lo, x_hi = fixed_fractions(x)
                y_lo, y_hi = (Fraction(*to_rational(e)) for e in y._mpi_)
                assert x_lo <= y_lo and y_hi <= x_hi, (cls[3], j)


def test_ladder_order_is_bit_identical(F5):
    # a value does not depend on the cutoffs evaluated before it
    params = PoincareParams(F5, 8)
    mu = F5.elt(3, -1)
    ev = CoefficientEvaluator(params, mu, mu)
    for M in (2, 5, 3):
        got = ev.evaluate(300, M)
        fresh = CoefficientEvaluator(PoincareParams(F5, 8), mu, mu).evaluate(300, M)
        assert (lo(got.finite_part), hi(got.finite_part), got.tail) == \
            (lo(fresh.finite_part), hi(fresh.finite_part), fresh.tail), M


def _raw(x):
    return x._mpi_ if hasattr(x, "_mpi_") else x._mpf_


def _decisions(F):
    """Raw endpoints of a certificate, the recurrence's coefficients, the
    ledger and the thresholds, each computed from scratch."""
    poincare._ledger_cache.clear()
    cert = certify_nonvanishing(PoincareParams(F, 8), F.elt(3, -1),
                                CertifyBudget(1500, 10))
    val = cert.coefficient
    out = [cert.verdict, cert.reason, _raw(val.finite_part), _raw(val.tail),
           _raw(cert.margin)]
    one, p = F.one(), F.elt(3, 2)
    params = PoincareParams(F, 8)
    for val in evaluate_together([CoefficientEvaluator(params, a, b)
                                  for a, b in ((p, p), (one, p * p), (one, one))], 200, 2):
        out += [_raw(val.finite_part), _raw(val.tail)]
    led = effective_constants(F)
    out += [_raw(getattr(led, name)) for name in
            ("A", "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "zetaF", "C")]
    n = unit_ideal(F)
    out += [_raw(threshold_thm32(F, 8, n, n)),
            _raw(threshold_cor33(F, 8, FractionalIdeal(n), n, F.one())),
            _raw(threshold_thm35(F, 8, n))]
    return out


def test_results_do_not_depend_on_the_ambient_precision(F5):
    # each function runs at its own precision, whatever its caller's is
    runs = []
    for bits in (20, 53, 300):
        iv.prec = mp.prec = bits
        runs.append(_decisions(F5))
    assert runs[0] == runs[1] == runs[2]


def test_evaluator_precision_ignores_call_order(F5):
    # a prefactor computed first, or by the tail bound, is the same value
    mu = F5.elt(3, -1)

    def finite(prefactor_first):
        ev = CoefficientEvaluator(PoincareParams(F5, 8), mu, mu, precision=64)
        if prefactor_first:
            ev.prefactor()
        return _raw(ev.evaluate(200, 2).finite_part)

    assert finite(True) == finite(False)


def test_recurrence_coefficients_contain_the_oracle(F5, monkeypatch):
    # the oracle embeds nu eps_plus^j mu directly, so this checks the
    # A^j arguments and the shared pass independently
    seen = []
    real = poincare.evaluate_together

    def spy(evaluators, X, M):
        vals = real(evaluators, X, M)
        seen.extend(zip(evaluators, vals))
        return vals

    monkeypatch.setattr(poincare, "evaluate_together", spy)
    params = PoincareParams(F5, 8)
    recurrence_check_cor45(params, F5.one(), F5.one(), F5.elt(3, 2), 1, 1, 150, 2)
    assert len(seen) == 3
    for ev, val in seen:
        assert val.scale == Fraction(ev.mu.norm()) ** 7
        oracle = poincare_truncated_oracle(params, ev.nu, ev.mu, 150, 2)
        acc = iv.mpf(val.chi_term) + val.finite_part
        assert lo(acc) <= oracle <= hi(acc), (ev.nu, ev.mu)


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
    # zeta_F(4) = zeta(4) L(4, chi_5) in closed form (Washington, Thm. 4.2):
    # zeta(4) = pi^4/90 and, chi_5 being even and real with Gauss sum sqrt 5,
    # L(4, chi_5) = -(sqrt 5/2) (2 pi/5)^4 B_{4,chi}/4! with the generalized
    # Bernoulli number B_{4,chi} = 5^3 sum_a chi_5(a) B_4(a/5)
    enc = zeta_F_enclosure(F5, Fraction(4), 96)
    chi5 = {1: 1, 2: -1, 3: -1, 4: 1}
    b4chi = 5 ** 3 * sum(c * (x ** 4 - 2 * x ** 3 + x ** 2 - Fraction(1, 30))
                         for a, c in chi5.items() for x in [Fraction(a, 5)])
    assert b4chi == -8
    with mpmath.workprec(150):
        pi4 = mpmath.pi ** 4
        value = pi4 / 90 * (-mpmath.sqrt(5) / 2 * pi4 * 16 / 625 * b4chi / 24)
    assert lo(enc) <= value <= hi(enc)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 13, 17])
def test_zeta_F_enclosure_contains_independent_oracles(d):
    F = make_field(d)
    for s in (Fraction(5, 2), Fraction(8, 3), Fraction(29, 10), Fraction(4)):
        oracle = zeta_F_mpmath(F, s)
        old = zeta_F_partial_sum(F, s, 20000)
        for precision in (53, 96):
            enc = zeta_F_enclosure(F, s, precision)
            assert lo(enc) <= oracle <= hi(enc), (d, s, precision)
            assert lo(old) <= lo(enc) and hi(enc) <= hi(old), (d, s, precision)
            assert width(enc) < mpmath.ldexp(oracle, 8 - precision), (d, s, precision)
    for s in (Fraction(1), Fraction(1, 2), Fraction(-3)):
        with pytest.raises(PreconditionViolated, match="s > 1"):
            zeta_F_enclosure(F, s, 96)


def _tail_pieces(tail, split):
    return tail, split.norms, split.window


def test_a_f_tails_are_bit_identical(F5):
    # the pieces (tail, norms, window) as (mantissa, exponent) at 96 bits:
    # each lies above the 200-bit oracle of its formula and within 2^-80 of
    # it
    ev = CoefficientEvaluator(PoincareParams(F5, 8), F5.one(), F5.one())
    got = _tail_pieces(*ev.tail_bound(500, 3))
    with mpmath.workprec(200):
        for g, o in zip(got, tail_oracle(F5, 8, F5.one(), F5.one(), 500, 3)):
            assert o <= g <= o * (1 + mpmath.mpf(2) ** -80)
    # the window piece is the parent's, bit for bit
    assert [v._mpf_[1:3] for v in got] == [
        (16841153963734909812883798795, -105), (71850056590172616376099388423, -134),
        (1052572114368984402076813629, -101)]


@pytest.mark.parametrize("d", [2, 5, 13])
@pytest.mark.parametrize("k", [6, 8, 12, 24])
def test_tail_pieces_bound_the_oracle(d, k):
    # every piece is an upper bound on the 200-bit value of its own formula,
    # and at 96 bits loses under 2^-80 of it
    F = make_field(d)
    params = PoincareParams(F, k)
    for X, nu, mu in ((60, 1, 1), (400, 2, 1), (1500, 1, 2)):
        nu, mu = F.from_int(nu), F.from_int(mu)
        got = _tail_pieces(*CoefficientEvaluator(params, nu, mu).tail_bound(X, 3))
        with mpmath.workprec(200):
            for g, o in zip(got, tail_oracle(F, k, nu, mu, X, 3)):
                assert o <= g <= o * (1 + mpmath.mpf(2) ** -80), X


@pytest.mark.parametrize("d", [2, 5, 13, 193])
def test_orbit_weights_bound_the_brute_force_orbit(d):
    # for every class whose ideal has norm N(c)/N(cnd) <= 300, the envelopes
    # summed over |j| <= 40 at 200 bits stay below the j = 0 term rho^n
    # times the orbit weight: the exact one, |log rho|/log A + 1 +
    # 2/(1 - A^-n), and the package's, read from `_log_weight`
    F = make_field(d)
    for k in (6, 8, 12, 24):
        n = k - 1
        ev = CoefficientEvaluator(PoincareParams(F, k), F.one(), F.one())
        classes = ev.classes_upto(300 * ev.n_o)
        assert len(classes) >= 100
        A, orbits = orbit_oracle(F, k, F.one(), F.one(), [cls[2] for cls in classes], 40)
        with mpmath.workprec(200):
            const = 1 + 2 / (1 - A ** -n)
            for (_t, m, _c, _mod), (orbit, rho) in zip(classes, orbits):
                t = m / ev.n_o
                exact = rho ** n * (abs(mp.log(rho)) / mp.log(A) + const)
                steps = ev._log_weight(t - 1, t)
                assert steps >= abs(poincare.LOG_STEPS * mp.log(rho, 2)), (k, m)
                package = rho ** n * (steps * mp.log(2) / (poincare.LOG_STEPS * mp.log(A))
                                      + const)
                assert orbit <= exact <= package, (k, m)


def test_log2_floor_matches_the_oracle():
    # exact floors of LOG_STEPS log2 x, at rationals on both sides of 1, at
    # powers of 2 and next to them
    xs = [Fraction(p, q) for p in range(1, 60) for q in range(1, 60)]
    xs += [Fraction(2) ** e + delta for e in range(-30, 31)
           for delta in (0, Fraction(1, 10 ** 9), -Fraction(1, 2 ** 40))]
    for x in xs:
        assert poincare._log2_floor(x) == log2_floor_oracle(x), x


def test_a_later_rung_tail_calls_no_exp_or_log(F5, monkeypatch):
    # the constants of the tail come once per evaluator; a rung's sums are
    # integer roots and bit lengths, so exp and log stay out of the per-rung
    # tail
    calls = Counter()
    for name in ("exp", "log"):
        monkeypatch.setattr(iv, name, lambda *a, _f=getattr(iv, name), _n=name, **kw:
                            (calls.update([_n]), _f(*a, **kw))[1])
    ev = CoefficientEvaluator(PoincareParams(F5, 8), F5.one(), F5.one())
    ev.tail_bound(200, 2)
    assert calls["log"]          # the orbit weight's logarithms of A, 2 and P0
    calls.clear()
    ev.tail_bound(800, 4)
    assert calls == Counter()


@pytest.mark.parametrize("k", [-4, 0, 1, 2, 3, 5])
def test_weights_outside_the_theorems_rejected(F5, k):
    O = unit_ideal(F5)
    for build in (lambda: PoincareParams(F5, k), lambda: HeckeContext(k, O),
                  lambda: threshold_thm32(F5, k, O, O),
                  lambda: threshold_cor33(F5, k, FractionalIdeal(O), O, F5.one()),
                  lambda: threshold_thm35(F5, k, O)):
        with pytest.raises(PreconditionViolated, match="even and >= 4"):
            build()


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


@pytest.mark.parametrize("eta", [Fraction(1, 2), Fraction(1, 3)])
def test_threshold_cor33_follows_its_ledger(F5, eta):
    # at alpha = 1, Cor. 3.3 is Thm. 3.2 on c itself, at the same eta
    O = unit_ideal(F5)
    led = effective_constants(F5, eta)
    c33 = threshold_cor33(F5, 8, FractionalIdeal(O), O, F5.one(), led)
    assert _raw(c33) == _raw(threshold_thm32(F5, 8, O, O, eta, led))


def test_thresholds_refuse_a_ledger_of_another_eta(F5):
    O = unit_ideal(F5)
    third = effective_constants(F5, Fraction(1, 3))
    with pytest.raises(PreconditionViolated, match="eta"):
        threshold_thm32(F5, 8, O, O, Fraction(1, 2), third)
    with pytest.raises(PreconditionViolated, match="eta"):
        threshold_thm35(F5, 8, O, third)
    with pytest.raises(PreconditionViolated, match="eta"):
        threshold_thm32(F5, 8, O, O, Fraction(1, 3), effective_constants(F5))


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
    rep = recurrence_check_cor45(params, F5.one(), F5.one(), p, 1, 1, 300, 3)
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


def _computed(ev):
    """The (class, j) whose terms `ev` has computed and keeps."""
    return {(key, j) for key, entry in ev._terms.items() for j in entry[2]}


@pytest.mark.parametrize("d, k, ladder", [
    (5, 12, ((64, 4), (128, 4), (128, 6))),
    (5, 8, ((150, 1), (150, 2))),
    (5, 8, ((150, 2), (150, 1))),
])
def test_bounded_terms_do_not_depend_on_the_ladder(d, k, ladder):
    # a term bounded under one rung's budget and computed under a later
    # one's (or the reverse) leaves each value bit-identical to a fresh
    # evaluation at the same cutoffs
    F = make_field(d)
    ev = CoefficientEvaluator(PoincareParams(F, k), F.one(), F.one())
    never_computed, bounded_then_computed, bounded = set(), set(), 0
    for X, M in ladder:
        before = _computed(ev)
        got = ev.evaluate(X, M)
        bounded += got.terms_bounded
        bounded_then_computed |= never_computed & (_computed(ev) - before)
        never_computed |= {(cls[3].key(), j) for cls in ev.classes_upto(X)
                           for j in range(-M, M + 1)} - _computed(ev)
        fresh = CoefficientEvaluator(PoincareParams(F, k), F.one(), F.one()).evaluate(X, M)
        assert json.dumps(got.to_json()) == json.dumps(fresh.to_json()), (X, M)
        assert (got.terms_bounded, got.terms_computed) == \
            (fresh.terms_bounded, fresh.terms_computed), (X, M)
    assert bounded > 0
    # on a rising ladder some term is bounded first and computed later
    assert bounded_then_computed or ladder[0][1] > ladder[-1][1]


@pytest.mark.parametrize("d, k, mu, X, M", [
    (5, 12, (1, 0), 150, 1),
    (5, 8, (1, 0), 150, 1),
    (2, 8, (3, 1), 300, 2),
    (13, 8, (1, 0), 600, 1),
])
def test_bounded_terms_contain_the_oracle(d, k, mu, X, M):
    # at a small unit cutoff the window tail is large and some terms are
    # only bounded; the finite part still holds the 200-bit truncated sum
    F = make_field(d)
    mu = F.elt(*mu)
    params = PoincareParams(F, k)
    val = coefficient(params, mu, mu, X, M)
    classes = len(params.classes_upto(X))
    assert val.terms_bounded > 0
    assert val.terms_bounded + val.terms_computed == classes * (2 * M + 1)
    assert _oracle_in_enclosure(params, mu, val)
