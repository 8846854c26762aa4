"""Acceptance suite: one criterion per test (sub-cases parametrized).

Each check prints a PASS/FAIL line (run pytest with -s to stream them).
Criteria 5 (k = 4 and k = 6) and the width clause of criterion 7 are
implemented exactly as stated and fail against this implementation; the
analysis of why no sound implementation can satisfy them is recorded in the
project's decision log.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv, mp

from hilbertpoincare.field import make_field
from hilbertpoincare.hecke import (CoeffFunction, HeckeContext,
                                   check_multiplicativity, hecke_action,
                                   pairing)
from hilbertpoincare.ideals import (FractionalIdeal, different_ideal,
                                    element_ideal, ideal_product, ideal_sum,
                                    ideals_of_norm, is_principal,
                                    principal_ideal, unit_ideal)
from hilbertpoincare.intervals import hi, lo, overlaps, sup_abs
from hilbertpoincare.kloosterman import (KloostermanQuery, cor43_check,
                                         kloosterman_float, lemma41_value,
                                         selberg_check, weil_bound)
from hilbertpoincare.poincare import (CertifyBudget, PoincareParams,
                                      audit_certificate, certify_nonvanishing,
                                      coefficient, coefficient_tilde,
                                      effective_constants,
                                      recurrence_check_cor45,
                                      threshold_thm32)

from oracles import besselj_interval, poincare_truncated_oracle


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}" + (f" -- {detail}" if detail else ""))
    return ok


# -- 1: Selberg identity -----------------------------------------------------

@pytest.mark.parametrize("d", [5, 2])
def test_acceptance_1_selberg(d):
    F = make_field(d)
    t0 = time.time()
    checked = failures = 0
    for n in range(1, 201):
        for idl in ideals_of_norm(F, n):
            g = is_principal(idl)
            assert g is not None
            grid = [F.zero(), F.one(), F.from_int(2), F.omega(), g]
            for nu in grid:
                for mu in grid:
                    rep = selberg_check(F, nu, mu, g)
                    checked += 1
                    if not rep.holds:
                        failures += 1
    el = time.time() - t0
    ok = failures == 0 and el < 300
    report(1, f"selberg identity d={d}", ok,
           f"{checked} identities, {failures} failures, {el:.0f}s")
    assert failures == 0
    assert el < 300, f"runtime target 5 minutes exceeded: {el:.0f}s"


# -- 2: closed-form table ----------------------------------------------------

def test_acceptance_2_lemma41_table(F5):
    cases = 0
    for p in (F5.from_int(2), F5.elt(2, 1), F5.elt(3, 2)):
        for e1 in (F5.one(), F5.eps_plus):
            for e2 in (F5.one(), F5.eps_plus):
                for rmul in (0, 1, 2):
                    for e in (1, 2, 3):
                        v = lemma41_value(F5, p, e1, e2, p * rmul, e)
                        assert v == (-1 if e == 1 else 0)
                        cases += 1
    report(2, "prime-power closed form", True, f"{cases} cases exact")


# -- 3: two-variable recurrence for Kloosterman sums -------------------------

def test_acceptance_3_cor43(F5):
    rng = random.Random(20260808)
    primes = [F5.from_int(2), F5.elt(2, 1), F5.elt(3, 2), F5.elt(3, 1)]
    done = 0
    while done < 50:
        p = rng.choice(primes)
        pn = abs(p.norm())
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        extra = rng.choice([F5.one(), F5.from_int(2), F5.elt(1, 1), F5.elt(2, 1)])
        q = p * extra
        if abs(q.norm()) > 100:
            continue
        a = F5.elt(rng.randint(-3, 3), rng.randint(-3, 3))
        b = F5.elt(rng.randint(-3, 3), rng.randint(-3, 3))
        if a.is_zero() or b.is_zero():
            continue
        pid = principal_ideal(p)
        if pid.contains(a) or pid.contains(b):
            continue
        rep = cor43_check(F5, a / F5.delta, b / F5.delta, q, p, m, n)
        assert rep.holds, (a, b, q, p, m, n)
        done += 1
    report(3, "kloosterman recurrence", True, "50 sampled identities exact")


# -- 4: Weil-type bound -------------------------------------------------------

@pytest.mark.parametrize("d", [5, 2, 3])
def test_acceptance_4_weil(d):
    F = make_field(d)
    rng = random.Random(97 + d)
    max_ratio = mpmath.mpf(0)
    violations = done = 0
    while done < 500:
        n = rng.randint(2, 60)
        opts = ideals_of_norm(F, n)
        if not opts:
            continue
        mod = rng.choice(opts)
        box = ideal_product(mod, different_ideal(F))
        c = F.elt(rng.randint(-4, 4) * box.a + rng.randint(-4, 4) * box.b,
                  rng.randint(-4, 4) * box.c)
        if c.is_zero():
            continue
        dom = element_ideal(c) / FractionalIdeal(box)

        def sample():
            u, v = rng.randint(-8, 8), rng.randint(-8, 8)
            return F.elt(u * dom.num.a + v * dom.num.b, v * dom.num.c, dom.den)

        nu, mu = sample(), sample()
        q = KloostermanQuery(F, nu, mu, mod, c)
        re, im = kloosterman_float(q, 80)
        mag = mpmath.sqrt(max(abs(lo(re)), abs(hi(re))) ** 2
                          + max(abs(lo(im)), abs(hi(im))) ** 2)
        ratio = mag / lo(weil_bound(q).interval(80))
        max_ratio = max(max_ratio, ratio)
        if ratio > 1:
            violations += 1
        done += 1
    ok = violations == 0
    report(4, f"weil bound d={d}", ok,
           f"500 queries, max ratio {mpmath.nstr(max_ratio, 5)}")
    assert violations == 0


# -- 5: non-vanishing certificates -------------------------------------------

CERT_BUDGETS = {4: CertifyBudget(max_X=1500, max_M=10),
                6: CertifyBudget(max_X=1500, max_M=10)}


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_acceptance_5_certificates(F5, k):
    params = PoincareParams(F5, k)
    budget = CERT_BUDGETS.get(k)
    cert = certify_nonvanishing(params, F5.one(), budget)
    # oracle agreement at the certificate's own cutoffs (interval containment)
    oracle = poincare_truncated_oracle(params, F5.one(), F5.one(),
                                       cert.coefficient.X, cert.coefficient.M)
    acc = iv.mpf(cert.coefficient.chi_term) + cert.coefficient.finite_part
    contained = bool(lo(acc) <= oracle <= hi(acc))
    ok = (cert.verdict == "NONZERO" and cert.margin > 0 and contained
          and audit_certificate(cert))
    report(5, f"certificate k={k}", ok,
           f"verdict {cert.verdict}, margin {mpmath.nstr(mpmath.mpf(cert.margin), 5)}, "
           f"oracle in enclosure: {contained}")
    assert contained, "200-bit direct-summation oracle escaped the enclosure"
    assert cert.verdict == "NONZERO" and cert.margin > 0, (
        f"k={k}: criterion requires NONZERO with positive margin; got "
        f"{cert.verdict} (margin {mpmath.nstr(mpmath.mpf(cert.margin), 5)}). "
        "For k=4 the weight-4 cusp space over Q(sqrt 5) is trivial, so the "
        "coefficient is exactly 0 and |c-1| = 1; for k=6 the true coefficient "
        "is ~2.812, so |c-1| = 1.81 > 1. No sound implementation of the "
        "stated criterion can certify these; see notes/decisions.md.")


# -- 6: threshold consistency -------------------------------------------------

def test_acceptance_6_threshold(F5):
    O = unit_ideal(F5)
    led = effective_constants(F5, Fraction(1, 2))
    th = threshold_thm32(F5, 8, O, O, Fraction(1, 2), led)
    admitted = th >= 1
    if admitted:
        n = 1
        while n < th:
            for idl in ideals_of_norm(F5, n):
                g = is_principal(idl)
                mu = F5.balanced_representative(g)[0]
                cert = certify_nonvanishing(PoincareParams(F5, 8), mu)
                assert cert.verdict == "NONZERO"
            n += 1
        report(6, "threshold consistency", True, f"threshold {float(th):.4g}")
    else:
        ths = [threshold_thm32(F5, k, O, O, Fraction(1, 2), led)
               for k in range(4, 42, 2)]
        mono_k = all(t > 0 and mpmath.isfinite(t) for t in ths) and \
            all(b > a for a, b in zip(ths, ths[1:]))
        lvls = [n for n in range(1, 101) if ideals_of_norm(F5, n)]
        tl = [threshold_thm32(F5, 8, O, ideals_of_norm(F5, n)[0],
                              Fraction(1, 2), led) for n in lvls]
        mono_n = all(b > a for a, b in zip(tl, tl[1:]))
        # the k-ladder does admit mu = 1 at its top; those must certify
        certified_top = True
        for k in range(4, 42, 2):
            if threshold_thm32(F5, k, O, O, Fraction(1, 2), led) > 1:
                cert = certify_nonvanishing(PoincareParams(F5, k), F5.one())
                certified_top &= cert.verdict == "NONZERO"
        ok = mono_k and mono_n and certified_top
        report(6, "threshold consistency (degraded mode)", ok,
               f"threshold(k=8) = {float(th):.4g} < 1; monotone in k: {mono_k}, "
               f"in N(n): {mono_n}; admitted top-of-ladder certified: {certified_top}")
        assert ok


# -- 7: coefficient recurrence ------------------------------------------------

def test_acceptance_7_recurrence(F5):
    params = PoincareParams(F5, 8)
    rep = recurrence_check_cor45(params, F5.one(), F5.one(), F5.elt(3, 2),
                                 1, 1, 10**4, 3)
    meets = lo(rep.lhs) <= hi(rep.rhs) and lo(rep.rhs) <= hi(rep.lhs)
    ct11 = coefficient_tilde(params, F5.one(), F5.one(), 400, 3)
    scale = mpmath.mpf(11 ** 7) * sup_abs(ct11.enclosure())
    budget = mpmath.mpf("1e-3") * scale
    width_ok = rep.shared_width < budget
    report(7, "coefficient recurrence", meets and width_ok,
           f"intersect: {meets}; shared width {mpmath.nstr(rep.shared_width, 4)} "
           f"vs budget {mpmath.nstr(budget, 4)}")
    assert meets, "LHS and RHS enclosures must intersect"
    assert width_ok, (
        f"shared width {mpmath.nstr(rep.shared_width, 4)} exceeds "
        f"{mpmath.nstr(budget, 4)}. At M = 3 the true omitted unit-window "
        "terms of ct(1, p^2) already sum past the stated budget, so no sound "
        "enclosure can meet it; see notes/decisions.md.")


# -- 8: symmetry and unit invariance -------------------------------------------

def _tot_pos_sample(F, rng, bound=5):
    while True:
        x = F.elt(rng.randint(1, bound), rng.randint(-bound, bound))
        if not x.is_zero() and x.is_totally_positive() and abs(x.norm()) <= 40:
            return x


def test_acceptance_8_symmetry_unit_invariance(F5):
    params = PoincareParams(F5, 8)
    rng = random.Random(515)
    sym_ok = unit_ok = 0
    for _ in range(50):
        nu, mu = _tot_pos_sample(F5, rng), _tot_pos_sample(F5, rng)
        a = coefficient_tilde(params, nu, mu, 150, 2)
        b = coefficient_tilde(params, mu, nu, 150, 2)
        if overlaps(a.enclosure(), b.enclosure()):
            sym_ok += 1
    for _ in range(50):
        nu, mu = _tot_pos_sample(F5, rng), _tot_pos_sample(F5, rng)
        a = coefficient(params, nu, mu, 150, 2)
        b = coefficient(params, nu, mu * F5.eps_plus, 150, 2)
        if overlaps(a.enclosure(), b.enclosure()):
            unit_ok += 1
    ok = sym_ok == 50 and unit_ok == 50
    report(8, "tilde symmetry + unit invariance", ok,
           f"symmetry {sym_ok}/50, unit invariance {unit_ok}/50")
    assert ok


# -- 9: Hecke pairing ----------------------------------------------------------

def test_acceptance_9_hecke(F5):
    rng = random.Random(909)
    ctx = HeckeContext(8, unit_ideal(F5))
    norms = [n for n in range(1, 201) if ideals_of_norm(F5, n)]

    def rand_ideal():
        return rng.choice(ideals_of_norm(F5, rng.choice(norms)))

    def rand_f(m=6):
        f = CoeffFunction()
        for _ in range(rng.randint(1, m)):
            f[rand_ideal()] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return f

    for _ in range(200):
        m, q, f = rand_ideal(), rand_ideal(), rand_f()
        assert pairing(ctx, m, q, f) == pairing(ctx, q, m, f)
    for _ in range(100):
        f = rand_f()
        assert hecke_action(ctx, unit_ideal(F5), f) == f
    done = 0
    while done < 100:
        m, q = rand_ideal(), rand_ideal()
        if not ideal_sum(m, q).is_unit_ideal():
            continue
        assert check_multiplicativity(ctx, m, q, rand_f(4))
        done += 1
    report(9, "hecke pairing/identity/multiplicativity", True,
           "200 + 100 + 100 exact checks")


# -- 10: Bessel soundness -------------------------------------------------------

def test_acceptance_10_bessel():
    rng = random.Random(1010)
    mp.prec = 220
    env_viol = cont_viol = 0
    for _ in range(1000):
        order = rng.randint(1, 19)
        x = mpmath.mpf(rng.random()) * 50
        value, _ = besselj_interval(order, iv.mpf(x), 64)
        truth = mpmath.besselj(order, x)
        if not (lo(value) <= truth <= hi(value)):
            cont_viol += 1
        # the factorial envelope of the tail and the term bounds (DLMF 10.14.4)
        env = min(mpmath.mpf(1), (x / 2) ** order / math.factorial(order))
        if abs(truth) > env + mpmath.mpf("1e-40"):
            env_viol += 1
    ok = cont_viol == 0 and env_viol == 0
    report(10, "bessel soundness", ok,
           f"containment misses {cont_viol}/1000, envelope violations {env_viol}")
    assert ok


# -- 11: determinism / cache -----------------------------------------------------

ACCEPTANCE_COMMANDS = [
    ["field-info", "--d", "5"],
    ["field-info", "--d", "2"],
    ["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "0", "--c", "2"],
    ["kloosterman", "--d", "5", "--nu", "1/delta", "--mu", "1/delta", "--c", "2"],
    ["selberg-check", "--d", "5", "--max-norm-q", "25"],
    ["weil-audit", "--d", "5", "--samples", "40", "--seed", "11"],
    ["certify", "--d", "5", "--k", "8", "--level", "1", "--mu", "1"],
    ["thresholds", "--d", "5", "--k", "8", "--level", "1", "--eta", "1/2"],
    ["recurrence", "--d", "5", "--k", "8", "--p", "(3,2)", "--x", "200",
     "--big-m", "2"],
    ["hecke-check", "--d", "5", "--k", "8", "--level", "1", "--samples", "50"],
]


def test_acceptance_11_determinism():
    from click.testing import CliRunner
    from hilbertpoincare import kloosterman as kl
    from hilbertpoincare.cli import main
    outputs = []
    kl._EXACT_CACHE.clear()   # cold once: every exact value of the warm phase is a hit
    for phase in ("cold", "warm"):
        phase_out = []
        for cmd in ACCEPTANCE_COMMANDS:
            r = CliRunner().invoke(main, cmd)
            assert r.exit_code in (0, 3), (cmd, r.output)
            phase_out.append(r.output)
        outputs.append(phase_out)
    mismatches = sum(1 for a, b in zip(*outputs) if a != b)
    report(11, "cold/warm determinism", mismatches == 0,
           f"{len(ACCEPTANCE_COMMANDS)} commands, {mismatches} byte differences")
    assert mismatches == 0
