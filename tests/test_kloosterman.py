import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from hilbertpoincare import kloosterman
from hilbertpoincare.errors import (BudgetExceeded, MembershipViolated,
                                    PreconditionViolated)
from hilbertpoincare.field import make_field
from hilbertpoincare.ideals import (FractionalIdeal, different_ideal, divisors,
                                    element_ideal, ideal_from_generators,
                                    ideal_product, ideals_of_norm, is_principal,
                                    principal_ideal, unit_ideal)
from hilbertpoincare.intervals import contains, hi, lo
from hilbertpoincare.kloosterman import (KloostermanQuery, SelbergTable, cor43_check,
                                         kloosterman_exact, kloosterman_float,
                                         kloosterman_symmetry_check,
                                         lemma41_value, principal_kloosterman,
                                         selberg_check, unit_twist_check,
                                         weil_bound)

from oracles import in_kloosterman_domain, slopes_by_fractions


def test_membership_check(F5):
    two = principal_ideal(F5.from_int(2))
    # nu must be in c*(m d)^{-1} = (2)*((2) d)^{-1} = d^{-1}
    KloostermanQuery(F5, F5.one() / F5.delta, F5.zero(), two, F5.from_int(2))
    with pytest.raises(MembershipViolated):
        KloostermanQuery(F5, F5.one() / (F5.delta * F5.from_int(2)),
                         F5.zero(), two, F5.from_int(2))


def test_membership_matches_ideal_oracle():
    """Trace integrality on the HNF basis of m agrees with the
    fractional-ideal test of nu, mu in c*(m d)^{-1}; for members every slope
    denominator divides m.a, which bounds the cyclotomic order by N(m)."""
    rng = random.Random(41)
    members = outsiders = 0
    for d in (2, 3, 5, 6, 7, 13, 17, 21, 29):
        F = make_field(d)
        done = 0
        while done < 200:
            opts = ideals_of_norm(F, rng.randint(1, 40))
            if not opts:
                continue
            mod = rng.choice(opts)
            c = F.elt(rng.randint(-5, 5), rng.randint(-5, 5))
            if c.is_zero():
                continue
            dens = (1, 2, mod.a, F.D, mod.norm() * F.D)
            nu, mu = (F.elt(rng.randint(-9, 9), rng.randint(-9, 9), rng.choice(dens))
                      for _ in range(2))
            if rng.random() < 0.5:
                mu = F.zero()
            expected = (in_kloosterman_domain(F, nu, mod, c)
                        and in_kloosterman_domain(F, mu, mod, c))
            try:
                q = KloostermanQuery(F, nu, mu, mod, c)
            except MembershipViolated:
                assert not expected, (d, nu, mu, mod, c)
                outsiders += 1
            else:
                assert expected, (d, nu, mu, mod, c)
                assert mod.a % math.lcm(*(t.denominator for t in q.slopes)) == 0
                assert all(0 <= t < 1 for t in q.trace_data())
                members += 1
            done += 1
    assert members >= 150 and outsiders >= 150, (members, outsiders)


def _domain_element(F, mod, c, rng):
    """A random lattice point of c*(m d)^{-1}: a member, carrying a denominator."""
    dom = element_ideal(c) / FractionalIdeal(ideal_product(mod, different_ideal(F)))
    u, v = rng.randint(-9, 9), rng.randint(-9, 9)
    return F.elt(u * dom.num.a + v * dom.num.b, v * dom.num.c, dom.den)


@pytest.mark.parametrize("d", (2, 3, 5, 13))
def test_integer_slopes_match_fraction_traces(d):
    """The integer slopes and membership test agree with Tr(t/c), Tr(t*omega/c)
    mod 1 from Fraction traces, for nu, mu and c with denominators and signs."""
    F = make_field(d)
    rng = random.Random(400 + d)
    members = outsiders = 0
    while members + outsiders < 300:
        opts = ideals_of_norm(F, rng.randint(1, 50))
        if not opts:
            continue
        mod = rng.choice(opts)
        c = F.elt(rng.randint(-7, 7), rng.randint(-7, 7), rng.choice((1, 2, 3, 7)))
        if c.is_zero():
            continue
        if rng.random() < 0.5:
            nu, mu = (_domain_element(F, mod, c, rng) for _ in range(2))
        else:
            nu, mu = (F.elt(rng.randint(-9, 9), rng.randint(-9, 9),
                            rng.choice((1, 2, 5, mod.a, F.D))) for _ in range(2))
        slopes, member = slopes_by_fractions(F, nu, mu, mod, c)
        try:
            q = KloostermanQuery(F, nu, mu, mod, c)
        except MembershipViolated:
            assert not member, (d, nu, mu, mod, c)
            outsiders += 1
        else:
            assert member and q.trace_data() == slopes, (d, nu, mu, mod, c)
            members += 1
    assert members >= 120 and outsiders >= 60, (members, outsiders)


def test_cache_keys_pinned():
    # the value cache is keyed by these tuples: (d, modulus key, four reduced slopes)
    F5, F2, F13 = make_field(5), make_field(2), make_field(13)
    q = KloostermanQuery(F5, F5.one() / F5.delta, F5.one() / F5.delta,
                         principal_ideal(F5.from_int(2)), F5.from_int(2))
    assert q.cache_key() == (5, (5, 2, 0, 2), (1, 2), (0, 1), (1, 2), (0, 1))
    q = KloostermanQuery(F2, F2.elt(-11, 1, 70), F2.elt(0, -1, 20),
                         ideals_of_norm(F2, 7)[-1], F2.elt(-3, 2, 5))
    assert q.cache_key() == (2, (2, 7, 4, 1), (1, 7), (3, 7), (0, 1), (0, 1))
    q = KloostermanQuery(F13, F13.elt(4167, -1, 234), F13.elt(-4047, -5, 234),
                         ideals_of_norm(F13, 12)[-1], F13.elt(2, -3, 3))
    assert q.cache_key() == (13, (13, 6, 4, 2), (1, 6), (1, 6), (5, 6), (5, 6))


def test_exact_examples(F5):
    d = F5.delta
    assert principal_kloosterman(F5, F5.one() / d, F5.zero(),
                                 F5.from_int(2)).as_int() == -1
    assert principal_kloosterman(F5, F5.one() / d, F5.one() / d,
                                 F5.from_int(2)).as_int() == -1
    q = KloostermanQuery(F5, F5.one(), F5.one(), unit_ideal(F5), F5.one())
    assert kloosterman_exact(q).as_int() == 1


def test_float_encloses_exact(F5):
    d = F5.delta
    q = KloostermanQuery(F5, F5.one() / d, F5.zero(),
                         principal_ideal(F5.from_int(2)), F5.from_int(2))
    re, im = kloosterman_float(q, 64)
    assert contains(re, -1) and contains(im, 0)
    q1 = KloostermanQuery(F5, F5.one(), F5.one(), unit_ideal(F5), F5.one())
    re, im = kloosterman_float(q1, 64)
    assert contains(re, 1) and contains(im, 0)


def test_weil_bound_examples(F5):
    q0 = KloostermanQuery(F5, F5.one(), F5.one(), unit_ideal(F5), F5.one())
    wb0 = weil_bound(q0)
    assert wb0.coeff ** 2 * wb0.radicand == Fraction(64 * 5)  # (2^3 sqrt5)^2
    q = KloostermanQuery(F5, F5.one() / F5.delta, F5.zero(),
                         principal_ideal(F5.from_int(2)), F5.from_int(2))
    wb = weil_bound(q)
    assert wb.coeff ** 2 * wb.radicand == Fraction((32) ** 2 * 5)  # 32 sqrt 5


def test_lemma41_table(F5):
    d = F5.delta
    two = F5.from_int(2)
    p5 = F5.elt(2, 1)
    p11 = F5.elt(3, 2)
    eps = F5.eps_plus
    for p in (two, p5, p11):
        for e1 in (F5.one(), eps):
            for e2 in (F5.one(), eps):
                for rmul in (0, 1, 2):
                    r = p * rmul
                    for e in (1, 2, 3):
                        if p == p11 and e == 3:
                            continue  # keep the unit test fast; acceptance covers it
                        v = lemma41_value(F5, p, e1, e2, r, e)
                        assert v == (-1 if e == 1 else 0)
    # exponent 4 spot checks (modulus norms 256 and 625)
    assert lemma41_value(F5, two, F5.one(), eps, two * 2, 4) == 0
    assert lemma41_value(F5, p5, eps, F5.one(), F5.zero(), 4) == 0
    with pytest.raises(PreconditionViolated):
        lemma41_value(F5, two, F5.one(), F5.one(), F5.one(), 1)  # p does not divide r


def test_result_checks_survive_python_O():
    # python -O deletes assert statements; the checks of a computed result
    # (Lemma 4.1's closed form, an ideal factorization's product) must raise
    script = textwrap.dedent("""
        from hilbertpoincare import ideals, kloosterman
        from hilbertpoincare.cyclotomic import CyclotomicInteger
        from hilbertpoincare.field import make_field
        F = make_field(5)
        kloosterman.principal_kloosterman = lambda *a, **kw: CyclotomicInteger.from_int(7)
        try:
            kloosterman.lemma41_value(F, F.from_int(2), F.one(), F.one(), F.zero(), 1)
        except AssertionError as exc:
            print("raised:", exc)
        ideals.valuation_ideal = lambda x, pr: 0
        try:
            ideals.factor_ideal(ideals.principal_ideal(F.from_int(10)))
        except AssertionError as exc:
            print("raised:", exc)
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    assert lines[0].startswith("raised: closed form violated"), lines
    assert lines[1].startswith("raised: factorization of"), lines


def test_selberg_examples(F5):
    rep = selberg_check(F5, F5.one(), F5.one(), F5.from_int(2))
    assert rep.holds and rep.lhs.as_int() == -1 and rep.rhs.as_int() == -1
    rep = selberg_check(F5, F5.from_int(2), F5.from_int(2), F5.from_int(2))
    assert rep.holds and rep.lhs.as_int() == 3
    rep = selberg_check(F5, F5.elt(1, 2), F5.elt(0, 3), F5.one())
    assert rep.holds and rep.lhs.as_int() == 1
    rep = selberg_check(F5, F5.zero(), F5.zero(), F5.from_int(2))
    assert rep.holds and rep.lhs.as_int() == 3  # phi((2))


def test_selberg_generator_independence(F5):
    # replacing the divisor generator by an associate must not change terms
    nu = mu = F5.from_int(2)
    q = F5.from_int(2)
    d = F5.delta
    g1 = F5.from_int(2)
    g2 = F5.from_int(2) * F5.eps_plus
    t1 = principal_kloosterman(F5, F5.one() / d, (nu * mu) / (g1 * g1) / d, q / g1)
    t2 = principal_kloosterman(F5, F5.one() / d, (nu * mu) / (g2 * g2) / d, q / g2)
    assert (t1 - t2).is_zero()


def test_selberg_outside_hypotheses_flag(F3):
    # Q(sqrt 3) has no totally positive different generator at all
    with pytest.raises(PreconditionViolated):
        selberg_check(F3, F3.one(), F3.one(), F3.from_int(2))
    # Q(sqrt 10) has one (3 + sqrt 10 has norm -1) but class number 2
    F10 = make_field(10)
    assert selberg_check(F10, F10.one(), F10.one(), F10.from_int(2)).outside_hypotheses
    # (2) = P^2 there with P = <2, sqrt 10> not principal, so the divisor
    # sum of (2, 2, 2) is not defined: the report is skipped, not raised
    two = F10.from_int(2)
    rep = selberg_check(F10, two, two, two)
    assert rep.holds is None and rep.rhs is None and rep.outside_hypotheses
    F5 = make_field(5)
    assert not selberg_check(F5, F5.one(), F5.one(), F5.from_int(2)).outside_hypotheses


def test_skipped_selberg_triple_computes_no_sum(monkeypatch):
    # the divisors' generators are resolved before the left-hand side, so a
    # triple with a non-principal divisor sums nothing
    calls = []
    monkeypatch.setattr(kloosterman, "kloosterman_exact",
                        lambda *args, **kw: calls.append(args))
    F10 = make_field(10)
    two = F10.from_int(2)
    rep = selberg_check(F10, two, two, two)
    assert rep.holds is None and rep.lhs is None and rep.rhs is None
    assert calls == []


def _full_grid(F, q):
    """The `selberg-check --grid full` elements at q."""
    return [F.zero(), F.one(), F.from_int(2), F.omega(), q,
            F.elt(1, 1), F.elt(2, 1), q * 2, F.elt(-1, 2)]


def _same_report(a, b):
    if a.outside_hypotheses != b.outside_hypotheses or a.holds != b.holds:
        return False
    if a.holds is None:
        return a.lhs is None and a.rhs is None and b.lhs is None and b.rhs is None
    return a.lhs == b.lhs and a.rhs == b.rhs


@pytest.mark.parametrize("d", (2, 5, 10, 13))
def test_selberg_table_matches_the_per_triple_rule(d):
    # for every principal q with N(q) <= 60 and the full grid: the table's
    # divisors of (nu, mu, q) are those of the gcd ideal, in order, each
    # quotient modulus is (q/g), and a shared table reports what a lone call
    # reports, skipped triples included
    F = make_field(d)
    checked = skipped = 0
    for n in range(1, 61):
        for idl in ideals_of_norm(F, n):
            q = is_principal(idl)
            if q is None:
                continue
            table = SelbergTable(F, q)
            grid = _full_grid(F, q)
            for nu in grid:
                for mu in grid:
                    common = table.common_divisors(nu, mu)
                    assert ([table.divisors[i] for i in common]
                            == divisors(ideal_from_generators([nu, mu, q])))
                    shared = selberg_check(F, nu, mu, q, table=table)
                    assert _same_report(shared, selberg_check(F, nu, mu, q))
                    if shared.holds is None:
                        skipped += 1
                        continue
                    checked += 1
                    assert shared.holds
                    for i in common:
                        _, g, c, quotient = table.divisor(i)
                        assert c == q / g and quotient == principal_ideal(q / g)
    assert checked > 0
    assert (skipped > 0) == (d == 10)


def test_lone_selberg_check_resolves_only_the_common_divisors(F5, monkeypatch):
    # a lone call builds its table for q but asks for the generators of the
    # divisors of (nu, mu, q) only, not of every divisor of (q)
    asked = []

    def counted(x):
        asked.append(x)
        return is_principal(x)

    monkeypatch.setattr(kloosterman, "is_principal", counted)
    q = F5.from_int(12)
    assert len(divisors(principal_ideal(q))) == 6
    for nu, mu in ((F5.one(), F5.from_int(2)), (F5.from_int(2), F5.from_int(6)),
                   (F5.from_int(6), F5.zero())):
        asked.clear()
        assert selberg_check(F5, nu, mu, q).holds
        assert asked == divisors(ideal_from_generators([nu, mu, q]))
    assert len(asked) == 4
    # a skipped triple stops at its first non-principal divisor
    F10 = make_field(10)
    two = F10.from_int(2)
    asked.clear()
    assert selberg_check(F10, two, two, two).holds is None
    assert [is_principal(x) is None for x in asked] == [False, True]


def test_selberg_table_belongs_to_one_q(F5):
    table = SelbergTable(F5, F5.from_int(2))
    with pytest.raises(PreconditionViolated):
        selberg_check(F5, F5.one(), F5.one(), F5.from_int(3), table=table)


def test_cor43_examples(F5):
    d = F5.delta
    od = F5.one() / d
    assert cor43_check(F5, od, od, F5.from_int(2), F5.from_int(2), 1, 1).holds
    assert cor43_check(F5, od, od, F5.from_int(4), F5.from_int(2), 1, 1).holds
    assert cor43_check(F5, od, od, F5.from_int(2), F5.from_int(2), 2, 3).holds
    with pytest.raises(PreconditionViolated):
        cor43_check(F5, od * 2, od, F5.from_int(2), F5.from_int(2), 1, 1)


def test_symmetry_and_unit_twist(F5):
    d = F5.delta
    two = principal_ideal(F5.from_int(2))
    q = KloostermanQuery(F5, F5.one() / d, F5.from_int(2) / d, two, F5.from_int(2))
    assert kloosterman_symmetry_check(q)
    assert unit_twist_check(q, F5.fundamental_unit)
    assert unit_twist_check(q, F5.eps_plus)


def test_reality(F5):
    rng = random.Random(7)
    d = F5.delta
    for _ in range(25):
        n = rng.randint(2, 40)
        opts = ideals_of_norm(F5, n)
        if not opts:
            continue
        idl = rng.choice(opts)
        g = is_principal(idl)
        nu = F5.elt(rng.randint(-3, 3), rng.randint(-3, 3)) / d
        mu = F5.elt(rng.randint(-3, 3), rng.randint(-3, 3)) / d
        val = principal_kloosterman(F5, nu, mu, g)
        assert val.is_real()


def test_symmetry_random(F5, F2):
    rng = random.Random(13)
    for F in (F5, F2):
        d = F.delta
        done = 0
        while done < 30:
            n = rng.randint(2, 30)
            opts = ideals_of_norm(F, n)
            if not opts:
                continue
            g = is_principal(rng.choice(opts))
            nu = F.elt(rng.randint(-4, 4), rng.randint(-4, 4)) / d
            mu = F.elt(rng.randint(-4, 4), rng.randint(-4, 4)) / d
            q = KloostermanQuery(F, nu, mu, principal_ideal(g), g)
            assert kloosterman_symmetry_check(q)
            done += 1


def test_weil_bound_dominates(F5):
    rng = random.Random(29)
    done = 0
    while done < 60:
        n = rng.randint(2, 50)
        opts = ideals_of_norm(F5, n)
        if not opts:
            continue
        mod = rng.choice(opts)
        box = ideal_product(mod, different_ideal(F5))
        c = F5.elt(rng.randint(-3, 3) * box.a + rng.randint(-3, 3) * box.b,
                   rng.randint(-3, 3) * box.c)
        if c.is_zero():
            continue
        dom = element_ideal(c) / FractionalIdeal(box)

        def sample():
            u, v = rng.randint(-6, 6), rng.randint(-6, 6)
            return F5.elt(u * dom.num.a + v * dom.num.b, v * dom.num.c, dom.den)

        nu, mu = sample(), sample()
        q = KloostermanQuery(F5, nu, mu, mod, c)
        re, im = kloosterman_float(q, 64)
        mag2 = max(abs(lo(re)), abs(hi(re))) ** 2 + max(abs(lo(im)), abs(hi(im))) ** 2
        import mpmath
        assert mpmath.sqrt(mag2) <= lo(weil_bound(q).interval(64)) * (1 + mpmath.mpf("1e-15"))
        done += 1


def _count_ring_builds(monkeypatch):
    """Empty the value cache and record the modulus key of every ring built."""
    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    built = []
    real = kloosterman.residue_ring

    def counting(modulus, *args, **kwargs):
        built.append(modulus.key())
        return real(modulus, *args, **kwargs)

    monkeypatch.setattr(kloosterman, "residue_ring", counting)
    return built


def test_shared_rings_match_fresh_rings(F5, monkeypatch):
    # the seven unit twists mu*eps_plus^j, |j| <= 3, of one modulus share a
    # ring: the values equal those of fresh per-call rings, and the ring is
    # built once.  p5 is ramified, (4) and p5^2 are not squarefree.
    built = _count_ring_builds(monkeypatch)
    d = F5.delta
    nu, mu = F5.one() / d, F5.elt(1, 2) / d
    p5, p11 = F5.elt(2, 1), F5.elt(3, 2)
    for c in (p5, F5.from_int(4), p5 * p5, p11, F5.from_int(6)):
        mod = principal_ideal(c)
        queries = [KloostermanQuery(F5, nu, mu * F5.eps_plus ** j, mod, c)
                   for j in range(-3, 4)]
        rings = {}
        shared = [kloosterman_exact(q, rings=rings) for q in queries]
        assert built.count(mod.key()) == 1 and list(rings) == [mod.key()]
        kloosterman._EXACT_CACHE.clear()
        fresh = [kloosterman_exact(q) for q in queries]
        for a, b in zip(shared, fresh):
            assert (a.order, a.coeffs) == (b.order, b.coeffs)
        assert built.count(mod.key()) > 1


def test_cache_hit_builds_no_ring(F5, monkeypatch):
    built = _count_ring_builds(monkeypatch)
    c = F5.elt(3, 2)
    q = KloostermanQuery(F5, F5.one() / F5.delta, F5.from_int(2) / F5.delta,
                         principal_ideal(c), c)
    val = kloosterman_exact(q, rings={})
    assert len(built) == 1
    rings = {}
    assert kloosterman_exact(q, rings=rings) is val
    assert kloosterman_exact(q) is val
    assert len(built) == 1 and rings == {}


def test_float_shares_the_callers_rings(F5, monkeypatch):
    built = _count_ring_builds(monkeypatch)
    c = F5.elt(3, 2)
    q = KloostermanQuery(F5, F5.one() / F5.delta, F5.from_int(2) / F5.delta,
                         principal_ideal(c), c)
    rings = {}
    shared = kloosterman_float(q, 64, 10**7, rings)
    assert list(rings) == [q.modulus.key()] and built == [q.modulus.key()]
    kloosterman._EXACT_CACHE.clear()
    fresh = kloosterman_float(q, 64)
    assert [(lo(x), hi(x)) for x in shared] == [(lo(x), hi(x)) for x in fresh]
    assert len(built) == 2


def test_weil_audit_builds_one_ring_per_modulus(monkeypatch):
    # each modulus drawn gets one ring for the whole invocation; the bytes
    # are those of a run without the spies
    from click.testing import CliRunner

    from hilbertpoincare import cli, residues
    argv = ["weil-audit", "--d", "5", "--samples", "200"]
    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    plain = CliRunner().invoke(cli.main, argv)
    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    built, drawn = [], set()
    init, query = residues.ResidueRing.__init__, cli.KloostermanQuery

    def spy_init(ring, modulus, *args, **kwargs):
        built.append(modulus.key())
        init(ring, modulus, *args, **kwargs)

    def spy_query(F, nu, mu, modulus, c):
        drawn.add(modulus.key())
        return query(F, nu, mu, modulus, c)

    monkeypatch.setattr(residues.ResidueRing, "__init__", spy_init)
    monkeypatch.setattr(cli, "KloostermanQuery", spy_query)
    spied = CliRunner().invoke(cli.main, argv)
    assert plain.exit_code == spied.exit_code == 0
    assert spied.stdout == plain.stdout
    assert len(drawn) > 10 and sorted(built) == sorted(drawn)


def test_shared_ring_keeps_the_budget(F5, monkeypatch):
    # a ring already in the dict must not let a sum bypass a smaller budget
    _count_ring_builds(monkeypatch)
    four = F5.from_int(4)
    mod = principal_ideal(four)
    rings = {}
    kloosterman_exact(KloostermanQuery(F5, F5.one() / F5.delta, F5.zero(),
                                       mod, four), rings=rings)
    q = KloostermanQuery(F5, F5.one() / F5.delta, F5.one() / F5.delta, mod, four)
    with pytest.raises(BudgetExceeded):
        kloosterman_exact(q, enum_budget=10, rings=rings)


@pytest.mark.parametrize("d", (2, 3, 5, 13, 17))
def test_sums_are_real_vectors(d, monkeypatch):
    # x -> -x permutes the units of O/m and negates the trace, so the raw
    # vector is symmetric, w[r] = w[-r mod M], and complex_interval returns
    # an exact 0 for the imaginary part; queries drawn as weil-audit draws
    # them, with N(m) <= 120
    monkeypatch.setattr(kloosterman, "_EXACT_CACHE", {})
    F = make_field(d)
    diff = different_ideal(F)
    rng = random.Random(d)
    orders = set()
    done = 0
    while done < 40:
        opts = ideals_of_norm(F, rng.randint(2, 120))
        if not opts:
            continue
        mod = rng.choice(opts)
        box = ideal_product(mod, diff)
        s, t = rng.randint(-4, 4), rng.randint(-4, 4)
        c = F.elt(s * box.a + t * box.b, t * box.c)
        if c.is_zero():
            continue
        dom = element_ideal(c) / FractionalIdeal(box)

        def sample():
            u, v = rng.randint(-8, 8), rng.randint(-8, 8)
            return F.elt(u * dom.num.a + v * dom.num.b, v * dom.num.c, dom.den)

        val = kloosterman_exact(KloostermanQuery(F, sample(), sample(), mod, c))
        M, w = val.order, val.coeffs
        assert all(w[r] == w[-r % M] for r in range(M)), (d, M, w)
        im = val.complex_interval(64)[1]
        assert lo(im) == hi(im) == 0
        orders.add(M)
        done += 1
    assert max(orders) > 2   # the symmetry is not just that of a real order
