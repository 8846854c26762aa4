import itertools
import math
import random
from fractions import Fraction

import pytest

from hilbertpoincare.errors import NotDivisible, PreconditionViolated, ZeroIdeal
from hilbertpoincare.field import make_field
from hilbertpoincare.ideals import (FractionalIdeal, IdealHNF, chi0,
                                    different_ideal, divisors, element_ideal,
                                    factor_ideal, ideal_conj, ideal_count_upto,
                                    ideal_exact_divide, ideal_from_generators,
                                    ideal_pow, ideal_product, ideal_sum,
                                    ideals_of_norm, is_principal,
                                    kronecker_prefix, N_nu_mu, pr_count,
                                    prime_splitting, principal_ideal,
                                    splitting_type, unit_ideal,
                                    valuation_ideal, wide_class_number_is_one)
from hilbertpoincare.arith import is_prime, is_squarefree

from oracles import (af_sieve, ideal_from_elements, kronecker_symbol,
                     norm_equation_box, norm_equation_search, valuation_oracle,
                     z_basis)

# between them these fields make 2 ramified (2, 3), inert (5, 13) and split (17)
SPLITTING_FIELDS = (2, 3, 5, 13, 17)
# both integral bases, narrow class number 1 (2, 5, 13, 17) and not (3, 6, 7)
KERNEL_FIELDS = (2, 3, 5, 6, 7, 13, 17)
# small and large units, wide class number 2 (10) and fu_norm = +1 (3)
PRINCIPALITY_FIELDS = (2, 3, 5, 10, 13, 193, 997)


def rand_ideal(F, rng, span=9):
    while True:
        gens = [F.elt(rng.randint(-span, span), rng.randint(-span, span))
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            return ideal_from_generators(gens)


def test_from_generators_examples(F5):
    assert ideal_from_generators([F5.elt(2, 1)]).norm() == 5
    assert ideal_from_generators([F5.elt(2, 0)]).norm() == 4
    assert ideal_from_generators([F5.elt(2, 0), F5.elt(0, 1)]).is_unit_ideal()
    with pytest.raises(ZeroIdeal):
        ideal_from_generators([F5.zero()])


def test_sum_product_divide_examples(F5):
    p5 = principal_ideal(F5.elt(2, 1))
    two = principal_ideal(F5.from_int(2))
    assert ideal_sum(two, p5).is_unit_ideal()
    assert ideal_product(p5, p5).norm() == 25
    ten = principal_ideal(F5.from_int(10))
    assert ideal_exact_divide(ten, two) == principal_ideal(F5.from_int(5))
    with pytest.raises(NotDivisible):
        ideal_exact_divide(p5, two)


def _splitting_structure(F, p):
    """The splitting type that the primes above p show by their structure:
    two of norm p, (p) itself of norm p^2, or one P with P^2 = (p)."""
    primes = prime_splitting(F, p)
    if len(primes) == 2 and all(pr.norm() == p for pr in primes) \
            and primes[0] != primes[1]:
        return "split"
    (pr,) = primes
    if pr == principal_ideal(F.from_int(p)) and pr.norm() == p * p:
        return "inert"
    if ideal_product(pr, pr) == principal_ideal(F.from_int(p)):
        return "ramified"
    return None


def test_prime_splitting_examples(F5):
    assert _splitting_structure(F5, 11) == "split"
    assert _splitting_structure(F5, 2) == "inert"
    assert _splitting_structure(F5, 5) == "ramified"
    (p5,) = prime_splitting(F5, 5)
    assert ideal_product(p5, p5) == principal_ideal(F5.from_int(5))


def test_factor_examples(F5):
    ten = principal_ideal(F5.from_int(10))
    assert sorted((p.norm(), e) for p, e in factor_ideal(ten)) == [(4, 1), (5, 2)]
    assert factor_ideal(unit_ideal(F5)) == []
    f11 = factor_ideal(principal_ideal(F5.from_int(11)))
    assert sorted((p.norm(), e) for p, e in f11) == [(11, 1), (11, 1)]


def test_divisors_examples(F5):
    assert [x.norm() for x in divisors(principal_ideal(F5.from_int(4)))] == [1, 4, 16]
    assert [x.norm() for x in divisors(principal_ideal(F5.from_int(11)))] == \
        [1, 11, 11, 121]
    assert [x.norm() for x in divisors(unit_ideal(F5))] == [1]


def test_chi0_examples(F5):
    p5 = principal_ideal(F5.elt(2, 1))
    two = principal_ideal(F5.from_int(2))
    assert chi0(two, p5) == 1
    assert chi0(p5, principal_ideal(F5.from_int(5))) == 0
    assert chi0(unit_ideal(F5), p5) == 1


def test_n_nu_mu_examples(F5):
    dd = different_ideal(F5)
    assert dd.norm() == 5
    one_over_delta = F5.one() / F5.delta
    assert N_nu_mu(unit_ideal(F5), F5.one(), F5.one()) == 1
    assert pr_count(unit_ideal(F5)) == 0
    two = principal_ideal(F5.from_int(2))
    assert N_nu_mu(two, one_over_delta, one_over_delta) == 1
    assert pr_count(two) == 1
    four = principal_ideal(F5.from_int(4))
    t = F5.from_int(2) / F5.delta
    assert N_nu_mu(four, t, t) == 4
    # valuation oracle: exponents match direct valuations
    pr = factor_ideal(two)[0][0]
    assert valuation_oracle(t, pr) == 1
    assert valuation_ideal(four, pr) == 2


def _n_nu_mu_arguments(F):
    """None, 0, 1, a generator 1/sqrt(D) of the inverse different, fractions
    with denominators 2, 3 and 4, and 8*w, 27*(1 + w) and 64/sqrt(D), whose
    valuations at the primes above 2 and 3 reach the caps at N(m) <= 40."""
    w, one = F.omega(), F.one()
    inv_diff = one / (2 * w - F.c1)   # (2w - Tr w)^2 = D
    return [None, F.zero(), one, inv_diff, (one + w) / 2, w / 3, (3 - w) / 4,
            F.from_int(3) / 4, 8 * w, 27 * (one + w), 64 * inv_diff]


@pytest.mark.parametrize("d", (2, 3, 5, 10, 13))
def test_n_nu_mu_matches_the_oracle_valuations(d):
    # caps <= 0 at the ramified prime above 2 (v_2(D) = 3 for d = 2, 2 for
    # d = 3) and two ramified primes for d = 10; every m with N(m) <= 40
    F = make_field(d)
    dd = different_ideal(F)
    args = _n_nu_mu_arguments(F)
    primes = [pr for p in range(2, 41) if is_prime(p) for pr in prime_splitting(F, p)]
    val = {(i, pr): math.inf if t is None or t.is_zero() else valuation_oracle(t, pr)
           for i, t in enumerate(args) for pr in primes}
    moduli = [m for n in range(1, 41) for m in ideals_of_norm(F, n)]
    for m in moduli:
        caps = {pr: valuation_ideal(m, pr) - valuation_ideal(dd, pr)
                for pr in primes if valuation_ideal(m, pr)}
        for (i, nu), (j, mu) in itertools.product(enumerate(args), repeat=2):
            want = Fraction(1)
            for pr, cap in caps.items():
                want *= Fraction(pr.norm()) ** min(cap, val[i, pr], val[j, pr])
            assert N_nu_mu(m, nu, mu) == want, (d, m, nu, mu)
    assert len(moduli) >= 16


def test_principality(F5):
    p5 = prime_splitting(F5, 5)[0]
    fresh = IdealHNF(F5, p5.a, p5.b, p5.c)
    g = is_principal(fresh)
    assert g is not None and abs(g.norm()) == 5 and g.is_totally_positive()
    assert wide_class_number_is_one(F5)
    assert F5.narrow_h1 and make_field(2).narrow_h1
    assert not make_field(3).narrow_h1  # fundamental unit has norm +1


def test_narrow_h1_returns_for_every_squarefree_d_below_1000():
    # the cycle walk has no budget: fields with a large unit decide too
    verdicts = {d: make_field(d).narrow_h1 for d in range(2, 1000) if is_squarefree(d)}
    assert len(verdicts) == 607
    assert all(verdicts[d] for d in (2, 5, 13, 193, 241, 281, 313))
    assert not any(verdicts[d] for d in (3, 10, 394))


@pytest.mark.parametrize("d", PRINCIPALITY_FIELDS)
def test_is_principal_against_the_box_search(d):
    # every generator reproduces its ideal's HNF; every verdict agrees with
    # the box search of the oracle wherever the box has <= 10^5 candidates
    F = make_field(d)
    for n in range(1, 201):
        for x in ideals_of_norm(F, n):
            fresh = IdealHNF(F, x.a, x.b, x.c)
            g = is_principal(fresh)
            if g is not None:
                assert principal_ideal(g) == x, (d, x)
            if 2 * norm_equation_box(x) + 1 <= 10**5:
                assert (norm_equation_search(x) is None) == (g is None), (d, x)


def test_a_unit_generates_o_with_generator_one(F5, F2):
    # the walk reads the generator off the HNF (1, 0, 1), not off the unit
    for F in (F5, F2):
        for u in (F.fundamental_unit, -F.fundamental_unit ** -1, F.eps_plus ** 3):
            x = principal_ideal(u)
            assert x == unit_ideal(F) and is_principal(x) == F.one()
    assert is_principal(principal_ideal(F5.from_int(3))) == 3


def test_the_different_has_valuation_v_p_of_d():
    # N_nu_mu reads v_P(different) = v_p(D) off D; with m = P^3 and no nu,
    # mu it is N(P)^(3 - v_P(different)), here against the different's HNF
    pairs = 0
    for d in range(2, 400):
        if not is_squarefree(d):
            continue
        F = make_field(d)
        dd = different_ideal(F)
        for p in range(2, 60):
            if not is_prime(p):
                continue
            for pr in prime_splitting(F, p):
                v = valuation_ideal(dd, pr)
                assert N_nu_mu(ideal_pow(pr, 3), None, None) == pr.norm() ** (3 - v), (d, pr)
                pairs += 1
    assert pairs == 5930


def test_fractional_ideals(F5):
    fi = element_ideal(F5.one() / F5.delta)
    assert fi.norm() == Fraction(1, 5)
    assert (fi * different_ideal(F5)).as_integral().is_unit_ideal()
    inv = FractionalIdeal(principal_ideal(F5.from_int(2))).inverse()
    assert inv.norm() == Fraction(1, 4)
    assert (inv * principal_ideal(F5.from_int(2))).as_integral().is_unit_ideal()
    assert fi.contains(F5.one() / F5.delta)
    assert not fi.contains(F5.one() / (F5.delta * F5.delta))


def test_ideals_of_norm_vs_dedekind_a(F5, F2):
    # dedekind_a: the Dedekind zeta coefficients a_F(n) of the oracle's sieve
    for F in (F5, F2):
        a = af_sieve(F, 59)
        for n in range(1, 60):
            assert len(ideals_of_norm(F, n)) == a[n]


@pytest.mark.parametrize("d", SPLITTING_FIELDS)
def test_splitting_type_matches_prime_splitting(d):
    F = make_field(d)
    kinds = set()
    for p in filter(is_prime, range(2, 2000)):
        kind = splitting_type(F, p)
        assert kind == _splitting_structure(F, p), (d, p)
        kinds.add(kind)
    assert kinds == {"split", "inert", "ramified"}
    assert splitting_type(F, 2) == {2: "ramified", 3: "ramified", 5: "inert",
                                    13: "inert", 17: "split"}[d]


@pytest.mark.parametrize("d", SPLITTING_FIELDS)
def test_af_table_matches_dedekind_a_and_ideal_lists(d):
    # ideal_count_upto against the cumulative a_F table of the oracle's sieve
    # (the Dedekind zeta coefficients) and against the ideal lists
    F = make_field(d)
    prefix = kronecker_prefix(F)
    assert [prefix[a] - prefix[a - 1] for a in range(1, F.D)] == \
        [kronecker_symbol(F.D, a) for a in range(1, F.D)]
    a = af_sieve(F, 3 * 10**5)
    upto = list(itertools.accumulate(a))
    assert all(ideal_count_upto(prefix, x) == upto[x] for x in range(20001))
    assert ideal_count_upto(prefix, 3 * 10**5) == upto[-1]
    lists = itertools.accumulate(len(ideals_of_norm(F, n)) for n in range(1, 1001))
    assert all(ideal_count_upto(prefix, x) == c for x, c in enumerate(lists, 1))


def test_norm_multiplicativity_random(F5):
    rng = random.Random(17)
    for _ in range(200):
        x, y = rand_ideal(F5, rng), rand_ideal(F5, rng)
        assert ideal_product(x, y).norm() == x.norm() * y.norm()


def test_factor_reconstruct_and_divisor_count(F2):
    rng = random.Random(5)
    for _ in range(40):
        x = rand_ideal(F2, rng, span=7)
        fac = factor_ideal(x)
        acc = unit_ideal(F2)
        for pr, e in fac:
            acc = ideal_product(acc, ideal_pow(pr, e))
        assert acc == x
        assert len(divisors(x)) == math.prod(e + 1 for _, e in fac)


def test_gcd_lcm_identity(F5):
    rng = random.Random(23)
    for _ in range(60):
        x, y = rand_ideal(F5, rng), rand_ideal(F5, rng)
        g = ideal_sum(x, y)
        assert all(g.contains(b) for b in z_basis(x))
        l = ideal_exact_divide(ideal_product(x, y), g)
        assert ideal_product(g, l) == ideal_product(x, y)


def test_valuation_additivity(F5):
    rng = random.Random(31)
    pr = prime_splitting(F5, 11)[0]
    for _ in range(30):
        x, y = rand_ideal(F5, rng), rand_ideal(F5, rng)
        assert valuation_ideal(ideal_product(x, y), pr) == \
            valuation_ideal(x, pr) + valuation_ideal(y, pr)


def test_malformed_hnf_triples_rejected(F5):
    # c must divide a and b, and the lattice must be closed under omega
    with pytest.raises(PreconditionViolated, match="O-module"):
        IdealHNF(F5, 2, 5, 2)
    with pytest.raises(PreconditionViolated, match="omega"):
        IdealHNF(F5, 3, 1, 1)
    assert IdealHNF(F5, 2, 0, 2) == principal_ideal(F5.from_int(2))


@pytest.mark.parametrize("d", KERNEL_FIELDS)
def test_integer_kernel_matches_element_generators(d):
    """Products, sums, conjugates, principal ideals and generated ideals from
    the integer HNF kernel equal the oracle's ideals generated by Elt products."""
    F = make_field(d)
    rng = random.Random(d)
    for _ in range(40):
        gens = [F.elt(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(2)]
        if any(g.is_zero() for g in gens):
            continue
        x, y = (principal_ideal(g) for g in gens)
        assert x == ideal_from_elements(gens[:1]) and y == ideal_from_elements(gens[1:])
        assert ideal_from_generators(gens) == ideal_from_elements(gens)
        for u, v in ((x, y), (ideal_from_generators(gens), x)):
            assert ideal_product(u, v) == ideal_from_elements(
                [gu * gv for gu in z_basis(u) for gv in z_basis(v)])
            assert ideal_conj(u) == ideal_from_elements([g.conj() for g in z_basis(u)])
            assert ideal_sum(u, v) == ideal_from_elements(z_basis(u) + z_basis(v))


@pytest.mark.parametrize("d", KERNEL_FIELDS)
def test_norm_conjugate_and_product_laws(d):
    F = make_field(d)
    rng = random.Random(100 + d)
    for _ in range(60):
        x, y = rand_ideal(F, rng), rand_ideal(F, rng)
        assert ideal_product(x, y).norm() == x.norm() * y.norm()
        assert ideal_product(x, y) == ideal_product(y, x)
        assert ideal_product(x, ideal_conj(x)) == principal_ideal(F.from_int(x.norm()))
        assert ideal_conj(ideal_conj(x)) == x


@pytest.mark.parametrize("d", KERNEL_FIELDS)
def test_ideals_of_norm_one_rule(d):
    # one rule for every splitting type: the count, distinctness and norms
    F = make_field(d)
    a = af_sieve(F, 400)
    for n in range(1, 401):
        ideals = ideals_of_norm(F, n)
        assert len(ideals) == a[n], (d, n)
        assert len(set(ideals)) == len(ideals)
        assert all(x.norm() == n for x in ideals)
        assert ideals == sorted(ideals, key=lambda x: x.sort_key())
