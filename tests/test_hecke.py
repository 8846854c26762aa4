import random
from fractions import Fraction

import pytest

from hilbertpoincare.errors import PreconditionViolated
from hilbertpoincare.hecke import (CoeffFunction, HeckeContext,
                                   check_linear_relation,
                                   check_multiplicativity, hecke_action,
                                   pairing)
from hilbertpoincare.ideals import (ideal_product, ideal_sum, ideals_of_norm,
                                    prime_splitting, principal_ideal,
                                    unit_ideal)


def make_sampler(F, rng, max_norm=200):
    norms = [n for n in range(1, max_norm) if ideals_of_norm(F, n)]

    def rand_ideal():
        return rng.choice(ideals_of_norm(F, rng.choice(norms)))

    def rand_f(size=4):
        f = CoeffFunction()
        for _ in range(size):
            f[rand_ideal()] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        return f

    return rand_ideal, rand_f


def test_identity_operator(F5):
    ctx = HeckeContext(8, unit_ideal(F5))
    f = CoeffFunction({unit_ideal(F5): 1,
                       principal_ideal(F5.from_int(2)): Fraction(3, 2)})
    assert hecke_action(ctx, unit_ideal(F5), f) == f


def test_action_example_indicator(F5):
    ctx = HeckeContext(8, unit_ideal(F5))
    two = principal_ideal(F5.from_int(2))
    out = hecke_action(ctx, two, CoeffFunction({unit_ideal(F5): 1}))
    assert out.support == {two: Fraction(4 ** 7)}


def test_action_example_level_chi0(F5):
    two = principal_ideal(F5.from_int(2))
    ctx = HeckeContext(8, two)
    out = hecke_action(ctx, two, CoeffFunction({two: 1}))
    # chi0 kills every divisor except O; candidates (2)*r^2/(2) for r | (2)
    # are O and (4); only a = O picks up f((2)) = 1
    assert out.support == {unit_ideal(F5): Fraction(1)}


def test_pairing_examples(F5):
    ctx = HeckeContext(8, unit_ideal(F5))
    two = principal_ideal(F5.from_int(2))
    p5 = prime_splitting(F5, 5)[0]
    f = CoeffFunction({unit_ideal(F5): 1, principal_ideal(F5.from_int(4)): 1})
    assert pairing(ctx, two, two, f) == 16385
    g = CoeffFunction({ideal_product(two, p5): Fraction(7, 3)})
    assert pairing(ctx, two, p5, g) == Fraction(7, 3)  # single term, r = O
    # chi0 degeneration: level O, m = q = prime has exactly two terms
    h = CoeffFunction({unit_ideal(F5): 1, ideal_product(p5, p5): 1})
    assert pairing(ctx, p5, p5, h) == 1 + Fraction(5) ** 7


def test_pairing_symmetry_random(F5):
    rng = random.Random(101)
    ctx = HeckeContext(8, unit_ideal(F5))
    rand_ideal, rand_f = make_sampler(F5, rng)
    for _ in range(200):
        m, q, f = rand_ideal(), rand_ideal(), rand_f(6)
        assert pairing(ctx, m, q, f) == pairing(ctx, q, m, f)


def test_linearity(F5):
    rng = random.Random(55)
    ctx = HeckeContext(8, unit_ideal(F5))
    rand_ideal, rand_f = make_sampler(F5, rng, 80)
    for _ in range(40):
        m, f, g = rand_ideal(), rand_f(), rand_f()
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert hecke_action(ctx, m, f + g) == \
            hecke_action(ctx, m, f) + hecke_action(ctx, m, g)
        assert hecke_action(ctx, m, f * lam) == hecke_action(ctx, m, f) * lam


def test_multiplicativity_and_commutativity(F5):
    rng = random.Random(77)
    ctx = HeckeContext(8, unit_ideal(F5))
    rand_ideal, rand_f = make_sampler(F5, rng, 100)
    done = 0
    while done < 40:
        m, q = rand_ideal(), rand_ideal()
        if not ideal_sum(m, q).is_unit_ideal():
            continue
        f = rand_f(3)
        assert check_multiplicativity(ctx, m, q, f)
        assert hecke_action(ctx, m, hecke_action(ctx, q, f)) == \
            hecke_action(ctx, q, hecke_action(ctx, m, f))
        done += 1
    with pytest.raises(PreconditionViolated):
        two = principal_ideal(F5.from_int(2))
        check_multiplicativity(ctx, two, two, rand_f())


def test_linear_relations(F5):
    rng = random.Random(88)
    ctx = HeckeContext(8, unit_ideal(F5))
    _, rand_f = make_sampler(F5, rng, 60)
    two = principal_ideal(F5.from_int(2))
    fs = [rand_f() for _ in range(3)]
    assert check_linear_relation(ctx, [(two, 1), (two, -1)], fs).vanishes_on_grid
    assert check_linear_relation(ctx, [(unit_ideal(F5), 1),
                                       (unit_ideal(F5), -1)], fs).vanishes_on_grid
    rep = check_linear_relation(ctx, [(two, 1)], [CoeffFunction({two: 1})])
    assert not rep.vanishes_on_grid and rep.witnesses


def test_level_sensitivity(F5):
    two = principal_ideal(F5.from_int(2))
    p5 = prime_splitting(F5, 5)[0]
    f = CoeffFunction({ideal_product(two, p5): 1})
    v_trivial = pairing(HeckeContext(8, unit_ideal(F5)), two, p5, f)
    v_level = pairing(HeckeContext(8, two), two, p5, f)
    assert v_trivial == v_level == 1  # r = O only in both cases
    g = CoeffFunction({unit_ideal(F5): 1, ideal_product(two, two): 1})
    assert pairing(HeckeContext(8, unit_ideal(F5)), two, two, g) == 1 + 4 ** 7
    assert pairing(HeckeContext(8, two), two, two, g) == 1  # chi0 kills r = (2)
