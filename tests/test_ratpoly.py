import random
from fractions import Fraction

import pytest

from quasident.errors import MissingAssignment
from quasident.ratpoly import CPoly

c = CPoly.variable


def random_cpoly(rng, nvars=4, terms=3, max_exp=2):
    p = CPoly.zero()
    for _ in range(rng.randint(0, terms)):
        mono = CPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, 2)
            i = rng.randint(1, 2)
            j = rng.randint(1, 2)
            mono = mono * c(k, i, j) ** rng.randint(1, max_exp)
        p = p + mono
    return p


def random_point(rng):
    return {
        (k, i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for k in (1, 2)
        for i in (1, 2)
        for j in (1, 2)
    }


def test_difference_of_squares():
    a = c(1, 1, 1)
    assert (a + 1) * (a - 1) == a * a - 1


def test_additive_identity():
    rng = random.Random(0)
    for _ in range(50):
        p = random_cpoly(rng)
        assert p + CPoly.zero() == p


def test_monomial_product():
    assert (c(1, 1, 2) * c(2, 2, 1)) * c(1, 1, 2) == c(1, 1, 2) ** 2 * c(2, 2, 1)


def test_eval_single_variable():
    assert c(1, 1, 2).eval({(1, 1, 2): Fraction(5)}) == 5


def test_eval_root():
    p = c(1, 1, 1) ** 2 - 1
    assert p.eval({(1, 1, 1): Fraction(1)}) == 0


def test_eval_stays_in_integer_arithmetic_at_integer_points():
    p = 3 * c(1, 1, 2) ** 2 - c(2, 1, 1) + 1
    point = {(1, 1, 2): -2, (2, 1, 1): 5}
    assert p.eval(point) == 8 and type(p.eval(point)) is int
    assert (p + Fraction(1, 2)).eval(point) == Fraction(17, 2)
    assert p.eval({(1, 1, 2): Fraction(1, 3), (2, 1, 1): 0}) == Fraction(4, 3)


def test_eval_missing_assignment():
    with pytest.raises(MissingAssignment):
        c(1, 1, 2).eval({})


def test_eval_is_ring_homomorphism():
    rng = random.Random(1)
    for _ in range(100):
        p, q = random_cpoly(rng), random_cpoly(rng)
        point = random_point(rng)
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)


def test_subst_identity_table():
    rng = random.Random(2)
    for _ in range(30):
        p = random_cpoly(rng)
        table = {v: CPoly.variable(*v) for v in p.variables()}
        assert p.subst(table) == p


def test_subst_single_variable():
    assert c(1, 1, 1).subst({(1, 1, 1): c(2, 1, 1) + 1}) == c(2, 1, 1) + 1


def test_subst_annihilation():
    p = c(1, 1, 2) * c(1, 2, 1)
    table = {(1, 1, 2): CPoly.zero(), (1, 2, 1): CPoly.zero()}
    assert p.subst(table).is_zero()


def test_subst_missing():
    with pytest.raises(MissingAssignment):
        (c(1, 1, 1) * c(1, 2, 2)).subst({(1, 1, 1): CPoly.one()})


def test_subst_composes_with_eval():
    rng = random.Random(3)
    for _ in range(100):
        p = random_cpoly(rng)
        table = {v: random_cpoly(rng) for v in p.variables()}
        point = random_point(rng)
        composed = {v: table[v].eval(point) for v in table}
        assert p.subst(table).eval(point) == p.eval(composed)


def test_ring_laws():
    rng = random.Random(4)
    for _ in range(100):
        a, b, d = (random_cpoly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + d == a + (b + d)
        assert (a * b) * d == a * (b * d)
        assert a * (b + d) == a * b + a * d


def test_canonical_form_is_shared():
    rng = random.Random(5)
    for _ in range(50):
        a, b = random_cpoly(rng), random_cpoly(rng)
        assert (a + b).terms() == (b + a).terms()


def test_zero_normalization():
    p = c(1, 1, 1) - c(1, 1, 1)
    assert p.is_zero() and len(p) == 0 and p == CPoly.zero()


def test_pow_and_degree():
    p = c(1, 1, 1) + c(1, 2, 2)
    assert p ** 0 == CPoly.one()
    assert (p ** 3).degree() == 3
    assert CPoly.zero().degree() == 0


def test_constant_helpers():
    p = CPoly.const(Fraction(3, 2))
    assert p.is_constant() and p.constant_value() == Fraction(3, 2)
    assert not c(1, 1, 1).is_constant()
