import math
import random
from fractions import Fraction

import pytest

from quasident import genmat
from quasident.errors import (
    CoefficientDependsOnGenerator,
    MissingAssignment,
    NotHomogeneous,
    NotMultilinear,
)
from quasident.freealg import QuasiPoly, antisymmetrize, multilinearize
from quasident.ratpoly import CPoly

x = QuasiPoly.x
c = CPoly.variable


def random_quasipoly(rng, gens=(1, 2), max_len=2, terms=3):
    p = QuasiPoly.zero()
    for _ in range(rng.randint(0, terms)):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        coeff = CPoly.const(rng.randint(-4, 4))
        if rng.random() < 0.5:
            coeff = coeff * c(rng.choice(gens), rng.randint(1, 2), rng.randint(1, 2))
        p = p + QuasiPoly({w: coeff})
    return p


def test_word_product():
    assert (x(1) * x(2)).words() == [(1, 2)]


def test_coefficients_commute_with_words():
    lhs = (QuasiPoly.const(c(1, 1, 2)) * x(1)) * (QuasiPoly.const(c(2, 1, 2)) * x(2))
    rhs = QuasiPoly({(1, 2): c(1, 1, 2) * c(2, 1, 2)})
    assert lhs == rhs


def test_paper_zero_divisor_product_is_16_terms():
    p1 = c(2, 1, 2) * x(1) - c(1, 1, 2) * x(2) + QuasiPoly.const(
        c(1, 1, 2) * c(2, 2, 2) - c(1, 2, 2) * c(2, 1, 2)
    )
    p2 = c(2, 1, 2) * x(1) - c(1, 1, 2) * x(2) + QuasiPoly.const(
        c(1, 1, 2) * c(2, 1, 1) - c(1, 1, 1) * c(2, 1, 2)
    )
    prod = p1 * p2
    assert prod.term_count() == 16
    assert genmat.is_quasi_identity(prod, 2)


def test_ring_laws():
    rng = random.Random(0)
    for _ in range(100):
        a, b, d = (random_quasipoly(rng) for _ in range(3))
        assert (a + b) + d == a + (b + d)
        assert (a * b) * d == a * (b * d)
        assert a * (b + d) == a * b + a * d


def test_substitute_identity():
    rng = random.Random(1)
    for _ in range(30):
        p = random_quasipoly(rng)
        subs = {k: x(k) for k in p.generators()}
        assert p.substitute(subs, 2) == p


def test_substitute_coefficient_coupling():
    p = QuasiPoly.const(c(1, 1, 1)) * x(2)
    result = p.substitute({1: x(3) * x(4), 2: x(2)}, 2)
    expected_coeff = sum(
        (c(3, 1, t) * c(4, t, 1) for t in (1, 2)), CPoly.zero()
    )
    assert result == QuasiPoly.const(expected_coeff) * x(2)


def test_substitute_evaluates_only_generators_read_in_coefficients(monkeypatch):
    calls = []
    phi_eval = genmat.phi_eval
    monkeypatch.setattr(genmat, "phi_eval", lambda p, n, **kw: calls.append(p) or phi_eval(p, n, **kw))
    p = x(1) * x(2) - x(2) * x(1) + x(2).scale(3)
    p.substitute({1: x(3) * x(3), 2: x(2)}, 2)
    assert calls == []
    p = QuasiPoly.const(c(1, 1, 1)) * x(2)
    result = p.substitute({1: x(3) * x(4), 2: x(2)}, 2)
    assert calls == [x(3) * x(4)]
    assert result == QuasiPoly.const(genmat.phi_eval(x(3) * x(4), 2)[0, 0]) * x(2)


def test_substitute_missing_generator():
    with pytest.raises(MissingAssignment):
        (x(1) * x(2)).substitute({1: x(1)}, 2)


def test_substitute_dimension_mismatch():
    from quasident.errors import DimensionMismatch

    p = QuasiPoly.const(c(1, 3, 1)) * x(1)
    with pytest.raises(DimensionMismatch):
        p.substitute({1: x(1)}, 2)


def test_t_ideal_closure_of_q2():
    q2 = genmat.cayley_hamilton_Q(2)
    sub = q2.substitute({1: x(1) * x(1), 2: x(2) * x(2)}, 2)
    assert genmat.is_quasi_identity(sub, 2)


def test_substitute_commutes_with_phi():
    rng = random.Random(2)
    n = 2
    for _ in range(30):
        p = random_quasipoly(rng)
        subs = {k: random_quasipoly(rng) or QuasiPoly.x(k) for k in p.generators()}
        lhs = genmat.phi_eval(p.substitute(subs, n), n)
        images = {k: genmat.phi_eval(h, n) for k, h in subs.items()}
        table_all = {}
        for k, img in images.items():
            for i in (1, 2):
                for j in (1, 2):
                    table_all[(k, i, j)] = img[i - 1, j - 1]
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                e = genmat.phi_eval(p, n).data[i][j]
                table = {v: table_all[v] for v in e.variables()}
                row.append(e.subst(table) if table else e)
            entries.append(row)
        assert lhs == genmat.QMatrix(entries)


def test_multilinearize_square():
    assert multilinearize(x(1) * x(1), 1, [2, 3]) == x(2) * x(3) + x(3) * x(2)


def test_multilinearize_renaming():
    assert multilinearize(x(1), 1, [2]) == x(2)


def test_multilinearize_diagonal_restriction():
    rng = random.Random(3)
    for d in (1, 2, 3):
        p = QuasiPoly({(1,) * d: CPoly.const(rng.randint(1, 5))})
        fresh = list(range(2, 2 + d))
        pol = multilinearize(p, 1, fresh)
        diag = pol.relabel({g: 1 for g in fresh})
        assert diag == p.scale(math.factorial(d))


def test_multilinearize_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        multilinearize(x(1) + x(1) * x(1), 1, [2, 3])


def test_multilinearize_rejects_coefficient_dependence():
    with pytest.raises(CoefficientDependsOnGenerator):
        multilinearize(QuasiPoly.const(c(1, 1, 1)) * x(1), 1, [2])


def test_antisymmetrize_two_letters():
    out = antisymmetrize(x(1) * x(2), [1, 2])
    assert out == (x(1) * x(2) - x(2) * x(1)).scale(Fraction(1, 2))


def test_antisymmetrize_symmetric_input_dies():
    assert antisymmetrize(x(1) * x(2) + x(2) * x(1), [1, 2]).is_zero()


def test_antisymmetrize_gives_standard_poly():
    for h in (2, 3, 4):
        w = QuasiPoly.from_word(range(1, h + 1))
        out = antisymmetrize(w, list(range(1, h + 1)), normalized=False)
        assert out == genmat.standard_poly(h)
        normalized = antisymmetrize(w, list(range(1, h + 1)))
        assert normalized == genmat.standard_poly(h).scale(
            Fraction(1, math.factorial(h))
        )


def test_antisymmetrizer_idempotent():
    rng = random.Random(4)
    for _ in range(100):
        coeff = CPoly.const(rng.randint(1, 4)) * c(1, rng.randint(1, 2), rng.randint(1, 2))
        p = QuasiPoly({(2, 3): coeff})
        out = antisymmetrize(p, [1, 2, 3])
        assert antisymmetrize(out, [1, 2, 3]) == out


def test_antisymmetrize_couples_coefficients():
    p = QuasiPoly.const(c(1, 1, 2)) * x(2)
    out = antisymmetrize(p, [1, 2], normalized=False)
    expected = QuasiPoly.const(c(1, 1, 2)) * x(2) - QuasiPoly.const(c(2, 1, 2)) * x(1)
    assert out == expected


def test_antisymmetrize_rejects_nonmultilinear():
    with pytest.raises(NotMultilinear):
        antisymmetrize(x(1) * x(1), [1, 2])


def test_relabel_diagonal_merges():
    p = x(1) * x(2) + x(2) * x(1)
    assert p.relabel({1: 1, 2: 1}) == (x(1) * x(1)).scale(2)
