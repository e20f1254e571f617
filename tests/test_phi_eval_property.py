"""Property tests of the evaluation map.  The generic image phi_eval(p, n),
specialized at a point, is the value evaluate computes there directly, and
both equal a word-by-word reference sum, at integer and fractional points and
coefficients alike; the image itself equals a reference that multiplies
generic matrices word by word.  phi_eval and evaluate sum the words by one
Horner fold over their trie (trie_fold); TracePoly.expand, which walks each
trace factor's index paths (word_paths), equals traces of generic-matrix
products."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings as hypothesis_settings, strategies as st  # noqa: E402

import random  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

from quasident.exactla import QMatrix  # noqa: E402
from quasident.freealg import QuasiPoly  # noqa: E402
from quasident.genmat import TracePoly, evaluate, generic_matrix, phi_eval  # noqa: E402
from quasident.ratpoly import CPoly, monomial  # noqa: E402

settings = hypothesis_settings(max_examples=60, deadline=None)
GENS = (1, 2)


@st.composite
def cases(draw):
    """(n, p, point): a quasi-polynomial in x1, x2 whose coefficients use the
    entries c[k,i,j] of n x n matrices, and an integer matrix for each x_k."""
    n = draw(st.sampled_from([2, 3]))
    index = st.integers(1, n)
    variables = st.tuples(st.sampled_from(GENS), index, index)
    monomials = st.lists(st.tuples(variables, st.integers(0, 2)), max_size=2).map(monomial)
    cpolys = st.dictionaries(monomials, st.integers(-3, 3), max_size=3).map(CPoly)
    # Words of length 0 are the constant terms, whose image is a scalar matrix.
    words = st.lists(st.sampled_from(GENS), max_size=3).map(tuple)
    p = draw(st.dictionaries(words, cpolys, max_size=3).map(QuasiPoly))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    point = {k: QMatrix(draw(st.lists(row, min_size=n, max_size=n))) for k in GENS}
    return n, p, point


def reference_value(p, point, n, assignment):
    """Sum of coefficient times word product, each product started at the
    identity; shares no code with phi_eval or evaluate beyond QMatrix."""
    total = QMatrix.zeros(n, n)
    for w, coeff in p.terms():
        m = QMatrix.identity(n)
        for k in w:
            m = m * point[k]
        total = total + m.scale(coeff.eval(assignment))
    return total


def assignment_of(point, n):
    """The value of every c[k,i,j] at a point."""
    return {
        (k, i, j): m[i - 1, j - 1]
        for k, m in point.items()
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }


POINT = {1: QMatrix([[1, 2], [3, 4]]), 2: QMatrix([[0, -1], [5, 2]])}


@settings
@given(cases())
@example((2, QuasiPoly.zero(), POINT))
@example((2, QuasiPoly({(): CPoly.const(3)}), POINT))
@example((2, QuasiPoly({(): CPoly.variable(1, 1, 2) * CPoly.variable(2, 2, 1)}), POINT))
def test_phi_eval_specializes_to_evaluate(case):
    n, p, point = case
    image = phi_eval(p, n)
    assert all(isinstance(e, CPoly) for row in image.data for e in row)
    assignment = assignment_of(point, n)
    specialized = QMatrix([[e.eval(assignment) for e in row] for row in image.data])
    assert [specialized] == evaluate(p, [point], n) == [reference_value(p, point, n, assignment)]


def evaluated_polys(n):
    """Up to eight words of length up to 4 in x1, x2, so words share prefixes
    and the empty word appears; coefficients are fractions times monomials
    in the entries c[k,i,j], so values can vanish at a point and have
    denominators."""
    index = st.integers(1, n)
    variables = st.tuples(st.sampled_from(GENS), index, index)
    monomials = st.lists(st.tuples(variables, st.integers(0, 2)), max_size=2).map(monomial)
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    cpolys = st.dictionaries(monomials, fractions, max_size=3).map(CPoly)
    words = st.lists(st.sampled_from(GENS), max_size=4).map(tuple)
    return st.dictionaries(words, cpolys, max_size=8).map(QuasiPoly)


@st.composite
def points(draw, n):
    """An n x n matrix for each of x1, x2, its entries all ints or all fractions."""
    entries = draw(st.sampled_from([
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3),
    ]))
    row = st.lists(entries, min_size=n, max_size=n)
    return {k: QMatrix(draw(st.lists(row, min_size=n, max_size=n))) for k in GENS}


@st.composite
def evaluations(draw):
    """(n, p, point): p from evaluated_polys, at one point."""
    n = draw(st.sampled_from([1, 2, 3]))
    return n, draw(evaluated_polys(n)), draw(points(n))


FRACTION_POINT = {
    1: QMatrix([[Fraction(1, 2), 2], [3, Fraction(-1, 3)]]),
    2: QMatrix([[0, Fraction(2, 3)], [-1, 1]]),
}
PREFIXES = QuasiPoly({(): 2, (1,): 1, (1, 2): -1, (1, 2, 1): 3, (1, 2, 2): 1, (2, 1): -2, (2, 2, 1): 1})


@settings
@given(evaluations())
@example((2, QuasiPoly.zero(), POINT))
@example((2, PREFIXES, POINT))
@example((2, PREFIXES, FRACTION_POINT))
@example((2, QuasiPoly({(): Fraction(1, 6), (1,): Fraction(1, 2), (1, 2): Fraction(-2, 3)}), POINT))
# c[1,1,1] - 1 and c[2,1,1] vanish at POINT, so only x2*x1 is left.
@example((2, QuasiPoly({
    (1, 2): CPoly.variable(1, 1, 1) - CPoly.const(1),
    (2,): CPoly.variable(2, 1, 1),
    (2, 1): CPoly.const(Fraction(3, 2)),
}), POINT))
def test_evaluate_equals_word_by_word_reference(case):
    n, p, point = case
    value, = evaluate(p, [point], n)
    assert value == reference_value(p, point, n, assignment_of(point, n))
    integer_point = all(type(x) is int for m in point.values() for row in m.data for x in row)
    integral = all(c.denominator == 1 for _, coeff in p.terms() for _, c in coeff.terms())
    if integer_point and integral:
        assert all(type(x) is int for row in value.data for x in row), value


@st.composite
def batches(draw):
    """(n, p, points): p from evaluated_polys at one to six points, so one
    batch can hold integral points and fractional points of different
    denominators."""
    n = draw(st.sampled_from([1, 2, 3]))
    return n, draw(evaluated_polys(n)), draw(st.lists(points(n), min_size=1, max_size=6))


def assert_each_alone(p, pts, n):
    """The values at pts, in one call, are those evaluate gives each point
    alone, entry types included, and the reference's."""
    values = evaluate(p, pts, n)
    assert len(values) == len(pts)
    for point, value in zip(pts, values):
        alone, = evaluate(p, [point], n)
        assert repr(value.data) == repr(alone.data)
        assert value == reference_value(p, point, n, assignment_of(point, n))


# c[1,1,1] and c[2,2,2] vanish here: alone, a word with either coefficient
# is dropped, and the value can have int entries though every entry of the
# point is a Fraction.
VANISHING_POINT = {
    1: QMatrix([[Fraction(0), Fraction(1, 2)], [Fraction(3), Fraction(-1, 3)]]),
    2: QMatrix([[Fraction(1), Fraction(2, 5)], [Fraction(-1), Fraction(0)]]),
}


@settings
@given(batches())
@example((2, QuasiPoly.zero(), [POINT, FRACTION_POINT]))
@example((2, QuasiPoly({(): CPoly.const(3)}), [FRACTION_POINT, POINT]))
@example((2, PREFIXES, [POINT]))
@example((2, PREFIXES, [POINT, FRACTION_POINT, VANISHING_POINT, POINT]))
@example((2, QuasiPoly({(): CPoly.const(2), (1,): CPoly.variable(1, 1, 1)}),
          [VANISHING_POINT, POINT, FRACTION_POINT]))
@example((2, QuasiPoly({
    (1, 2): CPoly.variable(1, 1, 1) - CPoly.const(1),
    (2,): CPoly.variable(2, 1, 1) * CPoly.const(Fraction(1, 3)),
    (2, 1): CPoly.const(Fraction(3, 2)),
}), [POINT, FRACTION_POINT, POINT]))
def test_evaluate_at_many_points_is_evaluate_at_each_alone(case):
    n, p, pts = case
    assert_each_alone(p, pts, n)


def test_evaluate_at_many_points_with_a_word_past_the_recursion_limit():
    # The fold keeps one frame per letter on a list, with every entry a lane
    # over the points, so a long word and many points need no deeper stack.
    length = sys.getrecursionlimit() + 10
    p = QuasiPoly({
        (1,) * length + (2,): CPoly.variable(2, 2, 2),
        (2,) + (1,) * length: -1,
        (): 2,
    })
    rng = random.Random(7)
    pts = [{1: QMatrix([[1, rng.randint(-1, 1)], [0, 1]]), 2: QMatrix.random(2, 2, rng, 3)}
           for _ in range(38)]
    pts += [FRACTION_POINT, VANISHING_POINT]
    assert_each_alone(p, pts, 2)


def reference_image(p, n):
    """Sum of coefficient times the product of the word's generic matrices,
    each product started at the identity: the CPoly matrix arithmetic phi_eval
    does without."""
    total = QMatrix([[CPoly.zero()] * n for _ in range(n)])
    for w, coeff in p.terms():
        total = total + generic_product(w, n).scale(coeff)
    return total


def generic_product(w, n):
    """The product of w's generic matrices, started at the identity."""
    m = QMatrix([[CPoly.const(int(i == j)) for j in range(n)] for i in range(n)])
    for k in w:
        m = m * generic_matrix(k, n)
    return m


@st.composite
def images(draw):
    """(n, p): words of length up to 4 in x1, x2, so letters repeat and
    distinct index paths share a monomial; coefficients are fractions times
    monomials in the entries c[k,i,j]."""
    n = draw(st.sampled_from([1, 2, 3]))
    index = st.integers(1, n)
    variables = st.tuples(st.sampled_from(GENS), index, index)
    monomials = st.lists(st.tuples(variables, st.integers(0, 2)), max_size=2).map(monomial)
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    cpolys = st.dictionaries(monomials, fractions, max_size=3).map(CPoly)
    words = st.lists(st.sampled_from(GENS), max_size=4).map(tuple)
    return n, draw(st.dictionaries(words, cpolys, max_size=4).map(QuasiPoly))


@settings
@given(images())
@example((2, QuasiPoly({(): CPoly.const(Fraction(1, 2))})))
@example((3, QuasiPoly({(1, 1, 1, 1): CPoly.one(), (1, 2, 1, 2): CPoly.const(-2)})))
@example((2, QuasiPoly({(1, 2, 1): CPoly.variable(1, 2, 1) ** 2 - CPoly.const(Fraction(3, 2))})))
# The coefficients share variables with the words: c[1,1,1]^4 * x1^3 reaches
# c[1,1,1]^7, which fills a field of the width 3 that degree 7 gives, and
# c[1,2,1]^3 meets the c[1,2,1] of the paths through entry (2,1).
@example((2, QuasiPoly({
    (1, 1, 1): CPoly.variable(1, 1, 1) ** 4 - CPoly.variable(1, 2, 1) ** 3,
    (1,): CPoly.variable(1, 1, 1) ** 5 * CPoly.variable(1, 1, 2),
})))
@example((1, QuasiPoly({(1, 1): CPoly.variable(1, 1, 1) ** 6, (1,): -CPoly.variable(1, 1, 1) ** 7})))
def test_phi_eval_equals_generic_matrix_products(case):
    n, p = case
    image = phi_eval(p, n)
    assert image == reference_image(p, n)
    for row in image.data:
        for entry in row:
            for mono, coeff in entry.terms():
                assert type(coeff) is Fraction and coeff != 0
                assert list(mono) == sorted(mono)
                assert len({v for v, _ in mono}) == len(mono)
                assert all(e > 0 for _, e in mono)


def reference_expand(t, n):
    """Each term's coefficient times the traces of its factors' generic
    products, as CPoly products: the arithmetic TracePoly.expand does without."""
    total = QuasiPoly.zero()
    for (traces, w), coeff in t.terms():
        c = CPoly.const(coeff)
        for factor in traces:
            c = c * generic_product(factor, n).trace()
        total = total + QuasiPoly({w: c})
    return total


@st.composite
def trace_polys(draw):
    """(n, t): up to two trace factors and a word per term, letters from x1,
    x2, so factors repeat letters and share them with the word."""
    n = draw(st.sampled_from([1, 2, 3]))
    words = st.lists(st.sampled_from(GENS), max_size=3).map(tuple)
    keys = st.tuples(st.lists(words.filter(bool), max_size=2).map(tuple), words)
    fractions = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    return n, draw(st.dictionaries(keys, fractions, max_size=4).map(TracePoly))


@settings
@given(trace_polys())
@example((3, TracePoly({(((1, 2), (1, 1)), (2,)): Fraction(1, 2), (((1, 1), (1,)), (2,)): -1})))
@example((2, TracePoly({(((1, 2),), ()): 1, (((2, 1),), ()): -1})))
def test_trace_expand_equals_traces_of_generic_products(case):
    n, t = case
    expanded = t.expand(n)
    assert expanded == reference_expand(t, n)
    for _, coeff in expanded.terms():
        assert coeff and all(type(c) is Fraction and c for _, c in coeff.terms())
