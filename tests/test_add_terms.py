"""Property tests of the one sparse term accumulator, ratpoly.add_terms, and of
every term type built on it (the ratpoly.Terms subclasses): no cancelled
coefficient is ever stored, stored coefficients keep their exact type, and
the ring laws hold."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings as hypothesis_settings, strategies as st  # noqa: E402

from quasident.antisym import (  # noqa: E402
    ExtElement,
    WedgeForm,
    atilde_basis,
    atilde_mul,
    fn_basis,
    fn_mul,
)
from quasident.cli import format_quasipoly, parse_quasipoly  # noqa: E402
from quasident.errors import DimensionMismatch  # noqa: E402
from quasident.freealg import QuasiPoly  # noqa: E402
from quasident.genmat import TracePoly  # noqa: E402
from quasident.ratpoly import CPoly, add_terms, monomial  # noqa: E402

settings = hypothesis_settings(max_examples=60, deadline=None)

# Few keys and small coefficients, so that sums and products cancel often.
coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=2)
variables = st.sampled_from([(1, 1, 1), (1, 1, 2), (2, 2, 1)])
monomials = st.lists(st.tuples(variables, st.integers(0, 2)), max_size=2).map(monomial)
cpolys = st.dictionaries(monomials, coeffs, max_size=4).map(CPoly)
words = st.lists(st.integers(1, 2), max_size=3).map(tuple)
quasipolys = st.dictionaries(words, cpolys, max_size=4).map(QuasiPoly)
# Trace factors are stored up to rotation and order, so distinct raw keys
# below merge (and may cancel) in the constructor.
trace_keys = st.tuples(st.lists(words.filter(bool), max_size=2).map(tuple), words)
tracepolys = st.dictionaries(trace_keys, coeffs, max_size=4).map(TracePoly)
EXT_N = 4
# T indices are stored sorted, so permuted T sets merge in the constructor.
ext_keys = st.sampled_from(atilde_basis(EXT_N, 3) + atilde_basis(EXT_N, 8)).flatmap(
    lambda m: st.tuples(st.permutations(m[0]).map(tuple), st.just(m[1]), st.just(m[2]))
)
ext_elements = st.dictionaries(ext_keys, coeffs, max_size=4).map(
    lambda terms: ExtElement(EXT_N, terms)
)
WEDGE_N = 2
wedge_keys = st.sampled_from(fn_basis(WEDGE_N, 1) + fn_basis(WEDGE_N, 2))
wedge_forms = st.dictionaries(wedge_keys, coeffs, max_size=4).map(
    lambda terms: WedgeForm(WEDGE_N, terms)
)


def assert_clean(p):
    """Every stored coefficient is nonzero and exact (Fraction, or a clean CPoly)."""
    for _, coeff in p.terms():
        if isinstance(coeff, CPoly):
            assert coeff
            assert_clean(coeff)
        else:
            assert type(coeff) is Fraction and coeff != 0


@settings
@given(st.lists(st.tuples(st.integers(0, 3), coeffs), max_size=12))
def test_add_terms_matches_a_plain_sum(pairs):
    out = add_terms({}, pairs)
    totals = {}
    for key, c in pairs:
        totals[key] = totals.get(key, 0) + c
    assert out == {k: v for k, v in totals.items() if v}


def test_add_terms_drops_a_cancelled_key_in_place():
    out = {1: Fraction(2), 2: Fraction(1)}
    assert add_terms(out, [(1, Fraction(-2)), (3, Fraction(0))]) is out
    assert out == {2: Fraction(1)}


@settings
@given(cpolys, cpolys)
def test_cpoly_stores_no_zero_coefficient(a, b):
    for p in (a, b, a + b, a - b, a * b, CPoly({m: -c for m, c in a.terms()}) + a):
        assert_clean(p)


@settings
@given(quasipolys, quasipolys)
def test_quasipoly_stores_no_zero_coefficient(a, b):
    for p in (a, b, a + b, a - b, a * b, a.relabel({1: 2})):
        assert_clean(p)


@settings
@given(tracepolys, tracepolys)
def test_tracepoly_stores_no_zero_coefficient(a, b):
    for p in (a, b, a + b, a - b, a * b, a.relabel({1: 2})):
        assert_clean(p)


@settings
@given(ext_elements, ext_elements)
def test_ext_element_stores_no_zero_coefficient(a, b):
    for p in (a, b, a + b, a - b, atilde_mul(a, b)):
        assert_clean(p)


@settings
@given(wedge_forms, wedge_forms)
def test_wedge_form_stores_no_zero_coefficient(a, b):
    for p in (a, b, a + b, a - b, fn_mul(a, b)):
        assert_clean(p)


@settings
@given(st.one_of(cpolys, quasipolys, tracepolys, ext_elements, wedge_forms))
def test_difference_with_itself_is_zero(p):
    assert (p - p).is_zero()
    assert (p - p).terms() == []


any_terms = st.one_of(cpolys, quasipolys, tracepolys, ext_elements, wedge_forms)


@settings
@given(any_terms)
def test_negation_and_scaling(p):
    assert -(-p) == p
    assert p.scale(0).is_zero()
    assert p.scale(1) == p and p.scale(-1) == -p
    assert p + (-p) == p - p


@settings
@given(any_terms)
def test_zero_prints_as_zero(p):
    assert str(p - p) == "0"


@settings
@given(st.one_of(cpolys, quasipolys))
def test_power_is_repeated_product(p):
    product = p ** 0
    assert product == 1
    for e in range(1, 4):
        product = product * p
        assert p ** e == product


@pytest.mark.parametrize("make", [
    lambda n: ExtElement.monomial(n, (), 1, 0),
    lambda n: WedgeForm.x_power(n, 1),
])
def test_sums_across_dimensions_are_refused(make):
    a, b = make(3), make(4)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        a - b
    assert a != b and not (a == b)
    assert a == make(3) and hash(a) == hash(make(3))


@settings
@given(cpolys, cpolys, cpolys)
def test_cpoly_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings
@given(quasipolys, quasipolys, quasipolys)
def test_quasipoly_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings
@given(quasipolys)
def test_parse_inverts_format(p):
    assert parse_quasipoly(format_quasipoly(p)) == p
