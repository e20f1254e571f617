import io
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from quasident import cli, genmat, idsolve
from quasident.errors import BudgetExceeded, DimensionMismatch
from quasident.exactla import QMatrix
from quasident.freealg import QuasiPoly, perm_sign
from quasident.ratpoly import CPoly

x = QuasiPoly.x
c = CPoly.variable


def det2(m: QMatrix) -> CPoly:
    return m.data[0][0] * m.data[1][1] - m.data[0][1] * m.data[1][0]


def random_quasipoly(rng, gens=(1, 2), max_len=2, terms=3):
    p = QuasiPoly.zero()
    for _ in range(rng.randint(0, terms)):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        coeff = CPoly.const(rng.randint(-4, 4))
        if rng.random() < 0.4:
            coeff = coeff * c(rng.choice(gens), rng.randint(1, 2), rng.randint(1, 2))
        p = p + QuasiPoly({w: coeff})
    return p


def test_generic_matrix_entries():
    m = genmat.generic_matrix(1, 2)
    assert m.data == (
        (c(1, 1, 1), c(1, 1, 2)),
        (c(1, 2, 1), c(1, 2, 2)),
    )


def test_generic_matrix_trace():
    assert genmat.generic_matrix(1, 2).trace() == c(1, 1, 1) + c(1, 2, 2)


def test_generic_matrices_distinct():
    assert genmat.generic_matrix(1, 2) != genmat.generic_matrix(2, 2)


def test_phi_of_generator():
    assert genmat.phi_eval(x(1), 2) == genmat.generic_matrix(1, 2)


def test_phi_is_homomorphism():
    rng = random.Random(0)
    for _ in range(100):
        p, q = random_quasipoly(rng), random_quasipoly(rng)
        assert genmat.phi_eval(p * q, 2) == genmat.phi_eval(p, 2) * genmat.phi_eval(q, 2)
        assert genmat.phi_eval(p + q, 2) == genmat.phi_eval(p, 2) + genmat.phi_eval(q, 2)


def test_phi_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        genmat.phi_eval(QuasiPoly.const(c(1, 3, 1)), 2)


def test_trace_cyclic():
    rng = random.Random(1)
    for _ in range(100):
        p, q = random_quasipoly(rng), random_quasipoly(rng)
        a, b = genmat.phi_eval(p, 2), genmat.phi_eval(q, 2)
        assert (a * b).trace() == (b * a).trace()


def test_zero_divisor_example():
    p1 = c(2, 1, 2) * x(1) - c(1, 1, 2) * x(2) + QuasiPoly.const(
        c(1, 1, 2) * c(2, 2, 2) - c(1, 2, 2) * c(2, 1, 2)
    )
    p2 = c(2, 1, 2) * x(1) - c(1, 1, 2) * x(2) + QuasiPoly.const(
        c(1, 1, 2) * c(2, 1, 1) - c(1, 1, 1) * c(2, 1, 2)
    )
    assert not genmat.is_quasi_identity(p1, 2)
    assert not genmat.is_quasi_identity(p2, 2)
    assert genmat.is_quasi_identity(p1 * p2, 2)


def test_amitsur_levitzki():
    assert genmat.is_quasi_identity(genmat.standard_poly(4), 2)
    assert genmat.is_quasi_identity(QuasiPoly.zero(), 2)


def test_s3_not_identity_matrix_unit_witness():
    s3 = genmat.standard_poly(3)
    assert not genmat.is_quasi_identity(s3, 2)
    point = {
        1: genmat.matrix_unit(1, 1, 2),
        2: genmat.matrix_unit(1, 2, 2),
        3: genmat.matrix_unit(2, 1, 2),
    }
    assert not genmat.evaluate(s3, [point], 2)[0].is_zero()


def test_commutator_square_central_at_2():
    comm = x(1) * x(2) - x(2) * x(1)
    assert genmat.is_central(comm * comm, 2)
    assert not genmat.is_central(x(1), 2)


def test_commutator_square_not_central_at_3_with_witness():
    comm = x(1) * x(2) - x(2) * x(1)
    sq = comm * comm
    assert not genmat.is_central(sq, 3)
    witness = genmat.central_witness(sq, 3)
    assert witness is not None
    point, value = witness
    assert genmat.evaluate(sq, [point], 3) == [value]
    off_diag_nonzero = any(
        value[i, j] != 0 for i in range(3) for j in range(3) if i != j
    )
    diag_differs = any(value[i, i] != value[0, 0] for i in range(1, 3))
    assert off_diag_nonzero or diag_differs


@pytest.mark.parametrize("gens", [(), (3,), (2, 5)])
def test_witness_points_try_every_unit_tuple_then_the_seeded_draws(gens):
    n, seed, bound, trials = 2, 7, 4, 5
    points = list(genmat.witness_points(gens, n, seed, bound, trials))
    units = n ** (2 * len(gens))
    assert len(points) == units + trials
    unit_matrices = {genmat.matrix_unit(i, j, n) for i in (1, 2) for j in (1, 2)}
    for point in points[:units]:
        assert list(point) == list(gens)
        assert all(m in unit_matrices for m in point.values())
    assert len({tuple(point.items()) for point in points[:units]}) == units
    rng = random.Random(seed)
    drawn = [{k: QMatrix.random(n, n, rng, bound) for k in gens} for _ in range(trials)]
    assert points[units:] == drawn


def test_witness_points_build_each_unit_when_its_tuple_is_tried(monkeypatch):
    calls = []
    matrix_unit = genmat.matrix_unit

    def counted(i, j, n):
        calls.append((i, j))
        return matrix_unit(i, j, n)

    monkeypatch.setattr(genmat, "matrix_unit", counted)
    points = genmat.witness_points([1, 2], 100, 0, 9)
    assert calls == []
    assert next(points) == {1: matrix_unit(1, 1, 100), 2: matrix_unit(1, 1, 100)}
    assert next(points) == {1: matrix_unit(1, 1, 100), 2: matrix_unit(1, 2, 100)}
    assert len(calls) <= 2 * 2
    # x1 is not central at e_11, the first tuple tried.
    calls.clear()
    started = time.monotonic()
    point, _ = genmat.central_witness(x(1), 100)
    assert time.monotonic() - started < 2
    assert point == {1: matrix_unit(1, 1, 100)} and len(calls) <= 1


def test_witness_points_skip_unit_tuples_past_two_generators():
    rng = random.Random(3)
    drawn = [{k: QMatrix.random(3, 3, rng, 9) for k in (1, 2, 4)} for _ in range(4)]
    assert list(genmat.witness_points([1, 2, 4], 3, 3, 9, trials=4)) == drawn


def test_symbolic_verdict_values_are_the_one_budgeted_image():
    comm = x(1) * x(2) - x(2) * x(1)
    values = genmat.verdict_values(comm, 2, mode="symbolic", seed=0, trials=5, bound=9)
    assert list(values) == [(None, genmat.phi_eval(comm, 2))]
    refused = genmat.verdict_values(
        comm ** 10, 2, mode="symbolic", seed=0, trials=5, bound=9, budget=1000
    )
    with pytest.raises(BudgetExceeded):
        next(refused)


def test_randomized_verdict_values_are_lazy(monkeypatch):
    points = []
    evaluate = genmat.evaluate

    def counted(p, chunk, n):
        points.extend(chunk)
        return evaluate(p, chunk, n)

    monkeypatch.setattr(genmat, "evaluate", counted)
    values = genmat.verdict_values(x(1), 2, mode="randomized", seed=1, trials=20, bound=9)
    assert points == []
    # x1 at a random nonzero point is nonzero, so the first value decides,
    # and the first point is evaluated alone.
    assert not all(v.is_zero() for _, v in values)
    assert len(points) == 1


def test_randomized_verdict_values_follow_the_seed():
    p = x(2) * x(1) + x(1).scale(3)
    values = list(genmat.verdict_values(p, 2, mode="randomized", seed=4, trials=3, bound=5))
    rng = random.Random(4)
    expected = []
    for _ in range(3):
        point = {k: QMatrix.random(2, 2, rng, 5) for k in (1, 2)}
        expected.append((point, genmat.evaluate(p, [point], 2)[0]))
    assert values == expected


def test_standard_poly_s2():
    assert genmat.standard_poly(2) == x(1) * x(2) - x(2) * x(1)


def test_standard_poly_term_count():
    for h in (1, 2, 3, 4):
        assert len(genmat.standard_poly(h).terms()) == math.factorial(h)


def test_capelli_c3():
    assert genmat.capelli(2) == x(1) * x(3) * x(2) - x(2) * x(3) * x(1)


def test_capelli_term_count():
    for t in (1, 2, 3):
        assert len(genmat.capelli(t).terms()) == math.factorial(t)


def test_trace_of_standard_vanishes_even():
    for n in (2, 3):
        assert genmat.phi_eval(genmat.standard_poly(2), n).trace().is_zero()
        assert genmat.phi_eval(genmat.standard_poly(4), n).trace().is_zero()


def test_capelli_kills_dependent_tuples():
    rng = random.Random(2)
    n, t = 2, 3
    cap = genmat.capelli(t)
    for _ in range(20):
        a1 = QMatrix.random(n, n, rng, 4)
        a2 = QMatrix.random(n, n, rng, 4)
        a3 = a1.scale(rng.randint(-3, 3)) + a2.scale(rng.randint(-3, 3))
        point = {1: a1, 2: a2, 3: a3}
        for k in range(t + 1, 2 * t):
            point[k] = QMatrix.random(n, n, rng, 4)
        assert genmat.evaluate(cap, [point], n)[0].is_zero()


def test_q1():
    assert genmat.cayley_hamilton_q(1) == x(1) - QuasiPoly.const(c(1, 1, 1))


def test_q2_explicit_form():
    xi = genmat.generic_matrix(1, 2)
    tr = xi.trace()
    tr_sq = (xi * xi).trace()
    expected = (
        x(1) * x(1)
        - QuasiPoly.const(tr) * x(1)
        + QuasiPoly.const((tr * tr - tr_sq) * Fraction(1, 2))
    )
    assert genmat.cayley_hamilton_q(2) == expected


def test_tau2_is_determinant_at_2():
    taus = genmat.char_poly_coefficients(2)
    tau2 = taus[1].expand(2).coefficient(())
    assert tau2 == det2(genmat.generic_matrix(1, 2))


def test_cayley_hamilton_vanishes():
    for n in (1, 2, 3):
        assert genmat.is_quasi_identity(genmat.cayley_hamilton_q(n), n)
        assert genmat.is_quasi_identity(genmat.cayley_hamilton_Q(n), n)


def test_cayley_hamilton_fails_one_dimension_up():
    for n in (1, 2, 3):
        assert not genmat.is_quasi_identity(genmat.cayley_hamilton_Q(n), n + 1)


def test_Q2_six_terms():
    tr1 = genmat.trace_word_cpoly((1,), 2)
    tr2 = genmat.trace_word_cpoly((2,), 2)
    tr12 = genmat.trace_word_cpoly((1, 2), 2)
    expected = (
        x(1) * x(2)
        + x(2) * x(1)
        - QuasiPoly.const(tr1) * x(2)
        - QuasiPoly.const(tr2) * x(1)
        + QuasiPoly.const(tr1 * tr2 - tr12)
    )
    assert genmat.cayley_hamilton_Q(2) == expected


def test_Q_trace_form_structure():
    form = genmat.cayley_hamilton_Q_trace(2)
    terms = dict(form.terms())
    assert terms == {
        ((), (1, 2)): 1,
        ((), (2, 1)): 1,
        (((1,),), (2,)): -1,
        (((2,),), (1,)): -1,
        (((1,), (2,)), ()): 1,
        (((1, 2),), ()): -1,
    }


def test_Q_is_symmetric():
    for n in (2, 3):
        form = genmat.cayley_hamilton_Q_trace(n)
        swapped = form.relabel({1: 2, 2: 1})
        assert swapped == form


def test_diagonal_restriction():
    for n in (1, 2, 3):
        q = genmat.cayley_hamilton_q_trace(n)
        Q = genmat.cayley_hamilton_Q_trace(n)
        diag = Q.relabel({k: 1 for k in range(1, n + 1)})
        assert diag == q.scale(math.factorial(n))


def cycle_sum_Q(n):
    """Q_n by the classical formula, independent of Newton's identities and
    of polarization: (-1)^n times the sum over permutations of 1..n+1 of the
    sign, times tr of the product along each cycle avoiding n+1, times the
    word read along the cycle through n+1, from the letter after n+1."""
    m = n + 1
    total = genmat.TracePoly.zero()
    for perm in itertools.permutations(range(1, m + 1)):
        traces, w, seen = [], (), set()
        for start in range(1, m + 1):
            cycle, k = [], start
            while k not in seen:
                seen.add(k)
                cycle.append(k)
                k = perm[k - 1]
            if m in cycle:
                pos = cycle.index(m)
                w = tuple(cycle[pos + 1:] + cycle[:pos])
            elif cycle:
                traces.append(tuple(cycle))
        total = total + genmat.TracePoly({(tuple(traces), w): (-1) ** n * perm_sign(perm)})
    return total


def test_polarization_recovers_Q():
    for n in (1, 2, 3, 4, 5):
        assert genmat.cayley_hamilton_Q_trace(n) == cycle_sum_Q(n), n


def test_trace_word_canonical_rotation():
    assert genmat.canonical_rotation((2, 1)) == (1, 2)
    assert genmat.trace_word_cpoly((1, 2), 2) == genmat.trace_word_cpoly((2, 1), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trace_word_matches_generic_matrix_products(n):
    # Repeated letters make distinct index cycles read the same monomial.
    for w in [(), (1,), (1, 1), (1, 2, 1), (1, 1, 2, 2), (2, 1, 2, 1), (1, 1, 1, 1), (3, 1, 3)]:
        product = QMatrix([[CPoly.const(int(i == j)) for j in range(n)] for i in range(n)])
        for k in w:
            product = product * genmat.generic_matrix(k, n)
        assert genmat.trace_word_cpoly(w, n) == product.trace(), w


def test_evaluate_matches_phi_specialization():
    rng = random.Random(3)
    n = 2
    for _ in range(50):
        p = random_quasipoly(rng)
        point = {k: QMatrix.random(n, n, rng, 5) for k in p.generators() or {1}}
        value, = genmat.evaluate(p, [point], n)
        image = genmat.phi_eval(p, n)
        assignment = {
            (k, i, j): point[k][i - 1, j - 1]
            for k in point
            for i in (1, 2)
            for j in (1, 2)
        }
        direct = QMatrix(
            [
                [image.data[i][j].eval(assignment) for j in range(n)]
                for i in range(n)
            ]
        )
        assert value == direct


def test_evaluate_multiplies_once_per_shared_prefix(monkeypatch):
    # The words are summed by Horner's rule on their trie, so each edge into
    # a node that has children costs one lane product, M_k times the summed
    # suffix, and an edge into a leaf is a scaling: 4 + 12 + 24 = 40 for
    # S_4's 24 words, where the prefix walk took 60 and rebuilding every
    # word 72.  A lane holds an entry's values at every point, so the count
    # does not depend on how many points there are.
    products = []
    trie_fold = genmat.trie_fold

    def counted(terms, edge):
        def counted_edge(k, c, below, acc):
            if below is not None:
                products.append(k)
            return edge(k, c, below, acc)

        return trie_fold(terms, counted_edge)

    monkeypatch.setattr(genmat, "trie_fold", counted)
    s4 = genmat.standard_poly(4)
    words = [w for w, _ in s4.terms()]
    inner = {w[:t] for w in words for t in range(1, len(w))}
    rng = random.Random(4)
    for trials in (1, 20):
        products.clear()
        points = [{k: QMatrix.random(2, 2, rng, 5) for k in range(1, 5)} for _ in range(trials)]
        assert all(value.is_zero() for value in genmat.evaluate(s4, points, 2))
        assert len(products) == len(inner) == 40


def reference_word_paths(w, packing):
    """Entry (i, j) of the product of w's generic matrices as {sorted codes:
    multiplicity}, each path extended letter by letter from the left as a
    tuple of variable codes: the oracle of Packing.product."""
    cols = range(1, packing.n + 1)
    out = []
    for i in cols:
        row = [{(): 1} if j == i else {} for j in cols]
        for k in w:
            step = [{} for _ in cols]
            for l, paths in zip(cols, row):
                for j, acc in zip(cols, step):
                    v = (packing.code(k, l, j),)
                    for key, mult in paths.items():
                        longer = tuple(sorted(key + v))
                        acc[longer] = acc.get(longer, 0) + mult
            row = step
        out.append(row)
    return out


def random_words(rng, max_len=4):
    """A word list with the empty word, repeated letters, duplicated words
    and words that are prefixes of others."""
    words = [tuple(rng.choice((1, 2, 3)) for _ in range(rng.randint(0, max_len))) for _ in range(6)]
    words += [(), rng.choice(words), (2, 2, 2)]
    words += [w[: rng.randint(0, len(w))] for w in words[:3]]
    return words


def trie_nodes(words):
    """The distinct nonempty prefixes of the words."""
    return {w[:t] for w in words for t in range(1, len(w) + 1)}


def decoded(key, width):
    """The sorted variable codes of a packed monomial, read field by field
    over every field up to its top bit."""
    mask = (1 << width) - 1
    fields = range(key.bit_length() // width + 1) if width else ()
    return tuple(code for code in fields for _ in range((key >> width * code) & mask))


# Generators far apart: field codes are dense over the generators in use.
SPREAD = {1: 2, 2: 7, 3: 10 ** 12}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_paths_equal_the_per_word_walk(n):
    # Packing.product folds Packing.times over a word from the right; the
    # words include the empty word and repeated letters.
    rng = random.Random(n)
    for _ in range(20):
        words = [tuple(SPREAD[k] for k in w) for w in random_words(rng)]
        # The field width holds the longest word's degree.
        width = max(map(len, words)).bit_length()
        packing = genmat.Packing(SPREAD.values(), n, width)
        for w in words:
            table = packing.product(w)
            unpacked = [[{decoded(key, width): mult for key, mult in paths.items()}
                         for paths in row] for row in table]
            # Equal dicts: no two keys decode alike, and every multiplicity matches.
            assert [[len(paths) for paths in row] for row in table] == [
                [len(paths) for paths in row] for row in unpacked]
            assert unpacked == reference_word_paths(w, packing), w
            # A key has one field per variable of the three generators.
            assert all(key.bit_length() <= 3 * n * n * width
                       for row in table for paths in row for key in paths)
    # The empty word is the identity, at width 0 too.
    assert genmat.Packing((), n, 0).product(()) == [
        [{0: 1} if j == i else {} for j in range(n)] for i in range(n)]


def decoded_table(packing, table):
    """A table of packed dicts as a QMatrix of CPolys."""
    return QMatrix([[packing.cpoly(entry) for entry in row] for row in table])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_times_adds_the_generic_product_into_its_accumulator(n):
    # times(k, table, acc) is acc + M_k table, written into acc, and a
    # coefficient that cancels leaves no key behind.
    rng = random.Random(30 + n)
    packing = genmat.Packing(SPREAD.values(), n, 3)
    letters = list(SPREAD.values())

    def random_entry():
        variables = [(rng.choice(letters), rng.randint(1, n), rng.randint(1, n))
                     for _ in range(rng.randint(0, 2))]
        return {packing.pack(((v, 1),)): Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                for v in variables}

    def random_table():
        return [[random_entry() for _ in range(n)] for _ in range(n)]

    for _ in range(10):
        k = rng.choice(letters)
        table, acc = random_table(), random_table()
        product = genmat.generic_matrix(k, n) * decoded_table(packing, table)
        expected = decoded_table(packing, acc) + product
        assert packing.times(k, table, acc) is acc
        assert decoded_table(packing, acc) == expected
        assert decoded_table(packing, packing.times(k, table)) == product
    # M_2 x1 - M_2 x1 plus one further key: every product key cancels.
    k, other = letters[1], letters[2]
    x1 = packing.product((letters[0],))
    acc = packing.times(k, x1)
    extra = packing.pack((((other, 1, n), 1),))
    acc[0][0][extra] = Fraction(1, 2)
    negated = [[{key: -mult for key, mult in entry.items()} for entry in row] for row in x1]
    packing.times(k, negated, acc)
    assert acc == [[{extra: Fraction(1, 2)} if (i, j) == (0, 0) else {} for j in range(n)]
                   for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_monomials_round_trip_at_the_field_boundaries(n):
    first, last = (2, 1, 1), (10 ** 12, n, n)
    # The constant monomial is the key 0, at every width.
    for width in (0, 1, 4):
        packing = genmat.Packing(SPREAD.values(), n, width)
        assert packing.pack(()) == 0
        assert packing.cpoly({0: 5}) == CPoly.const(5)
    for width in (1, 2, 3, 5):
        packing = genmat.Packing(SPREAD.values(), n, width)
        full = 2 ** width - 1
        mono = ((first, full), ((7, 1, n), 1), (last, full))
        key = packing.pack(mono)
        # An exponent of 2^width - 1 fills its field and no more, and the
        # last field is the last of 3 n^2.
        assert key >> width * packing.code(*last) == full
        assert packing.code(*last) == 3 * n * n - 1
        assert packing.cpoly({key: 3, 0: -1}) == CPoly({mono: 3, (): -1})
        # 2^width needs the next width: at this one it carries into the field
        # of the next code, c[2,1,2] (c[7,1,1] at n = 1).
        over = ((first, full + 1),)
        after = (2, 1, 2) if n > 1 else (7, 1, 1)
        assert packing.pack(over) == packing.pack(((after, 1),))
        wider = genmat.Packing(SPREAD.values(), n, (full + 1).bit_length())
        assert wider.width == width + 1
        assert wider.cpoly({wider.pack(over): 1}) == CPoly({over: 1})


def word_by_word(p, one, matrix, value):
    """The sum over p's words of value(c_w) times the product of the words'
    matrices, each product built from one: the per-word sum that
    trie_fold replaced."""
    total = one.scale(0)
    for w, coeff in p.terms():
        product = one
        for k in w:
            product = product * matrix(k)
        total = total + product.scale(value(coeff))
    return total


def fold_cases(rng, n):
    """Quasi-polynomials over random_words of length up to 6, with CPoly
    coefficients in the entries of 3 generic n x n matrices, and ones whose
    trie has a subtree that sums to zero at n = 1."""
    def coefficient():
        coeff = CPoly.const(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) or 1)
        for _ in range(rng.randint(0, 2)):
            coeff = coeff * c(rng.randint(1, 3), rng.randint(1, n), rng.randint(1, n))
        return coeff

    for _ in range(6):
        p = QuasiPoly.zero()
        for w in random_words(rng, max_len=6):
            p = p + QuasiPoly({w: coefficient()})
        yield p
    # At n = 1, below the root, x1's subtree of S_4 is x1 S_3(x2, x3, x4)
    # and that of c[2,1,1] x1 - x1 x2 + x3 is x1 (c[2,1,1] - x2), each zero.
    yield genmat.standard_poly(2)
    yield genmat.standard_poly(4)
    yield QuasiPoly({(1,): c(2, 1, 1), (1, 2): -1}) + x(3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trie_fold_equals_the_word_by_word_sum(n):
    rng = random.Random(20 + n)
    one = QMatrix([[CPoly.const(int(i == j)) for j in range(n)] for i in range(n)])
    images = []
    for p in fold_cases(rng, n):
        image = genmat.phi_eval(p, n)
        images.append(image)
        assert image == word_by_word(
            p, one, lambda k: genmat.generic_matrix(k, n), lambda coeff: coeff)
        integral = {k: QMatrix.random(n, n, rng, 5) for k in (1, 2, 3, 4)}
        fractional = {k: QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                   for _ in range(n)] for _ in range(n)]) for k in (1, 2, 3, 4)}
        points = [integral, fractional]
        for point, value in zip(points, genmat.evaluate(p, points, n)):
            values = {(k, i + 1, j + 1): v for k, m in point.items()
                      for i, row in enumerate(m.data) for j, v in enumerate(row)}
            assert value == word_by_word(
                p, QMatrix.identity(n), point.get, lambda coeff: coeff.eval(values))
            assert value == QMatrix([[e.eval(values) for e in row] for row in image.data])
    # S_2 vanishes at n = 1 and S_4 at n <= 2 (Amitsur-Levitzki); the last
    # case is x3 where x1's subtree cancels.
    assert [image.is_zero() for image in images[-3:]] == [n == 1, n <= 2, False]


def test_the_fold_takes_words_longer_than_the_recursion_limit():
    # x1^L x2 - x2 x1^L vanishes at n = 1 and not at n = 2; the fold keeps
    # one frame per letter on a list, so a word past the recursion limit
    # needs no deeper Python stack.
    length = sys.getrecursionlimit() + 10
    p = QuasiPoly({(1,) * length + (2,): 1, (2,) + (1,) * length: -1})
    assert genmat.phi_eval(p, 1).is_zero()
    point = {1: QMatrix([[1, 1], [0, 1]]), 2: genmat.matrix_unit(2, 1, 2)}
    assert genmat.evaluate(p, [point], 2) == [QMatrix([[length, 0], [0, -length]])]
    assert genmat.evaluate(p, [{k: QMatrix([[Fraction(3, 2)]]) for k in (1, 2)}], 1)[0].is_zero()


# Coefficients with exponents 1, 2 and 15, fractions, a constant word, a
# variable of x3, which is in no word, the zero polynomial and constants.
LANE_CASES = [
    QuasiPoly({
        (1, 2): c(1, 1, 2) * c(2, 2, 1) ** 2 - CPoly.const(Fraction(1, 3)),
        (2,): c(1, 2, 2) ** 15 + c(2, 1, 2),
        (2, 1, 1): CPoly.const(Fraction(5, 2)),
        (): c(2, 1, 1) + CPoly.const(2),
    }),
    QuasiPoly({(1, 2): c(1, 1, 2) * c(2, 2, 1) ** 2 - c(3, 2, 2), (1,): c(1, 2, 1) ** 15 * 3}),
    QuasiPoly({(1,): c(3, 1, 1)}),
    QuasiPoly.zero(),
    QuasiPoly.const(4),
    QuasiPoly.const(Fraction(-7, 3)),
]


def lane_points(rng, size, fractional):
    """size points for x1, x2, x3 at n = 2: integer matrices, or every other
    one with Fraction entries when fractional."""
    def entry(t):
        if fractional and t % 2:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randint(-5, 5)

    return [{k: QMatrix([[entry(t) for _ in range(2)] for _ in range(2)]) for k in (1, 2, 3)}
            for t in range(size)]


@pytest.mark.parametrize("case", range(len(LANE_CASES)))
def test_evaluate_reads_coefficients_as_lanes_like_the_reference_evaluator(case):
    # Each value of a call equals CPoly.eval of phi_eval's image at its point
    # and the word-by-word sum with coefficients from CPoly.eval, in calls of
    # one point and of more than POINT_CHUNK points.
    p, n = LANE_CASES[case], 2
    image = genmat.phi_eval(p, n)
    integral = all(a.denominator == 1 for _, coeff in p.terms() for _, a in coeff.terms())
    rng = random.Random(40 + case)
    for size in (1, genmat.POINT_CHUNK + 3):
        for fractional in (False, True):
            points = lane_points(rng, size, fractional)
            values = genmat.evaluate(p, points, n)
            assert len(values) == size
            for point, value in zip(points, values):
                assignment = {(k, i + 1, j + 1): v for k, m in point.items()
                              for i, row in enumerate(m.data) for j, v in enumerate(row)}
                assert value == QMatrix([[e.eval(assignment) for e in row] for row in image.data])
                assert value == word_by_word(
                    p, QMatrix.identity(n), point.get, lambda coeff: coeff.eval(assignment))
                if integral and not fractional:
                    assert all(type(v) is int for row in value.data for v in row), value


def test_a_one_point_call_leaves_out_a_word_that_vanishes_there():
    # c[1,1,1] is 0 at this point, so x1 is left out and the value 2 keeps
    # int entries although x1's entries are Fractions.
    p = QuasiPoly({(): 2, (1,): c(1, 1, 1)})
    point = {1: QMatrix([[0, Fraction(1, 2)], [3, Fraction(-1, 3)]])}
    value, = genmat.evaluate(p, [point], 2)
    assert repr(value.data) == repr(((2, 0), (0, 2)))


def test_evaluate_raises_a_coefficient_to_its_exponent_in_one_power():
    # c[1,1,1]^5000 x1 is one pow of the entry, not 5000 products of lanes.
    p = QuasiPoly({(1,): c(1, 1, 1) ** 5000})
    a = 10 ** 9 + 7
    started = time.perf_counter()
    value, = genmat.evaluate(p, [{1: QMatrix([[a, 1], [2, 3]])}], 2)
    assert time.perf_counter() - started < 2
    assert value == QMatrix([[a ** 5001, a ** 5000], [2 * a ** 5000, 3 * a ** 5000]])


@pytest.mark.parametrize("variable", [(1, 3, 1), (1, 1, 3)])
def test_evaluate_refuses_a_coefficient_index_past_n(variable):
    # Read as a lane, c[1,1,3] at n = 2 would be entry (2, 1) of x1; evaluate
    # refuses it as phi_eval does, at one point and at many.
    p = QuasiPoly({(1,): c(*variable)})
    with pytest.raises(DimensionMismatch) as symbolic:
        genmat.phi_eval(p, 2)
    assert str(symbolic.value) == "coefficient variable c[%d,%d,%d] exceeds n=2" % variable
    rng = random.Random(5)
    for size in (1, 5):
        points = [{1: QMatrix.random(2, 2, rng, 5)} for _ in range(size)]
        with pytest.raises(DimensionMismatch) as numeric:
            genmat.evaluate(p, points, 2)
        assert str(numeric.value) == str(symbolic.value)


def counting_times(monkeypatch):
    """A list that records the letter of every Packing.times call from now on."""
    letters = []
    times = genmat.Packing.times

    def counted(packing, k, table, acc=None):
        letters.append(k)
        return times(packing, k, table, acc)

    monkeypatch.setattr(genmat.Packing, "times", counted)
    return letters


def test_phi_eval_multiplies_once_per_trie_edge(monkeypatch):
    # phi_eval folds S_4's 24 words by Horner's rule: one left multiplication
    # per trie edge, 64, where multiplying out every word takes 96.
    letters = counting_times(monkeypatch)
    s4 = genmat.standard_poly(4)
    assert genmat.phi_eval(s4, 2).is_zero()
    assert len(letters) == len(trie_nodes(w for w, _ in s4.terms())) == 64


@pytest.mark.parametrize("n, d", [(1, 3), (2, 3), (1, 5)])
def test_the_solver_multiplies_once_per_distinct_ansatz_word(monkeypatch, n, d):
    # Each word's table is one multiplication of its suffix's, so the count is
    # the number of distinct nonempty words, sum over k < d of d!/k!.
    letters = counting_times(monkeypatch)
    _, ansatz = idsolve.multilinear_identity_space(n, d)
    words = {sigma[k:] for k, sigma, _ in ansatz.unknowns} - {()}
    assert len(letters) == len(words) == sum(
        math.factorial(d) // math.factorial(k) for k in range(d))


def test_expand_multiplies_once_per_letter_of_each_distinct_factor(monkeypatch):
    letters = counting_times(monkeypatch)
    for n, trace in [(3, genmat.cayley_hamilton_Q_trace(3)), (4, genmat.cayley_hamilton_q_trace(4)),
                     (2, genmat.TracePoly.tr((1, 2, 1)) * genmat.TracePoly.tr((2, 1, 1)))]:
        letters.clear()
        trace.expand(n)
        factors = {t for (traces, _), _ in trace.terms() for t in traces}
        assert len(letters) == sum(map(len, factors))


def counting_decodes(monkeypatch):
    """A list that records every Packing.cpoly call from now on."""
    decoded = []
    cpoly = genmat.Packing.cpoly

    def counted(packing, terms):
        decoded.append(terms)
        return cpoly(packing, terms)

    monkeypatch.setattr(genmat.Packing, "cpoly", counted)
    return decoded


@pytest.mark.parametrize("n, p, central", [
    (3, genmat.standard_poly(5), False),
    (2, (x(1) * x(2) - x(2) * x(1)) ** 2, True),
], ids=["S5-n3", "commutator-squared-n2"])
def test_a_symbolic_check_decodes_no_entry_of_its_image(monkeypatch, n, p, central):
    decoded = counting_decodes(monkeypatch)
    buf = io.StringIO()
    argv = ["--format", "json", "check", "--n", str(n), "--expr", cli.format_quasipoly(p)]
    assert cli.run_command(argv, buf) == 0
    results = json.loads(buf.getvalue())["results"]
    assert (results["quasi_identity"], results["central"]) == (False, central)
    assert decoded == []


def test_an_image_decodes_each_entry_once_when_its_data_is_read(monkeypatch):
    decoded = counting_decodes(monkeypatch)
    p = (x(1) * x(2) - x(2) * x(1)) ** 2 + QuasiPoly.const(c(1, 1, 2) * Fraction(1, 2))
    image = genmat.phi_eval(p, 2)
    assert image.is_scalar() and not image.is_zero()
    assert decoded == []
    first = image.data
    assert len(decoded) == 4
    assert image.data is first and image[1, 1] == first[1][1]
    assert len(decoded) == 4


def test_an_image_equals_the_product_of_its_generic_matrices():
    g1, g2 = genmat.generic_matrix(1, 3), genmat.generic_matrix(2, 3)
    image = genmat.phi_eval(x(1) * x(2) * x(1) - x(2).scale(Fraction(2, 3)), 3)
    product = g1 * g2 * g1 - g2.scale(Fraction(2, 3))
    assert image == product and product == image
    assert image.shape() == (3, 3) and hash(image) == hash(product)
    assert genmat.phi_eval(QuasiPoly.zero(), 2) == QMatrix([[CPoly.zero()] * 2] * 2)
