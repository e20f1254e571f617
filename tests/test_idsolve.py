import itertools
import random
from fractions import Fraction

import pytest

from quasident import exactla, genmat, idsolve
from quasident.errors import BudgetExceeded, NotAQuasiIdentity, NotOneVariable, QuasidentError
from quasident.freealg import QuasiPoly, perm_sign
from quasident.ratpoly import CPoly

x = QuasiPoly.x
c = CPoly.variable


def test_ansatz_size_matches_normal_form():
    assert len(idsolve.MultilinearAnsatz(2, 2)) == 26
    # k=0: 6 permutations; k=1: 6 * 9; k=2: 3 * 81; k=3: 729
    assert len(idsolve.MultilinearAnsatz(3, 3)) == 6 + 54 + 243 + 729


def test_space_2_2_is_spanned_by_Q2():
    space, ansatz = idsolve.multilinear_identity_space(2, 2)
    assert space.dim() == 1
    qvec = ansatz.coordinates(genmat.cayley_hamilton_Q(2))
    assert any(qvec)
    assert space.contains_vector(qvec)


def test_space_3_3_is_spanned_by_Q3():
    space, ansatz = idsolve.multilinear_identity_space(3, 3)
    assert space.dim() == 1
    qvec = ansatz.coordinates(genmat.cayley_hamilton_Q(3))
    assert space.contains_vector(qvec)


def test_low_degree_spaces_are_empty():
    space, _ = idsolve.multilinear_identity_space(3, 2)
    assert space.dim() == 0
    space, _ = idsolve.multilinear_identity_space(2, 1)
    assert space.dim() == 0


def test_solution_vectors_reassemble_to_identities():
    for n, d in ((2, 2), (3, 3)):
        space, ansatz = idsolve.multilinear_identity_space(n, d)
        for v in space.basis:
            p = ansatz.assemble(v)
            assert genmat.is_quasi_identity(p, n)


def reference_identity_space(n, d):
    """The solver's nullspace from a system read off products of
    generic_matrix in QMatrix/CPoly arithmetic: each unknown's term, its
    coefficient monomial times the product of its word's generic matrices,
    gives every (entry, monomial) equation its coefficient."""
    ansatz = idsolve.MultilinearAnsatz(n, d)
    one = exactla.QMatrix([[CPoly.const(int(i == j)) for j in range(n)] for i in range(n)])
    equations = {}
    for idx, (k, sigma, mu) in enumerate(ansatz.unknowns):
        image = one
        for g in sigma[k:]:
            image = image * genmat.generic_matrix(g, n)
        coefficient = CPoly.const(1)
        for g, (s, t) in zip(sigma[:k], mu):
            coefficient = coefficient * c(g, s, t)
        image = image.scale(coefficient)
        for i in range(n):
            for j in range(n):
                for mono, value in image[i, j].terms():
                    equations.setdefault((i, j, mono), {})[idx] = value
    return exactla.Subspace.kernel(equations.values(), len(ansatz))


@pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (2, 3)])
def test_identity_space_equals_the_generic_matrix_reference(n, d):
    space, ansatz = idsolve.multilinear_identity_space(n, d)
    assert space.ambient == len(ansatz)
    assert space == reference_identity_space(n, d)


def test_coordinates_roundtrip():
    rng = random.Random(0)
    ansatz = idsolve.MultilinearAnsatz(2, 2)
    coords = [Fraction(rng.randint(-3, 3)) for _ in range(len(ansatz))]
    p = ansatz.assemble(coords)
    assert ansatz.coordinates(p) == coords


@pytest.mark.parametrize(
    "n, d, dim", [(1, 2, 4), (1, 3, 15), (2, 3, 21), (2, 4, 259), (3, 4, 48), (2, 5, 2587)]
)
def test_fast_identity_dimensions(n, d, dim):
    space, _ = idsolve.multilinear_identity_space(n, d)
    assert space.dim() == dim


def test_the_identity_space_is_eliminated_once(monkeypatch):
    calls = []
    rref_ = exactla._rref
    monkeypatch.setattr(exactla, "_rref", lambda rows: calls.append(1) or rref_(rows))
    space, _ = idsolve.multilinear_identity_space(2, 4)
    assert space.dim() == 259 and len(calls) == 1


def test_budget_counts_path_terms():
    # sum_k d!/k! * n^(k+d+1): 608 at (2,3), 95,499 at (3,4).
    with pytest.raises(BudgetExceeded):
        idsolve.multilinear_identity_space(2, 3, budget=607)
    space, _ = idsolve.multilinear_identity_space(2, 3, budget=608)
    assert space.dim() == 21
    with pytest.raises(BudgetExceeded):
        idsolve.multilinear_identity_space(3, 4, budget=95_498)


def test_budget_refuses_before_the_ansatz_is_built(monkeypatch):
    def unbuilt(n, d):
        raise AssertionError("the ansatz was enumerated")

    monkeypatch.setattr(idsolve, "MultilinearAnsatz", unbuilt)
    for n, d in ((3, 4), (4, 6), (2, 10**9), (10**9, 2)):
        with pytest.raises(BudgetExceeded):
            idsolve.multilinear_identity_space(n, d, budget=95_498)


def test_one_variable_divide_unit():
    q2 = genmat.cayley_hamilton_q(2)
    assert idsolve.one_variable_divide(q2, 2) == QuasiPoly.one()


def test_one_variable_divide_shifted():
    q2 = genmat.cayley_hamilton_q(2)
    assert idsolve.one_variable_divide(x(1) * q2, 2) == x(1)


def test_one_variable_divide_coefficient():
    q2 = genmat.cayley_hamilton_q(2)
    coeff = QuasiPoly.const(c(1, 1, 2))
    r = idsolve.one_variable_divide(coeff * q2, 2)
    assert r == coeff
    assert r * q2 == coeff * q2


def test_one_variable_divide_random_products():
    rng = random.Random(1)
    q2 = genmat.cayley_hamilton_q(2)
    for _ in range(20):
        factor = QuasiPoly.zero()
        for _ in range(rng.randint(1, 3)):
            factor = factor + QuasiPoly(
                {(1,) * rng.randint(0, 2): CPoly.const(rng.randint(-3, 3))}
            )
        p = factor * q2
        if p.is_zero():
            continue
        assert idsolve.one_variable_divide(p, 2) * q2 == p


def test_one_variable_divide_rejects_two_variables():
    with pytest.raises(NotOneVariable):
        idsolve.one_variable_divide(x(1) * x(2), 2)


def test_one_variable_divide_rejects_non_identities():
    with pytest.raises(NotAQuasiIdentity):
        idsolve.one_variable_divide(x(1) * x(1), 2)


def test_powers_of_one_variable_dependent():
    report = idsolve.local_lin_dep([QuasiPoly.one(), x(1), x(1) * x(1)], 2)
    assert report["verdict"] == "dependent"
    assert report["mode"] == "symbolic"
    assert report["witness"]["capelli"] == "C_5"


def test_one_and_x_independent():
    report = idsolve.local_lin_dep([QuasiPoly.one(), x(1)], 2)
    assert report["verdict"] == "independent"
    assert "point" in report["witness"] and "values" in report["witness"]


def test_x1_x2_independent():
    report = idsolve.local_lin_dep([x(1), x(2)], 2)
    assert report["verdict"] == "independent"


def test_powers_dependent_at_2_but_independent_at_3():
    fs = [QuasiPoly.one(), x(1), x(1) * x(1)]
    assert idsolve.local_lin_dep(fs, 2)["verdict"] == "dependent"
    assert idsolve.local_lin_dep(fs, 3)["verdict"] == "independent"


def test_randomized_agrees_with_symbolic():
    rng = random.Random(2)
    x1, x2 = x(1), x(2)
    corpus = [
        [QuasiPoly.one(), x1],
        [QuasiPoly.one(), x1, x1 * x1],
        [x1, x2],
        [x1, x1.scale(3)],
        [x1 * x2, x2 * x1],
        [QuasiPoly.one(), x1, x1 * x1, x1 * x1 * x1],
        [x1 + x2, x1 - x2],
        [x1 * x1, x1 * x1 + QuasiPoly.one()],
    ]
    for fs in corpus:
        symbolic = idsolve.local_lin_dep(fs, 2, mode="symbolic")
        randomized = idsolve.local_lin_dep(
            fs, 2, mode="randomized", seed=rng.randint(0, 10**6), trials=20
        )
        assert symbolic["verdict"] == randomized["verdict"], fs


def test_scalar_coefficient_requirement():
    with pytest.raises(ValueError):
        idsolve.local_lin_dep([QuasiPoly.const(c(1, 1, 1))], 2)


def test_independent_verdict_without_a_witness_is_an_error(monkeypatch):
    monkeypatch.setattr(idsolve, "_independence_witness", lambda *args: None)
    with pytest.raises(QuasidentError, match="no witness point"):
        idsolve.local_lin_dep([x(1), x(2)], 2)


def _capelli_composite(fs, y_gens, term_budget):
    """The composite's hand-written product loop, kept as the reference for
    genmat.capelli(t) under QuasiPoly.substitute."""
    t = len(fs)

    def pieces():
        count = 0
        for perm in itertools.permutations(range(t)):
            piece = QuasiPoly.const(perm_sign(perm))
            for idx, which in enumerate(perm):
                piece = piece * fs[which]
                if idx < t - 1:
                    piece = piece * QuasiPoly.x(y_gens[idx])
                count += piece.term_count()
                if count > term_budget:
                    raise BudgetExceeded(
                        f"Capelli composite exceeded {term_budget} scalar terms"
                    )
            yield piece

    return QuasiPoly.sum_of(pieces())


def _composite_of(monkeypatch, fs, n, **kwargs):
    """The composite local_lin_dep hands to genmat.verdict_values."""
    seen = []
    verdict_values = genmat.verdict_values

    def capture(p, *args, **kw):
        seen.append(p)
        return verdict_values(p, *args, **kw)

    monkeypatch.setattr(genmat, "verdict_values", capture)
    idsolve.local_lin_dep(fs, n, **kwargs)
    monkeypatch.undo()
    (composite,) = seen
    return composite


def test_composite_is_the_capelli_polynomial_substituted(monkeypatch):
    rng = random.Random(5)
    for _ in range(200):
        t = rng.randint(1, 4)
        fs = []
        for _ in range(t):
            words = [
                tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
                for _ in range(rng.randint(0, 3))
            ]
            fs.append(QuasiPoly({w: rng.choice((-2, -1, 1, 3)) for w in words}))
        y_gens = [max(set().union(*[f.generators() for f in fs]) | {0}) + 1 + i for i in range(t - 1)]
        reference = _capelli_composite(fs, y_gens, 10**6)
        composite = _composite_of(monkeypatch, fs, 2, mode="randomized", trials=2)
        assert composite == reference, fs
        assert str(composite) == str(reference)


def test_composite_is_counted_before_it_is_built(monkeypatch):
    # 3! orderings of 2 * 1 * 3 word choices: 36 scalar terms.
    fs = [x(1) + x(2), x(3), x(4) + x(5) + x(6)]
    built = []
    capelli = genmat.capelli
    monkeypatch.setattr(genmat, "capelli", lambda t: built.append(t) or capelli(t))
    report = idsolve.local_lin_dep(fs, 2, mode="randomized", term_budget=36)
    assert report["verdict"] == "independent" and built == [3]
    with pytest.raises(BudgetExceeded, match="has 36 scalar terms, over the budget 35"):
        idsolve.local_lin_dep(fs, 2, mode="randomized", term_budget=35)
    assert built == [3]
    # A zero polynomial counts as one term: capelli(t) has t! terms to build.
    with pytest.raises(BudgetExceeded, match="has 24 scalar terms, over the budget 23"):
        idsolve.local_lin_dep([x(1), x(2), x(3), QuasiPoly.zero()], 2, term_budget=23)
    assert built == [3]


def test_the_ledger_has_the_report_keys():
    report = idsolve.local_lin_dep([QuasiPoly.one(), x(1)], 2, mode="randomized", trials=3)
    assert sorted(report) == ["confidence", "count", "mode", "verdict", "witness"]
    assert report["count"] == 2 and report["confidence"] == "exact"
    report = idsolve.local_lin_dep([QuasiPoly.one(), x(1), x(1) * x(1)], 2, mode="randomized", trials=3)
    assert report["confidence"] == "false-dependent probability <= (5/19)^3"


@pytest.mark.parametrize("fs", [[x(1), x(1)], [QuasiPoly.zero(), x(1)]], ids=["equal", "zero"])
def test_a_composite_that_is_zero_is_an_exact_randomized_verdict(fs):
    # Two equal fs, or a zero f, make the Capelli composite the zero
    # polynomial, so no point could have made the verdict false.
    report = idsolve.local_lin_dep(fs, 2, mode="randomized", trials=5)
    assert report["verdict"] == "dependent"
    assert report["confidence"] == "exact"
