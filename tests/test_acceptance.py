"""Acceptance suite: every criterion asserted exactly, one line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  All tolerances are exact (symbolic zero or exact rational
equality); the stated wall-clock ceilings are asserted too.
"""

import random
import time
from fractions import Fraction

from quasident import antisym as anti
from quasident import genmat, idsolve
from quasident.exactla import QMatrix, Subspace
from quasident.freealg import QuasiPoly, antisymmetrize
from quasident.ratpoly import CPoly

x = QuasiPoly.x
c = CPoly.variable

SEED = 20240901


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_cayley_hamilton():
    for n in (2, 3):
        started = time.monotonic()
        assert genmat.phi_eval(genmat.cayley_hamilton_q(n), n).is_zero()
        assert genmat.phi_eval(genmat.cayley_hamilton_Q(n), n).is_zero()
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
    # Term-for-term match with the six-term multilinear expansion at n=2.
    q2_terms = dict(genmat.cayley_hamilton_Q_trace(2).terms())
    assert q2_terms == {
        ((), (1, 2)): 1,
        ((), (2, 1)): 1,
        (((1,),), (2,)): -1,
        (((2,),), (1,)): -1,
        (((1,), (2,)), ()): 1,
        (((1, 2),), ()): -1,
    }
    printed = str(genmat.cayley_hamilton_Q_trace(2))
    assert printed == (
        "tr(x1)*tr(x2) - tr(x1*x2) - tr(x2)*x1 - tr(x1)*x2 + x1*x2 + x2*x1"
    )
    report("PASS criterion 1: q_n and Q_n vanish symbolically (n=2,3); "
           "Q_2 matches the six-term expansion term for term")


def test_criterion_2_multilinear_spaces():
    space, ansatz = idsolve.multilinear_identity_space(2, 2)
    qvec = ansatz.coordinates(genmat.cayley_hamilton_Q(2))
    assert space.dim() == 1 and any(qvec) and space.contains_vector(qvec)

    started = time.monotonic()
    space3, ansatz3 = idsolve.multilinear_identity_space(3, 3)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    qvec3 = ansatz3.coordinates(genmat.cayley_hamilton_Q(3))
    assert space3.dim() == 1 and any(qvec3) and space3.contains_vector(qvec3)

    assert idsolve.multilinear_identity_space(3, 2)[0].dim() == 0
    assert idsolve.multilinear_identity_space(2, 1)[0].dim() == 0
    report(
        "PASS criterion 2: multilinear identity spaces are one-dimensional and "
        f"spanned by Q_n at (2,2) and (3,3) ({elapsed:.1f}s at n=3); "
        "(3,2) and (2,1) are empty"
    )


def test_criterion_3_invariant_algebra_dimension():
    started = time.monotonic()
    fns2 = [anti.realize_invariant_monomial(2, t, a) for t, a in anti.am_basis(2)]
    rank2 = anti.realize_rank(2, fns2, samples=12, seed=SEED)
    fns3 = [anti.realize_invariant_monomial(3, t, a) for t, a in anti.am_basis(3)]
    rank3 = anti.realize_rank(3, fns3, samples=5, seed=SEED)
    elapsed = time.monotonic() - started
    assert rank2 == 8 and rank3 == 24
    assert elapsed < 60.0
    report(
        "PASS criterion 3: realized monomials certify dim >= n*2^n "
        f"(8 at n=2, 24 at n=3) in {elapsed:.1f}s; the spanning set pins equality"
    )


def test_criterion_4_minimal_antisymmetric_identity():
    rng = random.Random(SEED)
    for n in (2, 3):
        f = anti.realize(anti.on_in_fn(n), n)
        for _ in range(20):
            args = tuple(anti.random_traceless(n, rng) for _ in range(2 * n - 1))
            assert f.raw(args) == anti.mat_zero(n)
        g = anti.x_power_fn(n, 2 * n)
        for _ in range(20):
            args = tuple(anti.random_matrix(n, rng) for _ in range(2 * n))
            assert g.raw(args) == anti.mat_zero(n)
        assert genmat.phi_eval(genmat.standard_poly(2), n).trace().is_zero()
        assert genmat.phi_eval(genmat.standard_poly(4), n).trace().is_zero()
    report(
        "PASS criterion 4: O_n vanishes exactly on 20 random traceless tuples "
        "(n=2,3); S_{2n} vanishes likewise; tr(S_2) = tr(S_4) = 0 symbolically"
    )


def test_criterion_5_kernel_image():
    started = time.monotonic()
    ledgers = {}
    for n in (2, 3, 4):
        rep = anti.verify_kerim(n)
        assert rep["ker_rho_equals_image"]
        assert rep["codimension"] == 1
        assert rep["complement_spans"]
        ledgers[n] = rep
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    assert ledgers[2]["ambient"] == 3
    assert ledgers[2]["image_rank"] == 2
    assert ledgers[2]["complement_monomial"] == "X^2*Y^2"
    basis = anti.atilde_basis(2, 4)
    ob = anti.obar(2)
    products = [anti.atilde_mul(anti.ExtElement(2, {key: 1}), ob) for key in anti.atilde_basis(2, 1)]
    image = Subspace(
        len(basis), [[dict(p.terms()).get(b, Fraction(0)) for b in basis] for p in products]
    )
    expected = Subspace(
        len(basis),
        [
            [Fraction(int(b == ((), 3, 1))) for b in basis],
            [Fraction(int(b == ((), 1, 3))) for b in basis],
        ],
    )
    assert image == expected
    report(
        "PASS criterion 5: image of multiplication equals the kernel of the "
        "functional with codimension 1 for n=2,3,4 "
        f"({elapsed:.1f}s); n=2 ledger 3/2/X^2*Y^2 as stated"
    )


def test_criterion_6_top_degree_ideal():
    started = time.monotonic()
    ambient = len(anti.fn_basis(2, 4))
    ideal = anti.ideal_component(2, 4)
    block = anti.wedge_component_subspace(2, 4, 2)
    meet = ideal.intersect(block)
    elapsed = time.monotonic() - started
    assert (ambient, ideal.dim(), block.dim(), meet.dim()) == (7, 4, 3, 0)
    assert elapsed < 60.0

    ambient3 = len(anti.fn_basis(3, 9))
    ideal3 = anti.ideal_component(3, 9)
    block3 = anti.wedge_component_subspace(3, 9, 7)
    meet3 = ideal3.intersect(block3)
    assert ambient3 == 163
    assert block3.dim() == 8 and meet3.dim() == 0
    report(
        "PASS criterion 6: n=2 brute force gives dim 7 = 4 + 3 with the wedge "
        f"block meeting the ideal trivially ({elapsed:.2f}s); n=3 stretch "
        f"(ambient 163, ideal {ideal3.dim()}) confirms the trivial intersection"
    )


def test_criterion_7_zero_divisors():
    p1 = c(2, 1, 2) * x(1) - c(1, 1, 2) * x(2) + QuasiPoly.const(
        c(1, 1, 2) * c(2, 2, 2) - c(1, 2, 2) * c(2, 1, 2)
    )
    p2 = c(2, 1, 2) * x(1) - c(1, 1, 2) * x(2) + QuasiPoly.const(
        c(1, 1, 2) * c(2, 1, 1) - c(1, 1, 1) * c(2, 1, 2)
    )
    assert not genmat.is_quasi_identity(p1, 2)
    assert not genmat.is_quasi_identity(p2, 2)
    assert genmat.is_quasi_identity(p1 * p2, 2)
    report("PASS criterion 7: neither factor vanishes but the product does (n=2)")


def test_criterion_8_centrality():
    sq = (x(1) * x(2) - x(2) * x(1)) ** 2
    assert genmat.is_central(sq, 2)
    assert not genmat.is_central(sq, 3)
    witness = genmat.central_witness(sq, 3, seed=SEED)
    assert witness is not None
    point, value = witness
    non_scalar = any(
        value[i, j] != 0 for i in range(3) for j in range(3) if i != j
    ) or any(value[i, i] != value[0, 0] for i in range(1, 3))
    assert non_scalar
    assert genmat.evaluate(sq, [point], 3) == [value]
    shown = {f"x{k}": [[str(e) for e in row] for row in m.data] for k, m in point.items()}
    report(f"PASS criterion 8: commutator square central at n=2, witness at n=3: {shown}")


def _random_cpoly(rng):
    p = CPoly.zero()
    for _ in range(rng.randint(0, 3)):
        mono = CPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            mono = mono * c(rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))
        p = p + mono
    return p


def _random_quasipoly(rng):
    p = QuasiPoly.zero()
    for _ in range(rng.randint(0, 3)):
        w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
        p = p + QuasiPoly({w: _random_cpoly(rng)})
    return p


def test_criterion_9_property_suites():
    rng = random.Random(SEED)

    for _ in range(100):
        a, b, d = (_random_cpoly(rng) for _ in range(3))
        assert (a + b) + d == a + (b + d)
        assert a * b == b * a
        assert a * (b + d) == a * b + a * d
    report("PASS criterion 9a: 100 ring-law cases on rational polynomials")

    for _ in range(100):
        p, q = _random_quasipoly(rng), _random_quasipoly(rng)
        assert genmat.phi_eval(p * q, 2) == genmat.phi_eval(p, 2) * genmat.phi_eval(q, 2)
    report("PASS criterion 9b: 100 evaluation-homomorphism cases")

    for _ in range(100):
        coeff = CPoly.const(rng.randint(1, 4)) * c(1, rng.randint(1, 2), rng.randint(1, 2))
        p = QuasiPoly({(2, 3): coeff})
        once = antisymmetrize(p, [1, 2, 3])
        assert antisymmetrize(once, [1, 2, 3]) == once
    report("PASS criterion 9c: 100 antisymmetrizer idempotence cases")

    cases = 0
    for n in (2, 3):
        mons = []
        for d in range(0, n * n + 1):
            mons.extend(anti.atilde_basis(n, d))
        for _ in range(60):
            ma, mb = rng.choice(mons), rng.choice(mons)
            ab = anti.atilde_mul(
                anti.ExtElement.monomial(n, *ma), anti.ExtElement.monomial(n, *mb)
            )
            ba = anti.atilde_mul(
                anti.ExtElement.monomial(n, *mb), anti.ExtElement.monomial(n, *ma)
            )
            exponent = (
                anti.ext_degree(ma) * anti.ext_degree(mb)
                + ma[1] * mb[1]
                + ma[2] * mb[2]
            )
            assert ab == ba.scale((-1) ** exponent)
            if not ab.is_zero():
                assert ab.degree() == anti.ext_degree(ma) + anti.ext_degree(mb)
            cases += 1
    assert cases >= 100
    report(f"PASS criterion 9d: {cases} grading and sign-coherence cases")

    cases = 0
    for n in (2, 3):
        mons = []
        for d in range(0, 4):
            mons.extend(anti.atilde_basis(n, d))
        pairs = [
            (a, b)
            for a in mons
            for b in mons
            if a[2] * b[1] == 0 and 0 < anti.ext_degree(a) + anti.ext_degree(b) <= 6
        ]
        rng.shuffle(pairs)
        for ma, mb in pairs[:55]:
            ea = anti.ExtElement.monomial(n, *ma)
            eb = anti.ExtElement.monomial(n, *mb)
            prod = anti.atilde_mul(ea, eb)
            wedge = anti.wedge_fn(anti.realize(ea, n), anti.realize(eb, n))
            args = tuple(anti.random_matrix(n, rng, 4) for _ in range(wedge.arity))
            got = wedge.raw(args)
            want = (
                anti.realize(prod, n).raw(args)
                if not prod.is_zero()
                else anti.mat_zero(n)
            )
            assert got == want
            cases += 1
    assert cases >= 100
    report(f"PASS criterion 9e: {cases} realization-functoriality cases "
           "(products that keep the matrix-valued blocks ordered)")

    cases = 0
    while cases < 100:
        n = 2 if cases % 2 else 3
        mons = anti.atilde_basis(n, 2) + anti.atilde_basis(n, 3)
        m = rng.choice(mons)
        f = anti.realize(anti.ExtElement.monomial(n, *m), n)
        g = QMatrix.random(n, n, rng, 4)
        try:
            conj = anti.conjugate_fn(f, g)
        except ValueError:
            continue
        args = [anti.random_matrix(n, rng, 4) for _ in range(f.arity)]
        assert conj(args) == f(args)
        cases += 1
    report("PASS criterion 9f: 100 conjugation-equivariance cases")

    cases = 0
    for n in (2, 3):
        for j in range(1, 2 * n):
            lhs, rhs = anti.basic_formula_sides(n, j)
            for _ in range(13):
                args = tuple(
                    anti.random_traceless(n, rng, 4) for _ in range(lhs.arity)
                )
                assert lhs.raw(args) == rhs.raw(args)
                cases += 1
    assert cases >= 100
    report(f"PASS criterion 9g: {cases} basic-formula realization cases")
