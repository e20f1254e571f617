import itertools
import math
import random
import sys
from fractions import Fraction
from operator import mul

import pytest

from quasident import antisym as anti, exactla
from quasident.errors import BudgetExceeded, DimensionMismatch, WrongDegree
from quasident.exactla import QMatrix, Subspace, rank
from quasident.freealg import perm_sign


# -- independent oracles -------------------------------------------------------


def obar_products(n, left=False):
    """Multiplication by obar(n) from degree (n-1)^2 into degree n^2, one
    dense column per domain monomial over atilde_basis(n, n^2), each built
    with atilde_mul: a * obar, or obar * a when left is set."""
    ob = anti.obar(n)
    cod = anti.atilde_basis(n, n * n)
    cols = []
    for key in anti.atilde_basis(n, (n - 1) ** 2):
        a = anti.ExtElement(n, {key: 1})
        terms = dict((anti.atilde_mul(ob, a) if left else anti.atilde_mul(a, ob)).terms())
        cols.append([terms.get(m, Fraction(0)) for m in cod])
    return cols


def oracle_sign_and_normal_form(letters, n):
    """Brute-force normal ordering of a word in the letters ('T', h), 'X', 'Y'.

    Bubble-sorts the word into (T ascending, X block, Y block) counting one
    sign flip per swap of distinct odd letters; X and Y commute with
    themselves for free.  Returns (sign, tset, i, j) or None when the word
    dies (repeated T, exponent overflow, degree overflow).
    """
    word = list(letters)

    def rank(letter):
        if letter[0] == "T":
            return (0, letter[1])
        return (1, 0) if letter == "X" else (2, 0)

    sign = 1
    changed = True
    while changed:
        changed = False
        for pos in range(len(word) - 1):
            a, b = word[pos], word[pos + 1]
            if rank(a) > rank(b):
                word[pos], word[pos + 1] = b, a
                if a != b:
                    sign = -sign
                changed = True
    tset = tuple(h for kind, h in [w for w in word if w[0] == "T"])
    if len(set(tset)) != len(tset):
        return None
    i = word.count("X")
    j = word.count("Y")
    if i >= 2 * n or j >= 2 * n:
        return None
    degree = sum(2 * h + 1 for h in tset) + i + j
    if degree > n * n:
        return None
    return sign, tset, i, j


def monomial_letters(m):
    tset, i, j = m
    return [("T", h) for h in tset] + ["X"] * i + ["Y"] * j


def oracle_atilde_basis(n, degree):
    """Enumerate normal-form monomials degree by filtering the full cube."""
    out = []
    t_indices = range(1, n - 1)
    for r in range(n - 1):
        for tset in itertools.combinations(t_indices, r):
            for i in range(2 * n):
                for j in range(2 * n):
                    m = (tset, i, j)
                    if (
                        sum(2 * h + 1 for h in tset) + i + j == degree
                        and degree <= n * n
                    ):
                        out.append(m)
    return sorted(out)


# -- formal algebra ------------------------------------------------------------


def test_atilde_basis_n2():
    assert anti.atilde_basis(2, 1) == [((), 0, 1), ((), 1, 0)]
    assert anti.atilde_basis(2, 4) == [((), 1, 3), ((), 2, 2), ((), 3, 1)]


def test_atilde_basis_n3_top_degree():
    basis = anti.atilde_basis(3, 9)
    assert basis == oracle_atilde_basis(3, 9)
    assert len(basis) == 7


def test_atilde_basis_matches_oracle_everywhere():
    for n in (2, 3, 4):
        for degree in range(0, n * n + 1):
            assert anti.atilde_basis(n, degree) == oracle_atilde_basis(n, degree)


def test_ext_monomial_reads_its_t_subset_once():
    assert anti.ExtElement.monomial(3, iter([1]), 0, 0) == anti.ExtElement.monomial(3, [1], 0, 0)
    assert anti.ext_monomial(4, iter([2, 1]), 0, 1) == anti.ext_monomial(4, [1, 2], 0, 1)
    for tset in ([1, 1], iter([1, 1])):
        with pytest.raises(ValueError, match="repeated T generator"):
            anti.ext_monomial(4, tset, 0, 0)


def test_x_powers_multiply():
    n = 3
    for a in range(2 * n):
        for b in range(2 * n):
            xa = anti.ExtElement.monomial(n, (), a, 0)
            xb = anti.ExtElement.monomial(n, (), b, 0)
            prod = anti.atilde_mul(xa, xb)
            if a + b < 2 * n and a + b <= n * n:
                assert prod == anti.ExtElement.monomial(n, (), a + b, 0)
            else:
                assert prod.is_zero()


def test_x_anticommutes_with_t():
    n = 3
    X = anti.ExtElement.monomial(n, (), 1, 0)
    T1 = anti.ExtElement.monomial(n, (1,), 0, 0)
    assert anti.atilde_mul(X, T1) == anti.atilde_mul(T1, X).scale(-1)


def test_xy_square():
    n = 2
    XY = anti.ExtElement.monomial(n, (), 1, 1)
    assert anti.atilde_mul(XY, XY) == anti.ExtElement.monomial(n, (), 2, 2, -1)


def test_products_match_sign_oracle():
    # ExtElement: every pair at n = 2 and 3 (13^2 + 61^2 pairs), random pairs
    # at n = 4.  AmElement (T_0 included, one power letter): every pair at
    # n = 2 and 3 (8^2 + 24^2 pairs), through the one graded product.
    rng = random.Random(0)
    cases = []
    for n in (2, 3, 4):
        mons = []
        for d in range(0, n * n + 1):
            mons.extend(anti.atilde_basis(n, d))
        if n < 4:
            pairs = list(itertools.product(mons, repeat=2))
        else:
            pairs = [(rng.choice(mons), rng.choice(mons)) for _ in range(200)]
        cases += [(anti.ExtElement, n, ma, mb) for ma, mb in pairs]
    for n in (2, 3):
        cases += [(anti.AmElement, n, ma, mb) for ma, mb in itertools.product(anti.am_basis(n), repeat=2)]
    for cls, n, ma, mb in cases:
        prod = anti._graded_mul(cls(n, {ma: 1}), cls(n, {mb: 1}))
        # An AmElement key (T-subset, a) reads as the ExtElement key (T-subset, a, 0).
        expected = oracle_sign_and_normal_form(
            monomial_letters((*ma, 0)[:3]) + monomial_letters((*mb, 0)[:3]), n
        )
        if expected is None:
            assert prod.is_zero()
        else:
            sign, tset, i, j = expected
            assert prod == cls(n, {(tset, i, j)[:len(ma)]: sign})


def test_grading():
    rng = random.Random(1)
    for n in (2, 3):
        mons = []
        for d in range(0, n * n + 1):
            mons.extend(anti.atilde_basis(n, d))
        for _ in range(100):
            ma, mb = rng.choice(mons), rng.choice(mons)
            prod = anti.atilde_mul(
                anti.ExtElement.monomial(n, *ma), anti.ExtElement.monomial(n, *mb)
            )
            if not prod.is_zero():
                assert prod.degree() == anti.ext_degree(ma) + anti.ext_degree(mb)


def test_sign_coherence_with_same_letter_correction():
    # Monomials obey a b = (-1)^(deg a deg b + i_a i_b + j_a j_b) b a: the
    # grading sign, corrected because powers of one odd letter accumulate
    # without sign (the algebra is not supercommutative).
    rng = random.Random(2)
    for n in (2, 3):
        mons = []
        for d in range(0, n * n + 1):
            mons.extend(anti.atilde_basis(n, d))
        for _ in range(150):
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


def test_obar_small():
    assert anti.obar(2) == anti.ExtElement(
        2, {((), 3, 0): Fraction(2), ((), 0, 3): Fraction(-2)}
    )
    assert anti.obar(3) == anti.ExtElement(
        3,
        {
            ((), 5, 0): Fraction(3),
            ((), 0, 5): Fraction(-3),
            ((1,), 2, 0): Fraction(-1),
            ((1,), 0, 2): Fraction(1),
        },
    )


def test_obar_degree():
    for n in (2, 3, 4):
        assert anti.obar(n).degree() == 2 * n - 1


def test_rho_rules():
    assert anti.rho(2, ((), 2, 2)) == 2
    assert anti.rho(2, ((), 3, 1)) == 0
    assert anti.rho(2, ((), 1, 3)) == 0
    # missing two factors first occurs in top degree at n=5: T_3 alone has
    # degree 7, leaving 18 = 9+9 for the exponents
    assert anti.rho(5, ((3,), 9, 9)) == 0
    # full T product with even exponents in range
    n = 3
    assert anti.rho(n, ((1,), 2, 4)) == 3
    assert anti.rho(n, ((1,), 4, 2)) == 3
    assert anti.rho(n, ((1,), 3, 3)) == 0
    # missing exactly one factor at n=3: value (-1)^(h+n) = (-1)^4 = 1
    assert anti.rho(3, ((), 4, 5)) == 1


def test_rho_wrong_degree():
    with pytest.raises(WrongDegree):
        anti.rho(2, ((), 1, 1))


def test_alternative_rho_reading_breaks_containment():
    # Evidence for the implemented reading of the missing-one-factor rule:
    # if those monomials were sent to 0 instead of (-1)^(h+n), the image of
    # the multiplication map would no longer lie inside the kernel.
    n = 3
    basis = anti.atilde_basis(n, n * n)

    def rho_alt(m):
        tset, i, j = m
        missing = [h for h in range(1, n - 1) if h not in tset]
        if missing:
            return Fraction(0)
        if i % 2 == 0 and j % 2 == 0 and 2 <= i <= 2 * n - 2 and 2 <= j <= 2 * n - 2:
            return Fraction(n)
        return Fraction(0)

    alt = [rho_alt(b) for b in basis]
    composed = [sum(map(mul, alt, col)) for col in obar_products(n)]
    assert any(composed), "alternative reading would also annihilate the image"


def test_pi_map_n2_products():
    X = anti.ExtElement.monomial(2, (), 1, 0)
    Y = anti.ExtElement.monomial(2, (), 0, 1)
    ob = anti.obar(2)
    assert anti.atilde_mul(X, ob) == anti.ExtElement.monomial(2, (), 1, 3, -2)
    assert anti.atilde_mul(Y, ob) == anti.ExtElement.monomial(2, (), 3, 1, -2)


def test_pi_map_n2_image():
    basis = anti.atilde_basis(2, 4)
    image = Subspace(len(basis), obar_products(2))
    x3y = [Fraction(int(b == ((), 3, 1))) for b in basis]
    xy3 = [Fraction(int(b == ((), 1, 3))) for b in basis]
    x2y2 = [Fraction(int(b == ((), 2, 2))) for b in basis]
    assert image.dim() == 2
    assert image.contains_vector(x3y) and image.contains_vector(xy3)
    assert not image.contains_vector(x2y2)


def test_rho_pi_composition_is_zero():
    for n in (2, 3, 4):
        rv = [anti.rho(n, m) for m in anti.atilde_basis(n, n * n)]
        for col in obar_products(n):
            assert sum(map(mul, rv, col)) == 0


def test_pi_left_and_right_images_agree():
    for n in (2, 3, 4):
        ambient = len(anti.atilde_basis(n, n * n))
        sr = Subspace(ambient, obar_products(n))
        sl = Subspace(ambient, obar_products(n, left=True))
        assert sr == sl


def test_verify_kerim():
    expected_ambient = {2: 3, 3: 7, 4: 13}
    for n in (2, 3, 4):
        report = anti.verify_kerim(n)
        assert report["ambient"] == expected_ambient[n]
        assert report["ker_rho_equals_image"]
        assert report["codimension"] == 1
        assert report["complement_spans"]
        assert report["rho_pi_zero"]


def test_verify_kerim_n2_ledger():
    report = anti.verify_kerim(2)
    assert report["ambient"] == 3
    assert report["image_rank"] == 2
    assert report["complement_monomial"] == "X^2*Y^2"


def test_verify_kerim_n3_ledger_with_ker_rho_eliminated_once(monkeypatch):
    calls = []
    rref_ = exactla._rref
    monkeypatch.setattr(exactla, "_rref", lambda rows: calls.append(1) or rref_(rows))
    assert anti.verify_kerim(3) == {
        "ambient": 7, "domain": 7, "image_rank": 6, "ker_rho_equals_image": True,
        "rho_pi_zero": True, "codimension": 1, "complement_spans": True,
        "complement_monomial": "T1*X^2*Y^4",
    }
    # One elimination each: the image, ker rho, the complement and the sum.
    assert len(calls) == 4


def test_verify_kerim_budget_counts_cells():
    # Multiplication by obar(5) maps 50 monomials into 22.
    with pytest.raises(BudgetExceeded):
        anti.verify_kerim(5, budget=1_099)
    report = anti.verify_kerim(5, budget=1_100)
    assert (report["ambient"], report["domain"]) == (22, 50)
    assert report["ker_rho_equals_image"] and report["codimension"] == 1
    assert report["complement_spans"] and report["rho_pi_zero"]


def test_verify_kerim_budget_refuses_large_n_at_once():
    for n in (30, 10**6):
        with pytest.raises(BudgetExceeded):
            anti.verify_kerim(n, budget=200_000)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        anti.atilde_mul(
            anti.ExtElement.monomial(2, (), 1, 0), anti.ExtElement.monomial(3, (), 1, 0)
        )
    # Evaluated on 2x2 samples, a function realized at n=3 gave a rank.
    with pytest.raises(DimensionMismatch):
        anti.realize_rank(2, [anti.x_power_fn(3, 2)], samples=2)
    # Realized at n=3, an n=2 form read n=2 basis indices, and T_2 is no
    # generator at n=3.
    for expr in (anti.t_form(2, 1), anti.ExtElement.monomial(4, (2,), 0, 0)):
        with pytest.raises(DimensionMismatch):
            anti.realize(expr, 3)


# -- concrete wedge algebra ----------------------------------------------------


def test_fn_basis_dimensions():
    assert len(anti.fn_basis(2, 4)) == 7
    assert len(anti.fn_basis(3, 9)) == 163


def test_fn_mul_runs_once_per_ideal_generator_and_never_in_the_formal_algebra(monkeypatch):
    # perfbench's antisym.fn_mul_calls counter wraps this global by name.
    calls = []
    fn_mul = anti.fn_mul
    monkeypatch.setattr(anti, "fn_mul", lambda a, b: calls.append(1) or fn_mul(a, b))
    assert anti.ideal_component(2, 4).dim() == 4
    assert len(calls) == 4 == len(anti.fn_basis(2, 1))
    assert anti.verify_kerim(3)["ker_rho_equals_image"]
    assert len(calls) == 4


def test_a_fixed_factor_is_split_once(monkeypatch):
    # _multiples multiplies every generator by one factor; the factor's keys
    # are split into odd block, powers and degree once, not once per product.
    factor = anti.on_in_fn(3)
    degree = anti.WedgeForm._degree
    seen = []
    counted = staticmethod(lambda key: seen.append(key) or degree(key))
    monkeypatch.setattr(anti.WedgeForm, "_degree", counted)
    span = anti._multiples(factor, 7, anti.fn_mul)
    assert span.dim() == len(anti.fn_basis(3, 2)) == 37
    assert sorted(key for key in seen if key in factor._terms) == sorted(factor._terms)


def test_fn_basis_top_degree_blocks():
    # Degree n^2 splits as wedge-size blocks indexed by the X power 1..2n-1.
    for n in (2, 3):
        sizes = {}
        for subset, a in anti.fn_basis(n, n * n):
            sizes[a] = sizes.get(a, 0) + 1
        assert set(sizes) <= set(range(1, 2 * n))


def test_t_form_n2_single_coefficient():
    t1 = anti.t_form(2, 1)
    assert t1 == anti.WedgeForm(2, {((0, 1, 2), 0): Fraction(6)})


def test_t_form_coefficient_matches_permutation_sum():
    basis = anti.traceless_basis(2)
    total = Fraction(0)
    for perm in itertools.permutations(range(3)):
        prod = basis[perm[0]] * basis[perm[1]] * basis[perm[2]]
        sign = perm_sign(perm)
        total += sign * prod.trace()
    assert total == 6

    def signed_traces(mats, perm, prod):
        # Sum of sign * trace over the orderings extending perm; a zero
        # prefix product (matrix units often give one) ends every extension.
        if prod.is_zero():
            return 0
        if len(perm) == len(mats):
            return perm_sign(perm) * prod.trace()
        return sum(
            signed_traces(mats, perm + [i], prod * mats[i])
            for i in range(len(mats)) if i not in perm
        )

    basis = anti.traceless_basis(3)
    for h in (1, 2):
        coeffs = dict(anti.t_form(3, h).terms())
        for subset in itertools.combinations(range(len(basis)), 2 * h + 1):
            mats = [basis[i] for i in subset]
            total = signed_traces(mats, [], QMatrix.identity(3))
            assert coeffs.get((subset, 0), 0) == total, (h, subset)


def torus_weights(n):
    """The Z^n weight of each traceless_basis(n) matrix, read off its
    entries: a nonzero (i, j) entry off the diagonal gives e_i - e_j."""
    out = []
    for m in anti.traceless_basis(n):
        weight = [0] * n
        for i, j in itertools.product(range(n), repeat=2):
            if i != j and m.data[i][j]:
                weight[i] += 1
                weight[j] -= 1
        out.append(weight)
    return out


def test_traceless_weight_codes_sum_to_zero_exactly_at_weight_zero():
    for n in (2, 3):
        codes = anti._traceless_weights(n)
        weights = torus_weights(n)
        for size in range(1, 2 * n):
            for subset in itertools.combinations(range(n * n - 1), size):
                code_zero = sum(codes[i] for i in subset) == 0
                weight_zero = not any(map(sum, zip(*[weights[i] for i in subset])))
                assert code_zero == weight_zero, subset


def test_t_form_reads_only_subsets_of_weight_zero(monkeypatch):
    # perfbench's antisym.standard_value_calls counter wraps this global by
    # name; corollary2 --n 2 must still call it.
    calls = []
    value = anti.standard_value_raw
    monkeypatch.setattr(anti, "standard_value_raw", lambda mats, n: calls.append(1) or value(mats, n))
    anti.t_form(2, 1)
    assert len(calls) == 1
    anti.t_form(3, 1)
    anti.t_form(3, 2)
    assert len(calls) == 1 + 16  # of C(8, 3) + C(8, 5) = 112 subsets


def test_subsets_t_form_skips_have_zero_trace():
    basis = [m.data for m in anti.traceless_basis(3)]
    codes = anti._traceless_weights(3)
    skipped = 0
    for size in (3, 5):
        for subset in itertools.combinations(range(8), size):
            if sum(codes[i] for i in subset):
                mats = [basis[i] for i in subset]
                assert anti.mat_trace(anti.standard_value_raw(mats, 3)) == 0, subset
                skipped += 1
    assert skipped == 112 - 16


def test_on_in_fn_2():
    o2 = anti.on_in_fn(2)
    expected = anti.WedgeForm(
        2, {((), 3): Fraction(2), ((0, 1, 2), 0): Fraction(-6)}
    )
    assert o2 == expected


def oracle_wedge_product(sa, xa, sb, xb, n):
    """Brute-force normal ordering of the word b_sa X^xa b_sb X^xb: a
    bubble sort with one flip per swap of distinct odd letters.  Returns
    (sign, subset, X power), or None when the word dies."""
    word = [("b", i) for i in sa] + ["X"] * xa + [("b", i) for i in sb] + ["X"] * xb

    def rank(letter):
        return (0, letter[1]) if letter != "X" else (1, 0)

    sign = 1
    changed = True
    while changed:
        changed = False
        for pos in range(len(word) - 1):
            a, b = word[pos], word[pos + 1]
            if rank(a) > rank(b):
                word[pos], word[pos + 1] = b, a
                if a != b:
                    sign = -sign
                changed = True
    subset = tuple(i for kind, i in [w for w in word if w != "X"])
    xexp = word.count("X")
    if len(set(subset)) != len(subset) or xexp >= 2 * n or len(subset) + xexp > n * n:
        return None
    return sign, subset, xexp


def random_wedge_pair(n, rng):
    """Two wedge keys at n.  Half the pairs are built to survive the product
    (disjoint subsets, powers and degree within the caps), so their signs
    interleave indices up to n^2 - 2; the rest are any two keys."""
    top = n * n
    if rng.random() < 0.5:
        xa = rng.randrange(2 * n)
        xb = rng.randrange(2 * n - xa)
        size = rng.randint(0, min(top - xa - xb, top - 1))
        indices = rng.sample(range(top - 1), size)
        cut = rng.randint(0, size)
        return (tuple(sorted(indices[:cut])), xa), (tuple(sorted(indices[cut:])), xb)
    keys = []
    for _ in range(2):
        x = rng.randrange(2 * n)
        keys.append((tuple(sorted(rng.sample(range(top - 1), rng.randint(0, min(top - x, top - 1))))), x))
    return tuple(keys)


def test_fn_mul_sign_oracle():
    # Every pair at n = 2; random pairs at n = 3 and 4, whose wedge indices
    # reach 7 and 14.
    keys = []
    for d in range(0, 5):
        keys.extend(anti.fn_basis(2, d))
    assert len(keys) == 27
    cases = [(2, ka, kb) for ka, kb in itertools.product(keys, repeat=2)]
    rng = random.Random(3)
    cases += [(n, *random_wedge_pair(n, rng)) for n in (3, 4) for _ in range(300)]
    survived = {2: 0, 3: 0, 4: 0}
    for n, (sa, xa), (sb, xb) in cases:
        prod = anti.fn_mul(anti.WedgeForm.monomial(n, sa, xa), anti.WedgeForm.monomial(n, sb, xb))
        expected = oracle_wedge_product(sa, xa, sb, xb, n)
        if expected is None:
            assert prod.is_zero()
        else:
            sign, subset, xexp = expected
            assert prod == anti.WedgeForm.monomial(n, subset, xexp, sign)
            survived[n] += 1
    assert min(survived.values()) >= 100


def test_ideal_component_n2_degree4():
    J = anti.ideal_component(2, 4)
    assert J.dim() == 4
    basis = anti.fn_basis(2, 4)

    def vec(key):
        return [Fraction(int(b == key)) for b in basis]

    for i in range(3):
        assert J.contains_vector(vec(((i,), 3)))
    assert J.contains_vector(vec(((0, 1, 2), 1)))


def test_corollary2_n2():
    J = anti.ideal_component(2, 4)
    block = anti.wedge_component_subspace(2, 4, 2)
    assert len(anti.fn_basis(2, 4)) == 7
    assert J.dim() == 4
    assert block.dim() == 3
    assert J.intersect(block).dim() == 0


def test_corollary2_n3_stretch():
    J = anti.ideal_component(3, 9)
    block = anti.wedge_component_subspace(3, 9, 7)
    assert len(anti.fn_basis(3, 9)) == 163
    assert block.dim() == 8
    assert J.intersect(block).dim() == 0


def test_top_degree_budget_refuses_before_anything_is_built(monkeypatch):
    # Corollary 2's map has 276,661,792 cells at n = 4, and n^2 alone is
    # over the budget for kerim at n = 500: neither O_n, its T_h forms, their
    # weight codes, obar nor any basis may be built first.
    def built(*_args):
        raise AssertionError("built before the budget refused")

    for name in ("on_in_fn", "t_form", "_traceless_weights", "obar"):
        monkeypatch.setattr(anti, name, built)
    monkeypatch.setattr(anti._Graded, "_basis", classmethod(built))
    with pytest.raises(BudgetExceeded):
        anti.corollary2(4, budget=200_000)
    with pytest.raises(BudgetExceeded):
        anti.verify_kerim(500, budget=200_000)


# -- realization ----------------------------------------------------------------


def test_x_power_is_standard_polynomial():
    rng = random.Random(4)
    for n in (2, 3):
        for a in (1, 2, 3):
            f = anti.x_power_fn(n, a)
            args = [anti.random_matrix(n, rng, 5) for _ in range(a)]
            direct = anti.standard_value_raw(args, n)
            assert f.raw(tuple(args)) == direct


def test_standard_value_dp_matches_permutation_sum():
    def permutation_sum(mats, n):
        if not mats:
            return anti.mat_identity(n)
        total = anti.mat_zero(n)
        for perm in itertools.permutations(range(len(mats))):
            prod = mats[perm[0]]
            for idx in perm[1:]:
                prod = anti.mat_mul(prod, mats[idx])
            total = anti.mat_add(
                total, anti.mat_scale(prod, perm_sign(perm))
            )
        return total

    def traceless_part(n, rng, bound):
        return anti.mat_traceless(anti.random_matrix(n, rng, bound))

    rng = random.Random(5)
    for n in (2, 3, 4):
        # Raw int matrices, and traceless parts with Fraction diagonals.
        for draw in (anti.random_matrix, traceless_part):
            for a in (1, 2, 3, 4, 5):
                mats = [draw(n, rng, 4) for _ in range(a)]
                assert anti.standard_value_raw(mats, n) == permutation_sum(mats, n)
                for top in range(a + 1):
                    table = anti.standard_table(mats, n, top)
                    subsets = [
                        s for size in range(top + 1)
                        for s in itertools.combinations(range(a), size)
                    ]
                    assert len(table) == len(subsets)
                    for s in subsets:
                        mask = sum(1 << k for k in s)
                        assert table[mask] == permutation_sum([mats[k] for k in s], n), s


# -- the shuffle walk against the per-shuffle evaluator it replaced --------------


def shuffles_on(indices, arities):
    """Every split of indices into ascending blocks of the given sizes."""
    if not arities:
        yield ()
        return
    for block in itertools.combinations(indices, arities[0]):
        rest = [i for i in indices if i not in block]
        for tail in shuffles_on(rest, arities[1:]):
            yield (block,) + tail


def reference_value(f, args):
    """f at args one shuffle at a time: a perm_sign, a product chain, a scale
    and an add per shuffle, reading the same standard tables."""
    n = f.n
    table = anti._tables(args, n, f._top())
    total = anti.mat_zero(n)
    for term_coeff, factors in f.terms:
        for blocks in shuffles_on(range(f.arity), [g.arity for g in factors]):
            coeff = term_coeff * perm_sign([i for block in blocks for i in block])
            chain = None
            for g, block in zip(factors, blocks):
                if g.kind == "b":
                    value = anti._dual_value(args[block[0]], g.index)
                else:
                    value = table(g.traceless)[sum(1 << i for i in block)]
                    if g.kind == "S":
                        chain = value if chain is None else anti.mat_mul(chain, value)
                        continue
                    value = anti.mat_trace(value)
                if not value:
                    break
                coeff = coeff * value
            else:
                piece = anti.mat_identity(n) if chain is None else chain
                total = anti.mat_add(total, piece if coeff == 1 else anti.mat_scale(piece, coeff))
    return total


def entry_types(m):
    return [[type(x) for x in row] for row in m]


def test_shuffle_walk_matches_per_shuffle_evaluation():
    rng = random.Random(15)
    cases = []
    for n in (2, 3):
        # The invariant algebra's basis, over raw int slots.
        cases += [(anti.realize_invariant_monomial(n, t, a), anti.random_matrix) for t, a in anti.am_basis(n)]
        # Traceless S and T slots fed raw matrices: Fraction entries, and the
        # kept T_0 = tr(Y) factor reads 0 on every shuffle.
        for j in range(1, 2 * n):
            cases += [(side, anti.random_matrix) for side in anti.basic_formula_sides(n, j)]
        # Chains of two S blocks, over one table and over both.
        cases.append((anti.wedge_fn(anti.x_power_fn(n, 2), anti.x_power_fn(n, 3)), anti.random_matrix))
        x2y = anti.realize(anti.ExtElement.monomial(n, (), 2, 1), n)
        x = anti.realize(anti.ExtElement.monomial(n, (), 1, 0), n)
        cases.append((anti.wedge_fn(x2y, x), anti.random_matrix))
        # A scalar block between two S blocks, and a b block after an S
        # block (an off-diagonal and the last diagonal functional): the DP
        # scales a matrix by a scalar it follows in factor order.
        trace = anti.realize_invariant_monomial(n, (n - 2,), 0)
        between = anti.wedge_fn(anti.wedge_fn(anti.x_power_fn(n, 2), trace), x)
        cases.append((between, anti.random_matrix))
        for index in (0, n * n - 2):
            after = anti.wedge_fn(anti.x_power_fn(n, 2), anti.realize(((index,), 1), n))
            cases += [(after, anti.random_traceless), (after, anti.random_matrix)]
        # Three S blocks over the raw, traceless and raw tables, multiplied
        # in factor order; at most n^2 slots, or every value is 0.
        xy = anti.realize(anti.ExtElement.monomial(n, (), 1, 1), n)
        cases.append((anti.wedge_fn(xy, anti.x_power_fn(n, 2)), anti.random_matrix))
        # An S block ahead of two scalar blocks: W is a matrix through both
        # scalar steps.
        factors = (anti._Factor("S", 2), anti._Factor("T", 2 * n - 3), anti._Factor("b", 1, index=n * n - 2))
        cases.append((anti.MultiFn(2 * n, n, ((3, factors),)), anti.random_matrix))
    # Realized wedge forms (b factors) on their traceless domain.
    t1 = anti.t_form(3, 1)
    for form in (anti.t_form(2, 1), anti.on_in_fn(2), anti.fn_mul(anti.WedgeForm.x_power(3, 2), t1), t1):
        cases.append((anti.realize(form, form.n), anti.random_traceless))
    # Three scalar blocks (T_0, T_1, T_2) ahead of one S block.
    cases.append((anti.realize_invariant_monomial(4, (0, 1, 2), 1), anti.random_matrix))
    assert len(cases) == 8 + 24 + 2 * (3 + 5) + 4 + 2 * 5 + 2 * 2 + 4 + 1
    for f, draw in cases:
        for _ in range(2):
            args = tuple(draw(f.n, rng, 4) for _ in range(f.arity))
            value = f.raw(args)
            expected = reference_value(f, args)
            assert value == expected
            assert entry_types(value) == entry_types(expected)
    # A term whose T block reads 0 on one of its two shuffles: 3 tr(x1) x2 -
    # 3 tr(x2) x1 at a traceless x1 and x2 = I.
    for n in (2, 3):
        tr_x = anti.MultiFn(2, n, ((3, (anti._Factor("T", 1), anti._Factor("S", 1))),))
        args = (anti.random_traceless(n, rng, 4), anti.mat_identity(n))
        assert tr_x.raw(args) == reference_value(tr_x, args) == anti.mat_scale(args[0], -3 * n)


def test_shuffle_walk_on_raw_slots_of_wedge_forms():
    # On raw slots the diagonal functionals read Fractions.  Terms with no
    # S factor sum to one scalar before it scales the identity, so when they
    # cancel the int entries stay int; the per-shuffle sum left Fraction
    # zeros behind.  Values always agree.
    rng = random.Random(16)
    t1 = anti.t_form(3, 1)
    for form in (anti.t_form(2, 1), anti.on_in_fn(2), anti.fn_mul(anti.WedgeForm.x_power(3, 2), t1)):
        f = anti.realize(form, form.n)
        for _ in range(3):
            args = tuple(anti.random_matrix(f.n, rng, 4) for _ in range(f.arity))
            assert f.raw(args) == reference_value(f, args)
    # Traceless parts linearly dependent: b0* ^ b1* ^ b2* cancels to zero.
    f = anti.realize(anti.on_in_fn(2), 2)
    args = (((1, 2), (-1, 1)), ((3, 4), (-2, -1)), ((-1, -4), (2, -3)))
    assert f.raw(args) == reference_value(f, args) == ((0, -8), (-4, 0))
    assert entry_types(f.raw(args)) == [[int, int], [int, int]]
    assert entry_types(reference_value(f, args)) == [[Fraction, Fraction], [Fraction, Fraction]]


def test_commutator_via_realization():
    rng = random.Random(6)
    f = anti.x_power_fn(2, 2)
    for _ in range(20):
        a = anti.random_matrix(2, rng)
        b = anti.random_matrix(2, rng)
        lhs = f.raw((a, b))
        rhs = anti.mat_add(anti.mat_mul(a, b), anti.mat_scale(anti.mat_mul(b, a), -1))
        assert lhs == rhs


def test_realized_functions_are_antisymmetric():
    rng = random.Random(7)
    for n in (2, 3):
        mons = anti.atilde_basis(n, 3)
        for m in mons:
            f = anti.realize(anti.ExtElement.monomial(n, *m), n)
            args = [anti.random_matrix(n, rng, 4) for _ in range(f.arity)]
            if f.arity < 2:
                continue
            swapped = list(args)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            assert f.raw(tuple(swapped)) == anti.mat_scale(f.raw(tuple(args)), -1)


def test_raw_evaluators_stay_in_integer_arithmetic():
    # A Fraction zero seeding an accumulator leaves every value equal but
    # slows all later arithmetic, so the entry types are checked as well.
    rng = random.Random(10)
    n = 3
    for f in (anti.x_power_fn(n, 3), anti.realize_invariant_monomial(n, (1,), 2)):
        args = tuple(anti.random_matrix(n, rng, 5) for _ in range(f.arity))
        for value in (f.raw(args), anti.standard_value_raw(list(args), n)):
            assert all(type(x) is int for row in value for x in row), value


def test_realize_rank_certifies_n_2n():
    fns2 = [anti.realize_invariant_monomial(2, t, a) for t, a in anti.am_basis(2)]
    assert len(fns2) == 8
    assert anti.realize_rank(2, fns2, samples=12, seed=0) == 8
    assert anti.realize_rank(2, fns2, samples=0) == 0  # no tuple, no rank
    fns3 = [anti.realize_invariant_monomial(3, t, a) for t, a in anti.am_basis(3)]
    assert len(fns3) == 24
    assert anti.realize_rank(3, fns3, samples=5, seed=0) == 24


def test_realize_rank_builds_one_table_pair_per_sample_and_arity_group(monkeypatch):
    builds, callers = [], []
    standard_table, mat_mul = anti.standard_table, anti.mat_mul
    monkeypatch.setattr(
        anti, "standard_table", lambda *args: builds.append(args) or standard_table(*args)
    )
    monkeypatch.setattr(
        anti, "mat_mul", lambda a, b: callers.append(sys._getframe(1).f_code.co_name) or mat_mul(a, b)
    )
    fns = [anti.realize_invariant_monomial(3, t, a) for t, a in anti.am_basis(3)]
    assert anti.realize_rank(3, fns, samples=12, seed=0) == 24
    # A monomial has at most one S block, so the wedge DP multiplies no two
    # matrices: every product is one of a table's.
    assert set(callers) == {"standard_table"}
    # Arities 1..9 each hold factors over raw slots; the arity-0 identity
    # reads no table.  Every group reaches full rank at its first tuple and
    # stops there.  Evaluated one function at a time, it was 23 * 12; with
    # every group using all its tuples, 9 * 12.
    assert len(builds) == 9


def test_realize_rank_shared_tables_match_standalone_evaluation():
    n, samples, seed = 3, 5, 4
    fns = [anti.realize(anti.ExtElement.monomial(n, *m), n) for m in anti.atilde_basis(n, 3)]
    fns += [anti.realize(key, n) for key in anti.fn_basis(n, 2)]
    x, y = anti.ExtElement.monomial(n, (), 1, 0), anti.ExtElement.monomial(n, (), 0, 1)
    t1, x2y = anti.ExtElement.monomial(n, (1,), 0, 0), anti.ExtElement.monomial(n, (), 2, 1)
    fns.append(anti.wedge_fn(anti.realize(x + y.scale(2), n), anti.realize(t1 - x2y, n)))
    # realize_rank's draws: groups by ascending arity, each group's tuples
    # before any evaluation; here every function builds its own tables.
    rng = random.Random(seed)
    expected = 0
    for arity in sorted({f.arity for f in fns}):
        tuples = [tuple(anti.random_matrix(n, rng, 9) for _ in range(arity)) for _ in range(samples)]
        rows = [
            [entry for tup in tuples for row in f.raw(tup) for entry in row]
            for f in fns if f.arity == arity
        ]
        expected += rank(QMatrix(rows))
    assert expected > 10  # not a comparison of empty spans
    assert anti.realize_rank(n, fns, samples, seed) == expected


def test_realize_rank_stops_a_group_at_full_rank_and_only_there(monkeypatch):
    n, samples, seed = 3, 4, 2
    fns = [anti.realize_invariant_monomial(n, t, a) for t, a in anti.am_basis(n)]
    # Two groups that never reach full rank: T_1 X^2 listed twice (arity 5),
    # and S_6 beside the arity-6 monomials, 0 on M_3 by Amitsur-Levitzki.
    fns += [anti.realize_invariant_monomial(n, (1,), 2), anti.x_power_fn(n, 2 * n)]
    # The eager reference: every group evaluated at all its tuples, one
    # function at a time.  A group with a table uses tuples until the rank
    # of their rows is its size, and all of them when it never is.
    rng = random.Random(seed)
    expected, used = 0, {}
    for arity in sorted({f.arity for f in fns}):
        group = [f for f in fns if f.arity == arity]
        tuples = [tuple(anti.random_matrix(n, rng, 9) for _ in range(arity)) for _ in range(samples)]
        values = [[[x for row in f.raw(tup) for x in row] for tup in tuples] for f in group]
        prefix = [rank(QMatrix([sum(v[:t], []) for v in values])) for t in range(1, samples + 1)]
        expected += prefix[-1]
        used[arity] = next((t for t, r in enumerate(prefix, 1) if r == len(group)), samples)
    assert used == dict.fromkeys(range(10), 1) | {5: samples, 6: samples}
    builds = []
    standard_table = anti.standard_table
    monkeypatch.setattr(
        anti, "standard_table", lambda *args: builds.append(args) or standard_table(*args)
    )
    assert anti.realize_rank(n, fns, samples, seed) == expected == 24
    # The arity-0 identity reads no table.
    assert len(builds) == sum(t for arity, t in used.items() if arity)


def test_on_vanishes_on_traceless_tuples():
    rng = random.Random(8)
    for n, cases in ((2, 25), (3, 20)):
        f = anti.realize(anti.on_in_fn(n), n)
        for _ in range(cases):
            args = tuple(anti.random_traceless(n, rng) for _ in range(2 * n - 1))
            assert f.raw(args) == anti.mat_zero(n)


def test_amitsur_levitzki_realized():
    rng = random.Random(9)
    for n in (2, 3):
        f = anti.x_power_fn(n, 2 * n)
        for _ in range(20):
            args = tuple(anti.random_matrix(n, rng) for _ in range(2 * n))
            assert f.raw(args) == anti.mat_zero(n)


def test_functoriality_on_crossing_free_products():
    # realize is multiplicative whenever normal ordering does not move a
    # matrix-valued X block across a matrix-valued Y block (left factor has
    # no Y, or right factor has no X); the formal rule XY = -YX is pure
    # bookkeeping and does not hold for the realized functions.
    rng = random.Random(10)
    checked = 0
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
        for ma, mb in pairs[:60]:
            ea = anti.ExtElement.monomial(n, *ma)
            eb = anti.ExtElement.monomial(n, *mb)
            prod = anti.atilde_mul(ea, eb)
            wedge = anti.wedge_fn(anti.realize(ea, n), anti.realize(eb, n))
            args = tuple(anti.random_matrix(n, rng, 4) for _ in range(wedge.arity))
            lhs = wedge.raw(args)
            rhs = (
                anti.realize(prod, n).raw(args)
                if not prod.is_zero()
                else anti.mat_zero(n)
            )
            assert lhs == rhs, (n, ma, mb)
            checked += 1
    assert checked >= 100


def test_conjugation_equivariance():
    rng = random.Random(11)
    checked = 0
    for n in (2, 3):
        mons = anti.atilde_basis(n, 2) + anti.atilde_basis(n, 3)
        while checked < (50 if n == 2 else 100):
            m = rng.choice(mons)
            f = anti.realize(anti.ExtElement.monomial(n, *m), n)
            g = QMatrix.random(n, n, rng, 4)
            try:
                conj = anti.conjugate_fn(f, g)
            except ValueError:
                continue
            args = [anti.random_matrix(n, rng, 4) for _ in range(f.arity)]
            assert conj(args) == f(args)
            checked += 1


def test_basic_formula_realized():
    rng = random.Random(12)
    for n in (2, 3):
        for j in range(1, 2 * n):
            lhs, rhs = anti.basic_formula_sides(n, j)
            assert lhs.arity == rhs.arity == j + 2 * n - 1
            for _ in range(4):
                args = tuple(
                    anti.random_traceless(n, rng, 4) for _ in range(lhs.arity)
                )
                assert lhs.raw(args) == rhs.raw(args), (n, j)


def test_f2_top_degree_all_quasi_identities():
    # Antisymmetric 4-linear functions of a 3-dimensional space vanish; the
    # check runs over every basis 4-tuple, which determines a multilinear map.
    basis = [m.data for m in anti.traceless_basis(2)]
    for key in anti.fn_basis(2, 4):
        f = anti.realize(key, 2)
        for tup in itertools.product(basis, repeat=4):
            assert f.raw(tup) == anti.mat_zero(2)


def test_wedge_of_realized_t_forms_matches_fn_mul():
    rng = random.Random(13)
    n = 3
    t1 = anti.t_form(n, 1)
    x2 = anti.WedgeForm.x_power(n, 2)
    prod = anti.fn_mul(x2, t1)
    f_prod = anti.realize(prod, n)
    f_wedge = anti.wedge_fn(anti.realize(x2, n), anti.realize(t1, n))
    for _ in range(3):
        args = tuple(anti.random_traceless(n, rng, 3) for _ in range(5))
        assert f_prod.raw(args) == f_wedge.raw(args)


def test_wedge_with_a_degree_zero_realization_keeps_its_coefficient():
    n = 2
    g = anti.x_power_fn(n, 2)
    rng = random.Random(14)
    args = tuple(anti.random_matrix(n, rng) for _ in range(2))
    five = anti.realize(anti.ExtElement.monomial(n, (), 0, 0, 5), n)
    assert anti.wedge_fn(five, g).raw(args) == anti.mat_scale(g.raw(args), 5)
    zero = anti.realize(anti.ExtElement.zero(n), n)
    assert anti.wedge_fn(g, zero).raw(args) == anti.mat_zero(n)


def test_realize_rejects_wrong_arity():
    from quasident.errors import ArityMismatch

    f = anti.x_power_fn(2, 2)
    with pytest.raises(ArityMismatch):
        f.raw((anti.mat_identity(2),))
    # Every term's factors must take all the arguments between them.
    with pytest.raises(ArityMismatch):
        anti.MultiFn(3, 2, ((1, (anti._Factor("S", 1),)),))


def test_a_factor_is_of_a_known_kind_and_takes_at_least_one_matrix():
    # Unchecked, kind "Q" read as a trace (5 I at [[1, 2], [3, 4]]) and
    # T of arity 0 as tr(I) = n.
    for kind, arity in (("Q", 1), ("s", 1), ("T", 0), ("S", 0), ("S", -1), ("b", 0), ("b", 2)):
        with pytest.raises(ValueError):
            anti._Factor(kind, arity)
    for kind in "STb":
        assert anti._Factor(kind, 1).arity == 1


# -- one graded type, one count ------------------------------------------------
#
# The references are the hand-written closed forms, enumeration and
# realization that AmElement and _Graded._dim replaced.


def reference_atilde_dim(n, degree):
    """Counted by the degree e a T-subset leaves out of the full T product:
    it takes X^i Y^j, i, j <= top, i + j = r0 + e."""
    r0, top = degree - n * n + 2 * n, 2 * n - 1
    left_out = [1] + [0] * (2 * top - r0)
    for h in range(1, n - 1):
        for e in range(len(left_out) - 1, 2 * h, -1):
            left_out[e] += left_out[e - 2 * h - 1]
    return sum(c * (min(r, top) - max(0, r - top) + 1) for r, c in enumerate(left_out, r0) if r >= 0)


def reference_fn_dim(n, degree):
    """For each X power a, the wedges of degree - a of the n^2 - 1 functionals."""
    return sum(math.comb(n * n - 1, degree - a) for a in range(min(degree, 2 * n - 1) + 1))


def reference_am_basis(n):
    return sorted(
        (tset, a)
        for r in range(n)
        for tset in itertools.combinations(range(n - 1), r)
        for a in range(2 * n)
    )


def reference_invariant_monomial(n, tset, xpow):
    factors = [anti._Factor("T", 2 * h + 1) for h in sorted(set(tset))]
    if xpow:
        factors.append(anti._Factor("S", xpow))
    return anti.MultiFn(sum(f.arity for f in factors), n, ((1, tuple(factors)),))


@pytest.mark.parametrize("cls, ns", [
    (anti.AmElement, range(1, 7)),
    (anti.ExtElement, range(2, 8)),
    (anti.WedgeForm, range(2, 5)),
], ids=["AmElement", "ExtElement", "WedgeForm"])
def test_dim_counts_the_basis(cls, ns):
    for n in ns:
        for degree in range(n * n + 1):
            assert cls._dim(n, degree) == len(cls._basis(n, degree)), (n, degree)
        assert cls._dim(n, -1) == cls._dim(n, n * n + 1) == 0


def test_dim_matches_the_closed_forms():
    for n in range(2, 7):
        for degree in range(n * n + 1):
            assert anti.atilde_dim(n, degree) == reference_atilde_dim(n, degree), (n, degree)
            assert anti.fn_dim(n, degree) == reference_fn_dim(n, degree), (n, degree)
        assert sum(map(anti.AmElement._dim, [n] * (n * n + 1), range(n * n + 1))) == n * 2**n


def test_am_basis_and_its_realizations_match_the_hand_built_ones():
    for n in range(1, 6):
        basis = anti.am_basis(n)
        assert basis == reference_am_basis(n)
        assert len(basis) == n * 2**n
        for tset, a in basis:
            assert anti.realize_invariant_monomial(n, tset, a) == reference_invariant_monomial(n, tset, a)
    # Past the algebra: the Amitsur-Levitzki power X^{2n}.
    assert anti.x_power_fn(2, 4) == reference_invariant_monomial(2, (), 4)


def test_am_element_starts_at_n_1_and_reads_t_subsets():
    one = anti.AmElement(1, {((), 1): 1})
    assert one.degree() == 1 and anti.am_basis(1) == [((), 0), ((), 1)]
    for cls in (anti.ExtElement, anti.WedgeForm):
        with pytest.raises(ValueError, match="n must be >= 2"):
            cls(1)
        with pytest.raises(ValueError, match="n must be >= 2"):
            cls._basis(1, 0)
    with pytest.raises(ValueError, match="repeated T generator"):
        anti.AmElement(3, {((1, 1), 0): 1})
    with pytest.raises(ValueError, match="repeated T generator"):
        anti.realize_invariant_monomial(3, (0, 0), 1)
    assert str(anti.AmElement(3, {((1, 0), 3): 1, ((), 2): -2})) == "-2*X^2 + T0*T1*X^3"
