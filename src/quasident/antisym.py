"""Antisymmetric invariants of matrix tuples: the invariant algebra on
T_0..T_{n-2}, X over the full matrix space, the formal algebra on
T_1..T_{n-2}, X, Y, the concrete wedge algebra over the traceless dual basis,
and their realizations as multilinear antisymmetric matrix functions.

Invariant algebra (AmElement) and formal side (ExtElement): T-subsets times
X^a, or X^i Y^j.  Concrete side (WedgeForm): wedges of the traceless dual
basis b_i times X^a; the fixed ordered basis of the traceless matrices is
all e_ij (i != j) in row-major order followed by e_ii - e_{i+1,i+1}, which
pins coordinates and signs.

All three are one graded algebra, _Graded: a ratpoly.Terms type tied to its n
(sums across dimensions raise DimensionMismatch) with keys (odd, *powers).
odd is an ascending tuple of odd generators that square to zero (T_h of
degree 2h+1, or b_i of degree 1); powers are the exponents of the power
letters, each below 2n, and the degree is at most n^2.  All letters are odd
and distinct ones anticommute, but powers of one letter accumulate without
sign, so the algebra is not supercommutative: moving X^a past X^b costs
nothing where the grading would predict (-1)^ab.  The one product,
_graded_mul, rejects a pair of terms sharing an odd generator by one AND of
bitmasks; its sign: the right odd block hops past the left powers, the odd
blocks interleave (one popcount of the right mask against _odd_above of
the left), and each right power hops past the left powers of later letters.
Terms with an exponent of 2n or more, or degree above n^2, vanish: the
quotient defining the algebra.  One count, _Graded._dim, sizes every basis
from the weights.

The paper's two top-degree computations are one map: multiplication by a
degree 2n-1 element (obar, or O_n in the wedge algebra) from degree (n-1)^2
into degree n^2.  verify_kerim (its image is ker rho) and corollary2 (the
ideal meets the top wedge block only in 0) span that image through one
helper, _multiples, as sparse rows over the _Graded basis, and both refuse
through one cell budget, _top_cells_within, before any element or basis is
built.  Each returns the ledger its CLI command prints.  O_n's T_h forms read
a standard value only on subsets of torus weight 0 (_traceless_weights codes
each basis matrix's weight); every other subset's trace is 0.

Realizations interpret X as the raw matrix slot, Y as the traceless part of
the slot, T_h as the scalar form tr(S_{2h+1}(...)) (of traceless parts in
ExtElement) and b_i as the dual basis functional; the wedge of
already-antisymmetric functions is the division-free shuffle sum, which
agrees with the full symmetric-group average, and MultiFn._value computes it
by one subset DP per term over its factors in order, scalar and matrix
alike, each interleaving signed by _odd_above.  certify_dim, the ledger
antisym dim prints, ranks the realized am_basis(n).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from operator import add, mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DimensionMismatch,
    WrongDegree,
    capped_power,
)
from .exactla import (
    Mat,
    QMatrix,
    Subspace,
    mat_add,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_trace,
    mat_zero,
    rank,
)
from . import genmat
from .ratpoly import Terms, add_terms, scaled

# ---------------------------------------------------------------------------
# One graded algebra: odd generators and power letters
# ---------------------------------------------------------------------------


class _Graded(Terms):
    """Rational combination of normal-form keys (odd, *powers), tied to a
    dimension n: values carry n, sums and differences across dimensions raise
    DimensionMismatch, and equal values have equal n.

    A subclass supplies _generators(n) (the odd indices, by ascending
    weight), _weight and _factor of one odd generator, _traceless (per power
    letter: realized on traceless parts?), _least_n and its constructors.
    The default _read_odd and _term_str read and print T-subsets.
    """

    __slots__ = ("n", "_split")

    _traceless: tuple[bool, ...] = ()
    _least_n = 2

    def __init__(self, n: int, terms: Mapping[tuple, Fraction | int] | None = None):
        if n < self._least_n:
            raise ValueError(f"n must be >= {self._least_n}")
        self.n = n
        self._terms: dict[tuple, Fraction] = add_terms({}, (
            (self._key(n, key), Fraction(c)) for key, c in terms.items()
        )) if terms else {}

    @classmethod
    def zero(cls, n: int) -> "_Graded":
        return cls(n)

    @staticmethod
    def _read_odd(tset: Iterable[int]) -> tuple[int, ...]:
        """A set: sorted, and a repeated T refused."""
        tset = tuple(tset)
        ts = tuple(sorted(set(tset)))
        if len(ts) != len(tset):
            raise ValueError("repeated T generator squares to zero; not a monomial")
        return ts

    @classmethod
    def _key(cls, n: int, key: tuple) -> tuple:
        """The normal-form key: the odd tuple as the subclass reads it, each
        power below 2n, degree at most n^2."""
        odd, *powers = key
        odd = cls._read_odd(odd)
        gens = cls._generators(n)
        if odd and (odd[0] not in gens or odd[-1] not in gens):
            raise ValueError(f"odd generator indices must lie in {gens.start}..{gens.stop - 1}")
        if len(powers) != len(cls._traceless):
            raise ValueError(f"a key has {len(cls._traceless)} powers, got {len(powers)}")
        if any(not 0 <= p < 2 * n for p in powers):
            raise ValueError(f"exponents must lie in 0..{2 * n - 1}")
        key = (odd, *powers)
        if cls._degree(key) > n * n:
            raise ValueError(f"degree {cls._degree(key)} exceeds the cap {n * n}")
        return key

    @classmethod
    def _degree(cls, key: tuple) -> int:
        return sum(map(cls._weight, key[0])) + sum(key[1:])

    def _parts(self) -> list[tuple]:
        """(odd, its bitmask, powers, degree, coefficient) per term, split once
        per element and kept: a fixed factor multiplied by many elements is read once."""
        try:
            return self._split
        except AttributeError:
            self._split = [(key[0], _mask(key[0]), key[1:], self._degree(key), c)
                           for key, c in self._terms.items()]
            return self._split

    def degree(self) -> int:
        degs = {d for _odd, _bits, _powers, d, _c in self._parts()}
        if len(degs) > 1:
            raise WrongDegree("element is not homogeneous")
        return degs.pop() if degs else 0

    @classmethod
    def _basis(cls, n: int, degree: int) -> list[tuple]:
        """All normal-form keys of the given degree, in sorted order."""
        if n < cls._least_n:
            raise ValueError(f"n must be >= {cls._least_n}")
        if not 0 <= degree <= n * n:
            raise ValueError(f"degree must lie in 0..{n * n}")
        splits: dict[int, list[tuple[int, ...]]] = {}
        for powers in itertools.product(range(2 * n), repeat=len(cls._traceless)):
            splits.setdefault(sum(powers), []).append(powers)
        gens = cls._generators(n)
        weights = [cls._weight(g) for g in gens]
        out = []
        for size in range(len(gens) + 1):
            # Subsets of this size weigh between the lightest and heaviest.
            light, heavy = sum(weights[:size]), sum(weights[len(weights) - size:])
            if light > degree or heavy + max(splits) < degree:
                continue
            for odd in itertools.combinations(gens, size):
                rest = degree - sum(map(cls._weight, odd))
                out.extend((odd, *powers) for powers in splits.get(rest, ()))
        return sorted(out)

    @classmethod
    def _dim(cls, n: int, degree: int) -> int:
        """len(_basis(n, degree)), counted: the coefficient of t^degree in
        prod_g (1 + t^weight(g)) * (1 + t + ... + t^(2n-1))^(power letters),
        and 0 outside 0..n^2."""
        if not 0 <= degree <= n * n:
            return 0
        counts = [1] + [0] * degree
        for g in cls._generators(n):
            w = cls._weight(g)
            for e in range(degree, w - 1, -1):
                counts[e] += counts[e - w]
        for _ in cls._traceless:
            counts = [sum(counts[max(0, e - 2 * n + 1):e + 1]) for e in range(degree + 1)]
        return counts[degree]

    def _factors(self, key: tuple) -> tuple["_Factor", ...]:
        """The realization of a key: each odd generator's _Factor, then one
        standard-polynomial block per nonzero power."""
        odd, *powers = key
        return tuple(map(self._factor, odd)) + tuple(
            _Factor("S", p, traceless=t) for p, t in zip(powers, self._traceless) if p
        )

    def _term_str(self, key: tuple, coeff: Fraction) -> str:
        return scaled(coeff, format_ext_monomial(key))

    def _new(self, terms: dict) -> "_Graded":
        out = super()._new(terms)
        out.n = self.n
        return out

    def _coerce(self, other: object):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch(f"values live at n={self.n} and n={other.n}")
        return other

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and self.n == other.n
            and self._terms == other._terms
        )

    __hash__ = Terms.__hash__


def _graded_mul(a: _Graded, b: _Graded) -> _Graded:
    """Normal-form product of two elements of one _Graded type, signed as
    the module docstring says: a pair of terms meets the masks' AND and the
    degree cap first, then the exponent cap, and only a surviving pair builds
    its odd block.  Each y of b's block passes the members of a's above it."""
    if type(a) is not type(b):
        raise TypeError(f"cannot multiply {type(a).__name__} by {type(b).__name__}")
    if a.n != b.n:
        raise DimensionMismatch("factors live at different dimensions")
    top, cap, right = 2 * a.n, a.n * a.n, b._parts()

    def products():
        for oa, ma, pa, da, ca in a._parts():
            odd_above = _odd_above(ma)
            hop = sum(pa)
            later = [sum(pa[l + 1:]) for l in range(len(pa))]
            for ob, mb, pb, db, cb in right:
                if ma & mb or da + db > cap:
                    continue
                powers = tuple(map(add, pa, pb))
                if max(powers) >= top:
                    continue
                flips = len(ob) * hop + sum(map(mul, pb, later)) + (mb & odd_above).bit_count()
                c = ca * cb
                yield (tuple(sorted(oa + ob)), *powers), -c if flips & 1 else c

    return a._new(add_terms({}, products()))


def _odd_above(left: int) -> int:
    """The mask whose bit y is set when an odd number of left's members lie
    at or above y.  Listing the members of left before those of a disjoint
    mask right passes each member of right by the members of left above it,
    so that interleaving is odd exactly when right & _odd_above(left) has an
    odd number of bits: the one sign rule of _graded_mul's odd blocks and of
    MultiFn._value's wedge DP.  The parities come as a suffix XOR of
    left, in doublings of the shift."""
    shift = 1
    while shift < left.bit_length():
        left ^= left >> shift
        shift <<= 1
    return left


# ---------------------------------------------------------------------------
# Invariant algebra on T_0..T_{n-2}, X over the full matrix space
# ---------------------------------------------------------------------------


class AmElement(_Graded):
    """T-subsets of T_0..T_{n-2} times X^a, from n = 1 on; the top degree
    (n-1)^2 + 2n - 1 is n^2, so the cap never cuts a monomial."""

    __slots__ = ()

    # T_h of weight 2h+1, T_0 = tr, and X all realize on raw slots.
    _generators = staticmethod(lambda n: range(n - 1))
    _weight = staticmethod(lambda h: 2 * h + 1)
    _factor = staticmethod(lambda h: _Factor("T", 2 * h + 1))
    _traceless = (False,)
    _least_n = 1


def am_basis(n: int) -> list[tuple[tuple[int, ...], int]]:
    """The n 2^n monomials of AmElement, every degree, sorted: their
    realizations span the antisymmetric functions on M_n."""
    return sorted(key for d in range(n * n + 1) for key in AmElement._basis(n, d))


# ---------------------------------------------------------------------------
# Formal algebra on T_1..T_{n-2}, X, Y
# ---------------------------------------------------------------------------

ExtMonomial = tuple[tuple[int, ...], int, int]  # (ascending T indices, i, j)


class ExtElement(_Graded):
    """Rational combination of normal-form monomials T-subset * X^i Y^j."""

    __slots__ = ()

    # T_1..T_{n-2}, T_h of weight 2h+1 and realized as a traceless trace
    # form; X realizes on raw slots, Y on traceless parts.
    _generators = staticmethod(lambda n: range(1, n - 1))
    _weight = staticmethod(lambda h: 2 * h + 1)
    _factor = staticmethod(lambda h: _Factor("T", 2 * h + 1, traceless=True))
    _traceless = (False, True)

    @staticmethod
    def monomial(n: int, tset: Iterable[int], i: int, j: int, coeff: Fraction | int = 1) -> "ExtElement":
        return ExtElement(n, {(tuple(tset), i, j): coeff})


def ext_monomial(n: int, tset: Iterable[int], i: int, j: int) -> ExtMonomial:
    return ExtElement._key(n, (tset, i, j))


ext_degree = ExtElement._degree
atilde_basis = ExtElement._basis


def format_ext_monomial(m: tuple) -> str:
    """A T-subset key as T-subset times X^i (times Y^j when it has two powers)."""
    tset, *powers = m
    parts = [f"T{h}" for h in tset]
    parts += [x if p == 1 else f"{x}^{p}" for x, p in zip("XY", powers) if p]
    return "*".join(parts) if parts else "1"


def atilde_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Normal-form product in the formal algebra."""
    return _graded_mul(a, b)


def obar(n: int) -> ExtElement:
    """The degree 2n-1 element whose multiplication realizes the map studied
    in degree n^2: n(X^{2n-1} - Y^{2n-1}) - sum_i (X^{2i} - Y^{2i}) T_{n-i-1}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    terms: dict[ExtMonomial, Fraction] = {
        ((), 2 * n - 1, 0): Fraction(n),
        ((), 0, 2 * n - 1): Fraction(-n),
    }
    for i in range(1, n - 1):
        h = n - i - 1
        terms[((h,), 2 * i, 0)] = Fraction(-1)
        terms[((h,), 0, 2 * i)] = Fraction(1)
    return ExtElement(n, terms)


def rho(n: int, m: ExtMonomial) -> Fraction:
    """The linear functional on degree n^2 deciding membership in the image.

    Zero if at least two T factors are missing; (-1)^(h+n) if exactly T_h is
    missing; n if all factors are present and both exponents are even and lie
    in [2, 2n-2]; zero otherwise.
    """
    if ext_degree(m) != n * n:
        raise WrongDegree(f"rho is defined in degree {n * n}, got {ext_degree(m)}")
    tset, i, j = m
    missing = [h for h in range(1, n - 1) if h not in tset]
    if len(missing) >= 2:
        return Fraction(0)
    if len(missing) == 1:
        h = missing[0]
        return Fraction((-1) ** (h + n))
    if i % 2 == 0 and j % 2 == 0 and 2 <= i <= 2 * n - 2 and 2 <= j <= 2 * n - 2:
        return Fraction(n)
    return Fraction(0)


def special_monomial(n: int) -> ExtMonomial:
    """The complement generator: the full T product times X^2 Y^(2n-2)."""
    return (tuple(range(1, n - 1)), 2, 2 * n - 2)


atilde_dim = ExtElement._dim


def _top_cells_within(cls: type[_Graded], n: int, budget: int | None) -> None:
    """Refuse, before anything is built, a top-degree multiplication map of
    cls whose matrix, cls._dim(n, (n-1)^2) generators by cls._dim(n, n^2)
    monomials, has more cells than the budget.  Both maps have at least n^2
    cells (kerim's at least n generators and 2n - 1 monomials, corollary 2's
    at least n^2 monomials), so n^2 over the budget is refused uncounted."""
    if budget is not None and (
        n * n > budget or cls._dim(n, (n - 1) ** 2) * cls._dim(n, n * n) > budget
    ):
        raise BudgetExceeded(
            f"the top-degree multiplication map at n={n} has more than the budget's {budget} cells"
        )


def _multiples(factor: _Graded, degree: int, times: Callable[[_Graded, _Graded], _Graded]) -> Subspace:
    """The span of times(v, factor), v over the basis of the complementary
    degree, as one sparse row per v over the basis of the given degree.
    times is the product of factor's type, looked up by the caller."""
    cls, n = type(factor), factor.n
    cod = cls._basis(n, degree)
    index = {key: r for r, key in enumerate(cod)}
    # A list, not a generator: every product is made before Subspace starts,
    # so none of their time counts as the elimination's.
    rows = [
        {index[key]: c for key, c in times(cls(n, {v: 1}), factor)._terms.items()}
        for v in cls._basis(n, degree - factor.degree())
    ]
    return Subspace(len(cod), rows)


def verify_kerim(n: int, *, budget: int | None = None) -> dict:
    """Exact check that the image of right multiplication by obar equals the
    kernel of rho in top degree, with codimension one and the stated
    complement; returns the dimension ledger.  A map of more cells than the
    budget is refused first.  rho vanishes on the image exactly when it
    vanishes on the image's basis."""
    _top_cells_within(ExtElement, n, budget)
    image = _multiples(obar(n), n * n, atilde_mul)
    cod = atilde_basis(n, n * n)
    rho_row = {r: v for r, key in enumerate(cod) if (v := rho(n, key))}
    kernel = Subspace.kernel([rho_row], len(cod))
    comp = Subspace(len(cod), [{cod.index(special_monomial(n)): 1}])
    return {
        "ambient": len(cod),
        "domain": atilde_dim(n, (n - 1) ** 2),
        "image_rank": image.dim(),
        "ker_rho_equals_image": image == kernel,
        "rho_pi_zero": kernel.contains(image),
        "codimension": len(cod) - image.dim(),
        "complement_spans": image.sum(comp).dim() == len(cod),
        "complement_monomial": format_ext_monomial(special_monomial(n)),
    }


# ---------------------------------------------------------------------------
# Concrete wedge algebra over the traceless dual basis
# ---------------------------------------------------------------------------


def traceless_basis(n: int) -> list[QMatrix]:
    """Fixed ordered basis of the traceless matrices: e_ij (i != j) row-major,
    then e_ii - e_{i+1,i+1}."""
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                out.append(genmat.matrix_unit(i, j, n))
    for i in range(1, n):
        out.append(genmat.matrix_unit(i, i, n) - genmat.matrix_unit(i + 1, i + 1, n))
    return out


def _traceless_weights(n: int) -> list[int]:
    """One torus-weight code per traceless_basis(n) index.  e_ij has weight
    e_i - e_j, coded B^i - B^j with B = 2n^2; each e_ii - e_{i+1,i+1} has
    weight 0, code 0.  A set of basis matrices has weight sum_i c_i e_i with
    |c_i| at most its size, below n^2 = B/2, so its codes sum to 0 exactly
    when its weight is 0."""
    base = 2 * n * n
    units = [base**i - base**j for i in range(n) for j in range(n) if i != j]
    return units + [0] * (n - 1)


WedgeKey = tuple[tuple[int, ...], int]  # (ascending 0-based basis indices, X power)


class WedgeForm(_Graded):
    """Element of the wedge algebra over the traceless dual basis with an
    adjoined odd variable X (X^{2n} = 0, degree capped at n^2)."""

    __slots__ = ()

    # b_0..b_{n^2-2}, each of weight 1 and realized as its dual basis
    # functional; X realizes on raw slots.
    _generators = staticmethod(lambda n: range(n * n - 1))
    _weight = staticmethod(lambda index: 1)
    _factor = staticmethod(lambda index: _Factor("b", 1, index=index))
    _traceless = (False,)

    @staticmethod
    def _read_odd(subset: Iterable[int]) -> tuple[int, ...]:
        """Strictly increasing, as given."""
        subset = tuple(subset)
        if any(x >= y for x, y in zip(subset, subset[1:])):
            raise ValueError(f"wedge indices must strictly increase: {subset}")
        return subset

    @staticmethod
    def monomial(n: int, subset: Iterable[int], a: int, coeff: Fraction | int = 1) -> "WedgeForm":
        return WedgeForm(n, {(tuple(subset), a): coeff})

    @staticmethod
    def x_power(n: int, a: int, coeff: Fraction | int = 1) -> "WedgeForm":
        return WedgeForm(n, {((), a): coeff})

    def _term_str(self, key: WedgeKey, coeff: Fraction) -> str:
        subset, a = key
        parts = [f"b{i}*" for i in subset]
        if a:
            parts.append("X" if a == 1 else f"X^{a}")
        return scaled(coeff, "^".join(parts) if parts else "1")


fn_basis = WedgeForm._basis
fn_dim = WedgeForm._dim


def fn_mul(a: WedgeForm, b: WedgeForm) -> WedgeForm:
    """Normal-form product in the wedge algebra."""
    return _graded_mul(a, b)


def t_form(n: int, h: int) -> WedgeForm:
    """T_h as an explicit wedge form: the antisymmetric (2h+1)-linear form
    sending a tuple of traceless basis vectors to tr(S_{2h+1}(...)).

    Only subsets of torus weight 0 are evaluated.  Conjugating by diag(t)
    scales a product of weight-homogeneous matrices of total weight w by t^w
    and keeps its trace, so tr S(...) = t^w tr S(...) for every t, and the
    trace is 0 unless w = 0: 16 of 112 subsets at n = 3, 357 of 9,893 at
    n = 4."""
    if not 1 <= h <= n - 1:
        raise ValueError(f"h must lie in 1..{n - 1}")
    basis = [m.data for m in traceless_basis(n)]
    weights = _traceless_weights(n)
    terms: dict[WedgeKey, Fraction] = {}
    for subset in itertools.combinations(range(len(basis)), 2 * h + 1):
        if sum(weights[i] for i in subset):
            continue
        value = mat_trace(standard_value_raw([basis[i] for i in subset], n))
        if value:
            terms[(subset, 0)] = value
    return WedgeForm(n, terms)


def on_in_fn(n: int) -> WedgeForm:
    """The minimal antisymmetric identity inside the wedge algebra:
    n X^{2n-1} - sum_{i=0}^{n-2} X^{2i} ^ T_{n-i-1}."""
    total = WedgeForm.x_power(n, 2 * n - 1, n)
    for i in range(n - 1):
        total -= _graded_mul(WedgeForm.x_power(n, 2 * i), t_form(n, n - i - 1))
    return total


def ideal_component(n: int, degree: int) -> Subspace:
    """Degree component of the ideal generated by on_in_fn(n), spanned by
    v ^ O_n over the basis of the complementary degree.  All generators are
    odd, so left multiples span the component."""
    if degree < 2 * n - 1:
        raise ValueError(f"degree must be at least {2 * n - 1}")
    return _multiples(on_in_fn(n), degree, fn_mul)


def wedge_component_subspace(n: int, degree: int, size: int) -> Subspace:
    """The coordinate subspace of fn_basis(n, degree) spanned by the
    monomials with a given wedge size (so X power degree - size)."""
    cod = fn_basis(n, degree)
    vectors = [{r: 1} for r, (subset, _a) in enumerate(cod) if len(subset) == size]
    return Subspace(len(cod), vectors)


def corollary2(n: int, *, budget: int | None = None) -> dict:
    """Corollary 2 in top degree n^2: the ideal of O_n meets the block of
    wedge size n^2 - 2 (X power 2) only in 0; returns the dimension ledger.
    A map of more cells than the budget is refused first."""
    _top_cells_within(WedgeForm, n, budget)
    top = n * n
    ideal = ideal_component(n, top)
    block = wedge_component_subspace(n, top, top - 2)
    meet = ideal.intersect(block)
    return {
        "degree": top,
        "ambient": ideal.ambient,
        "ideal_dim": ideal.dim(),
        "block_dim": block.dim(),
        "intersection_dim": meet.dim(),
        "new_quasi_identities": block.dim() - meet.dim(),
    }


# ---------------------------------------------------------------------------
# Realization as multilinear antisymmetric matrix functions
# ---------------------------------------------------------------------------
#
# A realized function is data: MultiFn holds terms, each a coefficient times
# the shuffle-sum wedge of a tuple of _Factors, and MultiFn._value is the one
# evaluator.  The shuffle sum over splits of the arguments into ascending
# blocks agrees with the full symmetric-group average on antisymmetric
# factors and needs no division; it is associative, so wedge_fn concatenates
# factor lists and linear combinations concatenate scaled terms.  X^a, Y^a
# and T_h factors read their block from a standard_table (the one subset DP,
# also behind the T_h wedge forms) over the raw arguments or their traceless
# parts, each built on first use: MultiFn.raw builds its own, realize_rank
# one per sample tuple for all functions of the tuple's arity group.  A table
# costs one stacked product per subset.
#
# The evaluator wedges each term by one subset DP over argument masks, left
# to right over its factors in their given order:
#   W_k(A) = sum over |B| = a_k of eps(A - B, B) W_{k-1}(A - B) f_k(B),
# W_0 = {empty: coefficient}, and the term's value is W at the full mask.
# eps(A - B, B), the sign of listing A - B before B, comes from _odd_above,
# the sign rule of _graded_mul; the factors are never reordered, so no other
# sign enters.  W is a scalar until the term's first S factor and an n x n
# matrix from it on: a scalar times a matrix is one mat_scale and a matrix
# times a matrix one mat_mul, in factor order, so a term with at most one S
# block (every am_basis monomial) multiplies no two matrices outside the
# tables.  Each factor's value is read once per block, zero scalar values
# and zero scalar sums are skipped, and matrices are kept even when zero.
# Terms with no S factor sum to one scalar, which scales the identity once.
#
# Evaluators work on bare tuples-of-tuples of ints or Fractions through
# exactla's mat_* kernel, the one behind QMatrix: samples, the traceless
# basis behind t_form and accumulators (from mat_zero) are int matrices, and
# whole coefficients are ints.  Integer arithmetic is what keeps the
# exhaustive and randomized suites fast.  QMatrix appears only at the public
# boundary.


def mat_from(m) -> Mat:
    if isinstance(m, QMatrix):
        return m.data
    return tuple(tuple(row) for row in m)


def mat_traceless(a: Mat) -> Mat:
    n = len(a)
    t = Fraction(mat_trace(a), n)
    if not t:
        return a
    return tuple(
        tuple(a[i][j] - t if i == j else a[i][j] for j in range(n)) for i in range(n)
    )


def _mask(block: Iterable[int]) -> int:
    return sum(1 << i for i in block)


def standard_table(mats: Sequence[Mat], n: int, top: int) -> dict[int, Mat]:
    """The standard polynomial of every subset of at most top matrices, keyed
    by bitmask (bit k stands for mats[k]), by subset dynamics:
    g(S) = sum_k (-1)^(elements of S above k) g(S - k) A_k, g(empty) = I.

    A singleton stores its matrix as it is.  A larger S is one product of
    stacked blocks: the rows of the g(S - k) side by side (n x n|S|) times
    the signed A_k one above the other (n|S| x n), in place of |S| products
    and |S| - 1 sums, and instead of |S|! chains."""
    signed = (mats, [mat_scale(m, -1) for m in mats])
    g = {0: mat_identity(n)}
    if top:
        g.update((1 << k, m) for k, m in enumerate(mats))
    for size in range(2, min(top, len(mats)) + 1):
        for members in itertools.combinations(range(len(mats)), size):
            mask = _mask(members)
            # Tuples of exact size only: one built from a generator is made
            # at a guessed size, resized, and freed into the free list of its
            # final size, which then fills for every width n|S|.
            left = zip(*[g[mask ^ (1 << k)] for k in members])
            right = (signed[(size - 1 - pos) % 2][k] for pos, k in enumerate(members))
            g[mask] = mat_mul(tuple(sum(rows, ()) for rows in left), sum(right, ()))
    return g


def standard_value_raw(mats: Sequence[Mat], n: int) -> Mat:
    """The standard polynomial of all the given matrices."""
    return standard_table(mats, n, len(mats))[(1 << len(mats)) - 1]


def _tables(args: tuple[Mat, ...], n: int, top: int) -> Callable[[bool], dict[int, Mat]]:
    """table(traceless): the standard_table up to top over args, or over
    their traceless parts, each built on first use."""
    tables: dict[bool, dict[int, Mat]] = {}

    def table(traceless: bool) -> dict[int, Mat]:
        if traceless not in tables:
            mats = [mat_traceless(m) for m in args] if traceless else args
            tables[traceless] = standard_table(mats, n, top)
        return tables[traceless]

    return table


@dataclass(frozen=True)
class _Factor:
    """One wedge factor of a term, as data.

    kind "S" is the standard polynomial of the block's arguments, or of their
    traceless parts when traceless is set: a matrix.  "T" is its trace, and
    "b" the dual basis functional b_index* on the block's one argument: both
    scalars.  A term's wedge multiplies its factors' values in factor order.
    Any other kind, an arity below 1 and a "b" of arity other than 1 are
    refused.
    """

    kind: str
    arity: int
    traceless: bool = False
    index: int = 0

    def __post_init__(self):
        if self.kind not in ("S", "T", "b"):
            raise ValueError(f"a factor is of kind S, T or b, not {self.kind!r}")
        if self.arity < 1 or (self.kind == "b" and self.arity != 1):
            raise ValueError(f"a {self.kind} factor cannot take {self.arity} matrices")


def _dual_value(m: Mat, index: int):
    """b_index*(m): an entry off the diagonal, or, for e_dd - e_{d+1,d+1},
    the diagonal sum through d of m's traceless part."""
    n = len(m)
    d = index - n * (n - 1)
    if d < 0:
        i, j = divmod(index, n - 1)
        return m[i][j + (j >= i)]
    head = sum(m[i][i] for i in range(d + 1))
    shift = Fraction((d + 1) * mat_trace(m), n)
    return head - shift if shift else head


@dataclass(frozen=True)
class MultiFn:
    """Multilinear antisymmetric function from d-tuples of matrices to
    matrices, held as data: terms is a tuple of (coefficient, factors), and
    the function is the sum of each coefficient times the shuffle-sum wedge
    of its _Factors, matrix values multiplied in factor order.

    raw works on tuple matrices and builds its own standard tables;
    __call__ accepts QMatrix or nested sequences and hands back a QMatrix.
    """

    arity: int
    n: int
    terms: tuple[tuple[Fraction | int, tuple[_Factor, ...]], ...]

    def __post_init__(self):
        # The wedge DP splits all arity arguments among a term's factors.
        for _c, factors in self.terms:
            taken = sum(f.arity for f in factors)
            if taken != self.arity:
                raise ArityMismatch(f"a term's factors take {taken} matrices, the function {self.arity}")

    def __call__(self, args: Sequence) -> QMatrix:
        return QMatrix(self.raw(tuple(mat_from(m) for m in args)))

    def raw(self, args: tuple[Mat, ...]) -> Mat:
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} matrices, got {len(args)}")
        return self._value(args, _tables(args, self.n, self._top()))

    def _top(self) -> int:
        """The largest factor arity: the subset size the tables must reach."""
        return max((f.arity for _c, factors in self.terms for f in factors), default=0)

    def _value(self, args: tuple[Mat, ...], table: Callable[[bool], dict[int, Mat]]) -> Mat:
        """The sum of the terms' wedges, each by one subset DP over its factors
        in order (see the section comment)."""
        slots, n = range(self.arity), self.n
        total, scalar = mat_zero(n), 0
        for term_coeff, factors in self.terms:
            # W_k(A) = sum over B of eps(A - B, B) W_{k-1}(A - B) f_k(B), a
            # scalar until the first S factor and a matrix from it on.
            wedge, w_matrix = {0: term_coeff}, False
            for f in factors:
                f_matrix = f.kind == "S"
                step: dict[int, object] = {}
                seen: dict[tuple[int, ...], tuple[int, object]] = {}
                for done, w in wedge.items():
                    odd_above = _odd_above(done)
                    for block in itertools.combinations([y for y in slots if not done >> y & 1], f.arity):
                        if block not in seen:
                            mask = _mask(block)
                            if f.kind == "b":
                                value = _dual_value(args[block[0]], f.index)
                            else:
                                value = table(f.traceless)[mask]
                                if f.kind == "T":
                                    value = mat_trace(value)
                            seen[block] = mask, value
                        mask, value = seen[block]
                        if not value:
                            continue
                        odd = (mask & odd_above).bit_count() & 1
                        if not w_matrix:
                            c = -w if odd else w
                            value = mat_scale(value, c) if f_matrix else c * value
                        elif not f_matrix:
                            value = mat_scale(w, -value if odd else value)
                        else:
                            value = mat_mul(w, value)
                            if odd:
                                value = mat_scale(value, -1)
                        mask |= done
                        if mask not in step:
                            step[mask] = value
                        elif w_matrix or f_matrix:
                            step[mask] = mat_add(step[mask], value)
                        else:
                            step[mask] += value
                w_matrix = w_matrix or f_matrix
                # A matrix is a tuple, so it stays even when zero.
                wedge = {mask: w for mask, w in step.items() if w}
            for w in wedge.values():
                if w_matrix:
                    total = mat_add(total, w)
                else:
                    scalar += w
        # The terms with no S factor sum to a scalar times the identity.
        return mat_add(total, mat_scale(mat_identity(n), scalar)) if scalar else total


def wedge_fn(f: MultiFn, g: MultiFn) -> MultiFn:
    """Binary shuffle wedge of realized functions: every pair of terms
    concatenates its factor lists."""
    if f.n != g.n:
        raise DimensionMismatch("functions live at different dimensions")
    terms = tuple((cf * cg, ff + gf) for cf, ff in f.terms for cg, gf in g.terms)
    return MultiFn(f.arity + g.arity, f.n, terms)


def x_power_fn(n: int, a: int) -> MultiFn:
    """X^a realized: the standard polynomial of the raw slots.  a may reach
    2n and beyond (the Amitsur-Levitzki checks), outside AmElement."""
    return MultiFn(a, n, ((1, (_Factor("S", a),) if a else ()),))


def realize_invariant_monomial(n: int, tset: Iterable[int], xpow: int) -> MultiFn:
    """The AmElement monomial T-subset times X^xpow, realized."""
    return realize(AmElement(n, {(tuple(tset), xpow): 1}), n)


def realize(expr: "_Graded | WedgeKey", n: int) -> MultiFn:
    """A homogeneous element at dimension n (a bare WedgeKey is one wedge
    monomial) as the sum of its keys' factor lists; whole coefficients
    become ints."""
    if isinstance(expr, tuple):
        expr = WedgeForm(n, {expr: 1})
    if not isinstance(expr, _Graded):
        raise TypeError(f"cannot realize {type(expr).__name__}")
    if expr.n != n:
        raise DimensionMismatch(f"an element at n={expr.n} realized at n={n}")
    terms = tuple(
        (c.numerator if c.denominator == 1 else c, expr._factors(key)) for key, c in expr.terms()
    )
    return MultiFn(expr.degree(), n, terms)


def random_matrix(n: int, rng: random.Random, bound: int = 9) -> Mat:
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
    )


def random_traceless(n: int, rng: random.Random, bound: int = 9) -> Mat:
    """Integer traceless matrix: the last diagonal entry balances the others."""
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    rows[n - 1][n - 1] = -sum(rows[i][i] for i in range(n - 1))
    return tuple(tuple(row) for row in rows)


def conjugate_fn(f: MultiFn, g: QMatrix) -> Callable:
    """args -> g f(g^-1 args g) g^-1, for equivariance checks."""
    ginv = g.inverse()

    def ev(args: Sequence) -> QMatrix:
        moved = [ginv * QMatrix(mat_from(m)) * g for m in args]
        return g * f(moved) * ginv

    return ev


def realize_rank(
    n: int,
    fns: Sequence[MultiFn],
    samples: int,
    seed: int = 0,
    bound: int = 9,
    traceless_args: bool = False,
    *,
    budget: int | None = None,
) -> int:
    """Exact rank certificate for a family of realized functions.

    Functions of different arity are independent coordinates of the graded
    function space, so the family is grouped by arity; within a group every
    function is evaluated at the same random tuples, one tuple at a time, and
    the exact rank of the value matrix (rows = functions, columns = tuple
    entries) is accumulated.  A group stops at the first tuple that makes
    its rank its number of functions, which no more rows can exceed, so the
    total is the rank at all `samples` tuples; a group that never gets there
    uses all of them.  Every group's `samples` tuples are drawn, used or
    not, so the draws do not depend on where a group stops.  The total is a
    lower bound for the dimension of the span.  Each tuple's standard tables
    are built once, up to the group's largest factor arity, and read by
    every function of the group.

    With a budget, a family whose evaluations at every tuple would walk
    more shuffle terms than it (samples times, per term, arity! /
    prod(factor arity!)) raises BudgetExceeded before any tuple is drawn.
    The count is that of a walk over every shuffle, not of the wedge DP's
    steps, and takes no early stop into account, so it refuses what it
    always refused.
    """
    rng = random.Random(seed)
    groups: dict[int, list[MultiFn]] = {}
    for f in fns:
        if f.n != n:
            raise DimensionMismatch(f"a function at n={f.n} in a rank at n={n}")
        groups.setdefault(f.arity, []).append(f)
    if budget is not None:
        walks = samples * sum(
            factorial(f.arity) // prod(factorial(g.arity) for g in factors)
            for f in fns for _c, factors in f.terms
        )
        if walks > budget:
            raise BudgetExceeded(
                f"the rank certificate at n={n} walks {walks} shuffle terms, "
                f"over the budget {budget}"
            )
    draw = random_traceless if traceless_args else random_matrix
    total = found = 0
    for arity in sorted(groups):
        group = groups[arity]
        # Every tuple is drawn, used or not, so later groups draw the same.
        tuples = [
            tuple(draw(n, rng, bound) for _ in range(arity)) for _ in range(samples)
        ]
        top = max(f._top() for f in group)
        rows: list[list] = [[] for _ in group]
        for tup in tuples:
            table = _tables(tup, n, top)
            for f, row in zip(group, rows):
                row.extend(x for value_row in f._value(tup, table) for x in value_row)
            found = rank(QMatrix(rows))
            if found == len(group):
                break
        total += found
    return total


def certify_dim(
    n: int, *, samples: int, seed: int = 0, bound: int = 9, budget: int | None = None
) -> dict:
    """Certify that the realized am_basis(n) spans n 2^n independent
    antisymmetric functions on M_n; returns the rank ledger.  Every monomial
    walks at least one shuffle term per sample, so samples n 2^n over the
    budget is refused before anything is realized; realize_rank refuses the
    exact count."""
    if budget is not None and samples * n * capped_power(2, n, budget) > budget:
        raise BudgetExceeded(
            f"the rank certificate at n={n} walks more than the budget's {budget} shuffle terms"
        )
    fns = [realize_invariant_monomial(n, tset, a) for tset, a in am_basis(n)]
    rank = realize_rank(n, fns, samples=samples, seed=seed, bound=bound, budget=budget)
    expected = n * 2**n
    return {"monomials": len(fns), "expected": expected, "rank": rank, "certified": rank == expected}


def basic_formula_sides(n: int, j: int) -> tuple[MultiFn, MultiFn]:
    """Both sides of the reduction of Y^j ^ tr(Y^{2n-1}) to lower trace forms
    (valid for j >= 1), as functions of traceless-slot tuples.  Summands whose
    Y exponent reaches 2n are formally zero and are omitted; the T_0 = tr(Y)
    factor is kept and vanishes on traceless arguments by itself."""
    if not 1 <= j <= 2 * n - 1:
        raise ValueError("j must lie in 1..2n-1")
    def factors(y: int, h: int) -> tuple[_Factor, ...]:
        return _Factor("S", y, traceless=True), _Factor("T", 2 * h + 1, traceless=True)

    arity = j + 2 * n - 1
    lhs = MultiFn(arity, n, ((1, factors(j, n - 1)),))
    rhs = MultiFn(arity, n, tuple(
        (-1, factors(2 * i + j, n - i - 1)) for i in range(1, n - j // 2 + 1) if 2 * i + j < 2 * n
    ))
    return lhs, rhs
