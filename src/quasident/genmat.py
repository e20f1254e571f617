"""Generic matrices, the evaluation homomorphism, and the classical identities.

phi_eval sends x_k to the generic matrix whose (i,j) entry is c[k,i,j] and
scalars to scalar matrices; a quasi-polynomial is a quasi-identity of the
n x n matrices exactly when its image is the zero matrix.

A sum of words is evaluated by one Horner fold over the words' trie,
trie_fold: R(v) = c_v 1 + sum over letters k of M_k R(vk), with the image
R(()), so each trie edge multiplies one matrix into a suffix sum that has
already merged and nothing is accumulated word by word.  The distinct words
are visited in lexicographic order with a stack of one frame per depth of the
current word, and there is no recursion.  phi_eval folds n x n tables of
packed monomials: a packed monomial (Packing) gives each variable c[k,i,j] one
bit field, all of one width, holding its exponent (Kronecker substitution),
with field codes dense over the generators in use; the width is the bit
length of the largest total degree the keys reach, so no exponent carries
into the next field, and multiplying by c[k,r,l] is one int addition.  CPoly
monomials and Fractions are built once, from the root's table, by the one
decoder Packing.cpoly.  At points (evaluate) the fold is over matrices of
lanes: a lane is one entry's values over all the points of the call, and a
matrix is one list of its n^2 lanes end to end.  M_k (c 1 + below) is then
c M_k plus, for each l, column l of M_k spread along the rows times row l of
below repeated down them: a trie edge is n + 1 map(mul, ...) and as many
map(add, ...) calls over whole matrices at every point at once, and the words
are sorted, the coefficients read and the trie walked once per call, not
once per point.  A scalar coefficient is read once; any other is evaluated
at each point with CPoly.eval, which stays in int arithmetic at integer
points.  At each point each value c, times D, the least common multiple of
that point's values' denominators, is its word's weight, and D divides that
point's matrix once, only when D > 1, so an integer point with integral
values keeps int entries.

A word's own product, not a sum, comes from the one walk prefix_walk: the
distinct words in lexicographic order, with a stack of the products of the
prefix a word shares with the word before it, so each node of the words' trie
costs one step.  word_paths walks index paths: entry (i,j) of a word's
product is the sum over paths i = l_0, l_1, ..., l_|w| = j of the monomials
c[w_1,l_0,l_1]*...*c[w_|w|,l_(|w|-1),l_|w|], each kept as a packed int with
an integer multiplicity.  TracePoly.expand multiplies the diagonals of its
trace factors by adding keys, and idsolve keys its equations by them.

Every verdict of the check and capelli-dep commands is decided from
verdict_values: the one phi_eval image in symbolic mode, or the values at
seeded random integer points in randomized mode, each with its point, yielded
lazily so a consumer may stop at the first that decides.  The randomized
values come from evaluate in chunks: the first point alone, so an input that
is not central at it costs one point, then at most POINT_CHUNK points per
call, so memory does not grow with the number of trials.  Every witness
search (central_witness, idsolve's independence witness) loops over
witness_points, one point per evaluate call, since witness_points builds
each matrix unit only when its tuple is tried: the matrix-unit tuples when
there are at most two generators, then seeded random tuples, the randomized
verdict's own points, so past two generators the point that settled a
randomized verdict is the witness when it lies within the search's
WITNESS_TRIALS.

The Cayley-Hamilton identities have one construction: Newton's identities
give q_n (char_poly_coefficients), and Q_n is q_n's full polarization
(TracePoly.polarize), so Q_n(x,...,x) = n! q_n(x) holds by construction.
Both are built as TracePolys, which keep formal trace factors
tr(x_{i1}*...*x_{ir}) unexpanded (stored up to cyclic rotation) and are what
the canonical printer shows; expand() pushes a TracePoly down to a
QuasiPoly.  cayley_hamilton_q / cayley_hamilton_Q return the expanded forms.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import partial, reduce
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceeded, DimensionMismatch, MissingAssignment, capped_power
from .exactla import QMatrix
from .freealg import QuasiPoly, Word, perm_sign, word_key
from .ratpoly import CPoly, Monomial, Scalar, Terms, Variable, add_terms, scaled


def generic_matrix(k: int, n: int) -> QMatrix:
    """The n x n matrix whose (i,j) entry is the variable c[k,i,j]."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    return QMatrix(
        [[CPoly.variable(k, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def phi_eval(p: QuasiPoly, n: int, *, budget: int | None = None) -> QMatrix:
    """Evaluation homomorphism: x_k -> generic matrix, scalars -> scalar matrices.

    The words are summed by trie_fold: an accumulator is an n x n table of
    {packed monomial: coefficient} dicts, and a trie edge for letter k adds
    the key of c[k,r,l] to every key of the child's row l, dropping each
    coefficient that cancels.  Every entry of the image is a CPoly, the zero
    polynomial's included.  With a budget, an input whose image could build
    more than budget coefficient terms raises BudgetExceeded before any is
    built: a word w contributes n^(|w|+1) index paths per term of its
    coefficient (errors.capped_power).
    """
    p.check_indices(n)
    terms = p.terms()
    if budget is not None:
        if sum(len(c) * capped_power(n, len(w) + 1, budget) for w, c in terms) > budget:
            raise BudgetExceeded(
                f"symbolic evaluation at n={n} builds more than the budget's "
                f"{budget} coefficient terms"
            )
    width = max((len(w) + c.degree() for w, c in terms), default=0).bit_length()
    packing = Packing(p.generators(), n, width)
    cols = range(1, n + 1)
    # units[k][r-1][l-1] is the key of c[k,r,l].
    units = {
        k: [[1 << width * packing.code(k, r, l) for l in cols] for r in cols]
        for k in packing.gens
    }

    def node(c: dict, below: list[list[dict]] | None) -> list[list[dict]]:
        # A node's value c 1 + below, as a table.
        if below is None:
            return [[(c or {}) if l == j else {} for j in cols] for l in cols]
        if c:
            for l, row in enumerate(below):
                add_terms(row[l], c.items())
        return below

    def edge(k: int, c: dict, below: list[list[dict]] | None, acc):
        # Entry (r, j) of M_k (c 1 + below) is the sum over l of the key of
        # c[k,r,l] added to each key of entry (l, j) of c 1 + below.
        if acc is None:
            acc = [[{} for _ in cols] for _ in cols]
        value = node(c, below)
        for acc_row, unit_row in zip(acc, units[k]):
            for unit, value_row in zip(unit_row, value):
                for out, entry in zip(acc_row, value_row):
                    for key, coeff in entry.items():
                        key += unit
                        s = out.get(key, 0) + coeff
                        if s:
                            out[key] = s
                        else:
                            del out[key]
        return acc

    # Each word's coefficient as {packed monomial: int or Fraction}.
    packed = {
        w: {packing.pack(mono): c.numerator if c.denominator == 1 else c
            for mono, c in coeff.terms()}
        for w, coeff in terms
    }
    image = node(*trie_fold(packed, edge))
    return QMatrix([[packing.cpoly(out) for out in row] for row in image])


class Packing:
    """Packed monomials in the variables c[k,i,j] at size n, k among gens.

    A packed monomial is an int with one bit field of width bits per
    variable, holding its exponent (Kronecker substitution).  c[k,i,j] owns
    field code(k, i, j) = (r*n + i-1)*n + j-1, r the rank of k among the
    sorted gens: codes are dense over the generators a caller uses, so a
    key's length depends on how many generators there are, not on their
    indices, and codes sort as the triples do.  Keys add as their monomials
    multiply while no exponent passes 2^width - 1."""

    def __init__(self, gens: Iterable[int], n: int, width: int):
        self.gens = sorted(set(gens))
        self.rank = {k: r for r, k in enumerate(self.gens)}
        self.n = n
        self.width = width

    def code(self, k: int, i: int, j: int) -> int:
        return (self.rank[k] * self.n + i - 1) * self.n + j - 1

    def pack(self, mono: Iterable[tuple[Variable, int]]) -> int:
        """The key of a monomial given as (variable, exponent) pairs."""
        return sum(e << self.width * self.code(*v) for v, e in mono)

    def cpoly(self, terms: dict[int, Scalar]) -> CPoly:
        """The CPoly of a {packed monomial: nonzero coefficient} dict.  Each
        key is read from its lowest set bit up, one set field at a time, so
        the variables come out in sorted order and a key costs its
        variables, not its n^2 fields per generator."""
        n, width = self.n, self.width
        mask = (1 << width) - 1
        variables: dict[int, Variable] = {}
        out: dict[Monomial, Fraction] = {}
        for key, c in terms.items():
            mono = []
            code = 0
            while key:
                skip = ((key & -key).bit_length() - 1) // width
                key >>= skip * width
                code += skip
                v = variables.get(code)
                if v is None:
                    r, cell = divmod(code, n * n)
                    i, j = divmod(cell, n)
                    v = variables[code] = (self.gens[r], i + 1, j + 1)
                mono.append((v, key & mask))
                key >>= width
                code += 1
            out[tuple(mono)] = Fraction(c)
        # Distinct keys decode to distinct monomials, so out is already canonical.
        return CPoly()._new(out)


def prefix_walk(words: Iterable[Word], unit, step) -> Iterator[tuple[Word, object]]:
    """(w, product) for each distinct word w, in lexicographic order, where
    the product is step folded over w's letters, starting from unit.

    A stack keeps the products of the prefix a word shares with the word
    before it, so each node of the words' trie costs one step."""
    stack = [unit]  # stack[t] is the product of the current word's first t letters
    previous: Word = ()
    for w in sorted(set(words)):
        # previous sorts before w, so w is no prefix of it and w[shared] exists.
        shared = 0
        while shared < len(previous) and previous[shared] == w[shared]:
            shared += 1
        del stack[shared + 1:]
        for k in w[shared:]:
            stack.append(step(stack[-1], k))
        previous = w
        yield w, stack[-1]


def trie_fold(terms: Mapping[Word, object], edge) -> list:
    """Horner's rule on the trie of the words of terms, a {word: nonzero
    coefficient} dict: R(v) = c_v 1 + sum over letters k of M_k R(vk), so
    R(()) is the sum of c_w times the product of w's matrices.

    A node's frame is [c_v, below], c_v being 0 where no word ends and below
    the sum over its children of M_k R(vk), None until a child is folded in;
    edge(k, c, below, acc) returns acc + M_k (c 1 + below), acc being the
    parent's below.  The distinct words are visited in lexicographic order
    with a stack of the frames of the current word's prefixes: moving to the
    next word folds every frame it no longer shares into its parent, so each
    trie edge is folded once, on its summed suffix, with no recursion.
    Returns the root's frame."""
    stack: list[list] = [[0, None]]  # stack[t] is the frame of the current word's first t letters
    path: Word = ()

    def fold(depth: int) -> None:
        while len(stack) > depth + 1:
            c, below = stack.pop()
            parent = stack[-1]
            parent[1] = edge(path[len(stack) - 1], c, below, parent[1])

    for w in sorted(terms):
        # path sorts before w, so w is no prefix of it and w[shared] exists.
        shared = 0
        while shared < len(path) and path[shared] == w[shared]:
            shared += 1
        fold(shared)
        stack.extend([0, None] for _ in w[shared:])
        stack[-1][0] = terms[w]
        path = w
    fold(0)
    return stack[0]


def word_paths(
    words: Iterable[Word], packing: Packing
) -> Iterator[tuple[Word, list[list[dict]]]]:
    """(w, table) for each distinct word, by prefix_walk: entry (i, j) of the
    table is entry (i, j) of the product of w's generic matrices at size
    packing.n, as {packed monomial: multiplicity}.

    Every letter must be among packing.gens, and packing.width must hold the
    largest total degree the caller's keys reach, so no exponent carries
    into the next field.  Each letter k extends every path ending at column
    l by the one variable c[k,l,j], one int addition; no coefficient is
    multiplied and no monomial is built.  Distinct paths that read the same
    variables (a repeated letter) share a key.  The empty word gives the
    identity: {0: 1} on the diagonal."""
    cols = range(1, packing.n + 1)
    width, code = packing.width, packing.code

    def extend(table: list[list[dict]], k: int) -> list[list[dict]]:
        # units[l-1][j-1] is the key of c[k,l,j].
        units = [[1 << width * code(k, l, j) for j in cols] for l in cols]
        out = []
        for row in table:
            step: list[dict] = [{} for _ in cols]
            for paths, unit_row in zip(row, units):
                for v, acc in zip(unit_row, step):
                    for key, mult in paths.items():
                        key += v
                        acc[key] = acc.get(key, 0) + mult
            out.append(step)
        return out

    return prefix_walk(words, [[{0: 1} if j == i else {} for j in cols] for i in cols], extend)


def is_quasi_identity(p: QuasiPoly, n: int) -> bool:
    """True iff p vanishes under every evaluation in the n x n matrices."""
    return phi_eval(p, n).is_zero()


def is_central(p: QuasiPoly, n: int) -> bool:
    """True iff every evaluation of p is a scalar matrix."""
    return phi_eval(p, n).is_scalar()


# Random points a witness search tries after the matrix units.
WITNESS_TRIALS = 200
# Most random points one evaluate call of a randomized verdict takes after
# the first, which it evaluates alone.
POINT_CHUNK = 64


def central_witness(
    p: QuasiPoly, n: int, seed: int = 0, bound: int = 9
) -> tuple[dict[int, QMatrix], QMatrix] | None:
    """A rational point where p evaluates to a non-scalar matrix, or None;
    the points come from witness_points, WITNESS_TRIALS random ones among them."""
    for assignment in witness_points(sorted(p.generators()), n, seed, bound):
        value, = evaluate(p, [assignment], n)
        if not value.is_scalar():
            return assignment, value
    return None


def witness_points(
    gens: Sequence[int], n: int, seed: int, bound: int, trials: int = WITNESS_TRIALS
) -> Iterator[dict[int, QMatrix]]:
    """The points a witness search tries, as {generator: matrix}: every tuple
    of matrix units when there are at most two generators, so witnesses stay
    small and reproducible, then the trials points of _random_points.  Each
    unit is built when its tuple is tried, so a search that stops early does
    not pay for all n^2 of them."""
    if len(gens) <= 2:
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for combo in itertools.product(cells, repeat=len(gens)):
            yield {k: matrix_unit(i, j, n) for k, (i, j) in zip(gens, combo)}
    yield from _random_points(gens, n, seed, bound, trials)


def verdict_values(
    p: QuasiPoly, n: int, *, mode: str, seed: int, trials: int, bound: int,
    budget: int | None = None,
) -> Iterator[tuple[dict[int, QMatrix] | None, QMatrix]]:
    """The values a verdict on p is decided from, lazily, each with the point
    it was taken at: in symbolic mode the one image phi_eval(p, n,
    budget=budget), at no point (None); in randomized mode p's values at the
    trials points of _random_points over its sorted generators, in their
    order, evaluated the first alone and then POINT_CHUNK at a time.  p is
    zero (central) when every value is.  Both modes refuse a coefficient index
    past n (check_indices) before any value is made."""
    if mode == "symbolic":
        yield None, phi_eval(p, n, budget=budget)
        return
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    p.check_indices(n)
    points = _random_points(sorted(p.generators()), n, seed, bound, trials)
    size = 1
    while chunk := list(itertools.islice(points, size)):
        yield from zip(chunk, evaluate(p, chunk, n))
        size = POINT_CHUNK


def _random_points(
    gens: Sequence[int], n: int, seed: int, bound: int, trials: int
) -> Iterator[dict[int, QMatrix]]:
    """trials points drawn from random.Random(seed): one QMatrix.random with
    entries in [-bound, bound] per generator, in the order given."""
    rng = random.Random(seed)
    for _ in range(trials):
        yield {k: QMatrix.random(n, n, rng, bound) for k in gens}


def matrix_unit(i: int, j: int, n: int) -> QMatrix:
    """e_ij with 1-based indices."""
    return QMatrix(
        [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(n)] for r in range(n)]
    )


def evaluate(
    p: QuasiPoly, points: Sequence[Mapping[int, QMatrix]], n: int
) -> list[QMatrix]:
    """Exact values of p at a sequence of points, each a tuple of rational
    matrices {generator: matrix}, in order, by one trie_fold over the words
    (see the module docstring): every matrix entry in the fold is a lane, the
    list of its values over the points, and a matrix is its lanes end to end
    in one list.  Each value, the types of its entries included, is the one
    its point gives alone; an integer point and integral coefficient values
    give int entries."""
    gens = p.generators()
    for point in points:
        for k, m in point.items():
            if m.shape() != (n, n):
                raise DimensionMismatch(f"matrix for x{k} has shape {m.shape()}")
        missing = gens - set(point)
        if missing:
            raise MissingAssignment(f"no matrix for generators {sorted(missing)}")
    if not points:
        return []
    # A scalar coefficient is read once, as (numerator, denominator); any
    # other is evaluated at each point into its lane of values.
    scalars: dict[Word, tuple[int, int]] = {}
    varying: list[tuple[Word, CPoly]] = []
    for w, c in p.terms():
        if c.is_constant():
            scalars[w] = c.constant_value().as_integer_ratio()
        else:
            varying.append((w, c))
    lanes: dict[Word, list[Scalar]] = {w: [] for w, _ in varying}
    if varying:
        for point in points:
            assignment = {
                (k, i, j): x
                for k, m in point.items()
                for i, row in enumerate(m.data, 1)
                for j, x in enumerate(row, 1)
            }
            for w, c in varying:
                lanes[w].append(c.eval(assignment))
    # A word that vanishes at one point still enters the fold if it does not
    # vanish at another, and 0 times a Fraction entry is Fraction(0), which
    # would turn an int entry of the value into a Fraction.  So a point with
    # a non-int entry and a vanishing coefficient is evaluated alone, where
    # its vanishing words are dropped.
    alone = {
        t for t, point in enumerate(points)
        if len(points) > 1 and any(not lane[t] for lane in lanes.values())
        and any(type(x) is not int for m in point.values() for row in m.data for x in row)
    }
    if alone:
        rest = iter(evaluate(p, [pt for t, pt in enumerate(points) if t not in alone], n))
        return [evaluate(p, [pt], n)[0] if t in alone else next(rest)
                for t, pt in enumerate(points)]
    # A word's weight at a point is its value there times D, the lcm of the
    # denominators of every value at that point.
    ds = list(map(
        math.lcm, [math.lcm(*(den for _, den in scalars.values()))] * len(points),
        *([value.denominator for value in lane] for lane in lanes.values()),
    ))
    weights = {w: [num * (d // den) for d in ds] for w, (num, den) in scalars.items()}
    weights.update(
        (w, [value.numerator * (d // value.denominator) for value, d in zip(lane, ds)])
        for w, lane in lanes.items() if any(lane)
    )
    # A matrix in the fold is one flat list of its entries' lanes end to end:
    # entry (i, j) at point t is item (i n + j) P + t, P the number of points,
    # so row l is the slice of span = n P items at l span, and point t's
    # matrix is the slice [t::P], row by row.  images[k] is x_k's matrices so
    # laid out; columns[k][l] is their column l spread along each row, its
    # item (i n + j) P + t being entry (i, l) of x_k at point t.
    size = len(points)
    span = n * size
    images, columns = {}, {}
    for k in {k for w in weights for k in w}:
        images[k] = image = list(itertools.chain.from_iterable(
            zip(*(itertools.chain.from_iterable(point[k].data) for point in points))
        ))
        columns[k] = [
            list(itertools.chain.from_iterable(
                image[(i * n + l) * size:(i * n + l + 1) * size] * n for i in range(n)
            ))
            for l in range(n)
        ]
    plus = partial(map, add)

    def edge(k, c, below, acc):
        # M_k (c 1 + below) is c M_k plus, over l, column l of M_k spread
        # along each row times row l of below repeated down the rows; an edge
        # into a leaf has only the first, and acc, if any, is added.
        terms = [map(mul, images[k], c * (n * n))] if c else []
        if below is not None:
            terms.extend(map(mul, column, below[l * span:(l + 1) * span] * n)
                         for l, column in enumerate(columns[k]))
        if acc is not None:
            terms.append(acc)
        return list(reduce(plus, terms))

    c, below = trie_fold(weights, edge)
    total = below or [0] * (n * span)
    if c:
        zero = [0] * size
        total = list(map(add, total, itertools.chain.from_iterable(
            c if i == j else zero for i in range(n) for j in range(n)
        )))
    values = []
    for t, d in enumerate(ds):
        entries = total[t::size]
        if d > 1:
            entries = [Fraction(x, d) for x in entries]
        values.append(QMatrix([entries[i * n:(i + 1) * n] for i in range(n)]))
    return values


# -- trace words and trace polynomials ---------------------------------------


def canonical_rotation(letters: Iterable[int]) -> Word:
    """Lexicographically least cyclic rotation; the key for trace factors."""
    t = tuple(letters)
    if not t:
        return t
    return min(t[i:] + t[:i] for i in range(len(t)))


def trace_word_cpoly(letters: Iterable[int], n: int) -> CPoly:
    """tr of the product of generic matrices along a word, as a CPoly."""
    return TracePoly.tr(letters).expand(n).coefficient(())


TraceKey = tuple[tuple[Word, ...], Word]  # (sorted trace factors, free word)


class TracePoly(Terms):
    """Formal trace polynomial: rational combinations of tr-products times words.

    Trace factors are stored in canonical cyclic rotation and sorted, so
    tr(x1*x2) and tr(x2*x1) merge.  Homogeneity counts occurrences inside
    trace factors as well as word letters, which is what full polarization
    permutes.
    """

    __slots__ = ()

    _order = staticmethod(lambda term: (word_key(term[0][1]), term[0][0]))

    def __init__(self, terms: Mapping[TraceKey, Scalar] | None = None):
        self._terms: dict[TraceKey, Fraction] = add_terms({}, (
            (_trace_key(traces, w), Fraction(c)) for (traces, w), c in terms.items()
        )) if terms else {}

    @staticmethod
    def zero() -> "TracePoly":
        return TracePoly()

    @staticmethod
    def const(c: Scalar) -> "TracePoly":
        return TracePoly({((), ()): c})

    @staticmethod
    def x(k: int) -> "TracePoly":
        return TracePoly({((), (k,)): 1})

    @staticmethod
    def tr(letters: Iterable[int]) -> "TracePoly":
        return TracePoly({((tuple(letters),), ()): 1})

    def __mul__(self, other: "TracePoly") -> "TracePoly":
        return self._new(add_terms({}, (
            ((tuple(sorted(ta + tb)), wa + wb), ca * cb)
            for (ta, wa), ca in self._terms.items()
            for (tb, wb), cb in other._terms.items()
        )))

    def relabel(self, mapping: Mapping[int, int]) -> "TracePoly":
        def renamed(letters: Iterable[int]) -> Word:
            return tuple(mapping.get(g, g) for g in letters)

        return self._new(add_terms({}, (
            (_trace_key(map(renamed, traces), renamed(w)), c)
            for (traces, w), c in self._terms.items()
        )))

    def polarize(self, generator: int, fresh: Sequence[int]) -> "TracePoly":
        """Full polarization in one generator, trace slots included.

        Input must be homogeneous of degree len(fresh) in the generator,
        counting word letters and trace-factor letters together.
        """
        d = len(fresh)

        def filled(letters: Word, slots: Iterator[int]) -> Word:
            return tuple(next(slots) if g == generator else g for g in letters)

        out: dict[TraceKey, Fraction] = {}
        for (traces, w), coeff in self._terms.items():
            degree = sum(t.count(generator) for t in traces + (w,))
            if degree != d:
                raise ValueError(
                    f"term {traces}|{w} has degree {degree} in x{generator}, expected {d}"
                )
            # Each ordering of fresh fills the occurrences of the generator in turn.
            add_terms(out, (
                (_trace_key([filled(t, slots) for t in traces], filled(w, slots)), coeff)
                for slots in map(iter, itertools.permutations(fresh))
            ))
        return self._new(out)

    def expand(self, n: int) -> QuasiPoly:
        """Expand every trace factor into generic-matrix entries: the
        diagonal of its index paths, from one walk over the distinct factors."""
        factors = {t for traces, _ in self._terms for t in traces}
        width = max((sum(map(len, traces)) for traces, _ in self._terms), default=0).bit_length()
        packing = Packing((g for t in factors for g in t), n, width)
        diagonals = {
            t: add_terms({}, (p for i, row in enumerate(table) for p in row[i].items()))
            for t, table in word_paths(factors, packing)
        }
        by_word: dict[Word, dict] = {}
        for (traces, w), coeff in self._terms.items():
            product = {0: coeff.numerator if coeff.denominator == 1 else coeff}
            for t in traces:
                product = add_terms({}, (
                    (ka + kb, ca * cb)
                    for ka, ca in product.items() for kb, cb in diagonals[t].items()
                ))
            add_terms(by_word.setdefault(w, {}), product.items())
        return QuasiPoly({w: packing.cpoly(terms) for w, terms in by_word.items()})

    def _term_str(self, key: TraceKey, coeff: Fraction) -> str:
        traces, w = key
        factors = [f"tr({'*'.join(f'x{g}' for g in t)})" for t in traces]
        if w:
            factors.append("*".join(f"x{g}" for g in w))
        return scaled(coeff, "*".join(factors) if factors else "1")


def _trace_key(traces: Iterable[Iterable[int]], w: Iterable[int]) -> TraceKey:
    """Canonical key: trace factors rotated to their least form and sorted."""
    return (tuple(sorted(canonical_rotation(t) for t in traces)), tuple(w))


# -- classical polynomials ----------------------------------------------------


def standard_poly(h: int) -> QuasiPoly:
    """S_h: the signed sum over all orderings of x_1..x_h; h! terms."""
    if h < 1:
        raise ValueError("h must be >= 1")
    return QuasiPoly({perm: perm_sign(perm) for perm in itertools.permutations(range(1, h + 1))})


def capelli(t: int) -> QuasiPoly:
    """C_{2t-1} in x_1..x_t with the y slots realized as x_{t+1}..x_{2t-1}."""
    if t < 1:
        raise ValueError("t must be >= 1")
    terms: dict[Word, int] = {}
    for perm in itertools.permutations(range(1, t + 1)):
        w: list[int] = []
        for idx, g in enumerate(perm):
            w.append(g)
            if idx < t - 1:
                w.append(t + 1 + idx)
        terms[tuple(w)] = perm_sign(perm)
    return QuasiPoly(terms)


def char_poly_coefficients(n: int) -> list[TracePoly]:
    """The coefficients tau_1..tau_n of the degree-n characteristic identity,
    as formal trace expressions in x_1, via Newton's identities
    i*e_i = sum_{j=1..i} (-1)^(j-1) e_{i-j} p_j with tau_i = (-1)^i e_i."""
    p = [TracePoly.zero()] + [TracePoly.tr((1,) * j) for j in range(1, n + 1)]
    e = [TracePoly.const(1)]
    for i in range(1, n + 1):
        acc = TracePoly.zero()
        for j in range(1, i + 1):
            term = e[i - j] * p[j]
            acc = acc + (term if j % 2 == 1 else -term)
        e.append(acc.scale(Fraction(1, i)))
    return [e[i].scale((-1) ** i) for i in range(1, n + 1)]


def cayley_hamilton_q_trace(n: int) -> TracePoly:
    """q_n(x_1) = x_1^n + tau_1 x_1^(n-1) + ... + tau_n as a trace polynomial."""
    if n < 1:
        raise ValueError("n must be >= 1")
    taus = char_poly_coefficients(n)
    total = TracePoly({((), (1,) * n): 1})
    for i, tau in enumerate(taus, start=1):
        total = total + tau * TracePoly({((), (1,) * (n - i)): 1})
    return total


def cayley_hamilton_q(n: int) -> QuasiPoly:
    """The one-generator Cayley-Hamilton quasi-polynomial; phi_eval(q_n, n) = 0."""
    return cayley_hamilton_q_trace(n).expand(n)


def cayley_hamilton_Q_trace(n: int) -> TracePoly:
    """Q_n in x_1..x_n: the full polarization of q_n, so Q_n(x,...,x) = n! q_n(x)."""
    return cayley_hamilton_q_trace(n).polarize(1, list(range(1, n + 1)))


def cayley_hamilton_Q(n: int) -> QuasiPoly:
    """The expanded multilinear Cayley-Hamilton quasi-polynomial in x_1..x_n."""
    return cayley_hamilton_Q_trace(n).expand(n)
