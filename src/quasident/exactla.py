"""Exact linear algebra over the rationals, on one matrix kernel.

QMatrix is the package's one matrix type: a small immutable rectangular
matrix whose entries are ints, Fractions, or CPolys for the images of
genmat's evaluation map, kept as given (any other number becomes a
Fraction).  Its arithmetic is the ``mat_*`` kernel below: plain functions on
tuples of rows that use only ``+`` and ``*``, so they serve int, Fraction and
CPoly entries alike.  Integer matrices (matrix units, the traceless basis,
random points) therefore stay in integer arithmetic, in QMatrix and in
antisym's raw evaluators alike.

Every elimination goes through one sparse kernel, ``_rref``: rows arrive as
{column: coefficient} dicts, each is folded into a growing set of pivot rows
(its leading column strictly increases while it is reduced), and the pivot
rows are then back-substituted into the unique reduced row echelon form.
The fold runs modulo the prime P = 2^61 - 1 in int arithmetic, reducing
each row as it arrives.  Every entry of the modular result is then
rationally reconstructed as r/s with |r| and s at most sqrt(P/2), and the
result R is certified over Q: every input row m must equal the sum over
pivot columns c of m[c] * R_c.  Rows with p-integral entries have
rank_P <= rank_Q, so the certificate proves that the row spaces agree and
that R is the RREF over Q.  Where an input denominator is divisible by P,
a reconstruction fails or the certificate does, the same fold runs again in
Fraction arithmetic (``_rref_over_q``).  ``rref``, ``rank``,
``QMatrix.inverse``, ``nullspace_of_rows`` and ``Subspace`` all call the
kernel, so they agree exactly; ``rank`` stops at the modular fold when its
rank is min(rows, cols), since rank_P <= rank_Q.  Rows stay sparse
throughout, which matters for idsolve's systems (tens of thousands of
near-singleton equations).  ``nullspace_of_rows`` reads the columns in
reverse, so its basis is already the sparse reduced rows a Subspace stores:
``Subspace.kernel`` keeps them as they are, and no kernel is eliminated twice.

A Subspace holds only its ambient dimension and the {pivot column: sparse
row} map that ``_rref`` returns.  That map is unique, so equal subspaces
compare equal directly.  Vectors come in dense or as {column: value} dicts;
``contains_vector`` reduces them against the stored pivot rows, ``sum`` and
``intersect`` (one elimination of doubled rows, Zassenhaus) work on those
rows, and the dense ``basis`` is built only when it is read.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import AmbientMismatch, DimensionMismatch
from .ratpoly import CPoly, add_terms

Scalar = int | Fraction
Vector = Sequence[Scalar] | dict[int, Scalar]  # dense, or {column: value}
Mat = tuple[tuple, ...]


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_zero(n: int) -> Mat:
    return tuple((0,) * n for _ in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in cols) for row in a
    )


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Mat, c) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_trace(a: Mat):
    return sum(a[i][i] for i in range(len(a)))


def mat_is_zero(a: Mat) -> bool:
    return all(not x for row in a for x in row)


class QMatrix:
    """Rectangular matrix with int, Fraction or CPoly entries.  Treated as immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Scalar | CPoly]]):
        self.data: Mat = tuple(
            tuple(x if type(x) is int or isinstance(x, (Fraction, CPoly)) else Fraction(x)
                  for x in row)
            for row in data
        )
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix([[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(mat_identity(n))

    @staticmethod
    def random(rows: int, cols: int, rng: random.Random, bound: int = 9) -> "QMatrix":
        return QMatrix(
            [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        )

    def __getitem__(self, idx: tuple[int, int]) -> Scalar | CPoly:
        i, j = idx
        return self.data[i][j]

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.data)) if self.rows else [])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return _wrap(mat_add(self.data, other.data))

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return _wrap(mat_add(self.data, mat_scale(other.data, -1)))

    def __neg__(self) -> "QMatrix":
        return _wrap(mat_scale(self.data, -1))

    def scale(self, c: Scalar | CPoly) -> "QMatrix":
        return _wrap(mat_scale(self.data, c))

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape()} by {other.shape()}")
        return _wrap(mat_mul(self.data, other.data))

    def matvec(self, v: Sequence[Scalar]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(x for (x,) in mat_mul(self.data, tuple((Fraction(x),) for x in v)))

    def trace(self) -> Scalar | CPoly:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return mat_trace(self.data)

    def is_zero(self) -> bool:
        return mat_is_zero(self.data)

    def is_scalar(self) -> bool:
        """True iff all off-diagonal entries vanish and diagonal entries agree."""
        d = self.data
        return all(
            x == (d[0][0] if i == j else 0) for i, row in enumerate(d) for j, x in enumerate(row)
        )

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        pivots = _rref({**_sparse(row), n + i: 1} for i, row in enumerate(self.data))
        if any(c not in pivots for c in range(n)):
            raise ValueError("matrix is singular")
        return QMatrix([[pivots[i].get(n + j, 0) for j in range(n)] for i in range(n)])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix[{self.rows}x{self.cols}: {body}]"

    def _check_same_shape(self, other: "QMatrix") -> None:
        if self.shape() != other.shape():
            raise DimensionMismatch(f"shape mismatch {self.shape()} vs {other.shape()}")


def _wrap(data: Mat) -> QMatrix:
    """QMatrix over kernel output, whose entries are already int, Fraction or CPoly."""
    m = QMatrix.__new__(QMatrix)
    m.data = data
    m.rows = len(data)
    m.cols = len(data[0]) if data else 0
    return m


_ZERO = Fraction(0)
_P = 2**61 - 1
_HALF = isqrt(_P // 2)  # reconstruction bound on |numerator| and denominator


def _sparse(v: Sequence[Scalar]) -> dict[int, Scalar]:
    return {j: x for j, x in enumerate(v) if x}


def _in_ambient(row: dict[int, Scalar], ambient: int) -> dict[int, Scalar]:
    """row itself, once its columns are known to lie in 0..ambient-1."""
    if row and not 0 <= min(row) <= max(row) < ambient:
        raise AmbientMismatch(f"a column outside 0..{ambient - 1}")
    return row


def _dense(row: dict[int, Fraction], ncols: int) -> tuple[Fraction, ...]:
    return tuple(row.get(j, _ZERO) for j in range(ncols))


def _subtract(row: dict[int, Fraction], f: Fraction, prow: dict[int, Fraction]) -> None:
    """row -= f * prow, in place, dropping the entries that cancel."""
    g = -f
    add_terms(row, ((c, g * v) for c, v in prow.items()))


def _subtract_mod(row: dict[int, int], f: int, prow: dict[int, int]) -> None:
    """row -= f * prow modulo _P, in place, dropping the entries that cancel."""
    for c, v in prow.items():
        x = (row.get(c, 0) - f * v) % _P
        if x:
            row[c] = x
        else:
            del row[c]


def _reduce(row: dict, pivots: dict[int, dict], subtract=_subtract) -> int | None:
    """Reduce row in place against the pivot rows until its leading column
    has no pivot; return that column, or None when the row vanishes."""
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            return lead
        subtract(row, row[lead], prow)
    return None


def _back_substitute(pivots: dict[int, dict], subtract) -> None:
    """Clear the other pivot columns from each pivot row, largest pivot
    first, so that every row subtracted is already reduced."""
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for c in [c for c in row if c != lead and c in pivots]:
            subtract(row, row[c], pivots[c])


def _fold_mod(
    rows: Iterable[dict[int, Scalar]], kept: list[dict[int, Scalar]]
) -> dict[int, dict[int, int]] | None:
    """Forward-fold the rows modulo _P, appending each input row to kept.

    Returns the pivot rows modulo _P (1 at the pivot), or None when an entry
    has a denominator divisible by _P; every row still ends up in kept.
    """
    pivots: dict[int, dict[int, int]] = {}
    rows = iter(rows)
    for incoming in rows:
        kept.append(incoming)
        row = {}
        for c, v in incoming.items():
            if type(v) is not int:
                v = Fraction(v)
                den = v.denominator % _P
                if not den:
                    kept.extend(rows)
                    return None
                v = v.numerator * pow(den, -1, _P)
            v %= _P
            if v:
                row[c] = v
        lead = _reduce(row, pivots, _subtract_mod)
        if lead is not None:
            inv = pow(row[lead], -1, _P)
            pivots[lead] = {c: v * inv % _P for c, v in row.items()}
    return pivots


def _rational(a: int) -> tuple[int, int] | None:
    """(r, s) with |r|, s <= _HALF, gcd 1 and r = a*s modulo _P, or None.

    Wang's rational reconstruction: the half-extended Euclidean algorithm on
    (_P, a), stopped at the first remainder within the bound.  Since
    2 * _HALF**2 < _P there is at most one such fraction.
    """
    r0, r1, s0, s1 = _P, a, 0, 1
    while r1 > _HALF:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > _HALF or gcd(r1, s1) != 1:
        return None
    return r1, s1


def _lift(
    pivots: dict[int, dict[int, int]] | None, kept: list[dict[int, Scalar]]
) -> dict[int, dict[int, Fraction]]:
    """The RREF over Q of the rows kept, from their modular fold pivots.

    Back-substitutes modulo _P, reconstructs every entry and certifies the
    result R: each kept row m must equal the sum over pivot columns c of
    m[c] * R_c, exactly.  Reducing p-integral rows modulo _P cannot raise
    their rank, so rank_Q(M) >= rank_P(M) = len(R) >= rank_Q(M) once
    rowspace(M) lies in rowspace(R): the spaces are equal and R is the RREF.
    Anything short of that runs the rational fold on the kept rows.  Each
    pivot row is replaced in place, so one copy of R is alive at a time.
    """
    if pivots is not None:
        _back_substitute(pivots, _subtract_mod)
        dens = _reconstruct(pivots)
        if dens is not None and _certified(pivots, dens, kept):
            whole: dict[int, Fraction] = {}
            for lead, row in pivots.items():
                d = dens.get(lead)
                pivots[lead] = (
                    {c: whole.get(v) or whole.setdefault(v, Fraction(v)) for c, v in row.items()}
                    if d is None else {c: Fraction(v, d) for c, v in row.items()}
                )
            return pivots
    return _rref_over_q(kept)


def _reconstruct(pivots: dict[int, dict[int, int]]) -> dict[int, int] | None:
    """Replace each pivot row modulo _P by the int row n with R_c = n / d_c.

    Returns {c: d_c} for the rows whose d_c is not 1, or None when an entry
    has no reconstruction (the rows are then left half replaced).
    """
    dens: dict[int, int] = {}
    seen: dict[int, tuple[int, int] | None] = {}
    for lead, prow in pivots.items():
        row, d = {}, 1
        for c, v in prow.items():
            q = seen.get(v)
            if q is None:
                q = seen[v] = _rational(v)
                if q is None:
                    return None
            row[c] = q
            if q[1] != 1:
                d = lcm(d, q[1])
        if d != 1:
            dens[lead] = d
        pivots[lead] = {c: num * (d // den) for c, (num, den) in row.items()}
    return dens


def _certified(
    pivots: dict[int, dict[int, int]], dens: dict[int, int], kept: list[dict[int, Scalar]]
) -> bool:
    """Whether every kept row m is the sum over pivot columns c of m[c] * R_c,
    for R_c = pivots[c] / dens.get(c, 1), checked in int arithmetic."""
    for m in map(_int_multiple, kept):
        den = 1
        for c in m:
            if c in dens:
                den = lcm(den, dens[c])
        acc: dict[int, int] = {}
        for c, x in m.items():
            n = pivots.get(c)
            if n is not None and x:
                f = x * (den // dens.get(c, 1))
                for j, v in n.items():
                    acc[j] = acc.get(j, 0) + f * v
        if any(acc.pop(c, 0) != x * den for c, x in m.items()) or any(acc.values()):
            return False
    return True


def _int_multiple(row: dict[int, Scalar]) -> dict[int, int]:
    """row times the lcm of its denominators; row itself when its entries are ints."""
    if all(type(x) is int for x in row.values()):
        return row
    row = {c: Fraction(x) for c, x in row.items()}
    d = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (d // x.denominator) for c, x in row.items()}


def _rref_over_q(rows: Iterable[dict[int, Scalar]]) -> dict[int, dict[int, Fraction]]:
    """The rational fold: ``_rref`` in Fraction arithmetic throughout."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for incoming in rows:
        row = {c: Fraction(v) for c, v in incoming.items() if v}
        lead = _reduce(row, pivots)
        if lead is not None:
            inv = 1 / row[lead]
            pivots[lead] = {c: v * inv for c, v in row.items()}
    _back_substitute(pivots, _subtract)
    return pivots


def _rref(rows: Iterable[dict[int, Scalar]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of the row space of sparse rows.

    Returns {pivot column: row with 1 at the pivot}.  The rows are folded in
    modulo _P one at a time and back-substituted, and the entries are
    rationally reconstructed and certified over Q against every input row
    (``_lift``); the rational fold ``_rref_over_q`` runs instead where that
    fails.  The input rows are read twice, so they are kept by reference,
    never copied.  The result is unique: it does not depend on the order or
    the spanning set the rows came in.
    """
    kept: list[dict[int, Scalar]] = []
    return _lift(_fold_mod(rows, kept), kept)


def rref(m: QMatrix) -> tuple[QMatrix, int, list[int]]:
    """Reduced row echelon form, rank, and pivot columns."""
    pivots = _rref(map(_sparse, m.data))
    order = sorted(pivots)
    zero_rows = [[0] * m.cols] * (m.rows - len(order))
    return QMatrix([_dense(pivots[c], m.cols) for c in order] + zero_rows), len(order), order


def rank(m: QMatrix) -> int:
    """Rank over Q; a modular rank of min(rows, cols) is already it, as
    rank_P <= rank_Q <= min(rows, cols)."""
    kept: list[dict[int, Scalar]] = []
    pivots = _fold_mod(map(_sparse, m.data), kept)
    if pivots is not None and len(pivots) == min(m.rows, m.cols):
        return len(pivots)
    return len(_lift(pivots, kept))


def nullspace_of_rows(rows: Iterable[dict[int, Scalar]], ncols: int) -> list[dict[int, Fraction]]:
    """Nullspace basis of a sparse system of {column: coefficient} rows.

    With the columns read in reverse, each pivot row R_p leads at its
    largest column p, so free column f's vector, 1 at f and -R_p[f] at each
    pivot p > f, has f as its smallest column, where every other vector is
    0: the basis is the sparse reduced rows that Subspace keeps.
    """
    flip = list(range(ncols - 1, -1, -1))  # one int object per column, shared by all rows
    pivots = _rref({flip[c]: v for c, v in _in_ambient(row, ncols).items()} for row in rows)
    kernel = {f: {f: Fraction(1)} for f in range(ncols) if flip[f] not in pivots}
    for lead, prow in pivots.items():
        for c, x in prow.items():
            if c != lead:
                kernel[flip[c]][flip[lead]] = -x
    return list(kernel.values())


def nullspace(m: QMatrix) -> "Subspace":
    """Right nullspace {v : m v = 0} as a canonical subspace."""
    return Subspace.kernel(map(_sparse, m.data), m.cols)


class Subspace:
    """Subspace of Q^ambient, held as its reduced-row-echelon pivot rows:
    ``pivots`` maps each pivot column to its sparse row (1 at the pivot)."""

    __slots__ = ("ambient", "pivots")

    def __init__(self, ambient: int, vectors: Iterable[Vector]):
        self.ambient = ambient
        self.pivots = _rref(map(self._row, vectors))

    @staticmethod
    def _reduced(ambient: int, pivots: dict[int, dict[int, Fraction]]) -> "Subspace":
        """The subspace whose reduced pivot rows are already known, kept as given."""
        space = object.__new__(Subspace)
        space.ambient = ambient
        space.pivots = pivots
        return space

    @staticmethod
    def kernel(rows: Iterable[dict[int, Scalar]], ncols: int) -> "Subspace":
        """Nullspace of sparse rows: nullspace_of_rows's rows, each led by its smallest column."""
        return Subspace._reduced(ncols, {min(row): row for row in nullspace_of_rows(rows, ncols)})

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The reduced echelon basis as dense rows, in pivot order."""
        return tuple(_dense(self.pivots[c], self.ambient) for c in sorted(self.pivots))

    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
        )

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(sorted(self.pivots))))

    def contains_vector(self, v: Vector) -> bool:
        # _reduce works in place, and on a row with no zero entries.
        return _reduce({c: x for c, x in self._row(v).items() if x}, self.pivots) is None

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(row) for row in other.pivots.values())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, [*self.pivots.values(), *other.pivots.values()])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection in one elimination (Zassenhaus): the rows (a, a) of
        the smaller space and (b, 0) of the other span {(a + b, a)}, whose
        vectors with first half 0 are (0, A meet B).  The reduced rows that
        lead in the second half, shifted back, are A meet B's own."""
        self._check_ambient(other)
        small, large = sorted((self, other), key=Subspace.dim)
        m = self.ambient
        rows = [{**row, **{m + c: x for c, x in row.items()}} for row in small.pivots.values()]
        return Subspace._reduced(m, {
            lead - m: {c - m: x for c, x in row.items()}
            for lead, row in _rref(rows + list(large.pivots.values())).items()
            if lead >= m
        })

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, dim={self.dim()})"

    def _row(self, v: Vector) -> dict[int, Scalar]:
        """A {column: value} vector as given, or a dense one as a sparse copy."""
        if isinstance(v, dict):
            return _in_ambient(v, self.ambient)
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient {self.ambient}")
        return _sparse(v)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}"
            )
