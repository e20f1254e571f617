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
``rref``, ``rank``, ``QMatrix.inverse``, ``nullspace_of_rows`` and
``Subspace`` all call it, so they agree exactly.  Rows stay sparse
throughout, which matters for idsolve's systems (tens of thousands of
near-singleton equations) and for nullspace bases, which are already
reduced with their columns read in reverse.

A Subspace holds only its ambient dimension and the {pivot column: sparse
row} map that ``_rref`` returns.  That map is unique, so equal subspaces
compare equal directly.  Vectors come in dense or as {column: value} dicts;
``contains_vector`` reduces them against the stored pivot rows, ``sum`` and
``intersect`` work on those rows, and the dense ``basis`` is built only when
it is read.
"""

from __future__ import annotations

import random
from fractions import Fraction
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
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
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

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self.data)

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


def _sparse(v: Sequence[Scalar]) -> dict[int, Scalar]:
    return {j: x for j, x in enumerate(v) if x}


def _dense(row: dict[int, Fraction], ncols: int) -> tuple[Fraction, ...]:
    return tuple(row.get(j, _ZERO) for j in range(ncols))


def _subtract(row: dict[int, Fraction], f: Fraction, prow: dict[int, Fraction]) -> None:
    """row -= f * prow, in place, dropping the entries that cancel."""
    g = -f
    add_terms(row, ((c, g * v) for c, v in prow.items()))


def _reduce(row: dict[int, Fraction], pivots: dict[int, dict[int, Fraction]]) -> int | None:
    """Reduce row in place against the pivot rows until its leading column
    has no pivot; return that column, or None when the row vanishes."""
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            return lead
        _subtract(row, row[lead], prow)
    return None


def _rref(rows: Iterable[dict[int, Scalar]]) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of the row space of sparse rows.

    Returns {pivot column: row with 1 at the pivot}.  The rows are folded in
    one at a time, then each pivot row is cleared from the rows of smaller
    pivots, largest pivot first.  The result is unique: it does not depend
    on the order or the spanning set the rows came in.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for incoming in rows:
        row = {c: Fraction(v) for c, v in incoming.items() if v}
        lead = _reduce(row, pivots)
        if lead is not None:
            inv = 1 / row[lead]
            pivots[lead] = {c: v * inv for c, v in row.items()}
    for lead in sorted(pivots, reverse=True):
        prow = pivots[lead]
        for other_lead, orow in pivots.items():
            if other_lead < lead and lead in orow:
                _subtract(orow, orow[lead], prow)
    return pivots


def rref(m: QMatrix) -> tuple[QMatrix, int, list[int]]:
    """Reduced row echelon form, rank, and pivot columns."""
    pivots = _rref(map(_sparse, m.data))
    order = sorted(pivots)
    zero_rows = [[0] * m.cols] * (m.rows - len(order))
    return QMatrix([_dense(pivots[c], m.cols) for c in order] + zero_rows), len(order), order


def rank(m: QMatrix) -> int:
    return len(_rref(map(_sparse, m.data)))


def nullspace_of_rows(rows: Iterable[dict[int, Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Nullspace basis of a sparse homogeneous system.

    Each row maps column index -> nonzero coefficient.  The standard
    free-column construction over the reduced echelon form gives the
    canonical basis: one vector per free column, with that coordinate 1.
    """
    pivots = _rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [_ZERO] * ncols
        vec[f] = Fraction(1)
        for lead, prow in pivots.items():
            if f in prow:
                vec[lead] = -prow[f]
        basis.append(tuple(vec))
    return basis


def nullspace(m: QMatrix) -> "Subspace":
    """Right nullspace {v : m v = 0} as a canonical subspace."""
    return Subspace.from_vectors(m.cols, nullspace_of_rows(map(_sparse, m.data), m.cols))


class Subspace:
    """Subspace of Q^ambient, held as its reduced-row-echelon pivot rows:
    ``pivots`` maps each pivot column to its sparse row (1 at the pivot)."""

    __slots__ = ("ambient", "pivots")

    def __init__(self, ambient: int, vectors: Sequence[Vector]):
        self.ambient = ambient
        self.pivots = _rref(map(self._row, vectors))

    @staticmethod
    def from_vectors(ambient: int, vectors: Iterable[Vector]) -> "Subspace":
        return Subspace(ambient, list(vectors))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, [])

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
        return _reduce(self._row(v), self.pivots) is None

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(row) for row in other.pivots.values())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient, [*self.pivots.values(), *other.pivots.values()])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the relation space {(a, b) : a A = b B}."""
        self._check_ambient(other)
        rows_a, rows_b = list(self.pivots.values()), list(other.pivots.values())
        if not rows_a or not rows_b:
            return Subspace.zero(self.ambient)
        # One relation row per ambient column: relation column i weighs
        # rows_a[i], relation column da + j weighs rows_b[j].
        da = len(rows_a)
        relations: dict[int, dict[int, Fraction]] = {}
        for i, row in enumerate(rows_a):
            for c, x in row.items():
                relations.setdefault(c, {})[i] = x
        for j, row in enumerate(rows_b):
            for c, x in row.items():
                relations.setdefault(c, {})[da + j] = -x
        vectors = []
        for rel in nullspace_of_rows(relations.values(), da + len(rows_b)):
            vec: dict[int, Fraction] = {}
            for r, row in zip(rel, rows_a):
                if r:
                    add_terms(vec, ((c, r * x) for c, x in row.items()))
            vectors.append(vec)
        return Subspace(self.ambient, vectors)

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, dim={self.dim()})"

    def _row(self, v: Vector) -> dict[int, Scalar]:
        """A fresh sparse copy of a dense or {column: value} vector."""
        if isinstance(v, dict):
            if v and not 0 <= min(v) <= max(v) < self.ambient:
                raise AmbientMismatch(f"a column outside 0..{self.ambient - 1}")
            return {c: x for c, x in v.items() if x}
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector of length {len(v)} in ambient {self.ambient}")
        return _sparse(v)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"ambient dimensions differ: {self.ambient} vs {other.ambient}"
            )
