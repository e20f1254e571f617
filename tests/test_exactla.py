import random
from fractions import Fraction

import pytest

from quasident import exactla
from quasident.errors import AmbientMismatch, DimensionMismatch
from quasident.exactla import QMatrix, Subspace, nullspace, nullspace_of_rows, rank, rref

P = 2**61 - 1  # the modular fold's prime
RATIONAL_FOLD = exactla._rref_over_q


def _bit_size(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def dense_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], int, list[int]]:
    """Reference: dense Gauss-Jordan elimination with smallest-bit-size pivots.

    Reduced row echelon form of a Fraction copy of rows, so int input stays
    exact; returns (rows, rank, pivot columns).
    """
    if not rows:
        return rows, 0, []
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        best = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                if best is None or _bit_size(rows[i][c]) < _bit_size(rows[best][c]):
                    best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, len(pivots), pivots


def free_column_vectors(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Reference nullspace basis: per free column f of the dense RREF, the
    vector with 1 at f and -R[f] at each pivot column.  It is reduced only
    with the columns read in reverse."""
    reduced, _, pivots = dense_rref(rows)
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for p, row in zip(pivots, reduced):
                v[p] = -row[f]
            vectors.append(v)
    return vectors


def random_matrix(rng, rows, cols, bound=6):
    return QMatrix(
        [[Fraction(rng.randint(-bound, bound)) for _ in range(cols)] for _ in range(rows)]
    )


def test_int_entries_stay_int():
    assert all(type(x) is int for x in QMatrix([[1, 2]]).data[0])
    m = QMatrix.random(3, 3, random.Random(1))
    assert all(type(x) is int for row in m.data for x in row)
    assert QMatrix([[Fraction(1, 2), 0.5]]).data == ((Fraction(1, 2), Fraction(1, 2)),)


def test_rref_identity():
    m = QMatrix.identity(3)
    reduced, r, pivots = rref(m)
    assert r == 3 and pivots == [0, 1, 2] and reduced == m


def test_rref_rank_one():
    _, r, _ = rref(QMatrix([[1, 2], [2, 4]]))
    assert r == 1


def test_rank_equals_transpose_rank():
    rng = random.Random(0)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == rank(m.transpose())


def test_rref_idempotent():
    rng = random.Random(1)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        reduced, _, _ = rref(m)
        again, _, _ = rref(reduced)
        assert reduced == again


def test_nullspace_zero_matrix():
    assert nullspace(QMatrix.zeros(2, 3)).dim() == 3


def test_nullspace_identity():
    assert nullspace(QMatrix.identity(4)).dim() == 0


def test_nullspace_one_equation():
    space = nullspace(QMatrix([[1, 1]]))
    assert space.dim() == 1
    assert space.contains_vector([1, -1])


def test_nullspace_vectors_annihilate():
    rng = random.Random(2)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        space = nullspace(m)
        assert space.dim() == m.cols - rank(m)
        for v in space.basis:
            assert all(x == 0 for x in m.matvec(v))


def test_sparse_nullspace_matches_dense():
    rng = random.Random(3)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        rows = [{j: x for j, x in enumerate(row) if x} for row in m.data]
        reduced, k, _ = dense_rref(free_column_vectors([list(r) for r in m.data], m.cols))
        expected = [{j: x for j, x in enumerate(row) if x} for row in reduced[:k]]
        assert nullspace_of_rows(rows, m.cols) == expected, m


def test_sparse_nullspace_is_the_subspace_canonical_form():
    # The kernel comes out as Subspace's own pivot rows, each keyed by its
    # smallest column, so Subspace.kernel keeps it as it is and equals the
    # Subspace that eliminates it again.
    rng = random.Random(12)
    systems = [([], 0), ([], 4), ([{0: 0}], 2), ([{0: 1}, {1: 2}, {0: 1, 1: 1, 2: 3}], 3)]
    for entry in (lambda r: r.randint(-5, 5), lambda r: Fraction(r.randint(-6, 6), r.randint(1, 7))):
        for _ in range(80):
            cols = rng.randint(1, 8)
            systems.append((random_sparse_system(rng, rng.randint(0, 9), cols, entry), cols))
    no_free_column = 0
    for system, cols in systems:
        kernel = nullspace_of_rows(system, cols)
        leads = [min(row) for row in kernel]
        assert leads == sorted(set(leads)), system
        space, again = Subspace.kernel(system, cols), Subspace(cols, kernel)
        assert space.pivots == again.pivots == dict(zip(leads, kernel)), system
        assert space.ambient == again.ambient == cols and hash(space) == hash(again), system
        no_free_column += cols > 0 and not kernel
    assert no_free_column > 1


def test_nullspace_is_the_dense_reference_kernel_eliminated_once(monkeypatch):
    calls = []
    rref_ = exactla._rref
    monkeypatch.setattr(exactla, "_rref", lambda rows: calls.append(1) or rref_(rows))
    for m in differential_cases():
        calls.clear()
        space = nullspace(m)
        assert len(calls) == 1, m
        expected = Subspace(m.cols, free_column_vectors([list(r) for r in m.data], m.cols))
        assert space.pivots == expected.pivots and hash(space) == hash(expected), m


def test_subspace_canonical_equality():
    a = Subspace(3, [[1, 0, 1], [0, 1, 1]])
    b = Subspace(3, [[1, 1, 2], [1, -1, 0]])
    assert a == b
    assert Subspace(3, [{0: 1, 1: 1, 2: 2}, {0: 1, 1: -1}]) == a
    assert Subspace(3, [{0: 1, 1: 0, 2: 1}, [0, 1, 1]]) == a
    assert a.contains(b) and b.contains(a)
    # A stored zero entry must not stop a dict row from reducing to zero.
    assert Subspace(3, [[1, 0, 1]]).contains_vector({0: 2, 1: 0, 2: 2})


def test_subspace_self_intersection():
    rng = random.Random(4)
    for _ in range(50):
        vecs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
        a = Subspace(4, vecs)
        assert a.intersect(a) == a


def test_subspace_axes():
    e1 = Subspace(2, [[1, 0]])
    e2 = Subspace(2, [[0, 1]])
    assert e1.intersect(e2).dim() == 0
    assert e1.sum(e2).dim() == 2


def test_dimension_formula():
    rng = random.Random(5)
    for _ in range(100):
        ambient = rng.randint(1, 6)
        a = Subspace(
            ambient,
            [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, 3))],
        )
        b = Subspace(
            ambient,
            [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, 3))],
        )
        meet = a.intersect(b)
        assert a.dim() + b.dim() == a.sum(b).dim() + meet.dim()
        assert a.contains(meet) and b.contains(meet)


def relation_space_meet(a, b):
    """Reference intersection: the relations x A = y B, from nullspace_of_rows
    over one column per ambient coordinate, recombined as x A."""
    rows_a, rows_b = list(a.pivots.values()), list(b.pivots.values())
    relations = {}
    for i, row in enumerate(rows_a):
        for c, x in row.items():
            relations.setdefault(c, {})[i] = x
    for j, row in enumerate(rows_b):
        for c, x in row.items():
            relations.setdefault(c, {})[len(rows_a) + j] = -x
    vectors = []
    for rel in nullspace_of_rows(relations.values(), len(rows_a) + len(rows_b)):
        vec = [Fraction(0)] * a.ambient
        for i, r in rel.items():
            if i < len(rows_a):
                for c, x in rows_a[i].items():
                    vec[c] += r * x
        vectors.append(vec)
    return Subspace(a.ambient, vectors)


def test_intersect_matches_the_relation_space_reference():
    rng = random.Random(18)
    entries = (0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2))
    shared = 0
    for _ in range(300):
        ambient = rng.randint(1, 8)
        a, b = ([[rng.choice(entries) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
                for _ in range(2))
        if a and rng.random() < 0.5:  # make the spaces share a vector
            b.append([x + y for x, y in zip(a[0], a[-1])])
        sa, sb = Subspace(ambient, a), Subspace(ambient, b)
        meet = sa.intersect(sb)
        assert meet == sb.intersect(sa) == relation_space_meet(sa, sb)
        shared += meet.dim() > 0
    assert shared > 100


def test_nullspace_of_rows_refuses_columns_outside_the_ambient():
    # {5: 1} at 3 columns once gave all of Q^3, and {-1: 1, 0: 1} at 2
    # columns wrote through vec[-1] and gave (1, -1), which it does not kill.
    for rows, ncols in (([{5: 1}], 3), ([{-1: 1, 0: 1}], 2), ([{0: 1}, {0: 1, 3: 0}], 3)):
        with pytest.raises(AmbientMismatch, match="outside"):
            nullspace_of_rows(rows, ncols)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace(2, [[1, 0]]).sum(Subspace(3, [[1, 0, 0]]))
    for row in ({2: 1}, {-1: 1}, {0: 1, 5: 0}):
        with pytest.raises(AmbientMismatch):
            Subspace(2, [row])
        with pytest.raises(AmbientMismatch):
            Subspace(2, [[1, 0]]).contains_vector(row)


def test_matrix_product_and_inverse():
    rng = random.Random(6)
    seen = 0
    while seen < 30:
        m = random_matrix(rng, 3, 3)
        try:
            inv = m.inverse()
        except ValueError:
            continue
        seen += 1
        assert m * inv == QMatrix.identity(3)


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        QMatrix([[-4, 0], [3, 0]]).inverse()


def test_shape_mismatch_is_a_dimension_mismatch():
    a, b = QMatrix.identity(2), QMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        a * b
    with pytest.raises(DimensionMismatch):
        a + b


def test_trace_and_matvec():
    m = QMatrix([[1, 2], [3, 4]])
    assert m.trace() == 5
    assert m.matvec([1, 1]) == (3, 7)


def test_is_scalar():
    assert QMatrix.identity(3).scale(5).is_scalar()
    assert QMatrix.zeros(2, 2).is_scalar()
    assert QMatrix([[7]]).is_scalar()
    assert not QMatrix([[1, 0], [0, 2]]).is_scalar()
    assert not QMatrix([[1, 1], [0, 1]]).is_scalar()
    assert not QMatrix([[1, 0], [1, 1]]).is_scalar()


def differential_cases():
    """Seeded random integer and rational matrices, plus degenerate ones."""
    rng = random.Random(8)
    cases = []
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        cases.append(random_matrix(rng, rows, cols))
        cases.append(
            QMatrix(
                [
                    [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
        )
        # Mostly zero entries, as in the sparse systems idsolve builds.
        cases.append(
            QMatrix(
                [
                    [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
        )
    row = [3, -1, 0, 2]
    other = [0, 5, 1, -1]
    cases += [
        QMatrix([]),
        QMatrix.zeros(3, 4),
        QMatrix([row, [0, 0, 0, 0], other]),
        QMatrix([row, row, [2 * x for x in row], other, row]),
        QMatrix.identity(4),
        QMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]]),
        QMatrix([[a * b for b in row] for a in (1, -2, 3)]),
        QMatrix([[1, 2], [2, 4]]),
    ]
    # Free-column nullspace bases, in reduced echelon form only with the
    # columns read in reverse, so Subspace has to re-reduce them.
    for _ in range(40):
        cols = rng.randint(2, 9)
        system = [
            {
                j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for j in rng.sample(range(cols), rng.randint(1, min(3, cols)))
            }
            for _ in range(rng.randint(1, cols - 1))
        ]
        basis = free_column_vectors([[row.get(j, 0) for j in range(cols)] for row in system], cols)
        if basis:
            cases.append(QMatrix(basis))
    return cases


def dense_reference(m: QMatrix) -> tuple[list[list[Fraction]], int, list[int]]:
    return dense_rref([list(r) for r in m.data])


def test_subspace_basis_matches_dense_reference():
    for m in differential_cases():
        reduced, r, _ = dense_reference(m)
        space = Subspace(m.cols, m.data)
        assert space.basis == tuple(tuple(x) for x in reduced[:r]), m
        assert Subspace(m.cols, [{j: x for j, x in enumerate(v) if x} for v in m.data]) == space
        assert all(space.contains_vector(v) for v in m.data), m


def test_empty_basis_matches_dense_reference():
    assert dense_rref([]) == ([], 0, [])
    assert Subspace(5, []).basis == ()
    assert Subspace(5, []).dim() == 0 and not Subspace(5, []).contains_vector([0, 1, 0, 0, 0])


def test_rref_and_rank_match_dense_reference():
    for m in differential_cases():
        reduced, r, pivots = dense_reference(m)
        assert rref(m) == (QMatrix(reduced), r, pivots), m
        assert rank(m) == r, m


def test_inverse_matches_dense_reference():
    rng = random.Random(10)
    squares = [m for m in differential_cases() if m.rows == m.cols]
    squares += [random_matrix(rng, n, n, bound=3) for n in (1, 2, 3, 4, 5) for _ in range(20)]
    singular = 0
    for m in squares:
        n = m.rows
        aug = [list(m.data[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        reduced, _, pivots = dense_rref(aug)
        if pivots[:n] != list(range(n)):
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
        else:
            assert m.inverse() == QMatrix([row[n:] for row in reduced]), m
    assert 0 < singular < len(squares)


def pivot_rows(m: QMatrix) -> dict[int, dict[int, Fraction]]:
    """The dense reference as ``_rref``'s {pivot column: sparse row} map."""
    reduced, _, pivots = dense_reference(m)
    return {c: {j: x for j, x in enumerate(row) if x} for c, row in zip(pivots, reduced)}


@pytest.fixture
def rational_folds(monkeypatch):
    """Every call of the rational fold, which still computes as before."""
    calls = []

    def spy(rows):
        calls.append(rows)
        return RATIONAL_FOLD(rows)

    monkeypatch.setattr(exactla, "_rref_over_q", spy)
    return calls


def random_sparse_system(rng, rows, cols, entry):
    """Sparse rows, some of them combinations of earlier ones."""
    system = []
    for _ in range(rows):
        if system and rng.random() < 0.3:
            a, b = rng.choice(system), rng.choice(system)
            k = entry(rng)
            row = {j: a.get(j, 0) + k * b.get(j, 0) for j in a.keys() | b.keys()}
        else:
            row = {j: entry(rng) for j in rng.sample(range(cols), rng.randint(0, min(4, cols)))}
        system.append(row)
    return system


@pytest.mark.parametrize("entry, within_bound", [
    (lambda rng: rng.randint(-5, 5), True),
    (lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 7)), False),
], ids=["int", "fraction"])
def test_modular_and_rational_folds_match_dense_reference(entry, within_bound, rational_folds):
    rng = random.Random(11)
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        system = random_sparse_system(rng, rows, cols, entry)
        expected = pivot_rows(QMatrix([[row.get(j, 0) for j in range(cols)] for row in system]))
        assert exactla._rref(system) == expected == RATIONAL_FOLD(system), system
    if within_bound:
        # The fresh rows (at most 6, each with at most 4 ints up to 5) span
        # every system, so by Hadamard's bound their minors stay under 10^6:
        # every RREF entry is within the reconstruction bound and no nonzero
        # minor vanishes modulo P, so no int system falls back.
        assert not rational_folds


@pytest.mark.parametrize("rows", [
    # A denominator divisible by P has no residue.
    [[Fraction(1, P), 1, 0], [1, 0, 2]],
    # The row is (0, 1) modulo P, so its modular pivot is column 1 and the
    # certificate fails on the row itself.
    [[P, 1]],
    # The RREF entry 1/(2^31 - 1) is past the bound, and no fraction within
    # it has that residue.
    [[2**31 - 1, 1]],
    # 2^-40 is 2^21 modulo P: a reconstruction the certificate refuses.
    [[2**40, 1]],
], ids=["denominator", "certificate", "reconstruction", "wrong-reconstruction"])
def test_each_fallback_matches_dense_reference(rows, rational_folds):
    m = QMatrix(rows)
    assert exactla._rref(map(exactla._sparse, m.data)) == pivot_rows(m)
    assert len(rational_folds) == 1
    reduced, r, pivots = dense_reference(m)
    assert rref(m) == (QMatrix(reduced), r, pivots)


def test_fallback_branches_are_the_ones_named():
    assert exactla._rational(pow(2**31 - 1, -1, P)) is None
    assert exactla._rational(pow(2**40, -1, P)) == (2**21, 1)
    assert exactla._rational(P - 2) == (-2, 1)
    assert exactla._rational(pow(2, -1, P) * 3 % P) == (3, 2)


def test_full_modular_rank_skips_the_rational_fold(rational_folds):
    full = QMatrix([[3**50, 1, 7], [1, 5**30, 2]])
    assert rank(full) == rank(full.transpose()) == 2
    assert not rational_folds
    deficient = QMatrix([[3**50, 1, 7], [2 * 3**50, 2, 14], [1, 5**30, 2]])
    _, r, _ = dense_reference(deficient)
    assert rank(deficient) == r == 2
    assert len(rational_folds) == 1
