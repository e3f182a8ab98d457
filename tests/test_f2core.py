import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgops.f2core import (
    F2Matrix,
    SpanSolver,
    binom_parity,
    f2_rank_kernel,
    multinomial_parity,
)
from references import (
    _rref,
    column,
    kernel_by_scanning_pivot_rows,
    project,
    rref_kernel,
    span_contains,
)


def pascal_mod2_table(limit):
    """Independent oracle: the Pascal recurrence reduced mod 2."""
    table = [[0] * (limit + 1) for _ in range(limit + 1)]
    for n in range(limit + 1):
        table[n][0] = 1
        for m in range(1, n + 1):
            table[n][m] = (table[n - 1][m - 1] + table[n - 1][m]) % 2
    return table


def test_binom_parity_examples():
    assert binom_parity(3, 1) == 1  # C(3,1) = 3
    assert binom_parity(2, 1) == 0  # C(2,1) = 2
    for n in (0, 1, 7, 100):
        assert binom_parity(n, 0) == 1
    assert binom_parity(3, 5) == 0  # m > n


def test_binom_parity_against_pascal():
    table = pascal_mod2_table(64)
    for n in range(65):
        for m in range(n + 1):
            assert binom_parity(n, m) == table[n][m]


def test_multinomial_examples():
    assert multinomial_parity([1, 2]) == 1  # multinomial(3;1,2) = 3
    assert multinomial_parity([1, 1]) == 0  # multinomial(2;1,1) = 2
    for n in (0, 1, 9, 31):
        assert multinomial_parity([n]) == 1


def test_multinomial_matches_binomial():
    for n in range(0, 129):
        for m in range(0, 129):
            assert binom_parity(n + m, m) == multinomial_parity([n, m])


def test_rank_kernel_identity_and_zero():
    assert f2_rank_kernel(F2Matrix.identity(3)) == (3, ())
    rank, kernel = f2_rank_kernel(F2Matrix.zeros(2, 5))
    assert rank == 0
    assert len(kernel) == 5
    # kernel vectors of the zero matrix are the standard basis
    assert sorted(kernel) == [1 << j for j in range(5)]


def test_rank_kernel_consistency_random():
    rng = random.Random(7)
    for trial in range(30):
        rows = rng.randrange(1, 30)
        cols = rng.randrange(1, 30)
        m = F2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        rank, kernel = f2_rank_kernel(m)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert m.apply(v) == 0
        # linear independence of the kernel basis
        solver = SpanSolver()
        for v in kernel:
            assert solver.add(v)


def test_rank_equals_transpose_rank():
    rng = random.Random(11)
    for size in (10, 50, 200):
        m = F2Matrix(size, size, tuple(rng.getrandbits(size) for _ in range(size)))
        transpose = F2Matrix(size, size, tuple(column(m, j) for j in range(size)))
        assert m.rank() == transpose.rank()


def test_matmul_against_entries():
    rng = random.Random(5)
    a = F2Matrix(4, 6, tuple(rng.getrandbits(6) for _ in range(4)))
    b = F2Matrix(6, 3, tuple(rng.getrandbits(3) for _ in range(6)))
    c = a.matmul(b)
    for i in range(4):
        for j in range(3):
            expected = sum((a.data[i] >> t) & (b.data[t] >> j) & 1 for t in range(6)) % 2
            assert (c.data[i] >> j) & 1 == expected


# ---------------------------------------------------------------------------
# SpanSolver against the row-echelon reference _rref

class ListSpanSolver:
    """The earlier SpanSolver: rows in a list sorted by leading bit, and a
    reduction that rescans the list after every xor.  Reference for the
    claim that the dict-keyed solver makes the same xors."""

    def __init__(self):
        self._rows = []
        self._count = 0

    def add(self, v):
        combo = 1 << self._count
        self._count += 1
        v, combo = self._reduce(v, combo)
        if v == 0:
            return False
        self._rows.append((v, combo))
        self._rows.sort(key=lambda rc: rc[0].bit_length(), reverse=True)
        return True

    def _reduce(self, v, combo):
        changed = True
        while changed and v:
            changed = False
            for row, rcombo in self._rows:
                if v.bit_length() == row.bit_length():
                    v ^= row
                    combo ^= rcombo
                    changed = True
                    break
        return v, combo

    def coordinates(self, v):
        v, combo = self._reduce(v, 0)
        return combo if v == 0 else None


VECTOR_LISTS = st.integers(min_value=1, max_value=40).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=30),
        st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=10),
    )
)


@settings(max_examples=200, deadline=None)
@given(VECTOR_LISTS)
def test_span_solver_matches_rref(case):
    width, vectors, probes = case
    solver, reference = SpanSolver(), ListSpanSolver()
    for i, v in enumerate(vectors):
        enlarged = solver.add(v)
        assert reference.add(v) == enlarged
        # v enlarges the span exactly when it raises the rank of the prefix
        before = len(_rref(list(vectors[:i]), width)[0])
        after = len(_rref(list(vectors[: i + 1]), width)[0])
        assert enlarged == (after > before)
    assert solver.rank == len(_rref(list(vectors), width)[0])
    for v in list(vectors) + probes:
        member = len(_rref(list(vectors) + [v], width)[0]) == solver.rank
        assert span_contains(solver, v) == member
        combo = solver.coordinates(v)
        assert combo == reference.coordinates(v)
        assert (combo is not None) == member
        if combo is not None:
            assert combo < 1 << len(vectors)
            acc = 0
            for j, w in enumerate(vectors):
                if (combo >> j) & 1:
                    acc ^= w
            assert acc == v


@settings(max_examples=100, deadline=None)
@given(VECTOR_LISTS, st.data())
def test_projected_solver_coordinates_are_projections(case, data):
    width, vectors, probes = case
    solver = SpanSolver()
    for v in vectors:
        solver.add(v)
    indices = st.sampled_from(range(len(vectors))) if vectors else st.nothing()
    positions = data.draw(st.lists(indices, unique=True))
    projected = project(solver, positions)
    assert projected.rank == solver.rank
    for v in list(vectors) + probes:
        combo = solver.coordinates(v)
        expected = None
        if combo is not None:
            expected = sum(1 << j for j, pos in enumerate(positions) if (combo >> pos) & 1)
        assert projected.coordinates(v) == expected


# (column count, rows) of a matrix of up to 12 rows and 30 columns
MATRICES = st.integers(min_value=0, max_value=30).flatmap(
    lambda cols: st.tuples(
        st.just(cols),
        st.lists(st.integers(min_value=0, max_value=(1 << cols) - 1), max_size=12),
    )
)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_column_relations_are_the_rref_kernel(case):
    cols, data = case
    m = F2Matrix(len(data), cols, tuple(data))
    solver = SpanSolver()
    relations = [solver.add_relation(column(m, j)) for j in range(cols)]
    rank, kernel = rref_kernel(m)
    assert tuple(r for r in relations if r) == kernel
    assert solver.rank == rank
    for j, r in enumerate(relations):
        # a relation closes on its own column and combines no later one
        assert not r or r.bit_length() == j + 1


@settings(max_examples=100, deadline=None)
@given(VECTOR_LISTS)
def test_modulo_vectors_get_no_coordinate(case):
    width, vectors, probes = case
    half = len(vectors) // 2
    quotient, tracked = vectors[:half], vectors[half:]
    solver = SpanSolver()
    for v in quotient:
        solver.add_modulo(v)
    for v in tracked:
        solver.add(v)
    full = SpanSolver()
    for v in vectors:
        full.add(v)
    # both solvers store the same reduced vectors, so the coordinates over
    # the tracked vectors are the full solver's, projected onto them
    positions = range(half, len(vectors))
    projected = project(full, positions)
    assert solver.rank == full.rank
    for v in list(vectors) + probes:
        assert solver.coordinates(v) == projected.coordinates(v)


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_rank_kernel_matches_pivot_row_scan(case):
    cols, data = case
    m = F2Matrix(len(data), cols, tuple(data))
    expected = kernel_by_scanning_pivot_rows(m)
    assert f2_rank_kernel(m) == rref_kernel(m) == expected
    assert m.rank() == expected[0]


def random_matrices(seed, count, top):
    """Square, wide and tall matrices up to top x top, dense and sparse."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randrange(0, top + 1), rng.randrange(0, top + 1)
        data = [rng.getrandbits(cols) for _ in range(rows)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            data = [v & rng.getrandbits(cols) for v in data]
        yield F2Matrix(rows, cols, tuple(data))


def test_rank_kernel_matches_pivot_row_scan_on_random_matrices():
    for m in random_matrices(13, 300, 70):
        expected = kernel_by_scanning_pivot_rows(m)
        assert f2_rank_kernel(m) == rref_kernel(m) == expected
        assert m.rank() == expected[0]


def test_columns_and_from_columns_are_the_hand_transpose():
    for m in random_matrices(17, 100, 40):
        columns = [column(m, j) for j in range(m.cols)]
        assert m.columns() == columns
        assert F2Matrix.from_columns(m.rows, columns) == m
        rows = [0] * m.rows
        for j, c in enumerate(columns):
            for i in range(m.rows):
                if (c >> i) & 1:
                    rows[i] |= 1 << j
        assert F2Matrix.from_columns(m.rows, columns).data == tuple(rows)
    with pytest.raises(ValueError):
        F2Matrix.from_columns(2, [0b100])


def rref_by_column_scan(work, cols):
    """The pivot search ``_rref`` made before it read pivots from the row
    ints: every column tested bit by bit in every remaining row."""
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(work)):
            if (work[i] >> c) & 1:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and ((work[i] >> c) & 1):
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


@settings(max_examples=300, deadline=None)
@given(MATRICES)
def test_rref_matches_column_scan(case):
    cols, data = case
    assert _rref(list(data), cols) == rref_by_column_scan(list(data), cols)


def test_rref_matches_column_scan_on_random_matrices():
    # sparse and dense rows, square and wide, and bits above ``cols``,
    # which both searches ignore
    rng = random.Random(5)
    for _ in range(400):
        rows, cols = rng.randrange(0, 25), rng.randrange(0, 25)
        extra = rng.choice((0, 0, 3))
        data = [rng.getrandbits(cols + extra) for _ in range(rows)]
        if rng.random() < 0.5:
            data = [v & rng.getrandbits(cols + extra) for v in data]
        assert _rref(list(data), cols) == rref_by_column_scan(list(data), cols)
