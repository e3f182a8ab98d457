import random

from bgops.f2core import (
    F2Matrix,
    SpanSolver,
    binom_parity,
    f2_rank_kernel,
    multinomial_parity,
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
        transpose = F2Matrix(size, size, tuple(m.column(j) for j in range(size)))
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
