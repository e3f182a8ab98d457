"""Exact mod-2 combinatorics and bit-packed GF(2) linear algebra.

Binomial and multinomial parities are computed from binary expansions
(Lucas' theorem); matrices over GF(2) pack each row into a Python int,
bit j of row i being the (i, j) entry.  ``SpanSolver`` is the one
elimination routine: ranks, kernels and Betti numbers all come from it.
``json_int`` is the integer check that every JSON decoder shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def json_int(value, shape: str) -> int:
    """``value`` when it is an int; a float, a bool (which JSON ``true``
    decodes to, and which Python counts as an int) or anything else raises
    ValueError naming the expected ``shape``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected {shape}, got {value!r}")
    return value


def binom_parity(n: int, m: int) -> int:
    """C(n, m) mod 2: odd iff the bits of m are a subset of the bits of n.

    Defined for all n, m >= 0; returns 0 when m > n (m then has a bit
    outside n).
    """
    if n < 0 or m < 0:
        raise ValueError("binom_parity requires non-negative arguments")
    return 1 if m & ~n == 0 else 0


def multinomial_parity(parts: Iterable[int]) -> int:
    """Multinomial(sum(parts); parts) mod 2.

    Odd iff the binary expansions of the parts are pairwise disjoint,
    equivalently iff the parts add without carries.
    """
    seen = 0
    for p in parts:
        if p < 0:
            raise ValueError("multinomial_parity requires non-negative parts")
        if seen & p:
            return 0
        seen |= p
    return 1


@dataclass(frozen=True)
class F2Matrix:
    """Bit-packed matrix over GF(2).

    ``data[i]`` is an int whose bit j is the entry in row i, column j.
    """

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.data) != self.rows:
            raise ValueError("row count does not match data length")
        limit = 1 << self.cols
        for r in self.data:
            if r < 0 or r >= limit:
                raise ValueError("row value out of range for column count")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "F2Matrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        data = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            data.append(sum((1 << j) for j, v in enumerate(row) if v & 1))
        return cls(len(rows), cols, tuple(data))

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[int]) -> "F2Matrix":
        """The rows x len(columns) matrix whose column j is the bitmask
        ``columns[j]`` over row indices."""
        if any(c >> rows for c in columns):
            raise ValueError("column value out of range for row count")
        return cls(rows, len(columns), tuple(_transpose(columns, rows)))

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    def apply(self, v: int) -> int:
        """Matrix times column vector; v is a bitmask over columns."""
        out = 0
        for i, r in enumerate(self.data):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        data = []
        for r in self.data:
            acc = 0
            t = r
            while t:
                j = (t & -t).bit_length() - 1
                acc ^= other.data[j]
                t &= t - 1
            data.append(acc)
        return F2Matrix(self.rows, other.cols, tuple(data))

    def columns(self) -> list[int]:
        """Every column as a bitmask over row indices, in O(nonzeros)."""
        return _transpose(self.data, self.cols)

    def rank(self) -> int:
        solver = SpanSolver()
        solver.add_all_modulo(self.data)
        return solver.rank

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)


def _transpose(vectors: Sequence[int], length: int) -> list[int]:
    """``length`` bitmasks whose bit i is bit j of ``vectors[i]``: the rows
    of a matrix from its columns, or its columns from its rows."""
    out = [0] * length
    for i, v in enumerate(vectors):
        bit = 1 << i
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return out


def f2_rank_kernel(m: F2Matrix) -> tuple[int, tuple[int, ...]]:
    """Rank and a kernel basis of m.

    Kernel vectors are bitmasks over column indices, returned in reduced
    echelon form (one vector per free column, ascending) so output is
    deterministic.  rank + len(kernel) == cols and m @ v == 0 for each v.
    They are the relations that close as the columns are inserted in
    order into a ``SpanSolver`` (proof at ``SpanSolver.add_relation``).
    """
    solver = SpanSolver()
    relations = [solver.add_relation(c) for c in m.columns()]
    return solver.rank, tuple(r for r in relations if r)


def homology_dims(boundaries: Sequence[F2Matrix]) -> list[int]:
    """Mod-2 Betti numbers of the complex C_0 <- C_1 <- ... <- C_n.

    ``boundaries[q]`` is the boundary from C_(q+1) to C_q, so it has
    dim C_q rows.  Returns b_0, ..., b_(n-1): b_q = dim C_q - rank d_q -
    rank d_(q+1), with d_0 = 0, and each map is eliminated once.  The
    boundary into C_n is not given, so b_n is not returned.
    """
    for low, high in zip(boundaries, boundaries[1:]):
        if low.cols != high.rows:
            raise ValueError("consecutive boundaries do not compose")
    ranks = [m.rank() for m in boundaries]
    return [m.rows - rank - below for m, rank, below in zip(boundaries, ranks, [0] + ranks)]


class SpanSolver:
    """Incremental membership/coordinates in the span of GF(2) vectors.

    Vectors are int bitmasks.  Rows are reduced as they are added and the
    combination producing each reduced row is tracked, so ``coordinates``
    can express a member vector in terms of the inserted generators.

    Stored rows have pairwise distinct leading bits and are kept in a
    dict keyed by that bit (``bit_length()``).  Reducing v xors in the
    stored row with v's leading bit until v is zero or its leading bit
    is new; each xor is one dict lookup and strictly shortens v, so a
    reduction costs O(rank) xors and ``add`` never re-sorts.
    """

    def __init__(self) -> None:
        # leading bit -> (reduced vector, combination mask)
        self._rows: dict[int, tuple[int, int]] = {}
        self._count = 0

    def add(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        return not self.add_relation(v)

    def add_relation(self, v: int) -> int:
        """Insert v; returns 0 if it enlarged the span, else the relation.

        The relation is the combination mask, v's own bit included, of
        inserted vectors that sums to zero.  Inserting the columns of a
        matrix in order, the relations are the reduced-echelon kernel
        basis that ``f2_rank_kernel`` returns: a stored row combines only
        columns that enlarged the span, and the kernel vector supported on
        one dependent column and those is unique.
        """
        combo = 1 << self._count
        self._count += 1
        v, combo = self._reduce(v, combo)
        if v == 0:
            return combo
        self._rows[v.bit_length()] = (v, combo)
        return 0

    def add_modulo(self, v: int) -> None:
        """Enlarge the span by v without giving v a coordinate.

        Coordinates are then read modulo v.  v takes no bit in the
        combination masks, so a large span to read modulo adds no
        tracking cost to later reductions.
        """
        self.add_all_modulo((v,))

    def add_all_modulo(self, vectors: Iterable[int]) -> None:
        """``add_modulo`` of each vector in turn.

        The reduction is ``_reduce`` written inline, so a long stream of
        vectors costs no call and no tuple per vector; a stored row keeps
        the combinations of the rows it was reduced by, as in ``_reduce``.
        """
        rows = self._rows
        find = rows.get
        for v in vectors:
            combo = 0
            while v:
                lead = v.bit_length()
                pivot = find(lead)
                if pivot is None:
                    rows[lead] = (v, combo)
                    break
                v ^= pivot[0]
                combo ^= pivot[1]

    def _reduce(self, v: int, combo: int) -> tuple[int, int]:
        rows = self._rows
        while v:
            pivot = rows.get(v.bit_length())
            if pivot is None:
                break
            v ^= pivot[0]
            combo ^= pivot[1]
        return v, combo

    @property
    def rank(self) -> int:
        return len(self._rows)

    def coordinates(self, v: int) -> int | None:
        """Combination mask over inserted vectors reproducing v, or None."""
        v, combo = self._reduce(v, 0)
        return combo if v == 0 else None
