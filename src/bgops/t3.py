"""Equivariant chain complex of the 3-torus with its rank-2 symmetry.

The quotient of the coordinate 3-torus by the rank-2 elementary abelian
group acting by translations along the three nontrivial characters
carries an equivariant cubical structure with one free 3-cell, three
free 2-cells, six half-free 1-cells and four fixed 0-cells.  This module
builds that cellular chain complex over the group ring, the minimal
divided-power resolution of the trivial module, and the total complex of
their tensor product, and verifies an exact boundary identity used to
evaluate the rank-2 operation for the circle.

Group elements of the rank-2 group are bitmasks 0..3 (1 and 2 are the
generators); group-ring elements are 4-bit support masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .f2core import F2Matrix, homology_dims
from .oracle import koszul_boundary, koszul_check_differential

V2_ELEMENTS = (0, 1, 2, 3)

# edge types: stabilizer generator per type (types 0,1 fix x1; 2,3 fix x2;
# 4,5 fix x1+x2); each type has two cosets
EDGE_STABILIZER = (1, 1, 2, 2, 3, 3)
_FACES = ("top", "front", "right")


def _coset_rep(edge_type: int, g: int) -> int:
    stab = EDGE_STABILIZER[edge_type]
    return min(g, g ^ stab)


_DIMS = (4, 12, 12, 4)
"""Cell counts in degrees 0..3."""


def cell_basis(q: int) -> list[tuple]:
    """Ordered basis of the degree-q cellular chain group."""
    if q == 3:
        return [(g, "cube") for g in V2_ELEMENTS]
    if q == 2:
        return [(g, f) for f in _FACES for g in V2_ELEMENTS]
    if q == 1:
        out = []
        for e in range(6):
            reps = sorted({_coset_rep(e, g) for g in V2_ELEMENTS})
            out.extend((e, c) for c in reps)
        return out
    if q == 0:
        return [(g, "vertex") for g in V2_ELEMENTS]
    return []


def _index(q: int) -> dict[tuple, int]:
    return {cell: i for i, cell in enumerate(cell_basis(q))}


_CELL_INDEX = {q: _index(q) for q in range(4)}


def translation_permutation(q: int, g: int) -> tuple[int, ...]:
    """Action of the group element g on the degree-q basis, as a permutation."""
    idx = _CELL_INDEX[q]
    perm = []
    for cell in cell_basis(q):
        if q == 3 or q == 2:
            h, tag = cell
            perm.append(idx[(g ^ h, tag)])
        elif q == 1:
            e, c = cell
            perm.append(idx[(e, _coset_rep(e, g ^ c))])
        else:
            perm.append(idx[cell])  # vertices are fixed
    return tuple(perm)


_PERMS = {(q, g): translation_permutation(q, g) for q in range(4) for g in V2_ELEMENTS}


def act(q: int, g: int, vec: int) -> int:
    perm = _PERMS[(q, g)]
    out = 0
    i = 0
    v = vec
    while v:
        if v & 1:
            out |= 1 << perm[i]
        v >>= 1
        i += 1
    return out


# ring_action and _cellular_boundary are cached on (degree, [mask,] vector);
# a vector has at most 12 bits, so the caches stay small however many
# chains pass through them


@lru_cache(maxsize=None)
def ring_action(q: int, mask: int, vec: int) -> int:
    """Multiplication by the group-ring element with support ``mask``."""
    out = 0
    for g in V2_ELEMENTS:
        if mask >> g & 1:
            out ^= act(q, g, vec)
    return out


def t_action(q: int, i: int, vec: int) -> int:
    """Multiplication by t_i = 1 + x_i on a degree-q chain vector."""
    return ring_action(q, 1 | 1 << i, vec)


def _vec(q: int, cells: list[tuple]) -> int:
    idx = _CELL_INDEX[q]
    out = 0
    for cell in cells:
        out ^= 1 << idx[cell]
    return out


def boundary_matrix(q: int) -> F2Matrix:
    """Cellular boundary from degree q to degree q - 1."""
    if q < 1 or q > 3:  # a map out of or into a zero chain group
        return F2Matrix.zeros(_DIMS[3] if q == 4 else 0, _DIMS[0] if q == 0 else 0)
    columns = []
    for cell in cell_basis(q):
        if q == 3:
            g, _ = cell
            cells = [
                (g, "top"),
                (g ^ 3, "top"),
                (g, "front"),
                (g ^ 2, "front"),
                (g, "right"),
                (g ^ 1, "right"),
            ]
        elif q == 2:
            g, f = cell
            if f == "top":
                cells = [(0, _coset_rep(0, 2)), (1, _coset_rep(1, 0)), (2, _coset_rep(2, 1)), (3, _coset_rep(3, 1))]
            elif f == "front":
                cells = [(0, _coset_rep(0, 2)), (1, _coset_rep(1, 2)), (4, _coset_rep(4, 1)), (5, _coset_rep(5, 1))]
            else:
                cells = [(2, _coset_rep(2, 1)), (3, _coset_rep(3, 0)), (4, _coset_rep(4, 1)), (5, _coset_rep(5, 0))]
            cells = [(e, _coset_rep(e, g ^ c)) for e, c in cells]
        else:
            e, _c = cell
            endpoints = {
                0: (0, 1),
                1: (2, 3),
                2: (0, 2),
                3: (1, 3),
                4: (0, 3),
                5: (1, 2),
            }[e]
            cells = [(endpoints[0], "vertex"), (endpoints[1], "vertex")]
        columns.append(_vec(q - 1, cells))
    return F2Matrix.from_columns(_DIMS[q - 1], columns)


_BOUNDARIES = {q: boundary_matrix(q) for q in (1, 2, 3)}


@lru_cache(maxsize=None)
def _cellular_boundary(q: int, vec: int) -> int:
    """The cellular boundary of a degree-q chain vector (q >= 1)."""
    return _BOUNDARIES[q].apply(vec)


TotalChain = dict[tuple[int, int, int], int]
"""Sparse total-complex chain: (k1, k2, q) -> cell vector."""


def total_boundary(chain: TotalChain) -> TotalChain:
    """Boundary in the total complex of (resolution) tensor (cells).

    The resolution differential is ``oracle.koszul_boundary`` at rank 2:
    it sends X1^[k1] X2^[k2] to t_1 X1^[k1-1] X2^[k2] + t_2 X1^[k1] X2^[k2-1],
    and its group-ring coefficients act on the cellular side of the
    tensor product.
    """
    out: TotalChain = {}

    def toggle(key: tuple[int, int, int], vec: int) -> None:
        if not vec:
            return
        cur = out.get(key, 0) ^ vec
        if cur:
            out[key] = cur
        else:
            out.pop(key, None)

    for (k1, k2, q), vec in chain.items():
        for (j1, j2), mask in koszul_boundary(2, (k1, k2)):
            toggle((j1, j2, q), ring_action(q, mask, vec))
        if q > 0:
            toggle((k1, k2, q - 1), _cellular_boundary(q, vec))
    return out


def _chain_equal(a: TotalChain, b: TotalChain) -> bool:
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


def cellular_homology_dims() -> list[int]:
    """Mod-2 Betti numbers of the total space from the cellular complex."""
    return homology_dims([boundary_matrix(q) for q in range(1, 5)])


@lru_cache(maxsize=None)
def _cellular_facts() -> tuple[bool, tuple[int, ...]]:
    """The parameter-free checks: cellular d^2 = 0 and the Betti numbers."""
    d_squared_zero = all(
        _BOUNDARIES[q].matmul(_BOUNDARIES[q + 1]).is_zero() for q in (1, 2)
    )
    return d_squared_zero, tuple(cellular_homology_dims())


@lru_cache(maxsize=None)
def _d_squared_zero(k1: int, k2: int) -> bool:
    """Whether the total d^2 vanishes on every basis chain of block (k1, k2)."""
    return not any(
        total_boundary(total_boundary({(k1, k2, q): 1 << i}))
        for q in range(4)
        for i in range(_DIMS[q])
    )


@dataclass
class T3Report:
    n1: int
    n2: int
    checks: dict[str, bool]
    homology_dims: list[int]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "params": {"n1": self.n1, "n2": self.n2},
            "checks": dict(self.checks),
            "homology_dims": list(self.homology_dims),
            "pass": self.passed,
        }


def t3_verify(n1: int, n2: int) -> T3Report:
    """Verify the boundary identity behind the rank-2 circle operation.

    Checks, symbolically and exactly: the cellular and total differentials
    square to zero; the translate-sum of the 3-cell is a cycle (the
    fundamental class); the stated chains c1, c2, c3 satisfy
    d(c1 + c2 + c3) = (fundamental cycle term) + (vertex term); and the
    cellular complex recovers Betti numbers (1, 3, 3, 1).

    Every check runs, but work that does not depend on (n1, n2) runs once
    per process: the cellular d^2 = 0 and the Betti numbers
    (``_cellular_facts``); the resolution's d^2 = 0 in each degree
    (``koszul_check_differential``); and the total d^2 = 0 on the basis
    chains of each block (k1, k2) (``_d_squared_zero``).  A call with a
    larger range checks only the degrees and blocks not yet checked.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("parameters must be non-negative")
    checks: dict[str, bool] = {}

    cellular_ok, dims = _cellular_facts()
    checks["cellular_d_squared_zero"] = cellular_ok

    try:
        koszul_check_differential(2, n1 + n2 + 6)
        checks["resolution_d_squared_zero"] = True
    except AssertionError:
        checks["resolution_d_squared_zero"] = False

    top = n1 + n2 + 6
    checks["total_d_squared_zero"] = all(
        _d_squared_zero(k1, k2) for k1 in range(top + 1) for k2 in range(top + 1 - k1)
    )

    all_mask = {q: (1 << _DIMS[q]) - 1 for q in range(4)}
    fundamental: TotalChain = {(0, 0, 3): all_mask[3]}
    checks["fundamental_cycle"] = not total_boundary(fundamental)

    c1: TotalChain = {(n1 + 1, n2, 3): t_action(3, 2, _vec(3, [(0, "cube")]))}
    c2: TotalChain = {
        (n1 + 2, n2, 2): t_action(2, 2, _vec(2, [(0, "top"), (0, "right")]))
    }
    c3: TotalChain = {(n1 + 2, n2 + 1, 1): _vec(1, [(0, 0), (1, 0)])}
    for i in range(n1 + 3):
        key = (i, n1 + n2 + 3 - i, 1)
        vec = _vec(1, [(4, 0), (5, 0)])
        c3[key] = c3.get(key, 0) ^ vec

    lhs: TotalChain = {}
    for part in (c1, c2, c3):
        for key, vec in total_boundary(part).items():
            cur = lhs.get(key, 0) ^ vec
            if cur:
                lhs[key] = cur
            else:
                lhs.pop(key, None)

    rhs: TotalChain = {(n1, n2, 3): _vec(3, [(g, "cube") for g in V2_ELEMENTS])}
    for i in range(n1 + 2):
        rhs[(i, n1 + n2 + 3 - i, 0)] = all_mask[0]
    checks["boundary_identity"] = _chain_equal(lhs, rhs)

    checks["homology_dims"] = dims == (1, 3, 3, 1)

    return T3Report(n1, n2, checks, list(dims))
