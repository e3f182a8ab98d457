"""Routes that the library in ``src/`` replaced or no longer needs, kept
as references for the tests.  Test modules import shared helpers from
here only, never from each other.

The tuple routes: every monomial is an exponent tuple and every class a
set of them; the library multiplies the same classes as packed ints (see
``gradedalg.packed_product``).  The GF(2) routes eliminate by rows, where
the library inserts into a ``SpanSolver``.

| library                                   | reference                                          |
|-------------------------------------------|----------------------------------------------------|
| ``packed_product``, ``dp_multiply``       | ``monomial_product``                               |
| ``CoefficientClass.__mul__``              | ``product_by_tuples``                              |
| ``multiplier`` on products and tori       | ``multiplier_by_tuples``                           |
| ``alpha``                                 | ``alpha_by_tuples``                                |
| ``composite_op``                          | ``composite_by_tuples``                            |
| ``packed_compositions``, ``compositions`` | ``compositions``                                   |
| ``SpanSolver``                            | ``_rref``, ``span_contains``                       |
| ``SpanSolver.add_modulo``                 | ``project``                                        |
| ``f2_rank_kernel``                        | ``rref_kernel``, ``kernel_by_scanning_pivot_rows`` |
| ``F2Matrix.columns``                      | ``column``                                         |
| ``transfer_map`` (composed with it)       | ``induced_map``                                    |
| ``cayley_action``                         | ``check_action_axioms``                            |
| ``compsum_alpha`` (its cycle)             | ``canonical_cycle``, ``cross_chains``              |
"""

from __future__ import annotations

import itertools
import operator

from bgops import oracle
from bgops.f2core import F2Matrix, SpanSolver
from bgops.gradedalg import DPClass, GeneratorSet, dp_coproduct
from bgops.operations import (
    CoefficientClass,
    ProductGroup,
    Torus,
    multiplier,
)
from bgops.oracle import BarChain, FiniteAction, FiniteGroupTable
from bgops.symhomology import term_is_decomposable


def monomial_product(m: tuple, n: tuple) -> tuple | None:
    """Product of two divided-power monomials, or None when the
    coefficient is even: exponents add when bitwise disjoint."""
    for a, b in zip(m, n):
        if a & b:
            return None
    return tuple(a | b for a, b in zip(m, n))


def term_product(s: tuple, t: tuple) -> tuple | None:
    """Product of two basis tensors, factor by factor, or None."""
    out = []
    for m, n in zip(s, t):
        p = monomial_product(m, n)
        if p is None:
            return None
        out.append(p)
    return tuple(out)


def product_by_tuples(x: CoefficientClass, y: CoefficientClass) -> CoefficientClass:
    """The product of H_*(BG) one pair of tensor terms at a time."""
    assert x.group == y.group
    acc: set = set()
    for s in x.terms:
        for t in y.terms:
            p = term_product(s, t)
            if p is not None:
                acc ^= {p}
    return CoefficientClass(x.group, frozenset(acc))


def coproduct_terms_by_tuples(factors: tuple, mono: tuple) -> set:
    """The product formula folded over the factors on tuple terms: after
    each factor, the sum over the splittings of the exponents used so far
    of the tensors of the factors' legs.  Each leg is the factor's own
    multiplier, through ``multiplier_by_tuples``."""
    gens = GeneratorSet.v_basis(len(mono))
    lefts = [left for left, _ in dp_coproduct(mono)]
    partial = {(0,) * len(mono): {()}}
    for factor in factors[:-1]:
        legs = [
            (left, multiplier_by_tuples(factor, len(mono), DPClass.monomial(gens, left)).terms)
            for left in lefts
        ]
        extended: dict = {}
        for used, heads in partial.items():
            for left, terms in legs:
                total = tuple(map(operator.add, used, left))
                if any(map(operator.gt, total, mono)):
                    continue
                acc = extended.setdefault(total, set())
                acc ^= {s + t for s in heads for t in terms}
        partial = {used: heads for used, heads in extended.items() if heads}
    out: set = set()
    for used, heads in partial.items():
        rest = DPClass.monomial(gens, tuple(map(operator.sub, mono, used)))
        tails = multiplier_by_tuples(factors[-1], len(mono), rest).terms
        out ^= {s + t for s in heads for t in tails}
    return out


def multiplier_by_tuples(g, k: int, a: DPClass) -> CoefficientClass:
    """C(a) with products and tori split into their factors on tuples; an
    atomic factor other than a torus of rank l > 1 is the library's own
    closed form, which the multiplier tests pin separately."""
    if k == 0 or not (isinstance(g, ProductGroup) or (isinstance(g, Torus) and g.l > 1)):
        return multiplier(g, k, a)
    acc: set = set()
    for mono in a.terms:
        if isinstance(g, Torus):
            circles = coproduct_terms_by_tuples((Torus(1),) * g.l, mono)
            acc ^= {(tuple(e for (e,) in t),) for t in circles}
        else:
            acc ^= coproduct_terms_by_tuples(g.factors, mono)
    return CoefficientClass(g, frozenset(acc))


def alpha_by_tuples(g, k: int, a: DPClass, b: CoefficientClass) -> CoefficientClass:
    """C(a) * b with the multiplier built as a class and multiplied by b
    one pair of terms at a time."""
    return product_by_tuples(multiplier_by_tuples(g, k, a), b)


def weight_multiplier_by_tuples(g, n: int, a) -> CoefficientClass:
    """The class the weight-n operation indexed by ``a`` multiplies by: the
    sum of the rank-k multipliers of the indecomposable terms' preimages."""
    out = CoefficientClass.zero(g)
    if n & (n - 1):
        return out
    k = n.bit_length() - 1
    for term in a.terms:
        if not term_is_decomposable(term):
            (word,) = term
            preimage = DPClass.monomial(GeneratorSet.v_basis(k), word.subscripts)
            out += multiplier_by_tuples(g, k, preimage)
    return out


def composite_by_tuples(g, factors, b: CoefficientClass) -> CoefficientClass:
    """A composite applied one factor at a time, rightmost first."""
    for n, a in reversed(list(factors)):
        b = product_by_tuples(weight_multiplier_by_tuples(g, n, a), b)
    return b


# ---------------------------------------------------------------------------
# compositions


def compositions(n: int, parts: int, minimum: int = 0):
    """All tuples of ``parts`` integers >= minimum summing to n, in lex
    order, by recursion on the first part."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    if parts == 1:
        if n >= minimum:
            yield (n,)
        return
    for first in range(minimum, n - minimum * (parts - 1) + 1):
        for rest in compositions(n - first, parts - 1, minimum):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# GF(2) linear algebra by rows


def _rref(work, cols):
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The reference eliminator that ``SpanSolver`` is checked against.  The
    next pivot column is the lowest bit set in any row not yet used,
    found from the OR of those rows, and its row the first of them with
    that bit: the columns in between are zero below the pivot rows.
    """
    pivots = []
    n = len(work)
    window = (1 << cols) - 1
    r = 0
    while r < n:
        below = 0
        for i in range(r, n):
            below |= work[i]
        below &= window
        if not below:
            break
        bit = below & -below
        piv = r
        while not work[piv] & bit:
            piv += 1
        work[r], work[piv] = work[piv], work[r]
        row = work[r]
        for i in range(n):
            if i != r and work[i] & bit:
                work[i] ^= row
        pivots.append(bit.bit_length() - 1)
        r += 1
    return work[:r], pivots


def rref_kernel(m):
    """Rank and reduced-echelon kernel basis of m from ``_rref``.

    A reduced row is its pivot plus free columns: each one puts the pivot
    into that free column's kernel vector, so the kernel is read off the
    set bits of the pivot rows."""
    rref, pivots = _rref(list(m.data), m.cols)
    pivot_set = set(pivots)
    kernel = {c: 1 << c for c in range(m.cols) if c not in pivot_set}
    free = sum(kernel.values())
    for row, p in zip(rref, pivots):
        t = row & free
        while t:
            low = t & -t
            kernel[low.bit_length() - 1] |= 1 << p
            t ^= low
    return len(pivots), tuple(kernel.values())


def kernel_by_scanning_pivot_rows(m):
    """``rref_kernel`` with every pivot row tested for every free column."""
    rref, pivots = _rref(list(m.data), m.cols)
    kernel = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = 1 << free
        for row, p in zip(rref, pivots):
            if (row >> free) & 1:
                v |= 1 << p
        kernel.append(v)
    return len(pivots), tuple(kernel)


def column(m: F2Matrix, j: int) -> int:
    """Column j of m as a bitmask over row indices, one row at a time."""
    out = 0
    for i, r in enumerate(m.data):
        if (r >> j) & 1:
            out |= 1 << i
    return out


def span_contains(solver: SpanSolver, v: int) -> bool:
    """Whether v lies in the span of the vectors inserted into ``solver``."""
    return solver.coordinates(v) is not None


def project(solver: SpanSolver, positions) -> SpanSolver:
    """The span of ``solver``, with coordinates over the vectors at
    ``positions`` only.

    Bit j of a projected combination is bit ``positions[j]`` of the
    original one; the other inserted vectors drop out, so coordinates are
    read modulo their span, as after ``add_modulo`` of those vectors.
    Projecting is linear, so ``project(s, p).coordinates(v)`` is the
    projection of ``s.coordinates(v)``.
    """
    out = SpanSolver()
    for lead, (v, combo) in solver._rows.items():
        projected = 0
        for j, pos in enumerate(positions):
            if (combo >> pos) & 1:
                projected |= 1 << j
        out._rows[lead] = (v, projected)
    out._count = len(positions)
    return out


# ---------------------------------------------------------------------------
# the oracle's group actions and bar complexes


def check_action_axioms(action: FiniteAction) -> None:
    """Raise ValueError unless the identity fixes every point and
    (ab).x = a.(b.x) for every a, b and x."""
    e = action.group.identity
    for x in range(action.set_size):
        if action.act[e][x] != x:
            raise ValueError("identity does not act trivially")
    for a in range(action.group.order):
        for b in range(action.group.order):
            ab = action.group.mul[a][b]
            for x in range(action.set_size):
                if action.act[ab][x] != action.act[a][action.act[b][x]]:
                    raise ValueError("action is not associative")


def induced_map(table: FiniteGroupTable, sub_indices, degree: int) -> F2Matrix:
    """Matrix of the map induced on H_degree by the inclusion of a subgroup;
    after ``transfer_map`` it is multiplication by the index.  The spaces
    come from ``oracle.bar_space`` as looked up at call time, so a test
    that replaces it serves both maps."""
    sub_table, embedding = table.subgroup(sub_indices)
    ambient = oracle.bar_space(table, degree)
    subspace = oracle.bar_space(sub_table, degree)
    columns = [
        # non-identity local letters embed to non-identity parent letters
        ambient.class_coordinates(frozenset(tuple(embedding[g] for g in word) for word in rep))
        for rep in subspace.rep_chains()
    ]
    return F2Matrix.from_columns(ambient.dim, columns)


def cross_chains(left: BarChain, right: BarChain) -> BarChain:
    """Homology cross product at chain level (shuffle interleavings)."""
    acc: set[tuple[int, ...]] = set()
    for u in left:
        for v in right:
            p, q = len(u), len(v)
            for spots in itertools.combinations(range(p + q), p):
                spot_set = set(spots)
                word = []
                i = j = 0
                for pos in range(p + q):
                    if pos in spot_set:
                        word.append(u[i])
                        i += 1
                    else:
                        word.append(v[j])
                        j += 1
                acc ^= {tuple(word)}
    return frozenset(acc)


def canonical_cycle(g_table: FiniteGroupTable, k: int, a: DPClass, b: DPClass) -> BarChain:
    """Chain representing a x b in the bar complex of V_k x G, which
    ``compsum_alpha`` walks as letter multisets without building it.

    The degree-n divided power of a coordinate generator of V_k is
    represented by the n-letter constant bar word on that generator; the
    canonical degree-m class of G by the constant word on the reflection
    s of ``FiniteGroupTable._structure``.  Products are formed with the
    shuffle cross product.
    """
    n_g = g_table.order
    s_elem = g_table._structure[1]
    acc: set[tuple[int, ...]] = set()
    for mono in a.terms:
        for (m,) in b.terms:
            blocks: list[list[int]] = []
            for j, e in enumerate(mono):
                lam_letter = (1 << j) * n_g + g_table.identity
                blocks.append([lam_letter] * e)
            blocks.append([0 * n_g + s_elem] * m)
            chain: BarChain = frozenset({()})
            for block in blocks:
                block_chain = frozenset({tuple(block)}) if block else frozenset({()})
                chain = cross_chains(chain, block_chain)
            acc ^= set(chain)
    return frozenset(acc)
