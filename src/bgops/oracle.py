"""Independent chain-level verification machinery.

Everything here recomputes operations from first principles: finite
group multiplication tables, honest orbit/stabilizer enumeration for the
basepoint action on G-labellings, normalized bar complexes with rank
computations over GF(2), coset-sum transfer maps, and the orbit-sum
evaluation of the rank-k operations for finite coefficient groups.

The closed forms in :mod:`bgops.operations` are validated against these
routines; nothing in this module consults them except to package
results.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .f2core import F2Matrix, SpanSolver, homology_dims
from .gradedalg import DPClass, GeneratorSet, compositions
from .operations import (
    CoefficientClass,
    Dihedral,
    GroupDescriptor,
    Z2Power,
)

SIZE_BOUND = 10_000_000

BarChain = frozenset[tuple[int, ...]]
"""A GF(2) chain in the normalized bar complex: a set of words of
non-identity element indices."""


class SizeBoundError(ValueError):
    """An enumeration would exceed the configured size bound."""


# ---------------------------------------------------------------------------
# finite group tables


@dataclass(frozen=True)
class FiniteGroupTable:
    """Multiplication table of a finite group on indices 0..order-1.

    ``mul[a][b]`` is the product a*b, and the order is ``len(mul)``.  A
    table that is not square or has an entry outside 0..order-1 raises
    ValueError.  Inverses are computed and the group laws verified at
    construction, for every order (see ``check_laws``), which also keeps
    the generators its test picks as ``generators``.  Everything else is
    read from ``mul``.  Tables are frozen, so the checks stay true.
    """

    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    generators: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.order
        in_range = all(len(row) == n and min(row) >= 0 and max(row) < n for row in self.mul)
        if not in_range or not 0 <= self.identity < n:
            raise ValueError(f"expected a square table with entries and identity in 0..{n - 1}")
        if any(self.identity not in row for row in self.mul):
            raise ValueError("an element has no inverse")
        object.__setattr__(self, "inv", tuple(row.index(self.identity) for row in self.mul))
        self.check_laws()

    @property
    def order(self) -> int:
        return len(self.mul)

    def check_laws(self) -> None:
        """Verify the identity, inverse and associative laws.

        Associativity is decided by Light's test.  Generators S are picked
        greedily until {e}, closed under right multiplication by S, is the
        whole table; then (x s) y == x (s y) is checked for s in S and all
        x, y.  That is O(n^2 |S|) steps instead of the O(n^3) triple loop,
        and |S| <= log2(n) for a group.

        The test is complete.  Let A be the set of a with (x a) y == x (a y)
        for all x, y.  The identity law puts e in A and the test puts S in
        A.  A is closed under products: for a, b in A and all x, y,

            x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y,

        using b in A (at x := a), a in A (at y := by), b in A (at
        x := xa) and a in A (at y := b).  Every element is a product
        (...((e s1) s2)...) sm with each s_i in S, so A is the whole table
        and the table is associative.  An associative table passes, so
        the test accepts exactly the tables the triple loop accepts.

        S is kept as ``generators``, in ascending order: every element is
        e s1 ... sm with each s_i in S, which ``_boundary_span`` relies on.
        """
        e = self.identity
        mul = self.mul
        for a in range(self.order):
            if mul[a][e] != a or mul[e][a] != a:
                raise ValueError("identity law fails")
            if mul[a][self.inv[a]] != e or mul[self.inv[a]][a] != e:
                raise ValueError("inverse law fails")
        gens: list[int] = []
        reached = {e}
        for a in range(self.order):
            if a in reached:
                continue
            gens.append(a)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = mul[x][s]
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        object.__setattr__(self, "generators", tuple(gens))
        for s in gens:
            s_row = mul[s]
            for x_row in mul:
                # row of (x s) against x (s y) for every y, without
                # building either row as a new object
                if any(map(operator.ne, mul[x_row[s]], map(x_row.__getitem__, s_row))):
                    raise ValueError("associativity fails")

    @classmethod
    def z2(cls) -> "FiniteGroupTable":
        return cls.elementary_abelian(1)

    @classmethod
    def elementary_abelian(cls, k: int) -> "FiniteGroupTable":
        """Rank-k elementary abelian 2-group; element index = coordinate bitmask."""
        if k < 0:
            raise ValueError("rank must be non-negative")
        n = 1 << k
        mul = tuple(tuple(a ^ b for b in range(n)) for a in range(n))
        return cls(mul, 0)

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroupTable":
        """Dihedral group of order 4n + 2; index i + (2n+1) j is r^i s^j."""
        if n < 0:
            raise ValueError("n must be non-negative")
        m = 2 * n + 1
        order = 2 * m

        def idx(i: int, j: int) -> int:
            return i % m + m * (j % 2)

        mul_rows = []
        for a in range(order):
            i, j = a % m, a // m
            row = []
            for b in range(order):
                p, q = b % m, b // m
                # (r^i s^j)(r^p s^q) = r^(i + (-1)^j p) s^(j+q)
                row.append(idx(i + (p if j == 0 else -p), j + q))
            mul_rows.append(tuple(row))
        return cls(tuple(mul_rows), 0)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroupTable":
        """Symmetric group on n letters; elements indexed by sorted permutation."""
        if n < 0:
            raise ValueError("n must be non-negative")
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        mul_rows = []
        for p in perms:
            row = []
            for q in perms:
                row.append(index[tuple(p[q[i]] for i in range(n))])
            mul_rows.append(tuple(row))
        return cls(tuple(mul_rows), index[tuple(range(n))])

    @classmethod
    def product(cls, a: "FiniteGroupTable", b: "FiniteGroupTable") -> "FiniteGroupTable":
        """Direct product; index of (x, y) is x * b.order + y."""
        nb = b.order
        mul_rows = []
        for x1 in range(a.order):
            for y1 in range(b.order):
                row = []
                for x2 in range(a.order):
                    arow = a.mul[x1][x2]
                    for y2 in range(b.order):
                        row.append(arow * nb + b.mul[y1][y2])
                mul_rows.append(tuple(row))
        return cls(tuple(mul_rows), a.identity * nb + b.identity)

    def subgroup(self, indices: Sequence[int]) -> tuple["FiniteGroupTable", tuple[int, ...]]:
        """Subgroup on the given element indices; returns (table, embedding).

        ``embedding[i]`` is the parent index of local element i.
        """
        emb = tuple(sorted(indices))
        local = {g: i for i, g in enumerate(emb)}
        if self.identity not in local:
            raise ValueError("subgroup must contain the identity")
        mul_rows = []
        for a in emb:
            row = []
            for b in emb:
                p = self.mul[a][b]
                if p not in local:
                    raise ValueError("indices are not closed under multiplication")
                row.append(local[p])
            mul_rows.append(tuple(row))
        return FiniteGroupTable(tuple(mul_rows), local[self.identity]), emb

    def descriptor(self) -> GroupDescriptor:
        return self._structure[0]

    @cached_property
    def _structure(self) -> tuple[GroupDescriptor, int]:
        """The descriptor read from ``mul``, and the least involution s,
        the reflection whose constant bar words carry the canonical classes.

        A table of order 2m, m odd, with m involutions and an element r of
        m distinct powers (so of order m: a cyclic group has one involution)
        is D_{2m}, or Z/2 for m = 1: <r> has odd order, the involutions fill
        the coset s<r>, and (s r^i)^2 = e gives s r s = r^-1.  Any other
        table raises ValueError.  Read on first use, never at construction,
        as ``cayley_action`` builds large products.
        """
        n, e, mul = self.order, self.identity, self.mul
        m = n // 2
        involutions = [g for g in range(n) if g != e and mul[g][g] == e]
        powers = (set(itertools.accumulate([g] * m, lambda x, y: mul[x][y])) for g in range(n))
        if n % 4 == 2 and len(involutions) == m and any(len(p) == m for p in powers):
            return (Dihedral(m // 2) if m > 1 else Z2Power(1)), involutions[0]
        raise ValueError(
            f"no descriptor for a table of order {n}: expected Z/2 or D_{{2m}} (order 2m, "
            "m odd, with an element of order m and m involutions)"
        )


# ---------------------------------------------------------------------------
# the basepoint action on G-labellings


@dataclass
class FiniteAction:
    """A finite group acting on a finite set, with projection bookkeeping.

    For the two-basepoint action the group is (V_k x G x G) acting on
    G-labellings of V_k by (u, g_p, g_q) . (g_v) = (g_p g_{u+v} g_q^-1);
    ``proj`` maps group indices onto V_k x G (forgetting the last
    coordinate) and ``q_proj`` extracts the last coordinate.  Point x is
    the labelling at index x of ``itertools.product(range(|G|), repeat=2^k)``.
    """

    group: FiniteGroupTable
    set_size: int
    act: tuple[tuple[int, ...], ...]
    lam: FiniteGroupTable
    proj: tuple[int, ...]
    q_proj: tuple[int, ...]


def _point_map(point_ids: list[int], n: int, images: Sequence[Sequence[int]]) -> list[int]:
    """Index map of the point set range(n)^m, in ``itertools.product`` order.

    Entry x is the index sum_v images[v][d_v], where d_v is the v-th
    coordinate of point x; the entries are the int objects of
    ``point_ids``, so every map shares one object per index.
    """
    out = [0]
    for contribution in images:
        out = [base + c for base in out for c in contribution]
    return list(map(point_ids.__getitem__, out))


def cayley_action(g_table: FiniteGroupTable, k: int) -> FiniteAction:
    """The two-basepoint action of V_k x G x G on G^(V_k).

    (u, g_p, g_q) sends the labelling (g_w) to (g_p g_{u+w} g_q^-1): the
    coordinate shuffle w -> u + w followed by the letter map
    c -> g_p c g_q^-1 in every coordinate.  Both are tabulated as index
    maps of the points (2^k shuffles, one letter map per (g_p, g_q)), and
    each row of ``act`` is a shuffle composed with a letter map.
    """
    n = g_table.order
    m = 1 << k
    v_table = FiniteGroupTable.elementary_abelian(k)
    size_points = n**m
    if m * n * n * size_points > SIZE_BOUND:
        raise SizeBoundError("action too large to enumerate")
    lam = FiniteGroupTable.product(v_table, g_table)
    group = FiniteGroupTable.product(lam, g_table)

    # coordinate w of a point carries the weight n^(m-1-w) in its index
    weight = [n ** (m - 1 - w) for w in range(m)]
    point_ids = list(range(size_points))
    shuffles = [
        _point_map(point_ids, n, [[d * weight[u ^ v] for d in range(n)] for v in range(m)])
        for u in range(m)
    ]
    act_rows: list[tuple[int, ...]] = [()] * group.order
    mul = g_table.mul
    for gp in range(n):
        for gq in range(n):
            gq_inv = g_table.inv[gq]
            letters = [mul[mul[gp][c]][gq_inv] for c in range(n)]
            relabel = _point_map(
                point_ids, n, [[letters[d] * weight[w] for d in range(n)] for w in range(m)]
            )
            for u, shuffle in enumerate(shuffles):
                act_rows[(u * n + gp) * n + gq] = tuple(map(relabel.__getitem__, shuffle))
    proj = tuple(gi // n for gi in range(group.order))
    q_proj = tuple(gi % n for gi in range(group.order))
    return FiniteAction(
        group,
        size_points,
        tuple(act_rows),
        lam=lam,
        proj=proj,
        q_proj=q_proj,
    )


@dataclass
class OrbitData:
    representative: int
    size: int
    stabilizer: tuple[int, ...]
    image: tuple[int, ...]
    image_index: int


def action_orbits(action: FiniteAction) -> list[OrbitData]:
    """Full orbit decomposition with stabilizers and projected images.

    For each orbit the stabilizer is projected along ``proj``; the
    projection is checked to be injective on the stabilizer and the
    index of its image is reported.
    """
    if action.group.order * action.set_size > SIZE_BOUND:
        raise SizeBoundError("orbit enumeration too large")
    seen = [False] * action.set_size
    out = []
    for start in range(action.set_size):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for gi in range(action.group.order):
                y = action.act[gi][x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            seen[x] = True
        stab = tuple(gi for gi in range(action.group.order) if action.act[gi][start] == start)
        image = tuple(sorted({action.proj[gi] for gi in stab}))
        if len(image) != len(stab):
            raise AssertionError("projection is not injective on a stabilizer")
        if len(orbit) * len(stab) != action.group.order:
            raise AssertionError("orbit-stabilizer count mismatch")
        out.append(
            OrbitData(
                representative=start,
                size=len(orbit),
                stabilizer=stab,
                image=image,
                image_index=action.lam.order // len(image),
            )
        )
    return out


# ---------------------------------------------------------------------------
# normalized bar complex over GF(2)


def bar_words(table: FiniteGroupTable, degree: int) -> list[tuple[int, ...]]:
    letters = [g for g in range(table.order) if g != table.identity]
    if len(letters) ** max(degree, 0) > SIZE_BOUND:
        raise SizeBoundError("bar chain group too large")
    return [tuple(w) for w in itertools.product(letters, repeat=degree)]


def bar_boundary_word(table: FiniteGroupTable, word: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(word)
    if n == 0:
        return []
    faces = [word[1:], word[:-1]]
    for i in range(n - 1):
        merged = table.mul[word[i + 1]][word[i]]
        if merged != table.identity:
            faces.append(word[:i] + (merged,) + word[i + 2 :])
    return faces


def bar_boundary_chain(table: FiniteGroupTable, chain: BarChain) -> BarChain:
    acc: set[tuple[int, ...]] = set()
    for word in chain:
        for face in bar_boundary_word(table, word):
            acc ^= {face}
    return frozenset(acc)


StepTable = tuple[tuple[tuple[int, "int | None"], ...], ...]
"""``steps[g][i] = (j, letter)``: one transfer step from coset i by letter g."""


def _transfer_steps(
    table: FiniteGroupTable, sub_embedding: Sequence[int], hom: Sequence[int]
) -> StepTable:
    """Tabulated chain-level transfer to a subgroup S, followed by ``hom``.

    ``hom`` is a homomorphism on S, indexed by local letters.  The left
    cosets xS are numbered by their lexicographically least representatives
    y_0 < y_1 < ...  For a letter g and coset i, g y_i lies in coset j, the
    lift is h = y_j^-1 g y_i in S, and the step is ``(j, hom[local(h)])``.
    The letter is None when the image of h is the image of the identity,
    which covers h = e: a word through that step is degenerate and dropped.
    """
    local = {g: i for i, g in enumerate(sub_embedding)}
    target_identity = hom[local[table.identity]]
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for g in range(table.order):
        if g in coset_of:
            continue
        # the cosets met so far cover every element below g, so g is the
        # least member of its own coset
        for s in sub_embedding:
            coset_of[table.mul[g][s]] = len(reps)
        reps.append(g)
    steps = []
    for row in table.mul:
        step_row = []
        for y in reps:
            elem = row[y]
            j = coset_of[elem]
            h = table.mul[table.inv[reps[j]]][elem]
            letter = hom[local[h]]
            step_row.append((j, None if letter == target_identity else letter))
        steps.append(tuple(step_row))
    return tuple(steps)


def _walk_steps(steps: StepTable, chain: Iterable[tuple[int, ...]], acc: set) -> None:
    """XOR into ``acc`` the image of every word of ``chain`` under a step table.

    A word is walked once from every coset; its image is the tuple of the
    step letters, or nothing when a step is degenerate.
    """
    cosets = range(len(steps[0]))
    for word in chain:
        for start in cosets:
            i = start
            letters = []
            for g in word:
                i, letter = steps[g][i]
                if letter is None:
                    break
                letters.append(letter)
            else:
                acc ^= {tuple(letters)}


def transfer_chain(
    table: FiniteGroupTable, sub_embedding: Sequence[int], chain: BarChain
) -> BarChain:
    """Chain-level transfer to a subgroup, in the subgroup's local letters.

    Sums, over the left cosets xS with lexicographically least
    representatives y, the lifts h_i = y(next)^-1 g_i y(prev) of each bar
    word; lifts containing an identity letter are degenerate and dropped.
    """
    acc: set[tuple[int, ...]] = set()
    _walk_steps(_subgroup_steps(table, tuple(sub_embedding)), chain, acc)
    return frozenset(acc)


@lru_cache(maxsize=32)
def _subgroup_steps(table: FiniteGroupTable, embedding: tuple[int, ...]) -> StepTable:
    """The step table of ``transfer_chain`` for the 32 latest (table,
    embedding) keys: it depends on nothing else, and tables are frozen and
    hash by content, so a table built afresh finds its steps."""
    return _transfer_steps(table, embedding, range(len(embedding)))


@dataclass
class BarSpace:
    """Homology data of one bar degree: representative cycles and coordinates."""

    table: FiniteGroupTable
    degree: int
    words: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    reps: list[int]  # cycle bitmasks over words
    # boundaries and representatives, with coordinates over the representatives
    _solver: SpanSolver = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def dim(self) -> int:
        return len(self.reps)

    def chain_to_mask(self, chain: BarChain) -> int:
        mask = 0
        for word in chain:
            mask ^= 1 << self.index[word]
        return mask

    def mask_to_chain(self, mask: int) -> BarChain:
        return frozenset(self.words[i] for i in _bits(mask))

    def rep_chains(self) -> list[BarChain]:
        return [self.mask_to_chain(m) for m in self.reps]

    def class_coordinates(self, chain: BarChain) -> int:
        """Coordinates of a cycle in the representative basis, as a bitmask."""
        mask = self.chain_to_mask(chain)
        combo = self._solver.coordinates(mask)
        if combo is None:
            raise ValueError("chain is not a cycle homologous to the stored spans")
        return combo


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _boundary_masks(
    table: FiniteGroupTable, degree: int, first_letters: Iterable[int] | None = None
) -> Iterator[int]:
    """The boundary of each bar word of ``degree``, as a mask over the words
    one degree lower, in ``bar_words`` order; no word tuple is built.

    ``bar_words`` lists words in ``itertools.product`` order, so the word
    with letter positions (i_1, ..., i_n) has the mixed-radix index
    sum_k i_k L^(n-k), L the number of letters.  Write a word as a.b.t:
    first letter a, second letter b, tail t, and r = b.t.  Dropping the
    first letter gives r, dropping the last one gives index // L, which is
    a L^(n-2) + r // L.  The faces that merge two letters are (b a).t,
    unless b a = e, and a followed by each merge face of r: the merge mask
    of r shifted by a L^(n-2).  The merge masks of the lower degrees are
    kept in lists; the masks of ``degree`` itself are streamed.

    With ``first_letters`` (elements of the table), only the words of
    ``degree`` that start with one of them are streamed, in the same
    order; the empty word of degree 0 is always streamed.
    """
    letters = [g for g in range(table.order) if g != table.identity]
    n_letters = len(letters)
    position = {g: i for i, g in enumerate(letters)}
    every = range(n_letters)
    firsts = every if first_letters is None else sorted(position[g] for g in first_letters)
    if degree <= 1:
        # () has no faces; the two faces of a one-letter word cancel
        yield from [0] * (len(firsts) if degree == 1 else 1)
        return
    # merged[i][j]: position of letters[j] * letters[i], the merge of the
    # pair (letters[i], letters[j]), or -1 when it is the identity
    merged = [[position.get(table.mul[h][g], -1) for h in letters] for g in letters]

    def with_merges(
        rest_merges: list[int], n: int, starts: Iterable[int]
    ) -> Iterator[tuple[int, int, int]]:
        # (a L^(n-2), rest index, merge-face mask) of each degree-n word
        # whose first letter position a is in starts, in order
        low = n_letters ** (n - 2)
        for a in starts:
            shift = a * low
            for b in every:
                m = merged[a][b]
                head = m * low
                for tail in range(low):
                    rest = b * low + tail
                    mask = rest_merges[rest] << shift
                    if m >= 0:
                        mask ^= 1 << (head + tail)
                    yield shift, rest, mask

    merges = [0] * n_letters
    for n in range(2, degree):
        merges = [mask for _, _, mask in with_merges(merges, n, every)]
    for shift, rest, mask in with_merges(merges, degree, firsts):
        yield mask ^ (1 << rest) ^ (1 << (shift + rest // n_letters))


def _kernel(table: FiniteGroupTable, degree: int) -> Iterator[int]:
    """The kernel basis of the boundary on ``degree``, in the reduced-echelon
    order of ``f2_rank_kernel``, streamed: the columns are eliminated as
    the vectors are pulled."""
    return filter(None, map(SpanSolver().add_relation, _boundary_masks(table, degree)))


def _boundary_span(table: FiniteGroupTable, degree: int) -> SpanSolver:
    """The span of the image of the boundary on ``degree``, untracked.

    Only the boundaries of the words that start with one of the table's
    ``generators`` S are eliminated: |S| L^(degree-1) columns instead of
    L^degree, L the number of letters.  They span the whole image.

    Let U be their span; then the boundary of [c|w] lies in U for every
    letter c and every word w of degree - 1, by induction on the least m
    with c = e s_1 ... s_m, each s_i in S (``check_laws`` reaches every
    element so).  For m = 1, c is in S.  Otherwise c = b a with a = s_m in
    S and b = e s_1 ... s_(m-1) of smaller length, b != e.  The word
    x = [a|b|w] of degree + 1 has the faces [b|w] (drop a), [c|w] (merge
    a and b into b a = c, which is not e) and faces that all start with
    a: dropping the last letter and every later merge (a merge that gives
    e is a degenerate face, which is zero).  So d(d x) = 0, d the
    boundary, gives

        d[c|w] = d[b|w] + sum of d(faces of x that start with a),

    where d[b|w] is in U by induction and the rest by a in S.
    """
    solver = SpanSolver()
    if degree > 1:  # the boundary on degrees 0 and 1 is zero
        solver.add_all_modulo(_boundary_masks(table, degree, table.generators))
    return solver


def _homology_space(
    table: FiniteGroupTable,
    degree: int,
    kernel: Iterable[int],
    cycles: int,
    boundaries: SpanSolver,
) -> BarSpace:
    """Representatives: the kernel vectors outside the span of the
    boundaries and the earlier kernel vectors, each given one coordinate
    bit; ``boundaries`` becomes the space's solver.

    ``cycles`` is the dimension of the kernel, the number of vectors
    ``kernel`` yields.  The boundaries and the representatives are cycles,
    so once the rank of their span reaches ``cycles`` it is every cycle,
    and no later kernel vector can be a representative.  The scan checks
    that before pulling each vector, so a streamed kernel is eliminated
    only up to its last representative, and not at all when every cycle
    is a boundary."""
    reps = []
    vectors = iter(kernel)
    while boundaries.rank < cycles:
        v = next(vectors, 0)
        if not v:
            raise AssertionError("the kernel has fewer vectors than its dimension")
        if boundaries.coordinates(v) is None:
            boundaries.add(v)
            reps.append(v)
    words = bar_words(table, degree)
    index = {w: i for i, w in enumerate(words)}
    return BarSpace(table, degree, words, index, reps, boundaries)


def _bar_spaces(table: FiniteGroupTable, degrees: range) -> Iterator[BarSpace]:
    """The ``BarSpace`` of each degree in ``degrees``, in order.

    The boundary on degree d is spanned once, by ``_boundary_span``: its
    rank gives the cycle count of degree d, and the span is the image
    that degree d - 1 reads its representatives modulo.  The rank is read
    before ``_homology_space`` adds degree d - 1's representatives to the
    span.
    """
    if degrees.start < 0:
        raise ValueError("bar degree must be non-negative")
    if max(table.order - 1, 1) ** degrees.stop > SIZE_BOUND:
        raise SizeBoundError("bar complex too large for the requested degree")
    rank = _boundary_span(table, degrees.start).rank
    for d in degrees:
        image = _boundary_span(table, d + 1)
        cycles, rank = (table.order - 1) ** d - rank, image.rank
        yield _homology_space(table, d, _kernel(table, d), cycles, image)


def bar_space(table: FiniteGroupTable, degree: int) -> BarSpace:
    """Representative cycles of the bar homology in one degree.

    The columns of the boundary on ``degree`` are eliminated in word
    order; the ones that enlarge nothing give the kernel basis in reduced
    echelon form.  The kernel vectors are reduced, as they are found,
    modulo the image of the boundary from one degree higher, and the
    survivors are the representatives, in deterministic order.

    Only the span of that image matters, not the basis it is eliminated
    into: a kernel vector is a representative iff it lies outside the
    span of the boundaries and the earlier kernel vectors, and as the
    representatives are independent modulo the boundaries, the
    coordinates of a cycle over them are unique.  So the boundaries are
    inserted without tracking their combinations, and ``reps``, ``dim``
    and ``class_coordinates`` are those of any elimination of the same
    maps.  For the same reason the image is spanned from the boundaries
    of the words that start with a generator of the table: for any
    generating set S, the image of the boundary on degree + 1 is spanned
    by the boundaries of [s|w], s in S (proof at ``_boundary_span``).

    The dimension of the kernel is counted first, as the number of words
    minus the rank of the boundary on ``degree`` (``_bar_spaces``), so the
    elimination stops at the last representative (``_homology_space``).
    It sees the vectors of the full elimination in the same order, so
    ``reps``, ``dim`` and ``class_coordinates`` are those of the full one.
    """
    return next(_bar_spaces(table, range(degree, degree + 1)))


@dataclass
class BarHomologyResult:
    dims: list[int]
    reps: list[list]
    method: str


def bar_homology(
    table: FiniteGroupTable, max_degree: int, method: str = "auto"
) -> BarHomologyResult:
    """Mod-2 homology dimensions of BG up to max_degree, with representatives.

    ``method`` is "bar" (normalized bar complex), "koszul" (minimal
    divided-power resolution, elementary abelian groups only) or "auto",
    which takes "bar" when it fits ``SIZE_BOUND`` and "koszul" otherwise.
    The bar method is ``bar_space`` in each degree 0..max_degree, with
    every boundary spanned once (``_bar_spaces``).
    """
    if max_degree < 0:
        raise ValueError("bar degree must be non-negative")
    # every element is its own inverse exactly when the group is elementary abelian
    elementary = table.inv == tuple(range(table.order))
    if method == "auto":
        if max(table.order - 1, 1) ** (max_degree + 1) <= SIZE_BOUND:
            method = "bar"
        elif elementary:
            method = "koszul"
        else:
            raise SizeBoundError("bar complex too large and no minimal resolution available")
    if method == "bar":
        reps = [space.rep_chains() for space in _bar_spaces(table, range(max_degree + 1))]
        return BarHomologyResult([len(chains) for chains in reps], reps, "bar")
    if method == "koszul":
        if not elementary:
            raise ValueError("koszul method requires an elementary abelian group")
        dims, reps = _koszul_homology(table.order.bit_length() - 1, max_degree)
        return BarHomologyResult(dims, reps, "koszul")
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# minimal (divided-power Koszul) resolution for elementary abelian groups


def koszul_generators(k: int, degree: int) -> list[tuple[int, ...]]:
    """Divided-power monomials X1^[a1]...Xk^[ak] of total degree `degree`."""
    return compositions(degree, k)


@lru_cache(maxsize=None)
def koszul_boundary(
    k: int, gen: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Boundary of a generator: pairs (lower generator, group-ring mask).

    The coefficient of the i-th term is t_i = 1 + x_i, encoded as a mask
    over element indices of the rank-k group (element = coordinate
    bitmask).  Cached: one small tuple per generator asked for.
    """
    out = []
    for i in range(k):
        if gen[i] > 0:
            lower = gen[:i] + (gen[i] - 1,) + gen[i + 1 :]
            mask = (1 << 0) | (1 << (1 << i))
            out.append((lower, mask))
    return tuple(out)


def groupring_multiply(k: int, a_mask: int, b_mask: int) -> int:
    out = 0
    for ga in _bits(a_mask):
        for gb in _bits(b_mask):
            out ^= 1 << (ga ^ gb)
    return out


def koszul_check_differential(k: int, max_degree: int) -> None:
    """Assert d(d(gen)) = 0 over the group ring for all generators.

    Each degree is checked once per process (``_koszul_d_squared_failure``).
    """
    for d in range(2, max_degree + 1):
        gen = _koszul_d_squared_failure(k, d)
        if gen is not None:
            raise AssertionError(f"koszul differential does not square to zero at {gen}")


@lru_cache(maxsize=None)
def _koszul_d_squared_failure(k: int, degree: int) -> tuple[int, ...] | None:
    """The first degree-`degree` generator with d(d(gen)) != 0, or None."""
    for gen in koszul_generators(k, degree):
        acc: dict[tuple[int, ...], int] = {}
        for mid, coeff1 in koszul_boundary(k, gen):
            for low, coeff2 in koszul_boundary(k, mid):
                prod = groupring_multiply(k, coeff1, coeff2)
                acc[low] = acc.get(low, 0) ^ prod
        if any(v for v in acc.values()):
            return gen
    return None


def _koszul_boundary_matrix(k: int, degree: int) -> F2Matrix:
    """Boundary in degree `degree` after tensoring with the trivial module.

    Group-ring coefficients map by the augmentation (parity of the
    support), so the matrices are assembled honestly and then ranked.
    """
    below_idx = {g: i for i, g in enumerate(koszul_generators(k, degree - 1))}
    columns = []
    for g in koszul_generators(k, degree):
        col = 0
        for low, coeff in koszul_boundary(k, g):
            if coeff.bit_count() & 1:
                col ^= 1 << below_idx[low]
        columns.append(col)
    return F2Matrix.from_columns(len(below_idx), columns)


def _koszul_homology(k: int, max_degree: int) -> tuple[list[int], list[list]]:
    koszul_check_differential(k, max_degree + 1)
    boundaries = [_koszul_boundary_matrix(k, d) for d in range(1, max_degree + 2)]
    reps = [koszul_generators(k, d) for d in range(max_degree + 1)]
    return homology_dims(boundaries), reps


# ---------------------------------------------------------------------------
# transfer and induced maps on bar homology


@lru_cache(maxsize=16)
def _reused_space(build: Callable, table: FiniteGroupTable, degree: int) -> BarSpace:
    """``build(table, degree)`` for the 16 latest keys: ``transfer_map``
    and the ``oracle-check`` battery only read their spaces.  ``build`` is
    ``bar_space`` as looked up at call time, so a replaced one is never
    served another's spaces."""
    return build(table, degree)


def transfer_map(
    table: FiniteGroupTable, sub_indices: Sequence[int], degree: int
) -> F2Matrix:
    """Matrix of the homology transfer to a subgroup in one degree.

    Rows are indexed by the subgroup's representative basis, columns by
    the ambient group's; composing with the induced map back equals
    multiplication by the subgroup index.
    """
    sub_table, embedding = table.subgroup(sub_indices)
    ambient = _reused_space(bar_space, table, degree)
    subspace = _reused_space(bar_space, sub_table, degree)
    columns = [
        subspace.class_coordinates(transfer_chain(table, embedding, rep))
        for rep in ambient.rep_chains()
    ]
    return F2Matrix.from_columns(subspace.dim, columns)


# ---------------------------------------------------------------------------
# the orbit-sum evaluation of the operations for finite groups


@dataclass(frozen=True)
class OrbitPlan:
    """What the orbit sum needs of the two-basepoint action of one (G, k).

    ``steps`` holds, for each orbit whose projected stabilizer image has
    odd index, the step table of the transfer to that image followed by
    its q-coordinate.  Neither the action table nor the point set is kept.
    """

    steps: tuple[StepTable, ...]


@lru_cache(maxsize=None)
def _orbit_plan(mul: tuple[tuple[int, ...], ...], identity: int, k: int) -> OrbitPlan:
    """The orbit plan of the group with table ``mul``, built once per process.

    Keyed on the table's content, as an equal table hashes equal.  The
    action and its orbit decomposition are built with every check of
    ``cayley_action`` and ``action_orbits``; a ``SizeBoundError``
    propagates and caches nothing.  ``SIZE_BOUND`` leaves few feasible
    (G, k), so the cache stays small.
    """
    action = cayley_action(FiniteGroupTable(mul, identity), k)
    steps = []
    for orbit in action_orbits(action):
        if orbit.image_index % 2 == 0:
            continue
        # q-component of the stabilizer element over each projected image point
        q_of = {action.proj[gi]: action.q_proj[gi] for gi in orbit.stabilizer}
        hom = [q_of[parent] for parent in orbit.image]
        steps.append(_transfer_steps(action.lam, orbit.image, hom))
    return OrbitPlan(tuple(steps))


def _walk_arrangements(steps: StepTable, counts: Sequence[tuple[int, int]], acc: set) -> None:
    """XOR into ``acc`` the walks (``_walk_steps``) from every coset of
    the arrangements of a multiset of distinct (letter, count) pairs.

    Let T(c) be the GF(2) sum of the pairs (j, w) over the start cosets
    and the arrangements of counts c whose walk w is nondegenerate and
    ends at coset j; T(0) = {(i, ()) for each coset i}.  An arrangement of
    c is one of c - e_g followed by a letter g, c_g > 0, in one way only.
    With steps[g][j] = (j', l), g sends (j, w) to (j', w.l), or nowhere
    when l is None, and injectively, as g permutes the cosets: so T(c) is
    the sum over g of the images of T(c - e_g).  Every walk is degenerate
    when a letter of positive count steps to None from every coset.
    """
    rows = [(steps[g], n) for g, n in counts if n]
    for row, _ in rows:
        for _, letter in row:
            if letter is not None:
                break
        else:
            return
    # sums[c'] is T(c'), c' in ``itertools.product`` order: c' - e_t is places[t] before c'
    places = [1] * len(rows)
    for t in range(len(rows) - 1, 0, -1):
        places[t - 1] = places[t] * (rows[t][1] + 1)
    sums = [{(i, ()) for i in range(len(steps[0]))}]
    for remaining in itertools.islice(itertools.product(*(range(n + 1) for _, n in rows)), 1, None):
        here: set = set()
        for (row, _), r, place in zip(rows, remaining, places):
            if r:
                below = sums[len(sums) - place]
                here ^= {(j, w + (l,)) for i, w in below for j, l in [row[i]] if l is not None}
        sums.append(here)
    for _, w in sums[-1]:
        acc ^= {w}


def compsum_alpha(
    g_table: FiniteGroupTable,
    k: int,
    a: DPClass,
    b: CoefficientClass,
    max_degree: int = 12,
) -> CoefficientClass:
    """Evaluate the rank-k operation by honest orbit summation.

    Enumerates the orbits of the two-basepoint action on G-labellings,
    discards orbits whose projected stabilizer image has even index (the
    transfer through such a subgroup vanishes because the induced map in
    homology is injective), and sums, over the survivors, the chain-level
    transfer to the projected stabilizer followed by the map induced by
    the q-coordinate of the stabilizer, applied to the canonical cycle of
    a x b, and reads the result off in the canonical basis.  The orbits
    come from ``_orbit_plan`` as step tables; walks through them are
    GF(2)-linear, and are XORed into the output.

    The cycle of a term x^[e_1..e_k] (x) s^[m] is the shuffle product of
    the constant bar words l_j^e_j and s^m, l_j = (1 << j)|G| + e the j-th
    generator of V_k and s the reflection of ``_structure``.  The letters
    are distinct, so the cycle is the set of the arrangements of the
    multiset {l_j^(e_j), s^(m)}, each once, and distinct terms give
    disjoint sets: ``_walk_arrangements`` walks them, unbuilt.
    """
    descriptor = g_table.descriptor()
    if b.group != descriptor:
        raise ValueError("coefficient class does not match the group table")
    if not a.terms:
        return CoefficientClass.zero(descriptor)
    deg_a = a.homogeneous_degree()
    b_dp = b.as_dp()
    if not b_dp.terms:
        return CoefficientClass.zero(descriptor)
    deg_b = b_dp.homogeneous_degree()
    total = deg_a + deg_b
    if total > max_degree:
        raise SizeBoundError(f"degree {total} exceeds max_degree {max_degree}")

    plan = _orbit_plan(g_table.mul, g_table.identity, k)
    n_g, e, s = g_table.order, g_table.identity, g_table._structure[1]
    out: set[tuple[int, ...]] = set()
    for mono, (m,) in itertools.product(a.terms, b_dp.terms):
        counts = [((1 << j) * n_g + e, n) for j, n in enumerate(mono)] + [(s, m)]
        for steps in plan.steps:
            _walk_arrangements(steps, counts, out)

    out_chain: BarChain = frozenset(out)
    if bar_boundary_chain(g_table, out_chain):
        raise AssertionError("orbit sum did not produce a cycle")
    terms = [(total,)] * _canonical_coordinate(g_table, out_chain, total)
    return CoefficientClass.from_dp(descriptor, DPClass.from_terms(GeneratorSet.z2_basis(1), terms))


def _canonical_coordinate(g_table: FiniteGroupTable, chain: BarChain, degree: int) -> int:
    """Coordinate of a cycle against the canonical generator of H_degree.

    The chain transfers to the reflection subgroup <s>, of odd index m in
    D_{2m} and in Z/2 (m = 1): an isomorphism on homology, as its composite
    with the induced map is multiplication by m.  The normalized bar chain
    group of <s> has one word per degree, and is read off there.
    """
    s = g_table._structure[1]
    reduced = transfer_chain(g_table, (g_table.identity, s), chain)
    return 1 if (1,) * degree in reduced else 0
