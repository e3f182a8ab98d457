import collections
import dataclasses
import functools
import inspect
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgops.f2core import F2Matrix, SpanSolver, f2_rank_kernel, homology_dims
from bgops.gradedalg import DPClass, GeneratorSet
from bgops.operations import CoefficientClass, Dihedral, Z2Power, alpha
from bgops import cli, oracle
from bgops.oracle import (
    FiniteAction,
    FiniteGroupTable,
    SizeBoundError,
    _orbit_plan,
    _walk_steps,
    action_orbits,
    bar_boundary_chain,
    bar_boundary_word,
    bar_homology,
    bar_space,
    cayley_action,
    compsum_alpha,
    koszul_generators,
    koszul_check_differential,
    transfer_chain,
    transfer_map,
)

from references import (
    _rref,
    canonical_cycle,
    check_action_axioms,
    compositions,
    cross_chains,
    induced_map,
    kernel_by_scanning_pivot_rows,
    project,
    rref_kernel,
    span_contains,
)

V1 = GeneratorSet.v_basis(1)
V2 = GeneratorSet.v_basis(2)


# ---------------------------------------------------------------------------
# group tables


def test_dihedral_structure():
    d6 = FiniteGroupTable.dihedral(1)
    assert d6.order == 6
    m = 3
    r, s = 1, m  # r^1 and s
    assert d6.mul[s][s] == d6.identity
    # s r = r^-1 s
    assert d6.mul[s][r] == d6.mul[d6.inv[r]][s]
    assert FiniteGroupTable.dihedral(0).order == 2


def test_elementary_abelian_table():
    v3 = FiniteGroupTable.elementary_abelian(3)
    assert v3.order == 8
    for a in range(8):
        for b in range(8):
            assert v3.mul[a][b] == a ^ b


def test_table_order_and_inverses_are_derived():
    assert list(inspect.signature(FiniteGroupTable).parameters) == ["mul", "identity"]
    d6 = FiniteGroupTable.dihedral(1)
    copy = FiniteGroupTable(d6.mul, d6.identity)
    assert copy.order == len(d6.mul) == 6
    assert all(copy.mul[g][copy.inv[g]] == copy.identity for g in range(6))
    assert copy.inv == d6.inv
    with pytest.raises(ValueError, match="an element has no inverse"):
        FiniteGroupTable(((0, 1), (1, 1)), 0)


@pytest.mark.parametrize(
    "mul,identity",
    [
        (((0, 1),), 0),  # one row of two
        (((0, 1), (1,)), 0),  # a short row
        (((0, 1, 2), (1, 0, 2)), 0),  # rows longer than the table
        (((0, 2), (2, 0)), 0),  # an entry outside 0..1
        (((0, -1), (-1, 0)), 0),  # a negative entry
        (((0, 1), (1, 0)), 2),  # the identity is not an element
        ((), 0),  # no elements at all
    ],
)
def test_tables_that_are_not_square_or_out_of_range_are_rejected(mul, identity):
    with pytest.raises(ValueError, match="expected a square table with entries and identity in"):
        FiniteGroupTable(mul, identity)


def test_z2_is_the_rank_one_elementary_abelian_table():
    z2, v1 = FiniteGroupTable.z2(), FiniteGroupTable.elementary_abelian(1)
    assert z2 == v1
    assert z2.descriptor() == v1.descriptor() == Z2Power(1)


def test_a_table_is_its_multiplication_table():
    assert [f.name for f in dataclasses.fields(FiniteGroupTable) if f.init] == ["mul", "identity"]
    z2 = FiniteGroupTable.z2()
    with pytest.raises(TypeError):
        FiniteGroupTable(z2.mul, 0, kind="dihedral", params=(3,))
    table = FiniteGroupTable(z2.mul, 0)
    assert table.descriptor() == Z2Power(1)
    a, unit = DPClass.monomial(V1, (1,)), CoefficientClass.unit(Z2Power(1))
    assert compsum_alpha(table, 1, a, unit) == alpha(Z2Power(1), 1, a, unit)
    assert not compsum_alpha(table, 1, a, unit).is_zero()


def test_tables_are_frozen_and_equal_tables_hash_equal():
    d6 = FiniteGroupTable.dihedral(1)
    assert d6.descriptor() == Dihedral(1)
    z2 = FiniteGroupTable.z2()
    for name, value in (("mul", z2.mul), ("identity", 1), ("inv", z2.inv), ("generators", (1,))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d6, name, value)
    assert (d6.order, d6.inv, d6.descriptor()) == (6, (0, 2, 1, 3, 4, 5), Dihedral(1))
    copy = FiniteGroupTable(tuple(tuple(row) for row in d6.mul), d6.identity)
    assert copy.mul is not d6.mul
    assert copy == d6 and hash(copy) == hash(d6)
    assert len({d6, copy, z2, FiniteGroupTable.elementary_abelian(1)}) == 2


def test_descriptor_and_reflection_are_read_from_the_table():
    # the reflection is the least involution: index 1 of Z/2, 2n + 1 of D_{4n+2}
    assert FiniteGroupTable.z2()._structure == (Z2Power(1), 1)
    assert FiniteGroupTable.dihedral(0)._structure == (Z2Power(1), 1)
    for n in range(1, 4):
        assert FiniteGroupTable.dihedral(n)._structure == (Dihedral(n), 2 * n + 1)
    assert FiniteGroupTable.symmetric(3).descriptor() == Dihedral(1)


def shuffled(table: FiniteGroupTable, rng: random.Random) -> FiniteGroupTable:
    """The same group with its elements renumbered by a random permutation."""
    perm = list(range(table.order))
    rng.shuffle(perm)
    back = {p: g for g, p in enumerate(perm)}
    mul = tuple(
        tuple(perm[table.mul[back[x]][back[y]]] for y in range(table.order))
        for x in range(table.order)
    )
    return FiniteGroupTable(mul, perm[table.identity])


def test_compsum_reads_symmetric_and_relabelled_dihedral_tables():
    rng = random.Random(16)
    cases = [(FiniteGroupTable.symmetric(3), 2)]
    cases += [(shuffled(FiniteGroupTable.dihedral(1), rng), 2) for _ in range(2)]
    cases += [(shuffled(FiniteGroupTable.dihedral(2), rng), 1) for _ in range(2)]
    z2gens = GeneratorSet.z2_basis(1)
    for table, max_k in cases:
        g = table.descriptor()
        assert g == Dihedral(table.order // 4)
        for k in range(1, max_k + 1):
            for exps in itertools.product(range(1, 4 - k), repeat=k):
                a = DPClass.monomial(GeneratorSet.v_basis(k), exps)
                for m in range(3):
                    b = CoefficientClass.from_dp(g, DPClass.monomial(z2gens, (m,)))
                    assert compsum_alpha(table, k, a, b) == alpha(g, k, a, b), (table.mul, exps, m)


def test_product_and_subgroup():
    z2 = FiniteGroupTable.z2()
    v2 = FiniteGroupTable.product(z2, z2)
    assert v2.order == 4
    sub, emb = v2.subgroup([0, 3])
    assert sub.order == 2
    assert emb == (0, 3)
    with pytest.raises(ValueError):
        v2.subgroup([0, 1, 3])  # not closed


# ---------------------------------------------------------------------------
# the basepoint action


def test_action_orbits_z2_k1():
    orbits = action_orbits(cayley_action(FiniteGroupTable.z2(), 1))
    assert len(orbits) == 2
    for o in orbits:
        assert o.size == 2
        assert len(o.stabilizer) == 4
        assert o.image_index == 1


def test_action_orbits_d6_k1_census():
    orbits = action_orbits(cayley_action(FiniteGroupTable.dihedral(1), 1))
    odd = [o for o in orbits if o.image_index % 2 == 1]
    assert len(odd) == 2
    for o in orbits:
        assert o.size * len(o.stabilizer) == 72


def test_action_orbits_trivial_group():
    orbits = action_orbits(cayley_action(FiniteGroupTable.elementary_abelian(0), 1))
    assert len(orbits) == 1
    (o,) = orbits
    assert o.size == 1
    assert len(o.stabilizer) == orbits[0].size * 2  # the full group V_1


def test_orbit_census_z2_k2():
    orbits = action_orbits(cayley_action(FiniteGroupTable.z2(), 2))
    odd = [o for o in orbits if o.image_index % 2 == 1]
    assert len(odd) == 4


def test_cayley_action_axioms():
    z2, d6 = FiniteGroupTable.z2(), FiniteGroupTable.dihedral(1)
    for table, k in ((z2, 1), (z2, 2), (d6, 1)):
        action = cayley_action(table, k)
        check_action_axioms(action)
        assert action.set_size == table.order ** (1 << k)


# ---------------------------------------------------------------------------
# bar homology


def test_bar_homology_z2():
    result = bar_homology(FiniteGroupTable.z2(), 4, method="bar")
    assert result.dims == [1, 1, 1, 1, 1]


def test_bar_homology_v2_matches_koszul():
    v2 = FiniteGroupTable.elementary_abelian(2)
    bar = bar_homology(v2, 6, method="bar")
    koszul = bar_homology(v2, 6, method="koszul")
    assert bar.dims == [n + 1 for n in range(7)]
    assert koszul.dims == bar.dims


def test_bar_homology_d6():
    d6 = FiniteGroupTable.dihedral(1)
    assert bar_homology(d6, 3, method="bar").dims == [1, 1, 1, 1]


def test_bar_homology_trivial_group():
    assert bar_homology(FiniteGroupTable.elementary_abelian(0), 3, method="bar").dims == [1, 0, 0, 0]


def test_koszul_route_reads_an_elementary_abelian_table():
    z2 = FiniteGroupTable.z2()
    for table in (FiniteGroupTable.product(z2, z2), FiniteGroupTable.elementary_abelian(0)):
        koszul = bar_homology(table, 6, method="koszul").dims
        assert koszul == bar_homology(table, 6, method="bar").dims
    with pytest.raises(ValueError, match="requires an elementary abelian group"):
        bar_homology(FiniteGroupTable.dihedral(1), 2, method="koszul")


def test_koszul_differential_squares_to_zero():
    for k in (1, 2, 3):
        koszul_check_differential(k, 6)


def test_homology_dims_match_kernel_and_rank_route():
    # Betti numbers from ranks alone against kernel dimension minus image
    # rank, both from the reference eliminator, on V_1 to V_3
    for k in (1, 2, 3):
        boundaries = [oracle._koszul_boundary_matrix(k, d) for d in range(1, 10)]
        expected = []
        for d in range(9):
            if d == 0:
                cycles = len(koszul_generators(k, 0))
            else:
                cycles = len(kernel_by_scanning_pivot_rows(boundaries[d - 1])[1])
            image = boundaries[d]
            expected.append(cycles - len(_rref(list(image.data), image.cols)[0]))
        assert homology_dims(boundaries) == expected, k
        assert expected == [math.comb(d + k - 1, k - 1) for d in range(9)]


def test_negative_degree_is_refused_by_every_method():
    v2 = FiniteGroupTable.elementary_abelian(2)
    for method in ("bar", "koszul", "auto"):
        with pytest.raises(ValueError, match="bar degree must be non-negative"):
            bar_homology(v2, -1, method=method)
    with pytest.raises(ValueError, match="bar degree must be non-negative"):
        bar_space(v2, -1)


def test_bar_size_guard():
    d6 = FiniteGroupTable.dihedral(1)
    with pytest.raises(SizeBoundError):
        bar_homology(d6, 12, method="bar")


def test_transfer_is_chain_map():
    rng = random.Random(31)
    v2 = FiniteGroupTable.elementary_abelian(2)
    sub_emb = (0, 3)
    letters = [1, 2, 3]
    for _ in range(20):
        words = {
            tuple(rng.choice(letters) for _ in range(3))
            for _ in range(rng.randrange(1, 5))
        }
        chain = frozenset(words)
        sub, emb = v2.subgroup(sub_emb)
        lhs = transfer_chain(v2, emb, bar_boundary_chain(v2, chain))
        rhs = bar_boundary_chain(sub, transfer_chain(v2, emb, chain))
        assert lhs == rhs


def test_transfer_identity_when_subgroup_is_whole_group():
    z2 = FiniteGroupTable.z2()
    assert transfer_map(z2, [0, 1], 3) == transfer_map(z2, [0, 1], 3)
    m = transfer_map(z2, [0, 1], 3)
    assert m.rows == m.cols == 1
    assert m.data == (1,)


def test_transfer_diagonal_zero():
    v2 = FiniteGroupTable.elementary_abelian(2)
    for d in range(1, 5):
        assert transfer_map(v2, [0, 3], d).is_zero()


def test_transfer_trivial_subgroup_zero_positive_degrees():
    z2 = FiniteGroupTable.z2()
    for d in range(1, 4):
        assert transfer_map(z2, [0], d).is_zero()


def test_induced_after_transfer_is_index_times_identity():
    cases = [
        (FiniteGroupTable.z2(), [0]),  # index 2
        (FiniteGroupTable.elementary_abelian(2), [0, 3]),  # index 2
        (FiniteGroupTable.elementary_abelian(2), [0, 1]),  # index 2
        (FiniteGroupTable.dihedral(1), [0, 3]),  # reflection subgroup, index 3
        (FiniteGroupTable.dihedral(1), [0, 1, 2]),  # rotations, index 2
    ]
    for table, sub in cases:
        index = table.order // len(sub)
        for d in range(0, 4):
            tr = transfer_map(table, sub, d)
            ind = induced_map(table, sub, d)
            comp = ind.matmul(tr)
            dim = comp.rows
            if index % 2 == 1:
                assert comp == type(comp).identity(dim), (sub, d)
            else:
                assert comp.is_zero(), (sub, d)


def test_cross_chain_of_generators_is_nonzero_cycle():
    z2 = FiniteGroupTable.z2()
    v2 = FiniteGroupTable.product(z2, z2)
    left = frozenset({(2, 2)})  # x^[2] for the first factor: letter (1, 0) is index 2
    chain = cross_chains(left, frozenset({(1,) * 3}))
    assert len(chain) == 10  # C(5, 2) shuffles
    assert not bar_boundary_chain(v2, chain)
    space = bar_space(v2, 5)
    coords = space.class_coordinates(chain)
    assert coords != 0  # a nonzero homology class (a divided-power monomial)


def test_class_coordinates_read_the_representative_basis():
    # representative j has coordinates 1 << j, sums of representatives add
    # their coordinates, and adding a boundary changes nothing
    rng = random.Random(5)
    z2 = FiniteGroupTable.z2()
    tables = (z2, FiniteGroupTable.product(z2, z2), FiniteGroupTable.dihedral(1))
    for table in tables:
        for degree in range(4):
            space = bar_space(table, degree)
            above = bar_space(table, degree + 1)
            for _ in range(6):
                picks = [j for j in range(space.dim) if rng.random() < 0.5]
                mask = 0
                for j in picks:
                    mask ^= space.reps[j]
                word = above.words[rng.randrange(len(above.words))]
                mask ^= space.chain_to_mask(bar_boundary_chain(table, frozenset({word})))
                expected = sum(1 << j for j in picks)
                assert space.class_coordinates(space.mask_to_chain(mask)) == expected


# ---------------------------------------------------------------------------
# orbit-sum evaluation vs closed forms


def test_compsum_z2_examples():
    z2 = FiniteGroupTable.z2()
    g = Z2Power(1)
    a = DPClass.monomial(V1, (3,))
    b = CoefficientClass.unit(g)
    assert compsum_alpha(z2, 1, a, b) == alpha(g, 1, a, b)
    # the rank-1 elementary abelian table is the same Z/2
    v1 = FiniteGroupTable.elementary_abelian(1)
    assert compsum_alpha(v1, 1, a, b) == compsum_alpha(z2, 1, a, b)
    assert compsum_alpha(v1, 1, a, b).as_dp() == DPClass.monomial(GeneratorSet.z2_basis(1), (3,))
    a2 = DPClass.monomial(V2, (1, 2))
    out = compsum_alpha(z2, 2, a2, b)
    assert out == alpha(g, 2, a2, b)
    assert not out.is_zero()


def test_compsum_z2_grid():
    z2 = FiniteGroupTable.z2()
    g = Z2Power(1)
    gens = GeneratorSet.z2_basis(1)
    for n in range(5):
        for m in range(4):
            a = DPClass.monomial(V1, (n,))
            b = CoefficientClass.from_dp(g, DPClass.monomial(gens, (m,)))
            assert compsum_alpha(z2, 1, a, b) == alpha(g, 1, a, b), (n, m)


def test_compsum_d6_matches_dihedral_closed_form():
    d6 = FiniteGroupTable.dihedral(1)
    g = Dihedral(1)
    gens = GeneratorSet.z2_basis(1)
    for n in range(4):
        for m in range(3):
            a = DPClass.monomial(V1, (n,))
            b = CoefficientClass.from_dp(g, DPClass.monomial(gens, (m,)))
            assert compsum_alpha(d6, 1, a, b, max_degree=10) == alpha(g, 1, a, b), (n, m)


def test_compsum_rejects_oversized_degrees():
    z2 = FiniteGroupTable.z2()
    a = DPClass.monomial(V1, (9,))
    with pytest.raises(SizeBoundError):
        compsum_alpha(z2, 1, a, CoefficientClass.unit(Z2Power(1)), max_degree=5)


def test_dihedral_coordinate_detector_matches_honest_reduction():
    # the transfer-based coordinate readout agrees with solving modulo
    # boundaries in low degrees, where the boundary space is materializable
    d6 = FiniteGroupTable.dihedral(1)
    s = 3
    rng = random.Random(13)
    from bgops.oracle import _canonical_coordinate

    for degree in (1, 2, 3):
        space = bar_space(d6, degree)
        canonical = frozenset({(s,) * degree})
        assert space.class_coordinates(canonical) == 1
        for rep in space.rep_chains():
            honest = space.class_coordinates(rep)
            fast = _canonical_coordinate(d6, rep, degree)
            assert honest == fast
        # a boundary maps to zero under both readouts
        above = bar_space(d6, degree + 1)
        if above.words:
            word = above.words[rng.randrange(len(above.words))]
            boundary = bar_boundary_chain(d6, frozenset({word}))
            if boundary:
                assert space.class_coordinates(boundary) == 0
                assert _canonical_coordinate(d6, boundary, degree) == 0


def test_compsum_d10_matches_closed_form():
    # a dihedral group with a genuinely larger rotation part: order 10,
    # reflection subgroup of index 5
    d10 = FiniteGroupTable.dihedral(2)
    g = Dihedral(2)
    gens = GeneratorSet.z2_basis(1)
    for n in range(3):
        for m in range(2):
            a = DPClass.monomial(V1, (n,))
            b = CoefficientClass.from_dp(g, DPClass.monomial(gens, (m,)))
            assert compsum_alpha(d10, 1, a, b, max_degree=6) == alpha(g, 1, a, b), (n, m)


# ---------------------------------------------------------------------------
# the polynomial basis census against honest symmetric-group homology


def _census(weight: int, degree: int) -> int:
    """Monomial count of the free polynomial algebra at one bidegree."""
    import math

    from bgops.symhomology import count_basis

    generators = [(0, 1, 1)]  # the class [1]
    w = 2
    while w <= weight:
        for d in range(degree + 1):
            c = count_basis(d, w)
            if c:
                generators.append((d, w, c))
        w *= 2
    dp = {(0, 0): 1}
    for d_g, w_g, count in generators:
        new_dp = dict(dp)
        for (d0, w0), ways in dp.items():
            m = 1
            while d0 + m * d_g <= degree and w0 + m * w_g <= weight:
                key = (d0 + m * d_g, w0 + m * w_g)
                new_dp[key] = new_dp.get(key, 0) + ways * math.comb(count + m - 1, m)
                m += 1
        dp = new_dp
    return dp.get((degree, weight), 0)


def _bar_dims_via_rank(table, max_degree):
    """Homology dimensions from boundary ranks only, no representatives."""
    from bgops.oracle import bar_boundary_word, bar_words

    ranks = {}
    for d in range(1, max_degree + 2):
        words = bar_words(table, d)
        below = bar_words(table, d - 1)
        bidx = {w: i for i, w in enumerate(below)}
        rows = [0] * len(below)
        for j, w in enumerate(words):
            for face in bar_boundary_word(table, w):
                rows[bidx[face]] ^= 1 << j
        ranks[d] = len(_rref(rows, len(words))[0])
    letters = table.order - 1
    dims = []
    for d in range(max_degree + 1):
        dim_cd = letters**d if d > 0 else 1
        dims.append(dim_cd - ranks.get(d, 0) - ranks[d + 1])
    return dims


def test_basis_census_matches_symmetric_group_homology():
    # the weight-n graded piece of the polynomial ring is H_*(B Sigma_n);
    # compare against homology computed honestly from permutation tables
    caps = {1: 3, 2: 3, 3: 3, 4: 2}
    for n, cap in caps.items():
        table = FiniteGroupTable.symmetric(n)
        dims = _bar_dims_via_rank(table, cap)
        for d in range(cap + 1):
            assert dims[d] == _census(n, d), (n, d, dims)


def test_compsum_z2_rank_three():
    z2 = FiniteGroupTable.z2()
    g = Z2Power(1)
    v3 = GeneratorSet.v_basis(3)
    orbits = action_orbits(cayley_action(z2, 3))
    assert sum(1 for o in orbits if o.image_index % 2 == 1) == 8
    for exps in [(1, 1, 2), (1, 2, 4), (0, 1, 2), (1, 1, 1), (2, 2, 3)]:
        a = DPClass.monomial(v3, exps)
        b = CoefficientClass.unit(g)
        assert compsum_alpha(z2, 3, a, b, max_degree=10) == alpha(g, 3, a, b), exps


def test_bar_homology_auto_switches_to_minimal_resolution():
    v3 = FiniteGroupTable.elementary_abelian(3)
    result = bar_homology(v3, 12, method="auto")
    assert result.method == "koszul"
    assert result.dims == [(n + 1) * (n + 2) // 2 for n in range(13)]


# ---------------------------------------------------------------------------
# check_laws and cayley_action against the direct definitions


def associative_by_triple_loop(mul):
    """The O(n^3) associativity check that Light's test replaced."""
    n = len(mul)
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def constructor_tables():
    yield FiniteGroupTable.z2()
    for k in range(4):
        yield FiniteGroupTable.elementary_abelian(k)
    for n in range(4):
        yield FiniteGroupTable.dihedral(n)
    for n in range(6):
        yield FiniteGroupTable.symmetric(n)
    z2, d6 = FiniteGroupTable.z2(), FiniteGroupTable.dihedral(1)
    s3 = FiniteGroupTable.symmetric(3)
    yield FiniteGroupTable.product(z2, d6)
    yield FiniteGroupTable.product(d6, s3)
    yield FiniteGroupTable.product(FiniteGroupTable.product(z2, z2), d6)
    s4_perms = sorted(itertools.permutations(range(4)))
    yield FiniteGroupTable.symmetric(4).subgroup(
        [i for i, p in enumerate(s4_perms) if p[3] == 3]
    )[0]
    yield d6.subgroup([0, 1, 2])[0]


def test_check_laws_accepts_every_constructor_table():
    for table in constructor_tables():
        assert associative_by_triple_loop(table.mul)
        table.check_laws()


def random_loop(rng, n):
    """A random Latin square on 0..n-1 with identity 0 (a loop)."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[0][i] = rows[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(pos):
        if pos == len(cells):
            return True
        i, j = cells[pos]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            rows[i][j] = v
            if fill(pos + 1):
                return True
        rows[i][j] = None
        return False

    assert fill(0)
    return tuple(tuple(r) for r in rows)


def two_sided_inverses(mul):
    n = len(mul)
    for a in range(n):
        b = mul[a].index(0)
        if mul[b][a] != 0:
            return False
    return True


def test_check_laws_rejects_random_nonassociative_loops():
    rng = random.Random(2015)
    rejected = {n: 0 for n in range(5, 9)}
    for n in rejected:
        while rejected[n] < 5:
            mul = random_loop(rng, n)
            if not two_sided_inverses(mul):
                continue
            if associative_by_triple_loop(mul):
                FiniteGroupTable(mul, 0)  # a group: accepted
                continue
            with pytest.raises(ValueError, match="associativity"):
                FiniteGroupTable(mul, 0)
            rejected[n] += 1


def test_check_laws_verdict_matches_triple_loop_on_random_tables():
    # relabelled groups are accepted; swapping an intercalate of one
    # keeps a loop, and the verdict must be the triple loop's
    rng = random.Random(7)
    groups = [
        FiniteGroupTable.elementary_abelian(3),
        FiniteGroupTable.dihedral(2),
        FiniteGroupTable.symmetric(3),
        FiniteGroupTable.product(FiniteGroupTable.z2(), FiniteGroupTable.dihedral(1)),
    ]
    for group in groups:
        n = group.order
        for _ in range(10):
            perm = list(range(n))
            rest = perm[1:]
            rng.shuffle(rest)
            perm[1:] = rest
            inv_perm = {p: i for i, p in enumerate(perm)}
            mul = [[perm[group.mul[inv_perm[a]][inv_perm[b]]] for b in range(n)] for a in range(n)]
            FiniteGroupTable(tuple(tuple(r) for r in mul), 0)  # an isomorphic copy
            for _ in range(200):
                a, b, c = (rng.randrange(1, n) for _ in range(3))
                d = mul[b].index(mul[a][c])
                if a != b and d and mul[a][d] == mul[b][c] and 0 not in (mul[a][c], mul[a][d]):
                    mul[a][c], mul[a][d] = mul[a][d], mul[a][c]
                    mul[b][c], mul[b][d] = mul[b][d], mul[b][c]
                    break
            table = tuple(tuple(r) for r in mul)
            if not two_sided_inverses(table):
                continue
            if associative_by_triple_loop(table):
                FiniteGroupTable(table, 0)
            else:
                with pytest.raises(ValueError, match="associativity"):
                    FiniteGroupTable(table, 0)


def test_group_laws_are_checked_above_order_200():
    # swap an intercalate of the order-256 elementary abelian table:
    # still a loop with two-sided inverses, no longer associative
    n = 256
    mul = [[a ^ b for b in range(n)] for a in range(n)]
    a, b, c, d = 1, 2, 4, 7  # a ^ c == b ^ d and a ^ d == b ^ c
    mul[a][c], mul[a][d] = mul[a][d], mul[a][c]
    mul[b][c], mul[b][d] = mul[b][d], mul[b][c]
    table = tuple(tuple(r) for r in mul)
    witness = next(
        (x, y)
        for x in range(n)
        for y in range(n)
        if table[table[x][a]][y] != table[x][table[a][y]]
    )
    assert witness
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroupTable(table, 0)


def cayley_action_rows_pointwise(g_table, k):
    """The action table from its definition, one labelling at a time."""
    n = g_table.order
    points = list(itertools.product(range(n), repeat=1 << k))
    index = {p: i for i, p in enumerate(points)}
    rows = []
    for gi in range(n * n * (1 << k)):
        lam_part, gq = gi // n, gi % n
        u, gp = lam_part // n, lam_part % n
        gq_inv = g_table.inv[gq]
        rows.append(
            tuple(
                index[tuple(g_table.mul[g_table.mul[gp][p[u ^ w]]][gq_inv] for w in range(1 << k))]
                for p in points
            )
        )
    return tuple(rows), tuple(points)


def test_cayley_action_matches_pointwise_definition():
    z2, d6, d10 = FiniteGroupTable.z2(), FiniteGroupTable.dihedral(1), FiniteGroupTable.dihedral(2)
    for table, ks in ((z2, (0, 1, 2, 3)), (d6, (0, 1, 2)), (d10, (0, 1))):
        n = table.order
        for k in ks:
            action = cayley_action(table, k)
            rows, points = cayley_action_rows_pointwise(table, k)
            assert action.act == rows, (table.order, k)
            assert action.set_size == len(points)
            order = n * n * (1 << k)
            assert action.proj == tuple(gi // n for gi in range(order))
            assert action.q_proj == tuple(gi % n for gi in range(order))
            assert action.lam.order == n * (1 << k)


def test_cayley_action_size_guard_precedes_tabulation():
    with pytest.raises(SizeBoundError):
        cayley_action(FiniteGroupTable.dihedral(2), 3)


# ---------------------------------------------------------------------------
# the cached orbit plan against the per-orbit route


def transfer_chain_by_cosets(table, sub_embedding, chain):
    """The coset walk that ``transfer_chain`` did before its step tables."""
    sub = set(sub_embedding)
    local = {g: i for i, g in enumerate(sub_embedding)}
    coset_rep = {}
    reps = []
    for g in range(table.order):
        if g in coset_rep:
            continue
        coset = sorted(table.mul[g][s] for s in sub)
        rep = coset[0]
        reps.append(rep)
        for member in coset:
            coset_rep[member] = rep
    local_id = local[table.identity]
    acc = set()
    for word in chain:
        for start in reps:
            prev = start
            letters = []
            ok = True
            for g in word:
                elem = table.mul[g][prev]
                nxt = coset_rep[elem]
                h = table.mul[table.inv[nxt]][elem]
                hi = local[h]
                if hi == local_id:
                    ok = False
                    break
                letters.append(hi)
                prev = nxt
            if ok:
                acc ^= {tuple(letters)}
    return frozenset(acc)


def push_chain(hom, target_identity, chain):
    """Pushforward along a homomorphism given as an index map."""
    acc = set()
    for word in chain:
        image = tuple(hom[g] for g in word)
        if target_identity in image:
            continue  # degenerate word
        acc ^= {image}
    return frozenset(acc)


def odd_orbit_pushes(action):
    """(image, hom) of every odd-index orbit, in ``action_orbits`` order."""
    out = []
    for orbit in action_orbits(action):
        if orbit.image_index % 2 == 0:
            continue
        q_of = {action.proj[gi]: action.q_proj[gi] for gi in orbit.stabilizer}
        out.append((orbit.image, [q_of[parent] for parent in orbit.image]))
    return out


def compsum_by_orbits(g_table, action, pushes, k, a, b):
    """The orbit sum as one transfer and one pushforward per odd orbit."""
    b_dp = b.as_dp()
    total = a.homogeneous_degree() + b_dp.homogeneous_degree()
    cycle = canonical_cycle(g_table, k, a, b_dp)
    out = set()
    for image, hom in pushes:
        transferred = transfer_chain_by_cosets(action.lam, image, cycle)
        out ^= set(push_chain(hom, g_table.identity, transferred))
    out_chain = frozenset(out)
    assert not bar_boundary_chain(g_table, out_chain)
    gens = GeneratorSet.z2_basis(1)
    if oracle._canonical_coordinate(g_table, out_chain, total):
        return CoefficientClass.from_dp(b.group, DPClass.monomial(gens, (total,)))
    return CoefficientClass.from_dp(b.group, DPClass.zero(gens))


# (table, descriptor, k, largest total degree): the ranges of the oracle benchmark
COMPSUM_RANGES = (
    (FiniteGroupTable.z2, Z2Power(1), 1, 10),
    (FiniteGroupTable.z2, Z2Power(1), 2, 10),
    (FiniteGroupTable.z2, Z2Power(1), 3, 8),
    (lambda: FiniteGroupTable.dihedral(1), Dihedral(1), 1, 6),
    (lambda: FiniteGroupTable.dihedral(1), Dihedral(1), 2, 4),
    (lambda: FiniteGroupTable.dihedral(2), Dihedral(2), 1, 4),
)


def test_compsum_matches_per_orbit_route():
    gens = GeneratorSet.z2_basis(1)
    nonzero = 0
    for make, g, k, max_total in COMPSUM_RANGES:
        table = make()
        action = cayley_action(table, k)
        pushes = odd_orbit_pushes(action)
        for mono in itertools.product(range(1, max_total + 1), repeat=k):
            for m in range(3):
                if sum(mono) + m > max_total:
                    continue
                a = DPClass.monomial(GeneratorSet.v_basis(k), mono)
                b = CoefficientClass.from_dp(g, DPClass.monomial(gens, (m,)))
                out = compsum_alpha(table, k, a, b)
                assert out == compsum_by_orbits(table, action, pushes, k, a, b), (g, k, mono, m)
                nonzero += not out.is_zero()
    assert nonzero > 20


# (table, descriptor, k, largest total degree) with several monomials per degree
MULTI_TERM_CASES = (
    (FiniteGroupTable.z2, Z2Power(1), 2, 8),
    (FiniteGroupTable.z2, Z2Power(1), 3, 6),
    (lambda: FiniteGroupTable.dihedral(1), Dihedral(1), 2, 4),
    (lambda: FiniteGroupTable.dihedral(2), Dihedral(2), 2, 3),
)


@functools.lru_cache(maxsize=None)
def multi_term_reference(case: int):
    """The table, action and odd-orbit pushes of MULTI_TERM_CASES[case], built once."""
    make, _, k, _ = MULTI_TERM_CASES[case]
    table = make()
    action = cayley_action(table, k)
    return table, action, odd_orbit_pushes(action)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(MULTI_TERM_CASES))), st.data())
def test_compsum_of_a_multi_term_class_is_the_sum_over_its_monomials(case, data):
    _, g, k, top = MULTI_TERM_CASES[case]
    table, action, pushes = multi_term_reference(case)
    m = data.draw(st.integers(0, 2))
    degree = data.draw(st.integers(1, top - m))
    of_degree = st.sampled_from(list(compositions(degree, k)))
    monos = data.draw(st.lists(of_degree, min_size=2, max_size=3, unique=True))
    a = DPClass.from_terms(GeneratorSet.v_basis(k), monos)
    b = CoefficientClass.from_dp(g, DPClass.monomial(GeneratorSet.z2_basis(1), (m,)))
    out = compsum_alpha(table, k, a, b)
    assert out == compsum_by_orbits(table, action, pushes, k, a, b)
    parts = CoefficientClass.zero(g)
    for mono in monos:
        parts += compsum_alpha(table, k, DPClass.monomial(GeneratorSet.v_basis(k), mono), b)
    assert out == parts == alpha(g, k, a, b)


ORBIT_CASES = (
    (FiniteGroupTable.z2(), 1),
    (FiniteGroupTable.z2(), 2),
    (FiniteGroupTable.z2(), 3),
    (FiniteGroupTable.dihedral(1), 1),
    (FiniteGroupTable.dihedral(1), 2),
    (FiniteGroupTable.dihedral(2), 1),
)


@functools.lru_cache(maxsize=None)
def orbit_reference(case: int):
    """Lambda and the odd-orbit pushes of ORBIT_CASES[case], built once per test run."""
    table, k = ORBIT_CASES[case]
    action = cayley_action(table, k)
    return action.lam, odd_orbit_pushes(action)


def bar_chains(order: int, identity: int):
    letters = st.sampled_from([g for g in range(order) if g != identity])
    words = st.lists(letters, max_size=4).map(tuple)
    return st.frozensets(words, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(ORBIT_CASES))), st.data())
def test_step_table_walk_is_transfer_then_push(case, data):
    table, k = ORBIT_CASES[case]
    lam, pushes = orbit_reference(case)
    plan = _orbit_plan(table.mul, table.identity, k)
    assert len(plan.steps) == len(pushes) == 1 << k
    chain = data.draw(bar_chains(lam.order, lam.identity))
    for steps, (image, hom) in zip(plan.steps, pushes):
        walked = set()
        _walk_steps(steps, chain, walked)
        transferred = transfer_chain_by_cosets(lam, image, chain)
        assert frozenset(walked) == push_chain(hom, table.identity, transferred)


def subgroups():
    v2, d6, d10 = (
        FiniteGroupTable.elementary_abelian(2),
        FiniteGroupTable.dihedral(1),
        FiniteGroupTable.dihedral(2),
    )
    yield from ((v2, sub) for sub in ([0], [0, 1], [0, 2], [0, 3], [0, 1, 2, 3]))
    yield from ((d6, sub) for sub in ([0], [0, 3], [0, 4], [0, 5], [0, 1, 2], range(6)))
    yield from ((d10, sub) for sub in ([0], [0, 5], [0, 7], [0, 9], [0, 1, 2, 3, 4], range(10)))


SUBGROUPS = list(subgroups())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(SUBGROUPS))), st.data())
def test_transfer_chain_matches_coset_walk(case, data):
    table, sub = SUBGROUPS[case]
    _, emb = table.subgroup(sub)
    chain = data.draw(bar_chains(table.order, table.identity))
    assert transfer_chain(table, emb, chain) == transfer_chain_by_cosets(table, emb, chain)


def test_orbit_plan_is_keyed_on_table_content():
    d6 = FiniteGroupTable.dihedral(1)
    a = DPClass.monomial(V1, (2,))
    b = CoefficientClass.unit(Dihedral(1))
    expected = compsum_alpha(d6, 1, a, b)
    plan = _orbit_plan(d6.mul, d6.identity, 1)
    # an equal table built from fresh row tuples
    generic = FiniteGroupTable(tuple(tuple(row) for row in d6.mul), d6.identity)
    assert generic.mul is not d6.mul
    hits = _orbit_plan.cache_info().hits
    assert _orbit_plan(generic.mul, generic.identity, 1) is plan
    assert _orbit_plan.cache_info().hits == hits + 1
    assert len(plan.steps) == 2
    assert compsum_alpha(d6, 1, a, b) == expected == alpha(Dihedral(1), 1, a, b)


def test_oversized_orbit_plan_raises_before_tabulating_and_caches_nothing(monkeypatch):
    def tabulated(*args):
        raise AssertionError("the action was tabulated")

    monkeypatch.setattr(oracle, "_point_map", tabulated)
    monkeypatch.setattr(FiniteGroupTable, "product", classmethod(tabulated))
    size = _orbit_plan.cache_info().currsize
    a = DPClass.monomial(GeneratorSet.v_basis(3), (1, 1, 1))
    with pytest.raises(SizeBoundError):
        compsum_alpha(FiniteGroupTable.dihedral(2), 3, a, CoefficientClass.unit(Dihedral(2)))
    assert _orbit_plan.cache_info().currsize == size


def test_tables_without_a_descriptor_raise_before_tabulating(monkeypatch):
    z6 = FiniteGroupTable(tuple(tuple((x + y) % 6 for y in range(6)) for x in range(6)), 0)
    tables = [z6] + [FiniteGroupTable.elementary_abelian(k) for k in (0, 2)]
    tables.append(FiniteGroupTable.symmetric(4))

    def tabulated(*args):
        raise AssertionError("the action was tabulated")

    monkeypatch.setattr(oracle, "_point_map", tabulated)
    monkeypatch.setattr(FiniteGroupTable, "product", classmethod(tabulated))
    a = DPClass.monomial(V1, (1,))
    for table in tables:
        with pytest.raises(ValueError, match="expected Z/2 or D_"):
            compsum_alpha(table, 1, a, CoefficientClass.unit(Z2Power(1)))


def reachable(root):
    """Every object reachable from root through containers and dataclass fields."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(vars(obj).values())


def test_orbit_plan_keeps_no_action_table():
    for table, k in ORBIT_CASES[1:]:
        set_size = table.order ** (1 << k)
        assert table.order << k != set_size
        plan = _orbit_plan(table.mul, table.identity, k)
        objects = list(reachable(plan))
        # the walk reaches into the step tables it checks
        assert any(obj is plan.steps[0][0] for obj in objects)
        for obj in objects:
            assert not isinstance(obj, FiniteGroupTable)
            assert not isinstance(obj, FiniteAction)
            assert not (isinstance(obj, tuple) and len(obj) == set_size), (table.order, k)


# ---------------------------------------------------------------------------
# the one-pass bar complex against the rank-kernel route


@functools.lru_cache(maxsize=None)
def reference_boundary(mul, identity, degree):
    """The boundary on ``degree``, its faces by ``bar_boundary_word``, with
    its rank and kernel by the reference ``rref_kernel``."""
    table = FiniteGroupTable(mul, identity)
    below = oracle.bar_words(table, degree - 1) if degree > 0 else [()]
    below_index = {w: i for i, w in enumerate(below)}
    words = oracle.bar_words(table, degree)
    rows = [0] * len(below)
    for j, w in enumerate(words):
        for face in bar_boundary_word(table, w):
            rows[below_index[face]] ^= 1 << j
    m = F2Matrix(len(below), len(words), tuple(rows))
    return m, rref_kernel(m)


def bar_space_by_rref(table, degree):
    """The route ``bar_space`` took before its boundaries were index
    arithmetic: faces by ``bar_boundary_word``, the kernel from the
    reference ``_rref``, and every boundary from one degree higher added to
    a tracking solver that is then projected onto the representatives."""
    words = oracle.bar_words(table, degree)
    index = {w: i for i, w in enumerate(words)}
    _, (_, kernel) = reference_boundary(table.mul, table.identity, degree)
    solver = SpanSolver()
    for w in oracle.bar_words(table, degree + 1):
        mask = 0
        for face in bar_boundary_word(table, w):
            mask ^= 1 << index[face]
        if mask:
            solver.add(mask)
    reps = []
    rep_positions = []
    for v in kernel:
        pos = solver._count
        if solver.add(v):
            reps.append(v)
            rep_positions.append(pos)
    return oracle.BarSpace(table, degree, words, index, reps, project(solver, rep_positions))


@functools.lru_cache(maxsize=None)
def _spaces_by_content(mul, identity, degree):
    table = FiniteGroupTable(mul, identity)
    return bar_space(table, degree), bar_space_by_rref(table, degree)


def both_spaces(table, degree):
    """(``bar_space``, ``bar_space_by_rref``), computed once per
    multiplication table and degree."""
    return _spaces_by_content(table.mul, table.identity, degree)


def dihedral_of_square():
    """The dihedral group of order 8 in S4: the stabilizer of {{0, 1}, {2, 3}}."""
    s4 = FiniteGroupTable.symmetric(4)
    pairs = {frozenset({0, 1}), frozenset({2, 3})}
    perms = sorted(itertools.permutations(range(4)))
    keep = [
        i for i, p in enumerate(perms) if {frozenset(p[x] for x in q) for q in pairs} == pairs
    ]
    return s4.subgroup(keep)[0]


def relabelled(table):
    """The same group with element g renamed order - 1 - g, so e != 0."""
    last = table.order - 1
    mul = tuple(
        tuple(last - table.mul[last - a][last - b] for b in range(table.order))
        for a in range(table.order)
    )
    return FiniteGroupTable(mul, last - table.identity)


_Z2 = FiniteGroupTable.z2()
BAR_TABLES = {
    "z2": _Z2,
    "v2": FiniteGroupTable.elementary_abelian(2),
    "v3": FiniteGroupTable.elementary_abelian(3),
    "d6": FiniteGroupTable.dihedral(1),
    "d10": FiniteGroupTable.dihedral(2),
    "s3": FiniteGroupTable.symmetric(3),
    "z2xz2": FiniteGroupTable.product(_Z2, _Z2),
    "c5 in d10": FiniteGroupTable.dihedral(2).subgroup(range(5))[0],
    "d8 in s4": dihedral_of_square(),
    "d6 relabelled": relabelled(FiniteGroupTable.dihedral(1)),
}
TOP_WORDS = 50_000  # bar words one degree above the space
Z2_DEGREES = 10  # z2 has one word per degree, so its range is cut here


def bar_degrees(table):
    letters = table.order - 1
    return [d for d in range(Z2_DEGREES + 1) if letters ** (d + 1) <= TOP_WORDS]


BAR_CASES = [(name, d) for name, table in BAR_TABLES.items() for d in bar_degrees(table)]


def test_relabelled_table_moves_the_identity():
    assert BAR_TABLES["d6 relabelled"].identity == 5
    assert BAR_TABLES["d8 in s4"].order == 8


def test_boundary_masks_are_the_faces_of_each_word():
    for name, table in BAR_TABLES.items():
        for degree in range(bar_degrees(table)[-1] + 2):
            below = {w: i for i, w in enumerate(oracle.bar_words(table, max(degree - 1, 0)))}
            words = oracle.bar_words(table, degree)
            masks = list(oracle._boundary_masks(table, degree))
            assert len(masks) == len(words)
            for w, mask in zip(words, masks):
                expected = 0
                for face in bar_boundary_word(table, w):
                    expected ^= 1 << below[face]
                assert mask == expected, (name, w)


def test_rank_kernel_match_the_reference_on_bar_matrices():
    for name, d in BAR_CASES:
        table = BAR_TABLES[name]
        m, expected = reference_boundary(table.mul, table.identity, d)
        assert F2Matrix.from_columns(m.rows, list(oracle._boundary_masks(table, d))) == m
        assert f2_rank_kernel(m) == expected, (name, d)
        assert m.rank() == expected[0], (name, d)
        if m.cols <= 2500:  # the scan costs seconds on the widest matrices
            assert kernel_by_scanning_pivot_rows(m) == expected, (name, d)


def test_bar_space_matches_rref_route():
    for name, d in BAR_CASES:
        space, reference = both_spaces(BAR_TABLES[name], d)
        assert space.words == reference.words, (name, d)
        assert space.reps == reference.reps, (name, d)
        assert space.dim == reference.dim


@functools.lru_cache(maxsize=None)
def words_above(name, degree):
    return oracle.bar_words(BAR_TABLES[name], degree + 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BAR_CASES), st.data())
def test_class_coordinates_match_rref_route(case, data):
    # a random sum of representatives plus random boundaries has the same
    # coordinates on both routes: the picked representatives
    name, d = case
    table = BAR_TABLES[name]
    space, reference = both_spaces(table, d)
    picks = data.draw(st.lists(st.booleans(), min_size=space.dim, max_size=space.dim))
    above = words_above(name, d)
    boundary_words = data.draw(st.frozensets(st.sampled_from(above), max_size=4)) if above else ()
    mask = space.chain_to_mask(bar_boundary_chain(table, frozenset(boundary_words)))
    expected = 0
    for j, picked in enumerate(picks):
        if picked:
            mask ^= space.reps[j]
            expected |= 1 << j
    chain = space.mask_to_chain(mask)
    assert space.class_coordinates(chain) == reference.class_coordinates(chain) == expected


def test_bar_homology_matches_rref_route():
    # and matches bar_space in each degree, whose spans it shares
    for name, table in BAR_TABLES.items():
        top = bar_degrees(table)[-1]
        result = bar_homology(table, top, method="bar")
        assert len(result.dims) == len(result.reps) == top + 1, name
        for d in range(top + 1):
            space, reference = both_spaces(table, d)
            assert result.dims[d] == space.dim == reference.dim, (name, d)
            assert result.reps[d] == space.rep_chains() == reference.rep_chains(), (name, d)


def test_transfer_and_induced_maps_match_rref_route(monkeypatch):
    # the maps read only the spaces, so each route's spaces are served
    # from the cache in place of oracle.bar_space
    for table, sub in SUBGROUPS:
        sub_table, _ = table.subgroup(sub)
        degrees = [d for d in bar_degrees(table) if d in bar_degrees(sub_table)]
        maps = {}
        for route in (0, 1):
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "bar_space", lambda t, d: both_spaces(t, d)[route])
                maps[route] = [(transfer_map(table, sub, d), induced_map(table, sub, d)) for d in degrees]
        assert maps[0] == maps[1], sub


def test_transfer_map_builds_each_space_once(monkeypatch):
    built = []

    def counting(table, degree):
        built.append((table, degree))
        return bar_space(table, degree)

    monkeypatch.setattr(oracle, "bar_space", counting)
    for _ in range(3):
        for table, sub in SUBGROUPS:
            # an equal table built from fresh rows on every pass
            fresh = FiniteGroupTable(tuple(tuple(row) for row in table.mul), table.identity)
            for d in (1, 2):
                transfer_map(fresh, sub, d)
    # ambient and subgroup tables: v2, d6, d10, {e}, Z/2, Z/3, Z/5 in two degrees
    assert len(built) == len(set(built)) == 14


def test_step_tables_are_built_once_per_table_and_embedding(monkeypatch):
    readouts = [
        (FiniteGroupTable.z2(), CoefficientClass.unit(Z2Power(1))),
        (FiniteGroupTable.dihedral(1), CoefficientClass.unit(Dihedral(1))),
        (FiniteGroupTable.dihedral(2), CoefficientClass.unit(Dihedral(2))),
    ]
    a = DPClass.monomial(V1, (2,))
    for table, unit in readouts:
        compsum_alpha(table, 1, a, unit)  # the orbit plans build their own steps
    built = []
    real = oracle._transfer_steps

    def counting(table, sub_embedding, hom):
        built.append((table, tuple(sub_embedding)))
        return real(table, sub_embedding, hom)

    monkeypatch.setattr(oracle, "_transfer_steps", counting)
    oracle._subgroup_steps.cache_clear()
    for _ in range(3):
        for table, sub in SUBGROUPS:
            fresh = FiniteGroupTable(tuple(tuple(row) for row in table.mul), table.identity)
            for d in (1, 2):
                transfer_map(fresh, sub, d)
        for table, unit in readouts:
            fresh = FiniteGroupTable(tuple(tuple(row) for row in table.mul), table.identity)
            assert compsum_alpha(fresh, 1, a, unit) == alpha(unit.group, 1, a, unit)
    expected = {(table, table.subgroup(sub)[1]) for table, sub in SUBGROUPS}
    # the readout transfers to the reflection subgroup, already a key for D6 and D10
    expected |= {(t, (t.identity, t._structure[1])) for t, _ in readouts}
    assert len(built) == len(set(built)) == len(expected) == 18
    assert set(built) == expected


def test_reused_spaces_give_the_matrices_of_fresh_spaces():
    for table, sub in SUBGROUPS:
        sub_table, embedding = table.subgroup(sub)
        for d in range(4 if table.order < 10 else 3):
            ambient, subspace = bar_space(table, d), bar_space(sub_table, d)
            columns = [
                subspace.class_coordinates(transfer_chain(table, embedding, rep))
                for rep in ambient.rep_chains()
            ]
            fresh = F2Matrix.from_columns(subspace.dim, columns)
            # the first call may build the spaces, the second reads them
            assert transfer_map(table, sub, d) == transfer_map(table, sub, d) == fresh, (sub, d)


def test_an_oversized_transfer_caches_nothing():
    d10 = FiniteGroupTable.dihedral(2)
    oracle._reused_space.cache_clear()
    for _ in range(2):
        with pytest.raises(SizeBoundError):
            transfer_map(d10, [0, 5], 7)
    info = oracle._reused_space.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 2)


def test_oracle_check_builds_each_battery_space_once(monkeypatch, capsys):
    built = []

    def counting(table, degree):
        built.append((table, degree))
        return bar_space(table, degree)

    monkeypatch.setattr(cli, "bar_space", counting)
    for _ in range(2):
        assert cli.main(["--json", "oracle-check"]) == 0
    assert built == [(FiniteGroupTable.dihedral(1), d) for d in range(4)]
    assert all(json.loads(line)["pass"] for line in capsys.readouterr().out.splitlines())


def capture_cycle_counts(monkeypatch):
    """The cycle count each ``bar_space`` call passes to ``_homology_space``."""
    counts = []
    real = oracle._homology_space

    def capturing(table, degree, kernel, cycles, boundaries):
        counts.append(cycles)
        return real(table, degree, kernel, cycles, boundaries)

    monkeypatch.setattr(oracle, "_homology_space", capturing)
    return counts


def test_cycle_count_is_the_dimension_of_the_kernel(monkeypatch):
    counts = capture_cycle_counts(monkeypatch)
    trivial = FiniteGroupTable.elementary_abelian(0)
    cases = [(BAR_TABLES[name], d) for name, d in BAR_CASES] + [(trivial, d) for d in range(3)]
    for table, d in cases:
        bar_space(table, d)
        full = list(oracle._kernel(table, d))
        assert counts.pop() == len(full), (table, d)
    assert [bar_space(trivial, d).dim for d in range(3)] == [1, 0, 0]


def count_pulled_masks(monkeypatch):
    """Per degree, the masks pulled from ``_boundary_masks`` streams of
    every word (the kernel's columns), as opposed to generator-started ones."""
    pulled = collections.Counter()
    real = oracle._boundary_masks

    def counting(table, degree, first_letters=None):
        for mask in real(table, degree, first_letters):
            if first_letters is None:
                pulled[degree] += 1
            yield mask

    monkeypatch.setattr(oracle, "_boundary_masks", counting)
    return pulled


def test_bar_space_stops_the_elimination_at_the_last_representative(monkeypatch):
    pulled = count_pulled_masks(monkeypatch)
    space = bar_space(FiniteGroupTable.dihedral(2), 3)
    assert space.dim == 1
    assert 0 < pulled[3] < 9**3
    assert set(pulled) == {3}


def test_a_space_without_homology_eliminates_no_column(monkeypatch):
    # C5 has odd order, so its mod-2 homology is zero above degree 0
    pulled = count_pulled_masks(monkeypatch)
    c5 = BAR_TABLES["c5 in d10"]
    assert [bar_space(c5, d).dim for d in bar_degrees(c5)] == [1] + [0] * (len(bar_degrees(c5)) - 1)
    assert pulled == {0: 1}


def test_bar_space_size_guard_precedes_enumeration(monkeypatch):
    def enumerated(*args):
        raise AssertionError("bar words were enumerated")

    monkeypatch.setattr(oracle, "_boundary_masks", enumerated)
    monkeypatch.setattr(oracle, "bar_words", enumerated)
    d10 = FiniteGroupTable.dihedral(2)
    # 9**8 words one degree above exceed the bound; 9**7 below it do not
    assert 9**7 <= oracle.SIZE_BOUND < 9**8
    with pytest.raises(SizeBoundError):
        bar_space(d10, 7)
    with pytest.raises(SizeBoundError):
        bar_homology(d10, 7, method="bar")


# ---------------------------------------------------------------------------
# boundaries spanned from the generators of the table


def closure(table, generators):
    """The elements e s_1 ... s_m with each s_i in ``generators``."""
    reached = {table.identity}
    frontier = [table.identity]
    while frontier:
        x = frontier.pop()
        for s in generators:
            y = table.mul[x][s]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def boundary_rank(table, degree, first_letters=None):
    solver = SpanSolver()
    for mask in oracle._boundary_masks(table, degree, first_letters):
        solver.add_modulo(mask)
    return solver.rank


def test_table_generators_generate_the_table():
    for name, table in BAR_TABLES.items():
        assert table.identity not in table.generators, name
        assert list(table.generators) == sorted(set(table.generators)), name
        assert len(closure(table, table.generators)) == table.order, name


def test_generator_boundaries_span_every_boundary():
    for name, d in BAR_CASES:
        table = BAR_TABLES[name]
        span = oracle._boundary_span(table, d + 1)
        full = SpanSolver()
        for mask in oracle._boundary_masks(table, d + 1):
            assert span_contains(span, mask), (name, d)
            full.add_modulo(mask)
        assert span.rank == full.rank, (name, d)


def test_a_set_missing_a_generator_spans_less():
    # dropping one generator either still generates the table, and then
    # spans every boundary too, or generates a proper subgroup, and then
    # spans strictly less at some degree; z2 is left out because all its
    # normalized boundaries are zero
    proper = 0
    for name, table in BAR_TABLES.items():
        if name == "z2":
            continue
        full_ranks = [boundary_rank(table, d + 1) for d in bar_degrees(table)]
        for s in table.generators:
            fewer = [g for g in table.generators if g != s]
            ranks = [
                (boundary_rank(table, d + 1, fewer), full)
                for d, full in zip(bar_degrees(table), full_ranks)
            ]
            if len(closure(table, fewer)) == table.order:
                assert all(r == full for r, full in ranks), (name, s)
            else:
                proper += 1
                assert all(r <= full for r, full in ranks), (name, s)
                assert any(r < full for r, full in ranks), (name, s)
    assert proper >= 10


def test_restricted_boundary_stream_is_the_full_stream_filtered():
    for name, table in BAR_TABLES.items():
        letters = [g for g in range(table.order) if g != table.identity]
        subsets = [table.generators, letters[:1], letters[-1:], letters[1::2], letters[::-1], []]
        for degree in range(1, bar_degrees(table)[-1] + 2):
            words = oracle.bar_words(table, degree)
            full = list(oracle._boundary_masks(table, degree))
            for firsts in subsets:
                expected = [m for w, m in zip(words, full) if w[0] in firsts]
                restricted = list(oracle._boundary_masks(table, degree, firsts))
                assert restricted == expected, (name, degree, firsts)
