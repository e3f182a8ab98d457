import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgops.f2core import F2Matrix, binom_parity
from bgops.gradedalg import DPClass, GeneratorSet, dp_multiply, linear_push
from bgops.operations import (
    A_count,
    CoefficientClass,
    Dihedral,
    ProductGroup,
    SU2,
    Torus,
    UnsupportedOperationError,
    Z2Power,
    alpha,
    alpha_z2power_bruteforce,
    coefficient_basis,
    composite_op,
    format_group,
    group_dim,
    make_product,
    nontrivial_witness,
    parse_group,
    phi_sigma,
)
from bgops.symhomology import CircWord, SymClass

V1 = GeneratorSet.v_basis(1)
V2 = GeneratorSet.v_basis(2)
Z2 = Z2Power(1)


def mono(gens, *exps):
    return DPClass.monomial(gens, exps)


def dp_coeff(group, *exps):
    from bgops.operations import factor_generators

    gens = factor_generators(group)
    return CoefficientClass.from_dp(group, DPClass.monomial(gens, exps))


def unit(group):
    return CoefficientClass.unit(group)


# ---------------------------------------------------------------------------
# group descriptors


def test_group_dims_and_flattening():
    assert group_dim(Z2Power(3)) == 0
    assert group_dim(Dihedral(2)) == 0
    assert group_dim(Torus(4)) == 4
    assert group_dim(SU2()) == 3
    prod = make_product([Torus(1), make_product([SU2(), Z2Power(1)])])
    assert isinstance(prod, ProductGroup)
    assert prod.factors == (Torus(1), SU2(), Z2Power(1))
    assert group_dim(prod) == 4


def test_group_spec_round_trip():
    for g in (
        Z2Power(1),
        Z2Power(3),
        Dihedral(0),
        Dihedral(1),
        Torus(2),
        SU2(),
        make_product([Z2Power(1), Torus(1)]),
        make_product([SU2(), Dihedral(1), Z2Power(2)]),
    ):
        assert parse_group(format_group(g)) == g
    assert parse_group("d6") == Dihedral(1)
    assert parse_group("(z2^1)x(t^1)") == make_product([Z2Power(1), Torus(1)])
    with pytest.raises(ValueError):
        parse_group("d8")  # order not 2 mod 4
    with pytest.raises(ValueError):
        parse_group("q8")


# ---------------------------------------------------------------------------
# alpha examples


def test_alpha_z2_examples():
    assert alpha(Z2, 1, mono(V1, 3), dp_coeff(Z2, 4)) == dp_coeff(Z2, 7)
    assert alpha(Z2, 2, mono(V2, 1, 2), unit(Z2)) == dp_coeff(Z2, 3)
    assert alpha(Z2, 2, mono(V2, 0, 5), unit(Z2)).is_zero()


def test_alpha_z2l_example():
    g = Z2Power(2)
    out = alpha(g, 1, mono(V1, 3), unit(g))
    gens = GeneratorSet.z2_basis(2)
    assert out == CoefficientClass.from_dp(
        g, DPClass.from_terms(gens, [(1, 2), (2, 1)])
    )


def test_alpha_torus_examples():
    t = Torus(1)
    assert alpha(t, 1, mono(V1, 1), unit(t)) == dp_coeff(t, 1)
    assert alpha(t, 1, mono(V1, 2), unit(t)).is_zero()
    out = alpha(t, 2, mono(V2, 1, 2), unit(t))
    assert out == dp_coeff(t, 3)  # 1 + C(5,2) = 11 odd; beta(x^[6]) = y^[3]

    t2 = Torus(2)
    out = alpha(t2, 1, mono(V1, 2), unit(t2))
    gens = GeneratorSet.torus_basis(2)
    assert out == CoefficientClass.from_dp(t2, DPClass.monomial(gens, (1, 1)))


def test_alpha_su2_examples():
    g = SU2()
    assert alpha(g, 1, mono(V1, 1), unit(g)) == dp_coeff(g, 1)
    assert alpha(g, 1, mono(V1, 2), unit(g)).is_zero()


def test_alpha_dihedral_matches_z2_on_transported_basis():
    d = Dihedral(3)
    for n in range(6):
        for m in range(4):
            lhs = alpha(d, 1, mono(V1, n), dp_coeff(d, m))
            rhs = alpha(Z2, 1, mono(V1, n), dp_coeff(Z2, m))
            assert lhs.as_dp() == rhs.as_dp()


def test_alpha_k0_is_identity():
    v0 = GeneratorSet.v_basis(0)
    one = DPClass.unit(v0)
    for g in (Z2, Torus(1), SU2(), Dihedral(1), make_product([Z2, SU2()])):
        b = unit(g)
        assert alpha(g, 0, one, b) == b
        assert alpha(g, 0, DPClass.zero(v0), b).is_zero()


def test_alpha_unsupported_pairs_raise():
    with pytest.raises(UnsupportedOperationError):
        alpha(Torus(1), 3, mono(GeneratorSet.v_basis(3), 1, 1, 1), unit(Torus(1)))
    with pytest.raises(UnsupportedOperationError):
        alpha(SU2(), 2, mono(V2, 1, 1), unit(SU2()))
    with pytest.raises(UnsupportedOperationError):
        prod = make_product([Z2, SU2()])
        alpha(prod, 2, mono(V2, 1, 1), unit(prod))


def test_alpha_squares_vanish():
    # equal exponents kill the operation over every elementary abelian target
    for l in (1, 2):
        g = Z2Power(l)
        for n in (1, 2, 3):
            a = mono(V2, n, n)
            assert alpha(g, 2, a, unit(g)).is_zero()
        a3 = mono(GeneratorSet.v_basis(3), 1, 2, 1)
        assert alpha(g, 3, a3, unit(g)).is_zero()


def test_alpha_degree_contract():
    rng = random.Random(99)
    cases = [
        (Z2, 1),
        (Z2, 2),
        (Z2Power(2), 1),
        (Z2Power(2), 2),
        (Dihedral(1), 2),
        (Torus(1), 1),
        (Torus(1), 2),
        (Torus(2), 1),
        (SU2(), 1),
        (make_product([Z2, Torus(1)]), 1),
    ]
    for g, k in cases:
        vg = GeneratorSet.v_basis(k)
        shift = group_dim(g) * ((1 << k) - 1)
        for _ in range(10):
            a = DPClass.monomial(vg, tuple(rng.randrange(5) for _ in range(k)))
            for d in range(0, 5):
                for b in coefficient_basis(g, d):
                    out = alpha(g, k, a, b)
                    if not out.is_zero():
                        expected = a.homogeneous_degree() + d + shift
                        assert out.homogeneous_degree() == expected, (g, k)


# ---------------------------------------------------------------------------
# A_count


def a_count_exhaustive(row_sums, col_sums):
    """Brute-force oracle: enumerate positive integer matrices directly."""
    k, l = len(row_sums), len(col_sums)
    total = 0
    ranges = [range(1, max(col_sums) + 1) for _ in range(k * l)]
    for entries in itertools.product(*ranges):
        matrix = [entries[i * l : (i + 1) * l] for i in range(k)]
        if any(sum(row) != r for row, r in zip(matrix, row_sums)):
            continue
        ok = True
        for j in range(l):
            col = [matrix[i][j] for i in range(k)]
            if sum(col) != col_sums[j]:
                ok = False
                break
            seen = 0
            for v in col:
                if seen & v:
                    ok = False
                    break
                seen |= v
            if not ok:
                break
        if ok:
            total += 1
    return total


def test_a_count_examples():
    assert A_count((3,), (1, 2), "exact") == 1
    for n in (1, 2, 7):
        assert A_count((n,), (n,), "exact") == 1
    assert A_count((6,), (2, 4), "exact") == 1
    assert A_count((1, 2), (3, 7), "exact") == 0  # mismatched totals
    with pytest.raises(ValueError):
        A_count((3,), (1, 2), "approx")


def test_a_count_against_exhaustive():
    cases = [
        ((3,), (1, 2)),
        ((3, 4), (3, 4)),
        ((3, 4), (5, 2)),
        ((5, 2), (3, 4)),
        ((1, 2, 4), (7,)),
        ((3, 5), (2, 2, 4)),
        ((6, 1), (3, 4)),
    ]
    for rows, cols in cases:
        assert A_count(rows, cols, "exact") == a_count_exhaustive(rows, cols), (rows, cols)
        assert A_count(rows, cols, "parity") == a_count_exhaustive(rows, cols) & 1


def a_count_by_columns(row_sums, col_sums, mode="parity"):
    """The earlier A_count: a DP over columns whose state is the remaining
    row sums, trying all k^popcount row assignments of each column's bits.
    Oracle for the digit DP."""
    k = len(row_sums)
    if sum(row_sums) != sum(col_sums):
        return 0
    states = {tuple(row_sums): 1}
    for e in col_sums:
        bits = [1 << i for i in range(e.bit_length()) if (e >> i) & 1]
        if len(bits) < k:
            return 0  # k positive entries need k distinct powers of two
        nxt = {}
        for state, count in states.items():
            for assign in itertools.product(range(k), repeat=len(bits)):
                if len(set(assign)) < k:
                    continue  # some row would get entry 0
                portions = [0] * k
                for bit, row in zip(bits, assign):
                    portions[row] += bit
                new_state = tuple(s - p for s, p in zip(state, portions))
                if any(s < 0 for s in new_state):
                    continue
                nxt[new_state] = nxt.get(new_state, 0) + count
        states = nxt
        if not states:
            return 0
    total = states.get((0,) * k, 0)
    return total if mode == "exact" else total & 1


@st.composite
def a_count_cases(draw):
    """(rows, cols, row order, column order) with k <= 3, l <= 4, sums <= 60.

    Half of the cases take their sums from a matrix whose columns split
    the bits of their sums among the rows, a quarter from a matrix of
    arbitrary entries (the totals agree in both), and the rest draw the
    sums independently, so they mostly disagree."""
    k = draw(st.integers(1, 3))
    l = draw(st.integers(1, 4))
    source = draw(st.integers(0, 3))
    if source >= 2:
        matrix = [[0] * l for _ in range(k)]
        top = 60 // l
        # sums with at least k bits can give every row a positive entry
        dense = [c for c in range(top + 1) if bin(c).count("1") >= k]
        for j in range(l):
            c = draw(st.one_of(st.integers(0, top), st.sampled_from(dense)))
            bits = [1 << i for i in range(c.bit_length()) if (c >> i) & 1]
            # the first bits go to distinct rows, so entries are mostly positive
            owners = draw(st.permutations(range(k)))
            owners += draw(st.lists(st.integers(0, k - 1), min_size=len(bits), max_size=len(bits)))
            for bit, r in zip(bits, owners):
                matrix[r][j] += bit
        rows = tuple(map(sum, matrix))
        cols = tuple(map(sum, zip(*matrix)))
    elif source == 1:
        top = 60 // max(k, l)
        entries = draw(st.lists(st.integers(0, top), min_size=k * l, max_size=k * l))
        rows = tuple(sum(entries[r * l : (r + 1) * l]) for r in range(k))
        cols = tuple(sum(entries[j::l]) for j in range(l))
    else:
        rows = tuple(draw(st.lists(st.integers(0, 60), min_size=k, max_size=k)))
        cols = tuple(draw(st.lists(st.integers(0, 60), min_size=l, max_size=l)))
    return rows, cols, draw(st.permutations(range(k))), draw(st.permutations(range(l)))


@settings(max_examples=150, deadline=None)
@given(a_count_cases())
def test_a_count_digit_dp_matches_column_enumerator(case):
    rows, cols, row_order, col_order = case
    exact = A_count(rows, cols, "exact")
    assert exact == a_count_by_columns(rows, cols, "exact")
    assert A_count(rows, cols, "parity") == a_count_by_columns(rows, cols, "parity")
    permuted_rows = tuple(rows[r] for r in row_order)
    permuted_cols = tuple(cols[j] for j in col_order)
    assert A_count(permuted_rows, permuted_cols, "exact") == exact


def test_a_count_wide_sums():
    # the column enumerator needs over ten seconds for the first of these
    assert A_count((31,) * 4, (31,) * 4, "exact") == 83520
    assert A_count((63,) * 4, (63,) * 4, "exact") == 7467840


def test_a_count_doubling_exact():
    for k in (1, 2):
        for rows in itertools.product(range(1, 9), repeat=k):
            if sum(rows) > 16:
                continue
            for l in (1, 2):
                for cols in itertools.product(range(1, sum(rows) + 1), repeat=l):
                    if sum(cols) != sum(rows):
                        continue
                    doubled = A_count(
                        tuple(2 * r for r in rows), tuple(2 * c for c in cols), "exact"
                    )
                    assert doubled == A_count(rows, cols, "exact")


# ---------------------------------------------------------------------------
# fast path vs brute force, product consistency


def test_fast_vs_bruteforce_small():
    for l in (1, 2, 3):
        g = Z2Power(l)
        b = unit(g)
        for k in (1, 2):
            vg = GeneratorSet.v_basis(k)
            for exps in itertools.product(range(5), repeat=k):
                if sum(exps) > 7:
                    continue
                a = DPClass.monomial(vg, exps)
                assert alpha(g, k, a, b) == alpha_z2power_bruteforce(g, k, a, b), (l, k, exps)


def tensor_of(b1, b2):
    return CoefficientClass.tensor(b1, b2)


def test_product_path_matches_direct_dispatch():
    g2 = Z2Power(2)
    prod = make_product([Z2, Z2])
    gens2 = GeneratorSet.z2_basis(2)
    for k in (1, 2):
        vg = GeneratorSet.v_basis(k)
        for exps in itertools.product(range(4), repeat=k):
            if sum(exps) > 6:
                continue
            a = DPClass.monomial(vg, exps)
            for m1 in range(3):
                for m2 in range(3):
                    direct = alpha(
                        g2,
                        k,
                        a,
                        CoefficientClass.from_dp(g2, DPClass.monomial(gens2, (m1, m2))),
                    )
                    split = alpha(
                        prod, k, a, tensor_of(dp_coeff(Z2, m1), dp_coeff(Z2, m2))
                    )
                    direct_terms = {t[0] for t in direct.terms}
                    split_terms = {(t[0][0], t[1][0]) for t in split.terms}
                    assert direct_terms == split_terms, (k, exps, m1, m2)


# ---------------------------------------------------------------------------
# telescoping identity


def test_telescoping_identity():
    for n1 in range(20):
        for n2 in range(20):
            lhs = sum(math.comb(n1 + n2 + 3, i) for i in range(1, n1 + 2)) % 2
            rhs = (1 + math.comb(n1 + n2 + 2, n1 + 1)) % 2
            assert lhs == rhs


# ---------------------------------------------------------------------------
# phi and composites


def test_phi_examples():
    b4 = dp_coeff(Z2, 4)
    assert phi_sigma(Z2, 2, SymClass.single(CircWord.of(1)), b4) == dp_coeff(Z2, 5)

    # n not a power of two: the only weight-3 terms are decomposable anyway
    w3 = SymClass.from_terms([[CircWord.of(1), CircWord.of()]])
    assert phi_sigma(Z2, 3, w3, b4).is_zero()

    dec = SymClass.from_terms([[CircWord.of(1), CircWord.of(3)]])
    assert phi_sigma(Z2, 4, dec, unit(Z2)).is_zero()

    one_word = SymClass.single(CircWord.of())
    assert phi_sigma(Z2, 1, one_word, b4) == b4

    with pytest.raises(ValueError):
        phi_sigma(Z2, 4, SymClass.single(CircWord.of(1)), b4)  # weight mismatch


@pytest.mark.parametrize(
    "n,a",
    [
        # not a power of two: every term vanishes before any multiplier is formed
        (3, SymClass.from_terms([[CircWord.of(1), CircWord.of()]])),
        # every term decomposable
        (4, SymClass.from_terms([[CircWord.of(1), CircWord.of(3)]])),
    ],
)
def test_weight_operations_reject_a_class_over_another_group(n, a):
    b = unit(Torus(1))
    message = "coefficient class group does not match the descriptor"
    with pytest.raises(ValueError, match=message):
        phi_sigma(Z2, n, a, b)
    with pytest.raises(ValueError, match=message):
        composite_op(Z2, [(n, a)], b)


def test_phi_accepts_non_generator_words():
    # E_2 o E_5 is not of generator shape but has the preimage x1^[2] x2^[5]
    word = SymClass.single(CircWord.of(2, 5))
    out = phi_sigma(Z2, 4, word, unit(Z2))
    assert out == dp_coeff(Z2, 7)


def test_weight_128_operation_on_an_indecomposable_word():
    # E_1 o E_2 o E_4 o ... o E_64 has weight 2^7 and the preimage
    # x1^[1] x2^[2] ... x7^[64], whose rank-7 multiplier is x^[127]
    word = CircWord.of(1, 2, 4, 8, 16, 32, 64)
    out = phi_sigma(Z2, 128, SymClass.single(word), unit(Z2))
    assert out == dp_coeff(Z2, 127)
    preimage = DPClass.monomial(GeneratorSet.v_basis(7), word.subscripts)
    assert out == alpha(Z2, 7, preimage, unit(Z2))


def test_composite_examples():
    e1 = SymClass.single(CircWord.of(1))
    e2 = SymClass.single(CircWord.of(2))
    assert composite_op(Z2, [(2, e1), (2, e2)], unit(Z2)) == dp_coeff(Z2, 3)
    e1e2 = SymClass.single(CircWord.of(1, 2))
    assert composite_op(Z2, [(4, e1e2)], unit(Z2)) == dp_coeff(Z2, 3)
    assert composite_op(Z2, [(2, e1), (2, e1)], unit(Z2)).is_zero()


def test_composite_order_is_right_to_left():
    # starting from u_0 over SU(2), only the rightmost factor acts first
    e1 = SymClass.single(CircWord.of(1))
    e5 = SymClass.single(CircWord.of(5))
    g = SU2()
    # x^[5] then x^[1]: 5 = 1 mod 4 sends u_0 to u_2, then 1 mod 4 sends u_2 to u_3
    out = composite_op(g, [(2, e1), (2, e5)], unit(g))
    assert out == dp_coeff(g, 3)


# ---------------------------------------------------------------------------
# GL invariance


def invertible_2x2():
    mats = []
    for bits in range(16):
        rows = (bits & 3, bits >> 2)
        m = F2Matrix(2, 2, rows)
        if m.rank() == 2:
            mats.append(m)
    return mats


def test_gl_invariance_rank_two():
    mats = invertible_2x2()
    assert len(mats) == 6
    for exps in itertools.product(range(8), repeat=2):
        if sum(exps) > 10:
            continue
        a = DPClass.monomial(V2, exps)
        for b_deg in range(3):
            for b in coefficient_basis(Z2, b_deg):
                base = alpha(Z2, 2, a, b)
                for g in mats:
                    moved = linear_push(g, a)
                    assert alpha(Z2, 2, moved, b) == base, (exps, g)


# ---------------------------------------------------------------------------
# witness search


def test_witness_examples():
    res = nontrivial_witness(Z2, 2, mono(V2, 1, 2))
    assert res.witness == unit(Z2)
    res = nontrivial_witness(Z2, 2, mono(V2, 1, 3))
    assert res.witness is None and res.certified_trivial
    res = nontrivial_witness(SU2(), 1, mono(V1, 5))
    assert res.witness == unit(SU2())
    res = nontrivial_witness(SU2(), 1, mono(V1, 4))
    assert res.witness is None and res.certified_trivial
    res = nontrivial_witness(Torus(1), 1, mono(V1, 3))
    assert res.witness == unit(Torus(1))
    res = nontrivial_witness(Torus(1), 1, mono(V1, 2))
    assert res.witness is None and res.certified_trivial


def test_witness_search_without_detector():
    # x + x^[2] acts nontrivially on the unit
    a = DPClass.from_terms(V1, [(1,), (2,)])
    res = nontrivial_witness(Z2, 1, a)
    assert res.witness is not None
    # torus k=2: the unit is the witness for x1 x2^[2]
    res = nontrivial_witness(Torus(1), 2, mono(V2, 1, 2))
    assert res.witness == unit(Torus(1))
    with pytest.raises(UnsupportedOperationError):
        nontrivial_witness(SU2(), 2, mono(V2, 1, 1))


def test_witness_respects_explicit_bound():
    # the search never leaves degree 0: x^[2] pairs with the unit already,
    # so the unit is the witness
    res = nontrivial_witness(Z2, 1, mono(V1, 2))
    assert res.witness == unit(Z2)
    assert not alpha(Z2, 1, mono(V1, 2), unit(Z2)).is_zero()


def test_three_factor_product_consistency():
    g3 = Z2Power(3)
    prod3 = make_product([Z2, Z2, Z2])
    for k in (1, 2):
        vg = GeneratorSet.v_basis(k)
        for exps in itertools.product(range(5), repeat=k):
            if sum(exps) > 7:
                continue
            a = DPClass.monomial(vg, exps)
            direct = alpha(g3, k, a, unit(g3))
            split = alpha(prod3, k, a, unit(prod3))
            direct_terms = {t[0] for t in direct.terms}
            split_terms = {tuple(m[0] for m in t) for t in split.terms}
            assert direct_terms == split_terms, (k, exps)


def test_witness_inconclusive_path():
    # over a rank-2 target, a row sum below the rank kills the operation
    # identically, and the evaluation on the unit proves it
    g = Z2Power(2)
    res = nontrivial_witness(g, 2, mono(V2, 1, 2))
    assert res.witness is None
    assert res.certified_trivial
    for d in range(5):
        for b in coefficient_basis(g, d):
            assert alpha(g, 2, mono(V2, 1, 2), b).is_zero()


def test_alpha_group_mismatch_errors():
    with pytest.raises(ValueError):
        alpha(Z2, 1, mono(V1, 1), unit(Torus(1)))
    with pytest.raises(ValueError):
        alpha(Z2, 2, mono(V1, 1), unit(Z2))  # wrong source rank
    with pytest.raises(ValueError):
        alpha_z2power_bruteforce(Z2Power(2), 1, mono(V1, 1), unit(Z2))


def test_gl_invariance_rank_three():
    # all 168 invertible 3x3 matrices over GF(2); well-definedness of the
    # evaluation through canonical preimages at rank 3
    mats = [
        F2Matrix(3, 3, rows)
        for rows in itertools.product(range(8), repeat=3)
        if F2Matrix(3, 3, rows).rank() == 3
    ]
    assert len(mats) == 168
    v3 = GeneratorSet.v_basis(3)
    b = unit(Z2)
    for exps in [(1, 2, 4), (1, 1, 2), (1, 2, 3), (2, 2, 2)]:
        a = DPClass.monomial(v3, exps)
        base = alpha(Z2, 3, a, b)
        for g in mats:
            assert alpha(Z2, 3, linear_push(g, a), b) == base, (exps, g.data)


def test_nontriviality_extends_by_large_doubled_exponents():
    # appending an exponent 2^s * r with r >= l and 2^s beyond the previous
    # total preserves nontriviality of the elementary abelian operation
    for l in (1, 2):
        g = Z2Power(l)
        bases = [(2,), (3,), (2, 5)] if l == 1 else [(2,), (3,), (2, 4)]
        for base in bases:
            k = len(base)
            res = nontrivial_witness(g, k, DPClass.monomial(GeneratorSet.v_basis(k), base))
            assert res.witness is not None, (l, base)
            total = sum(base)
            s = total.bit_length()
            for r in (l, l + 1):
                ext = base + ((1 << s) * r,)
                res2 = nontrivial_witness(
                    g, k + 1, DPClass.monomial(GeneratorSet.v_basis(k + 1), ext)
                )
                assert res2.witness is not None, (l, base, ext)


def test_coefficient_class_rejects_bad_terms():
    pair = ProductGroup((Z2Power(2), SU2()))
    good = {((i, 1), (i,)) for i in range(5)}
    with pytest.raises(ValueError, match="tensor length does not match factor count"):
        CoefficientClass(pair, frozenset(good | {((1, 1),)}))
    bad_terms = (
        (Z2Power(2), ((1,),), "bad factor monomial \\(1,\\) for z2\\^2"),
        (Z2Power(1), ((-1,),), "bad factor monomial \\(-1,\\) for z2\\^1"),
        (Z2Power(1), (3,), "bad factor monomial 3 for z2\\^1"),
        (SU2(), ((3, 1),), "bad factor monomial \\(3, 1\\) for su2"),
        (SU2(), (3,), "bad factor monomial 3 for su2"),
        (SU2(), ((-2,),), "bad factor monomial \\(-2,\\) for su2"),
    )
    for g, term, message in bad_terms:
        with pytest.raises(ValueError, match=message):
            CoefficientClass(g, frozenset({term}))
    # one bad monomial among many terms that share the good ones
    for bad in (
        ((0, 1), (-1,)),
        ((2, 3), (-5,)),
        ((7, 7), (-9,)),
        ((0, 1, 2), (1,)),
        ((3,), (4,)),
        ((-1, 2), (0,)),
        ((0, 1), 2),
    ):
        with pytest.raises(ValueError, match="bad factor monomial"):
            CoefficientClass(pair, frozenset(good | {bad}))
    assert len(CoefficientClass(pair, frozenset(good)).terms) == 5
