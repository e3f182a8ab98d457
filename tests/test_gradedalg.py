import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgops import gradedalg
from bgops.f2core import F2Matrix
from bgops.gradedalg import (
    DPClass,
    GeneratorMismatchError,
    GeneratorSet,
    beta_push,
    dp_coproduct,
    dp_multiply,
    linear_push,
    packed_compositions,
    packed_product,
    su2_act,
    unpack_monomials,
)
from references import column, compositions, monomial_product

G1 = GeneratorSet.v_basis(1)
G2 = GeneratorSet.v_basis(2)
TORUS = GeneratorSet.torus_basis(1)
U = GeneratorSet.su2_basis()


def mono(gens, *exps):
    return DPClass.monomial(gens, exps)


def test_multiply_examples():
    assert dp_multiply(mono(G1, 1), mono(G1, 2)) == mono(G1, 3)
    assert dp_multiply(mono(G1, 1), mono(G1, 1)).is_zero()
    a = DPClass.from_terms(G2, [(1, 2), (0, 3)])
    assert dp_multiply(DPClass.unit(G2), a) == a
    assert dp_multiply(mono(TORUS, 2), mono(TORUS, 4)) == mono(TORUS, 6)  # C(6,2) odd


def test_multiply_rejects_mismatched_generators():
    with pytest.raises(GeneratorMismatchError):
        dp_multiply(mono(G1, 1), mono(TORUS, 1))


def random_class(rng, gens, max_exp=15, max_terms=3):
    terms = [
        tuple(rng.randrange(max_exp + 1) for _ in gens.names)
        for _ in range(rng.randrange(1, max_terms + 1))
    ]
    return DPClass.from_terms(gens, terms)


def test_multiply_commutative_associative():
    rng = random.Random(2024)
    for gens in (G1, G2, GeneratorSet.v_basis(3)):
        for _ in range(40):
            a = random_class(rng, gens, max_exp=30)
            b = random_class(rng, gens, max_exp=30)
            c = random_class(rng, gens, max_exp=30)
            assert dp_multiply(a, b) == dp_multiply(b, a)
            assert dp_multiply(dp_multiply(a, b), c) == dp_multiply(a, dp_multiply(b, c))


def test_coproduct_examples():
    assert dp_coproduct((2,)) == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]
    assert dp_coproduct(()) == [((), ())]
    pairs = dp_coproduct((1, 1))
    assert len(pairs) == 4
    assert set(pairs) == {
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, 1)),
        ((1, 1), (0, 0)),
    }


def coproduct_of_class(a):
    """Coproduct extended linearly, as a parity dict of monomial pairs."""
    out = {}
    for t in a.terms:
        for pair in dp_coproduct(t):
            out[pair] = out.get(pair, 0) ^ 1
    return {k for k, v in out.items() if v}


def test_coproduct_is_coassociative():
    rng = random.Random(5)
    for _ in range(20):
        mono_exp = tuple(rng.randrange(5) for _ in range(2))
        left_first = {}
        right_first = {}
        for (a, rest) in dp_coproduct(mono_exp):
            for (b, c) in dp_coproduct(rest):
                left_first[(a, b, c)] = left_first.get((a, b, c), 0) ^ 1
        for (ab, c) in dp_coproduct(mono_exp):
            for (a, b) in dp_coproduct(ab):
                right_first[(a, b, c)] = right_first.get((a, b, c), 0) ^ 1
        assert left_first == right_first


def test_hopf_compatibility():
    # coproduct of a product = componentwise product of coproducts
    rng = random.Random(17)
    for _ in range(25):
        a = random_class(rng, G2, max_exp=6, max_terms=2)
        b = random_class(rng, G2, max_exp=6, max_terms=2)
        lhs = coproduct_of_class(dp_multiply(a, b))
        rhs = {}
        for (a1, a2) in coproduct_of_class(a):
            for (b1, b2) in coproduct_of_class(b):
                left = dp_multiply(
                    DPClass.monomial(G2, a1), DPClass.monomial(G2, b1)
                )
                right = dp_multiply(
                    DPClass.monomial(G2, a2), DPClass.monomial(G2, b2)
                )
                for lt in left.terms:
                    for rt in right.terms:
                        key = (lt, rt)
                        rhs[key] = rhs.get(key, 0) ^ 1
        assert lhs == {k for k, v in rhs.items() if v}


def test_linear_push_examples():
    diag = F2Matrix.from_rows([[1], [1]])
    target = GeneratorSet.z2_basis(2)
    expected = DPClass.from_terms(target, [(2, 0), (1, 1), (0, 2)])
    assert linear_push(diag, mono(G1, 2)) == expected

    zero = F2Matrix.zeros(2, 1)
    assert linear_push(zero, mono(G1, 3)).is_zero()
    assert linear_push(zero, DPClass.unit(G1)) == DPClass.unit(target)

    fold = F2Matrix.from_rows([[1, 1]])
    assert linear_push(fold, mono(G2, 1, 1)).is_zero()  # x x = C(2,1) x^[2] = 0


def test_linear_push_functorial():
    rng = random.Random(41)
    for _ in range(25):
        k = rng.randrange(1, 4)
        mdim = rng.randrange(1, 4)
        l = rng.randrange(1, 4)
        kl = F2Matrix(mdim, k, tuple(rng.getrandbits(k) for _ in range(mdim)))
        km = F2Matrix(l, mdim, tuple(rng.getrandbits(mdim) for _ in range(l)))
        a = random_class(rng, GeneratorSet.v_basis(k), max_exp=5, max_terms=2)
        via_composite = linear_push(km.matmul(kl), a)
        via_steps = linear_push(km, linear_push(kl, a))
        assert via_composite == via_steps


def test_linear_push_is_ring_map():
    rng = random.Random(43)
    for _ in range(20):
        k = rng.randrange(1, 3)
        l = rng.randrange(1, 4)
        kmat = F2Matrix(l, k, tuple(rng.getrandbits(k) for _ in range(l)))
        gens = GeneratorSet.v_basis(k)
        a = random_class(rng, gens, max_exp=6, max_terms=2)
        b = random_class(rng, gens, max_exp=6, max_terms=2)
        assert linear_push(kmat, dp_multiply(a, b)) == dp_multiply(
            linear_push(kmat, a), linear_push(kmat, b)
        )


def sum_power_by_tuples(rows_mask, n, l):
    """Terms of (sum of t_i over set bits of rows_mask)^[n], as exponent tuples."""
    positions = [i for i in range(l) if (rows_mask >> i) & 1]
    if not positions:
        return set() if n > 0 else {(0,) * l}
    out = set()
    for comp in compositions(n, len(positions)):
        mono = [0] * l
        for pos, c in zip(positions, comp):
            mono[pos] = c
        out.add(tuple(mono))
    return out


def linear_push_by_tuples(k_matrix, a):
    """The route ``linear_push`` took before it packed monomials into ints:
    exponent tuples, multiplied by ``monomial_product``."""
    l = k_matrix.rows
    target = GeneratorSet.z2_basis(l) if l > 0 else GeneratorSet((), ())
    columns = [column(k_matrix, j) for j in range(len(a.gens))]
    acc = set()
    for mono in a.terms:
        partial = {(0,) * l}
        for j, e in enumerate(mono):
            if e == 0:
                continue
            nxt = set()
            for m in partial:
                for n in sum_power_by_tuples(columns[j], e, l):
                    p = monomial_product(m, n)
                    if p is not None:
                        nxt ^= {p}
            partial = nxt
        acc ^= partial
    return DPClass(target, frozenset(acc))


WORK = 2_000  # bound on the product of the factor sizes of one term


@st.composite
def pushes(draw):
    """l, k <= 4, up to three terms, exponents up to 40, each term's
    expansion kept below WORK products."""
    l = draw(st.integers(0, 4))
    k = draw(st.integers(0, 4))
    rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=l, max_size=l))
    matrix = F2Matrix(l, k, tuple(rows))
    weights = [column(matrix, j).bit_count() for j in range(k)]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        work, mono = 1, []
        for w in weights:
            size = (lambda e: math.comb(e + w - 1, w - 1)) if w else (lambda e: 1)
            e = draw(st.integers(0, max(e for e in range(41) if work * size(e) <= WORK)))
            work *= size(e)
            mono.append(e)
        terms.append(tuple(mono))
    return matrix, DPClass.from_terms(GeneratorSet.v_basis(k), terms)


@st.composite
def pushes_at_field_edges(draw):
    """One term of total 2^b - 1 or 2^b, on columns that each hit at most
    one row, so that every factor is one monomial and the output exponents
    reach the edges of a packed field."""
    l = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    row_of = draw(st.lists(st.integers(-1, l - 1), min_size=k, max_size=k))
    data = tuple(sum(1 << j for j, r in enumerate(row_of) if r == i) for i in range(l))
    total = (1 << draw(st.integers(1, 17))) - draw(st.integers(0, 1))
    mono = [0] * k
    if draw(st.booleans()):
        # bitwise disjoint parts, which survive on a shared row
        for bit in range(total.bit_length()):
            if (total >> bit) & 1:
                mono[draw(st.integers(0, k - 1))] |= 1 << bit
    else:
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
        mono = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return F2Matrix(l, k, data), DPClass.monomial(GeneratorSet.v_basis(k), mono)


@settings(max_examples=300, deadline=None)
@given(pushes())
def test_packed_linear_push_matches_tuple_route(case):
    matrix, a = case
    assert linear_push(matrix, a) == linear_push_by_tuples(matrix, a)


@settings(max_examples=200, deadline=None)
@given(pushes_at_field_edges())
def test_packed_linear_push_at_field_edges(case):
    matrix, a = case
    out = linear_push(matrix, a)
    assert out == linear_push_by_tuples(matrix, a)
    assert all(sum(t) == sum(next(iter(a.terms))) for t in out.terms)


@pytest.mark.parametrize("minimum", (0, 1, 2))
def test_packed_compositions_match_compositions(minimum):
    # contiguous and spread fields, fields that n just fills
    for shifts, width in (((0, 6, 12), 6), ((0, 4, 8, 12), 4), ((3, 11), 8), ((5,), 5), ((), 3)):
        for n in range(min(1 << width, 40)):
            packed = packed_compositions(n, shifts, minimum)
            unpacked = [tuple((p >> s) & ((1 << width) - 1) for s in shifts) for p in packed]
            assert len(set(packed)) == len(packed)
            assert sorted(unpacked) == list(compositions(n, len(shifts), minimum)), (shifts, n)
            if minimum == 0:
                assert gradedalg.compositions(n, len(shifts)) == sorted(unpacked), (shifts, n)
            assert all(p == sum(e << s for e, s in zip(u, shifts)) for p, u in zip(packed, unpacked))


def test_packed_product_matches_the_monomial_product():
    rng = random.Random(8)
    width, l = 6, 3
    for _ in range(200):
        factors = [
            sorted({tuple(rng.randint(0, 5) for _ in range(l)) for _ in range(rng.randint(0, 5))})
            for _ in range(rng.randint(0, 4))
        ]
        expected = {(0,) * l}
        for f in factors:
            nxt = set()
            for m in expected:
                for n in f:
                    p = monomial_product(m, n)
                    if p is not None:
                        nxt ^= {p}
            expected = nxt
        packed = [[sum(e << (i * width) for i, e in enumerate(t)) for t in f] for f in factors]
        assert set(unpack_monomials(packed_product(packed), l, width)) == expected


def test_beta_push():
    assert beta_push(mono(G1, 2)) == mono(TORUS, 1)
    assert beta_push(mono(G1, 3)).is_zero()
    assert beta_push(DPClass.unit(G1)) == DPClass.unit(TORUS)
    # ring map
    for n in range(8):
        for m in range(8):
            lhs = beta_push(dp_multiply(mono(G1, n), mono(G1, m)))
            rhs = dp_multiply(beta_push(mono(G1, n)), beta_push(mono(G1, m)))
            assert lhs == rhs


def test_su2_examples():
    assert su2_act(mono(G1, 4), DPClass.unit(U)) == mono(U, 1)
    assert su2_act(mono(G1, 5), DPClass.unit(U)).is_zero()
    assert su2_act(mono(G1, 8), mono(U, 1)) == mono(U, 3)
    with pytest.raises(ValueError, match="SU\\(2\\) generator"):
        su2_act(mono(G1, 4), DPClass.unit(G1))


def test_su2_module_law():
    for n in range(21):
        for m in range(21):
            for j in (0, 1, 2):
                b = mono(U, j)
                nested = su2_act(mono(G1, n), su2_act(mono(G1, m), b))
                flat = DPClass.zero(U)
                product = dp_multiply(mono(G1, n), mono(G1, m))
                flat = su2_act(product, b)
                assert nested == flat, (n, m, j)


def test_dp_json_round_trip():
    a = DPClass.from_terms(G2, [(3, 1), (0, 0)])
    doc = a.to_json()
    assert doc["generators"] == [
        {"name": "x1", "degree": 1},
        {"name": "x2", "degree": 1},
    ]
    assert {"x1": 3, "x2": 1} in doc["terms"]
    assert {} in doc["terms"]  # the unit monomial drops zero exponents
    assert DPClass.from_json(doc) == a


@pytest.mark.parametrize(
    "degree,exponent", [(1, 2.7), (1, True), (1.0, 2), (True, 2)]
)
def test_dp_json_rejects_entries_that_are_not_integers(degree, exponent):
    doc = {"generators": [{"name": "x1", "degree": degree}], "terms": [{"x1": exponent}]}
    with pytest.raises(ValueError, match=r"expected a class of the shape \{"):
        DPClass.from_json(doc)


@pytest.mark.parametrize("exponent", [2.7, 2.0, True, False, "2"])
def test_constructors_reject_exponents_that_are_not_integers(exponent):
    # int() would make 2.7 into x^[2] and True into x
    makers = [
        lambda: DPClass.monomial(G1, (exponent,)),
        lambda: DPClass.monomial(G2, {"x2": exponent}),
        lambda: DPClass.from_terms(G1, [(exponent,)]),
        lambda: DPClass.from_terms(G2, [(1, 0), (0, exponent)]),
    ]
    for make in makers:
        with pytest.raises(ValueError, match="expected a monomial of integer exponents, got"):
            make()
    expected = DPClass.from_terms(G2, [(0, 3)])
    assert DPClass.monomial(G2, {"x2": 3}) == DPClass.monomial(G2, (0, 3)) == expected


def test_homogeneity_helpers():
    a = DPClass.from_terms(G2, [(1, 0), (0, 2)])
    assert a.degrees() == {1, 2}
    with pytest.raises(ValueError):
        a.homogeneous_degree()
    assert mono(G2, 2, 1).homogeneous_degree() == 3


def test_basis_constructors_are_shared_and_still_validate():
    for make, good, bad in (
        (GeneratorSet.v_basis, (0, 1, 3), -1),
        (GeneratorSet.z2_basis, (1, 2, 4), 0),
        (GeneratorSet.torus_basis, (1, 3), 0),
    ):
        for rank in good:
            assert make(rank) is make(rank)
            assert len(make(rank)) == rank
        messages = set()
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                make(bad)
            messages.add(str(err.value))
        assert len(messages) == 1
    assert GeneratorSet.v_basis(2) == GeneratorSet(("x1", "x2"), (1, 1))
    assert GeneratorSet.torus_basis(1) == GeneratorSet(("y",), (2,))
