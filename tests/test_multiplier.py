"""The operation model: alpha(g, k, a, b) is multiplication by a class C(a).

The grid pins ``alpha == multiplier * b`` and checks it against two routes
that evaluate every b separately: the sum over all linear maps for
elementary abelian targets, and the product formula applied to each
tensor factor of b.  A degree-bounded search over basis classes is the
oracle for the one evaluation at the unit that decides nonvanishing.
"""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgops.gradedalg import (
    DPClass,
    GeneratorSet,
    beta_push,
    dp_coproduct,
    dp_multiply,
    su2_act,
)
from bgops.operations import (
    SU2,
    A_count,
    CoefficientClass,
    Dihedral,
    ProductGroup,
    Torus,
    Z2Power,
    alpha,
    alpha_z2power_bruteforce,
    atomic_factors,
    coefficient_basis,
    composite_op,
    factor_generators,
    group_dim,
    multiplier,
    nontrivial_witness,
    parse_group,
)
from bgops.symhomology import CircWord, SymClass
from references import (
    alpha_by_tuples,
    composite_by_tuples,
    compositions,
    multiplier_by_tuples,
    product_by_tuples,
)

GRID_GROUPS = (
    "z2^1",
    "z2^2",
    "z2^3",
    "d6",
    "d10",
    "t^1",
    "t^2",
    "su2",
    "(z2)x(su2)",
    "(t^1)x(z2)",
    "(su2)x(su2)",
)
MAX_K = {"t^1": 2, "t^2": 2, "su2": 1, "(z2)x(su2)": 1, "(t^1)x(z2)": 2, "(su2)x(su2)": 1}
# (k -> top total exponent of a), b up to degree B_DEGREE
A_DEGREE = {0: 0, 1: 8, 2: 6, 3: 5}
B_DEGREE = 6


def monomials(k: int, top: int):
    for exps in itertools.product(range(top + 1), repeat=k):
        if sum(exps) <= top:
            yield DPClass.monomial(GeneratorSet.v_basis(k), exps)


def basis_up_to(g, degree: int):
    return [b for d in range(degree + 1) for b in coefficient_basis(g, d)]


def split_route(g, k: int, a: DPClass, b: CoefficientClass) -> frozenset:
    """alpha through the coproduct of a, applied to each tensor factor of b."""
    if isinstance(g, Torus) and g.l > 1:
        circles = ProductGroup((Torus(1),) * g.l)
        b_split = CoefficientClass(circles, frozenset(tuple((e,) for e in t[0]) for t in b.terms))
        return frozenset((tuple(m[0] for m in t),) for t in split_route(circles, k, a, b_split))
    if not isinstance(g, ProductGroup):
        return alpha(g, k, a, b).terms
    head, tail = g.factors[0], g.factors[1:]
    tail_group = tail[0] if len(tail) == 1 else ProductGroup(tail)
    out: set = set()
    for mono in a.terms:
        for left, right in dp_coproduct(mono):
            for term in b.terms:
                b_head = CoefficientClass(head, frozenset({term[:1]}))
                b_tail = CoefficientClass(tail_group, frozenset({term[1:]}))
                heads = alpha(head, k, DPClass.monomial(a.gens, left), b_head).terms
                if not heads:
                    continue
                rest = split_route(tail_group, k, DPClass.monomial(a.gens, right), b_tail)
                for s in heads:
                    for t in rest:
                        out ^= {s + t}
    return frozenset(out)


def test_alpha_is_multiplication_by_the_multiplier():
    for spec in GRID_GROUPS:
        g = parse_group(spec)
        bs = basis_up_to(g, B_DEGREE)
        for k in range(MAX_K.get(spec, 3) + 1):
            for a in monomials(k, A_DEGREE[k]):
                c = multiplier(g, k, a)
                assert c == alpha(g, k, a, CoefficientClass.unit(g)), (spec, a)
                for b in bs:
                    assert alpha(g, k, a, b) == c * b, (spec, a, b)


def test_multiplier_against_per_class_routes():
    for spec in ("z2^2", "z2^3"):
        g = parse_group(spec)
        for k in (1, 2):
            for a in monomials(k, 4):
                c = multiplier(g, k, a)
                for b in basis_up_to(g, 2):
                    assert alpha_z2power_bruteforce(g, k, a, b) == c * b, (spec, a, b)
    for spec in ("t^2", "(z2)x(su2)", "(t^1)x(z2)", "(su2)x(su2)", "(z2)x(z2)x(t^1)"):
        g = parse_group(spec)
        for k in range(MAX_K.get(spec, 2) + 1):
            for a in monomials(k, A_DEGREE[k]):
                c = multiplier(g, k, a)
                for b in basis_up_to(g, 4):
                    assert split_route(g, k, a, b) == (c * b).terms, (spec, a, b)


def circle_by_halving(mono: tuple[int, ...]) -> set:
    """The circle multiplier as a round trip: x^[top] lifted to a class
    over one degree-1 generator, then halved by ``beta_push``."""
    if len(mono) == 1:
        top = mono[0] + 1
    else:
        n1, n2 = mono
        if math.comb(n1 + n2 + 2, n1 + 1) % 2:
            return set()
        top = n1 + n2 + 3
    lifted = DPClass.monomial(GeneratorSet.v_basis(1), (top,))
    return {(t,) for t in beta_push(lifted).terms}


def su2_by_action(mono: tuple[int, ...]) -> set:
    """The SU(2) multiplier as a round trip: ``su2_act`` of x^[n + 3] on u_0."""
    (n,) = mono
    lifted = DPClass.monomial(GeneratorSet.v_basis(1), (n + 3,))
    return {(t,) for t in su2_act(lifted, DPClass.unit(GeneratorSet.su2_basis())).terms}


def multiplier_terms(g, mono: tuple[int, ...]) -> frozenset:
    """The terms of C(x^[mono]) through the public ``multiplier``."""
    return multiplier(g, len(mono), DPClass.monomial(GeneratorSet.v_basis(len(mono)), mono)).terms


def test_closed_circle_and_su2_terms_match_the_round_trips():
    for n in range(201):
        assert multiplier_terms(Torus(1), (n,)) == circle_by_halving((n,)), n
        assert multiplier_terms(SU2(), (n,)) == su2_by_action((n,)), n
    for n1 in range(201):
        for n2 in range(201 - n1):
            assert multiplier_terms(Torus(1), (n1, n2)) == circle_by_halving((n1, n2)), (n1, n2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**4))
@example(201)  # alpha(SU2, 1, x^[201]) is u_51
def test_su2_alpha_is_the_action_on_the_unit_for_large_exponents(n):
    # the round trip above stops at n = 200
    a = DPClass.monomial(GeneratorSet.v_basis(1), (n,))
    assert alpha(SU2(), 1, a, CoefficientClass.unit(SU2())).terms == su2_by_action((n,))


def rank_one_by_binomials(mono: tuple[int, ...]) -> frozenset:
    """C(x^[mono]) on Z/2 and on the dihedral groups, by its definition:
    x^[n_1 + ... + n_k] when every n_j > 0 and the multinomial, taken as a
    product of binomials C(n_1 + ... + n_j, n_j), is odd."""
    total, multinomial = 0, 1
    for n in mono:
        total += n
        multinomial *= math.comb(total, n)
    return frozenset({((total,),)}) if min(mono) > 0 and multinomial % 2 else frozenset()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=4))
def test_rank_one_multiplier_matches_the_multinomial_at_large_exponents(exps):
    """Beside the exhaustive ranges, which stop at small exponents."""
    mono = tuple(exps)
    for g in (Z2Power(1), Dihedral(2)):
        assert multiplier_terms(g, mono) == rank_one_by_binomials(mono), (g, mono)


def multiplier_by_compositions(l: int, mono: tuple[int, ...]) -> frozenset:
    """C(x^[n]) on z2^l by its definition in the ``multiplier`` docstring:
    t^[c] for every column vector c whose matrix count A_count(n, c) is odd.
    A column of k positive entries sums to at least k."""
    cols = compositions(sum(mono), l, len(mono))
    return frozenset((c,) for c in cols if A_count(mono, c, "parity"))


def z2power_cases():
    rng = random.Random(4)
    for l in (2, 3, 4):
        for n in range(17):
            yield l, (n,)
        pairs = list(itertools.product(range(17), repeat=2))
        yield from ((l, p) for p in (pairs if l == 2 else rng.sample(pairs, 24)))
        for _ in range(40 if l < 4 else 20):
            yield l, tuple(rng.randint(0, 16) for _ in range(3))


def test_one_pass_multiplier_matches_column_vector_definition():
    nonzero = 0
    for l, mono in z2power_cases():
        a = DPClass.monomial(GeneratorSet.v_basis(len(mono)), mono)
        c = multiplier(Z2Power(l), len(mono), a)
        assert c.terms == multiplier_by_compositions(l, mono), (l, mono)
        nonzero += bool(c)
    assert nonzero > 100


def z2power_terms_by_columns(l: int, mono: tuple[int, ...]) -> set:
    """The column pass that the z2^l multiplier made before the row product.

    All column vectors c with A_count(n, c) odd are found in one pass over
    the columns: the state after j columns is (remaining row sums, column
    sums so far), with its number of partial matrices kept mod 2.  Column
    j takes parts 0 < p_r <= rem_r that are pairwise bit-disjoint, and
    its sum is their OR; each row keeps at least one unit for every
    column still to come.  The last column is forced: the remainders must
    be positive and pairwise bit-disjoint.
    """
    states = {(mono, ())}
    for later in range(l - 2, -1, -1):  # columns after the current one
        nxt = set()
        for rem, prefix in states:
            free = (1 << max(rem).bit_length()) - 1
            for rest, total in column_choices(rem, later, free):
                nxt ^= {(rest, prefix + (total,))}
        states = nxt
    out = set()
    for rem, prefix in states:
        union = 0
        for part in rem:
            if part <= 0 or union & part:
                break
            union |= part
        else:
            out ^= {(prefix + (union,),)}
    return out


def column_choices(rem, later, free):
    """(rem - p, sum of p) for each column p of pairwise bit-disjoint parts,
    each a nonempty submask of ``free`` with p_r <= rem_r - later."""
    if not rem:
        yield (), 0
        return
    cap = rem[0] - later
    if cap <= 0:
        return
    sub = free & ((1 << cap.bit_length()) - 1)
    part = sub
    while part:
        if part <= cap:
            for rest, total in column_choices(rem[1:], later, free & ~part):
                yield (rem[0] - part,) + rest, total + part
        part = (part - 1) & sub


# k -> top exponent of each row, zeros included
COLUMN_PASS_TOPS = {1: 40, 2: 14, 3: 8}


def test_row_product_matches_column_pass_exhaustively():
    nonzero = 0
    for l in (2, 3, 4):
        for k, top in COLUMN_PASS_TOPS.items():
            for mono in itertools.product(range(top + 1), repeat=k):
                terms = multiplier_terms(Z2Power(l), mono)
                assert terms == z2power_terms_by_columns(l, mono), (l, mono)
                nonzero += bool(terms)
    assert nonzero > 300


@st.composite
def wide_monomials(draw):
    """z2^l, l = 2..4, with rows wider than the exhaustive ranges."""
    l = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    top = {1: 120, 2: 40, 3: 16}[k] if l == 2 else {1: 60, 2: 24, 3: 12}[k]
    return l, tuple(draw(st.lists(st.integers(0, top), min_size=k, max_size=k)))


@settings(max_examples=60, deadline=None)
@given(wide_monomials())
def test_row_product_matches_column_pass_on_wide_rows(case):
    l, mono = case
    assert multiplier_terms(Z2Power(l), mono) == z2power_terms_by_columns(l, mono)


# ---------------------------------------------------------------------------
# the degree-bounded basis search, as an oracle


def search_witness(g, k: int, a: DPClass) -> CoefficientClass | None:
    """First basis class with a nonzero value, by degree then lex order."""
    bound = max(a.degrees(), default=0) + group_dim(g) * (1 << k) + 8
    for d in range(bound + 1):
        for b in coefficient_basis(g, d):
            if not alpha(g, k, a, b).is_zero():
                return b
    return None


# (group, k, exponents, found)
SEARCH_CASES = (
    ("z2^1", 2, (1, 2), True),
    ("z2^1", 2, (1, 3), False),
    ("d10", 3, (1, 2, 4), True),
    ("z2^2", 1, (3,), True),
    ("z2^2", 2, (1, 2), False),
    ("z2^2", 2, (2, 4), True),
    ("z2^3", 1, (2,), False),
    ("z2^3", 2, (3, 6), True),
    ("z2^3", 3, (0, 3, 5), False),
    ("t^1", 1, (2,), False),
    ("t^1", 2, (1, 2), True),
    ("t^2", 1, (3,), False),
    ("t^2", 2, (2, 4), True),
    ("su2", 1, (4,), False),
    ("su2", 1, (5,), True),
    ("(z2)x(su2)", 1, (1,), False),
    ("(z2)x(su2)", 1, (2,), True),
    ("(t^1)x(z2)", 2, (1, 1), False),
    ("(t^1)x(z2)", 2, (2, 4), True),
    ("(su2)x(su2)", 1, (3,), False),
    ("(su2)x(su2)", 1, (2,), True),
)


@pytest.mark.parametrize("spec,k,exps,found", SEARCH_CASES)
def test_witness_agrees_with_basis_search(spec, k, exps, found):
    g = parse_group(spec)
    a = DPClass.monomial(GeneratorSet.v_basis(k), exps)
    expected = search_witness(g, k, a)
    res = nontrivial_witness(g, k, a)
    assert (expected is not None) == found
    assert res.witness == expected
    assert res.certified_trivial == (not found)


# ---------------------------------------------------------------------------
# the product on coefficient classes


def random_class(rng: random.Random, g, degree: int) -> CoefficientClass:
    basis = basis_up_to(g, degree)
    out = CoefficientClass.zero(g)
    for b in rng.sample(basis, min(len(basis), rng.randint(1, 4))):
        out += b
    return out


@pytest.mark.parametrize("spec", GRID_GROUPS + ("t^3", "(z2)x(z2)x(t^1)"))
def test_product_laws(spec):
    g = parse_group(spec)
    rng = random.Random(spec)
    one = CoefficientClass.unit(g)
    zero = CoefficientClass.zero(g)
    for _ in range(25):
        x, y, z = (random_class(rng, g, 8) for _ in range(3))
        assert x * y == y * x
        assert one * x == x == x * one
        assert zero * x == zero
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_product_matches_the_factor_rules():
    # SU(2): the module action of the lift x^[4m] of u_m
    x, u = GeneratorSet.v_basis(1), GeneratorSet.su2_basis()
    for m in range(9):
        for n in range(9):
            um, un = (CoefficientClass.from_dp(SU2(), DPClass.monomial(u, (i,))) for i in (m, n))
            expected = su2_act(DPClass.monomial(x, (4 * m,)), DPClass.monomial(u, (n,)))
            assert (um * un).as_dp() == expected, (m, n)
    # divided-power factors: the divided-power product
    for spec in ("z2^1", "z2^2", "t^2"):
        g = parse_group(spec)
        basis = basis_up_to(g, 6)
        for y in basis:
            for z in basis:
                assert (y * z).as_dp() == dp_multiply(y.as_dp(), z.as_dp())
    # products: factor by factor
    rng = random.Random(3)
    for _ in range(40):
        s1, s2 = (random_class(rng, Z2Power(2), 6) for _ in range(2))
        t1, t2 = (random_class(rng, SU2(), 16) for _ in range(2))
        lhs = CoefficientClass.tensor(s1, t1) * CoefficientClass.tensor(s2, t2)
        assert lhs == CoefficientClass.tensor(s1 * s2, t1 * t2)


def test_product_rejects_mixed_groups():
    with pytest.raises(ValueError):
        CoefficientClass.unit(Z2Power(1)) * CoefficientClass.unit(Torus(1))


# ---------------------------------------------------------------------------
# the packed products against the tuple references, as properties

PROPERTY_GROUPS = (
    "z2^2", "z2^3", "d6", "t^1", "t^2", "su2", "(z2)x(su2)", "(t^1)x(z2)", "(su2)x(su2)"
)


def edge_exponent(draw, top_width: int) -> int:
    """An exponent at a packed field edge, 2^w - 1 or 2^w, or a small one."""
    w = draw(st.integers(1, top_width))
    return draw(st.sampled_from(((1 << w) - 1, 1 << w, draw(st.integers(0, 3)))))


def draw_a(draw, spec: str, k: int) -> DPClass:
    """Zero to three terms over k generators.  z2^l with k >= 2 keeps its
    exponents below 9, where one row product stays small."""
    top_width = 3 if spec.startswith("z2^") and k >= 2 else 5
    terms = [
        tuple(edge_exponent(draw, top_width) for _ in range(k))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return DPClass.from_terms(GeneratorSet.v_basis(k), terms)


def draw_b(draw, g) -> CoefficientClass:
    """Zero to four tensor terms, exponents at field edges up to 2^6."""
    terms = set()
    for _ in range(draw(st.integers(0, 4))):
        terms ^= {
            tuple(
                tuple(edge_exponent(draw, 6) for _ in range(len(factor_generators(f))))
                for f in atomic_factors(g)
            )
        }
    return CoefficientClass(g, frozenset(terms))


@st.composite
def operation_inputs(draw):
    spec = draw(st.sampled_from(PROPERTY_GROUPS))
    g = parse_group(spec)
    k = draw(st.integers(0, MAX_K.get(spec, 2)))
    return g, k, draw_a(draw, spec, k), draw_a(draw, spec, k), draw_b(draw, g), draw_b(draw, g)


@settings(max_examples=150, deadline=None)
@given(operation_inputs())
def test_packed_routes_match_the_tuple_references(case):
    g, k, a, _, b, c = case
    assert multiplier(g, k, a) == multiplier_by_tuples(g, k, a)
    assert alpha(g, k, a, b) == alpha_by_tuples(g, k, a, b)
    assert b * c == product_by_tuples(b, c)


@settings(max_examples=100, deadline=None)
@given(operation_inputs())
def test_alpha_is_bilinear(case):
    g, k, a1, a2, b1, b2 = case
    assert alpha(g, k, a1 + a2, b1) == alpha(g, k, a1, b1) + alpha(g, k, a2, b1)
    assert alpha(g, k, a1, b1 + b2) == alpha(g, k, a1, b1) + alpha(g, k, a1, b2)
    assert alpha(g, k, DPClass.zero(a1.gens), b1).is_zero()
    assert alpha(g, k, a1, CoefficientClass.zero(g)).is_zero()


@st.composite
def composite_inputs(draw):
    """One to three factors of weight 1, 2, 4 or 8 within the group's
    supported ranks, each a sum of words, sometimes with a decomposable
    term or at a weight that is not a power of two."""
    spec = draw(st.sampled_from(PROPERTY_GROUPS))
    g = parse_group(spec)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, min(MAX_K.get(spec, 2), 2)))
        top_width = 3 if spec.startswith("z2^") and k >= 2 else 5
        edge = st.builds(max, st.just(1), st.integers(0, 1 << top_width))
        subscript = st.one_of(st.integers(1, 12), edge)
        terms = [
            (CircWord.of(*(draw(subscript) for _ in range(k))),)
            for _ in range(draw(st.integers(0, 4)))
        ]
        if k >= 1 and draw(st.booleans()):
            # two words of half the weight: decomposable, so it contributes 0
            half = CircWord.of(*(draw(st.integers(1, 4)) for _ in range(k - 1)))
            terms.append((half, half))
        n = 1 << k
        if k == 1 and draw(st.integers(0, 4)) == 0:
            # weight 3: [1] juxtaposed with a weight-2 word, never a power of two
            n, terms = 3, [(CircWord.of(), CircWord.of(draw(st.integers(1, 8))))]
        factors.append((n, SymClass.from_terms(terms)))
    b = draw_b(draw, g)
    if draw(st.booleans()):
        b += CoefficientClass.unit(g)
    return g, factors, b


@settings(max_examples=150, deadline=None)
@given(composite_inputs())
def test_composite_matches_the_factor_by_factor_reference(case):
    g, factors, b = case
    assert composite_op(g, factors, b) == composite_by_tuples(g, factors, b)


@st.composite
def product_formula_inputs(draw):
    l = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    top = {1: 40, 2: 12, 3: 7}[k] if l == 2 else {1: 24, 2: 9, 3: 6}[k]
    terms = [
        tuple(draw(st.integers(0, top)) for _ in range(k)) for _ in range(draw(st.integers(1, 2)))
    ]
    b = [tuple(draw(st.integers(0, 8)) for _ in range(l)) for _ in range(draw(st.integers(0, 3)))]
    return l, k, DPClass.from_terms(GeneratorSet.v_basis(k), terms), b


@settings(max_examples=60, deadline=None)
@given(product_formula_inputs())
def test_product_formula_matches_the_direct_z2power_path(case):
    """z2^l as the product (z2)^l: the coproduct fold over l rank-one
    factors gives the row product's value, on the unit and on b."""
    l, k, a, b_terms = case
    direct, product = Z2Power(l), ProductGroup((Z2Power(1),) * l)
    b = CoefficientClass(direct, frozenset((t,) for t in b_terms))
    b_split = CoefficientClass(product, frozenset(tuple((e,) for e in t) for t in b_terms))

    def joined(c: CoefficientClass) -> frozenset:
        return frozenset((tuple(m[0] for m in t),) for t in c.terms)

    assert multiplier(direct, k, a).terms == joined(multiplier(product, k, a))
    assert alpha(direct, k, a, b).terms == joined(alpha(product, k, a, b_split))
