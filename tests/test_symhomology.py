import itertools

import pytest

from bgops.symhomology import (
    AdmissibleIndex,
    CircWord,
    SymClass,
    chain_to_dl,
    count_admissible,
    count_basis,
    dl_to_chain,
    iota_push,
    iter_admissible,
    iter_chains,
    juxta_multiply,
    term_degree,
    term_is_decomposable,
    term_weight,
)


def test_circ_word_basics():
    w = CircWord.of(2, 1)
    assert w.subscripts == (1, 2)
    assert w.degree == 3 and w.weight == 4
    assert w.chain() == (1, 1)
    unit = CircWord.of()
    assert unit.degree == 0 and unit.weight == 1
    assert unit.chain() == ()
    assert not CircWord.of(2, 5).is_generator  # 5 is not twice an integer
    assert CircWord.from_chain((1, 2)).subscripts == (1, 4)


def test_dl_to_chain_examples():
    assert dl_to_chain(AdmissibleIndex((1,))) == (1,)
    assert dl_to_chain(AdmissibleIndex((3, 2))) == (1, 2)
    with pytest.raises(ValueError):
        dl_to_chain(AdmissibleIndex((4, 3, 2)))  # excess 4 - 5 < 0
    with pytest.raises(ValueError):
        AdmissibleIndex((5, 2))  # 5 > 2*2, inadmissible


def test_round_trip_and_grading():
    for k in range(5):
        for d in range(21):
            for entries in iter_admissible(d, k):
                index = AdmissibleIndex(entries)
                chain = dl_to_chain(index)
                assert chain_to_dl(chain).entries == entries
                word = CircWord.from_chain(chain)
                assert word.degree == index.degree == d
                assert word.weight == index.weight
            for chain in iter_chains(d, k):
                assert dl_to_chain(chain_to_dl(chain)) == chain


def test_count_basis_examples():
    assert count_basis(1, 2) == 1  # only the degree-1 word of weight 2
    assert count_basis(3, 4) == 1  # chain (1, 1)
    assert count_basis(5, 4) == 1  # chain (1, 2) only; (3, 1) is not a chain
    assert count_basis(0, 1) == 1  # the class [1]
    with pytest.raises(ValueError):
        count_basis(3, 3)


def test_count_basis_matches_admissible():
    for k in range(5):
        for d in range(21):
            assert count_basis(d, 1 << k) == count_admissible(d, k), (d, k)


def test_iota_push():
    a = iota_push((1, 2))
    (term,) = a.terms
    (word,) = term
    assert word.subscripts == (1, 2)
    assert word.chain() == (1, 1)
    # sorted regardless of input order
    assert iota_push((2, 1)) == a
    # zero exponents contribute the unit of the composition product
    unit = iota_push(())
    ((word,),) = unit.terms
    assert word == CircWord.of()
    assert iota_push((0, 3)) == iota_push((3,))


def test_iota_push_grading():
    for exps in itertools.product(range(1, 4), repeat=3):
        a = iota_push(exps)
        ((word,),) = a.terms
        assert word.weight == 8
        assert word.degree == sum(exps)


def test_juxta_examples():
    e1 = SymClass.single(CircWord.of(1))
    one_class = SymClass.single(CircWord.of())
    prod = juxta_multiply(e1, one_class)
    (term,) = prod.terms
    assert len(term) == 2  # multiplication by [1] is recorded, not absorbed
    assert term_weight(term) == 3

    square = juxta_multiply(e1, e1)
    (term,) = square.terms
    assert term == (CircWord.of(1), CircWord.of(1))
    assert term_is_decomposable(term)

    w = CircWord.from_chain((1, 2))  # degree 5? no: subscripts (1,4): degree 5
    prod = juxta_multiply(SymClass.single(CircWord.of(1, 2)), SymClass.single(CircWord.of(3)))
    (term,) = prod.terms
    assert term_degree(term) == 6
    assert term_weight(term) == 6


def test_juxta_commutative_associative():
    a = SymClass.from_terms([[CircWord.of(1)], [CircWord.of(2)]])
    b = SymClass.single(CircWord.of(1, 2))
    c = SymClass.one() + SymClass.single(CircWord.of())
    assert juxta_multiply(a, b) == juxta_multiply(b, a)
    assert juxta_multiply(juxta_multiply(a, b), c) == juxta_multiply(a, juxta_multiply(b, c))
    assert juxta_multiply(SymClass.one(), a) == a


def enumerate_terms(max_degree, max_weight):
    """All polynomial-basis terms with degree and weight within bounds."""
    gens = []
    weight = 2
    while weight <= max_weight:
        k = weight.bit_length() - 1
        for d in range(max_degree + 1):
            for chain in iter_chains(d, k):
                gens.append(CircWord.from_chain(chain))
        weight *= 2
    gens.append(CircWord.of())  # the weight-1 generator [1]

    terms = {(): 1}
    out = {((), 0, 0)}
    results = set()

    def rec(start, current, degree, weight):
        results.add((tuple(current), degree, weight))
        for i in range(start, len(gens)):
            g = gens[i]
            nd, nw = degree + g.degree, weight + g.weight
            if nd <= max_degree and nw <= max_weight:
                current.append(g)
                rec(i, current, nd, nw)
                current.pop()

    rec(0, [], 0, 0)
    return results


def test_graded_dimensions_match_free_polynomial_algebra():
    # dimension of the span of terms at (degree, weight) equals the count
    # of monomials in the free commutative algebra on the generator census
    results = enumerate_terms(10, 16)
    by_bidegree = {}
    for term, d, w in results:
        by_bidegree[(d, w)] = by_bidegree.get((d, w), 0) + 1

    # independent count: partition-style dynamic programming over generators
    gens = []
    weight = 1
    while weight <= 16:
        k = weight.bit_length() - 1
        for d in range(11):
            gens.append((d, weight, count_basis(d, weight)))
        weight *= 2
    dp = {(0, 0): 1}
    for d_g, w_g, count in gens:
        if count == 0:
            continue
        # each generator type may occur any number of times; multiplicity of
        # a type with `count` distinct generators taken m times contributes
        # C(count + m - 1, m) monomials
        import math

        new_dp = {}
        for (d0, w0), ways in dp.items():
            m = 0
            while d0 + m * d_g <= 10 and w0 + m * w_g <= 16:
                key = (d0 + m * d_g, w0 + m * w_g)
                new_dp[key] = new_dp.get(key, 0) + ways * math.comb(count + m - 1, m)
                if d_g == 0 and w_g == 0:
                    break
                m += 1
        dp = new_dp
    for key, expected in dp.items():
        assert by_bidegree.get(key, 0) == expected, key


def test_sym_json_round_trip():
    a = SymClass.from_terms(
        [[CircWord.from_chain((1, 2)), CircWord.of(3)], [CircWord.of(2, 5)]]
    )
    docs = a.to_json()
    assert {"gens": [[1, 2], [3]]} in docs
    assert any(doc.get("circ") == [[2, 5]] for doc in docs)
    assert SymClass.from_json(docs) == a


@pytest.mark.parametrize(
    "docs",
    [[{"circ": [[2.7]]}], [{"gens": [[2.7]]}], [{"gens": [[True]]}], [{"circ": [[1, True]]}]],
)
def test_sym_json_rejects_entries_that_are_not_integers(docs):
    with pytest.raises(ValueError, match=r"expected a class of the shape \[\{"):
        SymClass.from_json(docs)


@pytest.mark.parametrize("chain", [[2.7], [1, 2.0], [True]])
def test_chain_entries_must_be_integers(chain):
    with pytest.raises(ValueError, match="expected a chain of integers"):
        CircWord.from_chain(chain)


def test_weight_homogeneity():
    mixed = SymClass.from_terms([[CircWord.of(1)], [CircWord.of()]])
    with pytest.raises(ValueError):
        mixed.homogeneous_weight()
    assert SymClass.single(CircWord.of(1, 2)).homogeneous_weight() == 4
