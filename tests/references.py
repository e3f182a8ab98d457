"""Tuple routes that the packed products in ``src/`` replaced, kept as
references for the tests.

Every monomial here is an exponent tuple and every class a set of them;
the library multiplies the same classes as packed ints (see
``gradedalg.packed_product``).

| library                               | reference                  |
|---------------------------------------|----------------------------|
| ``packed_product``, ``dp_multiply``   | ``monomial_product``       |
| ``CoefficientClass.__mul__``          | ``product_by_tuples``      |
| ``multiplier`` on products and tori   | ``multiplier_by_tuples``   |
| ``alpha``                             | ``alpha_by_tuples``        |
| ``composite_op``                      | ``composite_by_tuples``    |
"""

from __future__ import annotations

import operator

from bgops.gradedalg import DPClass, GeneratorSet, dp_coproduct
from bgops.operations import (
    CoefficientClass,
    ProductGroup,
    Torus,
    multiplier,
)
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
