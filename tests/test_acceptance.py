"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single pass line on success (run with ``pytest -s``
to see them); any failure is a hard assertion error.
"""

import itertools
import math

from bgops.f2core import F2Matrix
from bgops.gradedalg import DPClass, GeneratorSet, dp_multiply, linear_push
from bgops.operations import (
    A_count,
    CoefficientClass,
    Dihedral,
    SU2,
    Torus,
    Z2Power,
    alpha,
    alpha_z2power_bruteforce,
    coefficient_basis,
    composite_op,
    make_product,
    nontrivial_witness,
    phi_sigma,
)
from bgops.oracle import FiniteGroupTable, action_orbits, cayley_action, compsum_alpha, transfer_map
from bgops.symhomology import (
    CircWord,
    SymClass,
    count_admissible,
    count_basis,
    iter_chains,
)
from bgops.t3 import t3_verify
from bgops.certify import Target, example_family

Z2 = Z2Power(1)
Z2GENS = GeneratorSet.z2_basis(1)


def _report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def test_criterion_01_lucas_suite():
    limit = 256
    row = [1]
    for n in range(limit + 1):
        for m in range(n + 1):
            from bgops.f2core import binom_parity

            assert binom_parity(n, m) == row[m], (n, m)
        row = [1] + [(row[m - 1] + row[m]) % 2 for m in range(1, n + 1)] + [1]
    _report(1, "Lucas vs Pascal table to 256")


def test_criterion_02_divided_power_law():
    gens = GeneratorSet.v_basis(1)
    for n in range(129):
        for m in range(129):
            product = dp_multiply(
                DPClass.monomial(gens, (n,)), DPClass.monomial(gens, (m,))
            )
            assert product.is_zero() == bool(n & m), (n, m)
    _report(2, "x^[n] x^[m] nonzero iff bit-disjoint, to 128")


def test_criterion_03_closed_form_vs_finite_group_oracle():
    z2_table = FiniteGroupTable.z2()
    for k in (1, 2):
        vg = GeneratorSet.v_basis(k)
        for exps in itertools.product(range(7), repeat=k):
            if sum(exps) > 6:
                continue
            a = DPClass.monomial(vg, exps)
            for m in range(5):
                b = CoefficientClass.from_dp(Z2, DPClass.monomial(Z2GENS, (m,)))
                assert compsum_alpha(z2_table, k, a, b, max_degree=10) == alpha(
                    Z2, k, a, b
                ), (k, exps, m)
    _report(3, "orbit-sum oracle matches closed form over Z/2")


def test_criterion_04_dihedral_oracle():
    d6_table = FiniteGroupTable.dihedral(1)
    g = Dihedral(1)
    vg = GeneratorSet.v_basis(1)
    for n in range(5):
        for m in range(5):
            a = DPClass.monomial(vg, (n,))
            b = CoefficientClass.from_dp(g, DPClass.monomial(Z2GENS, (m,)))
            assert compsum_alpha(d6_table, 1, a, b, max_degree=8) == alpha(g, 1, a, b), (n, m)
    _report(4, "orbit-sum oracle matches closed form over D6")


def test_criterion_05_orbit_census():
    for table, ks in ((FiniteGroupTable.z2(), (1, 2)), (FiniteGroupTable.dihedral(1), (1,))):
        for k in ks:
            orbits = action_orbits(cayley_action(table, k))
            odd = sum(1 for o in orbits if o.image_index % 2 == 1)
            assert odd == 1 << k, (table.order, k)
    _report(5, "odd-index orbit count equals 2^k")


def test_criterion_06_fast_path_vs_brute_force():
    for l in (1, 2, 3):
        g = Z2Power(l)
        b = CoefficientClass.unit(g)
        for k in (1, 2, 3):
            vg = GeneratorSet.v_basis(k)
            for exps in itertools.product(range(13), repeat=k):
                if sum(exps) > 12:
                    continue
                a = DPClass.monomial(vg, exps)
                assert alpha(g, k, a, b) == alpha_z2power_bruteforce(g, k, a, b), (l, k, exps)
    _report(6, "matrix-count fast path matches the 2^(lk) linear-map sum")


def test_criterion_07_product_formula_consistency():
    g2 = Z2Power(2)
    prod = make_product([Z2, Z2])
    gens2 = GeneratorSet.z2_basis(2)
    for k in (1, 2, 3):
        vg = GeneratorSet.v_basis(k)
        for exps in itertools.product(range(11), repeat=k):
            dega = sum(exps)
            if dega > 10:
                continue
            a = DPClass.monomial(vg, exps)
            b_degrees = [(0, 0)] if dega > 6 else [(0, 0), (1, 0), (0, 1), (1, 1)]
            for m1, m2 in b_degrees:
                direct = alpha(
                    g2, k, a,
                    CoefficientClass.from_dp(g2, DPClass.monomial(gens2, (m1, m2))),
                )
                split = alpha(
                    prod, k, a,
                    CoefficientClass.tensor(
                        CoefficientClass.from_dp(Z2, DPClass.monomial(Z2GENS, (m1,))),
                        CoefficientClass.from_dp(Z2, DPClass.monomial(Z2GENS, (m2,))),
                    ),
                )
                direct_terms = {t[0] for t in direct.terms}
                split_terms = {(t[0][0], t[1][0]) for t in split.terms}
                assert direct_terms == split_terms, (k, exps, m1, m2)
    _report(7, "rank-2 direct dispatch matches the product coproduct path")


def test_criterion_08_t3_identity():
    for n1 in range(9):
        for n2 in range(9):
            report = t3_verify(n1, n2)
            assert report.passed, (n1, n2, report.checks)
    _report(8, "3-torus boundary identity for all n1, n2 <= 8")


def test_criterion_09_telescoping():
    for n1 in range(65):
        for n2 in range(65):
            lhs = sum(math.comb(n1 + n2 + 3, i) for i in range(1, n1 + 2)) % 2
            rhs = (1 + math.comb(n1 + n2 + 2, n1 + 1)) % 2
            assert lhs == rhs, (n1, n2)
    _report(9, "telescoping binomial identity to 64")


def test_criterion_10_su2_rule():
    vg = GeneratorSet.v_basis(1)
    for n in range(101):
        result = nontrivial_witness(SU2(), 1, DPClass.monomial(vg, (n,)))
        assert (result.witness is not None) == (n % 4 == 1), n
        if result.witness is None:
            assert result.certified_trivial
    _report(10, "SU(2) witness exists iff n = 1 mod 4, to 100")


def test_criterion_11_basis_census():
    for k in range(5):
        for d in range(21):
            assert count_basis(d, 1 << k) == count_admissible(d, k), (d, k)
    _report(11, "generator chains equinumerous with admissible indices")


def _decomposable_terms(max_weight: int, max_degree: int):
    """All products of >= 2 polynomial generators within the bounds."""
    gens = [CircWord.of()]  # the weight-1 generator
    weight = 2
    while weight <= max_weight:
        k = weight.bit_length() - 1
        for d in range(max_degree + 1):
            for chain in iter_chains(d, k):
                gens.append(CircWord.from_chain(chain))
        weight *= 2

    out = []

    def rec(start, current, degree, wt):
        if len(current) >= 2:
            out.append(tuple(current))
        for i in range(start, len(gens)):
            g = gens[i]
            nd, nw = degree + g.degree, wt + g.weight
            if nd <= max_degree and nw <= max_weight:
                current.append(g)
                rec(i, current, nd, nw)
                current.pop()

    rec(0, [], 0, 0)
    return out


def test_criterion_12_vanishing():
    unit = CoefficientClass.unit(Z2)
    # non-power-of-two weights vanish identically
    for n in range(2, 13):
        if n & (n - 1) == 0:
            continue
        # build a few weight-n homogeneous classes from [1]-padding
        padding = [CircWord.of()] * (n - 2) + [CircWord.of(1)]
        a = SymClass.from_terms([padding])
        assert phi_sigma(Z2, n, a, unit).is_zero(), n
        if n % 2 == 0:
            words = [CircWord.of(2)] * (n // 2)
            assert phi_sigma(Z2, n, SymClass.from_terms([words]), unit).is_zero(), n
    # decomposable basis terms vanish
    for term in _decomposable_terms(16, 10):
        weight = sum(w.weight for w in term)
        a = SymClass.from_terms([term])
        assert phi_sigma(Z2, weight, a, unit).is_zero(), term
        assert phi_sigma(Torus(1), weight, a, CoefficientClass.unit(Torus(1))).is_zero()
    # the diagonal transfer vanishes in degrees 1..4
    v2 = FiniteGroupTable.elementary_abelian(2)
    for d in range(1, 5):
        assert transfer_map(v2, [0, 3], d).is_zero(), d
    _report(12, "vanishing: non-2-power weights, decomposables, diagonal transfer")


def test_criterion_13_gl_invariance():
    v2 = GeneratorSet.v_basis(2)
    matrices = [
        F2Matrix(2, 2, rows)
        for rows in itertools.product(range(4), repeat=2)
        if F2Matrix(2, 2, rows).rank() == 2
    ]
    assert len(matrices) == 6
    b_choices = [b for d in range(3) for b in coefficient_basis(Z2, d)]
    for exps in itertools.product(range(11), repeat=2):
        if sum(exps) > 10:
            continue
        a = DPClass.monomial(v2, exps)
        for b in b_choices:
            base = alpha(Z2, 2, a, b)
            for g in matrices:
                assert alpha(Z2, 2, linear_push(g, a), b) == base, (exps, g.data)
    _report(13, "GL_2(F2) invariance of the rank-2 operation input")


def _bit_disjoint_tuples(max_total: int, max_len: int):
    values = list(range(1, max_total + 1))

    def rec(start, current, used, total):
        if current:
            yield tuple(current)
        if len(current) == max_len:
            return
        for v in values[start:]:
            if total + v > max_total or (used & v):
                continue
            current.append(v)
            yield from rec(values.index(v) + 1, current, used | v, total + v)
            current.pop()

    yield from rec(0, [], 0, 0)


def _surjections(k: int):
    for r in range(1, k + 1):
        for assignment in itertools.product(range(1, r + 1), repeat=k):
            if sorted(set(assignment)) == list(range(1, r + 1)):
                yield assignment


def test_criterion_14_certificate_round_trip():
    checked = 0
    for u in _bit_disjoint_tuples(10, 3):
        for assignment in _surjections(len(u)):
            bundle = example_family(u, assignment)
            total = sum(u)
            multiplier = DPClass.monomial(Z2GENS, (total,))
            factors = bundle.certificates[Target.HOL_ORDINARY].factors
            for cert in bundle.certificates.values():
                assert cert.revalidate()
            for m in range(3):
                b = CoefficientClass.from_dp(Z2, DPClass.monomial(Z2GENS, (m,)))
                value = composite_op(Z2, factors, b)
                expected = CoefficientClass.from_dp(
                    Z2, dp_multiply(multiplier, b.as_dp())
                )
                assert value == expected, (u, assignment, m)
            checked += 1
    # 19 bit-disjoint tuples with total <= 10 and length <= 3: ten
    # singletons (1 assignment each), eight pairs (3 each), one triple (13)
    assert checked == 47
    _report(14, f"certificate families re-validate ({checked} bundles)")
