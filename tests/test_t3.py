import pytest

from bgops.f2core import F2Matrix, homology_dims
from bgops.t3 import (
    T3Report,
    _BOUNDARIES,
    _DIMS,
    act,
    boundary_matrix,
    cell_basis,
    cellular_homology_dims,
    t3_verify,
    total_boundary,
)
from references import _rref, column, rref_kernel


def test_chain_group_dimensions():
    assert [len(cell_basis(q)) for q in range(4)] == [4, 12, 12, 4]


def test_cellular_d_squared_zero():
    for q in (1, 2):
        assert _BOUNDARIES[q].matmul(_BOUNDARIES[q + 1]).is_zero()


def test_homology_dims():
    assert cellular_homology_dims() == [1, 3, 3, 1]


def test_homology_dims_match_kernel_and_rank_route():
    # kernel dimension minus image rank, both from the reference
    # eliminator, on the cellular complex of the 3-torus
    dims = [4, 12, 12, 4]
    expected = []
    for q in range(4):
        cycles = dims[0] if q == 0 else len(rref_kernel(_BOUNDARIES[q])[1])
        image = len(_rref(list(_BOUNDARIES[q + 1].data), dims[q + 1])[0]) if q < 3 else 0
        expected.append(cycles - image)
    top = F2Matrix.zeros(4, 0)
    assert homology_dims([_BOUNDARIES[1], _BOUNDARIES[2], _BOUNDARIES[3], top]) == expected
    assert cellular_homology_dims() == expected


def test_boundary_matrices_outside_the_complex_are_zero_maps():
    # d_0 leaves C_0 (4 vertices) and d_4 enters C_3 (4 cubes)
    assert boundary_matrix(0) == F2Matrix.zeros(0, 4)
    assert boundary_matrix(4) == F2Matrix.zeros(4, 0)
    assert boundary_matrix(5) == boundary_matrix(-1) == F2Matrix.zeros(0, 0)


def test_coinvariant_edge_boundary():
    # collapsing to coinvariants keeps one generator per edge orbit (the
    # two cosets of a type have equal boundaries); the six orbit edges
    # map onto three independent vertex differences, so the collapsed
    # boundary has kernel rank 3 and the quotient stays connected
    d1 = _BOUNDARIES[1]
    idx1 = {cell: i for i, cell in enumerate(cell_basis(1))}
    collapse_cols = []
    for e in range(6):
        cols = sorted(i for cell, i in idx1.items() if cell[0] == e)
        assert column(d1, cols[0]) == column(d1, cols[1])  # coset independence
        collapse_cols.append(column(d1, cols[0]))
    rows = [0] * 4
    for j, cmask in enumerate(collapse_cols):
        for i in range(4):
            if (cmask >> i) & 1:
                rows[i] |= 1 << j
    collapsed = F2Matrix(4, 6, tuple(rows))
    rank, kernel = rref_kernel(collapsed)
    assert len(kernel) == 3
    assert 4 - rank == 1


def test_fundamental_cycle():
    report = t3_verify(0, 0)
    assert report.checks["fundamental_cycle"]


def test_identity_small_parameters():
    for n1, n2 in [(0, 0), (1, 0), (0, 1), (2, 3), (3, 5)]:
        report = t3_verify(n1, n2)
        assert report.passed, (n1, n2, report.checks)


def test_total_boundary_squares_to_zero_spot():
    for key in [(0, 0, 3), (2, 1, 2), (1, 4, 1), (3, 3, 0)]:
        dims = [4, 12, 12, 4]
        for i in range(dims[key[2]]):
            chain = {key: 1 << i}
            assert not total_boundary(total_boundary(chain))


def test_total_boundary_is_the_koszul_differential_tensor_the_cells():
    # the resolution differential written out with t_i = 1 + x_i, as the
    # paper states it, against the one ``total_boundary`` takes from
    # ``oracle.koszul_boundary``
    for k1 in range(3):
        for k2 in range(3):
            for q in range(4):
                for i in range(_DIMS[q]):
                    vec = 1 << i
                    expected = {}
                    if k1:
                        expected[(k1 - 1, k2, q)] = vec ^ act(q, 1, vec)
                    if k2:
                        expected[(k1, k2 - 1, q)] = vec ^ act(q, 2, vec)
                    if q:
                        expected[(k1, k2, q - 1)] = _BOUNDARIES[q].apply(vec)
                    expected = {key: v for key, v in expected.items() if v}
                    assert total_boundary({(k1, k2, q): vec}) == expected, (k1, k2, q, i)


def test_every_report_up_to_eight_passes():
    checks = dict.fromkeys(
        [
            "cellular_d_squared_zero",
            "resolution_d_squared_zero",
            "total_d_squared_zero",
            "fundamental_cycle",
            "boundary_identity",
            "homology_dims",
        ],
        True,
    )
    for n1 in range(9):
        for n2 in range(9):
            assert t3_verify(n1, n2).to_json() == {
                "params": {"n1": n1, "n2": n2},
                "checks": checks,
                "homology_dims": [1, 3, 3, 1],
                "pass": True,
            }


def test_report_serialization():
    report = t3_verify(1, 1)
    doc = report.to_json()
    assert doc["pass"] is True
    assert doc["params"] == {"n1": 1, "n2": 1}
    assert set(doc["checks"]) == {
        "cellular_d_squared_zero",
        "resolution_d_squared_zero",
        "total_d_squared_zero",
        "fundamental_cycle",
        "boundary_identity",
        "homology_dims",
    }


def test_rejects_negative_parameters():
    with pytest.raises(ValueError):
        t3_verify(-1, 0)


def test_boundary_identity_implies_the_rank_two_circle_formula():
    # the verified identity exhibits, for each (n1, n2), the class
    # sum_{i=0}^{n1+1} x1^[i] x2^[n1+n2+3-i] as the section-sum image of
    # the fundamental class; summing its pushforwards over all four maps
    # to the rank-1 group and halving must reproduce the closed form
    from bgops.f2core import F2Matrix
    from bgops.gradedalg import DPClass, GeneratorSet, beta_push, linear_push
    from bgops.operations import CoefficientClass, Torus, alpha

    v2 = GeneratorSet.v_basis(2)
    v1 = GeneratorSet.v_basis(1)
    homs = [F2Matrix(1, 2, (bits,)) for bits in range(4)]
    for n1 in range(6):
        for n2 in range(6):
            section_sum = DPClass.from_terms(
                v2, [(i, n1 + n2 + 3 - i) for i in range(n1 + 2)]
            )
            pushed = DPClass.zero(v1)
            for lam in homs:
                pushed += linear_push(lam, section_sum)
            derived = beta_push(pushed)
            closed = alpha(
                Torus(1), 2, DPClass.monomial(v2, (n1, n2)), CoefficientClass.unit(Torus(1))
            )
            assert CoefficientClass.from_dp(Torus(1), derived) == closed, (n1, n2)


def test_block_d_squared_verdict_matches_per_chain_loop():
    # the cached per-block verdict against the loop over every basis
    # chain of the total complex that t3_verify used to run per call
    from bgops.t3 import _DIMS, _d_squared_zero

    for n1 in range(5):
        for n2 in range(5):
            top = n1 + n2 + 6
            ok = True
            for k1 in range(top + 1):
                for k2 in range(top + 1 - k1):
                    for q in range(4):
                        for i in range(_DIMS[q]):
                            if total_boundary(total_boundary({(k1, k2, q): 1 << i})):
                                ok = False
            assert ok
            assert t3_verify(n1, n2).checks["total_d_squared_zero"] == ok
            assert all(
                _d_squared_zero(k1, k2) for k1 in range(top + 1) for k2 in range(top + 1 - k1)
            )


def test_cached_facts_are_recomputed_values():
    from bgops.t3 import _cellular_facts

    report = t3_verify(2, 1)
    assert report.homology_dims == cellular_homology_dims() == [1, 3, 3, 1]
    report.homology_dims.append(0)  # the report holds its own list
    assert t3_verify(2, 1).homology_dims == [1, 3, 3, 1]
    assert _cellular_facts() == (True, (1, 3, 3, 1))
