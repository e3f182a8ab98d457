"""Golden outputs of the oracle layer, fixed values that pin exactness.

Speed-ups of the oracles must leave their outputs bit-identical.  The
values below were recorded from the route before the generator-spanned
bar boundaries and the packed ``linear_push``; a change that moves any of
them changes an oracle's output, not just its speed.
"""

import hashlib
import json

import pytest

from bgops import cli
from bgops.gradedalg import DPClass, GeneratorSet
from bgops.operations import CoefficientClass, Z2Power, alpha_z2power_bruteforce
from bgops.oracle import FiniteGroupTable, bar_homology, bar_space

ORACLE_CHECK_LINES = [
    {"check": "orbit_census", "params": {"group": "z2", "k": 1}, "pass": True},
    {"check": "orbit_census", "params": {"group": "z2", "k": 2}, "pass": True},
    {"check": "orbit_census", "params": {"group": "d6", "k": 1}, "pass": True},
    {"check": "compsum_vs_closed_form", "params": {"group": "z2", "k": 1}, "pass": True},
    {"check": "compsum_vs_closed_form", "params": {"group": "d6", "k": 1}, "pass": True},
    {
        "check": "diagonal_transfer_zero",
        "params": {"degrees": "1..3", "group": "z2^2"},
        "pass": True,
    },
    {"check": "dihedral_homology_dims", "params": {"group": "d6", "max_degree": 3}, "pass": True},
    {"check": "t3_identity", "params": {"n1": 0, "n2": 0}, "pass": True},
]
ORACLE_CHECK_SHA256 = "04b377cbb9ee1ef2ca4b065adcc3a67a9dac116904d882ae84bb69ca85dede50"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("bound", range(5))
def test_oracle_check_output_is_golden(capsys, bound):
    code = cli.main(["--json", "oracle-check", "--degree-bound", str(bound)])
    out = capsys.readouterr().out
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == ORACLE_CHECK_LINES
    assert sha256(out) == ORACLE_CHECK_SHA256


BAR_SPACE_REPS = {
    # (table, degree): (dim, sha256 of json.dumps(reps))
    ("d10", 3): (1, "c23287e468aee7f46f161d246cf24f85f8fab6e998e7362aea73a0459fa3c3c4"),
    ("d6", 4): (1, "1c307bc38759006fdc1cface38a8886517630b023799ec791491f5420e3f67ed"),
    ("v3", 3): (10, "0f4369fa274ddbfd654b2419063ba079d89ca76585deda5506b27ff6b2b842bd"),
}
TABLES = {
    "d6": lambda: FiniteGroupTable.dihedral(1),
    "d10": lambda: FiniteGroupTable.dihedral(2),
    "v2": lambda: FiniteGroupTable.elementary_abelian(2),
    "v3": lambda: FiniteGroupTable.elementary_abelian(3),
}


@pytest.mark.parametrize("case", sorted(BAR_SPACE_REPS))
def test_bar_space_reps_are_golden(case):
    name, degree = case
    space = bar_space(TABLES[name](), degree)
    assert (space.dim, sha256(json.dumps(space.reps))) == BAR_SPACE_REPS[case]


BAR_HOMOLOGY = {
    # (table, max degree): (dims, sha256 of the sorted representative words)
    ("v2", 4): ([1, 2, 3, 4, 5], "cf83e62033fb1c8f6fa2d9abf0ceca1471d5fb8fdf6bd3224d5ea1a7041f5a90"),
    ("d6", 3): ([1, 1, 1, 1], "3069bbf623bea0f876d07ffb454576a53b2648779ce7d7752cbf5ce78a54d358"),
}


@pytest.mark.parametrize("case", sorted(BAR_HOMOLOGY))
def test_bar_homology_reps_are_golden(case):
    name, max_degree = case
    result = bar_homology(TABLES[name](), max_degree, method="bar")
    words = repr([sorted(chain) for chains in result.reps for chain in chains])
    assert (result.dims, sha256(words)) == BAR_HOMOLOGY[case]


BRUTEFORCE = {
    # (l, k, exponents of a): sha256 of the sorted JSON of the output on the unit
    (2, 2, (3, 5)): "fa224a5945fb17a57a28cf11d9bc296864cf25c9bfbcd13144397169795fb6f4",
    (3, 3, (4, 3, 4)): "7a90bee375b6638a86208d0b3aebf906cad3047b08b40e99a493f37701842b3e",
    (4, 2, (4, 4)): "ac29511d50575c0bcf84e444bb3bae524741ecee8537bb9213aaf2d97edd2198",
    (3, 1, (12,)): "9cc1a1b93a511ac6d20768a02390c1e163345828a126b04c71831ad56dc5353b",
}


@pytest.mark.parametrize("case", sorted(BRUTEFORCE))
def test_bruteforce_sum_is_golden(case):
    l, k, exps = case
    g = Z2Power(l)
    a = DPClass.monomial(GeneratorSet.v_basis(k), exps)
    out = alpha_z2power_bruteforce(g, k, a, CoefficientClass.unit(g))
    assert sha256(json.dumps(out.to_json(), sort_keys=True)) == BRUTEFORCE[case]
