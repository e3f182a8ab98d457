"""Golden outputs of the oracle layer, of the z2^l fast path and of the
operations on the other groups, fixed values that pin exactness.

Speed-ups must leave these outputs bit-identical.  The oracle values were
recorded from the route before the generator-spanned bar boundaries and
the packed ``linear_push``, the z2^l multiplier values from the column
pass before the row product, and the values on the other groups from the
tuple product of coefficient classes before the packed one; a change that
moves any of them changes an output, not just its speed.
"""

import hashlib
import itertools
import json

import pytest

from bgops import cli
from bgops.gradedalg import DPClass, GeneratorSet
from bgops.operations import (
    CoefficientClass,
    Z2Power,
    alpha,
    alpha_z2power_bruteforce,
    coefficient_basis,
    composite_op,
    multiplier,
    parse_group,
)
from bgops.oracle import FiniteGroupTable, bar_homology, bar_space
from bgops.symhomology import CircWord, SymClass

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


MULTIPLIER_BOXES = {
    # (l, k): (lo, hi, sha256 of the JSON list of C(x^[n]) on z2^l over every
    # n in [lo, hi]^k, in itertools.product order); the exponent ranges of
    # the benchmark's wide fast-path jobs, corners included
    (2, 1): (240, 320, "4f9cb5a182f3c92d569ec9d13af557a248ab45ba8256d61760a838b20ba562fe"),
    (2, 2): (40, 56, "0744a427040c364122b371361c6dea5eb4206b9ec888927cf361961f1949274f"),
    (2, 3): (14, 20, "f483076870c333f629691dc5b52cda87e91927596769a1a5624560a39e1d28f9"),
    (3, 1): (22, 30, "251994f63731b7fa88ee6029ac3b72e012947d6503927e358f964824edfd5163"),
    (3, 2): (12, 16, "7e066bd60a9e16e36ab7cde75f24fa7e5e20936b5cb3b244a73e51e127eb3633"),
    (3, 3): (7, 9, "005d5b9250c0c839ad1cdb3cdc2c4ba1d74b74aa98e61726a7e40ddbe046a3eb"),
    (4, 1): (11, 14, "9faf28919c430e452b3e2027e35bfb3e3a716333f5d72bfcdfb67f54cb55209e"),
    (4, 2): (7, 9, "8ab9d82bb2822443c1e168fbc142f1b30564214cc8a61b0ddb73c30877c22596"),
    (4, 3): (5, 6, "3eeb475079b661aebaa20ed2e591f51cffbf6023fc5707ce24a8e1a809aabe94"),
}
LADDER = {
    # n: sha256 of the JSON of C(x^[n]) on z2^3
    16: "bbc0936054ff4cbd6b1c219fc69197bd9e69e333b7af3758c04096bafd8b617e",
    32: "a26b385b2777b681c562498bd8f69019fb35a2404683a81e86131f94c8134f96",
    48: "2a1797ead6b26aed07d82ebe8fbc2fd1d841fc76a6669df16ca79cc2473b38a2",
    56: "4a858ac1c637f7bad2fd5b00da203ea2ac4d6e27073ee5c1aa1efe22fe7296fb",
}


def multiplier_json(l: int, exps: tuple[int, ...]) -> dict:
    a = DPClass.monomial(GeneratorSet.v_basis(len(exps)), exps)
    return multiplier(Z2Power(l), len(exps), a).to_json()


@pytest.mark.parametrize("case", sorted(MULTIPLIER_BOXES))
def test_z2power_multiplier_box_is_golden(case):
    l, k = case
    lo, hi, digest = MULTIPLIER_BOXES[case]
    outs = [multiplier_json(l, n) for n in itertools.product(range(lo, hi + 1), repeat=k)]
    assert sha256(json.dumps(outs, sort_keys=True)) == digest


@pytest.mark.parametrize("n", sorted(LADDER))
def test_z2power_multiplier_ladder_is_golden(n):
    assert sha256(json.dumps(multiplier_json(3, (n,)), sort_keys=True)) == LADDER[n]


# ---------------------------------------------------------------------------
# multipliers, alpha and composites outside z2^l

GOLDEN_GROUPS = ("t^1", "t^2", "su2", "d6", "(z2)x(su2)", "(t^1)x(z2)", "(su2)x(su2)")
GOLDEN_MAX_K = {
    "t^1": 2, "t^2": 2, "su2": 1, "d6": 3, "(z2)x(su2)": 1, "(t^1)x(z2)": 2, "(su2)x(su2)": 1
}
# k -> top exponent of each entry of a; the k = 1 range crosses the packed
# field edges 2^w - 1, 2^w for w up to 5
GOLDEN_TOPS = {0: 0, 1: 48, 2: 12, 3: 6}


def golden_monomials(spec: str):
    for k in range(GOLDEN_MAX_K[spec] + 1):
        for exps in itertools.product(range(GOLDEN_TOPS[k] + 1), repeat=k):
            yield k, DPClass.monomial(GeneratorSet.v_basis(k), exps)


def golden_composites(spec: str):
    """Two-factor composites E_m o E_n, and E_(i,j) o E_m where k = 2 is
    supported, each as its list of (weight, SymClass) factors."""
    for m, n in itertools.product(range(1, 13), repeat=2):
        yield [(2, SymClass.single(CircWord.of(m))), (2, SymClass.single(CircWord.of(n)))]
    if GOLDEN_MAX_K[spec] >= 2:
        for i, j, m in itertools.product(range(1, 7), repeat=3):
            if i <= j:
                yield [
                    (4, SymClass.single(CircWord.of(i, j))),
                    (2, SymClass.single(CircWord.of(m))),
                ]


def multi_term_b(g) -> CoefficientClass:
    """The sum of the canonical basis of degrees 0 to 2: every low term at once."""
    out = CoefficientClass.zero(g)
    for d in range(3):
        for b in coefficient_basis(g, d):
            out += b
    return out


GOLDEN_OPERATIONS = {
    # group: (sha256 of the JSON list of multiplier(g, k, a) over
    # golden_monomials, which alpha(g, k, a, 1) must also give; sha256 of
    # the JSON list of composite_op on the unit and on multi_term_b over
    # golden_composites)
    "t^1": (
        "fa820c312c109dd839fd53f68469498a159bcb464dcc65cdf178e14f30fe6a04",
        "84f06503ad00b128aa8178c528de3649a4a937d32da170d84c9a50dd2d5aaf4e",
    ),
    "t^2": (
        "494c13fb4d660e52eae7f5032899e33242e55f0d98db469c3c1352f7b84d34dd",
        "7c4f6a6ecb7240a7b3455ed923210977f3406b38dd02fe9326364efa98de867f",
    ),
    "su2": (
        "fa7a6777aef3f796e4db3e7dc9ff53a6a9487fbaaaf139113a9985c60a562ca0",
        "996a8db71f6b14f542f5cec4be9e0d3e3f27b0618af4f0761f3391340da8fc57",
    ),
    "d6": (
        "0cd2a24f28eaecd2b85d31b23d2e76f25879b9a7f263decc87adc6f6546d56cd",
        "914fe6d795162a670905f70f00908a241cee83b057bac96b33f5891d79da3341",
    ),
    "(z2)x(su2)": (
        "14ce61c7bcf70bedcd9bdbe556c1fd904a0562d39868c9549c9b8bf51aece3c6",
        "10030e23df48e6424781221e1b47a3fa30b02433abf2795d99bf788e325aba88",
    ),
    "(t^1)x(z2)": (
        "af6d6aae44e4b1b500e549247959dddbcb9e6afba32d41c73f45ec2acb2742e2",
        "b6bebdea0195e6c9837a00b59091784e959d1f5307e6e86006e9ced4392f1ec4",
    ),
    "(su2)x(su2)": (
        "5c300b9aa08ad6208c9a12f4c26cadea761aef7d80b05dc9037fe28760e209fd",
        "cbcb6b44f879b0f5b13d4aa736a50001b93ade73142a9941aaf360f779d525e8",
    ),
}


def golden_operation_outputs(spec: str) -> tuple[list, list, list]:
    g = parse_group(spec)
    unit, b = CoefficientClass.unit(g), multi_term_b(g)
    mults, alphas = [], []
    for k, a in golden_monomials(spec):
        mults.append(multiplier(g, k, a).to_json())
        alphas.append(alpha(g, k, a, unit).to_json())
    composites = [
        [composite_op(g, factors, unit).to_json(), composite_op(g, factors, b).to_json()]
        for factors in golden_composites(spec)
    ]
    return mults, alphas, composites


@pytest.mark.parametrize("spec", GOLDEN_GROUPS)
def test_operations_outside_z2power_are_golden(spec):
    mults, alphas, composites = golden_operation_outputs(spec)
    assert alphas == mults
    digests = tuple(sha256(json.dumps(out, sort_keys=True)) for out in (mults, composites))
    assert digests == GOLDEN_OPERATIONS[spec]
