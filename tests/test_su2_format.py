"""The v1 external format of classes with an SU(2) factor.

H_*(BSU(2)) is the divided-power algebra on one generator u of degree 4,
but its classes keep their own external format: ``{"su2": [m, ...]}`` for
SU(2) alone, a bare int m for an SU(2) factor inside ``tensor_terms``,
and the text ``u_m``.  The digests below were recorded when SU(2) classes
were still stored as bare ints, so they pin that the format did not move.
"""

import hashlib
import json

import pytest

from bgops import cli
from bgops.cli import EXIT_ERROR
from bgops.operations import CoefficientClass, coefficient_basis, parse_group

TOP_DEGREE = 12
FORMAT_SHA256 = {
    # group: sha256 of the JSON list of [to_json(c), str(c)] over the cases
    "su2": "956cc9bb4bac63bcedb78728ce3490fff75cd7abc3fc441fdef436f024bf9070",
    "(z2)x(su2)": "d3e13a6b88d94e1246c5ef70fd38cbbf378f5cfccc5d718e4683e0d253facfbd",
    "(su2)x(su2)": "8bb3d82aeb18c4863d4e576fc62e01d4f1a25349a111608a9ce0afcecb9220e3",
    "(t^1)x(su2)": "6a2814af242ae56b29cbc5eb6ee563de0bd8b68c9fcbaae0a95a8b053ba26756",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def format_cases(spec: str) -> list[CoefficientClass]:
    """Every basis class up to TOP_DEGREE, then a few sums: each degree's
    basis summed, an inhomogeneous sum of the first class of each degree,
    and zero."""
    g = parse_group(spec)
    by_degree = [coefficient_basis(g, d) for d in range(TOP_DEGREE + 1)]
    cases = [c for basis in by_degree for c in basis]
    zero = CoefficientClass.zero(g)
    for basis in by_degree:
        total = zero
        for c in basis:
            total += c
        cases.append(total)
    mixed = zero
    for basis in by_degree:
        if basis:
            mixed += basis[0]
    return cases + [mixed, zero]


@pytest.mark.parametrize("spec", sorted(FORMAT_SHA256))
def test_su2_format_is_golden(spec):
    g = parse_group(spec)
    records = []
    for c in format_cases(spec):
        doc = c.to_json()
        assert CoefficientClass.from_json(g, json.loads(json.dumps(doc))) == c
        records.append([doc, str(c)])
    assert sha256(json.dumps(records, sort_keys=True)) == FORMAT_SHA256[spec]


def test_su2_format_examples():
    su2 = parse_group("su2")
    pair = parse_group("(z2)x(su2)")
    (u2,) = coefficient_basis(su2, 8)
    assert u2.to_json() == {"su2": [2]}
    assert str(u2) == "u_2"
    assert str(CoefficientClass.unit(su2)) == "u_0"
    x_u1 = next(c for c in coefficient_basis(pair, 5) if c.to_json()["tensor_terms"] == [[[1], 1]])
    assert str(x_u1) == "x (x) u_1"
    assert CoefficientClass.unit(pair).to_json() == {
        "group": "(z2^1)x(su2)",
        "tensor_terms": [[[0], 0]],
    }


def test_repeated_su2_terms_cancel():
    # a GF(2) sum, read the same way alone and inside tensor_terms
    su2, pair = parse_group("su2"), parse_group("(su2)x(su2)")
    assert CoefficientClass.from_json(su2, {"su2": [1, 2, 1]}).to_json() == {"su2": [2]}
    doc = {"group": "(su2)x(su2)", "tensor_terms": [[1, 0], [0, 1], [1, 0]]}
    assert CoefficientClass.from_json(pair, doc).to_json()["tensor_terms"] == [[0, 1]]


MALFORMED = [
    # (group, coefficient JSON): a list on an SU(2) factor, an int on a
    # divided-power factor, a negative m
    ("su2", {"su2": [[1]]}),
    ("su2", {"su2": [-1]}),
    ("(z2)x(su2)", {"group": "(z2)x(su2)", "tensor_terms": [[[1], [1]]]}),
    ("(z2)x(su2)", {"group": "(z2)x(su2)", "tensor_terms": [[1, 1]]}),
    ("(z2)x(su2)", {"group": "(z2)x(su2)", "tensor_terms": [[[1], -1]]}),
    ("(su2)x(su2)", {"group": "(su2)x(su2)", "tensor_terms": [[0, [0]]]}),
    ("(t^1)x(su2)", {"group": "(t^1)x(su2)", "tensor_terms": [[2, 0]]}),
    ("(t^1)x(su2)", {"group": "(t^1)x(su2)", "tensor_terms": [[[0], -3]]}),
    # a float or a bool where an integer belongs
    ("su2", {"su2": [2.7]}),
    ("su2", {"su2": [True]}),
    ("(z2)x(su2)", {"group": "(z2)x(su2)", "tensor_terms": [[[2.5], 0]]}),
    ("(z2)x(su2)", {"group": "(z2)x(su2)", "tensor_terms": [[[1], 2.0]]}),
]


@pytest.mark.parametrize("spec,doc", MALFORMED)
def test_malformed_su2_json_is_rejected(capsys, spec, doc):
    with pytest.raises(ValueError):
        CoefficientClass.from_json(parse_group(spec), doc)
    code = cli.main(["alpha", "--group", spec, "-k", "1", "--a", "[1]", "--b", json.dumps(doc)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
