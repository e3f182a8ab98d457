import copy
import dataclasses
import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bgops.certify import (
    Certificate,
    CertificateBundle,
    FailureReport,
    Target,
    build_certificate,
    example_family,
    factors_from_json,
    factors_to_json,
    stable_image,
)
from bgops.gradedalg import DPClass, GeneratorSet, dp_multiply
from bgops.operations import (
    CoefficientClass,
    Dihedral,
    GroupHypothesisError,
    SU2,
    Torus,
    Z2Power,
    coefficient_basis,
    composite_op,
    make_product,
)
from bgops.symhomology import CircWord, SymClass

Z2 = Z2Power(1)
E = {i: SymClass.single(CircWord.of(i)) for i in range(1, 9)}
ONE_WORD = SymClass.single(CircWord.of())


def test_hol_ordinary_example():
    cert = build_certificate(Target.HOL_ORDINARY, Z2, [(2, E[1]), (2, E[2])])
    assert isinstance(cert, Certificate)
    assert cert.rank == 2
    assert cert.degree == 3
    assert cert.stability.stable
    assert cert.stability.not_in_stabilization_image
    assert not cert.stability.unstable
    image, offset = cert.stability.stable_image
    (term,) = image.terms
    assert len(term) == 2
    assert cert.revalidate()


def test_aut_twisted_example():
    cert = build_certificate(Target.AUT_TWISTED, Z2, [(2, E[3])])
    assert isinstance(cert, Certificate)
    assert cert.rank == 1
    assert cert.degree == 2  # one less than the class degree
    assert cert.stability.unstable
    assert cert.stability.vanishing_bound == (2, 7)  # dies for rank > 2*2+3


def test_degree_zero_classes_lie_in_the_stabilization_image():
    # the weight-1 class of degree 0 is the unit, so it is stable: it is
    # in the image of stabilization, and AffF2 claims no instability
    for target in (Target.HOL_ORDINARY, Target.HOL_UNSTABLE, Target.AFF_F2):
        cert = build_certificate(target, Z2, [(1, ONE_WORD)])
        assert isinstance(cert, Certificate), target
        assert cert.degree == 0
        assert cert.stability.not_in_stabilization_image is False, target
        assert cert.to_json()["stability"]["not_in_stabilization_image"] is False
    aff = build_certificate(Target.AFF_F2, Z2, [(1, ONE_WORD)]).stability
    assert aff.unstable is False
    assert aff.vanishing_bound is None


def test_group_hypotheses():
    with pytest.raises(GroupHypothesisError):
        build_certificate(Target.AFF_F2, Torus(1), [(2, E[1])])
    with pytest.raises(GroupHypothesisError):
        build_certificate(Target.AFF_Z, SU2(), [(2, E[1])])
    with pytest.raises(GroupHypothesisError):
        build_certificate(Target.AFF_Z, Dihedral(1), [(2, E[1])])
    # dihedral groups of order 2 are honest elementary abelian 2-groups
    cert = build_certificate(Target.AFF_F2, Dihedral(0), [(2, E[1])])
    assert isinstance(cert, Certificate)
    # tori are abelian, so the integral affine target accepts them
    cert = build_certificate(Target.AFF_Z, Torus(1), [(2, E[1])])
    assert isinstance(cert, Certificate)


def test_failure_report_is_inconclusive():
    # over the circle, an even one-variable power acts by zero, and the
    # report states that this is proved, not merely unfound
    result = build_certificate(Target.HOL_ORDINARY, Torus(1), [(2, E[2])])
    assert isinstance(result, FailureReport)
    doc = result.to_json()
    assert doc["failure"] is True
    assert "degree_bound" not in doc
    assert "vanishes on the unit class" in doc["reason"]
    for d in range(7):
        for b in coefficient_basis(Torus(1), d):
            assert composite_op(Torus(1), [(2, E[2])], b).is_zero()


def test_stable_image_examples():
    image, offset = stable_image([(2, E[1])], 1)
    assert image == E[1]
    assert offset == 2
    image, offset = stable_image([(2, E[1]), (2, E[2])], 3)
    assert offset == 4
    image, offset = stable_image([(1, ONE_WORD)], 0)
    assert image == ONE_WORD
    assert offset == 1
    with pytest.raises(ValueError):
        stable_image([(4, E[1])], 1)  # weight mismatch


def test_stable_image_nonzero_for_nonzero_factors():
    for factors in [
        [(2, E[1]), (2, E[1])],
        [(2, E[1]), (4, SymClass.single(CircWord.of(1, 2)))],
        [(1, ONE_WORD), (2, E[3])],
    ]:
        image, _ = stable_image(factors, 5)
        assert not image.is_zero()


def test_example_family_basic():
    bundle = example_family([1, 2], [1, 1])
    assert bundle.rank == 3
    assert set(bundle.certificates) == set(Target)
    assert bundle.certificates[Target.HOL_ORDINARY].degree == 3
    assert bundle.certificates[Target.AUT_TWISTED].degree == 2
    assert bundle.certificates[Target.AFF_F2].degree == 3

    bundle2 = example_family([1, 2], [1, 2])
    assert bundle2.rank == 2
    assert bundle2.certificates[Target.HOL_ORDINARY].degree == 3


def test_example_family_operation_is_divided_power_multiplication():
    gens = GeneratorSet.z2_basis(1)
    for u, f in [((1, 2), (1, 1)), ((1, 2), (1, 2)), ((4, 2, 1), (1, 2, 1))]:
        bundle = example_family(u, f)
        cert = bundle.certificates[Target.HOL_ORDINARY]
        total = sum(u)
        for m in range(4):
            b = CoefficientClass.from_dp(Z2, DPClass.monomial(gens, (m,)))
            value = composite_op(Z2, cert.factors, b)
            expected = CoefficientClass.from_dp(
                Z2, dp_multiply(DPClass.monomial(gens, (total,)), b.as_dp())
            )
            assert value == expected


def test_example_family_matches_one_certificate_per_target(monkeypatch):
    # the bundle evaluates its composite once and must equal, byte for
    # byte, the certificates built target by target
    import bgops.certify as certify_module

    calls = []
    real = certify_module.composite_op

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certify_module, "composite_op", counting)
    for u, f in [((1,), (1,)), ((1, 2), (1, 1)), ((1, 2), (1, 2)), ((4, 2, 1), (1, 2, 1)),
                 ((8, 3, 16), (2, 1, 2))]:
        calls.clear()
        bundle = example_family(u, f)
        assert len(calls) == 1
        factors = bundle.certificates[Target.HOL_ORDINARY].factors
        for target in Target:
            one = build_certificate(target, Z2, factors)
            assert json.dumps(bundle.certificates[target].to_json(), sort_keys=True) == json.dumps(
                one.to_json(), sort_keys=True
            )
        assert list(bundle.to_json()["certificates"]) == [t.value for t in Target]


def test_example_family_errors():
    with pytest.raises(ValueError) as err:
        example_family([1, 3], [1, 2])
    assert "u[0] = 1 and u[1] = 3" in str(err.value)
    with pytest.raises(ValueError):
        example_family([1, 2], [1, 3])  # not surjective onto 1..r
    with pytest.raises(ValueError):
        example_family([], [])
    with pytest.raises(ValueError):
        example_family([0, 1], [1, 2])


def test_certificate_json_schema_and_round_trip():
    cert = build_certificate(Target.HOL_ORDINARY, Z2, [(2, E[1]), (2, E[2])])
    doc = cert.to_json()
    assert doc["version"] == "v1"
    assert set(doc) == {
        "version",
        "target",
        "N",
        "degree",
        "witness",
        "stability",
        "shift_convention_note",
    }
    assert set(doc["witness"]) == {"group", "factors", "coefficient", "output"}
    assert set(doc["stability"]) == {
        "stable",
        "not_in_stabilization_image",
        "unstable",
        "stable_image",
        "vanishing_bound",
    }
    # tolerant of unknown fields
    doc2 = json.loads(json.dumps(doc))
    doc2["future_field"] = [1, 2, 3]
    doc2["witness"]["note"] = "ignored"
    parsed = Certificate.from_json(doc2)
    assert parsed.revalidate()
    assert parsed.to_json() == doc


def test_bundle_json():
    bundle = example_family([1, 2], [1, 2])
    doc = bundle.to_json()
    assert doc["N"] == 2
    assert set(doc["certificates"]) == {t.value for t in Target}


def test_certificates_revalidate_and_degree_bookkeeping():
    for u, f in [((1,), (1,)), ((2, 4), (1, 1)), ((1, 2, 4), (1, 2, 2))]:
        bundle = example_family(u, f)
        total = sum(u)
        for target, cert in bundle.certificates.items():
            assert cert.revalidate()
            if target is Target.AUT_TWISTED:
                assert cert.degree == total - 1
            else:
                assert cert.degree == total
            assert cert.rank == bundle.rank


def test_product_group_certificate():
    group = make_product([Z2, Z2])
    # a rank-2 target needs exponents of at least 2: E_1 is certifiably
    # trivial here, E_3 acts by the two-variable divided-power sum
    result = build_certificate(Target.AFF_F2, group, [(2, E[1])])
    assert isinstance(result, FailureReport)
    for d in range(7):
        for b in coefficient_basis(group, d):
            assert composite_op(group, [(2, E[1])], b).is_zero()
    cert = build_certificate(Target.AFF_F2, group, [(2, E[3])])
    assert isinstance(cert, Certificate)
    assert cert.revalidate()


# ---------------------------------------------------------------------------
# N, degree and stability are derived from the target and the factors


def test_rank_degree_and_stability_are_derived_not_stored():
    assert [f.name for f in dataclasses.fields(Certificate)] == [
        "target", "group", "factors", "coefficient", "output", "shift_convention_note",
    ]
    for name in ("rank", "degree", "stability"):
        assert isinstance(vars(Certificate)[name], property), name
    assert [f.name for f in dataclasses.fields(CertificateBundle)] == [
        "u", "assignment", "certificates",
    ]
    assert [f.name for f in dataclasses.fields(FailureReport)] == ["target", "group", "factors"]


def test_from_json_rejects_metadata_the_target_and_factors_do_not_give():
    # an AutTwisted class is unstable; a document claiming that it is
    # stable, with no vanishing bound, is refused
    cert = build_certificate(Target.AUT_TWISTED, Z2, [(2, E[3])])
    doc = cert.to_json()
    assert Certificate.from_json(json.loads(json.dumps(doc))) == cert
    forged = copy.deepcopy(doc)
    forged["stability"].update(stable=True, unstable=False, vanishing_bound=None)
    with pytest.raises(ValueError, match="stability is .*, but the target and factors give"):
        Certificate.from_json(forged)
    for key, value, message in [
        ("N", 2, "N is 2, but the target and factors give 1"),
        ("degree", 3, "degree is 3, but the target and factors give 2"),
    ]:
        with pytest.raises(ValueError, match=message):
            Certificate.from_json({**doc, key: value})
    stable = build_certificate(Target.HOL_ORDINARY, Z2, [(2, E[3])]).to_json()
    stable["stability"]["stable_image"]["L"] += 1
    with pytest.raises(ValueError, match="stability is "):
        Certificate.from_json(stable)
    with pytest.raises(ValueError, match="stability is \\[True\\], but"):
        Certificate.from_json({**doc, "stability": [True]})
    # unknown stability fields are ignored, as unknown fields are elsewhere
    extended = copy.deepcopy(doc)
    extended["stability"]["note"] = "ignored"
    assert Certificate.from_json(extended) == cert


def test_from_json_rejects_metadata_of_another_json_type():
    cert = build_certificate(Target.HOL_ORDINARY, Z2, [(2, E[3])])
    doc = cert.to_json()
    stability = copy.deepcopy(doc["stability"])
    stability["stable_image"]["L"] = float(stability["stable_image"]["L"])
    claims = [("N", True), ("N", 1.0), ("degree", float(doc["degree"])), ("stability", stability)]
    for key, value in claims:
        assert value == doc[key]
        with pytest.raises(ValueError, match=f"{key} is .*, but the target and factors give"):
            Certificate.from_json({**doc, key: value})


MALFORMED_FACTORS = [
    [{"m": 2}], {"n": 2}, [[2]], [{"n": 2}], [{"n": 2.5, "a": []}], 2, "[]", [{"n": True, "a": []}]
]


@pytest.mark.parametrize("docs", MALFORMED_FACTORS)
def test_malformed_factor_lists_name_the_expected_shape(docs):
    with pytest.raises(ValueError, match=r"expected a factor list of the shape \[\{"):
        factors_from_json(docs)
    doc = build_certificate(Target.HOL_ORDINARY, Z2, [(2, E[1])]).to_json()
    doc["witness"]["factors"] = docs
    with pytest.raises(ValueError, match="expected a factor list"):
        Certificate.from_json(doc)


def test_factor_lists_round_trip():
    factors = ((2, E[1]), (4, SymClass.single(CircWord.of(1, 2))), (1, ONE_WORD))
    docs = factors_to_json(factors)
    assert docs == [{"n": n, "a": a.to_json()} for n, a in factors]
    assert factors_from_json(json.loads(json.dumps(docs))) == factors


@st.composite
def family_inputs(draw):
    """Bit-disjoint u and a surjective grouping, as ``example_family`` takes them."""
    bits = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True))
    owner = draw(st.lists(st.integers(0, len(bits) - 1), min_size=len(bits), max_size=len(bits)))
    u = [sum(1 << b for b, o in zip(bits, owner) if o == i) for i in sorted(set(owner))]
    r = draw(st.integers(1, len(u)))
    extra = draw(st.lists(st.integers(1, r), min_size=len(u) - r, max_size=len(u) - r))
    return u, draw(st.permutations(list(range(1, r + 1)) + extra))


Z2_SQUARED = make_product([Z2, Z2])
_ABELIAN = tuple(t for t in Target if t not in (Target.AFF_F2, Target.AFF_F2_UNSTABLE))
GROUP_TARGETS = [
    (Z2, tuple(Target)),
    (Z2_SQUARED, tuple(Target)),
    (Torus(1), _ABELIAN),
    (SU2(), (Target.HOL_ORDINARY, Target.AUT_TWISTED, Target.HOL_UNSTABLE)),
]


@st.composite
def built_certificates(draw):
    group, targets = draw(st.sampled_from(GROUP_TARGETS))
    factor = st.builds(lambda u: (2, E[u]), st.integers(1, 8))
    if group in (Z2, Z2_SQUARED):
        pair = st.tuples(st.integers(1, 4), st.integers(1, 4))
        factor = factor | st.builds(lambda p: (4, SymClass.single(CircWord.of(*p))), pair)
    factors = draw(st.lists(factor, min_size=1, max_size=2))
    result = build_certificate(draw(st.sampled_from(targets)), group, factors)
    assume(isinstance(result, Certificate))
    return result


certificates = built_certificates() | family_inputs().flatmap(
    lambda inputs: st.sampled_from(list(example_family(*inputs).certificates.values()))
)


def single_mutations(doc):
    """Documents that each change one derived or witnessed fact of ``doc``."""
    for key in ("N", "degree"):
        for step in (-1, 1):
            yield f"{key}{step:+d}", {**doc, key: doc[key] + step}
    stability = doc["stability"]
    for flag in ("stable", "not_in_stabilization_image", "unstable"):
        yield f"{flag} flipped", {**doc, "stability": {**stability, flag: not stability[flag]}}
    if stability["vanishing_bound"] is not None:
        yield "vanishing_bound dropped", {**doc, "stability": {**stability, "vanishing_bound": None}}
    for i in range(len(doc["witness"]["factors"])):
        mutated = copy.deepcopy(doc)
        mutated["witness"]["factors"][i]["n"] += 1
        yield f"factor {i} n+1", mutated


@settings(max_examples=60, deadline=None)
@given(certificates)
def test_certificate_documents_round_trip_and_single_mutations_are_refused(cert):
    text = json.dumps(cert.to_json(), sort_keys=True)
    again = Certificate.from_json(json.loads(text))
    assert again == cert
    assert json.dumps(again.to_json(), sort_keys=True) == text
    for name, mutated in single_mutations(json.loads(text)):
        with pytest.raises(ValueError):
            Certificate.from_json(mutated)
            pytest.fail(f"accepted the mutation {name}")
