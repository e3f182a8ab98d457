import itertools
import json

import pytest

from bgops.certify import (
    Certificate,
    CertificateBundle,
    FailureReport,
    Target,
    build_certificate,
    example_family,
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
