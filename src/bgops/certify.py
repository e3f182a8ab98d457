"""Machine-readable nonvanishing certificates for homology classes.

A nonzero operation value indexed by symmetric-group classes pushes
forward to nonzero classes in the mod-2 homology of holomorphs of free
groups, the tautologically twisted homology of automorphism groups of
free groups, and affine groups over the integers and over the field of
two elements.  A certificate records the witnessing evaluation together
with stability metadata; it never claims to compute the target homology
groups themselves, which are unknown outside the stable range.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

from .f2core import json_int
from .operations import (
    CoefficientClass,
    GroupDescriptor,
    GroupHypothesisError,
    Z2Power,
    composite_op,
    format_group,
    is_abelian,
    is_elementary_abelian_2,
    is_even_or_positive_dimensional,
    parse_group,
)
from .symhomology import CircWord, SymClass, juxta_multiply

SHIFT_CONVENTION_NOTE = (
    "degree shift convention: dim(G) * N with N = sum(n_i - 1), i.e. additive in "
    "the arities (Euler characteristic of the composite); the alternative "
    "convention dim(G) * (N - 1) that also appears in the literature is NOT "
    "used here, and the discrepancy is deliberately surfaced rather than "
    "silently resolved."
)


class Target(str, enum.Enum):
    """Certificate targets."""

    HOL_ORDINARY = "HolOrdinary"
    AUT_TWISTED = "AutTwisted"
    HOL_UNSTABLE = "HolUnstable"
    AFF_Z = "AffZ"
    AFF_F2 = "AffF2"
    AFF_Z_UNSTABLE = "AffZUnstable"
    AFF_F2_UNSTABLE = "AffF2Unstable"


@dataclass(frozen=True)
class StabilityInfo:
    """Stability metadata attached to a certificate.

    ``stable_image`` holds the image of the witness class under iterated
    stabilization together with the minimal offset L placing it in the
    stable range.  ``vanishing_bound`` is a (degree, rank) pair: the
    certified class dies under stabilization once the rank passes the
    bound.
    """

    stable: bool
    not_in_stabilization_image: bool
    unstable: bool
    stable_image: tuple[SymClass, int] | None = None
    vanishing_bound: tuple[int, int] | None = None

    def to_json(self) -> dict:
        image, bound = self.stable_image, self.vanishing_bound
        return {
            "stable": self.stable,
            "not_in_stabilization_image": self.not_in_stabilization_image,
            "unstable": self.unstable,
            "stable_image": None if image is None else {"class": image[0].to_json(), "L": image[1]},
            "vanishing_bound": None if bound is None else {"degree": bound[0], "rank": bound[1]},
        }


def _check_hypothesis(target: Target, group: GroupDescriptor) -> None:
    if target in (Target.AUT_TWISTED, Target.HOL_UNSTABLE):
        if not is_even_or_positive_dimensional(group):
            raise GroupHypothesisError(
                f"{target.value} requires a positive-dimensional group or a finite "
                "group of even order"
            )
    elif target in (Target.AFF_Z, Target.AFF_Z_UNSTABLE):
        if not is_abelian(group):
            raise GroupHypothesisError(f"{target.value} requires an abelian group")
        if target is Target.AFF_Z_UNSTABLE and not is_even_or_positive_dimensional(group):
            raise GroupHypothesisError(
                f"{target.value} requires a positive-dimensional or even-order group"
            )
    elif target in (Target.AFF_F2, Target.AFF_F2_UNSTABLE):
        if not is_elementary_abelian_2(group):
            raise GroupHypothesisError(
                f"{target.value} requires an elementary abelian 2-group"
            )
    # HolOrdinary accepts every supported compact group


def _class_degree(factors: Sequence[tuple[int, SymClass]]) -> int:
    return sum(a.homogeneous_degree() for _, a in factors)


def _stability_for(target: Target, factors: Sequence[tuple[int, SymClass]]) -> StabilityInfo:
    u = _class_degree(factors)
    positive = u > 0
    if target is Target.HOL_ORDINARY:
        image, offset = stable_image(factors, u)
        return StabilityInfo(
            stable=True,
            not_in_stabilization_image=positive,
            unstable=False,
            stable_image=(image, offset),
        )
    if target is Target.AUT_TWISTED:
        k = u - 1
        return StabilityInfo(
            stable=False,
            not_in_stabilization_image=False,
            unstable=True,
            vanishing_bound=(k, 2 * k + 3),
        )
    if target is Target.HOL_UNSTABLE:
        return StabilityInfo(
            stable=False,
            not_in_stabilization_image=positive,
            unstable=True,
            vanishing_bound=(u, 2 * (u - 1) + 3),
        )
    if target is Target.AFF_Z:
        return StabilityInfo(stable=False, not_in_stabilization_image=False, unstable=False)
    if target is Target.AFF_F2:
        return StabilityInfo(
            stable=False,
            not_in_stabilization_image=False,
            unstable=positive,
            vanishing_bound=(u, 2 * u + 1) if positive else None,
        )
    # the unstable affine families inherit the holomorph vanishing bound
    return StabilityInfo(
        stable=False,
        not_in_stabilization_image=False,
        unstable=True,
        vanishing_bound=(u, 2 * (u - 1) + 3),
    )


def factors_to_json(factors: Sequence[tuple[int, SymClass]]) -> list[dict]:
    return [{"n": n, "a": a.to_json()} for n, a in factors]


def factors_from_json(docs) -> tuple[tuple[int, SymClass], ...]:
    """Inverse of ``factors_to_json``; a document of another shape raises
    ValueError naming the expected one."""
    shape = 'a factor list of the shape [{"n": N, "a": CLASS}, ...]'
    if not isinstance(docs, list) or not all(
        isinstance(f, Mapping) and "n" in f and "a" in f for f in docs
    ):
        raise ValueError(f"expected {shape}")
    return tuple((json_int(f["n"], shape), SymClass.from_json(f["a"])) for f in docs)


@dataclass(frozen=True)
class Certificate:
    """A nonvanishing record for one target group family.

    The witness packages the coefficient group, the operation factors,
    the coefficient class and the nonzero value.  The rank N, the
    homology degree of the certified class in the target at rank N and
    the stability metadata are derived from the target and the factors.
    """

    target: Target
    group: GroupDescriptor
    factors: tuple[tuple[int, SymClass], ...]
    coefficient: CoefficientClass
    output: CoefficientClass
    shift_convention_note: str = SHIFT_CONVENTION_NOTE

    def __post_init__(self) -> None:
        if self.output.is_zero():
            raise ValueError("certificate output must be nonzero")
        _check_hypothesis(self.target, self.group)

    @property
    def rank(self) -> int:
        return sum(n - 1 for n, _ in self.factors)

    @property
    def degree(self) -> int:
        class_degree = _class_degree(self.factors)
        return class_degree - 1 if self.target is Target.AUT_TWISTED else class_degree

    @property
    def stability(self) -> StabilityInfo:
        return _stability_for(self.target, self.factors)

    def revalidate(self) -> bool:
        """Re-run the witness evaluation; certificates must reproduce."""
        value = composite_op(self.group, self.factors, self.coefficient)
        return value == self.output and not value.is_zero()

    def to_json(self) -> dict:
        return {
            "version": "v1",
            "target": self.target.value,
            "N": self.rank,
            "degree": self.degree,
            "witness": {
                "group": format_group(self.group),
                "factors": factors_to_json(self.factors),
                "coefficient": self.coefficient.to_json(),
                "output": self.output.to_json(),
            },
            "stability": self.stability.to_json(),
            "shift_convention_note": self.shift_convention_note,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Certificate":
        """Parse a v1 certificate document; unknown fields are ignored.

        N, degree and stability are re-derived from the target and the
        factors, and a document that states other values raises ValueError.
        """
        if doc.get("version") != "v1":
            raise ValueError("unsupported certificate version")
        witness = doc["witness"]
        group = parse_group(witness["group"])
        cert = cls(
            target=Target(doc["target"]),
            group=group,
            factors=factors_from_json(witness["factors"]),
            coefficient=CoefficientClass.from_json(group, witness["coefficient"]),
            output=CoefficientClass.from_json(group, witness["output"]),
            shift_convention_note=str(doc.get("shift_convention_note", SHIFT_CONVENTION_NOTE)),
        )
        derived = cert.to_json()
        stated = doc.get("stability")
        if isinstance(stated, Mapping):  # unknown stability fields are ignored too
            stated = {key: stated.get(key) for key in derived["stability"]}
        claims = {"N": doc.get("N"), "degree": doc.get("degree"), "stability": stated}
        for key, value in claims.items():
            # compared as JSON text, so that true is not 1 and 2.0 is not 2
            if json.dumps(value, sort_keys=True) != json.dumps(derived[key], sort_keys=True):
                raise ValueError(
                    f"{key} is {value!r}, but the target and factors give {derived[key]!r}"
                )
        return cert


@dataclass(frozen=True)
class FailureReport:
    """A certified vanishing: the composite is zero on every coefficient class."""

    target: Target
    group: GroupDescriptor
    factors: tuple[tuple[int, SymClass], ...]
    reason: ClassVar[str] = "the composite vanishes on the unit class, hence on every class"

    def to_json(self) -> dict:
        return {
            "version": "v1",
            "target": self.target.value,
            "failure": True,
            "reason": self.reason,
            "group": format_group(self.group),
            "factors": factors_to_json(self.factors),
        }


def build_certificate(
    target: Target | str,
    group: GroupDescriptor,
    factors: Sequence[tuple[int, SymClass]],
) -> Certificate | FailureReport:
    """Evaluate the composite on the unit class and emit a certificate.

    The composite is multiplication by the product of the factors'
    multipliers (see ``operations.multiplier``), so its value on the unit
    decides nonvanishing: a nonzero value is certified with the unit as
    coefficient, and a zero value yields a FailureReport, which proves
    that no coefficient class gives a nonzero value.
    """
    target = Target(target)
    _check_hypothesis(target, group)
    factors = tuple((int(n), a) for n, a in factors)
    value = composite_op(group, factors, CoefficientClass.unit(group))
    if value.is_zero():
        return FailureReport(target, group, factors)
    return Certificate(target, group, factors, CoefficientClass.unit(group), value)


def stable_image(
    factors: Sequence[tuple[int, SymClass]], k_degree: int
) -> tuple[SymClass, int]:
    """Image under iterated stabilization, with the minimal offset in range.

    The stable image is the juxtaposition product of the factors, landing
    in weight N + r; the offset L is minimal with N + r + L > 2k + 1.
    The image is nonzero whenever all factors are, because the ring is
    polynomial.
    """
    image = SymClass.one()
    for n, a in factors:
        if a.terms and a.homogeneous_weight() != n:
            raise ValueError(f"factor of weight {a.homogeneous_weight()} attached to arity {n}")
        image = juxta_multiply(image, a)
    rank = sum(n - 1 for n, _ in factors)
    r = len(list(factors))
    offset = max(0, 2 * k_degree + 2 - (rank + r))
    return image, offset


@dataclass(frozen=True)
class CertificateBundle:
    """The full set of certificate kinds emitted for one example family."""

    u: tuple[int, ...]
    assignment: tuple[int, ...]
    certificates: dict[Target, Certificate] = field(default_factory=dict)

    @property
    def rank(self) -> int:
        """N = sum(n_i - 1), where group i of the assignment has arity 2^(its size)."""
        return sum((1 << self.assignment.count(i)) - 1 for i in set(self.assignment))

    def to_json(self) -> dict:
        return {
            "version": "v1",
            "u": list(self.u),
            "assignment": list(self.assignment),
            "N": self.rank,
            "certificates": {t.value: c.to_json() for t, c in self.certificates.items()},
        }


def example_family(u: Sequence[int], assignment: Sequence[int]) -> CertificateBundle:
    """Certificates from bit-disjoint integers and a surjective grouping.

    ``u`` lists positive integers no two of which share a binary 1;
    ``assignment`` maps each index of u onto one of r groups, labelled
    1..r, surjectively.  Group i contributes the arity 2^(size of group i)
    and the composition-product class with the u_j of group i as
    subscripts.  With coefficients in Z/2 the composite operation is
    multiplication by x^[sum(u)], so every target certifies.  The
    composite is evaluated once; each target's Certificate checks that
    target's group hypothesis as it is built.
    """
    u = tuple(int(v) for v in u)
    if not u or any(v < 1 for v in u):
        raise ValueError("u must be a non-empty list of positive integers")
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] & u[j]:
                raise ValueError(
                    f"u[{i}] = {u[i]} and u[{j}] = {u[j]} share a 1 in their binary expansions"
                )
    assignment = tuple(int(v) for v in assignment)
    if len(assignment) != len(u):
        raise ValueError("assignment length must match u")
    r = max(assignment, default=0)
    if sorted(set(assignment)) != list(range(1, r + 1)):
        raise ValueError("assignment must be surjective onto 1..r")

    factors = []
    for i in range(1, r + 1):
        members = [u[j] for j in range(len(u)) if assignment[j] == i]
        factors.append((1 << len(members), SymClass.single(CircWord.of(*members))))
    factors = tuple(factors)

    group = Z2Power(1)
    unit = CoefficientClass.unit(group)
    value = composite_op(group, factors, unit)
    if value.is_zero():  # pragma: no cover - the family always certifies
        raise AssertionError("example family unexpectedly evaluated to zero")
    certificates = {target: Certificate(target, group, factors, unit, value) for target in Target}
    return CertificateBundle(u, assignment, certificates)
