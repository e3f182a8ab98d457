"""Nonvanishing certificates for unstable homology classes.

A nonzero composite operation certifies nonzero classes in the homology
of holomorphs of free groups, the twisted homology of automorphism
groups of free groups, and affine groups over Z and over GF(2), together
with stability metadata: stable images with their stabilization offset,
non-membership in the image of stabilization, and vanishing bounds for
the unstable families.
"""

import json

from bgops import (
    CircWord,
    SymClass,
    Target,
    Torus,
    Z2Power,
    build_certificate,
    example_family,
    stable_image,
)

E = {i: SymClass.single(CircWord.of(i)) for i in (1, 2, 3)}

# --- a single certificate -----------------------------------------------------

cert = build_certificate(Target.HOL_ORDINARY, Z2Power(1), [(2, E[1]), (2, E[2])])
print("holomorph certificate:")
print("   rank N =", cert.rank, " degree =", cert.degree)
print("   witness coefficient:", cert.coefficient, " output:", cert.output)
print("   stable:", cert.stability.stable,
      " not in stabilization image:", cert.stability.not_in_stabilization_image)
image, offset = cert.stability.stable_image
print("   stable image:", image, " offset L =", offset)
print("   re-validates:", cert.revalidate())

# --- the twisted family is unstable ---------------------------------------------

cert = build_certificate(Target.AUT_TWISTED, Z2Power(1), [(2, E[3])])
print("\ntwisted certificate: degree", cert.degree, "at rank", cert.rank)
print("   vanishing bound (degree, rank):", cert.stability.vanishing_bound)

# --- a full example family -------------------------------------------------------

bundle = example_family([1, 2], [1, 2])
print("\nfamily u = (1, 2), two groups: rank", bundle.rank)
for target, c in sorted(bundle.certificates.items(), key=lambda kv: kv[0].value):
    flags = []
    if c.stability.stable:
        flags.append("stable")
    if c.stability.unstable:
        flags.append("unstable")
    if c.stability.not_in_stabilization_image:
        flags.append("new at this rank")
    print(f"   {target.value:15s} degree {c.degree}  [{', '.join(flags) or 'nonzero'}]")

# --- machine-readable output -------------------------------------------------------

doc = bundle.certificates[Target.AFF_F2].to_json()
print("\nthe GF(2) affine certificate as JSON:")
print(json.dumps(doc, indent=2, sort_keys=True)[:600], "...")

# --- stable images by themselves ----------------------------------------------------

image, offset = stable_image([(2, E[1]), (2, E[2])], 3)
print("\nstable image of (E1, E2) for a degree-3 class:", image, " L =", offset)

# a composite that is zero on the unit is zero on every class: a proof
result = build_certificate(Target.HOL_ORDINARY, Torus(1), [(2, E[2])])
print("\neven circle powers give no witness:", result.reason)
