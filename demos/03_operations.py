"""The string topology operations across all supported coefficient groups.

The rank-k operation takes a class over the rank-k elementary abelian
2-group and a class over G, and raises degree by deg(a) + dim(G)(2^k-1).
Every such operation is multiplication by a class C(a) that depends only
on a: a divided-power product for Z/2 and dihedral targets, the
matrix-count sum for higher elementary abelian targets, the halving map
for the circle, the quotient module action for SU(2), and the diagonal
coproduct for products.  So the operation is nonzero exactly when it is
nonzero on the unit class.
"""

from bgops import (
    A_count,
    CircWord,
    CoefficientClass,
    DPClass,
    Dihedral,
    GeneratorSet,
    SU2,
    SymClass,
    Torus,
    UnsupportedOperationError,
    Z2Power,
    alpha,
    alpha_z2power_bruteforce,
    composite_op,
    make_product,
    multiplier,
    nontrivial_witness,
    phi_sigma,
)

V1 = GeneratorSet.v_basis(1)
V2 = GeneratorSet.v_basis(2)

# --- closed forms -------------------------------------------------------------

z2 = Z2Power(1)
print("Z/2,  k=2:  x1 x2^[2] (x) 1  ->", alpha(z2, 2, DPClass.monomial(V2, (1, 2)), CoefficientClass.unit(z2)))

z22 = Z2Power(2)
print("Z/2^2, k=1: x^[3] (x) 1      ->", alpha(z22, 1, DPClass.monomial(V1, (3,)), CoefficientClass.unit(z22)))

d6 = Dihedral(1)
print("D6,  k=1:  x^[2] (x) 1      ->", alpha(d6, 1, DPClass.monomial(V1, (2,)), CoefficientClass.unit(d6)))

t1 = Torus(1)
print("T^1, k=1:  x^[1] (x) 1      ->", alpha(t1, 1, DPClass.monomial(V1, (1,)), CoefficientClass.unit(t1)))
print("T^1, k=2:  x1 x2^[2] (x) 1  ->", alpha(t1, 2, DPClass.monomial(V2, (1, 2)), CoefficientClass.unit(t1)))

su2 = SU2()
print("SU2, k=1:  x^[1] (x) u_0    ->", alpha(su2, 1, DPClass.monomial(V1, (1,)), CoefficientClass.unit(su2)))

mixed = make_product([Z2Power(1), Torus(1)])
print("Z/2 x T^1: x^[3] (x) 1(x)1  ->", alpha(mixed, 1, DPClass.monomial(V1, (3,)), CoefficientClass.unit(mixed)))

# the multiplier class, and the operation as multiplication by it
c = multiplier(mixed, 1, DPClass.monomial(V1, (3,)))
b = CoefficientClass.tensor(
    CoefficientClass.from_dp(Z2Power(1), DPClass.monomial(GeneratorSet.z2_basis(1), (4,))),
    CoefficientClass.unit(Torus(1)),
)
print("C(x^[3]) on Z/2 x T^1       =", c)
print("alpha == C(a) * b on x^[4](x)1:", alpha(mixed, 1, DPClass.monomial(V1, (3,)), b) == c * b)

# pairs with no computed closed form raise instead of returning zero
try:
    alpha(su2, 2, DPClass.monomial(V2, (1, 1)), CoefficientClass.unit(su2))
except UnsupportedOperationError as exc:
    print("SU2, k=2:", exc)

# --- the matrix count and the internal oracle ---------------------------------

print("\nA(3; 1,2) =", A_count((3,), (1, 2), "exact"))
print("A(6; 2,4) =", A_count((6,), (2, 4), "exact"), " (doubling invariance)")

a = DPClass.monomial(V2, (3, 4))
fast = alpha(z22, 2, a, CoefficientClass.unit(z22))
brute = alpha_z2power_bruteforce(z22, 2, a, CoefficientClass.unit(z22))
print("fast == brute-force over all 16 linear maps:", fast == brute)

# --- weight-graded operations and composites ----------------------------------

b = CoefficientClass.from_dp(z2, DPClass.monomial(GeneratorSet.z2_basis(1), (4,)))
print("\nweight 2 at E1 on x^[4]:", phi_sigma(z2, 2, SymClass.single(CircWord.of(1)), b))
print("weight 3 vanishes:", phi_sigma(z2, 3, SymClass.from_terms([[CircWord.of(1), CircWord.of()]]), b))

factors = [(2, SymClass.single(CircWord.of(1))), (2, SymClass.single(CircWord.of(2)))]
print("composite (E1, E2) on 1:", composite_op(z2, factors, CoefficientClass.unit(z2)))

# --- nontriviality: one evaluation at the unit ----------------------------------

for n in (4, 5, 6):
    res = nontrivial_witness(su2, 1, DPClass.monomial(V1, (n,)))
    verdict = f"witness {res.witness}" if res.witness else "trivial (certified)"
    print(f"SU2 witness for x^[{n}]:", verdict)
