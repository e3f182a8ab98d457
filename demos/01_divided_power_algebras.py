"""Divided power algebras over GF(2): the coefficient modules.

The mod-2 homology of the classifying space of an elementary abelian
2-group of rank k is the divided power algebra on k generators of
degree 1; for a rank-l torus, on l generators of degree 2; for SU(2),
on one generator u of degree 4, a quotient of the rank-1 case.
"""

from bgops import (
    CoefficientClass,
    DPClass,
    F2Matrix,
    GeneratorSet,
    SU2,
    beta_push,
    dp_coproduct,
    dp_multiply,
    linear_push,
    su2_act,
)

# --- products -------------------------------------------------------------
# v^[n] v^[m] = C(n+m, m) v^[n+m]; over GF(2) the coefficient is odd
# exactly when n and m have disjoint binary expansions.

gens = GeneratorSet.v_basis(1)
x = lambda n: DPClass.monomial(gens, (n,))

print("x^[1] * x^[2] =", dp_multiply(x(1), x(2)))   # C(3,2) = 3 is odd
print("x^[1] * x^[1] =", dp_multiply(x(1), x(1)))   # C(2,1) = 2 is even
print("x^[3] * x^[4] =", dp_multiply(x(3), x(4)))   # 3 = 011, 4 = 100 disjoint

# --- the coproduct --------------------------------------------------------
# each generator splits independently, all coefficients 1

print("\ncoproduct of x^[2]:")
for left, right in dp_coproduct((2,)):
    print("   ", left, "(x)", right)

# --- induced maps of linear maps -------------------------------------------
# a linear map V_k -> V_l induces a ring map; on a generator it is the
# divided power of the sum of the target generators hit by its column

diag = F2Matrix.from_rows([[1], [1]])       # the diagonal V_1 -> V_2
print("\ndiagonal pushes x^[2] to:", linear_push(diag, x(2)))

fold = F2Matrix.from_rows([[1, 1]])          # the fold map V_2 -> V_1
xy = DPClass.monomial(GeneratorSet.v_basis(2), (1, 1))
print("fold kills x1*x2:", linear_push(fold, xy))

# --- the halving map to the torus ------------------------------------------
# induced by the inclusion of the 2-torsion point: zero in odd degrees,
# an isomorphism in even degrees

print("\nbeta(x^[6]) =", beta_push(x(6)))
print("beta(x^[7]) =", beta_push(x(7)))

# --- the SU(2) module -------------------------------------------------------
# the quotient by the ideal generated by x and x^[2] keeps the degrees
# divisible by 4; u_m denotes the degree-4m class u^[m], the name a
# CoefficientClass over SU(2) prints

u = lambda m: DPClass.monomial(GeneratorSet.su2_basis(), (m,))
su2 = lambda value: CoefficientClass.from_dp(SU2(), value)

print("\nx^[4] . u_0 =", su2(su2_act(x(4), u(0))))
print("x^[5] . u_0 =", su2(su2_act(x(5), u(0))))
print("x^[8] . u_1 =", su2(su2_act(x(8), u(1))))
