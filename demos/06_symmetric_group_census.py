"""The generator census against honest homology of small symmetric groups.

The juxtaposition-product ring is polynomial on composition words with
weakly increasing chains; its weight-n graded piece is the homology of
BSigma_n.  Here the graded dimensions predicted by the generator counts
are compared with homology computed from nothing but permutation
multiplication tables and GF(2) rank computations on the normalized bar
complex.
"""

import math

from bgops import FiniteGroupTable, bar_homology, count_basis


def census(weight: int, degree: int) -> int:
    """Monomials of the free polynomial algebra in one bidegree."""
    generators = [(0, 1, 1)]  # the weight-1 class in degree 0
    w = 2
    while w <= weight:
        for d in range(degree + 1):
            c = count_basis(d, w)
            if c:
                generators.append((d, w, c))
        w *= 2
    dp = {(0, 0): 1}
    for d_g, w_g, count in generators:
        new_dp = dict(dp)
        for (d0, w0), ways in dp.items():
            m = 1
            while d0 + m * d_g <= degree and w0 + m * w_g <= weight:
                key = (d0 + m * d_g, w0 + m * w_g)
                new_dp[key] = new_dp.get(key, 0) + ways * math.comb(count + m - 1, m)
                m += 1
        dp = new_dp
    return dp.get((degree, weight), 0)


caps = {1: 3, 2: 3, 3: 3, 4: 2}
print("weight | degree | census | honest bar homology of B Sigma_n")
for n, cap in caps.items():
    dims = bar_homology(FiniteGroupTable.symmetric(n), cap, method="bar").dims
    for d in range(cap + 1):
        predicted = census(n, d)
        mark = "ok" if predicted == dims[d] else "MISMATCH"
        print(f"  {n:4d} | {d:6d} | {predicted:6d} | {dims[d]:6d}   {mark}")
