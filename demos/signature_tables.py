"""Build signature histograms two independent ways and compare.

Enumerating T(c) and scoring each word with Traczyk's formula gives
the histogram row s(c, .) directly; the two-row recursion rebuilds
the same rows from c = 3, 4 alone.  The paired diagonal sums land on
binomial coefficients.
"""

from math import comb

from twobridge.sigtables import (
    histogram_enumerated,
    recursed_table,
    verify_binomial,
    verify_symmetry,
)

C_MAX = 12

enumerated = {c: histogram_enumerated(c) for c in range(3, C_MAX + 1)}
recursed = recursed_table(C_MAX)

print("s(c, sigma) by enumeration, cross-checked against the recursion")
for c in range(3, C_MAX + 1):
    row = enumerated[c]
    assert row == recursed[c], f"mismatch at c={c}"
    assert verify_symmetry(c, row)
    cells = "  ".join(f"{sigma}:{n}" for sigma, n in sorted(row.items()))
    print(f"c={c:<3} {cells}")

print()
print("paired diagonals s(2m+1, sigma) + s(2m+2, sigma) against C(2m-1, m-1+sigma/2)")
for m in range(1, 6):
    assert verify_binomial(m, enumerated)
    odd, even = enumerated[2 * m + 1], enumerated[2 * m + 2]
    sigmas = sorted(set(odd) | set(even))
    pairs = [f"{odd.get(s, 0) + even.get(s, 0)}=C({2 * m - 1},{m - 1 + s // 2})"
             for s in sigmas if comb(2 * m - 1, m - 1 + s // 2)]
    print(f"m={m}: " + "  ".join(pairs))
