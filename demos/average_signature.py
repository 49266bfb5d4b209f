"""Average |signature| over T(c) and its sqrt(2c/pi) asymptote.

The exact averages come from the totals recursion (no enumeration),
so the table extends well past what exhaustive scoring could reach.
Wallis-type bounds on the central binomial ratio pin the asymptote
from both sides.
"""

import math

from twobridge.sigtables import totals, verify_wallis

print("c    avg|sigma|        sqrt(2c/pi)   gap")
gaps = {}
for c in range(3, 25):
    avg = totals(c).avg_abs_sigma
    root = math.sqrt(2 * c / math.pi)
    gaps[c] = float(avg) - root
    print(f"{c:<4} {str(avg):<10} {float(avg):<6.4f} {root:<13.4f} "
          f"{gaps[c]:+.4f}")

print()
print("|gap| at matched parities (the approach is monotone in each parity)")
for early, late in ((9, 19), (10, 20), (12, 24)):
    print(f"  |gap({late})| = {abs(gaps[late]):.4f}  <  "
          f"|gap({early})| = {abs(gaps[early]):.4f}")
    assert abs(gaps[late]) < abs(gaps[early])

print()
ok = all(verify_wallis(m) for m in range(1, 51)) and verify_wallis(1000)
print("Wallis bounds hold strictly for m in 1..50 and m = 1000:", ok)
