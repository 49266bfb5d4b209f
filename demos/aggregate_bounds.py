"""Mean 4-genus upper bounds over T(c) against the closed-form caps.

Block size s = ceil(log10 c) makes the saddle count per word grow
like c / log c; averaging the pipeline's exact upper bounds over all
of T(c) stays far below both the expression-level cap and the
simplified 9.75 c / log10(c) cap.
"""

from twobridge.cobordism import (
    average_g4_row,
    choose_block_size,
    decompose,
    expression_upper_bound,
    log10_upper_bound,
)
from twobridge.diagram import signature
from twobridge.words import enumerate_words

print("c    s  mean upper      expression cap  9.75c/log10(c)")
for c in range(7, 16):
    s = choose_block_size(c)
    row = average_g4_row(c, s)
    assert row.below_expression and row.below_log10
    print(f"{c:<4} {s}  {str(row.mean_upper):<9} "
          f"{float(row.mean_upper):<6.3f} {expression_upper_bound(c, s):<15.2f} "
          f"{log10_upper_bound(c):.2f}")

print()
print("per-word sandwich |sigma|/2 <= g4_upper, spot check at c = 13")
reports = [decompose(word, choose_block_size(13)) for word in enumerate_words(13)]
worst = max(reports, key=lambda r: r.g4_upper)
print(f"  widest interval: {worst.word} -> [{worst.g4_lower}, {worst.g4_upper}]")
for r in reports:
    assert abs(signature(r.word)) // 2 <= r.g4_upper
print(f"  all {len(reports)} words of T(13) respect the interval ordering")
