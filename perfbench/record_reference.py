"""Record the exact answers the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json: avg|sigma|(c), the exact walk E[Dist] per
(s, t) cell and the mean g4 upper bound per c, at the sizes workloads.py
uses.  The committed file was recorded once, at the commit that added the
benchmark, and is not meant to be rewritten by a change under test: a
change that alters one of these values is a wrong answer.
"""

import json
from pathlib import Path

import workloads
from twobridge import cobordism, markov, sigtables


def _frac(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def main() -> None:
    lo, hi = workloads.AVG_SIG_C
    avg_sig = {str(c): _frac(sigtables.totals(c).avg_abs_sigma) for c in range(lo, hi + 1)}
    st = workloads.WALK_EXACT_ST
    walk = {f"{s},{t}": _frac(markov.exact_expected_distance(s, t))
            for s in range(1, st + 1) for t in range(1, st // s + 1)}
    g4 = {str(c): _frac(cobordism.average_g4_row(c, workloads.block_size(c)).mean_upper)
          for c in workloads.GENUS_MEAN_C}
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps({"avg_sig": avg_sig, "walk_exact": walk, "g4_mean": g4},
                              indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
