"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that

* a second workload seed gives other genus query words and Monte Carlo
  seeds, but the same jobs in number and kind;
* the correctness gate works: a run against a deliberately wrong reference
  (one exact walk fraction and one mean 4-genus bound changed) reports
  failed > 0 and correct = false, and exits 1.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def _shape(jobs):
    return [(job.kind, job.call[0], job.query) for job in jobs]


def check_seeds() -> None:
    ref = json.loads((HERE / "reference.json").read_text())
    for workload in workloads.NAMES:
        a, b = (workloads.build_jobs(workload, seed, nproc=2, cache_dir="cache",
                                     ref=ref, published={}) for seed in (1, 2))
        _require(_shape(a) == _shape(b), f"{workload}: job list depends on the seed")
        calls_differ = [x.call for x in a] != [y.call for y in b]
        _require(calls_differ == (workload in ("walk", "genus")),
                 f"{workload}: inputs differ between seeds: {calls_differ}")
    words_1 = [w for _, w in workloads.query_words(1)]
    words_2 = [w for _, w in workloads.query_words(2)]
    _require(len(set(words_1) & set(words_2)) < len(words_1) // 10,
             "seeds 1 and 2 share most genus query words")
    _require(workloads.query_words(1) == workloads.query_words(1),
             "one seed gives two different word lists")
    print("ok: seeds change the genus words and Monte Carlo seeds, not the jobs")


def check_wrong_reference() -> None:
    ref = json.loads((HERE / "reference.json").read_text())
    for section, key in (("walk_exact", "2,3"), ("g4_mean", "13")):
        ref[section][key] = str(workloads.fraction(ref[section][key]) + Fraction(1, 7))
    wrong = HERE / "_work-selftest" / "wrong-reference.json"
    wrong.parent.mkdir(exist_ok=True)
    wrong.write_text(json.dumps(ref))
    try:
        for workload in ("walk", "genus"):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--reference", str(wrong)],
                capture_output=True, text=True, timeout=170)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            _require(done.returncode == 1, f"{workload}: exit {done.returncode}")
            _require(result["failed"] > 0 and result["correct"] is False,
                     f"{workload}: wrong reference not caught: {result}")
            print(f"ok: wrong reference on {workload} gives fail_frac = "
                  f"{result['failed']}/{result['attempted']}")
    finally:
        wrong.unlink()
        wrong.parent.rmdir()


def main() -> int:
    check_seeds()
    check_wrong_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
