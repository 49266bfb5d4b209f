"""Seeded job lists for the four workloads, and the checks on their answers.

A job is one CLI invocation (``twobridge <args>``, run in-process) or one
call of a public library function.  Every job carries a check that decides,
from an independent reference, whether the answer is right.  The references
are: the published table ``checks.SIGNATURE_TABLE`` for c <= 14, the
binomial and ``tot(2m+1) + tot(2m+2) = m C(2m, m)`` identities and the
Jacobsthal word count for larger rows, ``avg|sigma|(6) = 2/3``, and the
exact fractions in ``reference.json`` (recorded once by
``record_reference.py``).  Nothing here calls the program to build an input:
the genus query words and the Monte Carlo seeds are derived from the
workload seed by this file alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

NAMES = ("tables", "walk", "genus", "verify")

# Sizes of one pass.  Each pass takes a few seconds on a 2-CPU machine, so a
# run of BENCHMARK.json's run_seconds holds several passes and reports
# medians over them.
TABLE_BOTH_C = (3, 16)         # sig-table --method both over the process pool
TABLE_CACHE_C = (3, 14)        # cold cache write, then warm read
AVG_SIG_C = (3, 26)            # one avg-sig query per c
WALK_EXACT_ST = 18             # walk-sim --exact on every cell with s*t <= 18
WALK_ABS_MEANS_ST = 14         # markov.verify_abs_means on every s*t <= 14
# Cells with s*t below this finish in about 2 ms or less, where the host's
# speed drift swamps the measurement: they run, but are not queries.
WALK_QUERY_MIN_ST = 12
WALK_MONTE_CARLO = ((4, 100, 20_000), (8, 1000, 4_000))  # (s, t, trials)
GENUS_MEAN_C = (12, 13, 14)    # g4 --c: mean upper bound over all of T(c)
GENUS_QUERIES = 500            # g4 --word queries per pass
GENUS_QUERY_C = (60, 250)      # query crossing numbers, uniform
VERIFY_BUDGET_C = 14           # verify-all --budget-c

# Seconds one pass of any workload takes, process start included, on the
# machine in baseline.json; run.py makes --seconds / NOMINAL_PASS_S passes.
NOMINAL_PASS_S = 3.8

# The calibration loop (hostclock.py) whose speed scales each workload's
# times: the one like the code its jobs spend their time in.  genus is pure
# Python and walk is numpy; tables and verify mix both, and the pool.
CLOCK_LOOP = {"tables": "mixed", "walk": "numpy", "genus": "python", "verify": "mixed"}

CHECK_NAMES = ("counting", "metric-rows", "sig-table", "binomial", "totals",
               "avg-signature", "wallis", "markov", "walk",
               "cobordism-example", "aggregate-g4")


class WrongAnswer(Exception):
    """A job returned an answer that disagrees with its reference."""


@dataclass(frozen=True)
class Job:
    kind: str                       # "cli" or "lib"
    call: tuple                     # CLI argv, or (module, function, *args)
    check: Callable[[Any], None]    # raises WrongAnswer on a wrong answer
    query: bool = True              # False for bulk jobs, left out of query_*_ms


# ------------------------------------------------------- independent maths


def jacobsthal(n: int) -> int:
    return (2 ** n - (-1) ** n) // 3


def block_size(c: int) -> int:
    """ceil(log10 c) clamped to 1 <= s <= 2m - 1, from the digit count."""
    digits = len(str(c))
    s = digits - 1 if c == 10 ** (digits - 1) else digits
    return max(1, min(s, 2 * ((c - 1) // 2) - 1))


def walk_bound_holds(s: int, t: int, mean: float, stderr: float) -> bool:
    """mean - 3 stderr <= 3 sqrt(2^s t) + p, p = 3 * 2^(s/2) for even s."""
    p = 3 * 2 ** (s // 2) if s % 2 == 0 else 0
    return mean - 3 * stderr <= 3 * math.sqrt(2 ** s * t) + p


def fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


# ------------------------------------------------------------ seeded inputs


def random_word(rng: random.Random, c: int) -> str:
    """A word drawn uniformly from T(c): interior exponents in {1, 2}, kept
    when the total length is 1 mod 3 (rejection sampling)."""
    while True:
        exps = [rng.randint(1, 2) for _ in range(c - 2)]
        if (2 + sum(exps)) % 3 == 1:
            break
    parts = ["+"]
    parts += [("-" if i % 2 == 0 else "+") * e for i, e in enumerate(exps)]
    parts.append("-" if c % 2 == 0 else "+")
    return "".join(parts)


def query_words(seed: int) -> list[tuple[int, str]]:
    rng = random.Random(f"genus:{seed}")
    out = []
    for _ in range(GENUS_QUERIES):
        c = rng.randint(*GENUS_QUERY_C)
        out.append((c, random_word(rng, c)))
    return out


def monte_carlo_seeds(seed: int) -> list[int]:
    rng = random.Random(f"walk:{seed}")
    return [rng.randrange(2 ** 32) for _ in WALK_MONTE_CARLO]


# ------------------------------------------------------------------ checks


def _check_rows(rows: dict, published: dict) -> None:
    """Histogram rows: published rows for c <= 14, Jacobsthal row sums, and
    the binomial and paired-total identities wherever both rows of a pair
    2m+1, 2m+2 are present."""
    parsed = {int(c): {int(s): n for s, n in row.items()}
              for c, row in rows.items()}
    for c, row in parsed.items():
        if c in published:
            _expect(row == published[c], f"row c={c} differs from published")
        _expect(sum(row.values()) == jacobsthal(c - 2),
                f"row c={c} does not sum to |T(c)|")
    for odd in parsed:
        if odd % 2 == 0 or odd + 1 not in parsed:
            continue
        m = (odd - 1) // 2
        a, b = parsed[odd], parsed[odd + 1]
        for s in set(a) | set(b) | {2 * k - 2 * m + 2 for k in range(2 * m)}:
            k = m - 1 + s // 2
            want = math.comb(2 * m - 1, k) if 0 <= k <= 2 * m - 1 else 0
            _expect(a.get(s, 0) + b.get(s, 0) == want,
                    f"binomial identity fails at m={m}, sigma={s}")
        tot = sum(abs(s) * n for row in (a, b) for s, n in row.items())
        _expect(tot == m * math.comb(2 * m, m), f"tot identity fails at m={m}")


def _sig_table_check(c_lo: int, c_hi: int, published: dict):
    def check(answer):
        _expect(sorted(map(int, answer["rows"])) == list(range(c_lo, c_hi + 1)),
                "wrong set of rows")
        _check_rows(answer["rows"], published)
    return check


def _avg_sig_check(c: int, ref: dict):
    def check(answer):
        got = fraction(answer["rows"][str(c)]["avg"])
        if c == 6:
            _expect(got == Fraction(2, 3), "avg|sigma|(6) != 2/3")
        _expect(got == fraction(ref["avg_sig"][str(c)]), f"avg|sigma|({c}) wrong")
    return check


def _walk_exact_check(s: int, t: int, ref: dict):
    def check(answer):
        _expect(answer["mode"] == "exact" and answer["pass"] is True,
                f"walk-sim exact s={s} t={t} did not pass")
        _expect(fraction(answer["mean_exact"]) == fraction(ref["walk_exact"][f"{s},{t}"]),
                f"E[Dist] wrong at s={s}, t={t}")
    return check


def _abs_means_check(s: int, t: int):
    def check(answer):
        _expect(answer is True, f"verify_abs_means({s}, {t}) is not True")
    return check


def _monte_carlo_check(s: int, t: int, trials: int, seed: int):
    def check(answer):
        _expect(answer["pass"] is True and answer["trials"] == trials
                and answer["seed"] == seed, f"walk-sim s={s} t={t} did not pass")
        _expect(answer["stderr"] > 0
                and walk_bound_holds(s, t, answer["mean"], answer["stderr"]),
                f"Monte Carlo mean above the walk bound at s={s}, t={t}")
    return check


def _g4_mean_check(c: int, ref: dict):
    def check(answer):
        _expect(answer["words"] == jacobsthal(c - 2), f"|T({c})| wrong")
        _expect(answer["s"] == block_size(c) and answer["below_bound"] is True,
                f"g4 --c {c}: wrong block size or above 9.75c/log10(c)")
        _expect(fraction(answer["mean_upper"]) == fraction(ref["g4_mean"][str(c)]),
                f"mean g4 upper bound over T({c}) wrong")
    return check


def _g4_word_check(c: int, word: str):
    s = block_size(c)
    m = (c - 1) // 2
    t = (2 * m - 1) // s

    def check(answer):
        _expect(answer["word"] == word and answer["c"] == c and answer["s"] == s
                and answer["t"] == t and answer["r"] == c - s * t,
                f"g4 --word: wrong c, s, t or r for {word}")
        _expect(0 <= answer["g4_lower"] <= answer["g4_upper"],
                f"g4 interval empty for {word}")
    return check


def _verify_all_check(answer) -> None:
    names = tuple(r["name"] for r in answer["checks"])
    _expect(names == CHECK_NAMES, f"unexpected check list {names}")
    failed = [r["name"] for r in answer["checks"] if not r["passed"]]
    _expect(not failed and answer["passed"] is True, f"checks failed: {failed}")


# ------------------------------------------------------------------- jobs


def build_jobs(workload: str, seed: int, *, nproc: int, cache_dir: str,
               ref: dict, published: dict) -> list[Job]:
    """The job list of one pass.  The seed changes the genus query words and
    the Monte Carlo seeds; the number and kind of jobs never depend on it."""
    if workload == "tables":
        lo, hi = TABLE_BOTH_C
        jobs = [Job("cli", ("sig-table", "--c", f"{lo}..{hi}", "--method", "both",
                            "--workers", str(nproc), "--format", "json"),
                    _sig_table_check(lo, hi, published), query=False)]
        lo, hi = TABLE_CACHE_C
        cached = ("--method", "enumerate", "--workers", "1",
                  "--cache-dir", cache_dir, "--format", "json")
        jobs += [Job("cli", ("sig-table", "--c", f"{lo}..{hi}") + cached,
                     _sig_table_check(lo, hi, published), query=False)] * 2
        jobs += [Job("cli", ("avg-sig", "--c", str(c), "--format", "json"),
                     _avg_sig_check(c, ref))
                 for c in range(AVG_SIG_C[0], AVG_SIG_C[1] + 1)]
        return jobs
    if workload == "walk":
        jobs = [Job("cli", ("walk-sim", "--s", str(s), "--t", str(t), "--exact"),
                    _walk_exact_check(s, t, ref), query=s * t >= WALK_QUERY_MIN_ST)
                for s in range(1, WALK_EXACT_ST + 1)
                for t in range(1, WALK_EXACT_ST // s + 1)]
        jobs += [Job("lib", ("markov", "verify_abs_means", s, t), _abs_means_check(s, t),
                     query=s * t >= WALK_QUERY_MIN_ST)
                 for s in range(1, WALK_ABS_MEANS_ST + 1)
                 for t in range(1, WALK_ABS_MEANS_ST // s + 1)]
        for (s, t, trials), mc_seed in zip(WALK_MONTE_CARLO, monte_carlo_seeds(seed)):
            jobs.append(Job("cli", ("walk-sim", "--s", str(s), "--t", str(t),
                                    "--trials", str(trials), "--seed", str(mc_seed)),
                            _monte_carlo_check(s, t, trials, mc_seed), query=False))
        return jobs
    if workload == "genus":
        jobs = [Job("cli", ("g4", "--c", str(c)), _g4_mean_check(c, ref), query=False)
                for c in GENUS_MEAN_C]
        jobs += [Job("cli", ("g4", "--word", word), _g4_word_check(c, word))
                 for c, word in query_words(seed)]
        return jobs
    if workload == "verify":
        return [Job("cli", ("verify-all", "--budget-c", str(VERIFY_BUDGET_C)),
                    _verify_all_check)]
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
