"""Tests for signature histograms, recursions, totals, and the CSV cache."""

import math
import os
import random
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from twobridge import budget
from twobridge import diagram as D
from twobridge import sigtables as S
from twobridge import words as W
from twobridge.budget import BudgetError
from twobridge.diagram import signature

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The published table of s(c, sigma) for 3 <= c <= 14.
TABLE = {
    3: {2: 1},
    4: {0: 1},
    5: {2: 2, 4: 1},
    6: {-2: 1, 0: 3, 2: 1},
    7: {0: 1, 2: 5, 4: 4, 6: 1},
    8: {-4: 1, -2: 5, 0: 9, 2: 5, 4: 1},
    9: {-2: 1, 0: 6, 2: 15, 4: 14, 6: 6, 8: 1},
    10: {-6: 1, -4: 7, -2: 20, 0: 29, 2: 20, 4: 7, 6: 1},
    11: {-4: 1, -2: 8, 0: 27, 2: 50, 4: 49, 6: 27, 8: 8, 10: 1},
    12: {-8: 1, -6: 9, -4: 35, -2: 76, 0: 99, 2: 76, 4: 35, 6: 9, 8: 1},
    13: {-6: 1, -4: 10, -2: 44, 0: 111, 2: 176, 4: 175, 6: 111, 8: 44, 10: 10, 12: 1},
    14: {-10: 1, -8: 11, -6: 54, -4: 155, -2: 286, 0: 351, 2: 286, 4: 155, 6: 54, 8: 11, 10: 1},
}


def enumerated_palindromic_histogram(c):
    """Oracle: the palindromic row of T(c), one diagram per palindrome."""
    return dict(Counter(signature(w) for w in W.enumerate_palindromic_words(c)))


@pytest.fixture(scope="module")
def enum14():
    return {c: S.histogram_enumerated(c) for c in range(3, 15)}


@pytest.fixture(scope="module")
def pal401():
    return S.palindromic_table(range(3, 402))


@pytest.fixture(scope="module")
def rec20():
    return S.recursed_table(20)


@pytest.fixture(scope="module")
def rows18(enum14, rec20):
    """Enumerated rows for c <= 14 and recursed rows beyond, so each
    identity is checked on both derivations."""
    return {c: enum14.get(c, rec20[c]) for c in range(3, 19)}


# ----------------------------------------------------------------- histograms


def test_enumerated_rows_match_published_table(enum14):
    for c, row in TABLE.items():
        assert enum14[c] == row, c


def test_enumerated_examples():
    assert S.histogram_enumerated(8) == TABLE[8]
    assert S.histogram_enumerated(9) == TABLE[9]
    assert S.histogram_enumerated(3) == {2: 1}


def test_row_sums_are_word_counts(enum14, rec20):
    for c, row in enum14.items():
        assert sum(row.values()) == W.word_count(c)
        assert all(s % 2 == 0 for s in row)
    for c, row in rec20.items():
        assert sum(row.values()) == W.word_count(c)


def test_enumeration_budget_refusal():
    with pytest.raises(BudgetError, match="masks"):
        S.histogram_enumerated(budget.ENUMERATION_BUDGET + 1)
    with pytest.raises(ValueError):
        S.histogram_enumerated(2)


def braid_of_row(row):
    return "".join("ab"[k] for k in row.tolist())


def test_letter_rows_are_the_braid_words_of_their_masks():
    for c in range(3, 17):
        rows = S._letter_rows(c, np.arange(1 << (c - 2)))
        kept = [m for m in range(1 << (c - 2)) if (c + m.bit_count()) % 3 == 1]
        assert rows.shape == (len(kept), c) == (W.word_count(c), c)
        for m, row in zip(kept, rows):
            assert braid_of_row(row) == W.to_braid(W.word_from_interior_bits(c, m)), (c, m)


def test_letter_rows_on_random_masks_at_c22():
    rng = random.Random(22)
    masks = [rng.getrandbits(20) for _ in range(6000)]
    kept = [m for m in masks if (22 + m.bit_count()) % 3 == 1]
    rows = S._letter_rows(22, np.array(masks))
    assert len(rows) == len(kept) >= 2000
    for m, row in zip(kept, rows):
        assert braid_of_row(row) == W.to_braid(W.word_from_interior_bits(22, m)), m


@pytest.mark.parametrize("c", range(17, 21))
def test_enumerated_rows_past_the_table_match_the_recursion(c, rec20):
    assert S.histogram_enumerated(c) == rec20[c]


def test_enumeration_makes_no_per_word_diagram_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("histogram_enumerated must score words in batches")

    # Patched wherever enumeration could reach them: the diagram module and
    # any name sigtables imports from it.  The threaded row at c = 21 also
    # shows that no diagram function that perfbench's tracer wraps runs on
    # a worker thread.
    for module in (D, S):
        for name in ("signature", "metrics_for_word", "metrics_for_braid", "orient_diagram",
                     "all_A_components"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert S.histogram_enumerated(14) == TABLE[14]
    assert S.histogram_enumerated(18, workers=1) == S.recursed_table(18)[18]
    assert S.histogram_enumerated(21, workers=2) == S.recursed_table(21)[21]


def test_workers_shard_agrees_with_serial(monkeypatch):
    # c = 21 has 2^19 masks, the fewest that are scored on threads.
    pools = []
    monkeypatch.setattr(S, "ThreadPoolExecutor",
                        lambda workers: pools.append(workers) or ThreadPoolExecutor(workers))
    assert S.histogram_enumerated(20, workers=2) == S.recursed_table(20)[20]
    assert pools == []
    assert S.histogram_enumerated(21, workers=2) == S.histogram_enumerated(21, workers=1)
    assert pools == [2]


def test_threaded_row_at_the_budget_matches_the_recursion():
    # More threads than a 2-CPU machine has, switching as often as the
    # interpreter allows, on the largest admitted row.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        row = S.histogram_enumerated(22, workers=3)
    finally:
        sys.setswitchinterval(interval)
    assert row == S.recursed_table(22)[22]


def test_cli_import_starts_no_process_machinery():
    program = ("import sys, twobridge.cli\n"
               "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')\n"
               "             if m in sys.modules))\n")
    result = subprocess.run([sys.executable, "-c", program], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_cli_import_loads_no_click():
    program = "import sys, twobridge.cli\nprint('click' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", program], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_recursed_equals_enumerated(enum14, rec20):
    for c in range(3, 15):
        assert rec20[c] == enum14[c], c


def test_recursion_examples(rec20):
    # s(8,0) = s(7,2) + s(6,2) + s(6,0) = 5 + 1 + 3
    assert S.histogram_recursed(8, TABLE)[0] == 5 + 1 + 3 == TABLE[8][0]
    assert S.histogram_recursed(5, TABLE)[4] == 1
    assert rec20[14][0] == 351


def test_recursed_missing_base_rows():
    with pytest.raises(ValueError):
        S.histogram_recursed(9, {8: TABLE[8]})
    with pytest.raises(ValueError):
        S.histogram_recursed(4, TABLE)


# ----------------------------------------------------------------- identities


def test_recursion2_examples():
    assert TABLE[8][-2] == TABLE[7][0] + TABLE[7][2] - 1 == 5
    assert TABLE[7][2] == TABLE[6][0] + TABLE[6][-2] + 1 == 5


def test_recursion2_all_rows(rec20):
    for c in range(4, 19):
        assert S.verify_recursion2(c, rec20), c


def test_symmetry_examples(rec20):
    assert S.verify_symmetry(12, TABLE[12])
    assert TABLE[13][2] == 176 and TABLE[13][4] == 175
    assert TABLE[11][-2] == TABLE[11][8] == 8
    for c in range(3, 19):
        assert S.verify_symmetry(c, rec20[c]), c
    assert not S.verify_symmetry(6, {-2: 1, 0: 3, 2: 2})


def test_binomial_rows(rec20):
    # m=3, sigma=0: s(7,0)+s(8,0) = 1+9 = C(5,2)
    assert TABLE[7][0] + TABLE[8][0] == math.comb(5, 2)
    for m in range(1, 9):
        assert S.verify_binomial(m, rec20), m
    bad = {9: TABLE[9], 10: {**TABLE[10], 0: 28}}
    assert not S.verify_binomial(4, bad)


# --------------------------------------------------------------------- totals


def test_totals_examples():
    r6 = S.totals((6,))[6]
    assert (r6.tot, r6.tot_p) == (4, 0)
    assert r6.avg_abs_sigma == Fraction(2, 3)
    assert S.totals((3,))[3].avg_abs_sigma == 2
    assert S.totals((5,))[5].tot == 2 * 2 + 4 * 1 == 8
    # A run of c gives each c the report it builds alone.
    assert S.totals(range(3, 41))[9] == S.totals((9,))[9]
    # The single-int call that perfbench/record_reference.py makes.
    assert S.totals(9) == S.totals((9,))[9]


def test_totals_asymptote_field():
    r = S.totals((8,))[8]
    assert r.asymptote == pytest.approx(math.sqrt(16 / math.pi), rel=1e-12)


# avg|sigma|(6) = 4 / (2 * 3) = 2/3, also when written 4/6; a denominator
# that divides 6 under the wrong numerator, and one that does not divide 6
# (4/5 even has 4 * (6 // 5) = 4), are refused.
@pytest.mark.parametrize("avg, ok", [(Fraction(2, 3), True), (Fraction(4, 6), True),
                                     (Fraction(1, 3), False), (Fraction(4, 7), False),
                                     (Fraction(4, 5), False), (Fraction(2, 1), False)])
def test_totals_report_checks_its_average(avg, ok):
    if ok:
        assert S.TotalsReport(6, 4, 0, avg, 1.95).avg_abs_sigma == Fraction(2, 3)
    else:
        with pytest.raises(ValueError, match="avg_abs_sigma"):
            S.TotalsReport(6, 4, 0, avg, 1.95)


def test_totals_build_no_table(monkeypatch, pal401):
    rows = S.recursed_table(60)

    def refuse(*args, **kwargs):
        raise AssertionError("totals must not build a recursed or folded table")

    for name in ("recursed_table", "_advance"):
        monkeypatch.setattr(S, name, refuse)
    reports = S.totals(range(3, 61))
    assert list(reports) == list(range(3, 61))
    for c, report in reports.items():
        assert report.tot == S.total_abs(rows[c]), c
        assert report.tot_p == S.total_abs(pal401[c]), c


def test_even_rows_in_closed_form():
    # s(2k, 2i) = sum_{j=0..k-2} C(2j, i + j), from the even-row step.
    rows = S.recursed_table(200)
    for k in range(2, 101):
        closed = {2 * i: sum(S._comb(2 * j, i + j) for j in range(k - 1))
                  for i in range(-k, k + 1)}
        assert {s: n for s, n in closed.items() if n} == rows[2 * k], 2 * k


def test_fold_identity_row_by_row(pal401):
    # p(c, sigma) = s(c', sigma/2) + s(c', sigma/2 - 3e) + e [sigma = 2e] at
    # odd c, with c' = (c + 1)/2, e = +1 for even c' and -1 for odd c', and
    # row 2 empty.
    rows = {2: {}, **S.recursed_table(201)}
    for c in range(3, 402, 2):
        half = (c + 1) // 2
        e = 1 if half % 2 == 0 else -1
        folded = Counter({2 * sigma: n for sigma, n in rows[half].items()})
        folded.update({2 * (sigma + 3 * e): n for sigma, n in rows[half].items()})
        folded[2 * e] += e
        assert {s: n for s, n in folded.items() if n} == pal401[c], c


# The P-recurrences that gave tot and tot_p before their closed forms, found
# by a nullspace solve over Q on the terms to c = 160, kept as a literal
# oracle: (first c, seeds at c = first, first + 2, ..., lead(k), coefficients(k)),
# with lead(k) a(k + r) = sum_j coefficients(k)[j] a(k + j) for r seeds, where
# a(k) is the term at c = 2k or 2k + 1.
RETIRED_RECURRENCES = {
    "tot even": (4, (0, 4), lambda k: k - 1, lambda k: (-2 * (2 * k - 1), 5 * k - 3)),
    "tot odd": (3, (2, 8), lambda k: (k + 1) * (k + 2),
                lambda k: (-2 * (k + 3) * (2 * k + 1), 5 * k * k + 17 * k + 8)),
    "tot_p odd": (3, (2, 4, 8), lambda k: (k + 1) * (k + 2),
                  lambda k: (4 * k * (k + 2), 4 * (k * k + 3 * k + 1), -(k - 2) * (k + 1))),
}


def unrolled(name, c_max):
    """The retired recurrence's terms from its first c to c_max, by c."""
    first, seeds, lead, coefficients = RETIRED_RECURRENCES[name]
    terms = {first + 2 * i: a for i, a in enumerate(seeds)}
    for c in range(first + 2 * len(seeds), c_max + 1, 2):
        k = (c - 2 * len(seeds)) // 2
        a, rest = divmod(sum(f * terms[c - 2 * len(seeds) + 2 * j]
                             for j, f in enumerate(coefficients(k))), lead(k))
        assert rest == 0, (name, c)
        terms[c] = a
    return terms


def test_totals_match_the_retired_recurrences():
    reports = S.totals(range(3, 10 ** 4 + 1))
    tot = {**unrolled("tot even", 10 ** 4), **unrolled("tot odd", 10 ** 4)}
    tot_p = unrolled("tot_p odd", 10 ** 4)
    for c, report in reports.items():
        assert (report.tot, report.tot_p) == (tot[c], tot_p.get(c, 0)), c


def test_recurrences_match_the_recursion_and_the_folded_dp(pal401):
    # The closed forms against the recursion and the folded DP.
    reports = S.totals(range(3, 401))
    rows = S.recursed_table(400)
    for c in range(3, 401):
        assert reports[c].tot == S.total_abs(rows[c]), c
        assert reports[c].tot_p == S.total_abs(pal401[c]), c
    folded = S.palindromic_table((999, 1001))
    far = S.totals((999, 1001))
    for c in (999, 1001):
        assert far[c].tot_p == S.total_abs(folded[c]), c


def total_abs_by_recursion(c):
    """tot(c) by the two-step recursion, holding two rows at a time."""
    rows = {3: S.BASE_ROWS[3], 4: S.BASE_ROWS[4]}
    for n in range(5, c + 1):
        rows = {n - 1: rows[n - 1], n: S.histogram_recursed(n, rows)}
    return S.total_abs(rows[c])


def test_recurrences_match_at_the_largest_recursed_and_folded_c():
    # c = 1448 is the largest c that sig-table recurses, and c = 2047 the
    # largest that the folded DP takes.
    assert S.totals(1448).tot == total_abs_by_recursion(1448)
    assert S.totals(2047).tot_p == S.palindromic_total_abs(2047)


def test_verify_tot2(rows18):
    assert S.verify_tot2(2, TABLE)  # 8 + 4 = 2 C(4,2)
    assert S.verify_tot2(1, TABLE)  # 2 + 0 = 1 C(2,1)
    for m in range(1, 9):
        assert S.verify_tot2(m, rows18), m
    reports = S.totals((13, 14))
    assert reports[13].tot + reports[14].tot == 6 * math.comb(12, 6) == 5544


def test_verify_tot_recursion(rows18):
    assert S.totals((6,))[6].tot == 2 * 8 - 2 * 2 - 6 * 1 - 2
    for c in range(4, 19, 2):
        assert S.verify_tot_recursion(c, rows18), c
    with pytest.raises(ValueError):
        S.verify_tot_recursion(7, rows18)


def epsilon(c):
    """Error term 2*C(2m-1,m) + 6*C(2m-1,m+1) + 2 for c = 2m+1 or 2m+2."""
    m = (c - 1) // 2
    if m < 1:
        raise ValueError(f"need c >= 3, got {c}")
    return 2 * math.comb(2 * m - 1, m) + 6 * math.comb(2 * m - 1, m + 1) + 2


def test_epsilon_values():
    assert epsilon(5) == 2 * math.comb(3, 2) + 6 * math.comb(3, 3) + 2 == 14
    assert epsilon(6) == 14
    assert epsilon(3) == 4  # C(1,2) is out of range, hence zero


def test_epsilon_share_decreasing():
    # The error term per knot behaves like 24/sqrt(pi*m) for large m; it
    # still climbs over a small-m hump (peak at m=5) before the decay
    # kicks in, so monotonicity is asserted from m=5 on.
    ratios = [
        Fraction(epsilon(2 * m + 1), 2 * W.knot_count(2 * m + 1))
        for m in range(5, 16)
    ]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_exact_totals_identities(rows18):
    for m in range(1, 7):
        assert S.verify_totals_identity(m, rows18), m


def test_totals_never_enumerate_and_match_enumerated_rows(monkeypatch, enum14):
    def refuse(*args, **kwargs):
        raise AssertionError("totals must not enumerate the histogram")

    monkeypatch.setattr(S, "histogram_enumerated", refuse)
    for c in range(3, 15):
        r = S.totals((c,))[c]
        m = (c - 1) // 2
        paired = S.totals((2 * m + 1, 2 * m + 2))
        assert r.tot == S.total_abs(enum14[c]), c
        assert paired[2 * m + 1].tot + paired[2 * m + 2].tot == (
            S.total_abs(enum14[2 * m + 1]) + S.total_abs(enum14[2 * m + 2])), c
        assert r.avg_abs_sigma == Fraction(
            S.total_abs(enum14[c])
            + S.total_abs(enumerated_palindromic_histogram(c)),
            2 * W.knot_count(c)), c


def test_palindromic_total_budget(monkeypatch):
    assert S.palindromic_total_abs(26) == 0
    assert S.palindromic_total_abs(25) > 0
    # c = 2047 is the largest single c within the folded DP's budget; past
    # it the DP is refused before its first step.
    assert budget.palindromic_work((2047,)) <= budget.PALINDROMIC_WORK_BUDGET
    assert budget.palindromic_work((2048,)) > budget.PALINDROMIC_WORK_BUDGET

    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget DP must be refused first")

    monkeypatch.setattr(S, "_advance", refuse)
    with pytest.raises(BudgetError, match="palindromic_work"):
        S.palindromic_total_abs(2048)
    with pytest.raises(BudgetError, match="c=3..4999"):
        S.palindromic_table(range(3, 5000))


def test_avg_sig_budget(monkeypatch):
    # One pass to the largest c, whatever its parity: the largest single c
    # within the budget is 175411, and the largest even c 175410.
    assert budget.avg_sig_work((175411,)) <= budget.AVG_SIG_WORK_BUDGET
    assert budget.avg_sig_work((175412,)) > budget.AVG_SIG_WORK_BUDGET
    assert budget.avg_sig_work((175410,)) <= budget.AVG_SIG_WORK_BUDGET
    # Each row costs its own fraction and digits: c = 3..10614 is the
    # largest run from c = 3, and a run is charged as its listed c are.
    budget.check_avg_sig(range(3, 10615))
    with pytest.raises(BudgetError, match="c=3..10615"):
        budget.check_avg_sig(range(3, 10616))
    assert budget.avg_sig_work(range(5, 300)) == budget.avg_sig_work(tuple(range(5, 300)))

    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget request must be refused first")

    monkeypatch.setattr(S, "_tot_pass", refuse)
    with pytest.raises(BudgetError, match="avg_sig_work"):
        S.totals((175412,))


def test_unordered_requests_are_charged_their_largest_c(monkeypatch):
    # The largest c, not the last, sets the pass: (200001, 3) is charged as
    # 3..200001 would be for its pass, and refused before any work.
    assert budget.avg_sig_work((200001, 3)) == budget.avg_sig_work((3, 200001))
    assert budget.palindromic_work((4001, 3, 5)) == budget.palindromic_work((3, 5, 4001))

    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget request must be refused first")

    monkeypatch.setattr(S, "_tot_pass", refuse)
    monkeypatch.setattr(S, "_advance", refuse)
    with pytest.raises(BudgetError, match="c=3..200001"):
        S.totals((200001, 3))
    with pytest.raises(BudgetError, match="c=3..400001"):
        S.totals((400001, 3))
    with pytest.raises(BudgetError, match="c=3..4001"):
        S.palindromic_table((4001, 3, 5))


def test_unordered_requests_give_the_ordered_reports():
    assert S.totals((41, 3, 20)) == {c: S.totals(c) for c in (41, 3, 20)}
    assert S.palindromic_table((25, 3, 8)) == S.palindromic_table((3, 8, 25))
    with pytest.raises(ValueError, match="got 2"):
        S.totals((5, 2))


def test_palindromic_share_vanishes():
    # Even-c palindromic words all close to amphichiral knots (sigma = 0),
    # so their share is exactly zero; along odd c the share strictly drops.
    for c in range(8, 21, 2):
        assert S.palindromic_total_abs(c) == 0
    shares = [
        Fraction(S.palindromic_total_abs(c), 2 * W.knot_count(c))
        for c in range(9, 21, 2)
    ]
    assert all(b < a for a, b in zip(shares, shares[1:]))


def test_palindromic_histogram_matches_enumeration():
    table = S.palindromic_table(range(3, 31))
    for c in range(3, 31):
        assert table[c] == enumerated_palindromic_histogram(c), c
    for c in range(31, 35):
        assert S.palindromic_total_abs(c) == S.total_abs(
            enumerated_palindromic_histogram(c)), c


def test_palindromic_histogram_counts_and_even_c_identity(pal401):
    # Counted, not assumed: the DP handles both parities alike, and at even
    # c every palindrome is amphichiral, so its row is all sigma = 0.
    assert list(pal401) == list(range(3, 402))
    for c, row in pal401.items():
        assert sum(row.values()) == W.palindrome_count(c), c
        assert all(s % 2 == 0 for s in row), c
        if c % 2 == 0:
            assert set(row) == {0}, c
    with pytest.raises(ValueError):
        S.palindromic_table((2,))


def test_palindromic_table_closes_each_c_as_its_own_pass_would(pal401):
    # One pass per parity to c = 401 gives each c the row of a pass that
    # stops at c.
    for c in range(3, 61):
        assert pal401[c] == S.palindromic_table((c,))[c], c
    assert S.palindromic_table((5, 8, 9)) == {c: pal401[c] for c in (5, 8, 9)}


def test_transfer_table_matches_enumeration_and_recursion(enum14):
    rows = S.transfer_table(200)
    assert set(rows) == set(range(3, 201))
    for c in range(3, 17):
        enumerated = enum14[c] if c in enum14 else S.histogram_enumerated(c)
        assert rows[c] == enumerated, c
    recursed = S.recursed_table(200)
    for c in range(3, 201):
        assert rows[c] == recursed[c], c
    assert S.transfer_table(3) == {3: {2: 1}, 4: {0: 1}}


# ------------------------------------------------------------------ asymptote


def test_verify_wallis():
    assert S.verify_wallis(1)
    assert S.verify_wallis(10)
    assert S.verify_wallis(1000)
    for m in range(1, 51):
        assert S.verify_wallis(m), m


def test_asymptote_gap_sequence():
    gaps = {c: float(r.avg_abs_sigma) - r.asymptote
            for c, r in S.totals(range(3, 21)).items()}
    assert gaps[3] == pytest.approx(2 - math.sqrt(6 / math.pi), rel=1e-12)
    assert abs(gaps[20]) < abs(gaps[12])
    assert abs(gaps[19]) < abs(gaps[11])


# ------------------------------------------------------------------ CSV cache


def test_csv_roundtrip(enum14):
    text = S.row_to_csv(8, enum14[8])
    c, row = S.row_from_csv(text)
    assert c == 8 and row == enum14[8]
    assert text.startswith("# twobridge sig-table schema=1 sha256=")


def test_csv_detects_tampering(enum14):
    text = S.row_to_csv(8, enum14[8])
    broken = text.replace("8,0,9", "8,0,7")
    with pytest.raises(ValueError, match="sha256"):
        S.row_from_csv(broken)
    with pytest.raises(ValueError, match="schema"):
        S.row_from_csv(text.replace("schema=1", "schema=0"))
    with pytest.raises(ValueError, match="header"):
        S.row_from_csv("c,sigma,count\n8,0,9\n")


def test_cache_store_and_load(tmp_path, enum14):
    assert S.load_cached_row(tmp_path, 9) is None
    path = S.store_cached_row(tmp_path, 9, enum14[9])
    assert path.name == "sig-c09.csv"
    assert S.load_cached_row(tmp_path, 9) == enum14[9]
    path.write_text(path.read_text().replace("9,0,6", "9,0,5"))
    with pytest.raises(ValueError):
        S.load_cached_row(tmp_path, 9)


def test_cache_write_interrupted_keeps_old_row(tmp_path, monkeypatch, enum14):
    S.store_cached_row(tmp_path, 9, enum14[9])

    def crash(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(S.os, "replace", crash)
    with pytest.raises(KeyboardInterrupt):
        S.store_cached_row(tmp_path, 9, {0: 1})
    monkeypatch.undo()
    assert S.load_cached_row(tmp_path, 9) == enum14[9]
    assert [p.name for p in tmp_path.iterdir()] == ["sig-c09.csv"]
