"""Tests for signature histograms, recursions, totals, and the CSV cache."""

import math
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import pytest

from twobridge import budget
from twobridge import sigtables as S
from twobridge import words as W
from twobridge.budget import BudgetError
from twobridge.diagram import signature

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


def test_workers_shard_agrees_with_serial():
    # c = 18 has 2^16 masks, the fewest that are sharded.
    assert S.histogram_enumerated(18, workers=2) == S.recursed_table(18)[18]


@pytest.mark.parametrize("error", [OSError("no semaphores"),
                                   BrokenProcessPool("worker died")])
def test_pool_failure_warns_and_falls_back_to_serial(monkeypatch, error):
    class FailingPool:
        def __init__(self, *args, **kwargs):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            raise error

    monkeypatch.setattr(S, "ProcessPoolExecutor", FailingPool)
    with pytest.warns(RuntimeWarning, match=type(error).__name__):
        assert S.histogram_enumerated(18, workers=2) == S.recursed_table(18)[18]


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
    r6 = S.totals(6)
    assert (r6.tot, r6.tot_p) == (4, 0)
    assert r6.avg_abs_sigma == Fraction(2, 3)
    assert S.totals(3).avg_abs_sigma == 2
    assert S.totals(5).tot == 2 * 2 + 4 * 1 == 8
    # A table shared across many c gives each c the report it builds alone.
    assert S.totals(9, S.recursed_table(40)) == S.totals(9)


def test_totals_asymptote_field():
    r = S.totals(8)
    assert r.asymptote == pytest.approx(math.sqrt(16 / math.pi), rel=1e-12)
    assert r.epsilon_c == S.epsilon(8)
    assert r.tot2_m == S.totals(7).tot + S.totals(8).tot


def test_verify_tot2(rows18):
    assert S.verify_tot2(2, TABLE)  # 8 + 4 = 2 C(4,2)
    assert S.verify_tot2(1, TABLE)  # 2 + 0 = 1 C(2,1)
    for m in range(1, 9):
        assert S.verify_tot2(m, rows18), m
    assert S.totals(13).tot + S.totals(14).tot == 6 * math.comb(12, 6) == 5544


def test_verify_tot_recursion(rows18):
    assert S.totals(6).tot == 2 * 8 - 2 * 2 - 6 * 1 - 2
    for c in range(4, 19, 2):
        assert S.verify_tot_recursion(c, rows18), c
    with pytest.raises(ValueError):
        S.verify_tot_recursion(7, rows18)


def test_epsilon_values():
    assert S.epsilon(5) == 2 * math.comb(3, 2) + 6 * math.comb(3, 3) + 2 == 14
    assert S.epsilon(6) == 14
    assert S.epsilon(3) == 4  # C(1,2) is out of range, hence zero


def test_epsilon_share_decreasing():
    # The error term per knot behaves like 24/sqrt(pi*m) for large m; it
    # still climbs over a small-m hump (peak at m=5) before the decay
    # kicks in, so monotonicity is asserted from m=5 on.
    ratios = [
        Fraction(S.epsilon(2 * m + 1), 2 * W.knot_count(2 * m + 1))
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
        r = S.totals(c)
        m = (c - 1) // 2
        assert r.tot == S.total_abs(enum14[c]), c
        assert r.tot2_m == (S.total_abs(enum14[2 * m + 1])
                            + S.total_abs(enum14[2 * m + 2])), c
        assert r.avg_abs_sigma == Fraction(
            S.total_abs(enum14[c])
            + S.total_abs(enumerated_palindromic_histogram(c)),
            2 * W.knot_count(c)), c


def test_palindromic_total_budget(monkeypatch):
    assert S.palindromic_total_abs(26) == 0
    assert S.palindromic_total_abs(25) > 0
    # c = 2047 is the largest single c within the budget; past it the DP is
    # refused before its first step.
    assert budget.avg_sig_work((2047,)) <= budget.AVG_SIG_WORK_BUDGET
    assert budget.avg_sig_work((2048,)) > budget.AVG_SIG_WORK_BUDGET

    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget DP must be refused first")

    monkeypatch.setattr(S, "_advance", refuse)
    with pytest.raises(BudgetError, match="avg_sig_work"):
        S.palindromic_total_abs(2048)
    with pytest.raises(BudgetError, match="c=3..300"):
        budget.check_avg_sig(range(3, 301))
    budget.check_avg_sig(range(3, 201))


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
    for c in range(3, 31):
        assert S.palindromic_histogram(c) == enumerated_palindromic_histogram(c), c
    for c in range(31, 35):
        assert S.palindromic_total_abs(c) == S.total_abs(
            enumerated_palindromic_histogram(c)), c


def test_palindromic_histogram_counts_and_even_c_identity():
    # Counted, not assumed: the DP handles both parities alike, and at even
    # c every palindrome is amphichiral, so its row is all sigma = 0.
    for c in range(3, 201):
        row = S.palindromic_histogram(c)
        assert sum(row.values()) == W.palindrome_count(c), c
        assert all(s % 2 == 0 for s in row), c
        if c % 2 == 0:
            assert set(row) == {0}, c
    with pytest.raises(ValueError):
        S.palindromic_histogram(2)


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
    rows = S.recursed_table(21)
    gaps = {c: float(r.avg_abs_sigma) - r.asymptote
            for c in range(3, 21) for r in [S.totals(c, rows)]}
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
