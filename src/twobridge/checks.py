"""Named verification checks shared by the CLI and the acceptance tests.

Each check re-derives a published table, recursion, closed form, or bound
from scratch and reports pass/fail with timing.  ``run_all`` executes the
whole registry; a ``budget_c`` cap shrinks the crossing-number ranges for
quicker smoke runs without changing what any individual check means.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import cobordism, markov, sigtables, words
from .diagram import metrics_for_word

# Published signature histograms s(c, sigma) for 3 <= c <= 14.
SIGNATURE_TABLE: dict[int, dict[int, int]] = {
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
    13: {-6: 1, -4: 10, -2: 44, 0: 111, 2: 176, 4: 175, 6: 111, 8: 44,
         10: 10, 12: 1},
    14: {-10: 1, -8: 11, -6: 54, -4: 155, -2: 286, 0: 351, 2: 286, 4: 155,
         6: 54, 8: 11, 10: 1},
}

# Published (c_plus, s_A, sigma) triples: both crossing-number-3 and -4 words
# plus all eight words with 5 or 6 runs.
METRIC_ROWS: dict[str, tuple[int, int, int]] = {
    "+--+": (0, 3, 2),
    "+-+-": (2, 3, 0),
    "+--+--+": (0, 5, 4),
    "+--++-+": (0, 3, 2),
    "+-++--+": (0, 3, 2),
    "+-+-++-": (4, 3, -2),
    "+-+--+-": (4, 5, 0),
    "+-++-+-": (2, 3, 0),
    "+--+-+-": (2, 5, 2),
    "+--++--++-": (3, 4, 0),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str


def _clamp(value: int, budget_c: int | None) -> int:
    return value if budget_c is None else min(value, budget_c)


def check_counting(budget_c: int | None = None) -> tuple[bool, str]:
    """Enumerated word, palindrome, and knot counts match the closed forms."""
    c_max = max(3, _clamp(20, budget_c))
    for c in range(3, c_max + 1):
        enumerated = sum(1 for _ in words.enumerate_words(c))
        if enumerated != words.word_count(c):
            return False, f"word count mismatch at c={c}"
        if enumerated != (2 ** (c - 2) - (-1) ** c) // 3:
            return False, f"Jacobsthal form mismatch at c={c}"
        palindromes = sum(1 for _ in words.enumerate_palindromic_words(c))
        if palindromes != words.palindrome_count(c):
            return False, f"palindrome count mismatch at c={c}"
        half = (c - 1) // 2
        if palindromes != (2 ** half - (-1) ** half) // 3:
            return False, f"palindrome form mismatch at c={c}"
        if 2 * words.knot_count(c) != enumerated + palindromes:
            return False, f"double counting fails at c={c}"
    return True, f"counts verified for 3 <= c <= {c_max}"


def check_metric_rows(budget_c: int | None = None) -> tuple[bool, str]:
    """Published per-word (c_plus, s_A, sigma) triples reproduce exactly."""
    del budget_c
    for word, expected in METRIC_ROWS.items():
        metrics = metrics_for_word(word)
        if (metrics.c_plus, metrics.s_A, metrics.signature) != expected:
            return False, f"metrics mismatch for {word}"
    return True, f"{len(METRIC_ROWS)} published rows match"


def check_sig_table(budget_c: int | None = None) -> tuple[bool, str]:
    """Histogram rows by enumeration against the published table and the
    recursion, the transfer DP's rows against the recursion to c = 200,
    plus the one-step recursion and symmetry identities on every recursed
    row to c = 18."""
    enum_max = max(5, _clamp(14, budget_c))
    full_max = max(5, _clamp(18, budget_c))
    dp_max = max(5, _clamp(200, budget_c))
    recursed = sigtables.recursed_table(dp_max)
    for c in range(3, enum_max + 1):
        enumerated = sigtables.histogram_enumerated(c)
        if enumerated != SIGNATURE_TABLE[c]:
            return False, f"enumerated row mismatch at c={c}"
        if recursed[c] != enumerated:
            return False, f"recursion regenerates wrong row at c={c}"
    transferred = sigtables.transfer_table(dp_max)
    for c in range(3, dp_max + 1):
        if transferred[c] != recursed[c]:
            return False, f"transfer DP and recursion differ at c={c}"
    for c in range(4, full_max + 1):
        if not sigtables.verify_recursion2(c, recursed):
            return False, f"one-step recursion fails at c={c}"
    for c in range(3, full_max + 1):
        if not sigtables.verify_symmetry(c, recursed[c]):
            return False, f"symmetry fails at c={c}"
    return True, (f"rows 3..{enum_max} enumerated, recursion + symmetry "
                  f"to c={full_max}, transfer DP = recursion to c={dp_max}")


def check_binomial(budget_c: int | None = None) -> tuple[bool, str]:
    """Odd/even recursed row sums collapse to central binomial coefficients."""
    m_max = max(2, _clamp(8, (budget_c - 1) // 2 if budget_c else None))
    rows = sigtables.recursed_table(2 * m_max + 2)
    for m in range(1, m_max + 1):
        if not sigtables.verify_binomial(m, rows):
            return False, f"binomial identity fails at m={m}"
    return True, f"binomial identity for m <= {m_max}"


def check_totals(budget_c: int | None = None) -> tuple[bool, str]:
    """Total-|sigma| identities on the recursed rows: paired rows, even-c
    recursion, exact forms."""
    m_max = max(2, _clamp(8, (budget_c - 1) // 2 if budget_c else None))
    even_max = max(6, _clamp(18, budget_c))
    identity_max = max(2, _clamp(6, (budget_c - 1) // 2 if budget_c else None))
    rows = sigtables.recursed_table(max(2 * m_max + 2, even_max))
    for m in range(1, m_max + 1):
        if not sigtables.verify_tot2(m, rows):
            return False, f"paired totals fail at m={m}"
    for c in range(6, even_max + 1, 2):
        if not sigtables.verify_tot_recursion(c, rows):
            return False, f"totals recursion fails at c={c}"
    for m in range(2, identity_max + 1):
        if not sigtables.verify_totals_identity(m, rows):
            return False, f"exact totals identity fails at m={m}"
    return True, (f"paired totals m <= {m_max}, even-c recursion to "
                  f"{even_max}, exact identities m <= {identity_max}")


def check_avg_signature(budget_c: int | None = None) -> tuple[bool, str]:
    """avg|sigma|(6) = 2/3 and the gap to sqrt(2c/pi) narrows 10->1000,
    9->999 (to budget_c under a budget).  The detail reports gap * sqrt(c)
    at the late c without asserting it."""
    c_max = max(10, _clamp(1000, budget_c))
    pairs = [(early, late)
             for early, late in ((10, c_max - c_max % 2), (9, c_max - 1 + c_max % 2))
             if early < late]
    rows = sigtables.recursed_table(c_max + 1)
    if sigtables.totals(6, rows).avg_abs_sigma != Fraction(2, 3):
        return False, "avg|sigma|(6) != 2/3"
    gaps = {}
    for c in sorted({c for pair in pairs for c in pair}):
        report = sigtables.totals(c, rows)
        gaps[c] = float(report.avg_abs_sigma) - report.asymptote
    for early, late in pairs:
        if not abs(gaps[late]) < abs(gaps[early]):
            return False, f"gap at c={late} not below gap at c={early}"
    if pairs:
        scaled = ", ".join(f"c={late}: {gaps[late] * math.sqrt(late):+.2f}"
                           for _, late in pairs)
        return True, (f"avg(6)=2/3; |gap| shrinks on {pairs}; "
                      f"gap*sqrt(c) at {scaled}")
    return True, "avg(6)=2/3"


def check_wallis(budget_c: int | None = None) -> tuple[bool, str]:
    """Two-sided central binomial bounds, strict, for m <= 50 and m = 1000."""
    del budget_c
    for m in list(range(1, 51)) + [1000]:
        if not sigtables.verify_wallis(m):
            return False, f"central binomial bound fails at m={m}"
    return True, "strict bounds for m in 1..50 and m=1000"


def check_markov(budget_c: int | None = None) -> tuple[bool, str]:
    """Transition matrix empirics, closed-form powers, contraction, M^r."""
    del budget_c
    for s in range(1, 9):
        if not markov.verify_empirical(s):
            return False, f"empirical transition mismatch at s={s}"
    if not markov.verify_closed_form(6, 8):
        return False, "closed-form power mismatch"
    if not markov.verify_contraction(6, 8):
        return False, "contraction bound fails"
    if not markov.verify_power_identity(20):
        return False, "step-matrix power identity fails"
    return True, "empirical s <= 8; closed form & contraction s <= 6, k <= 8; powers r <= 20"


def check_walk(budget_c: int | None = None) -> tuple[bool, str]:
    """Exact taxicab and per-class bounds on the full s*t grid, plus a Monte
    Carlo run that must agree with the exact value within 5 standard errors."""
    grid = max(4, _clamp(20, budget_c))
    for s in range(1, grid + 1):
        for t in range(1, grid // s + 1):
            expected = markov.exact_expected_distance(s, t)
            if not markov.distance_bound_holds(s, t, expected):
                return False, f"distance bound fails at s={s}, t={t}"
            if not markov.verify_abs_means(s, t):
                return False, f"per-class bound fails at s={s}, t={t}"
    exact = float(markov.exact_expected_distance(4, 100))
    mean, stderr = markov.monte_carlo_distance(4, 100, 10 ** 4, seed=0)
    if abs(mean - exact) > 5 * stderr:
        return False, f"Monte Carlo mean {mean:.3f} not within 5 stderr of exact {exact:.3f}"
    if mean - 3 * stderr > markov.distance_bound(4, 100):
        return False, "Monte Carlo mean exceeds bound beyond 3 sigma"
    return True, (f"exact (transfer DP) s*t <= {grid}; s=4, t=100: MC mean "
                  f"{mean:.2f} +- {stderr:.2f} vs exact {exact:.3f}, bound "
                  f"{markov.distance_bound(4, 100):.2f}")


def check_cobordism_example(budget_c: int | None = None) -> tuple[bool, str]:
    """The crossing-number-12 worked example, plus exhaustive mirror checks."""
    del budget_c
    report = cobordism.decompose("+--+-+-+--++-++-", 3)
    expected_summands = [(1, "aab"), (2, "aba"), (2, "abb")]
    if [(x.start, x.letters) for x in report.summands] != expected_summands:
        return False, "wrong summands"
    if report.cut_states != (1, 2, 2, 3) or report.cut_saddles != 6:
        return False, "wrong cut costs"
    if report.residual != ("o2:aba",):
        return False, "mirror cancellation failed"
    if report.link_fix_saddles != 1 or report.remainder_fix_saddles != 1:
        return False, "wrong link repairs"
    if report.g4_upper != 6:
        return False, f"g4 upper {report.g4_upper} != 6"
    for s in range(0, 5):
        for start in (1, 2, 3):
            for bits in product("ab", repeat=s):
                x = cobordism.OrientedWord(start, "".join(bits))
                if cobordism.mirror(cobordism.mirror(x)) != x:
                    return False, f"mirror not an involution at {x}"
                if s and cobordism.component_count(x) == 2:
                    fx = cobordism.link_lemma_fix(x)
                    fm = cobordism.link_lemma_fix(cobordism.mirror(x))
                    if (fx.saddles, fx.added_crossings) != (fm.saddles, fm.added_crossings):
                        return False, f"fix not mirror-equivariant at {x}"
    return True, "worked example exact; mirror checks exhaustive for s <= 4"


def check_aggregate_g4(budget_c: int | None = None) -> tuple[bool, str]:
    """Exact mean saddle-move bound (transfer DP) under 9.75c/log10(c) and
    the closed-form expression bound, for c = 7..100, 200, 500 and 1000, or
    c = 7..min(15, budget_c) under a budget.  Unbudgeted, the detail adds the
    mean over c/log10(c) and over c/ln(c) at the largest c, since the
    abstract writes "log c"."""
    if budget_c is None:
        c_values = [*range(7, 101), 200, 500, 1000]
    else:
        c_values = range(7, max(7, _clamp(15, budget_c)) + 1)
    details = []
    for c in c_values:
        row = cobordism.average_g4_row(c, cobordism.choose_block_size(c))
        if not row.below_log10:
            return False, f"mean bound fails at c={c}"
        if not row.below_expression:
            return False, f"expression bound fails at c={c}"
        if c <= 15:
            details.append(f"{c}:{float(row.mean_upper):.2f}<{row.log10_bound:.1f}")
    detail = "mean g4 upper vs 9.75c/log10(c): " + " ".join(details)
    if budget_c is None:
        mean = float(row.mean_upper)
        detail += ("; also c = 16..100, 200, 500, 1000 and the expression bound"
                   f"; at c={c} mean {mean:.2f} = {mean * math.log10(c) / c:.3f}"
                   f" c/log10(c) = {mean * math.log(c) / c:.3f} c/ln(c)")
    return True, detail


# Registry in acceptance order: (name, function).
REGISTRY: tuple[tuple[str, object], ...] = (
    ("counting", check_counting),
    ("metric-rows", check_metric_rows),
    ("sig-table", check_sig_table),
    ("binomial", check_binomial),
    ("totals", check_totals),
    ("avg-signature", check_avg_signature),
    ("wallis", check_wallis),
    ("markov", check_markov),
    ("walk", check_walk),
    ("cobordism-example", check_cobordism_example),
    ("aggregate-g4", check_aggregate_g4),
)


def run_check(name: str, budget_c: int | None = None) -> CheckResult:
    table = dict(REGISTRY)
    if name not in table:
        raise ValueError(f"unknown check {name!r}")
    started = time.perf_counter()
    passed, detail = table[name](budget_c)
    return CheckResult(name, passed, time.perf_counter() - started, detail)


def run_all(budget_c: int | None = None) -> list[CheckResult]:
    return [run_check(name, budget_c) for name, _ in REGISTRY]
