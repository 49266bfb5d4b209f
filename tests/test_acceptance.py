"""Acceptance suite: one test per named verification check.

Each test runs the corresponding entry from twobridge.checks and
prints a single PASS/FAIL line (visible under pytest -s); checks
with a stated wall-clock budget also assert it.  The same registry
backs `twobridge verify-all`, so a green run here matches exit 0
there.
"""

import pytest

from twobridge import checks, sigtables
from twobridge.checks import run_check


def _run(name: str, budget_seconds: float | None = None):
    result = run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    if budget_seconds is not None:
        assert result.seconds < budget_seconds, (
            f"{name} took {result.seconds:.1f}s, budget {budget_seconds}s")
    return result


def test_01_counting():
    # Jacobsthal counts, palindromic counts, and the knot-count identity
    # for 3 <= c <= 20, in under a minute.
    _run("counting", budget_seconds=60)


def test_02_metric_rows():
    # Published (c_plus, s_A, sigma) triples for T(5), T(6), and the
    # two smallest torus diagrams.
    _run("metric-rows")


def test_03_signature_table():
    # Enumerated rows for 3 <= c <= 14, regenerated by the histogram
    # recursion, plus one-step recursion and symmetry up to c = 18 and
    # the transfer DP's rows equal to the recursion's up to c = 200,
    # in under two minutes.
    _run("sig-table", budget_seconds=120)


def test_04_binomial_identity():
    # s(2m+1, sigma) + s(2m+2, sigma) = C(2m-1, m-1+sigma/2) for m <= 8.
    _run("binomial")


def test_05_totals():
    # tot(2m+1) + tot(2m+2) = m C(2m, m); the even-c recursion; and the
    # exact 3 tot(c) closed forms.
    _run("totals")


def test_06_average_signature():
    # The totals in closed form equal the recursion's for c <= 400 and the
    # folded DP's at odd c <= 61 and c = 999, 1001, each folded row at odd
    # c <= 61 is the fold of row (c+1)/2; avg |sigma| at c = 6 is
    # exactly 2/3; for 6 <= c <= 1000 the gap to sqrt(2c/pi) is positive at
    # odd c and negative at even c, and |gap| shrinks at every step
    # c -> c+2 from c = 9 and 10 on; in under two minutes.
    _run("avg-signature", budget_seconds=120)


@pytest.mark.parametrize("c, shift, detail", [
    (11, 1.0, "at c=11 is on the wrong side"),
    (13, -1.0, "|gap| at c=13 not below |gap| at c=11"),
])
def test_06_average_signature_reports_a_failure(monkeypatch, c, shift, detail):
    # Moving one asymptote by `shift` puts its gap on the wrong side of
    # sqrt(2c/pi), or makes it wider than the gap two steps before.
    totals = sigtables.totals

    def moved(c_values):
        reports = totals(c_values)
        r = reports[c]
        reports[c] = sigtables.TotalsReport(r.c, r.tot, r.tot_p, r.avg_abs_sigma,
                                            r.asymptote + shift)
        return reports

    monkeypatch.setattr(sigtables, "totals", moved)
    passed, reported = checks.check_avg_signature(14)
    assert not passed and detail in reported


def test_06_average_signature_reports_a_broken_fold(monkeypatch):
    # Moving one palindrome of c = 9 from sigma = 2 to -2 keeps tot_p(9) but
    # breaks the fold identity that tot_p rests on.
    table = sigtables.palindromic_table

    def moved(c_values):
        rows = table(c_values)
        rows[9] = {**rows[9], 2: rows[9][2] - 1, -2: rows[9][-2] + 1}
        return rows

    monkeypatch.setattr(sigtables, "palindromic_table", moved)
    passed, reported = checks.check_avg_signature(14)
    assert not passed and reported == "the fold identity fails at c=9"


def test_07_wallis_bounds():
    # Strict two-sided Wallis bounds for m in 1..50 and m = 1000.
    _run("wallis")


def test_08_markov_matrices():
    # Empirical transition matrices, the closed-form power, the
    # contraction rate, and the M^r identity.
    _run("markov")


def test_09_walk_distance():
    # Exact expected distances against the taxicab bound on the full
    # s*t <= 20 grid, per-class mean bounds, and a seeded Monte Carlo
    # run within 5 standard errors of the exact value, in under a minute.
    _run("walk", budget_seconds=60)


def test_10_cobordism_example():
    # The twelve-crossing worked example, byte for byte, plus mirror
    # involution and fix equivariance over all summands with s <= 4.
    _run("cobordism-example")


def test_11_aggregate_g4():
    # The exact mean saddle-move upper bound over T(c), by transfer DP,
    # stays below the closed-form expression bound, and that below
    # 9.75 c / log10(c), for 7 <= c <= 100 and c = 200, 500, 1000, 2000, in
    # under a minute.
    _run("aggregate-g4", budget_seconds=60)


def test_budget_below_the_smallest_crossing_number_refused():
    # No knot has fewer than 3 crossings, so a budget_c below 3 caps no
    # check: every check refuses it before any work, as verify-all does.
    for name, _ in checks.REGISTRY:
        for budget_c in (0, 1, 2):
            with pytest.raises(ValueError, match="budget_c must be at least 3"):
                run_check(name, budget_c)
