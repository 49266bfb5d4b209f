"""Command-line interface: enumeration, tables, bounds, and verification.

All commands print deterministic output for a fixed (version, options,
seed): JSON objects carry ``"schema": 1`` and sorted keys, CSV tables carry
a schema comment line.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error.  A request that twobridge refuses (over budget:
in ``_Group.invoke``) prints one ``Error:`` line on stderr and nothing on
stdout; click's own parse errors (an unknown option, a missing or
ill-typed value) keep click's usage block.  The row cache, in the
directory that ``--cache-dir`` names, holds enumerated rows only.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

import click

from . import budget, checks, cobordism, markov, sigtables, words
from .budget import BudgetError

SCHEMA = 1


def _crossing_number(ctx: click.Context, param: click.Parameter,
                     c: int | None) -> int | None:
    """Option callback: a crossing number must be at least 3."""
    if c is not None and c < 3:
        _refuse(ctx, f"crossing number must be >= 3, got {c}")
    return c


def _parse_c_range(ctx: click.Context, param: click.Parameter,
                   text: str) -> range:
    """Option callback: parse "9" or "3..14" into an inclusive run of
    crossing numbers, each at least 3, as a range that lists none of them."""
    try:
        if ".." in text:
            lo_str, hi_str = text.split("..", 1)
            lo, hi = int(lo_str), int(hi_str)
        else:
            lo = hi = int(text)
    except ValueError:
        _refuse(ctx, f"cannot parse crossing-number range {text!r}")
    if lo > hi:
        _refuse(ctx, f"empty crossing-number range {text!r}")
    _crossing_number(ctx, param, lo)
    return range(lo, hi + 1)


def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, sort_keys=True))


def _refuse(ctx: click.Context, problem: Exception | str) -> NoReturn:
    """Misuse or an over-budget request: one line on stderr, exit 2."""
    click.echo(f"Error: {problem}", err=True)
    ctx.exit(2)


class _Group(click.Group):
    """A command group that refuses any command's over-budget request."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BudgetError as problem:
            _refuse(ctx, problem)


@click.group(cls=_Group)
@click.version_option(package_name="twobridge")
def main() -> None:
    """Alternating-word models of 2-bridge knots: enumeration, signature
    tables, and 4-genus bounds."""


@main.command(name="enumerate")
@click.option("--c", "c", required=True, type=int, callback=_crossing_number,
              help="Crossing number.")
@click.option("--count-only", is_flag=True, help="Print the word count only.")
def cmd_enumerate(c: int, count_only: bool) -> None:
    """Stream the words of T(c) in enumeration order."""
    if count_only:
        click.echo(str(words.word_count(c)))
        return
    budget.check_enumeration(c)
    for word in words.enumerate_words(c):
        click.echo(word)


def _cached_histogram(c: int, cache_dir: Path | None, workers: int) -> sigtables.Row:
    """Enumerated row via cache when possible; re-enumerate and overwrite
    on corruption."""
    if cache_dir is not None:
        try:
            cached = sigtables.load_cached_row(cache_dir, c)
        except ValueError as problem:
            click.echo(f"warning: cache for c={c} rejected ({problem}); "
                       "re-deriving", err=True)
        else:
            if cached is not None:
                return cached
    row = sigtables.histogram_enumerated(c, workers)
    if cache_dir is not None:
        sigtables.store_cached_row(cache_dir, c, row)
    return row


@main.command(name="sig-table")
@click.option("--c", "c_values", default="3..14", callback=_parse_c_range,
              help="c or lo..hi range.")
@click.option("--method", type=click.Choice(["enumerate", "recurse", "both"]),
              default="both", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--cache-dir", default=None,
              help="Enumerated-row cache directory; no cache without it.")
@click.option("--workers", type=click.IntRange(min=1), default=None,
              help="Enumeration shards; defaults to available parallelism.")
@click.pass_context
def cmd_sig_table(ctx: click.Context, c_values: range, method: str,
                  fmt: str, cache_dir: str | None, workers: int | None) -> None:
    """Signature histogram rows s(c, sigma)."""
    cache = Path(cache_dir) if cache_dir else None
    if workers is None:
        workers = os.cpu_count() or 1
    # The work grows with c: refuse the whole range before any row.
    if method != "recurse":
        budget.check_enumeration(c_values[-1])
    if method != "enumerate":
        budget.check_recursion(c_values[-1])
    recursed = (sigtables.recursed_table(c_values[-1])
                if method in ("recurse", "both") else None)

    rows: dict[int, sigtables.Row] = {}
    for c in c_values:
        if method == "recurse":
            # The cache holds enumerated rows only: a recursed row stored
            # there would later be compared with itself.
            rows[c] = recursed[c]
            continue
        rows[c] = _cached_histogram(c, cache, workers)
        if method == "both" and rows[c] != recursed[c]:
            click.echo(f"mismatch between enumeration and recursion at c={c}",
                       err=True)
            ctx.exit(1)

    if fmt == "json":
        payload = {"schema": SCHEMA, "method": method,
                   "rows": {str(c): {str(s): n for s, n in sorted(row.items())}
                            for c, row in rows.items()}}
        _echo_json(payload)
    else:
        for c in c_values:
            click.echo(sigtables.row_to_csv(c, rows[c]), nl=False)


@main.command(name="avg-sig")
@click.option("--c", "c_values", default="3..20", callback=_parse_c_range,
              help="c or lo..hi range.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.pass_context
def cmd_avg_sig(ctx: click.Context, c_values: range, fmt: str) -> None:
    """Average |signature| per crossing number and gap to sqrt(2c/pi)."""
    # The work grows with c: refuse the whole range before any row.
    budget.check_avg_sig(c_values)
    rows = sigtables.recursed_table(c_values[-1] + 1)
    entries = []
    for c in c_values:
        report = sigtables.totals(c, rows)
        root = math.sqrt(2 * c / math.pi)
        gap = float(report.avg_abs_sigma) - root
        entries.append((c, report.avg_abs_sigma, root, gap))
    if fmt == "json":
        _echo_json({"schema": SCHEMA, "rows": {
            str(c): {"avg": f"{avg.numerator}/{avg.denominator}",
                     "avg_float": float(avg), "root": root, "gap": gap}
            for c, avg, root, gap in entries}})
    else:
        click.echo(f"# twobridge avg-sig schema={SCHEMA}")
        click.echo("c,avg_num,avg_den,avg_float,root,gap")
        for c, avg, root, gap in entries:
            click.echo(f"{c},{avg.numerator},{avg.denominator},"
                       f"{float(avg)!r},{root!r},{gap!r}")


@main.command(name="g4")
@click.option("--word", "word", default=None, help="One word to decompose.")
@click.option("--c", "c", type=int, default=None, callback=_crossing_number,
              help="Aggregate over all of T(c) instead.")
@click.option("--s", "s", type=int, default=None,
              help="Block size; defaults to ceil(log10 c).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json", show_default=True)
@click.pass_context
def cmd_g4(ctx: click.Context, word: str | None, c: int | None, s: int | None,
           fmt: str) -> None:
    """4-genus interval for one word, or the mean bound over T(c)."""
    if (word is None) == (c is None):
        _refuse(ctx, "pass exactly one of --word or --c")
    if word is not None and fmt == "csv":
        _refuse(ctx, "--format csv applies to --c only")
    if word is not None:
        try:
            c_word = words.validate_word(word)
        except ValueError as problem:
            _refuse(ctx, f"invalid word: {problem}")
        block = s if s is not None else cobordism.choose_block_size(c_word)
        try:
            report = cobordism.decompose(word, block)
        except ValueError as problem:
            _refuse(ctx, problem)
        _echo_json({
            "schema": SCHEMA, "word": word, "c": c_word, "s": block,
            "t": report.t, "r": report.r,
            "cut_saddles": report.cut_saddles,
            "link_saddles": report.link_fix_saddles + report.remainder_fix_saddles,
            "residual": list(report.residual),
            "g4_lower": report.g4_lower, "g4_upper": report.g4_upper,
        })
        return
    block = s if s is not None else cobordism.choose_block_size(c)
    try:
        row = cobordism.average_g4_row(c, block)
    except ValueError as problem:
        _refuse(ctx, problem)
    mean = row.mean_upper
    if fmt == "json":
        _echo_json({
            "schema": SCHEMA, "c": c, "s": block, "words": row.words,
            "mean_upper": f"{mean.numerator}/{mean.denominator}",
            "mean_upper_float": float(mean),
            "bound_975": row.log10_bound,
            "below_bound": row.below_log10,
        })
    else:
        click.echo(f"# twobridge g4 schema={SCHEMA}")
        click.echo("c,s,mean_upper_num,mean_upper_den,bound_975")
        click.echo(f"{c},{block},{mean.numerator},{mean.denominator},"
                   f"{row.log10_bound!r}")


@main.command(name="markov-verify")
@click.option("--s", "s", type=int, default=6, show_default=True)
@click.option("--kmax", type=int, default=8, show_default=True)
@click.pass_context
def cmd_markov_verify(ctx: click.Context, s: int, kmax: int) -> None:
    """Exact transition-matrix verifications up to the given sizes."""
    if s < 1 or kmax < 1:
        _refuse(ctx, "--s and --kmax must be >= 1")
    budget.check_markov(s, kmax)
    results = {
        "empirical": all(markov.verify_empirical(n) for n in range(1, s + 1)),
        "closed_form": markov.verify_closed_form(s, kmax),
        "contraction": markov.verify_contraction(s, kmax),
        "power_identity": markov.verify_power_identity(20),
    }
    passed = all(results.values())
    _echo_json({"schema": SCHEMA, "s": s, "kmax": kmax,
                "checks": results, "passed": passed})
    if not passed:
        ctx.exit(1)


@main.command(name="walk-sim")
@click.option("--s", "s", type=int, required=True)
@click.option("--t", "t", type=int, required=True)
@click.option("--exact", is_flag=True, help="Exact value by transfer DP.")
@click.option("--trials", type=int, default=10 ** 4, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.pass_context
def cmd_walk_sim(ctx: click.Context, s: int, t: int, exact: bool,
                 trials: int, seed: int) -> None:
    """Summand-walk expected distance versus the taxicab bound."""
    if s < 1 or t < 0:
        _refuse(ctx, "need --s >= 1 and --t >= 0")
    try:
        bound = markov.distance_bound(s, t)
    except ValueError as problem:
        _refuse(ctx, problem)
    if exact:
        value = markov.exact_expected_distance(s, t)
        ok = markov.distance_bound_holds(s, t, value)
        result = {"mode": "exact", "mean": float(value),
                  "mean_exact": f"{value.numerator}/{value.denominator}"}
    else:
        try:
            mean, stderr = markov.monte_carlo_distance(s, t, trials, seed)
        except ValueError as problem:
            _refuse(ctx, problem)
        ok = mean - 3 * stderr <= bound
        result = {"mode": "monte-carlo", "trials": trials, "seed": seed,
                  "mean": mean, "stderr": stderr}
    _echo_json({"schema": SCHEMA, "s": s, "t": t, **result,
                "bound": bound, "pass": ok})
    if not ok:
        ctx.exit(1)


@main.command(name="verify-all")
@click.option("--budget-c", type=int, default=None,
              help="Cap crossing-number ranges for a quicker run.")
@click.pass_context
def cmd_verify_all(ctx: click.Context, budget_c: int | None) -> None:
    """Run every named verification check; exit 0 only if all pass."""
    if budget_c is not None and budget_c < 3:
        _refuse(ctx, "--budget-c must be >= 3")
    results = checks.run_all(budget_c)
    payload = {
        "schema": SCHEMA,
        "budget_c": budget_c,
        "checks": [
            {"name": r.name, "passed": r.passed,
             "seconds": round(r.seconds, 3), "detail": r.detail}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _echo_json(payload)
    if not payload["passed"]:
        ctx.exit(1)


if __name__ == "__main__":
    sys.exit(main())
