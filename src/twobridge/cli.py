"""Command-line interface: enumeration, tables, bounds, and verification.

All commands print deterministic output for a fixed (version, options,
seed): JSON objects carry ``"schema": 1`` and sorted keys, CSV tables carry
a schema comment line.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error.  A request that twobridge refuses (misuse, or over
budget) prints one ``Error:`` line on stderr and nothing on stdout; a parse
error (an unknown option, a missing or ill-typed value) prints a usage
block above an ``Error:`` line that quotes the option.  The row cache, in
the directory that ``--cache-dir`` names, holds enumerated rows only.

``main(args=None, standalone_mode=True)`` parses ``args`` (``sys.argv[1:]``
when None) once, runs the command, and exits the process with its exit
code; with ``standalone_mode=False`` it returns the code instead.  The
parsers are built at import.  An argv that starts with a command name is
parsed by that command's own parser alone; the top-level parser handles
the rest (``--help``, ``--version``, no argv, an unknown name, or an
option first).  It writes to the ``sys.stdout`` and ``sys.stderr`` of
the moment of the call, so a caller may redirect them.

Importing this module loads ``budget`` and builds the parsers; it loads
no other module of the package.  Each command imports the layer it runs
when it runs, with the layers below it: ``enumerate`` imports ``words``,
``sig-table`` and ``avg-sig`` ``sigtables``, ``g4`` ``cobordism``,
``walk-sim`` and ``markov-verify`` ``markov``, and ``verify-all``
``checks``; ``--version`` and ``enumerate --count-only`` load none.  Nor
does the import load numpy: only ``sig-table --method enumerate``
or ``both``, Monte Carlo ``walk-sim``, ``markov-verify`` and ``verify-all``
run numpy code, and the functions that run it import it.  The import pins
OpenBLAS to one thread (``OPENBLAS_NUM_THREADS``, below) for the commands
that load it.  Nor does it load ``dataclasses`` (the package's records are
named tuples and ``__slots__`` classes) or ``concurrent.futures``, which
only an enumerated row scored on threads imports (c >= 21, ``--workers``
above 1).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from decimal import Decimal, Inexact, Rounded, localcontext
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

# No twobridge code calls BLAS (the one einsum is an integer row sum), yet
# OpenBLAS starts a thread pool when numpy loads: 50-70 ms of a process,
# and a helper thread that spins on after the import.  One thread spares
# both.  It is set before any command can load numpy; a value the caller
# set wins, and a plain ``import twobridge`` leaves the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, budget  # noqa: E402
from .budget import BudgetError  # noqa: E402

if TYPE_CHECKING:
    from fractions import Fraction

    from .sigtables import Row

SCHEMA = 1


class _Refusal(Exception):
    """A request that twobridge refuses: one ``Error:`` line, exit 2."""


def _crossing_number(c: int | None) -> None:
    """A crossing number must be at least 3."""
    if c is not None and c < 3:
        raise _Refusal(f"crossing number must be >= 3, got {c}")


def _parse_c_range(text: str) -> range:
    """Parse "9" or "3..14" into an inclusive run of crossing numbers, each
    at least 3, as a range that lists none of them."""
    try:
        if ".." in text:
            lo_str, hi_str = text.split("..", 1)
            lo, hi = int(lo_str), int(hi_str)
        else:
            lo = hi = int(text)
    except ValueError:
        raise _Refusal(f"cannot parse crossing-number range {text!r}")
    if lo > hi:
        raise _Refusal(f"empty crossing-number range {text!r}")
    _crossing_number(lo)
    return range(lo, hi + 1)


def _echo_json(payload: dict, numbers: dict[str, str] | None = None) -> None:
    """Print one JSON object, with each value of ``numbers`` (decimal
    digits, by key) written as a bare number: ``json`` refuses an int past
    the digit limit of ``str``, such as a word count from c = 14288 on."""
    marks = {key: f"\0{key}" for key in numbers or ()}
    text = json.dumps({**payload, **marks}, sort_keys=True)
    for key, mark in marks.items():
        text = text.replace(json.dumps(mark), numbers[key])
    print(text)


def _fraction_digits(value: Fraction) -> tuple[str, str]:
    """An exact fraction's numerator and denominator in decimal, at any size.

    ``str`` refuses an int of more than 4300 digits by default, but a
    ``Decimal`` holds any int exactly and prints the same digits, and
    changes no process-wide setting.  The budgets bound the digit count."""
    return str(Decimal(value.numerator)), str(Decimal(value.denominator))


def _word_count_digits(c: int) -> str:
    """|T(c)| = (2^(c-2) - (-1)^c) / 3 in decimal, as ``words.word_count``
    counts it, computed in decimal arithmetic: converting the binary int
    takes time quadratic in its digits (0.66 s at c = 632455, against
    0.01 s here).  The precision covers the digits of 2^(c-2), since
    0.30103 > log10 2, and a result that needed more would raise
    ``Inexact`` rather than round."""
    with localcontext() as context:
        context.prec = (c - 2) * 30103 // 100000 + 1
        context.traps[Inexact] = context.traps[Rounded] = True
        return str((Decimal(2) ** (c - 2) - (-1) ** c) / 3)


def cmd_enumerate(c: int, count_only: bool) -> int:
    """Stream the words of T(c) in enumeration order."""
    _crossing_number(c)
    if count_only:
        budget.check_word_count(c)
        print(_word_count_digits(c))
        return 0
    from . import words

    budget.check_enumeration(c)
    for word in words.enumerate_words(c):
        print(word)
    return 0


def _cached_histogram(c: int, cache_dir: Path | None, workers: int) -> Row:
    """Enumerated row via cache when possible; re-enumerate and overwrite
    on corruption."""
    from . import sigtables

    if cache_dir is not None:
        try:
            cached = sigtables.load_cached_row(cache_dir, c)
        except (ValueError, OSError) as problem:
            print(f"warning: cache for c={c} rejected ({problem}); re-deriving",
                  file=sys.stderr)
        else:
            if cached is not None:
                return cached
    row = sigtables.histogram_enumerated(c, workers)
    if cache_dir is not None:
        sigtables.store_cached_row(cache_dir, c, row)
    return row


def cmd_sig_table(c: str, method: str, fmt: str, cache_dir: str | None,
                  workers: int | None) -> int:
    """Signature histogram rows s(c, sigma)."""
    from . import sigtables

    c_values = _parse_c_range(c)
    # The cache holds enumerated rows only: a recursed row stored there
    # would later be compared with itself.
    cache = Path(cache_dir) if cache_dir and method != "recurse" else None
    if workers is None:
        workers = os.cpu_count() or 1
    # The work grows with c: refuse the whole range before any row.
    if method != "recurse":
        budget.check_enumeration(c_values[-1])
    if method != "enumerate":
        budget.check_recursion(c_values[-1])
    recursed = (sigtables.recursed_table(c_values[-1])
                if method in ("recurse", "both") else None)

    rows: dict[int, Row] = {}
    try:  # only the cache does I/O here, and its directory is made before any row
        if cache is not None:
            cache.mkdir(parents=True, exist_ok=True)
        for c in c_values:
            if method == "recurse":
                rows[c] = recursed[c]
                continue
            rows[c] = _cached_histogram(c, cache, workers)
            if method == "both" and rows[c] != recursed[c]:
                print(f"mismatch between enumeration and recursion at c={c}",
                      file=sys.stderr)
                return 1
    except OSError as problem:
        raise _Refusal(f"cache directory {cache_dir}: {problem}")

    if fmt == "json":
        payload = {"schema": SCHEMA, "method": method,
                   "rows": {str(c): {str(s): n for s, n in sorted(row.items())}
                            for c, row in rows.items()}}
        _echo_json(payload)
    else:
        for c in c_values:
            print(sigtables.row_to_csv(c, rows[c]), end="")
    return 0


def cmd_avg_sig(c: str, fmt: str) -> int:
    """Average |signature| per crossing number and gap to sqrt(2c/pi)."""
    from . import sigtables

    c_values = _parse_c_range(c)
    reports = sigtables.totals(c_values)  # refuses the whole range before any work
    # Each row is printed as it is formatted; JSON keys are in sorted-string
    # order, as ``_echo_json`` prints them.
    order = sorted(c_values, key=str) if fmt == "json" else c_values
    rows = ((c, *_fraction_digits(reports[c].avg_abs_sigma),
             float(reports[c].avg_abs_sigma), reports[c].asymptote) for c in order)
    if fmt == "json":
        print('{"rows": {', end="")
        for i, (c, num, den, avg, root) in enumerate(rows):
            row = {"avg": f"{num}/{den}", "avg_float": avg, "gap": avg - root, "root": root}
            print(f'{", " if i else ""}"{c}": {json.dumps(row, sort_keys=True)}', end="")
        print(f'}}, "schema": {SCHEMA}}}')
    else:
        print(f"# twobridge avg-sig schema={SCHEMA}")
        print("c,avg_num,avg_den,avg_float,root,gap")
        for c, num, den, avg, root in rows:
            print(f"{c},{num},{den},{avg!r},{root!r},{avg - root!r}")
    return 0


def cmd_g4(word: str | None, c: int | None, s: int | None, fmt: str) -> int:
    """4-genus interval for one word, or the mean bound over T(c)."""
    _crossing_number(c)
    if (word is None) == (c is None):
        raise _Refusal("pass exactly one of --word or --c")
    if word is not None and fmt == "csv":
        raise _Refusal("--format csv applies to --c only")
    from . import cobordism, words

    if word is not None:
        try:
            braid = words.to_braid(word)  # validates the word, once
        except ValueError as problem:
            raise _Refusal(f"invalid word: {problem}")
        c_word = len(braid)
        block = s if s is not None else cobordism.choose_block_size(c_word)
        try:
            report = cobordism.decompose(word, block, braid=braid)
        except ValueError as problem:
            raise _Refusal(problem)
        _echo_json({
            "schema": SCHEMA, "word": word, "c": c_word, "s": block,
            "t": report.t, "r": report.r,
            "cut_saddles": report.cut_saddles,
            "link_saddles": report.link_fix_saddles + report.remainder_fix_saddles,
            "residual": list(report.residual),
            "g4_lower": report.g4_lower, "g4_upper": report.g4_upper,
        })
        return 0
    block = s if s is not None else cobordism.choose_block_size(c)
    try:
        row = cobordism.average_g4_row(c, block)
    except ValueError as problem:
        raise _Refusal(problem)
    mean = row.mean_upper
    num, den = _fraction_digits(mean)
    if fmt == "json":
        # The row's count is checked against word_count(c), so its digits
        # are the word count's.
        _echo_json({
            "schema": SCHEMA, "c": c, "s": block,
            "mean_upper": f"{num}/{den}",
            "mean_upper_float": float(mean),
            "bound_975": row.log10_bound,
            "below_bound": row.below_log10,
        }, {"words": _word_count_digits(c)})
    else:
        print(f"# twobridge g4 schema={SCHEMA}")
        print("c,s,mean_upper_num,mean_upper_den,bound_975")
        print(f"{c},{block},{num},{den},{row.log10_bound!r}")
    return 0


def cmd_markov_verify(s: int, kmax: int) -> int:
    """Exact transition-matrix verifications up to the given sizes."""
    if s < 1 or kmax < 1:
        raise _Refusal("--s and --kmax must be >= 1")
    from . import markov

    results = markov.verify_chain(s, kmax)
    passed = all(results.values())
    _echo_json({"schema": SCHEMA, "s": s, "kmax": kmax,
                "checks": results, "passed": passed})
    return 0 if passed else 1


def cmd_walk_sim(s: int, t: int, exact: bool, trials: int, seed: int) -> int:
    """Summand-walk expected distance versus the taxicab bound."""
    if s < 1 or t < 0:
        raise _Refusal("need --s >= 1 and --t >= 0")
    from . import markov

    try:
        bound = markov.distance_bound(s, t)
    except ValueError as problem:
        if not exact:
            raise _Refusal(problem)
        bound = None  # past the float range; the exact verdict needs no float
    if exact:
        value = markov.exact_expected_distance(s, t)
        ok = markov.distance_bound_holds(s, t, value)
        result = {"mode": "exact", "mean": float(value),
                  "mean_exact": "/".join(_fraction_digits(value))}
    else:
        try:
            mean, stderr = markov.monte_carlo_distance(s, t, trials, seed)
        except ValueError as problem:
            raise _Refusal(problem)
        ok = mean - 3 * stderr <= bound
        result = {"mode": "monte-carlo", "trials": trials, "seed": seed,
                  "mean": mean, "stderr": stderr}
    _echo_json({"schema": SCHEMA, "s": s, "t": t, **result,
                "bound": bound, "pass": ok})
    return 0 if ok else 1


def cmd_verify_all(budget_c: int | None) -> int:
    """Run every named verification check; exit 0 only if all pass."""
    if budget_c is not None and budget_c < 3:
        raise _Refusal("--budget-c must be >= 3")
    from . import checks

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
    return 0 if payload["passed"] else 1


# An option name in an argparse message, not already quoted.
_OPTION = re.compile(r"(?<![\w'-])(--[\w-]+)")


class _Parser(argparse.ArgumentParser):
    """A parser whose errors print the usage, a pointer to ``--help``, and
    an ``Error:`` line that quotes the option at fault, then exit 2."""

    def error(self, message: str) -> NoReturn:
        usage = self.format_usage().removeprefix("usage: ")
        message = _OPTION.sub(r"'\1'", message)
        self.exit(2, f"Usage: {usage}Try '{self.prog} --help' for help.\n\n"
                     f"Error: {message}\n")


def _workers(text: str) -> int:
    """The ``--workers`` value: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=1")
    return value


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser, which lists every command, and each command's
    own parser by name.  No parser takes an abbreviated option, and each
    has ``--help`` and no ``-h``."""
    parser = _Parser(prog="twobridge", add_help=False, allow_abbrev=False,
                     description="Alternating-word models of 2-bridge knots: "
                                 "enumeration, signature tables, and 4-genus bounds.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    by_name: dict[str, _Parser] = {}

    def command(name, run):
        summary = run.__doc__
        sub = by_name[name] = commands.add_parser(
            name, help=summary, description=summary, add_help=False, allow_abbrev=False)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(parser=sub, run=run)
        return sub.add_argument

    add = command("enumerate", cmd_enumerate)
    add("--c", type=int, required=True, help="Crossing number.")
    add("--count-only", action="store_true", help="Print the word count only.")

    add = command("sig-table", cmd_sig_table)
    add("--c", default="3..14", help="c or lo..hi range (default: %(default)s).")
    add("--method", choices=("enumerate", "recurse", "both"), default="both",
        help="Enumerate every word, recurse on the two rows below, or both "
             "and compare (default: %(default)s).")
    add("--format", dest="fmt", choices=("csv", "json"), default="csv",
        help="Output format (default: %(default)s).")
    add("--cache-dir", help="Enumerated-row cache directory; no cache without it.")
    add("--workers", type=_workers,
        help="Enumeration shards; defaults to available parallelism.")

    add = command("avg-sig", cmd_avg_sig)
    add("--c", default="3..20", help="c or lo..hi range (default: %(default)s).")
    add("--format", dest="fmt", choices=("csv", "json"), default="csv",
        help="Output format (default: %(default)s).")

    add = command("g4", cmd_g4)
    add("--word", help="One word to decompose.")
    add("--c", type=int, help="Aggregate over all of T(c) instead.")
    add("--s", type=int, help="Block size; defaults to ceil(log10 c).")
    add("--format", dest="fmt", choices=("csv", "json"), default="json",
        help="Output format (default: %(default)s).")

    add = command("markov-verify", cmd_markov_verify)
    add("--s", type=int, default=6, help="Largest block size (default: %(default)s).")
    add("--kmax", type=int, default=8,
        help="Largest power k of M^s (default: %(default)s).")

    add = command("walk-sim", cmd_walk_sim)
    add("--s", type=int, required=True, help="Block size.")
    add("--t", type=int, required=True, help="Number of blocks.")
    add("--exact", action="store_true",
        help="Exact value from the transfer matrix's generating functions.")
    add("--trials", type=int, default=10 ** 4,
        help="Monte Carlo walks (default: %(default)s).")
    add("--seed", type=int, default=0, help="Monte Carlo seed (default: %(default)s).")

    add = command("verify-all", cmd_verify_all)
    add("--budget-c", type=int, help="Cap crossing-number ranges for a quicker run.")
    return parser, by_name


_PARSER, _COMMANDS = _build_parser()


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run one command; see the module docstring for the contract.  A
    command's argv is parsed by its own parser, once: the top-level parser
    would hand it the same arguments."""
    if args is None:
        args = sys.argv[1:]
    try:
        command = _COMMANDS.get(args[0]) if args else None
        options, unknown = (command.parse_known_args(args[1:]) if command
                            else _PARSER.parse_known_args(args))
        options = vars(options)
        parser, run = options.pop("parser"), options.pop("run")
        # Unknown options are reported here, against the command's own usage;
        # parse_args would report them against the top-level one.
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as stop:  # --help, --version, or a parse error
        code = stop.code
    else:
        try:
            code = run(**options)
            sys.stdout.flush()  # a closed pipe shows here, not at exit
        except (BudgetError, _Refusal) as problem:
            print(f"Error: {problem}", file=sys.stderr)
            code = 2
        except BrokenPipeError:
            # stdout was closed early (``twobridge enumerate --c 22 | head``):
            # exit 1 quietly, and send what is left to devnull at exit.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 1
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
