"""Command-line interface: enumeration, tables, bounds, and verification.

All commands print deterministic output for a fixed (version, options,
seed): JSON objects carry ``"schema": 1`` and sorted keys, CSV tables carry
a schema comment line.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error.  A request that twobridge refuses (misuse, or over
budget) prints one ``Error:`` line on stderr and nothing on stdout; a usage
error (an unknown command or option, a missing or ill-typed value) prints
the usage and a pointer to ``--help`` above an ``Error:`` line that quotes
the word at fault.  The row cache, in the directory that ``--cache-dir``
names, holds enumerated rows only.

``main(args=None, standalone_mode=True)`` reads ``args`` (``sys.argv[1:]``
when None) once, runs the command, and exits the process with its exit
code; with ``standalone_mode=False`` it returns the code instead.  One
table, ``_COMMANDS``, holds each command's function and options.  One
reader, ``_read``, reads every argv off it, ``--help`` and ``--version``
too, in argparse's grammar: ``--opt value`` or ``--opt=value``, a flag
alone, the last repeat winning, '-' and negative numbers as values, ``--``
ending the options, and no abbreviation.  The same table renders the usage
and help, unwrapped.  Output goes to the ``sys.stdout`` and ``sys.stderr``
of the moment of the call, so a caller may redirect them.

Importing this module loads ``budget`` and no other module of the
package.  Each command imports the layer it runs when it runs, with the
layers below it: ``enumerate`` imports ``words``, ``sig-table`` and
``avg-sig`` ``sigtables``, ``g4`` ``cobordism``, ``walk-sim`` and
``markov-verify`` ``markov``, and ``verify-all`` ``checks``; ``--version``,
``--help`` and ``enumerate --count-only`` load none.  Only ``sig-table
--method enumerate`` or ``both``, Monte Carlo ``walk-sim``,
``markov-verify`` and ``verify-all`` run numpy code, and the functions that
run it import it; the import pins OpenBLAS to one thread
(``OPENBLAS_NUM_THREADS``, below) for them.  No argv loads ``argparse``
(with ``gettext`` and ``locale``) or ``dataclasses``, and only an
enumerated row scored on threads loads ``concurrent.futures`` (c >= 21,
``--workers`` above 1).
"""

from __future__ import annotations

import json
import os
import re
import sys
from decimal import Decimal, Inexact, Rounded, localcontext
from pathlib import Path
from typing import TYPE_CHECKING

# No twobridge code calls BLAS (the one einsum is an integer row sum), yet
# OpenBLAS starts a thread pool when numpy loads: 50-70 ms of a process,
# and a helper thread that spins on after the import.  One thread spares
# both.  It is set before any command can load numpy; a value the caller
# set wins, and a plain ``import twobridge`` leaves the environment alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, budget  # noqa: E402
from .budget import BudgetError  # noqa: E402

if TYPE_CHECKING:
    from collections.abc import Callable
    from fractions import Fraction

    from .sigtables import Row

SCHEMA = 1


class _Refusal(Exception):
    """A request that twobridge refuses: one ``Error:`` line, exit 2.  A
    usage error prints its ``usage`` block above that line."""

    usage = ""


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


# An int of up to this many bits converts straight through ``Decimal(n)``,
# in time quadratic in its digits: about 2 ms at this size, where splitting
# it gains nothing yet.
_DIRECT_BITS = 1 << 15


def _decimal_digits(n: int) -> str:
    """An int in decimal, at any size.

    ``str`` refuses an int of more than 4300 digits by default, but a
    ``Decimal`` holds any int exactly and prints the same digits, and
    changes no process-wide setting.  Past ``_DIRECT_BITS`` the int splits
    on powers of two, n = hi 2^k + lo, and the parts join in decimal
    arithmetic: 0.1 s at 632,000 bits, against 0.8 s for ``Decimal(n)``.
    The precision covers the digits of n, since 0.30103 > log10 2, and a
    result that needed more would raise ``Inexact`` rather than round."""
    if n.bit_length() <= _DIRECT_BITS:
        return str(Decimal(n))
    powers: dict[int, Decimal] = {}

    def join(n: int) -> Decimal:
        if n.bit_length() <= _DIRECT_BITS:
            return Decimal(n)
        k = 1 << (n.bit_length() - 1).bit_length() - 1  # the largest power of 2 below
        if k not in powers:
            powers[k] = Decimal(2) ** k
        return join(n >> k) * powers[k] + join(n & (1 << k) - 1)

    with localcontext() as context:
        context.prec = context.Emax = n.bit_length() * 30103 // 100000 + 1
        context.traps[Inexact] = context.traps[Rounded] = True
        return ("-" if n < 0 else "") + str(join(abs(n)))


def _fraction_digits(value: Fraction) -> tuple[str, str]:
    """An exact fraction's numerator and denominator in decimal, at any
    size; the budgets bound the digit count."""
    return _decimal_digits(value.numerator), _decimal_digits(value.denominator)


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
    if workers is not None and workers < 1:
        raise _Refusal("--workers must be >= 1")
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


# The option rows that two commands share, but for the default.
def _range_option(default: str) -> tuple:
    return ("--c", "c", None, default, None, None, "c or lo..hi range (default: %(default)s).")


def _format_option(default: str) -> tuple:
    return ("--format", "fmt", None, default, ("csv", "json"), None,
            "Output format (default: %(default)s).")


# Each command's function and options.  An option's row gives its option
# string, its dest (the function's keyword), the type that converts its value
# (None keeps the str), its default, its choices, "required", "flag" (it
# stands alone and sets True) or None, and its help text.  ``_read`` reads
# every argv off these rows, and ``_usage`` and ``_help`` render them.
_COMMANDS = {
    "enumerate": (cmd_enumerate, (
        ("--c", "c", int, None, None, "required", "Crossing number."),
        ("--count-only", "count_only", None, False, None, "flag",
         "Print the word count only."),
    )),
    "sig-table": (cmd_sig_table, (
        _range_option("3..14"),
        ("--method", "method", None, "both", ("enumerate", "recurse", "both"), None,
         "Enumerate every word, recurse on the two rows below, or both "
         "and compare (default: %(default)s)."),
        _format_option("csv"),
        ("--cache-dir", "cache_dir", None, None, None, None,
         "Enumerated-row cache directory; no cache without it."),
        ("--workers", "workers", int, None, None, None,
         "Enumeration shards; defaults to available parallelism."),
    )),
    "avg-sig": (cmd_avg_sig, (_range_option("3..20"), _format_option("csv"))),
    "g4": (cmd_g4, (
        ("--word", "word", None, None, None, None, "One word to decompose."),
        ("--c", "c", int, None, None, None, "Aggregate over all of T(c) instead."),
        ("--s", "s", int, None, None, None, "Block size; defaults to ceil(log10 c)."),
        _format_option("json"),
    )),
    "markov-verify": (cmd_markov_verify, (
        ("--s", "s", int, 6, None, None, "Largest block size (default: %(default)s)."),
        ("--kmax", "kmax", int, 8, None, None,
         "Largest power k of M^s (default: %(default)s)."),
    )),
    "walk-sim": (cmd_walk_sim, (
        ("--s", "s", int, None, None, "required", "Block size."),
        ("--t", "t", int, None, None, "required", "Number of blocks."),
        ("--exact", "exact", None, False, None, "flag",
         "Exact value from the transfer matrix's generating functions."),
        ("--trials", "trials", int, 10 ** 4, None, None,
         "Monte Carlo walks (default: %(default)s)."),
        ("--seed", "seed", int, 0, None, None, "Monte Carlo seed (default: %(default)s)."),
    )),
    "verify-all": (cmd_verify_all, (
        ("--budget-c", "budget_c", int, None, None, None,
         "Cap crossing-number ranges for a quicker run."),
    )),
}


def _is_value(word: str, options: dict) -> bool:
    """Whether ``word`` is a value, not an option string: '-' is one, and
    so is a negative number or a word with a space that names no option."""
    return (not word.startswith("-") or word == "-" or word.split("=", 1)[0] not in options
            and (re.match(r"-\d+$|-\d*\.\d+$", word) is not None or " " in word))


def _usage(name: str | None) -> tuple[str, list[tuple[str, str]]]:
    """The usage line of command ``name`` (of the top level with no name),
    and its options with their help, each as the usage shows it: with its
    metavar (its choices in braces, else its dest in upper case), and in
    brackets unless it is required."""
    entries = [("[--help]", "Show this message and exit.")]
    if name is None:
        entries.insert(0, ("[--version]", "Show the version and exit."))
    for option, dest, _, default, choices, need, text in _COMMANDS[name][1] if name else ():
        if need != "flag":
            option += " {" + ",".join(choices) + "}" if choices else " " + dest.upper()
        entries.append((option if need == "required" else "[%s]" % option,
                        text % {"default": default}))
    words = " ".join(word for word, _ in entries)
    return ("twobridge %s %s" % (name, words) if name else
            "twobridge %s COMMAND ..." % words), entries


def _help(name: str | None, option: str = "--help") -> int:
    """What ``--help`` and ``--version`` run: print the version, or the help
    of command ``name`` (of the top level, which lists the commands, with no
    name).  No line is wrapped, whatever the terminal's width."""
    def columns(entries: list, indent: str = "  ") -> str:
        width = max(len(left) for left, _ in entries) + 2
        return "".join(indent + left.ljust(width) + right + "\n" for left, right in entries)

    if option == "--version":
        print("twobridge, version", __version__)
        return 0
    usage, entries = _usage(name)
    summary = _COMMANDS[name][0].__doc__ if name else (
        "Alternating-word models of 2-bridge knots: enumeration, signature tables, "
        "and 4-genus bounds.")
    print("usage: %s\n\n%s\n\noptions:\n" % (usage, summary)
          + columns([(word.strip("[]"), text) for word, text in entries]), end="")
    if name is None:
        print("\ncommands:\n  COMMAND\n" + columns(
            [(command, run.__doc__) for command, (run, _) in _COMMANDS.items()], "    "), end="")
    return 0


def _usage_error(name: str | None, message: str) -> _Refusal:
    """A usage error of command ``name`` (of the top level with no name):
    its usage line and a pointer to its help go above the ``Error:`` line."""
    error, usage = _Refusal(message), _usage(name)[0]
    error.usage = "Usage: %s\nTry '%s --help' for help.\n\n" % (usage, usage.split(" [")[0])
    return error


def _read(args: list[str]) -> tuple[Callable[..., int], dict]:
    """The function that ``args`` runs and its keyword arguments, defaults
    included, read off ``_COMMANDS``: a command, or ``_help`` for the help
    or the version.  A usage error raises ``_Refusal``."""
    # Up to the command name, the first value, only --help and --version
    # are options, and the other words are reported as the command's.
    name, by_option, unknown = None, {"--help": None, "--version": None}, []
    words = iter(args)
    for word in words:
        row = by_option.get(word)
        if row is not None:  # an option; a flag takes no value
            value = row[5] == "flag" or next(words, "--")
            if value is not True and value.startswith("-") and not _is_value(value, by_option):
                raise _usage_error(name, "argument %r: expected one argument" % word)
        elif name is None and word in _COMMANDS:
            name, (run, rows) = word, _COMMANDS[word]
            by_option = {row[0]: row for row in rows}
            by_option["--help"] = None
            options = {row[1]: row[3] for row in rows if row[5] != "required"}
            continue
        elif word in by_option:
            return _help, {"name": name, "option": word}
        elif name is None and (word == "--" or _is_value(word, by_option)):
            raise _usage_error(None, "argument COMMAND: invalid choice: %r (choose from %s)"
                               % (word, ", ".join(map(repr, _COMMANDS))))
        elif word.split("=", 1)[0] not in by_option:
            # A word that no option takes; from '--' on, every word is one.
            unknown += [word, *words] if word == "--" else [word]
            continue
        else:  # --option=value
            head, _, value = word.partition("=")
            row = by_option[head]
            if row is None or row[5] == "flag" or value == "--":
                raise _usage_error(name, "argument %r: cannot take %r" % (head, value))
        option, dest, kind, _, choices, _, _ = row
        try:
            value = kind(value) if kind else value
        except ValueError:
            raise _usage_error(name, "argument %r: invalid %s value: %r"
                               % (option, kind.__name__, value))
        if choices is not None and value not in choices:
            raise _usage_error(name, "argument %r: invalid choice: %r (choose from %s)"
                               % (option, value, ", ".join(map(repr, choices))))
        options[dest] = value
    missing = [repr(row[0]) for row in rows if row[1] not in options] if name else ["COMMAND"]
    if missing:
        raise _usage_error(name, "the following arguments are required: " + ", ".join(missing))
    if unknown:
        raise _usage_error(name, "unrecognized arguments: " + " ".join(map(repr, unknown)))
    return run, options


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Read ``args`` with ``_read``, the one reader, and run what it reads: a
    command, the help or the version; see the module docstring."""
    try:
        run, options = _read(sys.argv[1:] if args is None else args)
        code = run(**options)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except (BudgetError, _Refusal) as problem:
        print("%sError: %s" % (getattr(problem, "usage", ""), problem), file=sys.stderr)
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
