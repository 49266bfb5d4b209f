"""End-to-end checks of the twobridge command line.

Conventions under test: exit code 0 on success, 1 on a failed
verification, 2 on bad usage; JSON payloads carry "schema"; CSV
starts with a schema comment line; repeated runs with the same
arguments and seed are byte-identical.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twobridge
from test_sigtables import enumerated_palindromic_histogram
from twobridge import budget, cli, cobordism, markov, sigtables, words
from twobridge.cli import main

EXAMPLE_WORD = "+--+-+-+--++-++-"
ROOT = Path(__file__).resolve().parents[1]


def invoke(*args):
    """Run one command in process, as a caller that redirects the standard
    streams does; ``output`` is the stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args), standalone_mode=False)
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                           stderr=err.getvalue(), output=out.getvalue())


# ``python -m twobridge.cli`` from the source tree, with the package not installed.
CLI = [sys.executable, "-m", "twobridge.cli"]
SOURCE_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def assert_refused(result, message):
    """A refusal by twobridge itself: exit 2, nothing on stdout, and one
    ``Error:`` line on stderr with no usage block."""
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"Error: {message}\n"


def test_enumerate_lists_words():
    result = invoke("enumerate", "--c", "5")
    assert result.exit_code == 0
    assert result.output.splitlines() == ["+-++--+", "+--+--+", "+--++-+"]


def test_enumerate_count_only():
    result = invoke("enumerate", "--c", "12", "--count-only")
    assert result.exit_code == 0
    assert result.output.strip() == "341"


def test_enumerate_count_only_past_the_digit_limit(lift_digit_limit):
    # 14288 is the first c whose count has more than 4300 digits.
    result = invoke("enumerate", "--c", "14288", "--count-only")
    assert result.exit_code == 0 and result.stderr == ""
    lift_digit_limit()
    assert result.output == f"{words.word_count(14288)}\n"
    assert len(result.output) == 4301 + 1


def test_enumerate_count_only_over_budget_exits_2():
    # Its digits are charged as one avg-sig row's: c^2 / 16 work units.
    budget.check_word_count(632455)
    assert_refused(invoke("enumerate", "--c", "632456", "--count-only"),
                   "refusing the word count at c=632456: it needs about 25000036996 "
                   "work units (c^2 / 16 for its digits, as an avg-sig row's), "
                   "and the budget stops at 25000000000")


def test_enumerate_rejects_small_c():
    assert_refused(invoke("enumerate", "--c", "2"),
                   "crossing number must be >= 3, got 2")


def test_sig_table_csv_round_trips():
    result = invoke("sig-table", "--c", "5..6", "--method", "both")
    assert result.exit_code == 0
    blocks = result.output.split("# twobridge sig-table")
    assert len(blocks) == 3  # leading empty piece plus one block per c
    rows = dict(sigtables.row_from_csv("# twobridge sig-table" + block)
                for block in blocks[1:])
    assert rows == {5: {2: 2, 4: 1}, 6: {-2: 1, 0: 3, 2: 1}}


def test_sig_table_json_payload():
    result = invoke("sig-table", "--c", "4", "--method", "recurse",
                    "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    assert payload["rows"] == {"4": {"0": 1}}


def test_sig_table_cache_store_and_hit(tmp_path):
    first = invoke("sig-table", "--c", "6", "--method", "enumerate",
                   "--cache-dir", str(tmp_path))
    assert first.exit_code == 0
    assert (tmp_path / "sig-c06.csv").exists()
    second = invoke("sig-table", "--c", "6", "--method", "enumerate",
                    "--cache-dir", str(tmp_path))
    assert second.exit_code == 0
    assert second.output == first.output
    assert second.stderr == ""


def test_sig_table_rederives_tampered_cache(tmp_path):
    first = invoke("sig-table", "--c", "6", "--method", "enumerate",
                   "--cache-dir", str(tmp_path))
    path = tmp_path / "sig-c06.csv"
    path.write_text(path.read_text().replace("-2,1", "-2,9"))
    again = invoke("sig-table", "--c", "6", "--method", "enumerate",
                   "--cache-dir", str(tmp_path))
    assert again.exit_code == 0
    assert "rejected" in again.stderr
    assert again.stdout == first.stdout
    # the bad file was overwritten with a valid row
    assert sigtables.load_cached_row(tmp_path, 6) == {-2: 1, 0: 3, 2: 1}


@pytest.mark.parametrize("below, errno", [("", "[Errno 17] File exists"),
                                          ("x", "[Errno 20] Not a directory")])
def test_sig_table_refuses_an_unusable_cache_dir(tmp_path, monkeypatch, below, errno):
    # A file stands where the cache directory, or its parent, should be.
    blocker = tmp_path / "README.md"
    blocker.write_text("not a directory\n")
    cache = blocker / below if below else blocker
    monkeypatch.setattr(sigtables, "histogram_enumerated", None)  # no row is built
    result = invoke("sig-table", "--c", "5", "--method", "enumerate",
                    "--cache-dir", str(cache))
    assert_refused(result, f"cache directory {cache}: {errno}: '{cache}'")


def test_sig_table_refuses_a_failing_store(tmp_path, monkeypatch):
    def store(cache_dir, c, row):
        raise PermissionError(13, "Permission denied", str(tmp_path / "sig-c05.csv"))

    monkeypatch.setattr(sigtables, "store_cached_row", store)
    result = invoke("sig-table", "--c", "5", "--method", "enumerate",
                    "--cache-dir", str(tmp_path))
    assert_refused(result, f"cache directory {tmp_path}: [Errno 13] Permission "
                           f"denied: '{tmp_path / 'sig-c05.csv'}'")


def test_recurse_never_writes_the_cache(tmp_path, monkeypatch):
    cache = ("--cache-dir", str(tmp_path))
    recurse = invoke("sig-table", "--c", "6", "--method", "recurse", *cache)
    assert recurse.exit_code == 0
    assert not (tmp_path / "sig-c06.csv").exists()

    enumerated = []
    histogram_enumerated = sigtables.histogram_enumerated

    def counted(c, workers=None):
        enumerated.append(c)
        return histogram_enumerated(c, workers)

    monkeypatch.setattr(sigtables, "histogram_enumerated", counted)
    both = invoke("sig-table", "--c", "6", "--method", "both", *cache)
    assert both.exit_code == 0
    assert enumerated == [6]
    assert both.stdout == recurse.stdout


def test_sig_table_workers_match_serial():
    # c = 21 has 2^19 masks, the fewest that are scored on threads.
    serial = invoke("sig-table", "--c", "21", "--method", "enumerate",
                    "--workers", "1")
    threaded = invoke("sig-table", "--c", "21", "--method", "enumerate",
                      "--workers", "4")
    assert serial.exit_code == 0 and threaded.exit_code == 0
    assert serial.output == threaded.output


@pytest.mark.parametrize("method", ["enumerate", "both"])
def test_sig_table_over_budget_exits_2(method):
    result = invoke("sig-table", "--c", "23", "--method", method)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "budget stops at c=22" in result.stderr
    assert "Traceback" not in result.stderr


def test_sig_table_mismatch_exits_1(monkeypatch):
    monkeypatch.setattr(sigtables, "recursed_table",
                        lambda c_max: {5: {2: 3}})
    result = invoke("sig-table", "--c", "5", "--method", "both")
    assert result.exit_code == 1
    assert "mismatch between enumeration and recursion at c=5" in result.stderr


def test_sig_table_rejects_bad_options():
    assert_refused(invoke("sig-table", "--c", "2..5"),
                   "crossing number must be >= 3, got 2")


@pytest.mark.parametrize("args, option", [
    (("sig-table", "--c", "5", "--workers", "x"), "'--workers'"),
    (("walk-sim", "--t", "3"), "'--s'"),
])
def test_click_parse_errors_keep_usage(args, option):
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("Usage: ")
    assert option in result.stderr.splitlines()[-1]


@pytest.mark.parametrize("args, option", [
    (("g4", "--wor", "X"), "'--wor'"),
    (("sig-table", "--work", "1"), "'--work'"),
])
def test_options_take_no_abbreviation(args, option):
    result = invoke(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"Usage: twobridge {args[0]} ")
    assert option in result.stderr.splitlines()[-1]


COMMANDS = ["enumerate", "sig-table", "avg-sig", "g4", "markov-verify",
            "walk-sim", "verify-all"]


def test_help_lists_the_commands():
    result = invoke("--help")
    assert result.exit_code == 0
    assert result.stderr == ""
    listed = [line.split()[0] for line in result.stdout.split("COMMAND\n")[-1].splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == COMMANDS
    for command in COMMANDS:
        result = invoke(command, "--help")
        assert result.exit_code == 0
        assert result.stdout.startswith(f"usage: twobridge {command} [--help]")


def test_help_and_usage_ignore_the_terminal_width():
    # Nothing is wrapped, so a narrow and a wide terminal read the same bytes.
    for args in (["--help"], ["g4", "--help"], ["sig-table", "--help"], ["walk-sim", "--t", "3"]):
        narrow, wide = (subprocess.run(CLI + args, env={**SOURCE_ENV, "COLUMNS": columns},
                                       cwd=ROOT, capture_output=True, text=True, timeout=60)
                        for columns in ("20", "300"))
        assert narrow.returncode == wide.returncode == (2 if "--t" in args else 0), args
        assert (narrow.stdout, narrow.stderr) == (wide.stdout, wide.stderr), args


def test_word_that_starts_with_a_dash():
    # A value that starts with '-' reads as an option; no word starts so.
    result = invoke("g4", "--word", "-+-")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("Usage: twobridge g4 ")
    assert result.stderr.splitlines()[-1] == "Error: argument '--word': expected one argument"
    assert_refused(invoke("g4", "--word=-+-"), "invalid word: word must start with +: '-+-'")


# Each command's usual call, one cheap run of each.
USUAL_CALLS = [
    ("enumerate", "--c", "5"),
    ("sig-table", "--c", "3..6"),
    ("avg-sig", "--c", "9", "--format", "json"),
    ("g4", "--word", EXAMPLE_WORD),
    ("markov-verify", "--s", "2", "--kmax", "2"),
    ("walk-sim", "--s", "2", "--t", "3", "--exact"),
    ("verify-all", "--budget-c", "3"),
]


def test_a_command_call_parses_once(monkeypatch):
    """Every argv, a usual call, help, the version or a parse error, is read
    once, off the option table, and no argparse parser parses it."""
    parsed, read = [], []
    parse, reader = argparse.ArgumentParser.parse_known_args, cli._read

    def spy(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    monkeypatch.setattr(cli, "_read", lambda args: read.append(args) or reader(args))
    for args in [*USUAL_CALLS, ("g4", "--help"), ("g4", "--bogus", "1"), ("--version",)]:
        parsed.clear()
        read.clear()
        invoke(*args)
        assert (parsed, read) == ([], [list(args)]), args


def assert_usage_error(result, last_line):
    """A parse error: exit 2, nothing on stdout, and on stderr the usage of
    the command (of the top level if there is none), a pointer to its help,
    a blank line and one ``Error:`` line."""
    assert result.exit_code == 2
    assert result.stdout == ""
    usage, pointer, blank, error = result.stderr.split("\n")[:-1]
    assert usage.startswith("Usage: twobridge ")
    prog = usage.removeprefix("Usage: ").split(" [")[0]
    assert (pointer, blank, error) == (f"Try '{prog} --help' for help.", "", last_line)


INVALID_COMMAND = ("Error: argument COMMAND: invalid choice: {!r} (choose from 'enumerate', "
                   "'sig-table', 'avg-sig', 'g4', 'markov-verify', 'walk-sim', 'verify-all')")
# Each argv's exit code, the start of its stdout (the whole first line) and
# the last line of its stderr.  verify-all prints its seconds, so its
# refusal stands in for its usual call.
GOLDEN = {
    ("enumerate", "--c", "5"): (0, "+-++--+\n", ""),
    ("sig-table", "--c", "3..6"): (0, "# twobridge sig-table schema=1 sha256=7dd08f3066e9dc650a6"
                                      "ead855a5a8b770dfa8a52e3b1e2bea6967dea0613e11b\n", ""),
    ("avg-sig", "--c", "9", "--format", "json"):
        (0, '{"rows": {"9": {"avg": "19/6", "avg_float": 3.1666666666666665, '
            '"gap": 0.7730129842580706, "root": 2.393653682408596}}, "schema": 1}\n', ""),
    ("g4", "--word", EXAMPLE_WORD):
        (0, '{"c": 12, "cut_saddles": 6, "g4_lower": 1, "g4_upper": 9, "link_saddles": 2, '
            '"r": 4, "residual": ["o1:aa", "o1:ba", "o2:ab", "o3:ba"], "s": 2, "schema": 1, '
            f'"t": 4, "word": "{EXAMPLE_WORD}"}}\n', ""),
    ("markov-verify", "--s", "2", "--kmax", "2"):
        (0, '{"checks": {"closed_form": true, "contraction": true, "empirical": true, '
            '"power_identity": true}, "kmax": 2, "passed": true, "s": 2, "schema": 1}\n', ""),
    ("walk-sim", "--s", "2", "--t", "3", "--exact"):
        (0, '{"bound": 16.392304845413264, "mean": 2.8125, "mean_exact": "45/16", '
            '"mode": "exact", "pass": true, "s": 2, "schema": 1, "t": 3}\n', ""),
    ("verify-all", "--budget-c", "2"): (2, "", "Error: --budget-c must be >= 3"),
    ("enumerate", "--help"): (0, "usage: twobridge enumerate [--help] --c C [--count-only]\n", ""),
    ("sig-table", "--help"):
        (0, "usage: twobridge sig-table [--help] [--c C] [--method {enumerate,recurse,both}] "
            "[--format {csv,json}] [--cache-dir CACHE_DIR] [--workers WORKERS]\n", ""),
    ("avg-sig", "--help"): (0, "usage: twobridge avg-sig [--help] [--c C] [--format {csv,json}]\n",
                            ""),
    ("g4", "--help"):
        (0, "usage: twobridge g4 [--help] [--word WORD] [--c C] [--s S] [--format {csv,json}]\n",
         ""),
    ("markov-verify", "--help"):
        (0, "usage: twobridge markov-verify [--help] [--s S] [--kmax KMAX]\n", ""),
    ("walk-sim", "--help"):
        (0, "usage: twobridge walk-sim [--help] --s S --t T [--exact] [--trials TRIALS] "
            "[--seed SEED]\n", ""),
    ("verify-all", "--help"): (0, "usage: twobridge verify-all [--help] [--budget-c BUDGET_C]\n",
                               ""),
    ("--help",): (0, "usage: twobridge [--version] [--help] COMMAND ...\n", ""),
    ("--version",): (0, f"twobridge, version {twobridge.__version__}\n", ""),
    (): (2, "", "Error: the following arguments are required: COMMAND"),
    ("bogus",): (2, "", INVALID_COMMAND.format("bogus")),
    ("--bogus",): (2, "", "Error: the following arguments are required: COMMAND"),
    ("--c", "5", "g4"): (2, "", INVALID_COMMAND.format("5")),
    ("--bogus", "g4", "--word", EXAMPLE_WORD): (2, "", "Error: unrecognized arguments: '--bogus'"),
    ("g4", "--bogus", "1"): (2, "", "Error: unrecognized arguments: '--bogus' '1'"),
    ("g4", "--word"): (2, "", "Error: argument '--word': expected one argument"),
    ("g4", "--c", "x"): (2, "", "Error: argument '--c': invalid int value: 'x'"),
    ("sig-table", "--method", "nope"):
        (2, "", "Error: argument '--method': invalid choice: 'nope' "
                "(choose from 'enumerate', 'recurse', 'both')"),
    ("sig-table", "--c", "5", "--workers", "0"): (2, "", "Error: --workers must be >= 1"),
    ("g4", "--word=-+-"): (2, "", "Error: invalid word: word must start with +: '-+-'"),
    ("g4", "--c", "5", "--c", "7"):
        (0, '{"below_bound": true, "bound_975": 80.75986071254954, "c": 7, '
            '"mean_upper": "59/11", "mean_upper_float": 5.363636363636363, "s": 1, '
            '"schema": 1, "words": 11}\n', ""),
    ("g4", "--word", EXAMPLE_WORD, "extra"): (2, "", "Error: unrecognized arguments: 'extra'"),
    ("g4", "--", "--c", "5"): (2, "", "Error: unrecognized arguments: '--' '--c' '5'"),
}


@pytest.mark.parametrize("args", GOLDEN, ids=lambda args: " ".join(args) or "no argv")
def test_command_parsers_answer_as_the_top_level_parser(args):
    """Every argv, usual or not, exits with its pinned code.  Output and
    help start with their pinned line and print nothing on stderr; an error
    prints nothing on stdout and its pinned ``Error:`` line on stderr, a
    refusal alone and a parse error below the usage."""
    code, out, err = GOLDEN[args]
    result = invoke(*args)
    if code == 0:
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(out)
    elif result.stderr.startswith("Usage: "):
        assert_usage_error(result, err)
    else:
        assert_refused(result, err.removeprefix("Error: "))


@functools.cache
def argparse_parsers():
    """The top-level argparse parser and each command's own by name, built
    from ``cli._COMMANDS`` as the CLI once built them.  No parser takes an
    abbreviated option, and each has ``--help`` and no ``-h``."""
    top = argparse.ArgumentParser(prog="twobridge", add_help=False, allow_abbrev=False)
    top.add_argument("--version", action="version", version="twobridge")
    top.add_argument("--help", action="help")
    commands = top.add_subparsers(metavar="COMMAND", required=True)
    by_name = {}
    for name, (run, rows) in cli._COMMANDS.items():
        parser = by_name[name] = commands.add_parser(name, add_help=False, allow_abbrev=False)
        parser.add_argument("--help", action="help")
        parser.set_defaults(run=run)
        for option, dest, kind, default, choices, need, _ in rows:
            if need == "flag":
                parser.add_argument(option, dest=dest, action="store_true")
            else:
                parser.add_argument(option, dest=dest, type=kind, default=default,
                                    choices=choices, required=need == "required")
    return top, by_name


def argparse_read(args):
    """The command function and keyword arguments that argparse reads off
    ``args``, or the code it exits with (0 for help, 2 for an error): an
    argv that starts with a command name goes to that command's own parser,
    the rest to the top-level one."""
    top, by_name = argparse_parsers()
    parser = by_name.get(args[0]) if args else None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            options, unknown = (parser.parse_known_args(args[1:]) if parser
                                else top.parse_known_args(args))
        except SystemExit as stop:
            return stop.code
    options = vars(options)
    return 2 if unknown else (options.pop("run"), options)


# Values of every kind an option takes, and junk, none with a leading dash;
# and words that take argparse's other paths.
PLAIN_VALUES = st.one_of(
    st.integers(0, 40).map(str), st.sampled_from(["3..9", "9..3", "x", "", " 7", "1_0"]),
    st.sampled_from(["csv", "json", "enumerate", "recurse", "both", EXAMPLE_WORD, "+-+"]),
    st.text(max_size=4).filter(lambda text: not text.startswith("-")))
OTHER_WORDS = st.one_of(
    st.sampled_from(["--", "-", "--help", "--version", "-1", "--bogus", "-+-"]),
    st.integers(-30, -1).map(str))


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(COMMANDS), st.data())
def test_plain_reader_agrees_with_argparse(name, data):
    """Where argparse accepts an argv, ``_read`` returns the same function
    and options; where argparse prints help, so does ``main``; and where it
    fails, ``main`` exits 2 with the usage and one ``Error:`` line.  One
    argparse quirk is refused: ``--opt=--`` drops the ``--`` and stores an
    empty list, which no command takes."""
    run, rows = cli._COMMANDS[name]
    options = st.sampled_from([row[0] for row in rows])
    # Mostly each option with a value of its kind (a flag alone), repeats
    # allowed, and now and then a stray word.
    argv = []
    for option, _, kind, _, choices, need, _ in data.draw(st.lists(st.sampled_from(rows),
                                                                   max_size=6)):
        argv.append(option)
        if need != "flag":
            kinds = (st.sampled_from(choices) if choices else
                     st.integers(0, 40).map(str) if kind else st.sampled_from(["3..9", "+-+"]))
            argv.append(data.draw(kinds if data.draw(st.integers(0, 3)) else PLAIN_VALUES))
    plain_shaped = data.draw(st.booleans())
    stray = options | PLAIN_VALUES
    if not plain_shaped:
        stray |= OTHER_WORDS | st.tuples(options, PLAIN_VALUES | OTHER_WORDS).map("=".join)
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(stray))
    parsed = argparse_read([name, *argv])
    if isinstance(parsed, tuple) and [] not in parsed[1].values():
        assert cli._read([name, *argv]) == parsed
    elif parsed == 0:
        result = invoke(name, *argv)
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(f"usage: twobridge {name} [--help]")
    else:
        with pytest.raises(cli._Refusal):  # refused before any command runs
            cli._read([name, *argv])
        result = invoke(name, *argv)
        assert_usage_error(result, result.stderr.splitlines()[-1])
        assert result.stderr.splitlines()[-1].startswith("Error: ")


def test_version_from_a_source_checkout():
    result = subprocess.run(CLI + ["--version"], env=SOURCE_ENV, cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"twobridge, version {twobridge.__version__}\n"
    assert invoke("--version").exit_code == 0
    # The package metadata reads the same one version.
    assert 'version = {attr = "twobridge.__version__"}' in \
        (ROOT / "pyproject.toml").read_text()


# The commands behind the paper's three claims run no numpy code, so a
# process that runs one never loads numpy; a Monte Carlo walk does.
@pytest.mark.parametrize("argv, loads", [
    ("g4 --word +--+-+-+--++-++-", False),
    ("g4 --c 101", False),
    ("avg-sig --c 3..30", False),
    ("walk-sim --s 4 --t 20 --exact", False),
    ("enumerate --c 6", False),
    ("sig-table --c 3..8 --method recurse", False),
    ("walk-sim --s 4 --t 20 --trials 100", True),
])
def test_command_loads_numpy_only_where_it_runs(argv, loads):
    program = ("import contextlib, io, sys\n"
               "from twobridge import cli\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    code = cli.main(sys.argv[1:], standalone_mode=False)\n"
               "print(code, 'numpy' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", program, *argv.split()], env=SOURCE_ENV,
                            cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"0 {loads}\n"


LAYERS = ("words", "diagram", "markov", "cobordism", "sigtables", "checks")
BELOW_COBORDISM = "words diagram markov cobordism"


# The import loads no layer, and each command loads the layers it runs: the
# one it imports and those below it.  ``enumerate --count-only`` reads the count
# off c, so it runs no layer.  No argv, help, the version and a parse error
# included, loads argparse, gettext or locale.
@pytest.mark.parametrize("argv, loaded", [
    ("", ""),
    ("--version", ""),
    ("g4 --help", ""),
    ("g4 --bogus 1", ""),
    ("enumerate --c 6 --count-only", ""),
    ("enumerate --c 6", "words"),
    ("avg-sig --c 3..30", "sigtables diagram words"),
    ("sig-table --c 3..8 --method recurse", "sigtables diagram words"),
    ("walk-sim --s 4 --t 20 --exact", "markov diagram words"),
    ("markov-verify --s 3 --kmax 2", "markov diagram words"),
    ("g4 --word +--+-+-+--++-++-", BELOW_COBORDISM),
    ("g4 --c 101", BELOW_COBORDISM),
    ("verify-all --budget-c 5", " ".join(LAYERS)),
])
def test_command_loads_only_its_layers(argv, loaded):
    program = ("import contextlib, io, sys\n"
               "from twobridge import cli\n"
               "code = 0\n"
               "if sys.argv[1:]:\n"
               "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
               "            contextlib.redirect_stderr(io.StringIO()):\n"
               "        code = cli.main(sys.argv[1:], standalone_mode=False)\n"
               "print(code, *(m in sys.modules for m in ('argparse', 'gettext', 'locale')))\n"
               f"print(*sorted(m for m in {LAYERS} if 'twobridge.' + m in sys.modules))\n")
    result = subprocess.run([sys.executable, "-c", program, *argv.split()], env=SOURCE_ENV,
                            cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    status, layers = result.stdout.split("\n", 1)
    assert status.split() == [str(2 if "bogus" in argv else 0), "False", "False", "False"]
    assert layers.split() == sorted(loaded.split())


def test_word_count_digits_match_the_binary_count():
    # Both parities past str's digit limit, and the largest c the budget
    # admits: each reference conversion there takes about 0.7 s.
    for c in (*range(3, 3001), 14288, 100001, 632454, 632455):
        assert cli._word_count_digits(c) == str(Decimal(words.word_count(c))), c


def test_decimal_digits_match_a_direct_conversion():
    # Ints on both sides of the split point, of one and more splits, of the
    # largest sizes a mean prints, and one negative; each all ones, a power
    # of two, and random bits.
    rng = random.Random(5)
    split = cli._DIRECT_BITS
    for bits in (1, 64, split - 1, split, split + 1, 2 * split, 2 * split + 1, 5 * split + 7,
                 632_000):
        for n in ((1 << bits) - 1, 1 << bits - 1, rng.getrandbits(bits)):
            assert cli._decimal_digits(n) == str(Decimal(n)), (bits, n.bit_length())
    n = -rng.getrandbits(3 * split)
    assert cli._decimal_digits(n) == str(Decimal(n))


def test_closed_stdout_ends_quietly():
    # T(20) prints about 2 MB, more than a pipe holds.
    with subprocess.Popen(CLI + ["enumerate", "--c", "20"], env=SOURCE_ENV, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline() == b"+-+-+-+-+-+-+-+-+--++-\n"
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=60) == 1
    assert stderr == b""


@pytest.mark.parametrize("args, message", [
    (("sig-table", "--c", "x"), "cannot parse crossing-number range 'x'"),
    (("sig-table", "--c", "5..3"), "empty crossing-number range '5..3'"),
    (("avg-sig", "--c", "1..4"), "crossing number must be >= 3, got 1"),
    (("g4", "--c", "10", "--s", "0"),
     "block size must satisfy 1 <= s <= 7, got 0"),
    (("g4", "--word", EXAMPLE_WORD, "--s", "10"),
     "block size must satisfy 1 <= s <= 9, got 10"),
    (("markov-verify", "--s", "0"), "--s and --kmax must be >= 1"),
    (("walk-sim", "--s", "0", "--t", "3"), "need --s >= 1 and --t >= 0"),
    (("walk-sim", "--s", "2", "--t", "-1", "--exact"),
     "need --s >= 1 and --t >= 0"),
    (("g4", "--word", EXAMPLE_WORD, "--format", "csv"),
     "--format csv applies to --c only"),
    (("walk-sim", "--s", "2048", "--t", "1"),
     "the walk bound 3 sqrt(2^s t) + p at s=2048, t=1 exceeds the float range"),
    (("walk-sim", "--s", "2046", "--t", "1"),
     "the walk bound 3 sqrt(2^s t) + p at s=2046, t=1 exceeds the float range"),
    (("sig-table", "--c", "5", "--workers", "0"), "--workers must be >= 1"),
])
def test_misuse_refused_with_one_line(args, message):
    assert_refused(invoke(*args), message)


def test_avg_sig_charges_a_request_once(monkeypatch):
    """``sigtables.totals`` makes the one check, and labels only a refusal."""
    charged = []
    check = budget.check_avg_sig

    def counted(c_values):
        charged.append(c_values)
        check(c_values)

    def label(c_values):
        raise AssertionError("an admitted request needs no refusal label")

    monkeypatch.setattr(budget, "check_avg_sig", counted)
    monkeypatch.setattr(budget, "_c_label", label)
    for args in (("avg-sig",), ("avg-sig", "--c", "1001"), ("avg-sig", "--c", "9..300")):
        charged.clear()
        assert invoke(*args, "--format", "json").exit_code == 0
        assert len(charged) == 1, args


def test_avg_sig_over_budget_exits_2():
    # The smallest refused c, one pass to it whatever its parity, and the
    # smallest refused run from 3.
    for c, work in (("175412", 25000112917), ("3..10615", 25006349938)):
        assert_refused(invoke("avg-sig", "--c", c),
                       f"refusing the average signature at c={c}: it needs about {work} "
                       "work units (avg_sig_work), and the budget stops at 25000000000")


@pytest.mark.parametrize("args, work, message", [
    (("sig-table", "--c", "22..23", "--method", "enumerate", "--workers", "1"),
     sigtables.histogram_enumerated, "budget stops at c=22"),
    (("avg-sig", "--c", "3..10615"), sigtables._tot_pass, "avg_sig_work"),
    (("enumerate", "--c", "60"), words.enumerate_words, "budget stops at c=22"),
    (("sig-table", "--c", "100000", "--method", "recurse"),
     sigtables.recursed_table, "recursion_work"),
    (("markov-verify", "--s", "40"), markov.matrix_power, "s=40, kmax=8"),
    (("markov-verify", "--kmax", "1000000"), markov.matrix_power,
     "kmax=1000000"),
    (("walk-sim", "--s", "40", "--t", "1", "--trials", "2"), markov._tables,
     "Monte Carlo at s=40"),
    (("walk-sim", "--s", "2", "--t", "1", "--trials", "100000000000"),
     markov._tables, "trials=100000000000"),
    (("avg-sig", "--c", "3..1000000000"), sigtables._tot_pass, "avg_sig_work"),
    # A huge s is refused without building 2^s.
    (("markov-verify", "--s", "10000000000"), markov.matrix_power,
     "s=10000000000, kmax=8"),
    (("g4", "--c", "20000000003", "--s", "10000000000"), cobordism._summand_table,
     "at c=20000000003, s=10000000000"),
    (("enumerate", "--c", "10000000000"), words.enumerate_words,
     "refusing to enumerate c=10000000000"),
    (("enumerate", "--c", "10000000000", "--count-only"), words.word_count,
     "refusing the word count at c=10000000000"),
])
def test_range_over_budget_refused_before_work(monkeypatch, args, work, message):
    """The worker an over-budget request would start, patched by its module
    and name, must never run."""
    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget range must be refused first")

    monkeypatch.setattr(sys.modules[work.__module__], work.__name__, refuse)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    result = invoke(*args)
    assert time.perf_counter() - start < 1
    # No estimate is built in proportion to s or c: 2^(10^10) alone takes
    # 1.25 GB (ru_maxrss is in KB on Linux).
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb < 100 << 10
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert message in result.stderr


def test_avg_sig_never_enumerates_rows(monkeypatch):
    enumerated = {c: sigtables.histogram_enumerated(c) for c in range(3, 15)}

    def refuse(*args, **kwargs):
        raise AssertionError("avg-sig must not enumerate the histogram")

    monkeypatch.setattr(sigtables, "histogram_enumerated", refuse)
    result = invoke("avg-sig", "--c", "3..14", "--format", "json")
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    for c, row in enumerated.items():
        want = Fraction(sigtables.total_abs(row)
                        + sigtables.total_abs(enumerated_palindromic_histogram(c)),
                        2 * words.knot_count(c))
        assert Fraction(rows[str(c)]["avg"]) == want, c


def test_avg_sig_range_rows_match_single_c_runs():
    result = invoke("avg-sig", "--c", "3..60", "--format", "json")
    assert result.exit_code == 0
    # Printed row by row, in the bytes and key order of one json.dumps.
    assert result.output == json.dumps(json.loads(result.output), sort_keys=True) + "\n"
    rows = json.loads(result.output)["rows"]
    assert set(rows) == {str(c) for c in range(3, 61)}
    for c in range(3, 61):
        single = invoke("avg-sig", "--c", str(c), "--format", "json")
        assert json.loads(single.output)["rows"] == {str(c): rows[str(c)]}, c


def test_avg_sig_csv():
    result = invoke("avg-sig", "--c", "6")
    assert result.exit_code == 0
    header, columns, row = result.output.splitlines()
    assert header == "# twobridge avg-sig schema=1"
    assert columns == "c,avg_num,avg_den,avg_float,root,gap"
    fields = row.split(",")
    assert fields[:3] == ["6", "2", "3"]
    assert float(fields[5]) < 0  # c=6 sits below sqrt(2c/pi)


def test_avg_sig_json():
    result = invoke("avg-sig", "--c", "5..6", "--format", "json")
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    assert payload["rows"]["6"]["avg"] == "2/3"


@pytest.fixture
def lift_digit_limit():
    """Lift Python's int-to-str digit limit inside the test body alone."""
    limit = sys.get_int_max_str_digits()
    yield lambda: sys.set_int_max_str_digits(0)
    sys.set_int_max_str_digits(limit)


def test_avg_sig_prints_fractions_past_the_digit_limit(lift_digit_limit):
    limit = sys.get_int_max_str_digits()
    as_json = invoke("avg-sig", "--c", "20001", "--format", "json")
    as_csv = invoke("avg-sig", "--c", "20001")
    # The digits are printed without changing the process-wide limit.
    assert sys.get_int_max_str_digits() == limit
    assert as_json.exit_code == 0 and as_csv.exit_code == 0
    lift_digit_limit()
    want = sigtables.totals((20001,))[20001].avg_abs_sigma
    assert len(str(want.denominator)) > 4300
    assert Fraction(json.loads(as_json.output)["rows"]["20001"]["avg"]) == want
    num, den = as_csv.output.splitlines()[2].split(",")[1:3]
    assert Fraction(int(num), int(den)) == want


def test_walk_sim_exact_prints_a_mean_past_the_digit_limit(lift_digit_limit):
    result = invoke("walk-sim", "--s", "1498", "--t", "10", "--exact")
    assert result.exit_code == 0
    lift_digit_limit()
    printed = Fraction(json.loads(result.output)["mean_exact"])
    assert len(str(printed.denominator)) > 4300
    assert printed == markov.exact_expected_distance(1498, 10)


def test_g4_prints_a_word_count_past_the_digit_limit(lift_digit_limit):
    # The exact mean reaches c = 20001, whose word count has more digits
    # than str prints by default.
    result = invoke("g4", "--c", "20001")
    assert result.exit_code == 0, result.stderr
    lift_digit_limit()
    payload = json.loads(result.output)
    assert len(str(payload["words"])) > 4300
    assert payload["words"] == words.word_count(20001)
    assert Fraction(payload["mean_upper"]) == cobordism.average_g4_row(20001, 5).mean_upper


def test_g4_single_word_report():
    result = invoke("g4", "--word", EXAMPLE_WORD, "--s", "3")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["c"] == 12 and payload["s"] == 3
    assert payload["t"] == 3 and payload["r"] == 3
    assert payload["cut_saddles"] == 6
    assert payload["link_saddles"] == 2
    assert payload["residual"] == ["o2:aba"]
    assert payload["g4_lower"] == 1 and payload["g4_upper"] == 6


def test_g4_rejects_bad_word():
    assert_refused(invoke("g4", "--word", "+-+"),
                   "invalid word: length must be 1 mod 3, got 3: '+-+'")


def test_g4_needs_exactly_one_target():
    assert_refused(invoke("g4"), "pass exactly one of --word or --c")
    assert_refused(invoke("g4", "--word", "+--+", "--c", "5"),
                   "pass exactly one of --word or --c")


def test_g4_aggregate_below_bound():
    result = invoke("g4", "--c", "9")
    payload = json.loads(result.output)
    assert payload["mean_upper"] == "316/43"
    assert payload["below_bound"] is True


def test_g4_aggregate_refuses_huge_c():
    result = invoke("g4", "--c", "66453")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "refusing" in result.stderr


# At c = 632455 and s = 39 the mean's residual series, t = 16216 blocks,
# are over the walk budget (kernel_work).
@pytest.mark.parametrize("c, message", [
    ("40", "block size must satisfy 1 <= s <= 37, got 39"),
    ("632455", "refusing"),
])
def test_g4_aggregate_refuses_huge_block_size_at_once(c, message):
    start = time.perf_counter()
    result = invoke("g4", "--c", c, "--s", "39")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("Error: ") and message in result.stderr


def test_g4_aggregate_admits_every_ending_at_once():
    # One block of 39 letters and 38 core letters after it: the 2^38
    # remainder endings fall into nine classes, charged nothing.
    start = time.perf_counter()
    result = invoke("g4", "--c", "80", "--s", "39")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["words"] == words.word_count(80)
    assert payload["below_bound"] is True


def test_g4_aggregate_exact_at_c_1000():
    result = invoke("g4", "--c", "1000")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["s"] == 3
    assert payload["words"] == words.word_count(1000)
    assert payload["below_bound"] is True


def test_markov_verify_passes():
    result = invoke("markov-verify", "--s", "4", "--kmax", "4")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert set(payload["checks"]) == {"empirical", "closed_form",
                                      "contraction", "power_identity"}


def test_walk_sim_exact():
    result = invoke("walk-sim", "--s", "2", "--t", "3", "--exact")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["mean_exact"] == "45/16"
    assert payload["pass"] is True


def test_walk_sim_exact_reads_no_tables(monkeypatch):
    # The digest was recorded when the exact walk read the walk tables.
    def refuse(s):
        raise AssertionError(f"the walk tables were built at s={s}")

    monkeypatch.setattr(markov, "_tables", refuse)
    digest = hashlib.sha256()
    for s in range(1, 21):
        for t in range(1, 20 // s + 1):
            result = invoke("walk-sim", "--s", str(s), "--t", str(t), "--exact")
            assert result.exit_code == 0, (s, t)
            digest.update(result.stdout.encode())
    assert digest.hexdigest() == \
        "412308920bca2f884b15ca91a90dad62ed4257b84743c01bbc090d352920e765"
    payload = json.loads(invoke("walk-sim", "--s", "1100", "--t", "1", "--exact").output)
    assert (payload["mean_exact"], payload["bound"]) == ("1/1", 6 * 2.0 ** 550)


def test_walk_sim_exact_over_budget():
    result = invoke("walk-sim", "--s", "4", "--t", "14947", "--exact")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "--exact" in result.stderr


@pytest.mark.parametrize("s, t, mean", [("2046", "1", "1/1"), ("2048", "1", "1/1"),
                                         ("2048", "0", "0/1")])
def test_walk_sim_exact_past_the_float_range(s, t, mean):
    # From s = 2046 the bound 3 sqrt(2^s t) + p is no float: the exact walk
    # prints it as null and decides the verdict exactly.
    result = invoke("walk-sim", "--s", s, "--t", t, "--exact")
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.output)
    assert (payload["mean_exact"], payload["bound"], payload["pass"]) == (mean, None, True)


def test_walk_sim_rejects_one_trial():
    assert_refused(invoke("walk-sim", "--s", "2", "--t", "3", "--trials", "1"),
                   "need at least 2 trials, got 1")


@pytest.mark.parametrize("t", ["0", "2"])
def test_walk_sim_rejects_a_negative_seed(t):
    # Refused before any work, also with no block to draw; --exact draws
    # nothing and ignores the seed.
    assert_refused(invoke("walk-sim", "--s", "2", "--t", t, "--seed", "-1"),
                   "seed must be nonnegative, got -1")
    assert invoke("walk-sim", "--s", "2", "--t", t, "--seed", "-1", "--exact").exit_code == 0


def test_walk_sim_monte_carlo_deterministic():
    args = ("walk-sim", "--s", "3", "--t", "10", "--trials", "400",
            "--seed", "7")
    first = invoke(*args)
    second = invoke(*args)
    assert first.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert payload["mode"] == "monte-carlo"
    assert payload["mean"] <= payload["bound"]


def test_verify_all_reduced_budget():
    result = invoke("verify-all", "--budget-c", "8")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 11
    assert all(entry["passed"] for entry in payload["checks"])
    names = [entry["name"] for entry in payload["checks"]]
    assert names[0] == "counting" and names[-1] == "aggregate-g4"


def test_verify_all_rejects_tiny_budget():
    assert_refused(invoke("verify-all", "--budget-c", "2"),
                   "--budget-c must be >= 3")


def test_outputs_are_deterministic():
    for args in (("enumerate", "--c", "7"),
                 ("sig-table", "--c", "8"),
                 ("avg-sig", "--c", "3..9"),
                 ("g4", "--word", EXAMPLE_WORD)):
        first = invoke(*args)
        second = invoke(*args)
        assert first.exit_code == 0
        assert first.output == second.output, args
