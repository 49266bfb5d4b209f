"""End-to-end checks of the twobridge command line.

Conventions under test: exit code 0 on success, 1 on a failed
verification, 2 on bad usage; JSON payloads carry "schema"; CSV
starts with a schema comment line; repeated runs with the same
arguments and seed are byte-identical.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import twobridge
from test_sigtables import enumerated_palindromic_histogram
from twobridge import budget, cobordism, markov, sigtables, words
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
    (("sig-table", "--c", "5", "--workers", "0"), "'--workers'"),
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


def test_word_that_starts_with_a_dash():
    # A value that starts with '-' reads as an option; no word starts so.
    result = invoke("g4", "--word", "-+-")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("Usage: twobridge g4 ")
    assert result.stderr.splitlines()[-1] == "Error: argument '--word': expected one argument"
    assert_refused(invoke("g4", "--word=-+-"), "invalid word: word must start with +: '-+-'")


def test_version_from_a_source_checkout():
    result = subprocess.run(CLI + ["--version"], env=SOURCE_ENV, cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"twobridge, version {twobridge.__version__}\n"
    assert invoke("--version").exit_code == 0
    # The package metadata reads the same one version.
    assert 'version = {attr = "twobridge.__version__"}' in \
        (ROOT / "pyproject.toml").read_text()


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
    (("walk-sim", "--s", "2048", "--t", "0", "--exact"),
     "the walk bound 3 sqrt(2^s t) + p at s=2048, t=0 exceeds the float range"),
    (("walk-sim", "--s", "2046", "--t", "1"),
     "the walk bound 3 sqrt(2^s t) + p at s=2046, t=1 exceeds the float range"),
])
def test_misuse_refused_with_one_line(args, message):
    assert_refused(invoke(*args), message)


def test_avg_sig_over_budget_exits_2():
    # The smallest refused c, one pass to it whatever its parity.
    result = invoke("avg-sig", "--c", "175412")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "avg_sig_work" in result.stderr


@pytest.mark.parametrize("args, work, message", [
    (("sig-table", "--c", "22..23", "--method", "enumerate", "--workers", "1"),
     sigtables.histogram_enumerated, "budget stops at c=22"),
    (("avg-sig", "--c", "3..10615"), sigtables.totals, "avg_sig_work"),
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
    (("avg-sig", "--c", "3..1000000000"), sigtables.totals, "avg_sig_work"),
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
    result = invoke("g4", "--c", "3147")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "refusing" in result.stderr


@pytest.mark.parametrize("c, message", [
    ("40", "block size must satisfy 1 <= s <= 37, got 39"),
    ("80", "refusing"),
])
def test_g4_aggregate_refuses_huge_block_size_at_once(c, message):
    start = time.perf_counter()
    result = invoke("g4", "--c", c, "--s", "39")
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("Error: ") and message in result.stderr


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
    result = invoke("walk-sim", "--s", "4", "--t", "1000", "--exact")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "--exact" in result.stderr


def test_walk_sim_rejects_one_trial():
    assert_refused(invoke("walk-sim", "--s", "2", "--t", "3", "--trials", "1"),
                   "need at least 2 trials, got 1")


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
