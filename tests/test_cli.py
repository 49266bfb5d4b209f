"""End-to-end checks of the twobridge command line.

Conventions under test: exit code 0 on success, 1 on a failed
verification, 2 on bad usage; JSON payloads carry "schema"; CSV
starts with a schema comment line; repeated runs with the same
arguments and seed are byte-identical.
"""

import hashlib
import json
import resource
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from test_sigtables import enumerated_palindromic_histogram
from twobridge import cobordism, markov, sigtables, words
from twobridge.cli import main

EXAMPLE_WORD = "+--+-+-+--++-++-"

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


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
    # c = 18 has 2^16 masks, the fewest that are sharded.
    serial = invoke("sig-table", "--c", "18", "--method", "enumerate",
                    "--workers", "1")
    sharded = invoke("sig-table", "--c", "18", "--method", "enumerate",
                     "--workers", "4")
    assert serial.exit_code == 0 and sharded.exit_code == 0
    assert serial.output == sharded.output


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
    result = invoke("avg-sig", "--c", "2048")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "avg_sig_work" in result.stderr


@pytest.mark.parametrize("args, work, message", [
    (("sig-table", "--c", "22..23", "--method", "enumerate", "--workers", "1"),
     sigtables.histogram_enumerated, "budget stops at c=22"),
    (("avg-sig", "--c", "3..5000"), sigtables.totals, "avg_sig_work"),
    (("enumerate", "--c", "60"), words.enumerate_words, "budget stops at c=22"),
    (("sig-table", "--c", "100000", "--method", "recurse"),
     sigtables.recursed_table, "recursion_work"),
    (("markov-verify", "--s", "40"), markov.verify_empirical, "s=40, kmax=8"),
    (("markov-verify", "--kmax", "1000000"), markov.verify_empirical,
     "kmax=1000000"),
    (("walk-sim", "--s", "40", "--t", "1", "--trials", "2"), markov._tables,
     "Monte Carlo at s=40"),
    (("walk-sim", "--s", "2", "--t", "1", "--trials", "100000000000"),
     markov._tables, "trials=100000000000"),
    (("avg-sig", "--c", "3..1000000000"), sigtables.totals, "avg_sig_work"),
    # A huge s is refused without building 2^s.
    (("markov-verify", "--s", "10000000000"), markov.verify_empirical,
     "s=10000000000, kmax=8"),
    (("g4", "--c", "20000000003", "--s", "10000000000"), cobordism._summand_table,
     "at c=20000000003, s=10000000000"),
    (("enumerate", "--c", "10000000000"), words.enumerate_words,
     "refusing to enumerate c=10000000000"),
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
    result = invoke("g4", "--c", "2000")
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
