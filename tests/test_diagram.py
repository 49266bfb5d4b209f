"""Tests for plat diagrams, orientations, crossing signs, and A-smoothing."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twobridge import cobordism
from twobridge import diagram as D
from twobridge import words as W

# Published (c_plus, s_A, sigma) columns for all words with c = 5, 6, and
# the two base-case diagrams.
METRIC_ROWS = {
    "+--+--+": (0, 5, 4),
    "+--++-+": (0, 3, 2),
    "+-++--+": (0, 3, 2),
    "+-+-++-": (4, 3, -2),
    "+-+--+-": (4, 5, 0),
    "+--++--++-": (3, 4, 0),
    "+-++-+-": (2, 3, 0),
    "+--+-+-": (2, 5, 2),
    "+--+": (0, 3, 2),
    "+-+-": (2, 3, 0),
}


def orientation_after(state, z):
    """Oracle: push an orientation state through a braid word one letter at
    a time by ``STATE_AFTER`` ('a' transposes strands 2,3, 'b' 1,2)."""
    for letter in z:
        state = D.STATE_AFTER[letter][state]
    return state


def strand_permutation(z):
    """Oracle: exit position on the right of the strand entering at each
    left position, one letter at a time."""
    return tuple(orientation_after(q, z) for q in (1, 2, 3))



# ------------------------------------------------------------ arc-graph oracle
#
# The diagram as an arc graph on *nodes* (j, q): the point of strand q on
# cut line j, for j = 0..n.  Every node has one arc-end on its west side
# and one on its east side, so the diagram is a disjoint union of closed
# curves and a traversal visits each node once.  This is the evaluator the
# integer scan in `twobridge.diagram` replaced; it stays here as the oracle.

# Over/under arcs of a crossing between cuts i-1 and i, as
# (start strand, end strand, forward direction vector).  Direction
# vectors live in a plane with x pointing right and y up (strand 1 on
# top), and are negated when the curve runs through the arc backwards.
_OVER = {"a": (3, 2, (1, 1)), "b": (1, 2, (1, -1))}
_UNDER = {"a": (2, 3, (1, -1)), "b": (2, 1, (1, 1))}

_W, _E = 0, 1


def _arcs(d):
    """All arcs as pairs of node-ends ((j, q), side)."""
    n = len(d.letters)
    arcs = []
    for i, letter in enumerate(d.letters, 1):
        passq = 1 if letter == "a" else 3
        oq, oq2, _ = _OVER[letter]
        uq, uq2, _ = _UNDER[letter]
        arcs.append((((i - 1, passq), _E), ((i, passq), _W)))
        arcs.append((((i - 1, oq), _E), ((i, oq2), _W)))
        arcs.append((((i - 1, uq), _E), ((i, uq2), _W)))
    arcs.append((((0, 1), _W), ((0, 2), _W)))  # left cap
    if d.closure == "A":
        arcs.append((((n, 1), _E), ((n, 2), _E)))
        arcs.append((((n, 3), _E), ((0, 3), _W)))  # around arc
    else:
        arcs.append((((n, 2), _E), ((n, 3), _E)))
        arcs.append((((n, 1), _E), ((0, 3), _W)))
    return arcs


def _adjacency(d):
    adj = {}
    for e1, e2 in _arcs(d):
        adj[e1] = e2
        adj[e2] = e1
    return adj


def _follow(adj, node, side):
    """Trace the closed curve leaving `node` by `side`; map each visited
    node to its traversal direction 'E' (rightward) or 'W'."""
    start = (node, side)
    direction = {}
    while node not in direction:
        direction[node] = "E" if side == _E else "W"
        node, arrived = adj[(node, side)]
        side = _W if arrived == _E else _E
    if (node, side) != start:
        raise ValueError("curve did not close up at its basepoint")
    return direction


def oracle_component_count(d):
    adj = _adjacency(d)
    seen = set()
    k = 0
    for node, _ in adj:
        if node not in seen:
            k += 1
            seen.update(_follow(adj, node, _E))
    return k


def oracle_orient(d):
    """(signs, states) by tracing the curve from (0, 3) rightward."""
    adj = _adjacency(d)
    direction = _follow(adj, (0, 3), _E)
    n = len(d.letters)
    if len(direction) < 3 * (n + 1):
        raise ValueError("diagram is a link; cannot orient by one traversal")
    states = []
    for j in range(n + 1):
        left = [q for q in (1, 2, 3) if direction[(j, q)] == "W"]
        if len(left) != 1:
            raise ValueError(f"cut {j} has leftward strands {left}")
        states.append(left[0])
    signs = []
    for i, letter in enumerate(d.letters, 1):
        oq, _, od = _OVER[letter]
        uq, _, ud = _UNDER[letter]
        ox, oy = od if direction[(i - 1, oq)] == "E" else (-od[0], -od[1])
        ux, uy = ud if direction[(i - 1, uq)] == "E" else (-ud[0], -ud[1])
        signs.append(1 if ox * uy - oy * ux > 0 else -1)
    return signs, states


def oracle_all_A(d):
    """All-A circles by a dict union-find over the nodes."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    n = len(d.letters)
    for i, letter in enumerate(d.letters, 1):
        if letter == "a":
            union((i - 1, 2), (i - 1, 3))
            union((i, 2), (i, 3))
            union((i - 1, 1), (i, 1))
        else:
            union((i - 1, 1), (i, 1))
            union((i - 1, 2), (i, 2))
            union((i - 1, 3), (i, 3))
    union((0, 1), (0, 2))
    if d.closure == "A":
        union((n, 1), (n, 2))
        union((n, 3), (0, 3))
    else:
        union((n, 2), (n, 3))
        union((n, 1), (0, 3))
    for j in range(n + 1):
        for q in (1, 2, 3):
            find((j, q))
    return sum(1 for x, p in parent.items() if x == p)


def oracle_metrics(word):
    d = D.diagram_for_word(word)
    signs, _ = oracle_orient(d)
    c_plus = sum(1 for s in signs if s > 0)
    s_a = oracle_all_A(d)
    return c_plus, s_a, s_a - c_plus - 1


def _outcome(fn, d):
    try:
        return fn(d)
    except ValueError:
        return "link"


def test_oracle_reproduces_metric_rows():
    for word, expect in METRIC_ROWS.items():
        assert oracle_metrics(word) == expect, word


def test_scan_matches_oracle_on_every_word_to_c16():
    # Each word alone by its STEP walk, and each T(c) as one scan batch.
    for c in range(3, 17):
        found = list(W.enumerate_words(c))
        diagrams = [D.diagram_for_word(w) for w in found]
        oriented = [oracle_orient(d) for d in diagrams]
        for w, d, (signs, states) in zip(found, diagrams, oriented, strict=True):
            m = D.metrics_for_word(w)
            c_plus, s_a = signs.count(1), oracle_all_A(d)
            assert (m.c_plus, m.s_A, m.signature) == (c_plus, s_a, s_a - c_plus - 1), w
            assert D.orient_diagram(d) == (signs, states), w
        positive = D.scan(letter_array([d.letters for d in diagrams]))
        assert (2 * positive.astype(int) - 1).tolist() == [signs for signs, _ in oriented]


@given(st.text(alphabet="ab", min_size=1, max_size=40), st.sampled_from("AB"))
def test_scan_matches_oracle_on_braid_words(z, closure):
    d = D.PlatDiagram(z, closure)
    assert D.plat_component_count(d) == oracle_component_count(d)
    assert D.all_A_components(d) == oracle_all_A(d)
    assert _outcome(D.orient_diagram, d) == _outcome(oracle_orient, d)


def letter_array(zs):
    """Letter codes of equal-length braid words, 0 for 'a' and 1 for 'b'."""
    return np.array([[int(letter == "b") for letter in z] for z in zs], np.int8)


def admissible_mask(c, mask):
    """The interior bits of a word of T(c) near ``mask``: its lowest clear
    bits set, or failing that its lowest set bits cleared, until
    (c + popcount) is 1 mod 3.  Mapping every drawn mask onto one, in place
    of filtering, rejects no example."""
    need = (1 - c - mask.bit_count()) % 3
    clear = [1 << i for i in range(c - 2) if not mask >> i & 1]
    if len(clear) >= need:
        return mask | sum(clear[:need])
    return mask & ~sum([1 << i for i in range(c - 2) if mask >> i & 1][:3 - need])


@st.composite
def word_batches(draw):
    """The braid words of up to 12 words of one T(c), c at most 40."""
    c = draw(st.integers(min_value=3, max_value=40))
    mask = st.integers(min_value=0, max_value=(1 << (c - 2)) - 1).map(
        lambda mask: admissible_mask(c, mask))
    masks = draw(st.lists(mask, min_size=1, max_size=12))
    return [W.to_braid(W.word_from_interior_bits(c, mask)) for mask in masks]


@given(word_batches())
def test_scan_matches_oracle_on_word_batches(batch):
    # Odd and even c close by A and by B, which the scan reads off c.
    diagrams = [D.PlatDiagram(z, "A" if len(z) % 2 else "B") for z in batch]
    letters = letter_array(batch)
    c = letters.shape[1]
    circles = D.all_A_circles(c - letters.sum(axis=1), diagrams[0].closure)
    assert circles.tolist() == [oracle_all_A(d) for d in diagrams]
    positive = D.scan(letters)
    assert (2 * positive.astype(int) - 1).tolist() == [oracle_orient(d)[0] for d in diagrams]


# Batches of letter rows of one length, closed by A at odd and by B at even
# length, that hold a link (first letter 'a' or 'b') or a knot whose state
# right of crossing 1 is not o1, as row 0 of one-row batches and as a later
# row; the o1 check refuses both, and the message names the first bad row
# under python -O too.
BAD_BATCHES = {
    "link-one": ("aab", "row 0: state right of crossing 1 must be o1, got o2"),
    "o1-one": ("aba", "row 0: state right of crossing 1 must be o1, got o3"),
    "link": ("abab aaab bbbb", "row 1: state right of crossing 1 must be o1, got o2"),
    "link-word-a": ("aaa aab aba", "row 1: state right of crossing 1 must be o1, got o2"),
    "link-word-b": ("aaa baa", "row 1: state right of crossing 1 must be o1, got o3"),
    "o1": ("abab baab babb", "row 2: state right of crossing 1 must be o1, got o2"),
}


@pytest.mark.parametrize("words, message", BAD_BATCHES.values(), ids=BAD_BATCHES.keys())
def test_scan_refuses_bad_rows_under_optimize_flag(words, message):
    letters = letter_array(words.split()).tolist()
    assert refusal_under_optimize_flag(
        "import numpy as np\n"
        "from twobridge.diagram import scan\n"
        f"letters = np.array({letters}, np.int8)\n",
        "scan(letters)") == message


# One diagram refuses a link, and one word diagram also a state other than
# o1 right of crossing 1, with the messages of ``decompose``; no word has
# such a diagram, so the last two read their word as a braid word that has.
BAD_DIAGRAMS = {
    "orient-link": ("", "D.orient_diagram(D.PlatDiagram('aab', 'A'))",
                    "diagram is a link; cannot orient by one traversal"),
    "metrics-link": ("D.to_braid = lambda word: 'baababaabbbb'\n",
                     "D.metrics_for_word('+--+-+-+--++-++-')",
                     "diagram is a link; cannot orient by one traversal"),
    "metrics-o1": ("D.to_braid = lambda word: 'abababaabbbb'\n",
                   "D.metrics_for_word('+--+-+-+--++-++-')",
                   "state right of crossing 1 must be o1, got o3"),
}


@pytest.mark.parametrize("setup, call, message", BAD_DIAGRAMS.values(),
                         ids=BAD_DIAGRAMS.keys())
def test_one_diagram_refuses_under_optimize_flag(setup, call, message):
    assert refusal_under_optimize_flag("from twobridge import diagram as D\n" + setup,
                                       call) == message


def refusal_under_optimize_flag(setup, call):
    """The ValueError message of a call, run after its setup under python -O."""
    code = setup + f"try:\n    {call}\nexcept ValueError as refused:\n    print(refused)\n"
    src = str(Path(D.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def numpy_calls(call):
    """Names of the numpy functions, builtins and array methods that a call
    runs."""
    found = []

    def watch(frame, event, arg):
        if event == "call" and "numpy" in frame.f_code.co_filename:
            found.append(frame.f_code.co_name)
        elif event == "c_call" and "numpy" in f"{arg.__module__} "\
                f"{type(arg.__self__).__module__}":
            found.append(arg.__name__)

    sys.setprofile(watch)
    try:
        call()
    finally:
        sys.setprofile(None)
    return found


def test_word_diagrams_take_one_start_check(monkeypatch):
    # Crossing 1 of every word diagram is negative and ends in o1, and
    # both readers of one word, ``metrics_for_word`` and ``decompose``,
    # take that step, with its refusals, from ``first_crossing``.
    for c in range(3, 13):
        for w in W.enumerate_words(c):
            d = D.diagram_for_word(w)
            assert D.first_crossing(d.letters) == (-1, 1), w
    calls = []
    step = D.first_crossing
    monkeypatch.setattr(D, "first_crossing",
                        lambda *args: calls.append(args) or step(*args))
    monkeypatch.setattr(cobordism, "first_crossing", D.first_crossing)
    word = "+--+-+-+--++-++-"
    D.metrics_for_word(word)
    cobordism.decompose(word, 2)
    assert calls == [(W.to_braid(word),)] * 2


def test_word_closure_matches_the_last_crossing_row():
    # A word diagram closes by A exactly when its last crossing is a lower
    # one ('a'), and the diagram of a word takes its closure from c alone.
    for c in range(3, 13):
        for w in W.enumerate_words(c):
            z = W.to_braid(w)
            assert D.word_closure(c) == ("A" if z[-1] == "a" else "B"), w
            assert D.diagram_for_word(w).closure == D.word_closure(c), w


def test_scan_takes_batches_only():
    # One diagram is oriented by its STEP walk, not by a 1-d scan.
    with pytest.raises(ValueError, match="expected 2"):
        D.scan(letter_array(["aaa"])[0])


def test_one_diagram_makes_no_numpy_call():
    w = list(W.enumerate_words(13))[100]
    d = D.diagram_for_word(w)
    assert numpy_calls(lambda: (D.metrics_for_word(w), D.orient_diagram(d),
                                D.signature(w))) == []


@pytest.mark.parametrize("table, letter, entry", [
    ("STATE_AFTER", "a", (0, 1, 2, 3)),      # 'a' no longer swaps states 2, 3
    ("STEP", "b", (None, (-1, 2), (1, 1), (1, 3))),  # a wrong sign
    ("STEP", "a", (None, (-1, 1), (1, 2), (1, 2))),  # a wrong state after
])
def test_reflection_check_refuses_inconsistent_tables(monkeypatch, table, letter, entry):
    monkeypatch.setitem(getattr(D, table), letter, entry)
    with pytest.raises(ValueError, match=f"letter '{letter}'"):
        D._check_reflections()


def test_scan_matches_oracle_on_long_random_words():
    rng = random.Random(20240)
    for i in range(201):
        # The last word, of 2^13 + 1 crossings, runs the scan's weights far
        # past the words of any enumerated row.
        c = rng.randint(60, 250) if i < 200 else (1 << 13) + 1
        mask = rng.getrandbits(c - 2)
        while (c + mask.bit_count()) % 3 != 1:
            mask = rng.getrandbits(c - 2)
        w = W.word_from_interior_bits(c, mask)
        m = D.metrics_for_word(w)
        assert (m.c_plus, m.s_A, m.signature) == oracle_metrics(w), w
        d = D.diagram_for_word(w)
        positive = D.scan(letter_array([d.letters]))
        assert int(positive.sum()) == m.c_plus, w


# ------------------------------------------------------------------- building


def test_build_diagram_rows():
    d = D.diagram_for_word("+--+")
    assert d.letters == "aaa"
    assert all(D.CROSSING_PAIR[l] == (2, 3) for l in d.letters)
    d = D.diagram_for_word("+-+-")
    assert d.letters == "abab"
    assert [D.CROSSING_PAIR[l] for l in d.letters] == [(2, 3), (1, 2)] * 2


def test_closure_follows_last_crossing_row():
    assert D.diagram_for_word("+--+").closure == "A"  # odd c ends in 'a'
    assert D.diagram_for_word("+-+-").closure == "B"
    for c in (5, 6, 7, 8):
        for w in W.enumerate_words(c):
            assert D.diagram_for_word(w).closure == ("A" if c % 2 else "B")


def test_single_crossing_closes_to_unknot_with_two_A_circles():
    d = D.PlatDiagram("a", "B")
    assert D.plat_component_count(d) == 1
    assert D.all_A_components(d) == 2


def test_build_diagram_rejects_bad_input():
    with pytest.raises(ValueError):
        D.PlatDiagram("", "B")
    with pytest.raises(ValueError):
        D.PlatDiagram("ax", "B")
    with pytest.raises(ValueError):
        D.PlatDiagram("ab", closure="C")


def test_component_table_matches_union_find():
    # All 2 x 2 x 6 (left shape, right shape, permutation) cases.
    assert D.PLAT_RIGHT == {"A": ((1, 2), 3), "B": ((2, 3), 1)}
    assert D.PLAT_LEFT == "A"
    assert sorted(D.COMPONENTS) == [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")]
    for (left, right), row in D.COMPONENTS.items():
        assert row == tuple(D.closure_components(D.PLAT_RIGHT[left], perm,
                                                 D.PLAT_RIGHT[right]) for perm in D.S3)


def test_every_word_diagram_is_a_knot():
    for c in range(3, 11):
        for w in W.enumerate_words(c):
            assert D.plat_component_count(D.diagram_for_word(w)) == 1


# ---------------------------------------------------------------- orientation


def test_orient_rejects_links():
    # 'ab' with closure B closes to a 2-component link.
    d = D.PlatDiagram("ab", "B")
    assert D.plat_component_count(d) == 2
    with pytest.raises(ValueError):
        D.orient_diagram(d)


def test_all_signs_negative_on_torus_words():
    signs, _ = D.orient_diagram(D.diagram_for_word("+--+"))
    assert signs == [-1, -1, -1]


def test_c_plus_table_rows():
    for word, (c_plus, _, _) in METRIC_ROWS.items():
        signs, _ = D.orient_diagram(D.diagram_for_word(word))
        assert sum(1 for s in signs if s > 0) == c_plus, word


def test_state_right_of_first_crossing_is_o1():
    for c in range(3, 11):
        for w in W.enumerate_words(c):
            _, states = D.orient_diagram(D.diagram_for_word(w))
            assert states[1] == 1


def test_orientation_after_examples():
    assert orientation_after(1, "aab") == 2
    assert orientation_after(2, "aba") == 2
    assert orientation_after(2, "") == 2
    for state, z in ((1, "aab"), (2, "aba"), (2, "")):
        assert D.S3[D.s3_index(z)][state - 1] == orientation_after(state, z)


def test_orientation_after_matches_cut_states():
    for c in (7, 8):
        for w in W.enumerate_words(c):
            d = D.diagram_for_word(w)
            _, states = D.orient_diagram(d)
            for s in (1, 2, 3):
                k = 1
                while 1 + k * s <= c:
                    j = 1 + k * s
                    assert states[j] == orientation_after(
                        states[1], d.letters[1:j]
                    )
                    k += 1


@given(st.text(alphabet="ab", max_size=30), st.sampled_from([1, 2, 3]))
def test_orientation_after_is_a_group_action(z, o):
    mid = len(z) // 2
    assert orientation_after(o, z) == orientation_after(
        orientation_after(o, z[:mid]), z[mid:]
    )
    assert D.S3[D.s3_index(z)][o - 1] == orientation_after(o, z)


def test_strand_permutation_is_a_permutation():
    for z in ("", "a", "b", "ab", "ba", "aab", "bba", "abab"):
        assert sorted(strand_permutation(z)) == [1, 2, 3]
        assert D.S3[D.s3_index(z)] == strand_permutation(z)


# ----------------------------------------------------------------- smoothings


def test_all_A_components_table_rows():
    for word, (_, s_a, _) in METRIC_ROWS.items():
        assert D.all_A_components(D.diagram_for_word(word)) == s_a, word


def test_all_A_closure_dependence():
    # The same braid word smooths differently under the two closures; the
    # word pipeline must pick the closure matching the final crossing row.
    assert D.all_A_components(D.PlatDiagram("aaa", "A")) == 3
    assert D.all_A_components(D.PlatDiagram("aaa", "B")) == 4


# ------------------------------------------------------------------ signature


def test_signature_examples():
    assert D.signature("+--+") == 2
    assert D.signature("+-+-") == 0
    assert D.signature("+-+-++-") == -2


def test_metric_rows_exact():
    for word, expect in METRIC_ROWS.items():
        m = D.metrics_for_word(word)
        assert (m.c_plus, m.s_A, m.signature) == expect, word


def test_signature_even_and_bounded():
    for c in range(3, 13):
        for w in W.enumerate_words(c):
            s = D.signature(w)
            assert s % 2 == 0
            assert abs(s) <= c - 1


def test_metrics_invariant_enforced():
    with pytest.raises(ValueError):
        D.DiagramMetrics(c_plus=1, s_A=3, signature=0)


# Each invariant-carrying class built with numbers that break its invariant.
INCONSISTENT_REPORTS = {
    "DiagramMetrics":
        "from twobridge.diagram import DiagramMetrics\n"
        "DiagramMetrics(c_plus=1, s_A=3, signature=0)",
    "CountReport":
        "from twobridge.words import CountReport\n"
        "CountReport(c=3, words=1, palindromes=1, knots=5)",
    "TotalsReport":
        "from fractions import Fraction\n"
        "from twobridge.sigtables import TotalsReport\n"
        "TotalsReport(c=6, tot=4, tot_p=0, avg_abs_sigma=Fraction(1, 3),\n"
        "             asymptote=1.95)",
    "DecompositionReport":
        "from twobridge.cobordism import DecompositionReport, decompose\n"
        "report = decompose('+--+-+-+--++-++-', 3)\n"
        "fields = {name: getattr(report, name) for name in DecompositionReport.__slots__}\n"
        "DecompositionReport(**{**fields, 'g4_lower': 99})",
    "PlatDiagram":
        "from twobridge.diagram import PlatDiagram\n"
        "PlatDiagram(letters='ab', closure='C')",
    "OrientedWord":
        "from twobridge.cobordism import OrientedWord\n"
        "OrientedWord(start=0, letters='ab')",
}


@pytest.mark.parametrize("code", INCONSISTENT_REPORTS.values(),
                         ids=INCONSISTENT_REPORTS.keys())
def test_metrics_invariant_survives_optimize_flag(code):
    src = str(Path(D.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr
