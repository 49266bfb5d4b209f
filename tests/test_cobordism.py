"""Tests for the saddle-move decomposition and 4-genus bounds."""

import functools
import hashlib
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobridge.budget import BudgetError, _walk_groups, check_g4
from twobridge.cobordism import (
    AverageRow,
    OrientedWord,
    average_g4_row,
    cancel_mirrors,
    choose_block_size,
    component_count,
    decompose,
    expression_upper_bound,
    g4_interval,
    is_palindromic_type,
    link_lemma_fix,
    log10_upper_bound,
    mirror,
    summand_class,
)
from twobridge import budget, checks, cobordism, diagram, markov, words
from twobridge.diagram import (COMPONENTS, PLAT_RIGHT, S3, closure_components, s3_index,
                               signature)
from twobridge.words import (
    enumerate_words,
    swap_braid,
    to_braid,
    word_count,
    word_from_interior_bits,
)

import object_walk_dp
from test_cli import assert_refused, invoke
from test_diagram import numpy_calls, oracle_orient, orientation_after, strand_permutation
from test_markov import block_step, oracle_laws, reference_arguments, scored_laws

EXAMPLE_WORD = "+--+-+-+--++-++-"  # 12 runs, braid aaababaabbbb


@pytest.fixture(autouse=True)
def fresh_block_memo():
    # Each test's patches reach the block analysis, and no record made under
    # a patch outlives its test.
    cobordism._analyse_block.cache_clear()
    yield
    cobordism._analyse_block.cache_clear()


def all_oriented_words(s):
    for start in (1, 2, 3):
        for bits in product("ab", repeat=s):
            yield OrientedWord(start, "".join(bits))


def repair_costs(x):
    """Oracle: (saddle moves, crossings) of a summand after its link repair,
    if any, from ``component_count`` and ``link_lemma_fix`` alone."""
    if component_count(x) == 2:
        fix = link_lemma_fix(x)
        return fix.saddles, len(x.letters) + fix.added_crossings
    return 0, len(x.letters)


def test_oriented_word_validation():
    with pytest.raises(ValueError, match="orientation state"):
        OrientedWord(0, "ab")
    with pytest.raises(ValueError, match="braid"):
        OrientedWord(1, "ax")
    assert OrientedWord(2, "").serialize() == "o2:"
    assert OrientedWord(1, "aab").serialize() == "o1:aab"
    assert OrientedWord(1, "aab").end == 2


def test_mirror_examples():
    assert mirror(OrientedWord(1, "aab")) == OrientedWord(2, "abb")
    # An empty block at the middle state mirrors to itself.
    assert mirror(OrientedWord(2, "")) == OrientedWord(2, "")


def test_mirror_is_involution_exhaustively():
    for s in range(0, 7):
        for x in all_oriented_words(s):
            assert mirror(mirror(x)) == x


@given(st.integers(1, 3), st.text(alphabet="ab", max_size=40))
def test_mirror_involution_property(start, letters):
    x = OrientedWord(start, letters)
    assert mirror(mirror(x)) == x


def test_palindromic_type():
    assert is_palindromic_type("")
    assert is_palindromic_type("ab")
    assert is_palindromic_type("aabb")
    assert not is_palindromic_type("aab")
    assert not is_palindromic_type("aa")
    # Reversal composed with the letter swap fixes "ba" just like "ab".
    assert is_palindromic_type("ba")
    # Odd-length blocks can never equal their own mirror letters.
    for s in (1, 3, 5):
        for bits in product("ab", repeat=s):
            assert not is_palindromic_type("".join(bits))


def test_summand_classes():
    x = OrientedWord(1, "aab")
    assert summand_class(x).key == "o1:aab"
    assert summand_class(x).polarity == "plus"
    assert summand_class(mirror(x)).key == "o1:aab"
    assert summand_class(mirror(x)).polarity == "minus"
    pal = OrientedWord(3, "ab")
    assert summand_class(pal) == type(summand_class(pal))("o3:ab", "self_mirror")


def test_class_sizes():
    # Mirror pairing splits the 3 * 2^s oriented words into d two-element
    # classes plus p palindromic-type singletons with p = 3 * 2^(s/2) for
    # even s and p = 0 for odd s.
    for s in range(0, 9):
        pal = 0
        pair_keys = set()
        for x in all_oriented_words(s):
            cls = summand_class(x)
            if cls.polarity == "self_mirror":
                pal += 1
            else:
                pair_keys.add(cls.key)
        assert pal == (3 * 2 ** (s // 2) if s % 2 == 0 else 0)
        assert 2 * len(pair_keys) + pal == 3 * 2 ** s


def test_component_count_regressions():
    cases = {
        (1, ""): 2, (2, ""): 1, (3, ""): 2,
        (2, "aba"): 2, (1, "aab"): 1, (2, "abb"): 1, (2, "abba"): 1,
    }
    for (start, letters), expected in cases.items():
        assert component_count(OrientedWord(start, letters)) == expected


def test_component_count_matches_union_find():
    # The component table against the union-find of the closed block, on
    # every oriented word with s <= 10; these reach all 18 (start,
    # permutation) pairs that index the table.
    seen = set()
    for s in range(0, 11):
        for x in all_oriented_words(s):
            perm = strand_permutation(x.letters)
            end = orientation_after(x.start, x.letters)
            assert component_count(x) == closure_components(
                PLAT_RIGHT[cobordism._LEFT_CLOSURE[x.start]], perm,
                PLAT_RIGHT[cobordism._RIGHT_CLOSURE[end]])
            assert x.end == end
            seen.add((x.start, perm))
    assert len(seen) == 18


def test_component_count_is_mirror_invariant():
    for s in range(0, 6):
        for x in all_oriented_words(s):
            assert component_count(x) == component_count(mirror(x))


def remainder_component_count(start, letters, closure):
    """Components of a remainder block, cut cap on the left and the plat
    closure (A or B) on the right, as ``cobordism._remainder_is_link`` reads
    them: ``diagram.COMPONENTS`` at the letters' S3 index."""
    return COMPONENTS[cobordism._LEFT_CLOSURE[start], closure][s3_index(letters)]


def test_remainder_component_count():
    # The c=12 example remainder: two b crossings entered at state 3 with
    # the even-length plat closure form a two-component link; dropping the
    # final crossing reconnects it.
    assert remainder_component_count(3, "bb", "B") == 2
    assert remainder_component_count(3, "b", "B") == 1
    assert cobordism._remainder_is_link(3, s3_index("bb"), s3_index("b"), "B")
    assert not cobordism._remainder_is_link(3, s3_index("b"), s3_index(""), "B")


def test_remainder_table_matches_union_find():
    for n in range(1, 11):
        for bits in product("ab", repeat=n):
            letters = "".join(bits)
            perm = strand_permutation(letters)
            for start in (1, 2, 3):
                for closure, right in PLAT_RIGHT.items():
                    assert remainder_component_count(start, letters, closure) == \
                        closure_components(PLAT_RIGHT[cobordism._LEFT_CLOSURE[start]],
                                           perm, right)


def test_closed_blocks_run_no_union_find_after_import(monkeypatch):
    # Every closed 3-strand block is looked up in diagram.COMPONENTS, which
    # is filled at import.  The pinned values were recorded when the
    # diagram and the remainders ran the union-find themselves.
    braids = ["".join(bits) for n in range(1, 9) for bits in product("ab", repeat=n)]
    plat = [closure_components(PLAT_RIGHT["A"], strand_permutation(z), PLAT_RIGHT[closure])
            for z in braids for closure in "AB"]
    remainder = [closure_components(PLAT_RIGHT[cobordism._LEFT_CLOSURE[start]],
                                    strand_permutation(z), PLAT_RIGHT[closure])
                 for z in braids for start in (1, 2, 3) for closure in "AB"]

    def refuse(*args):
        raise AssertionError(f"closure_components{args} ran after import")

    monkeypatch.setattr(diagram, "closure_components", refuse)
    cobordism._analyse_block.cache_clear()
    digest = hashlib.sha256()
    for c in range(3, 13):
        for word in enumerate_words(c):
            digest.update(f"{word}:{signature(word)};".encode())
    assert digest.hexdigest() == \
        "a7d92676152493763cf431e70c61525755935bfef545aef36989734c01846b62"
    report = decompose(EXAMPLE_WORD, 3)
    assert (report.cut_states, report.cut_saddles, report.link_fix_saddles,
            report.remainder_is_link, report.residual, report.residual_crossings,
            report.g4_lower, report.g4_upper) == \
        ((1, 2, 2, 3), 6, 1, True, ("o2:aba",), (4,), 1, 6)
    row = average_g4_row(14, 2)
    assert (row.words, row.mean_upper) == (1365, Fraction(5528, 455))
    assert [diagram.plat_component_count(diagram.PlatDiagram(z, closure))
            for z in braids for closure in "AB"] == plat
    assert [remainder_component_count(start, z, closure)
            for z in braids for start in (1, 2, 3) for closure in "AB"] == remainder


def test_single_crossing_remainders_are_knots():
    # The braid of a word ends with "a" exactly when the closure is the
    # odd-crossing-number form, so only matching letter/closure pairs occur.
    for start in (1, 2, 3):
        for letter, closure in (("a", "A"), ("b", "B")):
            assert remainder_component_count(start, letter, closure) == 1


def test_link_fix_example():
    fix = link_lemma_fix(OrientedWord(2, "aba"))
    assert fix.kind == "double"
    assert fix.letters == "abba"
    assert fix.marker is None
    assert fix.saddles == 1
    assert fix.added_crossings == 1
    assert decompose(EXAMPLE_WORD, 3).residual_crossings == (4,)


def test_link_fix_rejects_knots():
    with pytest.raises(ValueError, match="two-component"):
        link_lemma_fix(OrientedWord(1, "aab"))


def test_link_fix_rejects_a_bad_repair(monkeypatch):
    x = OrientedWord(2, "aba")
    own = S3.index(strand_permutation(x.letters))
    moved = next(k for k, perm in enumerate(S3) if perm[x.start - 1] != x.end)
    monkeypatch.setattr(cobordism, "_fix_permutation", lambda fix: moved)
    with pytest.raises(ValueError, match="moved the end state"):
        link_lemma_fix(x)
    monkeypatch.setattr(cobordism, "_fix_permutation", lambda fix: own)
    with pytest.raises(ValueError, match="left a link"):
        link_lemma_fix(x)


def test_link_fix_covers_all_kinds():
    kinds = set()
    for s in range(1, 7):
        for x in all_oriented_words(s):
            if component_count(x) == 2:
                kinds.add(link_lemma_fix(x).kind)
    assert kinds == {"double", "twist-left", "twist-right", "twist-middle",
                     "rii-twist"}


def test_link_fix_costs():
    for s in range(1, 6):
        for x in all_oriented_words(s):
            if component_count(x) != 2:
                continue
            fix = link_lemma_fix(x)
            if fix.kind == "rii-twist":
                assert fix.saddles == 3 and fix.added_crossings == 3
                assert fix.marker == s // 2
            else:
                assert fix.saddles == 1 and fix.added_crossings == 1
                assert len(fix.letters) == s + 1


def test_link_fix_mirror_equivariance():
    swapped = {"double": "double", "twist-left": "twist-right",
               "twist-right": "twist-left", "twist-middle": "twist-middle",
               "rii-twist": "rii-twist"}
    for s in range(1, 5):
        for x in all_oriented_words(s):
            if component_count(x) != 2:
                continue
            fx = link_lemma_fix(x)
            fm = link_lemma_fix(mirror(x))
            assert fm.kind == swapped[fx.kind]
            assert (fm.saddles, fm.added_crossings) == (fx.saddles, fx.added_crossings)
            assert fm.letters == swap_braid(fx.letters[::-1])
            if fx.marker is not None:
                assert fm.marker == len(fm.letters) - fx.marker


def test_cancel_mirrors_examples():
    w1 = OrientedWord(1, "aab")
    w2 = OrientedWord(2, "aba")
    w3 = mirror(w1)
    assert cancel_mirrors([w1, w2, w3]) == (1, ("o2:aba",))
    assert cancel_mirrors([w3, w2, w1]) == (1, ("o2:aba",))
    assert cancel_mirrors([]) == (0, ())
    assert cancel_mirrors([w1, w1]) == (2, ("o1:aab", "o1:aab"))
    pal = OrientedWord(1, "ab")
    assert cancel_mirrors([pal, pal]) == (0, ())
    assert cancel_mirrors([pal, pal, pal]) == (1, ("o1:ab",))


@given(st.permutations(range(6)))
def test_cancel_mirrors_order_invariant(order):
    pool = [OrientedWord(1, "aab"), OrientedWord(2, "aba"), mirror(OrientedWord(1, "aab")),
            OrientedWord(1, "ab"), OrientedWord(1, "ab"), OrientedWord(3, "ba")]
    shuffled = [pool[i] for i in order]
    assert cancel_mirrors(shuffled) == cancel_mirrors(pool)


def test_decompose_example():
    rep = decompose(EXAMPLE_WORD, 3)
    assert to_braid(EXAMPLE_WORD) == "aaababaabbbb"
    assert (rep.t, rep.r) == (3, 3)
    assert [(x.start, x.letters) for x in rep.summands] == [
        (1, "aab"), (2, "aba"), (2, "abb")]
    assert rep.cut_states == (1, 2, 2, 3)
    assert rep.cut_saddles == 1 + 2 + 2 + 1
    assert rep.link_fix_saddles == 1
    assert rep.remainder_letters == "bb"
    assert rep.remainder_crossings == 2
    assert rep.remainder_is_link
    assert rep.remainder_fix_saddles == 1
    assert rep.remaining_remainder_crossings == 1
    assert rep.residual == ("o2:aba",)
    assert rep.residual_crossings == (4,)
    assert rep.g4_upper == (6 + 1 + 1) // 2 + 4 // 2 + 1 // 2 == 6
    assert rep.g4_lower == 1
    assert signature(EXAMPLE_WORD) == -2
    assert g4_interval(EXAMPLE_WORD, 3) == (1, 6)


def test_decompose_block_size_domain():
    with pytest.raises(ValueError, match="block size"):
        decompose(EXAMPLE_WORD, 0)
    with pytest.raises(ValueError, match="block size"):
        decompose(EXAMPLE_WORD, 10)  # 2m - 1 = 9 for c = 12
    decompose(EXAMPLE_WORD, 9)  # single full block is fine


def test_decompose_single_block():
    rep = decompose("+--+", 1)
    assert rep.t == 1 and rep.r == 2
    assert rep.summands == (OrientedWord(1, to_braid("+--+")[1]),)
    assert len(rep.remainder_letters) == 1


def test_decompose_arithmetic_and_reconstitution():
    for c in range(3, 13):
        m = (c - 1) // 2
        j = c - 2 * m
        for word in enumerate_words(c):
            braid = to_braid(word)
            for s in range(1, 2 * m):
                rep = decompose(word, s)
                assert rep.t == (2 * m - 1) // s
                assert rep.r == c - s * rep.t
                assert 0 <= rep.r - 1 - j <= s - 1
                blocks = "".join(x.letters for x in rep.summands)
                assert braid[0] + blocks + rep.remainder_letters == braid
                assert rep.cut_saddles <= 2 * rep.t + 2
                # Construction asserts even total saddles and the sandwich
                # g4_lower <= g4_upper internally.
                assert rep.residual == cancel_mirrors(rep.summands)[1]
                # A residual copy costs the letters of the oriented word its
                # key names, plus the crossings its link repair adds.
                for key, crossings in zip(rep.residual, rep.residual_crossings,
                                          strict=True):
                    start, letters = key[1:].split(":")
                    x = OrientedWord(int(start), letters)
                    added = (link_lemma_fix(x).added_crossings
                             if component_count(x) == 2 else 0)
                    assert crossings == len(letters) + added


def seeded_long_words(count, seed, crossings=(60, 250)):
    """Uniform words of T(c), c uniform in the given range, by rejection
    from uniform interior exponent masks."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        c = rng.randint(*crossings)
        mask = rng.getrandbits(c - 2)
        if (c + mask.bit_count()) % 3 == 1:
            words.append(word_from_interior_bits(c, mask))
    return words


def test_decompose_pinned_on_long_words():
    # The digest was recorded with the union-find closure counts that the
    # component table replaced.  s = 1..5 covers choose_block_size (2 or 3).
    digest = hashlib.sha256()
    for word in seeded_long_words(200, seed=2025):
        for s in range(1, 6):
            rep = decompose(word, s)
            digest.update(repr((
                rep.cut_saddles, rep.link_fix_saddles, rep.remainder_fix_saddles,
                rep.residual, rep.residual_crossings, rep.g4_lower, rep.g4_upper,
            )).encode())
    assert digest.hexdigest() == \
        "7436f0f702bc71ec723d3d36d81b9ca903c8d305f1c0615ec84bef34cf8217e6"


def test_decompose_analyses_each_distinct_block_once(monkeypatch):
    # Repeats of a (start, block) share one oriented word and its analysis,
    # and a two-component summand's closure is counted once.
    word = seeded_long_words(1, seed=7, crossings=(200, 200))[0]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("summand_class", "component_count", "link_lemma_fix"):
        monkeypatch.setattr(cobordism, name, counted(name, getattr(cobordism, name)))
    monkeypatch.setattr(OrientedWord, "__init__",
                        counted("OrientedWord", OrientedWord.__init__))
    rep = decompose(word, 3)
    first = dict(calls)
    calls.clear()
    # The block memo serves every block of a repeat call.
    again = decompose(word, 3)
    monkeypatch.undo()

    distinct = set(rep.summands)
    assert len(set(map(id, rep.summands))) == len(distinct)
    links = sum(component_count(x) == 2 for x in distinct)
    assert rep.t > 2 * len(distinct) and links > 0
    assert first == {"OrientedWord": len(distinct), "summand_class": len(distinct),
                     "component_count": len(distinct), "link_lemma_fix": links}
    assert again == rep and not calls
    assert all(x is y for x, y in zip(again.summands, rep.summands, strict=True))


def traced_positives(letters):
    """Oracle: positive crossings of a block from each start state, read off
    the arc-graph traversal ``oracle_orient`` of knot diagrams that hold the
    block after a short prefix, by the state that it finds on the block's
    left cut."""
    found = {}
    for prefix, suffix in product(("", "a", "b", "aa", "ab", "ba", "bb"), ("", "a", "b")):
        z = prefix + letters + suffix
        for closure in "AB":
            try:
                signs, states = oracle_orient(diagram.PlatDiagram(z, closure))
            except ValueError:  # a link
                continue
            cut = len(prefix)
            found.setdefault(states[cut], signs[cut:cut + len(letters)].count(1))
        if len(found) == 3:
            return found
    raise AssertionError(f"no knot diagram holds {letters} after every start state")


def test_block_memo_matches_fresh_analysis():
    for s in range(1, 9):
        for bits in product("ab", repeat=s):
            letters = "".join(bits)
            positives = traced_positives(letters)
            for start in (1, 2, 3):
                x = OrientedWord(start, letters)
                block = cobordism._analyse_block(start, letters)
                cls = summand_class(x)
                sign = {"plus": 1, "minus": -1, "self_mirror": 0}[cls.polarity]
                assert (block.summand, block.end, block.cls, block.saddles,
                        block.crossings, block.positive, block.sign) == (
                    x, x.end, cls, *repair_costs(x), positives[start], sign)
                assert cobordism._analyse_block(start, letters) is block


def test_block_memo_caches_no_failure(monkeypatch):
    # A block whose analysis raises is analysed, and raises, on every call.
    for start, letters, message in ((1, "ax", "braid"), (1, "", "non-empty")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                cobordism._analyse_block(start, letters)
    calls = []

    def failing(x):
        calls.append(x)
        raise ValueError("repair failed")

    monkeypatch.setattr(cobordism, "link_lemma_fix", failing)
    for _ in range(2):
        with pytest.raises(ValueError, match="repair failed"):
            cobordism._analyse_block(2, "aba")
    assert calls == [OrientedWord(2, "aba")] * 2
    assert cobordism._analyse_block.cache_info().currsize == 0


def test_block_memo_is_bounded():
    # Finite, and large enough for every oriented block with s <= 10.
    maxsize = cobordism._analyse_block.cache_info().maxsize
    assert maxsize is not None and 3 * 2 ** 10 <= maxsize


def test_decompose_validates_its_word_once(monkeypatch):
    # to_braid validates the word; decompose reads c off the braid word and
    # the lower bound off its blocks.  The CLI converts the word itself, to
    # choose the block size, and hands decompose the braid word.
    calls = []
    real = words.validate_word

    def counted(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(words, "validate_word", counted)
    monkeypatch.setattr(cobordism, "validate_word", counted, raising=False)
    decompose(EXAMPLE_WORD, 3)
    assert calls == [EXAMPLE_WORD]
    # An invalid word still fails with validate_word's own message.
    with pytest.raises(ValueError, match="run exponents must be 1 or 2"):
        decompose("+---+", 1)
    for args in (("--s", "3"), ()):
        calls.clear()
        result = invoke("g4", "--word", EXAMPLE_WORD, *args)
        assert result.exit_code == 0 and calls == [EXAMPLE_WORD]
    calls.clear()
    assert_refused(invoke("g4", "--word", "+-+"),
                   "invalid word: length must be 1 mod 3, got 3: '+-+'")
    assert calls == ["+-+"]


def test_lower_bound_matches_the_diagram_scan():
    # Two derivations of |sigma| / 2: the block records with the remainder
    # walked on top, and one STEP walk of the whole diagram.
    for c in range(3, 15):
        m = (c - 1) // 2
        for word in enumerate_words(c):
            lower = abs(diagram.metrics_for_word(word).signature) // 2
            for s in range(1, 2 * m):
                assert decompose(word, s).g4_lower == lower, (word, s)
    for word in seeded_long_words(200, seed=2025):
        lower = abs(diagram.metrics_for_word(word).signature) // 2
        for s in range(1, 6):
            assert decompose(word, s).g4_lower == lower, (word, s)


def test_decompose_makes_no_numpy_call():
    word = seeded_long_words(1, seed=7, crossings=(250, 250))[0]
    decompose(word, 3)  # fills the block memo

    def twice():
        decompose(word, 3)
        cobordism._analyse_block.cache_clear()
        decompose(word, 3)
    assert numpy_calls(twice) == []


@pytest.mark.parametrize("setup, call, message", [
    # A braid word that closes to a link, and one whose state right of
    # crossing 1 is o3: the diagram invariants that every word keeps.
    ("", f"decompose({EXAMPLE_WORD!r}, 3, braid='baababaabbbb')",
     "diagram is a link; cannot orient by one traversal"),
    ("", f"decompose({EXAMPLE_WORD!r}, 3, braid='abababaabbbb')",
     "state right of crossing 1 must be o1, got o3"),
    # A record whose end state disagrees with its STEP walk.
    ("real = cobordism.OrientedWord.__init__\n"
     "def corrupted(x, *args):\n"
     "    real(x, *args)\n"
     "    x.end = 1\n"
     "cobordism.OrientedWord.__init__ = corrupted\n",
     f"decompose({EXAMPLE_WORD!r}, 3)",
     "block o1:aab walks to o2, but its strand permutation ends it in o1"),
])
def test_decompose_invariants_survive_optimize_flag(setup, call, message):
    code = ("from twobridge import cobordism\n"
            "from twobridge.cobordism import decompose\n"
            + setup +
            "try:\n"
            f"    {call}\n"
            "except ValueError as refused:\n"
            "    print(refused)\n")
    src = str(Path(cobordism.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == message


def test_sandwich_at_chosen_block_size():
    for c in range(7, 18):
        s = choose_block_size(c)
        for word in enumerate_words(c):
            lower, upper = g4_interval(word, s)
            assert 0 <= lower <= upper


def test_choose_block_size():
    assert choose_block_size(3) == 1
    assert choose_block_size(9) == 1
    assert choose_block_size(10) == 1
    assert choose_block_size(11) == 2
    assert choose_block_size(12) == 2
    assert choose_block_size(100) == 2
    assert choose_block_size(101) == 3
    assert choose_block_size(10000) == 4
    with pytest.raises(ValueError, match="crossing number"):
        choose_block_size(2)


def test_expression_bound_example():
    # c = 12, s = 3: t = 3, r = 3, so the closed form is
    # 4 + 4.5 + 9 * sqrt(24) + 3 * 2^1.5 + 1.
    value = expression_upper_bound(12, 3)
    assert value == pytest.approx(4 + 4.5 + 9 * 24 ** 0.5 + 3 * 2 ** 1.5 + 1)
    assert log10_upper_bound(10) == pytest.approx(97.5)


def enumerated_average_g4_row(c, s):
    """The oracle for the mean DP: decompose every word of T(c)."""
    if c - 2 > 18:
        raise BudgetError(f"averaging over T({c}) walks 2^{c - 2} exponent "
                          "masks; refusing above 2^18")
    total = 0
    count = 0
    for word in enumerate_words(c):
        total += decompose(word, s).g4_upper
        count += 1
    return AverageRow(c, count, Fraction(total, count),
                      expression_upper_bound(c, s), log10_upper_bound(c))


@pytest.mark.parametrize("c, s", [
    *((c, s) for c in range(3, 15) for s in range(1, min(4, 2 * ((c - 1) // 2) - 1) + 1)),
    (15, choose_block_size(15)),
    (16, choose_block_size(16)),
])
def test_average_g4_row_matches_enumeration(c, s):
    assert average_g4_row(c, s) == enumerated_average_g4_row(c, s)


def sampled_g4_upper(c, s, samples, seed):
    """(mean, standard error) of g4_upper over uniform words of T(c), drawn
    by rejection from uniform interior exponent masks."""
    rng = random.Random(seed)
    values = []
    while len(values) < samples:
        mask = rng.getrandbits(c - 2)
        if (c + mask.bit_count()) % 3 == 1:
            values.append(decompose(word_from_interior_bits(c, mask), s).g4_upper)
    mean = sum(values) / samples
    variance = sum((v - mean) ** 2 for v in values) / (samples - 1)
    return mean, (variance / samples) ** 0.5


@pytest.mark.parametrize("c", [200, 1000])
def test_average_g4_row_past_enumeration_matches_sampling(c):
    s = choose_block_size(c)
    row = average_g4_row(c, s)
    assert row.words == word_count(c)
    mean, stderr = sampled_g4_upper(c, s, 2000, seed=c)
    assert stderr > 0
    assert abs(float(row.mean_upper) - mean) <= 5 * stderr
    assert row.below_expression and row.below_log10


def test_repaired_crossings_are_mirror_invariant():
    # The mean DP charges a residual class its own repaired crossing count,
    # decompose that of whichever side occurs first: they must agree.
    for s in range(1, 11):
        for x in all_oriented_words(s):
            assert repair_costs(x)[1] == repair_costs(mirror(x))[1]


def reference_summand_table(s):
    """Table build that analyses every block from scratch, with no block
    memo, and every class's mirror: its (start, end) from ``mirror``."""
    counts = [[0] * 3 for _ in range(3)]
    costs = [[0] * 3 for _ in range(3)]
    weights = Counter()
    for x in all_oriented_words(s):
        saddles, crossings = repair_costs(x)
        counts[x.start - 1][x.end - 1] += 1
        costs[x.start - 1][x.end - 1] += saddles + cobordism._CUT_SADDLES[x.end]
        cls = summand_class(x)
        if cls.polarity == "minus" or crossings < 2:
            continue
        y = mirror(x)
        key = (x.start - 1, x.end - 1, y.start - 1, y.end - 1,
               int(cls.polarity == "self_mirror"))
        weights[key] += crossings // 2
    return tuple(map(tuple, counts)), tuple(map(tuple, costs)), dict(weights)


def interior_length(letters, parity):
    """Length of the word runs that core letters stand for, the first one
    at a core position of the given parity: 2 for an 'a' at an even
    position or a 'b' at an odd one, 1 otherwise."""
    even = parity % 2
    return len(letters) + letters[even::2].count("a") + letters[1 - even::2].count("b")


def nine_state_sources(parity, letter):
    """sources[j]: the state that one core letter, at a position of the
    given parity, moves to state j, over the nine states
    3 (orientation state - 1) + interior length mod 3 that the mean DP ran
    on before the length was read off the state, by ``orientation_after``
    (a letter's move of the orientation states is its own inverse)."""
    step = 2 if (letter == "a") == (parity == 0) else 1
    return [3 * (orientation_after(j // 3 + 1, letter) - 1) + (j - step) % 3
            for j in range(9)]


def nine_state_moves(s, keys):
    """Per signature in ``keys``, its (own, mirror) moves over the nine
    states: per block parity, the (from, to) states of its block and of its
    mirror, one pair per interior length mod 3 before the block, none for
    a palindromic-type mirror.  Every block of a signature must give the
    same moves."""
    def moves(x):
        return [[(3 * (x.start - 1) + n,
                  3 * (x.end - 1) + (n + interior_length(x.letters, p)) % 3)
                 for n in range(3)] for p in (0, 1)]

    rows = {}
    for x in all_oriented_words(s):
        cls = summand_class(x)
        if cls.polarity == "minus":
            continue
        y, pal = mirror(x), cls.polarity == "self_mirror"
        row = (moves(x), [[], []] if pal else moves(y))
        key = (x.start - 1, x.end - 1, y.start - 1, y.end - 1, int(pal))
        assert rows.setdefault(key, row) == row, x
    return [rows[key] for key in keys]


def test_interior_length_matches_letter_scan():
    for n in range(0, 11):
        for bits in product("ab", repeat=n):
            letters = "".join(bits)
            for parity in (0, 1):
                assert interior_length(letters, parity) == sum(
                    2 if (letter == "a") == ((parity + i) % 2 == 0) else 1
                    for i, letter in enumerate(letters))


def test_summand_table_matches_mirror_analysis():
    # Every block analysed from scratch, to s = 12, against the closed form.
    for s in range(1, 13):
        counts, costs, weights = reference_summand_table(s)
        assert cobordism._summand_table(s) == (costs, weights), s
        # The enumerated block counts are the closed form of M^s, whose
        # powers give the mean's cores, and the rows of the residual DP are
        # signature groups of the walk.
        assert counts == markov._closed_form(s), s
        assert set(weights) <= set(markov._signature_groups(s)[0]), s


def test_g4_residual_matches_object_array_oracle():
    # The mean's residual totals, one row per signature over the three
    # orientation states, against the DP on object arrays run over the nine
    # (orientation state, interior length mod 3) states with s letter steps
    # per block and summed over the lengths.  Only the length that the
    # state fixes holds any count.  At s = 3 blocks start at both position
    # parities.
    for s in (3, 4):
        keys = list(cobordism._summand_table(s)[1])
        moves = nine_state_moves(s, keys)
        sources = [tuple(np.array(nine_state_sources(p, letter)) for letter in "ab")
                   for p in (0, 1)]
        for t in range(1, 41):
            nine = object_walk_dp.displacement_laws(
                s, t, object_walk_dp.letter_steps(s, sources),
                *reference_arguments(moves), states=9).reshape(len(keys), 3, 3, -1)
            for state in range(3):
                length = cobordism._length(state + 1, s * t)
                assert not np.delete(nine[:, state], length, axis=1).any(), (s, t, state)
            laws = np.stack([nine[:, state, cobordism._length(state + 1, s * t)]
                             for state in range(3)], axis=1)
            for weights in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 5, 3)]:
                assert markov.residual_totals(s, t, keys, weights) == \
                    scored_laws(laws, keys, weights), (s, t, weights)


def oracle_residual_totals(s, t, rows, weights):
    """``markov.residual_totals`` read off the object-array DP's laws."""
    return scored_laws(oracle_laws(s, t, rows), rows, weights)


def test_mean_matches_the_oracle_residual(monkeypatch):
    # The mean with its residual read off the object-array DP, at the
    # default block size, equals the mean with the kernel's.
    c_values = [*range(3, 201), 1000, 2000]
    expected = [average_g4_row(c, choose_block_size(c)) for c in c_values]
    monkeypatch.setattr(markov, "residual_totals", oracle_residual_totals)
    assert [average_g4_row(c, choose_block_size(c)) for c in c_values] == expected


def test_mean_residual_steps_no_block(monkeypatch):
    # The mean's one residual call checks M^s once and steps no block: its
    # palindromic-type rows (even s) are read off one Lucas sequence per
    # value of [x = y] among them (x != y in all six at s = 2), each in
    # O(log t) doubling steps, and its cores and saddles are closed forms.
    # The walk's block step is gone from the package; the tests keep it as
    # an oracle.
    c_s = [(7, 1), (60, 2), (61, 3), (120, 6), (200, 3), (1001, 4)]
    expected = [average_g4_row(c, s) for c, s in c_s]
    checked, calls, sequences = [], [], []
    residual_totals, block_power = markov.residual_totals, markov._block_power
    lucas = markov._lucas

    def spied_totals(s, t, rows, weights):
        calls.append(s)
        return residual_totals(s, t, rows, weights)

    monkeypatch.setattr(markov, "_lucas",
                        lambda trace, det, t: sequences.append(calls[-1]) or lucas(trace, det, t))
    monkeypatch.setattr(markov, "_block_power", lambda s: checked.append(s) or block_power(s))
    monkeypatch.setattr(markov, "residual_totals", spied_totals)
    assert [average_g4_row(c, s) for c, s in c_s] == expected
    assert not hasattr(markov, "block_step")
    assert checked == calls == [s for _, s in c_s]
    assert sequences == [2, 6, 6, 4, 4]


def stepped_cores(s, t, costs):
    """The mean's cores e_0 M^(s t) and the costs collected over their t
    blocks, e_0 sum_(k<t) M^(s k) C M^(s (t-1-k)), by the loop that the
    mean ran before both were closed forms: one block step of the walk per
    block (the tests' copy, ``block_step``), and one product of the cores
    by C."""
    step = block_step(s, *markov._block_power(s))
    cores, collected = [1, 0, 0], [0, 0, 0]
    for _ in range(t):
        added, = markov.matrix_multiply((cores,), costs)
        cores, collected = step(cores), [x + y for x, y in zip(step(collected), added)]
    return cores, collected


def test_closed_form_cores_and_costs_match_the_stepped_loop():
    # Row 0 of the closed form of M^(s t) and markov.cost_sums against the
    # stepped loop, at both parities of s, with the mean's own table and
    # seeded matrices of mixed signs, some entries past 64 bits.
    rng = random.Random(46)
    cells = [(s, t) for s in range(1, 17) for t in range(65)]
    cells += [(s, t) for s in (1, 2, 5, 16) for t in (1000, 1001)]
    cells += [(s, t) for s in (199, 200, 201, 202) for t in range(4)]
    for s, t in cells:
        matrices = [cobordism._summand_table(s)[0]] if s <= 40 else []
        matrices += [tuple(tuple(rng.randint(-1 << bits, 1 << bits) for _ in range(3))
                           for _ in range(3)) for bits in (3, 70)]
        for costs in matrices:
            cores, collected = stepped_cores(s, t, costs)
            assert list(markov._closed_form(s * t)[0]) == cores, (s, t)
            assert markov.cost_sums(s, t, costs) == collected, (s, t, costs)


def test_mean_matches_the_stepped_cores(monkeypatch):
    # The mean with its cores and saddles from the stepped loop equals the
    # mean from the closed forms.
    c_s = [(c, choose_block_size(c)) for c in range(3, 121)] + [(61, 2), (120, 6), (200, 11)]
    expected = [average_g4_row(c, s) for c, s in c_s]
    monkeypatch.setattr(markov, "cost_sums", lambda s, t, costs: stepped_cores(s, t, costs)[1])
    assert [average_g4_row(c, s) for c, s in c_s] == expected


@functools.lru_cache(maxsize=None)
def enumerated_remainders(e, parity, odd, closure):
    """(tails, links, halves) of ``cobordism._remainder_counts`` by the loop
    that the mean ran before it counted nine classes: every one of the 2^e
    core letter strings after the blocks, the ending that its interior
    length forces from each final state, and the remainder's components
    with and without its last letter.  The loop reads s t and c by their
    parities alone (c's as odd and as its closure), so it runs once per
    (e, s t mod 2, c mod 2)."""
    tails, links, halves = [0, 0, 0], [0, 0, 0], [0, 0, 0]
    for letters in map("".join, product("ab", repeat=e)):
        step = interior_length(letters, parity)
        for i in range(3):
            final = (cobordism._length(i + 1, parity) + step) % 3
            if (final == 2) != odd:
                continue
            remainder = letters + cobordism._ENDING[final]
            link = remainder_component_count(i + 1, remainder, closure) == 2
            assert not link or remainder_component_count(i + 1, remainder[:-1], closure) == 1
            tails[i] += 1
            links[i] += link
            halves[i] += (len(remainder) - link) // 2
    return tails, links, halves


def test_remainder_classes_match_the_enumerated_endings():
    # Every (c, s) with 3 <= c <= 69 and at most 16 core letters after the
    # blocks, e = (2m - 1) mod s.
    cases = 0
    for c in range(3, 70):
        for s in range(1, 2 * ((c - 1) // 2)):
            t, e = divmod(2 * ((c - 1) // 2) - 1, s)
            if e <= 16:
                expected = enumerated_remainders(e, s * t % 2, c % 2, diagram.word_closure(c))
                assert cobordism._remainder_counts(c, s, t) == expected, (c, s)
                cases += 1
    assert cases == 1929


def test_subset_counts_match_brute_force():
    for n in range(21):
        sizes = Counter(size % 3 for size in map(int.bit_count, range(1 << n)))
        assert [cobordism._subsets(n, k) for k in range(3)] == [sizes[k] for k in range(3)], n


def test_means_unchanged_by_the_remainder_classes():
    # sha256 over each word count and mean at the default s for c = 7..300,
    # and at every s <= 16 for c = 40, 77 and 120, recorded when the mean
    # listed every remainder ending.
    cases = [(c, choose_block_size(c)) for c in range(7, 301)]
    cases += [(c, s) for c in (40, 77, 120) for s in range(1, 17)]
    digest = hashlib.sha256()
    for c, s in cases:
        row = average_g4_row(c, s)
        digest.update(f"{c},{s}:{row.words}:{row.mean_upper};".encode())
    assert digest.hexdigest() == \
        "0c32812bb8cfe74eb755bc8803509c805c126359a764d7d9386db0dd3fc0aee5"


def test_remainder_repair_check_survives_optimize_flag():
    # Under closure B (even c) a remainder from o3 closes with the cap
    # shapes (B, B).  Counted as a link there, the strand permutation of
    # "b" makes undoing the last twist of the example word's remainder "bb"
    # leave a link, and so that of the mean's remainders from o3 at c = 12,
    # s = 3, the same "bb".  Both are refused with no assert.
    setup = ("from twobridge import diagram\n"
             "shapes, index = diagram.COMPONENTS['B', 'B'], diagram.s3_index('b')\n"
             "diagram.COMPONENTS['B', 'B'] = shapes[:index] + (2,) + shapes[index + 1:]\n")
    message = (f"undoing the last twist of the remainder {S3[s3_index('bb')]} from o3 "
               "under closure B left a link")
    assert refused_under_optimize_flag(setup, f"cobordism.decompose({EXAMPLE_WORD!r}, 3)") \
        == message
    assert refused_under_optimize_flag(setup, "cobordism.average_g4_row(12, 3)") == message


def test_residual_invariant_refused_under_optimize_flag():
    # The mean's residual must give e_0 M^(s t) w with its weights, the
    # core endings, at c = 60, s = 2 (t = 28): a kernel whose closed form
    # of 1 / K1 is off by one at X^28 is refused with no assert.  A wrong
    # M^56 is refused too, by the word count of its cores.
    assert refused_under_optimize_flag(
        "real = markov._k1_coefficient\n"
        "markov._k1_coefficient = lambda s, n, square: real(s, n, square) + (n == 28 and not square)\n",
        "cobordism.average_g4_row(60, 2)") == \
        "the kernel's weighted total at s=2, t=28 differs from e_0 M^56 w"
    assert refused_under_optimize_flag(
        "real = markov._closed_form\n"
        "markov._closed_form = lambda n: real(n + (n == 56))\n",
        "cobordism.average_g4_row(60, 2)") == \
        "mean DP counted 192153584101141162 words in T(60), expected 96076792050570581"


def refused_under_optimize_flag(setup, call):
    """The ValueError message that ``call`` raises after ``setup`` in a
    fresh ``python -O`` process, where no assert runs."""
    code = ("from twobridge import cobordism, markov\n" + setup +
            "try:\n"
            f"    {call}\n"
            "except ValueError as refused:\n"
            "    print(refused)\n")
    src = str(Path(cobordism.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


REPAIR_COST = cobordism._repair_cost
# A repair two saddles and crossings dearer from middle state 1 than from
# its flip, 3, so that a block and its mirror differ.  At s = 3 the blocks
# from o1 to o3 pair with their mirrors among themselves, and under this
# repair their weights sum to 5.
LOPSIDED = ("real = cobordism._repair_cost\n"
            "cobordism._repair_cost = lambda s, middle: real(s, middle) + 2 * (middle == 1)\n")
MIRROR_MISMATCH = ("the blocks of 3 letters from o1 to o3, each paired with its mirror "
                   "among them, weigh 5 in all, which does not halve")


def test_summand_table_rejects_mirror_crossing_mismatch(monkeypatch):
    monkeypatch.setattr(cobordism, "_repair_cost",
                        lambda s, middle: REPAIR_COST(s, middle) + 2 * (middle == 1))
    with pytest.raises(ValueError, match=re.escape(MIRROR_MISMATCH)):
        average_g4_row(9, 3)


def test_mirror_crossing_check_survives_optimize_flag():
    assert refused_under_optimize_flag(LOPSIDED, "cobordism.average_g4_row(9, 3)") \
        == MIRROR_MISMATCH


def test_middle_state_split_check_survives_optimize_flag():
    # A wrong M^3 splits the blocks of 6 letters over their middle states
    # into other counts than M^6.
    assert refused_under_optimize_flag(
        "real = markov._closed_form\n"
        "markov._closed_form = lambda n: real(n + (n == 3))\n",
        "cobordism._summand_table(6)") == (
        "the blocks of 6 letters from o1 to o1 split into 86 by their middle "
        "states, not M^6 = 22")


def test_summand_table_analyses_no_block(monkeypatch):
    # The table is a closed form and the mean reads no block record: with
    # the block analysis and the link repair refused, both run at any s,
    # and the block memo stays empty.
    memo = cobordism._analyse_block

    def refuse(*args):
        raise AssertionError("the mean analysed or repaired a block")

    monkeypatch.setattr(cobordism, "_analyse_block", refuse)
    monkeypatch.setattr(cobordism, "link_lemma_fix", refuse)
    for s in range(1, 41):
        cobordism._summand_table(s)
    for c, s in ((9, 3), (61, 2), (200, 11), (1000, 3), (163, 20)):
        average_g4_row(c, s)
    assert memo.cache_info().currsize == 0


def test_closed_form_rule_on_random_blocks():
    # Blocks past the reference table, analysed from scratch, follow the
    # rule the closed form uses: a block of s letters from x to y is a link
    # exactly when the blocks of 3 or 4 letters of the same parity from x
    # to y are; its repair costs _repair_cost(s, m) saddles and as many
    # added crossings, m its state after s // 2 letters; its mirror runs
    # from flip(y) to flip(x), through flip(m) at even s, at the same cost;
    # and a palindromic-type block ends at e (1 - m) - x - 1 mod 3 in state
    # indices, e = (-1)^(s // 2).
    links = {(len(x.letters) % 2, x.start, x.end): component_count(x) == 2
             for n in (3, 4) for x in all_oriented_words(n)}
    assert len(links) == 18
    flip = {1: 3, 2: 2, 3: 1}
    rng = random.Random(45)
    for s in range(13, 41):
        h = s // 2
        blocks = ["".join(rng.choice("ab") for _ in range(s)) for _ in range(40)]
        if s % 2 == 0:
            halves = ["".join(rng.choice("ab") for _ in range(h)) for _ in range(20)]
            blocks += [half + swap_braid(half[::-1]) for half in halves]
        for letters in blocks:
            x = OrientedWord(rng.choice((1, 2, 3)), letters)
            middle = orientation_after(x.start, letters[:h])
            end = orientation_after(x.start, letters)
            saddles, crossings = repair_costs(x)
            cost = REPAIR_COST(s, middle) if links[s % 2, x.start, end] else 0
            assert (saddles, crossings) == (cost, s + cost), (s, x)
            y = mirror(x)
            assert (y.start, y.end) == (flip[end], flip[x.start]), (s, x)
            if s % 2 == 0:
                assert orientation_after(y.start, y.letters[:h]) == flip[middle], (s, x)
            assert repair_costs(y) == (saddles, crossings), (s, x)
            if is_palindromic_type(letters):
                turn = (-1) ** h
                assert (turn * (2 - middle) - x.start) % 3 == end - 1, (s, x)


def test_every_block_takes_its_interior_length_to_its_end():
    # The mean reads a core's interior length mod 3 off its orientation
    # state (_length): every oriented block of up to 12 letters, from each
    # start and at both position parities, takes the length of its start
    # state to that of its end state.
    for s in range(13):
        for bits in product("ab", repeat=s):
            letters = "".join(bits)
            for start in (1, 2, 3):
                end = orientation_after(start, letters)
                for p in (0, 1):
                    assert (cobordism._length(start, p)
                            + interior_length(letters, p)
                            - cobordism._length(end, p + s)) % 3 == 0, (start, letters, p)


def test_g4_work_refused_before_any_work(monkeypatch):
    def build(s):
        raise AssertionError("an over-budget mean must be refused first")

    monkeypatch.setattr(cobordism, "_summand_table", build)
    check_g4(1000, 3)
    with pytest.raises(BudgetError, match=r"c=66453, s=5.*kernel_work"):
        check_g4(66453, 5)
    start = time.perf_counter()
    for c, s in ((66453, 5), (632455, 90350)):
        with pytest.raises(BudgetError, match="refusing"):
            average_g4_row(c, s)
    assert time.perf_counter() - start < 1


def test_g4_budget_charges_no_remainder_ending():
    # The remainder classes are closed forms, charged nothing: 2^38 endings
    # at c = 80, s = 39 and 2^51818 at the slowest admitted mean found,
    # c = 632455, s = 64515, where kernel_work nearly meets the budget.
    for c, s in ((80, 39), (632455, 64515)):
        check_g4(c, s)
    assert budget.kernel_work(64515, 9) <= budget.WALK_WORK_BUDGET < budget.kernel_work(64515, 10)


def test_interior_length_fixed_by_end_states():
    # Every core prefix of up to 12 letters, from state 1: its interior
    # length mod 3 is the one that its end state fixes.
    for n in range(13):
        for bits in product("ab", repeat=n):
            letters = "".join(bits)
            assert cobordism._length(orientation_after(1, letters), n) \
                == interior_length(letters, 0) % 3, letters


def test_g4_budget_charges_the_law_rows():
    # The mean runs one row per signature of the classes with at least 2
    # repaired crossings: signature groups of the walk, so the walk's
    # charge, one series per non-palindromic row, covers them.
    for s in range(1, 11):
        keys = cobordism._summand_table(s)[1]
        assert set(keys) <= set(markov._signature_groups(s)[0]), s
        assert sum(not key[4] for key in keys) <= _walk_groups(s), s
    # The largest mean row at the default s, 5 from c = 10001 on.
    assert choose_block_size(66452) == choose_block_size(66453) == 5
    check_g4(66452, 5)
    with pytest.raises(BudgetError, match=r"c=66453, s=5"):
        check_g4(66453, 5)


def test_g4_budget_admits_what_the_nine_state_charge_admitted():
    # The charge of the nine-state DP the mean once ran, s letter steps over
    # 9 states and 2k + 3 displacements at block k per signature group of
    # the walk, against its own budget of 2^27, table entries included: no
    # request it admitted is refused.
    groups = {s: len(markov._signature_groups(s)[1]) for s in range(1, 17)}

    def nine_state_admits(c, s):
        t = (2 * ((c - 1) // 2) - 1) // s
        cells = groups[s] * 9 * s * t * (t + 2)
        return cells + (3 << 10 + s) <= 1 << 27

    admitted = 0
    for s in range(1, 17):
        for c in range(max(3, s + 2), 10 ** 4 + 1):
            if nine_state_admits(c, s):
                check_g4(c, s)
                admitted += 1
    assert admitted == 49009


def test_g4_budget_charges_the_digits_as_an_avg_sig_row():
    # Past the old table charge a mean runs at block sizes far beyond 16,
    # up to the c whose word count the CLI may print (c^2 / 16 units).
    check_g4(632455, 632452)
    with pytest.raises(BudgetError, match=r"c=632456, s=632452.*c\^2 / 16"):
        check_g4(632456, 632452)


def test_mean_past_the_float_range():
    # At s = 2090 the expression bound overflows a float: it reads inf,
    # which the exact mean is below.
    row = average_g4_row(2100, 2090)
    assert row.expression_bound == math.inf and row.below_expression
    assert row.words == word_count(2100) and row.below_log10
    assert expression_upper_bound(2100, 1022) < math.inf


def test_average_g4_row_domain():
    with pytest.raises(ValueError, match="block size"):
        average_g4_row(10, 0)
    with pytest.raises(ValueError, match="block size"):
        average_g4_row(10, 8)
    with pytest.raises(ValueError, match="crossing number"):
        average_g4_row(2, 1)


def test_average_g4_row():
    row = average_g4_row(7, 1)
    assert row.words == 11
    assert row.mean_upper == Fraction(59, 11)
    assert row.below_expression and row.below_log10


# Exact means pinned so that no change to the summand analysis can move them.
@pytest.mark.parametrize("c, s, words, mean", [
    (10, 3, 85, Fraction(497, 85)),
    (11, 3, 171, Fraction(137, 19)),
    (12, 3, 341, Fraction(2554, 341)),
    (13, 1, 683, Fraction(7542, 683)),
    (13, 3, 683, Fraction(5703, 683)),
    (14, 1, 1365, Fraction(15331, 1365)),
    (14, 3, 1365, Fraction(789, 91)),
])
def test_average_g4_row_pinned(c, s, words, mean):
    row = average_g4_row(c, s)
    assert row.words == words
    assert row.mean_upper == mean
    assert row.below_expression and row.below_log10


# sha256 of each mean's "num/den" past enumeration, at the default s (3
# at these c) and at c = 300 for s = 1..7, recorded when the mean DP still
# ran over nine (orientation state, interior length mod 3) states.
@pytest.mark.parametrize("c, s, digest", [
    (101, 3, "7439c97941f7b602d54e6b66013e99fdb73cd8bd0aa7e7fc283085d35bb2c4db"),
    (200, 3, "9162d6cfbdd060e2527d85b31f000af06836d05f7adba9ab393dc5fbfe747965"),
    (1000, 3, "c5b18559ae3f70f3caaa1850bec66a6555a36e1825c06601ad69a5f94b6765b6"),
    (300, 1, "538db1d0973ae48aca95ddc7faa1f2d326f4217311e08e6cc05a7afbb35e4f14"),
    (300, 2, "8f608f13357d7e8e4e5ee6b91568b238cfd94abfbff2df8958ec149ca904a736"),
    (300, 3, "464de508c9d3da6763de0e2c49fe77979e57c9b7c4e5bbd491a8e9df0894b294"),
    (300, 4, "e99e38c7e46db4d39617da3a36eb15606902dc438fc7df02d6b33b4313804f50"),
    (300, 5, "c3d5029e89f899b924c5f172b81396758e857c26b75cf5e9f6111b71a93441d4"),
    (300, 6, "7cccbd4ee56a8f183c2505d75431a5678168fc419ebec508ce3d94304be83ca4"),
    (300, 7, "e48b16baf25b0c989c54a02e543c16c8a6f46e284e69c97ec6f8326bb9f4f44c"),
])
def test_average_g4_row_digest(c, s, digest):
    assert c == 300 or s == choose_block_size(c)
    mean = average_g4_row(c, s).mean_upper
    assert hashlib.sha256(f"{mean.numerator}/{mean.denominator}".encode()).hexdigest() \
        == digest


def test_aggregate_g4_check_reports_failed_mean(monkeypatch):
    monkeypatch.setattr(cobordism, "log10_upper_bound", lambda c: 0.0)
    result = checks.run_check("aggregate-g4", 8)
    assert not result.passed
    assert result.detail == "mean bound fails at c=7"


@settings(deadline=None)
@given(st.sampled_from([c for c in range(5, 12)]), st.data())
def test_decompose_matches_manual_blocks(c, data):
    word = data.draw(st.sampled_from(list(enumerate_words(c))))
    m = (c - 1) // 2
    s = data.draw(st.integers(1, 2 * m - 1))
    rep = decompose(word, s)
    core = to_braid(word)[1:2 * m]
    assert [x.letters for x in rep.summands] == [
        core[k * s:(k + 1) * s] for k in range(rep.t)]
