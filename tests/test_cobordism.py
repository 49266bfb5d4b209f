"""Tests for the saddle-move decomposition and 4-genus bounds."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobridge.budget import G4_WORK_BUDGET, BudgetError, g4_work
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
    remainder_component_count,
    summand_class,
)
from twobridge import checks, cobordism, words
from twobridge.diagram import (
    PLAT_RIGHT,
    S3,
    closure_components,
    orientation_after,
    signature,
    strand_permutation,
)
from twobridge.words import (
    enumerate_words,
    swap_braid,
    to_braid,
    word_count,
    word_from_interior_bits,
)

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
                cobordism._LEFT_CLOSURE[x.start], perm, cobordism._RIGHT_CLOSURE[end])
            assert x.end == end
            seen.add((x.start, perm))
    assert len(seen) == 18


def test_component_count_is_mirror_invariant():
    for s in range(0, 6):
        for x in all_oriented_words(s):
            assert component_count(x) == component_count(mirror(x))


def test_remainder_component_count():
    # The c=12 example remainder: two b crossings entered at state 3 with
    # the even-length plat closure form a two-component link; dropping the
    # final crossing reconnects it.
    assert remainder_component_count(3, "bb", "B") == 2
    assert remainder_component_count(3, "b", "B") == 1


def test_remainder_table_matches_union_find():
    for n in range(1, 11):
        for bits in product("ab", repeat=n):
            letters = "".join(bits)
            perm = strand_permutation(letters)
            for start in (1, 2, 3):
                for closure, right in PLAT_RIGHT.items():
                    assert remainder_component_count(start, letters, closure) == \
                        closure_components(cobordism._LEFT_CLOSURE[start], perm, right)


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

    for name in ("summand_class", "_repair_costs", "component_count",
                 "link_lemma_fix"):
        monkeypatch.setattr(cobordism, name, counted(name, getattr(cobordism, name)))
    monkeypatch.setattr(OrientedWord, "__post_init__",
                        counted("OrientedWord", OrientedWord.__post_init__))
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
                     "_repair_costs": len(distinct),
                     "component_count": len(distinct), "link_lemma_fix": links}
    assert again == rep and not calls
    assert all(x is y for x, y in zip(again.summands, rep.summands, strict=True))


def test_block_memo_matches_fresh_analysis():
    for s in range(1, 9):
        for x in all_oriented_words(s):
            block = cobordism._analyse_block(x.start, x.letters)
            assert (block.summand, block.end, block.cls,
                    block.saddles, block.crossings) == (
                x, x.end, summand_class(x), *cobordism._repair_costs(x))
            assert cobordism._analyse_block(x.start, x.letters) is block


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
    # scores the lower bound on it.
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
            assert (cobordism._repair_costs(x)[1]
                    == cobordism._repair_costs(mirror(x))[1])


def reference_summand_table(s):
    """Table build that analyses every class's mirror from scratch: its
    (start, end) from ``mirror`` and its interior lengths from its letters."""
    counts = ([[0] * 9 for _ in range(9)], [[0] * 9 for _ in range(9)])
    costs = ([[0] * 9 for _ in range(9)], [[0] * 9 for _ in range(9)])
    weights = Counter()
    for x in all_oriented_words(s):
        saddles, crossings = cobordism._repair_costs(x)
        cost = saddles + cobordism._CUT_SADDLES[x.end]
        for parity in (0, 1):
            step = cobordism._interior_length(x.letters, parity)
            for length in range(3):
                i = cobordism._dp_state(x.start, length)
                j = cobordism._dp_state(x.end, length + step)
                counts[parity][i][j] += 1
                costs[parity][i][j] += cost
        cls = summand_class(x)
        if cls.polarity == "minus" or crossings < 2:
            continue
        key = tuple(value for y in (x, mirror(x))
                    for value in (y.start, y.end,
                                  *(cobordism._interior_length(y.letters, p) % 3
                                    for p in (0, 1))))
        weights[key + (cls.polarity == "self_mirror",)] += crossings // 2
    return counts, costs, dict(weights)


def test_interior_length_matches_letter_scan():
    for n in range(0, 11):
        for bits in product("ab", repeat=n):
            letters = "".join(bits)
            for parity in (0, 1):
                assert cobordism._interior_length(letters, parity) == sum(
                    2 if (letter == "a") == ((parity + i) % 2 == 0) else 1
                    for i, letter in enumerate(letters))


def test_summand_table_matches_mirror_analysis():
    # s = 11 is the first table built past the block memo.
    for s in range(1, 12):
        table = cobordism._summand_table(s)
        assert ((table.counts, table.costs, table.weights)
                == reference_summand_table(s)), s


def test_large_summand_table_keeps_the_block_memo():
    # Past s = 10 the table's 3 * 2^s blocks bypass the memo, so the blocks
    # a decompose cached stay, and a second decompose analyses no block.
    word = seeded_long_words(1, seed=7, crossings=(200, 200))[0]
    rep = decompose(word, 3)
    cached = cobordism._analyse_block.cache_info()
    cobordism._summand_table(11)
    assert cobordism._analyse_block.cache_info() == cached
    again = decompose(word, 3)
    after = cobordism._analyse_block.cache_info()
    assert after.misses == cached.misses and after.currsize == cached.currsize
    assert again == rep
    assert all(x is y for x, y in zip(again.summands, rep.summands, strict=True))


def test_summand_table_rejects_mirror_crossing_mismatch(monkeypatch):
    real = cobordism.link_lemma_fix

    def lopsided(x):
        fix = real(x)
        return dataclasses.replace(fix, added_crossings=fix.added_crossings
                                   + (x.letters[0] == "a"))

    monkeypatch.setattr(cobordism, "link_lemma_fix", lopsided)
    with pytest.raises(ValueError, match="mirror"):
        average_g4_row(9, 3)


def test_mirror_crossing_check_survives_optimize_flag():
    code = ("import dataclasses\n"
            "from twobridge import cobordism\n"
            "real = cobordism.link_lemma_fix\n"
            "cobordism.link_lemma_fix = lambda x: dataclasses.replace(\n"
            "    real(x), added_crossings=real(x).added_crossings\n"
            "    + (x.letters[0] == 'a'))\n"
            "cobordism.average_g4_row(9, 3)\n")
    src = str(Path(cobordism.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr


def test_g4_work_refused_before_any_work(monkeypatch):
    def build(s):
        raise AssertionError("an over-budget mean must be refused first")

    monkeypatch.setattr(cobordism, "_summand_table", build)
    assert g4_work(2000, 4) > G4_WORK_BUDGET
    assert g4_work(1000, 3) <= G4_WORK_BUDGET
    start = time.perf_counter()
    for c, s in ((2000, 4), (80, 39)):
        with pytest.raises(BudgetError, match="refusing"):
            average_g4_row(c, s)
    assert time.perf_counter() - start < 1


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
