"""Tests for word enumeration, counting formulas, and the braid bijection."""

import pytest
from hypothesis import given, strategies as st

from twobridge import words as W
from twobridge.diagram import signature

# Published tables list these words for small crossing numbers.
T3 = ["+--+"]
T4 = ["+-+-"]
T5 = ["+--+--+", "+--++-+", "+-++--+"]
T6 = ["+-+-++-", "+-+--+-", "+--++--++-", "+-++-+-", "+--+-+-"]


def runs(word):
    """Split a sign string into maximal runs, as (sign, exponent) pairs."""
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        out.append((word[i], j - i))
        i = j
    return out


def exponents(word):
    """Run lengths of a validated word (signs are implicit by position)."""
    return [e for _, e in runs(word)]


def exponent_key(word):
    return tuple(exponents(word))


# ------------------------------------------------- loop-based string oracles
#
# The per-position loops the string-method versions in `twobridge.words`
# replaced; the fast versions must agree with them exactly.


def loop_word_from_interior_bits(c, mask):
    parts = ["+"]
    for i in range(c - 2):
        e = 1 + ((mask >> (c - 3 - i)) & 1)
        parts.append(("-" if i % 2 == 0 else "+") * e)
    parts.append("-" if c % 2 == 0 else "+")
    return "".join(parts)


def loop_palindromic_words(c):
    n = c - 2
    half = (n + 1) // 2
    for hm in range(1 << half):
        mask = 0
        for i in range(n):
            j = min(i, n - 1 - i)
            bit = (hm >> (half - 1 - j)) & 1
            mask |= bit << (n - 1 - i)
        if (c + mask.bit_count()) % 3 == 1:
            yield loop_word_from_interior_bits(c, mask)


def runs_validate_word(word):
    if not word or set(word) - {"+", "-"}:
        raise ValueError("alphabet")
    rr = runs(word)
    if len(rr) < 3 or word[0] != "+" or rr[0][1] != 1 or rr[-1][1] != 1:
        raise ValueError("shape")
    if any(e > 2 for _, e in rr) or len(word) % 3 != 1:
        raise ValueError("exponents")
    return len(rr)


def runs_to_braid(word):
    runs_validate_word(word)
    return "".join("a" if (s == "+") == (e == 1) else "b" for s, e in runs(word))


def _outcome(fn, word):
    try:
        return fn(word)
    except ValueError:
        return ValueError


def test_word_from_interior_bits_matches_loop():
    for c in range(3, 17):
        for mask in range(1 << (c - 2)):
            assert W.word_from_interior_bits(c, mask) == \
                loop_word_from_interior_bits(c, mask), (c, mask)


def test_palindromic_enumeration_matches_mask_loop():
    for c in range(3, 25):
        assert list(W.enumerate_palindromic_words(c)) == \
            list(loop_palindromic_words(c)), c


_RUN_WORDS = st.lists(st.integers(1, 3), min_size=1, max_size=12).map(
    lambda es: "".join("+-"[i % 2] * e for i, e in enumerate(es)))


@given(_RUN_WORDS | st.text(alphabet="+-", max_size=24) | st.text(alphabet="+-x", max_size=8))
def test_validate_and_braid_match_run_loop(word):
    assert _outcome(W.validate_word, word) == _outcome(runs_validate_word, word)
    assert _outcome(W.to_braid, word) == _outcome(runs_to_braid, word)


# ---------------------------------------------------------------- enumeration


def test_enumerate_base_cases():
    assert list(W.enumerate_words(3)) == T3
    assert list(W.enumerate_words(4)) == T4
    assert sorted(W.enumerate_words(5)) == sorted(T5)
    assert sorted(W.enumerate_words(6)) == sorted(T6)


def test_enumerate_is_lexicographic_on_exponents():
    for c in (5, 8, 11):
        keys = [exponent_key(w) for w in W.enumerate_words(c)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_enumerate_words_are_valid():
    for c in range(3, 12):
        for w in W.enumerate_words(c):
            assert W.validate_word(w) == c
            assert len(w) % 3 == 1


def test_enumerate_rejects_small_c():
    with pytest.raises(ValueError):
        list(W.enumerate_words(2))
    with pytest.raises(ValueError):
        W.word_count(2)
    with pytest.raises(ValueError):
        W.knot_count(0)


@pytest.mark.parametrize("bad", ["", "-+-+", "+---+", "+-+", "++--+", "+--+-", "ab"])
def test_validate_rejects_malformed(bad):
    with pytest.raises(ValueError):
        W.validate_word(bad)


# ------------------------------------------------------------------- counting


def test_word_count_examples():
    assert W.word_count(3) == 1
    assert W.word_count(6) == 5
    assert W.word_count(12) == (2**10 - 1) // 3 == 341


def test_jacobsthal_pairs_sum_to_powers_of_two():
    for n in range(0, 40):
        assert W.jacobsthal(n) + W.jacobsthal(n + 1) == 2**n


def test_counts_match_enumeration_to_c20():
    for c in range(3, 21):
        n = sum(1 for _ in W.enumerate_words(c))
        assert n == W.word_count(c) == W.jacobsthal(c - 2)


def test_palindrome_count_examples_and_enumeration():
    assert W.palindrome_count(6) == 1
    assert W.palindrome_count(3) == 1
    assert W.palindrome_count(12) == (2**5 + 1) // 3 == 11
    for c in range(3, 16):
        by_filter = [w for w in W.enumerate_words(c) if W.is_palindromic(w)]
        assert len(by_filter) == W.palindrome_count(c)
        assert sorted(by_filter) == sorted(W.enumerate_palindromic_words(c))


def test_palindromic_enumeration_fast_path_large_c():
    for c in (19, 20):
        pal = list(W.enumerate_palindromic_words(c))
        assert len(pal) == W.palindrome_count(c)
        assert all(W.is_palindromic(w) for w in pal)


def test_knot_count_examples():
    assert W.knot_count(3) == 1
    assert W.knot_count(5) == 2
    assert W.knot_count(6) == 3
    assert W.knot_count(8) == 12


def test_double_counting_identity():
    for c in range(3, 21):
        assert 2 * W.knot_count(c) == W.word_count(c) + W.palindrome_count(c)
        assert W.count_report(c).knots == W.knot_count(c)


def test_is_palindromic_examples():
    assert W.is_palindromic("+--++--++-")
    assert not W.is_palindromic("+--++-+")
    assert W.is_palindromic("+--+")


def test_palindromic_iff_exponent_vector_palindrome():
    for c in range(3, 13):
        for w in W.enumerate_words(c):
            e = exponents(w)
            assert W.is_palindromic(w) == (e == e[::-1])


# ------------------------------------------------------------------ to braids


def test_to_braid_examples():
    assert W.to_braid("+--++--++-") == "aababb"
    assert W.to_braid("+--+") == "aaa"
    assert W.to_braid("+-+-") == "abab"


def test_braid_starts_with_a_and_parity_of_last_letter():
    for c in range(3, 11):
        for w in W.enumerate_words(c):
            z = W.to_braid(w)
            assert len(z) == c
            assert z[0] == "a"
            assert (z[-1] == "a") == (c % 2 == 1)


# ------------------------------------------------------------------ bijection


def test_bijection_f_examples():
    assert W.bijection_f("+--+-+-+--++-++-") == "aababaabb"
    assert W.bijection_f("+--+") == "a"
    assert W.bijection_f("+-+-") == "b"


def test_bijection_f_inverse_examples():
    assert W.bijection_f_inverse("aba") == "+--++--++-"
    assert W.bijection_f_inverse("aaa") == "+--+--+"
    assert W.bijection_f_inverse("b") == "+-+-"


@pytest.mark.parametrize("m", range(1, 9))
def test_bijection_roundtrip_exhaustive(m):
    # f maps T(2m+1) u T(2m+2) onto all 2^(2m-1) braid words of length 2m-1.
    words = list(W.enumerate_words(2 * m + 1)) + list(W.enumerate_words(2 * m + 2))
    images = {W.bijection_f(w) for w in words}
    assert len(images) == len(words) == 2 ** (2 * m - 1)
    assert all(len(z) == 2 * m - 1 for z in images)
    for w in words:
        assert W.bijection_f_inverse(W.bijection_f(w)) == w


@given(st.text(alphabet="ab", min_size=1, max_size=17).filter(lambda z: len(z) % 2 == 1))
def test_bijection_inverse_roundtrip_property(z):
    w = W.bijection_f_inverse(z)
    c = W.validate_word(w)
    assert c in (len(z) + 2, len(z) + 3)
    assert W.bijection_f(w) == z


def test_bijection_f_inverse_rejects_even_length():
    with pytest.raises(ValueError):
        W.bijection_f_inverse("ab")
    with pytest.raises(ValueError):
        W.bijection_f_inverse("ax" + "a")


# ------------------------------------------------------------------ partition
#
# The partition of T(c) that proves the two-row recursion of the signature
# histogram.  Final-three-run patterns for the classes, keyed by the pair
# (eps_{c-2}, eps_{c-1}); eps_c is always 1.  The replacement glues a
# shorter tail in place of those runs, giving a bijection of class i onto:
# classes 2 and 3 with c-1 crossings (i=1), classes 1 and 4 with c-1
# crossings (i=2), or all words with c-2 crossings (i=3 and i=4).
_CLASS_BY_PAIR = {(1, 1): 1, (2, 2): 2, (1, 2): 3, (2, 1): 4}
_TAIL_ODD = {1: ("+-+", "++-"), 2: ("++--+", "+-"), 3: ("+--+", "+"), 4: ("++-+", "+")}
_TAIL_EVEN = {1: ("-+-", "--+"), 2: ("--++-", "-+"), 3: ("-++-", "-"), 4: ("--+-", "-")}


def partition_class(word):
    """Classify a word by its final 3 runs and apply the tail replacement.

    Returns (i, shorter_word) with i in {1,2,3,4}.  Needs c >= 5 so that
    the final three runs do not overlap the fixed first run.
    """
    c = W.validate_word(word)
    if c < 5:
        raise ValueError(f"partition classes need c >= 5, got {c}")
    e = exponents(word)
    i = _CLASS_BY_PAIR[(e[-3], e[-2])]
    tail, repl = (_TAIL_ODD if c % 2 == 1 else _TAIL_EVEN)[i]
    if not word.endswith(tail):
        raise ValueError(f"{word} does not end in the class-{i} tail {tail}")
    return i, word[: -len(tail)] + repl


def test_partition_class_examples():
    i, shorter = partition_class("+--++--++-")
    assert i == 2
    assert shorter == "+--++-+"
    i, shorter = partition_class("+--+--+")
    assert i == 3
    assert shorter == "+--+"


def test_partition_class_rejects_small_c():
    with pytest.raises(ValueError):
        partition_class("+--+")


def class_of(word):
    e = exponents(word)
    return _CLASS_BY_PAIR[(e[-3], e[-2])]


@pytest.mark.parametrize("c", range(5, 15))
def test_partition_shifts_signature(c):
    # The tail replacement moves the signature by -d in classes 1-3 and
    # keeps it in class 4, with d = 2 for even c and -2 for odd c: with the
    # bijections above, this is the two-row recursion of the histogram.
    d = 2 if c % 2 == 0 else -2
    for w in W.enumerate_words(c):
        i, shorter = partition_class(w)
        assert signature(w) - signature(shorter) == (0 if i == 4 else -d), (w, i)


@pytest.mark.parametrize("c", range(5, 13))
def test_partition_is_bijective_onto_targets(c):
    buckets = {1: [], 2: [], 3: [], 4: []}
    for w in W.enumerate_words(c):
        i, shorter = partition_class(w)
        W.validate_word(shorter)
        buckets[i].append(shorter)
    assert sum(map(len, buckets.values())) == W.word_count(c)
    # Classes 1 and 2 drop one crossing and land in classes {2,3} and {1,4};
    # classes 3 and 4 drop two crossings and land onto all of T(c-2).
    prev = list(W.enumerate_words(c - 1))
    assert sorted(buckets[1]) == sorted(w for w in prev if class_of(w) in (2, 3))
    assert sorted(buckets[2]) == sorted(w for w in prev if class_of(w) in (1, 4))
    prev2 = sorted(W.enumerate_words(c - 2))
    assert sorted(buckets[3]) == prev2
    assert sorted(buckets[4]) == prev2


@given(st.integers(min_value=5, max_value=14), st.integers(min_value=0))
def test_partition_reduces_crossing_number(c, seed):
    ws = list(W.enumerate_words(c))
    w = ws[seed % len(ws)]
    i, shorter = partition_class(w)
    drop = 1 if i in (1, 2) else 2
    assert W.validate_word(shorter) == c - drop
