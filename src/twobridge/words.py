"""Enumeration and transformation of 2-bridge knot words.

A *word* here is an ASCII string over ``{+,-}`` made of ``c`` maximal runs
of equal signs.  The runs alternate sign starting with ``+``, every run has
length (exponent) 1 or 2, the first and last runs have length 1, and the
total string length is congruent to 1 mod 3.  Each such word encodes an
alternating 3-strand plat presentation of a 2-bridge knot with ``c``
crossings; every 2-bridge knot with crossing number ``c`` arises from one
or two of them (two iff the word is not palindromic).

Braid words are strings over ``{a,b}`` where ``a`` is a lower-row crossing
(sigma_1) and ``b`` an upper-row crossing (sigma_2^-1).
"""

from __future__ import annotations

from typing import Iterator

_SWAP_SIGNS = str.maketrans("+-", "-+")
_SWAP_LETTERS = str.maketrans("ab", "ba")
# Single-sign runs after the double runs are replaced: (+)^1 -> a, (-)^1 -> b.
_RUN_LETTERS = str.maketrans("+-", "ab")
# Hex digit -> its four interior runs, signs "-+-+", exponent 1 + bit.
_HEX_RUNS = str.maketrans({
    f"{v:x}": "".join(sign * (1 + ((v >> (3 - i)) & 1))
                      for i, sign in enumerate("-+-+"))
    for v in range(16)
})


def validate_word(word: str) -> int:
    """Check word validity and return its crossing number c.

    Raises ValueError if the string is not a valid word: wrong alphabet,
    fewer than 3 runs, a run longer than 2, first/last run not single,
    wrong starting sign, or total length not 1 mod 3.  (Alternation of
    signs is automatic once the alphabet check passes, since runs are
    maximal.)
    """
    # Runs are maximal, so c is one more than the number of sign changes.
    if not word or word.strip("+-"):
        raise ValueError(f"word must be a nonempty string over +/-: {word!r}")
    c = 1 + word.count("+-") + word.count("-+")
    if c < 3:
        raise ValueError(f"word needs at least 3 runs, got {c}: {word!r}")
    if word[0] != "+":
        raise ValueError(f"word must start with +: {word!r}")
    if word[1] == word[0] or word[-1] == word[-2]:
        raise ValueError(f"first and last runs must have length 1: {word!r}")
    if "+++" in word or "---" in word:
        raise ValueError(f"run exponents must be 1 or 2: {word!r}")
    if len(word) % 3 != 1:
        raise ValueError(f"length must be 1 mod 3, got {len(word)}: {word!r}")
    return c


def word_from_interior_bits(c: int, mask: int) -> str:
    """Word whose interior exponents are encoded by the bits of mask.

    Exponent eps_{2+i} is 1 + bit (c-3-i), i.e. the most significant bit
    is eps_2, so increasing mask order is lexicographic order of exponent
    sequences.  The mask is kept by the enumerators iff the resulting
    length c + popcount(mask) is 1 mod 3.

    Each hex digit of the mask holds four interior exponents that start on
    a '-' run, so the interior is the mask's hex string translated digit
    by digit; zero bits pad the mask to whole digits, and the single-sign
    runs they produce are cut off again.
    """
    n = c - 2
    pad = -n % 4
    interior = format(mask << pad, f"0{(n + pad) // 4}x").translate(_HEX_RUNS)
    return "+" + interior[:len(interior) - pad] + ("-" if c % 2 == 0 else "+")


def enumerate_words(c: int) -> Iterator[str]:
    """Yield every word with c crossings, in lexicographic exponent order.

    The interior exponents eps_2..eps_{c-1} range over {1,2}; a choice is
    kept iff the resulting length c + (#exponents equal to 2) is 1 mod 3.
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    for mask in range(1 << (c - 2)):
        if (c + mask.bit_count()) % 3 == 1:
            yield word_from_interior_bits(c, mask)


def enumerate_palindromic_words(c: int) -> Iterator[str]:
    """Yield only the palindromic words with c crossings.

    A word is palindromic iff its exponent vector is a palindrome, so it
    suffices to choose the first half of the interior exponents; this runs
    in O(2^(c/2)) instead of O(2^c).
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    n = c - 2                   # interior positions
    half = (n + 1) // 2         # free positions
    for hm in range(1 << half):
        bits = format(hm, f"0{half}b")
        bits += bits[:n - half][::-1]
        if (c + bits.count("1")) % 3 == 1:
            yield word_from_interior_bits(c, int(bits, 2))


def jacobsthal(n: int) -> int:
    """n-th Jacobsthal number (2^n - (-1)^n) / 3: 0, 1, 1, 3, 5, 11, ..."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return (2**n - (-1) ** n) // 3


def word_count(c: int) -> int:
    """|T(c)| = Jacobsthal(c-2) = (2^(c-2) - (-1)^c) / 3."""
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    return jacobsthal(c - 2)


def is_palindromic(word: str) -> bool:
    """True iff the word equals its reverse (odd c) or its sign-swapped
    reverse (even c)."""
    c = validate_word(word)
    rev = word[::-1]
    return word == rev if c % 2 == 1 else word == rev.translate(_SWAP_SIGNS)


def palindrome_count(c: int) -> int:
    """Number of palindromic words with c crossings: Jacobsthal(floor((c-1)/2))."""
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    return jacobsthal((c - 1) // 2)


def knot_count(c: int) -> int:
    """Number of distinct 2-bridge knots with crossing number c.

    Ernst-Sumners count, split by c mod 4; always equals
    (word_count(c) + palindrome_count(c)) / 2 since a knot is represented
    by two words, or one when that word is palindromic.
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    r = c % 4
    if r == 0:
        return (2 ** (c - 3) + 2 ** ((c - 4) // 2)) // 3
    if r == 1:
        return (2 ** (c - 3) + 2 ** ((c - 3) // 2)) // 3
    if r == 2:
        return (2 ** (c - 3) + 2 ** ((c - 4) // 2) - 1) // 3
    return (2 ** (c - 3) + 2 ** ((c - 3) // 2) + 1) // 3


class CountReport:
    """Word, palindrome and knot counts for one crossing number."""

    __slots__ = ("c", "words", "palindromes", "knots")

    def __init__(self, c: int, words: int, palindromes: int, knots: int) -> None:
        if 2 * knots != words + palindromes:
            raise ValueError(
                f"2 * knots ({2 * knots}) != words + palindromes "
                f"({words + palindromes}) at c={c}")
        self.c, self.words, self.palindromes, self.knots = c, words, palindromes, knots


def count_report(c: int) -> CountReport:
    """Closed-form counts for crossing number c (no enumeration)."""
    return CountReport(c, word_count(c), palindrome_count(c), knot_count(c))


def to_braid(word: str) -> str:
    """Map a word to its braid word, one letter per run.

    Runs (+)^1 and (-)^2 become 'a' (a lower crossing, sigma_1); runs
    (-)^1 and (+)^2 become 'b' (an upper crossing, sigma_2^-1).  The
    output has exactly c letters.
    """
    validate_word(word)
    # Runs are at most 2 long, so each "++" or "--" is a whole run.
    return word.replace("++", "b").replace("--", "a").translate(_RUN_LETTERS)


def swap_braid(z: str) -> str:
    """Exchange the two crossing rows: a <-> b."""
    return z.translate(_SWAP_LETTERS)


def is_palindromic_type(letters: str) -> bool:
    """True when a block's letters coincide with their own mirror letters."""
    return swap_braid(letters[::-1]) == letters


def validate_braid(z: str) -> None:
    if set(z) - {"a", "b"}:
        raise ValueError(f"braid word must be over a/b: {z!r}")


def bijection_f(word: str) -> str:
    """Crossings 2..2m of the braid word, where c is 2m+1 or 2m+2.

    This is a bijection from the words with 2m+1 or 2m+2 crossings onto
    the 2^(2m-1) braid words of length 2m-1: the first crossing is always
    'a', and the trailing crossings are forced by the length-mod-3
    constraint (see bijection_f_inverse).
    """
    c = validate_word(word)
    m = (c - 1) // 2
    return to_braid(word)[1 : 2 * m]


def bijection_f_inverse(z: str) -> str:
    """Inverse of bijection_f: rebuild the unique word mapping onto z.

    Interior runs alternate sign starting at '-', one run per letter
    (at a '-' run: a -> "--", b -> "-"; at a '+' run: a -> "+",
    b -> "++").  The interior length L mod 3 then forces the ending:
    L=2 -> "+<interior>+" (c = 2m+1), L=1 -> "+<interior>+-" and
    L=0 -> "+<interior>++-" (both c = 2m+2).
    """
    validate_braid(z)
    if len(z) % 2 != 1:
        raise ValueError(f"braid word must have odd length, got {len(z)}")
    parts = []
    for i, letter in enumerate(z):
        if i % 2 == 0:
            parts.append("--" if letter == "a" else "-")
        else:
            parts.append("+" if letter == "a" else "++")
    interior = "".join(parts)
    suffix = {2: "+", 1: "+-", 0: "++-"}[len(interior) % 3]
    return "+" + interior + suffix

