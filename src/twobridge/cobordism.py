"""Saddle-move decomposition of word diagrams and 4-genus upper bounds.

A word diagram on braid letters z_1 ... z_{c-1} is cut into blocks of s
consecutive crossings.  Saddle moves placed after crossings 1 + k*s
(0 <= k <= t, where t = (2m-1) // s) turn the diagram into a connected
sum of t "summands" plus a leftover fragment: crossing 1 disappears by a
Reidemeister I move and the final r - 1 crossings stay behind as a
remainder.  Each summand is an oriented word: a block of letters together
with the orientation state of the strands at its left cut.

Summands that close up to two-component links are repaired by one to
three extra saddle moves (a twist near the central crossing, or a
strand-slide plus twist plus crossing change when the middle orientation
state blocks a direct twist).  Mirror-image summand pairs cancel: their
connected sum is slice, so only the residual multiset of unmatched
summand classes contributes crossings to the 4-genus bound.  Every saddle
move contributes genus 1/2 and each surviving knot with n crossings
contributes at most floor(n / 2).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    CROSSING_PAIR,
    PLAT_RIGHT,
    closure_components,
    orientation_after,
    signature,
    strand_permutation,
)
from .errors import BudgetError
from .words import enumerate_words, swap_braid, to_braid, validate_braid, validate_word

# Flipping a plat diagram top to bottom exchanges orientation states 1 and 3.
_FLIP = {1: 3, 2: 2, 3: 1}

# Closing off a block cut out of a word diagram: the orientation state at a
# cut determines which pair of endpoints is capped and which strand runs
# through to the around arc.  Left and right ends differ because the single
# leftward strand sits at different heights.
_LEFT_CLOSURE = {1: ((1, 2), 3), 2: ((1, 2), 3), 3: ((2, 3), 1)}
_RIGHT_CLOSURE = {1: ((1, 2), 3), 2: ((2, 3), 1), 3: ((2, 3), 1)}


@dataclass(frozen=True)
class OrientedWord:
    """A braid-letter block together with the orientation state at its left cut."""

    start: int
    letters: str

    def __post_init__(self) -> None:
        if self.start not in (1, 2, 3):
            raise ValueError(f"orientation state must be 1, 2 or 3, got {self.start}")
        if self.letters:
            validate_braid(self.letters)

    @property
    def end(self) -> int:
        return orientation_after(self.start, self.letters)

    def serialize(self) -> str:
        return f"o{self.start}:{self.letters}"


def mirror(x: OrientedWord) -> OrientedWord:
    """Mirror image of an oriented word.

    Reading the mirrored block from its own left cut reverses the letters,
    swaps a <-> b, and starts from the top-bottom flip of the original end
    state.  This makes mirror an involution on oriented words.
    """
    return OrientedWord(_FLIP[x.end], swap_braid(x.letters[::-1]))


def is_palindromic_type(letters: str) -> bool:
    """True when a block's letters coincide with their own mirror letters."""
    return swap_braid(letters[::-1]) == letters


@dataclass(frozen=True)
class SummandClass:
    key: str
    polarity: str  # "plus" | "minus" | "self_mirror"


def summand_class(x: OrientedWord) -> SummandClass:
    """Mirror class of a summand: a palindromic-type block labels itself,
    any other block shares a label with its mirror (lexicographically
    smaller serialization wins) and is "plus" when it holds that label."""
    if is_palindromic_type(x.letters):
        return SummandClass(x.serialize(), "self_mirror")
    own = x.serialize()
    other = mirror(x).serialize()
    if own == other:
        raise ValueError(f"summand {own} equals its mirror but is not "
                         "palindromic-type")
    return SummandClass(min(own, other), "plus" if own < other else "minus")


def component_count(x: OrientedWord) -> int:
    """Number of components (1 or 2) of a summand closed at both cuts."""
    perm = strand_permutation(x.letters)
    return closure_components(_LEFT_CLOSURE[x.start], perm, _RIGHT_CLOSURE[x.end])


def remainder_component_count(start: int, letters: str, closure: str) -> int:
    """Components of the remainder block: cut cap on the left, original plat
    closure (A or B) on the right."""
    perm = strand_permutation(letters)
    return closure_components(_LEFT_CLOSURE[start], perm, PLAT_RIGHT[closure])


@dataclass(frozen=True)
class LinkFix:
    """Repair of a two-component summand by saddle moves.

    ``letters`` carries any inserted twist crossing.  ``marker`` is set only
    for the strand-slide repair: it records the splice position where the
    outer strands 1 and 3 are swapped by a slide + twist + crossing change
    (three saddle moves, three extra crossings) that no single braid letter
    can express.
    """

    kind: str  # "double" | "twist-left" | "twist-right" | "twist-middle" | "rii-twist"
    letters: str
    marker: int | None
    saddles: int
    added_crossings: int


def _fix_permutation(fix: LinkFix) -> tuple[int, int, int]:
    if fix.marker is None:
        return strand_permutation(fix.letters)
    left = strand_permutation(fix.letters[: fix.marker])
    right = strand_permutation(fix.letters[fix.marker:])
    return tuple(right[_FLIP[left[q - 1]] - 1] for q in (1, 2, 3))


def link_lemma_fix(x: OrientedWord) -> LinkFix:
    """Turn a two-component summand into a knot with 1 or 3 saddle moves.

    For an odd-length block the repair happens at the central crossing: if
    the leftward strand misses that crossing's pair the crossing is doubled,
    otherwise a twist crossing on the opposite pair is inserted just before
    or just after it.  For an even-length block the repair happens at the
    middle cut: a twist on the pair away from the leftward strand when that
    strand is outermost, and a strand slide (three saddles) when it runs
    through the middle.
    """
    if component_count(x) != 1 + 1:
        raise ValueError("link repair applies only to two-component summands")
    z = x.letters
    s = len(z)
    if s < 1:
        raise ValueError("link repair needs a non-empty summand")
    if s % 2 == 1:
        h = (s - 1) // 2
        pair = CROSSING_PAIR[z[h]]
        before = orientation_after(x.start, z[:h])
        twist = "a" if pair == (1, 2) else "b"
        if before not in pair:
            fix = LinkFix("double", z[: h + 1] + z[h] + z[h + 1:], None, 1, 1)
        elif before != 2:
            fix = LinkFix("twist-left", z[:h] + twist + z[h:], None, 1, 1)
        else:
            fix = LinkFix("twist-right", z[: h + 1] + twist + z[h + 1:], None, 1, 1)
    else:
        h = s // 2
        middle = orientation_after(x.start, z[:h])
        if middle == 1:
            fix = LinkFix("twist-middle", z[:h] + "a" + z[h:], None, 1, 1)
        elif middle == 3:
            fix = LinkFix("twist-middle", z[:h] + "b" + z[h:], None, 1, 1)
        else:
            fix = LinkFix("rii-twist", z, h, 3, 3)
    perm = _fix_permutation(fix)
    end = perm[x.start - 1] if fix.marker is not None else orientation_after(x.start, fix.letters)
    # The repair never moves the strands at the cuts, so the end state and
    # therefore the closure caps are unchanged.
    if end != x.end:
        raise ValueError(f"{fix.kind} repair of {x.serialize()} moved the end "
                         f"state {x.end} -> {end}")
    if closure_components(_LEFT_CLOSURE[x.start], perm, _RIGHT_CLOSURE[end]) != 1:
        raise ValueError(f"{fix.kind} repair of {x.serialize()} left a link")
    return fix


def cancel_mirrors(summands: list[OrientedWord] | tuple[OrientedWord, ...]
                   ) -> tuple[int, tuple[str, ...]]:
    """Cancel mirror-image summand pairs; return (count, residual keys)."""
    return _cancel(Counter(map(summand_class, summands)))


def _cancel(classes: Counter[SummandClass]) -> tuple[int, tuple[str, ...]]:
    """Cancel mirror pairs within a multiset of summand classes.

    A mirror pair's connected sum is slice, so opposite polarities within a
    class cancel and the class survives |plus - minus| times.  A
    palindromic-type oriented word is its own potential partner: two equal
    copies cancel, so it survives its count mod 2.
    """
    displacement: Counter[str] = Counter()
    parity: Counter[str] = Counter()
    for cls, n in classes.items():
        if cls.polarity == "self_mirror":
            parity[cls.key] ^= n & 1
        else:
            displacement[cls.key] += n if cls.polarity == "plus" else -n
    residual: list[str] = []
    for key, value in displacement.items():
        residual.extend([key] * abs(value))
    for key, bit in parity.items():
        if bit:
            residual.append(key)
    residual.sort()
    return len(residual), tuple(residual)


@dataclass(frozen=True)
class DecompositionReport:
    """Everything the saddle-move pipeline produces for one word."""

    word: str
    s: int
    t: int
    r: int
    cut_states: tuple[int, ...]
    cut_saddles: int
    summands: tuple[OrientedWord, ...]
    link_fix_saddles: int
    remainder_letters: str
    remainder_crossings: int
    remainder_is_link: bool
    remainder_fix_saddles: int
    remaining_remainder_crossings: int
    residual: tuple[str, ...]
    residual_crossings: tuple[int, ...]
    g4_lower: int
    g4_upper: int

    def __post_init__(self) -> None:
        if len(self.summands) != self.t:
            raise ValueError(f"{len(self.summands)} summands, expected t={self.t}")
        if self.remainder_crossings != self.r - 1:
            raise ValueError(f"remainder has {self.remainder_crossings} "
                             f"crossings, expected r-1={self.r - 1}")
        if self.cut_saddles > 2 * self.t + 2:
            raise ValueError(f"{self.cut_saddles} cut saddles exceed "
                             f"2t+2={2 * self.t + 2}")
        if self.g4_lower > self.g4_upper:
            raise ValueError(f"g4 interval [{self.g4_lower}, {self.g4_upper}] "
                             "is empty")


def decompose(word: str, s: int) -> DecompositionReport:
    """Run the full saddle-move pipeline on one word at block size s."""
    c = validate_word(word)
    m = (c - 1) // 2
    j = c - 2 * m
    if not 1 <= s <= 2 * m - 1:
        raise ValueError(f"block size must satisfy 1 <= s <= {2 * m - 1}, got {s}")
    braid = to_braid(word)
    core = braid[1:2 * m]
    t = (2 * m - 1) // s
    r = c - s * t
    if not 0 <= r - 1 - j <= s - 1:
        raise ValueError(f"remainder r={r} out of range for s={s}, j={j}")

    state = 1
    cut_states = [state]
    summands: list[OrientedWord] = []
    for k in range(t):
        block = core[k * s:(k + 1) * s]
        summands.append(OrientedWord(state, block))
        state = orientation_after(state, block)
        cut_states.append(state)
    cut_saddles = sum(2 if q == 2 else 1 for q in cut_states)

    # Mirror class and link repair of each distinct oriented word, worked
    # out once and charged per occurrence.  A class's residual copies cost
    # the repaired crossing count of its first summand (mirrors cost the
    # same).
    classes: Counter[SummandClass] = Counter()
    crossings: dict[str, int] = {}
    link_fix_saddles = 0
    for x, n in Counter(summands).items():
        cls = summand_class(x)
        classes[cls] += n
        added = 0
        if component_count(x) == 2:
            fix = link_lemma_fix(x)
            link_fix_saddles += n * fix.saddles
            added = fix.added_crossings
        crossings.setdefault(cls.key, len(x.letters) + added)

    remainder = braid[1 + t * s:]
    if not len(remainder) == r - 1 >= 1:
        raise ValueError(f"remainder {remainder!r} should hold r-1={r - 1} >= 1 "
                         "letters")
    closure = "A" if c % 2 == 1 else "B"
    remainder_is_link = remainder_component_count(state, remainder, closure) == 2
    if remainder_is_link:
        # Undo the remainder's final twist crossing: one saddle move removes
        # one crossing and reconnects the two components.
        remainder_fix_saddles = 1
        remaining = r - 2
        if remainder_component_count(state, remainder[:-1], closure) != 1:
            raise ValueError(f"undoing the last twist of {remainder!r} left a link")
    else:
        remainder_fix_saddles = 0
        remaining = r - 1

    _, residual = _cancel(classes)
    residual_crossings = tuple(crossings[key] for key in residual)

    total_saddles = cut_saddles + link_fix_saddles + remainder_fix_saddles
    # Knot-to-knot cobordisms use an even number of saddle moves.
    if total_saddles % 2:
        raise ValueError(f"odd saddle count {total_saddles} for {word}")
    upper = total_saddles // 2
    upper += sum(n // 2 for n in residual_crossings)
    upper += remaining // 2
    lower = abs(signature(word)) // 2
    return DecompositionReport(
        word=word, s=s, t=t, r=r,
        cut_states=tuple(cut_states), cut_saddles=cut_saddles,
        summands=tuple(summands), link_fix_saddles=link_fix_saddles,
        remainder_letters=remainder, remainder_crossings=r - 1,
        remainder_is_link=remainder_is_link,
        remainder_fix_saddles=remainder_fix_saddles,
        remaining_remainder_crossings=remaining,
        residual=residual, residual_crossings=residual_crossings,
        g4_lower=lower, g4_upper=upper,
    )


def g4_interval(word: str, s: int) -> tuple[int, int]:
    """(|signature| / 2, saddle-move upper bound) for one word."""
    report = decompose(word, s)
    return report.g4_lower, report.g4_upper


def choose_block_size(c: int) -> int:
    """ceil(log10 c), computed exactly from the decimal digit count and
    clamped to the valid block-size range for crossing number c."""
    if c < 3:
        raise ValueError(f"crossing number must be at least 3, got {c}")
    digits = len(str(c))
    s = digits - 1 if c == 10 ** (digits - 1) else digits
    m = (c - 1) // 2
    return max(1, min(s, 2 * m - 1))


def expression_upper_bound(c: int, s: int) -> float:
    """Closed-form bound (t+1) + 3t/2 + 3(s+3)sqrt(2^s t)/2 + (s+3)2^(s/2)/2
    + (r-1)/2 on the expected 4-genus at crossing number c, block size s."""
    m = (c - 1) // 2
    t = (2 * m - 1) // s
    r = c - s * t
    return ((t + 1) + 1.5 * t + 1.5 * (s + 3) * math.sqrt(2 ** s * t)
            + 0.5 * (s + 3) * 2 ** (s / 2) + 0.5 * (r - 1))


def log10_upper_bound(c: int) -> float:
    """The headline sublinear bound 9.75 c / log10(c)."""
    return 9.75 * c / math.log10(c)


@dataclass(frozen=True)
class AverageRow:
    c: int
    words: int
    mean_upper: Fraction
    expression_bound: float
    log10_bound: float

    @property
    def below_expression(self) -> bool:
        return self.mean_upper <= self.expression_bound

    @property
    def below_log10(self) -> bool:
        return self.mean_upper <= self.log10_bound


@dataclass(frozen=True)
class AverageG4Report:
    m: int
    s: int
    rows: tuple[AverageRow, AverageRow]
    overall_mean: Fraction


def average_g4_row(c: int, s: int) -> AverageRow:
    """Mean saddle-move upper bound over T(c), with the closed-form bounds."""
    if c - 2 > 18:
        raise BudgetError(
            f"averaging over T({c}) walks 2^{c - 2} exponent masks; "
            "refusing above 2^18")
    total = 0
    count = 0
    for word in enumerate_words(c):
        total += decompose(word, s).g4_upper
        count += 1
    return AverageRow(c, count, Fraction(total, count),
                      expression_upper_bound(c, s), log10_upper_bound(c))


def average_g4_bound(m: int, s: int) -> AverageG4Report:
    """Average the saddle-move upper bound over T(2m+1) and T(2m+2)."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    rows = tuple(average_g4_row(c, s) for c in (2 * m + 1, 2 * m + 2))
    total = sum(row.mean_upper * row.words for row in rows)
    count = sum(row.words for row in rows)
    return AverageG4Report(m, s, rows, Fraction(total, count))
