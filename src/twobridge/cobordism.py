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

Each oriented block is analysed once per process.  ``_analyse_block`` is a
``functools.lru_cache`` memo keyed by (start state, letters) and bounded at
2^12 records, enough for every block with s <= 10.  It holds only results
of pure functions of its key: the block's ``OrientedWord``, end state,
mirror class and link repair.  A check that raises caches nothing.
``decompose`` reads every block from it, and so does the mean DP's table
for s <= 10; a larger table analyses its blocks past the memo.

The mean of that bound over T(c) comes from one transfer dynamic program
over the word cores, with no enumeration (see ``average_g4_row``), within
``budget.check_g4``; its residual term reuses the summand walk's
displacement-law DP, ``markov.displacement_laws``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import budget
from .diagram import (CROSSING_PAIR, PLAT_RIGHT, S3, STATE_AFTER, closure_components,
                      metrics_for_braid, s3_index)
from .markov import displacement_laws, residual_count
from .words import (is_palindromic_type, swap_braid, to_braid, validate_braid,
                    word_count)

# Flipping a plat diagram top to bottom exchanges orientation states 1 and 3.
_FLIP = {1: 3, 2: 2, 3: 1}

# Closing off a block cut out of a word diagram: the orientation state at a
# cut determines which pair of endpoints is capped and which strand runs
# through to the around arc.  Left and right ends differ because the single
# leftward strand sits at different heights.
_LEFT_CLOSURE = {1: ((1, 2), 3), 2: ((1, 2), 3), 3: ((2, 3), 1)}
_RIGHT_CLOSURE = {1: ((1, 2), 3), 2: ((2, 3), 1), 3: ((2, 3), 1)}

# Saddle moves at a cut, by its orientation state: two where the leftward
# strand runs through the middle, one elsewhere.
_CUT_SADDLES = {1: 1, 2: 2, 3: 1}

# Components (1 or 2) of a block closed at both cuts, by start state and the
# S3 index of its strand permutation: the end state perm[start - 1] fixes
# the right cap.
_COMPONENTS = tuple(
    tuple(closure_components(_LEFT_CLOSURE[start], perm,
                             _RIGHT_CLOSURE[perm[start - 1]]) for perm in S3)
    for start in (1, 2, 3))

# Components of a remainder block, by (plat closure on its right, cut state
# on its left) and the S3 index of its strand permutation.
_REMAINDER_COMPONENTS = {
    (closure, start): tuple(closure_components(left, perm, right) for perm in S3)
    for closure, right in PLAT_RIGHT.items()
    for start, left in _LEFT_CLOSURE.items()}


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
        return S3[s3_index(self.letters)][self.start - 1]

    def serialize(self) -> str:
        return f"o{self.start}:{self.letters}"


def mirror(x: OrientedWord) -> OrientedWord:
    """Mirror image of an oriented word.

    Reading the mirrored block from its own left cut reverses the letters,
    swaps a <-> b, and starts from the top-bottom flip of the original end
    state.  This makes mirror an involution on oriented words.
    """
    return OrientedWord(_FLIP[x.end], swap_braid(x.letters[::-1]))


@dataclass(frozen=True)
class SummandClass:
    key: str
    polarity: str  # "plus" | "minus" | "self_mirror"


def summand_class(x: OrientedWord) -> SummandClass:
    """Mirror class of a summand: a palindromic-type block labels itself,
    any other block shares a label with its mirror (lexicographically
    smaller serialization wins) and is "plus" when it holds that label."""
    own = x.serialize()
    if is_palindromic_type(x.letters):
        return SummandClass(own, "self_mirror")
    other = f"o{_FLIP[x.end]}:{swap_braid(x.letters[::-1])}"  # mirror(x).serialize()
    if own == other:
        raise ValueError(f"summand {own} equals its mirror but is not "
                         "palindromic-type")
    return SummandClass(min(own, other), "plus" if own < other else "minus")


def component_count(x: OrientedWord) -> int:
    """Number of components (1 or 2) of a summand closed at both cuts."""
    return _COMPONENTS[x.start - 1][s3_index(x.letters)]


def remainder_component_count(start: int, letters: str, closure: str) -> int:
    """Components of the remainder block: cut cap on the left, original plat
    closure (A or B) on the right."""
    validate_braid(letters)
    return _REMAINDER_COMPONENTS[closure, start][s3_index(letters)]


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


def _fix_permutation(fix: LinkFix) -> int:
    """S3 index of the repaired block's strand permutation."""
    if fix.marker is None:
        return s3_index(fix.letters)
    left = S3[s3_index(fix.letters[: fix.marker])]
    right = S3[s3_index(fix.letters[fix.marker:])]
    return S3.index(tuple(right[_FLIP[left[q - 1]] - 1] for q in (1, 2, 3)))


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
    z = x.letters
    s = len(z)
    # One walk over the block gives its closure and the orientation state
    # before its central crossing (odd s) or at its middle cut (even s).
    h = s // 2
    half = s3_index(z[:h])
    index = s3_index(z[h:], half)
    if _COMPONENTS[x.start - 1][index] != 1 + 1:
        raise ValueError("link repair applies only to two-component summands")
    if s < 1:
        raise ValueError("link repair needs a non-empty summand")
    before = S3[half][x.start - 1]
    if s % 2 == 1:
        pair = CROSSING_PAIR[z[h]]
        twist = "a" if pair == (1, 2) else "b"
        if before not in pair:
            fix = LinkFix("double", z[: h + 1] + z[h] + z[h + 1:], None, 1, 1)
        elif before != 2:
            fix = LinkFix("twist-left", z[:h] + twist + z[h:], None, 1, 1)
        else:
            fix = LinkFix("twist-right", z[: h + 1] + twist + z[h + 1:], None, 1, 1)
    else:
        if before == 1:
            fix = LinkFix("twist-middle", z[:h] + "a" + z[h:], None, 1, 1)
        elif before == 3:
            fix = LinkFix("twist-middle", z[:h] + "b" + z[h:], None, 1, 1)
        else:
            fix = LinkFix("rii-twist", z, h, 3, 3)
    fixed = _fix_permutation(fix)
    # The repair never moves the strands at the cuts, so the end state and
    # therefore the closure caps are unchanged.
    end, fixed_end = S3[index][x.start - 1], S3[fixed][x.start - 1]
    if fixed_end != end:
        raise ValueError(f"{fix.kind} repair of {x.serialize()} moved the end "
                         f"state {end} -> {fixed_end}")
    if _COMPONENTS[x.start - 1][fixed] != 1:
        raise ValueError(f"{fix.kind} repair of {x.serialize()} left a link")
    return fix


def _repair_costs(x: OrientedWord) -> tuple[int, int]:
    """(saddle moves, crossings) of a summand after its link repair, if any."""
    if component_count(x) == 2:
        fix = link_lemma_fix(x)
        return fix.saddles, len(x.letters) + fix.added_crossings
    return 0, len(x.letters)


@dataclass(eq=False, slots=True)
class _BlockAnalysis:
    """An oriented block's summand, end state, mirror class and link repair
    (saddle moves, repaired crossings).  Records compare by identity: the
    memo hands out one record per (start, letters), and no caller writes
    to one."""

    summand: OrientedWord
    end: int
    cls: SummandClass
    saddles: int
    crossings: int


@functools.lru_cache(maxsize=1 << 12)
def _analyse_block(start: int, letters: str) -> _BlockAnalysis:
    """Analyse one oriented block, with every check of ``OrientedWord``,
    ``summand_class`` and ``link_lemma_fix``.  The memo holds every block
    with s <= 10; a check that raises caches nothing."""
    x = OrientedWord(start, letters)
    cls = summand_class(x)
    saddles, crossings = _repair_costs(x)
    return _BlockAnalysis(x, x.end, cls, saddles, crossings)


def _remainder_is_link(state: int, remainder: str, closure: str) -> bool:
    """Whether the remainder block closes up to a two-component link.  Its
    repair undoes the final twist crossing: one saddle move removes one
    crossing and reconnects the two components."""
    if remainder_component_count(state, remainder, closure) == 1:
        return False
    if remainder_component_count(state, remainder[:-1], closure) != 1:
        raise ValueError(f"undoing the last twist of {remainder!r} left a link")
    return True


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
    braid = to_braid(word)  # validates the word
    c = len(braid)
    m = (c - 1) // 2
    j = c - 2 * m
    if not 1 <= s <= 2 * m - 1:
        raise ValueError(f"block size must satisfy 1 <= s <= {2 * m - 1}, got {s}")
    core = braid[1:2 * m]
    t = (2 * m - 1) // s
    r = c - s * t
    if not 0 <= r - 1 - j <= s - 1:
        raise ValueError(f"remainder r={r} out of range for s={s}, j={j}")

    # One block record per cut, each block starting at the state its
    # predecessor ends in.
    state = 1
    cut_states = [state]
    blocks = []
    for k in range(0, s * t, s):
        block = _analyse_block(state, core[k:k + s])
        blocks.append(block)
        state = block.end
        cut_states.append(state)
    cut_saddles = sum(_CUT_SADDLES[q] for q in cut_states)
    summands = tuple(block.summand for block in blocks)

    # Each distinct block is charged per occurrence.  A class's residual
    # copies cost the repaired crossing count of its first summand (mirrors
    # cost the same).
    classes: Counter[SummandClass] = Counter()
    crossings: dict[str, int] = {}
    link_fix_saddles = 0
    for block, n in Counter(blocks).items():
        classes[block.cls] += n
        link_fix_saddles += n * block.saddles
        crossings.setdefault(block.cls.key, block.crossings)

    remainder = braid[1 + t * s:]
    if not len(remainder) == r - 1 >= 1:
        raise ValueError(f"remainder {remainder!r} should hold r-1={r - 1} >= 1 "
                         "letters")
    closure = "A" if c % 2 == 1 else "B"
    remainder_is_link = _remainder_is_link(state, remainder, closure)
    remainder_fix_saddles = int(remainder_is_link)
    remaining = r - 1 - remainder_fix_saddles

    _, residual = _cancel(classes)
    residual_crossings = tuple(crossings[key] for key in residual)

    total_saddles = cut_saddles + link_fix_saddles + remainder_fix_saddles
    # Knot-to-knot cobordisms use an even number of saddle moves.
    if total_saddles % 2:
        raise ValueError(f"odd saddle count {total_saddles} for {word}")
    upper = total_saddles // 2
    upper += sum(n // 2 for n in residual_crossings)
    upper += remaining // 2
    lower = abs(metrics_for_braid(braid).signature) // 2
    return DecompositionReport(
        word=word, s=s, t=t, r=r,
        cut_states=tuple(cut_states), cut_saddles=cut_saddles,
        summands=summands, link_fix_saddles=link_fix_saddles,
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


# The mean over T(c).  bijection_f maps T(2m+1) and T(2m+2) together one to
# one onto the braid words ("cores") of length 2m - 1.  The core letter at
# position i stands for a run of exponent 2 when it is 'a' at even i or 'b' at
# odd i, so the interior length mod 3 can be carried letter by letter; at the
# end it decides c and forces the ending letters (see bijection_f_inverse).
# DP states are 3 * (orientation state - 1) + interior length mod 3.
_ENDING = {2: "a", 1: "ab", 0: "bb"}


def _interior_length(letters: str, parity: int) -> int:
    """Length of the word runs that core letters stand for, the first one
    at a core position of the given parity: 2 for an 'a' at an even
    position or a 'b' at an odd one, 1 otherwise."""
    even = parity % 2
    return len(letters) + letters[even::2].count("a") + letters[1 - even::2].count("b")


def _dp_state(state: int, length: int) -> int:
    return 3 * (state - 1) + length % 3


def _letter_sources(parity: int, letter: str) -> list[int]:
    """sources[j]: the DP state that one core letter, at a position of the
    given parity, moves to state j.  A letter's move of the orientation
    states is its own inverse."""
    step = _interior_length(letter, parity)
    return [_dp_state(STATE_AFTER[letter][j // 3 + 1], j - step) for j in range(9)]


@dataclass(frozen=True)
class _SummandTable:
    """What the mean DP needs to know of the 3 * 2^s oriented blocks.

    ``counts[p][i][j]`` is the number of blocks that take DP state i to j
    when the block starts at a core position of parity p, and
    ``costs[p][i][j]`` their summed local saddle moves: the block's link
    repair and the cut after it.  ``weights`` maps each law key to the
    summed floor(n_w / 2) of its classes.  The key is the (start, end)
    states and interior lengths mod 3 at parities 0 and 1 of the class and
    then of its mirror, and the palindromic-type flag: the joint law of
    (DP state, D_w) over the cores depends on nothing else.
    """

    counts: tuple[list[list[int]], list[list[int]]]
    costs: tuple[list[list[int]], list[list[int]]]
    weights: dict[tuple[int, ...], int]


def _summand_table(s: int) -> _SummandTable:
    counts = ([[0] * 9 for _ in range(9)], [[0] * 9 for _ in range(9)])
    costs = ([[0] * 9 for _ in range(9)], [[0] * 9 for _ in range(9)])
    weights: Counter[tuple[int, ...]] = Counter()
    # Past s = 10 the 3 * 2^s blocks would overflow the memo and evict the
    # blocks that decompose cached; each is analysed once here anyway.
    analyse = _analyse_block if s <= 10 else _analyse_block.__wrapped__
    for start in (1, 2, 3):
        for letters in map("".join, product("ab", repeat=s)):
            block = analyse(start, letters)
            x, end, crossings = block.summand, block.end, block.crossings
            cost = block.saddles + _CUT_SADDLES[end]
            steps = (_interior_length(letters, 0), _interior_length(letters, 1))
            for parity, step in enumerate(steps):
                for length in range(3):
                    i, j = _dp_state(start, length), _dp_state(end, length + step)
                    counts[parity][i][j] += 1
                    costs[parity][i][j] += cost
            cls = block.cls
            if cls.polarity == "minus":
                continue
            other = mirror(x)
            # decompose charges a class the crossings of whichever side
            # occurs first; the DP charges the class's own.
            if _repair_costs(other)[1] != crossings:
                raise ValueError(f"summand {x.serialize()} and its mirror "
                                 "have different repaired crossing counts")
            if crossings < 2:
                continue
            # The mirror runs from _FLIP[end] to _FLIP[start], and its
            # interior length at parity p is this block's at parity p + s.
            key = (start, end, steps[0] % 3, steps[1] % 3,
                   _FLIP[end], _FLIP[start], steps[s % 2] % 3, steps[1 - s % 2] % 3,
                   cls.polarity == "self_mirror")
            weights[key] += crossings // 2
    return _SummandTable(counts, costs, dict(weights))


def _residual_total(weights: dict[tuple[int, ...], int], s: int, t: int,
                    tails: list[int]) -> int:
    """Sum over the words of T(c) of sum_w floor(n_w / 2) |D_w|, where
    ``tails[length]`` counts the core endings that put a core with that
    interior length mod 3 after its t blocks into T(c).

    The joint law of (DP state, D_w) over the cores, one row per law key,
    is ``markov.displacement_laws`` over the nine DP states, from state
    0 = _dp_state(1, 0), with the letter steps of ``_letter_sources``.  A
    block adds its interior length at the parity it starts on to every
    interior length mod 3.
    """
    if not weights:
        return 0
    keys = np.array(list(weights), dtype=np.int64)
    pal = keys[:, 8].astype(bool)
    lengths = np.arange(3)

    def moves(start, end, steps):
        # (from, to) DP states of a block at block parities 0 and 1.
        return [(_dp_state(start[:, None], lengths),
                 _dp_state(end[:, None], lengths + step[:, None])) for step in steps]

    sources = [(_letter_sources(p, "a"), _letter_sources(p, "b")) for p in (0, 1)]
    law = displacement_laws(s, t, sources, moves(*keys[:, 0:2].T, keys[:, 2:4].T),
                            moves(*keys[:, 4:6].T, keys[:, 6:8].T), pal)
    by_length = law.reshape(len(keys), 3, 3, -1).sum(axis=1)
    per_core = (by_length * np.array(tails, dtype=object)[:, None]).sum(axis=1)
    totals = (per_core * residual_count(np.arange(-t, t + 1), pal[:, None])).sum(axis=1)
    return sum(w * int(total) for w, total in zip(weights.values(), totals))


def average_g4_row(c: int, s: int) -> AverageRow:
    """Exact mean saddle-move upper bound over T(c), with the closed-form
    bounds, by a transfer DP over the cores of length 2m - 1.

    By linearity of expectation the mean splits into local terms and the
    residual.  The cut and link-repair saddles of every block follow a DP
    over (orientation state, interior length mod 3) across the t blocks;
    the remainder's repair and crossings depend only on the last state and
    the at most s - 1 core letters after the blocks, which are enumerated
    with the ending they force.  The residual is linear over summand
    classes, and each law key's E|D_w| comes from the walk's
    displacement-law DP (``_residual_total``).  Words are counted, not
    listed, and the count must equal word_count(c).
    """
    if c < 3:
        raise ValueError(f"crossing number must be at least 3, got {c}")
    m = (c - 1) // 2
    if not 1 <= s <= 2 * m - 1:
        raise ValueError(f"block size must satisfy 1 <= s <= {2 * m - 1}, got {s}")
    budget.check_g4(c, s)
    t = (2 * m - 1) // s
    r = c - s * t
    table = _summand_table(s)

    # Cores and their summed cut and link-repair saddles, by DP state after
    # the t blocks.
    cores = [0] * 9
    saddles = [0] * 9
    cores[_dp_state(1, 0)] = 1
    saddles[_dp_state(1, 0)] = _CUT_SADDLES[1]
    for k in range(t):
        counts, costs = table.counts[k * s % 2], table.costs[k * s % 2]
        next_cores, next_saddles = [0] * 9, [0] * 9
        for i in range(9):
            for j in range(9):
                next_cores[j] += counts[i][j] * cores[i]
                next_saddles[j] += counts[i][j] * saddles[i] + costs[i][j] * cores[i]
        cores, saddles = next_cores, next_saddles

    # The core letters after the blocks and the ending they force form the
    # remainder.  c is odd exactly when the interior length is 2 mod 3.
    closure = "A" if c % 2 == 1 else "B"
    tails = [0, 0, 0]
    words = total_saddles = total_remaining = 0
    for letters in map("".join, product("ab", repeat=2 * m - 1 - s * t)):
        step = _interior_length(letters, s * t % 2)
        for length in range(3):
            final = (length + step) % 3
            if (final == 2) != (c % 2 == 1):
                continue
            tails[length] += 1
            remainder = letters + _ENDING[final]
            for state in (1, 2, 3):
                i = _dp_state(state, length)
                link = _remainder_is_link(state, remainder, closure)
                words += cores[i]
                total_saddles += saddles[i] + link * cores[i]
                total_remaining += (r - 1 - link) // 2 * cores[i]
    if words != word_count(c):
        raise ValueError(f"mean DP counted {words} words in T({c}), "
                         f"expected {word_count(c)}")
    # Each word uses an even number of saddle moves, so the sum is even.
    if total_saddles % 2:
        raise ValueError(f"odd saddle total {total_saddles} over T({c})")
    total = (total_saddles // 2 + total_remaining
             + _residual_total(table.weights, s, t, tails))
    return AverageRow(c, words, Fraction(total, words),
                      expression_upper_bound(c, s), log10_upper_bound(c))
