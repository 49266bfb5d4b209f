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

Each oriented block that ``decompose`` meets is analysed once per process
by ``_analyse_block``, a ``functools.lru_cache`` memo keyed by (start
state, letters) and bounded at 2^12 records, every block with s <= 10.  It
holds only pure functions of its key: the block's ``OrientedWord``, end
state, mirror class, link repair, positive crossings from its start state
and the signed step of its class (+1 or -1 within a mirror pair, a parity
bit for a palindromic-type class).  A check that raises caches nothing.
The memo is ``decompose``'s alone: the mean analyses no block.

``decompose`` reads a word off its block records alone, with no diagram
scan: one loop sums the saddles, the positive crossings and each class's
net step in plain int dicts, and the remainder's at most s letters are
walked on top.  Crossing 1 is walked from the diagram's start state by
``diagram.first_crossing``, which refuses a link and a state other than
o1 after it, as in every word diagram; o1 makes it negative.  With the
count of 'a' for s_A that gives the signature s_A - c_plus - 1 and the
lower bound |sigma| / 2.

The mean of that bound over T(c) comes from one transfer dynamic program
over the orientation states of the word cores, with no enumeration (see
``average_g4_row``), on a closed form of the blocks over their start,
middle and end states (``_summand_table``).  Its residual term is one call
of the walk's exact residual, ``markov.residual_totals``, on the walk's
own rows, with each final state weighted by the core endings that put a
core into T(c), so ``budget.check_g4`` charges it as the walk's.  The
cores are row 0 of the closed form of M^(s t), the saddles that they collect
over the blocks geometric sums of M^(s k) (``markov.cost_sums``) and their
remainders nine residue classes: no step per block and no ending listed.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import budget, markov
from .diagram import (_S3_OF, COMPONENTS, CROSSING_PAIR, S3, all_A_circles,
                      first_crossing, positive_crossings, s3_index, word_closure)
from .words import (is_palindromic_type, swap_braid, to_braid, validate_braid,
                    word_count)

# Flipping a plat diagram top to bottom exchanges orientation states 1 and 3.
_FLIP = {1: 3, 2: 2, 3: 1}

# Closing off a block cut out of a word diagram: the orientation state at a
# cut determines its cap shape (``diagram.PLAT_RIGHT``), and the shapes at
# both cuts key ``diagram.COMPONENTS``.  Left and right ends differ because
# the single leftward strand sits at different heights.
_LEFT_CLOSURE = {1: "A", 2: "A", 3: "B"}
_RIGHT_CLOSURE = {1: "A", 2: "B", 3: "B"}

# Saddle moves at a cut, by its orientation state: two where the leftward
# strand runs through the middle, one elsewhere.
_CUT_SADDLES = {1: 1, 2: 2, 3: 1}


class OrientedWord:
    """A braid-letter block together with the orientation state at its left
    cut, equal to another and hashed by (start, letters).  ``end``, the
    state at its right cut, and ``_index``, the S3 index of the strand
    permutation, are read once, on creation: the block analysis reads them
    several times."""

    __slots__ = ("start", "letters", "end", "_index")

    def __init__(self, start: int, letters: str) -> None:
        if start not in (1, 2, 3):
            raise ValueError(f"orientation state must be 1, 2 or 3, got {start}")
        if letters:
            validate_braid(letters)
        self.start, self.letters = start, letters
        self._index = s3_index(letters)
        self.end = S3[self._index][start - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrientedWord):
            return NotImplemented
        return (self.start, self.letters) == (other.start, other.letters)

    def __hash__(self) -> int:
        return hash((self.start, self.letters))

    def __repr__(self) -> str:
        return f"OrientedWord({self.start}, {self.letters!r})"

    def serialize(self) -> str:
        return f"o{self.start}:{self.letters}"


def mirror(x: OrientedWord) -> OrientedWord:
    """Mirror image of an oriented word.

    Reading the mirrored block from its own left cut reverses the letters,
    swaps a <-> b, and starts from the top-bottom flip of the original end
    state.  This makes mirror an involution on oriented words.
    """
    return OrientedWord(_FLIP[x.end], swap_braid(x.letters[::-1]))


class SummandClass(NamedTuple):
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
    return COMPONENTS[_LEFT_CLOSURE[x.start], _RIGHT_CLOSURE[x.end]][x._index]


class LinkFix(NamedTuple):
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


def _repair_cost(s: int, middle: int) -> int:
    """Saddles, and as many added crossings, of a two-component block's
    repair, by its length s and its state after s // 2 letters: 3 for the
    strand slide at even s with state 2 there, 1 otherwise."""
    return 3 if s % 2 == 0 and middle == 2 else 1


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
    closed = COMPONENTS[_LEFT_CLOSURE[x.start], _RIGHT_CLOSURE[x.end]]
    if closed[x._index] != 2:
        raise ValueError("link repair applies only to two-component summands")
    if s < 1:
        raise ValueError("link repair needs a non-empty summand")
    # The orientation state before the central crossing (odd s) or at the
    # middle cut (even s).
    h = s // 2
    before = S3[s3_index(z[:h])][x.start - 1]
    cost = _repair_cost(s, before)
    if s % 2 == 1:
        pair = CROSSING_PAIR[z[h]]
        twist = "a" if pair == (1, 2) else "b"
        if before not in pair:
            fix = LinkFix("double", z[: h + 1] + z[h] + z[h + 1:], None, cost, cost)
        elif before != 2:
            fix = LinkFix("twist-left", z[:h] + twist + z[h:], None, cost, cost)
        else:
            fix = LinkFix("twist-right", z[: h + 1] + twist + z[h + 1:], None, cost, cost)
    elif before == 2:
        fix = LinkFix("rii-twist", z, h, cost, cost)
    else:
        twist = "a" if before == 1 else "b"
        fix = LinkFix("twist-middle", z[:h] + twist + z[h:], None, cost, cost)
    fixed = _fix_permutation(fix)
    # The repair never moves the strands at the cuts, so the end state and
    # therefore the closure caps are unchanged.
    fixed_end = S3[fixed][x.start - 1]
    if fixed_end != x.end:
        raise ValueError(f"{fix.kind} repair of {x.serialize()} moved the end "
                         f"state {x.end} -> {fixed_end}")
    if closed[fixed] != 1:
        raise ValueError(f"{fix.kind} repair of {x.serialize()} left a link")
    return fix


# A summand's signed step in its class: its copies of a mirror pair add and
# its mirror's subtract, while copies of a palindromic-type class cancel in
# pairs (0 marks the parity bit).
_SIGN = {"plus": 1, "minus": -1, "self_mirror": 0}


class _BlockAnalysis:
    """An oriented block's summand, end state, mirror class and link repair
    (saddle moves, repaired crossings), its positive crossings read from
    its start state, and the signed step of its class (``_SIGN``).  The
    memo hands out one record per (start, letters).  Its fields are slots,
    not those of a named tuple: ``decompose`` reads six of them per block,
    and CPython 3.11 reads a slot about three times as fast."""

    __slots__ = ("summand", "end", "cls", "saddles", "crossings", "positive", "sign")

    def __init__(self, summand: OrientedWord, end: int, cls: SummandClass, saddles: int,
                 crossings: int, positive: int, sign: int) -> None:
        self.summand, self.end, self.cls, self.saddles = summand, end, cls, saddles
        self.crossings, self.positive, self.sign = crossings, positive, sign


@functools.lru_cache(maxsize=1 << 12)
def _analyse_block(start: int, letters: str) -> _BlockAnalysis:
    """Analyse one oriented block for ``decompose``, with every check of
    ``OrientedWord``, ``summand_class`` and ``link_lemma_fix``, and count
    its positive crossings by a ``STEP`` walk, which must end in the state
    its strand permutation gives.  The memo holds every block with
    s <= 10; a check that raises caches nothing.  The mean's table reads
    no record: it is a closed form (``_summand_table``)."""
    x = OrientedWord(start, letters)
    end = x.end
    positive, walked = positive_crossings(start, letters)
    if walked != end:
        raise ValueError(f"block {x.serialize()} walks to o{walked}, but its "
                         f"strand permutation ends it in o{end}")
    cls = summand_class(x)
    saddles, crossings = 0, len(letters)
    if component_count(x) == 2:
        fix = link_lemma_fix(x)
        saddles, crossings = fix.saddles, crossings + fix.added_crossings
    return _BlockAnalysis(x, end, cls, saddles, crossings, positive, _SIGN[cls.polarity])


def _remainder_is_link(state: int, whole: int, cut: int, closure: str) -> bool:
    """Whether the remainder block from the given state, of S3 index whole,
    closes up to a link under the word's closure.  Its repair undoes the
    final twist crossing, to S3 index cut: one saddle move removes one
    crossing and reconnects the two components."""
    closed = COMPONENTS[_LEFT_CLOSURE[state], closure]
    if closed[whole] == 1:
        return False
    if closed[cut] != 1:
        raise ValueError(f"undoing the last twist of the remainder {S3[whole]} "
                         f"from o{state} under closure {closure} left a link")
    return True


def cancel_mirrors(summands: list[OrientedWord] | tuple[OrientedWord, ...]
                   ) -> tuple[int, tuple[str, ...]]:
    """Cancel mirror-image summand pairs; return (count, residual keys)."""
    net: dict[str, int] = {}
    for cls in map(summand_class, summands):
        n, sign = net.get(cls.key, 0), _SIGN[cls.polarity]
        net[cls.key] = n + sign if sign else n ^ 1
    residual = _residual(net)
    return len(residual), residual


def _residual(net: dict[str, int]) -> tuple[str, ...]:
    """Sorted residual keys of the net signed steps of each class.

    A mirror pair's connected sum is slice, so opposite polarities within a
    class cancel and the class survives |plus - minus| times.  A
    palindromic-type oriented word is its own potential partner: two equal
    copies cancel, so its net step is its count mod 2.
    """
    residual: list[str] = []
    for key, n in net.items():
        residual += [key] * abs(n)
    residual.sort()
    return tuple(residual)


class DecompositionReport:
    """Everything the saddle-move pipeline produces for one word, equal to
    another report with the same fields."""

    __slots__ = ("word", "s", "t", "r", "cut_states", "cut_saddles", "summands",
                 "link_fix_saddles", "remainder_letters", "remainder_crossings",
                 "remainder_is_link", "remainder_fix_saddles",
                 "remaining_remainder_crossings", "residual", "residual_crossings",
                 "g4_lower", "g4_upper")

    def __init__(self, word: str, s: int, t: int, r: int, cut_states: tuple[int, ...],
                 cut_saddles: int, summands: tuple[OrientedWord, ...],
                 link_fix_saddles: int, remainder_letters: str, remainder_crossings: int,
                 remainder_is_link: bool, remainder_fix_saddles: int,
                 remaining_remainder_crossings: int, residual: tuple[str, ...],
                 residual_crossings: tuple[int, ...], g4_lower: int, g4_upper: int) -> None:
        if len(summands) != t:
            raise ValueError(f"{len(summands)} summands, expected t={t}")
        if remainder_crossings != r - 1:
            raise ValueError(f"remainder has {remainder_crossings} "
                             f"crossings, expected r-1={r - 1}")
        if cut_saddles > 2 * t + 2:
            raise ValueError(f"{cut_saddles} cut saddles exceed 2t+2={2 * t + 2}")
        if g4_lower > g4_upper:
            raise ValueError(f"g4 interval [{g4_lower}, {g4_upper}] is empty")
        self.word, self.s, self.t, self.r = word, s, t, r
        self.cut_states, self.cut_saddles = cut_states, cut_saddles
        self.summands, self.link_fix_saddles = summands, link_fix_saddles
        self.remainder_letters = remainder_letters
        self.remainder_crossings = remainder_crossings
        self.remainder_is_link = remainder_is_link
        self.remainder_fix_saddles = remainder_fix_saddles
        self.remaining_remainder_crossings = remaining_remainder_crossings
        self.residual, self.residual_crossings = residual, residual_crossings
        self.g4_lower, self.g4_upper = g4_lower, g4_upper

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecompositionReport):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


def decompose(word: str, s: int, *, braid: str | None = None) -> DecompositionReport:
    """Run the full saddle-move pipeline on one word at block size s.

    ``braid`` is ``to_braid(word)`` for a caller that has converted, and so
    validated, the word already; without it the word is validated here.
    Every block is read off its ``_analyse_block`` record: one loop sums
    the saddles, the positive crossings and the signed class steps, and
    the lower bound |sigma| / 2 comes from Traczyk's formula with the
    remainder's few letters walked on top, with no diagram scan.
    """
    if braid is None:
        braid = to_braid(word)  # validates the word
    c = len(braid)
    m = (c - 1) // 2
    j = c - 2 * m
    if not 1 <= s <= 2 * m - 1:
        raise ValueError(f"block size must satisfy 1 <= s <= {2 * m - 1}, got {s}")
    t = (2 * m - 1) // s
    r = c - s * t
    if not 0 <= r - 1 - j <= s - 1:
        raise ValueError(f"remainder r={r} out of range for s={s}, j={j}")
    # The word's diagram must close to a knot whose state right of crossing
    # 1 is o1, where the first block starts; that makes crossing 1 negative.
    closure = word_closure(c)
    sign, state = first_crossing(braid)
    positive = int(sign > 0)

    # One block record per cut, each block starting at the state its
    # predecessor ends in.  A class's net step is summed in ``net``, and its
    # residual copies cost the repaired crossing count of its first summand
    # (mirrors cost the same).
    core = braid[1:2 * m]
    cut_states = [state]
    summands = []
    link_fix_saddles = 0
    net: dict[str, int] = {}
    crossings: dict[str, int] = {}
    for k in range(0, s * t, s):
        block = _analyse_block(state, core[k:k + s])
        summands.append(block.summand)
        state = block.end
        cut_states.append(state)
        link_fix_saddles += block.saddles
        positive += block.positive
        key, sign = block.cls.key, block.sign
        n = net.get(key)
        if n is None:
            crossings[key] = block.crossings
            n = 0
        net[key] = n + sign if sign else n ^ 1
    cut_saddles = sum(map(_CUT_SADDLES.__getitem__, cut_states))

    remainder = braid[1 + t * s:]
    if not len(remainder) == r - 1 >= 1:
        raise ValueError(f"remainder {remainder!r} should hold r-1={r - 1} >= 1 "
                         "letters")
    remainder_is_link = _remainder_is_link(state, s3_index(remainder),
                                           s3_index(remainder[:-1]), closure)
    remainder_fix_saddles = int(remainder_is_link)
    remaining = r - 1 - remainder_fix_saddles
    positive += positive_crossings(state, remainder)[0]

    residual = _residual(net)
    residual_crossings = tuple(map(crossings.__getitem__, residual))

    total_saddles = cut_saddles + link_fix_saddles + remainder_fix_saddles
    # Knot-to-knot cobordisms use an even number of saddle moves.
    if total_saddles % 2:
        raise ValueError(f"odd saddle count {total_saddles} for {word}")
    upper = total_saddles // 2
    upper += sum(n // 2 for n in residual_crossings)
    upper += remaining // 2
    signature = all_A_circles(braid.count("a"), closure) - positive - 1
    return DecompositionReport(
        word=word, s=s, t=t, r=r,
        cut_states=tuple(cut_states), cut_saddles=cut_saddles,
        summands=tuple(summands), link_fix_saddles=link_fix_saddles,
        remainder_letters=remainder, remainder_crossings=r - 1,
        remainder_is_link=remainder_is_link,
        remainder_fix_saddles=remainder_fix_saddles,
        remaining_remainder_crossings=remaining,
        residual=residual, residual_crossings=residual_crossings,
        g4_lower=abs(signature) // 2, g4_upper=upper,
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
    + (r-1)/2 on the expected 4-genus at crossing number c, block size s;
    inf once 2^s t passes the float range."""
    m = (c - 1) // 2
    t = (2 * m - 1) // s
    r = c - s * t
    try:
        return ((t + 1) + 1.5 * t + 1.5 * (s + 3) * math.sqrt(2 ** s * t)
                + 0.5 * (s + 3) * 2 ** (s / 2) + 0.5 * (r - 1))
    except OverflowError:
        return math.inf


def log10_upper_bound(c: int) -> float:
    """The headline sublinear bound 9.75 c / log10(c)."""
    return 9.75 * c / math.log10(c)


class AverageRow(NamedTuple):
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
# odd i.  The interior length mod 3 at the end decides c and forces the
# ending letters (see bijection_f_inverse); the orientation state fixes it
# (``_length``), so the mean DP runs on the three states alone.
_ENDING = {2: "a", 1: "ab", 0: "bb"}


def _subsets(n: int, k: int) -> int:
    """Subsets of n positions whose size is k mod 3:
    (2^n + 2 cos(pi (n - 2 k) / 3)) / 3, whose cosine term is 2, 1, -1 or -2."""
    return ((1 << n) + (2, 1, -1, -2, -1, 1)[(n - 2 * k) % 6]) // 3


def _length(state: int, n: int) -> int:
    """Interior length mod 3 of every core prefix of n letters that ends in
    the given orientation state: x at even n and 2 - x at odd n, with
    x = state - 1.  A letter k (0 for a, 1 for b) at position n sends x to
    k - x and adds 1 + [k = n mod 2] to the length, which keeps both
    forms from the empty prefix, in state 1 with length 0."""
    x = state - 1
    return 2 - x if n % 2 else x


def _summand_table(s: int) -> tuple[markov.IntMatrix, dict[tuple[int, ...], int]]:
    """What the mean DP needs of the 3 * 2^s oriented blocks, (costs,
    weights), in closed form over the state indices x, m, y at the start,
    after h = s // 2 letters and at the end, with no block listed.

    ``costs[x][y]`` sums the link-repair and cut saddles of the M^s[x][y]
    blocks x -> y, and ``weights`` maps each signature of the walk
    (``markov._signature_groups``) to the summed floor(n_w / 2) of its
    classes, where positive.  M^h[x][m] M^(s-h)[m][y] blocks run
    x -> m -> y (``markov._closed_form``).  The strand permutation of their
    parity that takes x to y (``diagram._S3_OF``) decides if they are links,
    repaired for ``_repair_cost(s, m + 1)`` saddles and added crossings.
    The palindromic-type ones (even s), each its own class, number
    M^h[x][m] and end at y = x + e (2 r + 1) - 1 = e (1 - m) - x - 1 mod 3,
    with e = (-1)^h and r = m - e x.  A mirror runs from flip(y) through
    flip(m) to flip(x) at the same cost, and a class is the side with the
    smaller serialization: all other blocks at x < flip(y), half of them
    at x = flip(y), none otherwise.  ValueError, with no assert, unless
    the middle states split M^s and every half is whole.

    Every entry of M^n is c_n + d with d in {0, 1, -1} (c_n is entry
    [0][1]), so each count M^h[x][m] M^(s-h)[m][y] = (c_h + d)(c_(s-h) + d')
    is the one big product c_h c_(s-h) plus d' c_h + d c_(s-h) + d d'.
    """
    h = s // 2
    first, second, whole = (markov._closed_form(n) for n in (h, s - h, s))
    low, high = first[0][1], second[0][1]
    both = low * high
    rows = [[n - low for n in row] for row in first]
    columns = [[n - high for n in column] for column in zip(*second)]
    sign, turn = 1 - 2 * (s % 2), 1 - 2 * (h % 2)
    costs = [[0] * 3 for _ in range(3)]
    weights = {}
    for x, y in product(range(3), repeat=2):
        blocks = [both + e * low + d * high + d * e for d, e in zip(rows[x], columns[y])]
        if sum(blocks) != whole[x][y]:
            raise ValueError(f"the blocks of {s} letters from o{x + 1} to o{y + 1} "
                             f"split into {sum(blocks)} by their middle states, "
                             f"not M^{s} = {whole[x][y]}")
        index = _S3_OF[s % 2][(sign * y - x) % 3]
        link = COMPONENTS[_LEFT_CLOSURE[x + 1], _RIGHT_CLOSURE[y + 1]][index] == 2
        saddles = own = others = 0
        for m, count in enumerate(blocks):
            added = _repair_cost(s, m + 1) if link else 0
            pal = first[x][m] if s % 2 == 0 and (turn * (1 - m) - x - 1) % 3 == y else 0
            saddles += count * added
            own += pal * ((s + added) // 2)
            others += (count - pal) * ((s + added) // 2)
        costs[x][y] = saddles + whole[x][y] * _CUT_SADDLES[y + 1]
        if x == 2 - y:
            if others % 2:
                raise ValueError(f"the blocks of {s} letters from o{x + 1} to o{y + 1}, "
                                 "each paired with its mirror among them, weigh "
                                 f"{others} in all, which does not halve")
            others //= 2
        elif x > 2 - y:
            others = 0
        for flag, weight in ((0, others), (1, own)):
            if weight:
                weights[x, y, 2 - y, 2 - x, flag] = weight
    return tuple(map(tuple, costs)), weights


def _remainder_counts(c: int, s: int, t: int) -> tuple[list[int], list[int], list[int]]:
    """(tails, links, halves) by the state after the t blocks: remainders
    (the e core letters after the blocks and the ending they force) that
    put a core into T(c), links among them, and remaining crossings halved.
    By j and k, their b's at even and at odd positions mod 3, the letters
    fall into nine classes of ``_subsets`` counts, which fix their interior
    length mod 3 and their alternating sum Q = 2 j + k (``s3_index``); a 'b'
    of the ending at remainder position n adds 2 - n mod 2 to Q."""
    e = 2 * ((c - 1) // 2) - 1 - s * t
    even, odd = (e + 1) // 2, e // 2
    tails, links, halves = [0, 0, 0], [0, 0, 0], [0, 0, 0]
    for j, k in product(range(3), repeat=2):
        count = _subsets(even, j) * _subsets(odd, k)
        step = e + (even - j + k if s * t % 2 == 0 else odd - k + j)
        for i in range(3):
            final = (_length(i + 1, s * t) + step) % 3
            if (final == 2) != (c % 2 == 1):
                continue
            q, whole = 2 * j + k, _S3_OF[e % 2][(2 * j + k) % 3]
            for n, letter in enumerate(_ENDING[final], e):
                q += (letter == "b") * (2 - n % 2)
                cut, whole = whole, _S3_OF[(n + 1) % 2][q % 3]
            link = _remainder_is_link(i + 1, whole, cut, word_closure(c))
            tails[i] += count
            links[i] += count * link
            halves[i] += count * ((c - 1 - s * t - link) // 2)
    return tails, links, halves


def average_g4_row(c: int, s: int) -> AverageRow:
    """Exact mean saddle-move upper bound over T(c), with the closed-form
    bounds, by a transfer DP over the cores of length 2m - 1.

    By linearity of expectation the mean splits into local terms and the
    residual.  The cut and link-repair saddles of every block follow a DP
    over the orientation state across the t blocks, in closed form: the
    cores after them are e_0 M^(s t) and their saddles, summed by final
    state, e_0 M^(s t) for the first cut plus ``markov.cost_sums`` over the
    table's costs, the geometric sums of M^(s k); the remainder's
    repair and crossings depend only on the last state and the at most
    s - 1 core letters after the blocks, counted in nine residue classes
    (``_remainder_counts``).  The residual is linear over summand classes,
    and each signature's E|D_w| comes from the walk's exact residual.
    Words are counted, not listed, and the count must equal word_count(c).
    """
    if c < 3:
        raise ValueError(f"crossing number must be at least 3, got {c}")
    m = (c - 1) // 2
    if not 1 <= s <= 2 * m - 1:
        raise ValueError(f"block size must satisfy 1 <= s <= {2 * m - 1}, got {s}")
    budget.check_g4(c, s)
    t = (2 * m - 1) // s
    costs, weights = _summand_table(s)

    # Cores and their summed cut and link-repair saddles, by orientation
    # state after the t blocks: e_0 M^(s t), and the cut saddles of state 1
    # carried along plus the costs that the blocks collect (``cost_sums``).
    cores = markov._closed_form(s * t)[0]
    saddles = [_CUT_SADDLES[1] * n + cost
               for n, cost in zip(cores, markov.cost_sums(s, t, costs))]

    tails, links, halves = _remainder_counts(c, s, t)
    words = sum(map(operator.mul, cores, tails))
    total_saddles = (sum(map(operator.mul, saddles, tails))
                     + sum(map(operator.mul, cores, links)))
    total_remaining = sum(map(operator.mul, cores, halves))
    if words != word_count(c):
        raise ValueError(f"mean DP counted {words} words in T({c}), "
                         f"expected {word_count(c)}")
    # Each word uses an even number of saddle moves, so the sum is even.
    if total_saddles % 2:
        raise ValueError(f"odd saddle total {total_saddles} over T({c})")
    # The residual, sum_w floor(n_w / 2) |D_w| over T(c): each signature's
    # sums of |D_w| over the cores from one call of the walk's exact
    # residual, each final state weighted by its tails.
    totals, _ = markov.residual_totals(s, t, list(weights), tails)
    total = (total_saddles // 2 + total_remaining
             + sum(map(operator.mul, weights.values(), totals)))
    return AverageRow(c, words, Fraction(total, words),
                      expression_upper_bound(c, s), log10_upper_bound(c))
