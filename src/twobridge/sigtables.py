"""Exact signature histograms s(c, sigma) and their identities.

The histogram row for crossing number c counts, for each even sigma, the
words whose knot has that signature.  Rows come from the two-step
recursion grown from the base rows c=3,4 (``recursed_table``).  Two
independent derivations check them: a transfer DP over the runs of the
words (``transfer_table``), and exhaustive enumeration
(``histogram_enumerated``), which builds the braid letters of a chunk of
words straight from their exponent masks and scores the whole chunk with
one ``diagram.scan``; a row is the sum of its chunks' counts, taken on
worker threads from c = 21 on (numpy releases the GIL in its larger calls,
and two threads score c = 22 in 93 against 140 ms).  Every identity takes
the rows it checks as an argument, so the caller decides which derivation
it sees.  The palindromic rows come from the same DP folded in half
(``palindromic_table``), one pass per parity for a whole run of c.

On top of the rows sit the total absolute signature tot(c), its palindromic
variant tot_p(c), the exact average |sigma| per knot, and the √(2c/π)
asymptote it approaches.  ``totals`` reads tot and tot_p off central
binomial sums in one pass of O(c) steps on c-bit ints, with no row built:
the closed form of tot is derived, and that of tot_p rests on a fold
identity (``verify_fold``), checked, not proven.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import budget
from .diagram import STATE_AFTER, STEP, all_A_circles, scan
from .words import knot_count, swap_braid

Row = dict[int, int]

# Fewest masks that histogram_enumerated scores on worker threads.  numpy
# releases the GIL inside its larger calls, so on a 2-CPU x86 machine two
# threads beat a serial row from c = 21 on (median of 8 fresh processes:
# 54 against 73 ms at c = 21, 93 against 140 ms at c = 22); below it they
# spend their time handing the GIL between short numpy calls (33 against
# 36 ms at c = 20, 19 against 18 ms at c = 19, 8.3 against 4.9 ms at c = 17).
_THREAD_MIN_MASKS = 1 << 19
# Masks scored per diagram.scan call: at c = 22 its int32 cut states take
# about 0.5 MB for the third of them that are words.  Larger chunks are no
# faster, and at 2^16 masks they raise the peak of a serial row at c = 22
# by 6 MB.
_CHUNK_MASKS = 1 << 14

SCHEMA_VERSION = 1

# Base rows: the unique words of T(3) and T(4) have signatures 2 and 0.
BASE_ROWS: dict[int, Row] = {3: {2: 1}, 4: {0: 1}}


def _letter_rows(c: int, masks: np.ndarray) -> np.ndarray:
    """Braid letters of the interior-exponent masks below 2^32 whose word
    has length 1 mod 3, in order: for each the (c,) int8 row of
    ``to_braid(word_from_interior_bits(c, mask))``, 0 for 'a' and 1 for 'b'.

    Bit c-1-i of a mask is 1 when run i has exponent 2, and such a run
    takes the other letter than ``_run_letter(i, 1)``.  A word's length is
    c plus its mask's bit count, and only the c - 2 interior bits of the
    kept masks are unpacked, bit 0 first, so into columns c-2 down to 1.
    """
    kept = masks[(c + np.bitwise_count(masks)) % 3 == 1]
    rows = np.zeros((kept.size, c), np.int8)
    rows[:, -2:0:-1] = np.unpackbits(kept.astype("<u4").view(np.uint8).reshape(-1, 4),
                                     axis=1, count=c - 2, bitorder="little")
    rows ^= np.array([_run_letter(i, 1) == "b" for i in range(1, c + 1)], np.int8)
    return rows


def _chunk_counts(c: int, n_masks: int, start: int) -> np.ndarray:
    """Signature counts of the words of T(c) whose masks are the
    ``_CHUNK_MASKS`` from start (below n_masks), scored by one
    ``diagram.scan``: entry sigma + c counts signature sigma."""
    rows = _letter_rows(c, np.arange(start, min(start + _CHUNK_MASKS, n_masks)))
    # A word's closure is B exactly when its last letter is 'b'.
    closure_b = rows[:, -1]
    # Only the crossing signs are kept, and einsum (3x faster than
    # sum(axis=1) on rows this short) takes the row sums; either keeps a
    # chunk's peak low enough that its heap is reused for the next chunk (a
    # serial row at c = 22 faulted in 13,440 fresh pages otherwise).
    positive = scan(rows, closure_b, words=True)[0]
    sigma = (all_A_circles(c - np.einsum("ij->i", rows, dtype=np.int32), closure_b)
             - np.einsum("ij->i", positive, dtype=np.int32) - 1)
    return np.bincount(sigma + c, minlength=2 * c + 1)


def histogram_enumerated(c: int, workers: int | None = None) -> Row:
    """Histogram row by full enumeration of T(c).

    Work is proportional to 2^(c-2), within ``budget.check_enumeration``.
    Each word is scored from its letters by ``diagram.scan``, a chunk of
    words at a time, with no per-word call, and the row is the sum of the
    chunks' counts.  With workers > 1 and at least 2^19 masks (c >= 21) the
    chunks are scored on that many threads.
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    budget.check_enumeration(c)
    n_masks = 1 << (c - 2)
    chunk = partial(_chunk_counts, c, n_masks)
    starts = range(0, n_masks, _CHUNK_MASKS)
    if workers and workers > 1 and n_masks >= _THREAD_MIN_MASKS:
        # The threads call no function that perfbench/tracing.py wraps: its
        # span stack is not thread-safe.
        with ThreadPoolExecutor(workers) as pool:
            counts = sum(pool.map(chunk, starts))
    else:
        counts = sum(map(chunk, starts))
    return {i - c: int(counts[i]) for i in np.flatnonzero(counts).tolist()}


def histogram_recursed(c: int, base: Mapping[int, Row]) -> Row:
    """Histogram row from the rows for c-1 and c-2, no enumeration.

    s(c, sigma) = s(c-1, sigma + d) + s(c-2, sigma + d) + s(c-2, sigma)
    with d = 2 for even c and d = -2 for odd c.
    """
    if c < 5:
        raise ValueError(f"recursion needs c >= 5, got {c}")
    if c - 1 not in base or c - 2 not in base:
        raise ValueError(f"base table must contain rows {c - 1} and {c - 2}")
    d = 2 if c % 2 == 0 else -2
    out: Counter = Counter()
    for sig, n in base[c - 1].items():
        out[sig - d] += n
    for sig, n in base[c - 2].items():
        out[sig - d] += n
        out[sig] += n
    return dict(out)


def recursed_table(c_max: int) -> dict[int, Row]:
    """Rows 3..max(c_max, 4) grown from the two base rows by the recursion."""
    rows: dict[int, Row] = {3: dict(BASE_ROWS[3]), 4: dict(BASE_ROWS[4])}
    for c in range(5, c_max + 1):
        rows[c] = histogram_recursed(c, rows)
    return rows


# ------------------------------------------------------------- transfer DPs
#
# Traczyk's formula reads sigma = s_A - c_plus - 1, and s_A = #a + [c even]
# for the diagram of a word of T(c) (its closure is B exactly when c is
# even; see ``diagram``).  So sigma = (#a - c_plus) + [c even] - 1, summed
# crossing by crossing: run i's letter follows from its sign, fixed by i,
# and its exponent, and the crossing's sign from STEP of that letter and the
# orientation state on its left.  Every word of T(c) has state 1 on cut 0
# (the o1 invariant that ``diagram.scan`` checks on word rows), and a
# word of runs with exponents 1 or 2 is in T(c) exactly when e_1 = e_c = 1
# and its length is 1 mod 3.  The DPs carry counts of #a - c_plus per
# (orientation states, length mod 3), run by run.

_Counts = dict[tuple[int, ...], Counter]


def _run_letter(i: int, exponent: int) -> str:
    """Braid letter of run i (1-based): 'a' for (+)^1 and (-)^2, where run
    i has sign + exactly when i is odd."""
    return "a" if (i % 2 == 1) == (exponent == 1) else "b"


def _forward(letter: str, state: int) -> tuple[int, int]:
    """(state right of a crossing, its #a - c_plus), from the state on its
    left."""
    sign, after = STEP[letter][state]
    return after, (letter == "a") - (sign == 1)


def _backward(letter: str, state: int) -> tuple[int, int]:
    """(state left of a crossing, its #a - c_plus), from the state on its
    right: a letter's move of the states is its own inverse."""
    before = STATE_AFTER[letter][state]
    return before, _forward(letter, before)[1]


def _advance(counts: _Counts,
             moves: Callable[[tuple[int, ...]], Iterator[tuple[tuple[int, ...], int]]]
             ) -> _Counts:
    """One run of a DP: each key's counts, shifted by the #a - c_plus of
    every move out of it."""
    out: defaultdict = defaultdict(Counter)
    for key, by_d in counts.items():
        for nxt, delta in moves(key):
            target = out[nxt]
            for d, n in by_d.items():
                target[d + delta] += n
    return out


def _exponents(i: int) -> tuple[int, ...]:
    return (1,) if i == 1 else (1, 2)


def transfer_table(c_max: int) -> dict[int, Row]:
    """Rows 3..max(c_max, 4) by one forward pass of the transfer DP.

    The DP walks runs 1..c_max-1 from state 1 on cut 0, keyed by
    (orientation state, length mod 3).  Row c closes the walk after run
    c-1 with run c, of exponent 1, and keeps the words of length 1 mod 3.
    """
    rows: dict[int, Row] = {}
    counts: _Counts = {(1, 0): Counter({0: 1})}
    for i in range(1, max(c_max, 4)):
        def moves(key, i=i):
            state, length = key
            for e in _exponents(i):
                after, delta = _forward(_run_letter(i, e), state)
                yield (after, (length + e) % 3), delta
        counts = _advance(counts, moves)
        c = i + 1
        if c < 3:
            continue
        last = _run_letter(c, 1)
        row: Counter = Counter()
        for (state, length), by_d in counts.items():
            if (length + 1) % 3 == 1:
                shift = _forward(last, state)[1] + (c % 2 == 0) - 1
                for d, n in by_d.items():
                    row[d + shift] += n
        rows[c] = dict(row)
    return rows


def palindromic_table(c_values: Sequence[int]) -> dict[int, Row]:
    """Histogram rows of the palindromic words of T(c), for each c of a
    sequence, by the DP folded in half.

    A palindrome has e_i = e_{c+1-i}, so run c+1-i carries run i's letter
    for odd c and the other letter for even c.  One pass per parity walks
    both ends of the word over runs 1, 2, ...: a forward track from state 1
    on cut 0, and a backward track from the state on cut c, seeded once
    with each of 1, 2 and 3.  Its counts after run k depend on c only
    through its parity, so the pass closes every wanted c of its parity on
    the way: the seed that is the word's own is the one where the tracks
    meet, at the middle cut for c = 2k and across run k+1 for c = 2k+1.
    Keys are (forward state, backward state, length mod 3); a pass to c is
    O(c^2) counter updates, within ``budget.check_palindromic``.
    """
    budget.check_palindromic(c_values)
    if min(c_values) < 3:
        raise ValueError(f"crossing number must be >= 3, got {min(c_values)}")
    rows: dict[int, Row] = {}
    for odd in (False, True):
        wanted = {c for c in c_values if c % 2 == odd}
        counts: _Counts = {(1, end, 0): Counter({0: 1}) for end in (1, 2, 3)}
        for i in range(1, max(wanted, default=0) // 2 + 1):
            def moves(key, i=i, odd=odd):
                ahead, behind, length = key
                for e in _exponents(i):
                    letter = _run_letter(i, e)
                    ahead2, d_ahead = _forward(letter, ahead)
                    behind2, d_behind = _backward(
                        letter if odd else swap_braid(letter), behind)
                    yield (ahead2, behind2, (length + 2 * e) % 3), d_ahead + d_behind
            counts = _advance(counts, moves)
            c = 2 * i + odd
            if c not in wanted:
                continue
            # sigma = (#a - c_plus) + [c even] - 1: an odd c's middle run
            # takes the forward track onto the backward one, and an even c's
            # tracks meet at the middle cut, where it adds its [c even].
            joins = {ahead: [(e, *_forward(_run_letter(i + 1, e), ahead)) for e in (1, 2)]
                     if odd else [(0, ahead, 1)] for ahead in (1, 2, 3)}
            row: Counter = Counter()
            for (ahead, behind, length), by_d in counts.items():
                for e, meet, delta in joins[ahead]:
                    if meet == behind and (length + e) % 3 == 1:
                        for d, n in by_d.items():
                            row[d + delta - 1] += n
            rows[c] = dict(row)
    return {c: rows[c] for c in c_values}


# ------------------------------------------------------------------ identities


def _support(*rows: Mapping[int, int]) -> set[int]:
    out: set[int] = set()
    for r in rows:
        out.update(r)
    return out


def verify_recursion2(c: int, rows: Mapping[int, Row]) -> bool:
    """One-step recursion with the ±1 correction at sigma = ±2.

    Odd c:  s(c,s) = s(c-1,s-2) + s(c-1,s-4), except
            s(c,2) = s(c-1,0) + s(c-1,-2) + 1.
    Even c: s(c,s) = s(c-1,s+2) + s(c-1,s+4), except
            s(c,-2) = s(c-1,0) + s(c-1,2) - 1.
    """
    if c < 4:
        raise ValueError(f"one-step recursion needs c >= 4, got {c}")
    row, prev = rows[c], rows[c - 1]
    sigmas = _support(row) | {s - 2 for s in prev} | {s - 4 for s in prev} | \
        {s + 2 for s in prev} | {s + 4 for s in prev} | {2, -2}
    for s in sigmas:
        if c % 2 == 1:
            if s == 2:
                want = prev.get(0, 0) + prev.get(-2, 0) + 1
            else:
                want = prev.get(s - 2, 0) + prev.get(s - 4, 0)
        else:
            if s == -2:
                want = prev.get(0, 0) + prev.get(2, 0) - 1
            else:
                want = prev.get(s + 2, 0) + prev.get(s + 4, 0)
        if row.get(s, 0) != want:
            return False
    return True


def verify_symmetry(c: int, row: Row) -> bool:
    """Row symmetries: even rows are even in sigma; odd rows satisfy
    s(c,2) = s(c,4) + 1 and are symmetric about sigma = 3 elsewhere."""
    if c % 2 == 0:
        return all(row.get(s, 0) == row.get(-s, 0) for s in _support(row))
    if row.get(2, 0) != row.get(4, 0) + 1:
        return False
    return all(
        row.get(s, 0) == row.get(6 - s, 0)
        for s in _support(row)
        if s not in (2, 4)
    )


def verify_fold(c: int, folded: Row, rows: Mapping[int, Row]) -> bool:
    """The fold identity at odd c, with c' = (c + 1)/2 and e = +1 at even c',
    -1 at odd c', and row 2 empty: the palindromic row of c is
    p(c, sigma) = s(c', sigma/2) + s(c', sigma/2 - 3e) + e [sigma = 2e]."""
    half = (c + 1) // 2
    e = 1 if half % 2 == 0 else -1
    want = Counter({2 * e: e})
    for sigma, n in (rows[half] if half > 2 else {}).items():
        want.update({2 * sigma: n, 2 * (sigma + 3 * e): n})
    return {sigma: n for sigma, n in want.items() if n} == folded


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def verify_binomial(m: int, rows: Mapping[int, Row]) -> bool:
    """Paired rows sum to a Pascal row:
    s(2m+1,s) + s(2m+2,s) = C(2m-1, m-1+s/2) for every even s."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    a, b = rows[2 * m + 1], rows[2 * m + 2]
    sigmas = _support(a, b) | {2 * k - 2 * m + 2 for k in range(2 * m)}
    return all(
        a.get(s, 0) + b.get(s, 0) == _comb(2 * m - 1, m - 1 + s // 2)
        for s in sigmas
    )


# --------------------------------------------------------------------- totals


def total_abs(row: Row) -> int:
    """Sum of |sigma| over a histogram row."""
    return sum(abs(s) * n for s, n in row.items())


def palindromic_total_abs(c: int) -> int:
    """Sum of |sigma| over the palindromic words of T(c) only."""
    return total_abs(palindromic_table((c,))[c])


# ------------------------------------------------------------ closed forms
#
# tot is derived.  The two-step recursion gives the even-row step
# R_{2k+2}(u) = ((1 + u)^2 / u) R_{2k}(u) + 1 on R_c(u) = sum_i s(c, 2i) u^i,
# so s(2k, 2i) = sum_{j=0..k-2} C(2j, i + j).  As sum_i |i| C(2j, j + i) =
# j C(2j, j), tot(2k) = 2 S(k - 2) with S(n) = sum_{j=1..n} j C(2j, j), and
# tot(2m+1) + tot(2m+2) = m C(2m, m) gives tot(2k+1) = k C(2k, k) - 2 S(k - 1).
#
# tot_p rests on the fold identity of ``verify_fold``, checked, not proven.
# Even rows are even in sigma, and odd rows symmetric about 3 but for
# s(c, 2) = s(c, 4) + 1, so at odd c, with c' = (c + 1)/2, it gives
# tot_p(c) = 4 tot(c') + 6 s(c', 0) + 4 s(c', 2) + 2 at even c' and
# 4 tot(c') - 8 s(c', 4) - 4 at odd c'.  The even-row step at sigma = 0 gives
# s(2m, 0) + 2 s(2m, 2) + 1 = C(2m-2, m-1), the one-step recursion
# s(2m+1, 4) = s(2m, 0) + s(2m, 2), and (j + 1) C(2j+2, j+1) = (4j + 2) C(2j, j)
# summed over j < m gives 3 S(m - 1) = m C(2m, m) - 2 s(2m+2, 0).  So at step
# j of the pass, with C = C(2j, j) and s = S(j - 1):
#   tot(2j+1) = j C - 2 s,            tot(2j+2) = 2 s,
#   tot_p(4j+3) = (2j + 2) C + 2 s,   tot_p(4j+5) = (6j + 4) C - 2 s,
# and tot_p(2k) = 0: every palindrome of even c closes to an amphichiral knot.
# The fold identity is checked against ``palindromic_table`` row by row at
# every odd c <= 401 (tests/test_sigtables.py) and at odd c <= 61 (verify-all).


def _tot_pass(c_values: Sequence[int]) -> tuple[dict[int, int], dict[int, int]]:
    """tot and tot_p at each c of c_values, from one pass over
    j = 0 .. max(c)/2 that carries C(2j, j) and S(j - 1)."""
    wanted = set(c_values)
    tot: dict[int, int] = {}
    tot_p = {c: 0 for c in wanted if c % 2 == 0}
    central, s = 1, 0
    for j in range(max(wanted) // 2 + 1):
        if 2 * j + 1 in wanted:
            tot[2 * j + 1] = j * central - 2 * s
        if 2 * j + 2 in wanted:
            tot[2 * j + 2] = 2 * s
        if 4 * j + 3 in wanted:
            tot_p[4 * j + 3] = (2 * j + 2) * central + 2 * s
        if 4 * j + 5 in wanted:
            tot_p[4 * j + 5] = (6 * j + 4) * central - 2 * s
        s += j * central
        central = central * (4 * j + 2) // (j + 1)
    return tot, tot_p


@dataclass(frozen=True)
class TotalsReport:
    """Exact totals and the average |sigma| per knot for one c."""

    c: int
    tot: int
    tot_p: int
    avg_abs_sigma: Fraction
    asymptote: float

    def __post_init__(self) -> None:
        # A reduced fraction equals (tot + tot_p) / (2 * knot_count) exactly
        # when its denominator divides 2 * knot_count and the quotient takes
        # its numerator to tot + tot_p: no second gcd and no product of two
        # c-bit ints.
        avg = self.avg_abs_sigma
        scale, rest = divmod(2 * knot_count(self.c), avg.denominator)
        if rest or avg.numerator * scale != self.tot + self.tot_p:
            raise ValueError(
                f"avg_abs_sigma {self.avg_abs_sigma} != (tot + tot_p) / "
                f"(2 * knot_count) at c={self.c}")


def totals(c_values: Sequence[int]) -> dict[int, TotalsReport]:
    """Totals reports for a sequence of crossing numbers.

    tot and tot_p come from their closed forms (``_tot_pass``), in one pass
    to the largest c, within ``budget.check_avg_sig``; no histogram row is
    built.  The average per knot is exact: each knot is counted by two
    words, or by one word when that word is palindromic, so summing |sigma|
    over words and palindromes double-counts every knot.  An int c
    (``perfbench/record_reference.py``) gives c's report alone.
    """
    if isinstance(c_values, int):
        return totals((c_values,))[c_values]
    budget.check_avg_sig(c_values)
    if min(c_values) < 3:
        raise ValueError(f"crossing number must be >= 3, got {min(c_values)}")
    tot, tot_p = _tot_pass(c_values)
    return {c: TotalsReport(c=c, tot=tot[c], tot_p=tot_p[c],
                            avg_abs_sigma=Fraction(tot[c] + tot_p[c], 2 * knot_count(c)),
                            asymptote=math.sqrt(2 * c / math.pi))
            for c in c_values}


def verify_tot2(m: int, rows: Mapping[int, Row]) -> bool:
    """tot(2m+1) + tot(2m+2) = m * C(2m, m)."""
    lhs = total_abs(rows[2 * m + 1]) + total_abs(rows[2 * m + 2])
    return lhs == m * math.comb(2 * m, m)


def verify_tot_recursion(c: int, rows: Mapping[int, Row]) -> bool:
    """Even-c step: tot(c) = 2 tot(c-1) - 2 s(c-1,2) - 6 s(c-1,4) - 2."""
    if c % 2 != 0 or c < 4:
        raise ValueError(f"need even c >= 4, got {c}")
    prev = rows[c - 1]
    want = (
        2 * total_abs(prev) - 2 * prev.get(2, 0) - 6 * prev.get(4, 0) - 2
    )
    return total_abs(rows[c]) == want


def verify_totals_identity(m: int, rows: Mapping[int, Row]) -> bool:
    """The exact forms behind the error-term estimate:

    3 tot(2m+1) - m C(2m,m) = 2 s(2m+1,2) + 6 s(2m+1,4) + 2
    3 tot(2m+2)             = 2m C(2m,m) - (2 s(2m+1,2) + 6 s(2m+1,4) + 2)
    """
    odd, even = rows[2 * m + 1], rows[2 * m + 2]
    mid = math.comb(2 * m, m)
    err = 2 * odd.get(2, 0) + 6 * odd.get(4, 0) + 2
    return (
        3 * total_abs(odd) - m * mid == err
        and 3 * total_abs(even) == 2 * m * mid - err
    )


def verify_wallis(m: int) -> bool:
    """(4^m/√(πm))(1 - 1/(4m)) < C(2m,m) < 4^m/√(πm), decided exactly.

    Both sides are squared into rational inequalities and π is replaced
    by the bracket [pi_lo, pi_hi] = float(π) ∓ 2^-48, which is far wider
    than the float error; a True answer is therefore a proof, with no
    floating point in sight.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    central = math.comb(2 * m, m)
    pi_lo = Fraction(math.pi) - Fraction(1, 1 << 48)
    pi_hi = Fraction(math.pi) + Fraction(1, 1 << 48)
    # upper: C^2 * pi * m < 16^m, strengthened with pi_hi
    upper = central**2 * pi_hi * m <= 16**m
    # lower: 16^m (4m-1)^2 < C^2 * 16 * pi * m^3, strengthened with pi_lo
    lower = 16**m * (4 * m - 1) ** 2 <= central**2 * 16 * pi_lo * m**3
    return upper and lower


# ------------------------------------------------------------------ CSV cache


def row_to_csv(c: int, row: Row) -> str:
    """Serialize one row; a comment line carries the schema version and
    the sha256 of the payload so stale or edited files are detected."""
    body = "c,sigma,count\n" + "".join(
        f"{c},{s},{row[s]}\n" for s in sorted(row)
    )
    digest = hashlib.sha256(body.encode()).hexdigest()
    return f"# twobridge sig-table schema={SCHEMA_VERSION} sha256={digest}\n" + body


def row_from_csv(text: str) -> tuple[int, Row]:
    """Parse and authenticate a cached row; ValueError on any mismatch."""
    header, _, body = text.partition("\n")
    m = None
    prefix = "# twobridge sig-table schema="
    if header.startswith(prefix):
        rest = header[len(prefix):]
        parts = rest.split(" sha256=")
        if len(parts) == 2:
            m = parts
    if m is None:
        raise ValueError("missing or malformed schema header")
    if m[0] != str(SCHEMA_VERSION):
        raise ValueError(f"schema version {m[0]} != {SCHEMA_VERSION}")
    if hashlib.sha256(body.encode()).hexdigest() != m[1]:
        raise ValueError("sha256 mismatch: cached table was modified")
    lines = body.strip().split("\n")
    if lines[0] != "c,sigma,count":
        raise ValueError(f"unexpected column header {lines[0]!r}")
    row: Row = {}
    cs = set()
    for line in lines[1:]:
        c_str, s_str, n_str = line.split(",")
        cs.add(int(c_str))
        row[int(s_str)] = int(n_str)
    if len(cs) != 1:
        raise ValueError(f"file must hold exactly one c, got {sorted(cs)}")
    return cs.pop(), row


def cache_path(cache_dir: str | Path, c: int) -> Path:
    return Path(cache_dir) / f"sig-c{c:02d}.csv"


def load_cached_row(cache_dir: str | Path, c: int) -> Row | None:
    """Row from cache, or None if absent; ValueError if present but bad."""
    path = cache_path(cache_dir, c)
    if not path.exists():
        return None
    c_read, row = row_from_csv(path.read_text())
    if c_read != c:
        raise ValueError(f"cache file {path} holds c={c_read}, wanted c={c}")
    return row


def store_cached_row(cache_dir: str | Path, c: int, row: Row) -> Path:
    """Write one row atomically into an existing directory: a temp file there
    is renamed over the row, so no reader ever sees a half-written file."""
    path = cache_path(cache_dir, c)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(row_to_csv(c, row))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
