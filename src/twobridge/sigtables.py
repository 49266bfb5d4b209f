"""Exact signature histograms s(c, sigma) and their identities.

The histogram row for crossing number c counts, for each even sigma, the
words whose knot has that signature.  Rows come from the two-step
recursion grown from the base rows c=3,4 (``recursed_table``).  Two
independent derivations check them: a transfer DP over the runs of the
words (``transfer_table``), and exhaustive enumeration through the diagram
pipeline (``histogram_enumerated``).  Every identity takes the rows it
checks as an argument, so the caller decides which derivation it sees.  On
top of the rows sit the total absolute signature tot(c), its palindromic
variant tot_p(c), the exact average |sigma| per knot, and the √(2c/π)
asymptote it approaches.  tot_p comes from the same DP folded in half
(``palindromic_histogram``), in O(c^2) steps rather than one diagram per
palindrome.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Mapping

from . import budget
from .diagram import STATE_AFTER, STEP, signature
from .words import knot_count, swap_braid, word_from_interior_bits

Row = dict[int, int]

# Fewest masks that histogram_enumerated shards over a process pool.  On a
# 2-CPU x86 machine a serial row beats a 2-worker pool up to c = 17 (153 ms
# against 173 ms), and the pool wins from c = 18 (159 ms against 272 ms).
_POOL_MIN_MASKS = 1 << 16

SCHEMA_VERSION = 1

# Base rows: the unique words of T(3) and T(4) have signatures 2 and 0.
BASE_ROWS: dict[int, Row] = {3: {2: 1}, 4: {0: 1}}


def _shard(args: tuple[int, int, int]) -> Counter:
    c, lo, hi = args
    h: Counter = Counter()
    for mask in range(lo, hi):
        if (c + mask.bit_count()) % 3 == 1:
            h[signature(word_from_interior_bits(c, mask))] += 1
    return h


def histogram_enumerated(c: int, workers: int | None = None) -> Row:
    """Histogram row by full enumeration of T(c).

    Work is proportional to 2^(c-2), within ``budget.check_enumeration``.
    With workers > 1 and at least 2^16 masks (c >= 18) the mask range is
    sharded over a process pool; if the pool cannot start or breaks, a
    RuntimeWarning names the reason and the row is evaluated serially.
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    budget.check_enumeration(c)
    n_masks = 1 << (c - 2)
    if workers and workers > 1 and n_masks >= _POOL_MIN_MASKS:
        chunks = []
        step = -(-n_masks // (workers * 4))
        for lo in range(0, n_masks, step):
            chunks.append((c, lo, min(lo + step, n_masks)))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                total: Counter = Counter()
                for h in pool.map(_shard, chunks):
                    total.update(h)
                return dict(total)
        except (OSError, BrokenProcessPool) as exc:
            warnings.warn(
                f"process pool for c={c} failed ({type(exc).__name__}: {exc}); "
                "enumerating serially", RuntimeWarning, stacklevel=2)
    return dict(_shard((c, 0, n_masks)))


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
# (the ``states[1] == 1`` invariant of ``diagram.metrics_for_braid``), and a
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


def palindromic_histogram(c: int) -> Row:
    """Histogram row of the palindromic words of T(c), by the DP folded in
    half.

    A palindrome has e_i = e_{c+1-i}, so run c+1-i carries run i's letter
    for odd c and the other letter for even c.  One pass over runs
    1..c//2 walks both ends of the word: a forward track from state 1 on
    cut 0, and a backward track from the state on cut c, seeded once with
    each of 1, 2 and 3.  The seed that is the word's own is the one where
    the tracks meet, at the middle cut for even c and across the middle
    run for odd c.  Keys are (forward state, backward state, length mod
    3); work is O(c^2) counter updates, within ``budget.check_avg_sig``.
    """
    if c < 3:
        raise ValueError(f"crossing number must be >= 3, got {c}")
    budget.check_avg_sig((c,))
    odd = c % 2 == 1
    counts: _Counts = {(1, end, 0): Counter({0: 1}) for end in (1, 2, 3)}
    for i in range(1, c // 2 + 1):
        def moves(key, i=i):
            ahead, behind, length = key
            for e in _exponents(i):
                letter = _run_letter(i, e)
                ahead2, d_ahead = _forward(letter, ahead)
                behind2, d_behind = _backward(
                    letter if odd else swap_braid(letter), behind)
                yield (ahead2, behind2, (length + 2 * e) % 3), d_ahead + d_behind
        counts = _advance(counts, moves)
    row: Counter = Counter()
    for (ahead, behind, length), by_d in counts.items():
        if odd:  # the middle run takes the forward track onto the backward one
            joins = [(e, *_forward(_run_letter(c // 2 + 1, e), ahead)) for e in (1, 2)]
        else:
            joins = [(0, ahead, 0)]
        for e, meet, delta in joins:
            if meet == behind and (length + e) % 3 == 1:
                shift = delta + (not odd) - 1
                for d, n in by_d.items():
                    row[d + shift] += n
    return dict(row)


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
    """Sum of |sigma| over the palindromic words only, from
    ``palindromic_histogram``."""
    return total_abs(palindromic_histogram(c))


def epsilon(c: int) -> int:
    """Error term 2*C(2m-1,m) + 6*C(2m-1,m+1) + 2 for c = 2m+1 or 2m+2."""
    m = (c - 1) // 2
    if m < 1:
        raise ValueError(f"need c >= 3, got {c}")
    return 2 * _comb(2 * m - 1, m) + 6 * _comb(2 * m - 1, m + 1) + 2


@dataclass(frozen=True)
class TotalsReport:
    """Exact totals and the average |sigma| per knot for one c."""

    c: int
    tot: int
    tot_p: int
    tot2_m: int
    epsilon_c: int
    avg_abs_sigma: Fraction
    asymptote: float

    def __post_init__(self) -> None:
        if self.avg_abs_sigma != Fraction(self.tot + self.tot_p,
                                          2 * knot_count(self.c)):
            raise ValueError(
                f"avg_abs_sigma {self.avg_abs_sigma} != (tot + tot_p) / "
                f"(2 * knot_count) at c={self.c}")


def totals(c: int, rows: Mapping[int, Row] | None = None) -> TotalsReport:
    """Totals report for one crossing number.

    tot and the paired total come from one recursed table through row
    2m+2 <= c+1: ``rows`` when the caller totals many c from one table,
    else a table built here.  tot_p comes from the folded palindrome DP,
    within ``budget.check_avg_sig``.  The average per knot is exact: each
    knot is counted by two words, or by one word when that word is
    palindromic, so summing |sigma| over words and palindromes
    double-counts every knot.
    """
    m = (c - 1) // 2
    if rows is None:
        rows = recursed_table(2 * m + 2)
    tot = total_abs(rows[c])
    tot_p = palindromic_total_abs(c)
    tot2 = total_abs(rows[2 * m + 1]) + total_abs(rows[2 * m + 2])
    return TotalsReport(
        c=c,
        tot=tot,
        tot_p=tot_p,
        tot2_m=tot2,
        epsilon_c=epsilon(c),
        avg_abs_sigma=Fraction(tot + tot_p, 2 * knot_count(c)),
        asymptote=math.sqrt(2 * c / math.pi),
    )


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
    """Write one row atomically: a temp file in the same directory is
    renamed over the row, so no reader ever sees a half-written file."""
    path = cache_path(cache_dir, c)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(row_to_csv(c, row))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
