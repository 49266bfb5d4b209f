"""The work budget of every exhaustive computation, and its one refusal.

Each ``check_*`` function estimates its computation's work and refuses it
above its limit, read from here at call time, before any work.  Times are
from a 2-CPU x86 machine, process start included; the largest request each
limit accepts takes about 10 s or less.  No module of the package is imported.
"""

from typing import Sequence

#: 2.5-4 us per exponent mask when ``enumerate --c 22`` streams its words,
#: 2.6-4.0 s; scored in batches, ``sig-table --c 22 --method enumerate``
#: takes 0.6-0.7 s
ENUMERATION_BUDGET = 22
#: printed rows cost more than their recursion as their counts grow long:
#: ``sig-table --c 3..1448 --method recurse`` takes 4-6.4 s
RECURSION_WORK_BUDGET = 1 << 21
#: 0.12-0.14 ns per unit: ``avg-sig --c 175411``, the largest c, takes
#: 3.2-3.4 s, ``--c 175410``, the largest even c, 3.1-3.4 s, and
#: ``--c 3..10614``, the largest run from 3, 2.9-3.0 s at a peak of 62 MB.
#: ``enumerate --count-only`` is charged as one row: ``--c 632455``, the
#: largest c, takes 1.0-1.1 s
AVG_SIG_WORK_BUDGET = 25 * 10 ** 9
#: about 1.3 us per unit: ``palindromic_table((2047,))``, the largest c, takes
#: 5.5 s in process; only the avg-signature check and the tests run the DP
PALINDROMIC_WORK_BUDGET = 2047 ** 2
#: 11-32 ns per unit: the largest t at each s takes 3.7-10.7 s,
#: ``walk-sim --s 1 --t 2215 --exact`` 8.0-8.8 s, ``--s 4 --t 785`` 5.6-6.2 s,
#: ``--s 5 --t 977`` 9.4-9.7 s, ``--s 7 --t 884`` 10.2-10.7 s and
#: ``(150, 225)``, where the counts far from d = 0 fill little of their
#: packed slots, 6.7 s.  At t = 1 the largest odd s,
#: ``exact_walk_cell(780895, 1)``, takes 1.9-2.1 s and the largest even s,
#: 493662, 1.0-1.1 s.  The mean g4 DP, charged the same way (``check_g4``):
#: the largest c at each s = 1..16 takes 4.4-9.0 s, ``g4 --c 3146`` (the
#: default s) 4.6-5.5 s and ``--c 4892 --s 5`` and ``--c 9270 --s 13``, the
#: slowest, 8.0-9.0 s
WALK_WORK_BUDGET = 5 << 26
#: about 0.1 us per unit: ``walk-sim --s 22 --t 1 --trials 2`` takes 0.5-0.8 s
#: at a peak of 0.19 GB, ``--s 2 --t 1 --trials 16777000`` 2.1 s at 0.30 GB,
#: ``--s 2 --t 8388600 --trials 2`` 1.3 s at 0.34 GB and ``--s 3 --t 333
#: --trials 50000`` 0.9 s
MONTE_CARLO_WORK_BUDGET = 1 << 24
#: 6-9 us per unit of the matrix powers: ``markov-verify --s 23 --kmax 1``,
#: the largest s, takes 1.1-1.3 s at 0.23 GB, ``--s 23 --kmax 1233``
#: 2.7-3.2 s, ``--s 18 --kmax 2279`` 2.9-3.3 s, ``--s 6 --kmax 6588``
#: 2.6-3.0 s and ``--s 1 --kmax 30783`` 2.9-3.4 s
MARKOV_WORK_BUDGET = 1 << 19

# A row of avg-sig (its Fraction, checked once more by its report, two
# floats and its digits) costs about c^2 / 16 units.
_ROW_SHARE = 16
# One table entry of the mean g4 DP (a block analysed as a class and as a
# mirror, 17-28 us) costs 2^10 walk work units, so the table alone refuses
# every s past 16; at s = 16 it takes 3.4 s.
_TABLE_ENTRY_WORK = 1 << 10
# A block of the walk DP costs a few us per signature group beyond its
# element operations (a Python step and one or two moves on the group's
# packed ints); the 4096 units charged for it overstate that, and are kept
# so that every request admitted so far stays admitted.  An element
# operation, one displacement's slot of a packed int, costs one unit more
# for every 1024 bits of the exact counts, which have up to s * t bits.
_BLOCK_WORK = 4096
_CELL_BITS = 1024
# A matrix power of the Markov checks, taken from the previous one and
# compared with its closed form and for its row spread, costs 20-30 us, 2
# units, and one unit more for every 1024 bits of its exponent n = k s (its
# entries have n bits).  A block, counted off its end states, costs about
# 0.12 us (1/64 unit) and 23 bytes at the peak; it charges 1/32 unit, so
# memory bounds s at 23 (0.23 GB, near the largest Monte Carlo table).
_POWER_WORK = 2
_POWER_BITS = 1024
_BLOCK_SHIFT = 5


class BudgetError(RuntimeError):
    """An exhaustive computation was refused because it exceeds the
    advertised work budget; the message carries the estimate."""


def _check(work: int, limit: int, request: str, units: str, stop: str = "",
           shift: tuple[int, int] = (0, 0)) -> None:
    """Raise BudgetError if work + (base << s), for (base, s) = shift, is above
    limit; a huge work prints as 2^k.  An s past 64 and the bit lengths of
    limit and work is refused on its size alone, without building 2^s."""
    base, s = shift
    if s > max(64, limit.bit_length(), work.bit_length()):
        bits = s + base.bit_length()
    else:
        work += base << s
        if work <= limit:
            return
        bits = work.bit_length()
    about = work if bits <= 64 else f"2^{bits - 1}"
    raise BudgetError(f"refusing {request}: it needs about {about} {units}, "
                      f"and the budget stops at {stop or limit}")


def check_enumeration(c: int) -> None:
    _check(0, 1 << (ENUMERATION_BUDGET - 2), f"to enumerate c={c}",
           "exponent masks", f"c={ENUMERATION_BUDGET}", shift=(1, c - 2))


def recursion_work(c_max: int) -> int:
    """The recursed rows 3..c_max: c_max^2."""
    return c_max * c_max


def check_recursion(c_max: int) -> None:
    _check(recursion_work(c_max), RECURSION_WORK_BUDGET,
           f"the recursed rows to c={c_max}", "work units (recursion_work)")


def _sum_of_squares(c_values: Sequence[int]) -> int:
    """Sum of c^2 over c_values, in closed form for a run of consecutive c."""
    if isinstance(c_values, range) and c_values.step == 1:
        lo, hi = c_values.start - 1, c_values[-1]
        return (hi * (hi + 1) * (2 * hi + 1) - lo * (lo + 1) * (2 * lo + 1)) // 6
    return sum(c * c for c in c_values)


def _tops(c_values: Sequence[int]) -> tuple[int, int]:
    """The largest even and odd c (0 if none), in O(1) for an increasing range."""
    if isinstance(c_values, range) and c_values.step > 0:
        c_values = c_values[-2:]
    return tuple(max((c for c in c_values if c % 2 == odd), default=0) for odd in (0, 1))


def avg_sig_work(c_values: Sequence[int]) -> int:
    """3 c^2 / 4 for the one totals pass to the largest c, about c/2 steps
    on c-bit ints, whatever its parity.  Each row then costs c^2 / 16 for
    its exact fraction and digits."""
    top = max(_tops(c_values))
    return 3 * top * top // 4 + _sum_of_squares(c_values) // _ROW_SHARE


def _c_label(c_values: Sequence[int]) -> str:
    lo = c_values[0] if isinstance(c_values, range) and c_values.step > 0 else min(c_values)
    hi = max(_tops(c_values))
    return f"c={lo}" if lo == hi else f"c={lo}..{hi}"


def check_avg_sig(c_values: Sequence[int]) -> None:
    _check(avg_sig_work(c_values), AVG_SIG_WORK_BUDGET,
           f"the average signature at {_c_label(c_values)}", "work units (avg_sig_work)")


def check_word_count(c: int) -> None:
    """The digits of |T(c)|, charged as one avg-sig row's: c^2 / 16."""
    _check(c * c // _ROW_SHARE, AVG_SIG_WORK_BUDGET, f"the word count at c={c}",
           "work units (c^2 / 16 for its digits, as an avg-sig row's)")


def palindromic_work(c_values: Sequence[int]) -> int:
    """c^2 for the folded palindrome pass to the largest c of each parity."""
    return sum(top * top for top in _tops(c_values))


def check_palindromic(c_values: Sequence[int]) -> None:
    _check(palindromic_work(c_values), PALINDROMIC_WORK_BUDGET,
           f"the palindromic rows at {_c_label(c_values)}", "work units (palindromic_work)")


def _walk_groups(s: int) -> tuple[int, int]:
    """The walk DP's rows, one per signature group
    (``markov._signature_groups``), and how many are palindromic-type: 3 and
    0 at s = 1, 8 and 6 at s = 2, and from s = 3 on 6 and 0 at odd and 15
    and 9 at even s."""
    return (3, 0) if s == 1 else (8, 6) if s == 2 else (6, 0) if s % 2 else (15, 9)


def _dp_work(s: int, t: int, rows: int, palindromic: int) -> int:
    """The displacement-law DP's t blocks, plus its element operations at
    each of the 2k + 3 displacements of block k, t (t + 2) in all, summed
    over its rows: 3 for the step at s = 1 (one letter over 3 states) and
    from s = 2 on 6 (three sums, their product by c_s, three adds) plus one
    per 32 bits of c_s, 2 for the own move, and 2 more for the mirror's
    unless the row is palindromic-type.  Each operation is weighted by
    1 + s t / 1024 for the size of its ints."""
    step = 3 if s == 1 else 6 + s // 32
    ops = (rows * (step + 2) + 2 * (rows - palindromic)) * t * (t + 2)
    return _BLOCK_WORK * t + ops * (_CELL_BITS + s * t) // _CELL_BITS


def walk_work(s: int, t: int) -> int:
    """The exact walk DP (``_dp_work``) on the walk's signature groups,
    which are read off M^s and M^(s/2) in closed form and not charged."""
    return _dp_work(s, t, *_walk_groups(s))


def check_walk(s: int, t: int) -> None:
    _check(walk_work(s, t), WALK_WORK_BUDGET, f"the exact walk at s={s}, t={t} "
           "(sample it with monte_carlo_distance: walk-sim without --exact)",
           "work units for its blocks and element operations (walk_work)")


def check_g4(c: int, s: int) -> None:
    """The mean g4 DP, charged as the walk's (``_dp_work``) on its rows, the
    signatures of its classes with at least 2 repaired crossings: the walk's
    groups, but only one at s = 1.  Plus _TABLE_ENTRY_WORK for each of the
    3 * 2^s entries of its block table, passed as a shift (no 2^s built)."""
    t = (2 * ((c - 1) // 2) - 1) // s
    rows = (1, 0) if s == 1 else _walk_groups(s)
    _check(_dp_work(s, t, *rows), WALK_WORK_BUDGET, f"the mean g4 DP at c={c}, s={s}",
           f"work units (2^10 per entry of its table of 3 * 2^{s} block masks, "
           "plus walk_work's for its DP)", shift=(3 * _TABLE_ENTRY_WORK, s))


def check_monte_carlo(s: int, t: int, trials: int) -> None:
    """3 * 2^s table entries and trials * t blocks."""
    _check(trials * t, MONTE_CARLO_WORK_BUDGET,
           f"Monte Carlo at s={s}, t={t}, trials={trials}",
           "table entries and blocks", shift=(3, s))


def markov_work(s: int, kmax: int) -> int:
    """The power checks' work for every block size up to s and k <= kmax:
    _POWER_WORK per power, plus its exponent n = k s' over _POWER_BITS,
    summed in closed form; the 2^s blocks are charged apart."""
    exponents = s * (s + 1) * kmax * (kmax + 1) // 4
    return _POWER_WORK * s * kmax + exponents // _POWER_BITS


def check_markov(s: int, kmax: int) -> None:
    """2^(s-5) units for the 2^s blocks of the empirical matrix, plus the
    power checks (``markov_work``)."""
    _check(markov_work(s, kmax), MARKOV_WORK_BUDGET,
           f"the transition-matrix checks at s={s}, kmax={kmax}",
           "work units (2^(s-5) for the 2^s blocks, and markov_work)",
           shift=(1, max(s - _BLOCK_SHIFT, 0)))
