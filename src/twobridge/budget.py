"""The work budget of every exhaustive computation, and its one refusal.

Each ``check_*`` function estimates its computation's work and refuses it
above its limit, read from here at call time, before any work.  Times are
from a 2-CPU x86 machine, process start included; the largest request each
limit accepts takes about 10 s or less.  No module of the package is imported.
"""

from typing import Sequence

#: 2.5-4 us per exponent mask: ``enumerate --c 22`` takes 2.6-4.0 s
ENUMERATION_BUDGET = 22
#: printed rows cost more than their recursion as their counts grow long:
#: ``sig-table --c 3..1448 --method recurse`` takes 4-6.4 s
RECURSION_WORK_BUDGET = 1 << 21
#: about 1 us per unit near c = 2000: ``avg-sig --c 2047`` takes 9-9.5 s
AVG_SIG_WORK_BUDGET = 1 << 23
#: about 25 ns per cell update: ``g4 --c 1410`` takes 4.0 s
G4_WORK_BUDGET = 1 << 27
#: 8-26 ns per unit: ``walk-sim --s 4 --t 605 --exact`` takes 7.6 s,
#: ``--s 2 --t 935`` 5.0 s and ``--s 3 --t 333`` 0.6 s, and
#: ``exact_expected_distance(39000, 1)`` 2.4 s; ``(4, 1000)``, refused, 27 s
WALK_WORK_BUDGET = 1 << 28
#: about 4 us per table entry: ``per_class_moments(18, 1)`` takes 3.2 s, and
#: ``(20, 1)``, refused, took 13 s at a peak of 0.6 GB
CLASS_LISTING_BUDGET = 1 << 21
#: about 0.1 us per unit: ``walk-sim --s 22 --t 1 --trials 2`` takes 1.9 s
#: at a peak of 0.8 GB, and ``--s 2 --t 1 --trials 16777000`` 2.1 s
MONTE_CARLO_WORK_BUDGET = 1 << 24
#: about 11-18 us per block: ``markov-verify --s 18 --kmax 8`` takes 4.6-6.3 s,
#: ``--s 6 --kmax 1365`` 8.0 s and ``--s 18 --kmax 227`` 9.4 s
MARKOV_WORK_BUDGET = 1 << 19

# The mean g4 DP has at most 9 * 3 * 2 law keys, from a class's (start,
# end), interior length mod 3 at parity 0 and type, and one table entry (a
# block analysed as a class and as a mirror, ~30 us) costs 2^10 cell updates.
_MAX_LAW_KEYS = 54
_TABLE_ENTRY_WORK = 1 << 10
# The walk's signature groups: 9 (start, end) pairs times the type.  A
# letter step of the walk DP costs ~15 us beyond its cells, as much as 512
# of them, and a cell costs one unit more for every 1024 bits of its exact
# ints, which have up to s * t bits.
_MAX_GROUPS = 18
_LETTER_STEP_WORK = 512
_CELL_BITS = 1024
# A sampling-kernel step over a chunk costs ~3 us beyond its blocks, as
# much as 32 of them (``walk-sim --s 2 --t 8388602 --trials 2`` took 53 s),
# and a matrix power, taken from the previous one and compared with its
# closed form, ~0.7 ms up to s * kmax = 8000, as much as 64 blocks.
_STEP_WORK = 32
_POWER_WORK = 64


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


def avg_sig_work(c_values: Sequence[int]) -> int:
    """c^2 for the folded palindrome DP at each c of a run lo..hi of
    consecutive crossing numbers, summed in closed form, plus the recursed
    rows to hi + 1."""
    lo, hi = c_values[0], c_values[-1]
    if len(c_values) != hi - lo + 1:
        raise ValueError(f"not a run of consecutive crossing numbers: {c_values!r}")
    squares = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6
    return squares + recursion_work(hi + 1)


def check_avg_sig(c_values: Sequence[int]) -> None:
    lo, hi = c_values[0], c_values[-1]
    _check(avg_sig_work(c_values), AVG_SIG_WORK_BUDGET, "the average signature at "
           + (f"c={lo}" if lo == hi else f"c={lo}..{hi}"), "work units (avg_sig_work)")


def _g4_cells(c: int, s: int) -> int:
    """s letter steps over 9 states and 2k + 3 displacements at block k, per
    law key: one per class, over 54 from s = 6 on (where 2^s is not built)."""
    t = (2 * ((c - 1) // 2) - 1) // s
    classes = (((3 << s) + (3 << s // 2 if s % 2 == 0 else 0)) // 2 if s < 6
               else _MAX_LAW_KEYS)
    return min(classes, _MAX_LAW_KEYS) * 9 * s * t * (t + 2)


def g4_work(c: int, s: int) -> int:
    """Cell updates of the mean g4 DP: its 3 * 2^s block table and DP cells."""
    return (3 << s) * _TABLE_ENTRY_WORK + _g4_cells(c, s)


def check_g4(c: int, s: int) -> None:
    message = (G4_WORK_BUDGET, f"the mean g4 DP at c={c}, s={s}", "cell updates "
               f"for its table of 3 * 2^{s} block masks and its DP (g4_work)")
    if s <= 64:
        _check(g4_work(c, s), *message)
    else:  # the table alone is over the budget: g4_work's 2^s is not built
        _check(_g4_cells(c, s), *message, shift=(3 * _TABLE_ENTRY_WORK, s))


def walk_work(s: int, t: int) -> int:
    """The exact walk DP's s t letter steps, plus its cells: 3 states and
    2k + 3 displacements per group at each letter of block k, 54 s t (t + 2)
    in all, each weighted by 1 + s t / 1024 for the size of its ints."""
    cells = _MAX_GROUPS * 3 * s * t * (t + 2)
    return _LETTER_STEP_WORK * s * t + cells * (_CELL_BITS + s * t) // _CELL_BITS


def check_walk(s: int, t: int) -> None:
    _check(walk_work(s, t), WALK_WORK_BUDGET, f"the exact walk at s={s}, t={t} "
           "(sample it with monte_carlo_distance: walk-sim without --exact)",
           "letter steps and DP cells (walk_work)")


def check_class_listing(s: int) -> None:
    """3 * 2^s table entries, to list every summand class."""
    _check(0, CLASS_LISTING_BUDGET, f"the per-class walk moments at s={s} "
           "(sample the walk with monte_carlo_distance)", "table entries", shift=(3, s))


def check_monte_carlo(s: int, t: int, trials: int, chunks: int) -> None:
    """3 * 2^s table entries, trials * t blocks and t kernel steps per chunk."""
    _check(trials * t + _STEP_WORK * chunks * t, MONTE_CARLO_WORK_BUDGET,
           f"Monte Carlo at s={s}, t={t}, trials={trials}",
           "table entries, blocks and kernel steps", shift=(3, s))


def check_markov(s: int, kmax: int) -> None:
    """2^s blocks for the empirical matrix, plus s * kmax closed-form powers."""
    _check(_POWER_WORK * s * kmax, MARKOV_WORK_BUDGET,
           f"the transition-matrix checks at s={s}, kmax={kmax}",
           f"block units (2^s blocks, {_POWER_WORK} per closed-form power)",
           shift=(1, s))
