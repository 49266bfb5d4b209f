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
#: about 50 ns per unit: ``walk-sim --s 3 --t 196 --exact`` takes 0.5 s
WALK_WORK_BUDGET = 1 << 22
#: about 0.1 us per unit: ``walk-sim --s 22 --t 1 --trials 2`` takes 1.9 s
#: at a peak of 0.8 GB, and ``--s 2 --t 1 --trials 16777000`` 2.1 s
MONTE_CARLO_WORK_BUDGET = 1 << 24
#: about 14 us per block: ``markov-verify --s 18 --kmax 8`` takes 4.6-6.3 s,
#: and ``--s 1 --kmax 1365`` or ``--s 18 --kmax 37`` about 8 s
MARKOV_WORK_BUDGET = 1 << 19

# The mean g4 DP has at most 9 * 3 * 2 law keys, from a class's (start,
# end), interior length mod 3 at parity 0 and type, and one table entry (a
# block analysed as a class and as a mirror, ~30 us) costs 2^10 cell updates.
_MAX_LAW_KEYS = 54
_TABLE_ENTRY_WORK = 1 << 10
# The walk's signature groups: 9 (start, end) pairs times the type.
_MAX_GROUPS = 18
# A sampling-kernel step over a chunk costs ~3 us beyond its blocks, as
# much as 32 of them (``walk-sim --s 2 --t 8388602 --trials 2`` took 53 s),
# and a closed-form power ~5 ms near s * kmax = 1200, as much as 384 blocks.
_STEP_WORK = 32
_POWER_WORK = 384


class BudgetError(RuntimeError):
    """An exhaustive computation was refused because it exceeds the
    advertised work budget; the message carries the estimate."""


def _check(work: int, limit: int, request: str, units: str, stop: str = "") -> None:
    """Raise BudgetError if work is above limit; a huge work prints as 2^k."""
    if work > limit:
        about = work if work.bit_length() <= 64 else f"2^{work.bit_length() - 1}"
        raise BudgetError(f"refusing {request}: it needs about {about} {units}, "
                          f"and the budget stops at {stop or limit}")


def check_enumeration(c: int) -> None:
    _check(1 << (c - 2), 1 << (ENUMERATION_BUDGET - 2), f"to enumerate c={c}",
           "exponent masks", f"c={ENUMERATION_BUDGET}")


def recursion_work(c_max: int) -> int:
    """The recursed rows 3..c_max: c_max^2."""
    return c_max * c_max


def check_recursion(c_max: int) -> None:
    _check(recursion_work(c_max), RECURSION_WORK_BUDGET,
           f"the recursed rows to c={c_max}", "work units (recursion_work)")


def avg_sig_work(c_values: Sequence[int]) -> int:
    """c^2 for the folded palindrome DP at each c, plus the recursed rows."""
    return sum(c * c for c in c_values) + recursion_work(max(c_values) + 1)


def check_avg_sig(c_values: Sequence[int]) -> None:
    lo, hi = min(c_values), max(c_values)
    _check(avg_sig_work(c_values), AVG_SIG_WORK_BUDGET, "the average signature at "
           + (f"c={lo}" if lo == hi else f"c={lo}..{hi}"), "work units (avg_sig_work)")


def g4_work(c: int, s: int) -> int:
    """Cell updates of the mean g4 DP: its table of 3 * 2^s blocks, plus s
    letter steps over 9 states and 2k + 3 displacements at block k, per key."""
    t = (2 * ((c - 1) // 2) - 1) // s
    classes = ((3 << s) + (3 << s // 2 if s % 2 == 0 else 0)) // 2
    cells = min(classes, _MAX_LAW_KEYS) * 9 * s * t * (t + 2)
    return (3 << s) * _TABLE_ENTRY_WORK + cells


def check_g4(c: int, s: int) -> None:
    _check(g4_work(c, s), G4_WORK_BUDGET, f"the mean g4 DP at c={c}, s={s}",
           f"cell updates for its table of 3 * 2^{s} block masks and its DP (g4_work)")


def walk_work(s: int, t: int) -> int:
    """3 * 2^s table entries plus the exact walk's DP cells over t steps."""
    return (3 << s) + _MAX_GROUPS * 3 * (2 * t + 1) * t


def check_walk(s: int, t: int) -> None:
    _check(walk_work(s, t), WALK_WORK_BUDGET, f"the exact walk at s={s}, t={t} "
           "(sample it with monte_carlo_distance: walk-sim without --exact)",
           "table entries and DP cells (walk_work)")


def check_monte_carlo(s: int, t: int, trials: int, chunks: int) -> None:
    """3 * 2^s table entries, trials * t blocks and t kernel steps per chunk."""
    _check((3 << s) + trials * t + _STEP_WORK * chunks * t, MONTE_CARLO_WORK_BUDGET,
           f"Monte Carlo at s={s}, t={t}, trials={trials}",
           "table entries, blocks and kernel steps")


def check_markov(s: int, kmax: int) -> None:
    """2^s blocks for the empirical matrix, plus s * kmax closed-form powers."""
    _check((1 << s) + _POWER_WORK * s * kmax, MARKOV_WORK_BUDGET,
           f"the transition-matrix checks at s={s}, kmax={kmax}",
           f"block units (2^s blocks, {_POWER_WORK} per closed-form power)")
