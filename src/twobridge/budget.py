"""The work budget of every exhaustive computation, and its one refusal.

Each ``check_*`` function estimates its computation's work and refuses it
above its limit, read from here at call time, before any work.  Times are
from a 2-CPU x86 machine, process start included; the largest request each
limit accepts takes 6.5 s or less.  No module of the package is imported.
"""

import math
from typing import Sequence

#: about 0.85 us per exponent mask when ``enumerate --c 22`` streams its
#: words to /dev/null, 0.85-0.91 s; scored in batches, ``sig-table --c 22
#: --method enumerate`` takes 0.24-0.25 s
ENUMERATION_BUDGET = 22
#: printed rows cost more than their recursion as their counts grow long:
#: ``sig-table --c 3..1448 --method recurse`` takes 4-6.4 s
RECURSION_WORK_BUDGET = 1 << 21
#: 0.12-0.14 ns per unit: ``avg-sig --c 175411``, the largest c, takes
#: 3.2-3.4 s, ``--c 175410``, the largest even c, 3.1-3.4 s, and
#: ``--c 3..10614``, the largest run from 3, 2.9-3.0 s at a peak of 62 MB.
#: ``enumerate --count-only`` is charged as one row: ``--c 632455``, the
#: largest c, takes 0.06-0.07 s since its digits are computed in decimal
#: arithmetic (0.8 s when they were converted from the binary count)
AVG_SIG_WORK_BUDGET = 25 * 10 ** 9
#: about 1.3 us per unit: ``palindromic_table((2047,))``, the largest c, takes
#: 5.5 s in process; only the avg-signature check and the tests run the DP
PALINDROMIC_WORK_BUDGET = 2047 ** 2
#: 3-7 ns per unit of the exact residual: the largest t at each s takes
#: 1.0-2.4 s at 20-22 MB of peak RSS, ``walk-sim --s 1 --t 47075 --exact``
#: 1.4 s, ``--s 2 --t 38780`` 2.3 s, ``--s 4 --t 14946`` 1.5-1.7 s, ``--s
#: 150 --t 1391`` 1.8 s and ``--s 5000 --t 61`` 1.7 s, and the largest s at
#: t = 1, 1207519 (odd) and 1207518 (even), 0.7-1.1 s at 31-34 MB.  The
#: mean g4 DP, charged the same way (``check_g4``): the largest c at each
#: s <= 21 takes 0.9-2.6 s, ``g4 --c 66452`` (the default s) 1.6-1.7 s,
#: ``--c 77564 --s 2`` 2.3 s and the slowest mean found, ``--c 632455 --s
#: 64515``, 2.9-4.0 s (median 3.9 s against 5.0 s with its mean's digits
#: converted whole, 5 interleaved processes on a slower spell).  The budget was set when the squares took a series,
#: the mean stepped its cores and the palindromic-type rows their blocks
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
# A step of an exact-residual series costs about 2 us in Python beyond its
# big-int products, which cost a unit per _SERIES_BITS of s t^2 (64 + s).
_SERIES_STEP = 80
_SERIES_BITS = 1300
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
    """Charge ``avg_sig_work``; its ``c=lo..hi`` label is formatted only
    to refuse."""
    work = avg_sig_work(c_values)
    if work > AVG_SIG_WORK_BUDGET:
        _check(work, AVG_SIG_WORK_BUDGET, f"the average signature at {_c_label(c_values)}",
               "work units (avg_sig_work)")


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


def _walk_groups(s: int) -> int:
    """The walk's non-palindromic rows (``markov._signature_groups``): 3 at
    s = 1, 2 at s = 2 and 6 from s = 3 on."""
    return 3 if s == 1 else 2 if s == 2 else 6


def kernel_work(s: int, t: int) -> int:
    """The exact residual (``markov.residual_totals``) on the walk's rows,
    among which are the mean g4 DP's: a series per non-palindromic row (at
    least one per distinct kernel), and one more as a margin (the squares,
    now closed forms of a few big-int operations, once took a series).
    Each costs _SERIES_STEP per step, plus its products of ints of up to
    s t bits by kernel coefficients of about 2 s bits: s t^2 (64 + s) /
    _SERIES_BITS, with 47 sqrt(s) for 64 + s past s = 2048, where CPython
    multiplies by Karatsuba.  The groups and the closed forms, the
    palindromic-type rows among them, are not charged."""
    size = s * t * t * min(64 + s, 47 * math.isqrt(s)) // _SERIES_BITS
    return (_walk_groups(s) + 1) * (_SERIES_STEP * t + size)


def check_walk(s: int, t: int) -> None:
    """``kernel_work``, with t = 0 charged as t = 1: the signature groups and
    the closed forms are built either way."""
    _check(kernel_work(s, max(t, 1)), WALK_WORK_BUDGET, f"the exact walk at s={s}, t={t} "
           "(sample it with monte_carlo_distance: walk-sim without --exact)",
           "work units for its series (kernel_work)")


def check_g4(c: int, s: int) -> None:
    """The mean g4 DP: the exact residual on its rows, charged as the
    walk's (``kernel_work``).  Its block table, cores, saddles and
    remainder classes are closed forms, which cost less than a series.  Its
    mean and word count are then charged as an avg-sig row's digits."""
    t = (2 * ((c - 1) // 2) - 1) // s
    request = f"the mean g4 DP at c={c}, s={s}"
    _check(kernel_work(s, t), WALK_WORK_BUDGET, request,
           "work units for its residual (kernel_work)")
    _check(c * c // _ROW_SHARE, AVG_SIG_WORK_BUDGET, request,
           "work units (c^2 / 16 for the digits of its mean, as an avg-sig row's)")


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
