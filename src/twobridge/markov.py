"""Orientation-state Markov chain and the summand random walk.

Reading a block of s uniformly random braid letters moves the orientation
state at a cut by a Markov chain on {1, 2, 3}: each letter either fixes the
state or transposes it with a neighbour, so the one-letter step matrix is
(1/2) M with M = [[1,1,0],[1,0,1],[0,1,1]].  M = B - J, with B the all-ones
matrix and J the flip 1 <-> 3, so M^n = (-J)^n + c_n B with
c_n = (2^n - (-1)^n) / 3, and the s-letter transition matrix (1/2^s) M^s
contracts toward the uniform distribution at rate 2^(-s).  The checks of
these facts (``verify_chain``) compare count matrices 2^n P^n, exact ints:
the power of M, the counts over all 2^s blocks, read off the end states
that the walk tables below are built on, the closed form and its row
spreads, each power of M^s taken once.

Cutting a long word into t blocks of s letters yields t summands
(orientation state, block).  Mirror cancellation turns the summand
multiset into a walk on Z^d x Z_2^p: one signed integer coordinate per
mirror pair of classes, one parity bit per palindromic-type oriented word.
The distance is a sum over classes, so E[Dist] = sum_w E|D_w|, and the law
of one displacement D_w depends only on the class's transfer signature:
the (start, end) states of the class and of its mirror, and its type.
Classes are grouped by signature, and ``_signature_groups`` counts the
classes of each group off the closed forms of M^s and M^(s/2), with no
block listed.  A row is a group's signature, a plain tuple.  The one exact
residual, ``residual_totals``, reads each row's sums of |D_w| and D_w^2
(of D_w mod 2 if palindromic-type) after t uniform blocks off closed-form
generating functions, by the kernel method for directed lattice paths,
in one O(t) exact integer series per kernel and the rest in closed form,
instead of a sum over all 2^(s t) block sequences (the tests keep that
enumeration as the oracle, and a DP over every displacement on numpy
object arrays as the reference).  It serves the walk, ``per_class_moments``
and, with other weights on the final states, the residual term of
``cobordism.average_g4_row`` on the same rows; the mean's cores and the
costs they collect over the blocks (``cost_sums``) are closed forms of
M^(s k).
The module checks the taxicab-distance bound 3 sqrt(2^s t) + p and the
per-class abs-mean bound 2 sqrt(t / 2^s); the tests check the second-moment
bound 4 t / 2^s that implies it.

Monte Carlo sampling covers walks past ``budget.check_walk``, within
``budget.check_monte_carlo``.  Each letter acts on Z/3 (state - 1) as a
reflection, so a block acts as x -> (-1)^s x + r, with r read off its end
state from state 1, and one prefix sum along a sampled walk gives the state
before each of its blocks, with no Python step per block.  Blocks are the
top s bits of the 32-bit halves of raw Philox words (``_block_sampler``),
the values that ``Generator.integers`` draws, in int32, and every kernel
array with one entry per block is int32 but the intp summand ids
(``_work``) and the sorting scorer's positions and flags (``_run_work``).
A walk of t >= K blocks, with K about 1.5 * 2^s summand classes
(``_class_count``), is scored by one ``np.bincount`` over (walk, class,
side) bins: each class's own count less its mirror count is D_w, which
contributes |D_w|, or its parity for a palindromic-type class.  A shorter
walk would leave most bins empty, so its t int32 keys 2 * canon + [mirror
side] are sorted instead, which groups every class into one run, and one
``np.add.reduceat`` over the runs gives each D_w.  The choice depends on
(s, t) alone.  Walks are drawn in chunks of at most 2^16 blocks, so that
each kernel array (512 KB at most, unless one walk is longer) stays in
cache and a binned chunk has at most 2 * 2^16 bins; the draws do not
depend on the chunking.  The lookup tables hold what the
sampler reads once each: the key over all 3 * 2^s oriented blocks, and r
and the palindromic type per block; the binned scorer reads its bins off
them.  They are built afresh, by prefix doubling in int32, on the end
states (``_end_states``) that ``verify_chain`` counts the blocks by, O(2^s)
work, for no exact walk value.

Only the sampler and those block counts run numpy, and each function that
does imports it when it runs: an exact walk cell, mean or power of M never
loads numpy.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from . import budget
from .diagram import STATE_AFTER

if TYPE_CHECKING:
    import numpy as np

Matrix = tuple[tuple[Fraction, Fraction, Fraction], ...]
IntMatrix = tuple[tuple[int, int, int], ...]

# The most blocks (at least one walk) that Monte Carlo sampling draws and
# scores at once.  The kernel's step count does not grow with a chunk, so a
# chunk only needs to spread its fixed numpy calls, and small arrays stay in
# cache: work arrays of 256 KB (int32) and 512 KB (the intp summand ids),
# and for walks of t >= K blocks at most rows * 2 K <= 2 * 2^16 bins.
_CELL_CAP = 1 << 16

# Orientation state after a letter a (row 0) or b (row 1), by state 1..3.
_STEPS = (STATE_AFTER["a"], STATE_AFTER["b"])


def identity_matrix() -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(3)) for i in range(3))


def matrix_multiply(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    columns = list(zip(*b))
    return tuple([tuple([x * p + y * q + z * r for p, q, r in columns])
                  for x, y, z in a])


def matrix_power(a: IntMatrix, k: int) -> IntMatrix:
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    result = identity_matrix()
    while k:
        if k & 1:
            result = matrix_multiply(result, a)
        k >>= 1
        if k:
            a = matrix_multiply(a, a)
    return result


def _letter_counts() -> IntMatrix:
    """M[i][j] = number of letters moving state i+1 to j+1."""
    counts = [[0] * 3 for _ in range(3)]
    for after in STATE_AFTER.values():
        for state in (1, 2, 3):
            counts[state - 1][after[state] - 1] += 1
    return tuple(map(tuple, counts))


def _block_counts(s: int) -> IntMatrix:
    """Number of the 2^s letter blocks moving state i+1 to j+1, counted off
    their end states, on which the walk tables are built (``_end_states``)."""
    import numpy as np

    return tuple(tuple(np.bincount(ends, minlength=4)[1:].tolist())
                 for ends in _end_states(s))


def _power_parts(n: int) -> tuple[int, int]:
    """(c_n, (-1)^n) with c_n = (2^n - (-1)^n) / 3."""
    sign = -1 if n % 2 else 1
    return (2 ** n - sign) // 3, sign


def _power_matrix(bulk: int, sign: int) -> IntMatrix:
    """(-J)^n + c_n B from (c_n, (-1)^n), with B the all-ones matrix and J
    the flip 1 <-> 3 (the anti-diagonal permutation)."""
    low, high = bulk, bulk + sign
    if sign < 0:
        return (low, low, high), (low, high, low), (high, low, low)
    return (high, low, low), (low, high, low), (low, low, high)


def _closed_form(n: int) -> IntMatrix:
    """M^n = (-J)^n + c_n B, with (c_n, (-1)^n) from ``_power_parts``:
    M = B - J, and B J = J B = B, B^2 = 3 B."""
    return _power_matrix(*_power_parts(n))


# B is the all-ones matrix and J the flip 1 <-> 3: the letter counts are
# M = B - J (``_letter_counts``), and M^n = c_n B + (-J)^n.
_I = identity_matrix()
_B = ((1, 1, 1),) * 3
_J = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
_LETTERS = tuple(tuple(b - j for b, j in zip(*rows)) for rows in zip(_B, _J))


def _check_algebra() -> None:
    """Raise ValueError unless B^2 = 3 B, B J = J B = B and J^2 = I, the
    products that M^n = c_n B + (-J)^n rests on."""
    if not (matrix_multiply(_B, _B) == tuple(tuple(3 * x for x in row) for row in _B)
            and matrix_multiply(_B, _J) == matrix_multiply(_J, _B) == _B
            and matrix_multiply(_J, _J) == _I):
        raise ValueError("B and J break B^2 = 3 B, B J = J B = B or J^2 = I")


_check_algebra()


def _block_power(s: int) -> tuple[int, int]:
    """(c_s, (-1)^s) with M^s = c_s B + (-J)^s, the one check of M^s that
    ``residual_totals`` makes, once per call, for its kernels and its
    palindromic-type rows' Lucas sequences, in O(log s) steps.

    With M = B - J and the products that ``_check_algebra`` checks,
    M^(2k) = (3 c_k^2 + 2 (-1)^k c_k) B + I and
    M^(k+1) = (2 c_k + (-1)^k) B + (-J)^(k+1), so c_s follows the bits of
    s.  ValueError unless the letter counts are B - J and
    ``_closed_form(s)`` equals c_s B + (-J)^s.
    """
    bulk, sign = 0, 1  # M^0 = I
    for bit in bin(s)[2:]:
        bulk, sign = 3 * bulk * bulk + 2 * sign * bulk, 1
        if bit == "1":
            bulk, sign = 2 * bulk + sign, -sign
    power = tuple(tuple(bulk * b + sign * f for b, f in zip(*rows))
                  for rows in zip(_B, _J if sign < 0 else _I))
    if _letter_counts() != _LETTERS or _closed_form(s) != power:
        raise ValueError(f"M^{s} differs from its closed form")
    return bulk, sign


def _scaled(counts: IntMatrix, n: int) -> Matrix:
    """counts / 2^n as exact fractions."""
    return tuple(tuple(Fraction(x, 2 ** n) for x in row) for row in counts)


def transition_matrix(s: int) -> Matrix:
    """Orientation-state transition probabilities across s random letters."""
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    return _scaled(matrix_power(_letter_counts(), s), s)


def power_closed_form(s: int, k: int) -> Matrix:
    """Closed form for the k-th power of the block transition matrix.

    With n = k s it is M^n / 2^n (``_closed_form``): for odd n every entry
    is (1 + 2^(-n)) / 3 except the anti-diagonal ones at (1 - 2^(1-n)) / 3;
    for even n the diagonal holds (1 + 2^(1-n)) / 3 and everything else
    (1 - 2^(-n)) / 3.  k = 0 gives the identity.
    """
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    return _scaled(_closed_form(k * s), k * s)


def _row_spread(p: IntMatrix) -> int:
    """Largest within-row spread of a matrix."""
    return max(max(row) - min(row) for row in p)


def contraction_gap(s: int, k: int) -> Fraction:
    """Largest within-row spread of the k-step block transition matrix."""
    power = matrix_power(matrix_power(_letter_counts(), s), k)
    return Fraction(_row_spread(power), 2 ** (k * s))


def verify_chain(s: int, kmax: int) -> dict[str, bool]:
    """Every exact check of the chain for the block sizes s' <= s, on
    integer count matrices, refused first by ``budget.check_markov``:

    - ``empirical``: M^s' equals the counts over all 2^s' blocks
      (``_block_counts``);
    - ``closed_form``: each power (M^s')^k, k <= kmax, taken from
      (M^s')^(k-1), equals the closed form at n = k s', whose c_n is
      stepped as c_(n+s') = 2^s' c_n + (-1)^n c_s';
    - ``contraction``: for k >= 1 the same power has row spreads of at most
      1, that is gap(s', k) <= 2^(-k s');
    - ``power_identity``: M^r by repeated squaring equals
      (-J)^r + (2^r - (-1)^r)/3 * B for r <= 20, with J the anti-diagonal
      permutation matrix and B the all-ones matrix.
    """
    if s < 1 or kmax < 1:
        raise ValueError(f"need s >= 1 and kmax >= 1, got s={s}, kmax={kmax}")
    budget.check_markov(s, kmax)
    m = _letter_counts()
    empirical = closed_form = contraction = True
    for n in range(1, s + 1):
        p = matrix_power(m, n)
        empirical &= p == _block_counts(n)
        power = identity_matrix()
        step_bulk, step_sign = _power_parts(n)
        bulk, sign = _power_parts(0)
        for k in range(kmax + 1):
            closed_form &= power == _power_matrix(bulk, sign)
            if k:
                contraction &= _row_spread(power) <= 1
            power = matrix_multiply(power, p)
            bulk, sign = (bulk << n) + sign * step_bulk, sign * step_sign
    return {
        "empirical": empirical,
        "closed_form": closed_form,
        "contraction": contraction,
        "power_identity": all(matrix_power(m, r) == _closed_form(r) for r in range(21)),
    }


def pal_coordinate_count(s: int) -> int:
    """Number p of parity coordinates: palindromic-type oriented words."""
    return 3 * 2 ** (s // 2) if s % 2 == 0 else 0


def _signature_groups(s: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The walk's signature groups in increasing order of signature code:
    one row (start, end, mirror start, mirror end, palindromic-type) of
    state indices 0..2 per group, and the number of classes in each, as
    two tuples.

    No block is listed: N[x][y], the number of blocks that take state x to
    y, is M^s (``_closed_form``).  A palindromic-type block (even s) is a
    half h followed by J h^-1 J, with J the flip 1 <-> 3.  On x = state - 1
    in Z/3, h is x -> e x + r with e = (-1)^(s/2) and r + 1 its end state
    from state 1, and J is x -> -1 - x, so the block is the translation
    x -> x + e (2 r + 1) - 1: row 0 of M^(s/2) gives P[x][y] of them, each
    its own class.  A mirror runs from flip(y) to flip(x) and the class is
    the side with the smaller id, so the other blocks from x to y are
    N - P classes when x < flip(y), half of that when x = flip(y), and none
    otherwise.
    """
    n = _closed_form(s)
    p = [[0] * 3 for _ in range(3)]
    if s % 2 == 0:
        turn = (-1) ** (s // 2)
        for r, count in enumerate(_closed_form(s // 2)[0]):
            for x in range(3):
                p[x][(x + turn * (2 * r + 1) - 1) % 3] += count
    groups = []
    for x, y in product(range(3), repeat=2):
        others = n[x][y] - p[x][y]
        if x <= 2 - y:
            groups.append(((x, y, 2 - y, 2 - x, 0),
                           others if x < 2 - y else others // 2))
        groups.append(((x, y, 2 - y, 2 - x, 1), p[x][y]))
    rows, sizes = zip(*(group for group in groups if group[1]))
    return rows, sizes


class _WalkTables(NamedTuple):
    """Lookup tables for the walk kernel, by id (state - 1) * 2^s + block or by block."""

    s: int
    # Sort key 2 * canon + [mirror side] per id: canon is the class's
    # canonical id, and the mirror side of a class counts -1 in D_w.
    key: np.ndarray
    # Per block: r, its end state less one from state 1, and whether it is
    # palindromic-type.
    offset: np.ndarray
    is_pal: np.ndarray


def _end_states(s: int) -> np.ndarray:
    """End state after each block from each start state, shape (3, 2^s), by
    prefix doubling: the block b of k + 1 letters is the block b >> 1 of k
    letters followed by the letter b & 1."""
    import numpy as np

    a_step, b_step = np.array(_STEPS, dtype=np.int32)
    ends = np.arange(1, 4, dtype=np.int32)[:, None]  # shape (3, 2^k)
    for k in range(s):
        longer = np.empty((3, 2 << k), dtype=np.int32)
        longer[:, 0::2] = a_step[ends]
        longer[:, 1::2] = b_step[ends]
        ends = longer
    return ends


def _tables(s: int) -> _WalkTables:
    import numpy as np

    # The end states, and each block with its letters reversed by the same
    # prefix doubling.  The build runs in int32: the budgets keep
    # 3 * 2^s <= 2^24, so every key, below 6 * 2^s, stays below 2^31.
    ends = _end_states(s)
    offset = (ends[0] - 1).astype(np.int8)
    reversed_bits = np.zeros(1, dtype=np.int32)
    for k in range(s):
        flipped = np.empty(2 << k, dtype=np.int32)
        flipped[0::2] = reversed_bits
        flipped[1::2] = reversed_bits | (1 << k)
        reversed_bits = flipped

    # Mirror block: reverse the letter order and swap a <-> b.
    half = 1 << s
    mirror_block = (half - 1) ^ reversed_bits
    blocks = np.arange(half, dtype=np.int32)
    is_pal = mirror_block == blocks

    # The key is built in place of the end states: first the mirror id,
    # which starts at the flip 4 - y of the end state y, less the row's
    # offset x 2^s, so that each row compares with the blocks; then the
    # canonical id, then the key.
    key = np.subtract(3, ends, out=ends)
    key <<= s
    key += mirror_block
    row_offset = np.arange(3, dtype=np.int32)[:, None] << s
    key -= row_offset
    np.minimum(key, blocks, out=key)
    np.copyto(key, blocks, where=is_pal)
    mirror_side = key != blocks
    key += row_offset
    key <<= 1
    key += mirror_side
    return _WalkTables(s, key.reshape(-1), offset, is_pal)


def _class_count(s: int) -> int:
    """Number K of summand classes: one per mirror pair of the 3 * 2^s
    oriented blocks, and one per palindromic-type oriented block."""
    return (3 << s) + pal_coordinate_count(s) >> 1


def _work(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The work arrays of the walk kernels for blocks of this shape: the
    summand ids in intp, the index type of ``np.take`` and ``np.bincount``
    (int32 ids would be copied to intp on each call), and two int32 planes
    of scratch."""
    import numpy as np

    return np.empty(shape, dtype=np.intp), np.empty((2, *shape), dtype=np.int32)


def _summand_ids(blocks: np.ndarray, tables: _WalkTables, ids: np.ndarray,
                 spare: np.ndarray) -> np.ndarray:
    """Summand id (state - 1) * 2^s + block of each entry of a (rows, t)
    array of blocks, every walk from state 1, written into ``ids``, with
    ``spare`` as scratch (``_work``).

    With x = state - 1 in Z/3, a letter is a reflection (``STATE_AFTER``):
    a is x -> -x and b is x -> 1 - x.  So block j moves x to
    (-1)^s x + r_j, with r_j + 1 its end state from state 1, and one prefix
    sum along each row gives the state before block k: the sum of r_j over
    j < k for even s, and (-1)^k times the sum of (-1)^(j+1) r_j for odd s,
    mod 3.  No step loops over t.
    """
    import numpy as np

    s = tables.s
    scratch, x = spare
    # Column k holds r_(k-1), signed by (-1)^k for odd s, and column 0 is 0,
    # so one prefix sum over the whole array, less its value at each row's
    # start, gives the states.  It is at most 2 rows t < 2^24 in magnitude:
    # a chunk has rows t <= max(2^16, t), and with at least two trials
    # ``budget.check_monte_carlo`` keeps t below 2^23.  numpy's integer
    # prefix sum runs 3-7 times as fast with a strided operand (numpy 2.4,
    # 65,000 int32: 38-70 against 180-280 us), so the steps are written at
    # a stride of two into the memory of ``ids``, not yet written.
    lanes = ids.view(np.int32)
    steps = lanes[:, ::2]
    steps[:, 0] = 0
    steps[:, 1:] = np.take(tables.offset, blocks[:, :-1])
    if s % 2:
        steps[:, 1::2] *= -1
    np.cumsum(lanes.reshape(-1)[::2], out=x.reshape(-1))
    x -= x[:, :1]
    if s % 2:
        x[:, 1::2] *= -1
    # x mod 3 as x - 3 (x // 3): numpy vectorises floor division by a
    # scalar but not the remainder, which costs about 15 times as much.
    np.floor_divide(x, 3, out=scratch)
    scratch *= 3
    x -= scratch
    x <<= s
    return np.add(x, blocks, out=ids)


def _run_work(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The work arrays of the sorting scorer for n entries: the positions
    0 .. n - 1 in intp, and two bool planes of n + 1 flags, for the run
    edges and for the palindromic type."""
    import numpy as np

    return np.arange(n), np.empty((2, n + 1), dtype=bool)


def _distances(blocks: np.ndarray, tables: _WalkTables, ids: np.ndarray,
               spare: np.ndarray, runs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Walk distance of each row of a (rows, t) array of blocks, by sorting,
    in the work arrays of ``_work`` and ``_run_work``.

    Sorting a row's summand keys puts each class's summands next to each
    other, own side (+1) before mirror side (-1), in one run.  Each entry
    is given the start of its run, and one ``np.add.reduceat`` over those
    starts sums each class's signed count D_w at the last entry of its run,
    which contributes |D_w|, or its parity for a palindromic-type class.
    """
    import numpy as np

    rows, t = blocks.shape
    n = rows * t
    positions, flags = runs
    keys = np.take(tables.key, _summand_ids(blocks, tables, ids, spare), out=spare[0])
    keys.sort(axis=1)

    flat = keys.reshape(-1)
    canon = np.right_shift(flat, 1, out=spare[1].reshape(-1))
    # Entry i starts a run where edge[i] is set, and ends one where
    # edge[i + 1] is; a run never crosses into the next row.
    edge, pal = flags[0, :n + 1], flags[1, :n]
    np.not_equal(canon[1:], canon[:-1], out=edge[1:n])
    edge[::t] = True
    index = ids.reshape(-1)
    np.bitwise_and(canon, (1 << tables.s) - 1, out=index)
    np.take(tables.is_pal, index, out=pal)
    flat &= 1  # the side, then its sign 1 - 2 side
    flat *= -2
    flat += 1
    np.multiply(edge[:n], positions[:n], out=index)
    np.maximum.accumulate(index, out=index)  # the start of each entry's run
    # At a run's last entry the next index is the next run's start, so
    # reduceat sums the run there; elsewhere it copies one sign.
    counts = residual_count(np.add.reduceat(flat, index, out=canon), pal)
    counts *= edge[1:]
    return counts.reshape(rows, t).sum(axis=1, dtype=np.int64)


def residual_count(d, pal):
    """Copies of a class left by cancellation: |d|, or d mod 2 if
    palindromic-type, with ``pal`` over the last axis of ``d``, written
    over ``d``."""
    import numpy as np

    np.abs(d, out=d)
    d[..., pal] &= 1
    return d


def _bin_table(tables: _WalkTables) -> tuple[np.ndarray, np.ndarray]:
    """Each id's bin 2 * rank + [mirror side], with rank its class's place
    among the K classes in order of canonical id, and whether each class,
    by rank, is palindromic-type: int32 over the 3 * 2^s ids, bool over
    the K classes."""
    import numpy as np

    own = (tables.key & 1) == 0
    rank = np.cumsum(own, dtype=np.int32)  # rank + 1 at each canonical id
    bins = rank[tables.key >> 1]
    bins -= 1
    bins <<= 1
    bins += tables.key & 1
    classes = np.flatnonzero(own)
    return bins, tables.is_pal[classes & ((1 << tables.s) - 1)]


def _binned_distances(blocks: np.ndarray, tables: _WalkTables,
                      bins: np.ndarray, pal: np.ndarray, ids: np.ndarray,
                      spare: np.ndarray) -> np.ndarray:
    """Walk distance of each row of a (rows, t) array of blocks, by one
    ``np.bincount`` over the (row, class, side) bins of ``_bin_table``, in
    the work arrays of ``_work``, the bins in the intp one: each class's
    own count less its mirror count is D_w.  rows * 2 K bins."""
    import numpy as np

    rows = blocks.shape[0]
    width = 2 * pal.size
    where = np.take(bins, _summand_ids(blocks, tables, ids, spare), out=spare[0])
    np.add(where, np.arange(0, rows * width, width, dtype=np.int32)[:, None], out=ids)
    counts = np.bincount(ids.reshape(-1), minlength=rows * width)
    counts = counts.reshape(rows, pal.size, 2)
    return residual_count(counts[:, :, 0] - counts[:, :, 1], pal).sum(axis=1)


def _lucas(trace: int, det: int, t: int) -> tuple[int, int]:
    """(U_t, U_(t+1)) of U_0 = 0, U_1 = 1, U_(n+1) = trace U_n - det U_(n-1),
    by U_2k = U_k (2 U_(k+1) - trace U_k), U_(2k+1) = U_(k+1)^2 - det U_k^2."""
    u, v = 0, 1
    for bit in bin(t)[2:]:
        u, v = u * (2 * v - trace * u), v * v - det * u * u
        if bit == "1":
            u, v = v, trace * v - det * u
    return u, v


def cost_sums(s: int, t: int, costs: IntMatrix) -> list[int]:
    """e_0 sum_(k<t) M^(s k) C M^(s (t-1-k)) for an integer matrix C: the
    costs C that the walk from state 1 collects over its t blocks, by the
    state after them, in closed form, with no step per block.

    M^n = c_n B + (-J)^n = 2^n P1 + (-1)^n P2 + P3, with the projections
    P1 = B / 3, P3 = (I - J) / 2 and P2 = I - P1 - P3 onto the eigenvectors
    f1 = (1, 1, 1), f2 = (1, -2, 1) and f3 = (1, 0, -1), so 6 P_j =
    m_j f_j f_j^T with m = (2, 1, 3) and the sum is
    sum_(i,j) g(l_i, l_j) P_i C P_j, with l = (2^s, (-1)^s, 1) and the
    geometric sums g(x, y) = sum_(k<t) x^k y^(t-1-k): t x^(t-1) if x = y,
    else (x^t - y^t) / (x - y).  Row 0 of 6 P_i is m_i f_i, so 36 times the
    sum is sum_j h_j f_j with h_j = m_j sum_i g(l_i, l_j) m_i f_i^T C f_j.
    ValueError, with no assert, unless 36 divides it.
    """
    power, sign = 1 << s, -1 if s % 2 else 1
    high, low = 1 << s * t, sign ** t
    # g(x, y) by the pair of eigenvalue indices, x <= y
    g = {(0, 0): t << s * (t - 1) if t else 0,
         (0, 1): (high - low) // (power - sign),
         (0, 2): (high - 1) // (power - 1),
         (1, 1): t if t % 2 or sign > 0 else -t,
         (1, 2): t if sign > 0 else t % 2,
         (2, 2): t}
    vectors = ((1, 1, 1), (1, -2, 1), (1, 0, -1))
    forms = matrix_multiply(matrix_multiply(vectors, costs), tuple(zip(*vectors)))
    h = [scale * sum(g[min(i, j), max(i, j)] * (weight * forms[i][j])
                     for i, weight in enumerate((2, 1, 3)))
         for j, scale in enumerate((2, 1, 3))]
    sums = []
    for combined in (h[0] + h[1] + h[2], h[0] - 2 * h[1], h[0] + h[1] - h[2]):
        total, rest = divmod(combined, 36)
        if rest:
            raise ValueError(f"the costs over {t} blocks of {s} letters are not "
                             "whole: 36 does not divide their projections")
        sums.append(total)
    return sums


def _poly_mul(a, b) -> list[int]:
    """Product of two integer polynomials in X, coefficients lowest first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _series_tails(s: int, t: int, root, numerator, divisor) -> tuple[list[int], list[int]]:
    """[X^t], [X^(t-1)], [X^(t-2)] of Y = root^(-1/2) and [X^t], ...,
    [X^(t-3)] of numerator Y / divisor, for integer polynomials of at most
    7 terms, 3 and 4 terms with divisor(0) = 1 and an integral Y, in t
    steps that keep six terms: 2 root Y' + root' Y = 0 gives 2 n Y_n =
    sum_j (j - 2 n) root_j Y_(n-j), one product of a big Y by a small
    coefficient per term.  ValueError if root(0) is not 1 or a division by
    2 n is not exact."""
    if root[0] != 1:
        raise ValueError(f"a kernel discriminant at s={s} is {root[0]} at X = 0, not 1")
    r1, r2, r3, r4, r5, r6 = (*root[1:], 0, 0, 0, 0, 0, 0)[:6]
    _, d1, d2, d3 = divisor
    y0, y1, y2, y3, y4, y5 = 1, 0, 0, 0, 0, 0  # Y_n, Y_(n-1), ...
    h0, h1, h2, h3, h4, h5 = 1, 0, 0, 0, 0, 0  # the same of Y / divisor
    for n in range(1, t + 1):
        m = 2 * n
        y, rest = divmod((1 - m) * r1 * y0 + (2 - m) * r2 * y1 + (3 - m) * r3 * y2
                         + (4 - m) * r4 * y3 + (5 - m) * r5 * y4 + (6 - m) * r6 * y5, m)
        if rest:
            raise ValueError(f"a kernel series division at s={s}, X^{n} is not exact")
        y0, y1, y2, y3, y4, y5 = y, y0, y1, y2, y3, y4
        h0, h1, h2, h3, h4, h5 = y - d1 * h0 - d2 * h1 - d3 * h2, h0, h1, h2, h3, h4
    a, b, c = numerator
    return [y0, y1, y2], [a * h0 + b * h1 + c * h2, a * h1 + b * h2 + c * h3,
                          a * h2 + b * h3 + c * h4, a * h3 + b * h4 + c * h5]


# ``_quotient`` divides by doubling steps from this many bits of 2^k - 1 on:
# they overtake CPython's schoolbook division between 200 and 400 bits.
_DIVIDE_S = 200


def _quotient(s: int, n: int, x: int, k: int, power: int) -> int:
    """x / (2^k - 1)^power, exact.  While k < ``_DIVIDE_S`` by one divmod;
    from there on, where CPython's schoolbook division takes time quadratic
    in k (a coefficient of 1 / K1^2 took 1.6 s at s = 400000, so about
    14 s at s = 1207519), by ``power`` divisions by 2^k - 1 of a few shifts
    and adds each: x / (2^k - 1) = q, with 0 <= q < 2^K for K = k 2^L at
    least the bit length of x, is x (2^K - 1) / (2^k - 1) / (2^K - 1), and
    x times prod_(i<L) (1 + 2^(k 2^i)) is (q << K) - q, whose ceiling over
    2^K is q.  ValueError, with no assert, unless every division is exact
    (the coefficient at X^n, block size s)."""
    if k < _DIVIDE_S:
        q, rest = divmod(x, ((1 << k) - 1) ** power)
    else:
        q, rest = x, 0
        for _ in range(power):
            y, span = q, k
            while span < q.bit_length():
                y += y << span
                span <<= 1
            q, dividend = -(-y >> span), q
            rest |= (q << k) - q != dividend
    if rest:
        raise ValueError(f"a partial-fraction division at s={s}, X^{n} is not exact")
    return q


def _k1_coefficient(s: int, n: int, square: bool) -> int:
    """[X^n] of 1 / K1, or of 1 / K1^2, with K1 = (1 - a X)(1 - X)(1 - (-1)^s
    X) and a = 2^s, by partial fractions over the poles 1/a, 1 and
    (-1)^s, as a polynomial in a with small coefficients over (a^2 - 1) or
    (a^2 - 1)^3 at odd s and (a - 1)^2 or (a - 1)^5 at even s; 0 at n < 0.
    Each power of a is a shift, and the one division is ``_quotient``'s."""
    if n < 0:
        return 0
    if s % 2:  # K1 = (1 - a X)(1 - X^2)
        if not square:
            return _quotient(s, n, (1 << s * (n + 2)) - (1 << s * (n % 2)), 2 * s, 1)
        tail = ((n + 5 << 3 * s) - (n + 1 << s) if n % 2
                else (n // 2 + 2 << 4 * s) + (3 << 2 * s) - n // 2 - 1)
        return _quotient(s, n, (n + 1 << s * (n + 6)) - (n + 5 << s * (n + 4)) + tail,
                         2 * s, 3)
    if not square:  # K1 = (1 - a X)(1 - X)^2
        return _quotient(s, n, (1 << s * (n + 2)) - (n + 2 << s) + n + 1, s, 2)
    return _quotient(s, n, (n + 1 << s * (n + 5)) - (n + 5 << s * (n + 4))
                     + ((n + 3) * (n + 4) * (n + 5) // 6 << 3 * s)
                     - ((n + 1) * (n + 4) * (n + 5) // 2 << 2 * s)
                     + ((n + 1) * (n + 2) * (n + 5) // 2 << s)
                     - (n + 1) * (n + 2) * (n + 3) // 6, s, 5)


def _squares(s: int, t: int, numerator) -> tuple[list[int], list[int]]:
    """What ``_series_tails`` gives for the root K1^2 and the divisor K1,
    in closed form: [X^t], [X^(t-1)], [X^(t-2)] of 1 / K1 and [X^t], ...,
    [X^(t-3)] of numerator / K1^2 (``_k1_coefficient``), O(1) big-int
    operations in place of t steps."""
    inverse = [_k1_coefficient(s, n, False) for n in range(t, t - 3, -1)]
    v0, v1, v2, v3, v4, v5 = (_k1_coefficient(s, n, True) for n in range(t, t - 6, -1))
    a, b, c = numerator
    return inverse, [a * v0 + b * v1 + c * v2, a * v1 + b * v2 + c * v3,
                     a * v2 + b * v3 + c * v4, a * v3 + b * v4 + c * v5]


# The kernel method (Banderier and Flajolet, "Basic analytic combinatorics
# of directed lattice paths", 2002).  For a row (x, y, x', y', pal) and
# weights w, F = sum_t X^t sum_d p_t(d) z^d = e_0 (I - X T(z))^(-1) w with
# T(z) = N + (z - 1) E_xy + (1/z - 1) E_x'y', N = M^s and E_ij the matrix
# units: the own block moves d by +1, its mirror (none if pal) by -1.
# - A0 = I - X N has det K1 = (1 - 2^s X)(1 - X)(1 - (-1)^s X) and
#   adj A0 = c_s X (1 - X) B + (1 - 2^s X) E, E = (1 - X) I at even s and
#   I - X J at odd s.
# - z det(I - X T(z)) = P z^2 + R z + Q.  Row x over z tends to -X e_y as
#   z -> oo and row x' times z to -X e_y' as z -> 0, so
#   P = -X (adj A0[y][x] + X D) and Q = -X (adj A0[y'][x'] + X D), with
#   D = sign(x y, x' y', x'' y'') A0[x''][y''] the mixed second derivative
#   of det A0 if x != x' and y != y', else 0.  N is symmetric, J N J = N
#   and (x', y') = (2 - y, 2 - x), so J T(1/z)^T J = T(z): Q = P and
#   R = K1 - 2 P.
# - By Cramer's rule z F = n(z) / (P z^2 + R z + P), with n the same
#   determinant with column 0 replaced by w: n0 + n2 is the same sum on
#   that matrix, with no term for a move in column 0, and n(1) = N1 =
#   e_0 adj(A0) w.
# - The kernel's roots in z are z0 = O(X) and 1/z0, and partial fractions
#   give sum_d |d| [z^d] F = A / (K1 sqrt(Delta)), A = K1 (n0 + n2) -
#   2 P N1 and Delta = R^2 - 4 P^2 = K1 (K1 - 4 P); (z d/dz)^2 F at z = 1
#   gives sum_d d^2 [z^d] F = A / K1^2, the same with Delta = K1^2.  So
#   both are [X^t] of (n0 + n2) Y - 2 P N1 Y / K1 with Y = Delta^(-1/2) =
#   K1^(-1) sum_k binom(2k, k) (P / K1)^k, which is integral: a series per
#   kernel for |d|, and partial fractions of 1 / K1 and 1 / K1^2 for d^2.
# - A palindromic-type row (even s) scores d mod 2, (F_t(1) - F_t(-1)) / 2,
#   with F_t(1) = e_0 M^(s t) w and F_t(-1) = e_0 (N - 2 E_xy)^t w = w_0 +
#   a_t sum(w) + b_t w_y: N = c_s B + I, and (a, b) steps from 0 by
#   v -> R v + g, R = [[1 + 3 c_s, c_s], [-2, 1 - 2 delta]], g = (c_s,
#   -2 epsilon), delta = [x = y], epsilon = [x = 0].  (R - I) u =
#   (1 - 3 delta) g for u = (epsilon - delta, 1 - 3 epsilon), and R^t =
#   U_t R + (U_(t+1) - T U_t) I (Cayley-Hamilton; ``_lucas``), so (a_t, b_t)
#   = U_t g + q u / (1 - 3 delta), q = U_(t+1) - (T - 1) U_t - 1.
def residual_totals(s: int, t: int, rows, weights) -> tuple[list[int], list[int]]:
    """The one exact residual: per row, sum_d |d| p_t(d) and
    sum_d d^2 p_t(d), with p_t(d) the sum over the states i of
    ``weights[i]`` times the number of sequences of t blocks of s letters,
    from state 0, that end in state i and displace the class of the row
    (a signature of ``_signature_groups``) by d; both are the sum over odd
    d, the copies that cancellation leaves, if it is palindromic-type.
    Read off the generating functions above: the sums of |d| in t steps
    per distinct kernel (``_series_tails``), those of d^2 from the closed
    forms of 1 / K1 and N1 / K1^2 (``_squares``), and the palindromic-type
    rows (even s only) from a Lucas sequence per delta (``_lucas``), all
    from the one check of M^s that the call makes.  ValueError unless M^s
    has its closed form (``_block_power``), K1 is the row-0 expansion of
    det A0 with the closed-form adjugate, [X^t] N1 / K1, a closed form of
    1 / K1, is e_0 M^(s t) w, each kernel is palindromic, every division
    is exact and the two totals of each row have the same parity.
    """
    bulk, sign = _block_power(s)
    n = _power_matrix(bulk, sign)
    power = 1 << s
    k1 = [1, -power - 1 - sign, power * (1 + sign) + sign, -power * sign]
    adjugate = [[(e, bulk - f - power * e, power * f - bulk) for e, f in zip(*rows)]
                for rows in zip(_I, _I if sign > 0 else _J)]
    moved = [sum(map(operator.mul, n[0], terms))
             for terms in zip(*(row[0] for row in adjugate))]
    if [a - b for a, b in zip((*adjugate[0][0], 0), (0, *moved))] != k1:
        raise ValueError(f"det(I - X M^{s}) differs from its row-0 expansion")
    n1 = [sum(map(operator.mul, weights, terms)) for terms in zip(*adjugate[0])]
    squares = _squares(s, t, n1)
    total = sum(map(operator.mul, _closed_form(s * t)[0], weights))
    if sum(map(operator.mul, n1, squares[0])) != total:
        raise ValueError(f"the kernel's weighted total at s={s}, t={t} differs "
                         f"from e_0 M^{s * t} w")
    series, lucas = {}, {}
    abs_totals, square_totals = [], []
    for x, y, x_m, y_m, pal in rows:
        if pal:
            if sign < 0:
                raise ValueError(f"a palindromic-type row at odd s={s}")
            delta, epsilon = int(x == y), int(x == 0)
            if delta not in lucas:
                trace = 2 + 3 * bulk - 2 * delta
                u, v = _lucas(trace, (1 + 3 * bulk) * (1 - 2 * delta) + 2 * bulk, t)
                lucas[delta] = u, v - (trace - 1) * u - 1
            u, q = lucas[delta]
            a, rest_a = divmod(q * (epsilon - delta), 1 - 3 * delta)
            b, rest_b = divmod(q * (1 - 3 * epsilon), 1 - 3 * delta)
            if rest_a or rest_b:
                raise ValueError(f"a palindromic-type row at s={s}, t={t} does not "
                                 "divide by 1 - 3 [x = y]")
            flipped = (weights[0] + (a + bulk * u) * sum(weights)
                       + (b - 2 * epsilon * u) * weights[y])
            odd, rest = divmod(total - flipped, 2)
            if rest:
                raise ValueError(f"a palindromic-type row at s={s}, t={t} has an "
                                 "odd parity difference")
            abs_totals.append(odd)
            square_totals.append(odd)
            continue
        a0, a1, a2 = adjugate[y][x]
        if adjugate[y_m][x_m] != (a0, a1, a2):
            raise ValueError(f"the kernel of row {(x, y, x_m, y_m)} at s={s} "
                             "is not palindromic")
        p = [0, -a0, -a1, -a2]
        m = [0, 0, 0]  # n0 + n2: -X times the cofactors with column 0 replaced by w
        for i, j in ((x, y), (x_m, y_m)):
            if j:
                r1, r2 = (1, 2) if i == 0 else (0, 3 - i)
                c, turn = 3 - j, -1 if (i + j) % 2 else 1
                m[1] -= turn * (weights[r1] * (r2 == c) - weights[r2] * (r1 == c))
                m[2] -= turn * (weights[r2] * n[r1][c] - weights[r1] * n[r2][c])
        if x != x_m and y != y_m:  # the mixed second derivatives
            turn = 1 if (y - x) % 3 == (y_m - x_m) % 3 else -1
            x_o, y_o = 3 - x - x_m, 3 - y - y_m
            p[2] -= turn * (x_o == y_o)
            p[3] += turn * n[x_o][y_o]
            if y and y_m:
                m[2] -= 2 * turn * weights[x_o]
        key = tuple(p)
        if key not in series:
            delta = _poly_mul(k1, [k - 4 * q for k, q in zip(k1, p)])
            series[key] = _series_tails(s, t, delta, n1, k1)
        (ys, vs), (zs, us) = series[key], squares
        first = sum(map(operator.mul, m, ys)) - 2 * sum(map(operator.mul, p, vs))
        second = sum(map(operator.mul, m, zs)) - 2 * sum(map(operator.mul, p, us))
        if (first - second) % 2:
            raise ValueError(f"row {(x, y, x_m, y_m)} at s={s}, t={t} has sums of "
                             "|d| and d^2 of different parity")
        abs_totals.append(first)
        square_totals.append(second)
    return abs_totals, square_totals


def _check_walk_domain(s: int, t: int) -> None:
    """Refuse a block size below 1 or a negative step count."""
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")


def exact_expected_distance(s: int, t: int) -> Fraction:
    """Exact E[Dist] of the t-step summand walk over all block sequences."""
    return exact_walk_cell(s, t)[0]


def distance_bound(s: int, t: int) -> float:
    """Taxicab bound 3 sqrt(2^s t) + p on the expected walk distance.

    2^s never becomes a float: the bound is 2^(s // 2) times
    3 sqrt(2^(s % 2) t) + p / 2^(s // 2), scaled by ``math.ldexp``.  A bound
    past the float range raises ValueError.
    """
    _check_walk_domain(s, t)
    scaled_p = 3 if s % 2 == 0 else 0
    try:
        return math.ldexp(3 * math.sqrt(t << s % 2) + scaled_p, s // 2)
    except OverflowError:
        raise ValueError(f"the walk bound 3 sqrt(2^s t) + p at s={s}, t={t} "
                         "exceeds the float range") from None


def distance_bound_holds(s: int, t: int, expected: Fraction) -> bool:
    """expected <= 3 sqrt(2^s t) + p, decided in exact arithmetic."""
    excess = expected - pal_coordinate_count(s)
    if excess <= 0:
        return True
    return excess * excess <= 9 * 2 ** s * t


def _block_sampler(bitgen: np.random.BitGenerator, s: int):
    """A function of n that writes the next n blocks of s letters, uniform
    below 2^s, into its second argument, an int32 array of n entries, and
    returns it.  They are the top s bits of successive 32-bit halves of
    the generator's 64-bit words, low half first, an unused half kept for
    the next call: the values that
    ``np.random.Generator(bitgen).integers(0, 2^s, n, dtype=np.int32)``
    draws, with one shift per value."""
    import numpy as np

    spare = np.empty(0, dtype=np.uint32)

    def draw(count: int, blocks: np.ndarray) -> np.ndarray:
        nonlocal spare
        out = blocks.view(np.uint32)  # a block below 2^31 reads the same
        used = spare.size  # at most one half, and count >= 1
        np.right_shift(spare, 32 - s, out=out[:used])
        words = bitgen.random_raw((count - used + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")
        np.right_shift(halves[:count - used], 32 - s, out=out[used:])
        spare = halves[count - used:].copy()
        return blocks
    return draw


def monte_carlo_distance(s: int, t: int, trials: int, seed: int = 0
                         ) -> tuple[float, float]:
    """Sampled (mean, standard error) of the walk distance.

    Trials are drawn in chunks of at most ``_CELL_CAP`` blocks (whole
    trials, at least one per chunk) and scored by bincount
    (``_binned_distances``) if t is at least the class count K, else by
    the row-sort kernel (``_distances``).  The chunked draws concatenate
    to the single draw of all trials, so the samples, and the result,
    depend only on (s, t, trials, seed), not on the chunking.  A chunk's
    blocks and the kernels' work arrays (``_work``, and ``_run_work`` for
    the sorting scorer) are taken once per call: with fresh ones per
    chunk, glibc's heap gave their pages back and faulted them in again,
    about 22,000 minor faults at (8, 1000, 4000) in a fresh process,
    against about 800.
    """
    _check_walk_domain(s, t)
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    budget.check_monte_carlo(s, t, trials)
    if t == 0:
        return 0.0, 0.0
    import numpy as np

    tables = _tables(s)
    bins = _bin_table(tables) if _class_count(s) <= t else None
    rows = min(max(1, _CELL_CAP // t), trials)
    drawn = np.empty(rows * t, dtype=np.int32)
    summands, scratch = _work((rows * t,))
    runs = _run_work(rows * t) if bins is None else None
    distances = np.empty(trials, dtype=np.int64)
    draw = _block_sampler(np.random.Philox(seed), s)
    for lo in range(0, trials, rows):
        hi = min(lo + rows, trials)
        n = (hi - lo) * t
        blocks = draw(n, drawn[:n]).reshape(hi - lo, t)
        ids, spare = summands[:n].reshape(hi - lo, t), scratch[:, :n].reshape(2, hi - lo, t)
        distances[lo:hi] = (_distances(blocks, tables, ids, spare, runs) if bins is None
                            else _binned_distances(blocks, tables, *bins, ids, spare))
    mean = float(distances.mean())
    stderr = float(distances.std(ddof=1) / trials ** 0.5)
    return mean, stderr


def per_class_moments(s: int, t: int) -> list[tuple[tuple, int, Fraction, Fraction]]:
    """Exact E|D_w| and E[D_w^2] of the classes w of each signature group,
    with |D_w| read as the parity bit for a palindromic-type row: one
    (row, number of classes, E|D_w|, E[D_w^2]) per group, in the order of
    ``_signature_groups``."""
    _check_walk_domain(s, t)
    budget.check_walk(s, t)
    rows, sizes = _signature_groups(s)
    abs_totals, square_totals = residual_totals(s, t, rows, (1, 1, 1))
    total = 1 << (s * t)
    return [(row, n, Fraction(a, total), Fraction(q, total))
            for row, n, a, q in zip(rows, sizes, abs_totals, square_totals)]


def verify_abs_means(s: int, t: int) -> bool:
    """Every integer-coordinate class satisfies E|D_w| <= 2 sqrt(t / 2^s),
    decided exactly by squaring."""
    return exact_walk_cell(s, t)[1]


def exact_walk_cell(s: int, t: int) -> tuple[Fraction, bool]:
    """``exact_expected_distance(s, t)`` and ``verify_abs_means(s, t)``
    from one exact-residual call, in integers until the one fraction: with
    E|D_w| = a / 2^(s t), the abs-mean bound is a^2 2^s <= 4 t 2^(2 s t).
    With no block every displacement is 0, at any s: no M^s is built."""
    _check_walk_domain(s, t)
    if t == 0:
        return Fraction(0), True
    budget.check_walk(s, t)
    rows, sizes = _signature_groups(s)
    abs_totals, _ = residual_totals(s, t, rows, (1, 1, 1))
    expected = Fraction(sum(n * a for n, a in zip(sizes, abs_totals)), 1 << (s * t))
    bound = 4 * t << 2 * s * t
    return expected, all(a * a << s <= bound for row, a in zip(rows, abs_totals)
                         if not row[4])
