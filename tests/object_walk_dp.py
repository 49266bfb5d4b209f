"""The displacement-law DP on numpy object arrays, one exact int per
(row, state, displacement) cell: the reference that the packed DP of
``twobridge.markov.displacement_laws`` is checked against.  The three
functions below are kept as they stood before the laws were packed."""

import numpy as np

from twobridge.markov import _closed_form, _letter_counts, _power_parts, matrix_power


def letter_steps(s: int, sources):
    """The block step of ``displacement_laws`` as s letter steps.

    ``sources[p]`` holds the (a, b) gather indices of a letter at position
    parity p: entry j is the state that the letter moves to j.
    """
    def step(before: np.ndarray, parity: int) -> np.ndarray:
        after = before
        for i in range(s):
            a, b = sources[(parity + i) % 2]
            after = after[:, a] + after[:, b]
        return after
    return step


def _block_step(s: int):
    """The walk's block step by the closed form of M^s, the letter counts
    over a block: M^s = c_s B + (-J)^s (``_closed_form``), so state i
    after the block holds c_s times the sum over the three states before
    it, plus (-1)^s the state J^s i before it.  About two element
    operations per cell, against s gathers and adds for ``letter_steps``.

    The integer M^s, a power of the letter counts, must equal the closed
    form, or ValueError is raised.
    """
    if matrix_power(_letter_counts(), s) != _closed_form(s):
        raise ValueError(f"M^{s} differs from its closed form")
    bulk, sign = _power_parts(s)

    def step(before: np.ndarray, parity: int) -> np.ndarray:
        total = bulk * (before[:, 0] + before[:, 1] + before[:, 2])
        if sign < 0:  # J reverses the three states
            return total[:, None] - before[:, ::-1]
        return total[:, None] + before
    return step


def displacement_laws(s: int, t: int, step, own, mirror, pal: np.ndarray,
                      states: int = 3) -> np.ndarray:
    """law[g, i, t + d] = number of sequences of t blocks of s letters, from
    state 0 and D = 0, that end in state i and displace the class of row g
    by d (its match count if palindromic-type).  Entries are exact ints.

    ``step(before, parity)`` returns a new (rows, states, window) array:
    the counts after one block of s letters that starts at a position of
    the given parity, from the counts ``before`` it.  After the block
    step of block k, at parity p = k s % 2, the row's own block (states
    ``own[p][0][g]`` to ``own[p][1][g]``, one pair per column) moves from
    d to d + 1, and its mirror (``mirror[p]``, unless ``pal[g]``) from d
    to d - 1.  Block k touches only the window d in [-k-1, k+1].
    """
    def pairs(moving, src, dst):
        # (group, state) index pairs, one per moving row and column.
        return np.repeat(moving, src.shape[1]), src[moving].ravel(), dst[moving].ravel()

    rows, paired = np.arange(len(pal)), np.flatnonzero(~pal)
    # The moves at each block parity k s mod 2 that occurs: an own move
    # takes d to d + 1, a mirror move d to d - 1.
    moves = [(pairs(rows, *own[p]), pairs(paired, *mirror[p]))
             for p in range(2 if s % 2 and t > 1 else 1)]
    shifts = ((slice(1, None), slice(None, -1)), (slice(None, -1), slice(1, None)))
    law = np.zeros((len(pal), states, 2 * t + 1), dtype=object)
    law[:, 0, t] = 1
    for k in range(t):
        parity = k * s % 2
        window = slice(t - k - 1, t + k + 2)
        before = law[:, :, window]
        after = step(before, parity)
        # The window's ends are still 0 before the block, so a move shifts
        # the moved counts within it.  ``after`` is indexed by the pairs:
        # a step may return an array that is not C-contiguous, and a
        # reshape of it would be a copy.
        for (groups, src, dst), (to, source) in zip(moves[parity], shifts):
            moved = before[groups, src]
            shifted = np.zeros_like(moved)
            shifted[:, to] = moved[:, source]
            after[groups, dst] += shifted - moved
        law[:, :, window] = after
    return law

