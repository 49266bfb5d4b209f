"""Tests for the orientation-state chain and the summand walk."""

import hashlib
import math
import operator
import os
import random
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobridge import checks, cobordism, markov
from twobridge.budget import (
    WALK_WORK_BUDGET,
    BudgetError,
    _walk_groups,
    check_markov,
    check_monte_carlo,
    check_walk,
    kernel_work,
)
from twobridge.cobordism import OrientedWord, cancel_mirrors
from twobridge.diagram import S3, STATE_AFTER, s3_index
from twobridge.markov import (
    _bin_table,
    _binned_distances,
    _class_count,
    _distances,
    _run_work,
    _signature_groups,
    _tables,
    _work,
    contraction_gap,
    distance_bound,
    distance_bound_holds,
    exact_expected_distance,
    identity_matrix,
    matrix_power,
    monte_carlo_distance,
    pal_coordinate_count,
    per_class_moments,
    power_closed_form,
    transition_matrix,
    verify_abs_means,
    verify_chain,
)
from twobridge.words import is_palindromic_type

import object_walk_dp
from test_diagram import orientation_after

CHAIN_CHECKS = ("empirical", "closed_form", "contraction", "power_identity")


def step_matrix():
    """Letter counts M[i][j] = number of letters moving state i+1 to j+1,
    as fractions, read off ``orientation_after``."""
    counts = [[0] * 3 for _ in range(3)]
    for state in (1, 2, 3):
        for letter in "ab":
            counts[state - 1][orientation_after(state, letter) - 1] += 1
    return tuple(tuple(Fraction(n) for n in row) for row in counts)


def spelled_block_counts(s):
    """Number of the 2^s letter blocks moving state i+1 to j+1, each block
    spelled out and pushed through letter by letter."""
    counts = [[0] * 3 for _ in range(3)]
    for bits in range(2 ** s):
        block = "".join("ab"[(bits >> (s - 1 - j)) & 1] for j in range(s))
        for state in (1, 2, 3):
            counts[state - 1][orientation_after(state, block) - 1] += 1
    return tuple(map(tuple, counts))


def empirical_transition_matrix(s):
    """Transition frequencies measured over all 2^s letter blocks."""
    scale = Fraction(1, 2 ** s)
    return tuple(tuple(scale * n for n in row) for row in spelled_block_counts(s))


def fraction_closed_form(n):
    """P^n for one-letter blocks in fractions, coded entry by entry: for
    odd n (1 + 2^(-n)) / 3 off the anti-diagonal and (1 - 2^(1-n)) / 3 on
    it; for even n (1 + 2^(1-n)) / 3 on the diagonal and (1 - 2^(-n)) / 3
    off it."""
    magnitude = Fraction(1, 2 ** n)
    if n % 2:
        base = (1 + magnitude) / 3
        return tuple(tuple(base - magnitude if i + j == 2 else base for j in range(3))
                     for i in range(3))
    base = (1 - magnitude) / 3
    return tuple(tuple(base + magnitude if i == j else base for j in range(3))
                 for i in range(3))


def fraction_spread(p):
    return max(abs(row[j] - row[k]) for row in p for j in range(3) for k in range(3))


# Gather indices of the letters a and b: entry j is the state that the
# letter moves to j, read off orientation_after.
LETTER_SOURCES = tuple(
    np.array([next(i for i in range(3)
                   if orientation_after(i + 1, letter) == j + 1) for j in range(3)])
    for letter in "ab")


def letter_steps(s):
    """The walk's block step as s letter steps on Python ints, the oracle
    of ``block_step``: a row's state j after a letter is the sum of its
    states a[j] and b[j] before it (``LETTER_SOURCES``)."""
    pairs = list(zip(*(sources.tolist() for sources in LETTER_SOURCES)))

    def step(before):
        after = before
        for _ in range(s):
            after = [after[x] + after[y] for x, y in pairs]
        return after
    return step


def letter_step_walk_cell(s, t):
    """E[Dist] and the abs-mean verdict of one walk cell by the letter-step
    DP: per signature group, (state, D_w) counts stepped across each block
    one letter at a time, then the block's own move (d -> d + 1) and, for
    a non-palindromic group, its mirror's (d -> d - 1)."""
    rows, sizes = _signature_groups(s)
    law = np.zeros((len(sizes), 3, 2 * t + 1), dtype=object)
    law[:, 0, t] = 1
    a, b = LETTER_SOURCES
    for _ in range(t):
        before = law
        for _ in range(s):
            law = law[:, a] + law[:, b]
        for g, (x, y, x_m, y_m, pal) in enumerate(rows):
            law[g, y, 1:] += before[g, x, :-1]
            law[g, y, :] -= before[g, x, :]
            if not pal:
                law[g, y_m, :-1] += before[g, x_m, 1:]
                law[g, y_m, :] -= before[g, x_m, :]
    total = 1 << (s * t)
    expected, holds = Fraction(0), True
    for g, (size, row) in enumerate(zip(sizes, rows)):
        pal = row[4]
        counts = law[g].sum(axis=0)
        d = np.arange(-t, t + 1)
        mean = Fraction(int((counts * np.where(pal, d & 1, np.abs(d))).sum()), total)
        expected += size * mean
        holds &= bool(pal) or mean * mean <= Fraction(4 * t, 2 ** s)
    return expected, holds


def verify_second_moments(s, t):
    """Every integer-coordinate class satisfies E[D_w^2] <= 4 t / 2^s."""
    bound = Fraction(4 * t, 2 ** s)
    return all(q <= bound for row, _, _, q in per_class_moments(s, t) if not row[4])


def class_word(s, ident):
    """The oriented word of an id (state - 1) * 2^s + block of the walk
    tables, whose top bit is its first letter (0 = a, 1 = b)."""
    state, block = divmod(ident, 1 << s)
    letters = format(block, f"0{s}b").translate(str.maketrans("01", "ab"))
    return OrientedWord(state + 1, letters)


def class_bucket(key):
    """Walk-distribution bucket of a class: start state, strand permutation
    of the letters, and palindromic-type flag."""
    state, letters = key.split(":")
    return int(state[1:]), S3[s3_index(letters)], is_palindromic_type(letters)


def brute_force_expected_distance(s, t):
    """Independent walk oracle: average residual count over all sequences."""
    blocks = ["".join(bits) for bits in product("ab", repeat=s)]
    total = 0
    for sequence in product(blocks, repeat=t):
        state = 1
        summands = []
        for block in sequence:
            summands.append(OrientedWord(state, block))
            state = orientation_after(state, block)
        total += cancel_mirrors(summands)[0]
    return Fraction(total, len(blocks) ** t)


def reference_tables(s):
    """Per-bit build of the walk tables: s passes over all 3 * 2^s ids for
    the end states and s more for the mirror blocks.  Returns the fields
    of ``_WalkTables`` with the sort key split into canonical id and sign,
    the end state of every id, the canonical ids of the classes and the
    index of each one's signature group, and the rows and sizes of
    ``_signature_groups`` read off the classes."""
    half = 1 << s
    blocks = np.arange(half, dtype=np.int64)

    a_step = np.array([0, 1, 3, 2], dtype=np.int64)
    b_step = np.array([0, 2, 1, 3], dtype=np.int64)
    states = np.repeat(np.arange(1, 4, dtype=np.int64), half).reshape(3, half)
    for j in range(s):
        bit = (blocks >> (s - 1 - j)) & 1
        states = np.where(bit == 0, a_step[states], b_step[states])

    reversed_bits = np.zeros(half, dtype=np.int64)
    for j in range(s):
        reversed_bits = (reversed_bits << 1) | ((blocks >> j) & 1)
    mirror_block = (half - 1) ^ reversed_bits
    is_pal_block = mirror_block == blocks

    flip = np.array([0, 3, 2, 1], dtype=np.int64)
    ids = np.arange(3 * half, dtype=np.int64)
    next_state = states.reshape(-1)
    mirror_id = (flip[next_state] - 1) * half + np.tile(mirror_block, 3)
    is_pal = np.tile(is_pal_block, 3)
    canon = np.where(is_pal, ids, np.minimum(ids, mirror_id))
    sign = np.where(is_pal | (ids == canon), 1, -1).astype(np.int64)

    classes = np.flatnonzero(canon == ids)
    mirrors = mirror_id[classes]
    codes = ((((classes >> s) * 3 + next_state[classes] - 1) * 3
              + (mirrors >> s)) * 3 + next_state[mirrors] - 1) * 2 + is_pal[classes]
    counts = np.bincount(codes)
    present = np.flatnonzero(counts)
    group_of_code = np.zeros(counts.size, dtype=np.int8)
    group_of_code[present] = np.arange(present.size)
    signatures = np.stack([present // 54, present // 18 % 3, present // 6 % 3,
                           present // 2 % 3, present % 2], axis=1)
    return {"offset": (states[0] - 1).astype(np.int8), "is_pal": is_pal_block,
            "next_state": next_state, "canon": canon, "sign": sign, "classes": classes,
            "class_group": group_of_code[codes], "signatures": signatures,
            "group_sizes": counts[present]}


def walk_segments(blocks, tables):
    """Argsort oracle for the walk kernel: per-sequence class displacements.

    Returns (keys, runs, pal, end, order) arrays of shape (rows, t), each
    row sorted by class: ``runs`` holds the signed displacement of the class
    ``keys`` up to and including that block (match count for
    palindromic-type classes, where parity is what matters), so at
    positions where ``end`` is True it is the total over the sequence.
    ``order`` holds each sorted position's block index.
    """
    rows, t = blocks.shape
    s = tables.s
    next_state = markov._end_states(s).reshape(-1)
    keys = np.empty((rows, t), dtype=np.int64)
    signs = np.empty((rows, t), dtype=np.int64)
    state = np.ones(rows, dtype=np.int64)
    for step in range(t):
        ident = (state - 1) * (1 << s) + blocks[:, step]
        keys[:, step] = tables.key[ident] >> 1
        signs[:, step] = 1 - 2 * (tables.key[ident] & 1)
        state = next_state[ident]

    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    signs = np.take_along_axis(signs, order, axis=1)
    sums = np.cumsum(signs, axis=1)

    start = np.empty((rows, t), dtype=bool)
    start[:, 0] = True
    start[:, 1:] = keys[:, 1:] != keys[:, :-1]
    end = np.empty_like(start)
    end[:, -1] = True
    end[:, :-1] = start[:, 1:]

    before = np.empty_like(sums)
    before[:, 0] = 0
    before[:, 1:] = sums[:, :-1]
    anchor = np.where(start, np.arange(t, dtype=np.int64), 0)
    np.maximum.accumulate(anchor, axis=1, out=anchor)
    runs = sums - np.take_along_axis(before, anchor, axis=1)
    return keys, runs, tables.is_pal[keys & ((1 << s) - 1)], end, order


def oracle_distances(blocks, tables):
    keys, runs, pal, end, _ = walk_segments(blocks, tables)
    contributions = np.where(pal, runs & 1, np.abs(runs))
    return np.where(end, contributions, 0).sum(axis=1)


def enumerated_class_totals(s, t):
    """Vectorized walk oracle: sums of each class's |D_w| (parity for
    palindromic types) and of its square over all 2^(s t) block sequences,
    indexed by canonical id."""
    tables = _tables(s)
    total_sequences = 1 << (s * t)
    abs_totals = np.zeros(3 << s, dtype=np.int64)
    square_totals = np.zeros(3 << s, dtype=np.int64)
    for lo in range(0, total_sequences, 1 << 16):
        seqs = np.arange(lo, min(lo + (1 << 16), total_sequences), dtype=np.int64)
        blocks = (seqs[:, None] >> (s * np.arange(t))) & ((1 << s) - 1)
        keys, runs, pal, end, _ = walk_segments(blocks, tables)
        flat_runs = np.where(pal[end], runs[end] & 1, np.abs(runs[end]))
        np.add.at(abs_totals, keys[end], flat_runs)
        np.add.at(square_totals, keys[end], flat_runs * flat_runs)
    return abs_totals, square_totals


def enumerated_prefix_totals(s, top):
    """Walk oracle over all 2^(s top) block sequences: entry t - 1 sums the
    distance of their first t blocks.  Each t-block sequence is the prefix
    of 2^(s (top - t)) of them, so the entry over 2^(s top) is the mean
    distance at t.  A block changes the distance by the change in its own
    class's |D_w| (parity for palindromic types)."""
    tables = _tables(s)
    total_sequences = 1 << (s * top)
    totals = np.zeros(top, dtype=np.int64)
    for lo in range(0, total_sequences, 1 << 16):
        seqs = np.arange(lo, min(lo + (1 << 16), total_sequences), dtype=np.int64)
        blocks = (seqs[:, None] >> (s * np.arange(top))) & ((1 << s) - 1)
        _, runs, pal, end, order = walk_segments(blocks, tables)
        distance = np.where(pal, runs & 1, np.abs(runs))
        before = np.zeros_like(distance)
        before[:, 1:] = np.where(end[:, :-1], 0, distance[:, :-1])
        steps = np.empty_like(distance)
        np.put_along_axis(steps, order, distance - before, axis=1)
        totals += np.cumsum(steps, axis=1).sum(axis=0)
    return totals


def test_step_matrix():
    assert step_matrix() == markov._letter_counts() == tuple(
        tuple(Fraction(n) for n in row) for row in [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    )


def test_transition_matrix_example():
    assert transition_matrix(2) == tuple(
        tuple(Fraction(n, 4) for n in row) for row in [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    )


def test_rows_are_distributions():
    for s in range(1, 9):
        for row in transition_matrix(s):
            assert sum(row) == 1
            assert all(x >= 0 for x in row)


def test_matrix_domain_errors():
    with pytest.raises(ValueError, match="block size"):
        transition_matrix(0)
    with pytest.raises(ValueError, match="exponent"):
        matrix_power(identity_matrix(), -1)
    with pytest.raises(ValueError, match="exponent"):
        power_closed_form(2, -1)


def test_empirical_matches_power():
    # The block counts read off the prefix-doubled end states against every
    # block spelled out, and against the power of the letter counts.
    for s in range(1, 13):
        assert markov._block_counts(s) == spelled_block_counts(s) == \
            matrix_power(markov._letter_counts(), s), s


def test_chain_passes_at_every_admitted_block_size():
    # kmax = 8 admits every s <= 23, the largest, and refuses s = 24.
    for s in range(1, 24):
        assert verify_chain(s, 8) == dict.fromkeys(CHAIN_CHECKS, True), s
    with pytest.raises(BudgetError, match="s=24, kmax=8"):
        verify_chain(24, 8)
    for s, kmax in [(0, 1), (1, 0), (-1, -1)]:
        with pytest.raises(ValueError, match="need s >= 1 and kmax >= 1"):
            verify_chain(s, kmax)


_CORRUPT_STEPS = """
from twobridge import markov
markov._STEPS = (markov._STEPS[1], markov._STEPS[1])  # the letter a now acts as b
print(sorted(name for name, ok in markov.verify_chain(6, 8).items() if not ok))
"""


def test_corrupt_letter_table_fails_only_the_empirical_check(monkeypatch):
    # The end states (and the walk tables built on them) read _STEPS at call
    # time; the powers and closed forms read the letter counts of
    # STATE_AFTER, so only the block counts change.
    monkeypatch.setattr(markov, "_STEPS", (markov._STEPS[1], markov._STEPS[1]))
    assert verify_chain(6, 8) == {**dict.fromkeys(CHAIN_CHECKS, True), "empirical": False}
    assert checks.check_markov() == (False, "failed: empirical")
    monkeypatch.undo()
    # The verdict needs no assert: it survives python -O.
    src = str(Path(markov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_STEPS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['empirical']"


def test_closed_form():
    assert power_closed_form(3, 0) == identity_matrix()
    assert verify_chain(6, 8)["closed_form"]
    # n = k s odd puts the small entries on the anti-diagonal; even n puts
    # the large entries on the diagonal.
    odd = power_closed_form(1, 1)
    assert odd[0][2] == odd[1][1] == odd[2][0] == 0
    even = power_closed_form(1, 2)
    assert even[0][0] == even[1][1] == even[2][2] == Fraction(1, 2)


def test_power_identity():
    assert verify_chain(1, 1)["power_identity"]


def test_integer_checks_match_fraction_oracle():
    # The count matrices 2^n P^n of markov against fractions: powers of the
    # letter matrix, the frequencies over all blocks, and the closed form
    # coded entry by entry.
    m = step_matrix()
    for s in range(1, 9):
        p = transition_matrix(s)
        assert all(isinstance(x, Fraction) for row in p for x in row)
        assert p == empirical_transition_matrix(s) == \
            tuple(tuple(x / 2 ** s for x in row) for row in matrix_power(m, s))
        assert markov._block_counts(s) == spelled_block_counts(s)
        for k in range(0, 9):
            power = matrix_power(p, k)
            assert power_closed_form(s, k) == power == fraction_closed_form(k * s), (s, k)
            if k:
                assert contraction_gap(s, k) == fraction_spread(power), (s, k)
                assert fraction_spread(power) <= Fraction(1, 2 ** (k * s))
    assert verify_chain(8, 8) == dict.fromkeys(CHAIN_CHECKS, True)
    for r in range(0, 21):
        bulk = Fraction(2 ** r - (-1) ** r, 3)
        flip = (lambda i, j: i + j == 2) if r % 2 else (lambda i, j: i == j)
        expected = tuple(tuple(bulk + (-1) ** r * flip(i, j) for j in range(3))
                         for i in range(3))
        assert matrix_power(m, r) == expected == tuple(
            tuple(x * 2 ** r for x in row) for row in fraction_closed_form(r)), r


def test_wrong_closed_form_fails_the_checks(monkeypatch):
    # The closed form is built from (c_n, (-1)^n), which names n: verify_chain
    # steps c_n from one power to the next, the other checks take it whole.
    right = markov._power_matrix

    def wrong_at(bad):
        def wrong(bulk, sign):
            rows = right(bulk, sign)
            if (bulk, sign) != markov._power_parts(bad):
                return rows
            return ((rows[0][0] + 1, *rows[0][1:]), *rows[1:])
        return wrong

    monkeypatch.setattr(markov, "_power_matrix", wrong_at(12))
    # The powers M^r by repeated squaring see n = 12 at any kmax.
    assert verify_chain(6, 1) == {**dict.fromkeys(CHAIN_CHECKS, True),
                                  "power_identity": False}
    assert not verify_chain(6, 8)["closed_form"]  # k s = 12 at s = 2, 3, 4 and 6
    assert verify_chain(1, 11)["closed_form"]
    assert not verify_chain(1, 12)["closed_form"]
    with pytest.raises(ValueError, match="M\\^12 differs from its closed form"):
        exact_expected_distance(12, 1)
    assert exact_expected_distance(11, 1) == 1
    # The power identity reaches r = 20 and stops there: a closed form wrong
    # at n = 21 shows only in the powers (M^s)^k.
    monkeypatch.setattr(markov, "_power_matrix", wrong_at(20))
    assert not verify_chain(1, 1)["power_identity"]
    monkeypatch.setattr(markov, "_power_matrix", wrong_at(21))
    assert verify_chain(1, 20) == dict.fromkeys(CHAIN_CHECKS, True)
    assert verify_chain(3, 7) == {**dict.fromkeys(CHAIN_CHECKS, True), "closed_form": False}
    # The markov check of verify-all takes every power to s = 8 and k = 8:
    # n = 64 is only there.
    monkeypatch.setattr(markov, "_power_matrix", wrong_at(64))
    assert checks.check_markov() == (False, "failed: closed_form")


def test_contraction_check_fails_on_a_slower_chain(monkeypatch):
    # A chain whose one-step rows spread by 2 breaks the bound at k = 1.
    monkeypatch.setattr(markov, "_letter_counts",
                        lambda: ((2, 0, 0), (0, 1, 1), (0, 1, 1)))
    assert not verify_chain(1, 1)["contraction"]
    assert contraction_gap(1, 1) == 1


def test_abs_mean_verdict_is_exact_at_the_bound(monkeypatch):
    # a^2 2^s <= 4 t 2^(2 s t) against E|D_w| = a / 2^(s t) in fractions,
    # on both sides of the bound; palindromic-type groups are not checked.
    def verdict(s, t, pals, abs_totals):
        monkeypatch.setattr(markov, "_signature_groups", lambda s: (
            [(0, 0, 2, 2, pal) for pal in pals], [1] * len(pals)))
        monkeypatch.setattr(markov, "residual_totals",
                            lambda s, t, rows, weights: (abs_totals, abs_totals))
        return markov.exact_walk_cell(s, t)[1]

    for s, t in [(1, 1), (2, 3), (4, 100), (7, 2)]:
        at_bound = math.isqrt(4 * t << 2 * s * t - s)
        for a in (at_bound, at_bound + 1):
            exact = Fraction(a, 1 << s * t) ** 2 <= Fraction(4 * t, 1 << s)
            assert verdict(s, t, [False, True], [0, a]) is True
            assert verdict(s, t, [True, False], [0, a]) is exact, (s, t, a)
        assert not verdict(s, t, [False], [at_bound + 1])


def block_step(s, bulk, sign):
    """The walk's block step on three Python ints, by the closed form of
    M^s from its parts (c_s, (-1)^s) (``markov._block_power``): state i
    after the block holds c_s times the sum over the three states before
    it, plus (-1)^s the state J^s i before it.  ``markov`` stepped its
    palindromic-type rows, and the mean its cores, with it before both
    were closed forms."""
    def step(before):
        total = bulk * (before[0] + before[1] + before[2])
        if sign < 0:  # J reverses the three states
            return [total - before[2], total - before[1], total - before[0]]
        return [total + x for x in before]
    return step


def stepped_parity_totals(s, t, rows, weights):
    """Per palindromic-type row (x, y), the weighted count of sequences
    that leave it an odd displacement, (F_t(1) - F_t(-1)) / 2, with
    F_t(-1) = e_0 (N - 2 E_xy)^t w, N = M^s, stepped block by block as
    ``markov.residual_totals`` stepped it before its closed form: the
    oracle of its Lucas sequences."""
    step = block_step(s, *markov._block_power(s))
    total = sum(map(operator.mul, markov._closed_form(s * t)[0], weights))
    odd = []
    for x, y, _, _, pal in rows:
        if pal:
            flipped = [1, 0, 0]
            for _ in range(t):
                flipped, before = step(flipped), flipped
                flipped[y] -= 2 * before[x]
            odd.append((total - sum(map(operator.mul, flipped, weights))) // 2)
    return odd


def test_block_step_equals_letter_steps():
    # The closed form of M^s (at s = 1, c_1 = 1 and the sign -1 give the
    # three sums of M) against s letter gathers, on the states of seeded
    # random rows, some past 64 bits, at both parities of s and where c_s
    # has about 200 bits: per column, and with the 7 columns packed into one
    # int per state 100 bits apart (negative values borrow from the slot
    # above, which the sum undoes).
    rng = np.random.default_rng(2406)
    for s in [*range(1, 13), 199, 200, 201]:
        step = block_step(s, *markov._block_power(s))
        letters = letter_steps(s)
        for scale in (1, 1 << 70):
            before = rng.integers(-10 ** 6, 10 ** 6, size=(5, 3, 7)).astype(object) * scale
            for row in before:
                columns = [list(column) for column in row.T]
                packed = [sum(x << 100 * d for d, x in enumerate(state)) for state in row]
                kept = list(packed)
                after = [step(column) for column in columns]
                assert after == [letters(column) for column in columns], (s, scale)
                assert step(packed) == letters(packed) == [
                    sum(column[i] << 100 * d for d, column in enumerate(after))
                    for i in range(3)], (s, scale)
                assert packed == kept, s


def walk_dp_rows(s):
    """The walk DP's rows, one signature (start, end, mirror start, mirror
    end, palindromic-type) per group."""
    return list(_signature_groups(s)[0])


def parity_moves(rows):
    """Signature rows as the object-array reference reads them: per block
    parity, the (from, to) pairs of the row's block and of its mirror, the
    same at both parities, and no mirror pair if palindromic-type."""
    return [(([(x, y)],) * 2, ([] if pal else [(x_m, y_m)],) * 2)
            for x, y, x_m, y_m, pal in rows]


def reference_arguments(moves):
    """The object-array reference's (own, mirror, pal) for rows given as
    per-parity (own, mirror) pair lists (``parity_moves``): per parity,
    (from, to) arrays with one column per pair, and the palindromic-type
    flags of the rows with no mirror pairs, whose mirror columns (the own
    pairs here) the reference skips."""
    pal = np.array([not any(mirror) for _, mirror in moves])

    def side(i):
        return [tuple(np.array([[pair[j] for pair in row[i][p] or row[0][p]]
                                for row in moves]) for j in (0, 1)) for p in (0, 1)]
    return side(0), side(1), pal


def oracle_laws(s, t, rows, oracle_step=None):
    """The object-array DP's laws of the rows, by state: its block step is
    the reference's closed form, or ``oracle_step``."""
    return object_walk_dp.displacement_laws(s, t, oracle_step or object_walk_dp._block_step(s),
                                            *reference_arguments(parity_moves(rows)))


def scored_laws(laws, rows, weights):
    """Per row, the sums of |d| and of d^2 over the weighted laws (d mod 2
    for both if palindromic-type): the oracle of ``markov.residual_totals``."""
    t = laws.shape[2] // 2
    weighted = (laws * np.array(weights, dtype=object)[:, None]).sum(axis=1)
    d = np.arange(-t, t + 1)
    pal = np.array([bool(row[4]) for row in rows])[:, None]
    return tuple((weighted * np.where(pal, d & 1, score)).sum(axis=1).tolist()
                 for score in (np.abs(d), d * d))


def test_palindromic_rows_match_the_stepped_loop():
    # Both totals of every palindromic-type row, read off two Lucas
    # sequences, against t block steps per row, at even s for the mean's
    # tails (at c = s t + 3), three small weight vectors and seeded ones of
    # up to 70 bits, at t up to 64, at t = 1000 and 1001, and past
    # _DIVIDE_S, where the block step once shifted and divided.  A
    # palindromic-type row at odd s, where N is no c_s B + I, is refused.
    rng = random.Random(48)
    cells = [(s, t) for s in range(2, 17, 2) for t in range(65)]
    cells += [(s, t) for s in (2, 4, 16) for t in (1000, 1001)]
    cells += [(s, t) for s in (198, 200, 202, 400, 1000) for t in range(6)]
    for s, t in cells:
        rows = [row for row in _signature_groups(s)[0] if row[4]]
        assert len(rows) == (6 if s == 2 else 9), s
        weight_sets = [cobordism._remainder_counts(s * t + 3, s, t)[0],
                       (1, 1, 1), (1, 0, 2), (0, 3, 1),
                       tuple(rng.randint(-1 << 70, 1 << 70) for _ in range(3))]
        for weights in weight_sets:
            odd = stepped_parity_totals(s, t, rows, weights)
            assert markov.residual_totals(s, t, rows, weights) == (odd, odd), \
                (s, t, weights)
    for s in (1, 3, 199, 201):
        with pytest.raises(ValueError, match=f"a palindromic-type row at odd s={s}"):
            markov.residual_totals(s, 2, [(1, 1, 1, 1, 1)], (1, 1, 1))


def test_kernel_matches_object_array_oracle():
    # Both totals of every row at every cell with s <= 8 and s t <= 200, for
    # four weight vectors, and of every cell with s t <= 40 for s up to 40,
    # (4, 100), (79, 100) and past the block size where the block step
    # divides, against the displacement laws of the DP on object arrays
    # (at s = 1, its letter step).
    weight_sets = [(1, 1, 1), (1, 0, 2), (0, 3, 1), (2, 5, 3)]
    cells = {(s, t) for s in range(1, 9) for t in range(0, 200 // s + 1)}
    cells |= {(s, t) for s in range(9, 41) for t in range(0, 40 // s + 1)}
    cells |= {(4, 100), (79, 100), (markov._DIVIDE_S, 5), (301, 4)}
    for s, t in sorted(cells):
        step = object_walk_dp.letter_steps(1, (LETTER_SOURCES,) * 2) if s == 1 else None
        rows = walk_dp_rows(s)
        laws = oracle_laws(s, t, rows, step)
        for weights in weight_sets if s <= 8 else weight_sets[:1]:
            assert markov.residual_totals(s, t, rows, weights) == \
                scored_laws(laws, rows, weights), (s, t, weights)


@pytest.mark.parametrize("patch, call, message", [
    ("real = markov._poly_mul\n"
     "markov._poly_mul = lambda a, b: [v + (i == 0) for i, v in enumerate(real(a, b))]",
     "markov.exact_expected_distance(3, 2)",
     "a kernel discriminant at s=3 is 2 at X = 0, not 1"),
    ("real = markov._block_power\n"
     "markov._block_power = lambda s: (real(s)[0] + 1, real(s)[1])",
     "markov.exact_expected_distance(3, 2)",
     "det(I - X M^3) differs from its row-0 expansion"),
    ("", "markov._series_tails(1, 3, (1, 1), (1, 0, 0), (1, 0, 0, 0))",
     "a kernel series division at s=1, X^1 is not exact"),
    ("real = markov._closed_form\n"
     "markov._closed_form = lambda n: real(n + (n == 6))",
     "markov.exact_expected_distance(3, 2)",
     "the kernel's weighted total at s=3, t=2 differs from e_0 M^6 w"),
    ("real = markov._series_tails\n"
     "def odd(*args):\n"
     "    ys, vs = real(*args)\n"
     "    return [ys[0], ys[1] + 1, ys[2]], vs\n"
     "markov._series_tails = odd",
     "markov.exact_expected_distance(4, 2)",
     "row (0, 0, 2, 2) at s=4, t=2 has sums of |d| and d^2 of different parity"),
    ("", "markov._quotient(3, 5, 28, 6, 1)",
     "a partial-fraction division at s=3, X^5 is not exact"),
    ("", "markov._quotient(201, 4, ((1 << 402) - 1) ** 3 + 1, 402, 3)",
     "a partial-fraction division at s=201, X^4 is not exact"),
    ("real = markov._lucas\n"
     "markov._lucas = lambda trace, det, t: (lambda u, v: (u, v + 1))(*real(trace, det, t))",
     "markov.residual_totals(4, 3, [(1, 1, 1, 1, 1)], (1, 1, 1))",
     "a palindromic-type row at s=4, t=3 does not divide by 1 - 3 [x = y]"),
], ids=["discriminant", "expansion", "division", "total", "parity", "closed-division",
        "closed-division-long", "palindromic-division"])
def test_kernel_invariant_refused_under_optimize_flag(patch, call, message):
    # Each invariant of the kernel raises ValueError with no assert: a
    # discriminant other than 1 at X = 0 (the first kernel series is broken
    # here), K1 against the row-0 expansion with the closed-form adjugate
    # (a wrong c_s), an inexact division ((1 + X)^(-1/2) has halves; its
    # root of two terms is shorter than a kernel's seven), [X^t] N1 / K1
    # against e_0 M^(s t) w (a wrong M^6), and the parity of the two totals
    # per row (Y_(t-1) off by one in every kernel series; the squares'
    # totals are a closed form), and the division by 1 - 3 [x = y] of a
    # palindromic-type row with x = y != 0 (U_(t+1) off by one).
    code = (f"from twobridge import markov\n{patch}\n"
            f"try:\n    {call}\nexcept ValueError as refused:\n    print(refused)\n")
    src = str(Path(markov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == message


def deque_series_tails(s, t, root, numerator, divisor):
    """``markov._series_tails`` as it stood before its terms were straight
    lines: six terms in deques, and each step's sum split into
    sum_j j root_j Y_(n-j), divided by 2 n, less sum_j root_j Y_(n-j).  The
    oracle of the straight-line series and, with the root K1^2, of the
    squares' closed form."""
    assert root[0] == 1
    roots, lower = root[1:], divisor[1:]
    weighted = [j * r for j, r in enumerate(roots, 1)]
    ys = deque((1, 0, 0, 0, 0, 0), 6)
    hs = deque((1, 0, 0, 0, 0, 0), 6)
    for n in range(1, t + 1):
        y, rest = divmod(sum(w * y for w, y in zip(weighted, ys)), 2 * n)
        assert not rest
        ys.appendleft(y - sum(r * y for r, y in zip(roots, ys)))
        hs.appendleft(ys[0] - sum(d * h for d, h in zip(lower, hs)))
    a, b, c = numerator
    h0, h1, h2, h3, h4, h5 = hs
    return [ys[0], ys[1], ys[2]], [a * h0 + b * h1 + c * h2, a * h1 + b * h2 + c * h3,
                                   a * h2 + b * h3 + c * h4, a * h3 + b * h4 + c * h5]


def k1_polynomial(s):
    """K1 = (1 - 2^s X)(1 - X)(1 - (-1)^s X), coefficients lowest first."""
    return markov._poly_mul(markov._poly_mul([1, -(1 << s)], [1, -1]), [1, (-1) ** (s + 1)])


NUMERATORS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, -7, 2), (1 << 80, -(1 << 75), 5)]


def test_closed_form_squares_match_the_series():
    # The partial fractions of 1 / K1 and 1 / K1^2 against the O(t) series
    # of the root K1^2 that the residual ran before, at both parities of s,
    # with no term at negative powers for t < 5, and past the block size
    # where the closed form's division turns into doubling steps.
    cells = [(s, t) for s in range(1, 17) for t in range(65)]
    cells += [(s, t) for s in (1, 2, 3, 4, 15, 16) for t in (1000, 1001)]
    cells += [(s, t) for s in (99, 100, 199, 200, 201, 202, 401, 1000) for t in range(6)]
    for s, t in cells:
        k1 = k1_polynomial(s)
        square = markov._poly_mul(k1, k1)
        for numerator in NUMERATORS if t < 1000 else NUMERATORS[3:]:
            assert markov._squares(s, t, numerator) == \
                deque_series_tails(s, t, square, numerator, k1), (s, t, numerator)


def test_series_matches_the_deque_series(monkeypatch):
    # Every kernel series of the residual, in straight lines, against the
    # deque oracle, at both parities of s; and a root of two terms, which
    # is padded: (1 - 4 X)^(-1/2) has the central binomial coefficients.
    series = markov._series_tails

    def both(s, t, root, numerator, divisor):
        tails = series(s, t, root, numerator, divisor)
        assert tails == deque_series_tails(s, t, root, numerator, divisor), (s, t, root)
        calls.append(s)
        return tails

    calls = []
    monkeypatch.setattr(markov, "_series_tails", both)
    cells = [(s, t) for s in range(1, 17) for t in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64)]
    for s, t in [*cells, (1, 1000), (4, 1000), (16, 1001), (201, 3)]:
        markov.residual_totals(s, t, list(_signature_groups(s)[0]), (2, 5, 3))
    assert len(set(calls)) == 17
    assert series(1, 5, (1, -4), (1, 0, 0), (1, 0, 0, 0))[0] == [252, 70, 20]


def test_quotient_by_doubling_matches_divmod():
    # Past _DIVIDE_S the closed form divides by 2^k - 1 in doubling steps:
    # exact multiples give their quotient, and a remainder of 1 or -1 is
    # refused, at every power the squares use.
    rng = random.Random(46)
    for k in (200, 201, 402, 1001):
        for power in (1, 2, 3, 5):
            divisor = ((1 << k) - 1) ** power
            for q in (0, 1, rng.getrandbits(50), rng.getrandbits(5 * k)):
                assert markov._quotient(k, 0, q * divisor, k, power) == q
                for off in (1, -1):
                    if q * divisor + off >= 0:
                        with pytest.raises(ValueError, match="not exact"):
                            markov._quotient(k, 0, q * divisor + off, k, power)


def test_cost_sums_refuse_a_broken_projection(monkeypatch):
    # The projections of the costs must come out whole: one entry of the
    # eigenvector forms off by one is refused.
    product = markov.matrix_multiply

    def bump(a, b):
        out = product(a, b)
        return ((out[0][0], out[0][1] + 1, out[0][2]), *out[1:])

    monkeypatch.setattr(markov, "matrix_multiply", bump)
    with pytest.raises(ValueError, match="36 does not divide"):
        markov.cost_sums(2, 3, ((0, 0, 0),) * 3)


def test_wrong_block_power_refused_under_optimize_flag():
    code = ("from twobridge import markov\n"
            "markov._letter_counts = lambda: ((1, 1, 0), (1, 1, 0), (0, 1, 1))\n"
            "try:\n"
            "    markov.exact_expected_distance(4, 2)\n"
            "except ValueError as refused:\n"
            "    print(refused)\n")
    src = str(Path(markov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "M^4 differs from its closed form"


def test_exact_walk_cell_matches_letter_steps():
    cells = [(s, t) for s in range(1, 41) for t in range(1, 40 // s + 1)]
    for s, t in [*cells, (4, 100), (79, 100)]:
        assert markov.exact_walk_cell(s, t) == letter_step_walk_cell(s, t), (s, t)


def test_contraction():
    assert contraction_gap(1, 1) == Fraction(1, 2)
    assert verify_chain(6, 8)["contraction"]
    # The spread bound is attained: the gap equals 2^(-k s) exactly.
    for s in (1, 2, 3):
        for k in (1, 2, 3):
            assert contraction_gap(s, k) == Fraction(1, 2 ** (k * s))


def test_pal_coordinate_count():
    assert [pal_coordinate_count(s) for s in range(1, 7)] == [0, 6, 0, 12, 0, 24]


def test_exact_distance_basics():
    assert exact_expected_distance(1, 0) == 0
    assert exact_expected_distance(1, 1) == 1
    assert exact_expected_distance(2, 3) == Fraction(45, 16)
    # No block: every displacement is 0, and so is every total.
    assert markov.exact_walk_cell(2, 0) == (0, True)
    assert {(a, q) for _, _, a, q in per_class_moments(3, 0)} == {(0, 0)}
    with pytest.raises(ValueError, match="block size"):
        exact_expected_distance(0, 1)


def test_exact_distance_matches_brute_force():
    for s, t in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1),
                 (3, 2), (4, 1)]:
        assert exact_expected_distance(s, t) == brute_force_expected_distance(s, t)


def test_walk_work_charges_the_dp_rows():
    # One series per non-palindromic row: the palindromic-type rows are a
    # closed form, and are not charged.
    for s in range(1, 65):
        rows, _ = _signature_groups(s)
        assert _walk_groups(s) == sum(not row[4] for row in rows), s


def test_budgets_admit_what_the_slower_paths_admitted():
    # The largest requests admitted when the walk DP stepped letter by
    # letter, when the signature groups were counted by an S3 block-count
    # DP, when the laws were packed into one int per state (the largest t
    # at s = 1, 4, 5, 7 and 150 and the largest s at t = 1) and when the
    # Markov checks multiplied fractions stay admitted.
    for s, t in [(1, 2174), (2, 976), (3, 841), (4, 499), (5, 608), (6, 387),
                 (7, 490), (8, 322), (79, 101), (1498, 10), (29547, 1), (45367, 1),
                 (191027, 1), (1, 2215), (4, 785), (5, 977), (7, 884), (150, 225),
                 (780895, 1), (493662, 1)]:
        check_walk(s, t)
    # At t = 1 the largest admitted s, odd and even (893024 while the
    # palindromic-type rows of an even s were charged for their block
    # steps), and the next s of each parity refused.
    check_walk(893024, 1)
    for s in (1207519, 1207518):
        check_walk(s, 1)
        with pytest.raises(BudgetError, match="kernel_work"):
            check_walk(s + 2, 1)
    # The Markov checks also keep the largest requests admitted when each
    # block was charged a whole unit, and admit s up to 23.
    for s, kmax in [(1, 8191), (6, 1365), (18, 227), (1, 30783), (6, 6588),
                    (18, 1568), (23, 1233)]:
        check_markov(s, kmax)
    # The largest t at s = 2 and 4, 27262 and 11884 while the block steps
    # were charged.
    for s, t in [(2, 27262), (2, 38780), (4, 11884), (4, 14946)]:
        check_walk(s, t)
    for s, t in [(2, 38781), (4, 14947)]:
        with pytest.raises(BudgetError, match="kernel_work"):
            check_walk(s, t)
    for s, kmax in [(6, 10 ** 4), (23, 1234), (24, 1)]:
        with pytest.raises(BudgetError, match="markov_work"):
            check_markov(s, kmax)


def test_exact_distance_budget():
    # The exact residual's budget is the one charge of the exact walk values.
    assert kernel_work(4, 14947) > WALK_WORK_BUDGET
    with pytest.raises(BudgetError, match="monte_carlo_distance"):
        exact_expected_distance(4, 14947)
    with pytest.raises(BudgetError, match="monte_carlo_distance"):
        per_class_moments(4, 14947)


def test_huge_block_size_refused_before_work():
    # The budgets refuse before any 2^s is built: the walk's charges no
    # table, and Monte Carlo's refuses its table on the bit length of s.
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"exact walk at s=10000000000, t=1 .*kernel_work"):
        per_class_moments(10 ** 10, 1)
    with pytest.raises(BudgetError, match=r"s=10000000000, t=1, trials=2.*2\^10000000001"):
        monte_carlo_distance(10 ** 10, 1, 2)
    assert time.perf_counter() - start < 1


def test_walk_without_blocks_is_charged_one_block(monkeypatch):
    # The groups and the closed forms are built at t = 0 too, so the budget
    # charges t = 0 as t = 1, and refuses a huge s before any closed form.
    def refuse(s):
        raise AssertionError(f"the signature groups were built at s={s}")

    with monkeypatch.context() as patch:
        patch.setattr(markov, "_signature_groups", refuse)
        start = time.perf_counter()
        for s in (10 ** 10, 2 * 10 ** 6):
            with pytest.raises(BudgetError, match=rf"s={s}, t=0 .*kernel_work"):
                per_class_moments(s, 0)
        assert time.perf_counter() - start < 1
    # t = 0 is admitted exactly as far as t = 1, at either parity.
    for s in (1207519, 1207518):
        check_walk(s, 0)
        with pytest.raises(BudgetError, match="kernel_work"):
            check_walk(s + 2, 0)
    assert all(q == a == 0 for _, _, a, q in per_class_moments(7, 0))


def test_walk_cell_without_blocks_builds_no_block_power():
    # With t = 0 the answer is exact at any s, and M^s is never built.
    start = time.perf_counter()
    assert markov.exact_walk_cell(10 ** 10 + 1, 0) == (0, True)
    assert exact_expected_distance(10 ** 10 + 1, 0) == 0
    assert time.perf_counter() - start < 1


def test_exact_walk_builds_no_tables(monkeypatch):
    # Every exact walk value comes from the closed form of M^s alone.  The
    # digest was recorded when the groups were read off the walk tables.
    def refuse(s):
        raise AssertionError(f"the walk tables were built at s={s}")

    monkeypatch.setattr(markov, "_tables", refuse)
    digest = hashlib.sha256()
    for s in range(1, 21):
        for t in range(1, 20 // s + 1):
            digest.update(repr((s, t, exact_expected_distance(s, t))).encode())
            assert verify_abs_means(s, t) and verify_second_moments(s, t), (s, t)
    assert digest.hexdigest() == \
        "b57c8f66d50ff14dc420dcf894d7135867f69b6b37ed68c77ffcba84712f5b78"


def test_exact_walk_cell_is_both_verdicts_from_one_dp(monkeypatch):
    for s in range(1, 9):
        for t in range(1, 12 // s + 1):
            assert markov.exact_walk_cell(s, t) == (
                exact_expected_distance(s, t), verify_abs_means(s, t)), (s, t)
    # check_walk runs the exact residual once per cell of its grid, and so
    # does each of the three calls below, per_class_moments included.
    cells = []
    residual_totals = markov.residual_totals

    def counted(s, t, rows, weights):
        cells.append((s, t))
        return residual_totals(s, t, rows, weights)

    monkeypatch.setattr(markov, "residual_totals", counted)
    passed, _ = checks.check_walk(8)
    grid = [(s, t) for s in range(1, 9) for t in range(1, 8 // s + 1)]
    assert passed and cells == [*grid, (4, 100)]
    cells.clear()
    assert markov.exact_walk_cell(3, 2) == (exact_expected_distance(3, 2),
                                            verify_abs_means(3, 2))
    per_class_moments(3, 2)
    assert cells == [(3, 2)] * 4


def test_signature_groups_cover_every_oriented_block():
    # A non-palindromic class stands for two oriented blocks, the class and
    # its mirror; a palindromic-type class for one.
    for s in [*range(1, 65), 1000]:
        rows, sizes = _signature_groups(s)
        blocks = sum(n if row[4] else 2 * n for row, n in zip(rows, sizes))
        assert blocks == 3 << s, s
        pal_blocks = sum(n for row, n in zip(rows, sizes) if row[4])
        assert pal_blocks == pal_coordinate_count(s), s


def test_one_block_walk_has_distance_one():
    # One summand is never cancelled.  s = 250000 is past what the budget
    # admitted while it charged the S3 block-count DP s^2 / 128.
    for s in [*range(1, 1001), 250000]:
        assert exact_expected_distance(s, 1) == 1, s


def s3_count_groups(s):
    """The signature groups by the S3 block-count rule: the number of blocks
    of each strand permutation over s letters, and over s / 2 for the
    palindromic-type blocks, a half h followed by its mirror, which takes x
    to J h^-1 J h (x).  The class counts follow as in ``_signature_groups``."""
    before = [tuple(S3.index(tuple(step[q] for q in perm)) for perm in S3)
              for step in STATE_AFTER.values()]

    def s3_counts(letters):
        counts = [1, 0, 0, 0, 0, 0]
        for _ in range(letters):
            counts = [counts[a] + counts[b] for a, b in zip(*before)]
        return counts

    n = [[0] * 3 for _ in range(3)]
    for perm, count in zip(S3, s3_counts(s)):
        for x in range(3):
            n[x][perm[x] - 1] += count
    p = [[0] * 3 for _ in range(3)]
    if s % 2 == 0:
        for perm, count in zip(S3, s3_counts(s // 2)):
            for x in range(3):
                p[x][2 - perm.index(4 - perm[x])] += count
    groups = []
    for x, y in product(range(3), repeat=2):
        others = n[x][y] - p[x][y]
        if x <= 2 - y:
            groups.append(((x, y, 2 - y, 2 - x, 0),
                           others if x < 2 - y else others // 2))
        groups.append(((x, y, 2 - y, 2 - x, 1), p[x][y]))
    groups = [group for group in groups if group[1]]
    return tuple(row for row, _ in groups), tuple(size for _, size in groups)


def test_signature_groups_match_s3_block_counts():
    # The closed form of M^s and M^(s/2) gives the groups that the S3
    # block counts over s and s / 2 letters give.
    for s in [*range(1, 301), 1000, 2046]:
        assert _signature_groups(s) == s3_count_groups(s), s


@pytest.mark.parametrize("call, args, message", [
    (distance_bound, (0, 3), "block size must be at least 1, got 0"),
    (distance_bound, (2, -1), "step count must be nonnegative, got -1"),
    (monte_carlo_distance, (2, -1, 5), "step count must be nonnegative, got -1"),
    (exact_expected_distance, (2, -1), "step count must be nonnegative, got -1"),
    (markov.exact_walk_cell, (2, -1), "step count must be nonnegative, got -1"),
])
def test_walk_domain_refused(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_distance_bound_past_the_float_range_of_2_to_the_s():
    assert distance_bound(1100, 1) == 6 * 2.0 ** 550  # 3 sqrt(2^1100) + p
    assert distance_bound(2047, 0) == 0.0
    for s, t in [(2048, 0), (2046, 1), (10 ** 9, 1)]:
        with pytest.raises(ValueError, match="float range"):
            distance_bound(s, t)


def test_exact_distance_matches_enumeration():
    for s in range(1, 21):
        top = 20 // s
        totals = enumerated_prefix_totals(s, top)
        for t in range(1, top + 1):
            assert exact_expected_distance(s, t) == \
                Fraction(int(totals[t - 1]), 1 << (s * top)), (s, t)


def test_per_class_moments_match_enumeration():
    # Every class's enumerated totals against the moments of its group,
    # with classes and groups from the per-bit reference.
    for s in range(1, 15):
        reference = reference_tables(s)
        classes = reference["classes"].tolist()
        class_group = reference["class_group"].tolist()
        keys = [class_word(s, ident).serialize() for ident in classes]
        mapped = np.bincount(reference["class_group"]).tolist()
        for t in range(1, 14 // s + 1):
            abs_totals, square_totals = enumerated_class_totals(s, t)
            moments = per_class_moments(s, t)
            rows = [row for row, _, _, _ in moments]
            # A mirror's (start, end) is the flip of the class's (end, start),
            # which bounds the signature groups by 9 pairs times the type.
            assert all(row[2:4] == (2 - row[1], 2 - row[0]) for row in rows)
            assert rows == list(map(tuple, reference["signatures"].tolist())), (s, t)
            assert [n for _, n, _, _ in moments] == mapped, (s, t)
            buckets = {}
            for ident, group, key in zip(classes, class_group, keys):
                _, _, abs_mean, second_moment = moments[group]
                enumerated = (int(abs_totals[ident]), int(square_totals[ident]))
                assert (abs_mean, second_moment) == (
                    Fraction(enumerated[0], 1 << (s * t)),
                    Fraction(enumerated[1], 1 << (s * t))), (s, t, key)
                # The bucket lemma, on the enumeration: a class's totals
                # depend only on its start state, strand permutation and type.
                assert buckets.setdefault(class_bucket(key), enumerated) \
                    == enumerated, (s, t, key)
            assert sum(not pal for _, _, pal in buckets) <= 18, (s, t)


def test_per_class_moments_admitted_at_s_20():
    # The walk budget is the one charge: s = 20 was refused while the
    # moments were listed per class, on a table of 3 * 2^20 entries.
    moments = per_class_moments(20, 1)
    assert sum(n for _, n, _, _ in moments) == _class_count(20)
    assert sum(n * a for _, n, a, _ in moments) == exact_expected_distance(20, 1) == 1


def test_ungrouped_laws_match_grouped_moments():
    # One DP row per summand class, with no signature grouping: each row
    # moves its class's own ids and its mirror's, read off the walk tables,
    # in the object-array DP whose block step is s letter steps built from
    # orientation_after.  Classes and their groups are the per-bit
    # reference's.
    for s in (1, 2, 3):
        tables = _tables(s)
        reference = reference_tables(s)
        next_state = markov._end_states(s).reshape(-1).tolist()
        mirror_of = {k >> 1: i for i, k in enumerate(tables.key.tolist()) if k & 1}
        classes = reference["classes"]
        mirrors = np.array([mirror_of.get(c, c) for c in classes.tolist()])
        pal = tables.is_pal[classes & ((1 << s) - 1)]
        assert (mirrors == classes).tolist() == pal.tolist()
        rows = [(c >> s, next_state[c] - 1, m >> s, next_state[m] - 1, p)
                for c, m, p in zip(classes.tolist(), mirrors.tolist(), pal.tolist())]
        step = object_walk_dp.letter_steps(s, (LETTER_SOURCES,) * 2)
        for t in (1, 2, 3, 8, 21, 60):
            abs_totals, square_totals = scored_laws(oracle_laws(s, t, rows, step),
                                                    rows, (1, 1, 1))
            expected = {
                class_word(s, c).serialize(): (bool(p), Fraction(a, 1 << (s * t)),
                                               Fraction(q, 1 << (s * t)))
                for c, p, a, q in zip(classes.tolist(), pal.tolist(),
                                      abs_totals, square_totals)}
            moments = per_class_moments(s, t)
            grouped = {}
            for c, g in zip(classes.tolist(), reference["class_group"].tolist()):
                row, _, abs_mean, second_moment = moments[g]
                grouped[class_word(s, c).serialize()] = (bool(row[4]), abs_mean,
                                                         second_moment)
            assert grouped == expected, (s, t)


def test_distance_bound_small_grid():
    for s in range(1, 7):
        for t in range(1, 12 // s + 1):
            value = exact_expected_distance(s, t)
            assert distance_bound_holds(s, t, value), (s, t, value)
            assert float(value) <= distance_bound(s, t) + 1e-9


def test_monte_carlo_deterministic():
    first = monte_carlo_distance(3, 20, 500, seed=42)
    second = monte_carlo_distance(3, 20, 500, seed=42)
    assert first == second
    assert monte_carlo_distance(3, 20, 500, seed=43) != first
    assert monte_carlo_distance(3, 0, 500, seed=1) == (0.0, 0.0)


def test_tables_match_per_bit_reference():
    for s in range(1, 19):
        tables = _tables(s)
        reference = reference_tables(s)
        assert tables.s == s
        for name, field in (("offset", tables.offset), ("is_pal", tables.is_pal)):
            assert field.dtype == reference[name].dtype, (s, name)
            assert np.array_equal(field, reference[name]), (s, name)
        rows, sizes = _signature_groups(s)
        assert rows == tuple(map(tuple, reference["signatures"].tolist())), s
        assert sizes == tuple(reference["group_sizes"].tolist()), s
        assert tables.key.dtype == np.int32
        assert np.array_equal(tables.key,
                              2 * reference["canon"] + (reference["sign"] < 0)), s
        assert np.array_equal(markov._end_states(s).reshape(-1), reference["next_state"]), s


def test_walk_tables_hold_each_fact_once():
    # Only the sort key spans the 3 * 2^s ids; every other table depends on
    # the block alone, and no table is int64.
    for s in range(1, 13):
        tables = _tables(s)
        arrays = {name: getattr(tables, name)
                  for name in markov._WalkTables._fields if name != "s"}
        assert {name: array.shape for name, array in arrays.items()} == {
            name: (3 << s,) if name == "key" else (1 << s,) for name in arrays}, s
        assert all(array.dtype != np.int64 for array in arrays.values()), s


def test_signature_groups_match_end_states_and_code_rule():
    # The reference's classes, with end states read off the prefix-doubled
    # ones, against the signature groups by the rule that grouped them
    # before: each class's signature row as one mixed-radix code, found by
    # searchsorted among the codes of the groups, which increase.
    weights = np.array([54, 18, 6, 2, 1], dtype=np.int64)
    for s in range(1, 13):
        reference = reference_tables(s)
        classes = reference["classes"]
        rows, sizes = _signature_groups(s)
        x, y = classes >> s, markov._end_states(s).reshape(-1)[classes] - 1
        pal = _tables(s).is_pal[classes & ((1 << s) - 1)]
        group_codes = np.array(rows, dtype=np.int64) @ weights
        assert (np.diff(group_codes) > 0).all(), s
        codes = np.stack([x, y, 2 - y, 2 - x, pal], axis=1) @ weights
        groups = np.searchsorted(group_codes, codes)
        assert np.array_equal(group_codes[groups], codes), s
        assert np.array_equal(groups, reference["class_group"]), s
        assert np.bincount(groups, minlength=len(rows)).tolist() == list(sizes), s


def test_distances_match_argsort_oracle():
    rng = np.random.default_rng(2024)
    for s in range(1, 21):
        tables = _tables(s)
        for t in (1, 2, 3, 7, 50, 300):
            if s >= 17 and t > 50:
                continue
            blocks = rng.integers(0, 1 << s, size=(40, t), dtype=np.int64)
            distances = _distances(blocks, tables, *_work(blocks.shape),
                                   _run_work(blocks.size))
            assert distances.dtype == np.int64
            assert np.array_equal(distances, oracle_distances(blocks, tables)), (s, t)
    # One walk longer than a chunk, at each parity of s: the oracle steps
    # the end states block by block, the kernel takes one prefix sum.
    for s in (3, 4):
        tables = _tables(s)
        blocks = rng.integers(0, 1 << s, size=(1, markov._CELL_CAP + 3), dtype=np.int64)
        assert np.array_equal(_distances(blocks, tables, *_work(blocks.shape),
                                         _run_work(blocks.size)),
                              oracle_distances(blocks, tables)), s


def test_bin_table_ranks_the_classes():
    # Bin 2 * rank + side: the rank indexes the reference's classes, the
    # side is the key's, and K = (3 * 2^s + p) / 2 classes get one pair of
    # bins each.
    for s in range(1, 13):
        tables = _tables(s)
        bins, pal = _bin_table(tables)
        classes = reference_tables(s)["classes"]
        assert bins.dtype == np.int32 and bins.shape == tables.key.shape, s
        assert pal.size == classes.size == _class_count(s), s
        assert np.array_equal(classes[bins >> 1], tables.key >> 1), s
        assert np.array_equal(bins & 1, tables.key & 1), s
        assert np.array_equal(pal, tables.is_pal[classes & ((1 << s) - 1)]), s
        assert int(pal.sum()) == pal_coordinate_count(s), s


def test_binned_distances_match_argsort_oracle():
    # Both scorers at the walk length K where the choice turns, one block to
    # either side, at odd and even s, then on one walk longer than a chunk.
    rng = np.random.default_rng(25)
    for s in (3, 4, 5, 8):
        tables = _tables(s)
        bins, pal = _bin_table(tables)
        for t in (_class_count(s) - 1, _class_count(s), _class_count(s) + 1):
            blocks = rng.integers(0, 1 << s, size=(40, t), dtype=np.int32)
            expected = oracle_distances(blocks, tables)
            binned = _binned_distances(blocks, tables, bins, pal, *_work(blocks.shape))
            assert np.array_equal(binned, expected), (s, t)
            assert np.array_equal(_distances(blocks, tables, *_work(blocks.shape),
                                             _run_work(blocks.size)), expected), (s, t)
    for s in (3, 4):
        tables = _tables(s)
        blocks = rng.integers(0, 1 << s, size=(1, markov._CELL_CAP + 3), dtype=np.int32)
        assert np.array_equal(_binned_distances(blocks, tables, *_bin_table(tables),
                                                *_work(blocks.shape)),
                              oracle_distances(blocks, tables)), s


def test_int32_draws_equal_int64_draws():
    # Every block size the Monte Carlo budget admits, drawn in chunks of
    # both shapes that the sampler uses.
    check_monte_carlo(22, 1, 2)
    with pytest.raises(BudgetError):
        check_monte_carlo(23, 1, 2)
    for s in range(1, 23):
        wide = np.random.Generator(np.random.Philox(s))
        narrow = np.random.Generator(np.random.Philox(s))
        for shape in [(7, 5), (1, 3000), (300, 2)]:
            drawn = narrow.integers(0, 1 << s, size=shape, dtype=np.int32)
            assert drawn.dtype == np.int32
            assert np.array_equal(drawn, wide.integers(0, 1 << s, size=shape,
                                                       dtype=np.int64)), (s, shape)


def test_block_sampler_equals_generator_draws():
    # The raw Philox words, shifted, give the blocks that Generator.integers
    # draws, across calls of odd and even sizes that split a 64-bit word.
    for s in range(1, 23):
        draw = markov._block_sampler(np.random.Philox(s), s)
        rng = np.random.Generator(np.random.Philox(s))
        for count in (7, 1, 3000, 2, 5, 600, 1):
            drawn = draw(count, np.empty(count, dtype=np.int32))
            assert drawn.dtype == np.int32
            assert np.array_equal(drawn, rng.integers(0, 1 << s, size=count,
                                                      dtype=np.int32)), (s, count)


def test_monte_carlo_scorer_turns_at_the_class_count(monkeypatch):
    # Walks with t >= K blocks are binned, shorter ones sorted; the choice
    # depends on (s, t) alone, and every value stays the oracle's.
    calls = []

    def spy(name):
        kernel = getattr(markov, name)

        def counted(*args):
            calls.append(name)
            return kernel(*args)
        monkeypatch.setattr(markov, name, counted)

    spy("_distances")
    spy("_binned_distances")
    for s in (3, 4):
        for t in (_class_count(s) - 1, _class_count(s)):
            calls.clear()
            monte_carlo_distance(s, t, 50, seed=s)
            assert set(calls) == {"_binned_distances" if t >= _class_count(s)
                                  else "_distances"}, (s, t)


def test_largest_monte_carlo_table_builds_no_bins(monkeypatch):
    # (22, 1) is sorted: no rank table of 3 * 2^22 bins is built.
    def refuse(*args):
        raise AssertionError("bin table built at s=22, t=1")

    monkeypatch.setattr(markov, "_bin_table", refuse)
    monkeypatch.setattr(markov, "_binned_distances", refuse)
    assert monte_carlo_distance(22, 1, 2, seed=0) == (1.0, 0.0)


def test_monte_carlo_pinned_values():
    assert monte_carlo_distance(4, 100, 10 ** 4, seed=0) == \
        (34.1976, 0.05688039171714793)
    # The benchmark's two sizes, both scored by bincount.
    assert monte_carlo_distance(4, 100, 20000, seed=0) == \
        (34.2367, 0.04017075229525828)
    assert monte_carlo_distance(8, 1000, 4000, seed=0) == \
        (460.4955, 0.2938766081243974)
    # 700000 walks of 7 blocks exceed one chunk of markov._CELL_CAP blocks.
    assert 700000 * 7 > markov._CELL_CAP
    assert monte_carlo_distance(3, 7, 700000, seed=5) == \
        (5.61438, 0.0017120068797528236)


@pytest.mark.parametrize("cap", [1 << 10, 1 << 22])
def test_monte_carlo_pinned_values_at_any_chunk_size(monkeypatch, cap):
    # The draws, and so the samples, do not depend on the chunking.
    monkeypatch.setattr(markov, "_CELL_CAP", cap)
    test_monte_carlo_pinned_values()


def test_monte_carlo_budget():
    # 3 * 2^s table entries plus trials * t blocks, with no term per chunk.
    for s, t, trials in [(2, 1, 16777000), (2, 8388600, 2)]:
        check_monte_carlo(s, t, trials)
    for s, t, trials in [(2, 1, 16777205), (40, 1, 2)]:
        with pytest.raises(BudgetError, match=f"s={s}, t={t}, trials={trials}"):
            check_monte_carlo(s, t, trials)


def test_monte_carlo_builds_no_class_listing(monkeypatch):
    # The sampler's tables hold only what it reads: no summand class is
    # listed and no signature group looked up.
    def refuse(s):
        raise AssertionError(f"signature groups looked up at s={s}")

    monkeypatch.setattr(markov, "_signature_groups", refuse)
    assert list(markov._WalkTables._fields) == ["s", "key", "offset", "is_pal"]
    test_monte_carlo_pinned_values()


def test_monte_carlo_matches_exact():
    mean, stderr = monte_carlo_distance(2, 3, 4000, seed=11)
    exact = float(exact_expected_distance(2, 3))
    assert abs(mean - exact) <= 5 * stderr


@pytest.mark.parametrize("s, t", [(3, 333), (2, 500)])
def test_monte_carlo_matches_exact_past_enumeration(s, t):
    # Far past the 2^(s t) enumeration, sampling is the exact DP's check.
    assert kernel_work(s, t) <= WALK_WORK_BUDGET
    exact = exact_expected_distance(s, t)
    mean, stderr = monte_carlo_distance(s, t, 4000, seed=t)
    assert stderr > 0
    assert abs(mean - float(exact)) <= 5 * stderr


def test_monte_carlo_below_bound():
    mean, stderr = monte_carlo_distance(4, 100, 2000, seed=0)
    assert mean - 3 * stderr <= distance_bound(4, 100)


def test_per_class_moments_sum_to_distance():
    # E[Dist] = sum over the classes of E|D_w|, each group's moment once
    # per class.
    for s, t in [(1, 4), (2, 3), (3, 2), (4, 1)]:
        moments = per_class_moments(s, t)
        assert sum(n for _, n, _, _ in moments) == _class_count(s)
        assert sum(n * a for _, n, a, _ in moments) == exact_expected_distance(s, t)


def test_per_class_moment_count():
    # One class per mirror pair plus one per palindromic-type oriented word.
    moments = per_class_moments(2, 1)
    classes = sum(n for _, n, _, _ in moments)
    pal = sum(n for row, n, _, _ in moments if row[4])
    assert pal == pal_coordinate_count(2)
    assert 2 * (classes - pal) + pal == 3 * 2 ** 2


def test_second_moment_bound():
    for s in range(1, 5):
        for t in range(1, 8 // s + 1):
            assert verify_second_moments(s, t)
            # Jensen: the first-moment bound follows from the second.
            assert verify_abs_means(s, t)


def test_second_moment_example():
    # A single step displaces each non-palindromic class w by 1 with
    # probability 2 / (3 * 2^s) ... but conditioned on the fixed start
    # state 1, only classes reachable from state 1 move at all.
    bound = Fraction(4, 2)
    for row, _, _, second_moment in per_class_moments(1, 1):
        assert not row[4]
        assert second_moment <= bound


def test_oriented_word_key_and_bucket():
    assert class_word(3, 0).serialize() == "o1:aaa"
    assert class_word(3, (2 - 1) * 8 + 0b101).serialize() == "o2:bab"
    start, perm, pal = class_bucket("o2:ab")
    assert start == 2
    assert perm == (2, 3, 1)
    assert pal
    assert len(set(perm)) == 3


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 60))
def test_distance_bound_property(s, t):
    value = exact_expected_distance(s, t)
    assert distance_bound_holds(s, t, value)
