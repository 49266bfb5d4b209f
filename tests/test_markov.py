"""Tests for the orientation-state chain and the summand walk."""

import hashlib
import time
from dataclasses import fields
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobridge import checks, markov
from twobridge.budget import (
    CLASS_LISTING_BUDGET,
    WALK_WORK_BUDGET,
    BudgetError,
    _walk_groups,
    check_monte_carlo,
    walk_work,
)
from twobridge.cobordism import OrientedWord, cancel_mirrors
from twobridge.diagram import orientation_after, strand_permutation
from twobridge.markov import (
    _class_listing,
    _distances,
    _signature_groups,
    _tables,
    contraction_gap,
    displacement_laws,
    distance_bound,
    distance_bound_holds,
    empirical_transition_matrix,
    exact_expected_distance,
    identity_matrix,
    matrix_power,
    monte_carlo_distance,
    oriented_word_key,
    pal_coordinate_count,
    per_class_moments,
    power_closed_form,
    step_matrix,
    transition_matrix,
    verify_abs_means,
    verify_closed_form,
    verify_contraction,
    verify_empirical,
    verify_power_identity,
)
from twobridge.words import is_palindromic_type


def verify_second_moments(s, t):
    """Every integer-coordinate class satisfies E[D_w^2] <= 4 t / 2^s."""
    bound = Fraction(4 * t, 2 ** s)
    _, moments = markov._group_moments(s, t)
    return all(second <= bound for pal, _, second in moments if not pal)


def class_bucket(key):
    """Walk-distribution bucket of a class: start state, strand permutation
    of the letters, and palindromic-type flag."""
    state, letters = key.split(":")
    return int(state[1:]), strand_permutation(letters), is_palindromic_type(letters)


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
    the classes and groups of ``_class_listing``, and the rows and sizes of
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
    return {"next_state": next_state, "canon": canon, "sign": sign,
            "is_pal": is_pal, "classes": classes,
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
    keys = np.empty((rows, t), dtype=np.int64)
    signs = np.empty((rows, t), dtype=np.int64)
    state = np.ones(rows, dtype=np.int64)
    for step in range(t):
        ident = (state - 1) * (1 << s) + blocks[:, step]
        keys[:, step] = tables.key[ident] >> 1
        signs[:, step] = 1 - 2 * (tables.key[ident] & 1)
        state = tables.next_state[ident]

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
    return keys, runs, tables.is_pal[keys], end, order


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
    assert step_matrix() == tuple(
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
    for s in range(1, 9):
        assert verify_empirical(s)


def test_closed_form():
    assert power_closed_form(3, 0) == identity_matrix()
    assert verify_closed_form(6, 8)
    # n = k s odd puts the small entries on the anti-diagonal; even n puts
    # the large entries on the diagonal.
    odd = power_closed_form(1, 1)
    assert odd[0][2] == odd[1][1] == odd[2][0] == 0
    even = power_closed_form(1, 2)
    assert even[0][0] == even[1][1] == even[2][2] == Fraction(1, 2)


def test_power_identity():
    assert verify_power_identity(20)


def test_contraction():
    assert contraction_gap(1, 1) == Fraction(1, 2)
    assert verify_contraction(6, 8)
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
    with pytest.raises(ValueError, match="block size"):
        exact_expected_distance(0, 1)


def test_exact_distance_matches_brute_force():
    for s, t in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1),
                 (3, 2), (4, 1)]:
        assert exact_expected_distance(s, t) == brute_force_expected_distance(s, t)


def test_walk_work_charges_the_dp_rows():
    for s in range(1, 65):
        assert _walk_groups(s) == len(_signature_groups(s)[1]), s


def test_exact_distance_budget():
    # The walk DP and the per-class listing's table each have a budget.
    assert walk_work(4, 1000) > WALK_WORK_BUDGET
    assert 3 << 25 > CLASS_LISTING_BUDGET
    with pytest.raises(BudgetError, match="monte_carlo_distance"):
        exact_expected_distance(4, 1000)
    with pytest.raises(BudgetError, match="monte_carlo_distance"):
        per_class_moments(25, 1)


def test_huge_block_size_refused_before_work():
    # The budget refuses on the bit length of s and never builds 2^s.
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"s=10000000000 .*about 2\^10000000001"):
        per_class_moments(10 ** 10, 1)
    with pytest.raises(BudgetError, match=r"s=10000000000, t=1, trials=2.*2\^10000000001"):
        monte_carlo_distance(10 ** 10, 1, 2)
    assert time.perf_counter() - start < 1


def test_exact_walk_builds_no_tables(monkeypatch):
    # Every exact walk value comes from the S3 block counts alone.  The
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
    # check_walk runs the walk DP once per cell of its grid.
    cells = []
    group_moments = markov._group_moments

    def counted(s, t):
        cells.append((s, t))
        return group_moments(s, t)

    monkeypatch.setattr(markov, "_group_moments", counted)
    passed, _ = checks.check_walk(8)
    grid = [(s, t) for s in range(1, 9) for t in range(1, 8 // s + 1)]
    assert passed and cells == [*grid, (4, 100)]


def test_signature_groups_cover_every_oriented_block():
    # A non-palindromic class stands for two oriented blocks, the class and
    # its mirror; a palindromic-type class for one.
    for s in [*range(1, 65), 1000]:
        signatures, sizes = _signature_groups(s)
        blocks = sum(n if pal else 2 * n
                     for pal, n in zip(signatures[:, 4].tolist(), sizes))
        assert blocks == 3 << s, s
        pal_blocks = sum(n for pal, n in zip(signatures[:, 4].tolist(), sizes) if pal)
        assert pal_blocks == pal_coordinate_count(s), s


def test_one_block_walk_has_distance_one():
    # One summand is never cancelled.  Every s up to 1000 would take ~6 s.
    for s in [*range(1, 201), 255, 256, 511, 512, 999, 1000]:
        assert exact_expected_distance(s, 1) == 1, s


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
    for s in range(1, 15):
        for t in range(1, 14 // s + 1):
            abs_totals, square_totals = enumerated_class_totals(s, t)
            moments = per_class_moments(s, t)
            # A mirror's (start, end) is the flip of the class's (end, start),
            # which bounds the signature groups by 9 pairs times the type.
            signatures, _ = _signature_groups(s)
            assert (signatures[:, 2:4] == 2 - signatures[:, 1::-1]).all()
            classes = _class_listing(_tables(s))[0].tolist()
            assert list(moments) == [oriented_word_key(s, i) for i in classes]
            buckets = {}
            for ident, m in zip(classes, moments.values()):
                enumerated = (int(abs_totals[ident]), int(square_totals[ident]))
                assert (m.abs_mean, m.second_moment) == (
                    Fraction(enumerated[0], 1 << (s * t)),
                    Fraction(enumerated[1], 1 << (s * t))), (s, t, m.key)
                # The bucket lemma, on the enumeration: a class's totals
                # depend only on its start state, strand permutation and type.
                assert buckets.setdefault(class_bucket(m.key), enumerated) \
                    == enumerated, (s, t, m.key)
            assert sum(not pal for _, _, pal in buckets) <= 18, (s, t)


def test_ungrouped_laws_match_grouped_moments():
    # One DP row per summand class, with no signature grouping: each row
    # moves its class's own ids and its mirror's, read off the walk tables,
    # and the letter steps are built from orientation_after.
    letter_sources = tuple(
        np.array([next(i for i in range(3)
                       if orientation_after(i + 1, letter) == j + 1) for j in range(3)])
        for letter in "ab")
    for s in (1, 2, 3):
        tables = _tables(s)
        mirror_of = {k >> 1: i for i, k in enumerate(tables.key.tolist()) if k & 1}
        classes, _ = _class_listing(tables)
        mirrors = np.array([mirror_of.get(c, c) for c in classes.tolist()])
        pal = tables.is_pal[classes]
        assert (mirrors == classes).tolist() == pal.tolist()
        own = ((classes >> s)[:, None], tables.next_state[classes, None] - 1)
        other = ((mirrors >> s)[:, None], tables.next_state[mirrors, None] - 1)
        for t in (1, 2, 3, 8, 21, 60):
            law = displacement_laws(s, t, (letter_sources,) * 2, (own,) * 2,
                                    (other,) * 2, pal).sum(axis=1)
            d = np.arange(-t, t + 1)
            count = np.where(pal[:, None], d & 1, np.abs(d))
            expected = {
                oriented_word_key(s, c): (bool(p), Fraction(a, 1 << (s * t)),
                                          Fraction(q, 1 << (s * t)))
                for c, p, a, q in zip(classes.tolist(), pal.tolist(),
                                      (law * count).sum(axis=1).tolist(),
                                      (law * count * count).sum(axis=1).tolist())}
            moments = per_class_moments(s, t)
            assert {key: (m.palindromic, m.abs_mean, m.second_moment)
                    for key, m in moments.items()} == expected, (s, t)


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
        classes, class_group = _class_listing(tables)
        for name, field in (("next_state", tables.next_state), ("is_pal", tables.is_pal),
                            ("classes", classes), ("class_group", class_group)):
            assert field.dtype == reference[name].dtype, (s, name)
            assert np.array_equal(field, reference[name]), (s, name)
        signatures, sizes = _signature_groups(s)
        assert signatures.dtype == reference["signatures"].dtype, s
        assert np.array_equal(signatures, reference["signatures"]), s
        assert sizes == reference["group_sizes"].tolist(), s
        assert tables.key.dtype == np.int32
        assert np.array_equal(tables.key,
                              2 * reference["canon"] + (reference["sign"] < 0)), s


def test_distances_match_argsort_oracle():
    rng = np.random.default_rng(2024)
    for s in range(1, 21):
        tables = _tables(s)
        for t in (1, 2, 3, 7, 50, 300):
            if s >= 17 and t > 50:
                continue
            blocks = rng.integers(0, 1 << s, size=(40, t), dtype=np.int64)
            distances = _distances(blocks, tables)
            assert distances.dtype == np.int64
            assert np.array_equal(distances, oracle_distances(blocks, tables)), (s, t)
    # One walk longer than a chunk, at each parity of s: the oracle steps
    # the end states block by block, the kernel takes one prefix sum.
    for s in (3, 4):
        tables = _tables(s)
        blocks = rng.integers(0, 1 << s, size=(1, markov._CELL_CAP + 3), dtype=np.int64)
        assert np.array_equal(_distances(blocks, tables),
                              oracle_distances(blocks, tables)), s


def test_monte_carlo_pinned_values():
    assert monte_carlo_distance(4, 100, 10 ** 4, seed=0) == \
        (34.1976, 0.05688039171714793)
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
    assert [field.name for field in fields(markov._WalkTables)] == \
        ["s", "next_state", "key", "is_pal"]
    test_monte_carlo_pinned_values()


def test_monte_carlo_matches_exact():
    mean, stderr = monte_carlo_distance(2, 3, 4000, seed=11)
    exact = float(exact_expected_distance(2, 3))
    assert abs(mean - exact) <= 5 * stderr


@pytest.mark.parametrize("s, t", [(3, 333), (2, 500)])
def test_monte_carlo_matches_exact_past_enumeration(s, t):
    # Far past the 2^(s t) enumeration, sampling is the exact DP's check.
    assert walk_work(s, t) <= WALK_WORK_BUDGET
    exact = exact_expected_distance(s, t)
    mean, stderr = monte_carlo_distance(s, t, 4000, seed=t)
    assert stderr > 0
    assert abs(mean - float(exact)) <= 5 * stderr


def test_monte_carlo_below_bound():
    mean, stderr = monte_carlo_distance(4, 100, 2000, seed=0)
    assert mean - 3 * stderr <= distance_bound(4, 100)


def test_per_class_moments_sum_to_distance():
    for s, t in [(1, 4), (2, 3), (3, 2), (4, 1)]:
        moments = per_class_moments(s, t)
        assert len(moments) == sum(
            1 for _ in moments)  # keys unique by construction
        assert sum(m.abs_mean for m in moments.values()) == \
            exact_expected_distance(s, t)


def test_per_class_moment_count():
    # One class per mirror pair plus one per palindromic-type oriented word.
    moments = per_class_moments(2, 1)
    pal = sum(1 for m in moments.values() if m.palindromic)
    assert pal == pal_coordinate_count(2)
    assert 2 * (len(moments) - pal) + pal == 3 * 2 ** 2


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
    moments = per_class_moments(1, 1)
    bound = Fraction(4, 2)
    for m in moments.values():
        assert not m.palindromic
        assert m.second_moment <= bound


def test_oriented_word_key_and_bucket():
    assert oriented_word_key(3, 0) == "o1:aaa"
    assert oriented_word_key(3, (2 - 1) * 8 + 0b101) == "o2:bab"
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
