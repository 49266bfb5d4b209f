"""Orientation-state Markov chain and the summand random walk.

Reading a block of s uniformly random braid letters moves the orientation
state at a cut by a Markov chain on {1, 2, 3}: each letter either fixes the
state or transposes it with a neighbour, so the one-letter step matrix is
(1/2) M with M = [[1,1,0],[1,0,1],[0,1,1]].  The s-letter transition matrix
(1/2^s) M^s has an exact closed form and contracts toward the uniform
distribution at rate 2^(-s).

Cutting a long word into t blocks of s letters yields t summands
(orientation state, block).  Mirror cancellation turns the summand
multiset into a walk on Z^d x Z_2^p: one signed integer coordinate per
mirror pair of classes, one parity bit per palindromic-type oriented word.
The distance is a sum over classes, so E[Dist] = sum_w E|D_w|, and the law
of one displacement D_w depends only on the class's transfer signature:
the (start, end) states of the class and of its mirror, and its type.
Classes are grouped by signature, and ``_signature_groups`` counts the
classes of each group from S3 block counts in O(s) integer steps, with no
block listed.  One exact integer dynamic program, ``displacement_laws``,
steps (orientation state, D_w) for every group letter by letter across the
t uniform blocks: O(s t^2) steps instead of a sum over all 2^(s t) block
sequences (the tests keep that enumeration as the oracle).  Over nine
states it also gives the residual term of ``cobordism.average_g4_row``.
The module checks the taxicab-distance bound 3 sqrt(2^s t) + p and the
per-class abs-mean bound 2 sqrt(t / 2^s); the tests check the second-moment
bound 4 t / 2^s that implies it.

Monte Carlo sampling covers walks past ``budget.check_walk``, within
``budget.check_monte_carlo``.  Each summand id
carries an int32 key 2 * canon + [mirror side]; sorting a sampled walk's t
keys groups every class, and one run-length pass gives each class's signed
count D_w per walk in time linear in the blocks drawn.  Walks are drawn in
chunks of at most 2^22 blocks; the draws do not depend on the chunking.
The lookup tables over all 3 * 2^s oriented blocks serve Monte Carlo and
the per-class listing ``per_class_moments`` only, built afresh by prefix
doubling over the blocks, O(2^s) work; no exact walk value reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import budget
from .diagram import S3, S3_AFTER, STATE_AFTER, orientation_after

Matrix = tuple[tuple[Fraction, Fraction, Fraction], ...]

# The most blocks (at least one walk) that Monte Carlo sampling draws and
# scores at once.
_CELL_CAP = 1 << 22

# Orientation state after a letter a (row 0) or b (row 1), by state 1..3.
# Less one, a row is the walk DP's gather index at either parity: entry j
# is the state that the letter moves to j (a letter is its own inverse).
_STEPS = np.array([STATE_AFTER["a"], STATE_AFTER["b"]], dtype=np.int64)
_LETTER_SOURCES = (_STEPS[:, 1:] - 1,) * 2
# The S3 indices that the letters a and b take to each S3 index (a letter
# is its own inverse here too).
_S3_BEFORE = tuple(zip(S3_AFTER["a"], S3_AFTER["b"]))
# A signature row (x, y, x_m, y_m, pal) as one mixed-radix code below 162.
_CODE_WEIGHTS = np.array([54, 18, 6, 2, 1], dtype=np.int64)


def identity_matrix() -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))


def matrix_multiply(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def matrix_power(a: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    result = identity_matrix()
    base = a
    while k:
        if k & 1:
            result = matrix_multiply(result, base)
        base = matrix_multiply(base, base)
        k >>= 1
    return result


def step_matrix() -> Matrix:
    """Letter counts M[i][j] = number of letters moving state i+1 to j+1."""
    counts = [[0] * 3 for _ in range(3)]
    for state in (1, 2, 3):
        for letter in "ab":
            counts[state - 1][orientation_after(state, letter) - 1] += 1
    return tuple(tuple(Fraction(n) for n in row) for row in counts)


def transition_matrix(s: int) -> Matrix:
    """Orientation-state transition probabilities across s random letters."""
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    power = matrix_power(step_matrix(), s)
    scale = Fraction(1, 2 ** s)
    return tuple(tuple(scale * x for x in row) for row in power)


def empirical_transition_matrix(s: int) -> Matrix:
    """Transition frequencies measured over all 2^s letter blocks."""
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    counts = [[0] * 3 for _ in range(3)]
    for bits in range(2 ** s):
        block = "".join("ab"[(bits >> (s - 1 - j)) & 1] for j in range(s))
        for state in (1, 2, 3):
            counts[state - 1][orientation_after(state, block) - 1] += 1
    scale = Fraction(1, 2 ** s)
    return tuple(tuple(scale * n for n in row) for row in counts)


def power_closed_form(s: int, k: int) -> Matrix:
    """Closed form for the k-th power of the block transition matrix.

    With n = k s: for odd n every entry is (1 + 2^(-n)) / 3 except the
    anti-diagonal ones at (1 - 2^(1-n)) / 3; for even n the diagonal holds
    (1 + 2^(1-n)) / 3 and everything else (1 - 2^(-n)) / 3.  (The residual
    permutation term (-J)^n alternates between minus the anti-diagonal flip
    and the identity.)  k = 0 gives the identity.
    """
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    if k == 0:
        return identity_matrix()
    n = k * s
    magnitude = Fraction(1, 2 ** n)
    if n % 2:
        base = (1 + magnitude) / 3
        return tuple(
            tuple(base - magnitude if i + j == 2 else base for j in range(3))
            for i in range(3)
        )
    base = (1 - magnitude) / 3
    return tuple(
        tuple(base + magnitude if i == j else base for j in range(3))
        for i in range(3)
    )


def verify_empirical(s: int) -> bool:
    """Exact matrix power equals exhaustive block frequencies."""
    return transition_matrix(s) == empirical_transition_matrix(s)


def verify_closed_form(s_max: int, k_max: int) -> bool:
    """Each power P^k, k <= k_max, taken from P^(k-1), equals the closed form."""
    for s in range(1, s_max + 1):
        p = transition_matrix(s)
        power = identity_matrix()
        for k in range(0, k_max + 1):
            if power != power_closed_form(s, k):
                return False
            power = matrix_multiply(power, p)
    return True


def verify_power_identity(r_max: int) -> bool:
    """M^r = (-J)^r + (2^r - (-1)^r)/3 * B with J the anti-diagonal
    permutation matrix and B the all-ones matrix, checked exactly."""
    m = step_matrix()
    for r in range(0, r_max + 1):
        bulk = Fraction(2 ** r - (-1) ** r, 3)
        if r % 2:
            expected = tuple(
                tuple(bulk - (i + j == 2) for j in range(3)) for i in range(3)
            )
        else:
            expected = tuple(
                tuple(bulk + (i == j) for j in range(3)) for i in range(3)
            )
        if matrix_power(m, r) != expected:
            return False
    return True


def _row_spread(p: Matrix) -> Fraction:
    """Largest within-row spread of a matrix."""
    return max(
        abs(p[i][j] - p[i][l])
        for i in range(3) for j in range(3) for l in range(3)
    )


def contraction_gap(s: int, k: int) -> Fraction:
    """Largest within-row spread of the k-step block transition matrix."""
    return _row_spread(matrix_power(transition_matrix(s), k))


def verify_contraction(s_max: int, k_max: int) -> bool:
    """Row spreads shrink at least geometrically: gap(s, k) <= 2^(-k s),
    with each power taken from the previous one."""
    for s in range(1, s_max + 1):
        p = transition_matrix(s)
        power = p
        for k in range(1, k_max + 1):
            if _row_spread(power) > Fraction(1, 2 ** (k * s)):
                return False
            power = matrix_multiply(power, p)
    return True


def pal_coordinate_count(s: int) -> int:
    """Number p of parity coordinates: palindromic-type oriented words."""
    return 3 * 2 ** (s // 2) if s % 2 == 0 else 0


def _s3_counts(letters: int) -> list[int]:
    """Number of blocks of the given length with each strand permutation,
    indexed as ``S3``."""
    counts = [1, 0, 0, 0, 0, 0]
    for _ in range(letters):
        counts = [counts[a] + counts[b] for a, b in _S3_BEFORE]
    return counts


def _signature_groups(s: int) -> tuple[np.ndarray, list[int]]:
    """The walk's signature groups in increasing order of signature code:
    one row (start, end, mirror start, mirror end, palindromic-type) of
    state indices 0..2 per group, and the number of classes in each.

    No block is listed: N[x][y], the number of blocks that take state x to
    y, comes from the S3 block counts over s letters.  A palindromic-type
    block (even s) is a half h followed by the mirror of h, which takes x
    to J h^-1 J h (x) with J the flip 1 <-> 3, so the S3 counts over s / 2
    letters give P[x][y] of them, each its own class.  A mirror runs from
    flip(y) to flip(x) and the class is the side with the smaller id, so
    the other blocks from x to y are N - P classes when x < flip(y), half
    of that when x = flip(y), and none otherwise.
    """
    n = [[0] * 3 for _ in range(3)]
    for perm, count in zip(S3, _s3_counts(s)):
        for x in range(3):
            n[x][perm[x] - 1] += count
    p = [[0] * 3 for _ in range(3)]
    if s % 2 == 0:
        for perm, count in zip(S3, _s3_counts(s // 2)):
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
    return (np.array([row for row, _ in groups], dtype=np.int64),
            [size for _, size in groups])


@dataclass(frozen=True)
class _WalkTables:
    """Lookup tables over ids (state - 1) * 2^s + block for the walk kernel,
    and the signature group of each summand class."""

    s: int
    next_state: np.ndarray
    # Sort key 2 * canon + [mirror side] per id: canon is the class's
    # canonical id, and the mirror side of a class counts -1 in D_w.
    key: np.ndarray
    is_pal: np.ndarray  # indexed by id; depends only on the block letters
    classes: np.ndarray  # canonical ids in increasing order, one per class
    class_group: np.ndarray  # signature group (``_signature_groups``) of each class


def _tables(s: int) -> _WalkTables:
    # End state after each block from each start state, and each block with
    # its letters reversed, by prefix doubling: the block b of k + 1 letters
    # is the block b >> 1 of k letters followed by the letter b & 1.
    a_step, b_step = _STEPS
    ends = np.arange(1, 4, dtype=np.int64)[:, None]  # shape (3, 2^k)
    reversed_bits = np.zeros(1, dtype=np.int64)
    for k in range(s):
        longer = np.empty((3, 2 << k), dtype=np.int64)
        longer[:, 0::2] = a_step[ends]
        longer[:, 1::2] = b_step[ends]
        ends = longer
        flipped = np.empty(2 << k, dtype=np.int64)
        flipped[0::2] = reversed_bits
        flipped[1::2] = reversed_bits | (1 << k)
        reversed_bits = flipped

    # Mirror block: reverse the letter order and swap a <-> b.
    half = 1 << s
    blocks = np.arange(half, dtype=np.int64)
    mirror_block = (half - 1) ^ reversed_bits
    is_pal_block = mirror_block == blocks

    flip = np.array([0, 3, 2, 1], dtype=np.int64)
    ids = np.arange(3 * half, dtype=np.int64)
    next_state = ends.reshape(-1)
    mirror_id = (flip[next_state] - 1) * half + np.tile(mirror_block, 3)
    is_pal = np.tile(is_pal_block, 3)
    canon = np.where(is_pal, ids, np.minimum(ids, mirror_id))
    key = (2 * canon + (canon != ids)).astype(np.int32)

    # Each class's signature code, looked up among the groups' codes.
    classes = np.flatnonzero(canon == ids)
    mirrors = mirror_id[classes]
    codes = np.stack([classes >> s, next_state[classes] - 1, mirrors >> s,
                      next_state[mirrors] - 1, is_pal[classes]], axis=1) @ _CODE_WEIGHTS
    signatures, _ = _signature_groups(s)
    class_group = np.searchsorted(signatures @ _CODE_WEIGHTS, codes).astype(np.int8)
    return _WalkTables(s, next_state, key, is_pal, classes, class_group)


def oriented_word_key(s: int, ident: int) -> str:
    """Serialize an id from the walk tables as an oriented-word key."""
    state, block = divmod(ident, 1 << s)
    letters = "".join("ab"[(block >> (s - 1 - j)) & 1] for j in range(s))
    return f"o{state + 1}:{letters}"


def _distances(blocks: np.ndarray, tables: _WalkTables) -> np.ndarray:
    """Walk distance of each row of a (rows, t) array of blocks.

    Sorting a row's summand keys puts each class's summands next to each
    other, own side (+1) before mirror side (-1).  One run-length pass over
    the sorted rows sums each class's signed count D_w, which contributes
    |D_w|, or its parity for a palindromic-type class.
    """
    rows, t = blocks.shape
    s = tables.s
    keys = np.empty((rows, t), dtype=np.int32)
    state = np.ones(rows, dtype=np.int64)
    for step in range(t):
        ident = (state - 1) * (1 << s) + blocks[:, step]
        keys[:, step] = tables.key[ident]
        state = tables.next_state[ident]
    keys.sort(axis=1)

    flat = keys.reshape(-1)
    canon = flat >> 1
    first = np.empty(flat.size, dtype=bool)
    first[0] = True
    np.not_equal(canon[1:], canon[:-1], out=first[1:])
    first[::t] = True  # a run never crosses into the next row
    starts = np.flatnonzero(first)
    counts = np.add.reduceat(1 - 2 * (flat & 1), starts)
    contributions = residual_count(counts, tables.is_pal[canon[starts]])
    return np.bincount(starts // t, weights=contributions,
                       minlength=rows).astype(np.int64)


def residual_count(d, pal):
    """Copies of a class left by cancellation: |d|, or d mod 2 if palindromic-type."""
    return np.where(pal, d & 1, np.abs(d))


def displacement_laws(s: int, t: int, sources, own, mirror, pal: np.ndarray
                      ) -> np.ndarray:
    """law[g, i, t + d] = number of sequences of t blocks of s letters, from
    state 0 and D = 0, that end in state i and displace the class of row g
    by d (its match count if palindromic-type).  Entries are exact ints.

    ``sources[p]`` holds the (a, b) gather indices of a letter at position
    parity p: entry j is the state that the letter moves to j.  After the
    s letter steps of block k, at parity p = k s % 2, the row's own block
    (states ``own[p][0][g]`` to ``own[p][1][g]``, one pair per column) moves
    from d to d + 1, and its mirror (``mirror[p]``, unless ``pal[g]``) from
    d to d - 1.  Block k touches only the window d in [-k-1, k+1].
    """
    rows, paired = np.arange(len(pal)), np.flatnonzero(~pal)
    law = np.zeros((len(pal), len(sources[0][0]), 2 * t + 1), dtype=object)
    law[:, 0, t] = 1
    for k in range(t):
        parity = k * s % 2
        window = slice(t - k - 1, t + k + 2)
        before = law[:, :, window]
        after = before
        for i in range(s):
            a, b = sources[(parity + i) % 2]
            after = after[:, a] + after[:, b]
        # The window's ends are still 0 before the block: a roll is a shift.
        for moving, (src, dst), shift in ((rows, own[parity], 1),
                                          (paired, mirror[parity], -1)):
            moved = before[moving[:, None], src[moving]]
            after[moving[:, None], dst[moving]] += np.roll(moved, shift, axis=-1) - moved
        law[:, :, window] = after
    return law


def _group_moments(s: int, t: int
                   ) -> tuple[list[int], list[tuple[bool, Fraction, Fraction]]]:
    """Per signature group, its number of classes and (palindromic, E|D_w|,
    E[D_w^2]) with |D_w| read as the parity bit for palindromic-type classes."""
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    if t < 1:
        raise ValueError(f"step count must be at least 1, got {t}")
    budget.check_walk(s, t)
    signatures, sizes = _signature_groups(s)
    x_c, y_c, x_m, y_m, pal = signatures.T
    pal = pal.astype(bool)
    own, mirror = (x_c[:, None], y_c[:, None]), (x_m[:, None], y_m[:, None])
    law = displacement_laws(s, t, _LETTER_SOURCES, (own, own), (mirror, mirror),
                            pal).sum(axis=1)
    contribution = residual_count(np.arange(-t, t + 1), pal[:, None])
    abs_totals = (law * contribution).sum(axis=1)
    square_totals = (law * contribution * contribution).sum(axis=1)
    total = 1 << (s * t)
    return sizes, [
        (bool(p), Fraction(a, total), Fraction(q, total))
        for p, a, q in zip(pal.tolist(), abs_totals.tolist(), square_totals.tolist())
    ]


def exact_expected_distance(s: int, t: int) -> Fraction:
    """Exact E[Dist] of the t-step summand walk over all block sequences."""
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    if t == 0:
        return Fraction(0)
    sizes, moments = _group_moments(s, t)
    return sum((n * abs_mean for n, (_, abs_mean, _) in zip(sizes, moments)),
               Fraction(0))


def distance_bound(s: int, t: int) -> float:
    """Taxicab bound 3 sqrt(2^s t) + p on the expected walk distance.

    2^s never becomes a float: the bound is 2^(s // 2) times
    3 sqrt(2^(s % 2) t) + p / 2^(s // 2), scaled by ``math.ldexp``.  A bound
    past the float range raises ValueError.
    """
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


def monte_carlo_distance(s: int, t: int, trials: int, seed: int = 0
                         ) -> tuple[float, float]:
    """Sampled (mean, standard error) of the walk distance.

    Trials are drawn in chunks of at most 2^22 blocks (whole trials, at
    least one per chunk) and scored by the row-sort kernel.  The chunked
    draws concatenate to the single draw of all trials, so the samples, and
    the result, depend only on (s, t, trials, seed), not on the chunking.
    """
    if s < 1:
        raise ValueError(f"block size must be at least 1, got {s}")
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    rows = max(1, _CELL_CAP // max(t, 1))
    budget.check_monte_carlo(s, t, trials, -(-trials // rows))
    if t == 0:
        return 0.0, 0.0
    rng = np.random.Generator(np.random.Philox(seed))
    tables = _tables(s)
    distances = np.empty(trials, dtype=np.int64)
    for lo in range(0, trials, rows):
        hi = min(lo + rows, trials)
        blocks = rng.integers(0, 1 << s, size=(hi - lo, t), dtype=np.int64)
        distances[lo:hi] = _distances(blocks, tables)
    mean = float(distances.mean())
    stderr = float(distances.std(ddof=1) / trials ** 0.5)
    return mean, stderr


@dataclass(frozen=True)
class ClassMoments:
    """Exact moments of one class displacement D_w over the full walk."""

    key: str
    palindromic: bool
    abs_mean: Fraction
    second_moment: Fraction


def per_class_moments(s: int, t: int) -> dict[str, ClassMoments]:
    """Exact E|D_w| and E[D_w^2] for every summand class."""
    budget.check_class_listing(s)
    _, moments = _group_moments(s, t)
    tables = _tables(s)
    out: dict[str, ClassMoments] = {}
    for ident, group in zip(tables.classes.tolist(), tables.class_group.tolist()):
        key = oriented_word_key(s, ident)
        out[key] = ClassMoments(key, *moments[group])
    return out


def verify_abs_means(s: int, t: int) -> bool:
    """Every integer-coordinate class satisfies E|D_w| <= 2 sqrt(t / 2^s),
    decided exactly by squaring."""
    bound = Fraction(4 * t, 2 ** s)
    _, moments = _group_moments(s, t)
    return all(mean * mean <= bound for pal, mean, _ in moments if not pal)

