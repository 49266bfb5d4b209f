"""3-strand plat diagrams: orientation, crossing signs, and A-smoothings.

A braid word over ``{a,b}`` is drawn as a row of crossings between three
horizontal strands (1=top, 2=middle, 3=bottom): 'a' is a lower-row
crossing on strands {2,3} (sigma_1) and 'b' an upper-row crossing on
strands {1,2} (sigma_2^-1).  The diagram is alternating: the NE-going
strand is over at 'a' crossings, the SE-going strand is over at 'b'
crossings.

Both ends are capped by a plat closure.  On the left, strands 1 and 2 are
capped together and strand 3 leaves as the "around" arc that travels
outside the diagram.  On the right there are two shapes: closure "A" caps
strands 1,2 and sends strand 3 around; closure "B" caps strands 2,3 and
sends strand 1 around.  The diagram of a word in T(c) ends in a lower
crossing exactly when c is odd, and its plat uses closure A in that case,
closure B otherwise: ``word_closure``, which every word evaluator reads.

Traczyk's formula sigma = s_A - c_plus - 1 needs three things:

* Orientation states.  Exactly one strand runs leftward on each cut line
  of a knot diagram (the around arc always runs leftward outside it).
  This *orientation state* moves across a crossing by the crossing's
  transposition.  Written as x = state - 1 in Z/3, 'a' is the reflection
  x -> -x and 'b' the reflection x -> 1 - x.  So with k = 0 for 'a' and
  1 for 'b', the state right of crossing j is x_j = (-1)^j (x_0 + Q_j),
  where Q_j is the alternating prefix sum of k_1 .. k_j.  The last term
  Q_c and the parity of c fix the strand permutation (``S3``), and with it
  whether the closed diagram is a knot and the state x_0 it starts in.
* Knot or link.  The strand permutation plus the six cut endpoints (two
  caps and the around arc) form a 6-node graph; ``closure_components``
  counts its components once per case at import, into ``COMPONENTS``,
  which the diagram and the summand blocks in ``cobordism`` read.
* Crossing signs and all-A circles.  A crossing's sign depends only on
  its letter and the state on its left: 'a' is positive unless strand 1
  is leftward, 'b' only when strand 3 is, that is, exactly when x > k on
  its left.  The A-smoothing turns strands 2,3 back at every 'a' and lets
  everything run through at 'b', so strand 1 runs straight across.  Each
  gap between consecutive 'a's closes one circle, and the closure adds
  one more outer circle when it is B.

``s3_index`` reads Q_c off the letter counts of the two parities, and
``start_state`` gives x_0 from it.  Each shape of diagram has one
evaluator: ``orient_diagram`` walks ``STEP`` over one general diagram;
one word diagram, closed by ``word_closure``, takes crossing 1 by
``first_crossing``, with its two refusals, and the rest as
``positive_crossings`` does (``metrics_for_word``, ``cobordism.decompose``);
and ``scan`` runs the prefix sum on an (n, c) batch of the letter rows of
words of one T(c), with no loop over the letters, for ``sigtables``.  It
is the one function here that runs numpy, and imports it when it runs, so
a process that orients no batch never loads it.  The two reflections and
the sign rule are checked against ``STATE_AFTER`` and ``STEP`` at import.

The arc graph these rules were read off (one node per strand per cut
line, traced curve by curve, with a union-find for the smoothing) is kept
in ``tests/test_diagram.py`` as the oracle the walk and the scan are
checked against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .words import to_braid, validate_braid

if TYPE_CHECKING:
    import numpy as np

#: strands involved in each crossing letter
CROSSING_PAIR = {"a": (2, 3), "b": (1, 2)}

#: plat closures as (capped pair, through strand), by cap shape: the two
#: right ends, and the left end of every diagram, which is shape A
PLAT_RIGHT = {"A": ((1, 2), 3), "B": ((2, 3), 1)}
PLAT_LEFT = "A"

#: orientation state after one letter, indexed by the state before it
STATE_AFTER = {"a": (0, 1, 3, 2), "b": (0, 2, 1, 3)}
#: the six strand permutations, which ``s3_index`` indexes: a strand's
#: exit position moves as an orientation state does
S3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
#: (sign of the crossing, state after it), indexed by the state before it
STEP = {
    "a": (None, (-1, 1), (1, 3), (1, 2)),
    "b": (None, (-1, 2), (-1, 1), (1, 3)),
}


def _check_reflections() -> None:
    """Raise ValueError unless STATE_AFTER and STEP both move x = state - 1
    across letter k (0 for 'a', 1 for 'b') to the reflection k - x in Z/3,
    and STEP makes the crossing positive exactly when x > k."""
    for k, letter in enumerate("ab"):
        for x in range(3):
            sign, after = STEP[letter][x + 1]
            if not after == STATE_AFTER[letter][x + 1] == (k - x) % 3 + 1:
                raise ValueError(f"letter {letter!r} does not move state {x + 1} "
                                 f"to the reflection {(k - x) % 3 + 1}")
            if (sign == 1) != (x > k):
                raise ValueError(f"letter {letter!r} after state {x + 1} has sign "
                                 f"{sign}, not +1 exactly when {x} > {k}")


_check_reflections()
#: (-1)^j in Z/3 for j = 0, 1: the weights of the prefix sum, repeated
_TURN = (1, 2)
#: S3 index of the strand permutation x -> (-1)^c (x + Q) of a word, by
#: (c mod 2, Q), Q its alternating letter sum in Z/3 (module docstring)
_S3_OF = tuple(tuple(S3.index(tuple((-1) ** parity * (x + q) % 3 + 1 for x in range(3)))
                     for q in range(3)) for parity in (0, 1))


class PlatDiagram:
    """A braid word together with a choice of right plat closure."""

    __slots__ = ("letters", "closure")

    def __init__(self, letters: str, closure: str) -> None:
        validate_braid(letters)
        if not letters:
            raise ValueError("diagram needs at least one crossing")
        if closure not in ("A", "B"):  # see module docstring
            raise ValueError(f"closure must be 'A' or 'B': {closure!r}")
        self.letters, self.closure = letters, closure


class DiagramMetrics:
    """Positive crossings, all-A circles, and the signature they define."""

    __slots__ = ("c_plus", "s_A", "signature")

    def __init__(self, c_plus: int, s_A: int, signature: int) -> None:
        if signature != s_A - c_plus - 1:
            raise ValueError(
                f"signature {signature} != s_A - c_plus - 1 = {s_A - c_plus - 1}")
        self.c_plus, self.s_A, self.signature = c_plus, s_A, signature


def word_closure(c: int) -> str:
    """The right plat closure of every word diagram with c crossings: A at
    odd c and B at even c, matching its last crossing row, as drawn plats do."""
    return "BA"[c % 2]


def diagram_for_word(word: str) -> PlatDiagram:
    """The alternating knot diagram of a word, closed by ``word_closure``."""
    z = to_braid(word)  # validates the word
    return PlatDiagram(z, word_closure(len(z)))


def closure_components(left: tuple[tuple[int, int], int],
                       perm: tuple[int, int, int],
                       right: tuple[tuple[int, int], int]) -> int:
    """Component count (1 or 2) of three strands closed at both ends.

    Endpoints L1..L3 and R1..R3 are joined by the strand permutation (left
    q to right perm[q-1]), one cap on each side, and the around arc
    connecting the two through strands.  ``left`` and ``right`` are
    (capped pair, through strand).
    """
    parent = list(range(6))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    # Endpoint Lq is node q-1 and Rq is node q+2.
    (l1, l2), lthrough = left
    (r1, r2), rthrough = right
    for i, j in ((0, 2 + perm[0]), (1, 2 + perm[1]), (2, 2 + perm[2]),
                 (l1 - 1, l2 - 1), (2 + r1, 2 + r2), (lthrough - 1, 2 + rthrough)):
        parent[find(i)] = find(j)
    n = sum(parent[i] == i for i in range(6))
    # Strands 1 and 2 share the left cap, so at most two components exist.
    if n not in (1, 2):
        raise ValueError(f"closed 3-strand block has {n} components")
    return n


#: components (1 or 2) of three strands closed at both ends, by the (left,
#: right) cap shapes and the S3 index of the strand permutation
COMPONENTS = {(left, right): tuple(closure_components(PLAT_RIGHT[left], perm,
                                                     PLAT_RIGHT[right]) for perm in S3)
              for left in PLAT_RIGHT for right in PLAT_RIGHT}


def start_state(closure: str, index: int) -> int:
    """x = state - 1 on cut 0 of the diagram with this right closure and
    strand permutation, or -1 when it closes to a link."""
    if COMPONENTS[PLAT_LEFT, closure][index] != 1:
        return -1
    perm = S3[index]
    (cap, _) = PLAT_RIGHT[closure]
    # Bottom strand rightward to the right cap (a knot never sends it
    # around), back leftward from the other capped endpoint: the strand
    # arriving there is leftward on cut 0.
    return perm.index(cap[0] + cap[1] - perm[2])


#: x_0 of a word diagram, closed by ``word_closure``, or -1 for a link,
#: by (c mod 2, Q), read flat at 3 (c mod 2) + Q
_START = tuple(start_state(word_closure(parity), _S3_OF[parity][q])
               for parity in (0, 1) for q in range(3))
#: the refusal of a diagram that closes to a link
_LINK = "diagram is a link; cannot orient by one traversal"


def plat_component_count(d: PlatDiagram) -> int:
    """Number of closed curves in the diagram (1 for a knot)."""
    return COMPONENTS[PLAT_LEFT, d.closure][s3_index(d.letters)]


def scan(letters: np.ndarray) -> np.ndarray:
    """Orient a batch of n word diagrams of c crossings each.

    ``letters`` holds the braid letters of words of one T(c), 0 for 'a'
    and 1 for 'b', as an (n, c) int8 array; their closure follows from c.
    Returns the (n, c) bool array, true where the crossing is positive.  A
    row whose state right of crossing 1 is not o1, as it is in every word
    diagram, raises ValueError naming the first such row; that refuses a
    row that closes to a link too.  A single diagram is oriented by
    ``orient_diagram``, or as a word by ``first_crossing``.
    """
    import numpy as np

    n, c = letters.shape
    turn = np.resize(np.int32(_TURN), c + 1)
    # Q_j on cut j, then x_j = (-1)^j (x_0 + Q_j); int32 holds the at most
    # 4c + 4 of the unreduced terms for any c below 5 * 10^8.
    x = np.zeros((n, c + 1), np.int32)
    np.multiply(letters, turn[1:], out=x[:, 1:])
    np.add.accumulate(x, axis=1, out=x)
    x += np.int32(_START).take(x[:, -1:] % 3 + 3 * (c % 2))
    x *= turn
    x %= 3
    # A link's x_0 = -1 is 2 mod 3, which leaves x_1 at 1 or 2 whatever the
    # first letter, so the o1 check refuses links as well.
    first = x[:, 1]
    if first.any():
        row = int(np.flatnonzero(first)[0])
        raise ValueError(f"row {row}: state right of crossing 1 must be o1, "
                         f"got o{first[row] + 1}")
    return x[:, :-1] > letters


def orient_diagram(d: PlatDiagram) -> tuple[list[int], list[int]]:
    """Orient the knot once; return (crossing signs, cut states).

    The orientation starts on the bottom strand entering crossing 1 headed
    right, so the leftmost crossing is oriented "horizontally and to the
    right".  `signs[i-1]` is +1 iff the planar cross product of the over-
    and under-strand directions at crossing i is positive.  `states[j]`
    (j = 0..n) is the strand oriented leftward on cut line j, one ``STEP``
    per letter from the state that ``start_state`` gives cut 0.
    """
    x0 = start_state(d.closure, s3_index(d.letters))
    if x0 < 0:
        raise ValueError(_LINK)
    state = x0 + 1
    signs, states = [], [state]
    for letter in d.letters:
        sign, state = STEP[letter][state]
        signs.append(sign)
        states.append(state)
    return signs, states


def first_crossing(letters: str) -> tuple[int, int]:
    """(sign, state right of it) of crossing 1 of a word diagram, its
    closure read off c, one ``STEP`` from the state that ``start_state``
    gives cut 0.  ValueError if the diagram closes to a link, or if that
    state is not o1, as in every word diagram; the caller has validated
    the letters."""
    x0 = start_state(word_closure(len(letters)), s3_index(letters))
    if x0 < 0:
        raise ValueError(_LINK)
    sign, state = STEP[letters[0]][x0 + 1]
    if state != 1:
        raise ValueError(f"state right of crossing 1 must be o1, got o{state}")
    return sign, state


def positive_crossings(start: int, letters: str) -> tuple[int, int]:
    """(positive crossings, end state) of letters read from orientation
    state ``start``, one ``STEP`` per letter: by the sign rule that
    ``_check_reflections`` checks, a crossing is positive exactly when
    x > k on its left."""
    total, state = 0, start
    for letter in letters:
        sign, state = STEP[letter][state]
        total += sign
    return (len(letters) + total) // 2, state


def s3_index(letters: str) -> int:
    """S3 index of the strand permutation of the letters, which the caller
    has validated: the parity of their length and their alternating sum Q
    (module docstring) fix it."""
    q = (2 * letters[::2].count("b") + letters[1::2].count("b")) % 3
    return _S3_OF[len(letters) % 2][q]


def all_A_circles(a, closure: str):
    """All-A circles from the count of 'a' and the closure (A or B), for
    ints or elementwise for arrays (``all_A_components``)."""
    return a + (closure == "B") + 2 * (a == 0) * (closure == "A")


def all_A_components(d: PlatDiagram) -> int:
    """Circles after replacing every crossing by its A-smoothing.

    At an 'a' crossing the A-smoothing turns strands 2,3 back on both
    sides; at a 'b' crossing it lets strands 1,2 run through.  With k >= 1
    'a's that leaves k - 1 circles between them, one circle through strand
    1, and for closure B one more past the last 'a'; with none, strand 1
    and the closure make two circles under closure A and one under B.
    """
    return all_A_circles(d.letters.count("a"), d.closure)


def metrics_for_word(word: str) -> DiagramMetrics:
    """c_plus, s_A and the signature s_A - c_plus - 1 of a word's knot, by
    one ``STEP`` walk from ``first_crossing``, closed by ``word_closure``."""
    z = to_braid(word)  # validates the word
    sign, state = first_crossing(z)
    c_plus = (sign > 0) + positive_crossings(state, z[1:])[0]
    s_a = all_A_circles(z.count("a"), word_closure(len(z)))
    return DiagramMetrics(c_plus, s_a, s_a - c_plus - 1)


def signature(word: str) -> int:
    """Signature of the 2-bridge knot presented by a word."""
    return metrics_for_word(word).signature
