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
closure B otherwise.

Traczyk's formula sigma = s_A - c_plus - 1 needs three things, and each
comes from the braid letters in O(c) integer steps, with no graph:

* Knot or link.  The strand permutation plus the six cut endpoints (two
  caps and the around arc) form a 6-node graph; ``closure_components``
  counts its components once per case at import, into ``COMPONENTS``,
  which the diagram and the summand blocks in ``cobordism`` read.
* Crossing signs.  Exactly one strand runs leftward on each cut line of a
  knot diagram (the around arc always runs leftward outside it).  This
  *orientation state* moves across a crossing by the crossing's
  transposition, and the crossing's sign depends only on its letter and
  the state on its left: 'a' is positive unless strand 1 is leftward,
  'b' only when strand 3 is.  The state at cut 0 comes from walking the
  closure once.
* All-A circles.  The A-smoothing turns strands 2,3 back at every 'a' and
  lets everything run through at 'b', so strand 1 runs straight across.
  Each gap between consecutive 'a's closes one circle, and the closure
  adds one more outer circle when it is B.

The arc graph these rules were read off (one node per strand per cut
line, traced curve by curve, with a union-find for the smoothing) is kept
in ``tests/test_diagram.py`` as the oracle the scan is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import to_braid, validate_braid

#: strands involved in each crossing letter
CROSSING_PAIR = {"a": (2, 3), "b": (1, 2)}

#: plat closures as (capped pair, through strand), by cap shape: the two
#: right ends, and the left end of every diagram, which is shape A
PLAT_RIGHT = {"A": ((1, 2), 3), "B": ((2, 3), 1)}
PLAT_LEFT = "A"

#: orientation state after one letter, indexed by the state before it
STATE_AFTER = {"a": (0, 1, 3, 2), "b": (0, 2, 1, 3)}
#: the six strand permutations, and the index of each one followed by a
#: letter: a strand's exit position moves as an orientation state does
S3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))
S3_AFTER = {
    letter: tuple(S3.index(tuple(step[q] for q in p)) for p in S3)
    for letter, step in STATE_AFTER.items()
}
#: (sign of the crossing, state after it), indexed by the state before it
STEP = {
    "a": (None, (-1, 1), (1, 3), (1, 2)),
    "b": (None, (-1, 2), (-1, 1), (1, 3)),
}


@dataclass(frozen=True)
class PlatDiagram:
    """A braid word together with a choice of right plat closure."""

    letters: str
    closure: str  # "A" or "B", see module docstring

    def __post_init__(self) -> None:
        validate_braid(self.letters)
        if not self.letters:
            raise ValueError("diagram needs at least one crossing")
        if self.closure not in ("A", "B"):
            raise ValueError(f"closure must be 'A' or 'B': {self.closure!r}")


@dataclass(frozen=True)
class DiagramMetrics:
    """Positive crossings, all-A circles, and the signature they define."""

    c_plus: int
    s_A: int
    signature: int

    def __post_init__(self) -> None:
        if self.signature != self.s_A - self.c_plus - 1:
            raise ValueError(
                f"signature {self.signature} != s_A - c_plus - 1 = "
                f"{self.s_A - self.c_plus - 1}")


def diagram_for_word(word: str) -> PlatDiagram:
    """The alternating knot diagram of a word."""
    return _braid_diagram(to_braid(word))  # validates the word


def _braid_diagram(z: str) -> PlatDiagram:
    """The diagram of a word's braid word z: closure matches the last
    crossing row, which is what the drawn plat closures do."""
    return PlatDiagram(z, "A" if z[-1:] == "a" else "B")


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


def plat_component_count(d: PlatDiagram) -> int:
    """Number of closed curves in the diagram (1 for a knot)."""
    return COMPONENTS[PLAT_LEFT, d.closure][s3_index(d.letters)]


def orient_diagram(d: PlatDiagram) -> tuple[list[int], list[int]]:
    """Orient the knot once; return (crossing signs, cut states).

    The orientation starts on the bottom strand entering crossing 1 headed
    right, so the leftmost crossing is oriented "horizontally and to the
    right".  `signs[i-1]` is +1 iff the planar cross product of the over-
    and under-strand directions at crossing i is positive.  `states[j]`
    (j = 0..n) is the strand oriented leftward on cut line j.
    """
    index = s3_index(d.letters)  # d.letters was validated with d
    if COMPONENTS[PLAT_LEFT, d.closure][index] != 1:
        raise ValueError("diagram is a link; cannot orient by one traversal")
    perm = S3[index]
    (cap, _) = PLAT_RIGHT[d.closure]
    # Bottom strand rightward to the right cap (a knot never sends it
    # around), back leftward from the other capped endpoint: the strand
    # arriving there is leftward on cut 0.
    state = perm.index(cap[0] + cap[1] - perm[2]) + 1
    signs = []
    states = [state]
    for letter in d.letters:
        sign, state = STEP[letter][state]
        signs.append(sign)
        states.append(state)
    return signs, states


def s3_index(letters: str, index: int = 0) -> int:
    """S3 index of the strand permutation of ``index`` followed by the
    letters, which the caller has validated."""
    for letter in letters:
        index = S3_AFTER[letter][index]
    return index


def orientation_after(state: int, z: str) -> int:
    """Push an orientation state through a braid word: 'a' transposes
    strands 2,3 and 'b' transposes 1,2."""
    if state not in (1, 2, 3):
        raise ValueError(f"orientation state must be 1, 2 or 3: {state!r}")
    return strand_permutation(z)[state - 1]


def strand_permutation(z: str) -> tuple[int, int, int]:
    """Exit position on the right of the strand entering at each left
    position: component q of the tuple is orientation_after(q, z)."""
    validate_braid(z)
    return S3[s3_index(z)]


def all_A_components(d: PlatDiagram) -> int:
    """Circles after replacing every crossing by its A-smoothing.

    At an 'a' crossing the A-smoothing turns strands 2,3 back on both
    sides; at a 'b' crossing it lets strands 1,2 run through.  With k >= 1
    'a's that leaves k - 1 circles between them, one circle through strand
    1, and for closure B one more past the last 'a'.
    """
    k = d.letters.count("a")
    if k == 0:
        return 2 if d.closure == "A" else 1
    return k + (1 if d.closure == "B" else 0)


def metrics_for_word(word: str) -> DiagramMetrics:
    """c_plus, s_A and the signature s_A - c_plus - 1 of a word's knot."""
    return metrics_for_braid(to_braid(word))  # validates the word


def metrics_for_braid(z: str) -> DiagramMetrics:
    """``metrics_for_word`` of the word whose braid word is z, for callers
    that hold the braid word of a validated word already."""
    d = _braid_diagram(z)
    signs, states = orient_diagram(d)
    if states[1] != 1:
        raise ValueError(f"state right of crossing 1 must be o1, got o{states[1]}")
    c_plus = signs.count(1)
    s_a = all_A_components(d)
    return DiagramMetrics(c_plus, s_a, s_a - c_plus - 1)


def signature(word: str) -> int:
    """Signature of the 2-bridge knot presented by a word."""
    return metrics_for_word(word).signature
