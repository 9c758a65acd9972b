"""Improvement moves on decompositions.

A decomposition that is not of canonical form 1 / form 2 falls into exactly
one of seven cases, determined by the size of its largest block A_1, the
excess y, |B| (vertices outside S and A_1), and |S|.  The cutoffs between
the cases are a function of n alone (``CaseThresholds(n)``), and each
move records them in its report.  Each case has a transformation producing
a new decomposition with the same r = d - |S| (hence the same
matching-number budget) that, on graphs with the expected edge-density
behavior, is strictly larger.  Where a choice is left open, we
pick the variant that maximizes the chance of improvement at finite n and
record it in the report.

Moves work on the decomposition's vertex-label array: each move returns a
relabelled copy of the array with the vertices it moved.  One ``_apply``
builds the new decomposition and its report, and sizes only the new
decomposition: the caller already holds the old size.  The degree
statistics the moves rank by come from the graph's counts over a vertex
set, which read the arcs of the set or of its complement, whichever has
fewer, off the graph's incidence index.  Degrees into a vertex set (A_1
for cases 5-7, the blocks for case 2) come from ``Graph.degrees_into``,
always on the index.  In-block degrees come from
``Graph.label_degrees``, only for the blocks a move ranks (the excess
blocks for cases 1 and 4, the blocks of size >= 3 for case 2), from the
arcs leaving their members, or from one pass over the edge array when
those arcs number more than m / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition, decomposition_size
from .errors import InputError, MoveError
from .graph_core import Graph, philox_rng, vset_of


# the rational cutoffs, compared multiplied out by their denominators
FRAC_DEN = 2000                     # |A_1| and y vs n / 2000
RATIO_NUM, RATIO_DEN = 399, 100     # |A_1| vs (399/100) * |B|
Y_DEN = 10_000                      # y vs 1e-4 * n = n / 10000


@dataclass(frozen=True)
class CaseThresholds:
    """Cutoffs separating the seven cases, all functions of n (natural log)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InputError("case thresholds need n >= 2")

    @property
    def frac_small(self) -> float:
        return self.n / float(FRAC_DEN)

    @property
    def y_small(self) -> float:
        # (1.0 / 10000) rounds to the same double as 1e-4, so this is 1e-4 * n
        return (1.0 / Y_DEN) * self.n

    @property
    def log_half(self) -> float:
        """sqrt(ln n)."""
        return math.sqrt(math.log(self.n))

    @property
    def s_cut(self) -> float:
        """n / sqrt(ln n)."""
        return self.n / self.log_half

    def as_dict(self) -> dict:
        return {"n": self.n, "frac_small": self.frac_small,
                "ratio": RATIO_NUM / RATIO_DEN,
                "y_small": self.y_small, "log_half": self.log_half,
                "s_cut": self.s_cut}


@dataclass
class MoveReport:
    case_id: int
    pi_before: Decomposition
    pi_after: Decomposition
    size_before: int
    size_after: int
    moved_set: int
    thresholds: CaseThresholds
    accepted: bool = True

    @property
    def delta(self) -> int:
        return self.size_after - self.size_before


@dataclass
class ImproveResult:
    final: Decomposition
    trace: list[MoveReport]
    reason: str   # "canonical" | "no_improvement" | "max_steps" | "blocked"
    start_size: int
    final_size: int


def is_canonical(pi: Decomposition) -> bool:
    """Form 1 (S empty, all excess in A_1) or form 2 (all blocks singleton)."""
    if pi.a1_size == 1:
        return True
    return pi.s == 0 and pi.y == 0


def classify_case(g: Graph, pi: Decomposition) -> int:
    """The unique case 1..7 whose guard matches a non-canonical decomposition.

    Integer-exact comparisons are used for the rational cutoffs (n/2000,
    399/100, 1e-4 n), multiplied out by their denominators; at the 6/7
    boundary (s exactly n/sqrt(ln n)) the lower-numbered case wins.
    """
    if is_canonical(pi):
        raise MoveError("decomposition is already canonical")
    th = CaseThresholds(pi.n)
    n = pi.n
    a1, y, s, b = pi.a1_size, pi.y, pi.s, pi.b_size
    if FRAC_DEN * a1 < n:
        return 1 if FRAC_DEN * y >= n else 2
    if RATIO_DEN * a1 <= RATIO_NUM * b:
        return 3
    if Y_DEN * y >= n:
        return 4
    if y > 0:
        return 5
    if s > th.s_cut or b < th.log_half:
        return 6
    if b >= th.log_half and s < th.s_cut:
        return 7
    return 6             # s == s_cut exactly: lower case wins


def _in_block_degrees(g: Graph, pi: Decomposition,
                      members: np.ndarray) -> np.ndarray:
    """For every vertex of ``members``, a union of whole blocks, its number
    of neighbours in its own block; 0 for every other vertex."""
    flags = np.zeros(g.n, dtype=bool)
    flags[members] = True
    return g.label_degrees(flags, pi.owner)


def _block_size_of(pi: Decomposition) -> np.ndarray:
    """For every vertex, the size of its block (0 for vertices of S)."""
    return np.where(pi.owner >= 0, pi.block_sizes[pi.owner], 0)


def _rank_in_blocks(owner: np.ndarray, vertices: np.ndarray,
                    keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``vertices`` sorted by (block label, key, vertex), and the positions
    where each block's run starts: ``ranked[starts]`` holds every block's
    vertex of smallest key, ties going to the smallest vertex."""
    ranked = vertices[np.lexsort((vertices, keys[vertices], owner[vertices]))]
    labels = owner[ranked]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = labels[1:] != labels[:-1]
    return ranked, np.flatnonzero(first)


# ---------------------------------------------------------------------------
# cases 1, 4 and 5: fold the excess of B into A_1
# ---------------------------------------------------------------------------

def _excess(pi: Decomposition) -> np.ndarray:
    """The members of the non-singleton blocks after A_1."""
    return np.flatnonzero((pi.owner > 0) & (_block_size_of(pi) > 1))


def _fold_into_a1(pi: Decomposition, excess: np.ndarray,
                  keep_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every non-singleton block after A_1 (``excess`` holds their members)
    keeps the member with the smallest ``keep_key`` as a singleton; the
    rest join A_1.  New singletons get labels d + v, distinct from every
    existing label."""
    owner = pi.owner
    ranked, starts = _rank_in_blocks(owner, excess, keep_key)
    keep = ranked[starts]
    new = owner.copy()
    new[excess] = 0
    new[keep] = pi.d + keep
    return new, np.setdiff1d(excess, keep, assume_unique=True)


def _merge_excess(g: Graph, pi: Decomposition, case_id: int, rng):
    """Cases 1 and 4: keep the cheapest representative, the member with the
    fewest neighbours in its block."""
    excess = _excess(pi)
    return _fold_into_a1(pi, excess, _in_block_degrees(g, pi, excess))


def _merge_excess_by_a1(g: Graph, pi: Decomposition, case_id: int, rng):
    """Case 5: keep the member least connected to A_1."""
    return _fold_into_a1(pi, _excess(pi), g.degrees_into(pi.owner == 0))


# ---------------------------------------------------------------------------
# case 2: promote a well-connected singleton into S
# ---------------------------------------------------------------------------

def _promote_singleton(g: Graph, pi: Decomposition, case_id: int, rng):
    owner = pi.owner
    size_of = _block_size_of(pi)
    singles = np.flatnonzero(size_of == 1)
    bigs = np.flatnonzero(size_of >= 3)
    if not singles.size:
        raise MoveError("case 2 needs a singleton block")
    if not bigs.size:
        raise MoveError("case 2 needs a non-singleton block")

    # x: singleton with the most neighbours among the blocks (smallest
    # vertex on ties)
    x = singles[np.argmax(g.degrees_into(owner >= 0)[singles])]

    # (v1, v2): the two members of lowest in-block degree (then smallest
    # vertex) of the block minimizing their degree sum, ties going to the
    # block with the smallest vertex
    deg = _in_block_degrees(g, pi, bigs)
    ranked, starts = _rank_in_blocks(owner, bigs, deg)
    cost = deg[ranked[starts]] + deg[ranked[starts + 1]]
    lowest = np.minimum.reduceat(ranked, starts)
    j = starts[np.lexsort((lowest, cost))[0]]
    v1, v2 = ranked[j], ranked[j + 1]

    new = owner.copy()
    new[x] = -1
    new[v1] = pi.d + v1
    new[v2] = pi.d + v2
    return new, np.array([x, v1, v2])


# ---------------------------------------------------------------------------
# case 3: split A_1, half into S, half into singletons
# ---------------------------------------------------------------------------

def _split_a1(g: Graph, pi: Decomposition, case_id: int, rng):
    if rng is None:
        rng = philox_rng(0)
    members = np.flatnonzero(pi.owner == 0)
    half = members.size // 2
    a11 = members[rng.permutation(members.size)[:half]]
    new = pi.owner.copy()
    new[members] = pi.d + members
    new[a11] = -1
    return new, a11


# ---------------------------------------------------------------------------
# cases 6 and 7: dissolve S into A_1 (with an M from B to fix parity)
# ---------------------------------------------------------------------------

def _absorb_s(g: Graph, pi: Decomposition, case_id: int, rng):
    owner = pi.owner
    b = np.flatnonzero(owner > 0)
    if pi.s > b.size:
        raise MoveError(f"case {case_id} needs |S| <= |B| "
                        f"(s={pi.s}, |B|={b.size})")
    # M: the |S| vertices of B with the most neighbours in A_1, ties going
    # to the smallest vertex
    deg_a1 = g.degrees_into(owner == 0)
    m = b[np.lexsort((b, -deg_a1[b]))[:pi.s]]
    new = owner.copy()
    new[b] = pi.d + b
    new[owner < 0] = 0
    new[m] = 0
    return new, m


# each move returns the new vertex labels and the vertices it moved
_MOVES = {1: _merge_excess, 2: _promote_singleton, 3: _split_a1,
          4: _merge_excess, 5: _merge_excess_by_a1, 6: _absorb_s,
          7: _absorb_s}


def apply_case(g: Graph, pi: Decomposition, case_id: int,
               rng=None) -> MoveReport:
    """The case-``case_id`` move on ``pi``.  Raises MoveError when ``pi`` is
    canonical, lies in another case, or cannot take the move.  ``rng``
    draws the half of A_1 that case 3 moves into S (a Philox generator
    with key 0 when None); the other moves are deterministic."""
    if case_id not in _MOVES:
        raise InputError(f"unknown case id {case_id}")
    actual = classify_case(g, pi)
    if actual != case_id:
        raise MoveError(f"case {case_id} move applied to a case {actual} "
                        "decomposition")
    return _apply(g, pi, case_id, rng, decomposition_size(g, pi))


def _apply(g: Graph, pi: Decomposition, case_id: int, rng,
           size_before: int) -> MoveReport:
    """The case-``case_id`` move on ``pi``, whose size is ``size_before``;
    only the new decomposition is sized."""
    owner, moved = _MOVES[case_id](g, pi, case_id, rng)
    pi2 = Decomposition(pi.n, owner)
    return MoveReport(case_id, pi, pi2, size_before,
                      decomposition_size(g, pi2), vset_of(moved, pi.n),
                      CaseThresholds(pi.n))


# ---------------------------------------------------------------------------
# improvement loop
# ---------------------------------------------------------------------------

def improve(g: Graph, pi: Decomposition, max_steps: int = 100,
            seed: int = 0) -> ImproveResult:
    """Classify and apply moves until a canonical form is reached, a move
    fails to increase size (rejected, loop stops), or max_steps runs out.

    r is invariant across the whole trace; size never decreases across
    accepted steps.
    """
    if max_steps < 0:
        raise InputError(f"max_steps must be >= 0 (got {max_steps})")
    rng = philox_rng(seed)
    trace: list[MoveReport] = []
    start_size = decomposition_size(g, pi)
    cur = pi
    cur_size = start_size
    reason = "max_steps"
    for _ in range(max_steps):
        if is_canonical(cur):
            reason = "canonical"
            break
        case_id = classify_case(g, cur)
        try:
            report = _apply(g, cur, case_id, rng, cur_size)
        except MoveError:
            # structurally impossible move (e.g. |S| = |B| + 1 at r = 0):
            # stop with a flag rather than raising
            reason = "blocked"
            break
        if report.size_after <= report.size_before:
            report.accepted = False
            trace.append(report)
            reason = "no_improvement"
            break
        trace.append(report)
        cur = report.pi_after
        cur_size = report.size_after
    else:
        if is_canonical(cur):
            reason = "canonical"
    return ImproveResult(final=cur, trace=trace, reason=reason,
                         start_size=start_size, final_size=cur_size)
