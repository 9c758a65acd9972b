"""Vertex decompositions Pi = (S, A_1..A_d) with odd blocks, their induced
edge sets, canonical forms, and the exact search for the largest subgraph
with a given matching number.

A decomposition's subgraph keeps every edge meeting S plus every edge inside
a block; edges between different blocks are dropped.  Writing r = d - |S|,
any subgraph H with nu(H) = k embeds in a decomposition with r = n - 2k, so
maximizing over decompositions solves the constrained-matching extremal
problem.  The two canonical shapes are:

  form 1: all edges inside a fixed (2k+1)-set W   (S empty, one big block)
  form 2: all edges meeting a fixed k-set T       (S = T, singleton blocks)

A ``Decomposition`` is stored as a vertex-label array (-1 for S, the block
index otherwise).  Its size is the arcs leaving S less the edges inside S,
plus the edges inside A_1 and inside the other non-singleton blocks, each
read through the graph's counts over a vertex set; its edge set is one
label pass over the graph's edge array (``_kept_edges``).  The exact search
below enumerates small graphs with bitmask vertex sets, and reads each
candidate's edges through the same label pass: S gets -1, block i gets i,
and every other vertex a label of its own.  It counts
edges and components on the bitmask adjacency rows (``_within``,
``_components``), the one reader of them in the library.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, InputError
from .graph_core import (BITSET_ADJ_LIMIT, Graph, philox_rng, vset,
                         vset_from_flags, vset_members, vset_of)
from .matching import max_matching, matching_number

DEFAULT_N_EXACT_EXTREMAL = 12
DEFAULT_FORM_ENUM_BUDGET = 200_000
# the 1-swap local search above the enumeration budget makes at most this
# many improving swaps
SWAP_PASSES = 20


# ---------------------------------------------------------------------------
# decomposition type
# ---------------------------------------------------------------------------

class Decomposition:
    """Partition of 0..n-1 into S and odd blocks A_1 >= A_2 >= ... (by size).

    Stored as one vertex-label array ``owner`` (int32, length n): owner[v]
    is -1 for v in S and i for v in the i-th block in canonical order (size
    descending, then smallest vertex), so owner[v] = 0 means v is in A_1.
    ``block_sizes[i]`` is the size of block i.  The constructor takes any
    integer labels (-1 for S, a nonnegative id below 2^63 / n per block)
    and relabels them canonically, so equal partitions have equal
    ``owner`` arrays.
    Instances are immutable; ``s_set`` and ``blocks`` are bitmask views,
    built on each read.

    Derived statistics: s = |S|, d = number of blocks, r = d - s,
    B = union of A_2..A_d, y = |B| - (d - 1) (the excess beyond singletons).
    """

    __slots__ = ("n", "owner", "block_sizes", "s")

    def __init__(self, n: int, owner):
        owner = np.asarray(owner)
        if n <= 0:
            raise InputError("decomposition needs n >= 1")
        if owner.shape != (n,) or owner.dtype.kind not in "iu":
            raise InputError("owner must hold one integer label per vertex")
        if owner.min() < -1:
            raise InputError("labels must be -1 (S) or block ids >= 0")
        if int(owner.max()) >= (1 << 63) // n:
            raise InputError("block ids must lie below 2^63 / n")
        in_blocks = np.flatnonzero(owner >= 0)
        if not in_blocks.size:
            raise InputError("decomposition needs at least one block")
        # the keys label * n + vertex, sorted, group the members by label,
        # each group ascending
        keys = owner[in_blocks].astype(np.int64) * n + in_blocks
        keys.sort()
        labels = keys // n
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(labels[1:], labels[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        sizes = np.diff(starts, append=keys.size)
        if (sizes % 2 == 0).any():
            raise InputError("blocks must have odd size")
        s = n - in_blocks.size
        if starts.size < s:
            raise InputError("r = d - |S| must be nonnegative")
        members = keys - labels * n
        # canonical order: size descending, then smallest member
        order = np.argsort((n - sizes) * n + members[starts])
        rank = np.empty(starts.size, dtype=np.int32)
        rank[order] = np.arange(starts.size, dtype=np.int32)
        canon = np.full(n, -1, dtype=np.int32)
        canon[members] = np.repeat(rank, sizes)
        sizes = sizes[order]
        canon.flags.writeable = False
        sizes.flags.writeable = False
        for name, value in (("n", n), ("owner", canon), ("block_sizes", sizes),
                            ("s", int(s))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Decomposition is immutable")

    def __reduce__(self):           # copy and pickle through the constructor
        return Decomposition, (self.n, self.owner)

    def __eq__(self, other):
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.owner, other.owner)

    def __hash__(self):
        return hash((self.n, self.owner.tobytes()))

    def __repr__(self):
        return (f"Decomposition(n={self.n}, s={self.s}, d={self.d}, "
                f"a1_size={self.a1_size})")

    # -- statistics -----------------------------------------------------------

    @property
    def d(self) -> int:
        return len(self.block_sizes)

    @property
    def r(self) -> int:
        return self.d - self.s

    @property
    def a1_size(self) -> int:
        return int(self.block_sizes[0])

    @property
    def b_size(self) -> int:
        return self.n - self.s - self.a1_size

    @property
    def y(self) -> int:
        return self.b_size - (self.d - 1)

    # -- bitmask views ----------------------------------------------------------

    @property
    def s_set(self) -> int:
        return vset_from_flags(self.owner < 0)

    @property
    def blocks(self) -> tuple[int, ...]:
        # canonical order puts the non-singleton blocks first and the
        # singletons after them, by vertex
        grouped = np.argsort(self.owner, kind="stable")[self.s:]
        big_sizes = self.block_sizes[self.block_sizes > 1].tolist()
        flags = np.zeros(self.n, dtype=bool)
        masks = []
        start = 0
        for size in big_sizes:
            members = grouped[start:start + size]
            flags[members] = True
            masks.append(vset_from_flags(flags))
            flags[members] = False
            start += size
        masks.extend(1 << v for v in grouped[start:].tolist())
        return tuple(masks)

    # -- conversion -------------------------------------------------------------

    def member_lists(self) -> tuple[list[int], list[list[int]]]:
        """(sorted members of S, sorted members of each block in order)."""
        grouped = np.argsort(self.owner, kind="stable").tolist()
        bounds = [0, self.s, *(self.s + np.cumsum(self.block_sizes)).tolist()]
        parts = [grouped[a:b] for a, b in zip(bounds, bounds[1:])]
        return parts[0], parts[1:]

    @classmethod
    def from_lists(cls, n, s_members, block_members) -> "Decomposition":
        """Decomposition from vertex lists; every vertex of 0..n-1 must occur
        exactly once, in S or in one block."""
        if n <= 0:
            raise InputError("decomposition needs n >= 1")
        try:
            flat = list(s_members)
            extend = flat.extend
            # where S and each block end in ``flat``
            ends = [len(flat)]
            ends += [extend(block) or len(flat) for block in block_members]
            flat = np.array(flat)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad decomposition member lists: {exc}") from exc
        if not flat.size:
            flat = flat.astype(np.int64)
        elif flat.dtype.kind not in "iu":
            raise InputError("vertex ids must be integers")
        lens = np.diff(ends, prepend=0)
        if not lens[1:].all():
            raise InputError("blocks must be non-empty")
        if flat.size and (flat.min() < 0 or flat.max() >= n):
            raise InputError(f"vertex ids must lie in 0..{n - 1}")
        counts = np.bincount(flat, minlength=n)
        if (counts > 1).any():
            raise InputError(f"vertex {int(np.argmax(counts > 1))} occurs "
                             "more than once")
        if (counts == 0).any():
            raise InputError("S and the blocks must cover all vertices")
        owner = np.empty(n, dtype=np.int32)
        owner[flat] = np.repeat(np.arange(-1, lens.size - 1, dtype=np.int32),
                                lens)
        return cls(n, owner)

    def to_json_obj(self) -> dict:
        s_members, blocks = self.member_lists()
        return {"S": s_members, "blocks": blocks}

    @classmethod
    def from_json_obj(cls, n: int, obj: dict) -> "Decomposition":
        try:
            return cls.from_lists(n, obj["S"], obj["blocks"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad decomposition object: {exc}") from exc


def _kept_edges(g: Graph, owner: np.ndarray) -> np.ndarray:
    """Boolean mask over ``g.edge_array()`` for a vertex-label array
    (-1 for S, one label per block): the edge meets S or both endpoints
    carry the same block label."""
    if owner.size != g.n:
        raise InputError("decomposition and graph disagree on n")
    edges = g.edge_array()
    lu, lv = owner[edges[:, 0]], owner[edges[:, 1]]
    # labels are signed and >= -1: the OR is negative iff an end is in S
    return (lu == lv) | ((lu | lv) < 0)


def edge_set(g: Graph, pi: Decomposition) -> tuple[tuple[int, int], ...]:
    """Edges of the subgraph induced by ``pi``: meeting S or inside a block."""
    kept = g.edge_array()[_kept_edges(g, pi.owner)]
    return tuple(map(tuple, kept.tolist()))


def decomposition_size(g: Graph, pi: Decomposition) -> int:
    """|Pi| = number of edges meeting S plus edges inside blocks: the arcs
    leaving S less the edges inside S, plus the edges inside A_1 and
    inside the other non-singleton blocks.  Singletons hold no edges."""
    owner = pi.owner
    if owner.size != g.n:
        raise InputError("decomposition and graph disagree on n")
    in_s = owner < 0
    size = (int(g.degrees[in_s].sum()) - g.edges_inside(in_s)
            + g.edges_inside(owner == 0))
    # canonical labels number the non-singleton blocks first
    rest = (owner > 0) & (owner < np.count_nonzero(pi.block_sizes > 1))
    return size + int(g.label_degrees(rest, owner).sum()) // 2


def nu_of_decomposition(g: Graph, pi: Decomposition) -> int:
    """Matching number of the decomposition's subgraph (always <= (n-r)/2)."""
    kept = g.edge_array()[_kept_edges(g, pi.owner)]
    return matching_number(Graph(g.n, kept))


# ---------------------------------------------------------------------------
# canonical-form optimizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormResult:
    witness: int            # vertex-set mask (W for form 1, T for form 2)
    size: int
    exact: bool


def best_form1(g: Graph, k: int) -> FormResult:
    """Best W of size 2k+1 maximizing the edge count inside W."""
    n = g.n
    w_size = 2 * k + 1
    if k < 0 or w_size > n:
        raise InputError(f"form 1 needs 2k+1 <= n (k={k}, n={n})")
    if math.comb(n, w_size) <= DEFAULT_FORM_ENUM_BUDGET:
        best, best_mask = -1, 0
        for combo in itertools.combinations(range(n), w_size):
            mask = vset(combo)
            val = g.edges_within(mask)
            if val > best:
                best, best_mask = val, mask
        return FormResult(best_mask, best, exact=True)
    mask = _grow_dense_set(g, w_size)
    mask, val = _swap_improve(g, mask, g.edges_within)
    return FormResult(mask, val, exact=False)


def best_form2(g: Graph, k: int) -> FormResult:
    """Best T of size k maximizing the number of edges meeting T."""
    n = g.n
    if k < 0 or k > n:
        raise InputError(f"form 2 needs 0 <= k <= n (k={k}, n={n})")
    if k == 0:
        return FormResult(0, 0, exact=True)
    if math.comb(n, k) <= DEFAULT_FORM_ENUM_BUDGET:
        best, best_mask = -1, 0
        for combo in itertools.combinations(range(n), k):
            mask = vset(combo)
            val = g.edges_meeting(mask)
            if val > best:
                best, best_mask = val, mask
        return FormResult(best_mask, best, exact=True)
    # highest degree first, ties to the smallest vertex
    order = np.argsort(-g.degrees, kind="stable")
    mask = vset_of(order[:k], n)
    mask, val = _swap_improve(g, mask, g.edges_meeting)
    return FormResult(mask, val, exact=False)


def _grow_dense_set(g: Graph, size: int) -> int:
    """``size`` vertices picked one at a time, each the first outside
    vertex with the most neighbours among those already picked."""
    inside = np.zeros(g.n, dtype=bool)
    for _ in range(size):
        gain = np.where(inside, -1, g.degrees_into(inside))
        inside[np.argmax(gain)] = True
    return vset_from_flags(inside)


def _swap_improve(g: Graph, mask: int, objective):
    val = objective(mask)
    for _ in range(SWAP_PASSES):
        improved = False
        inside = vset_members(mask)
        outside = [v for v in range(g.n) if not mask >> v & 1]
        for v in inside:
            for u in outside:
                cand = (mask & ~(1 << v)) | (1 << u)
                cval = objective(cand)
                if cval > val:
                    mask, val = cand, cval
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return mask, val


# ---------------------------------------------------------------------------
# exact extremal search
# ---------------------------------------------------------------------------

@dataclass
class ExtremalResult:
    k: int
    size: int
    maximizers: list[tuple[tuple[int, int], ...]] = field(default_factory=list)
    forms: list[dict] = field(default_factory=list)   # aligned with maximizers
    exact: bool = True
    lower_bound_only: bool = False
    heuristic_witnesses: dict = field(default_factory=dict)

    @property
    def maximizer_count(self) -> int:
        return len(self.maximizers)


def extremal(g: Graph, k: int, mode: str = "exact",
             n_exact: int = DEFAULT_N_EXACT_EXTREMAL,
             seed: int = 0) -> ExtremalResult:
    """Largest subgraph of g with matching number exactly k.

    Exact mode enumerates decompositions (S, odd-block family) with
    r = n - 2k, keeps every candidate whose size reaches a guaranteed
    lower bound, and scans candidate values downward until one level
    contains a subgraph of matching number exactly k; that level's
    qualifying edge sets are precisely the maximizers.
    """
    if g.n < 1:
        raise InputError("extremal search needs n >= 1")
    if n_exact < 0:
        raise InputError(f"n_exact must be >= 0 (got {n_exact})")
    nu_g = matching_number(g)
    if k < 0 or k > nu_g:
        raise InputError(f"k={k} outside 0..nu(g)={nu_g}")
    if mode == "exact":
        for name, limit in (("BITSET_ADJ_LIMIT", BITSET_ADJ_LIMIT),
                            ("n_exact", n_exact)):
            if g.n > limit:
                raise CapabilityError(f"exact extremal search limited to n <= "
                                      f"{name} = {limit} (got {g.n})")
        return _extremal_exact(g, k)
    if mode == "heur":
        return _extremal_heuristic(g, k, seed)
    raise InputError(f"unknown mode {mode!r}")


def _within(adj: list[int], mask: int) -> int:
    """Number of edges with both endpoints in ``mask``, on the bitmask
    adjacency rows ``adj``."""
    total = 0
    rest = mask
    while rest:
        low = rest & -rest
        total += (adj[low.bit_length() - 1] & mask).bit_count()
        rest ^= low
    return total // 2


def _components(adj: list[int], alive: int) -> list[int]:
    """Connected components of the graph induced on ``alive``, on the
    bitmask adjacency rows ``adj``: one bitmask per component, ordered by
    smallest member."""
    out = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & alive & ~comp
            comp |= new
            frontier |= new
        out.append(comp)
        alive &= ~comp
    return out


def _extremal_exact(g: Graph, k: int) -> ExtremalResult:
    n = g.n
    full = g.full_mask()
    adj = g.adj_bits
    mm = max_matching(g)
    t_mask = vset(u for u, _ in mm.pairs[:k])

    best_block = _densest_subsets(g)
    ub_gain = _gain_upper_bounds(best_block, n)

    # The cut starts at a size certified achievable with matching number
    # exactly k (all edges meeting one endpoint per matching edge) and rises
    # whenever a larger candidate certifies; for a fixed S every candidate is
    # a subgraph of the keep-components-whole optimum, so matching numbers
    # only drop below it and pruning against certified cuts stays exact.
    state = {"cut": g.m - _within(adj, full & ~t_mask), "certified": -1}

    all_edges = tuple(g.edge_list())
    # value -> the distinct edge tuples reaching it
    buckets: dict[int, set[tuple]] = {}

    def collect(value: int, edges: tuple) -> None:
        buckets.setdefault(value, set()).add(edges)
        if value > state["certified"]:
            if matching_number(Graph(n, edges)) == k:
                state["certified"] = value
                state["cut"] = max(state["cut"], value)

    for s, d, z in _shapes(n, k, range(k + 1)):
        for combo in itertools.combinations(range(n), s):
            s_mask = vset(combo)
            avail = full & ~s_mask
            comps = _components(adj, avail)
            odd = sum(1 for c in comps if c.bit_count() & 1)
            if odd >= d:
                # components can be grouped whole into d odd blocks: the
                # per-S optimum keeps every edge, so it is G itself
                if g.m >= state["cut"]:
                    collect(g.m, all_edges)
                continue
            # each cut of a connected piece adds one piece and at most two
            # odd pieces, so reaching d odd blocks severs at least this many
            loss_lb = max((d - odd + 1) // 2, d - len(comps))
            if g.m - loss_lb < state["cut"]:
                continue
            _enumerate_families(g, avail, z, g.m - _within(adj, avail),
                                state, ub_gain, collect, s_mask)

    for value in sorted(buckets, reverse=True):
        winners = []
        for edges in sorted(buckets[value]):
            if matching_number(Graph(n, edges)) == k:
                winners.append(edges)
        if winners:
            forms = [classify_forms(g, k, e) for e in winners]
            return ExtremalResult(k=k, size=value, maximizers=winners,
                                  forms=forms, exact=True)
    raise AssertionError("extremal search lost its lower-bound candidate")


def _enumerate_families(g, avail, z, base, state, ub_gain, collect, s_mask):
    """All families of disjoint odd blocks (size >= 3) inside ``avail`` with
    total excess sum(|block| - 1) = z; remaining vertices become singletons.

    Blocks are anchored at their minimum vertex and anchors increase, so each
    family is produced exactly once.  Families whose optimistic value falls
    below the current cut are pruned.
    """
    if z == 0:
        if base >= state["cut"]:
            collect(base, _candidate_edges(g, s_mask, ()))
        return
    adj = g.adj_bits
    avail_list = vset_members(avail)

    def rec(start_idx, avail_mask, z_left, blocks, acc):
        if z_left == 0:
            if acc >= state["cut"]:
                collect(acc, _candidate_edges(g, s_mask, blocks))
            return
        if acc + ub_gain[z_left] < state["cut"]:
            return
        for i in range(start_idx, len(avail_list)):
            a = avail_list[i]
            if not avail_mask >> a & 1:
                continue
            higher = [v for v in avail_list[i + 1:] if avail_mask >> v & 1]
            c = 3
            while c - 1 <= z_left and c - 1 <= len(higher):
                for members in itertools.combinations(higher, c - 1):
                    block = (1 << a) | vset(members)
                    w = _within(adj, block)
                    rest_gain = ub_gain[z_left - (c - 1)]
                    if acc + w + rest_gain < state["cut"]:
                        continue
                    blocks.append(block)
                    rec(i + 1, avail_mask & ~block, z_left - (c - 1),
                        blocks, acc + w)
                    blocks.pop()
                c += 2

    rec(0, avail, z, [], base)


def _densest_subsets(g: Graph) -> dict[int, int]:
    """best[c] = max edges inside any c-subset, for odd c >= 3."""
    n = g.n
    adj = g.adj_bits
    best = {}
    for c in range(3, n + 1, 2):
        top = 0
        for combo in itertools.combinations(range(n), c):
            val = _within(adj, vset(combo))
            if val > top:
                top = val
        best[c] = top
    return best


def _gain_upper_bounds(best_block: dict[int, int], n: int) -> list[int]:
    """ub[z] = optimistic total block-edge gain achievable with excess z
    (vertex disjointness relaxed, so this is a valid upper bound)."""
    ub = [0] * (n + 2)
    for z in range(2, n + 2, 2):
        top = 0
        for c in range(3, min(z + 1, n) + 1, 2):
            cand = best_block.get(c, 0) + ub[z - (c - 1)]
            if cand > top:
                top = cand
        ub[z] = top
    return ub


def _candidate_edges(g: Graph, s_mask: int, family) -> tuple:
    """Edges of the candidate (S, family) through the label pass: S gets -1,
    block i gets i, every other vertex a label of its own."""
    labels = np.arange(g.n, 2 * g.n)
    for i, block in enumerate(family):
        labels[vset_members(block)] = i
    labels[vset_members(s_mask)] = -1
    return tuple(map(tuple, g.edge_array()[_kept_edges(g, labels)].tolist()))


def _shapes(n: int, k: int, sizes):
    """(s, d, z) for each |S| = s of ``sizes``, in order, that admits a
    decomposition with r = n - 2k: d blocks of total excess z."""
    for s in sizes:
        d, z = n - 2 * k + s, 2 * (k - s)
        if 1 <= d <= n - s and not (z and z + 1 > n - s):
            yield s, d, z


def _extremal_heuristic(g: Graph, k: int, seed: int) -> ExtremalResult:
    from . import moves  # local import: moves depends on this module

    rng = philox_rng(seed)
    candidates = []
    if 2 * k + 1 <= g.n:
        f1 = best_form1(g, k)
        candidates.append(("form1", f1.witness, f1.size))
    f2 = best_form2(g, k)
    candidates.append(("form2", f2.witness, f2.size))

    best_label, best_witness, best_size = max(candidates, key=lambda c: c[2])

    # a couple of move-improved random starts can only raise the lower bound
    for _ in range(3):
        pi = _random_decomposition(g.n, k, rng)
        if pi is None:
            break
        result = moves.improve(g, pi, max_steps=50, seed=int(rng.integers(1 << 62)))
        final_size = decomposition_size(g, result.final)
        if final_size > best_size and nu_of_decomposition(g, result.final) == k:
            best_label, best_witness, best_size = "moves", 0, final_size
    return ExtremalResult(
        k=k, size=best_size, maximizers=[], forms=[], exact=False,
        lower_bound_only=True,
        heuristic_witnesses={"source": best_label,
                             "witness": vset_members(best_witness)})


def _random_decomposition(n: int, k: int, rng):
    """A random valid decomposition with r = n - 2k, or None if infeasible."""
    for s, _, z in _shapes(n, k, rng.permutation(k + 1).tolist()):
        perm = rng.permutation(n).tolist()
        s_members, rest = perm[:s], perm[s:]
        blocks = []
        i = 0
        z_left = z
        while z_left > 0:
            remaining = len(rest) - i
            sizes = [c for c in (3, 5, z_left + 1)
                     if c <= z_left + 1 and
                     (z_left - (c - 1) == 0 or remaining - c >= z_left - (c - 1) + 1)]
            size = int(sizes[rng.integers(len(sizes))])
            blocks.append(rest[i:i + size])
            i += size
            z_left -= size - 1
        blocks.extend([v] for v in rest[i:])
        return Decomposition.from_lists(n, s_members, blocks)
    return None


# ---------------------------------------------------------------------------
# form classification and EG verdicts
# ---------------------------------------------------------------------------

def classify_forms(g: Graph, k: int, edges: tuple) -> dict:
    """All witnesses under which ``edges`` is form 1 and/or form 2."""
    n = g.n
    adj = g.adj_bits
    full = g.full_mask()
    m_h = len(edges)
    support = 0
    for u, v in edges:
        support |= (1 << u) | (1 << v)
    form1 = []
    w_size = 2 * k + 1
    if w_size <= n and support.bit_count() <= w_size:
        # the (2k+1)-sets holding the support, in the order of all
        # (2k+1)-sets: two of them first differ outside the support
        outside = [v for v in range(n) if not support >> v & 1]
        for extra in itertools.combinations(outside,
                                            w_size - support.bit_count()):
            mask = support | vset(extra)
            if _within(adj, mask) == m_h:
                form1.append(mask)
    form2 = []
    if k <= n:
        hset = set(edges)
        for combo in itertools.combinations(range(n), k):
            mask = vset(combo)
            if any(not (mask >> u & 1 or mask >> v & 1) for u, v in hset):
                continue
            if g.m - _within(adj, full & ~mask) == m_h:
                form2.append(mask)
    return {"form1": form1, "form2": form2,
            "canonical": bool(form1 or form2)}


@dataclass
class EgCheckResult:
    k: int
    verdict: str                       # "holds" | "fails"
    size: int
    maximizer_count: int
    forms: list[dict]
    counterexample: tuple | None


def eg_check(g: Graph, k: int,
             n_exact: int = DEFAULT_N_EXACT_EXTREMAL) -> EgCheckResult:
    """Does every maximizer at this k have one of the two canonical forms?"""
    res = extremal(g, k, mode="exact", n_exact=n_exact)
    counterexample = None
    for edges, forms in zip(res.maximizers, res.forms):
        if not forms["canonical"]:
            counterexample = edges
            break
    verdict = "holds" if counterexample is None else "fails"
    return EgCheckResult(k=k, verdict=verdict, size=res.size,
                         maximizer_count=res.maximizer_count,
                         forms=res.forms, counterexample=counterexample)


def eg_check_all(g: Graph,
                 n_exact: int = DEFAULT_N_EXACT_EXTREMAL) -> dict[int, EgCheckResult]:
    return {k: eg_check(g, k, n_exact=n_exact)
            for k in range(matching_number(g) + 1)}
