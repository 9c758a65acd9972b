"""Maximum matching (blossom contraction), Tutte-Berge deficiency witnesses,
and exact vertex cover via kernelized branch and bound.

The Tutte-Berge formula n - 2*nu(G) = max_S o(G - S) - |S| (o = number of odd
components) certifies matching optimality.  One alternating-forest search
with blossom contraction serves both halves: grown from a single exposed
vertex it finds an augmenting path, and grown from every exposed vertex of a
maximum matching its even labels are the Gallai-Edmonds set D, whose outside
neighbourhood A(G) is an optimal witness S.

A search costs what it touches: its labels live in arrays allocated once per
maximum-matching computation, it resets only the vertices it labelled, and a
blossom contraction relabels only the members of the blossoms it merges.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

from .errors import CapabilityError, InputError
from .graph_core import Graph, iter_bits, popcount, vset

DEFAULT_VC_NODE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "EG_MATCHLAB_BUDGET"


def _env_budget(budget: int) -> int:
    """The node budget to use: the environment override when set, else
    ``budget``.  Both must be positive."""
    if budget <= 0:
        raise InputError(f"node budget must be positive (got {budget})")
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return budget
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"bad {BUDGET_ENV_VAR} value: {raw!r}") from exc
    if value <= 0:
        raise InputError(f"{BUDGET_ENV_VAR} must be positive")
    return value


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of the host graph."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class TBWitness:
    """A set S together with the odd-component count of G - S.

    deficiency = odd_count - |S|; for an optimal witness this equals
    n - 2*nu(G).
    """

    s_set: int
    odd_count: int
    deficiency: int


# ---------------------------------------------------------------------------
# maximum matching (blossom contraction; each search pays for what it touches)
# ---------------------------------------------------------------------------

def max_matching(g: Graph) -> Matching:
    """Maximum matching via augmenting-path search with blossom contraction."""
    mate = _maximum_mate(g)
    return Matching(tuple(sorted((u, w) for u, w in enumerate(mate) if w > u)))


def matching_number(g: Graph) -> int:
    return max_matching(g).size


def _maximum_mate(g: Graph) -> list[int]:
    """mate[v] in a maximum matching, -1 where v is exposed: a greedy warm
    start, then one augmenting search from each exposed vertex in turn
    (an isolated vertex has nothing to search)."""
    n = g.n
    adj = g.adj_lists
    match = [-1] * n
    for u in range(n):                      # cheap greedy warm start
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    labels = _fresh_labels(n)
    for root in range(n):
        if match[root] == -1 and adj[root]:
            _alternating_forest([root], adj, match, *labels)
    return match


def _fresh_labels(n: int) -> tuple[list[int], list[int], list[bool]]:
    """Unlabelled ``parent``, ``base`` and ``even`` arrays for a search."""
    return [-1] * n, list(range(n)), [False] * n


def _alternating_forest(roots: list[int], adj: list[list[int]],
                        match: list[int], parent: list[int], base: list[int],
                        even: list[bool]) -> list[int]:
    """Grow alternating trees from the exposed ``roots`` breadth first,
    contracting each odd cycle (blossom) into its base.  When a tree reaches
    an exposed vertex that is not a root, augment ``match`` along that path
    and stop.

    Returns the vertices labelled even: the roots, the mates of odd vertices
    and every vertex of a contracted blossom.  Two trees never meet when
    ``match`` is maximum, so a search from several roots is run only on a
    maximum matching, where it completes the whole forest.

    ``parent``, ``base`` and ``even`` must come unlabelled (see
    ``_fresh_labels``); the search resets the entries it labelled before it
    returns, so one set of arrays serves any number of searches.  A blossom
    contraction visits the members of the merged blossoms in ascending order,
    the order a scan over all vertices would meet them in.
    """
    touched = list(roots)
    members: dict[int, list[int]] = {}      # base -> vertices, for blossoms
    for r in roots:
        even[r] = True
    queue = deque(roots)
    finish = -1
    while queue and finish == -1:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            # an even ``to`` (a root, or the mate of an odd vertex) closes an
            # odd cycle: contract the blossom up to the common base
            if even[to] if match[to] == -1 else parent[match[to]] != -1:
                cur = _lowest_common_base(v, to, base, match, parent)
                marked: set[int] = set()
                _mark_blossom_path(v, cur, to, marked, base, match, parent)
                _mark_blossom_path(to, cur, v, marked, base, match, parent)
                inside = []
                for b in marked:
                    inside += members.pop(b, (b,))
                inside.sort()
                for i in inside:
                    base[i] = cur
                    if not even[i]:
                        even[i] = True
                        queue.append(i)
                if cur not in marked:
                    inside += members.get(cur, (cur,))
                members[cur] = inside
            elif parent[to] == -1:
                parent[to] = v
                touched.append(to)
                if match[to] == -1:
                    finish = to
                    break
                even[match[to]] = True
                touched.append(match[to])
                queue.append(match[to])
    v = finish
    while v != -1:
        pv = parent[v]
        nxt = match[pv]
        match[v] = pv
        match[pv] = v
        v = nxt
    labelled_even = [v for v in touched if even[v]]
    for v in touched:
        parent[v] = -1
        base[v] = v
        even[v] = False
    return labelled_even


def _lowest_common_base(a, b, base, match, parent):
    seen = set()
    a = base[a]
    while True:
        seen.add(a)
        if match[a] == -1:
            break
        a = base[parent[match[a]]]
    b = base[b]
    while b not in seen:
        b = base[parent[match[b]]]
    return b


def _mark_blossom_path(v, b, child, marked, base, match, parent):
    while base[v] != b:
        marked.add(base[v])
        marked.add(base[match[v]])
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


# ---------------------------------------------------------------------------
# Tutte-Berge witness
# ---------------------------------------------------------------------------

def odd_components(g: Graph, s_mask: int) -> int:
    return sum(1 for comp in g.components(s_mask) if popcount(comp) & 1)


def tutte_berge_witness(g: Graph) -> TBWitness:
    """The Gallai-Edmonds barrier S = A(G), a set maximizing
    (odd components of G - S) - |S|.

    One alternating-forest search from every exposed vertex of a maximum
    matching labels even exactly the set D of vertices that some maximum
    matching misses, and A(G) = N(D) \\ D.  Each component of G[D] is odd
    and the rest of G - A(G) is even, so the deficiency is n - 2*nu(G)
    (Edmonds 1965; Lovasz & Plummer, Matching Theory, ch. 3); odd_count is
    counted on G - S, so the witness certifies itself.  A(G) is the same for
    every maximum matching and exact at every n, but it need not be a
    witness with the fewest vertices: on the path 0-1-2 it is {1}, while the
    empty set attains the same deficiency 1.
    """
    adj = g.adj_lists
    mate = _maximum_mate(g)
    d = _alternating_forest([v for v in range(g.n) if mate[v] == -1], adj,
                            mate, *_fresh_labels(g.n))
    in_d = [False] * g.n
    for v in d:
        in_d[v] = True
    s_mask = vset({w for v in d for w in adj[v] if not in_d[w]})
    o = odd_components(g, s_mask)
    return TBWitness(s_mask, o, o - popcount(s_mask))


# ---------------------------------------------------------------------------
# forests / bipartite
# ---------------------------------------------------------------------------

def is_forest(g: Graph) -> bool:
    return g.m == g.n - len(g.components())


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    adj = g.adj_lists
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


# ---------------------------------------------------------------------------
# vertex cover (exact, branch and bound with kernelization)
# ---------------------------------------------------------------------------

def vertex_cover_number(g: Graph, node_budget: int | None = None) -> int:
    """Exact vertex cover number.

    Kernel rules (isolated, degree-1, dominated vertex) run before every
    branch; branching is on a maximum-degree vertex, per component.  Raises
    CapabilityError carrying the best bounds when the node budget runs out.
    """
    budget = _env_budget(DEFAULT_VC_NODE_BUDGET if node_budget is None else node_budget)
    total = 0
    counter = [0]
    for comp in g.components():
        masks = g.induced_adjacency(comp)
        total += _vc_component(masks, (1 << len(masks)) - 1, counter, budget)
    return total


def _vc_component(adj: list[int], alive: int, counter: list[int], budget: int) -> int:
    # greedy upper bound: take both endpoints of a maximal matching
    best = [_vc_greedy(adj, alive)]

    def lower_bound(mask: int) -> int:
        lb = 0
        avail = mask
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail ^= avail & -avail
            nb = adj[v] & avail
            if nb:
                avail &= ~(nb & -nb)
                lb += 1
        return lb

    def rec(mask: int, taken: int) -> None:
        counter[0] += 1
        if counter[0] > budget:
            raise CapabilityError("vertex cover node budget exceeded",
                                  lower=None, upper=best[0])
        mask, taken = _vc_kernel(adj, mask, taken)
        if taken >= best[0]:
            return
        live_edges_vertex = -1
        max_deg = 0
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest ^= rest & -rest
            d = popcount(adj[v] & mask)
            if d > max_deg:
                max_deg = d
                live_edges_vertex = v
        if live_edges_vertex == -1:        # edgeless
            best[0] = min(best[0], taken)
            return
        if taken + lower_bound(mask) >= best[0]:
            return
        v = live_edges_vertex
        nb = adj[v] & mask
        # branch 1: v in the cover
        rec(mask & ~(1 << v), taken + 1)
        # branch 2: all neighbors of v in the cover
        rec(mask & ~nb & ~(1 << v), taken + popcount(nb))

    rec(alive, 0)
    return best[0]


def _vc_kernel(adj: list[int], mask: int, taken: int) -> tuple[int, int]:
    changed = True
    while changed:
        changed = False
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest ^= rest & -rest
            if not (mask >> v & 1):
                continue
            nb = adj[v] & mask
            d = popcount(nb)
            if d == 0:
                mask &= ~(1 << v)
                changed = True
            elif d == 1:
                u = (nb & -nb).bit_length() - 1
                mask &= ~(1 << v) & ~(1 << u)
                taken += 1
                changed = True
        if changed:
            continue
        # dominated vertex: u ~ v with N(v) subset of N[u]  ->  take u
        verts = list(iter_bits(mask))
        for v in verts:
            if not (mask >> v & 1):
                continue
            nv = adj[v] & mask
            for u in iter_bits(nv):
                if nv & ~(adj[u] | (1 << u)) == 0:
                    mask &= ~(1 << u)
                    taken += 1
                    changed = True
                    break
            if changed:
                break
    return mask, taken


def _vc_greedy(adj: list[int], alive: int) -> int:
    size = 0
    mask = alive
    rest = alive
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest ^= rest & -rest
        if not (mask >> v & 1):
            continue
        nb = adj[v] & mask
        if nb:
            u = (nb & -nb).bit_length() - 1
            mask &= ~(1 << v) & ~(1 << u)
            rest &= mask
            size += 2
    return size
