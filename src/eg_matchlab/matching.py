"""Maximum matching (blossom contraction), Tutte-Berge deficiency witnesses,
the Konig-Egervary test tau = nu, and exact vertex cover.

The Tutte-Berge formula n - 2*nu(G) = max_S o(G - S) - |S| (o = number of odd
components) certifies matching optimality.  One alternating-forest search
with blossom contraction serves both halves: grown from a single exposed
vertex it finds an augmenting path, and grown from every exposed vertex of a
maximum matching its even labels are the Gallai-Edmonds set D, whose outside
neighbourhood A(G) is an optimal witness S.

The maximum matching starts with one Karp-Sipser leaf-removal pass: a
vertex of degree 1 is matched to its one live neighbour and both leave, a
vertex of degree 0 leaves exposed, t pairs in all, until every vertex left,
the core, has degree 2 or more.  The core is the same whatever the order
of the removals (Karp & Sipser 1981; Bauer & Golinelli 2001), and the leaf
rule is exact for tau, nu and the LP relaxation alike: each of them is 1
more on G than on G - u - v when v is a leaf at u.  So nu(G) = t +
nu(core), and the warm start, a first-fit maximal matching, and the
augmenting searches run on the core alone, over its own adjacency lists:
no pair crosses the core boundary, and the matching on the core is a
maximum matching of it.

A search costs what it touches: its labels live in arrays allocated once per
maximum-matching computation, and only when a search runs; it resets only
the vertices it labelled; and the bases of nested blossoms are kept in a
disjoint-set forest (Gabow & Tarjan 1985), so a blossom contraction
relabels no member of the blossoms it merges and visits only the two
blossom paths.  Each per-graph pass pays for the edges and the
non-isolated vertices (the support, ``Graph.support``), not for n: leaf
removal and the Tutte-Berge forest range over the support, the warm start
and the augmenting roots over its core, and an isolated vertex, which no
matching covers, is never visited.

Every vertex cover has at least nu vertices.  One of exactly nu vertices
exists iff a 2-SAT formula over the matching edges is satisfiable, which
one strongly-connected-components pass decides in O(n + m) (Deming 1979).
The pass runs on the core that the matching left, over the cached
matching: tau_c - nu_c is the same on a component and on its core, since
each leaf step is exact for both, and a component fails iff a piece of its
core does; a tree peels away entirely, so a forest takes no pass.  A
failing component leaves branch and bound, with a root bound of nu_c + 1
next to the half-integral LP bound (Nemhauser & Trotter 1975).  The
greedy upper bound is read off the lists; the rows, the root LP and the
search see only what is left of the component's core once it is folded
at degree 2 (see ``_cover_parts``).
One search serves the exact tau and the decision tau <= k behind the
empty half-set.

The fold runs once per failing component, at the root, to a fixpoint
(Chen, Kanj & Jia 2001): a vertex of degree 1 gives its neighbour to the
cover, one of degree 2 on a triangle its two neighbours, and one of degree
2 whose neighbours u and w are not adjacent is merged with them into one
vertex with the neighbourhood N(u) | N(w) - {v}, one vertex counted.  Each
rule is exact for tau, so tau_c is the t vertices taken by leaf removal
and the fold plus tau of what is left, where every vertex has degree 3 or
more; and the LP falls by at most what a rule counts, so t + ceil(LP) of
what is left is a root bound at least as high as the core's.  The cores of
G(n, c/n) just past c = e are mostly vertices of degree 2, and many fold
to nothing.  The fold changes the rows, so the search tree is the one on
the folded rows, not the whole component's; folding below the root would
need rows that change along a dive, and is not done.

A search node costs what changed since its parent, at the width of the
folded rows.  The search runs depth first from an explicit stack, so a
dive is as deep as it needs to be, and a child starts from its parent's
kernel fixpoint (degrees and the vertices known to have no dominating
neighbour) and its parent's LP matching.  The root LP is seeded from the
cached maximum matching, carried through the fold: a pair loses a vertex
that leaves, and a fold hands w's mate to u when u is free.  So the LP
starts near its maximum and has few augmenting searches left, each as wide
as the folded rows.  Each component's search root starts from the LP
matching of that bound.  A node's LP stops as soon as it proves the node
pruned, and a child that its parent's bound already prunes is counted and
dropped before its kernel.  The dominated-vertex rule looks only at the
vertices on a triangle of the root's rows: it runs once every live vertex
has degree 2 or more, and then a v with N(v) inside N[u] has a second
neighbour, which u sees too, so v lies on a triangle; deleting vertices
never makes one.  A node reduces, bounds and branches as one computed
afresh would, so none of this changes the search tree on the given rows or
its node count (see ``_vc_search``).

Each graph gets one maximum matching, kept with its size nu, its core and
the core's adjacency, and one Konig-Egervary split, both computed on first
use and cached on the Graph, read-only.  The exact tau is
cached with the number of nodes its search took, and answers the decision
tau <= k whenever that number fits the decision's node budget (see
``_cover_at_most``).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError
from .graph_core import Graph, vset, vset_from_flags, vset_of

DEFAULT_VC_NODE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "EG_MATCHLAB_BUDGET"


def _env_budget(budget: int | None) -> int:
    """The node budget to use: the environment override when set, else
    ``budget``, else DEFAULT_VC_NODE_BUDGET.  Both must be positive."""
    if budget is None:
        budget = DEFAULT_VC_NODE_BUDGET
    elif budget <= 0:
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
    """Maximum matching: Karp-Sipser leaf removal, then augmenting-path
    search with blossom contraction on the core it leaves."""
    mate = _cached_mate(g)
    return Matching(tuple((u, mate[u]) for u in g.support if mate[u] > u))


def matching_number(g: Graph) -> int:
    return _cached_matching(g)[1]


def _cached_mate(g: Graph) -> tuple[int, ...]:
    """The mate array of ``_maximum_mate``, computed once per graph and
    cached on it as a tuple, so that no caller can change it."""
    return _cached_matching(g)[0]


def _cached_matching(g: Graph) -> tuple:
    """(mate, nu, core, core adjacency) of ``_maximum_mate``, computed once
    per graph and cached on it, read-only."""
    if g._mate is None:
        mate, *rest = _maximum_mate(g)
        g._mate = (tuple(mate), *rest)
    return g._mate


def _maximum_mate(g: Graph) -> tuple[list[int], int, list[int], list]:
    """(mate, nu, core, core adjacency): mate[v] in a maximum matching, -1
    where v is exposed, its size nu, and the Karp-Sipser core of the
    support with the core's own adjacency lists.

    One leaf-removal pass over the support matches each vertex of degree 1
    to its one live neighbour, t pairs in all, and drops each vertex of
    degree 0 (see ``_leaf_core``).  This is exact, nu(G) = t + nu(core)
    (Karp & Sipser 1981), so the rest runs on the core alone: a first-fit
    warm start, then one augmenting search from each exposed core vertex
    in ascending order.  Both read the core's adjacency, so no pair
    crosses the core boundary.  When leaf removal removes nothing, that
    adjacency is ``g.adj_lists`` itself, no copy, and the pairs are those
    of first fit and the searches on the whole support; when it removes
    everything, no core vertex reads it, and it is ``g.adj_lists`` too.
    The search labels are allocated only when a search runs: a forest, or
    a core that first fit matches perfectly, allocates none."""
    adj = g.adj_lists
    support = g.support
    match = [-1] * g.n
    core, t = _leaf_core(adj, support, match) if support else ([], 0)
    core_adj = _core_lists(adj, core) if 0 < len(core) < len(support) else adj
    _first_fit(core_adj, core, match)       # cheap greedy warm start
    labels = None
    exposed = 0
    for root in core:
        if match[root] == -1:
            if labels is None:
                labels = _fresh_labels(g.n)
            _alternating_forest([root], core_adj, match, *labels)
            exposed += match[root] == -1    # a failed root stays exposed
    return match, t + (len(core) - exposed) // 2, core, core_adj


def _core_lists(adj: list[list[int]], core: list[int]) -> list:
    """The adjacency lists of the subgraph on the ascending list ``core``:
    its neighbours inside ``core`` for each vertex of it, () elsewhere."""
    in_core = bytearray(len(adj))
    for v in core:
        in_core[v] = 1
    rows = [()] * len(adj)
    for v in core:
        rows[v] = [w for w in adj[v] if in_core[w]]
    return rows


def _first_fit(adj: list[list[int]], verts: list[int], match: list[int]
               ) -> None:
    """Match each vertex of ``verts`` in turn, if still free in ``match``
    (-1), to its lowest free neighbour, in place: a maximal matching of the
    subgraph on ``verts`` when ``verts`` is closed under neighbours."""
    for u in verts:
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break


def _fresh_labels(n: int) -> tuple[list[int], list[int], list[bool]]:
    """Unlabelled ``parent``, ``link`` and ``even`` arrays for a search."""
    return [-1] * n, list(range(n)), [False] * n


def _alternating_forest(roots: list[int], adj: list[list[int]],
                        match: list[int], parent: list[int], link: list[int],
                        even: list[bool]) -> list[int]:
    """Grow alternating trees from the exposed ``roots`` breadth first,
    contracting each odd cycle (blossom) into its base.  When a tree reaches
    an exposed vertex that is not a root, augment ``match`` along that path
    and stop.

    Returns the vertices labelled even: the roots, the mates of odd vertices
    and every vertex of a contracted blossom.  Two trees never meet when
    ``match`` is maximum, so a search from several roots is run only on a
    maximum matching, where it completes the whole forest.

    The blossoms are the sets of a disjoint-set forest over ``link``, with
    path compression and the smaller sets linked under the largest, each
    set's root mapped to its blossom's base (Gabow & Tarjan 1985).  A
    contraction merges the sets on the two blossom paths and makes even
    only their odd vertices, queued in ascending order, the order a scan
    over all vertices of the merged blossoms would meet them in; so it
    costs the length of the paths, not the size of the blossoms.

    ``parent``, ``link`` and ``even`` must come unlabelled (see
    ``_fresh_labels``); the search resets the entries it labelled before it
    returns, so one set of arrays serves any number of searches.
    """
    touched = list(roots)
    base: dict[int, int] = {}               # set root -> blossom base
    size: dict[int, int] = {}               # set root -> members, if > 1
    for r in roots:
        even[r] = True
    queue = deque(roots)
    finish = -1
    while queue and finish == -1:
        v = queue.popleft()
        mv = match[v]
        rv = link[v]
        if rv != v:
            rv = _find(v, link)
        for to in adj[v]:
            if to == mv:
                continue
            rt = link[to]
            if rt != to:
                rt = _find(to, link)
            if rt == rv:
                continue
            # an even ``to`` (a root, or the mate of an odd vertex) closes an
            # odd cycle: contract the blossom up to the common base
            if even[to] if match[to] == -1 else parent[match[to]] != -1:
                cur = _lowest_common_base(v, to, link, base, match, parent)
                marked = {_find(cur, link)}
                _mark_blossom_path(v, cur, to, marked, link, base, match,
                                   parent)
                _mark_blossom_path(to, cur, v, marked, link, base, match,
                                   parent)
                top = max(marked, key=lambda r: size.get(r, 1))
                total = 0
                for r in marked:
                    total += size.pop(r, 1)
                    link[r] = top
                size[top] = total
                base[top] = cur
                # a set's root is even unless the set is one odd vertex
                for i in sorted(r for r in marked if not even[r]):
                    even[i] = True
                    queue.append(i)
                rv = top
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
        link[v] = v
        even[v] = False
    return labelled_even


def _find(v: int, link: list[int]) -> int:
    """The root of v's set in the disjoint-set forest ``link``, compressing
    the path to it."""
    root = link[v]
    while link[root] != root:
        root = link[root]
    while link[v] != root:
        link[v], v = root, link[v]
    return root


def _lowest_common_base(a, b, link, base, match, parent):
    seen = set()
    a = _find(a, link)
    a = base.get(a, a)
    while True:
        seen.add(a)
        if match[a] == -1:
            break
        a = _find(parent[match[a]], link)
        a = base.get(a, a)
    b = _find(b, link)
    b = base.get(b, b)
    while b not in seen:
        b = _find(parent[match[b]], link)
        b = base.get(b, b)
    return b


def _mark_blossom_path(v, b, child, marked, link, base, match, parent):
    """Point the parents along the path from v up to the base b back
    towards ``child``, and add the roots of the sets on it to ``marked``."""
    while True:
        r = _find(v, link)
        if base.get(r, r) == b:
            return
        marked.add(r)
        marked.add(_find(match[v], link))
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


# ---------------------------------------------------------------------------
# Tutte-Berge witness
# ---------------------------------------------------------------------------

def odd_components(g: Graph, s_mask: int) -> int:
    labels = g.component_labels(s_mask)[1]
    # bin 0 counts the vertices of S (label -1)
    return int(np.count_nonzero(np.bincount(labels + 1)[1:] & 1))


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
    empty set attains the same deficiency 1.  The forest is rooted at the
    exposed vertices of the support only: an isolated vertex is in D but
    has no neighbour to add to A(G).
    """
    adj = g.adj_lists
    mate = list(_cached_mate(g))            # a search may write to its mate
    d = _alternating_forest([v for v in g.support if mate[v] == -1], adj,
                            mate, *_fresh_labels(g.n))
    in_d = np.zeros(g.n, dtype=bool)
    in_d[d] = True
    u, v = g.edge_array().T                 # A(G): the ends outside D
    s_mask = vset_of(np.where(in_d[u], v, u)[in_d[u] != in_d[v]], g.n)
    o = odd_components(g, s_mask)
    return TBWitness(s_mask, o, o - s_mask.bit_count())


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------

def is_forest(g: Graph) -> bool:
    return g.m == g.n - g.component_labels()[0]


# ---------------------------------------------------------------------------
# vertex cover: the Konig-Egervary test, then branch and bound where it fails
# ---------------------------------------------------------------------------

def konig_egervary(g: Graph) -> list[int] | None:
    """A vertex cover of size nu(G), sorted, when tau(G) = nu(G); else None.

    A cover of size nu holds exactly one endpoint of every edge of the
    cached maximum matching and no exposed vertex, so it is a 2-SAT
    assignment with one boolean per matching edge: each other edge is a
    clause, and a neighbour of an exposed vertex is forced in (Deming 1979).
    The verdict is the cached split's (see ``_cover_parts``); the cover
    needs the pass over every component, trees too, which costs one more
    O(support + m) pass, and so does checking it.
    """
    if not _tau_is_nu(g):
        return None
    mate = _cached_mate(g)
    scc = _cover_literal_sccs(g.adj_lists, mate, g.support)
    return [v for v in g.support if mate[v] != -1 and scc[v] < scc[mate[v]]]


def _cover_literal_sccs(adj: list[list[int]], mate: list[int],
                        roots: list[int]) -> list[int]:
    """Strongly connected component of the literal "v is in the cover", for
    every matched v in a component of one of ``roots`` (-1 elsewhere),
    numbered sinks first (iterative Tarjan, rooted at each matched, not yet
    visited vertex of ``roots`` in turn; a node on the work stack resumes
    its successors from its place in ``adj[mate[v]]``).  A literal implies
    only literals of its own graph component, so within each component the
    pass finds the strongly connected components a pass over the whole
    graph would.

    The negation of "v in" is "mate[v] in", so the literal nodes are the
    matched vertices themselves.  "v in" leaves w = mate[v] out, which puts
    every other neighbour b of w in; when b is exposed, w itself must be in,
    so the implication points at w and forces "v in" false.  The formula is
    satisfiable iff no v shares its component with mate[v], and then "v in"
    holds for the one of each pair whose component comes first.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    scc = [-1] * n
    nxt = [0] * n                           # v's next place in adj[mate[v]]
    stack: list[int] = []
    visits = 0
    done = 0
    for root in roots:
        if mate[root] == -1 or index[root] != -1:
            continue
        index[root] = low[root] = visits
        visits += 1
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            w = mate[v]
            row = adj[w]
            i = nxt[v]
            lv = low[v]
            while i < len(row):
                b = row[i]
                i += 1
                if b == v:
                    continue
                if mate[b] == -1:
                    b = w
                if index[b] == -1:
                    nxt[v] = i
                    low[v] = lv
                    index[b] = low[b] = visits
                    visits += 1
                    stack.append(b)
                    work.append(b)
                    break
                if scc[b] == -1 and index[b] < lv:
                    lv = index[b]
            else:
                work.pop()
                if work and lv < low[work[-1]]:
                    low[work[-1]] = lv
                if lv == index[v]:
                    while True:
                        b = stack.pop()
                        scc[b] = done
                        if b == v:
                            break
                    done += 1
    return scc


def vertex_cover_number(g: Graph, node_budget: int | None = None) -> int:
    """Exact vertex cover number tau(G).

    It is nu(G), with no search, when the Konig-Egervary test passes (every
    forest and bipartite graph).  Otherwise each component failing the test
    is cut to its leaf-removal core and the core folded at degree 2, t
    vertices taken in all, and what is left is searched by branch and bound
    from t: kernel rules (isolated, degree-1, dominated vertex) before every
    branch, branching on a maximum-degree vertex, and pruning by the
    half-integral LP bound.  A component's search stops as soon as it finds
    a cover of its root bound max(nu_c + 1, t + ceil(LP(folded core))).
    When the node budget runs out, CapabilityError carries the proved lower
    bound and the best upper bound on tau.

    The answer is cached on ``g`` with the node count of its search; a later
    call returns it when that count fits its own budget, and otherwise
    searches again, so that it fails exactly as a call on a fresh graph.
    """
    budget = _env_budget(node_budget)
    known, parts, tau, nodes = _cached_cover(g)
    if tau is not None and nodes <= budget:
        return tau
    lower = known + sum(part[3] for part in parts)
    upper = known + sum(part[4] for part in parts)
    counter = [0]
    for _, t, rows, lo, hi, lp in parts:
        try:
            tau_c = _vc_search(rows, hi, lo, counter, budget, lp, t)
        except CapabilityError as exc:
            raise CapabilityError(str(exc), lower=lower,
                                  upper=upper - hi + exc.upper) from None
        lower += tau_c - lo
        upper += tau_c - hi
    g._cover = (known, parts, lower, counter[0])
    return lower


def _cover_at_most(g: Graph, k: int, budget: int) -> bool:
    """Whether tau(G) <= k, by the same search run as a decision: the
    failing components are solved exactly, smallest first, and the largest
    is asked only for a cover within what is left of k.  Raises
    CapabilityError when the node budget runs out.

    When the exact tau is cached and its search took at most ``budget``
    nodes, the answer is tau <= k with no search.  That is the answer the
    search would give within the budget: it solves the same components with
    the same bounds, the last one from a starting best cap + 1 no larger
    than the greedy bound, and never prunes a cover of size <= cap, so it
    visits a subset of the exact search's nodes."""
    known, parts, tau, nodes = _cached_cover(g)
    if tau is not None and nodes <= budget:
        return tau <= k
    parts = sorted(parts, key=lambda part: part[0])  # by component size
    slack = k - known - sum(part[3] for part in parts)
    counter = [0]
    for i, (_, t, rows, lo, hi, lp) in enumerate(parts):
        if slack < 0:
            return False
        if i + 1 < len(parts):
            slack -= _vc_search(rows, hi, lo, counter, budget, lp, t) - lo
        elif hi > lo + slack:
            cap = lo + slack
            slack -= _vc_search(rows, cap + 1, cap, counter, budget, lp,
                                t) - lo
    return slack >= 0


def _cached_cover(g: Graph) -> tuple:
    """(known, parts, tau, nodes): the ``_cover_parts`` split of ``g``,
    computed once per graph and cached on it, with the exact tau and the
    search nodes it took once ``vertex_cover_number`` has found it (None
    and None until then)."""
    if g._cover is None:
        g._cover = (*_cover_parts(g), None, None)
    return g._cover


def _tau_is_nu(g: Graph) -> bool:
    """Whether tau(G) = nu(G): no component fails the cached split."""
    return not _cached_cover(g)[1]


def _cover_parts(g: Graph) -> tuple[int, tuple[tuple, ...]]:
    """The Konig-Egervary test per component: (the summed nu_c of the
    components that pass it, one (n_c, t, folded core rows, lower bound,
    greedy upper bound, LP matching) part per component that fails it).

    The 2-SAT pass runs on the Karp-Sipser core that the cached matching
    left (see ``_maximum_mate``): on the core's own adjacency, rooted at
    its matched vertices, over the cached mate, whose core vertices are
    matched inside the core or exposed.  A tree peels away entirely, so
    the core holds just the components with a cycle, and a forest gets
    (nu, ()) with no pass at all.  That is exact per component:
    tau_c - nu_c = tau(core_c) - nu(core_c), and the mate on the core is a
    maximum matching of it (see the module docstring).

    A failing component keeps its piece of that core, nu_c - nu(core_c)
    vertices taken by leaf removal, read off the mate, and the piece is
    folded at degree 2 (see ``_fold_core``), f more taken; bitmask rows are
    built only for what the fold leaves, and t is the sum of both counts.
    Every rule is exact for tau, so tau_c = t + tau(rows), and none lets
    t + LP fall, so the lower bound max(nu_c + 1, t + ceil(LP(rows))) is at
    least the one the unfolded core gives.  The LP bound is seeded from
    what the fold leaves of the cached matching on the core (see
    ``_lp_seed``), and the LP matching it ends with is the warm start of
    the component's search root.  The upper bound is twice the greedy
    maximal matching of the whole component (see ``_greedy_cover``)."""
    mate, known, core, core_adj = _cached_matching(g)
    roots = [v for v in core if mate[v] != -1]
    if not roots:
        return known, ()
    scc = _cover_literal_sccs(core_adj, mate, roots)
    failing = [v for v in roots if scc[v] == scc[mate[v]]]
    if not failing:
        return known, ()
    count, labels = g.component_labels()
    core = np.array(core)
    core_labels = labels[core]
    matched = np.bincount(labels[np.asarray(mate) != -1], minlength=count)
    core_matched = np.bincount(labels[roots], minlength=count)
    parts = []
    for c in np.unique(labels[failing]).tolist():
        comp = np.flatnonzero(labels == c).tolist()
        nu_c = int(matched[c]) // 2
        taken = nu_c - int(core_matched[c]) // 2
        f, rows, pairs = _fold_core(core_adj,
                                    core[core_labels == c].tolist(), mate)
        taken += f
        alive = (1 << len(rows)) - 1
        bound, lp = _lp_bound(rows, alive, _lp_seed(pairs, alive))
        known -= nu_c
        parts.append((len(comp), taken, rows, max(nu_c + 1, taken + bound),
                      _greedy_cover(g.adj_lists, comp), lp))
    return known, tuple(parts)


def _leaf_core(adj: list[list[int]], verts: list[int],
               match: list[int]) -> tuple[list[int], int]:
    """(core, t): Karp-Sipser leaf removal on the subgraph on the ascending
    vertex list ``verts``, closed under neighbours.  A vertex of degree 0
    is dropped; one of degree 1 is dropped with its neighbour, which is
    taken into the cover and counted in t; until every vertex left, the
    ascending list ``core``, has degree 2 or more.  Each such leaf is
    matched to the neighbour it is dropped with, in ``match``, in place:
    t pairs, which some maximum matching contains.

    Removals run in stack order here.  The core does not depend on the
    order, and since each step is exact for tau, neither does
    t = tau(G) - tau(core) (see the module docstring).  No removal crosses
    a component, so one pass over several components leaves each its own
    core, and t is their summed count; per component it is
    nu_c - nu(core_c), as each step is exact for nu too."""
    deg = [-1] * (verts[-1] + 1)            # -1: gone, or not in verts
    for v in verts:
        deg[v] = len(adj[v])
    low = [v for v in verts if deg[v] <= 1]
    taken = 0
    while low:
        v = low.pop()
        d = deg[v]
        deg[v] = -1
        if d <= 0:                          # gone already, or isolated
            continue
        for u in adj[v]:                    # its one live neighbour
            if deg[u] >= 0:
                break
        deg[u] = -1
        taken += 1
        match[v] = u
        match[u] = v
        for w in adj[u]:
            d = deg[w]
            if d > 0:
                deg[w] = d - 1
                if d <= 2:
                    low.append(w)
    return [v for v in verts if deg[v] >= 0], taken


def _fold_core(adj: list, verts: list[int], mate: list[int]
               ) -> tuple[int, list[int], list[int]]:
    """(f, rows, pairs): the rules of ``_fold_step`` applied to a fixpoint
    on the subgraph on the ascending vertex list ``verts``, closed under
    neighbours in ``adj``, f vertices taken in all; the bitmask rows of the
    graph left, its vertices renumbered 0..r-1 in ascending id order; and
    the mate array, on the new ids, of a matching of it, what is left of
    the matching ``mate`` (-1 where a vertex is exposed) after each step.
    Each rule is exact for tau, so tau = f + tau(rows).

    The vertices of degree 2 or less wait on a stack, highest id on top,
    and every vertex whose degree falls to 2 or less goes on top of it; a
    popped vertex takes the rule of its degree then, or none if it has
    gone or its degree has risen above 2 in a fold.  So every vertex left
    has degree 3 or more."""
    near = {v: set(adj[v]) for v in verts}
    pair = {v: mate[v] for v in verts if mate[v] != -1}
    low = [v for v in verts if len(near[v]) <= 2]
    taken = 0
    while low:
        v = low.pop()
        if v in near and len(near[v]) <= 2:
            taken += _fold_step(near, pair, v, low)
    ids = {v: i for i, v in enumerate(sorted(near))}
    return (taken, [vset(ids[w] for w in near[v]) for v in ids],
            [ids[pair[v]] if v in pair else -1 for v in ids])


def _fold_step(near: dict[int, set[int]], pair: dict[int, int], v: int,
               low: list[int]) -> int:
    """Apply to v, of degree 2 or less in the graph of neighbour sets
    ``near``, the rule of its degree, in place, and return the number of
    vertices it takes; a vertex whose degree it brings to 2 or less is
    appended to ``low``.  Each rule is exact for tau: tau(G) = taken +
    tau(G') (Chen, Kanj & Jia 2001), and LP(G) <= taken + LP(G'), so a
    bound read off G' never weakens.

    - degree 0: v is dropped;
    - degree 1: v is dropped and its neighbour taken (1);
    - degree 2, its neighbours u < w adjacent: v is dropped and both are
      taken (2);
    - degree 2, u and w not adjacent: v is folded with them (1): v and w
      leave, and u stays with the neighbourhood N(u) | N(w) - {v}.  A
      smallest cover of G' that holds u, with w added, covers G; one that
      misses u holds all of N(u) | N(w) - {v}, and with v added covers G.

    ``pair`` maps each matched vertex to its mate in a matching of the
    graph, and stays one: a pair goes when one of its vertices leaves, and
    in a fold w's mate passes to u, a neighbour of it now, when u is
    free."""
    nv = near[v]
    if len(nv) < 2:
        _fold_drop(near, pair, v, low)
        for u in nv:
            _fold_drop(near, pair, u, low)
        return len(nv)
    u, w = sorted(nv)
    nu = near[u]
    if w in nu:
        for x in (v, u, w):
            _fold_drop(near, pair, x, low)
        return 2
    _fold_drop(near, pair, v, low)
    x = pair.pop(w, None)
    if x is not None:
        del pair[x]
        if u not in pair:
            pair[u] = x
            pair[x] = u
    for y in near.pop(w):                   # w's edges move to u
        ny = near[y]
        ny.discard(w)
        if u in ny:
            if len(ny) <= 2:
                low.append(y)
        else:
            ny.add(u)
            nu.add(y)
    if len(nu) <= 2:
        low.append(u)
    return 1


def _fold_drop(near: dict[int, set[int]], pair: dict[int, int], v: int,
               low: list[int]) -> None:
    """Remove v from the graph of neighbour sets ``near`` and its pair from
    ``pair``, appending to ``low`` each neighbour whose degree falls to 2
    or less."""
    x = pair.pop(v, None)
    if x is not None:
        del pair[x]
    for w in near.pop(v):
        nw = near[w]
        nw.discard(v)
        if len(nw) <= 2:
            low.append(w)


def _greedy_cover(adj: list[list[int]], verts: list[int]) -> int:
    """Twice the size of the first-fit maximal matching of the subgraph on
    the ascending vertex list ``verts``, closed under neighbours (see
    ``_first_fit``): both ends of a maximal matching form a cover."""
    match = [-1] * (verts[-1] + 1)
    _first_fit(adj, verts, match)
    return len(match) - match.count(-1)


def _vc_search(adj: list[int], best: int, stop_at: int, counter: list[int],
               budget: int, warm: tuple | None = None, taken: int = 0) -> int:
    """``taken`` plus the smallest vertex cover size of the graph with
    bitmask rows ``adj``, where that sum is below ``best``, or ``best`` when
    there is none; the search stops at the first sum of at most
    ``stop_at``.  ``warm`` warm-starts the root's LP bound (see
    ``_lp_bound``).  ``_cover_parts`` passes the rows of what leaf removal
    and the fold leave of a component, in ascending vertex order, and the t
    vertices they took, so every bound and answer is the component's own.
    The rows differ from the whole component's, and so do the search tree
    and its node count: each rule is exact for tau, not for the tree.

    Depth first from an explicit stack, so no dive is limited by the
    recursion limit: a node is popped, counted against ``budget``, reduced
    by the kernel, pruned by ``best`` and the LP bound, and branched on the
    first vertex v of maximum degree, with "v in the cover" pushed last so
    that it is searched first and "all neighbours of v in" after it.

    Three shortcuts leave the search tree and its node count as they are:

    - The kernel checks for a dominated vertex only on the triangle
      vertices of ``adj``, computed once (see ``_triangle_mask``): every
      other vertex stays without a dominating neighbour at every node (see
      ``_vc_kernel``).
    - The LP bound stops once it proves the prune, ceil(LP) >= best - taken
      (see ``_lp_bound``): the LP value is unique, and only its comparison
      with best - taken is read.  A node that branches computes it in full.
    - A child whose parent already had taken + ceil(LP) >= ``best`` is
      counted and dropped without its kernel.  taken + LP never falls from
      a node to its child: each kernel rule and each branch moves at most
      as much LP into ``taken`` as it removes, so the child would be pruned.

    A child carries its parent's state instead of recomputing it: the
    parent's kernel fixpoint, degree list and ``clean`` set, from which the
    kernel drops the branched vertices and continues (see ``_vc_kernel``),
    and the parent's LP matching, which warm-starts the child's LP bound.
    The second child takes the parent's degree list itself, the first a
    copy.  Every node reduces, bounds and branches as one computed afresh
    would, so the search tree and its node count do not depend on this.
    """
    tri = _triangle_mask(adj)
    stack = [((1 << len(adj)) - 1, taken, 0, None, 0, warm, 0)]
    while stack:
        mask, taken, gone, deg, clean, warm, reach = stack.pop()
        counter[0] += 1
        if counter[0] > budget:
            raise CapabilityError(
                f"vertex cover node budget exceeded after {budget} nodes",
                upper=best)
        if reach >= best:                   # the parent's bound prunes it
            continue
        mask, taken, deg, clean = _vc_kernel(adj, mask, taken, deg, clean,
                                             gone, tri)
        if taken >= best:
            continue
        if not mask:                        # a cover: no edge is left
            best = taken
            if taken <= stop_at:
                break
            continue
        bound, warm = _lp_bound(adj, mask, warm, best - taken)
        reach = taken + bound
        if reach >= best:
            continue
        d = max(deg)
        v = deg.index(d)
        stack.append((mask, taken + d, (1 << v) | (adj[v] & mask), deg, clean,
                      warm, reach))
        stack.append((mask, taken + 1, 1 << v, deg[:], clean, warm, reach))
    return best


def _triangle_mask(adj: list[int]) -> int:
    """The vertices of the graph with bitmask rows ``adj`` that lie on a
    triangle, read off each edge vu with u > v: v, u and their common
    neighbours."""
    tri = 0
    for v, row in enumerate(adj):
        above = row & ~((2 << v) - 1)
        while above:
            bit = above & -above
            above ^= bit
            common = adj[bit.bit_length() - 1] & row
            if common:
                tri |= (1 << v) | bit | common
    return tri


def _lp_seed(mate: list[int], mask: int) -> tuple:
    """The warm start for ``_lp_bound`` that a matching of the graph on
    ``mask`` gives, ``mate[v]`` = -1 where v is exposed: each matched edge
    uv is the two pairs u -> v and v -> u of the double cover."""
    matched = vset_from_flags(np.asarray(mate) != -1)
    return mask, mate, mate, matched, matched


def _lp_bound(adj: list[int], mask: int, warm: tuple | None = None,
              need: int | None = None) -> tuple[int, tuple]:
    """ceil(LP), LP the fractional vertex cover number of the graph on
    ``mask``: half the maximum matching of its bipartite double cover
    (Nemhauser & Trotter 1975).  Returns the bound and the matching, which
    warm-starts the call for a subset of ``mask``.

    With ``need`` set, the call returns as soon as its matching shows
    ceil(LP) >= ``need``, with a bound of at least ``need`` but possibly
    below ceil(LP), and a matching that is not maximum.  Below ``need`` the
    bound is ceil(LP) exactly, so the bound is at least ``need`` exactly
    when ceil(LP) is.

    ``warm`` is (its mask, left, right, lmask, rmask) for any matching of
    the double cover of a superset of ``mask``: a child node passes its
    parent's, and ``_cover_parts`` one made by ``_lp_seed`` from the cached
    maximum matching, carried through the fold.  The maximum matching has
    one size whatever the start, so every start gives the same bound.  The
    pairs of the warm start that survive in ``mask`` are kept, each
    unmatched left copy takes its first free right copy, and the rest grow
    the matching by breadth-first augmenting searches.  Right copies that a failed search
    reached stay dead ends until the next augmentation, so they are not
    searched again.  The lists of ``warm`` are copied, never changed.
    """
    # matched left copies that show ceil(LP) = ceil(size / 2) >= need
    enough = len(adj) + 1 if need is None else 2 * need - 1
    if warm is None:
        left = [-1] * len(adj)              # left copy -> right copy
        right = [-1] * len(adj)             # right copy -> left copy
        lmask = rmask = 0                   # matched left / right copies
    else:
        old_mask, left, right, lmask, rmask = warm
        left = left[:]
        right = right[:]
        gone = old_mask & ~mask
        while gone:
            bit = gone & -gone
            gone ^= bit
            v = bit.bit_length() - 1
            if lmask & bit:
                r = left[v]
                left[v] = right[r] = -1
                lmask ^= bit
                rmask ^= 1 << r
            if rmask & bit:
                u = right[v]
                left[u] = right[v] = -1
                lmask ^= 1 << u
                rmask ^= bit
    size = lmask.bit_count()
    free_left = []
    rest = mask & ~lmask
    while rest and size < enough:
        bit = rest & -rest
        rest ^= bit
        u = bit.bit_length() - 1
        free = adj[u] & mask & ~rmask
        if free:
            r = (free & -free).bit_length() - 1
            rmask |= 1 << r
            lmask |= bit
            left[u] = r
            right[r] = u
            size += 1
        else:
            free_left.append(u)
    dead = 0
    for u in free_left:
        if size >= enough:
            break
        reached_from = {}
        frontier = [u]
        end = -1
        while frontier and end == -1:
            nxt = []
            for x in frontier:
                new = adj[x] & mask & ~dead
                dead |= new
                while new:
                    r = (new & -new).bit_length() - 1
                    new ^= new & -new
                    reached_from[r] = x
                    if right[r] == -1:
                        end = r
                        break
                    nxt.append(right[r])
                if end != -1:
                    break
            frontier = nxt
        if end == -1:
            continue
        dead = 0
        lmask |= 1 << u
        rmask |= 1 << end
        size += 1
        while end != -1:                    # flip the augmenting path
            x = reached_from[end]
            right[end] = x
            left[x], end = end, left[x]
    return (size + 1) // 2, (mask, left, right, lmask, rmask)


def _vc_kernel(adj: list[int], mask: int, taken: int,
               deg: list[int] | None = None, clean: int = 0, gone: int = 0,
               tri: int = -1) -> tuple[int, int, list[int], int]:
    """Apply the reduction rules to a fixpoint: sweeps in vertex order that
    drop a vertex of degree 0, or take the neighbour of one of degree 1,
    repeated while a sweep changes anything; then take the first u with
    N(v) inside N[u] for the first such v (a dominated vertex v), and start
    over.  Returns (mask, taken, deg, clean) at the fixpoint.

    Degrees are kept up to date as vertices leave, so a sweep visits only
    vertices of degree at most 1; a vertex found to have no such u joins
    ``clean``, and stays known to have none until one of its neighbours
    leaves.  ``deg[v]`` is the degree of a live v and 0 for any other.  The
    reductions and their order are those of rescanning every vertex after
    each change, so the search tree does not depend on this bookkeeping.

    With ``deg`` None the degrees are counted afresh.  Otherwise the call
    continues from a fixpoint on ``mask``: ``deg`` and ``clean`` are what
    that fixpoint returned, ``deg`` is updated in place, and the vertices
    of ``gone`` leave first.  No live vertex of a fixpoint has degree 1 or
    less, so only the neighbours of ``gone`` can be swept, and only they
    lose their place in ``clean``.

    Only the vertices of ``tri`` are checked for a dominating neighbour;
    the search passes the vertices on a triangle of its root's rows.  No
    other vertex can be dominated: the check runs once no live vertex has
    degree 1 or less, and then a v with N(v) inside N[u] has a neighbour
    w other than u, in N(u), so vuw is a triangle, of the root's rows too,
    since deleting vertices never makes one.  A vertex outside ``tri``
    never joins ``clean``; the rest of the result is that of checking all.
    """
    low = 0                                 # live vertices of degree <= 1
    if deg is None:
        deg = [0] * len(adj)
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            deg[v] = d = (adj[v] & mask).bit_count()
            if d <= 1:
                low |= bit

    def drop(gone: int) -> None:
        nonlocal mask, low, clean
        mask &= ~gone
        while gone:
            bit = gone & -gone
            gone ^= bit
            v = bit.bit_length() - 1
            deg[v] = 0
            near = adj[v] & mask
            clean &= ~near
            while near:
                nbit = near & -near
                near ^= nbit
                w = nbit.bit_length() - 1
                deg[w] -= 1
                if deg[w] <= 1:
                    low |= nbit

    drop(gone)
    while True:
        while low & mask:                   # one sweep, in vertex order
            cand = low & mask
            while cand:
                bit = cand & -cand
                nb = adj[bit.bit_length() - 1] & mask
                if nb:
                    taken += 1
                drop(bit | nb)
                cand = low & mask & ~((bit << 1) - 1)
        rest = mask & tri & ~clean
        while rest:
            bit = rest & -rest
            rest ^= bit
            nv = adj[bit.bit_length() - 1] & mask
            near = nv
            while near:
                ubit = near & -near
                near ^= ubit
                if nv & ~(adj[ubit.bit_length() - 1] | ubit) == 0:
                    taken += 1
                    drop(ubit)
                    break
            else:
                clean |= bit
                continue
            break
        else:
            return mask, taken, deg, clean
