"""Independent brute-force oracles used to validate the library.

Everything here is deliberately written against different algorithmic ideas
than the package (edge-subset dynamic programming, full subset scans,
alternating-path enumeration, the rank of a random Tutte matrix, isolated
3-paths counted on packed edge bitmaps) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import numpy as np
from scipy.special import gammaln, logsumexp

from eg_matchlab.errors import CapabilityError, InputError
from eg_matchlab.graph_core import Graph, iter_bits, vset, vset_members
from eg_matchlab.matching import (_cached_mate, _cover_literal_sccs,
                                  _first_fit, _fresh_labels, _greedy_cover,
                                  _leaf_core, _lp_bound, _lp_seed, _vc_kernel,
                                  matching_number)


def canonical_edges_by_unique(n: int, edges) -> np.ndarray:
    """The canonical (m, 2) int64 edge array of an edge list: each pair
    ordered u < v, duplicates dropped, rows in lexicographic order, by
    ``np.unique`` on the keys u * n + v."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = np.unique(arr.min(axis=1) * n + arr.max(axis=1))
    return np.stack([keys // n, keys % n], axis=1)


def brute_matching_number(g: Graph) -> int:
    """Maximum matching by take/skip recursion over the edge list."""
    edges = g.edge_list()

    def rec(i: int, used: int) -> int:
        best = 0
        for j in range(i, len(edges)):
            u, v = edges[j]
            if used >> u & 1 or used >> v & 1:
                continue
            best = max(best, 1 + rec(j + 1, used | (1 << u) | (1 << v)))
        return best

    return rec(0, 0)


def nu_table(g: Graph) -> tuple[list[tuple[int, int]], bytearray]:
    """nu(H) for every edge subset H, bottom-up over edge bitmasks."""
    edges = g.edge_list()
    m = len(edges)
    touch = []
    for u, v in edges:
        t = 0
        for j, (a, b) in enumerate(edges):
            if len({u, v, a, b}) < 4:
                t |= 1 << j
        touch.append(t)
    nu = bytearray(1 << m)
    for mask in range(1, 1 << m):
        e = (mask & -mask).bit_length() - 1
        nu[mask] = max(nu[mask & (mask - 1)], 1 + nu[mask & ~touch[e]])
    return edges, nu


def extremal_by_edge_subsets(g: Graph) -> dict[int, tuple[int, set[frozenset]]]:
    """For each k: (max |H| with nu(H) = k, all maximizing edge sets)."""
    edges, nu = nu_table(g)
    m = len(edges)
    best: dict[int, tuple[int, list[int]]] = {}
    for mask in range(1 << m):
        k = nu[mask]
        size = bin(mask).count("1")
        cur = best.get(k)
        if cur is None or size > cur[0]:
            best[k] = (size, [mask])
        elif size == cur[0]:
            cur[1].append(mask)
    return {
        k: (size, {frozenset(edges[i] for i in range(m) if mk >> i & 1)
                   for mk in masks})
        for k, (size, masks) in best.items()
    }


def tb_max_over_subsets(g: Graph) -> int:
    """max over all S of (odd components of G - S) - |S|, by full scan."""
    best = None
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s_mask = vset(combo)
            o = sum(1 for c in components_by_union_find(g, s_mask)
                    if len(c) & 1)
            val = o - size
            if best is None or val > best:
                best = val
    return best


def gallai_edmonds_by_deletion(g: Graph) -> int:
    """The Gallai-Edmonds set D (vertices missed by some maximum matching)
    as a bitmask, from the definition: v is in D iff deleting v leaves the
    matching number unchanged.  Makes n + 1 calls of the one-root-at-a-time
    matching search, which the brute-force matching oracle checks."""
    nu = matching_number(g)
    d_mask = 0
    for v in range(g.n):
        rest = [(a, b) for a, b in g.edge_list() if v not in (a, b)]
        if matching_number(Graph(g.n, rest)) == nu:
            d_mask |= 1 << v
    return d_mask


def degree_into(g: Graph, v: int, mask: int) -> int:
    """Number of neighbours of ``v`` inside ``mask``, read one vertex at a
    time off its neighbour list."""
    return sum(1 for w in g.adj_lists[v] if mask >> w & 1)


def decomposition_edges(g: Graph, pi) -> list[tuple[int, int]]:
    """Edges a decomposition keeps, straight from the definition: an edge
    stays when an endpoint lies in S or both endpoints lie in one block.
    Reads the partition through its bitmask views and walks the edge list
    one edge at a time."""
    block_of = {}
    for i, block in enumerate(pi.blocks):
        for v in vset_members(block):
            block_of[v] = i
    s_set = pi.s_set
    return [(u, v) for u, v in g.edge_list()
            if s_set >> u & 1 or s_set >> v & 1 or block_of[u] == block_of[v]]


def classify_forms_by_filter(g: Graph, k: int, edges: tuple) -> dict:
    """``classify_forms`` by scanning every (2k+1)-set and every k-set and
    filtering out those that miss part of H."""
    n = g.n
    m_h = len(edges)
    support = 0
    for u, v in edges:
        support |= (1 << u) | (1 << v)
    form1 = []
    w_size = 2 * k + 1
    if w_size <= n and support.bit_count() <= w_size:
        for combo in itertools.combinations(range(n), w_size):
            mask = vset(combo)
            if support & ~mask:
                continue
            if g.edges_within(mask) == m_h:
                form1.append(mask)
    form2 = []
    if k <= n:
        for combo in itertools.combinations(range(n), k):
            mask = vset(combo)
            if any(not (mask >> u & 1 or mask >> v & 1) for u, v in edges):
                continue
            if g.edges_meeting(mask) == m_h:
                form2.append(mask)
    return {"form1": form1, "form2": form2,
            "canonical": bool(form1 or form2)}


def pair_of_index(n: int, idx: int) -> tuple[int, int]:
    """The pair (u, v) of lexicographic index ``idx`` among the pairs of
    0..n-1, by binary search on the row starts in Python integers."""
    def row_start(u):
        return u * (n - 1) - u * (u - 1) // 2

    lo, hi = 0, n - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if row_start(mid) <= idx:
            lo = mid
        else:
            hi = mid - 1
    return lo, idx - row_start(lo) + lo + 1


def brute_vertex_cover(g: Graph) -> int:
    edges = g.edge_list()
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = vset(combo)
            if all(mask >> u & 1 or mask >> v & 1 for u, v in edges):
                return size
    return g.n


def milp_vertex_cover(g: Graph) -> int:
    """tau(G) as an integer program: the fewest x_v = 1 with x_u + x_v >= 1
    on every edge, x binary, solved by HiGHS through ``scipy.optimize``."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    if g.m == 0:
        return 0
    rows = np.zeros((g.m, g.n))
    rows[np.arange(g.m)[:, None], g.edge_array()] = 1
    res = milp(np.ones(g.n), integrality=np.ones(g.n), bounds=Bounds(0, 1),
               constraints=LinearConstraint(rows, lb=1))
    assert res.success, res.message
    return round(res.fun)


def random_order_leaf_core(adj: list[list[int]], verts: list[int],
                           seed: int) -> tuple[list[int], int]:
    """Leaf removal on the subgraph on ``verts`` (closed under neighbours)
    with each step a uniform pick among the live vertices of degree at most
    1, found by rescanning: (the ascending core, the vertices taken)."""
    rng = np.random.default_rng(seed)
    live = set(verts)
    taken = 0
    while True:
        low = [v for v in sorted(live)
               if sum(w in live for w in adj[v]) <= 1]
        if not low:
            return sorted(live), taken
        v = low[rng.integers(len(low))]
        live.discard(v)
        near = [w for w in adj[v] if w in live]
        if near:
            live.discard(near[0])
            taken += 1


def rows_greedy_cover(adj: list[int], alive: int) -> int:
    """Twice the size of the greedy maximal matching on ``alive``, read off
    bitmask rows: each vertex in ascending order, if still free, takes its
    lowest free neighbour."""
    size = 0
    mask = alive
    rest = alive
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest ^= rest & -rest
        nb = adj[v] & mask
        if nb:
            u = (nb & -nb).bit_length() - 1
            mask &= ~(1 << v) & ~(1 << u)
            rest &= mask
            size += 2
    return size


def brute_is_bipartite(g: Graph) -> bool:
    """Whether some 2-colouring of the vertices leaves no edge monochrome."""
    edges = g.edge_list()
    return any(all((side >> u ^ side >> v) & 1 for u, v in edges)
               for side in range(1 << g.n))


def is_bipartite(g: Graph) -> bool:
    """Whether G has no odd cycle: a component lifts to two components of
    the bipartite double cover (copies v and v + n, each edge joining the
    two copies) when it has none, and to one otherwise."""
    u, v = g.edge_array().T
    cover = Graph(2 * g.n, np.concatenate([np.stack([u, v + g.n], axis=1),
                                           np.stack([u + g.n, v], axis=1)]))
    return cover.component_labels()[0] == 2 * g.component_labels()[0]


def brute_independence_number(g: Graph) -> int:
    best = 0
    for mask in range(1 << g.n):
        if g.edges_within(mask) == 0:
            best = max(best, mask.bit_count())
    return best


def has_augmenting_path(g: Graph, pairs) -> bool:
    """Exhaustive search for an alternating augmenting simple path.

    Enumerates alternating simple paths from every exposed vertex by DFS;
    exponential, fine for test-sized graphs, and independent of the blossom
    machinery.
    """
    mate = {}
    for u, v in pairs:
        mate[u] = v
        mate[v] = u
    exposed = [v for v in range(g.n) if v not in mate]
    adj = g.adj_lists

    def dfs(v: int, visited: set, need_matched: bool) -> bool:
        for w in adj[v]:
            if w in visited:
                continue
            if need_matched:
                if mate.get(v) == w and dfs(w, visited | {w}, False):
                    return True
            else:
                if mate.get(v) == w:
                    continue
                if w not in mate:
                    return True
                if dfs(w, visited | {w}, True):
                    return True
        return False

    return any(dfs(s, {s}, False) for s in exposed)


TUTTE_PRIME = (1 << 61) - 1


def tutte_matching_number(g: Graph, seed: int = 0x7077E) -> int:
    """nu(G) as half the rank of the Tutte matrix of G over GF(2^61 - 1),
    each edge uv entered as x at (u, v) and -x at (v, u), x drawn at random
    from a fixed seed (Tutte 1947; Lovasz 1979).  The rank is never above
    2 nu, and falls below it only where a nonzero minor of degree at most n
    vanishes, with probability at most n / (2^61 - 1) (Schwartz-Zippel).
    Gaussian elimination in Python ints, O(n^3) over the support: no
    matching idea and no path enumeration."""
    p = TUTTE_PRIME
    rng = random.Random(seed)
    ids = {v: i for i, v in enumerate(g.support)}
    size = len(ids)
    rows = [[0] * size for _ in range(size)]
    for u, v in g.edge_list():
        x = rng.randrange(1, p)
        rows[ids[u]][ids[v]] = x
        rows[ids[v]][ids[u]] = p - x
    rank = 0
    for col in range(size):
        pivot = next((r for r in range(rank, size) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = pow(top[col], p - 2, p)
        for r in range(rank + 1, size):
            if rows[r][col]:
                f = rows[r][col] * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], top)]
        rank += 1
    return rank // 2


def first_fit_augmenting_mate(g: Graph) -> list[int]:
    """The maximum matching as it was found before leaf removal: first fit
    over the whole support, then one relabel-all search from each exposed
    vertex in ascending order, on the whole adjacency."""
    match = [-1] * g.n
    _first_fit(g.adj_lists, g.support, match)
    labels = _fresh_labels(g.n)
    for root in g.support:
        if match[root] == -1:
            relabel_all_alternating_forest([root], g.adj_lists, match,
                                           *labels)
    return match


def relabel_all_alternating_forest(roots: list[int], adj: list[list[int]],
                                   match: list[int], parent: list[int],
                                   base: list[int], even: list[bool]
                                   ) -> list[int]:
    """The blossom search as it was before its bases moved to union-find:
    every contraction relabels every member of the blossoms it merges.

    Grow alternating trees from the exposed ``roots`` breadth first,
    contracting each odd cycle (blossom) into its base.  When a tree reaches
    an exposed vertex that is not a root, augment ``match`` along that path
    and stop.

    Returns the vertices labelled even: the roots, the mates of odd vertices
    and every vertex of a contracted blossom.  Two trees never meet when
    ``match`` is maximum, so a search from several roots is run only on a
    maximum matching, where it completes the whole forest.

    ``parent``, ``base`` and ``even`` must come unlabelled (see
    ``matching._fresh_labels``); the search resets the entries it labelled
    before it returns, so one set of arrays serves any number of searches.
    A blossom contraction visits the members of the merged blossoms in
    ascending order, the order a scan over all vertices would meet them in.
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
                cur = _relabel_all_common_base(v, to, base, match, parent)
                marked: set[int] = set()
                _relabel_all_mark_path(v, cur, to, marked, base, match, parent)
                _relabel_all_mark_path(to, cur, v, marked, base, match, parent)
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


def _relabel_all_common_base(a, b, base, match, parent):
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


def _relabel_all_mark_path(v, b, child, marked, base, match, parent):
    while base[v] != b:
        marked.add(base[v])
        marked.add(base[match[v]])
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def random_forest(n: int, seed: int, attach_prob: float = 0.8) -> Graph:
    """Random forest: each new vertex attaches to a uniform earlier vertex
    with the given probability, else starts a new tree."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges = []
    for v in range(1, n):
        if rng.random() < attach_prob:
            edges.append((int(rng.integers(0, v)), v))
    return Graph(n, edges)


def _p3_configs(n: int) -> list[tuple[int, int]]:
    """(required, forbidden) edge bitmaps for every (triple, center) pattern
    that realizes an isolated 3-path; edges indexed lexicographically."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if len(pairs) > 60:
        raise InputError("packed 3-path counting supports n <= 11")
    pair_idx = {e: i for i, e in enumerate(pairs)}

    def bit(u, v):
        return 1 << pair_idx[(min(u, v), max(u, v))]

    configs = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                triple = (a, b, c)
                for mid in triple:
                    e1, e2 = [v for v in triple if v != mid]
                    required = bit(mid, e1) | bit(mid, e2)
                    forbidden = bit(e1, e2)
                    for v in triple:
                        for w in range(n):
                            if w not in triple:
                                forbidden |= bit(v, w)
                    configs.append((required, forbidden))
    return configs


def count_isolated_p3_packed(n: int, packed: int) -> int:
    """Isolated-3-path count from a lexicographically packed edge bitmap;
    an independent counting route from count_isolated_p3."""
    return sum(1 for req, forb in _p3_configs(n)
               if packed & req == req and packed & forb == 0)


def sample_p3_counts(n: int, p: float, trials: int, seed: int) -> np.ndarray:
    """Vectorized isolated-3-path counts over many G(n,p) samples (n <= 11),
    built on the packed (triple, center) configurations."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    configs = _p3_configs(n)
    req = np.array([c[0] for c in configs], dtype=np.uint64)
    forb = np.array([c[1] for c in configs], dtype=np.uint64)

    rng = np.random.Generator(np.random.Philox(key=seed))
    powers = (np.uint64(1) << np.arange(len(pairs), dtype=np.uint64))
    counts = np.zeros(trials, dtype=np.int32)
    done = 0
    while done < trials:
        chunk = min(200_000, trials - done)
        bits = rng.random((chunk, len(pairs))) < p
        packed = (bits.astype(np.uint64) * powers[None, :]).sum(axis=1)
        acc = np.zeros(chunk, dtype=np.int32)
        for r, f in zip(req, forb):
            acc += ((packed & r) == r) & ((packed & f) == 0)
        counts[done:done + chunk] = acc
        done += chunk
    return counts


def rescan_vc_kernel(adj: list[int], mask: int, taken: int) -> tuple[int, int]:
    """The vertex cover reduction rules by plain rescans: drop degree-0
    vertices and take the neighbour of a degree-1 vertex, sweeping every
    vertex in order until a sweep changes nothing; then take u for the
    first v with N(v) inside N[u], and start over."""
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
            d = nb.bit_count()
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
        for v in list(iter_bits(mask)):
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


def components_by_union_find(g: Graph, removed: int = 0) -> list[list[int]]:
    """Connected components of G minus ``removed`` by union-find over the
    edge list: sorted member lists, ordered by smallest member."""
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edge_list():
        if not (removed >> u & 1 or removed >> v & 1):
            parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        if not removed >> v & 1:
            groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def labels_from_components(n: int, comps: list[list[int]]) -> list[int]:
    """The label array of a partition: the index of each vertex's component,
    -1 for vertices in none."""
    labels = [-1] * n
    for i, comp in enumerate(comps):
        for v in comp:
            labels[v] = i
    return labels


def isolated_p3_by_union_find(g: Graph) -> tuple[int, list[tuple[int, int, int]]]:
    """Isolated 3-paths from the union-find components: a component of
    three vertices and two edges, whose middle vertex has degree 2."""
    comps = components_by_union_find(g)
    degree = [0] * g.n
    for u, v in g.edge_list():
        degree[u] += 1
        degree[v] += 1
    count, witnesses = 0, []
    for comp in comps:
        if len(comp) == 3 and sum(degree[v] for v in comp) == 4:
            mid = next(v for v in comp if degree[v] == 2)
            a, b = (v for v in comp if v != mid)
            count += 1
            if len(witnesses) < 2:
                witnesses.append((a, mid, b))
    return count, witnesses


def _log_comb_table(n: int) -> np.ndarray:
    ks = np.arange(n + 1, dtype=np.float64)
    return gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)


def full_window_case7(n: int, p: float, big: bool) -> float:
    """The C7a/C7b log-value with every b-row summed: each row adds a window
    of 256 parity steps per event, event 1 descending from the largest
    valid s, event 2 ascending from the parity floor, in 4096-row chunks."""
    window = 256
    s_cut_hi = math.ceil(n / math.sqrt(math.log(n))) - 1
    if big:
        b_lo = math.floor(1e-3 * n) + 1
        b_hi = (100 * (n - 1) - 1) // 499
        k1 = 0.1 * 0.1 / 2.0
    else:
        b_lo = 1
        b_hi = math.ceil(1e-3 * n) - 1
        k1 = 0.9 * 0.9 / 2.0
    if b_lo > b_hi or s_cut_hi < 1:
        return -math.inf
    bs_all = np.arange(b_lo, b_hi + 1, dtype=np.int64)
    s_hi = np.minimum.reduce([
        np.full_like(bs_all, s_cut_hi),
        bs_all + 1,
        (100 * (n - bs_all) - 399 * bs_all - 1) // 100,
        n - bs_all - 3,
    ])
    want = (n - bs_all - 1) & 1
    s_hi = np.where((s_hi & 1) == want, s_hi, s_hi - 1)
    keep = s_hi >= 1
    bs_all = bs_all[keep]
    s_hi = s_hi[keep]
    if bs_all.size == 0:
        return -math.inf

    total = -math.inf
    offs = np.arange(window, dtype=np.int64) * 2
    table = _log_comb_table(n)
    for lo_idx in range(0, bs_all.size, 4096):
        bs = bs_all[lo_idx:lo_idx + 4096]
        shi = s_hi[lo_idx:lo_idx + 4096]
        logc_b = table[bs]
        s1 = shi[:, None] - offs[None, :]
        valid1 = s1 >= 1
        s1 = np.where(valid1, s1, 1)
        a1 = n - s1 - bs[:, None]
        t1 = table[s1] + logc_b[:, None] - k1 * a1 * bs[:, None] * p
        t1 = np.where(valid1, t1, -np.inf)
        s_lo = np.where((shi & 1) == 1, 1, 2)
        s2 = s_lo[:, None] + offs[None, :]
        valid2 = s2 <= shi[:, None]
        s2 = np.where(valid2, s2, 1)
        a2 = n - s2 - bs[:, None]
        if big:
            lam_part = 0.9 * a2 - bs[:, None]
            expo = (s2 * p * lam_part * lam_part
                    / (2.0 * (bs[:, None] + lam_part / 3.0)))
        else:
            ratio = a2 / (10.0 * math.e * bs[:, None])
            expo = 0.1 * a2 * s2 * p * np.log(ratio)
        t2 = table[s2] - expo
        t2 = np.where(valid2, t2, -np.inf)
        chunk = logsumexp(np.concatenate([t1.ravel(), t2.ravel()]))
        total = np.logaddexp(total, chunk)
    return float(total)


def case7_by_row_bounds(n: int, p: float, big: bool):
    """The C7a/C7b budget with every row bounded in one pass over all b, and
    log C(n, k) read from one table up to the largest index used: the rows
    whose bound max(head 1, event-2 bound) comes within 40 + ln R + ln 512
    nats of the largest head (R rows in all) are summed, in 4096-row
    chunks.  Returns (log-value, notes, kept b as a list)."""
    window = 256
    s_cut_hi = math.ceil(n / math.sqrt(math.log(n))) - 1
    if big:
        b_lo = math.floor(1e-3 * n) + 1
        b_hi = (100 * (n - 1) - 1) // 499
        k1 = 0.1 * 0.1 / 2.0
    else:
        b_lo = 1
        b_hi = math.ceil(1e-3 * n) - 1
        k1 = 0.9 * 0.9 / 2.0
    if b_lo > b_hi or s_cut_hi < 1:
        return -math.inf, {"empty_range": True}, []
    bs_all = np.arange(b_lo, b_hi + 1, dtype=np.int64)
    s_hi = np.minimum.reduce([
        np.full_like(bs_all, s_cut_hi),
        bs_all + 1,
        (100 * (n - bs_all) - 399 * bs_all - 1) // 100,
        n - bs_all - 3,
    ])
    want = (n - bs_all - 1) & 1
    s_hi = np.where((s_hi & 1) == want, s_hi, s_hi - 1)
    keep = s_hi >= 1
    bs_all = bs_all[keep]
    s_hi = s_hi[keep]
    if bs_all.size == 0:
        return -math.inf, {"empty_range": True}, []
    notes = {"b_lo": b_lo, "b_hi": int(bs_all[-1]), "s_window": window,
             "events": "0.9abp/0.9asp" if big else "0.1abp/0.1asp"}

    def event2_exponent(bs, s):
        a = n - s - bs
        if big:
            lam = 0.9 * a - bs
            return s * p * lam * lam / (2.0 * (bs + lam / 3.0))
        return 0.1 * a * s * p * np.log(a / (10.0 * math.e * bs))

    table = _log_comb(n, np.arange(max(bs_all[-1], s_hi.max()) + 1))
    s_lo = np.where((s_hi & 1) == 1, 1, 2)
    head1 = table[s_hi] + table[bs_all] - k1 * (n - s_hi - bs_all) * bs_all * p
    head2 = table[s_lo] - event2_exponent(bs_all, s_lo)
    s_top = np.minimum(s_lo + 2 * (window - 1), s_hi)
    slope = event2_exponent(bs_all, s_top) / s_top
    line_lo = table[s_lo] - s_lo * slope
    s_next = np.minimum(s_lo + 2, s_top)
    bound2 = np.where(table[s_next] - s_next * slope <= line_lo, line_lo,
                      table[s_top] - s_lo * slope)
    cutoff = (max(head1.max(), head2.max()) - 40.0 - math.log(bs_all.size)
              - math.log(2 * window))
    rows = np.maximum(head1, bound2) >= cutoff
    bs_all = bs_all[rows]
    s_hi = s_hi[rows]
    s_lo = s_lo[rows]
    notes["b_rows"] = int(bs_all.size)

    total = -math.inf
    offs = np.arange(window, dtype=np.int64) * 2
    for lo in range(0, bs_all.size, 4096):
        bs = bs_all[lo:lo + 4096, None]
        shi = s_hi[lo:lo + 4096, None]
        s1 = shi - offs
        valid1 = s1 >= 1
        s1 = np.where(valid1, s1, 1)
        t1 = np.where(valid1, table[s1] + table[bs]
                      - k1 * (n - s1 - bs) * bs * p, -np.inf)
        s2 = s_lo[lo:lo + 4096, None] + offs
        valid2 = s2 <= shi
        s2 = np.where(valid2, s2, 1)
        t2 = np.where(valid2, table[s2] - event2_exponent(bs, s2), -np.inf)
        total = np.logaddexp(
            total, logsumexp(np.concatenate([t1.ravel(), t2.ravel()])))
    return float(total), notes, bs_all.tolist()


def case7_rows(n: int, p: float, big: bool):
    """Every row of the final-case sum with all of its valid s, no window:
    yields (b, s, event-1 terms, event-2 terms).  The pair (b, s) is valid
    when s < n/sqrt(ln n), s <= b + 1, a = n - s - b is odd with a >= 3 and
    a > 3.99 b, and b lies on the side of n/1000 that ``big`` selects."""
    table = _log_comb_table(n)
    s_cut = n / math.sqrt(math.log(n))
    k1 = 0.1 * 0.1 / 2.0 if big else 0.9 * 0.9 / 2.0
    for b in range(1, n):
        if (1000 * b > n) != big or 1000 * b == n:
            continue
        s = np.arange(1, min(n, b + 2), dtype=np.int64)
        a = n - s - b
        s = s[(s < s_cut) & (a % 2 == 1) & (a >= 3) & (100 * a > 399 * b)]
        if s.size == 0:
            continue
        a = n - s - b
        t1 = table[s] + table[b] - k1 * a * b * p
        if big:
            lam = 0.9 * a - b
            t2 = table[s] - s * p * lam * lam / (2.0 * (b + lam / 3.0))
        else:
            t2 = table[s] - 0.1 * a * s * p * np.log(a / (10.0 * math.e * b))
        yield b, s, t1, t2


def exact_case7(n: int, p: float, big: bool) -> float:
    """The final-case sum over every valid (b, s) pair, with no window."""
    rows = [np.concatenate([t1, t2]) for _, _, t1, t2 in case7_rows(n, p, big)]
    return float(logsumexp(np.concatenate(rows))) if rows else -math.inf


def _log_comb(n, k):
    k = np.asarray(k, dtype=np.float64)
    return gammaln(n + 1.0) - gammaln(k + 1) - gammaln(n - k + 1)


def log_comb_row(n):
    """log C(n, k) for k = 0..n from one log-gamma call over 1..n+1, each
    entry (ln n! - ln k!) - ln (n-k)!: the row the budgets read before they
    computed log C(n, k) only at the indices they read."""
    g = gammaln(np.arange(n + 1, dtype=np.float64) + 1)
    return (g[n] - g) - g[::-1]


def _sum_falling_layers(n, layers):
    total = -math.inf
    peak = -math.inf
    decreasing = 0
    for b, layer in layers:
        total = np.logaddexp(total, layer)
        if layer >= peak:
            peak = layer
            decreasing = 0
        else:
            decreasing += 1
        if decreasing >= 3 and layer + math.log(max(n - b, 1)) < total - 46.0:
            break
    return float(total)


def _sum_terms(terms, within_reach):
    """logsumexp of every term; within reach, of the terms at or above the
    largest minus 40 + ln(#terms) only, as the library keeps them."""
    if within_reach:
        terms = terms[terms >= terms.max() - 40.0 - math.log(terms.size)]
    return float(logsumexp(terms))


def full_budget(tag: str, n: int, p: float, eps: float,
                within_reach: bool = False) -> float:
    """The log-value of budget ``tag`` with log C(n, k) computed per call and
    every term computed: one logsumexp over the whole range (per layer for
    P26, P27a and P27b, which keep their early stops).  Tags P24a, P24b,
    P25, P26, P27a, P27b and CUT; P25's range is cut at w = n, past which
    C(n, w) = 0 and every term is -inf.  ``within_reach`` sums only the
    terms within e^-40 of the largest of each logsumexp; this can differ
    from the sum of every term in the last bits, as the pairwise summation
    groups fewer terms."""
    if tag == "P24a":
        w0 = math.floor(eps * n) + 1
        ws = np.arange(w0, n + 1, dtype=np.float64)
        terms = _log_comb(n, ws) - (eps * eps / 2.0) * (ws * (ws - 1) / 2.0) * p
    elif tag == "P24b":
        w0 = math.floor(math.log(n) / (150.0 * p)) + 1
        ws = np.arange(w0, n + 1, dtype=np.float64)
        terms = _log_comb(n, ws) - 700.0 * ws * (ws - 1) * p
    elif tag == "P25":
        lo = math.ceil(2.0 * math.log(n) / 3.0)
        hi = min(n, math.floor(math.log(n) / (150.0 * p)))
        ws = np.arange(lo, hi + 1, dtype=np.float64)
        terms = _log_comb(n, ws) - 1.5 * ws * math.log(n)
    elif tag == "CUT":
        cs = np.arange(1, n // 2 + 1, dtype=np.float64)
        terms = _log_comb(n, cs) - cs * (n - cs) * p
    elif tag == "P26":
        return _full_p26(n, p, eps, within_reach)
    elif tag == "P27a":
        return _full_p27a(n, p, within_reach)
    elif tag == "P27b":
        return _full_p27b(n, p, within_reach)
    else:
        raise ValueError(tag)
    return _sum_terms(terms, within_reach) if terms.size else -math.inf


def _full_p26(n, p, eps, within_reach):
    y_min = math.floor(eps * n) + 1
    z_min = math.floor(n / math.sqrt(math.log(n))) + 1
    if y_min + z_min > n:
        return -math.inf
    c = eps * eps * p / 3.0
    ratio_log = math.log((n - z_min) / (z_min + 1.0)) - c * y_min
    total = -math.inf
    for z in range(z_min, n - y_min + 1):
        ys = np.arange(y_min, n - z + 1, dtype=np.float64)
        layer = _sum_terms(
            _log_comb(n, ys) + float(_log_comb(n, z)) - c * z * ys,
            within_reach)
        total = np.logaddexp(total, layer)
        if ratio_log < 0:
            tail = layer + ratio_log - math.log1p(-math.exp(ratio_log))
            if tail < total - 46.0:
                break
    return float(total)


def _full_p27a(n, p, within_reach):
    b0 = math.floor(math.sqrt(math.log(n))) + 1
    a_stmt = math.floor(33 * n / 50) + 1

    def layers():
        for b in range(b0, n):
            a_min = max(a_stmt, b + 1)
            c_hi = min(b + 1, n - b - a_min)
            if c_hi < 0:
                if n - b - a_min < 0 and b > n - a_stmt:
                    return
                continue
            cs = np.arange(0, c_hi + 1, dtype=np.float64)
            yield b, _sum_terms(
                float(_log_comb(n, b)) + _log_comb(n, cs)
                - (0.81 / 2.0) * (n - b - cs) * b * p, within_reach)

    return _sum_falling_layers(n, layers())


def _full_p27b(n, p, within_reach):
    lo = math.ceil(n / math.sqrt(math.log(n)))
    if 2 * lo > n:
        return -math.inf

    def layers():
        for b in range(lo, n):
            c_hi = min(b + 1, n - b)
            if c_hi < lo:
                return
            cs = np.arange(lo, c_hi + 1, dtype=np.float64)
            yield b, _sum_terms(
                float(_log_comb(n, b)) + _log_comb(n, cs) - 1.2 * b * cs * p,
                within_reach)

    return _sum_falling_layers(n, layers())


# The cover search, its 2-SAT pass and the Konig-Egervary split in their
# plainest form: every node at the full width of its rows, every LP bound
# computed in full, one successor generator per literal node, and the 2-SAT
# pass over whole components with no fold.  On the same rows the library's
# search must visit the same nodes, its 2-SAT pass give the same numbering,
# and its split find the same failing components, greedy bounds and tau.

def full_width_vc_search(adj: list[int], best: int, stop_at: int,
                         counter: list[int], budget: int,
                         warm: tuple | None = None, taken: int = 0) -> int:
    """``matching._vc_search`` with every node on the full rows ``adj``."""
    stack = [((1 << len(adj)) - 1, taken, 0, None, 0, warm)]
    while stack:
        mask, taken, gone, deg, clean, warm = stack.pop()
        counter[0] += 1
        if counter[0] > budget:
            raise CapabilityError(
                f"vertex cover node budget exceeded after {budget} nodes",
                upper=best)
        mask, taken, deg, clean = _vc_kernel(adj, mask, taken, deg, clean,
                                             gone)
        if taken >= best:
            continue
        if not mask:
            best = taken
            if taken <= stop_at:
                break
            continue
        bound, warm = full_width_lp_bound(adj, mask, warm)
        if taken + bound >= best:
            continue
        d = max(deg)
        v = deg.index(d)
        stack.append((mask, taken + d, (1 << v) | (adj[v] & mask), deg, clean,
                      warm))
        stack.append((mask, taken + 1, 1 << v, deg[:], clean, warm))
    return best


def full_width_lp_bound(adj: list[int], mask: int, warm: tuple | None = None
                        ) -> tuple[int, tuple]:
    """``matching._lp_bound`` with no threshold: the whole maximum matching
    of the double cover, grown the same way."""
    if warm is None:
        left = [-1] * len(adj)
        right = [-1] * len(adj)
        lmask = rmask = 0
    else:
        old_mask, left, right, lmask, rmask = warm
        left = left[:]
        right = right[:]
        for v in iter_bits(old_mask & ~mask):
            bit = 1 << v
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
    free_left = []
    for u in iter_bits(mask & ~lmask):
        free = adj[u] & mask & ~rmask
        if free:
            r = (free & -free).bit_length() - 1
            rmask |= 1 << r
            lmask |= 1 << u
            left[u] = r
            right[r] = u
        else:
            free_left.append(u)
    dead = 0
    for u in free_left:
        reached_from = {}
        frontier = [u]
        end = -1
        while frontier and end == -1:
            nxt = []
            for x in frontier:
                new = adj[x] & mask & ~dead
                dead |= new
                for r in iter_bits(new):
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
        while end != -1:
            x = reached_from[end]
            right[end] = x
            left[x], end = end, left[x]
    return (lmask.bit_count() + 1) // 2, (mask, left, right, lmask, rmask)


def generator_cover_literal_sccs(adj: list[list[int]], mate: list[int],
                                 roots: list[int]) -> list[int]:
    """``matching._cover_literal_sccs`` with one successor generator per
    literal node on the Tarjan work stack."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    scc = [-1] * n
    stack: list[int] = []
    visits = 0
    done = 0

    def implied(v):
        w = mate[v]
        return (b if mate[b] != -1 else w for b in adj[w] if b != v)

    for root in roots:
        if mate[root] == -1 or index[root] != -1:
            continue
        index[root] = low[root] = visits
        visits += 1
        stack.append(root)
        work = [(root, implied(root))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if index[w] == -1:
                    index[w] = low[w] = visits
                    visits += 1
                    stack.append(w)
                    work.append((w, implied(w)))
                    break
                if scc[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        scc[w] = done
                        if w == v:
                            break
                    done += 1
    return scc


def induced_adjacency(g: Graph, verts: np.ndarray) -> list[int]:
    """Bitmask adjacency rows of the subgraph of ``g`` induced on the
    ascending vertex array ``verts``, vertex verts[i] renumbered i."""
    local = np.full(g.n, -1)                # verts[i] -> i, -1 outside
    local[verts] = np.arange(verts.size)
    local = local.tolist()
    adj = g.adj_lists
    return [vset(i for w in adj[v] if (i := local[w]) >= 0)
            for v in verts.tolist()]


def whole_component_cover_parts(g: Graph) -> tuple[int, tuple[tuple, ...]]:
    """``matching._cover_parts`` with the 2-SAT pass over every matched
    vertex of the components with a cycle, the whole component's adjacency
    and the whole cached mate, and one leaf-removal pass per failing
    component, whose core is searched unfolded: its rows built in full and
    its root LP seeded from the cached mate's pairs inside it."""
    mate = _cached_mate(g)
    known = matching_number(g)
    count, labels = g.component_labels()
    cyclic = (np.bincount(labels[g.edge_array()[:, 0]], minlength=count)
              >= np.bincount(labels, minlength=count))
    roots = [v for v in np.flatnonzero(cyclic[labels]).tolist()
             if mate[v] != -1]
    if not roots:
        return known, ()
    adj = g.adj_lists
    scc = _cover_literal_sccs(adj, mate, roots)
    failing = [v for v in roots if scc[v] == scc[mate[v]]]
    if not failing:
        return known, ()
    matched_in = np.bincount(labels[roots], minlength=count)
    parts = []
    for c in np.unique(labels[failing]).tolist():
        nu_c = int(matched_in[c]) // 2
        verts = np.flatnonzero(labels == c).tolist()
        core, taken = _leaf_core(adj, verts, [-1] * g.n)
        rows = induced_adjacency(g, np.array(core))  # core[i] is local i
        local = dict(zip(core, range(len(core))))
        alive = (1 << len(rows)) - 1
        seed = _lp_seed([local.get(mate[v], -1) for v in core], alive)
        bound, lp = _lp_bound(rows, alive, seed)
        known -= nu_c
        parts.append((len(verts), taken, rows, max(nu_c + 1, taken + bound),
                      _greedy_cover(adj, verts), lp))
    return known, tuple(parts)
