import hashlib
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eg_matchlab import cli, matching
from eg_matchlab.errors import CapabilityError, InputError
from eg_matchlab.graph_core import (Graph, GnpParams, gen_gnp, vset,
                                   vset_members)
from eg_matchlab.matching import (_vc_kernel, is_forest, konig_egervary,
                                  matching_number, max_matching,
                                  odd_components, tutte_berge_witness,
                                  vertex_cover_number)
from eg_matchlab.harness import (RegimeSpec, eg_fails_at_nu, has_empty_half,
                                 run_trials, trial_seed)

from conftest import cycle, path_graph
from oracles import (brute_independence_number, brute_is_bipartite,
                     brute_matching_number, brute_vertex_cover,
                     components_by_union_find, first_fit_augmenting_mate,
                     full_width_lp_bound, full_width_vc_search,
                     gallai_edmonds_by_deletion,
                     generator_cover_literal_sccs, has_augmenting_path,
                     induced_adjacency, is_bipartite, milp_vertex_cover,
                     random_forest,
                     random_order_leaf_core, relabel_all_alternating_forest,
                     rescan_vc_kernel, rows_greedy_cover,
                     tb_max_over_subsets, tutte_matching_number,
                     whole_component_cover_parts)


def random_graph(tag: int) -> Graph:
    n = 3 + tag % 10
    p = [0.15, 0.3, 0.5, 0.7, 0.85][tag % 5]
    return gen_gnp(GnpParams(n, p, trial_seed(0xA11CE, tag)))


def flower(petals: int, petal_len: int) -> Graph:
    """``petals`` odd cycles of length ``petal_len`` through the hub 0."""
    edges, nxt = [], 1
    for _ in range(petals):
        cyc = [0] + list(range(nxt, nxt + petal_len - 1))
        nxt += petal_len - 1
        edges += [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    return Graph(nxt, edges)


def odd_cycle_chain(k: int, clen: int) -> Graph:
    """``k`` cycles of odd length ``clen``, each joined by one edge from its
    middle vertex to the first vertex of the next."""
    edges, base, prev = [], 0, None
    for _ in range(k):
        cyc = list(range(base, base + clen))
        edges += [(cyc[i], cyc[(i + 1) % clen]) for i in range(clen)]
        if prev is not None:
            edges.append((prev, base))
        prev = base + clen // 2
        base += clen
    return Graph(base, edges)


FLOWERS = [(petals, plen) for petals in (2, 3, 4) for plen in (3, 5)]
CHAINS = [(2, 3), (2, 5), (3, 5), (2, 7)]
BLOSSOM_GRAPHS = ([flower(*f) for f in FLOWERS]
                  + [odd_cycle_chain(*c) for c in CHAINS])
BLOSSOM_IDS = ([f"flower{a}x{b}" for a, b in FLOWERS]
               + [f"chain{a}x{b}" for a, b in CHAINS])


class TestMaxMatching:
    def test_empty(self):
        assert matching_number(Graph(5)) == 0

    def test_k4(self, k4):
        assert matching_number(k4) == 2

    def test_petersen(self, petersen):
        assert matching_number(petersen) == 5

    def test_matching_is_valid(self, petersen):
        mm = max_matching(petersen)
        seen = 0
        for u, v in mm.pairs:
            assert petersen.has_edge(u, v)
            assert not (seen >> u & 1) and not (seen >> v & 1)
            seen |= (1 << u) | (1 << v)

    def test_against_brute_force(self):
        for tag in range(120):
            g = random_graph(tag)
            assert matching_number(g) == brute_matching_number(g), tag

    def test_no_augmenting_path(self):
        for tag in range(60):
            g = random_graph(tag)
            mm = max_matching(g)
            assert not has_augmenting_path(g, mm.pairs), tag

    def test_odd_cycles_and_blossoms(self):
        for n in range(3, 12):
            assert matching_number(cycle(n)) == n // 2
            assert matching_number(path_graph(n)) == n // 2

    def test_two_triangles_bridge(self):
        # classic blossom shape: two triangles joined by an edge
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert matching_number(g) == 3

    def test_blossom_flowers(self):
        # nested odd cycles through one hub force repeated contractions
        for petals, plen in FLOWERS:
            g = flower(petals, plen)
            assert matching_number(g) == brute_matching_number(g)
            assert not has_augmenting_path(g, max_matching(g).pairs)

    def test_odd_cycle_chains(self):
        for k, clen in CHAINS:
            g = odd_cycle_chain(k, clen)
            assert matching_number(g) == brute_matching_number(g)

    def test_no_state_leaks_between_calls(self):
        # a witness search between two matchings leaves no labels behind
        for g in BLOSSOM_GRAPHS + [gen_gnp(GnpParams(2000, 5 / 2000, 22))]:
            first = max_matching(g).pairs
            w = tutte_berge_witness(g)
            assert max_matching(g).pairs == first
            assert certified(g, w)


def pairs_digest(g: Graph) -> str:
    return hashlib.sha256(
        json.dumps([list(e) for e in max_matching(g).pairs]).encode()).hexdigest()


def pin_graphs() -> list[Graph]:
    ps = [0.05, 0.1, 0.2, 0.35, 0.6]
    return [gen_gnp(GnpParams(2 + 7 * i % 39, ps[i % 5], trial_seed(0x3A7C, i)))
            for i in range(50)]


class TestMatchingPins:
    """sha256 of max_matching(g).pairs: which maximum matching is found
    (and so the output of ``eg-matchlab nu``) must not change.  Recorded
    before the augmenting search was shared with the witness search; the
    pins of graphs with a degree-1 vertex were recorded again, once, when
    leaf removal began to pair each leaf with its neighbour."""

    def test_petersen(self, petersen):
        assert pairs_digest(petersen) == (
            "a2d17d1566ecbd263993a76f3e961d667a47cb2c698f82f86f375bf8ece16b4a")

    def test_small_gnp(self):
        matchings = [[list(e) for e in max_matching(g).pairs]
                     for g in pin_graphs()]
        assert hashlib.sha256(json.dumps(matchings).encode()).hexdigest() == (
            "9124e3d9ea43b5556eb1e919e79f2b2a82de56978c87540b6179a63b70e9f6b7")

    @pytest.mark.parametrize("n,c,seed,nu,digest", [
        (5000, 0.1, 11, 246,
         "4df74e161c79a602c22908c067dc2a8374c63beca13b4f3a95f18b000c1d1611"),
        (1000, 3.0, 12, 462,
         "a11efbad443683f9bd119194e604d3e939592a51f46da3626c48a9aafcf421c5"),
    ], ids=["forest5000", "middle1000"])
    def test_sparse_gnp(self, n, c, seed, nu, digest):
        g = gen_gnp(GnpParams(n, c / n, seed))
        assert matching_number(g) == nu
        assert pairs_digest(g) == digest

    # Blossom-heavy graphs: G(2000, c/n) contracts 0, about 40, about 700
    # and about 450 blossoms per matching at c = 1, e, 5 and 20, so a wrong
    # relabel order inside a blossom changes which matching is found.
    @pytest.mark.parametrize("c,seed,nu,digest", [
        (1.0, 21, 527,
         "ab6c14d9e39ed8607bfaccf95a3cd8d5c0b269688f8364cfeaae9cde9750101d"),
        (1.0, 22, 546,
         "f7c12bba7e8cecc6ddda84fe92d8cfc54318036fbb0bff25fd05da43e70cae51"),
        (math.e, 21, 899,
         "d8fd4fef3bd3041c4ecfe981a15bfd86112579fdfcd5f6230985cd4f5e822477"),
        (math.e, 22, 895,
         "17c070141cb198fe049954cbf12c2fe5b4fc2d5e670054e04bda8b0150f56438"),
        (5.0, 21, 995,
         "522833e345a9207cb44b9dcea6767fa04d59cc3c501b9fe6f50e9e87ac60c7bb"),
        (5.0, 22, 993,
         "5a6924ba70bf1a72c18a4e77cb657d5b3fe38e3633fc93eff89484cee6418cc1"),
        (20.0, 21, 1000,
         "dbef9e4f2fd52a2d524a429d5d3054d063cc7b5720a170c1c222347283c44adc"),
        (20.0, 22, 1000,
         "65e2425af27abfef45d4659c68f024978004815ebe1d1c35f38bc1ed4fd15352"),
    ], ids=["c1-s21", "c1-s22", "ce-s21", "ce-s22",
            "c5-s21", "c5-s22", "c20-s21", "c20-s22"])
    def test_blossom_heavy_gnp(self, c, seed, nu, digest):
        g = gen_gnp(GnpParams(2000, c / 2000, seed))
        assert matching_number(g) == nu
        assert pairs_digest(g) == digest

    def test_dense20000(self, dense20000):
        assert pairs_digest(dense20000) == (
            "961deb8988c2433225edc2acc045ecf8b94e660e4eaed9a12d8947fe067efda2")


def certified(g: Graph, w) -> bool:
    """o(G - S) - |S| = n - 2 nu(G): the witness attains the Tutte-Berge
    bound, so both it and the matching are optimal."""
    return (odd_components(g, w.s_set) == w.odd_count
            and w.odd_count - w.s_set.bit_count() == w.deficiency
            == g.n - 2 * matching_number(g))


def outside_neighbours(g: Graph, mask: int) -> int:
    out = 0
    for v in range(g.n):
        if not mask >> v & 1 and any(mask >> w & 1 for w in g.adj_lists[v]):
            out |= 1 << v
    return out


def assert_barrier_is_deletion_oracle(g: Graph) -> None:
    w = tutte_berge_witness(g)
    assert w.s_set == outside_neighbours(g, gallai_edmonds_by_deletion(g))
    assert certified(g, w)


class TestTutteBerge:
    def test_k4(self, k4):
        w = tutte_berge_witness(k4)
        assert (w.s_set, w.odd_count, w.deficiency) == (0, 0, 0)
        assert certified(k4, w)

    def test_star(self, star4):
        w = tutte_berge_witness(star4)
        assert vset_members(w.s_set) == [0]
        assert w.odd_count == 3
        assert w.deficiency == 2 == star4.n - 2 * matching_number(star4)

    def test_c5(self, c5):
        w = tutte_berge_witness(c5)
        assert w.s_set == 0 and w.odd_count == 1 and w.deficiency == 1

    def test_identity_small_graphs(self):
        for tag in range(100):
            g = random_graph(tag)
            w = tutte_berge_witness(g)
            assert w.deficiency == g.n - 2 * matching_number(g)
            # witness value really is attained
            assert odd_components(g, w.s_set) - w.s_set.bit_count() == w.deficiency

    def test_matches_direct_subset_maximum(self):
        for tag in range(40):
            g = random_graph(tag)
            if g.n > 8:
                continue
            assert tutte_berge_witness(g).deficiency == tb_max_over_subsets(g)

    @pytest.mark.parametrize("n,p", [(30, 0.2), (1000, 2 / 1000)],
                             ids=["n30", "n1000"])
    def test_certified_at_any_n(self, n, p):
        g = gen_gnp(GnpParams(n, p, 5))
        assert certified(g, tutte_berge_witness(g))

    def test_path_barrier_is_not_smallest(self):
        # A(P3) = {1}; the empty set attains the same deficiency
        g = path_graph(3)
        w = tutte_berge_witness(g)
        assert vset_members(w.s_set) == [1] and w.deficiency == 1
        assert odd_components(g, 0) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([0.03, 0.06, 0.1, 0.2, 0.4]),
           st.integers(0, 2 ** 32))
    def test_barrier_equals_deletion_oracle(self, n, p, seed):
        assert_barrier_is_deletion_oracle(gen_gnp(GnpParams(n, p, seed)))

    @pytest.mark.parametrize("g", BLOSSOM_GRAPHS, ids=BLOSSOM_IDS)
    def test_barrier_equals_deletion_oracle_nested(self, g):
        # flowers and odd-cycle chains contract blossoms inside blossoms
        assert_barrier_is_deletion_oracle(g)


# blocks of the mixed graphs, each on local ids 0..k-1
TREE5 = [(0, 1), (1, 2), (1, 3), (3, 4)]
STAR4 = [(0, 1), (0, 2), (0, 3)]
PATH3 = [(0, 1), (1, 2)]
EDGE = [(0, 1)]
C4, C6 = cycle(4).edge_list(), cycle(6).edge_list()
TRIANGLE = [(0, 1), (1, 2), (0, 2)]
K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
# odd unicyclic, tau = nu and tau = nu + 1
TRIANGLE_TAIL = TRIANGLE + [(2, 3)]
C5_TAIL = cycle(5).edge_list() + [(4, 5), (5, 6)]


def mixed_graph(blocks, isolated: int, seed: int) -> Graph:
    """The disjoint union of ``blocks`` and ``isolated`` isolated vertices,
    its vertex ids shuffled so that the components interleave."""
    edges, n = [], 0
    for block in blocks:
        edges += [(n + u, n + v) for u, v in block]
        n += 1 + max(max(e) for e in block)
    n += isolated
    perm = np.random.Generator(np.random.Philox(key=seed)).permutation(n)
    return Graph(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


# trees, even cycles, triangles, K4s and odd-unicyclic components, n <= 14
MIXED_GRAPHS = [mixed_graph(*spec, seed) for seed, spec in enumerate([
    ([TREE5, TRIANGLE], 2), ([PATH3, C4, K4], 1),
    ([STAR4, TRIANGLE_TAIL, TRIANGLE], 2), ([C5_TAIL, K4], 3),
    ([C6, TRIANGLE, PATH3], 2), ([TREE5, STAR4], 3),
    ([K4, K4, TRIANGLE], 1), ([C4, TRIANGLE_TAIL, EDGE], 4)])]


def component_graph(g: Graph, comp: int) -> Graph:
    """The component of ``g`` on the bitmask ``comp``, renumbered in
    ascending order."""
    local = {v: i for i, v in enumerate(vset_members(comp))}
    return Graph(len(local), [(local[u], local[v]) for u, v in g.edge_list()
                              if u in local])


# G(n, p) on up to 10 vertices plus up to 4 isolated ones: isolated vertices
# raise floor(n/2) without raising tau, so has_empty_half has to search
GRAPHS_UP_TO_14 = st.builds(
    lambda n, extra, p, seed: Graph(
        n + extra, gen_gnp(GnpParams(n, p, seed)).edge_list()),
    st.integers(1, 10), st.integers(0, 4),
    st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.8]), st.integers(0, 2 ** 32))


def disjoint_union(parts: list[tuple[int, int]]) -> Graph:
    """The graphs (n, edge bits) side by side: bit i of the edge bits is the
    i-th pair of range(n) in lexicographic order."""
    edges, start = [], 0
    for n, bits in parts:
        pairs = itertools.combinations(range(start, start + n), 2)
        edges += [e for i, e in enumerate(pairs) if bits >> i & 1]
        start += n
    return Graph(start, edges)


def dense_part(n: int):
    """A graph on n vertices, each pair an edge with probability 3/4."""
    bits = st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
    return st.tuples(st.just(n), st.builds(int.__or__, bits, bits))


# 2-4 graphs on 3-5 vertices each: in about 45% of them two or more
# components fail the Konig-Egervary test, so a decision solves all but
# one of them exactly
DISJOINT_UNIONS = st.lists(st.integers(3, 5).flatmap(dense_part),
                           min_size=2, max_size=4).map(disjoint_union)


class TestVertexCover:
    def test_star(self, star4):
        assert vertex_cover_number(star4) == 1

    def test_c5(self, c5):
        assert vertex_cover_number(c5) == 3

    def test_forest_tau_equals_nu(self):
        for seed in range(40):
            f = random_forest(3 + seed % 10, seed)
            assert vertex_cover_number(f) == matching_number(f)

    def test_against_brute_force(self):
        # the split too, per component: the passing components' nu summed,
        # and one part per failing component, its bounds around its tau
        graphs = [g for g in map(random_graph, range(60)) if g.n <= 9]
        for i, g in enumerate(graphs + MIXED_GRAPHS):
            assert vertex_cover_number(g) == brute_vertex_cover(g), i
            known, failing = 0, []
            for comp in components_by_union_find(g):
                c = component_graph(g, vset(comp))
                nu_c, tau_c = brute_matching_number(c), brute_vertex_cover(c)
                if tau_c == nu_c:
                    known += nu_c
                else:
                    failing.append((c.n, tau_c))
            split_known, parts = matching._cover_parts(g)
            assert split_known == known, i
            assert [n_c for n_c, _ in failing] == [p[0] for p in parts]
            assert all(lo <= tau_c <= hi for (_, tau_c), (*_, lo, hi, _)
                       in zip(failing, parts)), i

    def test_nu_tau_sandwich(self):
        for tag in range(60):
            g = random_graph(tag)
            nu = matching_number(g)
            tau = vertex_cover_number(g)
            assert nu <= tau <= 2 * nu

    def test_is_bipartite_equals_brute_force(self):
        graphs = [random_graph(tag) for tag in range(60)]
        graphs += [gen_gnp(GnpParams(12, 0.12, seed)) for seed in range(30)]
        graphs += [cycle(4), cycle(5), cycle(6), Graph(0), Graph(3)]
        for i, g in enumerate(graphs):
            assert is_bipartite(g) == brute_is_bipartite(g), i

    def test_konig_on_bipartite(self):
        for tag in range(60):
            g = random_graph(tag)
            if is_bipartite(g):
                assert vertex_cover_number(g) == matching_number(g)

    def test_budget_exhaustion(self):
        g = gen_gnp(GnpParams(30, 0.5, 11))
        with pytest.raises(CapabilityError) as err:
            vertex_cover_number(g, node_budget=3)
        assert err.value.upper is not None
        # the error says how far the search got: nodes and both bounds
        assert "after 3 nodes" in str(err.value)
        assert matching_number(g) < err.value.lower
        assert err.value.lower <= vertex_cover_number(g) <= err.value.upper

    @settings(max_examples=200, deadline=None)
    @given(GRAPHS_UP_TO_14)
    def test_equals_brute_force(self, g):
        assert vertex_cover_number(g) == brute_vertex_cover(g)

    @settings(max_examples=200, deadline=None)
    @given(GRAPHS_UP_TO_14)
    def test_konig_egervary_verdict_and_cover(self, g):
        nu = matching_number(g)
        cover = konig_egervary(g)
        assert (cover is not None) == (brute_vertex_cover(g) == nu)
        if cover is not None:
            inside = set(cover)
            assert len(inside) == nu
            assert all(u in inside or v in inside for u, v in g.edge_list())

    @settings(max_examples=200, deadline=None)
    @given(GRAPHS_UP_TO_14)
    def test_eg_fails_at_nu_equals_brute_force(self, g):
        v = eg_fails_at_nu(g)
        tau_is_nu = brute_vertex_cover(g) == v.nu
        assert v.verdict == ("holds" if v.form_a or tau_is_nu else "fails")
        if v.form_a:
            assert (v.form_b, v.tau) == (None, None)
        else:
            assert (v.form_b, v.tau) == (tau_is_nu,
                                         v.nu if tau_is_nu else None)

    @settings(max_examples=200, deadline=None)
    @given(DISJOINT_UNIONS)
    @example(disjoint_union([(3, 0b111), (4, 0b111111), (5, 0b1010011001)]))
    def test_cover_at_most_equals_brute_force(self, g):
        # on a fresh graph, with no exact tau cached to answer it
        tau = brute_vertex_cover(g)
        budget = matching.DEFAULT_VC_NODE_BUDGET
        for k in (tau - 1, tau, tau + 1):
            assert matching._cover_at_most(g, k, budget) == (k >= tau), k

    @settings(max_examples=200, deadline=None)
    @given(GRAPHS_UP_TO_14)
    def test_empty_half_equals_brute_force(self, g):
        expect = brute_independence_number(g) >= (g.n + 1) // 2
        assert has_empty_half(g) == ("yes" if expect else "no", None)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 80), st.sampled_from([3.0, 8.0, 16.0, 32.0]),
           st.integers(0, 2 ** 32), st.integers(0, 2 ** 80 - 1))
    def test_kernel_equals_rescans(self, n, c, seed, keep):
        # the kernel keeps degrees and dominance checks up to date instead
        # of rescanning; it must reduce in the same order.  Dominated
        # vertices need triangles, hence the denser graphs.
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        mask = g.full_mask() & keep
        assert _vc_kernel(g.adj_bits, mask, 3)[:2] == rescan_vc_kernel(
            g.adj_bits, mask, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 80), st.sampled_from([3.0, 8.0, 16.0, 32.0]),
           st.integers(0, 2 ** 32), st.integers(0, 2 ** 80 - 1),
           st.lists(st.integers(0, 79), max_size=8), st.booleans())
    def test_continued_kernel_equals_rescans(self, n, c, seed, keep, picks,
                                             closed):
        # a search node continues its parent's fixpoint after the branched
        # vertices leave: one vertex, or one with its neighbours, or here
        # any live set; it must reduce as a fresh kernel on the child mask
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        adj = g.adj_bits
        mask, _, deg, clean = _vc_kernel(adj, g.full_mask() & keep, 0)
        gone = vset(picks) & mask
        if closed:
            gone |= mask & vset(w for v in vset_members(gone)
                                for w in vset_members(adj[v]))
        child, taken, deg, _ = _vc_kernel(adj, mask, 3, deg, clean, gone)
        assert (child, taken) == rescan_vc_kernel(adj, mask & ~gone, 3)
        assert deg == [(adj[v] & child).bit_count() if child >> v & 1 else 0
                       for v in range(n)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 12),
                              st.sampled_from([0.15, 0.3, 0.5, 0.8]),
                              st.integers(0, 2 ** 32)),
                    min_size=1, max_size=3),
           st.integers(0, 2 ** 36 - 1))
    def test_lp_seed_gives_the_cold_bound(self, blocks, keep):
        # the LP of a union of G(k, p) blocks (so several components, and
        # exposed vertices), seeded from the maximum matching, on the whole
        # graph and on a subset: the same double-cover matching size as a
        # cold start, hence the same bound
        edges, n = [], 0
        for k, p, seed in blocks:
            edges += [(n + u, n + v)
                      for u, v in gen_gnp(GnpParams(k, p, seed)).edge_list()]
            n += k
        g = Graph(n, edges)
        adj, full = g.adj_bits, g.full_mask()
        warm = matching._lp_seed(list(matching._cached_mate(g)), full)
        for mask in (full, full & keep):
            seeded = matching._lp_bound(adj, mask, warm)
            cold = matching._lp_bound(adj, mask)
            assert seeded[0] == cold[0]
            assert seeded[1][3].bit_count() == cold[1][3].bit_count()

    def test_forest_needs_no_search(self):
        # tau = nu is read off the 2-SAT test, so no node is spent
        g = random_forest(2000, 3)
        assert vertex_cover_number(g, node_budget=1) == matching_number(g)

    def test_env_budget_override(self, monkeypatch):
        monkeypatch.setenv("EG_MATCHLAB_BUDGET", "2")
        g = gen_gnp(GnpParams(30, 0.5, 11))
        with pytest.raises(CapabilityError):
            vertex_cover_number(g)

    def test_env_budget_validation(self, monkeypatch):
        monkeypatch.setenv("EG_MATCHLAB_BUDGET", "zero")
        with pytest.raises(InputError):
            vertex_cover_number(Graph(2, [(0, 1)]))

    @pytest.mark.parametrize("budget", [0, -4])
    def test_non_positive_budget_is_input_error(self, budget, monkeypatch):
        with pytest.raises(InputError):
            vertex_cover_number(Graph(1), node_budget=budget)
        monkeypatch.setenv("EG_MATCHLAB_BUDGET", "5")
        with pytest.raises(InputError):
            vertex_cover_number(Graph(1), node_budget=budget)


class TestForest:
    def test_path_is_forest(self):
        assert is_forest(path_graph(3))

    def test_cycle_is_not(self, c5):
        assert not is_forest(c5)

    def test_sparse_gnp_mostly_forest(self):
        hits = sum(is_forest(gen_gnp(GnpParams(1000, 0.0001, seed)))
                   for seed in range(30))
        assert hits >= 28


# the 16 mc-middle1k pool graphs, G(1000, 3/1000) from the master seeds
# trial_seed(0x3DD1E, j): tau and the nodes its search takes
POOL_TAU = [467, 472, 465, 458, 448, 465, 465, 462, 475, 468, 480, 467, 461,
            472, 469, 454]
POOL_NODES = [0, 2, 0, 13, 0, 1, 1, 1, 25, 1, 11, 0, 1, 23, 1, 1]


def pool_graph(j: int) -> Graph:
    return gen_gnp(GnpParams(1000, 3 / 1000,
                             trial_seed(trial_seed(0x3DD1E, j), 0)))


def frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestSearchTree:
    """The branch and bound visits the same nodes in the same order however
    a node's state is computed: node counts, tau and the bounds of a budget
    failure are pinned."""

    @pytest.mark.parametrize("j", range(16))
    def test_middle_pool(self, j):
        nodes = POOL_NODES[j]
        assert vertex_cover_number(pool_graph(j), max(nodes, 1)) \
            == POOL_TAU[j]
        if nodes > 1:                       # a budget is 1 node or more
            with pytest.raises(CapabilityError,
                               match=f"after {nodes - 1} nodes"):
                vertex_cover_number(pool_graph(j), nodes - 1)

    @pytest.mark.parametrize("seed,budget,lower,upper", [
        (1000, 100, 491, 525), (1000, 300, 491, 525), (1001, 300, 487, 527)])
    def test_budget_out_bounds(self, seed, budget, lower, upper):
        g = gen_gnp(GnpParams(1000, 4 / 1000, seed))
        with pytest.raises(CapabilityError,
                           match=f"after {budget} nodes") as err:
            vertex_cover_number(g, budget)
        assert (err.value.lower, err.value.upper) == (lower, upper)

    def test_dive_deeper_than_the_recursion_limit(self):
        # the first dive on this graph is 81 branchings deep; the search
        # keeps its own stack, so a recursion limit 40 frames above this
        # test does not stop it
        g = gen_gnp(GnpParams(400, 6 / 400, 0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frame_depth() + 40)
        try:
            with pytest.raises(CapabilityError) as err:
                vertex_cover_number(g, 200)
        finally:
            sys.setrecursionlimit(limit)
        assert (err.value.lower, err.value.upper) == (200, 239)


def search_outcome(search, adj, best, stop_at, budget, warm, taken=0):
    """What ``search`` gives, or the upper bound of its budget failure,
    with the nodes it counted."""
    counter = [0]
    try:
        got = search(adj, best, stop_at, counter, budget, warm, taken)
    except CapabilityError as exc:
        got = "exceeded", exc.upper
    return got, counter[0]


# G(n, c/n) past the Karp-Sipser threshold, where components fail the
# Konig-Egervary test and the search has a tree to walk
SEARCH_GRAPHS = st.builds(
    lambda n, c, seed: gen_gnp(GnpParams(n, min(1.0, c / n), seed)),
    st.integers(8, 80), st.floats(2.0, 7.0), st.integers(0, 2 ** 32))


def lp_value(adj, mask) -> int:
    return full_width_lp_bound(adj, mask)[0]


def folded_core(g: Graph, verts: np.ndarray) -> tuple[int, list[int]]:
    """(t, rows) of the component on ``verts``: the vertices that leaf
    removal and the fold take, and the rows of what the fold leaves."""
    core, taken = matching._leaf_core(g.adj_lists, verts.tolist(),
                                      [-1] * g.n)
    f, rows, _ = matching._fold_core(matching._core_lists(g.adj_lists, core),
                                     core, matching._cached_mate(g))
    return taken + f, rows


def failing_components(g: Graph) -> list[np.ndarray]:
    """The vertices of each component that fails the Konig-Egervary test,
    in the order of the parts of ``_cover_parts``."""
    mate = matching._cached_mate(g)
    scc = matching._cover_literal_sccs(g.adj_lists, mate, g.support)
    labels = g.component_labels()[1]
    bad = [v for v in g.support if mate[v] != -1 and scc[v] == scc[mate[v]]]
    return [np.flatnonzero(labels == c) for c in np.unique(labels[bad])]


class TestSearchShortcuts:
    """The search checks domination only at triangle vertices, stops an LP
    once it proves the prune and drops a child its parent's bound prunes;
    none of this may change an answer, a node count or a budget failure."""

    @settings(max_examples=150, deadline=None)
    @given(SEARCH_GRAPHS, st.integers(1, 60), st.integers(0, 2 ** 16),
           st.booleans())
    # the two pool graphs whose folded root kernel still removes vertices,
    # by domination
    @example(pool_graph(9), 1, 0, True)
    @example(pool_graph(10), 5, 7, False)
    def test_search_equals_full_width(self, g, budget, pick, warm_start):
        # exact calls, capped decisions (cap + 1, cap) as _cover_at_most
        # makes them, each under a small budget and a large one: the search
        # on each part's folded core with t taken against the full-width
        # search on the same rows
        parts = matching._cover_parts(g)[1]
        comps = failing_components(g)
        assert [p[0] for p in parts] == [len(c) for c in comps]
        for verts, (_, t, rows, lo, hi, lp) in zip(comps, parts):
            assert (t, rows) == folded_core(g, verts)
            warm = lp if warm_start else None
            full_warm = (full_width_lp_bound(rows, (1 << len(rows)) - 1)[1]
                         if warm_start else None)
            cap = lo - 1 + pick % (hi - lo + 2)
            for best, stop_at in ((hi, lo), (hi, 0), (cap + 1, cap)):
                for b in (budget, matching.DEFAULT_VC_NODE_BUDGET):
                    assert search_outcome(matching._vc_search, rows, best,
                                          stop_at, b, warm, t) \
                        == search_outcome(full_width_vc_search, rows, best,
                                          stop_at, b, full_warm, t)

    @settings(max_examples=100, deadline=None)
    @given(SEARCH_GRAPHS, st.integers(1, 60), st.integers(0, 80))
    def test_cover_answers_equal_full_width(self, g, budget, k):
        # tau, the decision tau <= k and the lower/upper bounds of a budget
        # failure, each on a fresh graph, against the full-width search
        def outcomes():
            half = fresh(g)
            try:
                at_most = matching._cover_at_most(half, k, budget)
            except CapabilityError:
                at_most = "exceeded"
            return cover_outcome(fresh(g), budget), at_most

        got = outcomes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching, "_vc_search", full_width_vc_search)
            assert got == outcomes()

    @settings(max_examples=200, deadline=None)
    @given(SEARCH_GRAPHS, st.integers(0, 2 ** 80 - 1), st.integers(0, 2),
           st.integers(1, 45))
    def test_lp_stops_only_where_the_full_bound_prunes(self, g, keep, start,
                                                       need):
        # cold, seeded from the maximum matching, or warm from the full
        # mask's LP; the bound reaches ``need`` exactly when ceil(LP) does
        # and equals it below, and it comes with a matching of the double
        # cover of the graph on ``mask``
        adj, full = g.adj_bits, g.full_mask()
        warm = [None, matching._lp_seed(list(matching._cached_mate(g)), full),
                matching._lp_bound(adj, full)[1]][start]
        mask = full & keep
        value = lp_value(adj, mask)
        assert matching._lp_bound(adj, mask, warm)[0] == value
        bound, (at, left, right, lmask, rmask) = matching._lp_bound(
            adj, mask, warm, need)
        assert (bound >= need) == (value >= need)
        assert bound <= value
        if value < need:
            assert bound == value
        assert at == mask and lmask.bit_count() in (2 * bound - 1, 2 * bound)
        pairs = [(u, r) for u, r in enumerate(left) if r != -1]
        assert vset(u for u, _ in pairs) == lmask
        assert vset(r for _, r in pairs) == rmask
        assert all(right[r] == u and mask >> u & 1 and adj[u] >> r & 1
                   for u, r in pairs)

    @settings(max_examples=200, deadline=None)
    @given(SEARCH_GRAPHS, st.lists(st.tuples(st.integers(0, 79),
                                             st.booleans()), max_size=40))
    def test_bound_never_falls_along_a_path(self, g, path):
        # taken + ceil(LP) from a node to its child, either branch on any
        # live vertex: what dropping a child on its parent's bound rests on
        adj = g.adj_bits
        mask, taken, deg, clean = _vc_kernel(adj, g.full_mask(), 0)
        reach = taken + lp_value(adj, mask)
        for pick, closed in path:
            if not mask:
                break
            v = vset_members(mask)[pick % mask.bit_count()]
            gone = (1 << v) | (adj[v] & mask if closed else 0)
            mask, taken, deg, clean = _vc_kernel(
                adj, mask, taken + (deg[v] if closed else 1), deg, clean, gone)
            child = taken + lp_value(adj, mask)
            assert child >= reach
            reach = child

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 300), st.floats(0.2, 6.0), st.integers(0, 2 ** 32),
           st.integers(0, 2 ** 300 - 1))
    def test_2sat_pass_equals_generator_pass(self, n, c, seed, keep):
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        mate = matching._cached_mate(g)
        for roots in (g.support, [v for v in g.support if keep >> v & 1]):
            assert matching._cover_literal_sccs(g.adj_lists, mate, roots) \
                == generator_cover_literal_sccs(g.adj_lists, mate, roots)

    @pytest.mark.parametrize("j", range(16))
    def test_2sat_pass_on_the_middle_pool(self, j):
        g = pool_graph(j)
        mate = matching._cached_mate(g)
        assert matching._cover_literal_sccs(g.adj_lists, mate, g.support) \
            == generator_cover_literal_sccs(g.adj_lists, mate, g.support)


def fresh(g: Graph) -> Graph:
    """A copy of ``g`` with nothing cached."""
    return Graph(g.n, g.edge_array())


def cover_outcome(g: Graph, budget: int):
    """vertex_cover_number(g, budget), or the bounds of its budget failure."""
    try:
        return vertex_cover_number(g, budget)
    except CapabilityError as exc:
        return "exceeded", exc.lower, exc.upper


# G(n, c/n) from below the Karp-Sipser threshold e/n to well above it
CORE_GRAPHS = st.builds(
    lambda n, c, seed: gen_gnp(GnpParams(n, min(1.0, c / n), seed)),
    st.integers(8, 200), st.floats(0.8, 7.0), st.integers(0, 2 ** 32))


class TestCoreReduction:
    """Each failing component is cut to its leaf-removal core and folded
    before any bitmask row is built; the core and its count must be leaf
    removal's in any order, t + tau(rows) the whole component's tau, the
    root bound at least its LP bound, and the greedy bound its own."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(SEARCH_GRAPHS, CORE_GRAPHS), st.integers(0, 2 ** 32))
    def test_core_pipeline_equals_full_width(self, g, order_seed):
        mate = matching._cached_mate(g)
        parts = matching._cover_parts(g)[1]
        comps = failing_components(g)
        assert [p[0] for p in parts] == [len(c) for c in comps]
        for verts, (n_c, t, rows, lo, hi, _) in zip(comps, parts):
            core, taken = matching._leaf_core(g.adj_lists, verts.tolist(),
                                              [-1] * g.n)
            assert core
            # the same core and count in a random removal order
            assert random_order_leaf_core(g.adj_lists, verts.tolist(),
                                          order_seed) == (core, taken)
            assert (t, rows) == folded_core(g, verts)
            assert t >= taken and all(row.bit_count() >= 3 for row in rows)
            # exact for tau, and the root bound is at least the LP bound of
            # the whole component
            full = induced_adjacency(g, verts)
            alive = (1 << n_c) - 1
            budget = matching.DEFAULT_VC_NODE_BUDGET
            assert full_width_vc_search(rows, n_c + 1, 0, [0], budget, None,
                                        t) \
                == milp_vertex_cover(component_graph(g, vset(verts.tolist())))
            root = t + lp_value(rows, (1 << len(rows)) - 1)
            assert root >= full_width_lp_bound(full, alive)[0]
            nu_c = sum(mate[v] != -1 for v in verts.tolist()) // 2
            assert lo == max(nu_c + 1, root)
            assert hi == matching._greedy_cover(g.adj_lists, verts.tolist()) \
                == rows_greedy_cover(full, alive)

    def test_root_bound_counts_the_taken_vertices(self):
        # a hub joined to one corner of each of five triangles, and a leaf
        # at a second corner of the first: leaf removal takes 2 vertices,
        # the fold 8 more (the two free corners of each of the four other
        # triangles), and nothing is left; so the root bound t = 10 beats
        # nu_c + 1 = 8
        edges = [(1, 16)]
        for a in range(1, 16, 3):
            edges += [(0, a), (a, a + 1), (a + 1, a + 2), (a, a + 2)]
        g = Graph(17, edges)
        (part,) = matching._cover_parts(g)[1]
        assert (part[0], part[1], len(part[2]), part[3]) == (17, 10, 0, 10)
        assert matching_number(g) == 7 and vertex_cover_number(g) == 10

    def test_decision_solves_smaller_components_first(self, monkeypatch):
        # a triangle with a 2-path hanging off it (5 vertices, folded to
        # nothing) and a K4 (4 vertices, left as it is): the decision solves
        # the K4 exactly first, ordered by component size, not by the
        # width of the rows
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        edges += [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
        widths = []
        original = matching._vc_search
        monkeypatch.setattr(matching, "_vc_search",
                            lambda rows, *a: widths.append(len(rows))
                            or original(rows, *a))
        assert matching._cover_at_most(Graph(9, edges), 6, 100)
        assert widths == [4, 0]


# two triangles joined through a vertex that carries a pendant leaf: leaf
# removal takes the joint, and the core falls apart into the two triangles
TWO_TRIANGLES_JOINED = Graph(8, TRIANGLE + [(3, 4), (4, 5), (3, 5), (2, 6),
                                            (3, 6), (6, 7)])
# a triangle with a pendant 2-path: leaf removal pairs 3 with the leaf 4,
# so corner 2 is exposed inside the core
TRIANGLE_PATH2 = Graph(5, TRIANGLE + [(2, 3), (3, 4)])


def split_fields(split: tuple) -> tuple:
    """The known sum of a split, and per part n_c, the greedy bound and
    tau, each part solved exactly by the library's search."""
    known, parts = split
    budget = matching.DEFAULT_VC_NODE_BUDGET
    return known, [(n_c, hi, matching._vc_search(rows, hi + 1, 0, [0], budget,
                                                 lp, t))
                   for n_c, t, rows, _, hi, lp in parts]


def relabelled_mate(g: Graph, seed: int) -> list[int]:
    """A maximum matching of ``g`` as a mate array: the cached one of a
    copy with its vertex ids shuffled, mapped back."""
    perm = np.random.default_rng(seed).permutation(g.n)
    mate = matching._cached_mate(Graph(g.n, perm[g.edge_array()]))
    back = np.argsort(perm).tolist()
    return [-1 if mate[perm[v]] == -1 else back[mate[perm[v]]]
            for v in range(g.n)]


class TestCoreDecision:
    """The Konig-Egervary pass runs on the leaf-removal core of the
    components with a cycle, with the cached mate restricted to it; the
    split must be the whole-component split, part for part, in every field
    the fold leaves alone: the known sum, which components fail, their
    sizes, the greedy bounds and each part's tau."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(SEARCH_GRAPHS, CORE_GRAPHS))
    @example(TWO_TRIANGLES_JOINED)
    @example(TRIANGLE_PATH2)
    def test_split_equals_whole_component_split(self, g):
        assert split_fields(matching._cover_parts(fresh(g))) \
            == split_fields(whole_component_cover_parts(fresh(g)))

    @pytest.mark.parametrize("j", range(16))
    def test_split_on_the_middle_pool(self, j):
        assert split_fields(matching._cover_parts(pool_graph(j))) \
            == split_fields(whole_component_cover_parts(pool_graph(j)))

    def test_core_in_two_pieces(self):
        # t = 1 (the joint) for the whole component, whose core is two
        # triangles, each failing; the fold takes two corners of each, so
        # t = 5 with nothing left, and the root bound is 5 > nu_c + 1 = 4
        g = fresh(TWO_TRIANGLES_JOINED)
        (part,) = matching._cover_parts(g)[1]
        assert (part[0], part[1], len(part[2]), part[3]) == (8, 5, 0, 5)
        assert matching_number(g) == 3 and vertex_cover_number(g) == 5

    def test_core_vertex_left_exposed_by_leaf_removal(self):
        # leaf removal pairs 4 with 3, so corner 2 is exposed and the
        # matching stays inside the triangle and inside the tail; the fold
        # takes two corners of the triangle, t = 3 with nothing left
        g = fresh(TRIANGLE_PATH2)
        assert matching._cached_mate(g) == (1, 0, -1, 4, 3)
        (part,) = matching._cover_parts(g)[1]
        assert (part[0], part[1], len(part[2]), part[3]) == (5, 3, 0, 3)
        assert vertex_cover_number(g) == 3

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 18), st.floats(0.8, 7.0), st.integers(0, 2 ** 32),
           st.integers(0, 2 ** 32))
    def test_mate_inside_the_core_is_maximum(self, n, c, seed, perm_seed):
        # the cached matching and a second maximum matching, each cut to
        # the core: nu - t pairs, and no augmenting path in the core
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        if not g.support:
            return
        core, t = matching._leaf_core(g.adj_lists, g.support, [-1] * g.n)
        local = {v: i for i, v in enumerate(core)}
        h = Graph(len(core), [(local[u], local[v]) for u, v in g.edge_list()
                              if u in local and v in local])
        for mate in (matching._cached_mate(g), relabelled_mate(g, perm_seed)):
            pairs = [(local[u], local[mate[u]]) for u in core
                     if mate[u] > u and mate[u] in local]
            assert len(pairs) == matching_number(g) - t
            assert not has_augmenting_path(h, pairs)


@st.composite
def odd_cycles_with_pendant_trees(draw) -> Graph:
    """One to three odd cycles, each joined to the one before by an edge or
    not, with trees hung on them: each new vertex joins an earlier one."""
    edges, n = [], 0
    for length in draw(st.lists(st.sampled_from([3, 5, 7]), min_size=1,
                                max_size=3)):
        if n and draw(st.booleans()):
            edges.append((draw(st.integers(0, n - 1)), n))
        edges += [(n + i, n + (i + 1) % length) for i in range(length)]
        n += length
    for pick in draw(st.lists(st.integers(0, 2 ** 20), max_size=20)):
        edges.append((pick % n, n))
        n += 1
    return Graph(n, edges)


@st.composite
def gnp_with_cherries(draw) -> Graph:
    """G(n, c/n) with a cherry, two new leaves, on some of its vertices."""
    n = draw(st.integers(1, 25))
    g = gen_gnp(GnpParams(n, min(1.0, draw(st.floats(0.5, 7.0)) / n),
                          draw(st.integers(0, 2 ** 32))))
    edges = g.edge_list()
    for v in draw(st.lists(st.integers(0, n - 1), max_size=5, unique=True)):
        edges += [(v, n), (v, n + 1)]
        n += 2
    return Graph(n, edges)


LEAFY_GRAPHS = st.one_of(
    odd_cycles_with_pendant_trees(), gnp_with_cherries(),
    st.builds(lambda n, c, seed: gen_gnp(GnpParams(n, min(1.0, c / n), seed)),
              st.integers(1, 40), st.floats(0.5, 7.0),
              st.integers(0, 2 ** 32)))

# a 5-cycle with a pendant path 0-5-6: leaf removal pairs 5 with 6, and
# the failed search from 4 contracts the cycle, which makes 0 even, so a
# search on the whole adjacency would go on to 5 and 6
C5_PENDANT = Graph(7, cycle(5).edge_list() + [(0, 5), (5, 6)])


def leafless(g: Graph) -> Graph:
    """``g`` cut to the edges of its Karp-Sipser core, on the same ids."""
    if not g.support:
        return g
    core = set(matching._leaf_core(g.adj_lists, g.support, [-1] * g.n)[0])
    return Graph(g.n, [(u, v) for u, v in g.edge_list()
                       if u in core and v in core])


class TestLeafRemovalMatching:
    """The maximum matching pairs each leaf of the leaf-removal pass with
    its neighbour and searches only the core that the pass leaves."""

    def test_tree_takes_leaf_pairs_alone(self):
        # leaves 0, 2, 4, removed from the top of the stack: 4 pairs with
        # 3, then 2 with 1, and 0 is left with no neighbour
        g = Graph(5, TREE5)
        assert matching._cached_matching(g)[:3] == ((-1, 2, 1, 4, 3), 2, [])

    @settings(max_examples=300, deadline=None)
    @given(LEAFY_GRAPHS)
    @example(path_graph(5))
    @example(C5_PENDANT)
    @example(TRIANGLE_PATH2)
    def test_maximum_and_split_at_the_core(self, g):
        mate = matching._cached_mate(g)
        pairs = max_matching(g).pairs
        assert all(mate[w] == u and g.has_edge(u, w)
                   for u, w in enumerate(mate) if w != -1)
        assert matching_number(g) == len(pairs) == tutte_matching_number(g)
        assert certified(g, tutte_berge_witness(g))
        core = matching._cached_matching(g)[2]
        assert core == (matching._leaf_core(g.adj_lists, g.support,
                                            [-1] * g.n)[0]
                        if g.support else [])
        in_core = set(core)
        assert all((u in in_core) == (w in in_core) for u, w in pairs)

    @settings(max_examples=150, deadline=None)
    @given(LEAFY_GRAPHS)
    @example(C5_PENDANT)
    def test_core_searches_read_only_the_core(self, g):
        read = set()
        original = matching._alternating_forest

        class Recorded(list):
            def __getitem__(self, v):
                read.add(v)
                return list.__getitem__(self, v)

        def recorded(roots, adj, *labels):
            return original(roots, Recorded(adj), *labels)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching, "_alternating_forest", recorded)
            core = matching._cached_matching(fresh(g))[2]
        assert read <= set(core)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.builds(lambda n, c, seed: leafless(
            gen_gnp(GnpParams(n, min(1.0, c / n), seed))),
            st.integers(3, 60), st.floats(2.0, 20.0), st.integers(0, 2 ** 32)),
        st.sampled_from(BLOSSOM_GRAPHS)))
    def test_leafless_graph_takes_the_first_fit_path(self, g):
        # no copy of the adjacency, and the pairs of first fit and the
        # ascending searches over the whole support
        g = fresh(g)
        assert matching._cached_matching(g)[3] is g.adj_lists
        assert list(matching._cached_mate(g)) == first_fit_augmenting_mate(g)


@st.composite
def subdivided_gnp(draw) -> Graph:
    """G(n, c/n) with some of its edges subdivided: each edge uv becomes,
    with probability q, a path from u to v through 1 or 2 new vertices."""
    n = draw(st.integers(4, 40))
    g = gen_gnp(GnpParams(n, min(1.0, draw(st.floats(2.0, 8.0)) / n),
                          draw(st.integers(0, 2 ** 32))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    q = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    edges = []
    for u, v in g.edge_list():
        k = int(rng.integers(1, 3)) if rng.random() < q else 0
        walk = [u, *range(n, n + k), v]
        n += k
        edges += zip(walk, walk[1:])
    return Graph(n, edges)


@st.composite
def cycles_with_chords(draw) -> Graph:
    """A cycle on 3 to 30 vertices with up to n/2 chords."""
    n = draw(st.integers(3, 30))
    ends = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(ends, ends), max_size=n // 2))
    return Graph(n, cycle(n).edge_list()
                 + [(a, b) for a, b in chords if a != b])


# graphs rich in degree-2 vertices, where the fold has work to do
FOLD_GRAPHS = st.one_of(subdivided_gnp(), cycles_with_chords(),
                        odd_cycles_with_pendant_trees())


def graph_of(near: dict[int, set[int]]) -> Graph:
    """The graph of the neighbour sets ``near``, renumbered in ascending
    order; each set must be free of its own vertex and symmetric."""
    ids = {v: i for i, v in enumerate(sorted(near))}
    assert all(v not in nv and all(v in near[w] for w in nv)
               for v, nv in near.items())
    return Graph(len(ids), [(ids[v], ids[w]) for v, nv in near.items()
                            for w in nv if v < w])


class TestFold:
    """Each failing core is folded at degree 2 before branch and bound:
    every rule must be exact for tau, and so must every answer built on
    the folded rows."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(FOLD_GRAPHS, SEARCH_GRAPHS))
    @example(TWO_TRIANGLES_JOINED)
    @example(cycle(9))
    def test_tau_and_every_decision_equal_milp(self, g):
        tau = milp_vertex_cover(g)
        if g.n <= 14:
            assert brute_vertex_cover(g) == tau
        assert vertex_cover_number(fresh(g)) == tau
        h = fresh(g)                        # no exact tau cached on it
        budget = matching.DEFAULT_VC_NODE_BUDGET
        for k in range(g.n + 1):
            assert matching._cover_at_most(h, k, budget) == (k >= tau), k

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(FOLD_GRAPHS, SEARCH_GRAPHS), st.integers(1, 6))
    def test_budget_out_bounds_hold(self, g, budget):
        tau = milp_vertex_cover(g)
        got = cover_outcome(fresh(g), budget)
        if got != tau:
            _, lower, upper = got
            assert lower <= tau <= upper

    @settings(max_examples=200, deadline=None)
    @given(FOLD_GRAPHS, st.lists(st.integers(0, 2 ** 16), min_size=1,
                                 max_size=6))
    def test_each_step_is_exact(self, g, picks):
        # any vertex of degree 2 or less, in any order, not only the
        # order of _fold_core: tau(G) = taken + tau(G') at every step, a
        # fold takes 1, merging w's edges into u, and what is left of the
        # cached matching stays a matching
        near = {v: set(g.adj_lists[v]) for v in g.support}
        mate = matching._cached_mate(g)
        pair = {v: mate[v] for v in g.support if mate[v] != -1}
        tau = milp_vertex_cover(g)
        for pick in picks:
            low = sorted(v for v, nv in near.items() if len(nv) <= 2)
            if not low:
                break
            v = low[pick % len(low)]
            nv = sorted(near[v])
            folds = len(nv) == 2 and nv[1] not in near[nv[0]]
            if folds:
                u, w = nv
                merged = (near[u] | near[w]) - {v}
            taken = matching._fold_step(near, pair, v, [])
            assert all(pair[pair[x]] == x and pair[x] in near[x]
                       for x in pair)
            after = milp_vertex_cover(graph_of(near))
            assert tau == taken + after
            if folds:
                assert taken == 1 and near[u] == merged
                assert v not in near and w not in near
            tau = after

    @settings(max_examples=200, deadline=None)
    @given(FOLD_GRAPHS)
    def test_fixpoint_has_no_vertex_of_degree_two(self, g):
        # the rows of what is left: symmetric, every degree 3 or more, and
        # tau = f + tau(rows); the pairs are a matching of them
        if not g.support:
            return
        f, rows, pairs = matching._fold_core(g.adj_lists, g.support,
                                             matching._cached_mate(g))
        assert all(row >> i & 1 == 0 and row.bit_count() >= 3
                   and all(rows[j] >> i & 1 for j in vset_members(row))
                   for i, row in enumerate(rows))
        assert len(pairs) == len(rows)
        assert all(j == -1 or (pairs[j] == i and rows[i] >> j & 1)
                   for i, j in enumerate(pairs))
        rest = Graph(len(rows), [(i, j) for i, row in enumerate(rows)
                                 for j in vset_members(row) if i < j])
        assert f + milp_vertex_cover(rest) == milp_vertex_cover(g)


def random_maximal_matching(g: Graph, seed: int) -> list[int]:
    """A mate array: the edges of ``g`` in a random order, each taken when
    both its ends are still free."""
    match = [-1] * g.n
    for u, v in np.random.default_rng(seed).permutation(g.edge_array()):
        if match[u] == match[v] == -1:
            match[u], match[v] = int(v), int(u)
    return match


class TestUnionFindSearch:
    """From the same matching and roots, the union-find blossom search
    augments as the relabel-all search did and returns the same even
    vertices, in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.sampled_from([1.0, math.e, 5.0, 20.0]),
           st.integers(0, 2 ** 32), st.booleans())
    def test_single_root_searches_equal_relabel_all(self, n, c, seed,
                                                    first_fit):
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        adj = g.adj_lists
        if first_fit:
            match = [-1] * n
            matching._first_fit(adj, g.support, match)
        else:
            match = random_maximal_matching(g, seed)
        labels = matching._fresh_labels(n)
        old_labels = matching._fresh_labels(n)
        for root in g.support:
            if match[root] == -1:
                want = match[:]
                even = relabel_all_alternating_forest([root], adj, want,
                                                      *old_labels)
                assert matching._alternating_forest(
                    [root], adj, match, *labels) == even
                assert match == want
        assert labels == matching._fresh_labels(n)   # every label reset

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.sampled_from([1.0, math.e, 5.0, 20.0]),
           st.integers(0, 2 ** 32))
    def test_forest_on_a_maximum_matching_equals_relabel_all(self, n, c,
                                                             seed):
        # the witness search: every exposed vertex of the support a root
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        mate = list(matching._cached_mate(g))
        roots = [v for v in g.support if mate[v] == -1]
        want = mate[:]
        even = relabel_all_alternating_forest(roots, g.adj_lists, want,
                                              *matching._fresh_labels(n))
        assert matching._alternating_forest(
            roots, g.adj_lists, mate, *matching._fresh_labels(n)) == even
        assert mate == want == list(matching._cached_mate(g))


class TestTriangleKernel:
    """The dominated-vertex rule looks only at the vertices on a triangle
    of the root's rows; the kernel and the search must come out as
    before."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([2.0, 4.0, 8.0, 16.0]),
           st.integers(0, 2 ** 32))
    def test_triangle_mask_equals_brute_force(self, n, c, seed):
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        adj = g.adj_bits
        want = vset(v for trio in itertools.combinations(range(n), 3)
                    if all(adj[a] >> b & 1
                           for a, b in itertools.combinations(trio, 2))
                    for v in trio)
        assert matching._triangle_mask(adj) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.sampled_from([3.0, 8.0, 16.0, 32.0]),
           st.integers(0, 2 ** 32),
           st.lists(st.tuples(st.lists(st.integers(0, 59), min_size=1,
                                       max_size=4), st.booleans()),
                    max_size=30))
    def test_kernel_along_a_path(self, n, c, seed, path):
        # from the root, a random set of live vertices leaves at each step,
        # with or without its neighbours: the kernel with the triangle mask
        # and without it agree on the mask, the taken count, the degrees
        # and the clean bits of the triangle vertices
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        adj = g.adj_bits
        tri = matching._triangle_mask(adj)
        plain = _vc_kernel(adj, g.full_mask(), 0)
        fast = _vc_kernel(adj, g.full_mask(), 0, tri=tri)
        for picks, closed in [((), False)] + path:
            if picks:
                mask, taken = plain[0], plain[1] + 1
                if not mask:
                    break
                live = vset_members(mask)
                gone = vset(live[i % len(live)] for i in picks)
                if closed:
                    gone |= mask & vset(w for v in vset_members(gone)
                                        for w in vset_members(adj[v]))
                plain = _vc_kernel(adj, mask, taken, plain[2][:], plain[3],
                                   gone)
                fast = _vc_kernel(adj, mask, taken, fast[2][:], fast[3],
                                  gone, tri)
            assert fast[:3] == plain[:3]
            assert fast[3] & tri == plain[3] & tri

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(SEARCH_GRAPHS, st.builds(
        lambda n, c, seed, isolated: Graph(
            n + isolated, gen_gnp(GnpParams(n, min(1.0, c / n), seed))
            .edge_list()),
        st.integers(3, 40), st.floats(1.0, 16.0), st.integers(0, 2 ** 32),
        st.integers(0, 2))), st.integers(1, 60))
    @example(Graph(6, cycle(5).edge_list()), 60)
    @example(cycle(7), 60)
    def test_whole_rows_match_full_width(self, g, budget):
        # whole rows, so the root kernel may drop isolated vertices, take
        # leaves' neighbours and dominating vertices, or remove nothing:
        # the search matches the full-width search node for node
        adj = g.adj_bits
        assert search_outcome(matching._vc_search, adj, g.n + 1, 0, budget,
                              None) \
            == search_outcome(full_width_vc_search, adj, g.n + 1, 0, budget,
                              None)


class TestMilpOracle:
    """tau past the reach of brute force, against an integer program."""

    def test_sparse_graphs_up_to_40(self):
        for seed in range(200):
            n = 15 + seed % 26
            g = gen_gnp(GnpParams(n, 3.5 / n, trial_seed(0x4D1F, seed)))
            tau = milp_vertex_cover(g)
            assert vertex_cover_number(fresh(g)) == tau, seed
            budget = matching.DEFAULT_VC_NODE_BUDGET
            assert not matching._cover_at_most(fresh(g), tau - 1, budget)
            assert matching._cover_at_most(fresh(g), tau, budget)


class TestOncePerGraph:
    """The maximum matching and the Konig-Egervary split are computed once
    per graph, read-only, and the cached tau answers only what a search
    within the caller's budget would.  Each pass pays for the edges and the
    non-isolated vertices, not for n."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"_maximum_mate": 0, "_cover_parts": 0}
        for name in counts:
            original = getattr(matching, name)

            def counted(g, name=name, original=original):
                counts[name] += 1
                return original(g)

            monkeypatch.setattr(matching, name, counted)
        return counts

    @pytest.mark.parametrize("regime,extra", [
        ("forest", {}), ("middle", {"p_explicit": 0.015})])
    def test_one_trial(self, calls, regime, extra):
        spec = RegimeSpec(n=200, p_rule=regime, trials=1, master_seed=9,
                          **extra)
        (rec,), _ = run_trials(spec)
        assert rec.tau is not None
        assert calls == {"_maximum_mate": 1, "_cover_parts": 1}

    def test_certify_verify(self, calls, capsys, tmp_path):
        # two isolated 3-paths and a K5, on which tau = 4 > nu = 2
        blob = [(6 + u, 6 + v) for u in range(5) for v in range(u + 1, 5)]
        g = Graph(11, [(0, 1), (1, 2), (3, 4), (4, 5)] + blob)
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        assert cli.main(["certify", str(path), "--verify"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["certificate_present"]
        assert obj["direct_check"]["tau"] is None
        assert calls == {"_maximum_mate": 1, "_cover_parts": 1}

    def test_tau_eq_nu_takes_no_search(self, monkeypatch, capsys, tmp_path):
        # every budget is one node, yet nothing runs out: the split decides
        # tau = nu, and on two 3-paths and a triangle the root bounds alone
        # show the empty half-set
        searches = []
        original = matching._vc_search
        monkeypatch.setattr(matching, "_vc_search",
                            lambda *a: searches.append(1) or original(*a))
        monkeypatch.setenv(matching.BUDGET_ENV_VAR, "1")
        big = eg_fails_at_nu(gen_gnp(GnpParams(3000, 0.001, 1000)))
        assert (big.verdict, big.form_b, big.tau) == ("fails", False, None)
        g = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), (6, 8)])
        path = tmp_path / "g.txt"
        path.write_text(g.to_edge_list_text())
        assert cli.main(["certify", str(path), "--verify"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["reason"] == "an empty half-set exists"
        assert obj["direct_check"] == {"nu": 3, "tau": None,
                                       "verdict": "fails"}
        assert searches == []

    @pytest.fixture
    def scc_roots(self, monkeypatch):
        """The roots of every 2-SAT pass, one list per pass."""
        passes = []
        original = matching._cover_literal_sccs

        def recorded(adj, mate, roots):
            passes.append(list(roots))
            return original(adj, mate, roots)

        monkeypatch.setattr(matching, "_cover_literal_sccs", recorded)
        return passes

    def test_forest_trial_takes_no_2sat_pass(self, scc_roots):
        spec = RegimeSpec(n=5000, p_rule="forest", trials=1, master_seed=1,
                          forest_c=0.1)
        (rec,), _ = run_trials(spec)
        assert rec.is_forest and rec.tau_eq_nu == "yes"
        assert scc_roots == []

    def test_2sat_pass_rooted_in_cyclic_components(self, scc_roots):
        # trees, a triangle and isolated vertices, interleaved
        g = mixed_graph([TREE5, STAR4, TRIANGLE, PATH3], 5, 7)
        triangle = sorted(v for v in g.support if len(g.adj_lists[v]) == 2
                          and g.has_edge(*g.adj_lists[v]))
        mate = matching._cached_mate(g)
        assert len(triangle) == 3
        assert vertex_cover_number(g) == matching_number(g) + 1
        assert scc_roots == [[v for v in triangle if mate[v] != -1]]
        assert len(scc_roots[0]) == 2

    def test_2sat_pass_rooted_only_in_the_core(self, scc_roots):
        # a triangle with a pendant tree at corner 2: leaf removal pairs
        # the tree's inner vertices 3 and 5 with its leaves 4 and 6, so
        # the pass runs on the triangle alone, rooted at its corners
        # matched inside it; the tree's matched vertices, and corner 2,
        # left exposed, are no roots
        g = Graph(7, TRIANGLE + [(2, 3), (3, 4), (3, 5), (5, 6)])
        mate = matching._cached_mate(g)
        assert [mate[v] for v in (2, 3, 4, 5, 6)] == [-1, 4, 3, 6, 5]
        assert vertex_cover_number(g) == matching_number(g) + 1 == 4
        assert scc_roots == [[0, 1]]

    def test_one_incidence_index(self, monkeypatch):
        # the arc keys are sorted once per graph, whichever of the
        # adjacency views and counts read the index, and in what order
        builds = []
        original = Graph._build_incidence
        monkeypatch.setattr(Graph, "_build_incidence",
                            lambda g: builds.append(g) or original(g))
        g = gen_gnp(GnpParams(400, 0.05, 3))
        g.adj_bits
        g.adj_lists
        g.support
        g.degrees_into(np.arange(g.n) < 3)
        assert len(builds) == 1
        h = gen_gnp(GnpParams(400, 0.05, 4))
        h.adj_lists
        h.adj_bits
        assert builds == [g, h]
        for arr in g._incidence():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_rows_share_one_int_per_vertex(self):
        # every row naming a vertex holds the one int of ``support``
        g = gen_gnp(GnpParams(2000, 0.01, 8))
        ids = {id(v) for v in g.support}
        assert {id(w) for row in g.adj_lists for w in row} == ids
        assert len(ids) == len(g.support)

    def test_isolated_vertices_share_one_row(self):
        g = mixed_graph([TREE5, TRIANGLE, C4], 6, 3)
        rows = g.adj_lists
        assert len(g.support) == g.n - 6
        assert len({id(row) for row in rows}) == len(g.support) + 1
        assert g.support == [v for v in range(g.n) if rows[v]]

    @settings(max_examples=200, deadline=None)
    @given(GRAPHS_UP_TO_14, st.lists(st.integers(0, 3), max_size=15))
    def test_isolated_padding_changes_nothing(self, g, gaps):
        # gaps[v] isolated vertices go in before vertex v (gaps[n]: after
        # the last), a monotone relabelling; the padded graph must give
        # the unpadded results, mapped
        gaps = (gaps + [0] * (g.n + 1))[:g.n + 1]
        where = [v + sum(gaps[:v + 1]) for v in range(g.n)]
        h = Graph(g.n + sum(gaps),
                  [(where[u], where[v]) for u, v in g.edge_list()])
        assert h.support == [where[v] for v in g.support]
        assert max_matching(h).pairs == tuple(
            (where[u], where[v]) for u, v in max_matching(g).pairs)
        wg, wh = tutte_berge_witness(g), tutte_berge_witness(h)
        assert wh.s_set == vset(where[v] for v in vset_members(wg.s_set))
        assert wh.deficiency == wg.deficiency + sum(gaps)
        cover = konig_egervary(g)
        assert konig_egervary(h) == (None if cover is None
                                     else [where[v] for v in cover])
        (known_g, parts_g), (known_h, parts_h) = (
            matching._cover_parts(g), matching._cover_parts(h))
        assert known_h == known_g
        assert [p[:5] for p in parts_h] == [p[:5] for p in parts_g]
        assert vertex_cover_number(h) == vertex_cover_number(g)

    def test_cached_mate_is_read_only(self, petersen):
        g = fresh(petersen)
        pairs = max_matching(g).pairs
        mate = matching._cached_mate(g)
        tutte_berge_witness(g)
        assert matching._cached_mate(g) is mate
        assert tuple(sorted((u, w) for u, w in enumerate(mate) if w > u)) \
            == pairs
        with pytest.raises(TypeError):
            mate[0] = -1

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 60), st.floats(2.0, 6.0), st.integers(0, 2 ** 32),
           st.integers(1, 40), st.integers(1, 40), st.booleans())
    def test_budgets_as_on_fresh_graphs(self, n, c, seed, b1, b2,
                                        cover_first):
        g = gen_gnp(GnpParams(n, min(1.0, c / n), seed))
        want = cover_outcome(fresh(g), b1), has_empty_half(fresh(g), b2)
        if cover_first:
            got_cover = cover_outcome(g, b1)
            got_half = has_empty_half(g, b2)
        else:
            got_half = has_empty_half(g, b2)
            got_cover = cover_outcome(g, b1)
        assert (got_cover, got_half) == want
        # a tau cached under budget b1 must not answer under budget b2
        assert cover_outcome(g, b2) == cover_outcome(fresh(g), b2)
