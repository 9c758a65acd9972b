import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eg_matchlab.errors import InputError
from eg_matchlab import graph_core
from eg_matchlab.decomposition import (_components, _kept_edges,
                                       decomposition_size)
from eg_matchlab.moves import _in_block_degrees
from eg_matchlab.graph_core import (Graph, GnpParams, gen_gnp, philox_rng,
                                   vset, vset_of)

from conftest import complete_graph, path_graph
from test_decomposition import random_decomposition
from oracles import (canonical_edges_by_unique, components_by_union_find,
                     degree_into, induced_adjacency, labels_from_components,
                     pair_of_index)


def small_graphs():
    """Hypothesis strategy: a graph on up to 9 vertices."""
    return st.integers(1, 9).flatmap(
        lambda n: st.builds(
            Graph,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] != e[1]),
                max_size=24,
            ),
        )
    )


class TestConstruction:
    def test_dedupes_and_canonicalizes(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edge_list() == [(0, 1), (1, 2)]
        assert g.m == 2

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
               st.just(n),
               st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda e: e[0] != e[1]), max_size=80))),
           st.booleans(), st.booleans(), st.booleans())
    def test_edge_array_matches_unique_oracle(self, n_edges, mirror, presort,
                                              as_array):
        n, edges = n_edges
        if mirror:                  # every edge again, in both orientations
            edges = edges + [(v, u) for u, v in edges] + edges
        if presort:
            edges = sorted((min(e), max(e)) for e in edges)
        arg = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
        got = Graph(n, arg)._edges
        want = canonical_edges_by_unique(n, edges)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("source", ["list", "array", "gnp"])
    def test_column_layout_keeps_every_view(self, source):
        # the edge array is stored by columns; its values, bytes, hash,
        # equality and text forms are those of the row-major canonical array
        g = gen_gnp(GnpParams(60, 0.2, 5))
        rows = canonical_edges_by_unique(60, g.edge_list())
        if source == "list":
            g = Graph(60, [(v, u) for u, v in rows.tolist()])
        elif source == "array":
            g = Graph(60, rows[::-1].copy())
        edges = g.edge_array()
        assert edges[:, 0].flags.c_contiguous
        assert edges[:, 1].flags.c_contiguous
        assert edges.dtype == rows.dtype and np.array_equal(edges, rows)
        assert edges.tobytes() == rows.tobytes()
        assert hash(g) == hash((60, rows.tobytes()))
        assert g == Graph(60, rows) and g != Graph(60, rows[1:])
        assert g.edge_list() == [tuple(e) for e in rows.tolist()]
        assert g.to_edge_list_text() == "".join(
            [f"60 {len(rows)}\n"] + [f"{u} {v}\n" for u, v in rows.tolist()])

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("edges", [
        [(0.5, 1.7)], [(0, 1.0)], np.array([[0.0, 1.0]]),
        np.array([[True, False]])], ids=["floats", "mixed", "float-array",
                                         "bool-array"])
    def test_rejects_non_integer_endpoints(self, edges):
        with pytest.raises(InputError):
            Graph(3, edges)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (2,)], [(0, 1), (1, 2, 0)], [(0, 1), 2], [0, 1], [(0, 1, 2)]],
        ids=["short", "long", "scalar", "flat", "triple"])
    def test_rejects_ragged_or_non_pair_edges(self, edges):
        with pytest.raises(InputError, match=r"edges must be \(u, v\) pairs"):
            Graph(3, edges)

    def test_empty_edge_lists_valid(self):
        for edges in ([], (), np.zeros((0, 2)), np.zeros(0, dtype=np.int64)):
            assert Graph(3, edges).m == 0
        assert Graph(3, np.array([[2, 0]], dtype=np.uint8)).edge_list() == [(0, 2)]

    def test_edge_count_cap(self):
        g = complete_graph(6)
        assert g.m == 15 == 6 * 5 // 2

    def test_adjacency_symmetric(self):
        g = Graph(4, [(0, 2), (1, 3)])
        for u in range(4):
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)


def naive_adjacency(g: Graph) -> tuple[list[list[int]], list[int]]:
    lists = [[] for _ in range(g.n)]
    for u, v in g.edge_list():
        lists[u].append(v)
        lists[v].append(u)
    lists = [sorted(l) for l in lists]
    return lists, [vset(l) for l in lists]


class TestAdjacencyBuild:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 70), st.sampled_from([0.0, 0.05, 0.3, 0.8, 1.0]),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 200))
    def test_matches_naive_build(self, n, p, seed, chunk_bytes):
        # a tiny chunk budget makes the bitset build cross many chunks
        g = gen_gnp(GnpParams(n, p, seed)) if n else Graph(0)
        lists, bits = naive_adjacency(g)
        old = graph_core.ADJ_BITS_CHUNK_BYTES
        graph_core.ADJ_BITS_CHUNK_BYTES = chunk_bytes
        try:
            assert g.adj_bits == bits
        finally:
            graph_core.ADJ_BITS_CHUNK_BYTES = old
        assert g.adj_lists == lists
        assert all(type(w) is int for l in g.adj_lists for w in l)

    def test_degrees_into_matches_degree_into(self):
        g = gen_gnp(GnpParams(40, 0.3, 17))
        inside = np.zeros(40, dtype=bool)
        inside[::3] = True
        mask = vset(np.flatnonzero(inside).tolist())
        assert g.degrees_into(inside).tolist() == [
            degree_into(g, v, mask) for v in range(40)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 50), st.sampled_from([0.1, 0.3, 0.7]),
           st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    def test_degrees_into_either_side_of_half(self, n, p, seed, share):
        # past half the arcs the count runs over the complement
        g = gen_gnp(GnpParams(n, p, seed))
        order = philox_rng(seed).permutation(n)
        for size in {0, int(share * n), n // 2, n // 2 + 1, n}:
            inside = np.zeros(n, dtype=bool)
            inside[order[:size]] = True
            mask = vset(np.flatnonzero(inside).tolist())
            assert g.degrees_into(inside).tolist() == [
                degree_into(g, v, mask) for v in range(n)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 70), st.sampled_from([0.0, 0.05, 0.3, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_degrees_read_only_and_match_lists(self, n, p, seed):
        g = gen_gnp(GnpParams(n, p, seed)) if n else Graph(0)
        deg = g.degrees
        assert deg is g.degrees
        assert deg.tolist() == [len(row) for row in g.adj_lists]
        assert [g.degree(v) for v in range(n)] == deg.tolist()
        with pytest.raises(ValueError):
            deg[...] = 0

    def test_degree_builds_no_neighbour_lists(self):
        g = gen_gnp(GnpParams(300, 0.1, 2))
        assert g.degree(7) == int(np.count_nonzero(g.edge_array() == 7))
        assert g._adj_lists is None

    def test_induced_adjacency_ascending_local_ids(self):
        # the oracle cover pipelines number a component's vertices in
        # ascending order; the node counts they are compared on depend on it
        g = Graph(6, [(0, 2), (2, 4), (1, 3), (4, 5), (0, 4)])
        assert induced_adjacency(g, np.array([0, 2, 4, 5])) == [
            0b0110, 0b0101, 0b1011, 0b0100]
        assert induced_adjacency(g, np.array([1, 3])) == [0b10, 0b01]
        assert induced_adjacency(g, np.array([], dtype=np.int64)) == []


def set_shapes(n: int, rng) -> list[np.ndarray]:
    """Boolean vertex sets of every shape the counts must handle: empty,
    one vertex, half, all but one and all, the members drawn from ``rng``."""
    order = rng.permutation(n)
    shapes = []
    for size in (0, 1, n // 2, n - 1, n):
        inside = np.zeros(n, dtype=bool)
        inside[order[:size]] = True
        shapes.append(inside)
    return shapes


def counts_by_edge_list(g: Graph, inside: np.ndarray):
    """(neighbours in the set for every vertex, edges inside the set,
    edges meeting the set), one edge at a time off the edge list."""
    into, within, meeting = [0] * g.n, 0, 0
    for u, v in g.edge_list():
        into[u] += bool(inside[v])
        into[v] += bool(inside[u])
        within += bool(inside[u] and inside[v])
        meeting += bool(inside[u] or inside[v])
    return into, within, meeting


def in_block_by_edge_list(g: Graph, owner: np.ndarray,
                          members: np.ndarray) -> list[int]:
    want = [0] * g.n
    chosen = set(members.tolist())
    for u, v in g.edge_list():
        if u in chosen and owner[u] == owner[v]:
            want[u] += 1
            want[v] += 1
    return want


class TestSetCounts:
    """Every count over a vertex set against an edge-list oracle.  The
    counts read the arcs of the cheaper side of the set from the incidence
    index, or pass over the edge array when that side is too heavy."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_vertex_sets(self, n, p, seed):
        g = gen_gnp(GnpParams(n, p, seed))
        for inside in set_shapes(n, philox_rng(seed)):
            into, within, meeting = counts_by_edge_list(g, inside)
            mask = vset_of(np.flatnonzero(inside), n)
            assert g.degrees_into(inside).tolist() == into
            assert g.edges_inside(inside) == within
            assert type(g.edges_within(mask)) is int
            assert g.edges_within(mask) == within
            assert g.edges_meeting(mask) == meeting

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_decompositions(self, n, p, seed):
        g = gen_gnp(GnpParams(n, p, seed))
        rng = philox_rng(seed)
        pi = random_decomposition(n, seed)
        size = decomposition_size(g, pi)
        assert type(size) is int
        assert size == int(np.count_nonzero(_kept_edges(g, pi.owner)))
        # whole blocks: none, one, a random half of them, and all
        labels = rng.permutation(pi.d)
        for chosen in (labels[:0], labels[:1], labels[:pi.d // 2], labels):
            members = np.flatnonzero(np.isin(pi.owner, chosen))
            assert _in_block_degrees(g, pi, members).tolist() == \
                in_block_by_edge_list(g, pi.owner, members)

    def test_both_paths_run(self, monkeypatch):
        # on a graph of uniform density, one vertex is read on the index,
        # and half the vertices on the edge array, whichever side is taken;
        # degrees into a set are read on the index at every size
        paths = []
        original = Graph._index_side

        def recorded(self, inside, either_side=True, limit=0.5):
            side = original(self, inside, either_side, limit)
            paths.append("edges" if side is None else "index")
            return side

        monkeypatch.setattr(Graph, "_index_side", recorded)
        g = gen_gnp(GnpParams(60, 0.3, 5))
        pi = random_decomposition(60, 5)
        seen = set()
        for inside in set_shapes(60, philox_rng(5)):
            into, within, _ = counts_by_edge_list(g, inside)
            paths.clear()
            assert g.degrees_into(inside).tolist() == into
            assert paths == ["index"]
            assert g.edges_inside(inside) == within
            seen.update(paths[1:])
        for members in (np.flatnonzero(pi.owner >= 0), np.array([], int),
                        np.flatnonzero(pi.owner == 0)):
            paths.clear()
            assert _in_block_degrees(g, pi, members).tolist() == \
                in_block_by_edge_list(g, pi.owner, members)
            seen.add(("in_block", paths[0]))
        assert seen == {"index", "edges", ("in_block", "index"),
                        ("in_block", "edges")}


class TestVsetOf:
    def test_matches_vset(self):
        members = np.array([5, 0, 63, 64, 5, 200])
        assert vset_of(members, 201) == vset(members.tolist())
        assert vset_of(np.array([], dtype=np.int64), 10) == 0
        assert vset_of(np.arange(7), 7) == 0b1111111


class TestOneGenerator:
    """Every seeded draw in the library comes from ``philox_rng``, so the
    generator that ``RNG_NAME`` names is built in one place."""

    CONSTRUCTORS = {"Philox", "Generator", "default_rng", "RandomState"}

    def test_only_graph_core_builds_a_generator(self):
        src = Path(graph_core.__file__).parent
        modules = set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(
                        f, "id", None)
                    if name in self.CONSTRUCTORS:
                        modules.add(path.name)
        assert modules == {"graph_core.py"}

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1 << 128])
    def test_seed_out_of_range_is_input_error(self, seed):
        with pytest.raises(InputError, match="64-bit unsigned"):
            philox_rng(seed)

    def test_range_ends_accepted(self):
        assert philox_rng(0).integers(10) == philox_rng(0).integers(10)
        philox_rng((1 << 64) - 1)


class TestRawStreams:
    """The first values of each kind of draw the library makes from
    ``philox_rng``.  NumPy does not freeze these streams across versions
    (NEP 19), so a numpy upgrade that changes one fails the test naming
    it, ahead of the golden hashes built on it."""

    def test_geometric(self):
        # gen_gnp's gap draws
        assert philox_rng(1000).geometric(0.3, size=8).tolist() == [
            2, 9, 1, 3, 1, 4, 3, 4]
        assert philox_rng(1000).geometric(0.001, size=4).tolist() == [
            409, 3111, 181, 924]

    def test_integers_in_range(self):
        # the density audit's set sizes, one scalar draw each
        rng = philox_rng(1000)
        assert [int(rng.integers(5, 100)) for _ in range(6)] == [
            19, 25, 29, 74, 84, 28]

    def test_integers_below(self):
        # _random_decomposition's block sizes, and the heuristic search's
        # seeds for moves.improve
        rng = philox_rng(1000)
        assert [int(rng.integers(3)) for _ in range(6)] == [0, 0, 0, 2, 2, 0]
        rng = philox_rng(1000)
        assert [int(rng.integers(1 << 62)) for _ in range(3)] == [
            974736576670730537, 3363002485520534490, 1138513158313586265]

    def test_choice_without_replacement(self):
        # the density audit's vertex sets, small and large against n
        def draw(n, w):
            return philox_rng(1000).choice(n, size=w, replace=False)

        assert draw(50, 6).tolist() == [9, 40, 12, 7, 11, 35]
        assert draw(2400, 1500)[:6].tolist() == [
            617, 291, 2095, 2359, 684, 2068]
        assert draw(20000, 6).tolist() == [
            4226, 16683, 4937, 3136, 5063, 14583]

    def test_permutation(self):
        # the audit's Y/Z split, the case-1 split of A_1 and
        # _random_decomposition's shapes and vertex order
        assert philox_rng(1000).permutation(10).tolist() == [
            9, 8, 3, 4, 0, 6, 5, 1, 2, 7]
        assert philox_rng(1000).permutation(2400)[:6].tolist() == [
            2272, 2265, 1266, 276, 1523, 208]


class TestOneCountingPath:
    """``Graph`` counts on the edge array; the bitmask adjacency rows are
    read by the exact decomposition search alone, so no other caller can
    grow a second counting path on them."""

    def test_only_decomposition_reads_adj_bits(self):
        src = Path(graph_core.__file__).parent
        readers, defined = set(), False
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr == "adj_bits":
                    readers.add(path.name)
                if (path.name == "graph_core.py"
                        and isinstance(node, ast.FunctionDef)
                        and node.name == "adj_bits"):
                    defined = True
        assert readers == {"decomposition.py"}
        assert defined

    # the incidence index and the cost rule that decides when it is read
    INDEX_NAMES = {"_index", "_incidence", "_build_incidence", "_heads",
                   "_index_side"}

    def test_only_graph_core_reads_the_index(self):
        # moves and decomposition count over vertex sets through Graph's
        # methods, so neither can grow a second counting path on the index
        src = Path(graph_core.__file__).parent
        readers, edge_readers = set(), set()
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    if node.attr in self.INDEX_NAMES:
                        readers.add(path.name)
                    if node.attr in ("edge_array", "_edges"):
                        edge_readers.add(path.name)
        assert readers == {"graph_core.py"}
        assert "moves.py" not in edge_readers


class TestGnp:
    def test_p_zero_empty(self):
        g = gen_gnp(GnpParams(5, 0.0, 7))
        assert g.n == 5 and g.m == 0

    def test_p_one_complete(self):
        g = gen_gnp(GnpParams(5, 1.0, 7))
        assert g.m == 10
        assert g == complete_graph(5)

    def test_reproducible(self):
        a = gen_gnp(GnpParams(64, 0.37, 123456))
        b = gen_gnp(GnpParams(64, 0.37, 123456))
        assert a == b
        assert a.edge_array().tobytes() == b.edge_array().tobytes()

    def test_seed_changes_graph(self):
        a = gen_gnp(GnpParams(64, 0.37, 1))
        b = gen_gnp(GnpParams(64, 0.37, 2))
        assert a != b

    def test_mean_edge_count_within_3_sigma(self):
        # Bin(4950, 0.3): mean 1485, per-graph variance 1039.5
        n, p, resamples = 100, 0.3, 10_000
        counts = [gen_gnp(GnpParams(n, p, seed)).m for seed in range(resamples)]
        mean = float(np.mean(counts))
        mu = p * n * (n - 1) / 2
        sigma_mean = (mu * (1 - p)) ** 0.5 / resamples ** 0.5
        assert abs(mean - mu) < 3 * sigma_mean

    def test_param_validation(self):
        with pytest.raises(InputError):
            GnpParams(0, 0.5, 1)
        with pytest.raises(InputError):
            GnpParams(5, 1.5, 1)
        with pytest.raises(InputError):
            GnpParams(5, 0.5, -1)


class TestCounting:
    def test_k4_within_all(self, k4):
        assert k4.edges_within(k4.full_mask()) == 6

    def test_singleton_within_zero(self, k4):
        for v in range(4):
            assert k4.edges_within(1 << v) == 0
        assert k4.edges_within(0) == 0

    def test_path_skip_pair(self):
        g = path_graph(3)
        assert g.edges_within(vset([0, 2])) == 0

    def test_between_k4(self, k4):
        assert k4.edges_between(vset([0, 1]), vset([2, 3])) == 4

    def test_between_empty_graph(self):
        g = Graph(6)
        assert g.edges_between(vset([0, 1]), vset([4, 5])) == 0

    def test_between_path(self):
        g = path_graph(3)
        assert g.edges_between(vset([0, 2]), vset([1])) == 2

    def test_between_rejects_overlap(self, k4):
        with pytest.raises(InputError):
            k4.edges_between(vset([0, 1]), vset([1, 2]))

    def test_within_rejects_out_of_range(self, k4):
        with pytest.raises(InputError):
            k4.edges_within(1 << 7)

    def test_between_reads_no_bitset_adjacency(self, no_adj_bits):
        # below the bitset limit too, edges_between counts on the edge array
        g = gen_gnp(GnpParams(300, 0.05, 8))
        rng = np.random.default_rng(3)
        for _ in range(20):
            side = rng.integers(0, 3, size=g.n)
            y, z = vset_of(np.flatnonzero(side == 0), g.n), vset_of(
                np.flatnonzero(side == 1), g.n)
            assert g.edges_between(y, z) == sum(
                (side[u], side[v]) in ((0, 1), (1, 0))
                for u, v in g.edge_list())

    @settings(max_examples=120, deadline=None)
    @given(small_graphs(), st.integers(0, (1 << 9) - 1))
    def test_partition_identity(self, g, raw_mask):
        x = raw_mask & g.full_mask()
        rest = g.full_mask() & ~x
        total = (g.edges_within(x) + g.edges_within(rest)
                 + g.edges_between(x, rest))
        assert total == g.m


def bitmask_components(g: Graph, removed: int = 0) -> list[int]:
    """The exact search's bitmask components of G minus ``removed``."""
    return _components(g.adj_bits, g.full_mask() & ~removed)


class TestComponents:
    def test_k4_whole(self, k4):
        comps = bitmask_components(k4)
        assert comps == [vset([0, 1, 2, 3])]

    def test_star_minus_center(self, star4):
        comps = bitmask_components(star4, removed=vset([0]))
        assert comps == [vset([1]), vset([2]), vset([3])]
        assert all(c.bit_count() % 2 == 1 for c in comps)

    def test_c5_minus_vertex(self, c5):
        comps = bitmask_components(c5, removed=vset([0]))
        assert len(comps) == 1
        assert comps[0].bit_count() == 4

    def test_order_by_smallest_member(self):
        g = Graph(6, [(4, 5), (0, 1)])
        comps = bitmask_components(g)
        mins = [(c & -c).bit_length() - 1 for c in comps]
        assert mins == sorted(mins)

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(), st.integers(0, (1 << 9) - 1))
    def test_sizes_sum(self, g, raw_mask):
        removed = raw_mask & g.full_mask()
        comps = bitmask_components(g, removed)
        assert sum(c.bit_count() for c in comps) == g.n - removed.bit_count()


def check_labels(g: Graph, removed: int = 0) -> None:
    """component_labels against the union-find partition: the count, the
    partition and the numbering by smallest member."""
    comps = components_by_union_find(g, removed)
    count, labels = g.component_labels(removed)
    assert labels.dtype == np.int32 and labels.shape == (g.n,)
    assert count == len(comps)
    assert labels.tolist() == labels_from_components(g.n, comps)


def path_edges(order: np.ndarray) -> np.ndarray:
    """The edges of the path visiting vertices in the given order."""
    return np.stack([order[:-1], order[1:]], axis=1)


class TestComponentLabels:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=90),
        st.integers(0, (1 << n) - 1))))
    def test_matches_union_find(self, case):
        n, edges, removed = case
        g = Graph(n, edges)
        check_labels(g)
        check_labels(g, removed)
        assert bitmask_components(g, removed) == [
            vset(c) for c in components_by_union_find(g, removed)]

    def test_cached_and_read_only(self):
        g = Graph(5, [(3, 4), (0, 2)])
        count, labels = g.component_labels()
        assert (count, labels.tolist()) == (3, [0, 1, 0, 2, 2])
        assert g.component_labels() is g.component_labels(0)
        with pytest.raises(ValueError):
            labels[0] = 1
        count, labels = Graph(0).component_labels()
        assert (count, labels.tolist()) == (0, [])

    def test_sparse_above_bitset_limit(self):
        n = graph_core.BITSET_ADJ_LIMIT + 1000
        g = gen_gnp(GnpParams(n, 1.5 / n, 11))
        rng = np.random.default_rng(11)
        removed = vset(rng.choice(n, size=n // 10, replace=False).tolist())
        check_labels(g)
        check_labels(g, removed)
        # the edge counts over boolean masks agree with a count per edge
        rest = g.full_mask() & ~removed
        edges = g.edge_list()
        assert g.edges_within(rest) == sum(
            1 for u, v in edges if rest >> u & 1 and rest >> v & 1)
        assert g.edges_between(removed, rest) == sum(
            1 for u, v in edges if (removed >> u & 1) != (removed >> v & 1))

    @pytest.mark.parametrize("shape", ["sorted", "zigzag", "shuffled"])
    def test_long_paths(self, shape):
        # paths are the deepest trees: vertex ids rising, alternating low and
        # high, or shuffled along them; hooking that does not at least halve
        # the trees each round shows here as a slow test
        n = 10 ** 5
        if shape == "sorted":
            order = np.arange(n)
        elif shape == "zigzag":
            order = np.empty(n, dtype=np.int64)
            order[0::2] = np.arange((n + 1) // 2)
            order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
        else:
            order = np.random.default_rng(5).permutation(n)
        count, labels = Graph(n, path_edges(order)).component_labels()
        assert count == 1 and not labels.any()
        half = n // 2
        check_labels(Graph(n, np.concatenate([path_edges(order[:half]),
                                              path_edges(order[half:])])))


class TestSerialization:
    def test_round_trip(self, petersen):
        text = petersen.to_edge_list_text()
        again = Graph.from_edge_list_text(text)
        assert again == petersen
        header = text.splitlines()[0]
        assert header == "10 15"

    def test_bad_header(self):
        with pytest.raises(InputError):
            Graph.from_edge_list_text("5")

    def test_wrong_edge_count(self):
        with pytest.raises(InputError):
            Graph.from_edge_list_text("3 2\n0 1\n")

    def test_bad_token(self):
        with pytest.raises(InputError):
            Graph.from_edge_list_text("3 1\n0 x\n")


class TestBigN:
    def test_pair_index_inversion_at_scale(self):
        from eg_matchlab.graph_core import _pairs_from_indices
        n = 10 ** 6
        total = n * (n - 1) // 2
        rng = np.random.default_rng(5)
        idx = np.sort(rng.integers(0, total, size=20_000, dtype=np.int64))
        idx = np.concatenate([[0, 1, n - 2, n - 1], idx,
                              [total - 2, total - 1]])
        pairs = _pairs_from_indices(n, idx)
        u, v = pairs[:, 0], pairs[:, 1]
        back = u * (n - 1) - u * (u - 1) // 2 + (v - u - 1)
        assert (back == idx).all()
        assert (0 <= u).all() and (u < v).all() and (v < n).all()

    @pytest.mark.parametrize("n,offsets", [
        (150_000_000, (1, 2, 3, 10 ** 6)),
        (10 ** 9, tuple(range(1, 40)) + (10 ** 9, 10 ** 12)),
        (3 * 10 ** 9, (1, 2, 5, 3 * 10 ** 9)),
        (4 * 10 ** 9, (1, 2, 3, 4 * 10 ** 9))])
    def test_pair_index_inversion_exact_past_float(self, n, offsets):
        """Exact where float64 cannot hold the index: the last pairs and
        the index 2^53 + 1; one-element arrays, so nothing large is made."""
        from eg_matchlab.graph_core import _pairs_from_indices
        total = n * (n - 1) // 2
        for idx in [total - o for o in offsets] + [2 ** 53 + 1]:
            got = _pairs_from_indices(n, np.array([idx], dtype=np.int64))
            assert tuple(got[0].tolist()) == pair_of_index(n, idx), idx

    def test_tiny_p_generation(self):
        g = gen_gnp(GnpParams(1000, 1e-9, 3))
        assert g.m == 0
        g = gen_gnp(GnpParams(2, 0.5, 3))
        assert g.m in (0, 1)

    def test_list_fallback_matches_bitset(self):
        edges = [(0, 1), (1, 2), (2, 3), (70000, 70001), (3, 70000)]
        big = Graph(70002, edges)            # above the bitset limit
        small = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5), (3, 4)])
        mask_small = vset([0, 1, 2, 3])
        mask_big = vset([0, 1, 2, 3])
        assert big.edges_within(mask_big) == small.edges_within(mask_small) == 3
        count, labels = big.component_labels()
        assert count == big.n - 5 and (labels >= 0).all()
        assert big.degree(70000) == 2

    def test_has_edge_reads_no_bitset_adjacency(self, no_adj_bits):
        # n = 30000 lies below the bitset limit, where one bitset row
        # lookup would build all n rows
        g = gen_gnp(GnpParams(30000, 2 / 30000, 4))
        u, v = g.edge_list()[0]
        assert g.has_edge(u, v) and g.has_edge(v, u)
        assert not g.has_edge(u, u)
