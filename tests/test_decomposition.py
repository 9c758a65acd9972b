import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eg_matchlab.decomposition import (Decomposition, FormResult,
                                       _kept_edges, _swap_improve,
                                       best_form1, best_form2,
                                       classify_forms, decomposition_size,
                                       edge_set, eg_check, eg_check_all,
                                       extremal, nu_of_decomposition)
from eg_matchlab.errors import CapabilityError, InputError
from eg_matchlab.graph_core import (BITSET_ADJ_LIMIT, Graph, GnpParams,
                                   gen_gnp, vset)
from eg_matchlab.harness import trial_seed
from eg_matchlab.matching import matching_number

from conftest import complete_graph
from oracles import (classify_forms_by_filter, decomposition_edges,
                     extremal_by_edge_subsets, random_forest)
from test_acceptance import CASE_SHAPES, scatter_partition


def random_decomposition(n: int, seed: int) -> Decomposition:
    """A valid decomposition of 0..n-1 (r >= 0) drawn from ``seed``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    perm = rng.permutation(n).tolist()
    s_size = int(rng.integers(0, n // 2 + 1))
    while True:
        rest = perm[s_size:]
        blocks = []
        i = 0
        while i < len(rest):
            c = int(rng.choice([1, 1, 1, 3, 3, 5]))
            c = min(c, len(rest) - i)
            if c % 2 == 0:
                c -= 1
            blocks.append(rest[i:i + c])
            i += c
        if len(blocks) >= s_size:
            return Decomposition.from_lists(n, perm[:s_size], blocks)
        s_size = max(0, s_size - 2)     # shrink S until r >= 0


def decompositions(n: int):
    """Hypothesis strategy: valid decompositions of 0..n-1 (r >= 0)."""
    return st.integers(0, 2 ** 32 - 1).map(
        lambda seed: random_decomposition(n, seed))


class TestDecompositionType:
    def test_rejects_even_block(self):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, [], [[0, 1], [2, 3]])

    def test_rejects_overlap(self):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, [0], [[0, 1, 2], [3]])

    def test_rejects_gap(self):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, [0], [[1]])

    def test_rejects_no_blocks(self):
        with pytest.raises(InputError):
            Decomposition(2, [-1, -1])      # S = {0, 1}, no blocks

    def test_stats(self):
        pi = Decomposition.from_lists(9, [8], [[0, 1, 2], [3, 4, 5], [6], [7]])
        assert (pi.s, pi.d, pi.r) == (1, 4, 3)
        assert pi.a1_size == 3
        assert pi.b_size == 5
        assert pi.y == 2

    def test_blocks_sorted_by_size(self):
        pi = Decomposition.from_lists(7, [], [[0], [1, 2, 3, 4, 5], [6]])
        assert pi.a1_size == 5

    @settings(max_examples=60, deadline=None)
    @given(decompositions(11))
    def test_y_always_even(self, pi):
        assert pi.y % 2 == 0
        assert pi.y >= 0

    def test_rejects_negative_r(self):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, [0, 1, 2], [[3]])

    @settings(max_examples=60, deadline=None)
    @given(decompositions(10))
    def test_block_union_bound(self, pi):
        # r >= 0 forces the blocks to cover at least half the vertices
        covered = sum(b.bit_count() for b in pi.blocks)
        assert 2 * covered >= pi.n

    def test_json_round_trip(self):
        pi = Decomposition.from_lists(6, [5], [[0, 1, 2], [3], [4]])
        again = Decomposition.from_json_obj(6, pi.to_json_obj())
        assert again == pi

    def test_json_round_trip_hash(self):
        pi = Decomposition.from_lists(9, [8], [[6], [0, 4, 2], [3, 1, 7], [5]])
        again = Decomposition.from_json_obj(9, pi.to_json_obj())
        assert again == pi and hash(again) == hash(pi)
        assert len({pi, again}) == 1

    def test_different_partitions_unequal(self):
        a = Decomposition.from_lists(5, [], [[0, 1, 2], [3], [4]])
        b = Decomposition.from_lists(5, [], [[0, 1, 3], [2], [4]])
        c = Decomposition.from_lists(5, [4], [[0, 1, 2], [3]])
        assert a != b and a != c and b != c
        assert len({a, b, c}) == 3
        assert a != a.to_json_obj()

    def test_labels_relabelled_canonically(self):
        # any block ids name the same partition; blocks go size first,
        # then by smallest vertex
        a = Decomposition(7, [5, -1, 9, 5, 2, 7, 5])
        b = Decomposition(7, [0, -1, 2, 0, 1, 3, 0])
        assert a == b and hash(a) == hash(b)
        assert a.owner.tolist() == [0, -1, 1, 0, 2, 3, 0]
        assert a.block_sizes.tolist() == [3, 1, 1, 1]

    def test_bitmask_views(self):
        pi = Decomposition.from_lists(9, [8], [[6], [0, 4, 2], [3, 1, 7], [5]])
        assert pi.s_set == vset([8])
        assert pi.blocks == (vset([0, 2, 4]), vset([1, 3, 7]), vset([5]),
                             vset([6]))
        assert pi.blocks[0] == vset([0, 2, 4])
        assert np.flatnonzero(pi.owner > 0).tolist() == [1, 3, 5, 6, 7]
        assert pi.to_json_obj() == {"S": [8], "blocks": [[0, 2, 4],
                                                         [1, 3, 7], [5], [6]]}

    def test_immutable(self):
        pi = Decomposition.from_lists(3, [], [[0, 1, 2]])
        with pytest.raises(AttributeError):
            pi.n = 4
        with pytest.raises(ValueError):
            pi.owner[0] = -1
        assert copy.deepcopy(pi) == pi
        assert pickle.loads(pickle.dumps(pi)) == pi


class TestMalformedInput:
    def test_rejects_negative_vertex(self):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, [-1], [[0, 1, 2], [3]])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, [], [[0, 0, 0, 1, 2], [3]])

    def test_rejects_vertex_in_s_and_block(self):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, [3], [[0, 1, 2], [3]])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, [], [[0, 1, 2], [4]])

    @pytest.mark.parametrize("obj", [
        {"S": ["a"], "blocks": [[0, 1, 2], [3]]},
        {"S": [], "blocks": [[0, 1.5, 2], [3]]},
        {"S": [], "blocks": [[0, [1], 2], [3]]},
        {"S": [], "blocks": [[0, 1, 2], [3], []]},
        {"S": 3, "blocks": [[0, 1, 2]]},
        {"S": [], "blocks": 7},
        {"S": []},
    ])
    def test_rejects_malformed_json(self, obj):
        with pytest.raises(InputError):
            Decomposition.from_json_obj(4, obj)

    @pytest.mark.parametrize("s_members, blocks", [
        ([], [[0, [1], 2], [3]]),                       # ragged
        ([], [[0, 1.0, 2], [3]]),                       # float
        ([], [[0, 1, 2], [3, 3]]),                      # repeated
        ([3], [[0, 1, 2], [3]]),                        # in S and a block
        ([], [[0, 1, 2]]),                              # missing
        ([], [[0, 1, 2], [3], []]),                     # empty block
        ([], [[0, 1, 2], 3]),                           # block not iterable
        ([], [[0, (v for v in [1]), 2], [3]]),          # generator vertex
        ((v for v in [1.5]), [[0, 2, 3]]),              # generator of floats
    ], ids=["ragged", "float", "repeated", "s-and-block", "missing",
            "empty-block", "scalar-block", "generator-vertex",
            "generator-float"])
    def test_from_lists_rejects(self, s_members, blocks):
        with pytest.raises(InputError):
            Decomposition.from_lists(4, s_members, blocks)

    def test_from_lists_reads_generators(self):
        # S and the blocks may be any iterables, read once
        pi = Decomposition.from_lists(
            6, (v for v in [5]), ((v for v in b) for b in [[0, 1, 2], [3], [4]]))
        assert pi == Decomposition.from_lists(6, [5], [[0, 1, 2], [3], [4]])

    @pytest.mark.parametrize("owner", [
        [0, 0, 0, -2], [0, 0, 0], [0.0, 0.0, 0.0, 1.0], [[0, 0], [0, 1]],
    ])
    def test_rejects_bad_owner(self, owner):
        with pytest.raises(InputError):
            Decomposition(4, owner)

    def test_block_ids_below_key_bound(self):
        # the canonical sort keys a member by id * n + vertex in int64, so
        # ids must lie below 2^63 / n; the largest such id still works
        top = (1 << 63) // 3 - 1
        pi = Decomposition(3, np.array([top, top, top], dtype=np.int64))
        assert pi.owner.tolist() == [0, 0, 0]
        for owner in (np.array([top + 1] * 3, dtype=np.int64),
                      np.array([2 ** 62] * 3, dtype=np.int64),
                      np.array([2 ** 64 - 1] * 3, dtype=np.uint64)):
            with pytest.raises(InputError):
                Decomposition(3, owner)


class TestEdgeSet:
    def test_k4_triangle_block(self, k4):
        pi = Decomposition.from_lists(4, [], [[0, 1, 2], [3]])
        assert set(edge_set(k4, pi)) == {(0, 1), (0, 2), (1, 2)}
        assert decomposition_size(k4, pi) == 3

    def test_k4_star_via_s(self, k4):
        pi = Decomposition.from_lists(4, [0], [[1], [2], [3]])
        assert set(edge_set(k4, pi)) == {(0, 1), (0, 2), (0, 3)}

    def test_whole_graph_block(self, petersen):
        pi = Decomposition.from_lists(10, [], [list(range(9)), [9]])
        # one block of 9 plus a singleton: the spoke edges at 9 are dropped
        assert decomposition_size(petersen, pi) == petersen.m - 3

    def test_single_block_keeps_everything(self, c5):
        pi = Decomposition.from_lists(5, [], [[0, 1, 2, 3, 4]])
        assert decomposition_size(c5, pi) == c5.m

    @settings(max_examples=40, deadline=None)
    @given(decompositions(9), st.integers(0, 2 ** 32 - 1))
    def test_size_matches_edge_set(self, pi, seed):
        g = gen_gnp(GnpParams(9, 0.5, seed))
        assert decomposition_size(g, pi) == len(edge_set(g, pi))


class TestSizeAgainstOracle:
    """decomposition_size and edge_set against the per-edge oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 60), st.sampled_from([0.05, 0.2, 0.5, 0.9]),
           st.integers(0, 2 ** 32 - 1))
    def test_random_graphs(self, n, p, seed):
        g = gen_gnp(GnpParams(n, p, seed))
        pi = random_decomposition(n, seed)
        want = decomposition_edges(g, pi)
        assert edge_set(g, pi) == tuple(want)
        assert decomposition_size(g, pi) == len(want)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.sampled_from([0.2, 0.5, 0.9]),
           st.integers(0, 2 ** 32 - 1))
    def test_kept_edges_on_raw_labels(self, n, p, seed):
        """Labels need not be canonical: blocks under arbitrary ids, each
        singleton under an id of its own, S under -1."""
        g = gen_gnp(GnpParams(n, p, seed))
        pi = random_decomposition(n, seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        ids = rng.permutation(10 * pi.d)[:pi.d] * 7 + 3
        labels = np.where(pi.owner < 0, -1, ids[pi.owner])
        singles = (pi.owner >= 0) & (pi.block_sizes[pi.owner] == 1)
        labels[singles] = 1000 * n + np.flatnonzero(singles)
        kept = g.edge_array()[_kept_edges(g, labels)]
        assert list(map(tuple, kept.tolist())) == decomposition_edges(g, pi)
        assert _kept_edges(g, np.full(n, -1)).all()

    @pytest.mark.parametrize("case_id", sorted(CASE_SHAPES))
    def test_criterion4_shapes(self, case_id, dense20000):
        shape = CASE_SHAPES[case_id]
        rng = np.random.Generator(np.random.Philox(key=case_id))
        pi = scatter_partition(dense20000.n, shape["a1"], shape["extra"],
                               shape["s"], rng)
        want = decomposition_edges(dense20000, pi)
        assert decomposition_size(dense20000, pi) == len(want)
        assert edge_set(dense20000, pi) == tuple(want)


class TestNuOfDecomposition:
    def test_k4_triangle(self, k4):
        pi = Decomposition.from_lists(4, [], [[0, 1, 2], [3]])
        assert nu_of_decomposition(k4, pi) == 1

    def test_empty_graph(self):
        g = Graph(6)
        pi = Decomposition.from_lists(6, [], [[0, 1, 2], [3], [4], [5]])
        assert nu_of_decomposition(g, pi) == 0

    def test_k6_five_clique(self):
        g = complete_graph(6)
        pi = Decomposition.from_lists(6, [], [[0, 1, 2, 3, 4], [5]])
        assert nu_of_decomposition(g, pi) == 2 == (6 - pi.r) // 2

    @settings(max_examples=60, deadline=None)
    @given(decompositions(10), st.integers(0, 2 ** 32 - 1))
    def test_tutte_berge_upper_bound(self, pi, seed):
        g = gen_gnp(GnpParams(10, 0.45, seed))
        assert 2 * nu_of_decomposition(g, pi) <= g.n - pi.r


class TestForms:
    def test_form1_k6(self):
        res = best_form1(complete_graph(6), 1)
        assert res.size == 3 and res.exact

    def test_form1_c5(self, c5):
        res = best_form1(c5, 1)
        assert res.size == 2

    def test_form1_k0(self, c5):
        res = best_form1(c5, 0)
        assert res.size == 0 and res.witness.bit_count() == 1

    def test_form1_infeasible(self, k4):
        with pytest.raises(InputError):
            best_form1(k4, 2)

    def test_form2_k6(self):
        res = best_form2(complete_graph(6), 1)
        assert res.size == 5

    def test_form2_star(self, star4):
        res = best_form2(star4, 1)
        assert res.witness == vset([0]) and res.size == 3

    def test_form2_empty_t(self, star4):
        res = best_form2(star4, 0)
        assert res.size == 0 and res.witness == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_form2_greedy_start_ties_to_smallest_vertex(self, seed):
        # the fallback starts from the k vertices of highest degree, ties
        # going to the smallest vertex, then runs the swap search
        g = gen_gnp(GnpParams(30, 0.15, seed))
        start = sorted(range(30), key=lambda v: (-len(g.adj_lists[v]), v))
        mask, val = _swap_improve(g, vset(start[:6]), g.edges_meeting)
        assert best_form2(g, 6) == FormResult(mask, val, exact=False)
        assert best_form2(Graph(30), 6).witness == vset(range(6))

    def test_greedy_fallback_flagged(self):
        # C(30, 13) and C(30, 6) both exceed DEFAULT_FORM_ENUM_BUDGET, so
        # both forms take the greedy and swap fallback; witnesses pinned
        g = gen_gnp(GnpParams(30, 0.4, 3))
        res = best_form1(g, 6)
        assert not res.exact
        assert res.witness == vset([0, 3, 7, 9, 10, 12, 13, 15, 17, 18, 20,
                                    22, 27])
        assert res.size == 45 == g.edges_within(res.witness)
        res2 = best_form2(g, 6)
        assert not res2.exact
        assert res2.witness == vset([3, 7, 15, 20, 22, 29])
        assert res2.size == 73 == g.edges_meeting(res2.witness)


class TestExtremalExact:
    def test_k6_k1_stars(self):
        res = extremal(complete_graph(6), 1)
        assert res.size == 5
        assert res.maximizer_count == 6
        assert all(f["canonical"] for f in res.forms)

    def test_c5_k1_both_forms(self, c5):
        res = extremal(c5, 1)
        assert res.size == 2 and res.maximizer_count == 5
        for f in res.forms:
            assert f["form1"] and f["form2"]

    def test_k7_k2(self):
        res = extremal(complete_graph(7), 2)
        assert res.size == 11

    def test_k_bigger_than_nu_rejected(self, c5):
        with pytest.raises(InputError):
            extremal(c5, 3)

    def test_capability_error_large_n(self):
        g = gen_gnp(GnpParams(20, 0.3, 1))
        with pytest.raises(CapabilityError):
            extremal(g, 2, n_exact=12)

    def test_capability_error_past_row_limit(self):
        # the search counts on bitmask rows, which stop at the limit
        # whatever n_exact allows
        g = Graph(BITSET_ADJ_LIMIT + 1)
        with pytest.raises(CapabilityError, match="BITSET_ADJ_LIMIT"):
            extremal(g, 0, n_exact=10 ** 6)

    def test_oracle_equivalence_sample(self):
        for tag in range(30):
            n = 4 + tag % 3
            p = [0.25, 0.5, 0.75][tag % 3]
            g = gen_gnp(GnpParams(n, p, trial_seed(0xE0, tag)))
            oracle = extremal_by_edge_subsets(g)
            for k in range(matching_number(g) + 1):
                res = extremal(g, k)
                size, sets = oracle[k]
                assert res.size == size
                assert {frozenset(e) for e in res.maximizers} == sets

    def test_at_least_both_forms(self):
        for tag in range(24):
            g = gen_gnp(GnpParams(8, 0.4, trial_seed(0xE1, tag)))
            for k in range(matching_number(g) + 1):
                res = extremal(g, k)
                if 2 * k + 1 <= g.n:
                    assert res.size >= best_form1(g, k).size
                assert res.size >= best_form2(g, k).size

    def test_empty_graph_k0(self):
        res = extremal(Graph(4), 0)
        assert res.size == 0 and res.maximizers == [()]


class TestExtremalHeuristic:
    def test_lower_bound_flagged(self):
        g = gen_gnp(GnpParams(9, 0.5, 77))
        for k in range(1, matching_number(g) + 1):
            exact = extremal(g, k)
            heur = extremal(g, k, mode="heur", seed=5)
            assert heur.lower_bound_only and not heur.exact
            assert heur.size <= exact.size
            assert heur.size >= best_form2(g, k).size

    def test_large_n_allowed(self):
        g = gen_gnp(GnpParams(60, 0.2, 5))
        res = extremal(g, 4, mode="heur", seed=9)
        assert res.lower_bound_only
        assert res.size > 0

    def test_mode_has_one_spelling(self):
        with pytest.raises(InputError):
            extremal(gen_gnp(GnpParams(9, 0.5, 77)), 1, mode="heuristic")


class TestEgCheck:
    def test_two_triangles_k1_holds(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        res = eg_check(g, 1)
        assert res.verdict == "holds"
        assert res.size == 3

    def test_p3p3_k4_fails_at_nu(self):
        blob = [(6 + u, 6 + v) for u, v in itertools.combinations(range(4), 2)]
        g = Graph(10, [(0, 1), (1, 2), (3, 4), (4, 5)] + blob)
        nu = matching_number(g)
        res = eg_check(g, nu)
        assert res.verdict == "fails"
        assert res.counterexample is not None

    def test_k5_all_k(self):
        verdicts = eg_check_all(complete_graph(5))
        assert set(verdicts) == {0, 1, 2}
        assert all(v.verdict == "holds" for v in verdicts.values())

    def test_empty_graph(self):
        verdicts = eg_check_all(Graph(4))
        assert list(verdicts) == [0]
        assert verdicts[0].verdict == "holds"

    def test_forests_hold(self):
        for seed in range(12):
            f = random_forest(4 + seed % 9, trial_seed(0xF0, seed))
            assert all(v.verdict == "holds"
                       for v in eg_check_all(f).values()), seed

    def test_kn_formula_on_feasible_range(self):
        from eg_matchlab.bounds import eg_size_formula
        for n in range(3, 10):
            g = complete_graph(n)
            for k in range((n - 1) // 2 + 1):     # 2k+1 <= n
                res = extremal(g, k)
                assert res.size == eg_size_formula(n, k, 2)[0]
                assert all(f["canonical"] for f in res.forms)

    def test_kn_even_boundary_k_equals_half_n(self):
        # at k = n/2 (even n) the only maximizer is K_n itself, which fits
        # neither canonical shape and exceeds neither formula branch
        g = complete_graph(4)
        res = extremal(g, 2)
        assert res.size == 6
        assert res.maximizers == [tuple(g.edge_list())]
        assert not res.forms[0]["canonical"]


class TestClassifyForms:
    def test_k0_both(self, c5):
        forms = classify_forms(c5, 0, ())
        assert forms["canonical"]
        assert len(forms["form1"]) == 5      # any single vertex
        assert forms["form2"] == [0]

    def test_perfect_matching_form2(self):
        g = Graph(4, [(0, 1), (2, 3)])
        forms = classify_forms(g, 2, tuple(g.edge_list()))
        assert forms["form2"]                # one endpoint per edge
        assert not forms["form1"]            # 2k+1 = 5 > n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.sampled_from([0.3, 0.6, 0.9]),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["all", "within", "meeting", "subset"]))
    def test_matches_all_sets_filter(self, n, p, seed, shape):
        """Same witnesses in the same order as scanning every set."""
        g = gen_gnp(GnpParams(n, p, seed))
        rng = np.random.Generator(np.random.Philox(key=seed))
        mask = vset(np.flatnonzero(rng.random(n) < 0.5).tolist())
        pick = rng.random(g.m) < 0.5
        keep = {"all": lambda i, u, v: True,
                "within": lambda i, u, v: mask >> u & 1 and mask >> v & 1,
                "meeting": lambda i, u, v: mask >> u & 1 or mask >> v & 1,
                "subset": lambda i, u, v: pick[i]}[shape]
        edges = tuple((u, v) for i, (u, v) in enumerate(g.edge_list())
                      if keep(i, u, v))
        for k in range(n + 1):
            assert (classify_forms(g, k, edges)
                    == classify_forms_by_filter(g, k, edges))
