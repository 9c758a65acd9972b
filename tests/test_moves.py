import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eg_matchlab.decomposition import Decomposition, _random_decomposition
from eg_matchlab.errors import InputError, MoveError
from eg_matchlab.graph_core import Graph, GnpParams, gen_gnp, philox_rng, vset
from eg_matchlab.harness import trial_seed
from eg_matchlab import moves
from eg_matchlab.moves import (CaseThresholds, _in_block_degrees, apply_case,
                               classify_case, improve, is_canonical)

from oracles import decomposition_edges


def pi_with(n, a1_size, extra_blocks, s_size):
    """Partition of 0..n-1: A1 first, then the extra block sizes, then S,
    remaining vertices as singletons."""
    vs = list(range(n))
    i = 0
    blocks = [vs[i:i + a1_size]]
    i += a1_size
    for c in extra_blocks:
        blocks.append(vs[i:i + c])
        i += c
    s = vs[i:i + s_size]
    i += s_size
    blocks.extend([v] for v in vs[i:])
    return Decomposition.from_lists(n, s, blocks)


def empty_graph(n):
    return Graph(n)


def philox(key):
    return np.random.Generator(np.random.Philox(key=key))


class TestThresholds:
    def test_n20000_values(self):
        th = CaseThresholds(20000)
        assert th.frac_small == 10.0
        assert th.y_small == 2.0
        assert abs(th.log_half - math.sqrt(math.log(20000))) < 1e-12
        assert abs(th.s_cut - 20000 / math.sqrt(math.log(20000))) < 1e-9
        assert round(th.log_half, 2) == 3.15
        assert round(th.s_cut) == 6355

    def test_as_dict_pinned(self):
        assert CaseThresholds(20000).as_dict() == {
            "n": 20000, "frac_small": 10.0, "ratio": 3.99, "y_small": 2.0,
            "log_half": 3.1469807041887194, "s_cut": 6355.297944273837}
        assert CaseThresholds(11).as_dict() == {
            "n": 11, "frac_small": 0.0055, "ratio": 3.99, "y_small": 0.0011,
            "log_half": 1.5485138917033876, "s_cut": 7.1035849655180305}

    def test_small_n_rejected(self):
        with pytest.raises(InputError):
            CaseThresholds(1)


class TestCanonical:
    def test_form_a(self):
        pi = pi_with(8, 5, [], 0)
        assert is_canonical(pi)

    def test_form_b(self):
        pi = pi_with(8, 1, [], 3)
        assert is_canonical(pi)

    def test_non_canonical(self):
        assert not is_canonical(pi_with(8, 3, [], 1))
        assert not is_canonical(pi_with(8, 3, [3], 0))

    def test_classify_rejects_canonical(self):
        with pytest.raises(MoveError):
            classify_case(empty_graph(8), pi_with(8, 5, [], 0))


class TestClassification:
    # guard arithmetic at n = 20000: frac 10, y_small 2, log_half 3.147,
    # s_cut 6355.3
    def test_case1(self):
        pi = pi_with(20000, 5, [3] * 10, 0)
        assert classify_case(empty_graph(20000), pi) == 1

    def test_case2(self):
        pi = pi_with(20000, 5, [3], 1)
        assert classify_case(empty_graph(20000), pi) == 2

    def test_case3(self):
        pi = pi_with(20000, 9001, [], 4999)       # |B| = 6000
        assert classify_case(empty_graph(20000), pi) == 3

    def test_case3_exact_ratio_boundary(self):
        # 100 * a1 == 399 * b -> case 3 wins
        n = 399 + 100 + 1
        pi = pi_with(n, 399, [], 1)               # b = 100
        assert classify_case(empty_graph(n), pi) == 3

    def test_case4(self):
        pi = pi_with(20000, 16001, [3] * 1000, 1)  # b = 3999, y = 2000
        assert classify_case(empty_graph(20000), pi) == 4

    def test_case5(self):
        pi = pi_with(20002, 19001, [3], 0)         # y = 2 < 2.0002
        assert pi.y == 2
        assert classify_case(empty_graph(20002), pi) == 5

    def test_case5_empty_at_20000(self):
        # y is always even, so 0 < y < 2.0 is unsatisfiable at n = 20000
        pi = pi_with(20000, 18999, [3], 0)
        assert pi.y == 2
        assert classify_case(empty_graph(20000), pi) == 4

    def test_case6_small_b(self):
        pi = pi_with(20000, 19995, [], 2)          # b = 3 < 3.147
        assert classify_case(empty_graph(20000), pi) == 6

    def test_case6_large_s_branch_is_vacuous_at_desk_scale(self):
        # the s > n/sqrt(ln n) branch needs |B| >= s - 1 (from r >= 0) and
        # |A1| > 3.99 |B|, hence n > ~5.99 n / sqrt(ln n): impossible until
        # ln n > 36.  The guard logic is still exercised through a stub.
        import types
        n = 20000
        th = CaseThresholds(n)
        stub = types.SimpleNamespace(n=n, a1_size=19000, y=0,
                                     s=int(th.s_cut) + 5, b_size=100)
        assert classify_case(empty_graph(n), stub) == 6

    def test_case7(self):
        pi = pi_with(20000, 19001, [], 99)         # b = 900, s = 99
        assert classify_case(empty_graph(20000), pi) == 7

    def test_exactly_one_case_matches(self):
        # classify is total and single-valued on random non-canonical pi
        rng = np.random.Generator(np.random.Philox(key=11))
        for n in (8, 40, 2001, 20000):
            g = empty_graph(n)
            for _ in range(40):
                k = int(rng.integers(1, n // 2 + 1))
                pi = _random_decomposition(n, k, rng)
                if pi is None or is_canonical(pi):
                    continue
                case = classify_case(g, pi)
                assert case in range(1, 8)


class TestInBlockDegrees:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.sampled_from([0.1, 0.4, 0.9]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_vertex_count(self, n, p, seed):
        # members: a random union of whole blocks; every other vertex reads 0
        g = gen_gnp(GnpParams(n, p, seed))
        rng = philox_rng(seed)
        pi = _random_decomposition(n, int(rng.integers(n // 2 + 1)), rng)
        owner = pi.owner.tolist()
        chosen = rng.random(pi.d) < 0.5
        members = np.flatnonzero((pi.owner >= 0) & chosen[pi.owner])
        want = [0] * n
        for v in members.tolist():
            want[v] = sum(1 for w in g.adj_lists[v] if owner[w] == owner[v])
        assert _in_block_degrees(g, pi, members).tolist() == want


def delta_by_direct_count(g, report):
    before = decomposition_edges(g, report.pi_before)
    after = decomposition_edges(g, report.pi_after)
    return len(after) - len(before)


class TestApplyMechanics:
    """Small explicit instances; gained/lost checked by direct edge counts."""

    def test_case3_split(self):
        # C5-like shape at n = 12 is case 3; delta = crossing(A1_half, B)
        # minus the edges inside the dissolved half
        g = gen_gnp(GnpParams(12, 0.6, trial_seed(0xC3, 1)))
        pi = pi_with(12, 5, [3], 0)
        assert classify_case(g, pi) == 3
        rep = apply_case(g, pi, 3, rng=philox(5))
        assert rep.pi_after.r == pi.r
        assert all(b.bit_count() % 2 for b in rep.pi_after.blocks)
        assert rep.pi_after.s == pi.s + 2          # floor(5/2)
        assert rep.delta == delta_by_direct_count(g, rep)

    def test_case3_seeded_split_reproducible(self):
        g = gen_gnp(GnpParams(12, 0.6, trial_seed(0xC3, 2)))
        pi = pi_with(12, 5, [3], 0)
        a = apply_case(g, pi, 3, rng=philox(9))
        b = apply_case(g, pi, 3, rng=philox(9))
        assert a.pi_after == b.pi_after
        c = apply_case(g, pi, 3, rng=philox(10))
        assert c.pi_after.s_set != a.pi_after.s_set or c.pi_after == a.pi_after

    def test_case4_merge(self):
        g = gen_gnp(GnpParams(16, 0.5, trial_seed(0xC4, 1)))
        pi = pi_with(16, 13, [3], 0)
        assert classify_case(g, pi) == 4
        rep = apply_case(g, pi, 4)
        assert rep.pi_after.r == pi.r
        assert rep.pi_after.a1_size == 15          # A1 absorbs 2 of the 3
        assert rep.moved_set.bit_count() == 2
        assert rep.delta == delta_by_direct_count(g, rep)
        # removed edges never exceed the excess y
        assert rep.size_before - rep.size_after <= pi.y

    def test_case1_merge_bound(self):
        n = 7000
        g = gen_gnp(GnpParams(n, 0.002, trial_seed(0xC1, 1)))
        pi = pi_with(n, 3, [3] * 40, 0)
        assert classify_case(g, pi) == 1
        rep = apply_case(g, pi, 1)
        assert rep.pi_after.r == pi.r
        assert all(b.bit_count() % 2 for b in rep.pi_after.blocks)
        assert rep.moved_set.bit_count() == 80
        # |H \ H'| = sum of in-block degrees of kept vertices <= y
        assert rep.size_before - rep.size_after <= pi.y

    def test_case1_wrong_guard(self):
        g = empty_graph(7000)
        pi = pi_with(7000, 3, [], 1)               # y = 0: case 2 territory
        with pytest.raises(MoveError):
            apply_case(g, pi, 1)

    def test_case2_moves_best_singleton(self):
        n = 7000
        # plant: singleton 100 sees three block vertices; block {0,1,2} has
        # one internal edge
        g = Graph(n, [(100, 0), (100, 1), (100, 3), (0, 1)])
        pi = pi_with(n, 3, [3], 0)                 # A1 = {0,1,2}, block {3,4,5}
        assert classify_case(g, pi) == 2
        rep = apply_case(g, pi, 2)
        assert rep.pi_after.r == pi.r
        assert rep.pi_after.s_set == vset([100])   # highest degree singleton
        assert rep.size_after == rep.size_before + 3 - 0
        assert rep.delta == delta_by_direct_count(g, rep)

    def test_case2_singleton_tie_goes_to_smallest_vertex(self):
        # singletons 50 and 100 both see two block vertices
        n = 7000
        g = Graph(n, [(100, 0), (100, 1), (50, 3), (50, 4)])
        pi = pi_with(n, 3, [3], 0)
        rep = apply_case(g, pi, 2)
        assert rep.pi_after.s_set == vset([50])

    def test_case2_guard_implies_singletons_exist(self):
        # with r >= 0 enforced, a case-2 decomposition without singleton
        # blocks cannot exist: all blocks >= 3 forces d <= n/3 while the
        # small-y guard forces d > ~n/2
        rng = np.random.Generator(np.random.Philox(key=77))
        g = empty_graph(7000)
        for _ in range(30):
            k = int(rng.integers(1, 3500))
            pi = _random_decomposition(7000, k, rng)
            if pi is None or is_canonical(pi):
                continue
            if classify_case(g, pi) == 2:
                assert any(b.bit_count() == 1 for b in pi.blocks)
                assert any(b.bit_count() >= 3 for b in pi.blocks)

    def test_case5_absorbs_excess(self):
        n = 20002
        # A1 = 0..19000, middle block {19001, 19002, 19003}; vertex 19002
        # sees three A1 vertices, so it and 19003 move into A1, keeping the
        # least-connected member 19001 as the singleton
        g = Graph(n, [(0, 19002), (1, 19002), (2, 19002), (19002, 19003)])
        pi = pi_with(n, 19001, [3], 0)
        assert classify_case(g, pi) == 5
        rep = apply_case(g, pi, 5)
        assert rep.pi_after.r == pi.r
        assert rep.pi_after.y == 0
        assert rep.moved_set.bit_count() == pi.y == 2
        assert rep.delta == delta_by_direct_count(g, rep)
        assert rep.delta == 3       # gains the three spokes; path edge stays

    def test_case5_guard_y0(self):
        g = empty_graph(20002)
        pi = pi_with(20002, 19001, [], 1)          # y = 0: case 7 territory
        with pytest.raises(MoveError):
            apply_case(g, pi, 5)

    def test_case6_parity_and_r(self):
        # valid case-6 instance: b = 1 < log_half(11)? sqrt(ln 11) = 1.548;
        # need a1 > 3.99 b and s <= b
        g = gen_gnp(GnpParams(11, 0.5, trial_seed(0xC6, 1)))
        pi = pi_with(11, 9, [], 1)                 # b = 1, s = 1
        assert classify_case(g, pi) == 6
        rep = apply_case(g, pi, 6)
        assert rep.pi_after.a1_size == 9 + 2 * 1   # a + 2s, odd
        assert rep.pi_after.s == 0
        assert rep.pi_after.r == pi.r
        assert rep.delta == delta_by_direct_count(g, rep)
        assert is_canonical(rep.pi_after)

    def test_case6_s_exceeds_b(self):
        g = empty_graph(12)
        pi = pi_with(12, 9, [], 2)                 # b = 1 < s = 2
        assert classify_case(g, pi) == 6
        with pytest.raises(MoveError):
            apply_case(g, pi, 6)

    def test_case7_builds_form_a(self):
        g = gen_gnp(GnpParams(12, 0.5, trial_seed(0xC7, 1)))
        pi = pi_with(12, 9, [], 1)                 # b = 2 >= log_half, s = 1
        assert classify_case(g, pi) == 7
        rep = apply_case(g, pi, 7)
        assert rep.pi_after.s == 0
        assert rep.pi_after.a1_size == 11
        assert rep.pi_after.r == pi.r
        assert is_canonical(rep.pi_after)
        assert rep.delta == delta_by_direct_count(g, rep)

    def test_apply_case_dispatch_unknown(self):
        g = empty_graph(12)
        pi = pi_with(12, 9, [], 1)
        with pytest.raises(Exception):
            apply_case(g, pi, 9)

    def test_apply_case_error_types(self):
        g = empty_graph(12)
        pi = pi_with(12, 9, [], 1)                 # case 7
        with pytest.raises(InputError):
            apply_case(g, pi, 9)
        with pytest.raises(MoveError):
            apply_case(g, pi, 6)


class TestApplyFuzz:
    def test_random_valid_decompositions_all_invariants(self):
        """classify -> apply on random valid decompositions: r preserved,
        blocks odd, partition intact, delta matches direct edge counts."""
        rng = np.random.Generator(np.random.Philox(key=0xF022))
        seen_cases = set()
        for tag in range(120):
            n = int(rng.choice([8, 12, 20, 40, 60]))
            p = float(rng.choice([0.1, 0.3, 0.6]))
            g = gen_gnp(GnpParams(n, p, trial_seed(0xF022, tag)))
            k = int(rng.integers(1, n // 2 + 1))
            pi = _random_decomposition(n, k, rng)
            if pi is None or is_canonical(pi):
                continue
            case = classify_case(g, pi)
            seen_cases.add(case)
            try:
                rep = apply_case(g, pi, case, rng=rng)
            except MoveError:
                continue            # structural |S| > |B| boundary at r = 0
            after = rep.pi_after
            assert after.r == pi.r
            assert all(b.bit_count() % 2 for b in after.blocks)
            union = after.s_set
            for b in after.blocks:
                assert union & b == 0
                union |= b
            assert union == g.full_mask()
            assert rep.delta == delta_by_direct_count(g, rep)
        # small-n shapes reach the cases that do not need n > 2000
        assert {3, 4, 6, 7} <= seen_cases


class TestImprove:
    def test_canonical_zero_steps(self, c5):
        pi = Decomposition.from_lists(5, [], [[0, 1, 2], [3], [4]])
        assert is_canonical(pi)
        res = improve(c5, pi, seed=1)
        assert res.trace == [] and res.reason == "canonical"
        assert res.final == pi

    def test_c5_one_step_then_stop(self, c5):
        pi = Decomposition.from_lists(5, [4], [[0, 1, 2], [3]])
        res = improve(c5, pi, seed=1)
        assert len(res.trace) == 1
        assert res.reason in ("no_improvement", "canonical")
        assert res.final_size >= res.start_size

    def test_never_decreases_and_r_invariant(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        for tag in range(25):
            g = gen_gnp(GnpParams(30, 0.3, trial_seed(0x1117, tag)))
            from eg_matchlab.matching import matching_number
            nu = matching_number(g)
            if nu == 0:
                continue
            k = int(rng.integers(1, nu + 1))
            pi = _random_decomposition(30, k, rng)
            if pi is None:
                continue
            res = improve(g, pi, max_steps=60, seed=tag)
            sizes = [res.start_size]
            for rep in res.trace:
                if rep.accepted:
                    sizes.append(rep.size_after)
                assert rep.pi_after.r == pi.r
                assert all(b.bit_count() % 2 for b in rep.pi_after.blocks)
            assert sizes == sorted(sizes)
            assert res.reason in ("canonical", "no_improvement", "max_steps",
                                  "blocked")

    def test_each_decomposition_sized_once(self, monkeypatch):
        g = gen_gnp(GnpParams(400, 0.05, 3))
        pi = _random_decomposition(400, 190, philox_rng(3))
        sized = []
        size = moves.decomposition_size
        monkeypatch.setattr(moves, "decomposition_size",
                            lambda g, pi: sized.append(pi) or size(g, pi))
        res = improve(g, pi, seed=0)
        assert len(res.trace) == 2
        assert sized == [pi] + [rep.pi_after for rep in res.trace]

    def test_max_steps_respected(self):
        g = gen_gnp(GnpParams(30, 0.4, 5))
        rng = np.random.Generator(np.random.Philox(key=3))
        pi = _random_decomposition(30, 5, rng)
        res = improve(g, pi, max_steps=1, seed=0)
        assert len(res.trace) <= 1

    def test_thresholds_recorded_in_reports(self):
        g = gen_gnp(GnpParams(12, 0.5, trial_seed(0xC7, 1)))
        pi = pi_with(12, 9, [], 1)
        rep = apply_case(g, pi, 7)
        assert rep.thresholds.n == 12
        assert rep.thresholds.as_dict()["ratio"] == 3.99

    def test_reaches_canonical_at_scale(self, dense20000):
        # random valid decompositions in the dense regime settle into a
        # canonical form within a few moves
        g = dense20000
        canonical = 0
        for trial in range(12):
            rng = np.random.Generator(np.random.Philox(
                key=trial_seed(0x37E5, trial)))
            k = int(rng.integers(1, g.n // 2 + 1))
            pi = _random_decomposition(g.n, k, rng)
            if pi is None:
                continue
            res = improve(g, pi, max_steps=100, seed=trial)
            canonical += res.reason == "canonical"
        assert canonical >= 11
