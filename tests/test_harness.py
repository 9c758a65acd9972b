import itertools
import json
import math

import pytest

from eg_matchlab import matching
from eg_matchlab.errors import CapabilityError, InputError
from eg_matchlab.graph_core import Graph, GnpParams, gen_gnp
from eg_matchlab.matching import (BUDGET_ENV_VAR, is_forest,
                                  vertex_cover_number)
from eg_matchlab.harness import (CSV_COLUMNS, RegimeSpec,
                                 build_failure_certificate, count_isolated_p3,
                                 density_audit, eg_fails_at_nu, has_empty_half,
                                 middle_regime_interval, records_to_csv,
                                 run_trials, splitmix64, trial_seed,
                                 wilson_interval)
from conftest import complete_graph, cycle, path_graph
from oracles import (count_isolated_p3_packed, isolated_p3_by_union_find,
                     sample_p3_counts)


class TestSeeds:
    def test_splitmix_fixed_values(self):
        # pinned so the stream can never silently change
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_trial_seed_spread(self):
        seeds = {trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_trial_seed_master_sensitivity(self):
        assert trial_seed(1, 0) != trial_seed(2, 0)


class TestIsolatedP3:
    def test_lone_path(self):
        g = path_graph(3)
        count, wit = count_isolated_p3(g)
        assert count == 1
        assert wit == [(0, 1, 2)]

    def test_triangle_is_not_a_path(self):
        count, _ = count_isolated_p3(cycle(3))
        assert count == 0

    def test_two_paths_and_blob(self):
        blob = [(6 + u, 6 + v) for u, v in itertools.combinations(range(4), 2)]
        g = Graph(10, [(0, 1), (1, 2), (3, 4), (4, 5)] + blob)
        count, wit = count_isolated_p3(g)
        assert count == 2
        assert len(wit) == 2

    def test_path_with_pendant_not_isolated(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])     # a P4, not a P3
        assert count_isolated_p3(g)[0] == 0

    def test_packed_route_agrees_exhaustively(self):
        # all 1024 graphs on 5 vertices, both counting routes
        n = 5
        pairs = list(itertools.combinations(range(n), 2))
        for packed in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if packed >> i & 1]
            expect = count_isolated_p3(Graph(n, edges))[0]
            assert count_isolated_p3_packed(n, packed) == expect

    def test_sampler_reproducible(self):
        a = sample_p3_counts(8, 0.2, 5000, seed=7)
        b = sample_p3_counts(8, 0.2, 5000, seed=7)
        assert (a == b).all()

    def test_union_find_oracle_at_1e5(self):
        g = gen_gnp(GnpParams(100_000, 2 / 100_000, 100_000))
        assert count_isolated_p3(g) == isolated_p3_by_union_find(g)


# (isolated 3-path count, witnesses, is_forest) on the trial graphs of the
# mc-forest5k (n = 5000, p = 0.1/n) and mc-middle1k (n = 1000, p = 3/n)
# benchmark pools, recorded with the bitmask breadth-first search that
# component label arrays replaced
POOL_PINS = {
    (0xF05E57, 5000, 0.1 / 5000): [
        (23, [(33, 326, 2629), (52, 204, 3449)], True),
        (20, [(0, 372, 3951), (128, 2608, 1353)], True),
        (19, [(11, 1838, 1744), (98, 3439, 3968)], True),
        (15, [(26, 3639, 2992), (72, 1119, 3866)], True),
        (14, [(1109, 17, 2264), (458, 966, 4532)], True),
        (20, [(33, 4294, 2717), (646, 289, 4242)], True),
        (15, [(130, 3507, 3772), (152, 4787, 2771)], True),
        (13, [(121, 2180, 1782), (216, 184, 2174)], True),
    ],
    (0x3DD1E, 1000, 3 / 1000): [
        (0, [], False),
        (0, [], False),
        (1, [(329, 774, 983)], False),
        (0, [], False),
        (0, [], False),
        (0, [], False),
        (0, [], False),
        (2, [(190, 257, 679), (365, 352, 634)], False),
        (1, [(72, 329, 293)], False),
        (0, [], False),
        (0, [], False),
        (1, [(646, 389, 805)], False),
        (0, [], False),
        (1, [(936, 336, 993)], False),
        (1, [(153, 692, 763)], False),
        (0, [], False),
    ],
}


class TestComponentPins:
    @pytest.mark.parametrize("base,n,p,j,pin", [
        (base, n, p, j, pin) for (base, n, p), pins in POOL_PINS.items()
        for j, pin in enumerate(pins)])
    def test_pool_graph(self, base, n, p, j, pin):
        g = gen_gnp(GnpParams(n, p, trial_seed(trial_seed(base, j), 0)))
        count, witnesses = count_isolated_p3(g)
        assert (count, witnesses, is_forest(g)) == pin

    def test_sparse_60000(self):
        g = gen_gnp(GnpParams(60_000, 2 / 60_000, 6000))
        assert count_isolated_p3(g) == (
            299, [(10453, 62, 52086), (19849, 75, 20845)])
        assert not is_forest(g)


class TestEmptyHalf:
    def test_empty_graph(self):
        assert has_empty_half(Graph(6)) == ("yes", None)

    def test_complete(self):
        assert has_empty_half(complete_graph(5))[0] == "no"

    def test_c10_alternating(self):
        assert has_empty_half(cycle(10))[0] == "yes"

    @pytest.mark.parametrize("isolated,verdict", [(2, "no"), (3, "yes")])
    def test_search_decides_k5_plus_isolated(self, isolated, verdict):
        # tau(K5) = 4 lies above the root bound 3 and below the greedy
        # cover 4 + 1, so the answer needs the decision search
        g = Graph(5 + isolated, list(itertools.combinations(range(5), 2)))
        assert has_empty_half(g) == (verdict, None)

    def test_budget_unknown(self):
        # tau = 98 > nu = 95 and the search needs 7 nodes to find a cover
        # of at most 100 vertices
        g = gen_gnp(GnpParams(200, 0.015, 10))
        verdict, reason = has_empty_half(g, node_budget=2)
        assert verdict == "unknown"
        assert "budget" in reason

    def test_one_default_budget(self, monkeypatch):
        # the graph of test_budget_unknown, and the same graph with two
        # isolated 3-paths added so that the certificate asks for the
        # empty half-set too
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        monkeypatch.setattr(matching, "DEFAULT_VC_NODE_BUDGET", 2)
        g = gen_gnp(GnpParams(200, 0.015, 10))
        g2 = Graph(206, g.edge_list() + [(200, 201), (201, 202),
                                         (203, 204), (204, 205)])
        out = "vertex cover node budget 2 exceeded"
        assert has_empty_half(g) == ("unknown", out)
        assert build_failure_certificate(g2) == (None, out)
        with pytest.raises(CapabilityError, match="after 2 nodes"):
            vertex_cover_number(g)

    @pytest.mark.parametrize("budget", [0, -4])
    def test_non_positive_budget_is_input_error(self, budget):
        with pytest.raises(InputError):
            has_empty_half(Graph(1), node_budget=budget)
        with pytest.raises(InputError):
            has_empty_half(Graph(6, [(0, 1)]), node_budget=budget)
        with pytest.raises(InputError):
            build_failure_certificate(Graph(1), node_budget=budget)

    def test_independence_short_circuits(self):
        # tau = nu answers "yes" and a root bound above n/2 answers "no",
        # both before the first search node
        yes = has_empty_half(Graph(6, [(0, 1)]), node_budget=1)
        no = has_empty_half(complete_graph(6), node_budget=1)
        assert (yes, no) == (("yes", None), ("no", None))


class TestMiddlePins:
    """mc-middle1k pool entries whose tau and empty half-set the cover
    search decides within node budgets of 1000; the reference answers were
    recorded with budgets of 20000."""

    @pytest.mark.parametrize("j,tau", [(8, 475), (10, 480), (13, 472)])
    def test_decided(self, j, tau):
        spec = RegimeSpec(n=1000, p_rule="middle", trials=1,
                          master_seed=trial_seed(0x3DD1E, j),
                          p_explicit=3 / 1000, vc_budget=1000,
                          is_budget=1000)
        (rec,), _ = run_trials(spec)
        assert (rec.tau, rec.tau_eq_nu, rec.empty_half) == (tau, "no", "yes")
        assert rec.notes == []


class TestEgFailsAtNu:
    def test_star_holds(self):
        v = eg_fails_at_nu(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert v.verdict == "holds"

    def test_c5_holds_by_support(self):
        v = eg_fails_at_nu(cycle(5))
        assert v.verdict == "holds" and v.form_a

    def test_two_paths_triangle_fails(self):
        g = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), (6, 8)])
        v = eg_fails_at_nu(g)
        assert v.verdict == "fails"
        assert v.nu == 3 and v.tau is None
        assert not v.form_a and v.form_b is False

    def test_support_counts_vertices_of_positive_degree(self):
        # one 3-path: 3 support vertices <= 2 nu + 1 = 3; two: 6 > 5; the
        # isolated vertices on either side do not count
        one = Graph(9, [(2, 3), (3, 4)])
        two = Graph(9, [(2, 3), (3, 4), (6, 7), (7, 8)])
        assert eg_fails_at_nu(one).form_a is True
        assert eg_fails_at_nu(two).form_a is False

    def test_decided_under_budget_one(self, monkeypatch):
        # tau > nu is read off the Konig-Egervary split, so no node budget
        # can leave the verdict open
        monkeypatch.setenv(BUDGET_ENV_VAR, "1")
        v = eg_fails_at_nu(gen_gnp(GnpParams(26, 0.5, 3)))
        assert not v.form_a                   # dense: support is large
        assert (v.verdict, v.form_b, v.tau) == ("fails", False, None)


class TestCertificate:
    def test_sound_construction(self):
        blob = [(6 + u, 6 + v) for u, v in itertools.combinations(range(5), 2)]
        g = Graph(11, [(0, 1), (1, 2), (3, 4), (4, 5)] + blob)
        cert, reason = build_failure_certificate(g)
        assert cert is not None
        assert cert.empty_half_absent
        direct = eg_fails_at_nu(g)
        assert direct.verdict == "fails"

    def test_missing_p3_half(self):
        cert, reason = build_failure_certificate(complete_graph(6))
        assert cert is None and "isolated 3-path" in reason

    def test_missing_density_half(self):
        g = Graph(10, [(0, 1), (1, 2), (3, 4), (4, 5)])
        cert, reason = build_failure_certificate(g)
        assert cert is None and "empty half-set" in reason


class TestDensityAudit:
    def test_complete_graph_reference_one(self):
        g = complete_graph(12)
        rep = density_audit(g, p=1.0, epsilon=0.3, samples=40, seed=5)
        checked = sum(c for c, _ in rep.events.values())
        assert checked > 0
        assert rep.violation_total() == 0

    def test_dense_gnp_no_interior_violations(self):
        n = 2 ** 10
        p = 8 * math.log(n) / n
        g = gen_gnp(GnpParams(n, p, 17))
        rep = density_audit(g, p=p, epsilon=0.5, samples=60, seed=9)
        assert rep.events["interior_eq"][0] == 60
        assert rep.events["interior_eq"][1] == 0
        assert rep.events["between_eq"][1] == 0

    def test_dense_regime_all_events_clean(self):
        # the union budgets predict essentially zero failure mass for these
        # events in the dense regime
        n = 2 ** 12
        p = 8 * math.log(n) / n
        g = gen_gnp(GnpParams(n, p, 55))
        rep = density_audit(g, p=p, epsilon=0.5, samples=200, seed=9)
        assert rep.violation_total() == 0
        assert all(checked == 200 for checked, _ in rep.events.values())

    def test_empty_graph_sparse_event(self):
        g = Graph(64)
        rep = density_audit(g, p=0.05, epsilon=0.5, samples=30, seed=4)
        assert rep.events["sparse_log"][1] == 0

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_out_of_range_is_input_error(self, seed):
        with pytest.raises(InputError, match="64-bit unsigned"):
            density_audit(cycle(8), 0.3, 0.5, 5, seed=seed)

    def test_deterministic(self):
        g = gen_gnp(GnpParams(128, 0.2, 3))
        a = density_audit(g, 0.2, 0.5, 50, seed=11)
        b = density_audit(g, 0.2, 0.5, 50, seed=11)
        assert a.events == b.events

    # (interior_eq, cap300, sparse_log, between_eq) as (checked, violated):
    # the mixed outcomes show any change in which sets are drawn, or in
    # the order of the draws
    @pytest.mark.parametrize("n,p,eps,seed,events", [
        (60, 0.05, 0.1, 0, ((30, 18), (30, 0), (0, 0), (30, 14))),
        (60, 0.05, 0.1, 11, ((30, 15), (30, 0), (0, 0), (30, 16))),
        (20, 0.3, 0.1, 0, ((30, 17), (30, 0), (0, 0), (30, 16))),
        (20, 0.3, 0.1, 11, ((30, 21), (30, 0), (0, 0), (30, 17)))])
    def test_event_counts_pinned(self, n, p, eps, seed, events):
        g = gen_gnp(GnpParams(n, p, 7))
        rep = density_audit(g, p, eps, 30, seed)
        assert tuple(rep.events.values()) == events

    def test_dense_event_counts_pinned(self, no_adj_bits):
        # at n >= 1200 and p = 8 ln n / n every sample draws a sparse_log set
        # as well, between the cap300 and the between_eq draws
        n = 2400
        p = 8 * math.log(n) / n
        g = gen_gnp(GnpParams(n, p, 7))
        rep = density_audit(g, p, 0.01, 20, seed=3)
        assert rep.events == {"interior_eq": (20, 5), "cap300": (20, 0),
                              "sparse_log": (20, 0), "between_eq": (20, 1)}


class TestRegimes:
    def test_middle_interval_empty_small_n(self):
        lo, hi, feasible = middle_regime_interval(1000)
        assert not feasible and lo > hi

    def test_middle_interval_feasible_huge_n(self):
        n = 10 ** 9
        lo, hi, feasible = middle_regime_interval(n)
        assert feasible and lo < hi

    def test_dense_clamp_flag(self):
        spec = RegimeSpec(n=10, p_rule="dense", trials=1, master_seed=1,
                          checks=("nu",))
        p, flags = spec.resolve_p()
        assert p == 1.0 and flags["p_clamped"]

    def test_middle_needs_p(self):
        spec = RegimeSpec(n=100, p_rule="middle", trials=1, master_seed=1)
        with pytest.raises(InputError):
            spec.resolve_p()

    @pytest.mark.parametrize("checks", [("nu", "tua"), ("",), ("Tau",),
                                        ("moves",)])
    def test_unknown_check_is_input_error(self, checks):
        with pytest.raises(InputError, match="unknown checks"):
            RegimeSpec(n=10, p_rule="forest", trials=1, master_seed=1,
                       checks=checks)

    @pytest.mark.parametrize("field", ["vc_budget", "is_budget"])
    @pytest.mark.parametrize("budget", [0, -4])
    def test_non_positive_budget_is_input_error(self, field, budget):
        with pytest.raises(InputError):
            RegimeSpec(n=10, p_rule="forest", trials=1, master_seed=1,
                       **{field: budget})

    @pytest.mark.parametrize("field,value,match", [
        ("trials", -3, "trials"),
        ("master_seed", -1, "master seed"),
        ("master_seed", 1 << 64, "master seed"),
        ("eg_exact_cutoff", -5, "eg_exact_cutoff"),
        ("n", 0, "n must be >= 1"),
        ("p_rule", "sparse", "unknown p_rule 'sparse'")])
    def test_out_of_range_is_input_error(self, field, value, match):
        fields = {"n": 10, "p_rule": "forest", "trials": 1, "master_seed": 1,
                  field: value}
        with pytest.raises(InputError, match=match):
            RegimeSpec(**fields)

    def test_range_ends_accepted(self):
        spec = RegimeSpec(n=10, p_rule="forest", trials=0,
                          master_seed=(1 << 64) - 1, eg_exact_cutoff=0)
        assert run_trials(spec)[0] == []


class TestRunTrials:
    def test_forest_regime(self):
        spec = RegimeSpec(n=1000, p_rule="forest", trials=30, master_seed=42,
                          checks=("nu", "forest", "p3"))
        records, summary = run_trials(spec)
        assert len(records) == 30
        assert summary["rates"]["is_forest"]["rate"] >= 0.9
        assert summary["schema"] == "eg-matchlab/1"

    def test_byte_identical_reruns(self):
        spec = RegimeSpec(n=60, p_rule="dense", trials=8, master_seed=5,
                          checks=("nu", "forest", "p3", "density"))
        r1, s1 = run_trials(spec)
        r2, s2 = run_trials(spec)
        assert records_to_csv(r1) == records_to_csv(r2)
        assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)

    def test_zero_trials_degenerate(self):
        spec = RegimeSpec(n=10, p_rule="forest", trials=0, master_seed=1)
        records, summary = run_trials(spec)
        assert records == [] and summary["degenerate"]

    def test_csv_columns(self):
        spec = RegimeSpec(n=12, p_rule="custom", p_explicit=0.3, trials=2,
                          master_seed=9, checks=("nu", "forest", "p3", "tau"))
        records, _ = run_trials(spec)
        text = records_to_csv(records)
        header = text.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert len(text.splitlines()) == 3

    def test_eg_checks_small_n(self):
        spec = RegimeSpec(n=8, p_rule="custom", p_explicit=0.4, trials=4,
                          master_seed=3, checks=("nu", "eg"))
        records, summary = run_trials(spec)
        assert all(r.eg_all in ("holds", "fails") for r in records)
        assert "eg_all_holds" in summary["rates"]

    def test_kn_even_reads_holds_with_boundary_note(self):
        # K_12: every k <= 5 holds; k = 6 = n/2 "fails" only because no
        # 13-set exists, which is a note, not the trial's verdict
        spec = RegimeSpec(n=12, p_rule="dense", trials=2, master_seed=1)
        records, summary = run_trials(spec)
        assert [(r.m, r.eg_all, r.notes) for r in records] == [
            (66, "holds", ["eg at k = n/2 (2k+1 > n): fails"])] * 2
        assert summary["rates"]["eg_all_holds"]["count"] == 2

    def test_eg_all_counts_pinned(self):
        # G(12, 0.5), 20 trials: every trial has a perfect matching and
        # fails at k = 6; trials 2 and 6 also fail inside the range
        spec = RegimeSpec(n=12, p_rule="custom", p_explicit=0.5, trials=20,
                          master_seed=1, checks=("nu", "eg"))
        records, summary = run_trials(spec)
        boundary = "eg at k = n/2 (2k+1 > n): fails"
        assert all(r.nu == 6 and r.notes[-1] == boundary for r in records)
        assert {r.trial: (r.eg_all, r.notes[:-1]) for r in records
                if r.eg_all != "holds"} == {
            2: ("fails", ["eg fails first at k = 5"]),
            6: ("fails", ["eg fails first at k = 4"])}
        assert summary["rates"]["eg_all_holds"]["count"] == 18

    def test_eg_skipped_above_cutoff(self):
        spec = RegimeSpec(n=30, p_rule="custom", p_explicit=0.1, trials=2,
                          master_seed=3, checks=("eg",), eg_exact_cutoff=12)
        records, _ = run_trials(spec)
        assert all(r.eg_all == "skipped" for r in records)
        assert all(any("exact eg" in note for note in r.notes)
                   for r in records)

    def test_middle_feasibility_flag_recorded(self):
        spec = RegimeSpec(n=200, p_rule="middle", p_explicit=0.02, trials=2,
                          master_seed=4, checks=("nu", "p3", "empty_half"))
        records, summary = run_trials(spec)
        assert summary["flags"]["middle_feasible"] is False

    def test_forest_and_middle_build_no_bitset_adjacency(self, no_adj_bits):
        for spec in (RegimeSpec(n=2000, p_rule="forest", trials=3,
                                master_seed=1, forest_c=0.5),
                     RegimeSpec(n=200, p_rule="middle", p_explicit=0.015,
                                trials=3, master_seed=9)):
            records, _ = run_trials(spec)
            assert all(r.tau is not None for r in records)

    def test_tau_budget_out_still_decides_tau_eq_nu(self):
        # the split shows tau > nu; the search for tau's value runs out
        spec = RegimeSpec(n=30, p_rule="custom", p_explicit=0.5, trials=1,
                          master_seed=11, checks=("tau",), vc_budget=1)
        (rec,), summary = run_trials(spec)
        assert (rec.tau_eq_nu, rec.tau) == ("no", None)
        assert len(rec.notes) == 1
        assert rec.notes[0].startswith("tau budget exceeded (vertex cover "
                                       "node budget exceeded after 1 nodes")
        assert summary["rates"]["tau_eq_nu"]["count"] == 0
        assert summary["rates"]["tau_eq_nu"]["trials"] == 1

    def test_empty_half_budget_note_before_tau_note(self):
        spec = RegimeSpec(n=100, p_rule="middle", p_explicit=0.04, trials=1,
                          master_seed=2, vc_budget=1, is_budget=1)
        (rec,), _ = run_trials(spec)
        assert (rec.empty_half, rec.tau_eq_nu, rec.tau) == ("unknown", "no",
                                                             None)
        assert rec.notes == [
            "vertex cover node budget 1 exceeded",
            "tau budget exceeded (vertex cover node budget exceeded after 1 "
            "nodes)"]


class TestWilson:
    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_rate(self):
        lo, hi = wilson_interval(95, 100)
        assert lo < 0.95 < hi
        assert 0.88 < lo and hi < 0.99
