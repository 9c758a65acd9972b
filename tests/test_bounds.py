import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from eg_matchlab import bounds
from eg_matchlab.bounds import (BUDGET_TAGS, TailQuery, _BLOCK, _LogCombBlocks,
                                _cutoff, _lc_top, _log_comb, _logsumexp,
                                _reach_sum, binom_tail_exact,
                                chernoff_lower, chernoff_upper,
                                eg_size_formula, large_deviation, p3_moments,
                                phi, union_budget)
from eg_matchlab.errors import InputError

from conftest import BUDGET_PINS
from oracles import (case7_by_row_bounds, case7_rows, exact_case7,
                     full_budget, full_window_case7, log_comb_row, logsumexp)


def auto_p(n):
    return min(1.0, 8 * math.log(n) / n)


def p_grid(n):
    return (1e-9, 1.0 / n, auto_p(n), min(1.0, 50.0 / n), 0.3, 1.0)


C7_SIDES = (("C7a", True), ("C7b", False))
FULL_TAGS = ("P24a", "P24b", "P25", "P26", "P27a", "P27b", "CUT")
EPS_GRID = (0.1, 0.5, 0.9)


class TestPhi:
    def test_minus_one_exact(self):
        assert phi(-1) == 1.0

    def test_zero(self):
        assert phi(0) == 0.0

    def test_one(self):
        assert abs(phi(1) - (2 * math.log(2) - 1)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(InputError):
            phi(-1.0001)

    def test_derivative_zero_at_origin(self):
        h = 1e-6
        assert abs((phi(h) - phi(-h)) / (2 * h)) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-0.999, 20), st.floats(-0.999, 20))
    def test_convex(self, a, b):
        mid = (a + b) / 2
        assert phi(mid) <= (phi(a) + phi(b)) / 2 + 1e-9

    def test_continuity_at_minus_one(self):
        assert abs(phi(-1 + 1e-9) - 1.0) < 1e-7


class TestChernoff:
    def test_upper_quadratic_value(self):
        b = chernoff_upper(TailQuery(100, 0.5, 10))
        assert abs(b.quadratic_form - math.exp(-100 / (2 * (50 + 10 / 3)))) < 1e-12
        assert round(b.quadratic_form, 4) == 0.3916

    def test_lambda_zero_gives_one(self):
        b = chernoff_upper(TailQuery(50, 0.2, 0))
        assert b.phi_form == b.quadratic_form == 1.0

    def test_upper_phi_below_quadratic(self):
        for m, q in ((10, 0.01), (100, 0.1), (1000, 0.5)):
            for lam in (0.5, 1, 5, 20):
                b = chernoff_upper(TailQuery(m, q, lam))
                assert b.phi_form <= b.quadratic_form + 1e-15

    def test_upper_degenerate_mu_zero(self):
        b = chernoff_upper(TailQuery(10, 0.0, 3))
        assert b.phi_form == b.quadratic_form == 0.0
        assert b.degenerate

    def test_lower_quadratic_value(self):
        b = chernoff_lower(TailQuery(100, 0.5, 10))
        assert abs(b.quadratic_form - math.exp(-1)) < 1e-12

    def test_lower_lambda_equal_mu(self):
        b = chernoff_lower(TailQuery(100, 0.5, 50))
        assert abs(b.phi_form - math.exp(-50)) < 1e-60

    def test_lower_clamps(self):
        b = chernoff_lower(TailQuery(100, 0.5, 80))
        assert b.clamped
        assert abs(b.phi_form - math.exp(-50)) < 1e-60

    def test_bad_query(self):
        with pytest.raises(InputError):
            TailQuery(0, 0.5)
        with pytest.raises(InputError):
            TailQuery(5, 1.5)
        with pytest.raises(InputError):
            TailQuery(5, 0.5, -1)


class TestLargeDeviation:
    def test_k_equals_e_vacuous(self):
        b = large_deviation(TailQuery(100, 0.1, k_factor=math.e))
        assert b.value == 1.0 and b.vacuous

    def test_k3_value(self):
        b = large_deviation(TailQuery(100, 0.1, k_factor=3))
        assert abs(b.value - math.exp(-30 * math.log(3 / math.e))) < 1e-12
        assert round(b.value, 4) == 0.0519

    def test_dominates_exact(self):
        b = large_deviation(TailQuery(100, 0.1, k_factor=3))
        exact = binom_tail_exact(100, 0.1, 30, "gt")
        assert b.value >= exact

    def test_k_positive_required(self):
        with pytest.raises(InputError):
            large_deviation(TailQuery(10, 0.1, k_factor=0))


class TestBinomTail:
    def test_always_one(self):
        assert binom_tail_exact(7, 0.4, 0, "ge") == 1.0

    def test_small_enumeration(self):
        assert abs(binom_tail_exact(4, 0.5, 2, "gt") - 5 / 16) < 1e-12

    def test_closed_form(self):
        assert abs(binom_tail_exact(10, 0.3, 1, "lt") - 0.7 ** 10) < 1e-12

    def test_sides_consistent(self):
        for t in (0, 1, 3.5, 7):
            lo = binom_tail_exact(7, 0.4, t, "le")
            hi = binom_tail_exact(7, 0.4, t, "gt")
            assert abs(lo + hi - 1.0) < 1e-12

    def test_degenerate_q(self):
        assert binom_tail_exact(5, 0.0, 0, "le") == 1.0
        assert binom_tail_exact(5, 1.0, 4, "gt") == 1.0
        assert binom_tail_exact(5, 1.0, 5, "gt") == 0.0


def same_float(x, y):
    """Equal bit for bit (NaN equal to NaN)."""
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestLogSumExp:
    """``_logsumexp`` repeats scipy's formula, so it must equal
    ``scipy.special.logsumexp`` bit for bit."""

    @pytest.mark.parametrize("a", [
        [3.0],
        [-2.5, 1.0, 1.0, 0.25, 1.0],               # ties at the maximum
        [7.0, 7.0],                                 # nothing but ties
        [-np.inf, 0.5, -np.inf, -3.0],
        [-np.inf, -np.inf, -np.inf],
        [-np.inf],
        [np.inf, 0.0],
        [np.nan, 1.0],
        [-745.0, -700.0, -1e300],                   # far below the maximum
        [[1.0, -np.inf, 2.0], [2.0, -0.5, 0.0]],    # 2-D, summed over all
        [],
    ], ids=["single", "ties", "all-ties", "neg-inf", "all-neg-inf",
            "one-neg-inf", "pos-inf", "nan", "tiny", "2-D", "empty"])
    def test_cases_bitwise(self, a):
        assert same_float(_logsumexp(a), logsumexp(np.asarray(a, float)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-800, 800), st.just(-math.inf),
                              st.sampled_from([0.0, 1.0, 5.5])),
                    min_size=1, max_size=300),
           st.sampled_from([1, 2]))
    def test_random_bitwise(self, values, rows):
        a = np.asarray(values * rows, dtype=np.float64)
        if rows == 2:
            a = a.reshape(2, -1)
        assert same_float(_logsumexp(a), logsumexp(a))

    @pytest.mark.parametrize("size", (20, 100, 1000, 5000))
    def test_summation_order_bitwise(self, size):
        # log-sums near 0 carry the last bits of the pairwise sum, so they
        # show whether the maxima stay in place as zeros
        rng = np.random.default_rng(size)
        for _ in range(100):
            a = np.log(rng.random(size))
            a -= np.log(np.exp(a).sum())
            a[rng.integers(0, size)] = a.max()
            assert same_float(_logsumexp(a), logsumexp(a))

    def test_case7_chunk_shape_bitwise(self):
        rng = np.random.default_rng(3)
        t1 = rng.normal(-40.0, 30.0, size=(64, 256))
        t2 = rng.normal(-60.0, 30.0, size=(64, 256))
        t1[:, 200:] = -np.inf
        t2[5:, :] = -np.inf
        t1[0, 0] = t2[1, 3] = t1.max()
        for a in (np.concatenate([t1.ravel(), t2.ravel()]), t1):
            assert same_float(_logsumexp(a), logsumexp(a))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=40),
           st.sampled_from([1, 8, 800]), st.integers(0, 2 ** 32 - 1))
    def test_rows_bitwise_equal_to_the_full_rows(self, widths, spread, seed):
        """Ragged rows summed from their entries alone equal the full rows
        with -inf after each row's entries, bit for bit: in the spread of
        800 most exps underflow or come out subnormal, and ties at the
        maximum and rows with no entry occur."""
        rng = np.random.default_rng(seed)
        widths = np.array(widths)
        a = rng.normal(0.0, spread, size=int(widths.sum()))
        if a.size:
            a[rng.integers(0, a.size, size=2)] = a.max()
        full = np.full((widths.size, 8), -np.inf)
        full[np.arange(8) < widths[:, None]] = a
        want = logsumexp(full)
        assert same_float(_logsumexp(a, rows=(widths, 8)), want)
        assert same_float(_logsumexp(full), want)

    def test_exp_is_zero_below_the_cut(self):
        """``_logsumexp`` takes no exp below ``_EXP_ZERO``: there every exp
        is exactly 0.0."""
        x = np.concatenate([[np.nextafter(bounds._EXP_ZERO, -np.inf)],
                            np.linspace(bounds._EXP_ZERO, -1e4, 10001),
                            [-1e300, -np.inf]])
        assert not np.exp(x).any()
        assert np.exp(-745.0) > 0.0   # the cut is below the last subnormal

    def test_bounds_does_not_bind_scipy_logsumexp(self):
        assert not hasattr(bounds, "logsumexp")
        assert all(v is not scipy.special.logsumexp
                   for v in vars(bounds).values())


class TestUnionBudget:
    def test_unknown_tag(self):
        with pytest.raises(InputError):
            union_budget("nope", 1024, 0.05)

    def test_cut_below_paper_majorization(self):
        # the documented comparison: sum over c <= n/2 of n^(-2c) < 2 n^-2
        n = 1024
        res = union_budget("CUT", n, auto_p(n))
        assert res.value <= 2.0 * n ** -2

    def test_p24a_tiny_at_2_14(self):
        res = union_budget("P24a", 2 ** 14, auto_p(2 ** 14), 0.5)
        assert res.value < 1e-6
        assert res.log10_value < -6

    def test_p25_empty_range_small_n(self):
        res = union_budget("P25", 2 ** 10, auto_p(2 ** 10))
        assert res.value == 0.0
        assert res.notes.get("empty_range")

    def test_monotone_in_p(self):
        # termwise decreasing in p; equality only where the dominant terms
        # lose their p-dependence (P24b's degenerate w=1 term, empty P25)
        n = 2 ** 10
        for tag in BUDGET_TAGS:
            hi = union_budget(tag, n, auto_p(n), 0.5).log_value
            lo = union_budget(tag, n, 1.0, 0.5).log_value
            assert lo <= hi + 1e-12, tag
            if tag not in ("P24b", "P25"):
                assert lo < hi, tag

    def test_vacuous_flagging(self):
        res = union_budget("P26", 2 ** 10, auto_p(2 ** 10), 0.5)
        assert res.vacuous and res.value > 1.0
        res = union_budget("C7a", 2 ** 14, auto_p(2 ** 14), 0.5)
        assert res.vacuous and res.value == math.inf    # beyond float range
        res = union_budget("P24a", 2 ** 10, auto_p(2 ** 10), 0.5)
        assert not res.vacuous

    def test_param_validation(self):
        with pytest.raises(InputError):
            union_budget("CUT", 1, 0.5)
        with pytest.raises(InputError):
            union_budget("CUT", 16, 0.0)
        with pytest.raises(InputError):
            union_budget("CUT", 16, 0.5, epsilon=1.0)

    @pytest.mark.parametrize("n", (1024.0, 1024.5, "1024"))
    def test_n_must_be_an_integer(self, n):
        for tag in BUDGET_TAGS:
            with pytest.raises(InputError):
                union_budget(tag, n, 0.05)

    def test_numpy_integer_n(self):
        for tag in BUDGET_TAGS:
            res = union_budget(tag, np.int64(1024), 0.05)
            assert type(res.n) is int and res.n == 1024
            assert res.log_value == union_budget(tag, 1024, 0.05).log_value

    def test_all_tags_evaluate(self):
        n = 2 ** 12
        for tag in BUDGET_TAGS:
            res = union_budget(tag, n, auto_p(n), 0.5)
            assert isinstance(res.log_value, float)
            assert res.tag == tag

    def test_query_object_round_trip(self):
        p = auto_p(2 ** 10)
        res = union_budget("CUT", 2 ** 10, p)
        assert (res.tag, res.n, res.p, res.epsilon) == ("CUT", 2 ** 10, p, 0.5)
        assert res.log_value == union_budget("CUT", 2 ** 10, p).log_value
        with pytest.raises(InputError):
            union_budget("bogus", 2 ** 10, 0.5)


class TestLogCombRow:
    """The budgets compute log C(n, k) only at the indices they read, with
    ``_log_comb``; read anywhere, it equals entry for entry the row
    log C(n, 0..n) that one log-gamma call over 1..n+1 gives."""

    @pytest.mark.parametrize("n", (2, 3, 1024, 2 ** 16))
    def test_bitwise_equal_to_log_comb(self, n):
        row = log_comb_row(n)
        assert row.tobytes() == _log_comb(n, np.arange(n + 1)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 2 ** 18), st.data())
    def test_per_index_bit_equal_to_row(self, n, data):
        ks = data.draw(st.lists(st.one_of(st.integers(0, n),
                                          st.sampled_from([0, n // 2, n])),
                                min_size=1, max_size=30))
        want = log_comb_row(n)[ks]
        assert _log_comb(n, np.asarray(ks, dtype=np.float64)).tobytes() == (
            want.tobytes())
        for k, w in zip(ks, want):
            assert same_float(_log_comb(n, k), w)

    @pytest.mark.parametrize("n", (2, 3, 255, 256, 1023, 1024, 40001))
    def test_block_tops_bound_the_row(self, n):
        """_lc_top bounds the computed row on every block, on both sides
        of the peak and across it; odd n has two equal peaks."""
        row = log_comb_row(n)
        for lo in (0, 1, n // 2 - 3, n // 2 + 1):
            lo = max(lo, 0)
            k0 = np.arange(lo, n + 1, _BLOCK, dtype=np.float64)
            k1 = np.minimum(k0 + (_BLOCK - 1), n)
            tops = [row[int(a):int(b) + 1].max() for a, b in zip(k0, k1)]
            assert (_lc_top(n, k0, k1) >= tops).all()


def slow_full_sum(tag, n, p, eps):
    """P26, P27a and P27b stop once their layers fall fast enough.  At
    p <= 1/n, and for P26 at eps = 0.1 below p = 0.3, that takes O(n)
    layers of O(n) terms."""
    if tag == "P26":
        return p <= 1.0 / n or (eps == 0.1 and p < 0.3)
    return tag in ("P27a", "P27b") and p <= 1.0 / n


class TestWithinReach:
    """Every tag computes log C(n, k) only in the blocks that can reach its
    cutoff and sums only the terms within e^-40 of the largest; the oracle
    computes every term and sums them all."""

    @pytest.mark.parametrize("e", range(10, 17))
    def test_bit_identical_to_full_sum(self, e):
        """Checked over p_grid, and for P24a and P26, the tags that read
        eps, over eps in {0.1, 0.5, 0.9}.  Past 2^13 the slow full sums are
        left out.  P26 entries that skip layers are held to 1e-12 relative
        on the log, not to equality: a skipped layer is a whole summand left
        out, which may change the rounding of the total."""
        n = 2 ** e
        for tag in FULL_TAGS:
            for p in p_grid(n):
                for eps in EPS_GRID if tag in ("P24a", "P26") else (0.5,):
                    if e > 13 and slow_full_sum(tag, n, p, eps):
                        continue
                    res = union_budget(tag, n, p, eps)
                    want = full_budget(tag, n, p, eps)
                    if res.notes.get("z_skipped"):
                        assert (abs(res.log_value - want)
                                <= 1e-12 * max(1.0, abs(want))), (tag, p, eps)
                    else:
                        assert res.log_value == want, (tag, p, eps)

    def test_p26_skips_layers_at_sparse_p(self):
        n = 2 ** 13
        notes = union_budget("P26", n, 1.0 / n).notes
        assert "z_stop" not in notes
        assert notes["z_skipped"] > 0


class TestReachEvaluator:
    """``_reach_sum`` computes log C(n, k) only in the blocks whose bound
    can reach the cutoff.  Forcing small blocks makes ranges of many blocks
    at small n."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(2, 700), st.sampled_from(FULL_TAGS),
           st.sampled_from(("1e-9", "1/n", "auto", "1")),
           st.sampled_from(EPS_GRID), st.sampled_from((1, 3, 16, _BLOCK)))
    def test_bit_identical_to_full_budget(self, n, tag, p_rule, eps, block):
        """Odd n has two equal peaks of log C(n, .); n = 2..3 and eps = 0.9
        give ranges of one element, and most ranges at _BLOCK are shorter
        than one block.  Bit for bit, the value is the sum of the terms
        within reach of every term computed.  That differs from the sum of
        every term in the last bits at times (n = 276, P24a, p = 8 ln n/n,
        eps = 0.1: 1 ulp), as the pairwise summation then groups fewer
        terms; it stays within 1e-14 relative.  Where P26 skips layers it
        leaves out whole summands, and is held to 1e-12 relative, as in
        TestWithinReach."""
        p = {"1e-9": 1e-9, "1/n": 1.0 / n, "auto": auto_p(n), "1": 1.0}[p_rule]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_BLOCK", block)
            got = union_budget(tag, n, p, eps)
        every = full_budget(tag, n, p, eps)
        if not got.notes.get("z_skipped"):
            assert same_float(got.log_value,
                              full_budget(tag, n, p, eps, within_reach=True))
        rel = 1e-12 if got.notes.get("z_skipped") else 1e-14
        if math.isfinite(every):
            assert abs(got.log_value - every) <= rel * max(1.0, abs(every))
        else:
            assert same_float(got.log_value, every)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 3000), st.data(), st.sampled_from((1, 2, 5, 64)),
           st.floats(0.0, 30.0), st.booleans())
    def test_keeps_what_a_cutoff_over_every_term_keeps(self, n, data, block,
                                                       slope, rises):
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))

        def terms(lc, ks):
            return lc - slope * (ks if rises else (hi - ks)) / n

        ks = np.arange(lo, hi + 1, dtype=np.float64)
        every = terms(_log_comb(n, ks), ks)
        want = _logsumexp(every[every >= _cutoff(every.max(), every.size)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_BLOCK", block)
            got = _reach_sum(_LogCombBlocks(n, lo), hi, terms, rises)
        assert same_float(got, want)

    @pytest.mark.parametrize("tag", ("P24a", "P24b", "P25", "CUT", "C7a"))
    def test_traced_peak_below_1mb_at_2_20(self, tag):
        """A log C(n, .) row alone is 8 MB at n = 2^20, and C7a has 209k
        rows there.  C7b is left out: its 590 kept rows of 512 terms take
        several MB."""
        n = 2 ** 20
        for p in (auto_p(n), 1.0 / n):
            union_budget(tag, n, p)
            tracemalloc.start()
            try:
                union_budget(tag, n, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, (p, peak)

    def test_p27_layers_do_not_depend_on_batches(self):
        """P27a and P27b take a first batch of _FIRST_BATCH layers, then
        _LAYER_BATCH at a time; every layer keeps its terms by its own
        cutoff, so one layer per batch gives the same values and notes."""
        for n in (2 ** 10, 2 ** 12, 2 ** 14):
            for p in (auto_p(n), min(1.0, 50.0 / n), 0.3):
                for tag in ("P27a", "P27b"):
                    want = union_budget(tag, n, p)
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(bounds, "_FIRST_BATCH", 1)
                        mp.setattr(bounds, "_LAYER_BATCH", 1)
                        got = union_budget(tag, n, p)
                    assert same_float(got.log_value, want.log_value), (tag, p)
                    assert got.notes == want.notes

    def test_p26_unsure_layers_read_whole(self):
        """With the slack on log C(n, y_top(z)) made huge, every layer bound
        is unsure and its y-range is read whole; the values do not move."""
        n = 2 ** 11
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_lc_slack", lambda n: 1e6)
            for p in (auto_p(n), 1.0 / n, 0.3):
                for eps in EPS_GRID:
                    res = union_budget("P26", n, p, eps)
                    mp.undo()
                    want = union_budget("P26", n, p, eps)
                    mp.setattr(bounds, "_lc_slack", lambda n: 1e6)
                    assert same_float(res.log_value, want.log_value)
                    assert res.notes == want.notes


class TestBudgetPins:
    """Every tag at eps = 0.5 over n = 2^10..2^18, and C7a and C7b at 2^19
    and 2^20, with p in {8 ln n/n, 0.3, 1/n}: log-value and notes equal,
    bit for bit, to the values pinned in tests/budget_pins.json."""

    @pytest.mark.parametrize("e", range(10, 19))
    def test_bit_identical_to_pins(self, e):
        n = 2 ** e
        for label, p in (("auto", auto_p(n)), ("0.3", 0.3), ("1/n", 1.0 / n)):
            for tag in BUDGET_TAGS:
                res = union_budget(tag, n, p, 0.5)
                got = [res.log_value.hex(), repr(res.notes)]
                assert got == BUDGET_PINS["budgets"][f"{tag}|{e}|{label}"], (
                    tag, label)

    @pytest.mark.parametrize("e", (19, 20))
    def test_c7_bit_identical_to_pins_at_2_19_and_2_20(self, e):
        """Where most of C7b's window slots are valid (83 % at 2^20)."""
        n = 2 ** e
        for label, p in (("auto", auto_p(n)), ("0.3", 0.3), ("1/n", 1.0 / n)):
            for tag in ("C7a", "C7b"):
                res = union_budget(tag, n, p, 0.5)
                got = [res.log_value.hex(), repr(res.notes)]
                want = BUDGET_PINS["c7_budgets"][f"{tag}|{e}|{label}"]
                assert got == want, (tag, label)


class TestCase7:
    """C7a and C7b sum a window of parity steps per b-row, and only over the
    rows whose term bound comes within float64 reach of the largest term."""

    @pytest.mark.parametrize("e", range(10, 17))
    def test_bit_identical_to_every_row_summed(self, e):
        n = 2 ** e
        for p in p_grid(n):
            for tag, big in C7_SIDES:
                got = union_budget(tag, n, p).log_value
                assert got == full_window_case7(n, p, big), (tag, p)

    @pytest.mark.parametrize("e", (10, 11, 12))
    def test_window_matches_exact_sum(self, e):
        # relative 1e-12 on the sum is 1e-12 on its log
        n = 2 ** e
        for p in p_grid(n):
            for tag, big in C7_SIDES:
                got = union_budget(tag, n, p).log_value
                assert abs(got - exact_case7(n, p, big)) <= 1e-12, (tag, p)

    @pytest.mark.parametrize("e", (10, 11, 12))
    def test_row_maximum_at_window_head(self, e):
        """Event 1 peaks at the largest valid s of every row, where its
        window starts.  Event 2 peaks at the parity floor for p >= 50/n;
        at p <= 1/n it rises in s instead, and there the window still
        matches the exact sum (test above) as event 1's terms dominate."""
        n = 2 ** e
        for p in p_grid(n):
            for _, big in C7_SIDES:
                for b, s, t1, t2 in case7_rows(n, p, big):
                    assert t1.argmax() == s.size - 1, (b, p)
                    if p >= 50.0 / n:
                        assert t2.argmax() == 0, (b, p)

    @pytest.mark.parametrize("e", range(10, 15))
    def test_window_prefix_counts_the_valid_s(self, e):
        """Both windows of every kept row hold valid s in exactly their first
        ``_c7_width`` slots: event 1 from s_hi down, event 2 from the parity
        floor up, each s counted when 1 <= s <= s_hi."""
        n = 2 ** e
        steps = 2 * np.arange(bounds._C7_WINDOW)
        for p in p_grid(n):
            for _, big in C7_SIDES:
                _, bs, s_hi, _ = bounds._c7_rows(n, p, big)
                width = bounds._c7_width(s_hi)
                for s_top, w in zip(s_hi.tolist(), width.tolist()):
                    down = s_top - steps
                    up = (2 - s_top % 2) + steps
                    for window in (down, up):
                        ok = (window >= 1) & (window <= s_top)
                        assert ok.sum() == w and ok[:w].all(), (p, s_top)

    def test_notes_keep_full_range_and_count_rows(self):
        n = 2 ** 12
        for tag, big in C7_SIDES:
            notes = union_budget(tag, n, auto_p(n)).notes
            rows = [b for b, *_ in case7_rows(n, auto_p(n), big)]
            assert (notes["b_lo"], notes["b_hi"]) == (rows[0], rows[-1])
            assert 1 <= notes["b_rows"] <= len(rows)
            if big:
                assert notes["b_rows"] < len(rows) // 10   # 24 of 816

    def test_rows_summed_at_2_20(self):
        n = 2 ** 20
        assert union_budget("C7a", n, auto_p(n)).notes["b_rows"] <= 4096

    @pytest.mark.parametrize("tag, n", (("C7b", 2 ** 13), ("C7b", 2 ** 15),
                                        ("C7b", 2 ** 16), ("C7a", 4000)))
    def test_slot_layout_where_the_budget_crosses_one(self, tag, n):
        """At the p where the budget crosses 1 (found on the oracle) the
        log-value is within 1e-12 of 0, so its last bits are those of the
        chunk's pairwise sum of exps.  The terms within 36 nats of the top
        lie in many short rows (C7b at 2^16: 33 of them in 32 rows, each
        with at most 33 valid slots of 256), so an exp put at a wrong slot
        of the (event, row, slot) layout shows in the bits."""
        big = tag == "C7a"
        lo, hi = 1.0 / n, 1.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if full_window_case7(n, mid, big) > 0.0:
                lo = mid
            else:
                hi = mid
        got = union_budget(tag, n, hi).log_value
        assert abs(got) < 1e-12
        assert same_float(got, full_window_case7(n, hi, big))

    def test_rows_computed_at_2_18_and_2_20(self):
        """C7a computes the rows of its block of largest bound, then those
        of the blocks within reach of its largest head, of 205 blocks at
        2^18 and 817 at 2^20: at p = 8 ln n/n one block at 2^20, and the
        second pass adds one block at 2^18 and at p = 0.3."""
        seen = []

        def spy(n, p, big, bs, *rest):
            seen.append(bs.size)
            return row_values(n, p, big, bs, *rest)

        row_values = bounds._c7_row_values
        want = {(18, "auto"): [256, 512], (18, "0.3"): [256, 303],
                (20, "auto"): [256], (20, "0.3"): [191, 447]}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_c7_row_values", spy)
            for (e, label), sizes in want.items():
                n = 2 ** e
                seen.clear()
                union_budget("C7a", n, auto_p(n) if label == "auto" else 0.3)
                assert seen == sizes, (e, label)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(2, 5000),
                     st.sampled_from([2 ** e for e in range(10, 19)])),
           st.sampled_from(C7_SIDES),
           st.one_of(st.sampled_from(("1/n", "50/n", "auto", "0.3", "1")),
                     st.floats(0.0, 1.0)),
           st.sampled_from(EPS_GRID), st.sampled_from((1, 3, 16, _BLOCK)))
    def test_rows_match_a_pass_over_every_row(self, n, side, p_rule, eps,
                                              block):
        """The rows bounded block by block are those that a pass bounding
        every row keeps; notes and log-value follow, bit for bit.  Small
        blocks give ranges of many blocks at small n.  Besides the named
        densities, p = n^-x for x in [0, 1] sweeps the range between, where
        the largest head moves from event 1 to event 2."""
        tag, big = side
        if isinstance(p_rule, float):
            p = float(n) ** -p_rule
        else:
            p = {"1/n": 1.0 / n, "50/n": min(1.0, 50.0 / n),
                 "auto": auto_p(n), "0.3": 0.3, "1": 1.0}[p_rule]
        want, notes, kept = case7_by_row_bounds(n, p, big)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_BLOCK", block)
            got = union_budget(tag, n, p, eps)
            rows = bounds._c7_rows(n, p, big)[1].tolist()
        assert same_float(got.log_value, want)
        assert got.notes == notes
        assert rows == kept

    @pytest.mark.parametrize("block", (1, 3, 16, _BLOCK))
    def test_block_bounds_hold_every_row(self, block):
        """Both values of every row, as computed, lie at or below the bound
        of its block: on both sides, over p_grid and 50/n, and at p =
        c (ln n + 1)/n, where the blocks' least E(s)/s crosses the ln n + 1
        from which the event-2 bound reads log C(n, s) over 1..2 only."""
        for n in (1500, 3000, 5000, 2 ** 15, 2 ** 16):
            turns = tuple(min(1.0, c * (math.log(n) + 1.0) / n)
                          for c in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0))
            for tag, big in C7_SIDES:
                for p in p_grid(n) + (min(1.0, 50.0 / n),) + turns:
                    notes = union_budget(tag, n, p).notes
                    bs = np.arange(notes["b_lo"], notes["b_hi"] + 1)
                    heads, row_ub, _ = bounds._c7_row_values(
                        n, p, big, bs, lambda k: _log_comb(n, k),
                        _log_comb(n, np.arange(bs[-1] + 2)))
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(bounds, "_BLOCK", block)
                        ub = bounds._c7_block_bounds(n, p, big, bs[::block],
                                                     bs[-1])
                    most = np.maximum.reduceat(np.maximum(heads, row_ub),
                                               np.arange(0, bs.size, block))
                    assert (most <= ub).all(), (tag, p)

    @pytest.mark.parametrize("block", (1, 3, 16, _BLOCK))
    def test_edge_ranges_match_a_pass_over_every_row(self, block):
        """C7a has no b at n = 5; at n = 6 its one b = 1 leaves only s = 1
        and an even a, so no row; n = 7 has one row; at n = 11 the last b
        has no s of the right parity and is dropped.  C7b has no b up to
        n = 1000 and one row at n = 1001."""
        cases = (("C7a", 5, None), ("C7a", 6, None), ("C7a", 7, (1, 1)),
                 ("C7a", 11, (1, 1)), ("C7a", 12, (1, 2)),
                 ("C7b", 1000, None), ("C7b", 1001, (1, 1)))
        for tag, n, b_range in cases:
            big = tag == "C7a"
            for p in p_grid(n):
                want, notes, kept = case7_by_row_bounds(n, p, big)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(bounds, "_BLOCK", block)
                    got = union_budget(tag, n, p)
                    rows = bounds._c7_rows(n, p, big)[1].tolist()
                assert same_float(got.log_value, want), (tag, n, p)
                assert got.notes == notes and rows == kept, (tag, n, p)
                if b_range is None:
                    assert notes == {"empty_range": True}
                else:
                    assert (notes["b_lo"], notes["b_hi"]) == b_range
        # n = 11's formula range is b = 1..2, the last dropped for parity
        assert (100 * (11 - 1) - 1) // 499 == 2


class TestEgSizeFormula:
    def test_k6(self):
        assert eg_size_formula(6, 1, 2) == (5, 2)

    def test_k7(self):
        assert eg_size_formula(7, 2, 2) == (11, 2)

    def test_tie_prefers_inside(self):
        assert eg_size_formula(5, 2, 2) == (10, 1)

    def test_k0(self):
        assert eg_size_formula(9, 0, 2) == (0, 1)

    def test_infeasible(self):
        with pytest.raises(InputError):
            eg_size_formula(5, 3, 2)
        with pytest.raises(InputError):
            eg_size_formula(5, 1, 1)

    def test_l3(self):
        inside = math.comb(3 * 2 - 1, 3)
        meeting = math.comb(9, 3) - math.comb(8, 3)
        assert eg_size_formula(9, 1, 3)[0] == max(inside, meeting)

    def test_inside_branch_clipped_to_n(self):
        # l(k+1)-1 > n: the inside branch is the whole complete l-graph
        assert eg_size_formula(4, 2, 2) == (6, 1)
        assert eg_size_formula(8, 4, 2) == (28, 1)
        assert eg_size_formula(7, 2, 3) == (35, 1)

    def test_never_exceeds_complete_graph(self):
        for l in (2, 3, 4):
            for n in range(l, 14):
                for k in range(n // l + 1):
                    assert eg_size_formula(n, k, l)[0] <= math.comb(n, l)


class TestP3Moments:
    def test_p_zero(self):
        m = p3_moments(10, 0.0)
        assert m.mean == 0.0 and m.ratio is None

    def test_n10_p01(self):
        m = p3_moments(10, 0.1)
        expected = 3 * math.comb(10, 3) * 0.01 * 0.9 ** 22
        assert abs(m.mean - expected) < 1e-12
        pair = 9 * math.comb(10, 3) * math.comb(7, 3) * 1e-4 * 0.9 ** 35
        assert abs(m.second_moment - (expected + pair)) < 1e-12

    def test_small_n_second_term_absent(self):
        m = p3_moments(5, 0.2)
        assert m.second_moment == m.mean

    @pytest.mark.parametrize("n,p", [(59, 0.9), (365, 0.3), (399, 0.3)])
    def test_ratio_none_when_mean_squared_underflows(self, n, p):
        # the mean is positive, but its square is below the normal floats
        m = p3_moments(n, p)
        assert 0.0 < m.mean and m.mean * m.mean < sys.float_info.min
        assert m.ratio is None

    def test_ratio_tends_to_one(self):
        n = 10 ** 6
        m = p3_moments(n, 2.0 / (3.0 * n))
        assert m.ratio is not None
        assert abs(m.ratio - 1.0) < 1e-3

    def test_monte_carlo_agreement(self):
        from oracles import sample_p3_counts
        counts = sample_p3_counts(10, 0.1, 300_000, seed=2024)
        m = p3_moments(10, 0.1)
        var = m.second_moment - m.mean ** 2
        sigma = math.sqrt(var / counts.size)
        assert abs(counts.mean() - m.mean) < 3 * sigma
