"""Closed-form probability machinery: the rate function phi, binomial tail
bounds (Chernoff two ways, large deviations), exact binomial tails as the
domination oracle, finite-n union-bound budgets for the density events, the
extremal size formula, and the isolated-3-path moment formulas.

All sums that can span hundreds of orders of magnitude are evaluated in log
space, and only over the terms within e^-40 of the largest.  A sum over an
index range is split into blocks of ``_BLOCK`` indices, every block is
bounded at once, and only the blocks whose bound can reach the cutoff are
computed (``_within_reach``): blocks of log C(n, k) in P24a-P27b and CUT
(``_reach_sums``), blocks of b-rows in C7a/C7b (``_c7_rows``); no budget
builds a length-n row.  The kept terms are summed in numpy by
``_logsumexp``, which repeats scipy's log-sum-exp formula step for step;
scipy supplies only the log-gamma function.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import InputError

_LN_MAX = 709.0          # exp overflow threshold for float64
_EXP_ZERO = -750.0       # exp(x) rounds to 0.0 for x < -745.14


# ---------------------------------------------------------------------------
# tail queries and pointwise bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailQuery:
    """Parameters of a binomial tail question: X ~ Bin(m, q), mu = m*q."""

    m: int
    q: float
    lam: float = 0.0
    k_factor: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise InputError("m must be >= 1")
        if not (0.0 <= self.q <= 1.0):
            raise InputError("q must lie in [0, 1]")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise InputError("lambda must be finite and >= 0")
        if not math.isfinite(self.k_factor):
            raise InputError("K must be finite")

    @property
    def mu(self) -> float:
        return self.m * self.q


@dataclass(frozen=True)
class BoundPair:
    phi_form: float
    quadratic_form: float
    degenerate: bool = False
    clamped: bool = False

    @property
    def vacuous(self) -> bool:
        return min(self.phi_form, self.quadratic_form) >= 1.0


def phi(x: float) -> float:
    """(1+x) ln(1+x) - x, extended by continuity with phi(-1) = 1."""
    if x < -1:
        raise InputError("phi is defined on x >= -1")
    if x == -1:
        return 1.0
    if x == 0:
        return 0.0
    return (1.0 + x) * math.log1p(x) - x


def chernoff_upper(query: TailQuery) -> BoundPair:
    """Bounds on Pr(X > mu + lambda): exp[-mu*phi(lam/mu)] and the weaker
    exp[-lam^2 / (2(mu + lam/3))]."""
    mu, lam = query.mu, query.lam
    if lam == 0:
        return BoundPair(1.0, 1.0, degenerate=(mu == 0))
    if mu == 0:
        return BoundPair(0.0, 0.0, degenerate=True)   # X = 0 a.s.
    phi_b = math.exp(-mu * phi(lam / mu))
    quad_b = math.exp(-lam * lam / (2.0 * (mu + lam / 3.0)))
    return BoundPair(phi_b, quad_b)


def chernoff_lower(query: TailQuery) -> BoundPair:
    """Bounds on Pr(X < mu - lambda): exp[-mu*phi(-lam/mu)] and
    exp[-lam^2/(2 mu)].  lambda > mu is clamped to mu (the event is then
    contained in {X < 0})."""
    mu, lam = query.mu, query.lam
    clamped = False
    if lam == 0:
        return BoundPair(1.0, 1.0, degenerate=(mu == 0))
    if mu == 0:
        return BoundPair(1.0, 1.0, degenerate=True, clamped=True)
    if lam > mu:
        lam = mu
        clamped = True
    phi_b = math.exp(-mu * phi(-lam / mu))
    quad_b = math.exp(-lam * lam / (2.0 * mu))
    return BoundPair(phi_b, quad_b, clamped=clamped)


@dataclass(frozen=True)
class LargeDeviationBound:
    value: float
    vacuous: bool


def large_deviation(query: TailQuery) -> LargeDeviationBound:
    """Bound on Pr(X > K m q): exp[-K m q ln(K/e)]; vacuous when K <= e."""
    k = query.k_factor
    if k <= 0:
        raise InputError("K must be positive")
    exponent = -k * query.mu * (math.log(k) - 1.0)
    value = math.exp(min(exponent, _LN_MAX))
    return LargeDeviationBound(value=value, vacuous=value >= 1.0)


def binom_tail_exact(m: int, q: float, t: float, side: str) -> float:
    """Exact binomial tail Pr(X <side> t), summed in log space.

    side is one of 'gt', 'ge', 'lt', 'le'.
    """
    if m < 0:
        raise InputError("m must be >= 0")
    if not (0.0 <= q <= 1.0):
        raise InputError("q must lie in [0, 1]")
    if not math.isfinite(t):
        raise InputError("t must be finite")
    if side == "gt":
        j0, j1 = math.floor(t) + 1, m
    elif side == "ge":
        j0, j1 = math.ceil(t), m
    elif side == "lt":
        j0, j1 = 0, math.ceil(t) - 1
    elif side == "le":
        j0, j1 = 0, math.floor(t)
    else:
        raise InputError(f"unknown side {side!r}")
    j0 = max(j0, 0)
    j1 = min(j1, m)
    if j0 > j1:
        return 0.0
    if q == 0.0:
        return 1.0 if j0 == 0 else 0.0
    if q == 1.0:
        return 1.0 if j1 == m else 0.0
    js = np.arange(j0, j1 + 1, dtype=np.float64)
    logpmf = (_log_comb(m, js) + js * math.log(q)
              + (m - js) * math.log1p(-q))
    return float(min(1.0, math.exp(_logsumexp(logpmf))))


def _logsumexp(a, top=None, rows=None) -> float:
    """log sum exp over all entries of ``a``: scipy.special.logsumexp's
    formula (scipy 1.17) step for step, so bitwise equal to it, without its
    fixed cost of about 0.15 ms a call.  With M the largest entry and m the
    number equal to it, s sums exp(a - M) over the rest, and the value is
    log1p(s/m) + log(m) + M.  The entries at M are zeroed in place rather
    than dropped, so the pairwise summation groups the terms as scipy's
    does.  When M is not finite the value is log(sum(exp(a))), as in scipy;
    empty input gives -inf.  ``top``, when given, is M.

    ``rows``, when given, is (widths, size), and the entries summed are
    rows of ``size``: row i holds the next widths[i] entries of ``a``, in C
    order, and -inf after them.  Only exps that do not round to 0.0 are
    taken, and each is put at its place in a zeroed array of the rows'
    shape, which is summed: every term keeps its position and every other
    entry is the 0.0 its exp would be, so the value is bit for bit that of
    the full rows."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return -math.inf
    if top is None:
        top = a.max()
    if not math.isfinite(top):  # zeros, infs or NaNs: any order sums alike
        with np.errstate(over="ignore", divide="ignore"):
            return float(np.log(np.exp(a).sum()))
    shifted = a - top
    if rows is not None:
        at = np.flatnonzero(shifted >= _EXP_ZERO)
        shifted = shifted.ravel()[at]
    at_top = shifted == 0.0
    m = np.count_nonzero(at_top)
    np.exp(shifted, out=shifted)
    shifted[at_top] = 0.0
    if rows is not None:
        widths, size = rows
        ends = np.cumsum(widths)
        if ends[-1] < widths.size * size:   # move past the short rows' gaps
            row = np.searchsorted(ends, at, side="right")
            at += row * size - (ends[row] - widths[row])
        full = np.zeros(widths.size * size)
        full[at] = shifted
        shifted = full
    s = shifted.sum()
    if m == 1:                  # s / 1 == s, and log(1) adds +0.0
        return float(np.log1p(s) + top)
    m = np.float64(m)
    if s != 0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + top)


def _log_comb(n, k):
    """log C(n, k) = (ln n! - ln k!) - ln (n-k)! for integer n and integer
    k (a scalar or an array), so n + 1 - k is exact in float64."""
    k = np.asarray(k, dtype=np.float64)
    return gammaln(n + 1.0) - gammaln(k + 1) - gammaln(n + 1.0 - k)


_MARGIN = 40.0            # terms dropped this far (plus ln #terms) below the
                          # largest add under e^-40 of the sum, which moves
                          # its log by less than 4.3e-18
_BLOCK = 256              # indices per block of a within-reach sum
_LAYER_BATCH = 32         # layers of one budget evaluated in one 2-D pass
_FIRST_BATCH = 8          # P27a/P27b's first batch: at dense p they stop
                          # after four or five layers


def _cutoff(top, count):
    """The smallest term kept of ``count`` terms whose largest is ``top``:
    every term is at most top, so those below top - 40 - ln(count) add
    under e^-40 of the sum together."""
    return top - _MARGIN - math.log(count)


def _log_sum(values, count, top):
    """log sum exp of ``count`` terms, given ``values``: terms that include
    the largest, ``top``, and every term at or above the cutoff, in index
    order.  Only those at or above it reach ``_logsumexp``: the same terms,
    in the same order, as a cutoff over all ``count`` terms keeps."""
    return _logsumexp(values[values >= _cutoff(top, count)], top)


def _lc_slack(n):
    """2^-40 of ln n! + 1: over 100 times the rounding error of a computed
    log C(n, k), whose three log-gammas are good to a few ulps of ln n! and
    whose two subtractions add one each."""
    return 2.0 ** -40 * (math.lgamma(n + 1.0) + 1.0)


def _lc_top(n, k0, k1):
    """Upper bounds on the computed log C(n, k) over each block k0..k1.
    log C(n, .) rises up to n/2 and falls after it, so its largest value on
    a block is at the block's index nearest n/2; the slack covers rounding."""
    return _log_comb(n, np.minimum(np.maximum(n // 2, k0), k1)) + _lc_slack(n)


class _LogCombBlocks:
    """log C(n, k) for origin <= k <= n, in blocks of _BLOCK indices from
    origin, each computed on its first read and then kept, and an upper
    bound on each block.  The sums of one budget over ranges that start at
    origin share one, so that each block is computed once per budget."""

    def __init__(self, n, origin):
        self.n = n
        self.origin = origin
        self._blocks = {}
        self._starts = self._tops = np.empty(0)

    def read(self, js, hi):
        """(float indices, log C(n, k)) over the blocks ``js``, ascending, up
        to k = hi.  The blocks not read before are computed in one call."""
        blocks = self._blocks
        new = [j for j in js if j not in blocks]
        if new:
            starts = self.origin + _BLOCK * np.array(new, dtype=np.float64)
            ks = (starts[:, None] + np.arange(_BLOCK, dtype=np.float64)).ravel()
            ks = ks[ks <= self.n]
            lc = _log_comb(self.n, ks)
            for i, j in enumerate(new):
                part = slice(i * _BLOCK, (i + 1) * _BLOCK)
                blocks[j] = ks[part], lc[part]
        if len(js) == 1:
            ks, lc = blocks[js[0]]
        else:
            ks, lc = (np.concatenate(part)
                      for part in zip(*(blocks[j] for j in js)))
        cut = lc.size - max(int(ks[-1]) - hi, 0)
        return ks[:cut], lc[:cut]

    def tops(self, count):
        """The first indices of the first ``count`` blocks, and upper bounds
        on log C(n, k) over each of them whole, so over any part of it."""
        have = self._tops.size
        if count > have:
            k0 = self.origin + _BLOCK * np.arange(have, count,
                                                  dtype=np.float64)
            k1 = np.minimum(k0 + (_BLOCK - 1), self.n)
            self._starts = np.concatenate([self._starts, k0])
            self._tops = np.concatenate([self._tops, _lc_top(self.n, k0, k1)])
        return self._starts[:count], self._tops[:count]


def _within_reach(ub, compute, cut):
    """The values on every block that can hold one at or above cut(M), M
    each row's largest value, as ``compute`` returns them: (each row's
    largest value, the values).  ``ub`` bounds each row's values on each
    block, rows x blocks, -inf where a row has none; ``compute(js)``
    computes the blocks js, ascending, for every row; ``cut(tops)`` gives
    each row's threshold and does not fall as tops rise.

    Each row's block of largest bound is computed first.  A row's largest
    value L there is at most M, so a block whose bound is below cut(L)
    holds none at or above cut(M), and not M.  Then the blocks that any row
    needs are computed for all rows."""
    js = sorted(set(ub.argmax(axis=1).tolist()))
    tops, got = compute(js)
    need = np.flatnonzero((ub >= cut(tops)[:, None]).any(axis=0)).tolist()
    return (tops, got) if need == js else compute(need)


def _reach_values(lcs, his, values, bound, cut):
    """Rows of values over lcs.origin <= k <= hi, one row per hi in the
    array ``his``, at the k of the blocks within reach (``_within_reach``):
    (each row's largest value, vals), with vals[i] = -inf past his[i].
    ``values(lc, ks)`` computes the rows at a float index array from its
    log C values; ``bound(k0, tops, col)`` bounds each row's values from
    above on each block from k0, given ``tops``, bounds on log C over the
    blocks, and ``col``, his as a column; ``cut`` is ``_within_reach``'s.
    Ranges of at most four blocks are computed whole: bounding them costs
    more than computing them, while P24a, P24b, CUT and P26 take 1.3-2.6x
    as long computing 8 or 16 blocks whole as bounding them (2^11..2^14)."""
    rows = his.size
    col = his[:, None]
    hi = int(his.max())

    def compute(js):                # a single row reaches hi: no mask
        ks, lc = lcs.read(js, hi)
        vals = values(lc, ks).reshape(rows, -1)
        vals = vals if rows == 1 else np.where(ks > col, -math.inf, vals)
        return vals.max(axis=1), vals

    count = (hi - lcs.origin) // _BLOCK + 1
    if count <= 4:
        return compute(range(count))
    k0, tops = lcs.tops(count)
    ub = bound(k0, tops, col).reshape(rows, -1)
    if rows > 1:
        ub = np.where(k0 > col, -math.inf, ub)
    return _within_reach(ub, compute, cut)


def _reach_sums(lcs, his, terms, rises):
    """Yields, for each hi in ``his``, the log sum of terms(log C(n, k), k)
    over lcs.origin <= k <= hi: bit for bit what computing every term and
    keeping those at or above ``_cutoff`` gives, with log C computed only
    in the blocks that can reach a cutoff.

    ``terms(lc, ks)`` gives the terms at a float index array from their
    log C values, one row per hi.  Its exponent must rise in k when
    ``rises`` and fall otherwise, built from operations monotone in each
    operand, so that rounding keeps that order.  Then on a block the
    exponent is least at its first (last) index, and terms(bound on log C,
    that index) bounds every term of the block."""
    his = np.asarray(his, dtype=np.float64)
    counts = (his - lcs.origin + 1).tolist()

    def bound(k0, tops, col):
        return terms(tops, k0 if rises else np.minimum(k0 + (_BLOCK - 1), col))

    def cut(tops):
        return np.array([_cutoff(t, m) for t, m in zip(tops.tolist(), counts)])

    tops, vals = _reach_values(lcs, his, terms, bound, cut)
    for row, m, top in zip(vals, counts, tops):
        yield _log_sum(row, m, top)


def _reach_sum(lcs, hi, terms, rises):
    """``_reach_sums`` for one range."""
    return next(_reach_sums(lcs, [hi], terms, rises))


def _batches(items, first=_LAYER_BATCH):
    """Lists of consecutive items: up to ``first`` of them, then up to
    _LAYER_BATCH at a time.  Each layer's value is the same in any batch,
    as every layer keeps its terms by its own cutoff."""
    items = iter(items)
    size = first
    while batch := list(itertools.islice(items, size)):
        yield batch
        size = _LAYER_BATCH


# ---------------------------------------------------------------------------
# union-bound budgets
# ---------------------------------------------------------------------------

@dataclass
class BudgetResult:
    tag: str
    n: int
    p: float
    epsilon: float
    log_value: float                 # natural log; -inf when the sum is empty
    notes: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        if self.log_value == -math.inf:
            return 0.0
        if self.log_value > _LN_MAX:
            return math.inf
        return math.exp(self.log_value)

    @property
    def log10_value(self) -> float:
        return self.log_value / math.log(10.0)

    @property
    def vacuous(self) -> bool:
        return self.log_value >= 0.0


def union_budget(tag: str, n: int, p: float, epsilon: float = 0.5) -> BudgetResult:
    """Finite-n numeric value of one of the union-bound failure budgets.

    Tags: P24a interior density (sets above eps*n), P24b 300-factor cap,
    P25 sparse-set log cap, P26 bipartite density, P27a/P27b the two
    three-part-partition sums, CUT the no-crossing-edges partition sum,
    C7a/C7b the final-case bad-event sums (large and small middle part).
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise InputError(f"budgets need an integer n, got {n!r}") from None
    if n < 2:
        raise InputError("budgets need n >= 2")
    if not (0.0 < p <= 1.0):
        raise InputError("budgets need 0 < p <= 1")
    if not (0.0 < epsilon < 1.0):
        raise InputError("budgets need 0 < epsilon < 1")
    try:
        fn = _BUDGET_FNS[tag]
    except KeyError:
        raise InputError(f"unknown budget tag {tag!r}; "
                         f"known: {', '.join(BUDGET_TAGS)}") from None
    log_value, notes = fn(n, p, epsilon)
    return BudgetResult(tag=tag, n=n, p=p, epsilon=epsilon,
                        log_value=log_value, notes=notes)


def _budget_p24a(n, p, eps):
    w0 = math.floor(eps * n) + 1
    if w0 > n:
        return -math.inf, {"empty_range": True}
    note = {"w_min": w0,
            "exponent": "eps^2/2 * C(w,2) * p (summation form; the pointwise "
                        "statement uses eps^2/3)"}
    return _reach_sum(_LogCombBlocks(n, w0), n, lambda lc, ws: (
        lc - (eps * eps / 2.0) * (ws * (ws - 1) / 2.0) * p), True), note


def _budget_p24b(n, p, eps):
    w0 = math.floor(math.log(n) / (150.0 * p)) + 1
    if w0 > n:
        return -math.inf, {"empty_range": True}
    return _reach_sum(_LogCombBlocks(n, w0), n, lambda lc, ws: (
        lc - 700.0 * ws * (ws - 1) * p), True), {"w_min": w0}


def _budget_p25(n, p, eps):
    lo = math.ceil(2.0 * math.log(n) / 3.0)
    hi = math.floor(math.log(n) / (150.0 * p))
    if lo > hi:
        return -math.inf, {"empty_range": True, "w_lo": lo, "w_hi": hi}
    top = min(hi, n)                       # C(n, w) = 0 for w > n
    return _reach_sum(_LogCombBlocks(n, lo), top, lambda lc, ws: (
        lc - 1.5 * ws * math.log(n)), True), {"w_lo": lo, "w_hi": hi}


def _budget_p26(n, p, eps):
    """One layer per z, each summing y over y_min..n-z.  Layers shrink at
    least geometrically once the binomial growth rate is beaten, which
    bounds the truncated tail.  Before that, at sparse p, a layer is skipped
    when a bound on it lies 40 + ln(#layers) nats below a term of the sum:
    the skipped layers add under e^-40 of it, as in _log_sum.

    Layer z sums log C(n,z) + log C(n,y) - c z y.  Its terms at y_min and
    at y_top(z), the index of its y-range nearest n/2, are terms of the sum;
    the largest of them over all layers is found block by block in z.  The
    bound on layer z is log C(n,z) + log C(n,y_top(z)) - c z y_min + ln #y,
    as log C(n,y_top(z)) is the largest log C(n,y) of its y-range.  Bounds
    are taken per block of z, in z order up to the stop; within a block that
    can reach the cutoff, each layer's bound is computed, and where the
    slack on log C(n,y_top(z)) could decide it, its y-range is read whole."""
    y_min = math.floor(eps * n) + 1
    z_min = math.floor(n / math.sqrt(math.log(n))) + 1
    if y_min + z_min > n:
        return -math.inf, {"empty_range": True}
    c = eps * eps * p / 3.0
    z_max = n - y_min
    z_lcs = _LogCombBlocks(n, z_min)
    y_lcs = _LogCombBlocks(n, y_min)
    lc_y_min = _log_comb(n, y_min)
    y_peak = max(n // 2, y_min)
    slack = _lc_slack(n)

    def y_top(zs):
        return np.minimum(y_peak, n - zs)

    def heads(lc_z, zs):
        ys = y_top(zs)
        return np.maximum(lc_z + lc_y_min - c * zs * y_min,
                          lc_z + _log_comb(n, ys) - c * zs * ys)

    def heads_bound(z0, tops, col):
        # y_top falls in z: on a block it lies in y_top(z1)..y_top(z0)
        z1 = np.minimum(z0 + (_BLOCK - 1), col)
        return np.maximum(tops + lc_y_min - c * z0 * y_min,
                          tops + _lc_top(n, y_top(z1), y_top(z0))
                          - c * z0 * y_top(z1))

    def layer_bound(lc_z, lc_y, zs):
        return lc_z + lc_y - c * zs * y_min + np.log(n - zs - y_min + 1.0)

    heads_max, _ = _reach_values(z_lcs, np.array([z_max]), heads, heads_bound,
                                 lambda tops: tops)
    cutoff = _cutoff(float(heads_max[0]), z_max - z_min + 1)

    def kept():
        """The layers the bound keeps, as (z, log C(n,z)) pairs in z order,
        read per block of z."""
        z0, tops = z_lcs.tops((z_max - z_min) // _BLOCK + 1)
        ub = layer_bound(tops, _lc_top(n, y_min, n - z0), z0)
        for j in np.flatnonzero(ub >= cutoff).tolist():
            zs, lc_z = z_lcs.read((j,), z_max)
            lc_y = _log_comb(n, y_top(zs))
            keep = layer_bound(lc_z, lc_y, zs) >= cutoff
            unsure = ~keep & (layer_bound(lc_z, lc_y + slack, zs) >= cutoff)
            for i in np.flatnonzero(unsure).tolist():
                ys = np.arange(y_min, n - zs[i] + 1)
                lc_y[i] = _log_comb(n, ys).max()
                keep[i] = layer_bound(lc_z[i:i + 1], lc_y[i:i + 1],
                                      zs[i:i + 1])[0] >= cutoff
            yield from zip(zs[keep].tolist(), lc_z[keep])

    def layer_values():
        for batch in _batches(kept()):
            zs, lc_z = (np.array(x)[:, None] for x in zip(*batch))
            cz = c * zs
            yield from zip(zs[:, 0].tolist(), _reach_sums(
                y_lcs, n - zs[:, 0], lambda lc, ys: lc + lc_z - cz * ys, True))

    gmax = math.log((n - z_min) / (z_min + 1.0))
    ratio_log = gmax - c * y_min
    total = -math.inf
    notes = {"y_min": y_min, "z_min": z_min}
    z_last = z_max
    summed = 0
    for summed, (z, layer) in enumerate(layer_values(), 1):
        total = np.logaddexp(total, layer)
        if ratio_log < 0:
            tail = layer + ratio_log - math.log1p(-math.exp(ratio_log))
            if tail < total - 46.0:
                z_last = int(z)
                notes["z_stop"] = z_last
                notes["tail_log_bound"] = tail
                break
    # layers up to the stop that the bound left out of the sum
    notes["z_skipped"] = z_last - z_min + 1 - summed
    return float(total), notes


def _sum_falling_layers(n, lcs, rows, terms, rises):
    """Log-sum of the layers b that ``rows`` yields as (b, c_hi) pairs, in
    order, and the notes of where it stopped: {"b_stop": b}, or {} when
    the layers ran out.  Layer b sums terms(lc, cs, b, log C(n, b)) over
    lcs.origin <= c <= c_hi (``_reach_sums``, ``rises`` as there), a batch
    of layers at a time with b as a column.  The sum stops once three
    layers have come in below the largest so far and n - b copies of the
    last layer would add under e^-46 of the total."""
    def layers():
        for batch in _batches(rows, _FIRST_BATCH):
            bs, c_his = (np.array(x, dtype=np.float64) for x in zip(*batch))
            b = bs[:, None]
            lc_b = _log_comb(n, b)
            yield from zip((row[0] for row in batch), _reach_sums(
                lcs, c_his, lambda lc, cs: terms(lc, cs, b, lc_b), rises))

    total = -math.inf
    peak = -math.inf
    decreasing = 0
    for b, layer in layers():
        total = np.logaddexp(total, layer)
        if layer >= peak:
            peak = layer
            decreasing = 0
        else:
            decreasing += 1
        if decreasing >= 3 and layer + math.log(max(n - b, 1)) < total - 46.0:
            return float(total), {"b_stop": b}
    return float(total), {}


def _budget_p27a(n, p, eps):
    b0 = math.floor(math.sqrt(math.log(n))) + 1
    a_stmt = math.floor(33 * n / 50) + 1          # a > 33n/50
    lcs = _LogCombBlocks(n, 0)

    def rows():
        for b in range(b0, n):
            a_min = max(a_stmt, b + 1)             # b < a
            c_hi = min(b + 1, n - b - a_min)       # c - 1 <= b
            if c_hi < 0:
                if n - b - a_min < 0 and b > n - a_stmt:
                    return
                continue
            yield b, c_hi

    # the exponent falls in c, as a = n - b - c does
    total, stop = _sum_falling_layers(n, lcs, rows(), lambda lc, cs, b, lc_b: (
        lc_b + lc - (0.81 / 2.0) * (n - b - cs) * b * p), False)
    return total, {"b_min": b0, **stop}


def _budget_p27b(n, p, eps):
    lo = math.ceil(n / math.sqrt(math.log(n)))     # b, c >= n / sqrt(ln n)
    if 2 * lo > n:
        return -math.inf, {"empty_range": True, "bc_min": lo}
    lcs = _LogCombBlocks(n, lo)

    def rows():
        for b in range(lo, n):
            c_hi = min(b + 1, n - b)               # a = n - b - c >= 0
            if c_hi < lo:
                return
            yield b, c_hi

    total, stop = _sum_falling_layers(n, lcs, rows(), lambda lc, cs, b, lc_b: (
        lc_b + lc - 1.2 * b * cs * p), True)
    return total, {"bc_min": lo, **stop}


def _budget_cut(n, p, eps):
    # c (n - c) rises up to n/2, and c, n - c are exact: rounding keeps it
    return _reach_sum(_LogCombBlocks(n, 1), n // 2, lambda lc, cs: (
        lc - cs * (n - cs) * p), True), {"c_max": n // 2,
                                         "form": "C(n,c) exp(-|B||C| p)"}


_C7_WINDOW = 256          # parity steps kept around the dominant end
                          # (per-step decay of the omitted tails exceeds
                          # 1 nat, so truncation error is below e^-250; at
                          # p <= 1/n event 2 rises in s instead and event 1
                          # dominates: tests check against the full sum)
_C7_SPAN = 2 * (_C7_WINDOW - 1)   # a window's last s less its first
_C7_K1 = {True: 0.1 * 0.1 / 2.0, False: 0.9 * 0.9 / 2.0}   # event 1 by side
_C7_GROUP = 64            # rows whose terms are computed at once: each
                          # temporary stays at 128 KB or less, so memory is
                          # reused instead of faulted in afresh
_C7_WHOLE = 16            # row ranges of at most this many blocks are
                          # computed whole: at 5-10 blocks C7a takes 1.2-1.6x
                          # as long bounding them; at 13-19 neither wins by
                          # 25 % (2-core Xeon, n = 2^10..2^18)


def _c7_event1(lc_s, lc_b, k1, p, a, bs, out=None):
    """log C(n,s) C(n,b) exp(-k1 a b p), given log C(n,s), log C(n,b) and
    a = n - s - b: event 1 of row b, (lc_s + lc_b) - ((k1 a) b) p, written
    to ``out`` when given."""
    e = k1 * a
    e *= bs
    e *= p
    out = np.add(lc_s, lc_b, out=out)
    out -= e
    return out


def _c7_event2_exponent(n, p, big, bs, s):
    """E(s) in the event-2 term log C(n,s) - E(s) of row b.  E(s)/s = p h(a)
    with h increasing in a = n - s - b (lambda = 0.9a - b > 0 as a > 3.99 b;
    a > 10 b when b < n/1000), so E(s)/s never rises with s."""
    a = n - s - bs
    if big:       # s p lam lam / (2 (b + lam/3)), lam = 0.9 a - b
        lam = 0.9 * a
        lam -= bs
        e = s * p
        e *= lam
        e *= lam
        lam /= 3.0
        lam += bs
        lam *= 2.0
        e /= lam
        return e
    e = 0.1 * a   # 0.1 a s p ln(a / (10 e b))
    e *= s
    e *= p
    e *= np.log(a / (10.0 * math.e * bs))
    return e


def _c7_s_caps(n, b_rise, b_fall):
    """The caps on s at b: s < n/sqrt(ln n), s <= b+1 (r >= 0), a > 3.99 b
    and a >= 3, with a = n - s - b.  The second rises in b and the last two
    fall, so on a block of b they stay at or below
    _c7_s_caps(n, its last b, its first b)."""
    s_cut_hi = math.ceil(n / math.sqrt(math.log(n))) - 1
    return np.minimum(np.minimum(s_cut_hi, b_rise + 1), np.minimum(
        (100 * n - 1 - 499 * b_fall) // 100, n - 3 - b_fall))


def _c7_s_his(n, bs):
    """The largest valid s of rows bs: the caps, less one where a =
    n - s - b would be even (s == n - b - 1 (mod 2) keeps it odd)."""
    s_hi = _c7_s_caps(n, bs, bs)
    return s_hi - ((s_hi ^ (n - 1 - bs)) & 1)


def _c7_width(s_hi):
    """The valid slots of both windows of rows with largest valid s s_hi:
    event 1 from s_hi down and event 2 from s_lo up both reach every s of
    s_hi's parity in 1..s_hi, (s_hi + 1) // 2 of them, or fill all W."""
    return np.minimum((s_hi + 1) // 2, _C7_WINDOW)


def _c7_row_values(n, p, big, bs, lc_at, lc_low):
    """max(head 1, head 2), max(head 1, event-2 bound) and s_hi of the rows
    bs (``_budget_case7``), given lc_at(k), log C(n, k) at an integer array
    k, and lc_low, log C(n, s) from s = 0 up to 2W or b_hi + 1 at least."""
    s_hi = _c7_s_his(n, bs)
    s_lo = 2 - (s_hi & 1)
    s_top = np.minimum(s_lo + _C7_SPAN, s_hi)
    s_next = np.minimum(s_lo + 2, s_top)
    lc_b, lc_hi = lc_at(np.array([bs, s_hi]))
    lc_lo, lc_next, lc_top = lc_low[np.array([s_lo, s_next, s_top])]
    e_lo, e_top = _c7_event2_exponent(n, p, big, bs, np.array([s_lo, s_top]))
    head1 = _c7_event1(lc_hi, lc_b, _C7_K1[big], p, n - s_hi - bs, bs)
    slope = e_top / s_top
    line_lo = lc_lo - s_lo * slope
    bound2 = np.where(lc_next - s_next * slope <= line_lo, line_lo,
                      lc_top - s_lo * slope)
    return np.maximum(head1, lc_lo - e_lo), np.maximum(head1, bound2), s_hi


def _c7_block_bounds(n, p, big, b0, b_hi):
    """Upper bounds on both values of every row of each block of rows
    b0..b1, b1 = min(b0 + _BLOCK - 1, b_hi).  The caps give s <= s_max on
    the block, and:

    * head 1 is at most the bound on log C(n, s) over 1..s_max plus that on
      log C(n, b) over the block (``_lc_top``, slack included), minus
      k1 a b p at a = n - s_max - b1 and b = b0, computed in the same order
      as the heads, so that rounding keeps it a bound;
    * each event-2 head and bound is at most a bound on log C(n, s) minus
      the least E(s)/s of the block, p h at a = n - s2 - b1 and b = b1 with
      s2 = min(s_max, 2W), less 2^-40 of it for rounding.  Where that
      corner leaves the region in which h rises in a and falls in b
      (a > 3.99 b for C7a, a > 100 b for C7b), only E >= 0 is used.  The
      head and the line's value lie at s_lo <= 2; the line reaches higher
      only when it rises at its first step, by log C(n, s_lo + 2) -
      log C(n, s_lo) < 2 ln n - ln 6 on a slope of 2 E(s)/s.  So where the
      least E(s)/s is ln n + 1 or more, log C(n, s) is bounded over 1..2,
      and otherwise over 1..s2."""
    b1 = np.minimum(b0 + (_BLOCK - 1), b_hi)
    s_max = _c7_s_caps(n, b1, b0)
    s2 = np.minimum(s_max, 2 * _C7_WINDOW)
    one = np.ones_like(b0)
    top_s, top_b, top_s2 = _lc_top(n, np.array([one, b0, one]),
                                   np.array([s_max, b1, s2]))
    head1 = _c7_event1(top_s, top_b, _C7_K1[big], p,
                       np.maximum(n - s_max - b1, 0), b0)
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = _c7_event2_exponent(n, p, big, b1, s2) / s2
    corner = 100 * (n - s2 - b1) > (399 if big else 10000) * b1
    least = np.where(corner, slope * (1.0 - 2.0 ** -40), 0.0)
    top_lo = math.log(max(n, n * (n - 1) / 2.0)) + _lc_slack(n)   # s <= 2
    return np.maximum(head1, np.where(least >= math.log(n) + 1.0, top_lo,
                                      top_s2) - least)


def _c7_rows(n, p, big):
    """The rows of the final-case budget that can reach float64 precision:
    (notes, b, s_hi, table), the kept b ascending, each one's largest valid
    s, and the table log C(n, 0..b_hi + 1) when the rows were computed
    whole, else None; b and s_hi are empty when the sum is.  A row's value
    is its largest head and its bound max(head 1, event-2 bound)
    (``_budget_case7``); with M the largest head over the R rows
    b_lo..b_hi that have a valid s, the rows whose bound reaches
    M - 40 - ln R - ln(2W) are kept.

    Ranges of at most _C7_WHOLE blocks of _BLOCK rows are computed whole,
    reading the table (s <= b + 1 <= b_hi + 1).  Larger ones compute only
    the blocks within reach (``_within_reach``, on ``_c7_block_bounds``),
    with log C at the rows' b and s_hi and over s <= 2W, as a row reads it
    at b, s_hi and s_lo, s_next, s_top (up to 2W), not at its own index.
    R, b_hi, the kept rows and so the notes are those of a pass over every
    row."""
    if big:
        b_lo = math.floor(1e-3 * n) + 1
        b_hi = (100 * (n - 1) - 1) // 499                  # from s >= 1
    else:
        b_lo = 1
        b_hi = math.ceil(1e-3 * n) - 1
    # The first two caps are 2 or more (n/sqrt(ln n) > 2), a >= 3 leaves 2 or
    # more up to b_hi, and a > 3.99 b leaves 1 or more there while falling by
    # over 4 a step: only b_hi can have a cap of 1, and so no valid s.
    if _c7_s_his(n, b_hi) < 1:
        b_hi -= 1
    if b_lo > b_hi:
        none = np.empty(0, dtype=np.int64)
        return {"empty_range": True}, none, none, None
    notes = {"b_lo": b_lo, "b_hi": b_hi,
             "s_window": _C7_WINDOW,
             "events": ("0.9abp/0.9asp" if big else "0.1abp/0.1asp")}
    rows = b_hi - b_lo + 1
    count = (b_hi - b_lo) // _BLOCK + 1
    b0 = b_lo + _BLOCK * np.arange(count)

    def cutoff(top):
        return _cutoff(top, rows) - math.log(2 * _C7_WINDOW)

    def compute(js):
        bs = (b0[js, None] + np.arange(_BLOCK)).ravel()
        bs = bs[bs <= b_hi]
        heads, row_ub, s_hi = _c7_row_values(n, p, big, bs, lc_at, lc_low)
        return heads.max(keepdims=True), (bs, row_ub, s_hi)

    if count <= _C7_WHOLE:
        table = lc_low = _log_comb(n, np.arange(b_hi + 2))
        lc_at = table.__getitem__
        top, (bs, row_ub, s_hi) = compute(range(count))
    else:
        table = None
        lc_low = _log_comb(n, np.arange(min(2 * _C7_WINDOW, b_hi + 1) + 1))
        lc_at = functools.partial(_log_comb, n)
        top, (bs, row_ub, s_hi) = _within_reach(
            _c7_block_bounds(n, p, big, b0, b_hi)[None], compute, cutoff)
    keep = row_ub >= cutoff(top)
    notes["b_rows"] = int(np.count_nonzero(keep))
    return notes, bs[keep], s_hi[keep], table


def _budget_case7(n, p, eps, *, big):
    """Bad-event budget for the final case: decompositions with S nonempty,
    all excess in A_1, and A_1 > 3.99 |B|.  For every (k, s) pair the middle
    part B has size b = n + s - 2k - 1; two of k, s, a, b determine the rest.
    ``big`` selects b > 1e-3 n (events at 0.9abp / 0.9asp), else b < 1e-3 n
    (events at 0.1abp / 0.1asp).

    One row per b sums a window of W = _C7_WINDOW parity steps per event:
    event 1 descending from the largest valid s, s_hi, event 2 ascending
    from the parity floor s_lo (1 or 2).  Only the rows that can reach
    float64 precision are summed, chosen by a bound on every term of each
    row (``_c7_rows``):

    * s <= b + 1 and a > 3.99 b give s <= (n + 5)/5.99, so s stays below
      n/2 where log C(n, s) rises; event 1 rises in s and its head
      (window start) is the row maximum.
    * Event 2 lies below the line log C(n,s) - s E(s_top)/s_top, s_top the
      window's last s, since E(s)/s never rises.  The line is concave in
      s: its maximum is at the floor when its first step falls, and at most
      log C(n, s_top) minus the floor's linear term otherwise.

    Both heads are terms of the sum, so with M the largest head the sum is
    at least e^M.  Over R rows, a row whose bound U has U + ln(2W) <
    M - 40 - ln R is dropped: the dropped rows add less than e^-40 of the
    sum, which moves its log by less than 4.3e-18.  The value is bit for
    bit that of summing the kept rows; it can differ from the sum of every
    row in the last bits, as the pairwise summation then groups the terms
    otherwise.  The sums read the rows' table where there is one;
    otherwise log C(n, k) is computed at the kept rows' b, for s <= 2W,
    and over the s from the least to the largest of their event-1 windows
    (about 2W of them when the kept rows are one run of b, as in practice).

    The kept rows are summed in chunks of 4096, each chunk laid out as
    (event, row, slot), 2 x rows x W terms, and summed by ``_logsumexp``
    with its own M.  A slot holds a term only while its s is valid, and
    in both windows of a row the valid slots are a prefix, of length
    ``_c7_width``: every s of s_hi's parity in 1..s_hi, up to W.  (At 2^18
    only 31 % of C7b's slots are valid, at 2^20 83 %; C7a's rows are full
    from 2^12.)  Terms are computed at the valid slots only, a few dozen
    rows at a time, and ``_logsumexp`` puts each exp in its slot of the
    chunk's layout with exact zeros elsewhere, the exp(-inf) of an invalid
    slot.  Every term keeps its position and value, so the pairwise sum
    groups them as over the full layout and the bits cannot move.

    Where C7a binds: its largest head is event 1 at b ~ s ~ n/5.99, a ~
    0.666 n, where the caps s <= b + 1 and a > 3.99 b meet.  To leading
    order that term is n (2 H(1/5.99) - k1 (a/n)(b/n) c ln n) at p =
    c ln n/n, H the entropy in nats and k1 = 0.1^2/2: 0.902 n - 0.000556
    c n ln n.  At c = 8 and n = 2^20 it is 0.902 n - 0.062 n = 0.840 n,
    the log-value over n to 1e-5; the term falls below 1 only once c ln n
    exceeds 2 H(1/5.99) / (k1 0.666 / 5.99), about 1622."""
    notes, bs_all, s_hi, table = _c7_rows(n, p, big)
    if bs_all.size == 0:
        return -math.inf, notes
    k1 = _C7_K1[big]
    s_lo_all = 2 - (s_hi & 1)
    # lc1[j] = log C(n, lo + j), lc2[s] = log C(n, s), lc_b at the rows' b
    if table is None:
        lo = max(int(s_hi.min()) - _C7_SPAN, 1)
        hi = int(s_hi.max())
        s2_top = min(2 * _C7_WINDOW, hi)
        lc1, lc2, lc_b = np.split(_log_comb(n, np.concatenate([
            np.arange(lo, hi + 1), np.arange(s2_top + 1), bs_all])),
            [hi - lo + 1, hi - lo + s2_top + 2])
    else:
        lo, lc1, lc2, lc_b = 0, table, table, table[bs_all]

    width = _c7_width(s_hi)
    starts = [0, *np.cumsum(width).tolist()]
    t1, t2 = vals = np.empty((2, starts[-1]))
    slot = np.arange(_C7_WINDOW, dtype=np.int64)
    offs = 2 * slot
    for g0 in range(0, bs_all.size, _C7_GROUP):
        g = slice(g0, g0 + _C7_GROUP)
        bs, shi, w = bs_all[g], s_hi[g], width[g]
        at = slice(starts[g0], starts[g0 + w.size])
        # s_hi - s in event 1, s - s_lo in event 2
        step = np.broadcast_to(offs, (w.size, _C7_WINDOW))[slot < w[:, None]]
        b = np.repeat(bs.astype(np.float64), w)
        # event 1 terms grow with s: window descends from s_hi
        _c7_event1(lc1[np.repeat(shi - lo, w) - step], np.repeat(lc_b[g], w),
                   k1, p, np.repeat(n - shi - bs, w) + step, b, out=t1[at])
        # event 2 terms fall with s for p >= 50/n: window ascends from the
        # parity floor
        s2 = np.repeat(s_lo_all[g], w) + step
        np.subtract(lc2[s2], _c7_event2_exponent(
            n, p, big, b, s2.astype(np.float64)), out=t2[at])
    total = -math.inf
    for lo_idx in range(0, bs_all.size, 4096):
        w = width[lo_idx:lo_idx + 4096]
        at = slice(starts[lo_idx], starts[lo_idx + w.size])
        total = np.logaddexp(total, _logsumexp(
            vals[:, at], rows=(np.concatenate([w, w]), _C7_WINDOW)))
    return float(total), notes


_BUDGET_FNS = {
    "P24a": _budget_p24a,
    "P24b": _budget_p24b,
    "P25": _budget_p25,
    "P26": _budget_p26,
    "P27a": _budget_p27a,
    "P27b": _budget_p27b,
    "CUT": _budget_cut,
    "C7a": functools.partial(_budget_case7, big=True),
    "C7b": functools.partial(_budget_case7, big=False),
}
BUDGET_TAGS = tuple(_BUDGET_FNS)


# ---------------------------------------------------------------------------
# extremal size formula and 3-path moments
# ---------------------------------------------------------------------------

def eg_size_formula(n: int, k: int, l: int = 2) -> tuple[int, int]:
    """max{ C(min(n, l(k+1)-1), l), C(n,l) - C(n-k,l) } and the branch
    attaining it (1 = edges inside a fixed set, 2 = edges meeting a fixed set).

    The inside branch counts min(n, l(k+1)-1) vertices: when n < l(k+1)-1
    no set of l(k+1)-1 vertices exists, and the complete l-graph on all n
    vertices already has matching number floor(n/l) = k.  So the value never
    exceeds C(n, l)."""
    if l < 2:
        raise InputError("l must be >= 2")
    if k < 0 or l * k > n:
        raise InputError(f"infeasible k={k} for n={n}, l={l}")
    inside = math.comb(min(n, l * (k + 1) - 1), l)
    meeting = math.comb(n, l) - math.comb(n - k, l)
    if inside >= meeting:
        return inside, 1
    return meeting, 2


@dataclass(frozen=True)
class P3Moments:
    mean: float
    second_moment: float
    # second / mean^2; None when mean^2 is no normal float (0 or underflowed)
    ratio: float | None


def p3_moments(n: int, p: float) -> P3Moments:
    """Moments of the number of isolated 3-vertex paths in G(n,p):
    mean = 3 C(n,3) p^2 (1-p)^(3n-8),
    E X^2 = mean + 9 C(n,3) C(n-3,3) p^4 (1-p)^(6n-25)."""
    if n < 0:
        raise InputError("n must be >= 0")
    if not (0.0 <= p <= 1.0):
        raise InputError("p must lie in [0, 1]")
    if n < 3 or p == 0.0 or p == 1.0:
        # p = 1 kills the (1-p)^(3n-8) isolation factor for every n >= 3
        return P3Moments(0.0, 0.0, None)
    log_mean = (math.log(3) + float(_log_comb(n, 3)) + 2 * math.log(p)
                + (3 * n - 8) * math.log1p(-p))
    mean = math.exp(log_mean)
    if n >= 6:
        log_pair = (math.log(9) + float(_log_comb(n, 3))
                    + float(_log_comb(n - 3, 3))
                    + 4 * math.log(p) + (6 * n - 25) * math.log1p(-p))
        second = mean + math.exp(log_pair)
    else:
        second = mean
    square = mean * mean
    ratio = second / square if square >= sys.float_info.min else None
    return P3Moments(mean, second, ratio)

