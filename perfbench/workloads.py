"""The benchmark's workloads: how each builds its op inputs from the run
seed, what one op calls, and how its answer is checked.

Each workload has ``prepare(seed, ref, tracer) -> state`` (timed as set-up),
``rounds(state)`` (an endless stream of input batches; the loop stops only
between batches) and ``op(state, inp, tracer) -> (status, digest)``.  The
digest lets a traced replay be compared with the untraced run.

Every workload runs a fixed pool of ops, the same in every run; the seed
only orders each round.  A round is short next to a 20 s run on a 2-core
box, so a run holds whole rounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from eg_matchlab.bounds import BUDGET_TAGS, union_budget
from eg_matchlab.decomposition import Decomposition, decomposition_size
from eg_matchlab.graph_core import GnpParams, dense_regime_p, gen_gnp
from eg_matchlab.harness import (RegimeSpec, TrialRecord, count_isolated_p3,
                                 has_empty_half, run_trials, trial_seed)
from eg_matchlab.matching import (is_forest, matching_number,
                                  vertex_cover_number)
from eg_matchlab.errors import CapabilityError
from eg_matchlab.moves import apply_case, classify_case
from tracing import OK, UNDECIDED, WRONG


def shuffled_rounds(items, seed):
    """Endless rounds, each all of ``items`` in an order drawn from
    ``seed``."""
    rng = random.Random(seed)
    order = list(items)
    while True:
        rng.shuffle(order)
        yield list(order)


# ---------------------------------------------------------------------------
# Monte Carlo trials (mc-forest5k, mc-middle1k)
# ---------------------------------------------------------------------------

# answer fields of a TrialRecord compared with the reference
ANSWER_FIELDS = ("seed", "m", "nu", "is_forest", "p3_count", "tau",
                 "tau_eq_nu", "empty_half")


@dataclass(frozen=True)
class TrialWorkload:
    """One op is ``run_trials`` on a single trial of a fixed regime.

    Pool entry j is the trial whose master seed is trial_seed(base_seed, j);
    the reference holds its answers.  Each round runs the whole pool, in an
    order shuffled by the run seed, so every run measures the same trials
    and the seed only orders them: trial cost varies with the graph, and a
    sample drawn per seed would not give a steady median.
    """

    name: str
    spec_fields: tuple            # RegimeSpec keyword pairs, minus seeds
    base_seed: int
    pool: int
    ref_fields: tuple = ()        # overrides used when recording the reference

    def spec(self, j: int, reference: bool = False) -> RegimeSpec:
        fields = dict(self.spec_fields)
        if reference:
            fields.update(self.ref_fields)
        return RegimeSpec(trials=1, master_seed=trial_seed(self.base_seed, j),
                          **fields)

    def prepare(self, seed, ref, tracer):
        answers = ref[self.name]
        if len(answers) != self.pool:
            raise ValueError(f"{self.name}: reference holds {len(answers)} "
                             f"answers, pool has {self.pool}")
        return {"seed": seed, "answers": answers}

    def rounds(self, state):
        return shuffled_rounds(range(self.pool), state["seed"])

    def op(self, state, j, tracer):
        spec = self.spec(j)
        if tracer.enabled:
            rec = traced_trial(spec, tracer)
        else:
            rec = run_trials(spec)[0][0]
        return check_record(rec, state["answers"][j]), rec


def traced_trial(spec: RegimeSpec, tr) -> TrialRecord:
    """One trial through the same public calls ``run_trials`` makes, in the
    same order, each inside a span.  Adjacency is built in spans of its own
    before the first call that needs it, so its cost is not charged to
    matching or components."""
    p, _ = spec.resolve_p()
    checks = spec.resolved_checks()
    unsupported = set(checks) - {"nu", "forest", "p3", "empty_half", "tau",
                                 "eg"}
    if "eg" in checks and spec.n <= spec.eg_exact_cutoff:
        unsupported.add("eg")           # the exact EG check is not replayed
    if unsupported or spec.trials != 1:
        raise ValueError(f"traced replay does not cover {unsupported}")
    seed = trial_seed(spec.master_seed, 0)
    with tr.span("graph_core.gen_gnp"):
        g = gen_gnp(GnpParams(spec.n, p, seed))
    tr.count("graph_core.edges", g.m)
    with tr.span("graph_core.adj_bits"):
        g.adj_bits
    with tr.span("graph_core.adj_lists"):
        g.adj_lists
    rec = TrialRecord(trial=0, seed=seed, n=spec.n, p=p, m=g.m)
    if "nu" in checks:
        # matching_number is max_matching(g).size
        with tr.span("matching.max_matching"):
            rec.nu = matching_number(g)
        tr.count("matching.exposed", g.n - 2 * rec.nu)
    if "forest" in checks:
        with tr.span("matching.is_forest"):
            rec.is_forest = is_forest(g)
    if "p3" in checks:
        with tr.span("harness.count_isolated_p3"):
            rec.p3_count = count_isolated_p3(g)[0]
    if "empty_half" in checks:
        with tr.span("harness.has_empty_half"):
            rec.empty_half, why = has_empty_half(g, spec.is_budget)
        if why:
            rec.notes.append(why)
            tr.count("harness.has_empty_half.unknown")
    if "tau" in checks:
        try:
            with tr.span("matching.vertex_cover"):
                rec.tau = vertex_cover_number(g, spec.vc_budget)
            if rec.nu is not None:
                nu = rec.nu
            else:
                with tr.span("matching.max_matching"):
                    nu = matching_number(g)
            rec.tau_eq_nu = "yes" if rec.tau == nu else "no"
        except CapabilityError as exc:
            tr.count("matching.vertex_cover.budget_exceeded")
            rec.tau_eq_nu = "unknown"
            rec.notes.append(f"tau budget exceeded ({exc})")
    if "eg" in checks:
        rec.eg_all = "skipped"
        rec.notes.append(
            f"exact eg check limited to n <= {spec.eg_exact_cutoff}")
    return rec


def record_answers(rec: TrialRecord) -> dict:
    return {f: getattr(rec, f) for f in ANSWER_FIELDS}


def check_record(rec: TrialRecord, ref: dict) -> str:
    """WRONG if a decided answer differs from a decided reference answer;
    UNDECIDED if the op ran out of budget on an answer; else OK."""
    status = OK
    for field in ANSWER_FIELDS:
        want = ref[field]
        if want is None or want == "unknown":   # undecided in the reference
            continue
        got = getattr(rec, field)
        if got == want:
            continue
        budget_out = (got == "unknown"
                      or (field == "tau" and rec.tau_eq_nu == "unknown"))
        if not budget_out:
            return WRONG
        status = UNDECIDED
    return status


# about 6 s a round on a 2-core box; op costs are near-uniform
FOREST = TrialWorkload(
    name="mc-forest5k",
    spec_fields=(("n", 5000), ("p_rule", "forest"), ("forest_c", 0.1)),
    base_seed=0xF05E57, pool=8)

# The node budgets are part of the workload: a trial that runs out counts as
# undecided.  Trial cost spans almost two orders of magnitude, the three
# capped trials taking most of a round (about 7.5 s).
# The reference is recorded with a larger budget, so that more of its
# answers are decided.
MIDDLE_BUDGET = 1000
MIDDLE = TrialWorkload(
    name="mc-middle1k",
    spec_fields=(("n", 1000), ("p_rule", "middle"), ("p_explicit", 3 / 1000),
                 ("vc_budget", MIDDLE_BUDGET), ("is_budget", MIDDLE_BUDGET)),
    base_seed=0x3DD1E, pool=16,
    ref_fields=(("vc_budget", 20 * MIDDLE_BUDGET),
                ("is_budget", 20 * MIDDLE_BUDGET)))


# ---------------------------------------------------------------------------
# Criterion-4 move trials on one dense graph (moves-dense20k)
# ---------------------------------------------------------------------------

MOVES_N = 20000
# the graph and the partitions are the same for every run seed, so every
# run does the same work; the seed orders the cases within a round
MOVES_GRAPH_SEED = 0xD20
MOVES_POOL_SEED = 0x4C4

# one documented shape per satisfiable case at n = 20000: |A1|, the other
# non-singleton blocks, |S| (case 5 cannot occur at this n)
CASE_SHAPES = {
    1: (9, (3,) * 600, 0),
    2: (9, (9,), 1),
    3: (9001, (), 4999),
    4: (16001, (3,) * 1000, 1),
    6: (19995, (), 2),
    7: (19049, (), 50),
}


def scatter_partition(n: int, shape, rng) -> Decomposition:
    """A decomposition of the given shape with a random vertex assignment;
    all vertices not placed are singleton blocks."""
    a1, extra, s_size = shape
    perm = rng.permutation(n).tolist()
    blocks = [perm[:a1]]
    i = a1
    for c in extra:
        blocks.append(perm[i:i + c])
        i += c
    s_members = perm[i:i + s_size]
    blocks.extend([v] for v in perm[i + s_size:])
    return Decomposition.from_lists(n, s_members, blocks)


class MovesWorkload:
    name = "moves-dense20k"

    def prepare(self, seed, ref, tracer):
        p, _ = dense_regime_p(MOVES_N)
        with tracer.span("graph_core.gen_gnp"):
            g = gen_gnp(GnpParams(MOVES_N, p, MOVES_GRAPH_SEED))
        tracer.count("graph_core.edges", g.m)
        with tracer.span("graph_core.adj_bits"):
            g.adj_bits
        with tracer.span("graph_core.adj_lists"):
            g.adj_lists
        return {"seed": seed, "g": g}

    def rounds(self, state):
        """Each round is one trial of every case, each case with its own
        fixed partition key."""
        pool = [(case, trial_seed(MOVES_POOL_SEED, case))
                for case in sorted(CASE_SHAPES)]
        return shuffled_rounds(pool, state["seed"])

    def op(self, state, inp, tracer):
        case, key = inp
        g = state["g"]
        with tracer.span("decomposition.build"):
            rng = np.random.Generator(np.random.Philox(key=key))
            pi = scatter_partition(g.n, CASE_SHAPES[case], rng)
        with tracer.span("moves.classify"):
            got = classify_case(g, pi)
        if got != case:
            return WRONG, (case, got)
        with tracer.span(f"moves.apply.case{case}"):
            rep = apply_case(g, pi, case, rng=rng)
        with tracer.span("decomposition.size"):
            size_after = decomposition_size(g, rep.pi_after)
        after = rep.pi_after
        tracer.count("moves.improved", rep.size_after > rep.size_before)
        valid = (after.r == pi.r and size_after == rep.size_after
                 and all(b.bit_count() % 2 for b in after.blocks))
        digest = (case, rep.size_before, rep.size_after, after.d, after.s_set)
        return (OK if valid else WRONG), digest


# ---------------------------------------------------------------------------
# union-bound budgets over the Criterion-6 ladder (budgets)
# ---------------------------------------------------------------------------

# the Criterion-6 ladder without its last point, n = 2^20, whose C7a
# evaluation alone takes about 9 s on a 2-core box: a 20 s run would hold a
# single round
LADDER = tuple(2 ** e for e in (10, 12, 14, 16, 18))
BUDGET_EPS = 0.5
BUDGET_RTOL = 1e-9


def budget_key(tag: str, n: int) -> str:
    return f"{tag}@{n}"


def budget_p(n: int) -> float:
    return min(1.0, 8 * math.log(n) / n)


class BudgetsWorkload:
    """One op is the nine ``union_budget`` evaluations, one per tag, at one
    ladder point; a round is every ladder point, in an order shuffled by the
    seed.  A single evaluation mostly takes about a millisecond, too short
    to time steadily on a shared host."""

    name = "budgets"

    def prepare(self, seed, ref, tracer):
        return {"seed": seed, "answers": dict(ref[self.name])}

    def rounds(self, state):
        return shuffled_rounds(LADDER, state["seed"])

    def op(self, state, n, tracer):
        status, got = OK, []
        for tag in BUDGET_TAGS:
            with tracer.span(f"bounds.union_budget.{tag}"):
                value = union_budget(tag, n, budget_p(n), BUDGET_EPS).log_value
            want = state["answers"][budget_key(tag, n)]
            if value != want and abs(value - want) > BUDGET_RTOL * abs(want):
                status = WRONG
            got.append(value)
        return status, got


WORKLOADS = {w.name: w for w in (MovesWorkload(), FOREST, MIDDLE,
                                 BudgetsWorkload())}
