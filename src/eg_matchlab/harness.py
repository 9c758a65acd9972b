"""Seeded Monte Carlo experiments over the three density regimes, density
event audits, the isolated-3-path census, and the deterministic certificate
that the canonical-forms property fails at k = nu.

Per-trial seeds are a fixed 64-bit avalanche mix of (master_seed, index), so
any published number replays from the master seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import decomposition as dec
from .errors import CapabilityError, InputError
from .graph_core import (Graph, GnpParams, RNG_NAME, dense_regime_p, gen_gnp,
                         philox_rng, vset_of)
from .matching import (_cover_at_most, _env_budget, _tau_is_nu, is_forest,
                       matching_number, vertex_cover_number)

SCHEMA = "eg-matchlab/1"
CSV_COLUMNS = ("trial", "seed", "n", "p", "m", "nu", "is_forest", "p3_count",
               "empty_half", "tau_eq_nu", "eg_all", "notes")


def splitmix64(x: int) -> int:
    """Fixed 64-bit avalanche permutation (splitmix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def trial_seed(master_seed: int, index: int) -> int:
    return splitmix64((master_seed ^ splitmix64(index)) & 0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# isolated 3-paths
# ---------------------------------------------------------------------------

def count_isolated_p3(g: Graph) -> tuple[int, list[tuple[int, int, int]]]:
    """Components that are a 3-vertex path (three vertices, two edges); up to
    two witnesses, the first by smallest member, each (end, middle, end)."""
    comps, labels = g.component_labels()
    edges = g.edge_array()
    edge_label = labels[edges[:, 0]]
    paths = np.flatnonzero((np.bincount(labels, minlength=comps) == 3)
                           & (np.bincount(edge_label, minlength=comps) == 2))
    witnesses = []
    for c in paths[:2]:
        # the middle vertex is the one both edges meet
        verts, times = np.unique(edges[edge_label == c], return_counts=True)
        a, b = verts[times == 1].tolist()
        witnesses.append((a, int(verts[times == 2][0]), b))
    return int(paths.size), witnesses


# ---------------------------------------------------------------------------
# empty half-set
# ---------------------------------------------------------------------------

def has_empty_half(g: Graph, node_budget: int | None = None):
    """'yes' iff some ceil(n/2)-subset spans no edge, i.e. the independence
    number is at least ceil(n/2), i.e. tau(G) <= floor(n/2); 'unknown'
    carries the budget reason.  Answered without search when tau = nu, since
    nu <= floor(n/2), or when an exact tau cached on ``g`` fits the budget;
    otherwise by the vertex cover search as a decision."""
    resolved = _env_budget(node_budget)
    try:
        verdict = _cover_at_most(g, g.n // 2, resolved)
    except CapabilityError:
        return "unknown", f"vertex cover node budget {resolved} exceeded"
    return ("yes" if verdict else "no"), None


# ---------------------------------------------------------------------------
# failure of the canonical-forms property at k = nu
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EgAtNuVerdict:
    verdict: str               # "holds" | "fails"
    form_a: bool               # all edges fit inside some (2 nu + 1)-set
    form_b: bool | None        # tau == nu (None when form_a settles it)
    nu: int
    tau: int | None            # nu when form_b holds, else None
    reason: str | None = None


def eg_fails_at_nu(g: Graph) -> EgAtNuVerdict:
    """At k = nu(G) the unique largest subgraph is G itself, so the property
    holds iff G's edges fit in a (2 nu + 1)-set or tau(G) = nu(G).  Whether
    tau = nu is read off the cached Konig-Egervary split, with no search."""
    nu = matching_number(g)
    form_a = (2 * nu + 1 <= g.n) and (len(g.support) <= 2 * nu + 1)
    if form_a:
        return EgAtNuVerdict("holds", True, None, nu, None,
                             "edge support fits in a (2 nu + 1)-set")
    if _tau_is_nu(g):
        return EgAtNuVerdict("holds", False, True, nu, nu)
    return EgAtNuVerdict("fails", False, False, nu, None)


@dataclass(frozen=True)
class FailureCertificate:
    """Two vertex-disjoint isolated 3-paths plus 'every half-set spans an
    edge' together force both canonical shapes to fail at k = nu."""

    p3_pair: tuple[tuple[int, int, int], tuple[int, int, int]]
    empty_half_absent: bool
    conclusion: str = "eg_fails_at_nu"


def build_failure_certificate(g: Graph, node_budget: int | None = None):
    """Returns (certificate, reason); certificate is None with a reason when
    either half of the evidence is missing or undecided."""
    node_budget = _env_budget(node_budget)
    count, witnesses = count_isolated_p3(g)
    if count < 2:
        return None, f"only {count} isolated 3-path component(s)"
    verdict, reason = has_empty_half(g, node_budget)
    if verdict == "unknown":
        return None, reason
    if verdict == "yes":
        return None, "an empty half-set exists"
    return FailureCertificate(p3_pair=(witnesses[0], witnesses[1]),
                              empty_half_absent=True), None


# ---------------------------------------------------------------------------
# density audits
# ---------------------------------------------------------------------------

def interior_event_holds(g: Graph, p: float, eps: float, mask: int) -> bool:
    """|E(X)| = (1 +- eps) C(|X|,2) p, strict on both sides."""
    w = mask.bit_count()
    expected = w * (w - 1) / 2.0 * p
    val = g.edges_within(mask)
    return (1 - eps) * expected < val < (1 + eps) * expected


def cap300_event_holds(g: Graph, p: float, mask: int) -> bool:
    w = mask.bit_count()
    return g.edges_within(mask) <= 300.0 * w * (w - 1) / 2.0 * p


def sparse_event_holds(g: Graph, mask: int) -> bool:
    w = mask.bit_count()
    return g.edges_within(mask) <= w * math.log(g.n) / 3.0


def between_event_holds(g: Graph, p: float, eps: float,
                        y_mask: int, z_mask: int) -> bool:
    expected = y_mask.bit_count() * z_mask.bit_count() * p
    val = g.edges_between(y_mask, z_mask)
    return (1 - eps) * expected < val < (1 + eps) * expected


@dataclass
class DensityAuditReport:
    epsilon: float
    p: float
    samples: int
    events: dict = field(default_factory=dict)   # name -> [checked, violations]

    def violation_total(self) -> int:
        return sum(v for _, v in self.events.values())


def density_audit(g: Graph, p: float, epsilon: float, samples: int,
                  seed: int) -> DensityAuditReport:
    """Sample random vertex sets meeting each density event's size
    precondition and count violations of the stated event."""
    if not (0 < epsilon < 1):
        raise InputError("epsilon must lie in (0, 1)")
    n = g.n
    rng = philox_rng(seed)
    report = DensityAuditReport(epsilon=epsilon, p=p, samples=samples)
    events = {name: [0, 0] for name in
              ("interior_eq", "cap300", "sparse_log", "between_eq")}

    big_lo = math.floor(epsilon * n) + 1
    cap_lo = math.floor(math.log(n) / (150.0 * p)) + 1 if p > 0 else n + 1
    sparse_hi = math.floor(math.log(n) / (150.0 * p)) if p > 0 else n
    z_lo = math.floor(n / math.sqrt(math.log(n))) + 1 if n >= 2 else n + 1
    # per sample and in this order, each one-set event draws a size in
    # [lo, hi] and then a set of that size
    one_set = (("interior_eq", big_lo, n,
                lambda x: interior_event_holds(g, p, epsilon, x)),
               ("cap300", cap_lo, n, lambda x: cap300_event_holds(g, p, x)),
               ("sparse_log", 1, min(sparse_hi, n),
                lambda x: sparse_event_holds(g, x)))

    for _ in range(samples):
        for name, lo, hi, holds in one_set:
            if lo <= hi:
                w = int(rng.integers(lo, hi + 1))
                x = vset_of(rng.choice(n, size=w, replace=False), n)
                events[name][0] += 1
                events[name][1] += not holds(x)
        if big_lo + z_lo <= n:
            y_size = int(rng.integers(big_lo, n - z_lo + 1))
            z_size = int(rng.integers(z_lo, n - y_size + 1))
            both = np.sort(rng.choice(n, size=y_size + z_size, replace=False))
            pick = rng.permutation(both.size)
            events["between_eq"][0] += 1
            events["between_eq"][1] += not between_event_holds(
                g, p, epsilon, vset_of(both[pick[:y_size]], n),
                vset_of(both[pick[y_size:]], n))
    report.events = {k: tuple(v) for k, v in events.items()}
    return report


# ---------------------------------------------------------------------------
# regimes and trials
# ---------------------------------------------------------------------------

def middle_regime_interval(n: int) -> tuple[float, float, bool]:
    """(lower, upper, feasible) for the failure-regime window
    4 ln(2e)/n < p < ln(n)/(3n); empty until n exceeds ~6.6e8."""
    lo = 4.0 * math.log(2.0 * math.e) / n
    hi = math.log(n) / (3.0 * n)
    return lo, hi, lo < hi


# the density audit of every "density" check: its epsilon and sample count
DENSITY_EPSILON = 0.5
DENSITY_SAMPLES = 100

DEFAULT_CHECKS = {
    "dense": ("nu", "forest", "p3", "eg", "density"),
    "forest": ("nu", "forest", "p3", "eg", "tau"),
    "middle": ("nu", "forest", "p3", "empty_half", "tau"),
    "custom": ("nu", "forest", "p3"),
}
CHECK_NAMES = ("nu", "forest", "p3", "empty_half", "tau", "eg", "density")


@dataclass(frozen=True)
class RegimeSpec:
    """One experiment: a density rule, trial count, master seed, checks."""

    n: int
    p_rule: str                      # dense | forest | middle | custom
    trials: int
    master_seed: int
    checks: tuple[str, ...] = ()
    p_explicit: float | None = None  # required for middle / custom
    forest_c: float = 0.1            # p = c / n in the forest regime
    eg_exact_cutoff: int = dec.DEFAULT_N_EXACT_EXTREMAL
    vc_budget: int | None = None
    is_budget: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"n must be >= 1 (got {self.n})")
        if self.p_rule not in DEFAULT_CHECKS:
            raise InputError(f"unknown p_rule {self.p_rule!r}; known: "
                             f"{', '.join(DEFAULT_CHECKS)}")
        if self.trials < 0:
            raise InputError(f"trials must be >= 0 (got {self.trials})")
        if not (0 <= self.master_seed < 1 << 64):
            raise InputError("master seed must be a 64-bit unsigned integer "
                             f"(got {self.master_seed})")
        if self.eg_exact_cutoff < 0:
            raise InputError("eg_exact_cutoff must be >= 0 "
                             f"(got {self.eg_exact_cutoff})")
        for name in ("vc_budget", "is_budget"):
            budget = getattr(self, name)
            if budget is not None and budget <= 0:
                raise InputError(f"{name} must be positive (got {budget})")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise InputError(f"unknown checks {unknown}; known: "
                             f"{', '.join(CHECK_NAMES)}")

    def resolve_p(self) -> tuple[float, dict]:
        flags = {}
        if self.p_rule == "dense":
            p, clamped = dense_regime_p(self.n)
            if clamped:
                flags["p_clamped"] = True
        elif self.p_rule == "forest":
            p = self.forest_c / self.n
            if self.forest_c >= 1.0:
                flags["forest_c_not_small"] = True
        else:                        # middle or custom
            if self.p_explicit is None:
                raise InputError(f"{self.p_rule} regime needs an explicit p")
            p = self.p_explicit
            if self.p_rule == "middle":
                lo, hi, feasible = middle_regime_interval(self.n)
                flags["middle_interval"] = (lo, hi)
                flags["middle_feasible"] = feasible
                if feasible and not (lo < p < hi):
                    flags["p_outside_middle_interval"] = True
        if not (0.0 <= p <= 1.0):
            raise InputError(f"resolved p={p} outside [0, 1]")
        return p, flags

    def resolved_checks(self) -> tuple[str, ...]:
        return self.checks or DEFAULT_CHECKS[self.p_rule]


@dataclass
class TrialRecord:
    trial: int
    seed: int
    n: int
    p: float
    m: int
    nu: int | None = None
    is_forest: bool | None = None
    p3_count: int | None = None
    empty_half: str = ""             # yes | no | unknown | ""
    tau: int | None = None
    tau_eq_nu: str = ""              # yes | no | ""
    eg_all: str = ""                 # holds | fails | skipped | ""
    density: dict | None = None
    notes: list[str] = field(default_factory=list)

    def csv_row(self) -> str:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "1" if x else "0"
            if isinstance(x, float):
                return repr(x)
            if isinstance(x, list):          # the notes
                return ";".join(x)
            return str(x)

        return ",".join(fmt(getattr(self, c)) for c in CSV_COLUMNS)


def run_trials(spec: RegimeSpec):
    """Run the experiment: returns (records, summary).  Byte-identical output
    for identical specs."""
    p, flags = spec.resolve_p()
    checks = spec.resolved_checks()
    records = []
    for i in range(spec.trials):
        seed = trial_seed(spec.master_seed, i)
        g = gen_gnp(GnpParams(spec.n, p, seed))
        rec = TrialRecord(trial=i, seed=seed, n=spec.n, p=p, m=g.m)
        if "nu" in checks:
            rec.nu = matching_number(g)
        if "forest" in checks:
            rec.is_forest = is_forest(g)
        if "p3" in checks:
            rec.p3_count = count_isolated_p3(g)[0]
        # tau before the empty half-set, which an exact tau answers with no
        # search; the empty half-set's note still comes first
        tau_note = None
        if "tau" in checks:
            # decided by the cached split; only the value of tau is searched
            rec.tau_eq_nu = "yes" if _tau_is_nu(g) else "no"
            try:
                rec.tau = vertex_cover_number(g, spec.vc_budget)
            except CapabilityError as exc:
                tau_note = f"tau budget exceeded ({exc})"
        if "empty_half" in checks:
            rec.empty_half, why = has_empty_half(g, spec.is_budget)
            if why:
                rec.notes.append(why)
        if tau_note:
            rec.notes.append(tau_note)
        if "eg" in checks:
            if spec.n <= spec.eg_exact_cutoff:
                verdicts = dec.eg_check_all(g, n_exact=spec.eg_exact_cutoff)
                rec.eg_all = _eg_all(spec.n, verdicts, rec.notes)
            else:
                rec.eg_all = "skipped"
                rec.notes.append(
                    f"exact eg check limited to n <= {spec.eg_exact_cutoff}")
        if "density" in checks:
            audit = density_audit(g, p, DENSITY_EPSILON, DENSITY_SAMPLES,
                                  trial_seed(seed, 0xD0))
            rec.density = dict(audit.events)
        records.append(rec)
    summary = _summarize(spec, p, flags, records)
    return records, summary


def _eg_all(n: int, verdicts: dict, notes: list[str]) -> str:
    """'holds' or 'fails' over the k with 2k + 1 <= n, where a (2k + 1)-set
    exists for the first canonical form; the smallest failing k gets a note.
    k = n/2 at even n lies beyond that range (there the library reads K_n
    as not canonical), so a failure there is a note of its own and no
    verdict."""
    failing = [k for k, v in verdicts.items() if v.verdict != "holds"]
    inside = [k for k in failing if 2 * k + 1 <= n]
    if inside:
        notes.append(f"eg fails first at k = {inside[0]}")
    if len(inside) < len(failing):
        notes.append("eg at k = n/2 (2k+1 > n): fails")
    return "fails" if inside else "holds"


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval for a binomial rate."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _rate_entry(successes: int, trials: int) -> dict:
    lo, hi = wilson_interval(successes, trials)
    return {"count": successes, "trials": trials,
            "rate": (successes / trials) if trials else None,
            "wilson_low": lo, "wilson_high": hi}


# a record's string answers as outcomes; any other string ("", "unknown",
# "skipped") leaves the answer undecided
_DECIDED = {"yes": True, "holds": True, "no": False, "fails": False}
# each summary rate and a record's outcome for it: True (counted), False,
# or None when the record did not decide it
_RATE_OUTCOMES = (
    ("is_forest", lambda r: r.is_forest),
    ("eg_all_holds", lambda r: _DECIDED.get(r.eg_all)),
    ("tau_eq_nu", lambda r: _DECIDED.get(r.tau_eq_nu)),
    ("empty_half", lambda r: _DECIDED.get(r.empty_half)),
    ("two_isolated_p3",
     lambda r: None if r.p3_count is None else r.p3_count >= 2),
)


def _summarize(spec: RegimeSpec, p: float, flags: dict, records) -> dict:
    t = len(records)
    summary = {
        "schema": SCHEMA,
        "rng": RNG_NAME,
        "regime": spec.p_rule,
        "n": spec.n,
        "p": p,
        "trials": t,
        "master_seed": spec.master_seed,
        "checks": list(spec.resolved_checks()),
        "flags": flags,
        "degenerate": t == 0,
    }
    rates = {}
    for name, outcome in _RATE_OUTCOMES:
        decided = [o for o in map(outcome, records) if o is not None]
        if decided:
            rates[name] = _rate_entry(decided.count(True), len(decided))
    if any(r.density is not None for r in records):
        checked = violated = 0
        for r in records:
            if r.density:
                for c, v in r.density.values():
                    checked += c
                    violated += v
        rates["density_violation"] = _rate_entry(violated, checked)
    summary["rates"] = rates
    return summary


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"
