"""eg-matchlab benchmark: run one workload from a seed, check every answer
and print its metrics.

    python3 perfbench/run.py --workload mc-forest5k --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ./src.  With
``--trace 0`` it prints the end-to-end metrics of an untraced run of about
``--seconds``.  With ``--trace 1`` it runs one round of ops, each op
untraced and traced, checks that both give the same answers, and prints
the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the details (environment, host probe, unadjusted times,
the tail's pool size, fail share and its base).  Both, and the spans of a
traced run, are also written to perfbench/out/.

Everything runs in one process and one thread, as a closed loop that
issues one op at a time.  Between ops the run times a fixed pure-Python
loop (the host probe); the end-to-end times are scaled by how fast that
loop ran next to each op, so that a shared host's changing speed does not
read as a change of the program (see ``adjust``).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
sys.path[:0] = [p for p in (str(HERE), str(SRC)) if p not in sys.path]

from tracing import (ERROR, OK, TRIAL, UNDECIDED, WRONG,  # noqa: E402
                     NullTracer, Tracer)

BUDGET_ENV_VAR = "EG_MATCHLAB_BUDGET"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
# time of one host probe on an idle core of the 2-core Intel Xeon VM the
# benchmark was tuned on; adjusted times read as times on such a core
PROBE_REF_S = 1.3e-3

# spans timed per layer; each gives a "<name>.s" metric
LAYER_SPANS = (
    "graph_core.gen_gnp", "graph_core.adj_bits", "graph_core.adj_lists",
    "matching.max_matching", "matching.vertex_cover", "matching.is_forest",
    "harness.has_empty_half", "harness.count_isolated_p3",
    "decomposition.build", "decomposition.size",
    "moves.classify",
) + tuple(f"moves.apply.case{c}" for c in (1, 2, 3, 4, 6, 7)) + tuple(
    f"bounds.union_budget.{t}" for t in ("P24a", "P24b", "P25", "P26", "P27a",
                                         "P27b", "CUT", "C7a", "C7b"))
# span names whose call count is reported as "<name>.calls"
CALL_COUNTS = ("graph_core.gen_gnp", "matching.max_matching",
               "matching.vertex_cover")
# counters recorded by the workloads, reported as they are
COUNTERS = ("graph_core.edges", "matching.exposed",
            "matching.vertex_cover.budget_exceeded",
            "harness.has_empty_half.unknown")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_workloads():
    """Import the workloads, and through them the library from this
    checkout's src/; raise ImportError when src/ does not hold it."""
    import eg_matchlab
    if SRC.resolve() not in Path(eg_matchlab.__file__).resolve().parents:
        raise ImportError(f"eg_matchlab was imported from "
                          f"{eg_matchlab.__file__}, not from {SRC}")
    import workloads
    return workloads.WORKLOADS


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the library sources, identifying the code when the
    checkout is not a git work tree."""
    h = hashlib.sha256()
    for path in sorted((SRC / "eg_matchlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_probe() -> float:
    """Median time of three runs of a fixed pure-Python loop, in seconds.
    The speed of a core on a shared virtual machine drifts with its
    neighbours' load, in spells of tenths of a second to minutes, by up to
    half; a probe next to an op shows how fast the host ran around it."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def adjust(seconds: float, probe_before: float, probe_after: float) -> float:
    """A time measured between two probes, scaled to a host on which the
    probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / ((probe_before + probe_after) / 2)


def adjust_ops(results, probes) -> list[float]:
    """Op latencies scaled to the reference host.  Op i ran between probes
    i and i + 1; the host's speed during it is the mean of those two and of
    every other probe taken within half the op's length of its start or end,
    so that a long op is not judged by two snapshots alone."""
    out = []
    for i, r in enumerate(results):
        lo, hi = r.start - r.latency / 2, r.start + 1.5 * r.latency
        near = [v for t, v in probes[:i] + probes[i + 2:] if lo <= t <= hi]
        speed = statistics.mean([probes[i][1], probes[i + 1][1], *near])
        out.append(r.latency * PROBE_REF_S / speed)
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    inp: object
    start: float
    latency: float
    status: str
    digest: object


def run_op(wl, state, inp, tracer, op_id):
    # a full collection outside the timed part, so that no op pays for the
    # garbage of the ops before it: where a collection falls would otherwise
    # depend on the order of the ops.  Collections an op's own allocations
    # trigger still count.
    gc.collect()
    tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        with tracer.span(TRIAL):
            status, digest = wl.op(state, inp, tracer)
    except Exception:                  # an op that raises is a failed op
        traceback.print_exc(file=sys.stderr)
        status, digest = ERROR, None
    latency = time.perf_counter() - t0
    tracer.op_id = None
    return OpResult(inp, t0, latency, status, digest)


def measure(wl, state, step, seconds=None, rounds=None):
    """Call ``step`` on each op input, in whole rounds: ``rounds`` of them
    when given, else as many as come nearest to ``seconds``: the loop stops
    when the next round would likely end more than half a round after it.
    A host probe is taken before the first step and after each.  Returns
    (wall time, rounds run, probes as (time, seconds))."""
    def probe():
        probes.append((time.perf_counter(), host_probe()))

    probes = []
    probe()
    start = time.perf_counter()
    done = 0
    for batch in wl.rounds(state):
        for inp in batch:
            step(inp)
            probe()
        done += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if done == rounds:
                break
        elif elapsed + elapsed / done / 2 > seconds:
            break
    return time.perf_counter() - start, done, probes


def latency_stats(results, latencies):
    """(median, tail) over the distinct op inputs of a run, in ms.  Each
    input's latency is its mean over the run's rounds, so that every input
    counts once however many rounds ran; the tail is the mean of the slowest
    quarter of the inputs."""
    by_input = defaultdict(list)
    for r, t in zip(results, latencies):
        by_input[r.inp].append(t)
    per_input = sorted(statistics.mean(v) * 1000.0
                       for v in by_input.values())
    slowest = per_input[-math.ceil(len(per_input) / 4):]
    return statistics.median(per_input), statistics.mean(slowest)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def run(name, seed, seconds, trace, reference=None, setup_reps=SETUP_REPS):
    """Run one workload; returns (result, detail, tracer or None)."""
    wl = load_workloads()[name]
    imported = time.perf_counter()
    null = NullTracer()
    tracer = Tracer() if trace else None

    # set up several times (median reported); a traced run sets up once,
    # under the tracer
    probe = host_probe()
    import_adj = adjust(imported - STARTED, probe, probe)
    prepare_s, prepare_adj = [], []
    for _ in range(1 if trace else setup_reps):
        state = None                       # free the previous set-up first
        t0 = time.perf_counter()
        ref = reference
        if ref is None:
            ref = json.loads(REFERENCE.read_text())
        state = wl.prepare(seed, ref, tracer or null)
        prepare_s.append(time.perf_counter() - t0)
        probe_after = host_probe()
        prepare_adj.append(adjust(prepare_s[-1], probe, probe_after))
        probe = probe_after

    results, replay = [], []

    def untraced(inp):
        results.append(run_op(wl, state, inp, null, len(results)))

    def paired(inp):
        # each op runs untraced and traced, the first of the two alternating,
        # so neither side always meets the warmer caches
        i = len(results)
        if i % 2:
            replay.append(run_op(wl, state, inp, tracer, i))
        untraced(inp)
        if not i % 2:
            replay.append(run_op(wl, state, inp, tracer, i))

    # a traced run runs one round, so that its counts repeat exactly for a
    # given seed on any machine
    if trace:
        wall, rounds, probes = measure(wl, state, paired, rounds=1)
    else:
        wall, rounds, probes = measure(wl, state, untraced, seconds=seconds)
    counts = {s: sum(r.status == s for r in results)
              for s in (OK, UNDECIDED, WRONG, ERROR)}
    attempted = len(results)
    failed = counts[WRONG] + counts[ERROR]
    lat = [r.latency for r in results]
    p50, tail = latency_stats(results, lat)
    inputs = len({r.inp for r in results})
    speeds = [v for _, v in probes]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(),
        "host_probe_ms": {"median": statistics.median(speeds) * 1000.0,
                          "min": min(speeds) * 1000.0,
                          "max": max(speeds) * 1000.0,
                          "ref": PROBE_REF_S * 1000.0},
        "import_s": imported - STARTED,
        "prepare_s": prepare_s, "rounds": rounds, "loop_wall_s": wall,
        "unadjusted": {"setup_s": imported - STARTED
                       + statistics.median(prepare_s),
                       "ops_per_s": attempted / wall,
                       "op_p50_ms": p50, "op_tail_ms": tail},
        "status_counts": counts,
        "op_tail": {"inputs": inputs, "slowest": math.ceil(inputs / 4),
                    "samples": attempted},
        "fail_share": {"value": (failed + counts[UNDECIDED]) / attempted,
                       "failed": failed, "undecided": counts[UNDECIDED],
                       "attempted": attempted},
    }
    correct = failed == 0

    if not trace:
        adj = adjust_ops(results, probes)
        p50, tail = latency_stats(results, adj)
        metrics = {
            "setup_s": (import_adj + statistics.median(prepare_adj), "s"),
            "ops_per_s": (attempted / sum(adj), "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_tail_ms": (tail, "ms"),
            "ok_share": (counts[OK] / attempted, "share"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        traced_wall = prepare_s[0] + sum(r.latency for r in replay)
        mismatched = sum(a.status != b.status or a.digest != b.digest
                         for a, b in zip(results, replay))
        detail["replay_mismatches"] = mismatched
        correct = correct and mismatched == 0
        metrics = layer_metrics(tracer, lat, traced_wall)
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, detail, tracer


def layer_metrics(tr, untraced_latencies, traced_wall) -> dict:
    busy = tr.busy()
    calls = tr.calls()
    m = {f"{name}.s": (busy.get(name, 0.0), "s") for name in LAYER_SPANS}
    m.update({f"{name}.calls": (calls[name], "count") for name in CALL_COUNTS})
    m.update({name: (tr.counts[name], "count") for name in COUNTERS})
    applies = sum(calls[f"moves.apply.case{c}"] for c in (1, 2, 3, 4, 6, 7))
    m["moves.apply.calls"] = (applies, "count")
    m["moves.improved_share"] = (
        tr.counts["moves.improved"] / applies if applies else 0.0, "share")
    m["bounds.union_budget.calls"] = (
        sum(v for k, v in calls.items()
            if k.startswith("bounds.union_budget.")), "count")
    m["harness.trial.self_s"] = (tr.trial_self_time(), "s")
    m["trace.overhead_share"] = (
        sum(tr.trial_durations()) / sum(untraced_latencies) - 1.0, "share")
    m["trace.accounted_share"] = (tr.top_level_time() / traced_wall, "share")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get(BUDGET_ENV_VAR) is not None:
        print(f"refusing to run: {BUDGET_ENV_VAR} is set, and it overrides "
              "every branch-and-bound node budget", file=sys.stderr)
        return 2
    for var in THREAD_VARS:                 # numpy must not start a pool
        os.environ[var] = "1"
    try:
        result, detail, tracer = run(args.workload, args.seed, args.seconds,
                                     args.trace)
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"unknown workload {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
