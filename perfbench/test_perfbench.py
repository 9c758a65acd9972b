"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

A very short run of every workload, untraced and traced, must report every
metric BENCHMARK.json names, with its unit, and check its answers; a
corrupted reference answer must count as a failed op.  Takes about two
minutes on a 2-core box: a run completes at least one round, a round is
the workload's whole pool, the moves workload builds its n = 20000 graph,
and a traced run makes one whole round, each op twice.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import TRIAL, NullTracer  # noqa: E402
from workloads import LADDER, budget_key  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = run.load_workloads()
REFERENCE = json.loads(run.REFERENCE.read_text())
SHORT = 0.01          # seconds: an untraced run still completes its rounds


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_reports_every_metric(name, trace):
    result, detail, tracer = run.run(name, seed=3, seconds=SHORT,
                                     trace=trace, setup_reps=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert detail["replay_mismatches"] == 0
        # every span recorded is one a per-layer metric reads
        spans = {span[0] for span in tracer.spans}
        assert spans <= set(run.LAYER_SPANS) | {TRIAL}
        # the layer spans plus the trials' own time cover the traced time
        assert 0.95 < values["trace.accounted_share"] <= 1.0
    else:
        assert all(v > 0 for v in values.values()), values


def test_latency_stats_count_every_input_once():
    # input "a" ran three times, "b" once, "c" to "h" twice: each input
    # counts once, with its mean latency
    inputs = ["a"] * 3 + ["b"] + [c for c in "cdefgh" for _ in range(2)]
    secs = [0.001, 0.002, 0.003, 0.5] + [0.010] * 12
    results = [run.OpResult(i, 0.0, t, "ok", None)
               for i, t in zip(inputs, secs)]
    p50, tail = run.latency_stats(results, secs)
    assert p50 == pytest.approx(10.0)
    # the slowest quarter of 8 inputs: "b" (500 ms) and one at 10 ms
    assert tail == pytest.approx(255.0)


def first_input(name, seed):
    wl = WORKLOADS[name]
    state = wl.prepare(seed, REFERENCE, NullTracer())
    return next(wl.rounds(state))[0]


@pytest.mark.parametrize("name,field", [("mc-middle1k", "nu"),
                                        ("mc-forest5k", "p3_count")])
def test_corrupted_trial_answer_is_a_failed_op(name, field):
    ref = copy.deepcopy(REFERENCE)
    j = first_input(name, seed=5)
    ref[name][j][field] += 1
    result, detail, _ = run.run(name, seed=5, seconds=SHORT, trace=0,
                                reference=ref, setup_reps=1)
    assert result["failed"] == 1 and not result["correct"]
    assert detail["status_counts"]["wrong"] == 1


def test_corrupted_budget_value_is_a_failed_op():
    ref = copy.deepcopy(REFERENCE)
    ref["budgets"][budget_key("C7a", 1024)] *= 1 + 1e-6
    result, _, _ = run.run("budgets", seed=5, seconds=SHORT, trace=0,
                           reference=ref, setup_reps=1)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == len(LADDER)


def test_refuses_budget_override(monkeypatch, capsys):
    monkeypatch.setenv(run.BUDGET_ENV_VAR, "1000")
    argv = ["--workload", "budgets", "--seed", "1", "--seconds", "1"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""


def test_fails_without_the_library():
    """A directory holding only BENCHMARK.json and perfbench/ has no src/:
    the run must fail without printing a result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "budgets",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
