"""The library surface the benchmark in ``perfbench/`` runs on.

The benchmark scripts are read, never imported or edited: every name they
import from ``eg_matchlab`` must still import, and the attributes their
workloads read must still exist.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from eg_matchlab.decomposition import Decomposition
from eg_matchlab.graph_core import Graph
from eg_matchlab.harness import RegimeSpec, TrialRecord
from eg_matchlab.moves import MoveReport, apply_case

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _library_imports():
    """(module, name) for every ``from eg_matchlab... import name``."""
    found = set()
    for path in SCRIPTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "eg_matchlab"):
                found.update((node.module, a.name) for a in node.names)
    return sorted(found)


def _answer_fields():
    """The ``ANSWER_FIELDS`` tuple of ``perfbench/workloads.py``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "ANSWER_FIELDS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no ANSWER_FIELDS")


def test_scripts_found():
    assert PERFBENCH / "workloads.py" in SCRIPTS
    assert _library_imports()


@pytest.mark.parametrize("module,name", _library_imports())
def test_imported_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("cls,attr", [
    (Graph, "adj_bits"), (Graph, "adj_lists"),
    (Decomposition, "blocks"), (Decomposition, "s_set"),
    (Decomposition, "r"), (Decomposition, "d")])
def test_read_attribute_exists(cls, attr):
    assert hasattr(cls, attr)


def test_dataclass_fields_exist():
    spec_fields = {f.name for f in dataclasses.fields(RegimeSpec)}
    assert {"vc_budget", "is_budget", "eg_exact_cutoff"} <= spec_fields
    record_fields = {f.name for f in dataclasses.fields(TrialRecord)}
    assert set(_answer_fields()) <= record_fields


def test_move_surface():
    """What the moves workload reads from ``apply_case`` and its report."""
    report_fields = {f.name for f in dataclasses.fields(MoveReport)}
    assert {"size_before", "size_after", "pi_after"} <= report_fields
    rng = inspect.signature(apply_case).parameters["rng"]
    assert rng.kind in (rng.POSITIONAL_OR_KEYWORD, rng.KEYWORD_ONLY)
