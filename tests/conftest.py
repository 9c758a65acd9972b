import itertools
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from eg_matchlab.graph_core import Graph, GnpParams, gen_gnp

# union_budget log-values and notes, and `budget` CLI stdout, recorded with
# the cached-row evaluation that the within-reach evaluator replaced
BUDGET_PINS = json.loads(
    (Path(__file__).parent / "budget_pins.json").read_text())


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def star4():
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture(scope="session")
def c5():
    return cycle(5)


@pytest.fixture(scope="session")
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


@pytest.fixture
def no_adj_bits(monkeypatch):
    """Refuse every read of ``Graph.adj_bits`` for the test's duration."""
    def refuse(g):
        raise AssertionError("bitset adjacency built")

    monkeypatch.setattr(Graph, "adj_bits", property(refuse))


@pytest.fixture(scope="session")
def dense20000():
    """The single big dense-regime graph shared by the move tests."""
    n = 20000
    p = 8 * math.log(n) / n
    return gen_gnp(GnpParams(n, p, 987654321))
