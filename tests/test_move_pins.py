"""Pinned move outcomes on the shared dense n = 20000 graph.

For each Criterion-4 shape at its first trial seed, and for the improve
trace of the Criterion-10 determinism test, the case, the sizes before and
after, the sha256 of ``pi_after.to_json_obj()`` and the sorted moved
vertices are fixed here.  The values were recorded with the earlier
bitmask implementation of decompositions and moves; any change to a
tie-break or an rng draw in the moves changes one of them.
"""

import hashlib
import json

import numpy as np
import pytest

from eg_matchlab.graph_core import vset_members
from eg_matchlab.harness import trial_seed
from eg_matchlab.moves import apply_case, improve

from test_acceptance import CASE_SHAPES, scatter_partition


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def outcome(rep) -> tuple:
    moved = vset_members(rep.moved_set)
    return (rep.case_id, rep.size_before, rep.size_after,
            digest(rep.pi_after.to_json_obj()), len(moved), digest(moved))


# case -> (case, size_before, size_after, sha256(pi_after JSON),
#          number of moved vertices, sha256(sorted moved vertices))
FIRST_TRIAL = {
    1: (1, 6, 2860,
        "1f19cee1e48b062f0ff92c34b4d59a4ac30347e2f766095048553440f75ee5f4",
        1200,
        "a8c5241ea95cd4a56a198ede31323c6da9340afa10dbc1083500f30d4598257b"),
    2: (2, 83, 201,
        "006736e0aaf0563cc58ccfed8036ae5869a51a1246ab8a3b611d1aafaabe69f0",
        3,
        "4d1c22e78b60230614b0e6dcb0dc6f4d15ff5a912655eac3c3b0c23387b12a84"),
    3: (3, 506465, 573077,
        "c1ec05f38b442e43cdca3663709b8153072929d403d62f178d522db7fc6a4d07",
        4500,
        "0fbc153f6897cc7b9e3564153a67cb141895ad1049ddf7dd1deb414be1ce6350"),
    4: (4, 506942, 641296,
        "8da3b935d9529cfcc89a13927393945281f8526515d62c732eb4a97ea7b4b353",
        2000,
        "f68d8f9b7b7bf49008c9dab88ca4971e22aadad5c165a85fcdd7743bd3e38499"),
    6: (6, 790996, 791155,
        "464fe27e0676e456829463c8981413c3bede00511f22528e9535d1d8eb9d99b1",
        2,
        "f4be147f5fad12be4d4d441324fd73a3427c144183f3ecc05614010d74e4f3f2"),
    7: (7, 721661, 726175,
        "c5cff6eba1806869d3e69b1fba47608989936cce618b7fd53fe15c66e7a8cfa9",
        50,
        "5d202ca17e9ff3f91ece78410190ae8ce28f8da124a6b2d9c952b5c1c49ca8c8"),
}

IMPROVE_TRACE = [
    (3, 506885, 573182,
     "87b141dff03ff4ab5ac8cc2cfe8ed74d7223e575f0c37ac33d8b6641b3f58360",
     4500,
     "4b6079dccd1c661078ab7348c8b4b8d576d8adfae75b7444dd4193b2cf0527f7"),
]


@pytest.mark.parametrize("case_id", sorted(CASE_SHAPES))
def test_first_trial_outcome(case_id, dense20000):
    shape = CASE_SHAPES[case_id]
    rng = np.random.Generator(np.random.Philox(
        key=trial_seed(0xACC4 + case_id, 0)))
    pi = scatter_partition(dense20000.n, shape["a1"], shape["extra"],
                           shape["s"], rng)
    rep = apply_case(dense20000, pi, case_id, rng=rng)
    assert outcome(rep) == FIRST_TRIAL[case_id]


def test_improve_trace_outcome(dense20000):
    rng = np.random.Generator(np.random.Philox(key=42))
    pi = scatter_partition(dense20000.n, 9001, [], 4999, rng)
    res = improve(dense20000, pi, max_steps=5, seed=13)
    assert [outcome(rep) for rep in res.trace] == IMPROVE_TRACE
    assert all(rep.accepted for rep in res.trace)
    assert (res.reason, res.start_size, res.final_size) == (
        "canonical", 506885, 573182)
    assert digest(res.final.to_json_obj()) == IMPROVE_TRACE[-1][3]
