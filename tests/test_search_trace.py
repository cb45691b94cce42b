"""The exact search's trace is pinned.

Each digest covers, for every instance of one kind, the optimum, the sorted
witness and the node and prune counts of the branch-and-bound.  Optimum
and witness pin the answers and their tie rules; the counts pin the order
in which the search visits and prunes its nodes.  A change to the node
order, the bounds, the incumbent or the tie rules therefore changes a
digest, even where every answer stays right.
"""

import hashlib
from random import Random

import pytest

from andorxy import (
    AndOrGraph,
    SimpleGraph,
    decide_min_andor,
    reduce_clique,
    reduce_dominating_set,
    reduce_vertex_cover,
    solve_exact_andor,
    solve_exact_xy,
)
from andorxy.generators import GeneratorConfig, gen_andor, gen_xy
from andorxy.graphs import _index
from andorxy.solvers import _exact_min


def _trace(res):
    return (res.optimum, sorted(res.witness.edges), res.nodes, res.prunes)


def _decide_trace(g, k):
    # decide_min_andor answers a bool; the capped search behind it carries the trace
    res = _exact_min(_index(g, AndOrGraph), None, cap=k + 1)
    assert decide_min_andor(g, k) == (res.optimum <= k)
    return _trace(res)


def _andor_dags():
    return [gen_andor(GeneratorConfig(n=24 + i % 12, seed=500 + i, and_fraction=0.5 + i % 3 / 10,
                                          density=0.1 + i % 4 / 10))
            for i in range(80)]


def _simple_graphs(seed, count, n, m):
    rng = Random(seed)
    names = [f"a{i:02d}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    return [SimpleGraph.from_pairs(rng.sample(pairs, m), names) for _ in range(count)]


def _andor_solves():
    return [_trace(solve_exact_andor(g)) for g in _andor_dags()]


def _andor_decisions():
    out = []
    for g in _andor_dags():
        opt = solve_exact_andor(g).optimum
        out += [_decide_trace(g, opt - 1), _decide_trace(g, opt)]
    return out


def _xy_solves():
    return [_trace(solve_exact_xy(gen_xy(GeneratorConfig(n=10 + i % 8, seed=700 + i))))
            for i in range(80)]


def _vc_gadgets():
    return [_trace(solve_exact_andor(reduce_vertex_cover(q, 2 + i % 4).instance))
            for i, q in enumerate(_simple_graphs(11, 40, 9, 13))]


def _ds_gadgets():
    return [_trace(solve_exact_andor(reduce_dominating_set(q, 2 + i % 3).instance))
            for i, q in enumerate(_simple_graphs(12, 40, 9, 12))]


def _clique_gadgets():
    return [_trace(solve_exact_xy(reduce_clique(q, 3 + i % 2).instance))
            for i, q in enumerate(_simple_graphs(13, 40, 8, 14))]


# (kind, sha256 of the repr of its traces, first 16 hex digits).  280
# instances: 80 and/or DAGs solved and decided at opt - 1 and opt, 80 x-y
# DAGs, and 40 each of the vertex cover, dominating set and clique gadgets.
# Recorded from the recursive search that the explicit frame stack replaced.
PINNED = [
    (_andor_solves, "a7d8e525a288a37b"),
    (_andor_decisions, "c4f58447a5ec2cc3"),
    (_xy_solves, "256cabb0c605fe52"),
    (_vc_gadgets, "f50ef1a7e27f92d0"),
    (_ds_gadgets, "68a1bb0448b40204"),
    (_clique_gadgets, "e4c65e42a49372b6"),
]


@pytest.mark.parametrize("traces,digest", PINNED, ids=[f.__name__.strip("_") for f, _ in PINNED])
def test_search_trace_is_pinned(traces, digest):
    assert hashlib.sha256(repr(traces()).encode()).hexdigest()[:16] == digest
