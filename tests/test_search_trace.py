"""The exact search's trace is pinned.

For every instance of one kind, one digest covers the optima alone and a
second the optimum, the sorted witness and the node and prune counts of the
branch-and-bound.  The first pins the answers; the second pins the tie
rules and the order in which the search visits and prunes its nodes, so a
change to the node order, the bounds, the incumbent or the tie rules
changes it even where every answer stays right.  Every witness must be
feasible at its optimum by the brute-force oracles, and no kind may need
more nodes in total than the search before free choices did.
"""

import hashlib
from functools import cache
from random import Random

import pytest

import oracles
from andorxy import (
    AndOrGraph,
    SimpleGraph,
    XYGraph,
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


def _decide(g, k):
    # decide_min_andor answers a bool; the capped search behind it carries the trace
    res = _exact_min(_index(g, AndOrGraph), None, cap=k + 1)
    assert decide_min_andor(g, k) == (res.optimum <= k)
    return res


def _andor_dags():
    return [gen_andor(GeneratorConfig(n=24 + i % 12, seed=500 + i, and_fraction=0.5 + i % 3 / 10,
                                          density=0.1 + i % 4 / 10))
            for i in range(80)]


def _simple_graphs(seed, count, n, m):
    rng = Random(seed)
    names = [f"a{i:02d}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    return [SimpleGraph.from_pairs(rng.sample(pairs, m), names) for _ in range(count)]


# each kind yields (graph, result) pairs
def _andor_solves():
    return [(g, solve_exact_andor(g)) for g in _andor_dags()]


def _andor_decisions():
    out = []
    for g in _andor_dags():
        opt = solve_exact_andor(g).optimum
        out += [(g, _decide(g, opt - 1)), (g, _decide(g, opt))]
    return out


def _xy_solves():
    return [(g, solve_exact_xy(g)) for g in (gen_xy(GeneratorConfig(n=10 + i % 8, seed=700 + i))
                                             for i in range(80))]


def _vc_gadgets():
    return [(g, solve_exact_andor(g)) for g in (reduce_vertex_cover(q, 2 + i % 4).instance
                                                for i, q in enumerate(_simple_graphs(11, 40, 9, 13)))]


def _ds_gadgets():
    return [(g, solve_exact_andor(g)) for g in (reduce_dominating_set(q, 2 + i % 3).instance
                                                for i, q in enumerate(_simple_graphs(12, 40, 9, 12)))]


def _clique_gadgets():
    return [(g, solve_exact_xy(g)) for g in (reduce_clique(q, 3 + i % 2).instance
                                             for i, q in enumerate(_simple_graphs(13, 40, 8, 14)))]


# (kind, optima digest, trace digest, node total before free choices); a
# digest is the first 16 hex digits of the sha256 of the repr of a list.  280
# instances: 80 and/or DAGs solved and decided at opt - 1 and opt, 80 x-y
# DAGs, and 40 each of the vertex cover, dominating set and clique gadgets.
# The optima digests and node totals were recorded from the search before
# free choices, the trace digests from the search with them.
PINNED = [
    (_andor_solves, "9e1fbafeaab3e6f0", "ac42b2ef8cffa997", 1869),
    (_andor_decisions, "854bf68dd6708934", "88de5535a87d5c2d", 578),
    (_xy_solves, "8fc7399e234dc39d", "488aa0266c837713", 2697),
    (_vc_gadgets, "5f1c777b868cee89", "e52698d4d2726995", 3712),
    (_ds_gadgets, "5c445a1bfb60bfd9", "73fb320432beac33", 3450),
    (_clique_gadgets, "063b452831144db8", "e4c65e42a49372b6", 4651),
]
IDS = [row[0].__name__.strip("_") for row in PINNED]


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


@cache
def _runs(kind):
    return kind()


@pytest.mark.parametrize("kind,optima,trace,_nodes", PINNED, ids=IDS)
def test_search_trace_is_pinned(kind, optima, trace, _nodes):
    runs = _runs(kind)
    assert _digest([res.optimum for _g, res in runs]) == optima
    assert _digest([_trace(res) for _g, res in runs]) == trace


@pytest.mark.parametrize("kind", [row[0] for row in PINNED], ids=IDS)
def test_search_witnesses_are_feasible_at_their_optimum(kind):
    for g, res in _runs(kind):
        feasible = oracles.feasible_xy if isinstance(g, XYGraph) else oracles.feasible_andor
        assert feasible(g, res.witness.edges)
        assert sum(g.edges[e] for e in res.witness.edges) == res.optimum


@pytest.mark.parametrize("kind,nodes", [(row[0], row[3]) for row in PINNED], ids=IDS)
def test_search_needs_no_more_nodes_than_before_free_choices(kind, nodes):
    assert sum(res.nodes for _g, res in _runs(kind)) <= nodes
