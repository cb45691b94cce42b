"""The exact search's trace is pinned.

For every instance of one kind, one digest covers the optima alone, a
second the optima with their sorted witnesses, and a third the optimum, the
sorted witness and the node and prune counts of the branch-and-bound.  The
first two pin the answers and the tie rules; the third pins the order in
which the search visits and prunes its nodes, so a change to the node order,
the bounds, the incumbent or the tie rules changes it even where every
answer stays right.  The packing bound takes pending vertices in the
iteration order of a set of vertex ids, so the node and prune counts are
those of CPython's set layout.  Every witness must be feasible at its
optimum by the brute-force oracles, and no kind may need more nodes in
total than its pinned cap.
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
from andorxy.solvers import _exact_min


def _trace(res):
    return (res.optimum, sorted(res.witness.edges), res.nodes, res.prunes)


def _decide(g, k):
    # decide_min_andor answers a bool; the capped search behind it carries the trace
    res = _exact_min(g, AndOrGraph, None, cap=k + 1)
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


# (kind, optima digest, witness digest, trace digest, node cap); a digest is
# the first 16 hex digits of the sha256 of the repr of a list.  280
# instances: 80 and/or DAGs solved and decided at opt - 1 and opt, 80 x-y
# DAGs, and 40 each of the vertex cover, dominating set and clique gadgets.
# The optima and witness digests were recorded from the search before the
# packing bound, and the trace digests and node caps (the node totals) from
# the search with it.  Before the packing bound the totals were 164, 262,
# 2,597, 2,490, 2,232 and 4,651; before free choices 1,869, 578, 2,697,
# 3,712, 3,450 and 4,651.
PINNED = [
    (_andor_solves, "9e1fbafeaab3e6f0", "9a7af8d8da5c186a", "2f04fa5c338efc97", 144),
    (_andor_decisions, "854bf68dd6708934", "de9c64bf31a6820b", "000cc9b423da241b", 189),
    (_xy_solves, "8fc7399e234dc39d", "df8956028952ea45", "e2c78613b46d6e67", 1693),
    (_vc_gadgets, "5f1c777b868cee89", "fdbe28a416d5fa37", "b8fc2a2ccc828972", 780),
    (_ds_gadgets, "5c445a1bfb60bfd9", "d4af89b73534a467", "7975a59ebf095114", 594),
    (_clique_gadgets, "063b452831144db8", "23ec2039ec1a81d4", "cf85a69f129b679e", 3969),
]
IDS = [row[0].__name__.strip("_") for row in PINNED]


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


@cache
def _runs(kind):
    return kind()


@pytest.mark.parametrize("kind,optima,witnesses,trace,_nodes", PINNED, ids=IDS)
def test_search_trace_is_pinned(kind, optima, witnesses, trace, _nodes):
    runs = _runs(kind)
    assert _digest([res.optimum for _g, res in runs]) == optima
    assert _digest([_trace(res)[:2] for _g, res in runs]) == witnesses
    assert _digest([_trace(res) for _g, res in runs]) == trace


@pytest.mark.parametrize("kind", [row[0] for row in PINNED], ids=IDS)
def test_search_witnesses_are_feasible_at_their_optimum(kind):
    for g, res in _runs(kind):
        feasible = oracles.feasible_xy if isinstance(g, XYGraph) else oracles.feasible_andor
        assert feasible(g, res.witness.edges)
        assert sum(g.edges[e] for e in res.witness.edges) == res.optimum


# the name is older than the caps, which are now the totals with the packing bound
@pytest.mark.parametrize("kind,nodes", [(row[0], row[4]) for row in PINNED], ids=IDS)
def test_search_needs_no_more_nodes_than_before_free_choices(kind, nodes):
    assert sum(res.nodes for _g, res in _runs(kind)) <= nodes
