"""Solvers: tree recurrences, bounds, exact search, exact-weight decision.

The exact solvers are held against the brute-force oracle (all 2^m edge
subsets) on small instances, which is the only ground truth available for
an NP-hard problem.  Everything else hangs off that anchor.
"""

import inspect
import sys
import time
from random import Random

import pytest

import oracles
from andorxy import (
    AND,
    OR,
    AndOrGraph,
    BudgetExceededError,
    InvalidGraphError,
    SimpleGraph,
    SolutionSubgraph,
    XYGraph,
    andor_to_xy,
    decide_exact_weight_xy_tree,
    decide_kernel,
    decide_min_andor,
    dp_upper_bound,
    kernelize,
    reduce_dominating_set,
    reduce_vertex_cover,
    schedule_lower_bound,
    solve_andor_tree,
    solve_exact_andor,
    solve_exact_xy,
    solve_xy_tree,
    validate_andor,
    verify_solution_andor,
    verify_solution_xy,
)
from andorxy import solvers
from andorxy.generators import (
    GeneratorConfig,
    gen_andor,
    gen_andor_tree,
    gen_xy,
    gen_xy_tree,
)


def aog(labels, edges, source="s", zero=False):
    return AndOrGraph(dict(labels), dict(edges), source, zero)


def xyg(labels, edges, source="s", zero=False):
    return XYGraph(dict(labels), dict(edges), source, zero)


def fresh(g):
    """A new object over the same dicts, carrying no cached index."""
    return type(g)(g.labels, g.edges, g.source, g.zero_weights_allowed)


def check_witness_andor(g, res):
    feasible, weight, violations = verify_solution_andor(g, res.witness)
    assert feasible, violations
    assert weight == res.optimum


def check_witness_xy(g, res):
    feasible, weight, violations = verify_solution_xy(g, res.witness)
    assert feasible, violations
    assert weight == res.optimum


# ------------------------------------------------------------ tree solvers

def test_andor_tree_hand_instance():
    # s(and) -> u(or) weight 1, -> sink x weight 2; u -> sinks weights 5 and 3
    g = aog(
        {"s": AND, "u": OR, "x": OR, "p": OR, "q": OR},
        {("s", "u"): 1, ("s", "x"): 2, ("u", "p"): 5, ("u", "q"): 3},
    )
    res = solve_andor_tree(g)
    assert res.optimum == 6
    assert res.witness.edges == frozenset({("s", "u"), ("s", "x"), ("u", "q")})
    check_witness_andor(g, res)


def test_andor_tree_all_and_total_weight():
    for seed in range(10):
        g = gen_andor_tree(GeneratorConfig(n=12, seed=seed, and_fraction=1.0))
        res = solve_andor_tree(g)
        assert res.optimum == g.total_weight()
        assert res.witness.edges == frozenset(g.edges)


def test_andor_tree_single_vertex():
    res = solve_andor_tree(aog({"s": AND}, {}))
    assert res.optimum == 0
    assert res.witness.edges == frozenset()
    assert res.witness.vertices("s") == {"s"}


def test_xy_tree_two_of_three():
    g = xyg(
        {"s": (2, 3), "a": (0, 0), "b": (0, 0), "c": (0, 0)},
        {("s", "a"): 4, ("s", "b"): 1, ("s", "c"): 7},
    )
    res = solve_xy_tree(g)
    assert res.optimum == 5
    assert res.witness.edges == frozenset({("s", "a"), ("s", "b")})


def test_xy_tree_trivial_labels():
    assert solve_xy_tree(xyg({"s": (0, 0)}, {})).optimum == 0
    g = xyg(
        {"s": (3, 3), "a": (0, 0), "b": (0, 0), "c": (0, 0)},
        {("s", "a"): 1, ("s", "b"): 2, ("s", "c"): 3},
    )
    assert solve_xy_tree(g).optimum == 6


def test_xy_tree_zero_demand_cuts_subtree():
    g = xyg(
        {"s": (1, 1), "a": (0, 2), "b": (0, 0), "c": (0, 0)},
        {("s", "a"): 3, ("a", "b"): 9, ("a", "c"): 9},
    )
    res = solve_xy_tree(g)
    assert res.optimum == 3
    assert res.witness.edges == frozenset({("s", "a")})


def test_tree_solver_or_tie_breaks_to_smaller_head():
    g = aog(
        {"s": OR, "a": OR, "b": OR},
        {("s", "b"): 4, ("s", "a"): 4},
    )
    assert solve_andor_tree(g).witness.edges == frozenset({("s", "a")})
    x = xyg(
        {"s": (1, 2), "a": (0, 0), "b": (0, 0)},
        {("s", "b"): 4, ("s", "a"): 4},
    )
    assert solve_xy_tree(x).witness.edges == frozenset({("s", "a")})


def test_tree_solvers_match_brute_force():
    rng = Random(31)
    for trial in range(120):
        n = rng.randint(1, 9)
        g = gen_andor_tree(GeneratorConfig(n=n, seed=trial, weight_hi=6))
        res = solve_andor_tree(g)
        best, _ = oracles.brute_min_andor(g)
        assert res.optimum == best
        check_witness_andor(g, res)

        # the same tree as x-y demands: the shared recurrence and tie-break
        assert solve_xy_tree(andor_to_xy(g)) == res

        x = gen_xy_tree(GeneratorConfig(n=n, seed=trial + 1000, weight_hi=6))
        resx = solve_xy_tree(x)
        bestx, _ = oracles.brute_min_xy(x)
        assert resx.optimum == bestx
        check_witness_xy(x, resx)


DIAMOND = {("s", "a"): 1, ("s", "b"): 1, ("a", "t"): 1, ("b", "t"): 1}


def test_tree_solvers_reject_non_trees():
    diamond = aog({"s": AND, "a": OR, "b": OR, "t": OR}, DIAMOND)
    with pytest.raises(InvalidGraphError, match="not an out-tree: vertex t has in-degree 2"):
        solve_andor_tree(diamond)
    with pytest.raises(InvalidGraphError, match="not an out-tree"):
        solve_xy_tree(andor_to_xy(diamond))


# (solver, graph, expected message): labels and y are checked before tree
# shape, and weights must be ints, as validation requires
INVALID_TREES = [
    (solve_andor_tree, aog({"s": AND, "a": OR, "b": OR, "t": OR}, DIAMOND), "not an out-tree"),
    (solve_andor_tree, aog({"s": AND, "a": OR}, {("s", "a"): 1, ("a", "s"): 1}), "cycle"),
    (solve_xy_tree, xyg({"s": (2, 3), "a": (0, 0)}, {("s", "a"): 1}), "y mismatch"),
    (solve_andor_tree, aog({"s": AND, "a": OR, "b": OR, "t": "xor"}, DIAMOND),
     "vertex t has label 'xor'"),
    (solve_andor_tree, aog({"s": "xor", "a": OR}, {("s", "a"): 2}), "vertex s has label 'xor'"),
    (solve_xy_tree, xyg({"s": (2, 3), "a": (1, 1), "b": (1, 1), "t": (0, 0)}, DIAMOND),
     "y mismatch at s"),
    (solve_xy_tree, xyg({"s": 5, "a": (0, 0)}, {("s", "a"): 1}), "expected an \\(x, y\\) pair"),
    (solve_andor_tree, aog({"s": ["and"], "a": OR}, {("s", "a"): 1}),
     "vertex s has label \\['and'\\], expected 'and' or 'or'"),
] + [
    (solve_xy_tree, xyg({"s": lab, "a": (0, 0)}, {("s", "a"): 1}),
     f"vertex s has label \\({x}, 1\\), expected an \\(x, y\\) pair")
    for lab, x in (((True, 1), "True"), ((1.0, 1), "1.0"))
] + [
    (fn, make({"s": lab, "a": sink}, {("s", "a"): w}), "non-integer weight")
    for w in (2.5, True, "3")
    for fn, make, lab, sink in ((solve_andor_tree, aog, AND, OR), (solve_xy_tree, xyg, (1, 1), (0, 0)))
] + [
    # edge keys that iterate like ids, or not, but are no (tail, head) pair
    (fn, make({"s": lab, "a": sink, "b": sink}, {("s", "a"): 1, key: 1}),
     "is not a \\(tail, head\\) pair")
    for key in ("sb", ("s", "b", "x"), frozenset(("s", "b")))
    for fn, make, lab, sink in ((solve_andor_tree, aog, AND, OR), (solve_xy_tree, xyg, (2, 2), (0, 0)))
]


def test_tree_solvers_reject_invalid_graphs():
    for fn, g, match in INVALID_TREES:
        with pytest.raises(InvalidGraphError, match=match):
            fn(fresh(g))


# ------------------------------------------- vectorized vs scalar tree path

def force_fast(monkeypatch):
    monkeypatch.setattr(solvers, "_FAST_MIN_N", 1)


def test_fast_path_matches_scalar(monkeypatch):
    rng = Random(8)
    cases = []
    for trial in range(60):
        # small trees, and 5,000-vertex ones with hundreds of vertices per layer
        n = rng.randint(1, 40) if trial < 48 else 5000
        # distinct weights, ties and zero weights; or-only, mixed and and-only trees
        lo, hi = ((1, 9), (0, 3), (4, 4), (0, 0))[trial % 4]
        cfg = GeneratorConfig(n=n, seed=trial, weight_lo=lo, weight_hi=hi,
                              and_fraction=(0.0, 0.5, 1.0)[trial % 3])
        cases.append(("a", gen_andor_tree(cfg)))
        cases.append(("x", gen_xy_tree(cfg)))
    assert sum(1 < x < y for kind, g in cases if kind == "x" for x, y in g.labels.values()) > 1000
    scalar = []
    for kind, g in cases:
        assert g.index is not None  # an indexed graph solves on the scalar path
        scalar.append(solve_andor_tree(g) if kind == "a" else solve_xy_tree(g))
        assert "tree_core" not in vars(g)
    force_fast(monkeypatch)
    for (kind, g), ref in zip(cases, scalar):
        # a new object carries no index, so it takes the vectorized path
        f = fresh(g)
        res = solve_andor_tree(f) if kind == "a" else solve_xy_tree(f)
        assert "tree_core" in vars(f) and "index" not in vars(f)
        assert res.optimum == ref.optimum
        assert res.witness.edges == ref.witness.edges


def test_indexed_graph_solves_on_its_index(monkeypatch):
    force_fast(monkeypatch)
    for g in (gen_andor_tree(GeneratorConfig(n=50, seed=4)),
              gen_xy_tree(GeneratorConfig(n=50, seed=4))):
        assert g.index is not None  # as parse_graph or validate_* leave it
        solve = solve_xy_tree if isinstance(g, XYGraph) else solve_andor_tree
        res = solve(g)
        assert "tree_core" not in vars(g)
        assert res == solve(fresh(g))


def test_fast_path_declines_deep_chains_but_still_answers(monkeypatch):
    force_fast(monkeypatch)
    n = 400  # a path this deep falls back to the scalar loop
    labels = {f"v{i:03d}": AND for i in range(n)}
    edges = {(f"v{i:03d}", f"v{i+1:03d}"): 2 for i in range(n - 1)}
    g = AndOrGraph(labels, edges, "v000")
    assert solvers._solve_tree_fast(g, xy=False) is None
    assert solve_andor_tree(g).optimum == 2 * (n - 1)


def _raised(fn, g):
    with pytest.raises(InvalidGraphError) as exc:
        fn(g)
    return str(exc.value)


def test_fast_path_error_parity(monkeypatch):
    scalar = [_raised(fn, fresh(g)) for fn, g, _match in INVALID_TREES]
    force_fast(monkeypatch)
    assert [_raised(fn, fresh(g)) for fn, g, _match in INVALID_TREES] == scalar


def test_detached_cycle_error_parity(monkeypatch):
    # n - 1 edges and in-degree 1 off the source, yet no tree: b and c form
    # a cycle the source never reaches
    edges = {("s", "a"): 1, ("b", "c"): 1, ("c", "b"): 1}
    cases = [
        (solve_andor_tree, aog({"s": AND, "a": OR, "b": OR, "c": OR}, edges)),
        (solve_xy_tree, xyg({"s": (1, 1), "a": (0, 0), "b": (1, 1), "c": (1, 1)}, edges)),
    ]
    scalar = [_raised(fn, fresh(g)) for fn, g in cases]
    assert all("cycle: b -> c -> b" in msg and "unreachable: b" in msg for msg in scalar)
    force_fast(monkeypatch)
    assert [_raised(fn, fresh(g)) for fn, g in cases] == scalar


def test_fast_path_caches_index_on_the_graph(monkeypatch):
    force_fast(monkeypatch)
    g = gen_andor_tree(GeneratorConfig(n=60, seed=3))
    first = solve_andor_tree(g)
    core = vars(g)["tree_core"]
    assert solve_andor_tree(g) == first and vars(g)["tree_core"] is core


# ------------------------------------------------------------------- bounds

def test_schedule_and_source_takes_max():
    g = aog({"s": AND, "a": OR, "b": OR}, {("s", "a"): 2, ("s", "b"): 3})
    sched = schedule_lower_bound(g)
    assert sched.times["s"] == 3
    assert sched.times["a"] == 0 and sched.times["b"] == 0
    assert solve_exact_andor(g).optimum == 5


def test_schedule_or_source_takes_min():
    g = aog({"s": OR, "a": OR, "b": OR}, {("s", "a"): 2, ("s", "b"): 3})
    sched = schedule_lower_bound(g)
    assert sched.times["s"] == 2
    assert solve_exact_andor(g).optimum == 2


def test_schedule_single_vertex():
    assert schedule_lower_bound(aog({"s": OR}, {})).times == {"s": 0}


def test_schedule_recurrence_holds_everywhere():
    rng = Random(17)
    for trial in range(40):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 12), seed=trial, density=0.4))
        t = schedule_lower_bound(g).times
        for v in g.labels:
            opts = [w + t[h] for h, w in g.out_adj[v]]
            if not opts:
                assert t[v] == 0
            elif g.labels[v] == AND:
                assert t[v] == max(opts)
            else:
                assert t[v] == min(opts)


def test_dp_upper_equals_tree_solver_on_trees():
    for seed in range(15):
        g = gen_andor_tree(GeneratorConfig(n=14, seed=seed))
        up, tree = dp_upper_bound(g), solve_andor_tree(g)
        assert (up.optimum, up.witness) == (tree.optimum, tree.witness)


def test_dp_upper_diamond_true_weight():
    g = aog(
        {"s": AND, "a": OR, "b": OR, "t": OR},
        {("s", "a"): 1, ("s", "b"): 1, ("a", "t"): 1, ("b", "t"): 1},
    )
    res = dp_upper_bound(g)
    assert res.optimum == 4
    check_witness_andor(g, res)


def test_dp_upper_can_beat_its_own_recurrence():
    # or-vertices a and b both route to the same heavy shared chain; the
    # recurrence double-counts it, the materialized witness does not
    g = aog(
        {"s": AND, "a": OR, "b": OR, "c": AND, "t": OR},
        {("s", "a"): 1, ("s", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("c", "t"): 10},
    )
    res = dp_upper_bound(g)
    assert res.optimum == 14  # recurrence value would be 24
    check_witness_andor(g, res)


def test_dp_upper_single_vertex():
    assert dp_upper_bound(aog({"s": AND}, {})).optimum == 0


def test_dp_upper_witness_always_feasible():
    rng = Random(23)
    for trial in range(60):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 14), seed=trial, density=0.5))
        check_witness_andor(g, dp_upper_bound(g))


def test_sandwich_on_random_dags():
    rng = Random(4)
    for trial in range(120):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 12), seed=trial, density=0.35))
        lo = schedule_lower_bound(g).times[g.source]
        exact = solve_exact_andor(g)
        hi = dp_upper_bound(g)
        assert lo <= exact.optimum <= hi.optimum


# ------------------------------------------------------------- exact search

def test_exact_all_and_is_total_weight():
    for seed in range(8):
        g = gen_andor(GeneratorConfig(n=10, seed=seed, and_fraction=1.0, density=0.4))
        res = solve_exact_andor(g)
        assert res.optimum == g.total_weight()
        assert res.witness.edges == frozenset(g.edges)


def test_exact_all_or_is_shortest_path():
    for seed in range(12):
        g = gen_andor(GeneratorConfig(n=11, seed=seed, and_fraction=0.0, density=0.4))
        assert solve_exact_andor(g).optimum == oracles.dijkstra_to_sink(g)


def test_exact_matches_brute_force_andor():
    rng = Random(11)
    checked = 0
    for trial in range(140):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 8), seed=trial, density=0.4, weight_hi=7))
        if len(g.edges) > 13:
            continue  # keep the 2^m oracle affordable
        checked += 1
        res = solve_exact_andor(g)
        best, _ = oracles.brute_min_andor(g)
        assert res.optimum == best, f"trial {trial}"
        check_witness_andor(g, res)
    assert checked >= 100


def test_exact_matches_brute_force_xy():
    rng = Random(12)
    checked = 0
    for trial in range(140):
        g = gen_xy(GeneratorConfig(n=rng.randint(1, 8), seed=trial, density=0.4, weight_hi=7))
        if len(g.edges) > 13:
            continue
        checked += 1
        res = solve_exact_xy(g)
        best, _ = oracles.brute_min_xy(g)
        assert res.optimum == best, f"trial {trial}"
        check_witness_xy(g, res)
    assert checked >= 100


def test_exact_accepts_zero_weight_instances():
    rng = Random(13)
    for trial in range(50):
        g = gen_andor(
            GeneratorConfig(n=rng.randint(1, 7), seed=trial, weight_lo=0, weight_hi=3, density=0.5)
        )
        res = solve_exact_andor(g)
        best, _ = oracles.brute_min_andor(g)
        assert res.optimum == best
        check_witness_andor(g, res)


def test_exact_xy_agrees_with_andor_via_conversion():
    rng = Random(14)
    for trial in range(60):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 9), seed=trial, density=0.4))
        assert solve_exact_xy(andor_to_xy(g)).optimum == solve_exact_andor(g).optimum


def test_exact_on_trees_equals_tree_solver():
    for seed in range(20):
        g = gen_andor_tree(GeneratorConfig(n=13, seed=seed))
        assert solve_exact_andor(g).optimum == solve_andor_tree(g).optimum
        x = gen_xy_tree(GeneratorConfig(n=13, seed=seed))
        assert solve_exact_xy(x).optimum == solve_xy_tree(x).optimum


def test_exact_witness_is_deterministic():
    g = gen_andor(GeneratorConfig(n=12, seed=42, density=0.4))
    a = solve_exact_andor(g)
    b = solve_exact_andor(g)
    assert a.optimum == b.optimum and a.witness.edges == b.witness.edges
    # same graph built with reversed dict insertion order
    g2 = AndOrGraph(
        dict(reversed(list(g.labels.items()))),
        dict(reversed(list(g.edges.items()))),
        g.source,
    )
    c = solve_exact_andor(g2)
    assert c.witness.edges == a.witness.edges


def test_exact_stats_are_informational_but_sane():
    g = gen_andor(GeneratorConfig(n=10, seed=5, density=0.4))
    res = solve_exact_andor(g)
    nodes, prunes = res.stats
    assert nodes >= 1 and prunes >= 0


def test_exact_rejects_invalid():
    with pytest.raises(InvalidGraphError):
        solve_exact_andor(aog({"s": AND, "a": OR}, {("s", "a"): 1, ("a", "s"): 1}))
    with pytest.raises(InvalidGraphError):
        solve_exact_xy(xyg({"s": (2, 1), "a": (0, 0)}, {("s", "a"): 1}))
    for w in (2.5, True, "3"):
        with pytest.raises(InvalidGraphError, match="non-integer weight"):
            solve_exact_andor(aog({"s": AND, "a": OR}, {("s", "a"): w}))
        with pytest.raises(InvalidGraphError, match="non-integer weight"):
            solve_exact_xy(xyg({"s": (1, 1), "a": (0, 0)}, {("s", "a"): w}))
    with pytest.raises(InvalidGraphError, match="label \\['and'\\], expected 'and' or 'or'"):
        solve_exact_andor(aog({"s": ["and"], "a": OR}, {("s", "a"): 1}))
    for lab in ((True, 1), (1.0, 1)):
        with pytest.raises(InvalidGraphError, match="expected an \\(x, y\\) pair"):
            solve_exact_xy(xyg({"s": lab, "a": (0, 0)}, {("s", "a"): 1}))


@pytest.mark.parametrize("fn", [dp_upper_bound, schedule_lower_bound])
def test_bounds_reject_what_validation_rejects(fn):
    with pytest.raises(InvalidGraphError, match="vertex s has label 'xor'"):
        fn(aog({"s": "xor", "a": OR}, {("s", "a"): 2}))
    with pytest.raises(InvalidGraphError, match="non-integer weight"):
        fn(aog({"s": AND, "a": OR}, {("s", "a"): 2.5}))
    with pytest.raises(InvalidGraphError, match="label \\['and'\\], expected 'and' or 'or'"):
        fn(aog({"s": ["and"], "a": OR}, {("s", "a"): 1}))


@pytest.mark.parametrize("fn", [solve_exact_andor, solve_andor_tree, dp_upper_bound,
                                schedule_lower_bound, decide_min_andor])
def test_andor_entry_points_raise_the_andor_report_on_xy_graphs(fn):
    x = xyg({"s": (1, 1), "a": (0, 0)}, {("s", "a"): 1})
    report = validate_andor(x)
    assert not report.ok
    with pytest.raises(InvalidGraphError) as exc:
        fn(x, 1) if fn is decide_min_andor else fn(x)
    assert str(exc.value) == "; ".join(report.violations)


def _shared_sink_diamond():
    return aog(
        {"s": AND, "a": OR, "b": OR, "t": OR},
        {("s", "a"): 1, ("s", "b"): 1, ("a", "t"): 1, ("b", "t"): 1},
    )


def test_budget_zero_raises_when_search_is_needed():
    g = _shared_sink_diamond()  # bounds disagree (2 vs 4), so search must run
    with pytest.raises(BudgetExceededError):
        solve_exact_andor(g, budget_s=0)
    assert solve_exact_andor(g, budget_s=60).optimum == 4


def test_budget_zero_still_returns_when_bounds_close_the_gap():
    g = aog({"s": OR, "a": OR, "b": OR}, {("s", "a"): 2, ("s", "b"): 3})
    assert solve_exact_andor(g, budget_s=0).optimum == 2


def test_nan_budget_is_rejected_even_when_bounds_close_the_gap():
    # every deadline comparison with NaN is false: it would switch the budget off
    closed = aog({"s": OR, "a": OR, "b": OR}, {("s", "a"): 2, ("s", "b"): 3})
    for g in (closed, _shared_sink_diamond()):
        with pytest.raises(ValueError, match="got nan"):
            solve_exact_andor(g, budget_s=float("nan"))
    with pytest.raises(ValueError, match="got nan"):
        solve_exact_xy(xyg({"s": (1, 1), "a": (0, 0)}, {("s", "a"): 1}), budget_s=float("nan"))


def _hub(m, shared, own, tail=0):
    """An and-source over m or-vertices, each choosing between a shared
    and-vertex c (an edge of weight ``shared``, one of weight m // 2 below c)
    and a vertex of its own (weight ``own``, then a forced edge of weight
    ``tail`` to a sink when ``tail`` is set)."""
    labels = {"s": AND, "c": AND, "z": OR}
    edges = {("c", "z"): m // 2}
    for i in range(m):
        o, t, u = f"o{i:04d}", f"t{i:04d}", f"u{i:04d}"
        labels[o] = labels[t] = OR
        edges.update({("s", o): 1, (o, "c"): shared, (o, t): own})
        if tail:
            labels[u] = OR
            edges[(t, u)] = tail
    return aog(labels, edges)


def test_deep_search_runs_out_of_budget_not_of_stack():
    # each or-vertex's cheapest edge leads to a vertex with an obligation of
    # its own, so no choice is free: the search branches 1500 decisions deep
    g = _hub(1500, shared=3, own=2, tail=2)
    # a recursion limit 60 frames above this one: a search that recursed
    # per decision would overflow it within the first hundred nodes
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetExceededError):
            solve_exact_andor(g, budget_s=1)
    finally:
        sys.setrecursionlimit(old)
    assert time.perf_counter() - start < 1.5


def test_free_choices_settle_the_shared_hub():
    # once one or-vertex includes c, every other takes its weight-1 edge
    # into c without a frame: 1500 + 1500 + 750
    res = solve_exact_andor(_hub(1500, shared=1, own=2), budget_s=2)
    assert res.optimum == 3750
    assert res.nodes <= 2 * 1500 + 1


def test_packing_bound_settles_the_obligation_hub():
    # once one or-vertex includes c, the pending or-vertices' own vertices
    # are distinct heads, so the packing bound prices every completion and
    # prunes each sibling at once; without the bound the search ran out of a
    # 5 s budget from m = 30
    res = solve_exact_andor(_hub(100, shared=3, own=2, tail=2), budget_s=2)
    assert res.optimum == 450


def _disjoint_edges(m):
    names = [f"a{i:02d}" for i in range(2 * m)]
    return SimpleGraph.from_pairs(list(zip(names[::2], names[1::2])), names)


def test_packing_bound_proves_disjoint_gadgets_at_the_root():
    # over 6 disjoint edges the vertex-cover selectors pack as a matching and
    # the dominating-set choosers as 6 disjoint closed neighborhoods: the
    # root's bound meets the sharing-blind witness, which the search without
    # the bound proved optimal only after 127 nodes
    q = _disjoint_edges(6)
    for g, optimum in ((reduce_vertex_cover(q, 6).instance, 18),
                       (reduce_dominating_set(q, 6).instance, 6)):
        res = solve_exact_andor(g)
        assert (res.optimum, res.nodes) == (optimum, 1)
        check_witness_andor(g, res)


def test_exact_and_decisions_match_the_oracles_on_a_mixed_corpus():
    # and/or and x-y DAGs up to 9 vertices, zero weights included; the x-y
    # ones must hold vertices that take some but not all of several edges
    rng = Random(1818)
    checked = partial = 0
    for trial in range(320):
        zero = trial % 3 == 0
        cfg = GeneratorConfig(n=rng.randint(2, 9), seed=18_000 + trial, weight_lo=0 if zero else 1,
                              weight_hi=rng.choice((2, 5, 9)), density=rng.uniform(0.25, 0.6),
                              and_fraction=rng.random())
        xy = trial % 2 == 1
        g = gen_xy(cfg) if xy else gen_andor(cfg)
        if len(g.edges) > 13:
            continue  # keep the 2^m oracle affordable
        checked += 1
        kind = XYGraph if xy else AndOrGraph
        best, _ = (oracles.brute_min_xy if xy else oracles.brute_min_andor)(g)
        res = solvers._exact_min(g, kind, None)
        assert res.optimum == best, f"trial {trial}"
        (check_witness_xy if xy else check_witness_andor)(g, res)
        for k in (best - 1, best):
            capped = solvers._exact_min(fresh(g), kind, None, cap=k + 1)
            assert (capped.optimum <= k) == (best <= k), f"trial {trial}, k {k}"
            if not xy:
                assert decide_min_andor(fresh(g), k) == (best <= k)
        partial += xy and any(1 < x < y for x, y in g.labels.values())
    assert checked >= 200 and partial >= 20


def test_exact_tie_goes_to_the_free_choice():
    # a's edges into the shared c and into the sink d both weigh 1; b, g and
    # h share c, which the sharing-blind witness misses (it weighs 11)
    labels = {"s": AND, "a": OR, "b": OR, "g": OR, "h": OR, "c": AND,
              "k": OR, "d": OR, "e": OR, "f": OR, "i": OR}
    edges = {("s", v): 1 for v in "abgh"}
    edges.update({("c", "k"): 2, ("a", "c"): 1, ("a", "d"): 1})
    for v, own in zip("bgh", "efi"):
        edges.update({(v, "c"): 1, (v, own): 2})
    g = aog(labels, edges)
    res = solve_exact_andor(g)
    assert res.optimum == oracles.brute_min_andor(g)[0] == 10
    # two optima differ only in a's edge: a takes its cheapest edge into the
    # sink d as if forced, though a->c comes first in edge-id order
    assert ("a", "d") in res.witness.edges
    other = res.witness.edges - {("a", "d")} | {("a", "c")}
    assert oracles.feasible_andor(g, other) and sum(g.edges[e] for e in other) == 10


def test_overflow_reported_on_doubling_dag():
    # chain of diamonds: the dp recurrence doubles per level and must
    # overflow the declared sum cap long before 70 levels
    labels = {"s": AND}
    edges = {}
    prev = "s"
    for i in range(70):
        a, b, nxt = f"a{i:02d}", f"b{i:02d}", f"m{i:02d}"
        labels[a] = AND
        labels[b] = AND
        labels[nxt] = AND
        edges[(prev, a)] = 1
        edges[(prev, b)] = 1
        edges[(a, nxt)] = 1
        edges[(b, nxt)] = 1
        prev = nxt
    g = AndOrGraph(labels, edges, "s")
    with pytest.raises(OverflowError, match="weight sum exceeds"):
        dp_upper_bound(g)
    with pytest.raises(OverflowError):
        solve_exact_andor(g)


# decide_min_andor's node counts on the YES decisions of test_decisions_use_k
# when its search kept going past the first solution of weight <= k
SEARCH_ON_YES_NODES = 1453
SEARCH_ON_NODES = {(69, 112): 26, (230, 179): 32, (230, 180): 32, (287, 36): 52}


def test_decisions_use_k(monkeypatch):
    # decide_min_andor and decide_kernel answer as the optimum does, and
    # their searches, pruned at k and stopped at the first solution of
    # weight <= k, never visit more nodes than a full solve
    nodes = []
    yes_nodes = 0
    real = solvers._exact_min

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        nodes.append(res.nodes)
        return res

    monkeypatch.setattr(solvers, "_exact_min", counted)
    rng = Random(303)
    fewer = 0
    for trial in range(300):
        g = gen_andor(GeneratorConfig(n=rng.randint(2, 14), seed=9000 + trial,
                                      density=rng.uniform(0.2, 0.6),
                                      and_fraction=rng.random()))
        full = solve_exact_andor(g)
        for k in (full.optimum - 1, full.optimum, full.optimum + 1):
            nodes.clear()
            assert decide_min_andor(g, k) == (full.optimum <= k)
            assert len(nodes) == 1 and nodes[0] <= full.nodes
            fewer += nodes[0] < full.nodes
            if full.optimum <= k:
                yes_nodes += nodes[0]
            if (trial, k) in SEARCH_ON_NODES:
                assert nodes[0] < SEARCH_ON_NODES[trial, k]
            if k < 0:
                continue
            kr = kernelize(g, k)
            nodes.clear()
            assert decide_kernel(kr) == (full.optimum <= k)
            if kr.reduced is not None:
                assert nodes[0] <= solve_exact_andor(kr.reduced).nodes
    assert fewer > 0  # k cut some searches short
    assert yes_nodes < SEARCH_ON_YES_NODES


def test_decide_min_andor_thresholds():
    g = gen_andor(GeneratorConfig(n=9, seed=2, and_fraction=1.0, density=0.3))
    total = g.total_weight()
    assert decide_min_andor(g, total)
    assert not decide_min_andor(g, total - 1)
    assert decide_min_andor(g, total + 5)


# ------------------------------------------------- exact-weight decision

def ss_gadget(z, p, q):
    from andorxy import SubsetSumInstance, reduce_subset_sum

    return reduce_subset_sum(SubsetSumInstance(tuple(z), p, q))


def test_exact_weight_subset_sum_gadgets():
    art = ss_gadget([2, 3, 5], 2, 8)
    exists, witness = decide_exact_weight_xy_tree(art.instance, art.threshold)
    assert exists
    feasible, weight, _ = verify_solution_xy(art.instance, witness)
    assert feasible and weight == art.threshold

    art2 = ss_gadget([2, 4], 1, 3)
    exists2, witness2 = decide_exact_weight_xy_tree(art2.instance, art2.threshold)
    assert not exists2 and witness2 is None


def test_exact_weight_zero_on_zero_demand_source():
    g = xyg({"s": (0, 0)}, {})
    exists, witness = decide_exact_weight_xy_tree(g, 0)
    assert exists and witness.edges == frozenset()
    assert not decide_exact_weight_xy_tree(g, 1)[0]


def test_exact_weight_matches_brute_enumeration():
    rng = Random(77)
    for trial in range(60):
        g = gen_xy_tree(GeneratorConfig(n=rng.randint(1, 9), seed=trial, weight_hi=5))
        achievable = oracles.brute_weights_xy(g)
        top = max(achievable) if achievable else 0
        for k in range(min(top + 3, 50) + 1):
            exists, witness = decide_exact_weight_xy_tree(g, k)
            assert exists == (k in achievable), f"trial {trial} k {k}"
            if exists:
                feasible, weight, _ = verify_solution_xy(g, witness)
                assert feasible and weight == k
            else:
                assert witness is None


def test_exact_weight_input_checks():
    g = xyg({"s": (0, 0)}, {})
    with pytest.raises(ValueError, match="k must be nonnegative"):
        decide_exact_weight_xy_tree(g, -1)
    z = xyg({"s": (1, 1), "a": (0, 0)}, {("s", "a"): 0}, zero=True)
    with pytest.raises(InvalidGraphError, match="positive edge weights"):
        decide_exact_weight_xy_tree(z, 0)
    diamond = andor_to_xy(_shared_sink_diamond())
    with pytest.raises(InvalidGraphError, match="not an out-tree"):
        decide_exact_weight_xy_tree(diamond, 3)
    for lab in ((True, 1), (1.0, 1)):
        with pytest.raises(InvalidGraphError, match="expected an \\(x, y\\) pair"):
            decide_exact_weight_xy_tree(xyg({"s": lab, "a": (0, 0)}, {("s", "a"): 1}), 1)


def test_exact_weight_near_and_above_the_total_weight(monkeypatch):
    rng = Random(78)
    for trial in range(40):
        g = gen_xy_tree(GeneratorConfig(n=rng.randint(1, 9), seed=trial, weight_hi=5))
        achievable = oracles.brute_weights_xy(g)
        total = g.total_weight()
        for k in range(max(0, total - 2), total + 3):
            assert decide_exact_weight_xy_tree(g, k)[0] == (k in achievable), f"trial {trial} k {k}"

    def no_bitset(m):
        raise AssertionError("the weight bitset was built")

    # above the total the answer is NO before any weight-k bitset exists
    monkeypatch.setattr(solvers, "_bit_positions", no_bitset)
    g = gen_xy_tree(GeneratorConfig(n=40, seed=1))
    for k in (g.total_weight() + 1, 2**62):
        assert decide_exact_weight_xy_tree(g, k) == (False, None)


def test_exact_weight_prefers_some_witness_for_every_achievable_weight():
    g = xyg(
        {"s": (1, 2), "a": (1, 1), "b": (0, 0), "c": (0, 0)},
        {("s", "a"): 2, ("s", "b"): 3, ("a", "c"): 1},
    )
    for k, expect in [(3, True), (2, False), (0, False), (7, False)]:
        exists, _ = decide_exact_weight_xy_tree(g, k)
        assert exists == expect


def test_bit_positions_ascend():
    for m in (0, 1, 2, 5, 6, 2**100 + 3, 12345678901234567890):
        assert solvers._bit_positions(m) == [i for i in range(m.bit_length()) if m >> i & 1]


@pytest.mark.parametrize("base", [10**5, 10**6])
def test_exact_weight_with_heavy_weights_is_fast(base):
    # a 3-3 source over three sinks: every weight set spans about 3 * base bits
    weights = (base + 1, base + 7, base + 19)
    g = xyg({"s": (3, 3), "a": (0, 0), "b": (0, 0), "c": (0, 0)},
            dict(zip([("s", "a"), ("s", "b"), ("s", "c")], weights)))
    achievable = oracles.brute_weights_xy(g)
    start = time.perf_counter()
    for k in (sum(weights), sum(weights) - 1, base + 7):
        exists, witness = decide_exact_weight_xy_tree(g, k)
        assert exists == (k in achievable)
        if exists:
            assert verify_solution_xy(g, witness)[:2] == (True, k)
    assert time.perf_counter() - start < 1.0

