"""End-to-end acceptance checks, one test per numbered criterion.

Each test drives public API only, compares against the independent brute
force oracles, times itself, and prints a one-line summary (visible with
``pytest -v -s``).  Criterion 10 consumes the registry filled by the others:
every instance built here is pushed through serialize/parse on the spot and
failures are tallied for the final verdict.
"""

import random
import time
from itertools import combinations

import pytest

import oracles
from andorxy import (
    AndOrGraph,
    GeneratorConfig,
    SimpleGraph,
    SubsetSumInstance,
    andor_to_xy,
    decide_exact_weight_xy_tree,
    decide_kernel,
    decide_min_andor,
    dp_upper_bound,
    gen_andor,
    gen_andor_tree,
    gen_xy,
    gen_xy_tree,
    is_in_family_F,
    kernelize,
    parse_graph,
    reduce_clique,
    reduce_dominating_set,
    reduce_subset_sum,
    reduce_vertex_cover,
    schedule_lower_bound,
    serialize_graph,
    solve_andor_tree,
    solve_exact_andor,
    solve_exact_xy,
    solve_xy_tree,
    verify_solution_andor,
    verify_solution_xy,
)

_RT = {"count": 0, "failures": []}


def register(g):
    """Round-trip an instance through the text format; criterion 10 tallies."""
    text = serialize_graph(g)
    back = parse_graph(text)
    if back != g or serialize_graph(back) != text:
        _RT["failures"].append(text.splitlines()[:3])
    _RT["count"] += 1
    return g


def _finish(tag, detail, t0, budget=None):
    dt = time.monotonic() - t0
    if budget is not None:
        assert dt < budget, f"{tag} took {dt:.1f}s, ceiling is {budget}s"
    print(f"PASS {tag}: {detail} ({dt:.1f}s)")


@pytest.mark.slow
def test_c01_vertex_cover_gadget_equivalence():
    t0 = time.monotonic()

    def check(names, pairs):
        sg = SimpleGraph.from_pairs(pairs, extra_vertices=names)
        art = reduce_vertex_cover(sg, 0)
        res = solve_exact_andor(art.instance)
        tau = oracles.vertex_cover_number(names, pairs)
        assert res.optimum == 2 * len(pairs) + tau
        assert is_in_family_F(art.instance)
        rep = verify_solution_andor(art.instance, res.witness)
        assert rep.feasible and rep.weight == res.optimum
        register(art.instance)

    exhaustive = 0
    for n in range(1, 7):
        for names, pairs in oracles.connected_graphs(n):
            check(names, pairs)
            exhaustive += 1
    assert exhaustive == 27476

    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 10)
        check(*oracles.random_simple_graph(rng, n, p=rng.uniform(0.15, 0.7)))

    _finish("C1", f"{exhaustive} exhaustive + 200 random graphs: "
            "cover gadget optimum is 2m + tau, every gadget in family F", t0, 300)


def test_c02_subset_sum_gadget_equivalence():
    t0 = time.monotonic()
    rng = random.Random(202)

    zsets = [(2, 3, 5), (2, 4), (7,)]
    for size in range(1, 11):
        for _ in range(4):
            zsets.append(tuple(rng.randint(1, 20) for _ in range(size)))
        # duplicate-heavy values stress tie handling in the weight DP
        zsets.append(tuple(rng.choice((2, 3, 5)) for _ in range(size)))

    decisions = 0
    for z in zsets:
        total = sum(z)
        for p in range(1, len(z) + 1):
            achievable = {sum(c) for c in combinations(z, p)}
            probes = set(achievable)
            probes.update({0, 1, min(achievable) - 1, max(achievable) + 1, total + 1})
            probes.update(rng.randint(0, total + 2) for _ in range(4))
            for q in sorted(x for x in probes if x >= 0):
                art = reduce_subset_sum(SubsetSumInstance(z, p, q))
                ok, wit = decide_exact_weight_xy_tree(art.instance, art.threshold)
                assert ok == oracles.subset_sum_exists(z, p, q)
                assert ok == (q in achievable)
                if ok:
                    rep = verify_solution_xy(art.instance, wit)
                    assert rep.feasible and rep.weight == q + p
                register(art.instance)
                decisions += 1

    _finish("C2", f"{decisions} exact-weight decisions across {len(zsets)} value sets "
            "match brute-force subset existence", t0, 60)


def test_c03_dominating_set_gadget_equivalence():
    t0 = time.monotonic()
    rng = random.Random(303)
    for _ in range(300):
        n = rng.randint(1, 7)
        names, pairs = oracles.random_simple_graph(rng, n, p=rng.uniform(0.1, 0.8))
        sg = SimpleGraph.from_pairs(pairs, extra_vertices=names)
        c = rng.randint(0, n)
        art = reduce_dominating_set(sg, c)
        res = solve_exact_andor(art.instance)
        gamma = oracles.domination_number(names, pairs)
        assert res.optimum == gamma
        assert (res.optimum <= art.threshold) == (gamma <= c)
        register(art.instance)
    _finish("C3", "300 random graphs on <= 7 vertices: "
            "domination gadget optimum equals the domination number", t0, 300)


def test_c04_clique_gadget_equivalence():
    t0 = time.monotonic()
    rng = random.Random(404)
    decisions = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        names, pairs = oracles.random_simple_graph(rng, n, p=rng.uniform(0.2, 0.9))
        sg = SimpleGraph.from_pairs(pairs, extra_vertices=names)
        for c in range(2, 6):
            if c > n:
                continue
            art = reduce_clique(sg, c)
            assert len(art.instance.labels) == 4 * n + 1
            assert art.threshold == c * c + 3 * c
            res = solve_exact_xy(art.instance)
            assert (res.optimum <= art.threshold) == oracles.has_clique(names, pairs, c)
            register(art.instance)
            decisions += 1
    _finish("C4", f"300 random graphs, {decisions} (graph, c) decisions: "
            "clique gadget optimum clears c^2+3c exactly when a c-clique exists, "
            "gadgets have 4n+1 vertices", t0, 600)


def test_c05_kernel_preserves_decisions():
    t0 = time.monotonic()
    rng = random.Random(505)
    for i in range(500):
        cfg = GeneratorConfig(n=rng.randint(1, 14), seed=5000 + i,
                              weight_hi=rng.choice([3, 4, 8]),
                              and_fraction=rng.random(),
                              density=rng.uniform(0.05, 0.5))
        g = gen_andor(cfg)
        k = rng.randint(0, 6)
        kr = kernelize(g, k)
        assert decide_kernel(kr) == decide_min_andor(g, k)
        register(g)
        if kr.reduced is not None:
            register(kr.reduced)
    _finish("C5", "500 seeded instances (n <= 14, k <= 6): "
            "kernel decision equals the direct decision", t0, 300)


def test_c06_trivial_families_closed_forms():
    t0 = time.monotonic()
    for i in range(200):
        cfg = GeneratorConfig(n=1 + i % 30, seed=6000 + i, and_fraction=1.0,
                              density=0.2 + (i % 5) / 10)
        g = gen_andor(cfg)
        assert solve_exact_andor(g).optimum == g.total_weight()
        register(g)
    for i in range(200):
        cfg = GeneratorConfig(n=1 + i % 30, seed=6500 + i, and_fraction=0.0,
                              density=0.2 + (i % 5) / 10)
        g = gen_andor(cfg)
        assert solve_exact_andor(g).optimum == oracles.dijkstra_to_sink(g)
        register(g)
    _finish("C6", "200 all-and optima equal the total weight, "
            "200 all-or optima equal the shortest source-to-sink distance", t0)


def test_c07_bound_sandwich():
    t0 = time.monotonic()
    rng = random.Random(707)
    for i in range(500):
        cfg = GeneratorConfig(n=rng.randint(1, 15), seed=7000 + i,
                              weight_lo=rng.choice([1, 1, 2]),
                              weight_hi=rng.randint(2, 9),
                              and_fraction=rng.random(),
                              density=rng.uniform(0.05, 0.6))
        g = gen_andor(cfg)
        lo = schedule_lower_bound(g).times[g.source]
        hi = dp_upper_bound(g)
        opt = solve_exact_andor(g).optimum
        assert lo <= opt <= hi.optimum
        rep = verify_solution_andor(g, hi.witness)
        assert rep.feasible and rep.weight == hi.optimum
        register(g)
    _finish("C7", "500 random instances (n <= 15): "
            "schedule bound <= optimum <= dp witness weight", t0)


@pytest.mark.slow
def test_c08_tree_solvers_match_exact_and_scale():
    t0 = time.monotonic()
    rng = random.Random(808)
    for i in range(500):
        n = rng.randint(1, 20)
        if i % 2 == 0:
            g = gen_andor_tree(GeneratorConfig(n=n, seed=8000 + i,
                                               and_fraction=rng.random()))
            fast, exact = solve_andor_tree(g), solve_exact_andor(g)
        else:
            g = gen_xy_tree(GeneratorConfig(n=n, seed=8000 + i))
            fast, exact = solve_xy_tree(g), solve_exact_xy(g)
        assert fast.optimum == exact.optimum
        register(g)

    big = gen_andor_tree(GeneratorConfig(n=10 ** 6, seed=123))
    t1 = time.perf_counter()
    res = solve_andor_tree(big)
    dt_andor = time.perf_counter() - t1
    assert dt_andor < 5.0, f"million-vertex and/or tree took {dt_andor:.2f}s"
    rep = verify_solution_andor(big, res.witness)
    assert rep.feasible and rep.weight == res.optimum
    register(big)
    del big, res, rep

    bigx = gen_xy_tree(GeneratorConfig(n=10 ** 6, seed=456))
    t1 = time.perf_counter()
    resx = solve_xy_tree(bigx)
    dt_xy = time.perf_counter() - t1
    assert dt_xy < 5.0, f"million-vertex x-y tree took {dt_xy:.2f}s"
    repx = verify_solution_xy(bigx, resx.witness)
    assert repx.feasible and repx.weight == resx.optimum
    register(bigx)

    _finish("C8", "500 trees agree with the exact solver; n=10^6 solved in "
            f"{dt_andor:.2f}s (and/or) and {dt_xy:.2f}s (x-y)", t0)


def test_c09_conversion_preserves_optimum():
    t0 = time.monotonic()
    counts = []
    pairs = 0
    for n in range(1, 6):
        structures = list(oracles.dag_structures(n))
        counts.append(len(structures))
        for names, edges in structures:
            ordered = sorted(edges)
            for mask in range(2 ** n):
                labels = {names[i]: ("and" if mask >> i & 1 else "or")
                          for i in range(n)}
                for off in (0, 1):
                    w = {e: 1 + (j + off) % 2 for j, e in enumerate(ordered)}
                    g = AndOrGraph(labels, w, names[0])
                    x = andor_to_xy(g)
                    a = solve_exact_andor(g)
                    b = solve_exact_xy(x)
                    assert a.optimum == b.optimum
                    # the x-y witness must stay feasible on the and/or side
                    rep = verify_solution_andor(g, b.witness)
                    assert rep.feasible and rep.weight == a.optimum
                    register(g)
                    register(x)
                    pairs += 1
    assert counts == [1, 1, 3, 21, 315]

    rng = random.Random(909)
    for i in range(200):
        cfg = GeneratorConfig(n=rng.randint(1, 10), seed=9000 + i,
                              weight_lo=rng.choice([0, 1]),
                              weight_hi=rng.randint(3, 9),
                              and_fraction=rng.random(),
                              density=rng.uniform(0.1, 0.6))
        g = gen_andor(cfg)
        assert solve_exact_xy(andor_to_xy(g)).optimum == solve_exact_andor(g).optimum
        register(g)
    _finish("C9", f"{pairs} exhaustive labeled DAGs (<= 5 vertices) + 200 random: "
            "conversion preserves the optimum", t0)


def test_c10_round_trip_and_seed_determinism():
    t0 = time.monotonic()
    texts = set()
    for fn in (gen_andor, gen_andor_tree, gen_xy, gen_xy_tree):
        for seed in range(25):
            cfg = GeneratorConfig(n=18, seed=seed, weight_lo=seed % 2, weight_hi=6,
                                  and_fraction=(seed % 5) / 4, density=0.3)
            a = fn(cfg)
            b = fn(cfg)
            sa = serialize_graph(a)
            assert a == b and sa == serialize_graph(b)
            assert parse_graph(sa) == a
            register(a)
            texts.add(sa)
    assert len(texts) > 50

    assert not _RT["failures"], _RT["failures"][:3]
    assert _RT["count"] >= 100
    _finish("C10", f"{_RT['count']} instances round-tripped bit-exactly, "
            "seeded generation is byte-stable", t0)
