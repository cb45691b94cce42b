"""Hardness gadgets: constructions, thresholds, and certificate extraction."""

import itertools
import re
from random import Random

import pytest

import oracles
from andorxy import (
    SimpleGraph,
    SolutionSubgraph,
    SubsetSumInstance,
    decide_exact_weight_xy_tree,
    extract_clique,
    extract_dominating_set,
    extract_subset,
    extract_vertex_cover,
    is_in_family_F,
    is_xy_tree,
    parse_simple_graph,
    parse_subset_sum,
    reduce_clique,
    reduce_dominating_set,
    reduce_subset_sum,
    reduce_vertex_cover,
    serialize_mapping,
    serialize_simple_graph,
    solve_exact_andor,
    solve_exact_xy,
    validate_andor,
    validate_xy,
)

K3 = SimpleGraph.from_pairs([("a", "b"), ("a", "c"), ("b", "c")])
K4 = SimpleGraph.from_pairs([(u, v) for u, v in itertools.combinations("abcd", 2)])
PATH3 = SimpleGraph.from_pairs([("a", "b"), ("b", "c")])


def covers(g: SimpleGraph, cand) -> bool:
    return all(e & set(cand) for e in g.edges)


def dominates(g: SimpleGraph, cand) -> bool:
    cand = set(cand)
    return all(v in cand or any(g.adjacent(v, u) for u in cand) for v in g.vertices)


def is_clique(g: SimpleGraph, cand) -> bool:
    return all(g.adjacent(u, v) for u, v in itertools.combinations(sorted(cand), 2))


# ---------------------------------------------------------------- SimpleGraph

def test_simple_graph_construction_rules():
    with pytest.raises(ValueError, match="two distinct vertices"):
        SimpleGraph(frozenset({"a"}), frozenset({frozenset({"a"})}))
    with pytest.raises(ValueError, match="undeclared vertex"):
        SimpleGraph(frozenset({"a"}), frozenset({frozenset({"a", "b"})}))
    g = SimpleGraph.from_pairs([("a", "b")], extra_vertices=["z"])
    assert g.vertices == frozenset({"a", "b", "z"})
    assert g.degree("a") == 1 and g.degree("z") == 0
    assert g.adjacent("b", "a") and not g.adjacent("a", "z")


def test_subset_sum_instance_rules():
    SubsetSumInstance((5,), 1, 0)
    with pytest.raises(ValueError, match="positive integers"):
        SubsetSumInstance((0, 2), 1, 3)
    with pytest.raises(ValueError, match="p must be"):
        SubsetSumInstance((1, 2), 0, 3)
    with pytest.raises(ValueError, match="q must be"):
        SubsetSumInstance((1, 2), 1, -1)
    with pytest.raises(ValueError, match="exceeds the number of values"):
        SubsetSumInstance((1, 2), 3, 3)


# --------------------------------------------------------------- vertex cover

def test_vc_k3_shape_and_threshold():
    art = reduce_vertex_cover(K3, 2)
    assert art.threshold == 8
    assert len(art.instance.labels) == 10  # 1 + m + 2n = 1 + 3 + 6
    assert art.kind == "vc"
    assert validate_andor(art.instance).ok
    assert is_in_family_F(art.instance)
    assert solve_exact_andor(art.instance).optimum == 8


def test_vc_gadget_vertex_count_formula():
    rng = Random(3)
    for trial in range(25):
        verts, pairs = oracles.random_simple_graph(rng, rng.randint(2, 8))
        g = SimpleGraph.from_pairs(pairs, verts)
        covered = {v for e in g.edges for v in e}
        art = reduce_vertex_cover(g, 0)
        assert len(art.instance.labels) == 1 + len(g.edges) + 2 * len(covered)
        assert is_in_family_F(art.instance)


def test_vc_edgeless_graph_gives_bare_source():
    art = reduce_vertex_cover(SimpleGraph.from_pairs([], "abc"), 0)
    assert art.threshold == 0
    assert len(art.instance.labels) == 1
    assert solve_exact_andor(art.instance).optimum == 0


def test_vc_single_edge_optimum_three():
    art = reduce_vertex_cover(SimpleGraph.from_pairs([("a", "b")]), 1)
    assert art.threshold == 3
    res = solve_exact_andor(art.instance)
    assert res.optimum == 3
    cover = extract_vertex_cover(art, res.witness)
    assert len(cover) == 1 and covers(SimpleGraph.from_pairs([("a", "b")]), cover)


def test_vc_extract_k3_two_cover():
    art = reduce_vertex_cover(K3, 2)
    res = solve_exact_andor(art.instance)
    cover = extract_vertex_cover(art, res.witness)
    assert len(cover) == 2 and covers(K3, cover)


def test_vc_extract_path_center():
    art = reduce_vertex_cover(PATH3, 1)
    res = solve_exact_andor(art.instance)
    assert res.optimum == 2 * 2 + 1
    assert extract_vertex_cover(art, res.witness) == {"b"}


def test_vc_extract_rejects_bad_witnesses():
    art = reduce_vertex_cover(K3, 2)
    with pytest.raises(ValueError, match="infeasible"):
        extract_vertex_cover(art, SolutionSubgraph(frozenset({("s", "we_0")})))
    # a feasible witness that pays for all three endpoint gates busts 2m + k
    # when k = 0
    tight = reduce_vertex_cover(K3, 0)
    res = solve_exact_andor(tight.instance)
    assert res.optimum == 8 > tight.threshold
    with pytest.raises(ValueError, match="exceeds threshold"):
        extract_vertex_cover(tight, res.witness)


def test_vc_optimum_formula_small_random():
    rng = Random(9)
    for trial in range(30):
        verts, pairs = oracles.random_simple_graph(rng, rng.randint(1, 6))
        g = SimpleGraph.from_pairs(pairs, verts)
        art = reduce_vertex_cover(g, 0)
        tau = oracles.vertex_cover_number(verts, pairs)
        assert solve_exact_andor(art.instance).optimum == 2 * len(pairs) + tau
        # the decision form holds for every k as well
        for k in range(len(verts) + 1):
            artk = reduce_vertex_cover(g, k)
            yes = solve_exact_andor(artk.instance).optimum <= artk.threshold
            assert yes == (tau <= k)


# ----------------------------------------------------------------- subset sum

def test_ss_gadget_shape():
    art = reduce_subset_sum(SubsetSumInstance((2, 3, 5), 2, 8))
    assert art.threshold == 10
    assert validate_xy(art.instance).ok
    assert is_xy_tree(art.instance)
    assert art.instance.labels["s"] == (2, 3)
    assert art.instance.edges[("s", "u_0")] == 1
    assert art.instance.edges[("u_1", "w_1")] == 3
    assert art.kind == "ss"


def test_ss_decisions_on_hand_instances():
    yes = reduce_subset_sum(SubsetSumInstance((2, 3, 5), 2, 8))
    exists, witness = decide_exact_weight_xy_tree(yes.instance, yes.threshold)
    assert exists
    assert extract_subset(yes, witness) == {1, 2}  # values 3 and 5

    no = reduce_subset_sum(SubsetSumInstance((2, 4), 1, 3))
    assert no.threshold == 4
    assert not decide_exact_weight_xy_tree(no.instance, no.threshold)[0]

    single = reduce_subset_sum(SubsetSumInstance((7,), 1, 7))
    assert single.threshold == 8
    exists, witness = decide_exact_weight_xy_tree(single.instance, single.threshold)
    assert exists and extract_subset(single, witness) == {0}


def test_ss_extract_properties():
    inst = SubsetSumInstance((4, 1, 4, 6), 2, 10)
    art = reduce_subset_sum(inst)
    exists, witness = decide_exact_weight_xy_tree(art.instance, art.threshold)
    assert exists
    idxs = extract_subset(art, witness)
    assert len(idxs) == inst.p
    assert sum(inst.z[i] for i in idxs) == inst.q


def test_ss_extract_rejects_wrong_weight():
    art = reduce_subset_sum(SubsetSumInstance((2, 3, 5), 2, 8))
    # feasible but selects values 2 and 3: weight 2 + 5 + 2 + 3 = 9 != 10
    h = SolutionSubgraph(frozenset({
        ("s", "u_0"), ("u_0", "w_0"), ("s", "u_1"), ("u_1", "w_1"),
    }))
    with pytest.raises(ValueError, match="differs from required weight"):
        extract_subset(art, h)
    with pytest.raises(ValueError, match="infeasible"):
        extract_subset(art, SolutionSubgraph(frozenset({("s", "u_0")})))


def test_ss_matches_brute_force_oracle():
    rng = Random(21)
    for trial in range(80):
        size = rng.randint(1, 6)
        z = tuple(rng.randint(1, 12) for _ in range(size))
        p = rng.randint(1, size)
        q = rng.randint(0, sum(z))
        art = reduce_subset_sum(SubsetSumInstance(z, p, q))
        got = decide_exact_weight_xy_tree(art.instance, art.threshold)[0]
        assert got == oracles.subset_sum_exists(z, p, q), (z, p, q)


# ------------------------------------------------------------- dominating set

def test_ds_star_gadget():
    star = SimpleGraph.from_pairs([("c", "l1"), ("c", "l2"), ("c", "l3")])
    art = reduce_dominating_set(star, 1)
    assert art.threshold == 1
    assert art.instance.zero_weights_allowed
    assert validate_andor(art.instance).ok
    res = solve_exact_andor(art.instance)
    assert res.optimum == 1
    assert extract_dominating_set(art, res.witness) == {"c"}


def test_ds_triangle_singleton():
    art = reduce_dominating_set(K3, 1)
    res = solve_exact_andor(art.instance)
    assert res.optimum == 1
    ds = extract_dominating_set(art, res.witness)
    assert len(ds) == 1 and dominates(K3, ds)


def test_ds_edgeless_needs_everyone():
    g = SimpleGraph.from_pairs([], "abc")
    art = reduce_dominating_set(g, 3)
    res = solve_exact_andor(art.instance)
    assert res.optimum == 3
    assert extract_dominating_set(art, res.witness) == {"a", "b", "c"}


def test_ds_rejects_negative_budget():
    with pytest.raises(ValueError, match="c must be nonnegative"):
        reduce_dominating_set(K3, -1)


def test_ds_rejects_c_above_the_vertex_count():
    assert reduce_dominating_set(K3, 3).threshold == 3
    with pytest.raises(ValueError, match="c = 4 exceeds the number of vertices 3"):
        reduce_dominating_set(K3, 4)
    with pytest.raises(ValueError, match="exceeds the number of vertices"):
        reduce_dominating_set(K3, 10**20)


def test_ds_extract_rejects_overweight():
    art = reduce_dominating_set(PATH3, 0)
    res = solve_exact_andor(art.instance)
    assert res.optimum == 1 > art.threshold
    with pytest.raises(ValueError, match="exceeds threshold"):
        extract_dominating_set(art, res.witness)


def test_ds_optimum_is_domination_number():
    rng = Random(33)
    for trial in range(40):
        verts, pairs = oracles.random_simple_graph(rng, rng.randint(1, 6))
        g = SimpleGraph.from_pairs(pairs, verts)
        art = reduce_dominating_set(g, 0)
        gamma = oracles.domination_number(verts, pairs)
        res = solve_exact_andor(art.instance)
        assert res.optimum == gamma, (verts, pairs)
        art2 = reduce_dominating_set(g, gamma)
        ds = extract_dominating_set(art2, solve_exact_andor(art2.instance).witness)
        assert dominates(g, ds) and len(ds) <= gamma


# -------------------------------------------------------------------- clique

def test_clique_k3_gadget():
    art = reduce_clique(K3, 3)
    assert art.threshold == 18
    assert len(art.instance.labels) == 4 * 3 + 1
    assert validate_xy(art.instance).ok
    res = solve_exact_xy(art.instance)
    assert res.optimum == 18
    assert extract_clique(art, res.witness) == {"a", "b", "c"}


def test_clique_path_has_no_triangle():
    art = reduce_clique(PATH3, 3)
    assert solve_exact_xy(art.instance).optimum > 18


def test_clique_k4_contains_triangle():
    art = reduce_clique(K4, 3)
    res = solve_exact_xy(art.instance)
    assert res.optimum == 18
    got = extract_clique(art, res.witness)
    assert len(got) == 3 and is_clique(K4, got)


def test_clique_unique_witness_is_recovered():
    # the only triangle is a-b-c; d hangs off a
    g = SimpleGraph.from_pairs([("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")])
    art = reduce_clique(g, 3)
    res = solve_exact_xy(art.instance)
    assert res.optimum == art.threshold
    assert extract_clique(art, res.witness) == {"a", "b", "c"}


def test_clique_low_degree_candidates_carry_penalty():
    # degree(d) = 0 < c - 1, so its selector edge is unaffordable; degree
    # exactly c - 1 keeps the unit selector
    g = SimpleGraph.from_pairs([("a", "b")], extra_vertices=["d"])
    art = reduce_clique(g, 2)
    inst = art.instance
    names = sorted(g.vertices)  # a, b, d
    penalty = 2 * 2 + 3 * 2 + 1
    assert inst.edges[("s", "u_0")] == 1  # a, degree 1 = c - 1
    assert inst.edges[("s", "u_2")] == penalty  # d, degree 0
    assert inst.labels["z_0"] == (1, 1)
    assert inst.labels["z_2"] == (0, 0)
    assert names[2] == "d"
    res = solve_exact_xy(inst)
    assert res.optimum == art.threshold  # the edge a-b is a 2-clique
    assert extract_clique(art, res.witness) == {"a", "b"}


def test_clique_c_equals_one():
    g = SimpleGraph.from_pairs([], "ab")
    art = reduce_clique(g, 1)
    res = solve_exact_xy(art.instance)
    assert res.optimum <= art.threshold  # any single vertex is a 1-clique
    assert len(extract_clique(art, res.witness)) == 1


def test_clique_c_bounds():
    with pytest.raises(ValueError, match="c must be between"):
        reduce_clique(K3, 0)
    with pytest.raises(ValueError, match="c must be between"):
        reduce_clique(K3, 4)


def test_clique_threshold_decides_existence():
    rng = Random(44)
    for trial in range(30):
        verts, pairs = oracles.random_simple_graph(rng, rng.randint(2, 6))
        g = SimpleGraph.from_pairs(pairs, verts)
        for c in range(2, min(5, len(verts)) + 1):
            art = reduce_clique(g, c)
            assert len(art.instance.labels) == 4 * len(verts) + 1
            yes = solve_exact_xy(art.instance).optimum <= art.threshold
            assert yes == oracles.has_clique(verts, pairs, c), (pairs, c)


# ------------------------------------------------------- source-problem I/O

def test_parse_simple_graph_formats():
    g = parse_simple_graph("a b\nb c\n\n# comment\nd\n")
    assert g.vertices == frozenset("abcd")
    assert g.edges == frozenset({frozenset("ab"), frozenset("bc")})
    assert parse_simple_graph("").vertices == frozenset()


def test_parse_simple_graph_errors():
    with pytest.raises(ValueError, match="line 2: self-loop at x"):
        parse_simple_graph("a b\nx x\n")
    with pytest.raises(ValueError, match="line 1: expected one or two tokens"):
        parse_simple_graph("a b c\n")


def test_simple_graph_round_trip():
    g = SimpleGraph.from_pairs([("b", "a"), ("b", "c")], extra_vertices=["z"])
    text = serialize_simple_graph(g)
    assert text == "z\na b\nb c\n"
    assert parse_simple_graph(text) == g
    assert serialize_simple_graph(parse_simple_graph(text)) == text


def test_parse_subset_sum():
    inst = parse_subset_sum("# instance\n2 8\n2 3 5\n")
    assert inst == SubsetSumInstance((2, 3, 5), 2, 8)
    with pytest.raises(ValueError, match="expected 2 significant lines"):
        parse_subset_sum("2 8\n")
    with pytest.raises(ValueError, match="first line must be"):
        parse_subset_sum("2 8 9\n1 2\n")
    with pytest.raises(ValueError, match="non-integer token"):
        parse_subset_sum("2 eight\n2 3 5\n")
    with pytest.raises(ValueError, match="p = 4 exceeds"):
        parse_subset_sum("4 8\n2 3 5\n")


@pytest.mark.parametrize("text,line,tok", [
    ("1 \u0663\n3 1 4\n", 1, "\u0663"),  # an Arabic-Indic digit
    ("# values below\n1 3\n\n3 1_0 4\n", 4, "1_0"),
    ("1 3\n3 +4\n", 2, "+4"),
    ("1 3\n3 -4\n", 2, "-4"),
    ("1 3\n3 \uff14\n", 2, "\uff14"),  # a fullwidth digit
    ("1 3\n3 \u00b2\n", 2, "\u00b2"),  # a superscript two
])
def test_parse_subset_sum_takes_only_ascii_decimal_tokens(text, line, tok):
    with pytest.raises(ValueError, match=re.escape(f"line {line}: non-integer token {tok!r}")):
        parse_subset_sum(text)


def test_serialize_mapping_sorted():
    text = serialize_mapping({"b": "wv_1", "a-b": "we_0", "a": "wv_0"})
    assert text == "a wv_0\na-b we_0\nb wv_1\n"
