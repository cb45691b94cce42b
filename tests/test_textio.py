"""Text format: parsing diagnostics, canonical serialization, round-trips."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andorxy import (
    AND,
    OR,
    AndOrGraph,
    GraphFormatError,
    SolutionSubgraph,
    XYGraph,
    parse_graph,
    parse_solution,
    serialize_graph,
    serialize_solution,
)
from andorxy import graphs
from andorxy.generators import (
    GeneratorConfig,
    gen_andor,
    gen_andor_tree,
    gen_xy,
    gen_xy_tree,
)

SMALL = "andor\nv s and\nv a or\ne s a 2\ns s\n"


def test_parse_small_andor():
    g = parse_graph(SMALL)
    assert isinstance(g, AndOrGraph)
    assert g.labels == {"s": AND, "a": OR}
    assert g.edges == {("s", "a"): 2}
    assert g.source == "s"
    assert not g.zero_weights_allowed


def test_parse_xy_sink_line():
    g = parse_graph("xy\nv s 1 1\nv t 0 0\ne s t 3\ns s\n")
    assert isinstance(g, XYGraph)
    assert g.labels == {"s": (1, 1), "t": (0, 0)}


def test_parse_undeclared_endpoint_names_vertex():
    with pytest.raises(GraphFormatError, match="line 3: edge references undeclared vertex q"):
        parse_graph("andor\nv s and\ne s q 1\ns s\n")


def test_parse_comments_and_blank_lines():
    text = "# a graph\n\nandor\n v s and  # the source\n\nv a or\ne s a 2\ns s\n# done\n"
    g = parse_graph(text)
    assert g.edges == {("s", "a"): 2}


def test_parse_zero_weights_directive():
    g = parse_graph("andor\nzero-weights\nv s and\nv a or\ne s a 0\ns s\n")
    assert g.zero_weights_allowed and g.edges[("s", "a")] == 0
    # without the directive a zero weight fails validation
    with pytest.raises(GraphFormatError, match="zero-weight"):
        parse_graph("andor\nv s and\nv a or\ne s a 0\ns s\n")


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "empty input"),
        ("graph\n", "expected header"),
        ("andor\nv s and\n", "missing source line"),
        ("andor\nv s and\ns s\ns s\n", "content after the source line"),
        ("andor\nv s and\nv s and\ns s\n", "duplicate vertex s"),
        ("andor\nv s and\nv a or\ne s a 1\ne s a 2\ns s\n", r"duplicate edge \(s, a\)"),
        ("andor\nv s nand\ns s\n", "bad label"),
        ("andor\nv s\ns s\n", "vertex line needs"),
        ("andor\nv s and\ne s 1\ns s\n", "edge line needs"),
        ("andor\nv s and\ns\n", "source line needs"),
        ("andor\nv s and\ns q\n", "source q is not a declared vertex"),
        ("andor\nw s and\ns s\n", "unknown line tag 'w'"),
        ("andor\nv s and\nzero-weights\ns s\n", "must precede vertex lines"),
        ("andor\nzero-weights\nzero-weights\nv s and\ns s\n", "duplicate zero-weights"),
        ("xy\nv s 1\ns s\n", "vertex line needs"),
        ("xy\nv s one 1\ns s\n", "bad x value"),
        ("andor\nv s and\nv a or\ne s a -3\ns s\n", "bad weight"),
        ("andor\nv s and\nv a or\ne s a 1.5\ns s\n", "bad weight"),
        ("andor\nv s* and\ns s\n", "bad vertex id"),
        ("andor\nv s and\nv a and\ne a s 1\ne s a 1\ns s\n", "cycle"),
    ],
)
def test_parse_errors(text, msg):
    with pytest.raises(GraphFormatError, match=msg):
        parse_graph(text)


@pytest.mark.parametrize(
    "text,message",
    [
        # vertex lines in id order, so parse_graph indexes as it reads
        ("andor\nv a and\nv b or\ne a c 1\ns a\n", "line 4: edge references undeclared vertex c"),
        ("andor\nv a and\nv b or\ne c a 1\ns a\n", "line 4: edge references undeclared vertex c"),
        ("andor\nv a and\nv b or\ne a b 1\ne a b 2\ns a\n", "line 5: duplicate edge (a, b)"),
        ("andor\nv a and\nv b or\ne a b x\ns a\n",
         "line 4: bad weight 'x', expected a nonnegative integer"),
        ("andor\nv a and\nv b or\ne b a 1\ns a\n",
         "invalid graph: source a has in-degree 1; unreachable: b"),
        ("xy\nv a 1 1\nv b 0 0\nv c 0 0\ne a b 1\ne a c 1\ns a\n",
         "invalid graph: y mismatch at a: label says 1, out-degree is 2"),
        # out of id order, so validation indexes the dicts
        ("andor\nv b or\nv a and\ne a c 1\ns a\n", "line 4: edge references undeclared vertex c"),
        ("andor\nv b or\nv a and\nv b or\ns a\n", "line 4: duplicate vertex b"),
        ("andor\nv b or\nv a and\ne a b 1\ns c\n", "line 5: source c is not a declared vertex"),
        ("andor\nv b or\nv a and\ne b a 1\ns a\n",
         "invalid graph: source a has in-degree 1; unreachable: b"),
        ("andor\nv s and\nv a or\n\n# c\n  e  s  a  3 # w\ns s\nv b or\n",
         "line 8: content after the source line"),
    ],
)
def test_parse_error_texts_on_both_paths(text, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == message


def _rewrites(text: str, rng: Random) -> list[str]:
    """The canonical text and equivalent files that are not canonical."""
    lines = text.splitlines()
    head = [ln for ln in lines if not ln.startswith(("v ", "e ", "s "))]
    verts = [ln for ln in lines if ln.startswith("v ")]
    edges = [ln for ln in lines if ln.startswith("e ")]
    tail = [lines[-1]]
    shuffled_edges = rng.sample(edges, len(edges))
    shuffled_verts = rng.sample(verts, len(verts))
    # each edge line right after the later of its endpoints' vertex lines
    at = {v.split()[1]: i for i, v in enumerate(verts)}
    after: list[list[str]] = [[] for _ in verts]
    for e in shuffled_edges:
        after[max(at[end] for end in e.split()[1:3])].append(e)
    interleaved = [ln for v, es in zip(verts, after) for ln in [v, *es]]
    noisy = ["# generated", ""] + head + [
        f"  {ln.replace(' ', '   ')}  # note" if i % 3 == 0 else ("\n" + ln if i % 3 == 1 else ln)
        for i, ln in enumerate(verts + shuffled_edges)
    ] + tail + ["", "# end"]
    return ["\n".join(body) + "\n" for body in (
        lines,
        head + verts + shuffled_edges + tail,
        head + interleaved + tail,
        head + shuffled_verts + edges + tail,
        noisy,
    )]


@pytest.mark.parametrize("gen", [gen_andor, gen_andor_tree, gen_xy, gen_xy_tree])
def test_parse_pass_index_matches_the_dict_index(gen):
    rng = Random(5)
    for trial, n in enumerate(1 + trial * 3 for trial in range(12)):
        cfg = GeneratorConfig(n=n, seed=trial, weight_lo=trial % 2, density=0.3)
        g = gen(cfg)
        for text in _rewrites(serialize_graph(g), rng):
            parsed = parse_graph(text)
            assert parsed == g
            idx = parsed.index
            ref = graphs._build_index(type(g)(g.labels, g.edges, g.source, g.zero_weights_allowed))
            assert (idx.names, idx.adj, idx.src, idx.indeg, idx.xs) == (
                ref.names, ref.adj, ref.src, ref.indeg, ref.xs)
            # the order is topological and starts at the source
            rank = {v: i for i, v in enumerate(idx.order)}
            assert sorted(idx.order) == list(range(idx.n)) and idx.order[0] == idx.src
            assert all(rank[t] < rank[h] for t, lst in enumerate(idx.adj) for h, _w in lst)


def test_parse_error_carries_line_number():
    try:
        parse_graph("andor\nv s and\nv s and\ns s\n")
    except GraphFormatError as e:
        assert e.line == 3
        assert str(e).startswith("line 3:")
    else:
        pytest.fail("expected a format error")


def test_serialize_single_vertex_three_lines():
    text = serialize_graph(AndOrGraph({"s": AND}, {}, "s"))
    assert text == "andor\nv s and\ns s\n"
    assert len(text.splitlines()) == 3


def test_serialize_is_canonical_and_sorted():
    g = AndOrGraph(
        {"s": AND, "b": OR, "a": OR},
        {("s", "b"): 2, ("s", "a"): 1, ("a", "b"): 3},
        "s",
    )
    assert serialize_graph(g) == (
        "andor\nv a or\nv b or\nv s and\ne a b 3\ne s a 1\ne s b 2\ns s\n"
    )


def test_equal_graphs_serialize_identically():
    g1 = AndOrGraph({"s": AND, "a": OR}, {("s", "a"): 2}, "s")
    g2 = AndOrGraph({"a": OR, "s": AND}, {("s", "a"): 2}, "s")  # different dict order
    assert g1 == g2
    assert serialize_graph(g1) == serialize_graph(g2)


def test_round_trip_hand_graph_with_zero_weights():
    g = XYGraph(
        {"s": (1, 2), "a": (0, 0), "under_score_9": (0, 0)},
        {("s", "a"): 0, ("s", "under_score_9"): 7},
        "s",
        zero_weights_allowed=True,
    )
    again = parse_graph(serialize_graph(g))
    assert again == g
    assert serialize_graph(again) == serialize_graph(g)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["andor", "andor_tree", "xy", "xy_tree"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 10**9),
    lo=st.integers(0, 3),
    span=st.integers(0, 9),
    density=st.floats(0.0, 1.0),
)
def test_round_trip_fuzz(kind, n, seed, lo, span, density):
    cfg = GeneratorConfig(
        n=n, seed=seed, weight_lo=lo, weight_hi=lo + span, density=density
    )
    gen = {
        "andor": gen_andor,
        "andor_tree": gen_andor_tree,
        "xy": gen_xy,
        "xy_tree": gen_xy_tree,
    }[kind]
    g = gen(cfg)
    text = serialize_graph(g)
    again = parse_graph(text)
    assert again == g
    assert serialize_graph(again) == text  # byte-stable second pass


def test_parse_solution_basics():
    h = parse_solution("e s a\n# comment\n\ne a b\n")
    assert h.edges == frozenset({("s", "a"), ("a", "b")})
    assert parse_solution("").edges == frozenset()
    assert parse_solution("# only a comment\n").edges == frozenset()


def test_parse_solution_errors():
    with pytest.raises(GraphFormatError, match=r"duplicate solution edge \(s, a\)"):
        parse_solution("e s a\ne s a\n")
    with pytest.raises(GraphFormatError, match="solution line needs"):
        parse_solution("edge s a\n")
    with pytest.raises(GraphFormatError, match="solution line needs"):
        parse_solution("e s\n")


def test_solution_round_trip():
    h = SolutionSubgraph(frozenset({("s", "a"), ("a", "b"), ("a", "c")}))
    text = serialize_solution(h)
    assert text == "e a b\ne a c\ne s a\n"
    assert parse_solution(text) == h
    assert serialize_solution(SolutionSubgraph(frozenset())) == ""


@settings(max_examples=60, deadline=None)
@given(
    edges=st.sets(
        st.tuples(st.text("abcXYZ09_", min_size=1, max_size=4),
                  st.text("abcXYZ09_", min_size=1, max_size=4)),
        max_size=12,
    )
)
def test_solution_round_trip_fuzz(edges):
    h = SolutionSubgraph(frozenset(edges))
    assert parse_solution(serialize_solution(h)) == h
