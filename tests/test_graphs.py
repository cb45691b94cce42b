"""Validation, conversions, solution verification, and the structural predicates."""

import itertools
import string
from random import Random

import pytest

import oracles
from andorxy import (
    AND,
    MAX_WEIGHT,
    OR,
    AndOrGraph,
    FGraph,
    InvalidGraphError,
    SolutionSubgraph,
    XYGraph,
    andor_to_xy,
    decide_exact_weight_xy_tree,
    decide_kernel,
    decide_min_andor,
    dp_upper_bound,
    fgraph_to_andor,
    is_andor_tree,
    is_in_family_F,
    is_xy_tree,
    kernelize,
    parse_graph,
    schedule_lower_bound,
    serialize_graph,
    solve_andor_tree,
    solve_exact_andor,
    solve_exact_xy,
    solve_xy_tree,
    validate_andor,
    validate_xy,
    verify_solution_andor,
    verify_solution_xy,
)
from andorxy import graphs, solvers, textio
from andorxy.generators import GeneratorConfig, gen_andor, gen_andor_tree, gen_xy, gen_xy_tree


def aog(labels, edges, source="s", zero=False):
    return AndOrGraph(dict(labels), dict(edges), source, zero)


def sol(*edges):
    return SolutionSubgraph(frozenset(edges))


def fresh(g):
    """A new object over the same dicts, carrying no cached index."""
    return type(g)(g.labels, g.edges, g.source, g.zero_weights_allowed)


# ------------------------------------------------------------ validate_andor

def test_validate_single_vertex_ok():
    rep = validate_andor(aog({"s": AND}, {}))
    assert rep.ok
    assert rep.violations == ()


def test_validate_two_cycle_reported():
    rep = validate_andor(aog({"s": AND, "a": OR}, {("s", "a"): 1, ("a", "s"): 1}))
    assert not rep.ok
    assert any("cycle" in v for v in rep.violations)


def test_validate_unreachable_vertex_named():
    rep = validate_andor(aog({"s": AND, "b": OR}, {}))
    assert not rep.ok
    assert any(v == "unreachable: b" for v in rep.violations)


def test_validate_self_loop_is_a_cycle():
    rep = validate_andor(aog({"s": AND, "a": OR}, {("s", "a"): 1, ("a", "a"): 1}))
    assert any("cycle: a -> a" in v for v in rep.violations)


def test_validate_source_in_degree():
    g = aog({"s": OR, "a": OR}, {("s", "a"): 1, ("a", "s"): 1})
    rep = validate_andor(g)
    assert any("source s has in-degree 1" in v for v in rep.violations)


def test_validate_undeclared_endpoint():
    rep = validate_andor(aog({"s": AND}, {("s", "ghost"): 1}))
    assert any("undeclared" in v and "ghost" in v for v in rep.violations)


def test_validate_missing_source_vertex():
    rep = validate_andor(AndOrGraph({"a": AND}, {}, "s"))
    assert not rep.ok


def test_validate_bad_label():
    rep = validate_andor(aog({"s": "nand"}, {}))
    assert any("expected 'and' or 'or'" in v for v in rep.violations)


def test_validate_weight_rules():
    bad = aog({"s": AND, "a": OR}, {("s", "a"): 0})
    assert any("zero-weight" in v for v in validate_andor(bad).violations)
    ok = aog({"s": AND, "a": OR}, {("s", "a"): 0}, zero=True)
    assert validate_andor(ok).ok
    neg = aog({"s": AND, "a": OR}, {("s", "a"): -2})
    assert any("negative" in v for v in validate_andor(neg).violations)
    # bool is an int subtype but not an acceptable weight
    b = aog({"s": AND, "a": OR}, {("s", "a"): True})
    assert any("non-integer" in v for v in validate_andor(b).violations)
    big = aog({"s": AND, "a": OR}, {("s", "a"): 2**31})
    assert any("exceeds the cap" in v for v in validate_andor(big).violations)


def test_validate_reports_every_violation_not_just_first():
    g = aog({"s": AND, "a": OR, "b": OR}, {("s", "a"): 0})
    rep = validate_andor(g)
    assert len(rep.violations) >= 2  # zero weight and unreachable b


# -------------------------------------------------------------- validate_xy

def xyg(labels, edges, source="s", zero=False):
    return XYGraph(dict(labels), dict(edges), source, zero)


def test_validate_xy_y_mismatch():
    g = xyg({"s": (2, 3), "a": (0, 0), "b": (0, 0)}, {("s", "a"): 1, ("s", "b"): 1})
    rep = validate_xy(g)
    assert any("y mismatch at s: label says 3, out-degree is 2" in v for v in rep.violations)


def test_validate_xy_sink_label():
    g = xyg({"s": (1, 1), "t": (1, 1)}, {("s", "t"): 1})
    rep = validate_xy(g)
    assert any("sink label at t: got 1-1, a sink must be 0-0" in v for v in rep.violations)


def test_validate_xy_x_out_of_range():
    g = xyg({"s": (4, 2), "a": (0, 0), "b": (0, 0)}, {("s", "a"): 1, ("s", "b"): 1})
    assert any("x out of range at s: 4 not in [0, 2]" in v for v in validate_xy(g).violations)


def test_validate_xy_chain_ok():
    g = xyg({"s": (1, 1), "a": (1, 1), "b": (0, 0)}, {("s", "a"): 1, ("a", "b"): 1})
    assert validate_xy(g).ok


def test_validate_xy_label_shape():
    rep = validate_xy(xyg({"s": "and"}, {}))
    assert any("expected an (x, y) pair" in v for v in rep.violations)


# -------------------------------------------------------------- andor_to_xy

# ------------------------------------------------------ one index per graph

def _corpus():
    """Generated graphs of both kinds, and corruptions of each that break one rule."""
    valid = []
    for seed in range(10):
        cfg = GeneratorConfig(n=2 + seed % 9, seed=seed, density=0.4)
        valid += [gen_andor(cfg), gen_xy(cfg), gen_andor_tree(cfg), gen_xy_tree(cfg)]
    out = list(valid)
    for g in valid:
        kind, labels, edges, s = type(g), g.labels, g.edges, g.source
        xy = kind is XYGraph
        last = max(labels)  # not the source, which sorts first
        sink = (0, 0) if xy else OR
        out += [
            kind(labels, {**edges, (last, s): 1}, s),  # cycle through the source
            kind(labels, {**edges, (last, last): 1}, s),
            kind(labels, {**edges, (s, "ghost"): 1}, s),
            kind(labels, edges, "nowhere"),
            kind({**labels, "zz": sink}, edges, s),  # unreachable
            kind({**labels, "zz": sink}, {**edges, ("zz", last): 1}, s),  # a second root
        ]
        first = min(edges)
        out += [kind(labels, {**edges, first: w}, s)
                for w in (0, -1, 2.5, True, "3", MAX_WEIGHT + 1)]
        out.append(kind(labels, {**edges, first: 0}, s, True))  # valid with zero weights
        if xy:
            x, y = labels[s]
            bad = [(True, y), (float(x), y), [x, y], (x, y, 0), 5, "ab", AND, (y + 1, y),
                   (x, y + 1), (-1, y)]
            out.append(kind({**labels, last: (1, 1)}, edges, s))  # a sink labelled 1-1
        else:
            bad = ["xor", ["and"], None, (1, 1), "AND"]
        out += [kind({**labels, s: lab}, edges, s) for lab in bad]
    return out


def test_index_builds_exactly_when_validation_reports_ok(monkeypatch):
    oks = 0
    for g in _corpus():
        xy = isinstance(g, XYGraph)
        validate = validate_xy if xy else validate_andor
        with monkeypatch.context() as m:  # the checks that name each violation, alone
            m.setattr(graphs, "_build_index", lambda g: None)
            report = validate(fresh(g))
        assert (graphs._build_index(g) is not None) == report.ok, report
        assert validate(g) == report
        oks += report.ok
        if not report.ok:
            for solve in ((solve_exact_xy, is_xy_tree) if xy else (solve_exact_andor, is_in_family_F)):
                with pytest.raises(InvalidGraphError) as exc:
                    solve(fresh(g))
                assert str(exc.value) == "; ".join(report.violations)
    assert oks == 80  # the 40 generated graphs and their 40 zero-weight variants


def test_each_graph_is_indexed_once_and_never_checked_by_name(monkeypatch):
    # both builders, parse_graph's pass and _build_index, end in _finish_index
    builds, named = [], []
    real = graphs._finish_index

    def counted(g, *rest):
        builds.append(g)
        return real(g, *rest)

    monkeypatch.setattr(graphs, "_finish_index", counted)
    monkeypatch.setattr(textio, "_finish_index", counted)
    monkeypatch.setattr(graphs, "_structural_violations", lambda *a: named.append(a) or [])
    cfg = GeneratorConfig(n=14, seed=7, density=0.4)
    andor, xy, tree, xtree = (parse_graph(serialize_graph(make(cfg)))
                              for make in (gen_andor, gen_xy, gen_andor_tree, gen_xy_tree))
    solve_exact_andor(andor)
    dp_upper_bound(andor)
    schedule_lower_bound(andor)
    is_in_family_F(andor)
    is_andor_tree(andor)
    andor_to_xy(andor)
    decide_min_andor(andor, 10)
    kr = kernelize(andor, dp_upper_bound(andor).optimum)
    decide_kernel(kr)
    solve_exact_xy(xy)
    is_xy_tree(xy)
    solve_andor_tree(tree)
    solve_xy_tree(xtree)
    decide_exact_weight_xy_tree(xtree, 5)
    assert named == []
    assert sorted(map(id, builds)) == sorted(map(id, (andor, xy, tree, xtree, kr.reduced)))


@pytest.mark.parametrize("key", ["sb", ("s", "b", "x"), frozenset(("s", "b"))],
                         ids=["str", "triple", "frozenset"])
def test_validation_names_edge_keys_that_are_not_pairs(key):
    andor = aog({"s": AND, "a": OR, "b": OR}, {("s", "a"): 1, key: 1})
    xy = XYGraph({"s": (2, 2), "a": (0, 0), "b": (0, 0)}, {("s", "a"): 1, key: 1}, "s")
    for rep in (validate_andor(andor), validate_xy(xy)):
        assert not rep.ok and f"edge key {key!r} is not a (tail, head) pair" in rep.violations


def test_andor_to_xy_label_rules():
    g = aog(
        {"s": AND, "a": OR, "t1": OR, "t2": AND, "t3": AND},
        {("s", "a"): 1, ("s", "t1"): 1, ("a", "t1"): 1, ("a", "t2"): 1, ("a", "t3"): 1},
    )
    x = andor_to_xy(g)
    assert x.labels["s"] == (2, 2)
    assert x.labels["a"] == (1, 3)
    # sink labels are 0-0 regardless of the and/or label
    assert x.labels["t1"] == (0, 0) and x.labels["t2"] == (0, 0)
    assert x.edges == g.edges and x.source == g.source
    assert validate_xy(x).ok


def test_andor_to_xy_rejects_invalid():
    with pytest.raises(InvalidGraphError):
        andor_to_xy(aog({"s": AND, "b": OR}, {}))


def test_andor_to_xy_preserves_feasibility_exhaustively():
    """Any edge subset is feasible for g iff it is feasible for andor_to_xy(g)."""
    rng = Random(421)
    for trial in range(60):
        cfg = GeneratorConfig(n=rng.randint(1, 5), seed=trial, density=0.5)
        g = gen_andor(cfg)
        x = andor_to_xy(g)
        edges = sorted(g.edges)
        for bits in range(1 << len(edges)):
            sub = frozenset(edges[i] for i in range(len(edges)) if bits >> i & 1)
            h = SolutionSubgraph(sub)
            assert verify_solution_andor(g, h).feasible == verify_solution_xy(x, h).feasible


# ------------------------------------------------------------ fgraph_to_andor

def test_fgraph_multi_head_arc_gets_and_vertex():
    h = FGraph(frozenset({"a", "b", "c"}), ((("a"), frozenset({"b", "c"})),))
    g = fgraph_to_andor(h, "a")
    assert g.labels["a"] == OR and g.labels["b"] == OR and g.labels["c"] == OR
    mids = [v for v in g.labels if v not in {"a", "b", "c"}]
    assert len(mids) == 1
    (m,) = mids
    assert g.labels[m] == AND
    assert set(g.edges) == {("a", m), (m, "b"), (m, "c")}
    assert all(w == 1 for w in g.edges.values())
    assert validate_andor(g).ok


def test_fgraph_singleton_arc_is_plain_edge():
    h = FGraph(frozenset({"a", "b"}), (("a", frozenset({"b"})),))
    g = fgraph_to_andor(h, "a")
    assert set(g.labels) == {"a", "b"}
    assert g.edges == {("a", "b"): 1}


def test_fgraph_empty_arcs_single_vertex():
    g = fgraph_to_andor(FGraph(frozenset({"x"}), ()), "x")
    assert g.labels == {"x": OR}
    assert g.edges == {}


def test_fgraph_root_must_reach_all():
    h = FGraph(frozenset({"a", "b"}), ())
    with pytest.raises(ValueError, match="missing b"):
        fgraph_to_andor(h, "a")


def test_fgraph_malformed_arcs():
    with pytest.raises(ValueError, match="empty head set"):
        fgraph_to_andor(FGraph(frozenset({"a"}), (("a", frozenset()),)), "a")
    with pytest.raises(ValueError, match="not a declared vertex"):
        fgraph_to_andor(FGraph(frozenset({"a"}), (("a", frozenset({"zz"})),)), "a")
    with pytest.raises(ValueError, match="root"):
        fgraph_to_andor(FGraph(frozenset({"a"}), ()), "nope")


def test_fgraph_fresh_vertex_name_collision_avoided():
    h = FGraph(frozenset({"a", "b", "c", "andarc0"}),
               (("a", frozenset({"b", "c"})), ("a", frozenset({"andarc0"}))))
    g = fgraph_to_andor(h, "a")
    assert validate_andor(g).ok
    assert len(g.labels) == 5  # four originals plus one fresh and-vertex


# --------------------------------------------------------- verify_solution_*

def _two_child_graph(label):
    return aog({"s": label, "a": OR, "b": OR}, {("s", "a"): 2, ("s", "b"): 3})


def test_verify_and_source_needs_both_edges():
    g = _two_child_graph(AND)
    feasible, weight, violations = verify_solution_andor(g, sol(("s", "a"), ("s", "b")))
    assert feasible and weight == 5 and violations == ()


def test_verify_or_source_takes_one():
    g = _two_child_graph(OR)
    feasible, weight, _ = verify_solution_andor(g, sol(("s", "a")))
    assert feasible and weight == 2


def test_verify_or_source_rejects_two():
    g = _two_child_graph(OR)
    feasible, _, violations = verify_solution_andor(g, sol(("s", "a"), ("s", "b")))
    assert not feasible
    assert any("or vertex s must take exactly one out-edge, has 2" in v for v in violations)


def test_verify_and_vertex_missing_edge_named():
    g = _two_child_graph(AND)
    feasible, _, violations = verify_solution_andor(g, sol(("s", "a")))
    assert not feasible
    assert any("and vertex s must take all 2 out-edges, has 1" in v for v in violations)


def test_verify_disconnected_fragment_rejected():
    g = aog({"s": OR, "a": OR, "b": AND, "c": OR},
            {("s", "a"): 1, ("s", "b"): 5, ("b", "c"): 1})
    # b -> c chosen but nothing connects b to the source
    feasible, _, violations = verify_solution_andor(g, sol(("s", "a"), ("b", "c")))
    assert not feasible
    assert any("not reachable from the source inside the solution" in v for v in violations)


def test_verify_unknown_edge_raises():
    g = _two_child_graph(AND)
    with pytest.raises(ValueError, match=r"solution edge \(a, b\) is not an edge"):
        verify_solution_andor(g, sol(("a", "b")))


def test_verify_xy_exactly_x():
    g = xyg({"s": (2, 3), "a": (0, 0), "b": (0, 0), "c": (0, 0)},
            {("s", "a"): 1, ("s", "b"): 2, ("s", "c"): 4})
    for pair in itertools.combinations([("s", "a"), ("s", "b"), ("s", "c")], 2):
        feasible, weight, _ = verify_solution_xy(g, sol(*pair))
        assert feasible and weight == sum(g.edges[e] for e in pair)
    feasible, _, violations = verify_solution_xy(g, sol(("s", "a"), ("s", "b"), ("s", "c")))
    assert not feasible
    assert any("vertex s must take exactly 2 out-edges, has 3" in v for v in violations)


def test_verify_xy_zero_demand_source():
    g = xyg({"s": (0, 3), "a": (0, 0), "b": (0, 0), "c": (0, 0)},
            {("s", "a"): 1, ("s", "b"): 1, ("s", "c"): 1})
    feasible, weight, _ = verify_solution_xy(g, sol())
    assert feasible and weight == 0


def test_verify_weight_is_plain_sum():
    rng = Random(7)
    g = gen_andor(GeneratorConfig(n=8, seed=3, density=0.4))
    edges = sorted(g.edges)
    for _ in range(50):
        sub = frozenset(e for e in edges if rng.random() < 0.5)
        res = verify_solution_andor(g, SolutionSubgraph(sub))
        assert res.weight == sum(g.edges[e] for e in sub)


def test_verify_agrees_with_first_principles_oracle():
    rng = Random(99)
    for trial in range(40):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 6), seed=trial, density=0.5))
        x = andor_to_xy(g)
        edges = sorted(g.edges)
        for bits in range(1 << len(edges)):
            sub = frozenset(edges[i] for i in range(len(edges)) if bits >> i & 1)
            assert verify_solution_andor(g, SolutionSubgraph(sub)).feasible == \
                oracles.feasible_andor(g, sub)
            assert verify_solution_xy(x, SolutionSubgraph(sub)).feasible == \
                oracles.feasible_xy(x, sub)


def _verdict(verify, g, h):
    try:
        return verify(g, h)
    except ValueError as exc:
        return ("raised", str(exc))


def test_verify_from_cached_tree_index_matches_fresh_graph(monkeypatch):
    monkeypatch.setattr(solvers, "_FAST_MIN_N", 1)
    rng = Random(5)
    accepted = 0
    for trial in range(60):
        n = rng.randint(1, 12)
        cfg = GeneratorConfig(n=n, seed=trial, weight_hi=9, and_fraction=rng.random())
        if trial % 2:
            g, solve, verify = gen_xy_tree(cfg), solvers.solve_xy_tree, verify_solution_xy
        else:
            g, solve, verify = gen_andor_tree(cfg), solvers.solve_andor_tree, verify_solution_andor
        witness = solve(g).witness
        core = vars(g)["tree_core"]
        fresh = type(g)(g.labels, g.edges, g.source, g.zero_weights_allowed)
        edges = sorted(g.edges)
        if len(edges) <= 8:
            subsets = [frozenset(edges[i] for i in range(len(edges)) if bits >> i & 1)
                       for bits in range(1 << len(edges))]
        else:
            subsets = [frozenset(e for e in edges if rng.random() < p)
                       for p in (0.3, 0.6, 0.9, 1.0) for _ in range(10)]
        leaf = max(g.labels, key=lambda v: (g.out_degree(v) == 0, v))
        subsets += [
            witness.edges,
            witness.edges | {(leaf, g.source)},
            witness.edges | {("nowhere", g.source)},
        ]
        # swap a witness edge into a sink for a non-edge into an unused sink:
        # out-degrees and in-edges still look right, only the edge is unknown
        used = witness.vertices(g.source)
        spare = [v for v in sorted(g.labels) if v not in used and g.out_degree(v) == 0]
        for t, hd in sorted(witness.edges):
            if spare and g.out_degree(hd) == 0 and (t, spare[0]) not in g.edges:
                subsets.append(witness.edges - {(t, hd)} | {(t, spare[0])})
                break
        for sub in subsets:
            h = SolutionSubgraph(sub)
            want = _verdict(verify, fresh, h)
            assert _verdict(verify, g, h) == want
            if want[0] is True:
                assert core.accepts(sub) == want[1]
                accepted += 1
            elif want[0] is False:
                assert core.accepts(sub) is None
        assert "tree_core" not in vars(fresh)
    assert accepted > 60


def _one_letter_ids(g):
    """The same tree with one-letter vertex ids, so that a two-letter string
    iterates like the pair of ids of an edge."""
    name = dict(zip(sorted(g.labels), string.ascii_letters))
    return type(g)({name[v]: lab for v, lab in g.labels.items()},
                   {(name[t], name[h]): w for (t, h), w in g.edges.items()},
                   name[g.source], g.zero_weights_allowed)


def test_tree_core_accepts_both_ways(monkeypatch):
    # an edge set of more than half the tree is matched by scanning the
    # tree's edge keys, a smaller one by mapping its ends through pos; on
    # either side, broken witnesses get the verdict of the dict-based checks
    monkeypatch.setattr(solvers, "_FAST_MIN_N", 1)
    rng = Random(11)
    seen = set()
    for trial in range(60):
        cfg = GeneratorConfig(n=rng.randint(6, 40), seed=trial, weight_hi=9,
                              and_fraction=(0.0, 1.0, 0.3, 0.8)[trial % 4])
        if trial % 2:
            g, solve, verify = gen_xy_tree(cfg), solvers.solve_xy_tree, verify_solution_xy
        else:
            g, solve, verify = gen_andor_tree(cfg), solvers.solve_andor_tree, verify_solution_andor
        g = _one_letter_ids(g)
        witness = solve(g).witness.edges
        core = vars(g)["tree_core"]
        fresh = type(g)(g.labels, g.edges, g.source, g.zero_weights_allowed)
        # a witness edge, replaced below by elements that iterate like it
        edge = min(witness or g.edges)
        t, hd = edge
        variants = {
            "witness": witness,
            "unknown edge": witness | {("nowhere", g.source)},
            "pair string": witness - {edge} | {t + hd},
            "triple": witness - {edge} | {(t, hd, 0)},
        }
        tails = {t for t, _hd in witness}
        cut = [e for e in sorted(witness) if e[1] in tails]
        if cut:
            variants["missing in-edge"] = witness - {cut[0]}
        for kind, sub in variants.items():
            h = SolutionSubgraph(sub)
            want = _verdict(verify, fresh, h)
            assert _verdict(verify, g, h) == want, (trial, kind)
            assert core.accepts(sub) == (want[1] if want[0] is True else None), (trial, kind)
            assert (want[0] is True) == (kind == "witness")
            seen.add((kind, 2 * len(sub) > len(g.edges)))
    assert len(seen) == 10  # every variant on both sides of m/2


def test_solution_subgraph_helpers():
    h = sol(("s", "a"), ("a", "b"))
    assert h.edge_set == h.edges
    assert h.vertices("s") == {"s", "a", "b"}
    assert h.vertices("z") == {"z", "s", "a", "b"}
    assert len(h) == 2
    assert len(sol()) == 0


# ----------------------------------------------------------------- predicates

def test_is_xy_tree_examples():
    path = xyg({"s": (1, 1), "a": (1, 1), "b": (0, 0)}, {("s", "a"): 1, ("a", "b"): 1})
    assert is_xy_tree(path)
    diamond = xyg(
        {"s": (2, 2), "a": (1, 1), "b": (1, 1), "c": (0, 0)},
        {("s", "a"): 1, ("s", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
    )
    assert not is_xy_tree(diamond)
    assert is_xy_tree(xyg({"s": (0, 0)}, {}))


def test_is_xy_tree_matches_shared_out_neighbor_definition():
    """In-degree one everywhere (except source) iff no two vertices share an out-neighbor."""
    rng = Random(5)
    from andorxy.generators import gen_xy

    for trial in range(60):
        g = gen_xy(GeneratorConfig(n=rng.randint(1, 7), seed=trial, density=0.4))
        shared = False
        heads = {}
        for (t, h) in g.edges:
            heads.setdefault(h, []).append(t)
        for h, tails in heads.items():
            if len(tails) > 1:
                shared = True
        assert is_xy_tree(g) == (not shared)


def test_is_andor_tree():
    t = aog({"s": AND, "a": OR, "b": OR}, {("s", "a"): 1, ("s", "b"): 1})
    assert is_andor_tree(t)
    d = aog({"s": AND, "a": OR, "b": OR, "c": OR},
            {("s", "a"): 1, ("s", "b"): 1, ("a", "c"): 1, ("b", "c"): 1})
    assert not is_andor_tree(d)


def test_family_f_rejections():
    heavy = aog({"s": AND, "a": OR}, {("s", "a"): 2})
    assert not is_in_family_F(heavy)
    wide_or = aog({"s": OR, "a": OR, "b": OR, "c": OR},
                  {("s", "a"): 1, ("s", "b"): 1, ("s", "c"): 1})
    assert not is_in_family_F(wide_or)
    wide_and = aog({"s": AND, "a": OR, "b": OR, "c": OR},
                   {("s", "a"): 1, ("s", "b"): 1, ("s", "c"): 1})
    assert is_in_family_F(wide_and)  # out-degree cap applies to or-vertices only


def test_family_f_in_degree_rule():
    # d has in-degree 2 and no sink out-neighbor: out of the family
    g = aog(
        {"s": AND, "a": OR, "b": OR, "d": AND, "e": OR, "t": OR},
        {("s", "a"): 1, ("s", "b"): 1, ("a", "d"): 1, ("b", "d"): 1,
         ("d", "e"): 1, ("e", "t"): 1},
    )
    assert not is_in_family_F(g)
    # giving d a sink out-neighbor restores membership
    g2 = aog(
        {"s": AND, "a": OR, "b": OR, "d": AND, "e": OR, "t": OR, "u": OR},
        {("s", "a"): 1, ("s", "b"): 1, ("a", "d"): 1, ("b", "d"): 1,
         ("d", "e"): 1, ("e", "t"): 1, ("d", "u"): 1},
    )
    assert is_in_family_F(g2)
    # in-degree 2 vertex that is itself a sink is fine
    g3 = aog({"s": AND, "a": OR, "b": OR, "t": OR},
             {("s", "a"): 1, ("s", "b"): 1, ("a", "t"): 1, ("b", "t"): 1})
    assert is_in_family_F(g3)
