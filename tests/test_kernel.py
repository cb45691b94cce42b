"""Kernelization: the six rules, the audit log, and answer preservation."""

from random import Random

import pytest

import oracles
from andorxy import (
    AND,
    MAX_WEIGHT,
    OR,
    AndOrGraph,
    InvalidGraphError,
    compute_r,
    decide_kernel,
    decide_min_andor,
    kernel_size_bound,
    kernelize,
)
from andorxy import graphs
from andorxy.generators import GeneratorConfig, gen_andor


def aog(labels, edges, source="s", zero=False):
    return AndOrGraph(dict(labels), dict(edges), source, zero)


def replay(g, kr):
    """Reapply the log to the input graph; must land exactly on the kernel."""
    labels = dict(g.labels)
    edges = dict(g.edges)
    for rule, target in kr.log:
        if rule in (1, 3, 4):
            del labels[target]
            for e in [e for e in edges if target in e]:
                del edges[e]
        elif rule == 2:
            del edges[target]
        else:  # 5 or 6
            edges[target] = kr.forbidden_weight
    return labels, edges


# ------------------------------------------------------------------ compute_r

def test_compute_r_multiplicity():
    g = aog(
        {"s": OR, "a": OR, "b": OR, "c": OR},
        {("s", "a"): 1, ("s", "b"): 1, ("s", "c"): 2},
    )
    assert compute_r(g) == 2


def test_compute_r_all_distinct():
    g = aog(
        {"s": OR, "a": OR, "b": OR, "c": OR},
        {("s", "a"): 1, ("s", "b"): 2, ("s", "c"): 3},
    )
    assert compute_r(g) == 1


def test_compute_r_ignores_and_vertices():
    g = aog(
        {"s": AND, "a": OR, "b": OR, "c": OR},
        {("s", "a"): 5, ("s", "b"): 5, ("s", "c"): 5},
    )
    assert compute_r(g) == 1  # duplicates at an and-vertex are not choices


def test_compute_r_no_or_vertices_floors_at_one():
    assert compute_r(aog({"s": AND}, {})) == 1


# ------------------------------------------------------------ size bound

def test_kernel_size_bound_values():
    assert kernel_size_bound(0, 1) == 1
    assert kernel_size_bound(1, 1) == 2
    assert kernel_size_bound(2, 1) == 7
    assert kernel_size_bound(3, 2) == 259
    assert kernel_size_bound(0, 99) == 1


def test_kernel_size_bound_errors():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        kernel_size_bound(-1, 1)
    with pytest.raises(ValueError, match="r must be at least 1"):
        kernel_size_bound(2, 0)
    with pytest.raises(OverflowError, match="kernel size bound exceeds"):
        kernel_size_bound(40, 10)


# ------------------------------------------------------------ rule behavior

def test_rule_2_removes_heavy_edge():
    k = 4
    g = aog(
        {"s": OR, "a": OR, "b": OR},
        {("s", "a"): k + 5, ("s", "b"): 1},
    )
    kr = kernelize(g, k)
    assert not kr.empty
    assert ("s", "a") not in kr.reduced.edges
    assert any(r.rule == 2 and r.target == ("s", "a") for r in kr.log)


def test_no_rule_fires_on_cheap_all_and():
    g = aog(
        {"s": AND, "a": AND, "b": AND},
        {("s", "a"): 2, ("s", "b"): 3, ("a", "b"): 1},
    )
    kr = kernelize(g, g.total_weight())
    assert kr.log == ()
    assert kr.reduced == g
    assert kr.forbidden_weight == g.total_weight() + 1


def test_rule_1_then_rule_6():
    # v's out-edges cost k+1 in total, so rule 1 drops v; the and-vertex a
    # that pointed at v keeps another child and gets poisoned in-edges
    k = 3
    g = aog(
        {"s": AND, "a": AND, "u": OR, "v": AND, "t1": OR, "t2": OR},
        {("s", "a"): 1, ("a", "u"): 1, ("a", "v"): 1,
         ("v", "t1"): 2, ("v", "t2"): 2},
    )
    kr = kernelize(g, k)
    assert not kr.empty
    assert "v" not in kr.reduced.labels
    assert [r.rule for r in kr.log][:1] == [1]
    assert any(r.rule == 6 and r.target == ("s", "a") for r in kr.log)
    assert kr.reduced.edges[("s", "a")] == k + 1
    assert not decide_kernel(kr)
    assert not decide_min_andor(g, k)


def test_rule_3_removes_unaffordable_vertex_then_rule_5():
    # every edge is individually affordable, but the cheapest path to c
    # costs 4 > k, so rule 3 (not rule 2) removes it
    k = 3
    g = aog(
        {"s": OR, "a": OR, "b": OR, "c": OR},
        {("s", "a"): 2, ("s", "b"): 1, ("a", "c"): 2},
    )
    kr = kernelize(g, k)
    assert "c" not in kr.reduced.labels
    assert any(r.rule == 3 and r.target == "c" for r in kr.log)
    # a became a sink, so its in-edge is poisoned; b was always a sink, untouched
    assert kr.reduced.edges[("s", "a")] == k + 1
    assert any(r.rule == 5 and r.target == ("s", "a") for r in kr.log)
    assert kr.reduced.edges[("s", "b")] == 1
    assert decide_kernel(kr) and decide_min_andor(g, k)


def test_rule_4_removes_stranded_vertex():
    k = 3
    g = aog(
        {"s": OR, "a": OR, "b": OR},
        {("s", "a"): 5, ("s", "b"): 1},
    )
    kr = kernelize(g, k)
    assert set(kr.reduced.labels) == {"s", "b"}
    rules = [r.rule for r in kr.log]
    assert rules == sorted(rules)  # passes run in order 1..6
    assert any(r.rule == 2 for r in kr.log)
    assert any(r.rule == 4 and r.target == "a" for r in kr.log)


def test_original_sinks_are_not_poisoned():
    k = 5
    g = aog({"s": AND, "t": OR}, {("s", "t"): 2})
    kr = kernelize(g, k)
    assert kr.log == () and kr.reduced == g


# ---------------------------------------------------- source-dead outcomes

def test_and_source_over_budget_is_empty_outcome():
    g = aog({"s": AND, "a": OR, "b": OR}, {("s", "a"): 3, ("s", "b"): 3})
    kr = kernelize(g, 4)
    assert kr.empty and kr.reduced is None
    assert kr.log == (kr.log[0],) and kr.log[0].rule == 1 and kr.log[0].target == "s"
    assert kr.log[0].describe() == "rule 1: remove vertex s"
    assert not decide_kernel(kr)
    assert not decide_min_andor(g, 4)


def test_or_source_with_no_affordable_option_is_empty():
    g = aog({"s": OR, "a": OR, "b": OR}, {("s", "a"): 5, ("s", "b"): 6})
    kr = kernelize(g, 4)
    assert kr.empty
    assert not decide_kernel(kr)
    assert not decide_min_andor(g, 4)


def test_and_source_losing_one_child_is_empty():
    # rules 5/6 poison in-edges, which the source does not have; the empty
    # outcome stands in for that missing poison
    g = aog({"s": AND, "a": OR, "b": OR}, {("s", "a"): 1, ("s", "b"): 9})
    kr = kernelize(g, 5)
    assert kr.empty
    assert not decide_min_andor(g, 5)


def test_k_zero_kills_positive_weight_instances():
    g = aog({"s": OR, "a": OR}, {("s", "a"): 1})
    kr = kernelize(g, 0)
    assert kr.empty
    assert not decide_kernel(kr)
    # and a bare sink source still says yes at k = 0
    lone = aog({"s": AND}, {})
    kr2 = kernelize(lone, 0)
    assert not kr2.empty and decide_kernel(kr2)


# ----------------------------------------------------------- input checking

def test_kernelize_input_checks():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        kernelize(aog({"s": OR}, {}), -1)
    z = aog({"s": OR, "a": OR}, {("s", "a"): 0}, zero=True)
    with pytest.raises(InvalidGraphError, match="positive edge weights"):
        kernelize(z, 3)
    with pytest.raises(InvalidGraphError):
        kernelize(aog({"s": OR, "a": OR}, {("s", "a"): 1, ("a", "s"): 1}), 3)


def test_forbidden_weight_must_fit_the_cap_only_when_written():
    # rule 1 drops a; rule 6 then gives (s, x) the forbidden weight k + 1
    g = aog({"s": OR, "x": AND, "a": AND, "b": OR, "c": OR, "d": OR, "e": OR},
            {("s", "x"): 1, ("s", "d"): 1, ("x", "a"): 1, ("x", "e"): 1,
             ("a", "b"): MAX_WEIGHT, ("a", "c"): MAX_WEIGHT})
    with pytest.raises(OverflowError, match=f"exceeds the weight cap {MAX_WEIGHT}"):
        kernelize(g, MAX_WEIGHT)
    kr = kernelize(g, MAX_WEIGHT - 1)
    assert kr.reduced.edges[("s", "x")] == MAX_WEIGHT == kr.forbidden_weight
    assert kr.log[-1] == (6, ("s", "x")) and decide_kernel(kr)
    # with nothing to poison, any k goes
    quiet = aog({"s": OR, "a": OR}, {("s", "a"): MAX_WEIGHT})
    kr = kernelize(quiet, 10**30)
    assert kr.log == () and kr.reduced == quiet and decide_kernel(kr)


def test_kernelize_validates_its_input_once(monkeypatch):
    calls = []
    real = graphs.validate_andor
    monkeypatch.setattr(graphs, "validate_andor", lambda g: calls.append(g) or real(g))
    g = gen_andor(GeneratorConfig(n=12, seed=5))
    kr = kernelize(g, 6)
    assert sum(c is g for c in calls) == 1
    assert kr.r == compute_r(g)


def test_r_is_computed_or_taken_verbatim():
    g = aog(
        {"s": OR, "a": OR, "b": OR},
        {("s", "a"): 2, ("s", "b"): 2},
    )
    assert kernelize(g, 5).r == 2
    assert kernelize(g, 5, r=9).r == 9


# ------------------------------------------------------------ log contracts

def test_log_replay_reconstructs_kernel():
    rng = Random(50)
    replayed = 0
    for trial in range(200):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 12), seed=trial, density=0.35, weight_hi=6))
        k = rng.randint(0, 8)
        kr = kernelize(g, k)
        if kr.empty:
            continue
        labels, edges = replay(g, kr)
        assert labels == kr.reduced.labels
        assert edges == kr.reduced.edges
        replayed += 1
    assert replayed >= 80


def test_log_is_ordered_and_describes_every_rule():
    rng = Random(51)
    seen_rules = set()
    for trial in range(200):
        # low weights keep and-vertices alive long enough for rule 6 to fire
        g = gen_andor(GeneratorConfig(n=rng.randint(2, 12), seed=trial, density=0.4, weight_hi=3))
        kr = kernelize(g, rng.randint(0, 6))
        rules = [r.rule for r in kr.log]
        assert rules == sorted(rules)
        assert all(1 <= r <= 6 for r in rules)
        for rule, grp in _groups(kr.log):
            assert grp == sorted(grp), f"rule {rule} targets not sorted"
        for entry in kr.log:
            seen_rules.add(entry.rule)
            text = entry.describe()
            assert text.startswith(f"rule {entry.rule}: ")
    assert {1, 2, 3, 4, 5, 6} <= seen_rules  # the sample exercises every rule


def _groups(log):
    by_rule = {}
    for entry in log:
        by_rule.setdefault(entry.rule, []).append(entry.target)
    return by_rule.items()


def test_kernel_weights_never_exceed_forbidden():
    rng = Random(52)
    for trial in range(150):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 12), seed=trial, density=0.4, weight_hi=9))
        k = rng.randint(0, 7)
        kr = kernelize(g, k)
        if not kr.empty:
            assert all(1 <= w <= k + 1 for w in kr.reduced.edges.values())


# ------------------------------------------------- preservation + stability

def test_answer_preserved_against_brute_force():
    rng = Random(53)
    checked = 0
    for trial in range(160):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 7), seed=trial, density=0.4, weight_hi=5))
        if len(g.edges) > 13:
            continue
        k = rng.randint(0, 8)
        best, _ = oracles.brute_min_andor(g)
        assert decide_kernel(kernelize(g, k)) == (best <= k)
        checked += 1
    assert checked >= 120


def test_answer_preserved_against_exact_solver():
    rng = Random(54)
    for trial in range(200):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 12), seed=trial, density=0.35, weight_hi=6))
        k = rng.randint(0, 9)
        assert decide_kernel(kernelize(g, k)) == decide_min_andor(g, k), f"trial {trial}"


def test_rekernelizing_is_stable():
    """Without reweighting, a second pass changes nothing; with it, the
    second pass may shrink further but must keep the answer."""
    rng = Random(55)
    quiet = reweighted = 0
    for trial in range(200):
        g = gen_andor(GeneratorConfig(n=rng.randint(1, 12), seed=trial, density=0.4, weight_hi=7))
        k = rng.randint(0, 7)
        kr = kernelize(g, k)
        if kr.empty:
            continue
        again = kernelize(kr.reduced, k)
        if all(r.rule not in (5, 6) for r in kr.log):
            assert again.log == ()
            assert again.reduced == kr.reduced
            quiet += 1
        else:
            assert decide_kernel(again) == decide_kernel(kr)
            reweighted += 1
    assert quiet >= 40 and reweighted >= 20
