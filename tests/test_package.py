"""The package surface: lazily resolved names, immutable value records, demos, the benchmark."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import andorxy
from andorxy import (
    AndOrGraph,
    FGraph,
    GeneratorConfig,
    SimpleGraph,
    SolutionSubgraph,
    SubsetSumInstance,
    XYGraph,
    solve_exact_andor,
)

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    for name in andorxy.__all__:
        assert getattr(andorxy, name) is not None, name
    assert set(andorxy.__all__) <= set(dir(andorxy))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from andorxy import *", namespace)
    assert set(andorxy.__all__) <= set(namespace)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve_everything'"):
        andorxy.solve_everything  # noqa: B018
    with pytest.raises(ImportError):
        exec("from andorxy import solve_everything", {})


def test_budget_error_is_one_class():
    import andorxy.graphs
    import andorxy.solvers

    assert andorxy.BudgetExceededError is andorxy.solvers.BudgetExceededError
    assert andorxy.BudgetExceededError is andorxy.graphs.BudgetExceededError


def _graph(kind=AndOrGraph):
    labels = {"s": "and", "a": "or"} if kind is AndOrGraph else {"s": (1, 1), "a": (0, 0)}
    return kind(labels, {("s", "a"): 2}, "s")


# pairs of equal but distinct value records, one per record type
RECORDS = [
    (_graph(), _graph()),
    (_graph(XYGraph), _graph(XYGraph)),
    (SolutionSubgraph(frozenset({("s", "a")})), SolutionSubgraph(frozenset({("s", "a")}))),
    (FGraph(frozenset("ab"), ()), FGraph(frozenset("ab"), ())),
    (GeneratorConfig(n=3, seed=1), GeneratorConfig(3, 1)),
    (SimpleGraph.from_pairs([("a", "b")]), SimpleGraph.from_pairs([("b", "a")])),
    (SubsetSumInstance((2, 3), 1, 3), SubsetSumInstance((2, 3), 1, 3)),
    (solve_exact_andor(_graph()), solve_exact_andor(_graph())),
]


@pytest.mark.parametrize("first, second", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_compare_by_value_and_refuse_assignment(first, second):
    assert first is not second and first == second
    assert pickle.loads(pickle.dumps(first)) == first
    field = (getattr(first, "_fields", None) or ("edges",))[0]
    with pytest.raises(AttributeError):
        setattr(first, field, None)
    with pytest.raises(AttributeError):
        first.new_attribute = 1
    assert first == second


def test_graph_kinds_and_fields_distinguish_graphs():
    assert _graph() != _graph(XYGraph)
    assert _graph() != AndOrGraph({"s": "and", "a": "or"}, {("s", "a"): 3}, "s")
    assert _graph() != AndOrGraph({"s": "and", "a": "or"}, {("s", "a"): 2}, "s", True)
    g = _graph()
    assert g.out_adj == {"s": [("a", 2)], "a": []} and g.out_adj is g.out_adj
    assert repr(g) == ("AndOrGraph(labels={'s': 'and', 'a': 'or'}, edges={('s', 'a'): 2}, "
                       "source='s', zero_weights_allowed=False)")


@pytest.mark.parametrize("demo", ["quickstart.py", "reductions_tour.py", "cli_walkthrough.sh"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(ROOT / "demos" / demo)]
    if demo.endswith(".sh"):
        # the walkthrough calls the installed entry point; a shim on PATH stands in
        shim = tmp_path / "andorxy"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m andorxy.cli "$@"\n')
        shim.chmod(0o755)
        env["PATH"] = os.pathsep.join((str(tmp_path), env.get("PATH", "")))
        cmd = ["sh", str(ROOT / "demos" / demo)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.slow
def test_bench_quick_run_passes_its_checks():
    """Every benchmark workload, with its output checks, on tiny inputs."""
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--quick"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
