"""Command-line behavior: output lines, exit codes, file plumbing.

Each case drives ``main(argv)`` in-process and reads captured stdout/stderr,
so the tests see exactly what a shell would.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from andorxy import (
    parse_graph, parse_solution, solve_andor_tree, solve_xy_tree, validate_andor, validate_xy,
    XYGraph,
)
from andorxy import cli, graphs, textio
from andorxy.cli import main

TREE = "andor\nv a or\nv b or\nv c or\nv d or\nv s and\ne a c 3\ne a d 1\ne s a 1\ne s b 2\ns s\n"
DIAMOND = (
    "andor\nv a or\nv b or\nv s and\nv t or\n"
    "e a t 1\ne b t 1\ne s a 1\ne s b 1\ns s\n"
)
XY_TREE = "xy\nv a 0 0\nv b 0 0\nv c 0 0\nv s 2 3\ne s a 4\ne s b 1\ne s c 7\ns s\n"
K3_EDGES = "a b\na c\nb c\n"


@pytest.fixture
def run(capsys, tmp_path):
    def _run(*argv, files=None):
        paths = {}
        for name, content in (files or {}).items():
            p = tmp_path / name
            p.write_text(content)
            paths[name] = str(p)
        resolved = [paths.get(a, a) for a in argv]
        code = main(resolved)
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    _run.dir = tmp_path
    return _run


# ------------------------------------------------------------------ validate

def test_validate_ok(run):
    code, out, _ = run("validate", "g.txt", files={"g.txt": TREE})
    assert code == 0
    assert out == "valid andor graph: 5 vertices, 4 edges\n"


def test_validate_cycle_exit_2(run):
    bad = "andor\nv s and\nv a or\ne s a 1\ne a s 1\ns s\n"
    code, out, _ = run("validate", "g.txt", files={"g.txt": bad})
    assert code == 2
    assert "cycle" in out


def test_validate_family_f_yes_on_cover_gadget(run, tmp_path):
    gadget = tmp_path / "gadget.txt"
    code, out, _ = run("reduce", "vc", "k3.txt", "--k", "2", "-o", str(gadget),
                       files={"k3.txt": K3_EDGES})
    assert code == 0
    code, out, _ = run("validate", str(gadget), "--family-f")
    assert code == 0
    assert "family-f: yes" in out


def test_validate_family_f_no_is_exit_1(run):
    heavy = "andor\nv s and\nv a or\ne s a 2\ns s\n"
    code, out, _ = run("validate", "g.txt", "--family-f", files={"g.txt": heavy})
    assert code == 1
    assert "family-f: no" in out


def test_validate_flag_kind_mismatches(run):
    code, _, err = run("validate", "g.txt", "--family-f", files={"g.txt": XY_TREE})
    assert code == 2 and "not an and/or graph" in err
    code, _, err = run("validate", "g.txt", "--xy-tree", files={"g.txt": TREE})
    assert code == 2 and "not an x-y graph" in err


def test_validate_xy_tree_flag(run):
    code, out, _ = run("validate", "g.txt", "--xy-tree", files={"g.txt": XY_TREE})
    assert code == 0 and "xy-tree: yes" in out
    xy_diamond = (
        "xy\nv a 1 1\nv b 1 1\nv s 2 2\nv t 0 0\n"
        "e a t 1\ne b t 1\ne s a 1\ne s b 1\ns s\n"
    )
    code, out, _ = run("validate", "g.txt", "--xy-tree", files={"g.txt": xy_diamond})
    assert code == 1 and "xy-tree: no" in out


@pytest.mark.parametrize("flag, text, line", [
    ("--xy-tree", XY_TREE, "xy-tree: yes"),
    ("--family-f", TREE, "family-f: no"),
], ids=["xy-tree", "family-f"])
def test_validate_membership_flags_validate_once(run, monkeypatch, flag, text, line):
    calls = []
    originals = {name: getattr(graphs, name) for name in ("validate_andor", "validate_xy")}
    for module in (graphs, textio):
        for name, real in originals.items():
            monkeypatch.setattr(module, name, lambda g, real=real: calls.append(g) or real(g))
    code, out, _ = run("validate", "g.txt", flag, files={"g.txt": text})
    assert line in out and code == (0 if line.endswith("yes") else 1)
    assert len(calls) == 1


def test_validate_missing_file(run):
    code, _, err = run("validate", "/nonexistent/path.txt")
    assert code == 2


# --------------------------------------------------------------------- solve

def test_solve_exact_prints_optimum(run):
    code, out, _ = run("solve", "g.txt", files={"g.txt": TREE})
    assert code == 0
    assert out == "optimum 4\n"


def test_solve_decision_exit_codes(run):
    code, out, _ = run("solve", "g.txt", "--k", "4", files={"g.txt": TREE})
    assert code == 0 and out.endswith("YES\n")
    code, out, _ = run("solve", "g.txt", "--k", "3", files={"g.txt": TREE})
    assert code == 1 and out.endswith("NO\n")


def test_solve_witness_round_trip(run, tmp_path):
    wit = tmp_path / "w.txt"
    code, out, _ = run("solve", "g.txt", "-o", str(wit), files={"g.txt": TREE})
    assert code == 0
    g = tmp_path / "g2.txt"
    g.write_text(TREE)
    code, out, _ = run("verify", str(g), str(wit))
    assert code == 0
    assert out == "weight 4\n"


def test_solve_tree_methods(run):
    code, out, _ = run("solve", "g.txt", "--method", "tree", files={"g.txt": TREE})
    assert code == 0 and out == "optimum 4\n"
    code, out, _ = run("solve", "g.txt", "--method", "xytree", files={"g.txt": XY_TREE})
    assert code == 0 and out == "optimum 5\n"


def test_solve_method_kind_mismatch(run):
    code, _, err = run("solve", "g.txt", "--method", "tree", files={"g.txt": XY_TREE})
    assert code == 2 and "needs an and/or input" in err
    code, _, err = run("solve", "g.txt", "--method", "xytree", files={"g.txt": TREE})
    assert code == 2 and "needs an x-y input" in err


def test_solve_tree_method_on_dag_is_invalid_input(run):
    code, _, err = run("solve", "g.txt", "--method", "tree", files={"g.txt": DIAMOND})
    assert code == 2 and "not an out-tree" in err


def test_solve_bounds(run):
    code, out, _ = run("solve", "g.txt", "--method", "lower", files={"g.txt": DIAMOND})
    assert code == 0 and out == "lower-bound 2\n"
    code, out, _ = run("solve", "g.txt", "--method", "upper", files={"g.txt": DIAMOND})
    assert code == 0 and out == "upper-bound 4\n"
    # the decision flag compares whatever value the method printed
    code, out, _ = run("solve", "g.txt", "--method", "lower", "--k", "2",
                       files={"g.txt": DIAMOND})
    assert code == 0 and out.endswith("YES\n")


def test_solve_exact_weight_decision(run, tmp_path):
    gadget = tmp_path / "ss.txt"
    code, out, _ = run("reduce", "ss", "inst.txt", "-o", str(gadget),
                       files={"inst.txt": "2 8\n2 3 5\n"})
    assert code == 0 and out == "threshold 10\n"
    code, out, _ = run("solve", str(gadget), "--exact-weight", "10")
    assert code == 0 and out == "YES\n"
    code, out, _ = run("solve", str(gadget), "--exact-weight", "11")
    assert code == 1 and out == "NO\n"


def test_solve_exact_weight_above_total_is_no(run):
    # the weight-k bitset would need 2**62 bits; the total weight settles it
    code, out, err = run("solve", "g.txt", "--exact-weight", str(2**62), files={"g.txt": XY_TREE})
    assert (code, out, err) == (1, "NO\n", "")


def test_solve_exact_weight_needs_xy(run):
    code, _, err = run("solve", "g.txt", "--exact-weight", "3", files={"g.txt": TREE})
    assert code == 2 and "x-y tree" in err


def test_solve_budget_zero_is_limit_exit(run):
    code, _, err = run("solve", "g.txt", "--budget", "0", files={"g.txt": DIAMOND})
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("graph", [DIAMOND, TREE])
def test_solve_nan_budget_is_invalid_exit(run, graph):
    # rejected before the bounds could settle the answer, so a tree is no exception
    code, out, err = run("solve", "g.txt", "--budget", "nan", files={"g.txt": graph})
    assert (code, out) == (2, "")
    assert err == "budget must be a number of seconds, got nan\n"


def test_solve_overflow_is_limit_exit(run):
    lines = ["andor"]
    prev = "s"
    lines.append("v s and")
    for i in range(70):
        a, b, nxt = f"a{i:02d}", f"b{i:02d}", f"m{i:02d}"
        lines += [f"v {a} and", f"v {b} and", f"v {nxt} and"]
        lines += [f"e {prev} {a} 1", f"e {prev} {b} 1", f"e {a} {nxt} 1", f"e {b} {nxt} 1"]
        prev = nxt
    lines.append("s s")
    # vertex lines must precede the edges that mention them
    vs = [l for l in lines if l.startswith("v ")]
    es = [l for l in lines if l.startswith("e ")]
    text = "\n".join(["andor"] + vs + es + ["s s"]) + "\n"
    code, _, err = run("solve", "g.txt", "--method", "upper", files={"g.txt": text})
    assert code == 3 and "weight sum exceeds" in err


def _hub(k):
    """And-source over k or-vertices, each choosing between a shared and-vertex
    (weight 1, plus one weight-k/2 edge below it) and its own sink (weight 2).
    The exact search first descends one frame per or-vertex, each taking its
    sink; once an option includes the shared vertex, every or-vertex still
    pending takes its weight-1 edge into it without a frame."""
    vs = ["v s and", "v c and", "v z or"]
    es = [f"e c z {k // 2}"]
    for i in range(k):
        vs += [f"v o{i:03d} or", f"v t{i:03d} or"]
        es += [f"e s o{i:03d} 1", f"e o{i:03d} c 1", f"e o{i:03d} t{i:03d} 2"]
    return "\n".join(["andor"] + vs + es + ["s s"]) + "\n"


def test_solve_deep_search_runs_under_a_low_recursion_limit(run):
    # the search keeps its frames on a stack of its own: a recursion limit
    # 60 frames above the caller leaves the deep hub's answer unchanged
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        shallow = run("solve", "small.txt", "--budget", "5", files={"small.txt": _hub(4)})
        deep = run("solve", "hub.txt", "--budget", "5", files={"hub.txt": _hub(100)})
    finally:
        sys.setrecursionlimit(old)
    assert shallow[:2] == (0, "optimum 10\n")
    assert deep == (0, "optimum 250\n", "")


@pytest.mark.parametrize("exc", [MemoryError, KeyError])
def test_unexpected_exception_is_internal_error_exit(run, monkeypatch, exc):
    def broken(args):
        raise exc("detail")

    monkeypatch.setattr(cli, "_cmd_verify", broken)
    code, out, err = run("verify", "g.txt", "h.txt")
    assert (code, out) == (4, "")
    assert err == f"internal error: {exc.__name__}\n"


def test_solve_malformed_file(run):
    code, _, err = run("solve", "g.txt", files={"g.txt": "andor\nv s\ns s\n"})
    assert code == 2 and "vertex line needs" in err


# ----------------------------------------------------------------- kernelize

def test_kernelize_logs_and_writes_kernel(run, tmp_path):
    g = "andor\nv s or\nv a or\nv b or\ne s a 9\ne s b 1\ns s\n"
    out_path = tmp_path / "kernel.txt"
    code, out, err = run("kernelize", "g.txt", "--k", "4", "-o", str(out_path),
                         files={"g.txt": g})
    assert code == 0
    assert "rule 2: remove edge s -> a" in err
    assert "rule 4: remove vertex a" in err
    assert "r 1" in err
    reduced = parse_graph(out_path.read_text())
    assert set(reduced.labels) == {"s", "b"}


def test_kernelize_decide_matches_solve(run):
    g = "andor\nv s or\nv a or\nv b or\ne s a 9\ne s b 1\ns s\n"
    code, out, _ = run("kernelize", "g.txt", "--k", "4", "--decide", files={"g.txt": g})
    assert code == 0 and out.endswith("YES\n")
    code, _, _ = run("solve", "g2.txt", "--k", "4", files={"g2.txt": g})
    assert code == 0


def test_kernelize_source_death_prints_no(run):
    g = "andor\nv s and\nv a or\nv b or\ne s a 3\ne s b 3\ns s\n"
    code, out, err = run("kernelize", "g.txt", "--k", "4", files={"g.txt": g})
    assert code == 1
    assert out == "NO\n"
    assert "rule 1: remove vertex s" in err


def test_kernelize_rejects_zero_weights_and_xy(run):
    z = "andor\nzero-weights\nv s or\nv a or\ne s a 0\ns s\n"
    code, _, err = run("kernelize", "g.txt", "--k", "3", files={"g.txt": z})
    assert code == 2 and "positive edge weights" in err
    code, _, err = run("kernelize", "g.txt", "--k", "3", files={"g.txt": XY_TREE})
    assert code == 2 and "and/or input" in err


# rule 1 drops a, so rule 6 would give (s, x) the forbidden weight k + 1
CAPPED = ("andor\nv a and\nv b or\nv c or\nv d or\nv e or\nv s or\nv x and\n"
          "e a b 2147483647\ne a c 2147483647\ne s d 1\ne s x 1\ne x a 1\ne x e 1\ns s\n")


def test_kernelize_forbidden_weight_above_the_cap_exits_3(run):
    code, out, err = run("kernelize", "g.txt", "--k", "2147483647", "--decide",
                         files={"g.txt": CAPPED})
    assert code == 3 and out == ""
    assert "forbidden weight 2147483648 exceeds the weight cap 2147483647" in err
    code, out, err = run("kernelize", "g.txt", "--k", "2147483646", "--decide",
                         files={"g.txt": CAPPED})
    assert code == 0 and "e s x 2147483647" in out and out.endswith("YES\n")
    assert "rule 6: reweight edge s -> x to forbidden" in err


def test_kernelize_huge_k_with_nothing_to_poison(run):
    code, out, err = run("kernelize", "g.txt", "--k", str(10**30), "--decide",
                         files={"g.txt": TREE})
    assert code == 0 and out == TREE + "YES\n"
    assert err == "r 1\n"


def test_kernelize_stdout_graph_when_no_output_file(run):
    g = "andor\nv s or\nv a or\ne s a 1\ns s\n"
    code, out, _ = run("kernelize", "g.txt", "--k", "2", files={"g.txt": g})
    assert code == 0
    assert parse_graph(out).edges == {("s", "a"): 1}


# -------------------------------------------------------------------- reduce

def test_reduce_vc_threshold_and_sidecar(run, tmp_path):
    gadget = tmp_path / "vc.txt"
    code, out, _ = run("reduce", "vc", "k3.txt", "--k", "2", "-o", str(gadget),
                       files={"k3.txt": K3_EDGES})
    assert code == 0 and out == "threshold 8\n"
    sidecar = tmp_path / "vc.txt.map"
    assert sidecar.exists()
    lines = sidecar.read_text().splitlines()
    assert "a wv_0" in lines and "a-b we_0" in lines
    g = parse_graph(gadget.read_text())
    assert validate_andor(g).ok and len(g.labels) == 10


def test_reduce_map_out_overrides_sidecar_path(run, tmp_path):
    gadget = tmp_path / "g.txt"
    mapping = tmp_path / "custom.map"
    code, _, _ = run("reduce", "ds", "star.txt", "--c", "1",
                     "-o", str(gadget), "--map-out", str(mapping),
                     files={"star.txt": "c l1\nc l2\nc l3\n"})
    assert code == 0
    assert mapping.exists() and not (tmp_path / "g.txt.map").exists()
    assert "c w_0" in mapping.read_text().splitlines()[0]


def test_reduce_thresholds(run):
    code, out, _ = run("reduce", "ds", "k3.txt", "--c", "1", files={"k3.txt": K3_EDGES})
    assert code == 0 and out.startswith("threshold 1\n")
    code, out, _ = run("reduce", "clique", "k3.txt", "--c", "3", files={"k3.txt": K3_EDGES})
    assert code == 0 and out.startswith("threshold 18\n")
    code, out, _ = run("reduce", "ss", "i.txt", files={"i.txt": "1 7\n7\n"})
    assert code == 0 and out.startswith("threshold 8\n")


def test_reduce_clique_gadget_is_valid_xy(run, tmp_path):
    gadget = tmp_path / "cl.txt"
    run("reduce", "clique", "k3.txt", "--c", "3", "-o", str(gadget),
        files={"k3.txt": K3_EDGES})
    g = parse_graph(gadget.read_text())
    assert isinstance(g, XYGraph) and validate_xy(g).ok
    assert len(g.labels) == 13


def test_reduce_missing_parameter(run):
    code, _, err = run("reduce", "vc", "k3.txt", files={"k3.txt": K3_EDGES})
    assert code == 2 and "requires --k" in err
    code, _, err = run("reduce", "clique", "k3.txt", files={"k3.txt": K3_EDGES})
    assert code == 2 and "requires --c" in err


def test_reduce_malformed_source(run):
    code, _, err = run("reduce", "vc", "bad.txt", "--k", "1", files={"bad.txt": "a a\n"})
    assert code == 2 and "self-loop" in err
    code, _, err = run("reduce", "ss", "bad.txt", files={"bad.txt": "1 2 3\n"})
    assert code == 2


def test_reduce_out_of_domain_inputs_exit_2_with_one_line(run):
    code, out, err = run("reduce", "ds", "k3.txt", "--c", "99999999999999999999",
                         files={"k3.txt": K3_EDGES})
    assert (code, out) == (2, "")
    assert err == "c = 99999999999999999999 exceeds the number of vertices 3\n"
    code, out, err = run("reduce", "ss", "i.txt", files={"i.txt": "1 \u0663\n\u0663 1_0 +4\n"})
    assert (code, out, err) == (2, "", "line 1: non-integer token '\u0663'\n")


def test_reduce_then_solve_then_extract_vc(run, tmp_path):
    gadget = tmp_path / "vc.txt"
    run("reduce", "vc", "k3.txt", "--k", "2", "-o", str(gadget), files={"k3.txt": K3_EDGES})
    wit = tmp_path / "w.txt"
    code, _, _ = run("solve", str(gadget), "-o", str(wit))
    assert code == 0
    code, out, _ = run("reduce", "vc", "k3b.txt", "--k", "2",
                       "--extract-from", str(wit), files={"k3b.txt": K3_EDGES})
    assert code == 0
    cert = out.splitlines()[-1]
    assert cert.startswith("certificate ")
    assert len(cert.split()[1:]) == 2  # a 2-cover of the triangle


def test_reduce_then_solve_then_extract_clique(run, tmp_path):
    gadget = tmp_path / "cl.txt"
    run("reduce", "clique", "k3.txt", "--c", "3", "-o", str(gadget), files={"k3.txt": K3_EDGES})
    wit = tmp_path / "w.txt"
    code, _, _ = run("solve", str(gadget), "-o", str(wit))
    assert code == 0
    code, out, _ = run("reduce", "clique", "k3b.txt", "--c", "3",
                       "--extract-from", str(wit), files={"k3b.txt": K3_EDGES})
    assert code == 0
    assert out.splitlines()[-1] == "certificate a b c"


def test_reduce_then_solve_then_extract_ss(run, tmp_path):
    gadget = tmp_path / "ss.txt"
    run("reduce", "ss", "i.txt", "-o", str(gadget), files={"i.txt": "2 8\n2 3 5\n"})
    wit = tmp_path / "w.txt"
    code, _, _ = run("solve", str(gadget), "--exact-weight", "10", "-o", str(wit))
    assert code == 0
    code, out, _ = run("reduce", "ss", "i2.txt", "--extract-from", str(wit),
                       files={"i2.txt": "2 8\n2 3 5\n"})
    assert code == 0
    assert out.splitlines()[-1] == "certificate 1 2"


def test_reduce_then_solve_then_extract_ds(run, tmp_path):
    gadget = tmp_path / "ds.txt"
    run("reduce", "ds", "star.txt", "--c", "1", "-o", str(gadget),
        files={"star.txt": "c l1\nc l2\nc l3\n"})
    wit = tmp_path / "w.txt"
    code, _, _ = run("solve", str(gadget), "-o", str(wit))
    assert code == 0
    code, out, _ = run("reduce", "ds", "s2.txt", "--c", "1", "--extract-from", str(wit),
                       files={"s2.txt": "c l1\nc l2\nc l3\n"})
    assert code == 0
    assert out.splitlines()[-1] == "certificate c"


# -------------------------------------------------------------------- verify

def test_verify_infeasible_names_vertex(run):
    sol = "e s a\n"
    code, out, _ = run("verify", "g.txt", "s.txt",
                       files={"g.txt": DIAMOND, "s.txt": sol})
    assert code == 1
    assert "and vertex s must take all 2 out-edges, has 1" in out


def test_verify_unknown_edge_is_invalid_input(run):
    code, _, err = run("verify", "g.txt", "s.txt",
                       files={"g.txt": DIAMOND, "s.txt": "e a b\n"})
    assert code == 2 and "not an edge of the host graph" in err


def test_verify_empty_solution_on_sink_only_graph(run):
    g = "andor\nv s and\ns s\n"
    code, out, _ = run("verify", "g.txt", "empty.txt",
                       files={"g.txt": g, "empty.txt": ""})
    assert code == 0 and out == "weight 0\n"


# ----------------------------------------------------------------------- gen

def test_gen_is_deterministic(run, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("gen", "andor", "--n", "30", "--seed", "9", "-o", str(a))[0] == 0
    assert run("gen", "andor", "--n", "30", "--seed", "9", "-o", str(b))[0] == 0
    assert a.read_text() == b.read_text()


def test_gen_output_validates(run, tmp_path):
    for kind in ["andor", "andor-tree", "xy", "xy-tree"]:
        p = tmp_path / f"{kind}.txt"
        code, _, _ = run("gen", kind, "--n", "15", "--seed", "4", "--weights", "0:5",
                         "-o", str(p))
        assert code == 0
        code, out, _ = run("validate", str(p))
        assert code == 0 and out.startswith("valid")


def test_gen_n_one(run):
    code, out, _ = run("gen", "andor-tree", "--n", "1")
    assert code == 0 and out == "andor\nv v0 and\ns v0\n" or out == "andor\nv v0 or\ns v0\n"


def test_gen_bad_configs(run):
    code, _, err = run("gen", "andor", "--n", "0")
    assert code == 2
    code, _, err = run("gen", "andor", "--n", "5", "--weights", "7")
    assert code == 2 and "bad config" in err
    code, _, err = run("gen", "andor", "--n", "5", "--weights", "9:2")
    assert code == 2


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_2(run):
    assert run("solve")[0] == 2  # missing file argument
    assert run("frobnicate", "x")[0] == 2
    assert main([]) == 2


def test_help_exits_zero(run):
    assert run("--help")[0] == 0


# A child process lists the modules its program adds to those a bare
# interpreter has once ``site`` has run; ``argv`` holds the file names and
# the directory they are in.
_STARTUP_CHILD = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "argv = sys.argv[1:]\n"
    "{}\n"
    "print('modules', *sorted(set(sys.modules) - before))\n"
)
_SKIPPED_BY_CHECKS = {"andorxy.solvers", "andorxy.kernel", "andorxy.reductions",
                      "andorxy.generators"}


@pytest.mark.parametrize("program, expect_andorxy, never", [
    ("import andorxy", {"andorxy"}, None),
    ("import andorxy.cli",
     {"andorxy", "andorxy.cli", "andorxy.graphs", "andorxy.textio"}, {"numpy", "dataclasses"}),
    ("from andorxy.cli import main\n"
     "assert main(['validate', argv[0], '--xy-tree']) == 0\n"
     "assert main(['verify', argv[0], argv[1]]) == 0",
     {"andorxy", "andorxy.cli", "andorxy.graphs", "andorxy.textio"},
     {"numpy", "dataclasses"} | _SKIPPED_BY_CHECKS),
    # trees above the vectorized switch solve on the index parse_graph built
    ("from andorxy.cli import main\n"
     "for kind, method in (('andor-tree', 'tree'), ('xy-tree', 'xytree')):\n"
     "    path = argv[2] + '/' + kind\n"
     "    assert main(['gen', kind, '--n', '5000', '--seed', '3', '-o', path]) == 0\n"
     "    assert main(['solve', path, '--method', method, '-o', path + '.w']) == 0",
     {"andorxy", "andorxy.cli", "andorxy.graphs", "andorxy.textio", "andorxy.generators",
      "andorxy.solvers"},
     {"numpy", "andorxy.treecore"}),
], ids=["import-package", "import-cli", "validate-verify", "solve-large-trees"])
def test_startup_loads_only_what_the_command_runs(tmp_path, program, expect_andorxy, never):
    graph, solution = tmp_path / "g.txt", tmp_path / "h.txt"
    graph.write_text(XY_TREE)
    solution.write_text("e s a\ne s b\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", _STARTUP_CHILD.format(program), str(graph), str(solution),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    loaded = set(out.splitlines()[-1].split()[1:])
    if never is None:  # nothing at all beyond the expected modules
        assert loaded == expect_andorxy
    else:
        assert {m for m in loaded if m.split(".")[0] == "andorxy"} == expect_andorxy
        assert not loaded & never
    # a witness the child wrote equals the vectorized path's on a new object
    for path in sorted(tmp_path.glob("*-tree")):
        g = parse_graph(path.read_text())
        new = type(g)(g.labels, g.edges, g.source, g.zero_weights_allowed)
        res = (solve_xy_tree if isinstance(g, XYGraph) else solve_andor_tree)(new)
        assert "tree_core" in vars(new)
        assert parse_solution(Path(f"{path}.w").read_text()) == res.witness
