"""Reference answers computed apart from andorxy.

Nothing here imports andorxy.  Tree optima come from a bottom-up recurrence
written out below; DAG optima come from a 0/1 integer program solved by
``scipy.optimize.milp``; the classic graph numbers come from the brute-force
oracles in ``tests/oracles.py``.  Graphs travel as plain data:
``(kind, labels, edges, source)`` where ``kind`` is "andor" or "xy",
``labels`` maps a vertex to "and"/"or" or to an ``(x, y)`` pair and
``edges`` maps ``(tail, head)`` to a weight.

Run as a script, this module reads a JSON list of such graphs and writes
their integer-program optima as a JSON list.  The benchmark starts it in a
child process, so scipy never adds to the resident set of a process that
runs andorxy code.
"""

from __future__ import annotations

import heapq
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_oracles():
    """The test suite's brute-force oracles, loaded by path."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def demand(kind: str, label, out_degree: int) -> int:
    """How many out-edges a solution takes at a vertex it contains."""
    if out_degree == 0:
        return 0
    if kind == "xy":
        return label[0]
    return out_degree if label == "and" else 1


def tree_optimum(kind: str, labels: dict, edges: dict, source: str) -> int:
    """Optimum of an out-tree: each vertex pays its x cheapest (weight + child cost)."""
    children: dict[str, list[tuple[str, int]]] = {v: [] for v in labels}
    for (t, h), w in edges.items():
        children[t].append((h, w))
    order = [source]
    for v in order:  # grows while iterating: a breadth-first order
        order.extend(h for h, _w in children[v])
    cost: dict[str, int] = {}
    for v in reversed(order):
        kids = children[v]
        x = demand(kind, labels[v], len(kids))
        cost[v] = sum(heapq.nsmallest(x, (w + cost[h] for h, w in kids)))
    return cost[source]


def milp_optimum(kind: str, labels: dict, edges: dict, source: str) -> int:
    """Optimum of a DAG instance as a 0/1 integer program.

    One variable per edge (taken or not) and per vertex (in the solution or
    not).  The source is in; a vertex in the solution takes exactly its
    demand of out-edges and nothing out of a vertex that is not; a taken
    edge brings its head in; a non-source vertex is in only if a taken edge
    enters it.  In an acyclic graph the last rule makes every vertex of the
    solution reachable from the source inside the solution.
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    names = sorted(labels)
    pos = {v: i for i, v in enumerate(names)}
    elist = sorted(edges)
    n, m = len(names), len(elist)
    outs: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    for j, (t, h) in enumerate(elist):
        outs[pos[t]].append(j)
        ins[pos[h]].append(j)

    rows, lo, hi = [], [], []

    def add(coeffs: dict[int, float], lower: float, upper: float) -> None:
        row = np.zeros(m + n)
        for col, c in coeffs.items():
            row[col] = c
        rows.append(row)
        lo.append(lower)
        hi.append(upper)

    add({m + pos[source]: 1}, 1, 1)
    for i, v in enumerate(names):
        x = demand(kind, labels[v], len(outs[i]))
        if outs[i]:
            add({**{j: 1 for j in outs[i]}, m + i: -x}, 0, 0)
        if i != pos[source]:
            add({m + i: 1, **{j: -1 for j in ins[i]}}, -np.inf, 0)
    for j, (_t, h) in enumerate(elist):
        add({j: 1, m + pos[h]: -1}, -np.inf, 0)

    cost = np.concatenate([np.array([edges[e] for e in elist], dtype=float), np.zeros(n)])
    res = milp(
        cost,
        constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=np.ones(m + n),
        bounds=(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"integer program failed: {res.message}")
    return round(res.fun)


def to_plain(kind: str, labels: dict, edges: dict, source: str) -> list:
    """JSON-ready form of a graph (edge keys become lists)."""
    return [kind, labels, [[t, h, w] for (t, h), w in edges.items()], source]


def from_plain(item: list) -> tuple:
    kind, labels, edge_rows, source = item
    if kind == "xy":
        labels = {v: tuple(lab) for v, lab in labels.items()}
    return kind, labels, {(t, h): w for t, h, w in edge_rows}, source


def milp_optima_in_child(graphs: list[tuple], workdir: Path) -> list[int]:
    """Integer-program optima of ``(kind, labels, edges, source)`` graphs, from a child process."""
    import subprocess

    src = workdir / "milp_in.json"
    dst = workdir / "milp_out.json"
    src.write_text(json.dumps([to_plain(*g) for g in graphs]))
    subprocess.run([sys.executable, __file__, str(src), str(dst)], check=True)
    return json.loads(dst.read_text())


def main(argv: list[str]) -> int:
    if "andorxy" in sys.modules:
        raise RuntimeError("the reference process must not import andorxy")
    items = json.loads(Path(argv[0]).read_text())
    optima = [milp_optimum(*from_plain(item)) for item in items]
    if "andorxy" in sys.modules:
        raise RuntimeError("the reference process imported andorxy")
    Path(argv[1]).write_text(json.dumps(optima))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
