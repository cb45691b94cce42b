"""The two library workloads: ``tree-large`` and ``exact-mix``.

Every timed operation gets a graph object it has not seen before (see
``harness.fresh``), so cached adjacency never carries over between
operations.  Reference answers are computed after set-up and before the
timed rounds, by code that does not call andorxy (``reference.py`` and the
oracles of the test suite).
"""

from __future__ import annotations

import resource
from pathlib import Path
from random import Random

import andorxy as ax
from harness import Op, fresh
from reference import load_oracles, milp_optima_in_child, tree_optimum

oracles = load_oracles()


def witness_problem(g, edges, expected_weight: int) -> str | None:
    """First-principles feasibility and weight of a witness edge set, or None when both hold."""
    feasible = oracles.feasible_xy if isinstance(g, ax.XYGraph) else oracles.feasible_andor
    if not edges <= g.edges.keys() or not feasible(g, edges):
        return "witness is infeasible"
    weight = sum(g.edges[e] for e in edges)
    if weight != expected_weight:
        return f"witness weighs {weight}, expected {expected_weight}"
    return None


def peak_rss_mib() -> float:
    """Largest resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def plain(g) -> tuple:
    kind = "xy" if isinstance(g, ax.XYGraph) else "andor"
    return kind, g.labels, g.edges, g.source


# --------------------------------------------------------------- tree-large

class TreeLarge:
    """Out-trees well above the 4096-vertex switch to the vectorized solver.

    Each operation solves one tree and verifies the witness.  Tree i of a
    round is of kind i mod 3 and has a size drawn from the i-th of equal
    slices of the size range, so the sizes cover the range evenly: a run's
    total work hardly depends on the seed, and operation times spread
    without gaps, which keeps their median steady.  The all-and tree's
    witness is every edge, so its verification walks the whole tree.
    """

    name = "tree-large"
    setup_repeats = 3
    TREES, LOW, HIGH = 24, 8_000, 40_000
    QUICK_TREES, QUICK_LOW, QUICK_HIGH = 3, 5_000, 5_000
    KINDS = (("mixed", 0.5), ("all-and", 1.0), ("xy", 0.5))  # kind, and-fraction

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.trees, self.low, self.high = (
            (self.QUICK_TREES, self.QUICK_LOW, self.QUICK_HIGH) if quick
            else (self.TREES, self.LOW, self.HIGH))

    def build(self) -> list[tuple[str, int, ax.AndOrGraph | ax.XYGraph]]:
        rng = Random(self.seed)
        out = []
        for i in range(self.trees):
            n = self.low + int((self.high - self.low) * (i + rng.random()) / self.trees)
            kind, and_fraction = self.KINDS[i % 3]
            cfg = ax.GeneratorConfig(n=n, seed=self.seed * 1000 + i, and_fraction=and_fraction)
            g = (ax.gen_xy_tree if kind == "xy" else ax.gen_andor_tree)(cfg)
            out.append((kind, n, g))
        return out

    def make_ops(self, inputs, in_process: bool = False) -> list[Op]:
        ops = [self._op(kind, n, g) for kind, n, g in inputs]
        Random(self.seed).shuffle(ops)
        return ops

    @staticmethod
    def _op(kind: str, n: int, g) -> Op:
        xy = isinstance(g, ax.XYGraph)
        optimum = tree_optimum(*plain(g))

        def action(graph):
            # looked up on each call, so that the traced run sees its wrappers
            if xy:
                res = ax.solve_xy_tree(graph)
                return res, ax.verify_solution_xy(graph, res.witness)
            res = ax.solve_andor_tree(graph)
            return res, ax.verify_solution_andor(graph, res.witness)

        def check(out) -> str | None:
            res, rep = out
            if res.optimum != optimum:
                return f"optimum {res.optimum}, reference recurrence says {optimum}"
            if not rep.feasible or rep.weight != res.optimum:
                return f"verify says feasible={rep.feasible} weight={rep.weight}"
            return witness_problem(g, res.witness.edges, optimum)

        return Op(f"tree-large/{kind}-{n}", kind, "xy" if xy else "andor",
                  action, check, lambda: (fresh(g),))

    peak_rss_mib = staticmethod(peak_rss_mib)


# ---------------------------------------------------------------- exact-mix

def random_simple_graph(rng: Random, n: int, m: int) -> ax.SimpleGraph:
    """n vertices and m distinct random edges."""
    names = [f"a{i:02d}" for i in range(n)]
    pairs = rng.sample([(u, v) for i, u in enumerate(names) for v in names[i + 1:]], m)
    return ax.SimpleGraph.from_pairs(pairs, names)


def graph_data(g: ax.SimpleGraph) -> tuple[list[str], list[tuple[str, str]]]:
    return sorted(g.vertices), [tuple(sorted(e)) for e in g.edges]


class ExactMix:
    """Branch-and-bound, bounds, gadgets, kernel and budget decisions on small DAGs.

    Single solves take from a fraction of a millisecond to about ten.  The
    random DAGs are small because branch-and-bound time on them has a heavy
    tail that grows with n (x-y DAGs with 20 vertices: median 0.9 ms,
    maximum 18 ms over 60 seeds); the gadgets, built on graphs with a fixed
    vertex and edge count, vary much less.  Many instances per round then
    keep a round's total work nearly independent of the seed.
    """

    name = "exact-mix"
    setup_repeats = 25
    # instances per round of each kind; "budget" instances get two budget
    # decisions and two kernel decisions each
    COUNTS = {"andor-dag": 24, "xy-dag": 24, "vc": 40, "ds": 40, "clique": 60, "ss": 12,
              "budget": 8}
    QUICK_COUNTS = {k: 2 for k in COUNTS}

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.counts = self.QUICK_COUNTS if quick else self.COUNTS

    def build(self) -> dict[str, list]:
        c = self.counts
        base = self.seed * 10_000

        def andor_dag(i):
            return ax.gen_andor(ax.GeneratorConfig(n=30, seed=base + i))

        inputs: dict[str, list] = {
            "andor-dag": [andor_dag(i) for i in range(c["andor-dag"])],
            "xy-dag": [ax.gen_xy(ax.GeneratorConfig(n=14, seed=base + 1000 + i))
                       for i in range(c["xy-dag"])],
            "budget": [andor_dag(2000 + i) for i in range(c["budget"])],
        }
        rng = Random(base + 3000)
        inputs["vc"] = [random_simple_graph(rng, 11, 18) for _ in range(c["vc"])]
        inputs["ds"] = [random_simple_graph(rng, 12, 18) for _ in range(c["ds"])]
        inputs["clique"] = [random_simple_graph(rng, 9, 18) for _ in range(c["clique"])]
        ss = []
        for i in range(c["ss"]):
            z = tuple(rng.randint(1, 60) for _ in range(20))
            # even instances are built to be YES; odd ones take their chance
            q = sum(rng.sample(z, 6)) if i % 2 == 0 else rng.randint(6, 300)
            ss.append(ax.SubsetSumInstance(z, 6, q))
        inputs["ss"] = ss
        return inputs

    def make_ops(self, inputs, in_process: bool = False) -> list[Op]:
        dags = inputs["andor-dag"] + inputs["xy-dag"] + inputs["budget"]
        milp = milp_optima_in_child([plain(g) for g in dags], self.workdir)
        optima = dict(zip(map(id, dags), milp))
        ops: list[Op] = []
        for i, g in enumerate(inputs["andor-dag"]):
            ops.append(self._andor_dag(f"andor-dag-{i}", g, optima[id(g)]))
        for i, g in enumerate(inputs["xy-dag"]):
            ops.append(self._xy_dag(f"xy-dag-{i}", g, optima[id(g)]))
        for i, g in enumerate(inputs["budget"]):
            opt = optima[id(g)]
            for k in (opt - 1, opt):
                ops.append(self._decide(f"decide-{i}-k{k}", g, k, opt))
                ops.append(self._kernel(f"kernel-{i}-k{k}", g, k, opt))
        for i, q in enumerate(inputs["vc"]):
            verts, pairs = graph_data(q)
            number = oracles.vertex_cover_number(verts, pairs)
            ops.append(self._vc(f"vc-{i}", q, max(0, number - i % 2), number))
        for i, q in enumerate(inputs["ds"]):
            verts, pairs = graph_data(q)
            number = oracles.domination_number(verts, pairs)
            ops.append(self._ds(f"ds-{i}", q, number - i % 2, number))
        for i, q in enumerate(inputs["clique"]):
            verts, pairs = graph_data(q)
            c = 3 + i % 2
            ops.append(self._clique(f"clique-{i}", q, c, oracles.has_clique(verts, pairs, c)))
        for i, inst in enumerate(inputs["ss"]):
            exists = oracles.subset_sum_exists(inst.z, inst.p, inst.q)
            ops.append(self._ss(f"ss-{i}", inst, exists))
        Random(self.seed).shuffle(ops)
        return ops

    @staticmethod
    def _andor_dag(name, g, opt) -> Op:
        def action(graph):
            return (ax.solve_exact_andor(graph), ax.schedule_lower_bound(graph),
                    ax.dp_upper_bound(graph))

        def check(out):
            res, sched, upper = out
            lower = sched.times[g.source]
            if res.optimum != opt:
                return f"optimum {res.optimum}, integer program says {opt}"
            if not lower <= opt <= upper.optimum:
                return f"bounds {lower} <= {opt} <= {upper.optimum} do not hold"
            return (witness_problem(g, res.witness.edges, opt)
                    or witness_problem(g, upper.witness.edges, upper.optimum))

        return Op(f"exact-mix/{name}", "andor-dag", "andor", action, check, lambda: (fresh(g),))

    @staticmethod
    def _xy_dag(name, g, opt) -> Op:
        def check(res):
            if res.optimum != opt:
                return f"optimum {res.optimum}, integer program says {opt}"
            return witness_problem(g, res.witness.edges, opt)

        return Op(f"exact-mix/{name}", "xy-dag", "xy", lambda graph: ax.solve_exact_xy(graph), check,
                  lambda: (fresh(g),))

    @staticmethod
    def _decide(name, g, k, opt) -> Op:
        def check(yes):
            return None if yes == (opt <= k) else f"answered {yes} at k={k}, optimum {opt}"

        return Op(f"exact-mix/{name}", "decide", "andor",
                  lambda graph, k: ax.decide_min_andor(graph, k), check,
                  lambda: (fresh(g), k))

    @staticmethod
    def _kernel(name, g, k, opt) -> Op:
        def action(graph, k):
            return ax.decide_kernel(ax.kernelize(graph, k))

        def check(yes):
            return None if yes == (opt <= k) else f"answered {yes} at k={k}, optimum {opt}"

        return Op(f"exact-mix/{name}", "kernel", "andor", action, check,
                  lambda: (fresh(g), k))

    @staticmethod
    def _vc(name, q, k, number) -> Op:
        def action():
            art = ax.reduce_vertex_cover(q, k)
            res = ax.solve_exact_andor(art.instance)
            yes = res.optimum <= art.threshold
            return art, res, yes, ax.extract_vertex_cover(art, res.witness) if yes else None

        def check(out):
            art, res, yes, cover = out
            if yes != (number <= k):
                return f"gadget answered {yes} at k={k}, cover number {number}"
            if yes and (len(cover) > k or any(not e & cover for e in q.edges)):
                return f"extracted {sorted(cover)} is not a cover of size <= {k}"
            return witness_problem(art.instance, res.witness.edges, res.optimum)

        return Op(f"exact-mix/{name}", "vc", "andor", action, check)

    @staticmethod
    def _ds(name, q, c, number) -> Op:
        def action():
            art = ax.reduce_dominating_set(q, c)
            res = ax.solve_exact_andor(art.instance)
            yes = res.optimum <= art.threshold
            return art, res, yes, ax.extract_dominating_set(art, res.witness) if yes else None

        def check(out):
            art, res, yes, dom = out
            if yes != (number <= c):
                return f"gadget answered {yes} at c={c}, domination number {number}"
            if yes:
                covered = set(dom)
                for e in q.edges:
                    if e & dom:
                        covered |= e
                if len(dom) > c or covered != q.vertices:
                    return f"extracted {sorted(dom)} is not a dominating set of size <= {c}"
            return witness_problem(art.instance, res.witness.edges, res.optimum)

        return Op(f"exact-mix/{name}", "ds", "andor", action, check)

    @staticmethod
    def _clique(name, q, c, exists) -> Op:
        def action():
            art = ax.reduce_clique(q, c)
            res = ax.solve_exact_xy(art.instance)
            yes = res.optimum <= art.threshold
            return art, res, yes, ax.extract_clique(art, res.witness) if yes else None

        def check(out):
            art, res, yes, members = out
            if yes != exists:
                return f"gadget answered {yes} for a {c}-clique, brute force says {exists}"
            if yes:
                ms = sorted(members)
                if len(ms) != c or not all(q.adjacent(u, v) for i, u in enumerate(ms)
                                           for v in ms[i + 1:]):
                    return f"extracted {ms} is not a {c}-clique"
            return witness_problem(art.instance, res.witness.edges, res.optimum)

        return Op(f"exact-mix/{name}", "clique", "xy", action, check)

    @staticmethod
    def _ss(name, inst, exists) -> Op:
        def action():
            art = ax.reduce_subset_sum(inst)
            yes, witness = ax.decide_exact_weight_xy_tree(art.instance, art.threshold)
            return art, yes, witness, ax.extract_subset(art, witness) if yes else None

        def check(out):
            art, yes, witness, chosen = out
            if yes != exists:
                return f"answered {yes}, brute force says {exists}"
            if yes:
                if len(chosen) != inst.p or sum(inst.z[i] for i in chosen) != inst.q:
                    return f"extracted {sorted(chosen)} does not pick {inst.p} values summing to {inst.q}"
                return witness_problem(art.instance, witness.edges, art.threshold)
            return None

        return Op(f"exact-mix/{name}", "ss", "xy", action, check)

    peak_rss_mib = staticmethod(peak_rss_mib)
