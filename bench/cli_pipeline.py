"""The ``cli-pipeline`` workload: the andorxy command line, one process at a time.

Each command runs as a child process started the way ``python -m
andorxy.cli`` starts it, with this checkout's ``src/`` on PYTHONPATH.  The
chains are gen -> validate -> solve -> verify on files, plus bounds,
budget decisions that answer YES and NO, kernelization and a vertex-cover
reduction with certificate extraction.  The traced run replays the same
argument lists in-process through ``andorxy.cli.main``.
"""

from __future__ import annotations

import io
import os
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from random import Random

import andorxy as ax
import andorxy.cli  # noqa: F401  (makes ax.cli available)
from harness import Op, interleave
from library import graph_data, oracles, plain, random_simple_graph, witness_problem
from reference import ROOT, milp_optima_in_child, tree_optimum

SRC = ROOT / "src"
CLI_MAIN = Path(__file__).resolve().parent / "cli_main.py"
STARTUP_PROBE = (
    "import os, sys, andorxy.cli\n"
    "src = os.path.join(os.path.realpath(sys.argv[1]), '')\n"
    "if not os.path.realpath(andorxy.cli.__file__).startswith(src): sys.exit(70)\n"
)
GENERATORS = {"andor": ax.gen_andor, "xy": ax.gen_xy,
              "andor-tree": ax.gen_andor_tree, "xy-tree": ax.gen_xy_tree}


@dataclass(frozen=True)
class Spec:
    """One graph a chain generates with ``andorxy gen``."""

    name: str
    kind: str  # a generator kind of ``andorxy gen``
    n: int
    seed: int

    @property
    def family(self) -> str:
        return "xy" if self.kind.startswith("xy") else "andor"

    def build(self):
        return GENERATORS[self.kind](ax.GeneratorConfig(n=self.n, seed=self.seed))


def read_witness(path: Path) -> set[tuple[str, str]]:
    edges = set()
    for line in path.read_text().splitlines():
        _tag, t, h = line.split()
        edges.add((t, h))
    return edges


def expect(code: int, text: str, want_code: int, want_text: str) -> str | None:
    if code != want_code or text.strip() != want_text:
        return f"exit {code} with {text.strip()!r}, expected exit {want_code} with {want_text!r}"
    return None


class CliPipeline:
    name = "cli-pipeline"
    setup_repeats = 15
    SMALL_TREE, LARGE_TREE = 3_000, 12_000
    QUICK_SMALL_TREE, QUICK_LARGE_TREE = 200, 1_000

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        small, large = ((self.QUICK_SMALL_TREE, self.QUICK_LARGE_TREE) if quick
                        else (self.SMALL_TREE, self.LARGE_TREE))
        s = seed * 100
        self.specs = [
            Spec("andor-dag", "andor", 14, s + 1),
            Spec("xy-dag", "xy", 12, s + 2),
            Spec("andor-tree", "andor-tree", small, s + 3),
            Spec("xy-tree", "xy-tree", small, s + 4),
            Spec("andor-tree-large", "andor-tree", large, s + 5),
            Spec("xy-tree-large", "xy-tree", large, s + 6),
        ]
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.max_rss_kib = 0
        self.tracer = None

    def build(self) -> dict:
        """The graphs the chains will generate, and the edge list the reduction reads."""
        graphs = {spec.name: spec.build() for spec in self.specs}
        cover = random_simple_graph(Random(self.seed), 8, 11)
        (self.workdir / "cover.edges").write_text(ax.serialize_simple_graph(cover))
        return {"graphs": graphs, "cover": cover}

    # ------------------------------------------------------------ running

    def _spawn(self, argv: list[str]) -> tuple[int, str]:
        out = self.workdir / "stdout.txt"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(self.workdir / "stderr.txt"), flags, 0o644)]
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        return os.waitstatus_to_exitcode(status), out.read_text()

    def _child(self, args: list[str]) -> tuple[int, str]:
        return self._spawn([sys.executable, str(CLI_MAIN), str(SRC), *args])

    def _in_process(self, args: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        span = self.tracer.span(f"cli.{args[0]}") if self.tracer else nullcontext()
        with redirect_stdout(out), redirect_stderr(io.StringIO()), span:
            code = ax.cli.main(args)
        return code, out.getvalue()

    def startup_ms(self, repeats: int = 5) -> float:
        """Median time of a child process that only imports andorxy.cli."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            code, _ = self._spawn([sys.executable, "-c", STARTUP_PROBE, str(SRC)])
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"start-up probe exited {code}")
        return statistics.median(times) * 1e3

    def peak_rss_mib(self) -> float:
        return self.max_rss_kib / 1024

    # -------------------------------------------------------- the chains

    def make_ops(self, inputs: dict, in_process: bool = False) -> list[Op]:
        graphs = inputs["graphs"]
        dags = [s.name for s in self.specs if s.kind in ("andor", "xy")]
        optima = dict(zip(dags, milp_optima_in_child([plain(graphs[d]) for d in dags],
                                                      self.workdir)))
        for s in self.specs:
            if s.name not in optima:
                optima[s.name] = tree_optimum(*plain(graphs[s.name]))
        run = self._in_process if in_process else self._child

        def op(name, family, args, check) -> Op:
            return Op(f"cli-pipeline/{name}", args[0], family,
                      lambda: run(args), lambda out: check(*out))

        chains = [self._solve_chain(s, graphs[s.name], optima[s.name], op) for s in self.specs]
        # the bounds and decisions read the file that the and/or DAG chain generates
        chains[0] += self._bounds_and_decisions(graphs["andor-dag"], optima["andor-dag"], op)
        chains.append(self._cover_chain(inputs["cover"], op))
        return interleave(Random(self.seed), chains)

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _solve_chain(self, spec: Spec, g, opt: int, op) -> list[Op]:
        f, w, fam = self._path(f"{spec.name}.graph"), self._path(f"{spec.name}.sol"), spec.family
        method = {"andor-tree": ["--method", "tree"], "xy-tree": ["--method", "xytree"]}.get(
            spec.kind, [])
        header = "xy" if fam == "xy" else "andor"
        valid = f"valid {header} graph: {len(g.labels)} vertices, {len(g.edges)} edges"

        def solved(code, text):
            return (expect(code, text, 0, f"optimum {opt}")
                    or witness_problem(g, read_witness(Path(w)), opt))

        return [
            op(f"{spec.name}/gen", fam, ["gen", spec.kind, "--n", str(spec.n), "--seed",
                                         str(spec.seed), "-o", f],
               lambda code, text: expect(code, text, 0, "")),
            op(f"{spec.name}/validate", fam, ["validate", f],
               lambda code, text: expect(code, text, 0, valid)),
            op(f"{spec.name}/solve", fam, ["solve", f, *method, "-o", w], solved),
            op(f"{spec.name}/verify", fam, ["verify", f, w],
               lambda code, text: expect(code, text, 0, f"weight {opt}")),
        ]

    def _bounds_and_decisions(self, g, opt: int, op) -> list[Op]:
        """Bounds, --k decisions that answer YES and NO, and kernelize --decide."""
        f, up = self._path("andor-dag.graph"), self._path("andor-dag.upper.sol")

        def lower(code, text):
            value = int(text.split()[-1]) if code == 0 and text.startswith("lower-bound ") else None
            if value is None or value > opt:
                return f"exit {code} with {text.strip()!r}, expected a lower bound <= {opt}"
            return None

        def upper(code, text):
            value = int(text.split()[-1]) if code == 0 and text.startswith("upper-bound ") else None
            if value is None or value < opt:
                return f"exit {code} with {text.strip()!r}, expected an upper bound >= {opt}"
            return witness_problem(g, read_witness(Path(up)), value)

        def upper_weight(code, text):
            weight = sum(g.edges[e] for e in read_witness(Path(up)))
            return expect(code, text, 0, f"weight {weight}")

        def decision(k):
            yes = opt <= k
            return lambda code, text: expect(code, text, 0 if yes else 1,
                                             f"optimum {opt}\n{'YES' if yes else 'NO'}")

        def kernel_decision(k):
            yes = opt <= k

            def check(code, text):
                last = text.split()[-1] if text.split() else ""
                if code != (0 if yes else 1) or last != ("YES" if yes else "NO"):
                    return f"exit {code} with {text.strip()!r} at k={k}, optimum {opt}"
                return None
            return check

        ops = [
            op("andor-dag/lower", "andor", ["solve", f, "--method", "lower"], lower),
            op("andor-dag/upper", "andor", ["solve", f, "--method", "upper", "-o", up], upper),
            op("andor-dag/verify-upper", "andor", ["verify", f, up], upper_weight),
        ]
        for k in (opt, opt - 1):
            ops.append(op(f"andor-dag/solve-k{k}", "andor", ["solve", f, "--k", str(k)],
                          decision(k)))
            ops.append(op(f"andor-dag/kernelize-k{k}", "andor",
                          ["kernelize", f, "--k", str(k), "--decide", "-o",
                           self._path("andor-dag.kernel")], kernel_decision(k)))
        return ops

    def _cover_chain(self, cover, op) -> list[Op]:
        verts, pairs = graph_data(cover)
        number = oracles.vertex_cover_number(verts, pairs)
        m = len(pairs)
        edges, gadget, sol = (self._path("cover.edges"), self._path("cover.graph"),
                              self._path("cover.sol"))
        k = number
        threshold = f"threshold {2 * m + k}"

        def certificate(code, text):
            lines = text.strip().splitlines()
            if code != 0 or len(lines) != 2 or lines[0] != threshold:
                return f"exit {code} with {text.strip()!r}"
            chosen = set(lines[1].split()[1:])
            if len(chosen) > k or any(u not in chosen and v not in chosen for u, v in pairs):
                return f"certificate {sorted(chosen)} is not a vertex cover of size <= {k}"
            return None

        reduce = ["reduce", "vc", edges, "--k", str(k)]
        return [
            op("cover/reduce", "andor", [*reduce, "-o", gadget],
               lambda code, text: expect(code, text, 0, threshold)),
            # the gadget's optimum is 2m plus the cover number
            op("cover/solve", "andor", ["solve", gadget, "-o", sol],
               lambda code, text: expect(code, text, 0, f"optimum {2 * m + number}")),
            op("cover/extract", "andor",
               [*reduce, "--extract-from", sol, "-o", self._path("cover2.graph")], certificate),
        ]
