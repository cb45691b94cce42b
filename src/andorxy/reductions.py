"""Constructive reductions from classic hard problems to solution-subgraph form.

Each ``reduce_*`` builds a gadget graph whose optimum (or exact-weight
feasibility) answers the source question at a closed-form threshold, and
each ``extract_*`` maps an affordable witness back to a certificate for the
source problem.  Gadget vertex ids are deterministic and readable so the
sidecar mapping and diffs stay stable.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    AND,
    OR,
    AndOrGraph,
    Edge,
    SolutionSubgraph,
    VertexId,
    XYGraph,
    _Record,
    require_valid_andor,
    require_valid_xy,
    verify_solution_andor,
    verify_solution_xy,
)


class SimpleGraph(_Record):
    """Undirected simple graph: no self-loops, no parallel edges."""

    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: frozenset[str], edges: frozenset[frozenset[str]]):
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edge {set(e)!r} must join two distinct vertices")
            if not e <= vertices:
                raise ValueError(f"edge {set(e)!r} references an undeclared vertex")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def from_pairs(pairs, extra_vertices=()) -> "SimpleGraph":
        vs = set(extra_vertices)
        es = set()
        for u, v in pairs:
            vs.add(u)
            vs.add(v)
            es.add(frozenset((u, v)))
        return SimpleGraph(frozenset(vs), frozenset(es))

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)

    def adjacent(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges


class SubsetSumInstance(_Record):
    """Pick exactly p of the z values so they total q."""

    __slots__ = _fields = ("z", "p", "q")

    def __init__(self, z: tuple[int, ...], p: int, q: int):
        if any(not isinstance(v, int) or v < 1 for v in z):
            raise ValueError("z values must be positive integers")
        if not isinstance(p, int) or p < 1:
            raise ValueError("p must be a positive integer")
        if not isinstance(q, int) or q < 0:
            raise ValueError("q must be a nonnegative integer")
        if p > len(z):
            raise ValueError(f"p = {p} exceeds the number of values {len(z)}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


class ReductionArtifact(NamedTuple):
    """A gadget instance, its decision threshold, and the entity-to-vertex map."""

    instance: AndOrGraph | XYGraph
    threshold: int
    id_map: dict[str, VertexId]
    kind: str = ""


def _sorted_edge_tokens(g: SimpleGraph) -> list[tuple[str, frozenset[str]]]:
    toks = []
    for e in g.edges:
        u, v = sorted(e)
        toks.append((f"{u}-{v}", e))
    toks.sort()
    return toks


def reduce_vertex_cover(g: SimpleGraph, k: int) -> ReductionArtifact:
    """Vertex cover of size ≤ k becomes solution weight ≤ 2m + k.

    An and-source forces one selector per source edge; each selector picks
    an endpoint gate, and every used gate pays one unit for its private
    sink.  All weights are 1, selector out-degree is 2, and every shared
    gate sits next to a sink, so the gadget stays inside the restricted
    hard family checked by is_in_family_F.

    Vertices isolated in the source graph get no gadget counterpart (their
    gate would be unreachable, and no edge needs them in a cover).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    labels: dict[VertexId, str] = {"s": AND}
    edges: dict[Edge, int] = {}
    id_map: dict[str, VertexId] = {}

    covered = sorted({v for e in g.edges for v in e})
    vidx = {v: j for j, v in enumerate(sorted(g.vertices))}
    for v in covered:
        j = vidx[v]
        labels[f"wv_{j}"] = OR
        labels[f"t_{j}"] = OR
        edges[(f"wv_{j}", f"t_{j}")] = 1
        id_map[v] = f"wv_{j}"

    for i, (tok, e) in enumerate(_sorted_edge_tokens(g)):
        we = f"we_{i}"
        labels[we] = OR
        edges[("s", we)] = 1
        for v in sorted(e):
            edges[(we, f"wv_{vidx[v]}")] = 1
        id_map[tok] = we

    inst = AndOrGraph(labels, edges, "s")
    require_valid_andor(inst)
    m = len(g.edges)
    return ReductionArtifact(inst, 2 * m + k, id_map, "vc")


def extract_vertex_cover(art: ReductionArtifact, h: SolutionSubgraph) -> set[str]:
    """Read a vertex cover off an affordable witness: the used endpoint gates."""
    feasible, weight, violations = verify_solution_andor(art.instance, h)
    if not feasible:
        raise ValueError("witness is infeasible: " + "; ".join(violations))
    if weight > art.threshold:
        raise ValueError(f"witness weight {weight} exceeds threshold {art.threshold}")
    vs = h.vertices(art.instance.source)
    return {tok for tok, gid in art.id_map.items() if gid.startswith("wv_") and gid in vs}


def reduce_subset_sum(inst: SubsetSumInstance) -> ReductionArtifact:
    """Exact subset sum as exact solution weight on a two-level x-y tree.

    The source must select exactly p of the n unit-weight selector edges;
    each selected element then pays its value.  Weight q + p is achievable
    iff some p values sum to q.
    """
    n = len(inst.z)
    labels: dict[VertexId, tuple[int, int]] = {"s": (inst.p, n)}
    edges: dict[Edge, int] = {}
    id_map: dict[str, VertexId] = {}
    for i, zi in enumerate(inst.z):
        u, w = f"u_{i}", f"w_{i}"
        labels[u] = (1, 1)
        labels[w] = (0, 0)
        edges[("s", u)] = 1
        edges[(u, w)] = zi
        id_map[f"z{i}"] = u
    gadget = XYGraph(labels, edges, "s")
    require_valid_xy(gadget)
    return ReductionArtifact(gadget, inst.q + inst.p, id_map, "ss")


def extract_subset(art: ReductionArtifact, witness: SolutionSubgraph) -> set[int]:
    """Indices of the selected elements; their values sum to q, p of them."""
    feasible, weight, violations = verify_solution_xy(art.instance, witness)
    if not feasible:
        raise ValueError("witness is infeasible: " + "; ".join(violations))
    if weight != art.threshold:
        raise ValueError(
            f"witness weight {weight} differs from required weight {art.threshold}"
        )
    out = set()
    for tok, uid in art.id_map.items():
        i = int(tok[1:])
        if (uid, f"w_{i}") in witness.edges:
            out.add(i)
    return out


def reduce_dominating_set(q: SimpleGraph, c: int) -> ReductionArtifact:
    """Dominating set of size ≤ c becomes solution weight ≤ c, zero weights allowed.

    Free edges fan out to one chooser per source vertex; a chooser accepts
    any closed-neighborhood dominator, and only the dominators themselves
    cost one unit each.
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    names = sorted(q.vertices)
    if c > len(names):
        raise ValueError(f"c = {c} exceeds the number of vertices {len(names)}")
    labels: dict[VertexId, str] = {"s": AND}
    edges: dict[Edge, int] = {}
    id_map: dict[str, VertexId] = {}
    for i, v in enumerate(names):
        u, w, t = f"u_{i}", f"w_{i}", f"t_{i}"
        labels[u] = OR
        labels[w] = AND
        labels[t] = OR
        edges[("s", u)] = 0
        edges[(w, t)] = 1
        id_map[v] = w
    for i, vi in enumerate(names):
        for j, vj in enumerate(names):
            if i == j or q.adjacent(vi, vj):
                edges[(f"u_{i}", f"w_{j}")] = 0
    gadget = AndOrGraph(labels, edges, "s", zero_weights_allowed=True)
    require_valid_andor(gadget)
    return ReductionArtifact(gadget, c, id_map, "ds")


def extract_dominating_set(art: ReductionArtifact, h: SolutionSubgraph) -> set[str]:
    """The dominators used by an affordable witness."""
    feasible, weight, violations = verify_solution_andor(art.instance, h)
    if not feasible:
        raise ValueError("witness is infeasible: " + "; ".join(violations))
    if weight > art.threshold:
        raise ValueError(f"witness weight {weight} exceeds threshold {art.threshold}")
    vs = h.vertices(art.instance.source)
    return {tok for tok, gid in art.id_map.items() if gid in vs}


def reduce_clique(q: SimpleGraph, c: int) -> ReductionArtifact:
    """c-clique existence becomes solution weight ≤ c² + 3c on an x-y graph.

    The source picks c candidate vertices.  Each candidate branches to a
    membership gate and an adjacency checker that must route c−1 unit edges
    into other candidates' gates; the budget only balances when those gates
    are shared, i.e. when the candidates are pairwise adjacent.  Candidates
    of degree below c−1 can never check out, so their selector edge carries
    a budget-busting penalty instead of weight 1.
    """
    n = len(q.vertices)
    if not 1 <= c <= n:
        raise ValueError(f"c must be between 1 and {n}, got {c}")
    penalty = c * c + 3 * c + 1
    names = sorted(q.vertices)
    nbrs = {v: sorted(u for u in names if q.adjacent(u, v)) for v in names}
    idx = {v: i for i, v in enumerate(names)}

    labels: dict[VertexId, tuple[int, int]] = {"s": (c, n)}
    edges: dict[Edge, int] = {}
    id_map: dict[str, VertexId] = {}
    for i, v in enumerate(names):
        d = len(nbrs[v])
        u, z, w, t = f"u_{i}", f"z_{i}", f"w_{i}", f"t_{i}"
        labels[u] = (2, 2)
        labels[z] = (c - 1, d) if d >= c - 1 else (d, d)
        labels[w] = (1, 1)
        labels[t] = (0, 0)
        edges[("s", u)] = penalty if d < c - 1 else 1
        edges[(u, z)] = 1
        edges[(u, w)] = 1
        edges[(w, t)] = 1
        for nb in nbrs[v]:
            edges[(z, f"w_{idx[nb]}")] = 1
        id_map[v] = w
    gadget = XYGraph(labels, edges, "s")
    require_valid_xy(gadget)
    return ReductionArtifact(gadget, c * c + 3 * c, id_map, "clique")


def extract_clique(art: ReductionArtifact, h: SolutionSubgraph) -> set[str]:
    """The candidate set of an affordable witness; always a c-clique."""
    feasible, weight, violations = verify_solution_xy(art.instance, h)
    if not feasible:
        raise ValueError("witness is infeasible: " + "; ".join(violations))
    if weight > art.threshold:
        raise ValueError(f"witness weight {weight} exceeds threshold {art.threshold}")
    vs = h.vertices(art.instance.source)
    return {tok for tok, gid in art.id_map.items() if gid in vs}


def parse_simple_graph(text: str) -> SimpleGraph:
    """Edge-list format: `<u> <v>` per line; a lone token declares an
    isolated vertex; `#` starts a comment."""
    vs: set[str] = set()
    pairs: list[tuple[str, str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) == 1:
            vs.add(toks[0])
        elif len(toks) == 2:
            u, v = toks
            if u == v:
                raise ValueError(f"line {ln}: self-loop at {u}")
            pairs.append((u, v))
        else:
            raise ValueError(f"line {ln}: expected one or two tokens, got {len(toks)}")
    return SimpleGraph.from_pairs(pairs, vs)


def serialize_simple_graph(g: SimpleGraph) -> str:
    lines = []
    covered = {v for e in g.edges for v in e}
    for v in sorted(g.vertices - covered):
        lines.append(v)
    for tok, e in _sorted_edge_tokens(g):
        u, v = sorted(e)
        lines.append(f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_subset_sum(text: str) -> SubsetSumInstance:
    """Two significant lines: `p q`, then the whitespace-separated z values.

    Every token is a run of ASCII digits, as in the graph format; ``int()``
    alone would also read '٣', '1_0' and '+4'.
    """
    lines = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((ln, line.split()))
    if len(lines) != 2:
        raise ValueError(f"expected 2 significant lines (p q, then values), got {len(lines)}")
    if len(lines[0][1]) != 2:
        raise ValueError("first line must be: <p> <q>")
    for ln, toks in lines:
        for tok in toks:
            if not (tok.isdecimal() and tok.isascii()):
                raise ValueError(f"line {ln}: non-integer token {tok!r}")
    p, q = map(int, lines[0][1])
    return SubsetSumInstance(tuple(map(int, lines[1][1])), p, q)


def serialize_mapping(id_map: dict[str, VertexId]) -> str:
    return "".join(f"{tok} {gid}\n" for tok, gid in sorted(id_map.items()))
