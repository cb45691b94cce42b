"""Core graph types, validation, conversions, and solution checking.

An and/or graph is an acyclic digraph with a distinguished source that
reaches every vertex.  Each vertex is labeled "and" (a solution must take
all of its out-edges) or "or" (exactly one).  An x-y graph generalizes the
labels: a vertex labeled x-y has out-degree y and a solution must take
exactly x of its out-edges.  Sinks are labeled 0-0 and carry no obligation.

A solution subgraph is stored as a bare edge set; its vertex set is the
source plus every endpoint of a chosen edge.  Every vertex of a feasible
solution must be reachable from the source inside the solution itself.

Validating a graph builds the integer index (``_Indexed``) that every
solver, predicate, witness check and the kernelizer read, and caches it on
the graph, or None for an invalid graph.  So the dicts of a graph must not
be mutated after construction: the cached verdict, like the cached
adjacency, would go stale.  A witness check needs a valid host graph of its
kind, as a solver does.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

VertexId = str
Edge = tuple[VertexId, VertexId]

AND = "and"
OR = "or"

# weights are machine integers; sums beyond 2**63-1 are reported, not wrapped
MAX_WEIGHT = 2**31 - 1
MAX_SUM = 2**63 - 1

# instance attribute under which the tree solvers cache a graph's numpy
# index (``treecore.TreeCore``), the way ``index`` caches the scalar one
TREE_CORE = "tree_core"


class InvalidGraphError(ValueError):
    """An operation received a graph that fails validation."""


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[str, ...] = ()


class VerifyResult(NamedTuple):
    """Feasibility verdict: unpacks as (feasible, weight, violations)."""

    feasible: bool
    weight: int
    violations: tuple[str, ...] = ()


class BudgetExceededError(RuntimeError):
    """The exact solver ran out of its wall-clock budget."""


class _Record:
    """Immutable value object.

    Subclasses name their fields in ``_fields`` and set each once, in
    ``__init__``, through ``object.__setattr__``.  Equality, hashing and
    the repr go by the field values, as for a frozen dataclass.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: it is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: it is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class _Graph(_Record):
    """Labels, weighted edges and a source; the base of both graph kinds.

    ``edges`` maps (tail, head) to a weight.  The dicts must not be mutated
    after construction.  ``zero_weights_allowed`` relaxes the
    positive-weight requirement to nonnegative.  Derived adjacency and the
    integer index are cached in the instance ``__dict__``.
    """

    _fields = ("labels", "edges", "source", "zero_weights_allowed")

    def __init__(self, labels: dict, edges: dict[Edge, int], source: VertexId,
                 zero_weights_allowed: bool = False):
        # object.__setattr__ keeps the fast attribute reads that writing to
        # __dict__ directly would lose
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "zero_weights_allowed", zero_weights_allowed)

    @cached_property
    def out_adj(self) -> dict[VertexId, list[tuple[VertexId, int]]]:
        """Out-adjacency, (head, weight) pairs sorted by head id."""
        return _out_adj(self.labels, self.edges)

    @cached_property
    def index(self) -> _Indexed | None:
        """The integer index, built on first use; None when the graph is invalid."""
        return _build_index(self)

    def out_degree(self, v: VertexId) -> int:
        return len(self.out_adj[v])

    def is_sink(self, v: VertexId) -> bool:
        return not self.out_adj[v]

    def total_weight(self) -> int:
        return sum(self.edges.values())


class AndOrGraph(_Graph):
    """And/or graph: ``labels`` maps vertex id to "and" or "or"."""


class XYGraph(_Graph):
    """x-y graph: ``labels`` maps vertex id to an (x, y) pair."""


class FGraph(NamedTuple):
    """Dependency hypergraph: arcs from a single tail to a nonempty head set."""

    vertices: frozenset[VertexId]
    farcs: tuple[tuple[VertexId, frozenset[VertexId]], ...]


class SolutionSubgraph(_Record):
    """A candidate solution: a set of (tail, head) edges."""

    __slots__ = _fields = ("edges",)

    def __init__(self, edges: frozenset[Edge]):
        object.__setattr__(self, "edges", edges)

    @property
    def edge_set(self) -> frozenset[Edge]:
        return self.edges

    def vertices(self, source: VertexId) -> set[VertexId]:
        vs = {source}
        for t, h in self.edges:
            vs.add(t)
            vs.add(h)
        return vs

    def __len__(self) -> int:
        return len(self.edges)


def _out_adj(labels, edges) -> dict[VertexId, list[tuple[VertexId, int]]]:
    adj: dict[VertexId, list[tuple[VertexId, int]]] = {v: [] for v in labels}
    for (t, h), w in edges.items():
        if t in adj:
            adj[t].append((h, w))
    for lst in adj.values():
        lst.sort()
    return adj


def _find_cycle(vertices, out_heads) -> list[VertexId]:
    """Return one directed cycle as a vertex sequence (first == last)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}
    parent: dict[VertexId, VertexId] = {}
    for start in sorted(vertices):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(out_heads.get(start, ())))]
        color[start] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for h in it:
                if h not in color:
                    continue
                if color[h] == GRAY:
                    # walk parents back from v to h
                    cyc = [v]
                    cur = v
                    while cur != h:
                        cur = parent[cur]
                        cyc.append(cur)
                    cyc.reverse()
                    cyc.append(cyc[0])
                    return cyc
                if color[h] == WHITE:
                    color[h] = GRAY
                    parent[h] = v
                    stack.append((h, iter(out_heads.get(h, ()))))
                    advanced = True
                    break
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return []


def plain_ints(values) -> bool:
    """True when every value is an int and none a bool, as validation requires.

    Looks at the set of the values' types, so the per-value cost is one
    ``type`` call.
    """
    return all(issubclass(t, int) and not issubclass(t, bool) for t in set(map(type, values)))


def xy_columns(labels: list) -> tuple[list[int], list[int]] | None:
    """The x and the y values of x-y labels; None unless each is a tuple of two plain ints."""
    if not (all(issubclass(t, tuple) for t in set(map(type, labels)))
            and set(map(len, labels)) <= {2}):
        return None
    xs, ys = list(map(itemgetter(0), labels)), list(map(itemgetter(1), labels))
    return (xs, ys) if plain_ints(xs) and plain_ints(ys) else None


def andor_labels(labels) -> bool:
    """True when every label is "and" or "or"."""
    try:
        return set(labels) <= {AND, OR}
    except TypeError:  # an unhashable label is neither
        return False


class _Indexed(NamedTuple):
    """Integer index of a valid graph, topologically ordered from the source.

    Vertex i is ``names[i]``, and ids sort like indices; ``adj[v]`` holds
    v's (head, weight) out-edges sorted by head, the tie-break order.
    ``xs[v]`` is how many out-edges a solution through v takes: all at an
    and-vertex, one at an or-vertex, x at an x-y vertex, none at a sink.
    """

    names: list[VertexId]
    adj: list[list[tuple[int, int]]]
    src: int
    order: list[int]
    indeg: list[int]
    xs: list[int]
    n: int


def pair_keys(keys) -> bool:
    """True when every edge key is a tuple of two endpoints.

    One pass over the keys' types and one over their lengths, both in C.
    """
    return all(map(issubclass, set(map(type, keys)), repeat(tuple))) and {2}.issuperset(map(len, keys))


def _build_index(g: _Graph) -> _Indexed | None:
    """The index of ``g``, or None when ``g`` breaks a rule of validation."""
    labels, edges = g.labels, g.edges
    names = sorted(labels)
    pos = dict(zip(names, range(len(names))))
    if g.source not in pos or not pair_keys(edges):
        return None
    adj: list[list[tuple[int, int]]] = [[] for _ in names]
    indeg = [0] * len(names)
    try:
        for (t, h), w in edges.items():
            adj[pos[t]].append((pos[h], w))
            indeg[pos[h]] += 1
    except KeyError:
        return None
    labs = list(map(labels.__getitem__, names))
    return _finish_index(g, names, labs, adj, pos[g.source], indeg)


def _finish_index(g: _Graph, names: list[VertexId], labs: list, adj: list[list[tuple[int, int]]],
                  src: int, indeg: list[int]) -> _Indexed | None:
    """The index over vertices ``names`` labeled ``labs`` with out-edges ``adj``.

    Both builders end here: ``_build_index`` from a graph's dicts and
    ``parse_graph`` as it reads.  Returns None when ``g`` breaks a rule of
    validation.  Labels are pairs in an ``XYGraph`` and "and"/"or"
    otherwise.  An order from the source that reaches all n vertices proves
    acyclicity and reachability at once.
    """
    weights = g.edges.values()
    if weights and not (plain_ints(weights)
                        and (0 if g.zero_weights_allowed else 1) <= min(weights)
                        and max(weights) <= MAX_WEIGHT):
        return None
    for lst in adj:
        lst.sort()
    n = len(names)
    order = [src]
    deg = indeg[:]
    for v in order:
        for h, _w in adj[v]:
            deg[h] -= 1
            if deg[h] == 0:
                order.append(h)
    if indeg[src] or len(order) != n:
        return None

    if isinstance(g, XYGraph):
        cols = xy_columns(labs)
        if cols is None or any(y != len(lst) or not 0 <= x <= y for x, y, lst in zip(*cols, adj)):
            return None
        xs = cols[0]
    elif andor_labels(labs):
        xs = [len(lst) if lab == AND else min(len(lst), 1) for lab, lst in zip(labs, adj)]
    else:
        return None
    return _Indexed(names, adj, src, order, indeg, xs, n)


def _is_pair(e) -> bool:
    return isinstance(e, tuple) and len(e) == 2


def _structural_violations(labels, edges, source, zero_ok) -> list[str]:
    out: list[str] = []
    if source not in labels:
        out.append(f"source {source!r} is not a declared vertex")
        return out

    out_heads: dict[VertexId, list[VertexId]] = {v: [] for v in labels}
    indeg = {v: 0 for v in labels}
    bad_endpoint = False
    for e, w in edges.items():
        if not _is_pair(e):
            out.append(f"edge key {e!r} is not a (tail, head) pair")
            bad_endpoint = True
            continue
        t, h = e
        if t not in labels or h not in labels:
            out.append(f"edge ({t}, {h}) references an undeclared vertex")
            bad_endpoint = True
            continue
        if t == h:
            out.append(f"cycle: {t} -> {h}")
            bad_endpoint = True
            continue
        out_heads[t].append(h)
        indeg[h] += 1
        if not isinstance(w, int) or isinstance(w, bool):
            out.append(f"edge ({t}, {h}) has a non-integer weight")
        elif w < 0:
            out.append(f"edge ({t}, {h}) has negative weight {w}")
        elif w == 0 and not zero_ok:
            out.append(f"zero-weight edge ({t}, {h}) but zero weights are not allowed")
        elif w > MAX_WEIGHT:
            out.append(f"edge ({t}, {h}) weight {w} exceeds the cap {MAX_WEIGHT}")

    if indeg[source] > 0:
        out.append(f"source {source} has in-degree {indeg[source]}")

    if not bad_endpoint:
        # acyclicity via Kahn's algorithm; name one cycle when it fails
        order: list[VertexId] = [v for v in labels if indeg[v] == 0]
        deg = dict(indeg)
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for h in out_heads[v]:
                deg[h] -= 1
                if deg[h] == 0:
                    order.append(h)
        if len(order) < len(labels):
            cyc = _find_cycle([v for v in labels if deg[v] > 0], out_heads)
            if cyc:
                out.append("cycle: " + " -> ".join(cyc))
            else:
                out.append("cycle: graph is not acyclic")

    # reachability from the source
    seen = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for h in out_heads.get(v, ()):
            if h not in seen:
                seen.add(h)
                stack.append(h)
    for v in sorted(labels):
        if v not in seen:
            out.append(f"unreachable: {v}")
    return out


def validate_andor(g: AndOrGraph) -> ValidationReport:
    """Check every and/or graph invariant; never raises on bad structure.

    Passing means the graph's index built (and is cached); only a graph
    that fails runs the checks that name each violation.
    """
    if isinstance(g, AndOrGraph) and g.index is not None:
        return ValidationReport(True)
    out = _structural_violations(g.labels, g.edges, g.source, g.zero_weights_allowed)
    for v, lab in g.labels.items():
        if lab not in (AND, OR):
            out.append(f"vertex {v} has label {lab!r}, expected 'and' or 'or'")
    return ValidationReport(not out, tuple(out))


def validate_xy(g: XYGraph) -> ValidationReport:
    """Check x-y graph invariants: y matches out-degree, 0 <= x <= y, 0-0 sinks.

    Passing means the index built, as for ``validate_andor``.
    """
    if isinstance(g, XYGraph) and g.index is not None:
        return ValidationReport(True)
    out = _structural_violations(g.labels, g.edges, g.source, g.zero_weights_allowed)
    outdeg: dict[VertexId, int] = {v: 0 for v in g.labels}
    for e in g.edges:
        if _is_pair(e) and e[0] in outdeg:
            outdeg[e[0]] += 1
    for v in sorted(g.labels):
        lab = g.labels[v]
        if (
            not isinstance(lab, tuple)
            or len(lab) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in lab)
        ):
            out.append(f"vertex {v} has label {lab!r}, expected an (x, y) pair")
            continue
        x, y = lab
        d = outdeg[v]
        if d == 0:
            if (x, y) != (0, 0):
                out.append(f"sink label at {v}: got {x}-{y}, a sink must be 0-0")
            continue
        if y != d:
            out.append(f"y mismatch at {v}: label says {y}, out-degree is {d}")
        if x < 0 or x > y:
            out.append(f"x out of range at {v}: {x} not in [0, {y}]")
    return ValidationReport(not out, tuple(out))


def require_valid_andor(g: AndOrGraph) -> None:
    rep = validate_andor(g)
    if not rep.ok:
        raise InvalidGraphError("; ".join(rep.violations))


def require_valid_xy(g: XYGraph) -> None:
    rep = validate_xy(g)
    if not rep.ok:
        raise InvalidGraphError("; ".join(rep.violations))


def _index(g: AndOrGraph | XYGraph, kind: type[_Graph]) -> _Indexed:
    """The index of ``g`` as a valid ``kind`` graph; else raise validation's report."""
    idx = g.index if isinstance(g, kind) else None
    if idx is None:
        rep = validate_xy(g) if kind is XYGraph else validate_andor(g)
        raise InvalidGraphError("; ".join(rep.violations) or f"expected an {kind.__name__}")
    return idx


def andor_to_xy(g: AndOrGraph) -> XYGraph:
    """Rewrite and/or labels as x-y pairs over the same vertices and edges.

    Sinks become 0-0, an and-vertex of out-degree d becomes d-d, and an
    or-vertex of out-degree d becomes 1-d.  Feasibility of any edge set is
    preserved exactly.
    """
    idx = _index(g, AndOrGraph)
    labels = {v: (x, len(lst)) for v, x, lst in zip(idx.names, idx.xs, idx.adj)}
    return XYGraph(labels, dict(g.edges), g.source, g.zero_weights_allowed)


def fgraph_to_andor(h: FGraph, root: VertexId) -> AndOrGraph:
    """Encode a dependency hypergraph as a unit-weight and/or graph.

    Every original vertex becomes an or-vertex.  An arc with a single head
    becomes a plain edge; an arc with two or more heads routes through a
    fresh and-vertex.  All edges get weight 1.
    """
    if root not in h.vertices:
        raise ValueError(f"root {root!r} is not a vertex of the hypergraph")
    for i, (tail, heads) in enumerate(h.farcs):
        if tail not in h.vertices:
            raise ValueError(f"arc {i}: tail {tail!r} is not a declared vertex")
        if not heads:
            raise ValueError(f"arc {i}: empty head set")
        for w in heads:
            if w not in h.vertices:
                raise ValueError(f"arc {i}: head {w!r} is not a declared vertex")

    # reachability through arcs, before committing to a construction
    seen = {root}
    changed = True
    while changed:
        changed = False
        for tail, heads in h.farcs:
            if tail in seen and not heads <= seen:
                seen |= heads
                changed = True
    missing = sorted(h.vertices - seen)
    if missing:
        raise ValueError(f"root does not reach all vertices: missing {', '.join(missing)}")

    labels: dict[VertexId, str] = {v: OR for v in h.vertices}
    edges: dict[Edge, int] = {}
    for i, (tail, heads) in enumerate(h.farcs):
        if len(heads) == 1:
            (head,) = heads
            edges[(tail, head)] = 1
        else:
            name = f"andarc{i}"
            while name in labels:
                name += "_"
            labels[name] = AND
            edges[(tail, name)] = 1
            for head in sorted(heads):
                edges[(name, head)] = 1

    out = AndOrGraph(labels, edges, root)
    rep = validate_andor(out)
    if not rep.ok:
        raise InvalidGraphError("hypergraph conversion failed: " + "; ".join(rep.violations))
    return out


def verify_solution_andor(g: AndOrGraph, h: SolutionSubgraph) -> VerifyResult:
    """Check feasibility of an edge set against an and/or graph.

    Returns the weight and the violated rules: each solution vertex must
    take its demand of out-edges and be reachable from the source inside
    ``h``.  Raises InvalidGraphError when ``g`` is not a valid and/or
    graph, and ValueError when ``h`` holds an element that is not an edge
    of ``g``.
    """
    return _verify(g, h, AndOrGraph)


def verify_solution_xy(g: XYGraph, h: SolutionSubgraph) -> VerifyResult:
    """Check feasibility of an edge set against an x-y graph, as ``verify_solution_andor`` does."""
    return _verify(g, h, XYGraph)


def _verify(g: AndOrGraph | XYGraph, h: SolutionSubgraph, kind: type[_Graph]) -> VerifyResult:
    """``verify_solution_*`` against a valid ``kind`` graph."""
    weight = _fast_accept(g, h, xy=kind is XYGraph)
    if weight is not None:
        return VerifyResult(True, weight)
    idx = _index(g, kind)
    _check_edges_known(g.edges, h)
    vs = h.vertices(g.source)
    chosen_out = Counter(map(itemgetter(0), h.edges))

    violations: list[str] = []
    for v in sorted(vs):
        x, got = idx.xs[bisect_left(idx.names, v)], chosen_out[v]
        if got == x:
            continue
        if kind is XYGraph:
            violations.append(f"vertex {v} must take exactly {x} out-edges, has {got}")
        elif g.labels[v] == AND:  # a one-edge and-vertex demands 1, as an or-vertex does
            violations.append(f"and vertex {v} must take all {x} out-edges, has {got}")
        else:
            violations.append(f"or vertex {v} must take exactly one out-edge, has {got}")
    violations.extend(_unreached(g.source, vs, h))
    weight = sum(g.edges[e] for e in h.edges)
    return VerifyResult(not violations, weight, tuple(violations))


def cached_tree_core(g: AndOrGraph | XYGraph, xy: bool):
    """The index a tree solve cached on ``g`` (a ``treecore.TreeCore``), or None."""
    core = vars(g).get(TREE_CORE)
    return core if core is not None and core.xy == xy else None


def _fast_accept(g: AndOrGraph | XYGraph, h: SolutionSubgraph, xy: bool) -> int | None:
    """Weight of a feasible ``h`` by the index a tree solve cached on ``g``.

    None when ``g`` carries no such index or the index does not accept
    ``h``; the dict-based checks then give the full report.
    """
    core = cached_tree_core(g, xy)
    return None if core is None else core.accepts(h.edges)


def _check_edges_known(edges: dict[Edge, int], h: SolutionSubgraph) -> None:
    for e in h.edges:
        if e not in edges:
            if not _is_pair(e):
                raise ValueError(f"solution element {e!r} is not a (tail, head) pair")
            raise ValueError(f"solution edge ({e[0]}, {e[1]}) is not an edge of the host graph")


def _unreached(source, vs, h: SolutionSubgraph) -> list[str]:
    adj: dict[VertexId, list[VertexId]] = {}
    for t, hd in h.edges:
        adj.setdefault(t, []).append(hd)
    seen = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for nb in adj.get(v, ()):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return [
        f"vertex {v} is not reachable from the source inside the solution"
        for v in sorted(vs - seen)
    ]


def is_xy_tree(g: XYGraph) -> bool:
    """True when the graph is an out-tree: every non-source vertex has in-degree 1."""
    return _is_out_tree(_index(g, XYGraph))


def is_andor_tree(g: AndOrGraph) -> bool:
    """True when the and/or graph is an out-tree rooted at the source."""
    return _is_out_tree(_index(g, AndOrGraph))


def _is_out_tree(idx: _Indexed) -> bool:
    """Every vertex but the source has in-degree 1; the source of a valid index has 0."""
    return idx.indeg.count(1) == idx.n - 1


def is_in_family_F(g: AndOrGraph) -> bool:
    """Membership in the restricted hard family.

    Requires unit weights everywhere, or-vertices of out-degree at most 2,
    and every vertex with in-degree above 1 to be a sink or have a sink
    among its out-neighbors.
    """
    idx = _index(g, AndOrGraph)
    adj = idx.adj
    for lst, x, d in zip(adj, idx.xs, idx.indeg):
        if any(w != 1 for _h, w in lst):
            return False
        if x == 1 and len(lst) > 2:  # only an or-vertex demands 1 of 2 or more
            return False
        if d > 1 and lst and all(adj[h] for h, _w in lst):
            return False
    return True
