"""Parameterized kernelization for the weight-at-most-k decision.

Six reduction rules shrink an and/or graph to an equivalent instance whose
useful part depends only on the budget k and the weight-multiplicity
parameter r.  Each rule runs exactly once, in order, collecting all of its
matches against the graph as it stood when the rule started.  Edges the
solution must not use are marked with the forbidden weight k+1 rather than
deleted, so the kernel stays a valid graph and the decision is unchanged;
k+1 must therefore fit the weight cap whenever a rule writes it.

The rules run on the integer index that validating the input built: a
vertex is kept while its mark is set, and an edge is kept while both its
ends are kept and its weight is at most k.  The kernel comes back indexed,
its kept vertices renumbered in id order, so validating it reads that index
instead of building one from its dicts.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .graphs import (
    MAX_SUM,
    MAX_WEIGHT,
    AND,
    AndOrGraph,
    InvalidGraphError,
    VertexId,
    _finish_index,
    _index,
    _Indexed,
    require_valid_andor,
)
from .solvers import decide_min_andor

# rules 1, 3, 4 remove vertices; rules 2, 5, 6 act on edges
_VERTEX_RULES = frozenset({1, 3, 4})


class RuleApplication(NamedTuple):
    """One logged change: which rule fired and the vertex or edge it touched."""

    rule: int
    target: VertexId | tuple[VertexId, VertexId]

    def describe(self) -> str:
        if self.rule in _VERTEX_RULES:
            return f"rule {self.rule}: remove vertex {self.target}"
        t, h = self.target
        if self.rule == 2:
            return f"rule {self.rule}: remove edge {t} -> {h}"
        return f"rule {self.rule}: reweight edge {t} -> {h} to forbidden"


class KernelResult(NamedTuple):
    """Reduced instance plus the full audit trail.

    ``reduced`` is None exactly when the rules prove the answer is "no"
    without leaving a graph behind (the source died or lost a mandatory
    out-edge).  ``forbidden_weight`` = k+1 marks edges no affordable
    solution can use.
    """

    reduced: AndOrGraph | None
    k: int
    r: int
    log: tuple[RuleApplication, ...]
    forbidden_weight: int

    @property
    def empty(self) -> bool:
        return self.reduced is None


def compute_r(g: AndOrGraph) -> int:
    """Largest same-weight multiplicity among any or-vertex's out-edges.

    Floors at 1 so the kernel size bound below stays meaningful when the
    graph has no or-vertices at all.
    """
    return _multiplicity(_index(g, AndOrGraph))


def _multiplicity(idx: _Indexed) -> int:
    """``compute_r`` of a valid graph's index.

    An or-vertex of two or more out-edges is exactly a vertex that takes
    one of y > 1; every other vertex has multiplicity at most 1.
    """
    return max([max(Counter(w for _h, w in lst).values())
                for x, lst in zip(idx.xs, idx.adj) if x == 1 < len(lst)], default=1)


def kernel_size_bound(k: int, r: int) -> int:
    """Vertex-count bound for the useful part of a kernel: sum of (kr)^i, i = 0..k.

    Diagnostic only; the graph a kernelization returns is not truncated to
    this bound.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r < 1:
        raise ValueError("r must be at least 1")
    base = k * r
    total = 0
    term = 1
    for _ in range(k + 1):
        total += term
        if total > MAX_SUM:
            raise OverflowError(f"kernel size bound exceeds {MAX_SUM}")
        term *= base
    return total


def kernelize(g: AndOrGraph, k: int, r: int | None = None) -> KernelResult:
    """Apply the six reduction rules once each, in order.

    Rules: (1) drop and-vertices whose out-weight total exceeds k; (2) drop
    edges heavier than k; (3) drop vertices whose cheapest directed path
    from the source costs more than k; (4) drop everything unreachable;
    (5) give the in-edges of newly created sinks the forbidden weight k+1;
    (6) same for in-edges of and-vertices that lost an original out-neighbor.

    A removed source, or a surviving source that every solution must route
    through removed material (an and-source missing an original out-edge,
    or a source stripped of all out-edges), yields the empty outcome: the
    decision is "no" with no graph to solve.

    Requires strictly positive weights; k must be nonnegative.  Raises
    OverflowError when rule 5 or 6 fires and k+1 exceeds ``MAX_WEIGHT``.
    """
    require_valid_andor(g)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if any(w < 1 for w in g.edges.values()):
        raise InvalidGraphError("kernelization requires positive edge weights")
    idx = _index(g, AndOrGraph)
    if r is None:
        r = _multiplicity(idx)
    forbidden = k + 1
    names, adj, src, xs, n = idx.names, idx.adj, idx.src, idx.xs, idx.n
    # vertex v is kept while keep[v]; indices sort like ids, so every scan
    # in index order logs in sorted order
    keep = bytearray(b"\x01") * n
    log: list[RuleApplication] = []

    def drop_vertices(rule: int, doomed: list[int]) -> None:
        for v in doomed:
            keep[v] = 0
            log.append(RuleApplication(rule, names[v]))

    def empty_outcome() -> KernelResult:
        return KernelResult(None, k, r, tuple(log), forbidden)

    # rule 1: and-vertices forced to pay more than the whole budget
    drop_vertices(1, [v for v in range(n)
                      if sum(w for _h, w in adj[v]) > k and g.labels[names[v]] == AND])
    if not keep[src]:
        return empty_outcome()

    # rule 2: single edges heavier than the budget.  From here on an edge is
    # kept exactly when both its ends are kept and its weight is at most k.
    log += [RuleApplication(2, (names[t], names[h]))
            for t in range(n) if keep[t] for h, w in adj[t] if w > k and keep[h]]

    # rules 3 and 4: cheapest path costs from the source, in topological
    # order; -1 marks a vertex no kept edge reaches.  Every vertex on a
    # cheapest path costs at most what its end costs, so rule 3 leaves each
    # vertex within k reachable, and rule 4 drops exactly the unreached ones.
    dist = [-1] * n
    dist[src] = 0
    for v in idx.order:
        d = dist[v]
        if d >= 0:
            for h, w in adj[v]:
                if keep[h] and w <= k and (dist[h] < 0 or d + w < dist[h]):
                    dist[h] = d + w
    drop_vertices(3, [v for v in range(n) if keep[v] and dist[v] > k])
    drop_vertices(4, [v for v in range(n) if keep[v] and dist[v] < 0])

    out = [[(h, w) for h, w in adj[v] if keep[h] and w <= k] if keep[v] else [] for v in range(n)]
    # a surviving source may still be unsatisfiable: an and-source that lost
    # any original out-edge, or a source with no options left, dooms every
    # solution of the original instance (discussion: rules 5 and 6 poison
    # in-edges, and the source has none to poison)
    if len(out[src]) < xs[src]:
        return empty_outcome()

    # rule 5: in-edges of vertices that became sinks; rule 6: in-edges of
    # and-vertices missing part of their original fan-out.  A kept vertex
    # short of its demand is one or the other, and the mark names the rule.
    for v in range(n):
        if keep[v] and len(out[v]) < xs[v]:
            keep[v] = 6 if out[v] else 5
    poisoned = sorted((keep[h], t, h) for t in range(n) for h, _w in out[t] if keep[h] > 1)
    if poisoned and forbidden > MAX_WEIGHT:
        raise OverflowError(f"the forbidden weight {forbidden} exceeds the weight cap {MAX_WEIGHT}")
    log += [RuleApplication(rule, (names[t], names[h])) for rule, t, h in poisoned]

    # the kernel keeps the input's dict order and arrives indexed
    mark = dict(zip(names, keep))
    labels = {v: lab for v, lab in g.labels.items() if mark[v]}
    edges = {(t, h): forbidden if mark[h] > 1 else w
             for (t, h), w in g.edges.items() if w <= k and mark[t] and mark[h]}
    reduced = AndOrGraph(labels, edges, g.source, g.zero_weights_allowed)
    kept = [v for v in range(n) if keep[v]]
    new = dict(zip(kept, range(len(kept))))
    kadj = [[(new[h], forbidden if keep[h] > 1 else w) for h, w in out[v]] for v in kept]
    indeg = [0] * len(kept)
    for lst in kadj:
        for h, _w in lst:
            indeg[h] += 1
    knames = [names[v] for v in kept]
    vars(reduced)["index"] = _finish_index(reduced, knames, list(map(labels.__getitem__, knames)),
                                           kadj, new[src], indeg)
    require_valid_andor(reduced)
    return KernelResult(reduced, k, r, tuple(log), forbidden)


def decide_kernel(kr: KernelResult) -> bool:
    """Decide weight ≤ k on the reduced instance.

    Forbidden-weight edges need no special casing: taking one immediately
    exceeds the budget, so the decision tells the truth either way.  The
    empty outcome is a "no" by construction.
    """
    if kr.reduced is None:
        return False
    return decide_min_andor(kr.reduced, kr.k)
