"""Parameterized kernelization for the weight-at-most-k decision.

Six reduction rules shrink an and/or graph to an equivalent instance whose
useful part depends only on the budget k and the weight-multiplicity
parameter r.  Each rule runs exactly once, in order, collecting all of its
matches against the graph as it stood when the rule started.  Edges the
solution must not use are marked with the forbidden weight k+1 rather than
deleted, so the kernel stays a valid graph and the decision is unchanged.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .graphs import (
    MAX_SUM,
    AND,
    AndOrGraph,
    InvalidGraphError,
    VertexId,
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
    require_valid_andor(g)
    return _multiplicity(g)


def _multiplicity(g: AndOrGraph) -> int:
    """``compute_r`` of a graph already validated."""
    r = 1
    for v, lab in g.labels.items():
        if lab != AND:
            counts: dict[int, int] = {}
            for _h, w in g.out_adj[v]:
                counts[w] = counts.get(w, 0) + 1
            if counts:
                r = max(r, max(counts.values()))
    return r


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


def _shortest_dists(
    adj: dict[VertexId, list[tuple[VertexId, int]]], source: VertexId
) -> dict[VertexId, int]:
    # plain Dijkstra; weights are validated nonnegative before this runs
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue  # stale heap entry
        for h, w in adj.get(v, ()):
            nd = d + w
            if nd < dist.get(h, nd + 1):
                dist[h] = nd
                heapq.heappush(heap, (nd, h))
    return dist


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

    Requires strictly positive weights; k must be nonnegative.
    """
    require_valid_andor(g)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if any(w < 1 for w in g.edges.values()):
        raise InvalidGraphError("kernelization requires positive edge weights")
    if r is None:
        r = _multiplicity(g)
    forbidden = k + 1

    labels = dict(g.labels)
    edges = dict(g.edges)
    log: list[RuleApplication] = []

    def drop_vertices(rule: int, doomed: set[VertexId]) -> None:
        for v in sorted(doomed):
            log.append(RuleApplication(rule, v))
        for v in doomed:
            del labels[v]
        for t, h in [e for e in edges if e[0] in doomed or e[1] in doomed]:
            del edges[(t, h)]

    def empty_outcome() -> KernelResult:
        return KernelResult(None, k, r, tuple(log), forbidden)

    # rule 1: and-vertices forced to pay more than the whole budget
    out_sum: dict[VertexId, int] = {v: 0 for v in labels}
    for (t, _h), w in edges.items():
        out_sum[t] += w
    doomed = {v for v, lab in labels.items() if lab == AND and out_sum[v] > k}
    drop_vertices(1, doomed)
    if g.source not in labels:
        return empty_outcome()

    # rule 2: single edges heavier than the budget
    heavy = sorted(e for e, w in edges.items() if w > k)
    for e in heavy:
        log.append(RuleApplication(2, e))
        del edges[e]

    # rule 3: vertices whose cheapest path from the source busts the budget
    adj: dict[VertexId, list[tuple[VertexId, int]]] = {v: [] for v in labels}
    for (t, h), w in edges.items():
        adj[t].append((h, w))
    dist = _shortest_dists(adj, g.source)
    doomed = {v for v, d in dist.items() if d > k}
    drop_vertices(3, doomed)

    # rule 4: vertices no longer reachable at all
    seen = {g.source}
    stack = [g.source]
    heads: dict[VertexId, list[VertexId]] = {v: [] for v in labels}
    for t, h in edges:
        heads[t].append(h)
    while stack:
        for h in heads[stack.pop()]:
            if h not in seen:
                seen.add(h)
                stack.append(h)
    drop_vertices(4, set(labels) - seen)

    # a surviving source may still be unsatisfiable: an and-source that lost
    # any original out-edge, or a source with no options left, dooms every
    # solution of the original instance (discussion: rules 5 and 6 poison
    # in-edges, and the source has none to poison)
    src_now = {h for (t, h) in edges if t == g.source}
    src_orig = {h for (t, h) in g.edges if t == g.source}
    if src_orig:
        if g.labels[g.source] == AND and src_now != src_orig:
            return empty_outcome()
        if not src_now:
            return empty_outcome()

    # rule 5: in-edges of vertices that became sinks
    cur_heads: dict[VertexId, set[VertexId]] = {v: set() for v in labels}
    for t, h in edges:
        cur_heads[t].add(h)
    new_sinks = {
        v for v in labels if not cur_heads[v] and g.out_adj[v]
    }
    for t, h in sorted(e for e in edges if e[1] in new_sinks):
        if edges[(t, h)] != forbidden:
            log.append(RuleApplication(5, (t, h)))
            edges[(t, h)] = forbidden

    # rule 6: in-edges of and-vertices missing part of their original fan-out
    maimed = {
        v
        for v, lab in labels.items()
        if lab == AND and len(cur_heads[v]) != len(g.out_adj[v])
    }
    for t, h in sorted(e for e in edges if e[1] in maimed):
        if edges[(t, h)] != forbidden:
            log.append(RuleApplication(6, (t, h)))
            edges[(t, h)] = forbidden

    reduced = AndOrGraph(labels, edges, g.source, g.zero_weights_allowed)
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
