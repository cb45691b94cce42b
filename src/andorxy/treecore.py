"""Integer index of an out-tree, and the vectorized tree solve built on it.

``index_tree`` turns a graph into a ``TreeCore``: vertex ids in sorted
order, edges as int64 arrays sorted by (tail, head), per-vertex demands
and depths.  It checks everything the tree solvers require, and caches
the core on the graph object, so a second solve of the same object and
``verify_solution_*`` use the arrays instead of indexing the graph again.
This is the only module that imports numpy; the solvers import it only
for trees at or above their vectorized switch that carry no scalar index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NoReturn

import numpy as np

from .graphs import (
    AND,
    MAX_SUM,
    MAX_WEIGHT,
    TREE_CORE,
    AndOrGraph,
    Edge,
    InvalidGraphError,
    VertexId,
    XYGraph,
    andor_labels,
    cached_tree_core,
    plain_ints,
    xy_columns,
)
from .solvers import _tree_index


@dataclass(eq=False, slots=True)
class TreeCore:
    """A validated out-tree as arrays.

    Vertex i is ``names[i]``; ids sort like their indices, so index order
    is the tie-break order.  Edge j runs from ``tails[j]`` to ``heads[j]``
    with weight ``weights[j]``; edges are sorted by (tail, head), the
    out-edges of v are ``offs[v]:offs[v+1]``, and ``inedge[v]`` is the edge
    into v (-1 at the source).  ``demands[v]`` is how many out-edges a
    solution through v takes.
    """

    xy: bool
    names: list[VertexId]
    pos: dict[VertexId, int]
    src: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    inedge: np.ndarray
    offs: np.ndarray
    outdeg: np.ndarray
    demands: np.ndarray
    depth: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)

    def accepts(self, edges: frozenset[Edge]) -> int | None:
        """Weight of ``edges`` when they form a feasible solution, else None.

        Feasible means: every edge is a tree edge, every vertex of the
        solution takes exactly its demand of out-edges, and every vertex
        but the source has a chosen in-edge, which in a tree is the same as
        being reachable from the source inside the solution.  None says
        nothing more; the caller's own checks find out what is wrong.
        """
        n, k = self.n, len(edges)
        try:
            ends = np.fromiter(map(self.pos.__getitem__, chain.from_iterable(edges)),
                               np.int64, count=2 * k)
        except (KeyError, TypeError, ValueError):
            return None
        tails, heads = ends[0::2], ends[1::2]
        eids = self.inedge[heads]
        if k and (int(eids.min()) < 0 or not np.array_equal(self.tails[eids], tails)):
            return None
        member = np.zeros(n, dtype=bool)
        member[self.src] = True
        member[tails] = True
        member[heads] = True
        taken = np.bincount(tails, minlength=n)
        if not np.array_equal(taken[member], self.demands[member]):
            return None
        entered = np.zeros(n, dtype=bool)
        entered[self.src] = True
        entered[heads] = True
        if not entered[member].all():
            return None
        return int(self.weights[eids].sum())


def _reject(g: AndOrGraph | XYGraph, xy: bool) -> NoReturn:
    """Raise the error the scalar path raises for a graph that is no valid tree."""
    _tree_index(g, XYGraph if xy else AndOrGraph)
    raise InvalidGraphError("invalid graph")


def index_tree(g: AndOrGraph | XYGraph, xy: bool) -> TreeCore:
    """The cached core of ``g``, or a new one, checked and cached.

    Raises InvalidGraphError with the scalar path's message when ``g`` is
    not a valid out-tree, and OverflowError when its weights sum past
    ``MAX_SUM``.
    """
    core = cached_tree_core(g, xy)
    if core is not None:
        return core
    labels, edges, source = g.labels, g.edges, g.source
    n = len(labels)
    m = len(edges)
    names = sorted(labels)
    pos = dict(zip(names, range(n)))
    if (not isinstance(g, XYGraph if xy else AndOrGraph) or source not in pos
            or m != n - 1 or not plain_ints(edges.values())):
        _reject(g, xy)
    try:
        ends = np.fromiter(map(pos.__getitem__, chain.from_iterable(edges)),
                           np.int64, count=2 * m)
        weights = np.fromiter(edges.values(), np.int64, count=m)
    except (KeyError, OverflowError, TypeError, ValueError):
        _reject(g, xy)
    tails, heads = ends[0::2], ends[1::2]
    if m:
        wmin = 0 if g.zero_weights_allowed else 1
        if int(weights.min()) < wmin or int(weights.max()) > MAX_WEIGHT:
            _reject(g, xy)
        if bool((tails == heads).any()):
            _reject(g, xy)
    if sum(edges.values()) > MAX_SUM:
        raise OverflowError(f"weight sum exceeds {MAX_SUM}")

    # edge keys are distinct pairs, so the sort order is unique
    eorder = np.argsort(tails * n + heads)
    tails = tails[eorder]
    heads = heads[eorder]
    weights = weights[eorder]
    outdeg = np.bincount(tails, minlength=n)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(outdeg, out=offs[1:])
    src = pos[source]
    indeg = np.bincount(heads, minlength=n)
    if int(indeg[src]) != 0 or int((indeg == 1).sum()) != n - 1:
        _reject(g, xy)
    inedge = np.full(n, -1, dtype=np.int64)
    inedge[heads] = np.arange(m, dtype=np.int64)

    # generators and parse_graph insert vertices in id order, which needs no lookups
    labs = list(labels.values()) if names == list(labels) else list(map(labels.__getitem__, names))
    if xy:
        cols = xy_columns(labs)
        if cols is None:
            _reject(g, xy)
        try:
            demands, ys = (np.fromiter(c, np.int64, count=n) for c in cols)
        except OverflowError:
            _reject(g, xy)
        if (not np.array_equal(ys, outdeg) or bool((demands < 0).any())
                or bool((demands > ys).any())):
            _reject(g, xy)
    else:
        if not andor_labels(labs):
            _reject(g, xy)
        is_and = np.fromiter(map(AND.__eq__, labs), bool, count=n)
        demands = np.where(is_and, outdeg, np.minimum(outdeg, np.int64(1)))

    # every vertex but the source has one parent; depths by pointer
    # doubling: after step s, up[v] is v's 2**s-th ancestor (or the source)
    # and depth[v] its distance from up[v].  A vertex whose pointer has
    # not reached the source after 2**s > n - 1 steps lies on a cycle.
    up = np.full(n, src, dtype=np.int64)
    up[heads] = tails
    depth = np.ones(n, dtype=np.int64)
    depth[src] = 0
    for _ in range(n.bit_length() + 1):
        if bool((up == src).all()):
            break
        depth += depth[up]
        up = up[up]
    else:
        _reject(g, xy)

    core = TreeCore(xy, names, pos, src, tails, heads, weights, inedge, offs,
                    outdeg, demands, depth)
    vars(g)[TREE_CORE] = core
    return core


def _ragged(starts, lens):
    """Concatenated integer ranges [starts[i], starts[i]+lens[i]) as one array."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    block_out = np.cumsum(lens) - lens
    block = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
    return np.arange(total, dtype=np.int64) - block_out[block] + starts[block]


def _ranked(core: TreeCore, c, verts):
    """The out-edges of ``verts``, grouped by vertex in the order of ``verts``
    and ranked within each group by (weight + child cost, head id).

    Returns the edge ids, their values and where each group starts.  When
    every vertex takes all its out-edges the ranking cannot matter, and
    the edges stay in CSR order.
    """
    vlens = core.outdeg[verts]
    eidx = _ragged(core.offs[verts], vlens)
    heads = core.heads[eidx]
    vals = core.weights[eidx] + c[heads]
    if not np.array_equal(core.demands[verts], vlens):
        seg = np.repeat(np.arange(verts.size, dtype=np.int64), vlens)
        so = np.lexsort((heads, vals, seg))
        eidx = eidx[so]
        vals = vals[so]
    return eidx, vals, np.cumsum(vlens) - vlens


def solve_core(core: TreeCore) -> tuple[int, frozenset[Edge]] | None:
    """Optimum and witness edges, one vectorized pass per depth layer.

    Selection semantics match the scalar path exactly: per vertex, edges
    ranked by (weight + child cost, head id), the x cheapest chosen.
    Returns None for degenerate shapes (depth comparable to n) where the
    per-layer overhead would lose to the scalar loop.
    """
    n, src, xs = core.n, core.src, core.demands
    layer_sizes = np.bincount(core.depth)
    layer_count = len(layer_sizes)
    if layer_count > max(64, n // 64):
        return None
    order = np.argsort(core.depth, kind="stable")
    bounds = np.zeros(layer_count + 1, dtype=np.int64)
    np.cumsum(layer_sizes, out=bounds[1:])

    c = np.zeros(n, dtype=np.int64)
    for li in range(layer_count - 1, -1, -1):
        verts = order[bounds[li] : bounds[li + 1]]
        verts = verts[xs[verts] > 0]
        if verts.size == 0:
            continue
        _eidx, vals, segstart = _ranked(core, c, verts)
        cums = np.cumsum(vals)
        last = segstart + xs[verts] - 1
        base = np.where(segstart > 0, cums[segstart - 1], 0)
        c[verts] = cums[last] - base

    chosen = []
    frontier = np.asarray([src], dtype=np.int64)
    while frontier.size:
        verts = frontier[xs[frontier] > 0]
        if verts.size == 0:
            break
        eidx, _vals, segstart = _ranked(core, c, verts)
        eids = eidx[_ragged(segstart, xs[verts])]
        chosen.append(eids)
        frontier = core.heads[eids]
    all_e = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
    gname = core.names.__getitem__
    pairs = zip(map(gname, core.tails[all_e].tolist()), map(gname, core.heads[all_e].tolist()))
    return int(c[src]), frozenset(pairs)
