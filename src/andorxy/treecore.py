"""Integer index of an out-tree, and the vectorized tree solve built on it.

``index_tree`` turns a graph into a ``TreeCore``: vertex ids in sorted
order, edges as int64 arrays sorted by (tail, head), per-vertex demands
and depths, and the graph's own edge keys with the permutation that sorts
them.  It checks everything the tree solvers require, and caches the core
on the graph object, so a second solve of the same object and
``verify_solution_*`` use the arrays instead of indexing the graph again.
``solve_core`` settles one depth layer at a time without sorting, except at
x-y vertices that take some but not all of their edges, and builds its
witness from the graph's edge keys.  This is the only module that imports
numpy; the solvers import it only for trees at or above their vectorized
switch that carry no scalar index.
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
    pair_keys,
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
    into v (-1 at the source).  ``keys`` are the graph's edge keys in its
    dict order, and edge j is ``keys[eorder[j]]``.  ``demands[v]`` is how
    many out-edges a solution through v takes.
    """

    xy: bool
    names: list[VertexId]
    pos: dict[VertexId, int]
    keys: list[Edge]
    eorder: np.ndarray
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

        An edge set of more than half the tree is matched by looking up each
        tree edge key in it; a smaller one by mapping its endpoints to
        indices.
        """
        n, m, k = self.n, len(self.keys), len(edges)
        if 2 * k > m:
            hits = np.fromiter(map(edges.__contains__, self.keys), bool, count=m)
            if int(np.count_nonzero(hits)) != k:
                return None
            eids = np.flatnonzero(hits[self.eorder])
            tails, heads = self.tails[eids], self.heads[eids]
        else:
            try:
                ends = np.fromiter(map(self.pos.__getitem__, chain.from_iterable(edges)),
                                   np.int64, count=2 * k)
            except (KeyError, TypeError, ValueError):
                return None
            tails, heads = ends[0::2], ends[1::2]
            eids = self.inedge[heads]
            if k and (int(eids.min()) < 0 or not np.array_equal(self.tails[eids], tails)):
                return None
            # a string or a longer tuple can iterate like the ids of an edge
            # without being its key
            if not all(map(edges.__contains__, map(self.keys.__getitem__, self.eorder[eids].tolist()))):
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
        # k vertices entered besides the source: no two elements name one edge
        if int(np.count_nonzero(entered)) != k + 1 or not entered[member].all():
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
    keys = list(edges)
    m = len(keys)
    names = sorted(labels)
    pos = dict(zip(names, range(n)))
    if (not isinstance(g, XYGraph if xy else AndOrGraph) or source not in pos
            or m != n - 1 or not pair_keys(keys) or not plain_ints(edges.values())):
        _reject(g, xy)
    try:
        ends = np.fromiter(map(pos.__getitem__, chain.from_iterable(keys)),
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

    core = TreeCore(xy, names, pos, keys, eorder, src, tails, heads, weights, inedge,
                    offs, outdeg, demands, depth)
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


def _ranked(vals, starts, lens, xs):
    """The x cheapest of each segment ``vals[starts[i]:starts[i]+lens[i]]``.

    Within a segment the edges ascend by head, so a stable sort by value
    ranks them by (value, head id).  Returns the chosen positions, grouped
    by segment, and each segment's chosen sum.
    """
    at = _ragged(starts, lens)
    seg = np.repeat(np.arange(starts.size, dtype=np.int64), lens)
    at = at[np.lexsort((vals[at], seg))]
    take = at[_ragged(np.cumsum(lens) - lens, xs)]
    return take, np.add.reduceat(vals[take], np.cumsum(xs) - xs)


def solve_core(core: TreeCore) -> tuple[int, frozenset[Edge]] | None:
    """Optimum and witness edges, one vectorized pass per depth layer.

    Selection semantics match the scalar path exactly: per vertex, edges
    ranked by (weight + child cost, head id), the x cheapest chosen.  The
    witness holds the graph's own edge keys.  Returns None for degenerate
    shapes (depth comparable to n) where the per-layer overhead would lose
    to the scalar loop.
    """
    solved = _solve_layers(core)
    if solved is None:
        return None
    # built once the passes' arrays are freed, which lowers the peak memory
    optimum, eids = solved
    return optimum, frozenset(map(core.keys.__getitem__, eids.tolist()))


def _solve_layers(core: TreeCore) -> tuple[int, np.ndarray] | None:
    """The optimum and the witness's edges as positions in ``core.keys``.

    Only x-y vertices with 1 < x < y sort: a vertex that takes all its
    edges needs no ranking, and an or-vertex takes the first edge of least
    value, edges being stored by head.  The bottom-up pass records each
    vertex's picks; one top-down sweep keeps the picks whose tail is in the
    solution.
    """
    n, src = core.n, core.src
    layer_count = int(core.depth.max()) + 1
    if layer_count > max(64, n // 64):
        return None
    # internal vertices by depth, and their out-edges in that order: the
    # out-edges of layer li are lay[eb[li]:eb[li+1]], each vertex's a run.
    # Vertices of one layer are independent, so their order does not matter.
    # Every layer but the deepest, which holds only sinks, has internal vertices.
    order = np.argsort(core.depth)
    order = order[core.outdeg[order] > 0]
    lens = core.outdeg[order]
    xs = core.demands[order]
    starts = np.cumsum(lens) - lens
    lay = _ragged(core.offs[order], lens)
    heads = core.heads[lay]
    weights = core.weights[lay]
    vb = np.searchsorted(core.depth[order], np.arange(layer_count + 1))
    eb = np.append(starts, lay.size)[vb].tolist()
    vb = vb.tolist()

    full = xs == lens
    orv = (xs == 1) & ~full
    general = (xs > 1) & ~full
    picked = np.repeat(full, lens)
    c = np.zeros(n, dtype=np.int64)
    for li in range(layer_count - 2, -1, -1):
        v0, v1, e0, e1 = vb[li], vb[li + 1], eb[li], eb[li + 1]
        verts = order[v0:v1]
        vals = weights[e0:e1] + c[heads[e0:e1]]
        st = starts[v0:v1] - e0
        sel = full[v0:v1]
        if sel.any():
            c[verts[sel]] = np.add.reduceat(vals, st)[sel]
        sel = orv[v0:v1]
        if sel.any():
            mins = np.minimum.reduceat(vals, st)
            # the first position of each segment's minimum is its smallest head
            at = np.arange(e1 - e0)
            at[vals != np.repeat(mins, lens[v0:v1])] = e1 - e0
            first = np.minimum.reduceat(at, st)[sel]
            c[verts[sel]] = mins[sel]
            picked[e0 + first] = True
        sel = general[v0:v1]
        if sel.any():
            take, sums = _ranked(vals, st[sel], lens[v0:v1][sel], xs[v0:v1][sel])
            c[verts[sel]] = sums
            picked[e0 + take] = True

    insol = np.zeros(n, dtype=bool)
    insol[src] = True
    tails = np.repeat(order, lens)
    for li in range(layer_count - 1):
        e0, e1 = eb[li], eb[li + 1]
        insol[heads[e0:e1]] = insol[tails[e0:e1]] & picked[e0:e1]
    return int(c[src]), core.eorder[lay[insol[heads]]]
