"""Solvers and bounds for minimum-weight solution subgraphs.

Both problems run on demand vectors: a vertex takes x of its out-edges,
where an and-vertex demands all of them and an or-vertex one.  One additive
recurrence over those demands (each vertex takes its x cheapest options,
edge weight plus the cost below the head, ties to the smaller head id)
serves the scalar tree solvers, ``dp_upper_bound`` and the exact search's
first incumbent; on a tree its value is the optimum, on a DAG it ignores
sharing and the true weight of the edges it picks bounds the optimum from
above.  A second recurrence, the x-th smallest option, gives the
completion-time lower bound.  The exact branch-and-bound search over choice
vertices cannot memoize: the cost of a subgraph depends on which edges the
rest of the solution already pays for.  It takes a one-edge choice without
branching when the cheapest edge leads into a sink or into a vertex the
solution already holds, since no other edge can do better there.  Beside
the committed weight and the pending vertices' floors it prunes with a
packing bound: pending vertices whose open heads are pairwise disjoint each
add their least extra over their floor, an additive bound over disjoint
edge sets as in LM-cut, and on a vertex-cover gadget the matching bound.
It runs on an explicit stack of frames, not by recursion, so no
interpreter limit caps its depth.  Both bounds and the exact search read
the two recurrences from one computation per graph object.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, combinations
from math import isnan
from time import monotonic
from typing import NamedTuple

from .graphs import (
    MAX_SUM,
    AndOrGraph,
    BudgetExceededError,
    InvalidGraphError,
    SolutionSubgraph,
    VertexId,
    XYGraph,
    _index,
    _Indexed,
    _is_out_tree,
)


class SolveResult(NamedTuple):
    """Optimum (or bound) value plus a feasible witness achieving it."""

    optimum: int
    witness: SolutionSubgraph
    nodes: int = 0
    prunes: int = 0

    @property
    def stats(self) -> tuple[int, int]:
        return (self.nodes, self.prunes)


class ScheduleResult(NamedTuple):
    """Earliest-completion times per vertex; times[source] bounds the optimum from below."""

    times: dict[VertexId, int]


def _check_sum(s: int) -> int:
    if s > MAX_SUM:
        raise OverflowError(f"weight sum exceeds {MAX_SUM}")
    return s


def _tree_index(g: AndOrGraph | XYGraph, kind: type) -> _Indexed:
    """The index of ``g``, which must be a valid out-tree of class ``kind``."""
    idx = _index(g, kind)
    if not _is_out_tree(idx):
        v = next(v for v, d in enumerate(idx.indeg) if d != 1 and v != idx.src)
        msg = f"not an out-tree: vertex {idx.names[v]} has in-degree {idx.indeg[v]}"
        raise InvalidGraphError(msg)
    return idx


def _witness(idx: _Indexed, pairs) -> SolutionSubgraph:
    names = idx.names
    return SolutionSubgraph(frozenset((names[t], names[h]) for t, h in pairs))


# trees this large that carry no index yet take the vectorized path; a
# module global, so tests can force either implementation and compare them
_FAST_MIN_N = 4096


def _solve_tree_fast(g: AndOrGraph | XYGraph, xy: bool) -> SolveResult | None:
    """Array-based tree solve on the graph's cached integer index.

    Returns None for degenerate shapes (depth comparable to n) where the
    per-layer overhead would lose to the scalar loop.
    """
    from .treecore import index_tree, solve_core  # loads numpy

    core = index_tree(g, xy)
    solved = solve_core(core)
    if solved is None:
        return None
    optimum, pairs = solved
    return SolveResult(optimum, SolutionSubgraph(pairs), nodes=core.n)


def _sharing_blind(idx: _Indexed) -> tuple[int, list[tuple[int, int]]]:
    """The additive recurrence over the index's demands, and the edges it picks.

    Bottom-up, each vertex takes its x cheapest options (edge weight plus
    the cost below the head), ties going to the smaller head id.  On a DAG
    the recurrence counts shared substructure once per use; the picked
    edges are then collected once each, so the returned weight is their
    true weight, exact on trees and an upper bound elsewhere.
    """
    adj, xs = idx.adj, idx.xs
    c = [0] * idx.n
    pick: list = [()] * idx.n  # the chosen (head, weight) out-edges of each vertex
    nsmallest = heapq.nsmallest
    for v in reversed(idx.order):
        x = xs[v]
        if x == 0:
            continue
        lst = adj[v]
        if x == len(lst):
            s = 0
            for h, w in lst:
                s += w + c[h]
            c[v] = _check_sum(s)
            pick[v] = lst
        elif x == 1:
            best = lst[0][1] + c[lst[0][0]]
            bj = 0
            for j in range(1, len(lst)):
                h, w = lst[j]
                t = w + c[h]
                if t < best:
                    best = t
                    bj = j
            c[v] = best
            pick[v] = (lst[bj],)
        else:
            sel = nsmallest(x, [(w + c[h], j) for j, (h, w) in enumerate(lst)])
            c[v] = _check_sum(sum(t for t, _ in sel))
            pick[v] = [lst[j] for _, j in sel]

    seen = bytearray(idx.n)
    seen[idx.src] = 1
    stack = [idx.src]
    pairs = []
    weight = 0
    while stack:
        v = stack.pop()
        for h, w in pick[v]:
            pairs.append((v, h))
            weight += w
            if not seen[h]:
                seen[h] = 1
                stack.append(h)
    return _check_sum(weight), pairs


def _solve_tree(g: AndOrGraph | XYGraph, xy: bool) -> SolveResult:
    # an indexed graph solves on its index: cheaper than arrays, and no numpy
    if len(g.labels) >= _FAST_MIN_N and "index" not in vars(g):
        res = _solve_tree_fast(g, xy)
        if res is not None:
            return res
    idx = _tree_index(g, XYGraph if xy else AndOrGraph)
    weight, pairs = _sharing_blind(idx)
    return SolveResult(weight, _witness(idx, pairs), nodes=idx.n)


def solve_andor_tree(g: AndOrGraph) -> SolveResult:
    """Minimum solution of an and/or out-tree by the bottom-up recurrence.

    Sinks cost 0; an and-vertex pays every child edge plus child cost; an
    or-vertex takes the cheapest child, ties broken toward the smaller head
    id.  Linear in the size of the tree.
    """
    return _solve_tree(g, xy=False)


def solve_xy_tree(g: XYGraph) -> SolveResult:
    """Minimum solution of an x-y out-tree.

    Each vertex takes its x cheapest child options (edge weight plus child
    cost); ties go to smaller head ids.  Selection uses a bounded heap per
    vertex, keeping the whole solve near-linear in the tree size.
    """
    return _solve_tree(g, xy=True)


def _schedule(idx: _Indexed) -> list[int]:
    """Completion-time lower bound: the x-th smallest option per vertex.

    Any solution through v takes some x out-edges, so it pays at least the
    x-th smallest of (weight + bound below head); sharing cannot undercut a
    single chain.  That is the max at and-vertices and the min at
    or-vertices.
    """
    adj, xs = idx.adj, idx.xs
    t = [0] * idx.n
    for v in reversed(idx.order):
        x = xs[v]
        if x == 0:
            continue
        lst = adj[v]
        if x == len(lst):
            t[v] = _check_sum(max(w + t[h] for h, w in lst))
        elif x == 1:
            t[v] = min(w + t[h] for h, w in lst)
        else:
            t[v] = sorted(w + t[h] for h, w in lst)[x - 1]
    return t


def _per_graph(g: AndOrGraph | XYGraph, recurrence, idx: _Indexed):
    """``recurrence(idx)`` for the index ``idx`` of ``g``, computed once per graph.

    The result is kept in the graph's ``__dict__`` beside the cached index,
    so the bounds and the exact search share it; callers only read it.
    """
    memo = vars(g)
    key = recurrence.__name__
    if key not in memo:
        memo[key] = recurrence(idx)
    return memo[key]


def schedule_lower_bound(g: AndOrGraph) -> ScheduleResult:
    """Earliest-completion times: 0 at sinks, max over out-edges at and-vertices,
    min at or-vertices, working backward through a topological order.

    times[source] never exceeds the optimum solution weight, because any
    feasible solution pays for at least one full chain the recurrence counts.
    """
    idx = _index(g, AndOrGraph)
    t = _per_graph(g, _schedule, idx)
    names = idx.names
    return ScheduleResult({names[i]: t[i] for i in range(idx.n)})


def dp_upper_bound(g: AndOrGraph) -> SolveResult:
    """Feasible solution from the tree recurrence applied to a DAG.

    The recurrence ignores edge sharing, so its value can overshoot; the
    returned optimum is the true weight of the materialized witness (shared
    edges counted once), which upper-bounds the exact optimum.
    """
    idx = _index(g, AndOrGraph)
    weight, pairs = _per_graph(g, _sharing_blind, idx)
    return SolveResult(weight, _witness(idx, pairs), nodes=idx.n)


def _exact_min(g: AndOrGraph | XYGraph, kind: type, budget_s: float | None,
               cap: int | None = None) -> SolveResult:
    """Branch-and-bound over choice-vertex decisions, on an explicit stack.

    A partial state commits edges forced by fully-determined vertices and
    keeps undecided choice vertices pending.  The bound ``lb`` is the
    committed weight plus, per pending vertex, the sum of its x cheapest
    out-edge weights; those edges are pairwise distinct and not yet
    committed, so the bound never overshoots a completion.  Correctness does
    not depend on how sharp the bound is.  No memoization: shared
    substructure makes subproblem costs non-additive.

    A choice vertex that takes one edge is decided free, without a frame,
    when an edge of its least weight leads into a vertex the solution
    already holds or into one with no obligations: any completion through
    another of its edges weighs at least as much, and stays feasible once
    the parts only that edge reached are dropped.  An edge into a sink is
    taken as if forced; an edge into an included vertex is taken when the
    tail becomes pending, or when that head is included (each head lists
    the cheap edges that wait on it).  Either way ``lb`` stays as it was.

    Tie rule: the sharing-blind witness stands unless the search finds a
    lighter solution, and of equal-weight solutions the first found is
    kept.  The search decides fail-first (the pending vertex with the
    costliest cheap completion, ties to the smaller id) and tries options
    in ascending estimate, ties in edge-id order.  A free choice takes the
    first cheapest edge into a sink, else the first cheapest edge into an
    included vertex, else the edge into the vertex whose inclusion freed it.

    The search is one loop over a stack of frames, one per decided vertex,
    so its depth is bounded by memory and not by the recursion limit.  A
    frame holds the vertex, an iterator over its options (x-subsets of its
    out-edge positions), each out-edge's floor and the state to restore
    before each option: the lengths of four flat trails (committed edge
    ids, included vertices, vertices made pending, vertices decided free),
    which are undone by slicing them off, ``lb`` and ``psum``.  An edge is
    committed at most once on a path, by its tail, so the edge trail is
    also the witness of a leaf.  An edge's floor is its weight plus, for a head not
    yet included, what including the head adds to ``lb`` at least; an
    option whose floors bring ``lb`` to the bar is counted as the pruned
    node its closure would have been, without running that closure, so
    this cut changes no node or prune count.

    After the closure, and before the fail-first pick, a node is also pruned
    by the packing bound.  ``icost[h]`` counts only out-edges of h and of
    the in-degree-1 vertices that forced vertices below h lead to.  While a
    head h is not included, none of those vertices is either, since each is
    entered only through h; so the edge sets of distinct open heads are
    disjoint, and disjoint from the committed edges and from the pending
    vertices' own out-edges, which leave included vertices.  A completion
    takes x out-edges at each pending vertex u and pays, for each open head
    h it enters, at least ``icost[h]`` below h.  So if the pending vertices
    are taken in turn, and u is packed when no vertex packed before holds
    one of its open heads, then ``lb`` plus, over packed u, the least extra
    ``d(u)`` of u's x options (weight plus ``icost`` of an open head) over
    its floor never exceeds a completion.  A packed vertex holds its open
    heads.  The scan costs one pass over the pending set, and is skipped
    when ``psum`` cannot close the gap to the bar: ``dmax[u]`` is u's extra
    while none of its heads is included and bounds ``d(u)``, and ``psum``,
    kept per frame beside ``lb``, sums it over the vertices made pending
    and not yet decided by a frame (a vertex decided free keeps its share,
    which only loosens the skip); the scan also stops once the extras left
    in ``psum`` cannot close the gap.  The bound prunes only subtrees that
    hold no solution lighter than the bar, so the incumbents, the optimum,
    the witness and the tie rule above are those of the search without
    it; only the node and prune counts fall.

    With ``cap`` the result only decides whether some solution is lighter
    than ``cap``: the search stops at the first such solution, and the
    result's weight is below ``cap`` exactly when one exists.
    """
    idx = _index(g, kind)
    if budget_s is not None and isnan(budget_s):
        raise ValueError("budget must be a number of seconds, got nan")
    tsch = _per_graph(g, _schedule, idx)
    ub_w, ub_pairs = _per_graph(g, _sharing_blind, idx)
    bar = ub_w if cap is None else cap  # only solutions lighter than bar matter
    if not tsch[idx.src] < bar <= ub_w:
        return SolveResult(ub_w, _witness(idx, ub_pairs), nodes=1)

    deadline = None
    if budget_s is not None:
        deadline = monotonic() + budget_s
        if budget_s <= 0 or monotonic() > deadline:
            raise BudgetExceededError("exact solve exceeded its time budget")

    # edge ids: v's out-edges are offs[v] .. offs[v + 1] - 1, in adj order
    adj, xs, indeg = idx.adj, idx.xs, idx.indeg
    n = idx.n
    offs = [0, *accumulate(map(len, adj))]
    ehead = [h for lst in adj for h, _w in lst]
    ew = [w for lst in adj for _h, w in lst]
    etail = [v for v, lst in enumerate(adj) for _e in lst]
    minw = [0] * n  # a choice vertex's x cheapest out-edge weights: its pending floor
    top = [0] * n  # a choice vertex's estimate while none of its heads is included
    dmax = [0] * n  # a choice vertex's packing extra while none of its heads is included
    # a vertex that takes all its out-edges, or a one-edge choice vertex with
    # a cheapest edge into a sink (decided free), commits their ids, weight
    # and heads
    forced: list = [None] * n
    cheap: list = [()] * n  # a one-edge choice vertex's cheapest edges
    # icost[v]: what including v adds to lb at least, following in-degree-1
    # heads, which nothing else can have included; down[v] is icost[v] when
    # v has in-degree 1 and 0 otherwise
    icost = [0] * n
    down = [0] * n
    waiters: list = [None] * n  # (tail, edge id) of the cheap edges into a head
    for v in reversed(idx.order):
        x = xs[v]
        if not x:
            continue
        lo, hi = offs[v], offs[v + 1]
        ws = ew[lo:hi]
        if x == hi - lo:
            c = sum(ws)
            heads = ehead[lo:hi]
            forced[v] = (range(lo, hi), c, heads)
            for h in heads:
                c += down[h]
        elif x == 1:
            c = min(ws)
            es = [e for e in range(lo, hi) if ew[e] == c]
            e = next((e for e in es if not xs[ehead[e]]), None)
            if e is not None:
                forced[v] = ((e,), c, [ehead[e]])
            else:
                cheap[v] = es
                minw[v] = c
                top[v] = min([w + tsch[h] for h, w in adj[v]])
                dmax[v] = min([w + icost[h] for h, w in adj[v]]) - c
                for e in es:
                    h = ehead[e]
                    if waiters[h] is None:
                        waiters[h] = []
                    waiters[h].append((v, e))
        else:
            c = minw[v] = sum(sorted(ws)[:x])
            top[v] = sum(sorted([w + tsch[h] for h, w in adj[v]])[:x])
            dmax[v] = sum(sorted([w + icost[h] for h, w in adj[v]])[:x]) - c
        icost[v] = c
        if indeg[v] == 1:
            down[v] = c

    included = bytearray(n)
    pending: set[int] = set()
    etrail: list[int] = []  # committed edge ids
    itrail: list[int] = []  # included vertices
    ptrail: list[int] = []  # vertices made pending
    ftrail: list[int] = []  # vertices decided free while pending
    lb = 0  # committed weight plus pending floors
    psum = 0  # dmax over the vertices made pending and not decided by a frame
    mark = [0] * n  # mark[h] == nodes: a vertex packed at this node holds head h
    nodes = prunes = 0
    best: list[int] | None = None  # the edge ids of the lightest solution found
    frames: list[tuple] = []
    todo = [idx.src]  # heads of newly committed edges, to include with their forced closure
    while True:
        while todo:
            v = todo.pop()
            if included[v]:
                continue
            included[v] = 1
            itrail.append(v)
            f = forced[v]
            if f is not None:
                eids, w, heads = f
                etrail += eids
                lb += w
                todo += heads
            elif xs[v]:
                lb += minw[v]
                for e in cheap[v]:
                    if included[ehead[e]]:
                        etrail.append(e)  # decided free
                        break
                else:
                    pending.add(v)
                    ptrail.append(v)
                    psum += dmax[v]
            else:
                continue
            wait = waiters[v]
            if wait:
                for u, e in wait:
                    if u in pending:  # decided free
                        pending.discard(u)
                        ftrail.append(u)
                        etrail.append(e)
            if lb >= bar:
                del todo[:]  # the rest of the closure only adds weight: the node is pruned
                break

        nodes += 1
        if deadline is not None and nodes & 63 == 0 and monotonic() > deadline:
            raise BudgetExceededError("exact solve exceeded its time budget")
        gap = bar - lb
        if 0 < gap <= psum and pending:
            # the packing bound: a pending vertex none of whose open heads a
            # vertex packed before it holds adds its least extra over its
            # floor, and then holds its open heads; stop once the extras left
            # in psum cannot close the gap
            rest = psum
            for u in pending:
                du = dmax[u]
                if not du:
                    continue
                rest -= du
                vals = []
                for h, w in adj[u]:
                    if included[h]:
                        vals.append(w)
                    elif mark[h] == nodes:
                        break  # a vertex packed before holds this head
                    else:
                        vals.append(w + icost[h])
                else:
                    x = xs[u]
                    d = (min(vals) if x == 1 else sum(sorted(vals)[:x])) - minw[u]
                    if d:
                        gap -= d
                        if gap <= 0:
                            break
                        for h, _w in adj[u]:
                            if not included[h]:
                                mark[h] = nodes
                if rest < gap:
                    break
        if gap <= 0:
            prunes += 1
        elif not pending:
            bar = lb
            best = etrail[:]
            if cap is not None:
                break  # the decision is settled
        else:
            # fail-first: decide the pending vertex with the costliest cheap
            # completion, ties to the smaller id
            v = -1
            vest = -1
            for u in pending:
                if top[u] < vest or (top[u] == vest and u > v):
                    continue  # its estimate cannot beat v's
                vals = [w + (0 if included[h] else tsch[h]) for h, w in adj[u]]
                x = xs[u]
                est = min(vals) if x == 1 else sum(sorted(vals)[:x])
                if est > vest or (est == vest and u < v):
                    v = u
                    vest = est
                    opt_vals = vals
            pending.discard(v)
            lb -= minw[v]
            psum -= dmax[v]
            x = xs[v]
            # options are x-subsets of positions in adj[v]; each position's
            # floor is its edge weight plus what including its head costs
            ys = range(len(opt_vals))
            if x == 1:  # (value, (position,)) pairs
                opts: list = sorted(zip(opt_vals, zip(ys)))
            else:  # (sum, x-subset of positions) pairs: ties in lexicographic order
                opts = sorted(zip(map(sum, combinations(opt_vals, x)), combinations(ys, x)))
            floors = [w + (0 if included[h] else icost[h]) for h, w in adj[v]]
            frames.append((v, iter(opts), floors, offs[v], len(etrail), len(itrail), len(ptrail),
                           len(ftrail), lb, psum))

        # restore the innermost frame's state and commit its next option; an
        # option whose floor brings lb to the bar counts as the pruned node
        # its closure would have been; a frame without options is popped and
        # its vertex pending again
        while frames:
            v, it, floors, lo, me, mi, mp, mf, lb, psum = frames[-1]
            del etrail[me:]
            for u in itrail[mi:]:
                included[u] = 0
            del itrail[mi:]
            if len(ftrail) > mf:
                pending.update(ftrail[mf:])
                del ftrail[mf:]
            pending.difference_update(ptrail[mp:])
            del ptrail[mp:]
            for _val, js in it:
                floor = lb
                for j in js:
                    floor += floors[j]
                if floor < bar:
                    break
                nodes += 1
                prunes += 1
                if deadline is not None and nodes & 63 == 0 and monotonic() > deadline:
                    raise BudgetExceededError("exact solve exceeded its time budget")
            else:
                frames.pop()
                pending.add(v)
                continue
            for j in js:
                e = lo + j
                etrail.append(e)
                lb += ew[e]
                todo.append(ehead[e])
            break
        else:
            break

    if best is None:
        return SolveResult(ub_w, _witness(idx, ub_pairs), nodes=nodes, prunes=prunes)
    return SolveResult(bar, _witness(idx, [(etail[e], ehead[e]) for e in best]), nodes=nodes, prunes=prunes)


def solve_exact_andor(g: AndOrGraph, budget_s: float | None = None) -> SolveResult:
    """Exact minimum over all feasible solution subgraphs of an and/or DAG.

    Branches over the out-edge choices of or-vertices that are reachable
    under the partial assignment, pruning with a weight-safe frontier bound.
    ``budget_s`` caps wall-clock time; exceeding it raises, never returns a
    wrong value.  A NaN budget raises ValueError.
    """
    return _exact_min(g, AndOrGraph, budget_s)


def solve_exact_xy(g: XYGraph, budget_s: float | None = None) -> SolveResult:
    """Exact minimum for an x-y DAG; branches over x-subsets at choice vertices."""
    return _exact_min(g, XYGraph, budget_s)


def decide_min_andor(g: AndOrGraph, k: int) -> bool:
    """True when some feasible solution has weight at most k.

    YES when the sharing-blind witness weighs at most k, NO when the
    completion-time bound exceeds k; otherwise a search that starts with
    k + 1 as the weight to beat, pruning every partial solution above k,
    and stopping at the first solution of weight at most k.
    """
    return _exact_min(g, AndOrGraph, None, cap=k + 1).optimum <= k


def _bit_positions(m: int) -> list[int]:
    """The positions of the set bits of ``m`` >= 0, ascending, in time linear in its length."""
    digits = bin(m)[:1:-1]  # digits[i] is bit i
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def decide_exact_weight_xy_tree(g: XYGraph, k: int):
    """Does an x-y tree have a solution of weight exactly k?

    Bottom-up subset-sum over achievable solution weights, every set capped
    at k (heavier partial solutions can never come back down, weights being
    positive).  A k above the total edge weight is a NO without that work.
    Returns (exists, witness); the witness is None on a negative answer.
    Rejects non-trees, zero weights, and negative k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    idx = _tree_index(g, XYGraph)
    if any(w == 0 for w in g.edges.values()):
        raise InvalidGraphError("exact-weight decision requires positive edge weights")
    if k > g.total_weight():
        return False, None  # no solution outweighs the whole graph; the mask below grows with k

    adj, xs = idx.adj, idx.xs
    n = idx.n
    capmask = (1 << (k + 1)) - 1
    reach = [0] * n
    for v in reversed(idx.order):
        x = xs[v]
        if x == 0:
            reach[v] = 1  # only the empty choice, weight 0
            continue
        cnt = [0] * (x + 1)
        cnt[0] = 1
        for h, w in adj[v]:
            m = (reach[h] << w) & capmask
            if not m:
                continue  # this child admits no affordable subtree
            bits = _bit_positions(m)
            for j in range(x - 1, -1, -1):
                cj = cnt[j]
                if cj:
                    acc = cnt[j + 1]
                    for b in bits:
                        acc |= cj << b
                    cnt[j + 1] = acc & capmask
        reach[v] = cnt[x]

    if not (reach[idx.src] >> k) & 1:
        return False, None

    # reconstruct one witness deterministically: walk children last-to-first,
    # keep a child out of the solution whenever the prefix table allows it,
    # otherwise give it its smallest affordable contribution
    pairs: list[tuple[int, int]] = []
    stack = [(idx.src, k)]
    while stack:
        v, target = stack.pop()
        x = xs[v]
        if x == 0:
            continue
        lst = adj[v]
        y = len(lst)
        masks = [(reach[h] << w) & capmask for h, w in lst]
        pref = [[0] * (x + 1) for _ in range(y + 1)]
        pref[0][0] = 1
        for i in range(1, y + 1):
            mi = masks[i - 1]
            bits = _bit_positions(mi) if mi else []
            row = pref[i]
            prev = pref[i - 1]
            for j in range(x + 1):
                acc = prev[j]
                if j and bits:
                    pj = prev[j - 1]
                    if pj:
                        for b in bits:
                            acc |= pj << b
                row[j] = acc & capmask
        j = x
        t = target
        for i in range(y, 0, -1):
            if (pref[i - 1][j] >> t) & 1:
                continue  # child i-1 stays out
            h, w = lst[i - 1]
            chosen_b = None
            for b in _bit_positions(masks[i - 1]):
                if b <= t and j > 0 and (pref[i - 1][j - 1] >> (t - b)) & 1:
                    chosen_b = b
                    break
            assert chosen_b is not None, "reconstruction lost the target"
            pairs.append((v, h))
            stack.append((h, chosen_b - w))
            j -= 1
            t -= chosen_b
        assert j == 0 and t == 0, "reconstruction ended off target"

    return True, _witness(idx, pairs)
