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
rest of the solution already pays for.
"""

from __future__ import annotations

import heapq
from itertools import combinations
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


def schedule_lower_bound(g: AndOrGraph) -> ScheduleResult:
    """Earliest-completion times: 0 at sinks, max over out-edges at and-vertices,
    min at or-vertices, working backward through a topological order.

    times[source] never exceeds the optimum solution weight, because any
    feasible solution pays for at least one full chain the recurrence counts.
    """
    idx = _index(g, AndOrGraph)
    t = _schedule(idx)
    names = idx.names
    return ScheduleResult({names[i]: t[i] for i in range(idx.n)})


def dp_upper_bound(g: AndOrGraph) -> SolveResult:
    """Feasible solution from the tree recurrence applied to a DAG.

    The recurrence ignores edge sharing, so its value can overshoot; the
    returned optimum is the true weight of the materialized witness (shared
    edges counted once), which upper-bounds the exact optimum.
    """
    idx = _index(g, AndOrGraph)
    weight, pairs = _sharing_blind(idx)
    return SolveResult(weight, _witness(idx, pairs), nodes=idx.n)


_OP_EDGE, _OP_VERT, _OP_PEND, _OP_UNPEND = 0, 1, 2, 3


class _Decided(Exception):
    """A search with a cap reached a solution lighter than the cap."""


def _exact_min(idx: _Indexed, budget_s: float | None, cap: int | None = None) -> SolveResult:
    """Branch-and-bound over choice-vertex decisions.

    A partial state commits edges forced by fully-determined vertices and
    keeps undecided choice vertices pending.  The bound adds, per pending
    vertex, the sum of its x cheapest out-edge weights; those edges are
    pairwise distinct and not yet committed, so the bound never overshoots
    a completion.  Correctness does not depend on how sharp the bound is.
    No memoization: shared substructure makes subproblem costs non-additive.

    With ``cap`` the result only decides whether some solution is lighter
    than ``cap``: the search stops at the first such solution, and the
    result's weight is below ``cap`` exactly when one exists.
    """
    adj, xs = idx.adj, idx.xs
    n = idx.n
    offs = [0] * (n + 1)
    for v in range(n):
        offs[v + 1] = offs[v] + len(adj[v])
    ecount = offs[n]
    ehead = [0] * ecount
    ew = [0] * ecount
    etail = [0] * ecount
    for v in range(n):
        base = offs[v]
        for j, (h, w) in enumerate(adj[v]):
            ehead[base + j] = h
            ew[base + j] = w
            etail[base + j] = v

    tsch = _schedule(idx)
    minw = [0] * n
    for v in range(n):
        x = xs[v]
        if x:
            minw[v] = sum(sorted(w for _h, w in adj[v])[:x])

    ub_w, ub_pairs = _sharing_blind(idx)
    bar = ub_w if cap is None else cap  # only solutions lighter than bar matter
    if not tsch[idx.src] < bar <= ub_w:
        return SolveResult(ub_w, _witness(idx, ub_pairs), nodes=1)

    deadline = None
    if budget_s is not None:
        deadline = monotonic() + budget_s
        if budget_s <= 0 or monotonic() > deadline:
            raise BudgetExceededError("exact solve exceeded its time budget")

    included = bytearray(n)
    in_sol = bytearray(ecount)
    pending: set[int] = set()
    trail: list[tuple[int, int]] = []
    state = [0, 0]  # committed weight, sum of pending floors
    best = [bar, ub_pairs]  # weight to beat, (tail, head) index pairs
    counters = [0, 0]  # nodes, prunes

    def include(v0: int) -> None:
        stack = [v0]
        while stack:
            v = stack.pop()
            if included[v]:
                continue
            included[v] = 1
            trail.append((_OP_VERT, v))
            x = xs[v]
            if x == 0:
                continue
            base = offs[v]
            top = offs[v + 1]
            if x == top - base:
                for eid in range(base, top):
                    if not in_sol[eid]:
                        in_sol[eid] = 1
                        state[0] += ew[eid]
                        trail.append((_OP_EDGE, eid))
                        stack.append(ehead[eid])
            else:
                pending.add(v)
                state[1] += minw[v]
                trail.append((_OP_PEND, v))

    def undo(mark: int) -> None:
        while len(trail) > mark:
            op, a = trail.pop()
            if op == _OP_EDGE:
                in_sol[a] = 0
                state[0] -= ew[a]
            elif op == _OP_VERT:
                included[a] = 0
            elif op == _OP_PEND:
                pending.discard(a)
                state[1] -= minw[a]
            else:
                pending.add(a)
                state[1] += minw[a]

    def estimate(u: int) -> int:
        vals = sorted(
            w + (0 if included[h] else tsch[h]) for h, w in adj[u]
        )
        return sum(vals[: xs[u]])

    def search() -> None:
        counters[0] += 1
        if deadline is not None and counters[0] & 63 == 0 and monotonic() > deadline:
            raise BudgetExceededError("exact solve exceeded its time budget")
        if state[0] + state[1] >= best[0]:
            counters[1] += 1
            return
        if not pending:
            best[0] = state[0]
            best[1] = [(etail[i], ehead[i]) for i in range(ecount) if in_sol[i]]
            if cap is not None:
                raise _Decided
            return
        # fail-first: decide the pending vertex with the costliest cheap completion
        v = -1
        vkey = None
        for u in pending:
            key = (estimate(u), -u)
            if vkey is None or key > vkey:
                vkey = key
                v = u
        pending.discard(v)
        state[1] -= minw[v]
        trail.append((_OP_UNPEND, v))

        lst = adj[v]
        base = offs[v]
        x = xs[v]
        opt_vals = [w + (0 if included[h] else tsch[h]) for h, w in lst]
        if x == 1:
            opts: list[tuple[int, ...]] = [(j,) for j in sorted(range(len(lst)), key=lambda j: (opt_vals[j], j))]
        else:
            opts = sorted(combinations(range(len(lst)), x), key=lambda c: (sum(opt_vals[j] for j in c), c))
        for combo in opts:
            mark = len(trail)
            for j in combo:
                eid = base + j
                if not in_sol[eid]:
                    in_sol[eid] = 1
                    state[0] += ew[eid]
                    trail.append((_OP_EDGE, eid))
                    include(ehead[eid])
            search()
            undo(mark)

    include(idx.src)
    try:
        search()
    except _Decided:
        pass  # the decision is settled; the trail is not needed any more
    weight = ub_w if best[1] is ub_pairs else best[0]
    return SolveResult(weight, _witness(idx, best[1]), nodes=counters[0], prunes=counters[1])


def solve_exact_andor(g: AndOrGraph, budget_s: float | None = None) -> SolveResult:
    """Exact minimum over all feasible solution subgraphs of an and/or DAG.

    Branches over the out-edge choices of or-vertices that are reachable
    under the partial assignment, pruning with a weight-safe frontier bound.
    ``budget_s`` caps wall-clock time; exceeding it raises, never returns a
    wrong value.
    """
    return _exact_min(_index(g, AndOrGraph), budget_s)


def solve_exact_xy(g: XYGraph, budget_s: float | None = None) -> SolveResult:
    """Exact minimum for an x-y DAG; branches over x-subsets at choice vertices."""
    return _exact_min(_index(g, XYGraph), budget_s)


def decide_min_andor(g: AndOrGraph, k: int) -> bool:
    """True when some feasible solution has weight at most k.

    YES when the sharing-blind witness weighs at most k, NO when the
    completion-time bound exceeds k; otherwise a search that starts with
    k + 1 as the weight to beat, pruning every partial solution above k,
    and stopping at the first solution of weight at most k.
    """
    return _exact_min(_index(g, AndOrGraph), None, cap=k + 1).optimum <= k


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
