"""Seeded random instance generators.

All generators draw from ``random.Random(cfg.seed)`` and touch vertices in
fixed index order, so a config maps to one graph, byte for byte, on every
platform.  The stream is defined by ``Random.random`` (labels and optional
edges) and ``Random.getrandbits`` under one rejection rule (``_below``):
an integer below n takes n.bit_length() bits, drawn again while the value
is n or more.  That is the rule of ``randrange`` and ``randint``, so the
graphs are those the generators drew through them.  Vertex ids are
zero-padded (``v00`` .. ``v41``) so lexicographic order matches
construction order.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from random import Random
from typing import NamedTuple

from .graphs import MAX_WEIGHT, AND, OR, AndOrGraph, Edge, XYGraph


class GeneratorConfig(NamedTuple):
    """Knobs shared by all generators.

    n: vertex count.
    seed: RNG seed; equal configs give identical graphs.
    weight_lo / weight_hi: inclusive edge-weight range; lo == 0 marks the
        output as a zero-weights-allowed instance.
    and_fraction: probability a vertex is labeled "and" (and/or kinds).
    density: probability of each optional forward edge (DAG kinds).
    """

    n: int
    seed: int = 0
    weight_lo: int = 1
    weight_hi: int = 8
    and_fraction: float = 0.5
    density: float = 0.25

    def check(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 <= self.weight_lo <= self.weight_hi <= MAX_WEIGHT:
            raise ValueError("need 0 <= weight_lo <= weight_hi <= weight cap")
        if not 0.0 <= self.and_fraction <= 1.0:
            raise ValueError("and_fraction must lie in [0, 1]")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")


def _ids(n: int) -> list[str]:
    width = len(str(n - 1)) if n > 1 else 1
    return ["v" + str(i).zfill(width) for i in range(n)]


def _below(getrandbits, n: int) -> int:
    """A draw from range(n), n >= 1, taking the bits ``Random.randrange(n)`` takes."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _dag_edges(cfg: GeneratorConfig, rng: Random, ids: list[str]) -> dict[Edge, int]:
    """Random DAG on ids[0..n-1], edges pointing to higher indices only.

    Every non-source vertex gets one backbone in-edge from a random earlier
    vertex, which makes the whole graph reachable from ids[0]; extra forward
    edges appear with probability cfg.density.
    """
    n, lo, density = cfg.n, cfg.weight_lo, cfg.density
    span = cfg.weight_hi - lo + 1
    getrandbits, random = rng.getrandbits, rng.random
    edges = _tree_edges(cfg, rng, ids)
    # the backbone holds one in-edge per head, in head order: pair (i, j) is
    # on it exactly when i is j's parent, and draws no optional edge
    at = dict(zip(ids, range(n)))
    parent = [-1] + [at[t] for t, _h in edges]
    for i in range(n):
        tail = ids[i]
        for j in range(i + 1, n):
            if parent[j] != i and random() < density:
                edges[(tail, ids[j])] = lo + _below(getrandbits, span)
    return edges


def _tree_edges(cfg: GeneratorConfig, rng: Random, ids: list[str]) -> dict[Edge, int]:
    lo, span = cfg.weight_lo, cfg.weight_hi - cfg.weight_lo + 1
    getrandbits, below = rng.getrandbits, _below
    edges: dict[Edge, int] = {}
    for i in range(1, cfg.n):
        p = below(getrandbits, i)  # the parent is drawn before the weight
        edges[(ids[p], ids[i])] = lo + below(getrandbits, span)
    return edges


def _andor_labels(cfg: GeneratorConfig, rng: Random, ids: list[str]) -> dict[str, str]:
    p_and, random = cfg.and_fraction, rng.random
    return {v: (AND if random() < p_and else OR) for v in ids}


def _xy_labels(rng: Random, ids: list[str], edges: dict[Edge, int]) -> dict[str, tuple[int, int]]:
    outdeg = Counter(map(itemgetter(0), edges)).get
    getrandbits = rng.getrandbits
    # fixed order keeps the rng stream stable
    return {v: (1 + _below(getrandbits, y), y) if (y := outdeg(v, 0)) else (0, 0) for v in ids}


def gen_andor(cfg: GeneratorConfig) -> AndOrGraph:
    """Random and/or DAG, reachable from its first vertex by construction."""
    cfg.check()
    rng = Random(cfg.seed)
    ids = _ids(cfg.n)
    labels = _andor_labels(cfg, rng, ids)
    edges = _dag_edges(cfg, rng, ids)
    return AndOrGraph(labels, edges, ids[0], cfg.weight_lo == 0)


def gen_andor_tree(cfg: GeneratorConfig) -> AndOrGraph:
    """Random and/or out-tree (each vertex hangs off a random earlier one)."""
    cfg.check()
    rng = Random(cfg.seed)
    ids = _ids(cfg.n)
    labels = _andor_labels(cfg, rng, ids)
    edges = _tree_edges(cfg, rng, ids)
    return AndOrGraph(labels, edges, ids[0], cfg.weight_lo == 0)


def gen_xy(cfg: GeneratorConfig) -> XYGraph:
    """Random x-y DAG; x is drawn uniformly from 1..out-degree per non-sink."""
    cfg.check()
    rng = Random(cfg.seed)
    ids = _ids(cfg.n)
    edges = _dag_edges(cfg, rng, ids)
    labels = _xy_labels(rng, ids, edges)
    return XYGraph(labels, edges, ids[0], cfg.weight_lo == 0)


def gen_xy_tree(cfg: GeneratorConfig) -> XYGraph:
    """Random x-y out-tree."""
    cfg.check()
    rng = Random(cfg.seed)
    ids = _ids(cfg.n)
    edges = _tree_edges(cfg, rng, ids)
    labels = _xy_labels(rng, ids, edges)
    return XYGraph(labels, edges, ids[0], cfg.weight_lo == 0)
