"""Operation lists, the timed loop and the end-to-end metrics.

An operation is one user-level action: a library call sequence on one
instance, or one CLI command.  A round is a workload's whole operation
list, in a fixed seeded order that interleaves the kinds of operation.  A
run repeats whole rounds until its time is up, so every run attempts the
same operations in the same proportions.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# op_p90_ms needs at least ten samples above it
MIN_OPS = 100


@dataclass
class Op:
    """One operation.

    ``prepare`` runs untimed and returns the arguments of ``action``, e.g. a
    graph object the program has not seen before; ``action`` is the timed
    part; ``check`` gets its output and returns None or a failure message.
    """

    name: str
    kind: str
    family: str  # "andor" or "xy": which of andor_s / xy_s it adds to
    action: Callable[..., Any]
    check: Callable[[Any], str | None]
    prepare: Callable[[], tuple] = tuple


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed because an output was wrong, not because the call raised

    def note(self, op: Op, exc: BaseException | None, msg: str | None) -> None:
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            print(f"FAILED {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        elif msg is not None:
            self.failed += 1
            self.wrong += 1
            print(f"FAILED {op.name}: {msg}", file=sys.stderr)


def run_op(op: Op, tally: Tally) -> float:
    """Prepare, collect garbage, time the action, check its output; returns seconds."""
    args = op.prepare()
    gc.collect()
    exc = msg = None
    t0 = time.perf_counter()
    try:
        out = op.action(*args)
    except Exception as e:  # a raising operation is counted and named, not fatal
        exc = e
    dt = time.perf_counter() - t0
    if exc is None:
        msg = op.check(out)
    tally.note(op, exc, msg)
    return dt


def warm_up(ops: list[Op]) -> None:
    """Run the round in order, untimed and uncounted, until each kind has run once.

    A prefix of the round, so that operations reading a file find the
    operation that writes it already done.
    """
    kinds = {op.kind for op in ops}
    for op in ops:
        if not kinds:
            break
        kinds.discard(op.kind)
        op.action(*op.prepare())


def timed_rounds(ops: list[Op], seconds: float, tally: Tally, min_ops: int = MIN_OPS) -> dict:
    """Whole rounds until ``seconds`` have passed and ``min_ops`` operations ran."""
    durations: list[float] = []
    rounds: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        sums = {"total": 0.0, "andor": 0.0, "xy": 0.0}
        for op in ops:
            dt = run_op(op, tally)
            durations.append(dt)
            sums["total"] += dt
            sums[op.family] += dt
        rounds.append(sums)
        if time.perf_counter() - start >= seconds and len(durations) >= min_ops:
            break
    return {
        "run_s": statistics.median(r["total"] for r in rounds),
        "andor_s": statistics.median(r["andor"] for r in rounds),
        "xy_s": statistics.median(r["xy"] for r in rounds),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": statistics.quantiles(durations, n=10)[-1] * 1e3,
        "rounds": len(rounds),
    }


def timed_setup(build: Callable[[], Any], repeats: int) -> tuple[Any, float]:
    """Build the inputs ``repeats`` times; return the last build and the median time."""
    times = []
    result = None
    for _ in range(repeats):
        result = None  # drop the previous build before making the next
        gc.collect()
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def interleave(rng, chains: list[list[Op]]) -> list[Op]:
    """Merge operation chains in a random order that keeps each chain's own order."""
    pending = [list(c) for c in chains if c]
    out: list[Op] = []
    while pending:
        i = rng.randrange(len(pending))
        out.append(pending[i].pop(0))
        if not pending[i]:
            pending.pop(i)
    return out


def fresh(g):
    """A new graph object over the same dicts, without cached adjacency."""
    return type(g)(g.labels, g.edges, g.source, g.zero_weights_allowed)
