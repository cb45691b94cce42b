"""andorxy benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload tree-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick

``--trace 0`` measures the end-to-end metrics: set-up several times, a
warm-up, then whole rounds of the workload's operation list until the time
is up, every output checked.  ``--trace 1`` makes the traced pass instead:
for each of the three workloads, the named one first, one round without
and one round with spans around every public andorxy call.  It reports the
per-layer metrics and, as its overhead, the named workload's traced round
time over its untraced one.  ``--quick`` runs every workload and every
check on tiny inputs, untraced and traced, and exits 0 only when nothing
failed.

Outputs and span files go to ``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_andorxy():
    """Import andorxy from this checkout's src/, and only from there."""
    if not (SRC / "andorxy" / "__init__.py").is_file():
        sys.exit(f"no andorxy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import andorxy

    if not os.path.realpath(andorxy.__file__).startswith(os.path.join(os.path.realpath(SRC), "")):
        sys.exit(f"andorxy was imported from {andorxy.__file__}, not from {SRC}")


def workload_classes():
    from cli_pipeline import CliPipeline
    from library import ExactMix, TreeLarge

    return {cls.name: cls for cls in (TreeLarge, ExactMix, CliPipeline)}


def measure(cls, seed: int, seconds: float, quick: bool, workdir: Path) -> dict:
    """Untraced run of one workload: the end-to-end metrics."""
    from harness import MIN_OPS, Tally, timed_rounds, timed_setup, warm_up

    wl = cls(seed, quick, workdir)
    inputs, setup_s = timed_setup(wl.build, 1 if quick else wl.setup_repeats)
    ops = wl.make_ops(inputs)
    warm_up(ops)
    tally = Tally()
    m = timed_rounds(ops, seconds, tally, min_ops=0 if quick else MIN_OPS)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (m["run_s"], "s"),
        "andor_s": (m["andor_s"], "s"),
        "xy_s": (m["xy_s"], "s"),
        "op_p50_ms": (m["op_p50_ms"], "ms"),
        "op_p90_ms": (m["op_p90_ms"], "ms"),
        "peak_rss_mib": (wl.peak_rss_mib(), "MiB"),
    }
    print(f"{cls.name}: {m['rounds']} rounds of {len(ops)} operations", file=sys.stderr)
    return result(tally, metrics)


def traced_pass(first: str, seed: int, quick: bool, workdir: Path, spans_path: Path) -> dict:
    """One traced round of every workload: the per-layer metrics."""
    from harness import Tally, run_op, warm_up
    from tracing import Tracer

    classes = workload_classes()
    order = [first] + [name for name in classes if name != first]
    tracer = Tracer()
    tally = Tally()
    overhead = None
    startup_ms = None
    for name in order:
        wl = classes[name](seed, quick, workdir)
        with tracer.installed():
            inputs = wl.build()
        ops = wl.make_ops(inputs, in_process=True)
        warm_up(ops)
        untraced = sum(run_op(op, tally) for op in ops)
        if name == "cli-pipeline":
            startup_ms = wl.startup_ms()
            wl.tracer = tracer  # spans around each in-process command
        with tracer.installed():
            traced = sum(run_op(op, tally) for op in ops)
        if name == first:
            overhead = traced / untraced
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    metrics["cli.startup_ms"] = (startup_ms, "ms")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return result(tally, metrics)


def result(tally, metrics: dict) -> dict:
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["tree-large", "exact-mix", "cli-pipeline"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, every workload and check")
    args = p.parse_args(argv)
    if args.workload is None and not args.quick:
        p.error("--workload is required unless --quick is given")

    import_andorxy()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.quick:
            return quick_check(args.seed, workdir)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            res = traced_pass(args.workload, args.seed, False, workdir, OUT / f"spans-{tag}.jsonl")
        else:
            res = measure(workload_classes()[args.workload], args.seed, args.seconds, False,
                          workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(res)
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0


def quick_check(seed: int, workdir: Path) -> int:
    """Every workload and every check on tiny inputs; 0 only when nothing failed."""
    results = {name: measure(cls, seed, 0, True, workdir)
               for name, cls in workload_classes().items()}
    results["traced"] = traced_pass("tree-large", seed, True, workdir, workdir / "spans.jsonl")
    bad = [name for name, r in results.items() if r["failed"] or not r["correct"]]
    print(json.dumps({name: {k: r[k] for k in ("correct", "attempted", "failed")}
                      for name, r in results.items()}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
