"""Command-line front end.

Exit codes are the machine-readable channel: 0 = success or decision YES,
1 = decision NO, 2 = invalid input, 3 = an internal limit was hit (weight
overflow or solver budget), 4 = internal error (any other exception, such
as running out of memory; one stderr line names it).  Values go to standard
output in decimal; diagnostics and progress go to standard error.

Each command imports the modules it runs inside its handler, so a process
loads only those.
"""

from __future__ import annotations

import argparse
import sys

from .graphs import (
    BudgetExceededError,
    InvalidGraphError,
    XYGraph,
    is_in_family_F,
    is_xy_tree,
    verify_solution_andor,
    verify_solution_xy,
)
from .textio import GraphFormatError, parse_graph, parse_solution, serialize_graph, serialize_solution

OK, NO, INVALID, LIMIT, INTERNAL = 0, 1, 2, 3, 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _decide_line(yes: bool) -> int:
    print("YES" if yes else "NO")
    return OK if yes else NO


def _cmd_validate(args) -> int:
    # parse_graph validates, and reports any violation as GraphFormatError;
    # the membership tests below read the index that validation cached
    try:
        g = parse_graph(_read(args.file))
    except GraphFormatError as exc:
        print(str(exc))
        return INVALID
    kind = "xy" if isinstance(g, XYGraph) else "andor"
    print(f"valid {kind} graph: {len(g.labels)} vertices, {len(g.edges)} edges")
    verdict = True
    if args.family_f:
        if isinstance(g, XYGraph):
            print("family-f: not an and/or graph", file=sys.stderr)
            return INVALID
        member = is_in_family_F(g)
        print(f"family-f: {'yes' if member else 'no'}")
        verdict = verdict and member
    if args.xy_tree:
        if not isinstance(g, XYGraph):
            print("xy-tree: not an x-y graph", file=sys.stderr)
            return INVALID
        member = is_xy_tree(g)
        print(f"xy-tree: {'yes' if member else 'no'}")
        verdict = verdict and member
    return OK if verdict else NO


def _cmd_solve(args) -> int:
    from .solvers import (
        decide_exact_weight_xy_tree,
        dp_upper_bound,
        schedule_lower_bound,
        solve_andor_tree,
        solve_exact_andor,
        solve_exact_xy,
        solve_xy_tree,
    )

    g = parse_graph(_read(args.file))
    is_xy = isinstance(g, XYGraph)

    if args.exact_weight is not None:
        if not is_xy:
            print("--exact-weight needs an x-y tree input", file=sys.stderr)
            return INVALID
        exists, witness = decide_exact_weight_xy_tree(g, args.exact_weight)
        if exists and args.output:
            _write_out(args.output, serialize_solution(witness))
        return _decide_line(exists)

    method = args.method
    if method == "tree":
        if is_xy:
            print("--method tree needs an and/or input", file=sys.stderr)
            return INVALID
        res = solve_andor_tree(g)
        label = "optimum"
    elif method == "xytree":
        if not is_xy:
            print("--method xytree needs an x-y input", file=sys.stderr)
            return INVALID
        res = solve_xy_tree(g)
        label = "optimum"
    elif method == "lower":
        if is_xy:
            print("--method lower needs an and/or input", file=sys.stderr)
            return INVALID
        sched = schedule_lower_bound(g)
        value = sched.times[g.source]
        print(f"lower-bound {value}")
        if args.k is not None:
            return _decide_line(value <= args.k)
        return OK
    elif method == "upper":
        if is_xy:
            print("--method upper needs an and/or input", file=sys.stderr)
            return INVALID
        res = dp_upper_bound(g)
        label = "upper-bound"
    else:
        res = (solve_exact_xy if is_xy else solve_exact_andor)(g, budget_s=args.budget)
        label = "optimum"

    print(f"{label} {res.optimum}")
    if args.output:
        _write_out(args.output, serialize_solution(res.witness))
    if args.k is not None:
        return _decide_line(res.optimum <= args.k)
    return OK


def _cmd_kernelize(args) -> int:
    from .kernel import decide_kernel, kernelize

    g = parse_graph(_read(args.file))
    if isinstance(g, XYGraph):
        print("kernelize needs an and/or input", file=sys.stderr)
        return INVALID
    kr = kernelize(g, args.k)
    for entry in kr.log:
        print(entry.describe(), file=sys.stderr)
    print(f"r {kr.r}", file=sys.stderr)
    if kr.empty:
        print("NO")
        return NO
    _write_out(args.output, serialize_graph(kr.reduced))
    if args.decide:
        return _decide_line(decide_kernel(kr))
    return OK


def _cmd_reduce(args) -> int:
    from .reductions import (
        extract_clique,
        extract_dominating_set,
        extract_subset,
        extract_vertex_cover,
        parse_simple_graph,
        parse_subset_sum,
        reduce_clique,
        reduce_dominating_set,
        reduce_subset_sum,
        reduce_vertex_cover,
        serialize_mapping,
    )

    text = _read(args.file)
    if args.kind == "vc":
        if args.k is None:
            print("reduce vc requires --k", file=sys.stderr)
            return INVALID
        art = reduce_vertex_cover(parse_simple_graph(text), args.k)
    elif args.kind == "ss":
        art = reduce_subset_sum(parse_subset_sum(text))
    elif args.kind == "ds":
        if args.c is None:
            print("reduce ds requires --c", file=sys.stderr)
            return INVALID
        art = reduce_dominating_set(parse_simple_graph(text), args.c)
    else:
        if args.c is None:
            print("reduce clique requires --c", file=sys.stderr)
            return INVALID
        art = reduce_clique(parse_simple_graph(text), args.c)

    print(f"threshold {art.threshold}")
    gadget_text = serialize_graph(art.instance)
    _write_out(args.output, gadget_text)
    map_path = args.map_out
    if map_path is None and args.output is not None:
        map_path = args.output + ".map"
    if map_path is not None:
        _write_out(map_path, serialize_mapping(art.id_map))

    if args.extract_from is not None:
        witness = parse_solution(_read(args.extract_from))
        extractor = {
            "vc": extract_vertex_cover,
            "ss": extract_subset,
            "ds": extract_dominating_set,
            "clique": extract_clique,
        }[args.kind]
        cert = extractor(art, witness)
        print("certificate " + " ".join(str(t) for t in sorted(cert)))
    return OK


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    h = parse_solution(_read(args.solution))
    verify = verify_solution_xy if isinstance(g, XYGraph) else verify_solution_andor
    feasible, weight, violations = verify(g, h)
    if feasible:
        print(f"weight {weight}")
        return OK
    for line in violations:
        print(line)
    return NO


def _cmd_gen(args) -> int:
    from .generators import GeneratorConfig, gen_andor, gen_andor_tree, gen_xy, gen_xy_tree

    try:
        lo, hi = args.weights.split(":")
        cfg = GeneratorConfig(
            n=args.n,
            seed=args.seed,
            weight_lo=int(lo),
            weight_hi=int(hi),
            and_fraction=args.and_fraction,
            density=args.density,
        )
    except ValueError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return INVALID
    make = {
        "andor": gen_andor,
        "andor-tree": gen_andor_tree,
        "xy": gen_xy,
        "xy-tree": gen_xy_tree,
    }[args.kind]
    g = make(cfg)
    _write_out(args.output, serialize_graph(g))
    return OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="andorxy",
        description="Minimum-weight solution subgraphs of and/or and x-y graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a graph file against its invariants")
    sp.add_argument("file")
    sp.add_argument("--family-f", action="store_true", help="also test restricted-family membership")
    sp.add_argument("--xy-tree", action="store_true", help="also test the out-tree predicate")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("solve", help="compute the optimum, a bound, or a decision")
    sp.add_argument("file")
    sp.add_argument("--method", choices=["exact", "tree", "xytree", "lower", "upper"], default="exact")
    sp.add_argument("--k", type=int, default=None, help="decision threshold; exit code encodes YES/NO")
    sp.add_argument("--exact-weight", type=int, default=None, help="decide exact total weight on an x-y tree")
    sp.add_argument("--budget", type=float, default=None, help="wall-clock seconds before giving up (exit 3)")
    sp.add_argument("-o", "--output", default=None, help="write the witness solution here")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("kernelize", help="shrink an instance for the weight-at-most-k decision")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--decide", action="store_true", help="also decide the kernel and print YES/NO")
    sp.add_argument("-o", "--output", default=None, help="write the reduced graph here")
    sp.set_defaults(func=_cmd_kernelize)

    sp = sub.add_parser("reduce", help="build a hardness gadget from a source problem")
    sp.add_argument("kind", choices=["vc", "ss", "ds", "clique"])
    sp.add_argument("file", help="edge list (vc/ds/clique) or subset-sum instance (ss)")
    sp.add_argument("--k", type=int, default=None, help="cover size bound (vc)")
    sp.add_argument("--c", type=int, default=None, help="set size (ds) or clique size (clique)")
    sp.add_argument("-o", "--output", default=None, help="write the gadget graph here")
    sp.add_argument("--map-out", default=None, help="write the entity-to-vertex mapping here")
    sp.add_argument("--extract-from", default=None, help="witness file; print the extracted certificate")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("verify", help="check a solution file against a graph file")
    sp.add_argument("graph")
    sp.add_argument("solution")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("gen", help="write a seeded random instance")
    sp.add_argument("kind", choices=["andor", "andor-tree", "xy", "xy-tree"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weights", default="1:8", help="LO:HI inclusive weight range")
    sp.add_argument("--and-fraction", type=float, default=0.5)
    sp.add_argument("--density", type=float, default=0.25)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_gen)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help; keep its convention
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphFormatError, InvalidGraphError) as exc:
        print(str(exc), file=sys.stderr)
        return INVALID
    except BudgetExceededError as exc:
        print(str(exc), file=sys.stderr)
        return LIMIT
    except OverflowError as exc:
        print(str(exc), file=sys.stderr)
        return LIMIT
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return INVALID
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return INVALID
    except Exception as exc:  # a defect, not an answer: never let it read as NO
        print(f"internal error: {type(exc).__name__}", file=sys.stderr)
        return INTERNAL


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
