"""Minimum-weight solution subgraphs of and/or graphs and x-y graphs.

The package covers the full pipeline: graph types and validation, textual
I/O, seeded instance generators, tree solvers and DAG bounds, an exact
branch-and-bound solver, a parameterized kernelization for the budget
decision, and constructive reductions from vertex cover, subset sum,
dominating set, and clique.

Public names resolve on first access (PEP 562): ``import andorxy`` loads no
submodule, and ``andorxy.solve_exact_andor`` loads ``andorxy.solvers`` the
first time it is read.  A command-line run thus loads, and compiles when
bytecode caching is off, only the modules its command uses.
"""

__version__ = "1.0.0"

# submodule -> the public names it defines
_EXPORTS = {
    "generators": ("GeneratorConfig", "gen_andor", "gen_andor_tree", "gen_xy", "gen_xy_tree"),
    "graphs": (
        "AND", "OR", "MAX_SUM", "MAX_WEIGHT", "AndOrGraph", "BudgetExceededError", "Edge",
        "FGraph", "InvalidGraphError", "SolutionSubgraph", "ValidationReport", "VerifyResult",
        "VertexId", "XYGraph", "andor_to_xy", "fgraph_to_andor", "is_andor_tree",
        "is_in_family_F", "is_xy_tree", "require_valid_andor", "require_valid_xy",
        "validate_andor", "validate_xy", "verify_solution_andor", "verify_solution_xy",
    ),
    "kernel": (
        "KernelResult", "RuleApplication", "compute_r", "decide_kernel", "kernel_size_bound",
        "kernelize",
    ),
    "reductions": (
        "ReductionArtifact", "SimpleGraph", "SubsetSumInstance", "extract_clique",
        "extract_dominating_set", "extract_subset", "extract_vertex_cover", "parse_simple_graph",
        "parse_subset_sum", "reduce_clique", "reduce_dominating_set", "reduce_subset_sum",
        "reduce_vertex_cover", "serialize_mapping", "serialize_simple_graph",
    ),
    "solvers": (
        "ScheduleResult", "SolveResult", "decide_exact_weight_xy_tree", "decide_min_andor",
        "dp_upper_bound", "schedule_lower_bound", "solve_andor_tree", "solve_exact_andor",
        "solve_exact_xy", "solve_xy_tree",
    ),
    "textio": ("GraphFormatError", "parse_graph", "parse_solution", "serialize_graph",
               "serialize_solution"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
