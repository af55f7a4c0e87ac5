"""Exact verification of the clique-weighted edge bound and the weighted
graph Lagrangian machinery behind it.

Each edge of a graph gets weight r/(2(r-1)), r being the size of the largest
clique containing it; the package verifies sum_e w(e) <= n^2/4 in exact
rational arithmetic, computes the exact maximum of the weighted quadratic
form over the simplex, and runs exhaustive/randomized campaigns.

Each exported name is imported from its module on first use (PEP 562), so
``import turanweights`` compiles no module of the package, and a command
line compiles only the modules its command calls.
"""

from importlib import import_module

# exported name -> the module that defines it
_LAZY = {
    **dict.fromkeys(("CliqueSet", "edge_clique_number", "enumerate_cliques",
                     "max_clique_size"), "cliques"),
    **dict.fromkeys(("Graph", "Graph6Error", "SplitMix64", "complete_graph", "cycle_graph",
                     "empty_graph", "from_edge_list", "parse_edge_list", "parse_graph6",
                     "random_gnp", "turan_graph", "write_graph6"), "graphs"),
    **dict.fromkeys(("CliqueCandidate", "LagrangianOutcome", "ReductionStep", "SimplexPoint",
                     "WeightScheme", "grid_oracle", "lagrangian_maximum", "objective_value",
                     "support_reduce"), "lagrangian"),
    **dict.fromkeys(("SweepStats", "fuzz_random", "graph_from_mask", "mask_pairs",
                     "sweep_all_graphs", "turan_bound_campaign"), "sweep"),
    **dict.fromkeys(("CorollaryViolation", "EdgeWeightRecord", "InvariantViolation",
                     "TheoremViolation", "WeightReport", "edge_weight", "turan_bound_check",
                     "weight_report"), "weights"),
}

__version__ = "0.1.0"

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
