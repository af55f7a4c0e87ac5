"""Exact verification of the clique-weighted edge bound and the weighted
graph Lagrangian machinery behind it.

Each edge of a graph gets weight r/(2(r-1)), r being the size of the largest
clique containing it; the package verifies sum_e w(e) <= n^2/4 in exact
rational arithmetic, computes the exact maximum of the weighted quadratic
form over the simplex, and runs exhaustive/randomized campaigns.
"""

from .cliques import (
    CliqueSet,
    edge_clique_number,
    enumerate_cliques,
    max_clique_size,
)
from .graphs import (
    Graph,
    Graph6Error,
    SplitMix64,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edge_list,
    parse_edge_list,
    parse_graph6,
    random_gnp,
    turan_graph,
    write_graph6,
)
from .lagrangian import (
    CliqueCandidate,
    LagrangianOutcome,
    ReductionStep,
    SimplexPoint,
    WeightScheme,
    grid_oracle,
    lagrangian_maximum,
    objective_value,
    support_reduce,
)
from .sweep import (
    SweepStats,
    fuzz_random,
    graph_from_mask,
    mask_pairs,
    sweep_all_graphs,
    turan_bound_campaign,
)
from .weights import (
    CorollaryViolation,
    EdgeWeightRecord,
    InvariantViolation,
    TheoremViolation,
    WeightReport,
    edge_weight,
    turan_bound_check,
    weight_report,
)

__version__ = "0.1.0"

__all__ = [
    "CliqueCandidate",
    "CliqueSet",
    "CorollaryViolation",
    "EdgeWeightRecord",
    "Graph",
    "Graph6Error",
    "InvariantViolation",
    "LagrangianOutcome",
    "ReductionStep",
    "SimplexPoint",
    "SplitMix64",
    "SweepStats",
    "TheoremViolation",
    "WeightReport",
    "WeightScheme",
    "complete_graph",
    "cycle_graph",
    "edge_clique_number",
    "edge_weight",
    "empty_graph",
    "enumerate_cliques",
    "from_edge_list",
    "fuzz_random",
    "graph_from_mask",
    "grid_oracle",
    "lagrangian_maximum",
    "mask_pairs",
    "max_clique_size",
    "objective_value",
    "parse_edge_list",
    "parse_graph6",
    "random_gnp",
    "support_reduce",
    "sweep_all_graphs",
    "turan_bound_check",
    "turan_bound_campaign",
    "turan_graph",
    "weight_report",
    "write_graph6",
]
