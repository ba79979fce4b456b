"""Rumor containment when impressions count.

Pick k protector nodes whose posts, seen often enough before a rumor,
block the largest expected share of browsing users.  Browsing is a bounded
random walk; seeing C protector posts blocks with logistic probability
(zero at C=0).  Solvers run on a shared sample store; bound-driven search
uses the least concave majorant of the logistic at integer counts.
"""

from .blocking import (
    EnvelopeTable,
    LogisticParams,
    blocking_percentage,
    estimate_envelope_objective,
    estimate_objective,
    logistic_block,
)
from .bench import (
    ExperimentConfig,
    ReportRow,
    generate_rumor_set,
    run_experiment,
    run_scalability,
)
from .exact import (
    ExactStore,
    check_envelope_dominance,
    enumerate_realizations,
    exact_hit_probabilities,
    exact_objective,
    exhaustive_optimum,
    find_submodularity_violation,
)
from .graph import Graph, bfs_subgraph, dump_edge_list, load_edge_list, top_decile_nodes
from .sampling import (
    SampleConfig,
    SampleStore,
    WalkProfile,
    build_sample_store,
    build_sample_stores,
    hoeffding_sample_size,
    sample_walk,
)
from .solvers import (
    BoundResult,
    SolveReport,
    SolverLimits,
    branch_and_bound,
    pro_sam_compute_bound,
    sam_compute_bound,
    solve_greedy,
    solve_topk,
)

__version__ = "0.1.0"
