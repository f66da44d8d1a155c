"""Receiver-interference minimization toolkit for asymmetric sensor networks."""

from .dpsolve import solve_exact, solve_opt_search
from .errors import CapExceededError, InputError, InvariantError
from .families import gen_log_lower, gen_p, gen_q, optimal_assignment_p, optimal_assignment_q
from .model import (
    ASYM2D,
    SINKTREE1D,
    Instance1D,
    Instance2D,
    Range,
    ReceiverAssignment,
    communication_graph_2d,
    count_bends,
    cross_edges,
    has_bst_property,
    interference,
    interference_at,
    is_valid,
)
from .nna import nna
from .oracle import brute_force_1d, brute_force_2d, enumerate_optimal_1d
from .reduction import (
    GridGraph,
    assignment_from_ham_path,
    build_gadget,
    extract_connection_structure,
    find_ham_path,
    reduce_grid,
)

__version__ = "0.1.0"
