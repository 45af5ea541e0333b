"""Minimum expected-cost decision trees for goal-driven adaptive testing
over weighted scenario samples, with exact rational arithmetic throughout."""

from .core import (
    UNKNOWN,
    CostVector,
    Leaf,
    Node,
    OracleBudgetError,
    PreconditionError,
    ScencoverError,
    ScenarioInstance,
    StateAlphabet,
    Strategy,
    StructureError,
    SuffixedStrategy,
    ValidationReport,
    WeightedSample,
    empty_partial,
    expected_cost,
    extend,
    follow,
    free_items,
    materialize,
    tree_size,
    validate_tree,
)
from .utility import (
    BINARY,
    CoverageUtility,
    KOfNUtility,
    OrUtility,
    TableUtility,
    UtilityFunction,
    check_adaptive_submodular,
    check_monotone,
    check_submodular,
    marginal,
    min_progress_ratio,
    scenario_count_utility,
    scenario_weight_utility,
    worst_state,
)
from .budgeted import (
    ALPHA,
    find_budget,
    wolsey_greedy,
)
from .minsum import (
    check_truncated_bounds,
    full_cost_schedule,
    length,
    make_job,
    make_schedule,
    schedule_cost,
    standard_greedy,
    truncate,
)
from .oracle import (
    optimal_budgeted,
    optimal_schedule,
    optimal_tree,
)
from .mixedgreedy import (
    BackboneAudit,
    InvocationTrace,
    MixedGreedyStrategy,
    backbone_audit,
    execute_online,
    invocation_plan,
    mixed_greedy,
    ratio_ceiling,
    scenario_mixed_greedy,
    scenario_mixed_greedy_tree,
    stage_progress_holds,
)
from .adaptivegreedy import (
    AdaptiveGreedyStrategy,
    scenario_adaptive_greedy,
)
from .generate import random_instance, random_set_function
from .serialize import (
    ParseError,
    load_instance,
    loads_instance,
    save_instance,
)

__version__ = "0.1.0"
