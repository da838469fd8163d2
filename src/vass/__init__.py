"""Coverability and unboundedness solvers for one-counter weighted graphs
(1-VASS) with disequality guards."""

from .model import (
    BlockedSet,
    Configuration,
    ModelError,
    ParseError,
    Path,
    Transition,
    Vass,
    Violation,
    blocked_set,
    lift_run,
    normalize_guards,
    normalize_guards_with_maps,
    parse_vass,
    serialize_vass,
)
from .cycles import (
    Chain,
    CycleAnalysis,
    CycleSelection,
    analyze,
    blocked_omega,
    chain_bounds,
    select_cycles,
)
from .objectives import (
    BoundedCoverResult,
    DiseqObjective,
    decide_bounded_cover,
    objective_contains,
)
from .fixpoint import (
    CoreResult,
    Decision,
    USet,
    decide_coverability,
    decide_unboundedness,
    saturate_step,
    unbounded_core,
)
from .pareto import (
    LassoDecision,
    ParetoElem,
    ParetoFamily,
    build_families,
    concat,
    decide_cover_pareto,
    decide_unbounded_lasso,
    dominates,
    pareto_filter,
)
from .oracle import (
    OracleVerdict,
    oracle_bounded_cover,
    oracle_cover,
    oracle_unbounded,
)
from .reductions import (
    Cnf3,
    CnfVassMeta,
    cnf_satisfied,
    cnf_to_vass,
    first_primes,
    parse_dimacs,
    random_cnf,
    reduce_cov_to_unbound,
    val_u,
    with_start_counter,
)
from . import instances

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
