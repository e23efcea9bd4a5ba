"""Exact scenario-tree and Monte Carlo checks for martingale representation
under filtration enlargement of counting processes."""

__version__ = "0.1.0"

from .finite_space import (
    ATOMWISE_TOL,
    EXACT_TOL,
    NEVER,
    AdaptedProcess,
    Filtration,
    FiniteProbabilitySpace,
    Partition,
    PointProcess,
    StoppingTime,
    build_space,
    conditional_expectation,
    first_jump_time,
    is_adapted,
    is_predictable,
    stop_process,
)
from .calculus import (
    CompensatorPair,
    compensator,
    dual_projection,
    is_martingale,
    quadratic_covariation,
    stochastic_integral,
)
from .enlargement import (
    EnlargementBundle,
    build_bundle,
    initial_enlargement,
    join,
    natural_filtration,
    progressive_enlargement,
    verify_filtration_identities,
)
from .jump_measure import (
    MARKS,
    Mark,
    MarkedMeasure,
    PredictableFunction,
    compensator_measure,
    fundamental_martingales,
    integrate,
    joint_decomposition,
    jump_measure,
)
from .representation import (
    BatchSolution,
    RepresentationSolution,
    independent_batch,
    independent_decomposition,
    martingale_closure,
    martingale_closures,
    multiplicity,
    orthogonal_spanning_martingales,
    solve_batch,
    solve_in_basis,
    solve_prp,
    solve_triple,
    solve_wrp,
    triple_regressors,
    wrp_regressors,
)
from .random_time import (
    avoidance_check,
    compensator_via_azema,
    cross_validation_gap,
    random_time_bundle,
    survival,
    tau_of,
)
