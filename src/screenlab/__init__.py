"""Sparse regression solvers accelerated by safe, per-iteration atom screening."""

from .dictionary import (
    Dictionary,
    GroupPartition,
    index_set,
    operator_norm,
    read_dsmx,
    read_group_file,
    read_matrix,
    spectral_norm,
    write_dsmx,
    write_group_file,
)
from .problems import (
    GROUP,
    LASSO,
    LambdaMax,
    Problem,
    dual_feasible,
    dual_objective,
    duality_gap,
    expand,
    lambda_max,
    objective,
    prox_l1,
)
from .screening import (
    ALL_TESTS,
    DOME,
    DST3,
    GROUP_TESTS,
    GSAFE,
    GST3,
    LASSO_TESTS,
    SAFE,
    DomeParams,
    ScreeningContext,
    ScreenState,
    SphereRegion,
    dual_scale_group,
    dual_scale_lasso,
    group_mask_to_index_mask,
    screen_update,
    test_dome,
    test_sphere_group,
    test_sphere_lasso,
)
from .solvers import (
    ALGORITHMS,
    SolveResult,
    SolverConfig,
    SolverState,
    run,
    update_cp,
    update_fista,
    update_ista,
    update_sparsa,
    update_twist,
)
from .instrument import (
    DYNAMIC,
    NONE,
    STATIC,
    STRATEGIES,
    SolveTrace,
    flops_iteration,
    flops_static_init,
)
from .datagen import (
    GenSpec,
    Observation,
    gen_dct_dictionary,
    gen_dictionary,
    gen_observation,
    make_rng,
    random_groups,
    random_partition,
)
from .oracle import OracleResult, solve_reference, verify_screen_safety

__version__ = "0.1.0"
