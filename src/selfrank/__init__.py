"""Kernel-based structured prediction with low-rank surrogate regression.

Learn vector-valued surrogates over input/output Gram matrices (ridge or
factorized trace-norm descent), decode structured outputs through loss values
alone, and run learning-to-rank experiments with feedback-arc-set decoding.
"""

from .data_io import (
    PairTaskSet,
    RatingsTable,
    SplitTable,
    build_pair_tasks,
    parse_movielens,
    parse_ratings_csv,
    parse_user_features_csv,
    split_per_user,
    subsample_users,
    top_items,
    user_feature_map,
    write_movielens,
)
from .decoding import (
    Ordering,
    Tournament,
    backward_weight,
    decode_finite,
    fas_exact,
    fas_greedy,
)
from .errors import (
    CapacityError,
    ConfigError,
    DivergenceError,
    DuplicateRatingError,
    InvalidInputError,
    NumericalError,
    RatingsParseError,
)
from .evaluation import (
    EvalReport,
    evaluate_ranking,
    gen_synthetic_lowrank,
    grid_cells,
    grid_search,
    synthetic_comparison,
)
from .kernels import KernelSpec, cross_vector, gram, kernel_eval
from .learners import (
    FactorPair,
    MtlFactorSet,
    TrainConfig,
    factorized_objective,
    fit_lowrank,
    fit_lowrank_mtl,
    halving_step_search,
    lowrank_step,
)
from .losses import pairwise_rank_loss, zero_one
from .oracles import (
    ExplicitProblem,
    explicit_gd,
    explicit_gd_multitask,
    ista_objective,
    nuclear_norm,
    prox_nuclear,
    svt,
)
from .ranking import (
    HsRankModel,
    LowRankRankModel,
    PairTaskData,
    build_pair_task_data,
    fit_rank_hs,
    fit_rank_lowrank,
    halving_step_search_rank,
)
from .verify import run_verification

__version__ = "0.1.0"
