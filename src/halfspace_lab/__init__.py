"""Membership-query learning of Gaussian halfspaces, plus a pool-based
label-query lab, against simulated oracles."""

from .geometry import (
    Halfspace,
    chow_vector,
    halfspace_bias,
    komatsu_bounds,
    localize_halfspace,
    smoothed_halfspace,
    sqrt_localization_apply,
    threshold_for_bias,
)
from .oracles import (
    BoundaryBand,
    CleanLabels,
    GaussianLaw,
    MembershipOracle,
    RandomFlip,
    RegionFlip,
    SmallClassOracle,
    WhiteBoxView,
    estimate_error,
    localized_query_batch,
    smoothed_query_batch,
)
from .estimation import (
    BiasEstimate,
    empirical_projected_chow,
    estimate_bias_doubling,
    probability_window_check,
)
from .initialization import angle_test, init_unextreme
from .refinement import RefineConfig, refine, refine_round, search_offset
from .learner import LearnerConfig, RunReport, learn, tournament
from .lowerbound import (
    GreedyDirection,
    OracleAided,
    Pool,
    RandomOrder,
    near_isometry_stat,
    negative_capture_prob,
    play_query_game,
)
from .rng import substream

__version__ = "0.1.0"
