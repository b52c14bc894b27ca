"""Graph structure screening for latent-correlation graphical models.

The package estimates which pairs of variables are partially correlated by
thresholding a rank-based correlation matrix: Kendall's tau is computed for
every column pair, mapped through sin(pi/2 * tau) onto the latent correlation
scale, and compared against either a fixed cutoff, a sample-size-scaled
cutoff, or per-pair cutoffs calibrated to an expected false-positive budget
via a jackknife variance estimate. Synthetic scenario generators, assumption
diagnostics, and a replicated evaluation bench round out the workbench; the
``tauscreen`` console script exposes everything on the command line.
"""

from .errors import (
    DegenerateColumnError,
    InvalidInputError,
    MissingInputError,
    SingularMatrixError,
    TauscreenError,
)
from .linalg import (
    blas_threads,
    cholesky_lower,
    eig_extremes,
    invert_pd,
    pin_blas_threads,
    rescale_to_unit_diagonal,
)
from .rankcorr import (
    CorrMatrix,
    DataMatrix,
    jackknife_matrix,
    jackknife_variance,
    kendall_matrix,
    kendall_tau_naive,
    pearson_matrix,
    sine_transform,
)
from .screening import (
    EdgeSet,
    Partition,
    ThresholdSpec,
    connected_components,
    screen_edges,
    threshold_matrix,
)
from .simgen import (
    GroundTruth,
    RngStream,
    SimConfig,
    gen_correlation_C,
    gen_precision_A,
    gen_precision_B,
    gen_precision_D,
    generate_ground_truth,
    sample,
)
from .diagnostics import (
    AssumptionReport,
    ConditioningReport,
    check_assumptions,
    check_proposition1,
    hoeffding_bound,
    neighborhood_size_bound,
)
from .evalbench import (
    ExperimentResult,
    SweepResult,
    auc,
    default_grid,
    estimator_matrix,
    roc_sweep,
    run_experiments,
)
from . import io

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
