"""Long-range percolation laboratory.

Simulation and analysis of the long-range percolation graph on Z^d with
connection probabilities 1 - exp(-beta * q(x - y)) in the regime
d < s < 2d: exponent recursions, the explicit large-beta limit curve,
displacement-grouped graph sampling, chemical and restricted distances,
and Monte Carlo estimation of the polylogarithmic distance scaling.
"""

__version__ = "0.1.0"

from .model import (
    CANONICAL_KERNEL,
    Kernel,
    ModelParams,
    connection_probabilities,
    connection_probability,
    derived_constants,
    is_nearest_neighbor,
    kernel_values,
    norm_value,
    params_from_config,
    params_to_config,
    table_kernel,
    unit_ball_volume,
)
from .exponents import (
    ExponentTable,
    RatioReport,
    block_index,
    exponent_table,
    ratio_report,
    theta_closed_form,
    theta_fast,
    theta_recursive,
    vartheta,
)
from .limits import (
    BetaPhase,
    TailEnvelope,
    beta_phase,
    collapse_radius,
    collapse_shift,
    lambda_of_t,
    lower_curve,
    phi_to_psi,
    psi_limit,
    psi_limit_periodic,
    tail_envelope,
)
from .sampler import (
    GENERATOR_TAG,
    Box,
    C0Estimate,
    GraphSample,
    MemoryCapExceeded,
    RejectionCapExceeded,
    WSample,
    compute_c0,
    graph_from_edges,
    sample_graph,
    sample_graph_coupled,
    sample_w,
    sample_z,
)
from .metric import (
    DistanceField,
    RestrictedDistanceResult,
    distance_pair,
    distances_from,
    intrinsic_ball,
    restricted_distance,
    restricted_k_distance,
)
from .estimator import (
    CollapseCell,
    CollapseReport,
    CollapseSummary,
    ExperimentRecord,
    PeriodicityDiagnostic,
    PhiEstimate,
    TailComparison,
    TailRow,
    collapse_report,
    estimate_phi,
    estimate_phi_ladder,
    periodicity_diagnostic,
    tail_comparison,
    theorem1_fraction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
