"""Landscape complexity of spiked tensor PCA.

Closed-form critical-point and local-maximum complexity surfaces, the SNR
thresholds they encode, exact finite-n count estimation by Kac-Rice Monte
Carlo, and direct sphere-constrained simulation of the tensor objective.
"""

from .complexity import (
    ModelParams,
    j_spherical,
    ldp_rate,
    phi_star,
    s_star,
    s_zero,
    t_of_x,
    theta_of_m,
)
from .kacrice import (
    McEstimate,
    crt_expected,
    growth_rate_fit,
    log_count_prefactor,
)
from .scan import (
    BandReport,
    GridSpec,
    ProjectionResult,
    band_endpoints,
    grid_centers,
    project_max_over_m,
    project_max_over_x,
    region_nonnegative,
)
from .simulate import (
    AscentTrace,
    CriticalPointRecord,
    DegenerateIterateError,
    SpikedTensor,
    find_critical_points,
    gradient_ascent,
    landscape_histogram,
    make_spiked_tensor,
    noiseless_tensor,
    objective,
    power_iteration,
    riemannian_grad,
    riemannian_hess,
    tangent_basis,
)
from .thresholds import (
    ThresholdReport,
    f_alpha,
    good_location_zero,
    lambda_critical,
    m_critical,
    minimize_g,
    s_g,
    s_star_projection,
    s_u,
    threshold_report,
)

__version__ = "0.1.0"

__all__ = [
    "AscentTrace",
    "BandReport",
    "CriticalPointRecord",
    "DegenerateIterateError",
    "GridSpec",
    "McEstimate",
    "ModelParams",
    "ProjectionResult",
    "SpikedTensor",
    "ThresholdReport",
    "band_endpoints",
    "crt_expected",
    "f_alpha",
    "find_critical_points",
    "good_location_zero",
    "gradient_ascent",
    "grid_centers",
    "growth_rate_fit",
    "j_spherical",
    "lambda_critical",
    "landscape_histogram",
    "ldp_rate",
    "log_count_prefactor",
    "m_critical",
    "make_spiked_tensor",
    "minimize_g",
    "noiseless_tensor",
    "objective",
    "phi_star",
    "power_iteration",
    "project_max_over_m",
    "project_max_over_x",
    "region_nonnegative",
    "riemannian_grad",
    "riemannian_hess",
    "s_g",
    "s_star",
    "s_star_projection",
    "s_u",
    "s_zero",
    "t_of_x",
    "tangent_basis",
    "theta_of_m",
    "threshold_report",
]
