"""Reconstruction of functions on the 2-sphere from noisy samples of a known
convolution, with computable a-priori error certificates.

The pipeline: build an equal-area partition and a Marcinkiewicz-Zygmund
sampling family (``sphere_geometry``), describe the filter by its multiplier
sequence (``filters``), synthesize measurements (``forward``), solve the
weighted least-squares problem (``reconstruct``), and certify the error
(``certify``).
"""

from .special_functions import (
    JacobiParams,
    QuadratureError,
    adaptive_quadrature,
    delta_m,
    jacobi,
    jacobi_all,
    jacobi_at_one,
    lambda_sq,
    radial_density,
)
from .sphere_geometry import (
    EqualAreaPartition,
    MzFamily,
    Region,
    SpherePoint,
    build_partition,
    build_rounding_sequence,
    geodesic_distance,
    pick_nodes,
    region_measure,
)
from .harmonics import (
    CoefficientVector,
    basis_matrix,
    eval_poly_many,
    embed,
    project,
    random_poly,
    sobolev_norm,
    zonal_kernel,
)
from .filters import (
    CapProfile,
    LunarProfile,
    MultiplierFilter,
    PlanckProfile,
    TabulatedProfile,
    cap_multipliers,
    fit_decay,
    fit_lower,
    identity_multipliers,
    multipliers_from_profile,
    profile_l2_norm,
    radial_laplacian,
    smoothness_bound,
)
from .forward import MeasurementSet, add_noise, apply_multiplier, sample_at, simulate
from .reconstruct import (
    LsqReport,
    design_matrix,
    filtered_singular_values,
    lsq_solve,
)
from .certify import (
    Certificate,
    MzConstants,
    VerificationReport,
    bound_apriori,
    choose_degree,
    find_family_size,
    mz_constants,
    phi_tail,
    predicted_rate_exponent,
    verify_bound,
)

__version__ = "0.1.0"
