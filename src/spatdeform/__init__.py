"""Nonstationary spatial covariance modeling through non-folding
tensor-product B-spline deformations of the plane, with Gaussian random
field simulation and Kriging on top of the fitted model."""

from .basis import KnotGrid, design_matrix
from .covariance import (
    CovParams,
    DispersionMatrix,
    VariogramModel,
    covariance_matrix,
    fit_variogram,
    sample_dispersions,
    variogram_inverse,
)
from .deformation import (
    CoefPair,
    DeformationMap,
    corner_values,
    default_epsilon,
    identity_coef,
    min_jacobian,
)
from .errors import (
    DataError,
    DomainError,
    FitError,
    InfeasibilityError,
    NumericalError,
    SpatdeformError,
)
from .estimation import (
    Dataset,
    DeformModel,
    FitConfig,
    fit,
    normalize_gauge,
)
from .fields import KrigingSystem, Swirl, simulate_grf
from .scaling import (
    Configuration,
    classical_mds,
    isotonic_fit,
    kruskal_stress,
    sg_initialize,
)
from .smoothers import (
    TpsModel,
    fit_bspline_constrained,
    fit_tps,
    tps_effective_dof,
    tps_lambda_for_dof,
)

__version__ = "0.1.0"
