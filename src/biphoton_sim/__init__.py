"""Frequency-resolved detection statistics of spectrally entangled photon pairs.

The package models photon-pair sources as continuous-mode Gaussian states:
the joint spectral amplitude fixes a renormalized covariance, transformations
act on its low-rank Schmidt factor, and detection probabilities follow from
Fredholm determinants.  Series expansions (bivariate Poisson and Hermite)
make highly entangled sources cheap to evaluate, and every truncation comes
with a closed-form error bound.
"""

from ._blocks import BlockMatrix
from .bounds import (
    BoundReport,
    OutOfDomainError,
    covariance_truncation_bound,
    det_truncation_bound_eigen,
    det_truncation_bound_hs,
    poisson_vs_n2_bound,
    vacuum_range,
)
from .covariance import (
    CovarianceNorms,
    Dof,
    ProcessType,
    RenormalizedCovariance,
    SqueezingSpectrum,
    build_covariance_exact,
    covariance_eigenvalues,
    gain_for_mean_pairs,
    mean_pairs,
    norms,
)
from .detection import (
    ExactProductGf,
    HermiteParams,
    InvalidDistributionError,
    PhotonStatistics,
    PoissonParams,
    SpectralRadiusWarning,
    VacuumPointGf,
    hermite_params,
    log_series_power_sum,
    pnd,
    quadratic_vacuum,
    save_pnd_csv,
    vacuum_point_gf,
    vacuum_probability,
)
from .plan import DetectionPlan
from .scenario import Scenario
from .spectral import (
    DiscretizedJsa,
    FrequencyGrid,
    GaussianJsaModel,
    GridCoverageError,
    SchmidtSpectrum,
    analytic_gaussian_schmidt,
    build_gaussian_jsa,
    default_grids,
    gaussian_relative_power_sums,
    gaussian_schmidt_number,
    load_jsa_csv,
    marginals,
    save_jsa_csv,
    schmidt_decompose,
    schmidt_number,
)
from .transforms import (
    DetectionProjection,
    DetectionWindow,
    DomainMismatchError,
    SymplecticTransform,
    beam_splitter,
    compose,
    compose_all,
    compress,
    compressed_determinant_operand,
    fourier,
    phase_shift,
)

__version__ = "0.1.0"
