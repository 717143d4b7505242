"""Fisher-Rao and Hellinger geometry of Hermitian-PSD-matrix-valued measures
on finite supports: closed-form distances and geodesics, the canonical
entropy with its heat flow and Fisher information, and a dynamical
Schrödinger-bridge solver."""

from .exceptions import (
    DimensionMismatchError,
    FRGeoError,
    InfiniteEndpointEntropyError,
    MeasureFormatError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    NotProbabilityError,
    NotUnitTraceError,
    SingularMatrixError,
    SupportMismatchError,
    ZeroLengthError,
    ZeroMassError,
)
from .hpsd import (
    hermitian_part,
    logdet,
    psd_sqrt,
    real_embedding,
    solve_sylvester_velocity,
    spd_inverse,
)
from .measures import (
    MatrixMeasure,
    ReferenceMeasure,
    Support,
    lebesgue_split,
    make_support,
    mass,
    normalize_to_sphere,
    reference_identity,
    tv_distance,
    uniform_reference,
)
from .bures import (
    BuresActionResult,
    FiberGeodesic,
    bures_distance_sq,
    bures_geodesic,
    bures_real_embedding_check,
    dynamical_bures_solver,
    spherical_bures,
)
from .fisher_rao import (
    MeasurePath,
    cone_scaling_check,
    constant_speed_reparametrize,
    fisher_rao_distance,
    fisher_rao_geodesic,
    hellinger_distance_sq,
    hellinger_geodesic,
    metric_speed,
    tv_comparison_check,
)
from .entropy_flow import (
    TangentVector,
    entropy,
    entropy_decay_check,
    entropy_gradient_potential,
    fisher_information,
    fr_gradient_entropy,
    heat_flow,
    tangent_norm_sq,
    von_neumann_entropy,
)
from .schrodinger import (
    BridgeResult,
    GaussianBridgeResult,
    SchrodingerConfig,
    SweepRow,
    convexity_experiment,
    discrete_objective,
    gamma_sweep,
    gaussian_bridge_oracle,
    recovery_sequence,
    solve_bridge,
)
from . import io

__version__ = "0.1.0"
