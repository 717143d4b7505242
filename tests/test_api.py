import types

import frgeo

# The public names of the package. A change to this list changes the API,
# and the change that makes it says why.
PUBLIC_NAMES = [
    "BridgeResult",
    "BuresActionResult",
    "DimensionMismatchError",
    "FRGeoError",
    "FiberGeodesic",
    "InfiniteEndpointEntropyError",
    "MatrixMeasure",
    "MeasureFormatError",
    "MeasurePath",
    "NoConvergenceError",
    "NotHermitianError",
    "NotPSDError",
    "NotProbabilityError",
    "NotUnitTraceError",
    "ReferenceMeasure",
    "SchrodingerConfig",
    "SingularMatrixError",
    "Support",
    "SupportMismatchError",
    "SweepRow",
    "TangentVector",
    "ZeroMassError",
    "bures_distance_sq",
    "bures_geodesic",
    "bures_real_embedding_check",
    "cone_scaling_check",
    "convexity_experiment",
    "discrete_objective",
    "dynamical_bures_solver",
    "entropy",
    "entropy_decay_check",
    "entropy_gradient_potential",
    "fisher_information",
    "fisher_rao_distance",
    "fisher_rao_geodesic",
    "fr_gradient_entropy",
    "gamma_sweep",
    "gaussian_bridge_oracle",
    "heat_flow",
    "hellinger_distance_sq",
    "hellinger_geodesic",
    "hermitian_part",
    "lebesgue_split",
    "logdet",
    "make_support",
    "mass",
    "metric_speed",
    "normalize_to_sphere",
    "psd_sqrt",
    "real_embedding",
    "recovery_sequence",
    "reference_identity",
    "solve_bridge",
    "solve_sylvester_velocity",
    "spd_inverse",
    "spherical_bures",
    "tangent_norm_sq",
    "tv_comparison_check",
    "tv_distance",
    "uniform_reference",
    "von_neumann_entropy",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package as they are imported, so
    # they are left out; ``io`` is the one the package imports itself.
    public = sorted(
        name for name in dir(frgeo) if not name.startswith("_") and not isinstance(getattr(frgeo, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES
    assert isinstance(frgeo.io, types.ModuleType)
