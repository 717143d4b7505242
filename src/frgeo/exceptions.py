"""Exception hierarchy shared across the library.

Every error raised on purpose derives from :class:`FRGeoError`, so callers
(and the CLI) can distinguish precondition violations from genuine bugs.
"""


class FRGeoError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(FRGeoError):
    """Two matrices (or measures) do not share the same dimension."""


class SupportMismatchError(FRGeoError):
    """Two measures do not live on the same support."""


class NotHermitianError(FRGeoError):
    """A matrix violates Hermitian symmetry beyond tolerance."""


class NotPSDError(FRGeoError):
    """A matrix has an eigenvalue below the PSD tolerance floor."""


class SingularMatrixError(FRGeoError):
    """A matrix is singular where a definite one is required."""


class NotUnitTraceError(FRGeoError):
    """A fiber matrix is not unit-trace where required."""


class NotProbabilityError(FRGeoError):
    """A measure does not have unit total trace mass."""


class ZeroMassError(FRGeoError):
    """The cone apex has no sphere representative."""


class ZeroLengthError(FRGeoError):
    """A zero-length path cannot be reparametrized by arc length."""


class AntipodalError(FRGeoError):
    """Sphere endpoints at (numerically) maximal distance: the connecting
    cone geodesic passes through the apex and has no sphere projection."""


class InfiniteEndpointEntropyError(FRGeoError):
    """An endpoint has infinite entropy, so the regularized problem is improper."""


class NoConvergenceError(FRGeoError):
    """An iterative solver hit its iteration budget.

    Solvers normally report non-convergence through a result flag rather than
    raising; this exception exists for callers that want a hard failure.
    """


class MeasureFormatError(FRGeoError):
    """A measure file does not conform to the JSON schema."""
