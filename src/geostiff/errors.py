"""Exception types shared across the geostiff modules."""


class GeostiffError(Exception):
    """Base class for all library errors."""


class IndexOutOfRange(GeostiffError):
    """A tensor index is outside 1..6."""


class SchemaError(GeostiffError):
    """A model document does not match the expected JSON schema."""


class ValidationError(GeostiffError):
    """A model document parses but violates a model invariant."""


class DimensionMismatch(GeostiffError):
    """Vector or matrix dimensions do not match the robot model."""


class FrameMismatch(GeostiffError):
    """Inputs expressed in different frames were combined."""


class NotSquare(GeostiffError):
    """A square matrix was expected."""


class NonFinite(GeostiffError):
    """An input holds NaN or infinite values."""


class NonPositiveDefinite(GeostiffError):
    """A matrix that must be positive definite is not."""


class NegativeEigenvalue(GeostiffError):
    """A stiffness matrix has a significantly negative eigenvalue."""


class OpenPath(GeostiffError):
    """A loop path does not start and end at the same waypoint."""


class IntegrationDiverged(GeostiffError):
    """Joint velocities exceeded the divergence guard during simulation."""
