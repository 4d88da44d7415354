"""Exception types shared across the geostiff modules, and the one rule that
turns an array argument into a float array or raises one of them."""

import math

import numpy as np


class GeostiffError(Exception):
    """Base class for all library errors."""


class IndexOutOfRange(GeostiffError):
    """A tensor index is not an integer in 1..6."""


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


def as_array(value, name: str, shape=None, finite: bool = True) -> np.ndarray:
    """value as a float array, or ValidationError unless it is a rectangular
    array of numbers.  Then shape "square" requires a square matrix
    (NotSquare), a tuple that shape, a None entry matching any size
    (DimensionMismatch), and finite names the first NaN or inf (NonFinite)."""
    try:
        x = np.asarray(value, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"{name} must be an array of numbers: {exc}") from None
    if shape == "square":
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise NotSquare(f"{name} must be a square matrix, got shape {x.shape}")
    elif shape is not None and x.shape != shape and (
            len(x.shape) != len(shape) or any(s not in (None, t) for s, t in zip(shape, x.shape))):
        raise DimensionMismatch(f"{name} must have shape {shape}, got {x.shape}")
    # a finite sum means finite entries, and is the cheaper test on small arrays
    if finite and not math.isfinite(sum(x.ravel().tolist())):
        bad = np.argwhere(~np.isfinite(x))
        if len(bad):
            index = ", ".join(map(str, bad[0]))
            raise NonFinite(f"{name}[{index}] must be finite, got {x[tuple(bad[0])]}")
    return x
