"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class IsingTrinityError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(IsingTrinityError, ValueError):
    """An input's length or shape does not match the model it is used with."""


class SpecValidationError(IsingTrinityError, ValueError):
    """A model-spec file or parameter set failed validation."""


class EnumerationLimitError(IsingTrinityError, ValueError):
    """The variable count is too large for exact enumeration."""


class RankLimitError(IsingTrinityError, ValueError):
    """The latent dimension exceeds what tensor quadrature supports."""


class EigendecompositionError(IsingTrinityError, RuntimeError):
    """The symmetric eigendecomposition of the coupling matrix failed."""


class QuadratureResolutionError(IsingTrinityError, RuntimeError):
    """The quadrature rule is too coarse for the requested integral."""


class ConditioningTooSevereError(IsingTrinityError, RuntimeError):
    """Rejection sampling would need, or has spent, more proposals than its budget."""


class LineSearchError(IsingTrinityError, RuntimeError):
    """Backtracking line search failed to find an acceptable step."""
