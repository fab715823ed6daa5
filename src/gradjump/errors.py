"""Exception hierarchy shared across the package."""

from __future__ import annotations


class GradJumpError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(GradJumpError):
    """Array shapes do not match the expected (m, d) layout."""


class DegeneratePairError(GradJumpError):
    """The two gradients coincide; no jump to decompose."""


class IncompatiblePairError(GradJumpError):
    """The gradient jump is not rank one within tolerance."""


class NonsmoothPointError(GradJumpError):
    """Gradient requested at a branch tie of a piecewise-smooth energy.

    Carries the competing branch data so callers can decide how to proceed.
    """

    def __init__(self, message, branch_values=None, branch_gradients=None):
        super().__init__(message)
        self.branch_values = branch_values
        self.branch_gradients = branch_gradients


class OutOfRegionError(GradJumpError):
    """Macroscopic gradient lies outside the two-phase (binodal) region."""


class EmptyBinodalError(GradJumpError):
    """Well parameters admit no two-phase region (sign condition fails)."""


class LaminateError(GradJumpError, ValueError):
    """Volume fractions and phase gradients do not reproduce the
    macroscopic gradient (in double precision, say, when a binodal radius
    underflows to 0)."""


class NonconvergenceError(GradJumpError):
    """An extrapolation or fit did not converge to the requested tolerance."""


class QuadratureError(GradJumpError):
    """Monte Carlo estimate failed to reach the requested accuracy."""


class ConfigError(GradJumpError):
    """Run configuration is malformed or contains unknown keys."""
