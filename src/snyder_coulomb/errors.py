"""Exception hierarchy for the snyder_coulomb package.

Validation failures subclass ValueError, runtime/convergence failures
subclass RuntimeError, so callers may catch either the package base class
or the builtin category they already handle.
"""

from __future__ import annotations

__all__ = [
    "SnyderCoulombError",
    "ParameterError",
    "NonPositiveMass",
    "NonPositiveCoupling",
    "NegativeBeta",
    "NonFinite",
    "ScaleOutOfRange",
    "OutOfWindow",
    "RequiresNonzeroL",
    "InsufficientPeriods",
    "ToleranceNotReached",
    "NoRootInWindow",
    "DegenerateFit",
    "CollisionSingularity",
    "StepUnderflow",
]


class SnyderCoulombError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SnyderCoulombError, ValueError):
    """A physical parameter violates its validity domain."""


class NonPositiveMass(ParameterError):
    pass


class NonPositiveCoupling(ParameterError):
    pass


class NegativeBeta(ParameterError):
    pass


class NonFinite(ParameterError):
    pass


class ScaleOutOfRange(ParameterError):
    """The energy unit m e2^2, or an energy converted by it, leaves the float range."""


class OutOfWindow(SnyderCoulombError, ValueError):
    """Binding energy lies outside the valid bound-state window."""


class RequiresNonzeroL(SnyderCoulombError, ValueError):
    """Formula is singular at zero angular momentum; use the 1D channel."""


class InsufficientPeriods(SnyderCoulombError, ValueError):
    """Trajectory does not span enough radial periods for the diagnostic."""


class ToleranceNotReached(SnyderCoulombError, RuntimeError):
    """The trapezoid rule or the root search missed its tolerance within its cap."""


class NoRootInWindow(SnyderCoulombError, RuntimeError):
    """The quantization condition has no solution inside the energy window."""


class DegenerateFit(SnyderCoulombError, RuntimeError):
    """Too few usable points above the noise floor to fit a scaling law."""


class CollisionSingularity(SnyderCoulombError, RuntimeError):
    """Orbit reached the collision floor around the Coulomb center.

    ``t_last`` is the last time at which the state was still valid.
    """

    def __init__(self, message: str, t_last: float | None = None):
        super().__init__(message)
        self.t_last = t_last


class StepUnderflow(SnyderCoulombError, RuntimeError):
    """The integrator stopped short of t_end: its step underflowed, its state overflowed
    or it ran out of steps.
    """
