"""Physical parameters, quantum numbers, and validity windows.

Units: natural units with hbar = 1 throughout.  The mass ``m`` and the
Coulomb coupling ``e2`` (e squared, dimension energy*length) default to 1
in examples, so the undeformed reference energies are 1/(2 n'^2).  The
Snyder deformation parameter ``beta`` has dimension of inverse momentum;
``beta = 0`` recovers ordinary mechanics.

Every downstream formula assumes a positive binding energy ``E`` (total
energy ``-E``) restricted to the window returned by :func:`energy_window`:

* ``l >= 1`` orbits require real turning points, ``E <= m*e2**2/(2*l**2)``;
* ``beta > 0`` additionally requires ``1 - 2*beta**2*m*E > 0``, the pole of
  the deformed radial closed form.

All types are immutable after construction and all functions are pure, so
everything here is safe to use from concurrent code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NegativeBeta, NonFinite, NonPositiveCoupling, NonPositiveMass

__all__ = [
    "PhysicalParams",
    "QuantumNumbers",
    "EnergyWindow",
    "validate_params",
    "dimensionless_deformation",
    "energy_window",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Constants of the deformed Coulomb problem: mass, coupling, deformation."""

    m: float
    e2: float
    beta: float = 0.0

    def __post_init__(self):
        for name, value in (("m", self.m), ("e2", self.e2), ("beta", self.beta)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise NonFinite(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise NonFinite(f"{name} must be finite, got {value!r}")
        if self.m <= 0:
            raise NonPositiveMass(f"m must be > 0, got {self.m!r}")
        if self.e2 <= 0:
            raise NonPositiveCoupling(f"e2 must be > 0, got {self.e2!r}")
        if self.beta < 0:
            raise NegativeBeta(f"beta must be >= 0, got {self.beta!r}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number ``n >= 1`` and angular momentum ``l >= 0``.

    The principal number ``n_prime = n + l`` labels the undeformed spectrum
    ``E = m e2^2 / (2 n'^2)``.  The magnetic quantum number never enters the
    spectrum (rotational invariance) and is not modeled.
    """

    n: int
    l: int = 0

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if not isinstance(self.l, int) or isinstance(self.l, bool):
            raise ValueError(f"l must be an integer, got {self.l!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.l < 0:
            raise ValueError(f"l must be >= 0, got {self.l}")

    @property
    def n_prime(self) -> int:
        return self.n + self.l


@dataclass(frozen=True)
class EnergyWindow:
    """Open interval (e_min, e_max) of admissible binding energies.

    ``e_min`` is always 0 (exclusive).  ``e_max`` is ``math.inf`` when no
    bound applies (l = 0, beta = 0).
    """

    e_min: float
    e_max: float

    def contains(self, energy: float) -> bool:
        return self.e_min < energy < self.e_max


def validate_params(m: float, e2: float, beta: float) -> PhysicalParams:
    """Build :class:`PhysicalParams` from raw numbers, guarding the domain.

    Raises :class:`~snyder_coulomb.errors.NonPositiveMass`,
    :class:`~snyder_coulomb.errors.NonPositiveCoupling`,
    :class:`~snyder_coulomb.errors.NegativeBeta` or
    :class:`~snyder_coulomb.errors.NonFinite`, naming the offending field.
    """
    return PhysicalParams(float(m), float(e2), float(beta))


def dimensionless_deformation(params: PhysicalParams) -> float:
    """Natural expansion variable eps = beta * m * e2 of the deformed spectra."""
    return params.beta * params.m * params.e2


def energy_window(params: PhysicalParams, l: int) -> EnergyWindow:
    """Binding-energy window for angular momentum ``l``.

    Increasing ``l`` or ``beta`` can only shrink the window.  A beta so
    small that 2 beta^2 m underflows to 0 puts the pole at infinity: no cap.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    caps = []
    if l >= 1:
        caps.append(params.m * params.e2**2 / (2.0 * l * l))
    pole = 2.0 * params.beta**2 * params.m
    if pole > 0:
        caps.append(1.0 / pole)
    e_max = min(caps) if caps else math.inf
    return EnergyWindow(e_min=0.0, e_max=e_max)
