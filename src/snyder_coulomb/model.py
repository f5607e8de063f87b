"""Physical parameters, quantum numbers, validity windows, and the input check.

Units: natural units with hbar = 1 throughout.  The mass ``m`` and the
Coulomb coupling ``e2`` (e squared, dimension energy*length) default to 1
in examples, so the undeformed reference energies are 1/(2 n'^2).  The
Snyder deformation parameter ``beta`` has dimension of inverse momentum;
``beta = 0`` recovers ordinary mechanics.

Every downstream formula assumes a positive binding energy ``E`` (total
energy ``-E``) in the window that :func:`check_energy` alone decides:

* ``l > 0`` orbits require real turning points, ``E <= m*e2**2/(2*l**2)``;
* ``beta > 0`` additionally requires ``1 - 2*beta**2*m*E > 0``, the pole of
  the deformed radial closed form.

All types are immutable after construction and all functions are pure, so
everything here is safe to use from concurrent code.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NegativeBeta, NonFinite, NonPositiveCoupling, NonPositiveMass, OutOfWindow

__all__ = [
    "PhysicalParams",
    "QuantumNumbers",
    "finite_float",
    "energy_window",
    "check_energy",
]


def finite_float(name: str, value: object, rule: str = "finite") -> float:
    """The one check of numeric inputs: ``value`` as a float, else NonFinite.

    Rejects bools, non-numbers, nan, +-inf and ints past the float range,
    which float() would take or overflow on; the message says ``name`` must be ``rule``.
    """
    if type(value) is not float:  # a float, the common case, needs only the range test
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise NonFinite(f"{name} must be a real number, got {value!r}")
        if abs(value) <= sys.float_info.max:
            value = float(value)
    if not abs(value) <= sys.float_info.max:  # nan, inf or an int past float range
        raise NonFinite(f"{name} must be {rule}, got {value!r}")
    return value


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, coupling and deformation, each checked by :func:`finite_float`, as floats."""

    m: float
    e2: float
    beta: float = 0.0

    def __post_init__(self):
        for name, value in (("m", self.m), ("e2", self.e2), ("beta", self.beta)):
            if finite_float(name, value) is not value:  # a float comes back as itself
                object.__setattr__(self, name, float(value))
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
        for name, value, low in (("n", self.n, 1), ("l", self.l, 0)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    @property
    def n_prime(self) -> int:
        return self.n + self.l


def energy_window(params: PhysicalParams, l: float) -> float:
    """Top e_max of the binding-energy window 0 < E < e_max for angular momentum ``l``.

    The lower of the circular-orbit bound m e2^2/(2 l^2) (``l > 0``) and the
    pole 1/(2 beta^2 m), or ``math.inf``; it can only fall as ``l`` or
    ``beta`` grows.  A 2 beta^2 m that underflows to 0 puts the pole at inf.
    """
    if not l >= 0:
        raise ValueError(f"l must be >= 0, got {l}")
    e_max = params.m * params.e2**2 / (2.0 * l * l) if l > 0 else math.inf
    pole = 2.0 * params.beta**2 * params.m
    # the lower cap, without min(): this runs on every check_energy call
    return e_max if pole == 0.0 or e_max < 1.0 / pole else 1.0 / pole


def check_energy(params: PhysicalParams, energy: float, l: float) -> bool:
    """Raise OutOfWindow unless ``energy`` is an admissible binding energy for ``l``.

    Admissible are 0 < E < e_max (:func:`energy_window`), where it returns
    False, and E = e_max where e_max is the circular-orbit bound of an
    ``l > 0`` channel lying below the pole, where it returns True: there
    the band has zero width and every phase integral is 0.  Where the bound
    coincides with the pole, e_max is the pole and raises.
    """
    e_max = energy_window(params, l)
    if 0.0 < energy < e_max:
        return False
    pole = 2.0 * params.beta**2 * params.m
    if not (l > 0 and energy == e_max and (pole == 0.0 or energy < 1.0 / pole)):
        raise OutOfWindow(f"E={energy!r} outside the window (0, {e_max!r}) at l={l!r}")
    return True
