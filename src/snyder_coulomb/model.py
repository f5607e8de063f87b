"""Physical parameters, quantum numbers, the unit scale of the spectra, and the input check.

Units: natural units with hbar = 1 throughout.  The mass ``m`` and the
Coulomb coupling ``e2`` (e squared, dimension energy*length) default to 1
in examples, so the undeformed reference energies are 1/(2 n'^2).  The
Snyder deformation parameter ``beta`` has dimension of inverse momentum;
``beta = 0`` recovers ordinary mechanics.

The spectra depend on (m, e2, beta) only through the energy unit m e2^2 and
b = beta m e2: every level is E = m e2^2 Ẽ(n, l; b).  This module alone forms
that scale (:class:`PhysicalParams` ``unit`` and ``b``) and converts energies
across it; ``analytic`` and ``numerics`` compute in the reduced units
Ẽ = E/(m e2^2) and b.

Every downstream formula assumes a positive reduced binding energy Ẽ in the
window that :meth:`PhysicalParams.admit` alone decides:

* ``l > 0`` orbits require real turning points, ``Ẽ <= 1/(2*l**2)``;
* ``b > 0`` additionally requires ``1 - 2*b**2*Ẽ > 0``, the pole of the
  deformed radial closed form.

All types are immutable after construction and all functions are pure, so
everything here is safe to use from concurrent code.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    NegativeBeta,
    NonFinite,
    NonPositiveCoupling,
    NonPositiveMass,
    OutOfWindow,
    ScaleOutOfRange,
)

__all__ = [
    "PhysicalParams",
    "QuantumNumbers",
    "finite_float",
    "window_top",
]


_NORMAL = sys.float_info.min  # the least positive normal float
_SMALLEST = math.ulp(0.0)  # the least positive (subnormal) float
_DOUBLE_OVERFLOWS = math.ldexp(1.0, 1023)  # the least float whose double is inf
_QUANTUM_MAX = 2**53  # the largest n or l: every integer up to it is a float


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


def _product(x: float, y: float, z: float) -> float:
    """x y z of finite floats >= 0, as if no partial product left the float range.

    Where x y is a normal float this is (x y) z; else the significands, which
    multiply in [1/8, 1), and the exponents combine apart, so that only ldexp
    rounds into the subnormals or overflows (to inf).
    """
    xy = x * y
    if _NORMAL <= xy < math.inf:
        return xy * z
    (fx, kx), (fy, ky), (fz, kz) = math.frexp(x), math.frexp(y), math.frexp(z)
    try:
        return math.ldexp(fx * fy * fz, kx + ky + kz)
    except OverflowError:
        return math.inf


def window_top(b: float, l: float) -> float:
    """Top of the reduced window 0 < Ẽ < top for angular momentum ``l`` at b = beta m e2.

    The lower of the circular-orbit bound 1/(2 l^2) (``l > 0``) and the
    pole 1/(2 b^2), or ``math.inf``; it can only fall as ``l`` or ``b``
    grows.  Where 1/(2 b^2) overflows (b below about 5e-155) the pole is
    inf, and where 2 b^2 overflows the top is 0.  Where 1/(2 l^2) overflows
    (l below about 5e-155) the circular bound is inf.
    """
    if not l >= 0:
        raise ValueError(f"l must be >= 0, got {l}")
    circular = 2.0 * l * l
    e_max = 1.0 / circular if circular > 0.0 else math.inf
    pole = 2.0 * b * b
    # the lower cap, without min(): this runs on every admitted energy
    return e_max if pole == 0.0 or e_max < 1.0 / pole else 1.0 / pole


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, coupling and deformation, each checked by :func:`finite_float`, as floats.

    The spectra see them only through the scale, two floats set on
    construction: ``unit`` = m e2^2, the energy unit, and ``b`` = beta m e2.
    Energies cross between physical and reduced units Ẽ = E/unit only
    through :meth:`physical` and :meth:`reduced`, which raise ScaleOutOfRange
    where ``unit``, or a finite nonzero energy they convert, leaves the float
    range: becomes inf or 0, or for a reduced energy, which the formulas
    divide by and double, a subnormal (2/Ẽ overflows) or one of at least
    2^1023 (2Ẽ overflows).  A physical energy may be subnormal.  An infinite
    b closes every window: b*b puts its top at 0.  The orbit integrator
    reads m and e2 themselves.
    """

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
        # derived, so not fields: stored as functools.cached_property stores, past frozen
        self.__dict__["unit"] = _product(self.m, self.e2, self.e2)
        self.__dict__["b"] = _product(self.m, self.e2, self.beta)

    def deformation(self, beta: float) -> float:
        """b = beta m e2 at the deformation ``beta``, as ``b`` is at ``self.beta``."""
        return _product(self.m, self.e2, beta)

    def physical(self, reduced: float) -> float:
        """The physical energy unit * Ẽ of the reduced energy ``reduced``."""
        energy = self.unit * reduced
        return energy if 0.0 < energy < math.inf else self._in_range(energy, reduced, _SMALLEST)

    def reduced(self, energy: float) -> float:
        """The reduced energy E/unit of the physical energy ``energy``."""
        reduced = energy / self.unit if self.unit else math.nan
        return reduced if _NORMAL <= reduced < _DOUBLE_OVERFLOWS else self._in_range(
            reduced, energy, _NORMAL, _DOUBLE_OVERFLOWS)

    def _in_range(self, converted: float, value: float, least: float,
                  most: float = math.inf) -> float:
        if not 0.0 < self.unit < math.inf:
            raise ScaleOutOfRange(f"the energy unit m e2^2 leaves the float range at "
                                  f"m={self.m!r}, e2={self.e2!r}")
        if 0.0 < abs(value) < math.inf and not least <= abs(converted) < most:
            raise ScaleOutOfRange(f"{value!r} converted by the energy unit m e2^2 = "
                                  f"{self.unit!r} leaves the float range")
        return converted

    def admit(self, energy: float, l: float) -> tuple[float, bool]:
        """The reduced energy of ``energy``, and whether it is the circular endpoint.

        Raises OutOfWindow unless Ẽ is admissible for ``l``: 0 < Ẽ < top
        (:func:`window_top`), where the flag is False, or Ẽ = top where top
        is the circular-orbit bound of an ``l > 0`` channel lying below the
        pole, where it is True: there the band has zero width and every phase
        integral is 0.  Where the bound coincides with the pole, top is the
        pole and raises.
        """
        reduced, top = self.reduced(energy), window_top(self.b, l)
        if 0.0 < reduced < top:
            return reduced, False
        pole = 2.0 * self.b * self.b
        if not (l > 0 and reduced == top and (pole == 0.0 or reduced < 1.0 / pole)):
            raise OutOfWindow(f"E={energy!r} outside the window (0, {self.unit * top!r}) "
                              f"at l={l!r}")
        return reduced, True


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number ``n >= 1`` and angular momentum ``l >= 0``.

    The principal number ``n_prime = n + l`` labels the undeformed spectrum
    ``E = m e2^2 / (2 n'^2)``.  The magnetic quantum number never enters the
    spectrum (rotational invariance) and is not modeled.  Both numbers are at
    most 2**53, up to which every integer is a float: the formulas take them
    as floats.
    """

    n: int
    l: int = 0

    def __post_init__(self):
        for name, value, low in (("n", self.n, 1), ("l", self.l, 0)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:  # the value is quoted only where str() of it cannot fail
                got = f", got {value}" if value >= -_QUANTUM_MAX else ""
                raise ValueError(f"{name} must be >= {low}{got}")
            if value > _QUANTUM_MAX:  # no value: str() of a huge int can itself fail
                raise ValueError(f"{name} must be <= 2**53, up to which every integer is a float")

    @property
    def n_prime(self) -> int:
        return self.n + self.l

