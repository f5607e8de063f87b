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

* ``l > 0`` orbits require a band of positive width, ``Ẽ < 1/(2*l**2)``;
* ``b > 0`` additionally requires ``1 - 2*b**2*Ẽ > 0``, the pole of the
  deformed radial closed form.

Every number from outside is read by the rules here, which no other module
repeats: :func:`finite_float` (and its positive rule, finite and > 0),
:func:`as_float` for an int past the float range, :func:`store_floats` for
the float fields of a frozen dataclass, and :func:`quote` for a message.

All types are immutable after construction and all functions are pure, so
everything here is safe to use from concurrent code.
"""

from __future__ import annotations

import math
import operator
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
_LARGEST = sys.float_info.max  # the largest finite float, a global: read on every input check
_SMALLEST = math.ulp(0.0)  # the least positive (subnormal) float
_DOUBLE_OVERFLOWS = math.ldexp(1.0, 1023)  # the least float whose double is inf
_QUANTUM_MAX = 2**53  # the largest n or l: every integer up to it is a float


def quote(value: object, prefix: str = ", got ") -> str:
    """``prefix`` and the repr of ``value``, for an error message; "" for an int past +-2**53.

    str() of an int past 4,300 digits raises its own ValueError, so no
    message quotes an int past the bound :func:`quantum_number` puts on n
    and l, nor any value whose repr raises that error, such as a Fraction
    of such an int: a message must not fail on the value it quotes.
    """
    if isinstance(value, int) and abs(value) > _QUANTUM_MAX:
        return ""
    try:
        return f"{prefix}{value!r}"
    except ValueError:
        return ""


def as_float(value: float) -> float:
    """``float(value)``, and the inf of its sign for an int past the float range.

    The one reader of such an int: float arithmetic would round it to that
    inf, where float() overflows.  The conversions and :func:`window_top`
    reach it only on that overflow; ``l_limit_study`` reads its grid with it.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def finite_float(name: str, value: object, positive: bool = False) -> float:
    """The one check of numeric inputs: ``value`` as a float, else NonFinite.

    Rejects bools, non-numbers, nan, +-inf and ints past the float range,
    which float() would take or overflow on: the message says ``name`` must
    be finite.  ``positive`` is the one rule of the inputs that must also be
    > 0 (a time, a tolerance, a grid's deformation, an energy): NonFinite
    where ``value`` is not finite and ValueError where it is <= 0, both
    saying ``name`` must be finite and > 0.
    """
    if type(value) is not float:  # a float, the common case, needs only the range test
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise NonFinite(f"{name} must be a real number{quote(value)}")
        if abs(value) <= _LARGEST:
            value = float(value)
    if not abs(value) <= _LARGEST:  # nan, +-inf or an int past the float range
        raise NonFinite(f"{name} must be finite{' and > 0' if positive else ''}{quote(value)}")
    if positive and not value > 0.0:
        raise ValueError(f"{name} must be finite and > 0{quote(value)}")
    return value


def store_floats(instance: object, *names: str) -> None:
    """Check each named field of the frozen dataclass ``instance`` and store it as a float.

    The fields' one rule is :func:`finite_float`, which returns a float: a
    numpy float or an int is stored as the float it reads as, in the
    instance's ``__dict__``, past frozen, as functools.cached_property stores.
    """
    for name in names:
        instance.__dict__[name] = finite_float(name, instance.__dict__[name])


def quantum_number(name: str, value: object, low: int) -> int:
    """``value`` as an int from ``low`` to 2**53, up to which every integer is a float.

    Takes any integer (``operator.index``) but a bool, else ValueError: the
    rule of ``QuantumNumbers``' n and l and of a table's shell count.
    """
    if type(value) is not int:  # an int, the common case, is its own index
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}{quote(value)}")
    if value > _QUANTUM_MAX:
        raise ValueError(f"{name} must be <= 2**53, up to which every integer is a float")
    return value


def check_level(n: float, l: float) -> None:
    """The one rule of a level's numbers: ValueError unless 0 < n < inf and 0 <= l < inf.

    Real n and l, compared and never converted, so an int past the float
    range fails too.  Both level cores, ``analytic.level_closed`` and the
    quadrature route's ``numerics._level_set``, ask it before anything else.
    """
    if not (0.0 < n <= _LARGEST and 0.0 <= l <= _LARGEST):
        raise ValueError(f"n{quote(n, '=')}, l{quote(l, '=')} need 0 < n < inf and 0 <= l < inf")


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
    inf, and where 2 b^2 overflows the top is 0, an int b past the float
    range included, read as the inf of its sign (:func:`as_float`).  Where
    1/(2 l^2) overflows (l below about 5e-155) the circular bound is inf.
    Raises ValueError unless l >= 0, and for an int l past the float range:
    the l of a window, where inf closes it, not of a level, which
    :func:`check_level` decides.
    """
    if not l >= 0:
        raise ValueError(f"l must be >= 0{quote(l)}")
    try:
        circular = 2.0 * l * l
    except OverflowError:  # str() of such an int can itself fail
        raise ValueError("l must be < inf, an int within the float range") from None
    e_max = 1.0 / circular if circular > 0.0 else math.inf
    try:
        pole = 2.0 * b * b
    except OverflowError:  # an int b past the float range
        return window_top(as_float(b), l)
    # the lower cap, without min(): this runs on every admitted energy
    return e_max if pole == 0.0 or e_max < 1.0 / pole else 1.0 / pole


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, coupling and deformation, each checked and stored as a float by :func:`store_floats`.

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
        store_floats(self, "m", "e2", "beta")
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
        """b = beta m e2 at the deformation ``beta``, as ``b`` is at ``self.beta``.

        An int past the float range reads as the inf of its sign (:func:`as_float`).
        """
        try:
            return _product(self.m, self.e2, beta)
        except OverflowError:  # an int past the float range
            return _product(self.m, self.e2, as_float(beta))

    def physical(self, reduced: float) -> float:
        """The physical energy unit * Ẽ of the reduced energy ``reduced``.

        An int past the float range reads as the inf of its sign (:func:`as_float`).
        """
        try:
            energy = self.unit * reduced
        except OverflowError:  # an int past the float range
            return self.physical(as_float(reduced))
        return energy if 0.0 < energy < math.inf else self._in_range(energy, reduced, _SMALLEST)

    def reduced(self, energy: float) -> float:
        """The reduced energy E/unit of the physical energy ``energy``.

        An int past the float range reads as the inf of its sign (:func:`as_float`).
        """
        try:
            reduced = energy / self.unit if self.unit else math.nan
        except OverflowError:  # an int past the float range
            return self.reduced(as_float(energy))
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

    def admit(self, energy: float, l: float) -> float:
        """The reduced energy Ẽ of ``energy``, strictly inside the window of ``l``.

        Raises OutOfWindow unless 0 < Ẽ < top (:func:`window_top`), at
        either bound of the window too: at the circular-orbit bound the band
        has zero width, Phi = 0 is no level, and no route evaluates it.
        """
        reduced, top = self.reduced(energy), window_top(self.b, l)
        if 0.0 < reduced < top:
            return reduced
        raise OutOfWindow(f"E{quote(energy, '=')} outside the window (0, {self.unit * top!r}) "
                          f"at l={l!r}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial quantum number ``n >= 1`` and angular momentum ``l >= 0``.

    The principal number ``n_prime = n + l`` labels the undeformed spectrum
    ``E = m e2^2 / (2 n'^2)``.  The magnetic quantum number never enters the
    spectrum (rotational invariance) and is not modeled.  Both numbers are
    ints at most 2**53, up to which every integer is a float: the formulas
    take them as floats.  :func:`quantum_number` checks each and stores an
    int, a numpy integer's too.
    """

    n: int
    l: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", quantum_number("n", self.n, 1))
        object.__setattr__(self, "l", quantum_number("l", self.l, 0))

    @property
    def n_prime(self) -> int:
        return self.n + self.l

