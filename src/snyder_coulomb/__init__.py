"""Semiclassical spectra and classical orbits of the Coulomb problem in Snyder space.

The package computes loop phase integrals of the minimal-length (Snyder)
deformation of the Coulomb problem in closed form and by an independent
trapezoid rule in log variables, solves the resulting quantization condition for 1D
and 3D-radial energy spectra, and integrates planar orbits under the
deformed bracket structure.  Natural units, hbar = 1.
"""

from . import analytic, dynamics, errors, model, numerics
from .errors import *
from .model import *
from .analytic import *
from .numerics import *
from .dynamics import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *model.__all__, *analytic.__all__,
           *numerics.__all__, *dynamics.__all__]
