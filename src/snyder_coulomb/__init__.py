"""Semiclassical spectra and classical orbits of the Coulomb problem in Snyder space.

The package computes loop phase integrals of the minimal-length (Snyder)
deformation of the Coulomb problem in closed form and by an independent
trapezoid rule in log variables, solves the resulting quantization condition for 1D
and 3D-radial energy spectra, and integrates planar orbits under the
deformed bracket structure.  Natural units, hbar = 1.

Importing the package executes ``errors``, ``model`` and ``analytic`` only,
none of which needs numpy.  ``numerics`` and ``dynamics`` are imported on
the first access to the module or to one of its public names, which are
then bound here.
"""

import importlib

from . import analytic, errors, model
from .errors import *
from .model import *
from .analytic import *

__version__ = "0.1.0"

# The public names of the numpy layers, by module; tests/test_imports.py
# checks them against each module's __all__.
_LAZY = {
    "numerics": ("SpectrumEntry", "CorrectionFit", "phase_integral_numeric",
                 "energy_numeric", "spectrum_table", "correction_order"),
    "dynamics": ("OrbitState", "Trajectory", "PrecessionResult", "equations_of_motion",
                 "invariants", "integrate_orbit", "precession_per_orbit"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = ["__version__", *errors.__all__, *model.__all__, *analytic.__all__,
           *_LAZY["numerics"], *_LAZY["dynamics"]]


def __getattr__(name: str):
    owner = _MODULE_OF.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{owner}", __name__)
    globals().update((public, getattr(module, public)) for public in _LAZY[owner])
    return module if name == owner else globals()[name]
