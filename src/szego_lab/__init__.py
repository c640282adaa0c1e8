"""Certified correctors for finite Blaschke products and leading-coefficient
asymptotics of orthogonal systems on the unit circle.

The package exports the public names of its five library modules, each as
its module's __all__ lists them, so that list is kept in one place.
"""

from szego_lab import asymptotics, blaschke, circle_fourier, measure_opuc, xlinalg

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (asymptotics, blaschke, circle_fourier, measure_opuc, xlinalg):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
