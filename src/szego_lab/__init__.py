"""Certified correctors for finite Blaschke products and leading-coefficient
asymptotics of orthogonal systems on the unit circle.

The package exports the public names of its five library modules, each as
its module's __all__ lists them, so that list is kept in one place.  The
numpy half (circle_fourier, blaschke) loads with the package; every other
export resolves lazily (PEP 562): the exact-arithmetic modules (xlinalg,
measure_opuc, asymptotics), and with them mpmath, load on first access to
any of their names, to __all__ or to dir(), so the corrector's commands
never load them.
"""

import importlib

from szego_lab import blaschke, circle_fourier

__version__ = "0.1.0"

_MODULES = ("asymptotics", "blaschke", "circle_fourier", "measure_opuc",
            "xlinalg")

for _module in (blaschke, circle_fourier):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module


def _load() -> None:
    """Import the five modules, bind their public names here and set the
    package's __all__, in module order."""
    names = ["__version__"]
    for stem in _MODULES:
        module = importlib.import_module(f"{__name__}.{stem}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    # a probe for a dunder (inspect's, pickle's, a doctest finder's) loads
    # nothing
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    _load()
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    if "__all__" not in globals():
        _load()
    return sorted(globals())
