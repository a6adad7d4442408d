"""Inconsistency indices for pairwise-comparison triads plus a seeded
axiom-falsification engine that audits, compares and ranks them."""

import importlib

# Each public name is listed once, in the __all__ of the module that defines it.
from . import axioms, core, indices
from .core import *  # noqa: F401,F403
from .indices import *  # noqa: F401,F403
from .axioms import *  # noqa: F401,F403

__version__ = "0.3.0"


def __getattr__(name: str):
    """Import analysis on the first name that core, indices and axioms do not
    define, and bind its __all__ names and the package's __all__: most CLI
    commands never use analysis, so they do not pay its import."""
    if name not in ("cli", "reporting"):  # `from triadaudit import cli` asks before it imports cli
        analysis = importlib.import_module(".analysis", __name__)
        globals().update({n: getattr(analysis, n) for n in analysis.__all__})
        globals()["__all__"] = ["__version__", *core.__all__, *indices.__all__, *axioms.__all__, *analysis.__all__]
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
