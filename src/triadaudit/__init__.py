"""Inconsistency indices for pairwise-comparison triads plus a seeded
axiom-falsification engine that audits, compares and ranks them."""

# Each public name is listed once, in the __all__ of the module that defines it.
from . import analysis, axioms, core, indices
from .core import *  # noqa: F401,F403
from .indices import *  # noqa: F401,F403
from .axioms import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__version__ = "0.2.0"

__all__ = ["__version__", *core.__all__, *indices.__all__, *axioms.__all__, *analysis.__all__]
