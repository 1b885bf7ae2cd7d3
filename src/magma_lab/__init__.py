"""Numerical laboratory for the magma porosity equation.

Pseudospectral time evolution on the d-torus via elliptic inversion of
the compaction rate, plus a shooting toolkit for radially symmetric
solitary-wave profiles and the diagnostics connecting the two.
"""

from . import diagnostics, elliptic, evolution, grid, profile
from .diagnostics import *  # noqa: F401,F403
from .elliptic import *  # noqa: F401,F403
from .evolution import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .profile import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *grid.__all__, *elliptic.__all__, *evolution.__all__,
           *profile.__all__, *diagnostics.__all__]
