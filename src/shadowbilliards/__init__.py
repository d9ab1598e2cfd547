"""Numerical toolkit for billiards with small scatterers.

Builds collision chains of a limiting billiard whose scatterer has
codimension greater than one, certifies their nondegeneracy and
hyperbolicity through the block-tridiagonal Hessian of the discrete
action, and verifies shadowing by actual trajectories: billiard orbits
in the complement of a thin tube around the scatterer, and nearly
colliding orbits of flows with Newtonian singularities.
"""

import os

# the chain solves are small, and OpenBLAS threads on a busy CPU slow them
# several times; numpy's OpenBLAS reads this once, when numpy loads, so it is
# set before any submodule imports numpy: a user's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import billiard, bvp, dls, dynamics, kepler, scatterer, singular, symbolic  # noqa: E402

__all__ = [
    "billiard",
    "bvp",
    "dls",
    "dynamics",
    "kepler",
    "scatterer",
    "singular",
    "symbolic",
]

__version__ = "0.1.0"
