"""Load the package before any test module loads numpy; shared model fixtures.

numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, and
shadowbilliards sets its one-thread pin on import: importing it here, before
pytest collects the test modules, makes the suite run on the pinned OpenBLAS.

The potentials and the link below are models that only tests build: the
shipped runs fly free or Kepler flights and use the scenarios' own links.
Test modules import them with `from conftest import ...`.
"""

import sys

import pytest

_NUMPY_BEFORE_PIN = "numpy" in sys.modules

import shadowbilliards  # noqa: E402,F401
import numpy as np  # noqa: E402

from shadowbilliards.dls import LinkEvaluator  # noqa: E402
from shadowbilliards.dynamics import Potential, central_diff  # noqa: E402


@pytest.fixture
def numpy_loaded_before_pin():
    """Whether numpy was already loaded when the package set its pin."""
    return _NUMPY_BEFORE_PIN


class HarmonicPotential(Potential):
    """W(q) = (k/2) |q - center|^2."""

    def __init__(self, k: float = 1.0, center=None):
        self.k = float(k)
        self.center = None if center is None else np.asarray(center, dtype=float)

    def value(self, q):
        r = self._rel(q)
        return 0.5 * self.k * float(r @ r)

    def grad(self, q):
        return self.k * self._rel(q)


class CallablePotential(Potential):
    """Wrap plain callables; gradient by central differences if not supplied."""

    def __init__(self, fn, grad=None):
        self.fn = fn
        self._grad = grad

    def value(self, q):
        return float(self.fn(np.asarray(q, dtype=float)))

    def grad(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim == 2:   # the user functions take one point: apply them per row
            return np.stack([self.grad(row) for row in q])
        if self._grad is not None:
            return np.asarray(self._grad(q), dtype=float)
        return central_diff(self.fn, q, 1e-6)


class FunctionLink(LinkEvaluator):
    """Link branch given by a plain function of (xm, xp), for synthetic systems."""

    def __init__(self, fn, dim_minus: int, dim_plus: int):
        self.fn = fn
        self.dim_minus = dim_minus
        self.dim_plus = dim_plus

    def value(self, xm, xp):
        return float(self.fn(np.asarray(xm, dtype=float), np.asarray(xp, dtype=float)))
