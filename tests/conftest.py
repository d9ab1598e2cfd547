"""Load the package before any test module loads numpy; shared model fixtures.

numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, and
shadowbilliards sets its one-thread pin on import: importing it here, before
pytest collects the test modules, makes the suite run on the pinned OpenBLAS.

The potentials and the link below are models that only tests build: the
shipped runs fly free or Kepler flights and use the scenarios' own links.
central_diff is the tests' finite-difference helper. Test modules import
them with `from conftest import ...`.
"""

import sys

import pytest

_NUMPY_BEFORE_PIN = "numpy" in sys.modules

import shadowbilliards  # noqa: E402,F401
import numpy as np  # noqa: E402

from shadowbilliards.dls import LinkEvaluator, difference_hessians  # noqa: E402
from shadowbilliards.dynamics import Potential  # noqa: E402


def central_diff(f, x, h: float) -> np.ndarray:
    """Central differences of f at x along each coordinate axis.

    Entry i of the last axis is (f(x + h e_i) - f(x - h e_i)) / (2 h): the
    gradient of a scalar f, the Jacobian of a vector f; empty for empty x.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(0)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        col = (f(x + e) - f(x - e)) / (2 * h)
        if i == 0:
            out = np.empty(np.shape(col) + (x.size,))
        out[..., i] = col
    return out


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
    """Link branch given by a plain function of (xm, xp), for synthetic systems.

    Gradients are central differences of the function (step 1e-6), row by
    row; Hessians are difference_hessians of those gradients.
    """

    def __init__(self, fn, dim_minus: int, dim_plus: int):
        self.fn = fn
        self.dim_minus = dim_minus
        self.dim_plus = dim_plus

    @classmethod
    def values(cls, links, XM, XP):
        return np.array([float(link.fn(xm, xp)) for link, xm, xp in zip(links, XM, XP)])

    @classmethod
    def grads(cls, links, XM, XP):
        rows = [(central_diff(lambda x: float(link.fn(x, xp)), xm, 1e-6),
                 central_diff(lambda x: float(link.fn(xm, x)), xp, 1e-6))
                for link, xm, xp in zip(links, XM, XP)]
        return (np.array([r[0] for r in rows]).reshape(len(links), XM.shape[1]),
                np.array([r[1] for r in rows]).reshape(len(links), XP.shape[1]))

    @classmethod
    def hessians(cls, links, XM, XP):
        return difference_hessians(cls, links, XM, XP)
