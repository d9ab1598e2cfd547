"""Load the package before any test module loads numpy.

numpy's OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, and
shadowbilliards sets its one-thread pin on import: importing it here, before
pytest collects the test modules, makes the suite run on the pinned OpenBLAS.
"""

import sys

import pytest

_NUMPY_BEFORE_PIN = "numpy" in sys.modules

import shadowbilliards  # noqa: E402,F401


@pytest.fixture
def numpy_loaded_before_pin():
    """Whether numpy was already loaded when the package set its pin."""
    return _NUMPY_BEFORE_PIN
