import os


def test_package_pins_openblas_before_numpy_loads(numpy_loaded_before_pin):
    assert not numpy_loaded_before_pin
    assert os.environ["OPENBLAS_NUM_THREADS"]
