import numpy as np
import pytest


@pytest.fixture(params=["numpy"])
def kernel_path(request):
    """The package's one kernel path, plain NumPy/Python.

    Kept as a parameter so the kernel tests keep their ``[numpy]`` ids.
    """
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
