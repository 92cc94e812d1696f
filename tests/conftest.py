import os

import numpy as np
import pytest
from hypothesis import settings

# CI runs the properties without an explicit example count longer:
# HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
