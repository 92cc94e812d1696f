import os

import numpy as np
import pytest
from hypothesis import settings

from ampenv import kernels

# CI runs the properties without an explicit example count longer:
# HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)


@pytest.fixture
def set_span(monkeypatch):
    """A setter of ``kernels._SPAN``, the samples per chained span and per zero-phase piece, for one test.

    Tests shrink it to cut short inputs into many pieces. A size that is no
    multiple of ``GROUP * BLOCK`` changes the chain's bits and the open
    group a ``FilterState`` keeps, so such a size suits zero-phase calls only.
    """

    def set_to(samples):
        monkeypatch.setattr(kernels, "_SPAN", samples)
        return samples

    return set_to


@pytest.fixture
def fresh_operators():
    """Empties the kernel's three operator caches before and after the test; returns the function that empties them.

    For tests that count operator builds or patch what operators are built
    from: they start with no cached operator and leave none behind. A test
    that builds under two patches calls the function between them.
    """

    def clear():
        for cache in (kernels._design, kernels._block_operators, kernels._held_operators):
            cache.cache_clear()

    clear()
    yield clear
    clear()
