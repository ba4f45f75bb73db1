import tracemalloc

import numpy as np
import pytest

from homcontract import spaces


@pytest.fixture(scope="session")
def sphere():
    return spaces.make_sphere2()


@pytest.fixture(scope="session")
def so3():
    return spaces.make_so3_biinvariant()


@pytest.fixture(scope="session")
def so3_left():
    return spaces.make_so3_left_invariant([1.0, 1.0, 4.0])


@pytest.fixture(scope="session")
def circle():
    return spaces.make_circle()


@pytest.fixture(scope="session")
def euclid2():
    return spaces.make_euclidean(2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


@pytest.fixture(scope="session")
def traced_peak():
    """``traced_peak(fn)``: the peak bytes tracemalloc sees during a call of
    fn, made after one untraced warm-up call so that one-time caches
    (imports, cached properties) stay out of it."""
    def peak(fn) -> int:
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
