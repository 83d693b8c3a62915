import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from ineqlab.spaces import FiniteMetricSpace, ProbMeasure

# every property draws the same examples on every run; tests keep their own
# example counts
settings.register_profile("ineqlab", derandomize=True, deadline=None)
settings.load_profile("ineqlab")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_metric_space(rng, n, scale=2.0, min_sep=0.25):
    """Random points in the plane; Euclidean distances are always a metric."""
    while True:
        pts = rng.uniform(0.0, scale, (n, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        space = FiniteMetricSpace([str(i) for i in range(n)], d)
        if space.min_distance() >= min_sep and not space.validate():
            return space


def random_measure(rng, n, concentration=4.0):
    return ProbMeasure(rng.dirichlet(np.full(n, concentration)))


@pytest.fixture
def space_factory():
    return random_metric_space


@pytest.fixture
def measure_factory():
    return random_measure


# the README's 201-point Gaussian grid
README_GRID = {
    "generator": {"kind": "grid1d", "count": 201, "spacing": 0.05, "start": -5.0},
    "measure": {"density": "exp(-x**2/2)"},
}


@pytest.fixture
def no_large_zeros(monkeypatch):
    """Fail any ``np.zeros`` above 2**22 entries (32 MB of floats), so a test
    of an allocation guard never builds the matrix the guard refuses."""
    real = np.zeros

    def zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= 2 ** 22, f"np.zeros({shape!r})"
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)


def traced_peak(fn) -> int:
    """Peak bytes of Python-tracked memory (numpy buffers included) held at
    once while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
