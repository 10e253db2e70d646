import numpy as np
import pytest

from sixvertex.vertex_model import Regime, random_lattice, random_spectral_point

RATIONAL = Regime("rational", 1.0)
TRIG = Regime("trigonometric", 0.7)


@pytest.fixture(params=["rational", "trigonometric"], ids=["rat", "trig"])
def regime(request):
    return RATIONAL if request.param == "rational" else TRIG


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def make_lattice(n_sites, regime, seed, spread=None):
    return random_lattice(n_sites, regime, np.random.default_rng(seed), spread=spread)


def default_spectral_samples(lattice, regime, roots, count, seed):
    """Seeded spectral points for eigenstate tests, away from the roots."""
    rng = np.random.default_rng(seed)
    return [
        random_spectral_point(lattice, regime, rng, avoid=tuple(roots))
        for _ in range(count)
    ]
