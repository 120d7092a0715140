import random

import pytest

from horbits.golden import GoldenNumber
from horbits.groups import Weight


def random_dominant(group, rng: random.Random, max_coef: int = 3,
                    allow_zero_coords: bool = True) -> Weight:
    """A random dominant weight with small nonnegative Z[tau] coordinates."""
    while True:
        coords = []
        for _ in range(group.rank):
            if allow_zero_coords and rng.random() < 0.3:
                coords.append(GoldenNumber(0))
            else:
                coords.append(GoldenNumber(rng.randint(0, max_coef),
                                           rng.randint(0, max_coef)))
        w = Weight(group, tuple(coords))
        if not w.is_zero:
            return w


def _count_weights(monkeypatch):
    """A list that grows by one for each ``Weight`` built from now on."""
    built = []
    post_init = Weight.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Weight, "__post_init__", counted)
    return built


@pytest.fixture
def rng():
    return random.Random(20240517)
