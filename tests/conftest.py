import random
from fractions import Fraction

import pytest

from covjord.polynomials import MPoly


def stored_form(c) -> bool:
    """The stored form of an exact rational: int, or Fraction when not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def random_poly(vars, rng: random.Random, max_deg: int, terms: int = 4) -> MPoly:
    out = MPoly.zero(vars)
    for _ in range(terms):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(len(vars))] += 1
        out = out + MPoly.monomial(vars, tuple(mono), Fraction(rng.randint(-3, 3)))
    return out


@pytest.fixture
def rng():
    return random.Random(12345)
