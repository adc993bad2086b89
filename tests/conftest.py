from fractions import Fraction
from random import Random

import pytest

from hahnsl2 import usl2
from hahnsl2.hahn import random_free_poly


def random_usl2_element(rng: Random, max_terms: int = 4, max_exp: int = 3) -> usl2.USL2Element:
    out = usl2.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out = out + usl2.monomial(*mono, coeff)
    return out


@pytest.fixture
def rand_usl2():
    return random_usl2_element


@pytest.fixture
def rand_free_poly():
    return random_free_poly
