import pytest

from hahnsl2.hahn import random_free_poly
from hahnsl2.usl2 import random_element as random_usl2_element


@pytest.fixture
def rand_usl2():
    return random_usl2_element


@pytest.fixture
def rand_free_poly():
    return random_free_poly
