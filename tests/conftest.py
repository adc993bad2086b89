from fractions import Fraction

import pytest

from hahnsl2.hahn import random_free_poly
from hahnsl2.reporting import PASS
from hahnsl2.usl2 import random_element as random_usl2_element
from hahnsl2.usl2 import ue_basis_element, zero


@pytest.fixture
def rand_usl2():
    return random_usl2_element


@pytest.fixture
def rand_free_poly():
    return random_free_poly


def all_pass(items) -> bool:
    return all(item.status == PASS for item in items)


def dense(m) -> list[list[Fraction]]:
    """The entries of a SparseMatrix as a list of rows."""
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for r, c, v in m.items():
        out[r][c] = v
    return out


def ue_basis_recompose(coords):
    """The element whose even-subalgebra basis coordinates are ``coords``."""
    out = zero()
    for key, c in coords.items():
        out = out + ue_basis_element(*key).scale(c)
    return out
