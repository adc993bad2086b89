from fractions import Fraction
from math import gcd

import pytest
import sympy

from hahnsl2.hahn import random_free_poly
from hahnsl2.linalg import SparseMatrix, kernel_basis
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


def assert_canonical(x) -> None:
    """The storage of a Combination is canonical: nonzero integer numerators
    and a positive denominator with gcd 1, so zero is stored over 1."""
    num, den = x._num, x._den
    assert type(den) is int and den > 0, den
    assert all(type(c) is int and c for c in num.values()), num
    assert gcd(den, *num.values()) == 1, (num, den)


def ue_basis_recompose(coords):
    """The element whose even-subalgebra basis coordinates are ``coords``."""
    out = zero()
    for key, c in coords.items():
        out = out + ue_basis_element(*key).scale(c)
    return out


def eigenspace(m, lam) -> list:
    """Oracle: a basis of ker(M - lam*I), empty when lam is not an eigenvalue."""
    return kernel_basis(m - SparseMatrix.identity(m.rows).scale(lam))


def invert(m):
    """Oracle: the exact inverse of a square matrix through sympy, or None
    when it is singular."""
    sm = sympy.Matrix(dense(m))
    if sm.det() == 0:
        return None
    return SparseMatrix.from_rows([[Fraction(int(x.p), int(x.q)) for x in row]
                                   for row in sm.inv().tolist()])
