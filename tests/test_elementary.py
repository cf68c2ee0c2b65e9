"""Rank-one elementary crystals for real and imaginary indices."""

import pytest

from gkm_crystals.cartan import validate_datum
from gkm_crystals.crystal import NEG_INF, verify_axioms
from gkm_crystals.elementary import ElementaryCrystal, ElementaryElement

REAL = validate_datum([[2]])
IMAG0 = validate_datum([[0]])
IMAG2 = validate_datum([[-2]])
EXB = validate_datum([[0, -1], [-1, 2]])


def test_element_level_check():
    with pytest.raises(ValueError):
        ElementaryElement(1, -1)


@pytest.mark.parametrize("index, level", [(1, 1.0), (True, 1), (1.0, 1), (1, True), ("1", 1), (1, "1")])
def test_an_index_or_level_that_is_not_an_int_is_rejected(index, level):
    with pytest.raises(ValueError, match="must be ints"):
        ElementaryElement(index, level)


def test_real_statistics():
    c = ElementaryCrystal(REAL, 1)
    b = c.element(3)
    assert c.wt(b) == (-3,)
    assert c.eps(1, b) == 3
    assert c.phi(1, b) == -3
    assert c.key(b) == "b1(-3)"


def test_imaginary_statistics():
    c0 = ElementaryCrystal(IMAG0, 1)
    b = c0.element(3)
    assert c0.wt(b) == (-3,) and c0.eps(1, b) == 0 and c0.phi(1, b) == 0
    c2 = ElementaryCrystal(IMAG2, 1)
    b = c2.element(3)
    # phi = eps + <h, wt> = 0 + (-3)(-2)
    assert c2.eps(1, b) == 0 and c2.phi(1, b) == 6


def test_operators_walk_levels():
    c = ElementaryCrystal(REAL, 1)
    assert c.f(1, c.element(0)) == c.element(1)
    assert c.e(1, c.element(2)) == c.element(1)
    assert c.e(1, c.element(0)) is None


def test_foreign_index_frozen():
    c = ElementaryCrystal(EXB, 1)
    b = c.element(2)
    assert c.eps(2, b) == NEG_INF and c.phi(2, b) == NEG_INF
    assert c.e(2, b) is None and c.f(2, b) is None
    assert c.wt(b) == (-2, 0)


def test_wrong_index_element_rejected():
    c = ElementaryCrystal(EXB, 1)
    with pytest.raises(ValueError):
        c.wt(ElementaryElement(2, 0))


@pytest.mark.parametrize("datum", [REAL, IMAG0, IMAG2])
def test_axioms_on_truncation(datum):
    c = ElementaryCrystal(datum, 1)
    assert verify_axioms(c, [c.element(k) for k in range(9)]) == []
