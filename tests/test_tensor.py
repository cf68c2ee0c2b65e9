"""Binary tensor rule: statistics, routing, the imaginary gap, associativity."""

import re

import pytest

from gkm_crystals.cartan import validate_datum
from gkm_crystals.crystal import NEG_INF, verify_axioms
from gkm_crystals.elementary import ElementaryCrystal
from gkm_crystals.errors import InputError
from gkm_crystals.tensor import TensorCrystal, TensorElement

REAL = validate_datum([[2]])
IMAG2 = validate_datum([[-2]])
EXB = validate_datum([[0, -1], [-1, 2]])


def pair_crystal(datum, i, j):
    return TensorCrystal(ElementaryCrystal(datum, i), ElementaryCrystal(datum, j))


def test_datum_mismatch_rejected():
    with pytest.raises(ValueError):
        TensorCrystal(ElementaryCrystal(REAL, 1), ElementaryCrystal(IMAG2, 1))


def test_statistics_max_formulas():
    c = pair_crystal(REAL, 1, 1)
    b = TensorElement(c.left.element(1), c.right.element(2))
    # eps = max(1, 2 - <h, -alpha>) = max(1, 4); phi = max(-1 + (-4), -2)
    assert c.wt(b) == (-3,)
    assert c.eps(1, b) == 4
    assert c.phi(1, b) == -2
    assert c.phi(1, b) == c.eps(1, b) + 2 * (-3)  # eps + <h, wt>


def test_a_bad_index_raises_the_datum_text():
    c = pair_crystal(EXB, 1, 2)
    b = TensorElement(c.left.element(1), c.right.element(0))
    for op in (c.e, c.f, c.eps, c.phi):
        for i in (0, 3, True, 1.0, "1"):
            with pytest.raises(InputError, match=rf"^index {re.escape(repr(i))} not in 1\.\.2$"):
                op(i, b)


def test_foreign_index_stays_frozen():
    c = pair_crystal(EXB, 1, 1)
    b = TensorElement(c.left.element(1), c.right.element(1))
    assert c.eps(2, b) == NEG_INF and c.phi(2, b) == NEG_INF
    assert c.f(2, b) is None and c.e(2, b) is None


def test_lowering_routes_by_phi_left():
    c = pair_crystal(REAL, 1, 1)
    # phi_L = 0 at level 0 is not greater than eps_R = 0: act right
    b = TensorElement(c.left.element(0), c.right.element(0))
    fb = c.f(1, b)
    assert fb == TensorElement(c.left.element(0), c.right.element(1))
    # now eps_R = 1 > phi_L = 0 still routes right; raise acts right too
    assert c.f(1, fb).right.level == 2
    assert c.e(1, fb) == b


def test_lowering_routes_left_when_phi_dominates():
    c = pair_crystal(IMAG2, 1, 1)
    b = TensorElement(c.left.element(1), c.right.element(0))
    # phi_L = 2 > eps_R = 0
    assert c.f(1, b) == TensorElement(c.left.element(2), c.right.element(0))


def test_real_raising_boundary_prefers_left():
    c = pair_crystal(REAL, 1, 1)
    b = TensorElement(c.left.element(1), c.right.element(1))
    # phi_L = -1, eps_R = 1: right; after lowering right twice from (0,0),
    # raising must unwind from the right factor first
    assert c.e(1, b).left.level == 1 and c.e(1, b).right.level == 0


def test_real_raising_annihilates_at_bottom():
    c = pair_crystal(REAL, 1, 1)
    b = TensorElement(c.left.element(1), c.right.element(0))
    # phi_L = -1 < eps_R = 0 routes right, and the right factor is already
    # at level 0, so raising annihilates the pair
    assert c.e(1, b) is None


def test_imaginary_gap_annihilates_and_logs():
    c = pair_crystal(IMAG2, 1, 1)
    b = TensorElement(c.left.element(1), c.right.element(0))
    # eps_R = 0 < phi_L = 2 <= eps_R - a_ii = 2: the gap case
    assert c.e(1, b) is None
    assert list(c.gap_events) == [(c.key(b), 1)]
    # one more lowering on the left leaves the gap: 4 > 2 routes left
    b2 = TensorElement(c.left.element(2), c.right.element(0))
    assert c.e(1, b2) == b
    assert len(c.gap_events) == 1


def test_imaginary_raising_right_when_small():
    c = pair_crystal(IMAG2, 1, 1)
    b = TensorElement(c.left.element(0), c.right.element(1))
    # phi_L = 0 <= eps_R = 0: act right
    assert c.e(1, b) == TensorElement(c.left.element(0), c.right.element(0))


def test_round_trip_on_truncation():
    for datum, i, j in [(REAL, 1, 1), (IMAG2, 1, 1), (EXB, 1, 2), (EXB, 2, 1)]:
        c = pair_crystal(datum, i, j)
        n = datum.index_count
        for a in range(4):
            for b in range(4):
                x = TensorElement(c.left.element(a), c.right.element(b))
                for k in range(1, n + 1):
                    down = c.f(k, x)
                    if down is not None:
                        assert c.e(k, down) == x
                    up = c.e(k, x)
                    if up is not None:
                        assert c.f(k, up) == x


@pytest.mark.parametrize("i,j", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_axioms_on_pairs(i, j):
    c = pair_crystal(EXB, i, j)
    elems = [TensorElement(c.left.element(a), c.right.element(b)) for a in range(5) for b in range(5)]
    assert verify_axioms(c, elems) == []


def test_associativity_of_statistics_and_operators():
    """(B1 (x) B2) (x) B1 agrees with B1 (x) (B2 (x) B1) everywhere."""
    b1 = ElementaryCrystal(EXB, 1)
    b2 = ElementaryCrystal(EXB, 2)
    left_first = TensorCrystal(TensorCrystal(b1, b2), b1)
    right_first = TensorCrystal(b1, TensorCrystal(b2, b1))

    def to_left(x, y, z):
        return TensorElement(TensorElement(b1.element(x), b2.element(y)), b1.element(z))

    def to_right(x, y, z):
        return TensorElement(b1.element(x), TensorElement(b2.element(y), b1.element(z)))

    def regroup(t):
        # ((x, y), z) -> (x, (y, z)) for comparison of operator images
        if t is None:
            return None
        return TensorElement(t.left.left, TensorElement(t.left.right, t.right))

    for x in range(3):
        for y in range(3):
            for z in range(3):
                a = to_left(x, y, z)
                b = to_right(x, y, z)
                assert left_first.wt(a) == right_first.wt(b)
                for i in (1, 2):
                    assert left_first.eps(i, a) == right_first.eps(i, b)
                    assert left_first.phi(i, a) == right_first.phi(i, b)
                    assert regroup(left_first.f(i, a)) == right_first.f(i, b)
                    assert regroup(left_first.e(i, a)) == right_first.e(i, b)
