"""Exact rational linear algebra and small polynomial utilities."""

import math
import random
from fractions import Fraction as Q

import pytest

from gkm_crystals.exactlin import (
    EchelonBasis,
    RatMat,
    charpoly,
    is_squarefree,
    nullspace,
    poly_deriv,
    poly_eval,
    poly_gcd,
    rational_roots,
    rref,
)
from gkm_crystals.oracle import Laurent, laurent_rank


def test_ratmat_shape_checks():
    with pytest.raises(ValueError):
        RatMat(2, 2, ((Q(1),),))
    with pytest.raises(ValueError):
        RatMat.from_rows([[1, 2], [3]])
    m = RatMat.from_rows([], nrows=0, ncols=3)
    assert m.ncols == 3 and m.is_zero()
    assert RatMat.from_rows([], ncols=2).nrows == 0


def test_ratmat_arithmetic():
    a = RatMat.from_rows([[1, 2], [3, 4]])
    b = RatMat.identity(2)
    assert (a - a).is_zero()
    assert (a + (-a)).is_zero()
    assert (a @ b).entries == a.entries
    assert a.scale(Q(1, 2)).entries[0] == (Q(1, 2), Q(1))
    assert a.transpose().entries == ((Q(1), Q(3)), (Q(2), Q(4)))
    assert a.trace() == 5
    with pytest.raises(ValueError):
        a @ RatMat.identity(3)
    with pytest.raises(ValueError):
        a + RatMat.identity(3)


def test_matmul_zero_dimensions():
    tall = RatMat.from_rows([], nrows=0, ncols=2)
    wide = RatMat.from_rows([[1], [2]], nrows=2, ncols=1)
    assert (tall @ wide).nrows == 0
    prod = wide @ RatMat.from_rows([[]], ncols=0)
    assert prod.nrows == 2 and prod.ncols == 0


def test_apply_rows_convention():
    m = RatMat.from_rows([[1, 1], [0, 3]])
    # rows are vectors; the image of row v is v under x -> m x read in coordinates
    [img] = m.apply_rows([(Q(1), Q(0))])
    assert img == (Q(1), Q(0))
    [img] = m.apply_rows([(Q(0), Q(1))])
    assert img == (Q(1), Q(3))


def test_rref_and_rank():
    rows = [(Q(2), Q(4)), (Q(1), Q(2))]
    red, pivots = rref(rows, 2)
    assert red == [(Q(1), Q(2))] and pivots == [0]
    assert len(EchelonBasis(2, rows)) == 1
    assert len(EchelonBasis(2, [])) == 0
    assert EchelonBasis(2, rows + [(Q(0), Q(1))]).rows == [(Q(1), Q(0)), (Q(0), Q(1))]


def test_span_and_solve():
    basis = [(Q(1), Q(1)), (Q(0), Q(1))]
    assert (Q(3), Q(5)) in EchelonBasis(2, basis)
    assert (Q(0), Q(1)) not in EchelonBasis(2, [(Q(1), Q(0))])
    # Coordinates: augment row k by the k-th unit vector; reducing (v, 0)
    # leaves (0, -c) when v = sum c_k basis_k, and a nonzero head otherwise.
    units = [(Q(1), Q(0)), (Q(0), Q(1))]
    red = EchelonBasis(4, [b + u for b, u in zip(basis, units)]).reduce((Q(3), Q(5), Q(0), Q(0)))
    assert red[:2] == (0, 0) and [-c for c in red[2:]] == [Q(3), Q(2)]
    red = EchelonBasis(3, [(Q(1), Q(0), Q(1))]).reduce((Q(0), Q(1), Q(0)))
    assert any(red[:2])


def test_add_reports_growth():
    basis = EchelonBasis(3)
    assert basis.add((1, 2, 3)) and not basis.add((2, 4, 6))
    assert basis.add((0, 0, 1)) and not basis.add((0, 0, 0))
    assert basis.rows == [(Q(1), Q(2), Q(0)), (Q(0), Q(0), Q(1))] and basis.pivots == [0, 2]
    with pytest.raises(ValueError):
        basis.add((1, 2))


def _random_rows(rng: random.Random, width: int) -> list[tuple[Q, ...]]:
    rows: list[tuple[Q, ...]] = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.15:
            rows.append((Q(0),) * width)
        elif roll < 0.3 and rows:
            rows.append(rng.choice(rows))
        else:
            rows.append(tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else Q(0)
                              for _ in range(width)))
    return rows


def _is_rref(rows, pivots, width: int) -> bool:
    if pivots != sorted(set(pivots)) or len(rows) != len(pivots):
        return False
    for row, p in zip(rows, pivots):
        if len(row) != width or any(row[:p]) or row[p] != 1:
            return False
        if any(row[q] for q in pivots if q != p):
            return False
    return True


def _integer_rank(rows, width: int) -> int:
    """Rank by the oracle's fraction-free elimination over rows scaled to integers."""
    scaled = []
    for row in rows:
        lcm = math.lcm(*(a.denominator for a in row)) if row else 1
        scaled.append([Laurent.from_int(int(a * lcm)) for a in row])
    return laurent_rank(scaled, width)


def test_echelon_basis_against_fraction_free_rank():
    rng = random.Random(20081030)
    for _ in range(300):
        width = rng.randint(0, 5)
        rows = _random_rows(rng, width)
        basis = EchelonBasis(width)
        grew = sum(basis.add(v) for v in rows)
        assert _is_rref(basis.rows, basis.pivots, width)
        assert all(v in basis for v in rows)
        assert len(basis) == grew == _integer_rank(rows, width)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert EchelonBasis(width, shuffled).rows == basis.rows  # the RREF basis is canonical


def test_nullspace():
    ker = nullspace(RatMat.from_rows([[1, 2]]))
    assert len(ker) == 1
    x, y = ker[0]
    assert x + 2 * y == 0 and (x, y) != (0, 0)
    assert nullspace(RatMat.identity(2)) == []
    assert len(nullspace(RatMat.zeros(2, 3))) == 3


def test_charpoly():
    # coefficients are descending and monic
    swap = RatMat.from_rows([[0, 1], [1, 0]])
    assert charpoly(swap) == [Q(1), Q(0), Q(-1)]
    diag = RatMat.from_rows([[1, 0], [0, 3]])
    assert charpoly(diag) == [Q(1), Q(-4), Q(3)]
    assert charpoly(RatMat.from_rows([], nrows=0, ncols=0)) == [Q(1)]


def test_poly_utilities():
    p = [Q(1), Q(-3), Q(2)]  # x^2 - 3x + 2
    assert poly_eval(p, Q(1)) == 0 and poly_eval(p, Q(0)) == 2
    assert poly_deriv(p) == [Q(2), Q(-3)]
    g = poly_gcd(p, poly_deriv(p))
    assert len(g) == 1  # squarefree gives a constant gcd
    assert is_squarefree(p)
    assert not is_squarefree([Q(1), Q(-2), Q(1)])  # (x-1)^2
    assert not is_squarefree([Q(1), Q(0), Q(0)])  # x^2


def test_rational_roots():
    assert rational_roots([Q(1), Q(-3), Q(2)]) == [Q(1), Q(2)]
    assert rational_roots([Q(2), Q(-3), Q(1)]) == [Q(1, 2), Q(1)]
    assert rational_roots([Q(1), Q(0), Q(-1)]) == [Q(-1), Q(1)]
    assert rational_roots([Q(1), Q(0), Q(2)]) == []  # x^2 + 2
    assert rational_roots([Q(1), Q(0)]) == [Q(0)]  # x
