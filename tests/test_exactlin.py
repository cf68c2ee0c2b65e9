"""Exact rational linear algebra and small polynomial utilities."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm_crystals import exactlin
from gkm_crystals.errors import InternalInconsistencyError
from gkm_crystals.exactlin import (
    EchelonBasis,
    RatMat,
    charpoly,
    is_squarefree,
    nullspace,
    poly_deriv,
    rational_roots,
    rref,
)
from gkm_crystals.oracle import Laurent, laurent_rank


def _identity(n: int) -> RatMat:
    return RatMat.from_rows([[int(i == j) for j in range(n)] for i in range(n)], nrows=n, ncols=n)


def _cleared(v) -> tuple[list[int], int]:
    """(d*v, d) for the least d > 0 that makes d*v integral."""
    d = math.lcm(*(Q(a).denominator for a in v))
    return [int(Q(a) * d) for a in v], d


def _fraction_rows(basis: EchelonBasis) -> list[tuple[Q, ...]]:
    """The RREF rows of a basis as Fractions: each int row over its pivot entry."""
    return [tuple(Q(a, r[p]) for a in r) for r, p in zip(basis.rows, basis.pivots)]


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
    b = _identity(2)
    assert (a @ b).entries == a.entries
    assert a.transpose().entries == ((Q(1), Q(3)), (Q(2), Q(4)))
    with pytest.raises(ValueError):
        a @ _identity(3)


def test_matmul_zero_dimensions():
    tall = RatMat.from_rows([], nrows=0, ncols=2)
    wide = RatMat.from_rows([[1], [2]], nrows=2, ncols=1)
    assert (tall @ wide).nrows == 0
    prod = wide @ RatMat.from_rows([[]], ncols=0)
    assert prod.nrows == 2 and prod.ncols == 0


def test_apply_rows_convention():
    m = RatMat.from_rows([[1, 1], [0, 3]])
    # vectors are int lists; the image of v is m v read in coordinates, times m.scale
    assert m.image([1, 0]) == [1, 0]
    assert m.image([0, 1]) == [1, 3]
    halves = RatMat.from_rows([[Q(1, 2), 0], [Q(-1, 3), Q(1, 6)]])
    assert halves.scale == 6 and halves.int_rows == [[3, 0], [-2, 1]] and halves.int_cols == [[3, -2], [0, 1]]
    assert halves.image([2, 4]) == [6, 0]  # 6 * (1, 0)
    assert halves.transpose().image([1, 1]) == [1, 1]  # 6 * (1/6, 1/6)


def test_apply_rows_rejects_a_length_mismatch():
    m = RatMat.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="vector of length 3 for a matrix with 2 columns"):
        m.image([1, 1, 99])
    with pytest.raises(ValueError, match="vector of length 1 for a matrix with 2 columns"):
        m.image([1])
    assert m.image([1, 1]) == [3, 7]


# Entries are checked where Fractions become ints: building a matrix, clearing a
# matrix built without from_rows (its int form, products, transpose, charpoly),
# and the polynomial functions.  EchelonBasis, rref and nullspace take int vectors.
@pytest.mark.parametrize("build", [
    lambda: RatMat.from_rows([[0.1]]),
    lambda: RatMat(1, 2, ((0.5, 1),)).image([1, 0]),
    lambda: RatMat(2, 1, ((1,), (1.0,))) @ _identity(1),
    lambda: charpoly(RatMat(1, 1, ((1.5,),))),
    lambda: _identity(2) @ RatMat(2, 1, ((0,), (0.5,))),
    lambda: RatMat(2, 1, ((Q(1, 2),), (0.5,))).transpose(),
    lambda: rational_roots([1, -0.5]),
    lambda: is_squarefree([1.0, 0, -1]),
    lambda: rational_roots([Q(1, 3), 0, 0.5]),
])
def test_floats_are_rejected(build):
    with pytest.raises(TypeError, match="exact arithmetic takes int or Fraction entries"):
        build()


def test_rref_and_rank():
    # rows are kept primitive with a positive pivot entry: the RREF row times its pivot entry's denominator
    rows = [(2, 4), (1, 2)]
    red, pivots = rref(rows, 2)
    assert red == [[1, 2]] and pivots == [0]
    assert rref([(-4, 6)], 2) == ([[2, -3]], [0])
    assert len(EchelonBasis(2, rows)) == 1
    assert len(EchelonBasis(2, [])) == 0
    assert EchelonBasis(2, rows + [(0, 1)]).rows == [[1, 0], [0, 1]]


def test_span_and_solve():
    basis = [(1, 1), (0, 1)]
    assert (3, 5) in EchelonBasis(2, basis)
    assert (0, 1) not in EchelonBasis(2, [(1, 0)])
    # Coordinates: augment row k by the k-th unit vector; reducing (v, 0)
    # leaves s (0, -c) when v = sum c_k basis_k, and a nonzero head otherwise.
    units = [(1, 0), (0, 1)]
    red, s = EchelonBasis(4, [b + u for b, u in zip(basis, units)]).reduce((3, 5, 0, 0))
    assert red[:2] == [0, 0] and [Q(-c, s) for c in red[2:]] == [Q(3), Q(2)]
    red, s = EchelonBasis(2, [(2, 3)]).reduce((1, 0))  # (1, 0) - (1/2) (2, 3) = (0, -3/2)
    assert s > 0 and [Q(c, s) for c in red] == [Q(0), Q(-3, 2)]
    red, _ = EchelonBasis(3, [(1, 0, 1)]).reduce((0, 1, 0))
    assert any(red[:2])


def test_add_reports_growth():
    basis = EchelonBasis(3)
    assert basis.add((1, 2, 3)) == [1, 2, 3] and basis.add((2, 4, 6)) is None
    assert basis.add((0, 0, 5)) == [0, 0, 1] and basis.add((0, 0, 0)) is None
    assert basis.rows == [[1, 2, 0], [0, 0, 1]] and basis.pivots == [0, 2]
    assert basis.add((0, -3, 0)) == [0, 1, 0]  # reduced against the rows, then primitive with a positive pivot
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
        scaled.append({j: Laurent({0: int(a * lcm)}) for j, a in enumerate(row) if a})
    return laurent_rank(scaled, width)


def test_echelon_basis_against_fraction_free_rank():
    rng = random.Random(20081030)
    for _ in range(300):
        width = rng.randint(0, 5)
        rows = [_cleared(v)[0] for v in _random_rows(rng, width)]
        basis = EchelonBasis(width)
        grew = sum(basis.add(v) is not None for v in rows)
        assert _is_rref(_fraction_rows(basis), basis.pivots, width)
        assert all(v in basis for v in rows)
        assert len(basis) == grew == _integer_rank(rows, width)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert EchelonBasis(width, shuffled).rows == basis.rows  # the RREF basis is canonical


def test_nullspace():
    ker = nullspace([[1, 2]], 2)
    assert len(ker) == 1
    x, y = ker[0]
    assert x + 2 * y == 0 and (x, y) != (0, 0)
    assert nullspace([[2, 3, 0]], 3) == [[-3, 2, 0], [0, 0, 1]]  # primitive, positive at the free column
    assert nullspace([(1, 0), (0, 1)], 2) == []
    assert len(nullspace([(0, 0, 0)] * 2, 3)) == 3


def test_charpoly():
    # coefficients are descending, coprime integers with a positive lead
    swap = RatMat.from_rows([[0, 1], [1, 0]])
    assert charpoly(swap) == [1, 0, -1]
    diag = RatMat.from_rows([[1, 0], [0, 3]])
    assert charpoly(diag) == [1, -4, 3]
    assert charpoly(RatMat.from_rows([], nrows=0, ncols=0)) == [1]
    assert all(type(c) is int for c in charpoly(diag))


def test_poly_utilities():
    p = [Q(1), Q(-3), Q(2)]  # x^2 - 3x + 2
    assert poly_deriv(p) == [Q(2), Q(-3)]
    assert is_squarefree(p)
    assert not is_squarefree([Q(1), Q(-2), Q(1)])  # (x-1)^2
    assert not is_squarefree([Q(1), Q(0), Q(0)])  # x^2
    # integer coefficients stay exact: (x - (10^17 + 1))^2 is no square in floats
    assert not is_squarefree([1, -(2 * 10**17 + 2), (10**17 + 1) ** 2])


def _counting_sturm(monkeypatch) -> list:
    calls, sturm = [], exactlin._sturm

    def counting(p):
        calls.append(p)
        return sturm(p)

    monkeypatch.setattr(exactlin, "_sturm", counting)
    return calls


def test_squarefree_certificate_decides_without_the_exact_test(monkeypatch):
    calls = _counting_sturm(monkeypatch)
    p = [1, -3, 2]  # (x - 1)(x - 2)
    assert all(exactlin._squarefree_mod(p, ell) for ell in exactlin._CERTIFYING_PRIMES)
    assert is_squarefree(p) and is_squarefree([Q(1, 2), Q(-3, 2), 1]) and calls == []
    # a prime that divides the leading coefficient certifies nothing
    ell, other = exactlin._CERTIFYING_PRIMES[:2]
    assert not exactlin._squarefree_mod([ell, 1, 1], ell) and exactlin._squarefree_mod([ell, 1, 1], other)


def test_squarefree_certificate_fails_and_the_exact_test_decides(monkeypatch):
    calls = _counting_sturm(monkeypatch)
    p = [1, -4, 5, -2]  # (x - 1)^2 (x - 2)
    assert not any(exactlin._squarefree_mod(p, ell) for ell in exactlin._CERTIFYING_PRIMES)
    assert not is_squarefree(p) and len(calls) == 1


def test_squarefree_certificate_misses_a_square_that_only_the_primes_see(monkeypatch):
    # x (x - P) with P the product of the primes is x^2 modulo each of them, but squarefree over Q.
    calls = _counting_sturm(monkeypatch)
    p = [1, -math.prod(exactlin._CERTIFYING_PRIMES), 0]
    assert not any(exactlin._squarefree_mod(p, ell) for ell in exactlin._CERTIFYING_PRIMES)
    assert is_squarefree(p) and len(calls) == 1


def test_rational_roots():
    assert rational_roots([Q(1), Q(-3), Q(2)]) == [Q(1), Q(2)]
    assert rational_roots([Q(2), Q(-3), Q(1)]) == [Q(1, 2), Q(1)]
    assert rational_roots([Q(1), Q(0), Q(-1)]) == [Q(-1), Q(1)]
    assert rational_roots([Q(1), Q(0), Q(2)]) == []  # x^2 + 2
    assert rational_roots([Q(1), Q(0)]) == [Q(0)]  # x
    # (x - 6)(x - 8)(x^2 + 2): flipping a Sturm remainder's sign loses both roots
    assert rational_roots([1, -14, 50, -28, 96]) == [Q(6), Q(8)]


def test_rational_roots_large_entries():
    assert rational_roots([1, 0, -10**60]) == [Q(-10**30), Q(10**30)]
    assert rational_roots([Q(1, 10**30), Q(-1)]) == [Q(10**30)]
    assert rational_roots([7, 0, 0]) == [Q(0)]
    with pytest.raises(ValueError):
        rational_roots([Q(0), Q(0)])


ROOT_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _times(a, b) -> list[Q]:
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _nonzero(bound: int):
    return st.integers(-bound, bound).filter(bool)


def _rationals(bound: int):
    return st.builds(Q, st.integers(-bound, bound), st.integers(1, bound))


@st.composite
def planted_roots(draw):
    """(c * prod (x - r) * g, the r) at one scale: repeated and zero roots, g = 1 or (x - s)^2 + k, k > 0."""
    bound = draw(st.sampled_from([10, 10**6, 10**30]))
    pool = draw(st.lists(_rationals(bound), min_size=1, max_size=3)) + [Q(0)]
    roots = draw(st.lists(st.sampled_from(pool), max_size=4))
    p = [Q(draw(_nonzero(bound)), draw(st.integers(1, bound)))]
    for r in roots:
        p = _times(p, [Q(1), -r])
    if draw(st.booleans()):
        s, k = draw(_rationals(bound)), Q(draw(st.integers(1, bound)), draw(st.integers(1, bound)))
        p = _times(p, [Q(1), -2 * s, s * s + k])
    return p, roots


@given(planted_roots())
@ROOT_SETTINGS
def test_rational_roots_finds_planted_roots(case):
    p, roots = case
    assert rational_roots(p) == sorted(set(roots))


@pytest.mark.parametrize("k", [1, 2, 3, 10, 31, 64, 65, 127, 200, 299, 300])
def test_rational_roots_near_powers_of_two(k):
    # Roots +-2^k and +-(2^k +- 1) in degrees 1-4, repeated, over a leading coefficient > 1.
    r, s, t = 2**k, 2**k + 1, 2**k - 1
    cube = _times(_times([Q(2), t], [Q(1), -s]), [Q(1), -s])
    cases = [
        ([3, -r], {Q(r, 3)}),
        ([1, -s], {Q(s)}),
        (_times([Q(1), -r], [Q(1), -r]), {Q(r)}),
        (_times(_times([Q(3), -r], [Q(1), s]), [Q(1), -t]), {Q(r, 3), Q(-s), Q(t)}),
        (_times(_times([Q(1), -r], [Q(1), -r]), [Q(1), -r]), {Q(r)}),
        (_times(cube, [Q(1), r]), {Q(-t, 2), Q(s), Q(-r)}),
        (_times(_times([Q(1), -r], [Q(1), r]), [Q(1), 0, Q(1)]), {Q(r), Q(-r)}),  # x^2 + 1 has none
    ]
    for p, roots in cases:
        assert rational_roots(p) == sorted(roots), p


def test_rational_roots_bisects_from_the_smaller_bound(monkeypatch):
    # Cauchy's bound on (x - 2^200)^3 is about 2^601; Fujiwara's is about 2^203.
    calls = []
    sign_changes = exactlin._sign_changes

    def counting(seq, x):
        calls.append(x)
        return sign_changes(seq, x)

    monkeypatch.setattr(exactlin, "_sign_changes", counting)
    r = 2**200
    assert rational_roots([1, -3 * r, 3 * r * r, -r**3]) == [Q(r)]
    assert len(calls) <= 210


def _ref_eval(p, x: Q) -> Q:
    acc = Q(0)
    for c in p:
        acc = acc * x + c
    return acc


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


def _divisor_search(p: list[int]) -> list[Q]:
    """Reference: every rational root of an integer polynomial is +-(divisor of a_n)/(divisor of a_0)."""
    roots = set()
    while len(p) > 1 and p[-1] == 0:
        roots.add(Q(0))
        p = p[:-1]
    if len(p) > 1:
        roots |= {Q(s * num, den) for num in _divisors(p[-1]) for den in _divisors(p[0]) for s in (1, -1)
                  if _ref_eval(p, Q(s * num, den)) == 0}
    return sorted(roots)


@st.composite
def small_integer_polys(draw):
    """Integer coefficients of size at most 50, often with a planted factor a x - b."""
    p = [draw(_nonzero(8))] + draw(st.lists(st.integers(-8, 8), max_size=4))
    if draw(st.booleans()):
        p = [int(c) for c in _times(p, [draw(st.integers(1, 3)), -draw(st.integers(-3, 3))])]
    return p


@given(small_integer_polys())
@ROOT_SETTINGS
def test_rational_roots_match_divisor_search(p):
    assert max(abs(c) for c in p) <= 50
    assert rational_roots(p) == _divisor_search(p)


# -- the integer kernels against plain Fraction arithmetic ---------------------


def _ref_rref(rows, width: int):
    """Gauss-Jordan elimination over Fractions: (RREF rows sorted by pivot, pivots)."""
    basis: list[list[Q]] = []
    for v in rows:
        v = [Q(a) for a in v]
        for row in basis:
            p = next(k for k, a in enumerate(row) if a)
            c = v[p]
            v = [a - c * b for a, b in zip(v, row)]
        p = next((k for k, a in enumerate(v) if a), None)
        if p is None:
            continue
        v = [a / v[p] for a in v]
        basis = [[a - r[p] * b for a, b in zip(r, v)] for r in basis] + [v]
    basis.sort(key=lambda r: next(k for k, a in enumerate(r) if a))
    return [tuple(r) for r in basis], [next(k for k, a in enumerate(r) if a) for r in basis]


def _ref_reduce(rows, pivots, v):
    return tuple(Q(a) - sum((Q(v[p]) * r[k] for r, p in zip(rows, pivots)), Q(0)) for k, a in enumerate(v))


def _ref_apply(entries, v) -> tuple[Q, ...]:
    return tuple(sum((a * Q(x) for a, x in zip(row, v)), Q(0)) for row in entries)


def _ref_charpoly(entries, n: int) -> list[Q]:
    """Faddeev-LeVerrier over Fractions."""
    coeffs, mk = [Q(1)], [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum((entries[i][t] * mk[t][j] for t in range(n)), Q(0)) for j in range(n)] for i in range(n)]
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return coeffs


KERNEL_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)
_entries = st.one_of(st.just(Q(0)), st.integers(-3, 3).map(Q), _rationals(10**6))


@st.composite
def spanning_rows(draw, width: int | None = None):
    """(width, rows): fresh vectors, zero vectors, repeats and combinations of earlier rows."""
    width = draw(st.integers(0, 7)) if width is None else width
    rows: list[tuple[Q, ...]] = []
    for kind in draw(st.lists(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]), max_size=8)):
        if kind == "fresh" or not rows:
            rows.append(tuple(draw(st.lists(_entries, min_size=width, max_size=width))))
        elif kind == "zero":
            rows.append((Q(0),) * width)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(_rationals(10**6))
            rows.append(tuple(x + c * y for x, y in zip(a, b)))
    return width, rows


@given(spanning_rows(), st.data())
@KERNEL_SETTINGS
def test_echelon_basis_matches_fraction_reference(case, data):
    width, rows = case
    ints = [_cleared(v)[0] for v in rows]
    basis = EchelonBasis(width, ints)
    ref_rows, ref_pivots = _ref_rref(rows, width)
    assert _fraction_rows(basis) == ref_rows and basis.pivots == ref_pivots and len(basis) == len(ref_rows)
    assert all(type(a) is int for r in basis.rows for a in r)
    assert all(math.gcd(*r) == 1 and r[p] > 0 for r, p in zip(basis.rows, basis.pivots))
    assert rref(ints, width) == (basis.rows, ref_pivots)
    for v in rows + data.draw(spanning_rows(width))[1]:
        u, d = _cleared(v)
        red, s = basis.reduce(u)
        assert s > 0 and tuple(Q(a, s * d) for a in red) == _ref_reduce(ref_rows, ref_pivots, v)
        assert all(type(a) is int for a in red)
        assert (u in basis) == (not any(red))


@given(spanning_rows())
@KERNEL_SETTINGS
def test_nullspace_matches_fraction_reference(case):
    width, rows = case
    ref_rows, ref_pivots = _ref_rref(rows, width)
    expected = []
    for fc in (c for c in range(width) if c not in ref_pivots):
        v = [Q(int(c == fc)) for c in range(width)]
        for r, pc in zip(ref_rows, ref_pivots):
            v[pc] = -r[fc]
        expected.append(tuple(v))
    got = nullspace([_cleared(v)[0] for v in rows], width)
    assert all(type(a) is int for v in got for a in v) and all(math.gcd(*v) == 1 for v in got)
    # each vector is a positive multiple of the canonical one, whose last nonzero entry is its free 1
    lasts = [max(k for k, a in enumerate(v) if a) for v in got]
    assert all(v[k] > 0 for v, k in zip(got, lasts))
    assert [tuple(Q(a, v[k]) for a in v) for v, k in zip(got, lasts)] == expected
    assert all(not any(_ref_apply(rows, v)) for v in expected)


@st.composite
def matrix_pairs(draw):
    """(m, n, vectors): m is r x c, n is c x s, vectors have length c; any side may be 0."""
    r, c, s = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    grid = lambda a, b: draw(st.lists(st.lists(_entries, min_size=b, max_size=b), min_size=a, max_size=a))
    vectors = [tuple(v) for v in grid(draw(st.integers(0, 3)), c)] + [(Q(0),) * c]
    return RatMat.from_rows(grid(r, c), nrows=r, ncols=c), RatMat.from_rows(grid(c, s), nrows=c, ncols=s), vectors


@given(matrix_pairs())
@KERNEL_SETTINGS
def test_products_match_fraction_reference(case):
    m, n, vectors = case
    # the int form: D*m with D the least common denominator, applied to cleared vectors
    assert m.scale == math.lcm(*(a.denominator for row in m.entries for a in row))
    assert m.int_rows == [[int(a * m.scale) for a in row] for row in m.entries]
    assert m.int_cols == [[row[j] for row in m.int_rows] for j in range(m.ncols)]
    for v in vectors:
        u, d = _cleared(v)
        image = m.image(u)
        assert all(type(a) is int for a in image)
        assert tuple(Q(a, m.scale * d) for a in image) == _ref_apply(m.entries, v)
    t = m.transpose()
    assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
    assert t.entries == tuple(tuple(row[j] for row in m.entries) for j in range(m.ncols))
    assert (t.scale, t.int_rows, t.int_cols) == (m.scale, m.int_cols, m.int_rows)
    prod = m @ n
    cols = [tuple(row[j] for row in n.entries) for j in range(n.ncols)]
    assert (prod.nrows, prod.ncols) == (m.nrows, n.ncols)
    assert prod.entries == tuple(tuple(_ref_apply((row,), col)[0] for col in cols) for row in m.entries)
    assert all(type(a) is Q for row in prod.entries for a in row)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 7))
    bound = draw(st.sampled_from([3, 10**6]))
    entry = st.one_of(st.just(Q(0)), _rationals(bound))
    return RatMat.from_rows(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)),
                            nrows=n, ncols=n)


@given(square_matrices())
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
def test_charpoly_matches_fraction_reference(m):
    coeffs = charpoly(m)
    assert coeffs == exactlin._primitive(_ref_charpoly(m.entries, m.nrows))
    assert all(type(c) is int for c in coeffs) and coeffs[0] > 0


def test_charpoly_of_the_empty_matrix():
    assert charpoly(RatMat.from_rows([], nrows=0, ncols=0)) == [Q(1)]


def test_charpoly_inexact_division_is_a_tripwire(monkeypatch):
    product = exactlin._int_product

    def planted(a, b):  # a wrong power: one more in the corner
        out = product(a, b)
        out[0][0] += 1
        return out

    m = RatMat.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert charpoly(m) == [Q(1), Q(-1), Q(0), Q(0)]
    monkeypatch.setattr(exactlin, "_int_product", planted)
    with pytest.raises(InternalInconsistencyError, match="Newton's identity 3"):
        charpoly(m)


def _ref_gcd(a, b) -> list[Q]:
    """Monic Euclid over Fractions."""
    def monic(p):
        p = list(p)
        while p and p[0] == 0:
            p = p[1:]
        return [Q(c) / p[0] for c in p] if p else []

    a, b = monic(a), monic(b)
    while b:
        while len(a) >= len(b):
            c = a[0]
            a = [x - c * y for x, y in zip(a, b)] + a[len(b):]
            a = a[1:]
        a, b = b, monic(a)
    return a


@given(st.lists(_rationals(10**6), min_size=1, max_size=3), st.lists(st.lists(_rationals(10**6), min_size=1, max_size=3),
                                                                     min_size=2, max_size=2))
@ROOT_SETTINGS
def test_is_squarefree_matches_fraction_euclid(common, cofactors):
    a, b = (_times(common, f) for f in cofactors)
    for p in (a, b, _times(a, common)):  # the last has common as a square factor
        assert is_squarefree(p) == (len(p) <= 2 or len(_ref_gcd(p, poly_deriv(p))) <= 1)


def _ref_remainder(a, b) -> list[Q]:
    a = [Q(c) for c in a]
    while len(a) >= len(b):
        c = a[0] / b[0]
        a = [x - c * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    return a


@given(st.lists(st.integers(-10**6, 10**6), max_size=7), st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5))
@ROOT_SETTINGS
def test_integer_remainder_is_a_positive_multiple(a, b):
    """_rem(a, b) is the primitive form of the remainder over Q, scaled by a positive factor only."""
    b = exactlin._primitive(b) or [1]
    r = _ref_remainder(a, b)
    assert exactlin._rem(a, b) == exactlin._primitive(r)


def test_integer_remainder_keeps_its_sign():
    # x^3 + x + 1 = (-x)(-x^2 - 1) + 1: three steps by a negative leading coefficient
    assert exactlin._rem([1, 0, 1, 1], [-1, 0]) == [1]


# -- what the geometry calls on a weak loop ------------------------------------


def _loop_matrix(rng: random.Random) -> list[list[Q]]:
    """A 1-4 dimensional p/q matrix: random, or conjugate to a triangular one with a repeated eigenvalue."""
    n = rng.randint(1, 4)
    if n == 1 or rng.random() < 0.5:
        return [[Q(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.7 else Q(0) for _ in range(n)]
                for _ in range(n)]
    eig = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    eig[-1] = eig[0]
    t = [[eig[i] if i == j else Q(rng.randint(-3, 3), rng.randint(1, 3)) if i < j else Q(0) for j in range(n)]
         for i in range(n)]
    for _ in range(rng.randint(1, 6)):  # t -> E t E^-1 with E = 1 + c e_ij
        i, j, c = rng.randrange(n), rng.randrange(n), rng.choice([-2, -1, 1, 2])
        if i != j:
            t[i] = [a + c * b for a, b in zip(t[i], t[j])]
            for row in t:
                row[j] -= c * row[i]
    return t


def test_loop_spectrum_matches_fraction_reference():
    rng = random.Random(19)
    verdicts, rooted = set(), 0
    for _ in range(200):
        rows = _loop_matrix(rng)
        ref = _ref_charpoly(rows, len(rows))
        den = math.lcm(*(c.denominator for c in ref))
        coeffs = charpoly(RatMat.from_rows(rows))
        roots = rational_roots(coeffs)
        assert roots == _divisor_search([int(c * den) for c in ref])
        squarefree = len(_ref_gcd(ref, [c * (len(ref) - 1 - k) for k, c in enumerate(ref[:-1])])) <= 1
        assert is_squarefree(coeffs) == squarefree
        verdicts.add(squarefree)
        rooted += bool(roots)
    assert verdicts == {True, False} and rooted > 50
