"""Datum validation, weight helpers, and quiver plumbing."""

import pytest

from gkm_crystals.cartan import (
    MAX_RANK,
    Quiver,
    add_weights,
    load_cartan,
    load_quiver,
    pairing,
    quiver_to_cartan,
    simple_root,
    validate_datum,
    weight_height,
)
from gkm_crystals.errors import InputError

GOOD_MATRICES = [
    [[2]],
    [[0]],
    [[-2]],
    [[2, -1], [-1, 2]],
    [[0, -1], [-1, 2]],
    [[0, -1], [-1, 0]],
    [[-2, -1], [-1, 2]],
]


@pytest.mark.parametrize("matrix", GOOD_MATRICES)
def test_validate_accepts(matrix):
    d = validate_datum(matrix)
    assert d.index_count == len(matrix)


def test_real_imaginary_split():
    d = validate_datum([[0, -1], [-1, 2]])
    assert d.imaginary_indices == frozenset({1})
    assert d.real_indices == frozenset({2})
    assert not d.is_real(1) and d.is_real(2)


def test_validate_rejections():
    with pytest.raises(InputError, match=r"^entries \(1,2\) and \(2,1\) differ$"):
        validate_datum([[2, -1], [0, 2]])
    with pytest.raises(InputError, match="^matrix is not square$"):
        validate_datum([[2, -1]])
    with pytest.raises(InputError, match="^diagonal entry a_11 = 1 is not in "):
        validate_datum([[1]])
    with pytest.raises(InputError, match="^diagonal entry a_11 = 4 is not in "):
        validate_datum([[4]])
    with pytest.raises(InputError, match="^diagonal entry a_11 = -1 is not in "):
        validate_datum([[-1]])
    with pytest.raises(InputError, match="^off-diagonal entry a_12 = 1 is positive$"):
        validate_datum([[2, 1], [1, 2]])
    with pytest.raises(InputError):
        validate_datum([])
    with pytest.raises(InputError):
        validate_datum([[2.5]])


def test_datum_accessors():
    d = validate_datum([[2, -1], [-1, 2]])
    assert d.a(1, 2) == -1
    with pytest.raises(InputError, match=r"^index 0 not in 1\.\.2$"):
        d.a(0, 1)
    with pytest.raises(InputError, match=r"^index 3 not in 1\.\.2$"):
        d.check_index(3)


def test_weight_helpers():
    assert simple_root(2, 2) == (0, 1)
    assert add_weights((1, 2), (3, -1)) == (4, 1)
    assert weight_height((2, 3)) == 5
    with pytest.raises(InputError, match="^weight lengths 1 and 2 differ$"):
        add_weights((1,), (1, 2))


def test_pairing_and_form():
    d = validate_datum([[2, -1], [-1, 2]])
    # <h_i, alpha_j> = a_ij
    assert pairing(d, 1, (1, 0)) == 2
    assert pairing(d, 1, (0, 1)) == -1
    with pytest.raises(InputError, match="^weight length 1 != rank 2$"):
        pairing(d, 1, (1,))


def test_quiver_construction():
    q = Quiver.from_omega_arrows(2, [(1, 1), (1, 2)])
    assert len(q.arrows) == 4
    assert q.partner(0) == 2 and q.partner(2) == 0
    # bar arrows reverse their partners
    assert q.arrows[3].source == 2 and q.arrows[3].target == 1
    assert not q.arrows[2].in_omega
    assert q.weak_positions() == (2,)


def test_quiver_involution_rejections():
    with pytest.raises(InputError, match=r"^vertex 3 not in 1\.\.2$"):
        Quiver.from_omega_arrows(2, [(1, 3)])
    with pytest.raises(InputError):
        Quiver.from_omega_arrows(0, [])


def test_quiver_to_cartan():
    assert quiver_to_cartan(Quiver.from_omega_arrows(2, [(1, 1), (1, 2)])).matrix == ((0, -1), (-1, 2))
    assert quiver_to_cartan(Quiver.from_omega_arrows(2, [(1, 2)])).matrix == ((2, -1), (-1, 2))
    assert quiver_to_cartan(Quiver.from_omega_arrows(1, [(1, 1)])).matrix == ((0,),)
    assert quiver_to_cartan(Quiver.from_omega_arrows(1, [(1, 1), (1, 1)])).matrix == ((-2,),)
    # two loops at 1, three at 3 (each counts twice in H), a double edge 1-2 and one edge 3-2
    multi = Quiver.from_omega_arrows(3, [(1, 1), (1, 2), (3, 3), (2, 1), (1, 1), (3, 2), (3, 3), (3, 3)])
    assert quiver_to_cartan(multi).matrix == ((-2, -2, 0), (-2, 2, -1), (0, -1, -4))


def test_load_cartan():
    d = load_cartan('{"matrix": [[0, -1], [-1, 2]]}')
    assert d.matrix == ((0, -1), (-1, 2))
    assert load_cartan({"matrix": [[2]]}).matrix == ((2,),)
    with pytest.raises(InputError):
        load_cartan("not json")
    with pytest.raises(InputError):
        load_cartan('{"rows": [[2]]}')
    with pytest.raises(InputError):
        load_cartan("[1, 2]")


def test_load_quiver():
    q = load_quiver('{"vertices": 2, "omega_arrows": [[1, 1], [1, 2]]}')
    assert q.vertex_count == 2 and len(q.arrows) == 4
    with pytest.raises(InputError):
        load_quiver('{"vertices": 2}')
    with pytest.raises(InputError):
        load_quiver('{"vertices": "x", "omega_arrows": []}')
    with pytest.raises(InputError):
        load_quiver('{"vertices": 1, "omega_arrows": [[1]]}')


def test_rank_bound():
    def diagonal(n):
        return [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    assert validate_datum(diagonal(MAX_RANK)).index_count == MAX_RANK
    assert load_quiver({"vertices": MAX_RANK, "omega_arrows": []}).vertex_count == MAX_RANK
    with pytest.raises(InputError, match=f"^rank {MAX_RANK + 1} exceeds the bound {MAX_RANK}$"):
        validate_datum(diagonal(MAX_RANK + 1))
    # load_quiver rejects before quiver_to_cartan builds any vertices x vertices matrix.
    with pytest.raises(InputError, match=f"^1000000000 vertices exceed the bound {MAX_RANK}$"):
        load_quiver({"vertices": 10**9, "omega_arrows": []})
