"""Pointwise invariants on quiver representations over exact rationals."""

import random
from fractions import Fraction as Q

import pytest

from gkm_crystals import geometry
from gkm_crystals.cartan import Quiver
from gkm_crystals.errors import DimensionExceededError, InputError, ShapeMismatchError
from gkm_crystals.exactlin import RatMat
from gkm_crystals.geometry import (
    FlagWitness,
    QuiverRep,
    eps_point,
    eps_star_point,
    flag_exists,
    load_rep,
    moment_map,
    moment_map_check,
    regular_semisimple_check,
    regular_semisimple_verdicts,
    star_rep,
    verify_flag,
)

# one loop plus one arrow to a real vertex; the running two-vertex example
LOOP_QUIVER = Quiver.from_omega_arrows(2, [(1, 1), (1, 2)])
ONE_LOOP = Quiver.from_omega_arrows(1, [(1, 1)])

REP_JSON = """
{"quiver": {"vertices": 2, "omega_arrows": [[1, 1], [1, 2]]},
 "dims": [2, 1],
 "mats": {"h0": [[0, 0], [0, 0]],
          "h1": [[0, 0]],
          "h2": [[1, 1], [0, 3]],
          "h3": [[1], [1]]}}
"""


def pinned_rep() -> QuiverRep:
    return load_rep(REP_JSON)


def one_loop_rep(omega_rows, bar_rows) -> QuiverRep:
    return QuiverRep(ONE_LOOP, (2,), (RatMat.from_rows(omega_rows), RatMat.from_rows(bar_rows)))


def test_load_rep_and_validation():
    rep = pinned_rep()
    assert rep.dims == (2, 1)
    assert rep.mats[2].entries == ((Q(1), Q(1)), (Q(0), Q(3)))
    assert rep.total_dim() == 3
    with pytest.raises(InputError):
        load_rep('{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1]}')
    with pytest.raises(InputError):
        load_rep(
            '{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1],'
            ' "mats": {"h0": [[0]], "h9": [[0]]}}'
        )


def test_fraction_entries_parse():
    rep = load_rep(
        '{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1],'
        ' "mats": {"h0": [["1/2"]], "h1": [[2]]}}'
    )
    assert rep.mats[0].entries == ((Q(1, 2),),)
    for entry in ("x", "1e3", "0.5", " 1", "1_0", "1/0", "1/-2"):
        with pytest.raises(InputError):
            load_rep(
                '{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1],'
                f' "mats": {{"h0": [["{entry}"]], "h1": [[2]]}}}}'
            )


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatchError):
        QuiverRep(LOOP_QUIVER, (2, 1), (RatMat.zeros(2, 2), RatMat.zeros(1, 2),
                                        RatMat.zeros(2, 2), RatMat.zeros(1, 1)))


def test_star_rep_transposes_partners():
    rep = one_loop_rep([[0, 1], [0, 0]], [[0, 0], [0, 0]])
    star = star_rep(rep)
    assert star.mats[1].entries == ((Q(0), Q(0)), (Q(1), Q(0)))
    assert star.mats[0].is_zero()
    assert star_rep(star).mats == rep.mats


def test_moment_map_vanishing():
    assert moment_map_check(pinned_rep())
    # identity loop commutes with itself
    assert moment_map_check(one_loop_rep([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    bad = one_loop_rep([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert not moment_map_check(bad)
    assert moment_map(bad, 1).entries == ((Q(-1), Q(0)), (Q(0), Q(1)))


@pytest.mark.parametrize("i", [0, 3, -1])
def test_moment_map_rejects_vertex_out_of_range(i):
    with pytest.raises(InputError):
        moment_map(pinned_rep(), i)


def test_regular_semisimple():
    assert regular_semisimple_verdicts(pinned_rep()) == {2: True}
    assert regular_semisimple_check(pinned_rep())
    # repeated eigenvalue 1 fails
    assert regular_semisimple_verdicts(one_loop_rep([[0, 0], [0, 0]], [[1, 0], [0, 1]])) == {1: False}
    assert regular_semisimple_verdicts(one_loop_rep([[0, 0], [0, 0]], [[1, 0], [0, 3]])) == {1: True}


def test_eps_values_on_pinned_instance():
    rep = pinned_rep()
    assert (eps_point(rep, 1), eps_point(rep, 2)) == (0, 1)
    # eps* is checked internally against the kernel formula
    assert (eps_star_point(rep, 1), eps_star_point(rep, 2)) == (2, 0)


def test_eps_on_zero_rep():
    rep = one_loop_rep([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert eps_point(rep, 1) == 2
    assert eps_star_point(rep, 1) == 2


def test_flag_found_and_verified():
    rep = pinned_rep()
    witness = flag_exists(rep)
    assert witness is not None
    assert len(witness.steps) == rep.total_dim()
    assert verify_flag(rep, witness) == []
    by_vertex = [sum(1 for v, _ in witness.steps if v == vertex) for vertex in (1, 2)]
    assert by_vertex == [2, 1]


def test_flag_rejects_invertible_strict_loop():
    assert flag_exists(one_loop_rep([[1, 0], [0, 1]], [[1, 0], [0, 1]])) is None
    assert flag_exists(one_loop_rep([[0, 1], [0, 0]], [[0, 0], [1, 0]])) is None


def test_flag_on_zero_rep():
    rep = one_loop_rep([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    witness = flag_exists(rep)
    assert witness is not None and verify_flag(rep, witness) == []


def test_flag_needs_triangularizable_weak_loop():
    # nilpotent strict loop, but the weak loop rotates the plane: no
    # rational eigenvector, hence no flag over the rationals
    rep = one_loop_rep([[0, 0], [0, 0]], [[0, -1], [1, 0]])
    assert flag_exists(rep) is None


def test_flag_dimension_bound():
    rep = QuiverRep(ONE_LOOP, (7,), (RatMat.zeros(7, 7), RatMat.zeros(7, 7)))
    with pytest.raises(DimensionExceededError):
        flag_exists(rep)


def test_verify_flag_blames_faults():
    rep = pinned_rep()
    witness = flag_exists(rep)
    short = FlagWitness(witness.steps[:-1])
    findings = verify_flag(rep, short)
    assert any("steps" in f or "exhaust" in f for f in findings)

    repeated = FlagWitness((witness.steps[0], witness.steps[0], witness.steps[2]))
    assert any("does not increase" in f for f in verify_flag(rep, repeated))

    # promoting the real vertex first breaks the strict-containment rule
    reordered = FlagWitness((witness.steps[2], witness.steps[0], witness.steps[1]))
    assert any("strict arrow" in f for f in verify_flag(rep, reordered))

    malformed = FlagWitness(((1, (Q(1),)),))
    assert any("bad vertex" in f for f in verify_flag(rep, malformed))


def test_flag_search_stops_after_one_candidate(monkeypatch):
    # diag(1, 1) + a plane rotation: the 1-eigenspace has two basis vectors,
    # and the quotient by either keeps the rotation, which has no rational
    # eigenvector.  One candidate decides that no flag exists.
    calls = []
    real_nullspace = geometry.nullspace

    def counting(m):
        calls.append(m)
        return real_nullspace(m)

    monkeypatch.setattr(geometry, "nullspace", counting)
    op = RatMat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert geometry._triangularize([op], 4) is None
    assert len(calls) == 2


def _unimodular(rng: random.Random, n: int) -> tuple[RatMat, RatMat]:
    """An integer matrix of determinant 1 and its inverse, from random column additions."""
    u, inv = [[int(i == j) for j in range(n)] for i in range(n)], [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for row in u:
            row[j] += c * row[i]  # u <- u (1 + c e_ij)
        inv[i] = [a - c * b for a, b in zip(inv[i], inv[j])]  # inv <- (1 - c e_ij) inv
    return RatMat.from_rows(u), RatMat.from_rows(inv)


@pytest.mark.parametrize("seed", range(3))
def test_flag_found_on_large_spectra(seed):
    # Two vertices with a loop each, dims (3, 3), flag V1 before V2.  Each
    # weak loop is upper triangular with eigenvalues of size 10**5..10**6,
    # the strict loops are zero (they must commute with a regular semisimple
    # weak loop), 1 -> 2 is zero and 2 -> 1 is random; then each vertex space
    # is conjugated by a unimodular matrix.  Both flag layers are 3-dimensional,
    # so the characteristic polynomials have constant terms near 10**18.
    rng = random.Random(seed)
    quiver = Quiver.from_omega_arrows(2, [(1, 1), (2, 2), (1, 2)])
    (u1, u1_inv), (u2, u2_inv) = _unimodular(rng, 3), _unimodular(rng, 3)

    def weak_loop(u, u_inv):
        t = [[rng.choice([-1, 1]) * rng.randint(10**5, 10**6) if i == j else rng.randint(-5, 5) * (i < j)
              for j in range(3)] for i in range(3)]
        return u @ RatMat.from_rows(t) @ u_inv

    zero = RatMat.zeros(3, 3)
    down = u1 @ RatMat.from_rows([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]) @ u2_inv
    rep = QuiverRep(quiver, (3, 3), (zero, zero, zero, weak_loop(u1, u1_inv), weak_loop(u2, u2_inv), down))
    witness = flag_exists(rep)
    assert witness is not None
    assert [v for v, _ in witness.steps] == [1, 1, 1, 2, 2, 2]
    assert verify_flag(rep, witness) == []
