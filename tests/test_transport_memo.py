"""Memoized transport against strip-and-replay done by hand with e and f."""

from itertools import permutations

import pytest
from hypothesis import given
from test_properties import PROPERTY_SETTINGS, data_and_periods

from gkm_crystals.binfinity import BInfElement, BInfinityCrystal, IotaSequence, transport_isomorphism_findings
from gkm_crystals.cartan import validate_datum
from gkm_crystals.crystal import check_strict_morphism, generate_graph
from gkm_crystals.elementary import ElementaryElement
from gkm_crystals.errors import InternalInconsistencyError

# The acceptance gate's cross-check matrices plus its gap matrix.
MATRICES = [
    [[2]],
    [[0]],
    [[-2]],
    [[2, -1], [-1, 2]],
    [[0, -1], [-1, 2]],
    [[0, -1], [-1, 0]],
    [[-2, -1], [-1, 2]],
]
DEPTH = 4
M3 = validate_datum([[2, -1, 0], [-1, 0, -1], [0, -1, 2]])
A2 = validate_datum([[2, -1], [-1, 2]])


def iotas(n):
    """Every permutation period, plus one period with a repeated index."""
    return [IotaSequence(p) for p in permutations(range(1, n + 1))] + [IotaSequence(tuple(range(1, n + 1)) + (1,))]


def by_hand(datum, b, dst_iota):
    """Strip b with e on a fresh realization, replay the word with f on another."""
    src, dst = BInfinityCrystal(datum, b.iota), BInfinityCrystal(datum, dst_iota)
    word = []
    while b.entries:
        j = next(j for j in range(1, datum.index_count + 1) if src.e(j, b) is not None)
        word.append(j)
        b = src.e(j, b)
    z = dst.highest_weight()
    for j in reversed(word):
        z = dst.f(j, z)
    return z


def psi_by_hand(datum, b, i):
    """Psi_i by the older construction: through (i,) + period and then its left shift."""
    period = b.iota.period
    t = by_hand(datum, b, IotaSequence((i,) + period))
    residual = BInfElement(IotaSequence(period + (i,)), t.entries[1:])
    return by_hand(datum, residual, b.iota), ElementaryElement(i, t.entries[0] if t.entries else 0)


def results(family, work):
    """Every transport, psi_embed and eps_star of the elements in `work`, in order.

    `work` lists (iota, elements) pairs; each is run on the family's
    realization over that iota, so every member's memos are exercised.
    """
    n = family.datum.index_count
    out = {}
    for iota, elements in work:
        c = family.realization_with(iota)
        for b in elements:
            for dst in iotas(n):
                out["transport", b, dst] = c.transport(b, family.realization_with(dst))
            for i in range(1, n + 1):
                out["psi", b, i] = c.psi_embed(b, i)
                out["eps_star", b, i] = c.eps_star(b, i)
    return out


@pytest.mark.parametrize("matrix", MATRICES, ids=str)
def test_memoized_transport_matches_strip_and_replay(matrix):
    datum = validate_datum(matrix)
    n = datum.index_count
    work = [(iota, BInfinityCrystal(datum, iota).enumerate_to_depth(DEPTH)[0]) for iota in iotas(n)]
    family = BInfinityCrystal(datum)
    cold = results(family, work)
    warm = results(family, work)
    # a cache must not leak state from one element into another
    reversed_work = [(iota, elements[::-1]) for iota, elements in reversed(work)]
    assert results(BInfinityCrystal(datum), reversed_work) == cold == warm
    for iota, elements in work:
        for b in elements:
            assert warm["transport", b, iota] == b
            for dst in iotas(n):
                assert warm["transport", b, dst] == by_hand(datum, b, dst)
            for i in range(1, n + 1):
                residual, factor = psi_by_hand(datum, b, i)
                assert warm["psi", b, i] == (residual, factor)
                assert warm["eps_star", b, i] == factor.level


@PROPERTY_SETTINGS
@given(data_and_periods())
def test_psi_embed_matches_the_older_construction_on_random_data(example):
    datum, iota = example
    c = BInfinityCrystal(datum, iota)
    for b in c.enumerate_to_depth(3)[0]:
        for i in range(1, datum.index_count + 1):
            residual, factor = psi_by_hand(datum, b, i)
            assert c.psi_embed(b, i) == (residual, factor)
            assert c.eps_star(b, i) == factor.level


def test_a_verify_pass_builds_only_rotations_of_the_period():
    c = BInfinityCrystal(M3)
    elements = c.enumerate_to_depth(4)[0]
    for i in (1, 2, 3):
        psi, target = c.psi_morphism(i)
        assert check_strict_morphism(psi, elements, c, target) == []
    reverse = c.realization_with(IotaSequence((3, 2, 1)))
    assert transport_isomorphism_findings(c, reverse, elements) == []
    rotations = {IotaSequence((1, 2, 3)), IotaSequence((2, 3, 1)), IotaSequence((3, 1, 2))}
    assert set(c._family) == rotations | {reverse.iota}


def test_graph_hashes_no_iota_sequence(monkeypatch):
    # An element's hash reads its string alone, so a long period is never hashed per element.
    c = BInfinityCrystal(A2, IotaSequence((1, 2) * 50 + (1,)))
    hashes = []
    original = IotaSequence.__hash__
    monkeypatch.setattr(IotaSequence, "__hash__", lambda self: hashes.append(self) or original(self))
    assert len(generate_graph(c, c.highest_weight(), 8).nodes) > 1
    assert hashes == []


def test_psi_checks_rotate_the_period_once_per_index(monkeypatch):
    # Each realization binds its i-first member once per index, so psi_embed does not rotate the period per call.
    c = BInfinityCrystal(A2, IotaSequence((1, 2, 1)))
    elements = c.enumerate_to_depth(4)[0]
    rotations = []
    original = IotaSequence.rotated
    monkeypatch.setattr(IotaSequence, "rotated", lambda self, k: rotations.append(k) or original(self, k))
    for i in (1, 2):
        psi, target = c.psi_morphism(i)
        assert check_strict_morphism(psi, elements, c, target) == []
    assert len(rotations) <= 4


# The two public walks from b: a strip to the head and a transport to the reversed realization.
WALKS = {
    "strip_to_head": lambda c, b: c.strip_to_head(b),
    "transport": lambda c, b: c.transport(b, c.realization_with(IotaSequence((3, 2, 1)))),
}


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
def test_raising_step_that_stays_put_trips_the_height_bound(monkeypatch, walk):
    c = BInfinityCrystal(M3)
    b = c.f(3, c.f(2, c.f(1, c.highest_weight())))
    monkeypatch.setattr(c, "e", lambda i, x: x)  # every e_j returns its own non-head argument
    with pytest.raises(InternalInconsistencyError, match="^raising word exceeds the weight height$"):
        walk(c, b)


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
def test_every_raising_operator_vanishing_is_stuck(monkeypatch, walk):
    c = BInfinityCrystal(M3)
    b = c.f(3, c.f(2, c.f(1, c.highest_weight())))
    monkeypatch.setattr(c, "e", lambda i, x: None)
    with pytest.raises(InternalInconsistencyError, match=f"^every raising operator vanishes at {c.key(b)}$"):
        walk(c, b)


@pytest.mark.parametrize("dst_iota", [IotaSequence((3, 2, 1)), IotaSequence((2, 1, 2, 3))],
                         ids=["reversed", "2-first"])
def test_warm_transport_reads_only_records(monkeypatch, dst_iota):
    src = BInfinityCrystal(M3)
    dst = src.realization_with(dst_iota)
    window = src.enumerate_to_depth(5)[0]
    cold = [src.transport(b, dst) for b in window]
    calls = []
    for name in ("_scan", "wt"):
        original = getattr(BInfinityCrystal, name)
        monkeypatch.setattr(BInfinityCrystal, name,
                            lambda self, *args, name=name, original=original: calls.append(name) or original(self, *args))
    assert [src.transport(b, dst) for b in window] == cold
    assert calls == []  # every element has its image, so no walk takes a step
