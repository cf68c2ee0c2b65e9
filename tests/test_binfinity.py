"""Coordinate-string realization of B(inf): operators, embeddings, transport."""

import re
from itertools import product

import pytest

from gkm_crystals import cli
from gkm_crystals.binfinity import (
    _UNSET,
    BInfElement,
    BInfinityCrystal,
    IotaSequence,
    graded_counts,
    transport_isomorphism_findings,
)
from gkm_crystals.cartan import pairing, validate_datum
from gkm_crystals.crystal import check_strict_morphism, generate_graph, verify_axioms
from gkm_crystals.elementary import ElementaryElement
from gkm_crystals.errors import DepthExceededError, InputError, InternalInconsistencyError
from gkm_crystals.oracle import graded_dim

EXB = validate_datum([[0, -1], [-1, 2]])
SL2 = validate_datum([[2]])
A2 = validate_datum([[2, -1], [-1, 2]])
TWO_IMAG = validate_datum([[0, -1], [-1, 0]])
GAP = validate_datum([[-2, -1], [-1, 2]])
M3 = validate_datum([[2, -1, 0], [-1, 0, -1], [0, -1, 2]])

# layer sizes at depth 4, frozen after cross-checking the graded counts
# against the independent oracle at every height <= 6
LAYERS_4 = {
    ((2,),): [1, 1, 1, 1, 1],
    ((0,),): [1, 1, 1, 1, 1],
    ((-2,),): [1, 1, 1, 1, 1],
    ((2, -1), (-1, 2)): [1, 2, 4, 6, 9],
    ((0, -1), (-1, 2)): [1, 2, 4, 7, 12],
    ((0, -1), (-1, 0)): [1, 2, 4, 8, 16],
}


def test_iota_sequence_basics():
    seq = IotaSequence.cyclic(3)
    assert seq.period == (1, 2, 3)
    assert seq.rotated(0) == seq
    assert seq.rotated(1).period == (2, 3, 1)
    assert seq.rotated(2).period == (3, 1, 2)
    assert IotaSequence((2, 1, 2, 3)).rotated(1).period == (1, 2, 3, 2)


def test_iota_sequence_validation():
    with pytest.raises(ValueError):
        IotaSequence(())
    with pytest.raises(ValueError):
        IotaSequence((0, 1))
    with pytest.raises(ValueError):
        IotaSequence.from_spec([1, 1], 2)  # index 2 never occurs
    assert IotaSequence.from_spec("cyclic", 2).period == (1, 2)
    assert IotaSequence.from_spec([2, 1], 2).period == (2, 1)
    with pytest.raises(ValueError):
        IotaSequence.from_spec("sideways", 2)


@pytest.mark.parametrize("period", [["x", 2], [True, 2], [2.0, 1]])
def test_iota_spec_entries_must_be_integers(period):
    with pytest.raises(InputError):
        IotaSequence.from_spec(period, 2)


def test_a_period_that_is_not_a_tuple_is_rejected():
    with pytest.raises(InputError, match=r"^iota period \[2, 1\] is not a nonempty tuple$"):
        BInfinityCrystal(A2, IotaSequence([2, 1]))
    assert IotaSequence.from_spec([2, 1], 2) == IotaSequence((2, 1))  # the spec may still be a list


@pytest.mark.parametrize("index", [True, 1.0, "1"], ids=repr)
def test_an_index_that_is_not_an_int_is_rejected(index):
    c = BInfinityCrystal(A2)
    b = c.f(1, c.highest_weight())
    calls = [lambda: c.e(index, b), lambda: c.f(index, b), lambda: c.eps(index, b), lambda: c.phi(index, b),
             lambda: c.eps_star(b, index), lambda: c.psi_embed(b, index),
             lambda: A2.a(index, 1), lambda: A2.a(1, index), lambda: A2.is_real(index),
             lambda: pairing(A2, index, (1, 0))]
    for call in calls:
        with pytest.raises(InputError, match=rf"^index {re.escape(repr(index))} not in 1\.\.2$"):
            call()


def test_element_canonical_form():
    seq = IotaSequence.cyclic(2)
    with pytest.raises(ValueError):
        BInfElement(seq, (1, 0))
    with pytest.raises(ValueError):
        BInfElement(seq, (-1,))
    assert BInfElement(seq, ()).entries == ()


@pytest.mark.parametrize("entries", [(1.0,), [1], ("1",), (True,), (1, 2.5), 1], ids=repr)
def test_a_coordinate_string_that_is_not_a_tuple_of_ints_is_rejected(entries):
    with pytest.raises(InputError, match="is not a tuple of nonnegative ints"):
        BInfElement(IotaSequence.cyclic(3), entries)


def test_a_float_string_cannot_take_the_record_of_its_int_string():
    c = BInfinityCrystal(M3)
    with pytest.raises(InputError):  # (1.0,) == (1,), so an accepted float string would share their record
        c.f(2, BInfElement(c.iota, (1.0,)))
    assert c.key(c.f(2, BInfElement(c.iota, (1,)))) == "1-1"
    assert all(type(x) is int for entries in c._records for x in entries)


def test_highest_weight_statistics():
    c = BInfinityCrystal(EXB)
    hw = c.highest_weight()
    assert c.wt(hw) == (0, 0)
    for i in (1, 2):
        assert c.eps(i, hw) == 0 and c.phi(i, hw) == 0
        assert c.e(i, hw) is None
    assert c.key(hw) == "hw"


def test_extension_rule_pads_zero_slots():
    c = BInfinityCrystal(EXB)
    hw = c.highest_weight()
    assert c.f(1, hw).entries == (1,)
    # lowering at index 2 must skip the unused index-1 slot
    assert c.f(2, hw).entries == (0, 1)
    assert c.key(c.f(2, hw)) == "0-1"


def test_lowering_is_total():
    c = BInfinityCrystal(TWO_IMAG)
    b = c.highest_weight()
    for i in (1, 2, 1, 1, 2):
        b = c.f(i, b)
        assert b is not None
    assert c.wt(b) == (-3, -2)


def test_worked_chain_values():
    """f_j f_i^2 on the head lands on the two-coordinate string (2, 1)."""
    c = BInfinityCrystal(EXB)
    b = c.highest_weight()
    b = c.f(1, b)
    b = c.f(1, b)
    b = c.f(2, b)
    assert b.entries == (2, 1)
    assert c.wt(b) == (-2, -1)
    assert c.eps(1, b) == 0 and c.eps(2, b) == 1
    assert c.phi(2, b) == c.eps(2, b) + (-2) * (-1) + 2 * (-1)


def test_eps_star_on_worked_chain():
    c = BInfinityCrystal(EXB)
    b = c.highest_weight()
    for i in (1, 1, 2):
        b = c.f(i, b)
    assert c.eps_star(b, 1) == 2
    assert c.eps_star(b, 2) == 0
    assert c.eps_star(c.highest_weight(), 1) == 0


def test_psi_embed_on_worked_chain():
    c = BInfinityCrystal(EXB)
    b = c.highest_weight()
    for i in (1, 1, 2):
        b = c.f(i, b)
    residual, factor = c.psi_embed(b, 1)
    assert residual.entries == (0, 1)  # the single f_2 step survives
    assert factor == ElementaryElement(1, 2)
    residual, factor = c.psi_embed(b, 2)
    assert residual.entries == (2, 1)
    assert factor == ElementaryElement(2, 0)


@pytest.mark.parametrize("matrix", sorted(LAYERS_4))
def test_layer_sizes_frozen(matrix):
    d = validate_datum([list(r) for r in matrix])
    c = BInfinityCrystal(d)
    _, _, layers = c.enumerate_to_depth(4)
    assert layers == LAYERS_4[matrix]


def test_graded_counts_match_oracle():
    c = BInfinityCrystal(EXB)
    counts = graded_counts(c, 4)
    for alpha, count in counts.items():
        assert count == graded_dim(EXB, alpha)
    assert counts[(2, 1)] == 3 and counts[(3, 1)] == 4


def test_height_seven_counts_match_oracle_on_m3():
    counts = graded_counts(BInfinityCrystal(M3), 7)
    for alpha, expected in [((2, 3, 2), 49), ((2, 2, 3), 16)]:
        assert counts[alpha] == graded_dim(M3, alpha) == expected


def test_counts_match_oracle_at_every_weight_of_height_seven_on_m3():
    counts = graded_counts(BInfinityCrystal(M3), 7)
    weights = [w for w in product(range(8), repeat=3) if sum(w) <= 7]
    assert len(weights) == 120
    assert {alpha: counts.get(alpha, 0) for alpha in weights} == {alpha: graded_dim(M3, alpha) for alpha in weights}


def test_axioms_on_enumerations():
    for d in (EXB, TWO_IMAG, GAP):
        c = BInfinityCrystal(d)
        elements, _, _ = c.enumerate_to_depth(3)
        assert verify_axioms(c, elements) == []


def test_round_trips_on_enumeration():
    c = BInfinityCrystal(EXB)
    elements, _, _ = c.enumerate_to_depth(3)
    for b in elements:
        for i in (1, 2):
            down = c.f(i, b)
            assert down is not None and c.e(i, down) == b
            up = c.e(i, b)
            if up is not None:
                assert c.f(i, up) == b


def test_strip_and_replay_is_identity():
    c = BInfinityCrystal(EXB)
    elements, _, _ = c.enumerate_to_depth(3)
    for b in elements:
        word = c.strip_to_head(b)
        assert len(word) == -sum(c.wt(b))
        z = c.highest_weight()
        for j in reversed(word):
            z = c.f(j, z)
        assert z == b


def test_transport_between_iotas():
    src = BInfinityCrystal(EXB, IotaSequence((1, 2)))
    dst = BInfinityCrystal(EXB, IotaSequence((2, 1)))
    # round trip through the other realization is the identity
    elements, _, _ = src.enumerate_to_depth(3)
    assert transport_isomorphism_findings(src, dst, elements) == []
    for b in elements:
        assert src.transport(dst.transport(src.transport(b, dst), src), dst) == src.transport(b, dst)
        assert dst.transport(src.transport(b, dst), src) == b


def m3_transport_window():
    """M3 over the period (1, 2, 3), its realization over (3, 2, 1), and the elements of height <= 3."""
    src = BInfinityCrystal(M3, IotaSequence((1, 2, 3)))
    elements, _, _ = src.enumerate_to_depth(3)
    return src, src.realization_with(IotaSequence((3, 2, 1))), elements


def first_raisable_image(src, dst, elements, i):
    """The transport image of the first element on which e_i acts."""
    return src.transport(next(b for b in elements if src.e(i, b) is not None), dst)


def test_iota_check_reports_a_target_e_vanishing_at_an_imaginary_index(monkeypatch):
    # Index 2 of M3 is imaginary, so no eps tripwire raises along e_2 in the target.
    src, dst, elements = m3_transport_window()
    t = first_raisable_image(src, dst, elements, 2)
    e = dst.e
    monkeypatch.setattr(dst, "e", lambda i, b: None if (i, b) == (2, t) else e(i, b))
    problems = transport_isomorphism_findings(src, dst, elements)
    assert [(v.index, v.rule, v.detail) for v in problems] == [
        (2, "e", "e_i vanishes on the image but not in the source")]


def test_iota_check_reports_a_target_eps_off_by_one(monkeypatch):
    src, dst, elements = m3_transport_window()
    t = src.transport(elements[5], dst)
    eps = dst.eps
    monkeypatch.setattr(dst, "eps", lambda i, b: eps(i, b) + (i == 1 and b == t))
    problems = transport_isomorphism_findings(src, dst, elements)
    assert [(v.element, v.index, v.rule) for v in problems] == [(src.key(elements[5]), 1, "eps")]


def test_iota_check_reports_swapped_images_of_one_weight(monkeypatch):
    src, dst, elements = m3_transport_window()
    b1, b2 = next((x, y) for k, x in enumerate(elements) for y in elements[k + 1:] if src.wt(x) == src.wt(y))
    swap, transport = {b1: b2, b2: b1}, src.transport
    monkeypatch.setattr(src, "transport", lambda b, target: transport(swap.get(b, b), target))
    problems = transport_isomorphism_findings(src, dst, elements)
    assert problems
    assert {v.rule for v in problems} <= {"e", "f", "eps", "phi"}
    assert {v.element for v in problems} & {src.key(b1), src.key(b2)}


def test_verify_fails_iota_independence_on_a_planted_fault(monkeypatch, tmp_path, capsys):
    src, dst, elements = m3_transport_window()
    t = first_raisable_image(src, dst, elements, 2)
    plant_e(monkeypatch, lambda e, self, i, b: None if (i, b) == (2, t) else e(self, i, b))
    path = tmp_path / "m3.json"
    path.write_text('{"matrix": [[2, -1, 0], [-1, 0, -1], [0, -1, 2]]}')
    assert cli.main(["verify", "--cartan", str(path), "--depth", "3", "--iota", "1,2,3"]) == 1
    out = capsys.readouterr().out.splitlines()
    failed = [line for line in out if not line.startswith(" ") and not line.endswith(": ok")]
    assert failed == ["iota independence (transport is a graph isomorphism): FAIL"]
    assert "e_i vanishes on the image but not in the source" in out[-1]


def test_transport_rejects_foreign_datum():
    src = BInfinityCrystal(EXB)
    other = BInfinityCrystal(A2)
    with pytest.raises(ValueError):
        src.transport(src.highest_weight(), other)
    with pytest.raises(ValueError):
        src.wt(BInfElement(IotaSequence((2, 1)), (1,)))


def test_eps_star_independent_of_realization():
    src = BInfinityCrystal(TWO_IMAG, IotaSequence((1, 2)))
    dst = BInfinityCrystal(TWO_IMAG, IotaSequence((2, 1)))
    elements, _, _ = src.enumerate_to_depth(3)
    for b in elements:
        t = src.transport(b, dst)
        for i in (1, 2):
            assert src.eps_star(b, i) == dst.eps_star(t, i)


@pytest.mark.parametrize("datum", [EXB, A2, TWO_IMAG])
def test_psi_is_strict_embedding(datum):
    c = BInfinityCrystal(datum)
    elements, _, _ = c.enumerate_to_depth(3)
    for i in (1, 2):
        psi, target = c.psi_morphism(i)
        assert check_strict_morphism(psi, elements, c, target) == []


def test_gap_events_recorded_on_raising_descent():
    c = BInfinityCrystal(GAP)
    elements, _, _ = c.enumerate_to_depth(4)
    for b in elements:
        for i in (1, 2):
            c.e(i, b)
    assert len(c.gap_events) >= 1
    # the annihilation gap only exists at imaginary indices
    assert all(i == 1 for _, i in c.gap_events)


# Gap events of the acceptance gate's criterion 7 run on GAP (depth 4, every
# psi_morphism), with repeat firings dropped: distinct (key, index) pairs,
# first-firing order.  psi_embed reads both indices on the rotations of the
# period (1, 2), so the walks run over (1, 2) and (2, 1); the list equals
# the one collected from fresh crystals per element (test below).
GAP_EVENTS_CRITERION_7 = [
    ("0-1", 1), ("1-1", 1), ("[0-1]x[b1(0)]", 1), ("0-2", 1), ("2-1", 1),
    ("[0-1]x[b1(-1)]", 1), ("1-2", 1), ("[0-2]x[b1(0)]", 1), ("3-1", 1),
    ("[0-1]x[b1(-2)]", 1), ("2-2", 1), ("[0-2]x[b1(-1)]", 1), ("0-1-2-1", 1),
    ("4-1", 1), ("[0-1]x[b1(-3)]", 1), ("3-2", 1), ("[0-2]x[b1(-2)]", 1),
    ("1-1-2-1", 1), ("0-1-3-1", 1), ("0-2-2-1", 1), ("0-1-1", 1), ("0-2-1", 1),
    ("0-3-1", 1), ("0-2-2", 1), ("0-4-1", 1), ("0-3-2", 1), ("0-1-1-2-1", 1),
]


def test_gap_events_are_distinct_pairs_in_first_firing_order():
    c = BInfinityCrystal(GAP)
    elements, _, _ = c.enumerate_to_depth(4)
    for i in (1, 2):
        psi, target = c.psi_morphism(i)
        assert check_strict_morphism(psi, elements, c, target) == []
    assert list(c.gap_events) == GAP_EVENTS_CRITERION_7


def test_gap_events_match_fresh_crystals_per_element():
    elements, _, _ = BInfinityCrystal(GAP).enumerate_to_depth(4)
    cold_gaps = {}
    for i in (1, 2):
        for b in elements:
            fresh = BInfinityCrystal(GAP)
            psi, target = fresh.psi_morphism(i)
            assert check_strict_morphism(psi, [b], fresh, target) == []
            cold_gaps.update(fresh.gap_events)
    assert list(cold_gaps) == GAP_EVENTS_CRITERION_7


def test_enumeration_cap():
    # One element per depth over [[2]]: depth 10000 enumerates 10001.
    with pytest.raises(DepthExceededError, match="^more than 10000 nodes generated$"):
        BInfinityCrystal(SL2).enumerate_to_depth(10000)


# -- the memoized statistics and their tripwires -------------------------------


def sl2_string(k):
    """f_1^k of the head over [[2]], the string (k,)."""
    return BInfElement(IotaSequence((1,)), (k,) if k else ())


def test_long_raising_string_is_walked_without_recursion():
    lowering = BInfinityCrystal(SL2)
    b = lowering.highest_weight()
    for _ in range(3000):
        b = lowering.f(1, b)
    assert b == sl2_string(3000)
    c = BInfinityCrystal(SL2)  # a fresh realization: nothing on the string is memoized
    assert c.eps(1, sl2_string(3000)) == 3000
    assert c.phi(1, sl2_string(3000)) == -3000


def plant_e(monkeypatch, fault):
    """Replace e_i by `fault(original, self, i, b)` on every realization."""
    original = BInfinityCrystal.e
    monkeypatch.setattr(BInfinityCrystal, "e", lambda self, i, b: fault(original, self, i, b))


def plant_scan(monkeypatch, d_eps, d_phi, lowering_lands=True):
    """Shift the tensor eps_i and phi_i of every string by the given amounts, and maybe drop its lowering landing."""
    original = BInfinityCrystal._scan

    def shifted(self, i, entries):
        eps, wti, phi, up, side, down = original(self, i, entries)
        return eps + d_eps, wti, phi + d_phi, up, side, down if lowering_lands else None

    monkeypatch.setattr(BInfinityCrystal, "_scan", shifted)


def test_raising_string_vanishing_early_trips(monkeypatch, tmp_path, capsys):
    plant_e(monkeypatch, lambda e, self, i, b: None if b.entries == (1,) else e(self, i, b))
    c = BInfinityCrystal(SL2)
    for _ in range(2):  # a failed walk memoizes nothing, so asking again trips again
        with pytest.raises(InternalInconsistencyError, match="e_1 vanishes"):
            c.eps(1, sl2_string(3))
    path = tmp_path / "sl2.json"
    path.write_text('{"matrix": [[2]]}')
    assert cli.main(["graph", "--cartan", str(path), "--depth", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:") and "e_1 vanishes" in captured.err


def test_raising_at_eps_zero_trips(monkeypatch):
    plant_e(monkeypatch, lambda e, self, i, b: sl2_string(1) if not b.entries else e(self, i, b))
    with pytest.raises(InternalInconsistencyError, match="e_1 acts"):
        BInfinityCrystal(SL2).eps(1, sl2_string(0))


@pytest.mark.parametrize("memoized_first", [False, True])
def test_raising_step_skipping_an_element_trips(monkeypatch, memoized_first):
    plant_e(monkeypatch, lambda e, self, i, b: sl2_string(1) if b.entries == (3,) else e(self, i, b))
    c = BInfinityCrystal(SL2)
    if memoized_first:
        assert c.eps(1, sl2_string(1)) == 1  # the check then reads (1,) from the memo
    with pytest.raises(InternalInconsistencyError, match="has eps_1 = 1"):
        c.eps(1, sl2_string(3))


def test_phi_identity_trips(monkeypatch):
    plant_scan(monkeypatch, 0, 1)
    c = BInfinityCrystal(SL2)
    for _ in range(2):  # the failed check memoizes nothing, so asking again trips again
        with pytest.raises(InternalInconsistencyError, match="phi = eps"):
            c.phi(1, sl2_string(2))
    assert c._records == {}  # no record, so no statistic and no operator slot filled


def test_imaginary_eps_trips(monkeypatch):
    c = BInfinityCrystal(TWO_IMAG)
    b = c.f(1, c.highest_weight())  # b's record is made as an image, with index 1 unfilled
    plant_scan(monkeypatch, 1, 1)
    for _ in range(2):  # the failed check memoizes nothing, so asking again trips again
        with pytest.raises(InternalInconsistencyError, match="imaginary eps_1 = 1"):
            c.eps(1, b)
    assert c._records[b.entries][1:5] == [_UNSET] * 4


@pytest.mark.parametrize("op", ["e", "f", "eps", "phi"])
@pytest.mark.parametrize("datum, fault, message", [
    (M3, (0, 1), r"^tensor statistics break phi = eps \+ <h_i,wt> at 2, index 1$"),
    (TWO_IMAG, (1, 1), r"^imaginary eps_1 = 1 != 0 at 2$"),
    (M3, (0, 0, False), r"^lowering descent reached the head despite slot extension$"),
], ids=["phi-identity", "imaginary-eps", "headward-lowering"])
def test_every_scan_tripwire_trips_every_call_and_memoizes_nothing(monkeypatch, datum, fault, message, op):
    c = BInfinityCrystal(datum)
    b = c.f(1, c.f(1, c.highest_weight()))  # the head and (1,) have index 1 filled, b has not
    before = {entries: list(rec) for entries, rec in c._records.items()}
    plant_scan(monkeypatch, *fault)
    for _ in range(2):  # a failed scan memoizes nothing, so asking again trips again
        with pytest.raises(InternalInconsistencyError, match=message):
            getattr(c, op)(1, b)
        assert c._records == before
    monkeypatch.undo()  # with the fault gone, the call answers as on a fresh crystal
    assert getattr(c, op)(1, b) == getattr(BInfinityCrystal(datum), op)(1, b)


# -- the per-string records ----------------------------------------------------


@pytest.mark.parametrize("datum", [M3, GAP], ids=["M3", "GAP"])
def test_operator_slots_hold_the_images_own_record_element(datum):
    c = BInfinityCrystal(datum)
    n = datum.index_count
    elements, _, _ = c.enumerate_to_depth(5)
    for b in elements:
        for i in range(1, n + 1):
            c.eps(i, b)
            c.phi(i, b)
    records = c._records
    assert all(records[b.entries][0] is b for b in elements)
    images = [rec[slot] for rec in records.values() for i in range(1, n + 1) for slot in (4 * i - 1, 4 * i)]
    images = [x for x in images if isinstance(x, BInfElement)]  # a slot not yet asked for holds a landing factor
    assert len(images) > len(elements)
    assert all(x is records[x.entries][0] for x in images)


@pytest.mark.parametrize("datum, depth", [(M3, 8), (GAP, 10)], ids=["M3", "GAP"])
def test_graph_scans_each_element_once_per_index(monkeypatch, datum, depth):
    elements, _, _ = BInfinityCrystal(datum).enumerate_to_depth(depth)
    scans = []
    original = BInfinityCrystal._scan
    monkeypatch.setattr(BInfinityCrystal, "_scan",
                        lambda self, i, entries: scans.append((entries, i)) or original(self, i, entries))
    c = BInfinityCrystal(datum)
    graph = generate_graph(c, c.highest_weight(), depth)
    assert len(graph.nodes) == len(elements)
    assert sorted(scans) == sorted((b.entries, i) for b in elements for i in range(1, datum.index_count + 1))


def test_lowering_reaching_the_head_trips_and_memoizes_nothing(monkeypatch):
    c = BInfinityCrystal(SL2)
    b = c.f(1, c.f(1, c.highest_weight()))  # b's record is made as an image, with index 1 unfilled
    plant_scan(monkeypatch, 0, 0, lowering_lands=False)
    for op in (c.f, c.eps):  # a failed scan memoizes nothing, so asking again trips again
        for _ in range(2):
            with pytest.raises(InternalInconsistencyError, match="lowering descent reached the head"):
                op(1, b)
    assert c._records[b.entries][1:5] == [_UNSET] * 4
    monkeypatch.undo()  # with the fault gone, f scans again and acts
    assert c.f(1, b) == sl2_string(3)


def test_a_bad_index_is_rejected_before_any_record_is_read():
    c = BInfinityCrystal(SL2)
    b = sl2_string(1)
    assert c.e(1, b) == sl2_string(0) and c.eps(1, b) == 1  # b's record is filled
    for op in (c.e, c.f, c.eps, c.phi):
        for i in (0, -1, 2):
            with pytest.raises(InputError, match=rf"^index {i} not in 1\.\.1$"):
                op(i, b)
