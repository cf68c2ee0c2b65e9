"""Acceptance gate: eight numbered criteria, one pass/fail line each.

Each test prints `criterion N [PASS|FAIL]: <label>` so the suite output
doubles as the acceptance report.  Expected values are exact; the only
tolerances are the stated wall-clock budgets.
"""

import time

import pytest

from gkm_crystals.binfinity import (
    BInfinityCrystal,
    IotaSequence,
    graded_counts,
    transport_isomorphism_findings,
)
from gkm_crystals.cartan import validate_datum
from gkm_crystals.crystal import check_strict_morphism, verify_axioms
from gkm_crystals.elementary import ElementaryCrystal, ElementaryElement
from gkm_crystals.geometry import (
    eps_point,
    eps_star_point,
    flag_exists,
    load_rep,
    moment_map_check,
    regular_semisimple_verdicts,
    verify_flag,
)
from gkm_crystals.oracle import graded_dim
from gkm_crystals.tensor import TensorCrystal, TensorElement

CROSS_CHECK_MATRICES = [
    [[2]],
    [[0]],
    [[-2]],
    [[2, -1], [-1, 2]],
    [[0, -1], [-1, 2]],
    [[0, -1], [-1, 0]],
]
GAP_MATRIX = [[-2, -1], [-1, 2]]

EXAMPLE_REP = """
{"quiver": {"vertices": 2, "omega_arrows": [[1, 1], [1, 2]]},
 "dims": [2, 1],
 "mats": {"h0": [[0, 0], [0, 0]],
          "h1": [[0, 0]],
          "h2": [[1, 1], [0, 3]],
          "h3": [[1], [1]]}}
"""


def report(number: int, label: str, problems, started: float, budget: float):
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        problems = list(problems) + [f"runtime {elapsed:.2f}s exceeds {budget:.0f}s"]
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {number} [{status}]: {label} ({elapsed:.2f}s)")
    assert not problems, f"criterion {number}: {problems[:5]}"


def test_criterion_1_rank_one_chains():
    started = time.perf_counter()
    problems = []
    for t in (1, 2, 3):
        crystal = BInfinityCrystal(validate_datum([[2 - 2 * t]]))
        elements, edges, layers = crystal.enumerate_to_depth(10)
        if len(elements) != 11 or layers != [1] * 11:
            problems.append(f"t={t}: expected an 11-node chain, got layers {layers}")
            continue
        if len(edges) != 10 or any(i != 1 for _, _, i in edges):
            problems.append(f"t={t}: edges are not a single index-1 chain")
        b = crystal.highest_weight()
        for level in range(11):
            residual, factor = crystal.psi_embed(b, 1)
            if residual.entries != () or factor != ElementaryElement(1, level):
                problems.append(f"t={t}: psi(f^{level} head) != (head, b(-{level}))")
                break
            if level < 10:
                b = crystal.f(1, b)
    report(1, "rank-one chains embed as (head, b_i(-l))", problems, started, 1.0)


def test_criterion_2_two_index_example_embeddings():
    started = time.perf_counter()
    problems = []
    crystal = BInfinityCrystal(validate_datum([[0, -1], [-1, 2]]))
    b = crystal.highest_weight()
    for i in (1, 1, 2):
        b = crystal.f(i, b)
    if crystal.eps_star(b, 1) != 2:
        problems.append(f"eps*_1 = {crystal.eps_star(b, 1)}, expected 2")
    if crystal.eps_star(b, 2) != 0:
        problems.append(f"eps*_2 = {crystal.eps_star(b, 2)}, expected 0")
    residual, factor = crystal.psi_embed(b, 1)
    if residual.entries != (0, 1) or factor != ElementaryElement(1, 2):
        problems.append(f"psi_1 image ({residual.entries}, {factor}) != ((0, 1), b1(-2))")
    residual, factor = crystal.psi_embed(b, 2)
    if residual.entries != (2, 1) or factor != ElementaryElement(2, 0):
        problems.append(f"psi_2 image ({residual.entries}, {factor}) != ((2, 1), b2(0))")
    report(2, "two-index example embeddings", problems, started, 1.0)


def test_criterion_3_geometry_of_the_example():
    started = time.perf_counter()
    problems = []
    rep = load_rep(EXAMPLE_REP)
    if not moment_map_check(rep):
        problems.append("moment map does not vanish")
    witness = flag_exists(rep)
    if witness is None:
        problems.append("no graded flag found")
    else:
        problems.extend(verify_flag(rep, witness))
    if not all(regular_semisimple_verdicts(rep).values()):
        problems.append("weak loop is not regular semisimple")
    got = (eps_point(rep, 1), eps_star_point(rep, 1), eps_point(rep, 2), eps_star_point(rep, 2))
    if got != (0, 2, 1, 0):
        problems.append(f"(eps_1, eps*_1, eps_2, eps*_2) = {got}, expected (0, 2, 1, 0)")
    report(3, "geometric invariants of the example instance", problems, started, 1.0)


def test_criterion_4_counts_match_oracle():
    started = time.perf_counter()
    problems = []
    for matrix in CROSS_CHECK_MATRICES:
        datum = validate_datum(matrix)
        counts = graded_counts(BInfinityCrystal(datum), 6)
        weights = sorted(counts, key=lambda a: (sum(a), a))
        for alpha in weights:
            expected = graded_dim(datum, alpha)
            if counts[alpha] != expected:
                problems.append(f"{matrix} at {alpha}: crystal {counts[alpha]} != oracle {expected}")
    report(4, "crystal counts equal oracle dimensions to height 6", problems, started, 60.0)


def test_criterion_5_kostant_sanity():
    started = time.perf_counter()
    problems = []
    datum = validate_datum([[2, -1], [-1, 2]])
    for a in range(7):
        for b in range(7 - a):
            expected = min(a, b) + 1
            got = graded_dim(datum, (a, b))
            if got != expected:
                problems.append(f"dim at ({a}, {b}) = {got}, expected {expected}")
    report(5, "finite-type dimensions follow min(a,b)+1", problems, started, 10.0)


def test_criterion_6_axiom_suite():
    started = time.perf_counter()
    problems = []
    for matrix in ([[2]], [[0]], [[-2]]):
        crystal = ElementaryCrystal(validate_datum(matrix), 1)
        elems = [crystal.element(k) for k in range(9)]
        problems += [f"B_i over {matrix}: {v}" for v in verify_axioms(crystal, elems)]
    for matrix in ([[2, -1], [-1, 2]], [[2, -1], [-1, -2]], [[-2, -1], [-1, 2]], [[-2, -1], [-1, -2]]):
        datum = validate_datum(matrix)
        pair = TensorCrystal(ElementaryCrystal(datum, 1), ElementaryCrystal(datum, 2))
        elems = [TensorElement(pair.left.element(a), pair.right.element(b))
                 for a in range(7) for b in range(7)]
        problems += [f"B_1 (x) B_2 over {matrix}: {v}" for v in verify_axioms(pair, elems)]
    for matrix in CROSS_CHECK_MATRICES:
        crystal = BInfinityCrystal(validate_datum(matrix))
        elements, _, _ = crystal.enumerate_to_depth(6)
        problems += [f"B(inf) over {matrix}: {v}" for v in verify_axioms(crystal, elements)]
    report(6, "axioms hold on elementary, tensor, and enumerated sets", problems, started, 60.0)


def test_criterion_7_strict_embeddings_with_gap():
    started = time.perf_counter()
    problems = []
    for matrix in CROSS_CHECK_MATRICES + [GAP_MATRIX]:
        datum = validate_datum(matrix)
        crystal = BInfinityCrystal(datum)
        elements, _, _ = crystal.enumerate_to_depth(4)
        for i in range(1, datum.index_count + 1):
            psi, target = crystal.psi_morphism(i)
            problems += [f"{matrix} psi_{i}: {v}" for v in check_strict_morphism(psi, elements, crystal, target)]
        if matrix == GAP_MATRIX and not crystal.gap_events:
            problems.append("no annihilation gap was exercised for a_ii < 0")
    report(7, "strict embeddings, including the imaginary gap case", problems, started, 60.0)


def test_criterion_8_round_trip_and_iota_independence():
    started = time.perf_counter()
    problems = []
    for matrix in CROSS_CHECK_MATRICES:
        datum = validate_datum(matrix)
        crystal = BInfinityCrystal(datum)
        elements, _, _ = crystal.enumerate_to_depth(4)
        for b in elements:
            for i in range(1, datum.index_count + 1):
                down = crystal.f(i, b)
                if down is None or crystal.e(i, down) != b:
                    problems.append(f"{matrix}: e_{i} f_{i} != id at {crystal.key(b)}")
                up = crystal.e(i, b)
                if up is not None and crystal.f(i, up) != b:
                    problems.append(f"{matrix}: f_{i} e_{i} != id at {crystal.key(b)}")
        i_first = BInfinityCrystal(datum, IotaSequence((1,) + crystal.iota.period))
        problems += [f"{matrix}: {m}" for m in transport_isomorphism_findings(crystal, i_first, elements)]
    report(8, "operator round trips and iota independence", problems, started, 10.0)
