"""Property-based differential checks on random small Borcherds-Cartan data.

Each example is a symmetric matrix of rank at most 3 (diagonal in
{2, 0, -2}, off-diagonal entries in {0, -1, -2}) with an iota period that
covers every index, plus up to two repeated indices.  The crystal is
compared with the oracle, with the axioms, and with its transport onto a
realization over another period.  The memoized eps_i and phi_i are
compared with a memo-free reference, and the memoized e_i and f_i with
fresh realizations.  The oracle's exact Laurent division
is checked against multiplication.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gkm_crystals.binfinity import (
    BInfinityCrystal,
    IotaSequence,
    graded_counts,
    transport_isomorphism_findings,
)
from gkm_crystals.cartan import pairing, validate_datum
from gkm_crystals.cli import _positive_weights
from gkm_crystals.crystal import verify_axioms
from gkm_crystals.errors import InexactDivisionError
from gkm_crystals.oracle import Laurent, graded_dim

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@st.composite
def data_and_periods(draw):
    n = draw(st.integers(1, 3))
    diagonal = [draw(st.sampled_from([2, 0, -2])) for _ in range(n)]
    matrix = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(st.sampled_from([0, -1, -2]))
    period = list(draw(st.permutations(range(1, n + 1))))
    for _ in range(draw(st.integers(0, 2))):
        period.insert(draw(st.integers(0, len(period))), draw(st.integers(1, n)))
    return validate_datum(matrix), IotaSequence(tuple(period))


@PROPERTY_SETTINGS
@given(data_and_periods())
def test_crystal_counts_equal_oracle_dimensions(example):
    datum, iota = example
    height = 4 if datum.index_count <= 2 else 3
    counts = graded_counts(BInfinityCrystal(datum, iota), height)
    for alpha in _positive_weights(datum.index_count, height):
        assert counts.get(alpha, 0) == graded_dim(datum, alpha), (datum.matrix, iota.period, alpha)


@PROPERTY_SETTINGS
@given(data_and_periods())
def test_axioms_hold_on_enumerated_nodes(example):
    datum, iota = example
    crystal = BInfinityCrystal(datum, iota)
    elements, _, _ = crystal.enumerate_to_depth(3)
    assert verify_axioms(crystal, elements) == []


@PROPERTY_SETTINGS
@given(data_and_periods())
def test_transport_to_another_period_is_a_graph_isomorphism(example):
    datum, iota = example
    crystal = BInfinityCrystal(datum, iota)
    reverse = IotaSequence(tuple(reversed(iota.period)))
    alt = crystal.realization_with(reverse if reverse != iota else iota.rotated(1))
    elements, _, _ = crystal.enumerate_to_depth(3)
    assert transport_isomorphism_findings(crystal, alt, elements) == []


def raising_length(c, i, b):
    """Length of the e_i-string above b, by plain iteration (no memo)."""
    k = 0
    while (b := c.e(i, b)) is not None:
        k += 1
    return k


@PROPERTY_SETTINGS
@given(data_and_periods(), st.integers(0, 2**32 - 1))
def test_memoized_statistics_match_a_memo_free_reference(example, order_seed):
    datum, iota = example
    depth = 4 if datum.index_count <= 2 else 3
    elements, _, _ = BInfinityCrystal(datum, iota).enumerate_to_depth(depth)
    queries = [(b, i) for b in elements for i in range(1, datum.index_count + 1)]
    random.Random(order_seed).shuffle(queries)
    fresh, reference = BInfinityCrystal(datum, iota), BInfinityCrystal(datum, iota)
    for b, i in queries:
        eps = raising_length(reference, i, b) if datum.is_real(i) else 0
        assert fresh.eps(i, b) == eps
        assert fresh.phi(i, b) == eps + pairing(datum, i, reference.wt(b))


@PROPERTY_SETTINGS
@given(data_and_periods(), st.integers(0, 2**32 - 1))
def test_memoized_operators_match_fresh_realizations(example, order_seed):
    datum, iota = example
    depth = 4 if datum.index_count <= 2 else 3
    warm = BInfinityCrystal(datum, iota)
    elements, _, _ = warm.enumerate_to_depth(depth)
    queries = 2 * [(b, i) for b in elements for i in range(1, datum.index_count + 1)]
    random.Random(order_seed).shuffle(queries)
    cold_gaps = {}
    for b, i in queries:
        fresh = BInfinityCrystal(datum, iota)
        assert warm.e(i, b) == fresh.e(i, b)
        assert warm.f(i, b) == fresh.f(i, b)
        cold_gaps.update(fresh.gap_events)
    assert list(warm.gap_events) == list(cold_gaps)


def laurents(max_terms):
    return st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=max_terms).map(Laurent)


# Divisors include one-term ones (the constant 1 among them) and dense ones.
divisors = st.one_of(st.just(Laurent.one()), laurents(1), laurents(5)).filter(bool)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(laurents(6), divisors, laurents(2))
def test_exact_div_inverts_multiplication(a, b, noise):
    assert (a * b).exact_div(b) == a
    perturbed = a * b + noise
    try:
        r = perturbed.exact_div(b)
    except InexactDivisionError:
        return
    assert r * b == perturbed
