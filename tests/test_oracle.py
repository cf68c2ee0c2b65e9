"""Graded-dimension oracle: Laurent arithmetic, relations, exact rank."""

import random
from collections import Counter, deque
from itertools import permutations, product

import pytest
from hypothesis import given
from test_properties import PROPERTY_SETTINGS, data_and_periods

from gkm_crystals import oracle
from gkm_crystals.cartan import validate_datum
from gkm_crystals.errors import InexactDivisionError, InputError
from gkm_crystals.oracle import (
    DEFAULT_HEIGHT_BOUND,
    Laurent,
    build_relations,
    graded_dim,
    laurent_rank,
    q_binomial,
    words_of_weight,
)

Q1 = Laurent({1: 1})
QM1 = Laurent({-1: 1})
Q2 = Laurent({1: 1, -1: 1})
Q3 = Laurent({2: 1, 0: 1, -2: 1})


def test_laurent_arithmetic():
    assert Q1 + QM1 == Q2
    assert Q1 * QM1 == Laurent.one()
    assert (Q1 - Q1) == Laurent.zero()
    assert not Laurent.zero()
    assert Laurent({0: 3}) * Laurent({0: 2}) == Laurent({0: 6})
    assert -Q2 == Laurent({1: -1, -1: -1})


def test_laurent_exact_division():
    num = Laurent({2: 1}) - Laurent({-2: 1})
    den = Q1 - QM1
    assert num.exact_div(den) == Q2
    assert (Q3 * Q2).exact_div(Q2) == Q3
    with pytest.raises(InexactDivisionError):
        (Q1 + Laurent.one()).exact_div(Q1 - Laurent.one())
    with pytest.raises(InexactDivisionError):
        Laurent.one().exact_div(Laurent.zero())


def test_q_integers_are_balanced():
    assert q_binomial(0, 1) == Laurent.zero()
    assert q_binomial(1, 1) == Laurent.one()
    assert q_binomial(2, 1) == Laurent({1: 1, -1: 1})
    assert q_binomial(3, 1) == Laurent({2: 1, 0: 1, -2: 1})


def test_q_binomial_values():
    assert q_binomial(2, 1) == Q2
    assert q_binomial(4, 2) == Laurent({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert q_binomial(4, 0) == Laurent.one()



def _ref_q_int(n):
    return Laurent({e: 1 for e in range(n - 1, -n, -2)})


def _ref_q_factorial(n):
    out = Laurent.one()
    for k in range(1, n + 1):
        out = out * _ref_q_int(k)
    return out


def _ref_q_binomial(m, k):
    if k < 0 or k > m:
        return Laurent.zero()
    return _ref_q_factorial(m).exact_div(_ref_q_factorial(k)).exact_div(_ref_q_factorial(m - k))


def test_q_binomial_matches_factorial_ratio_reference():
    for m in range(13):
        for k in range(-1, m + 2):
            got = q_binomial(m, k)
            assert got == _ref_q_binomial(m, k), (m, k)
            assert got == q_binomial(m, m - k), (m, k)
            assert got == Laurent({-e: c for e, c in got.coeffs.items()}), (m, k)


def test_relation_counts():
    # overlapping Serre and commutator relations collapse to one
    assert len(build_relations(validate_datum([[2, 0], [0, 0]]), DEFAULT_HEIGHT_BOUND)) == 1
    assert len(build_relations(validate_datum([[2, 0], [0, 2]]), DEFAULT_HEIGHT_BOUND)) == 1
    assert len(build_relations(validate_datum([[2, -1], [-1, 2]]), DEFAULT_HEIGHT_BOUND)) == 2
    assert len(build_relations(validate_datum([[0, -1], [-1, 2]]), DEFAULT_HEIGHT_BOUND)) == 1
    assert len(build_relations(validate_datum([[-2]]), DEFAULT_HEIGHT_BOUND)) == 0
    assert len(build_relations(validate_datum([[0, -1], [-1, 0]]), DEFAULT_HEIGHT_BOUND)) == 0


# The acceptance-gate matrices and the mixed rank-3 matrix M3.
GATE_MATRICES = [
    [[2]], [[0]], [[-2]], [[2, -1], [-1, 2]], [[0, -1], [-1, 2]], [[0, -1], [-1, 0]],
    [[-2, -1], [-1, 2]], [[2, -1, 0], [-1, 0, -1], [0, -1, 2]],
]


def _random_matrices(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = rng.choice([2, 2, 0, -2])
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = rng.choice([0, 0, -1, -2, -3])
        yield matrix


def test_relations_are_distinct_by_construction():
    # One relation per real index i and j != i with a_ij != 0, and one per
    # pair with a_ij = 0.  Relations equal up to sign share a weight, so
    # distinct weights also rule those out.
    for matrix in GATE_MATRICES + list(_random_matrices(300, seed=5)):
        d = validate_datum(matrix)
        n = d.index_count
        expected = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                root = [0] * n
                root[i - 1] += 1 - d.a(i, j)
                root[j - 1] += 1
                if (j != i and d.a(i, j) != 0 and d.is_real(i)) or (i < j and d.a(i, j) == 0):
                    expected.append(tuple(root))
        weights = [r.weight for r in build_relations(d, DEFAULT_HEIGHT_BOUND)]
        assert Counter(weights) == Counter(expected), matrix
        assert len(set(weights)) == len(weights), matrix


def test_relations_stop_at_max_height():
    d = validate_datum([[2, -3, 0], [-3, 2, 0], [0, 0, 0]])
    assert build_relations(d, 1) == ()
    assert [r.weight for r in build_relations(d, 2)] == [(1, 0, 1), (0, 1, 1)]
    assert [r.weight for r in build_relations(d, 5)] == [(4, 1, 0), (1, 0, 1), (1, 4, 0), (0, 1, 1)]
    assert build_relations(d, 5) == build_relations(d, DEFAULT_HEIGHT_BOUND)
    orthogonal = validate_datum([[0, 0], [0, -2]])
    assert build_relations(orthogonal, 1) == ()
    assert [r.weight for r in build_relations(orthogonal, 2)] == [(1, 1)]


def test_relation_weights_and_shape():
    rels = build_relations(validate_datum([[2, -1], [-1, 2]]), DEFAULT_HEIGHT_BOUND)
    weights = sorted(r.weight for r in rels)
    assert weights == [(1, 2), (2, 1)]
    serre = next(r for r in rels if r.weight == (2, 1))
    assert len(serre.terms) == 3
    assert {w for _, w in serre.terms} == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


def test_words_of_weight():
    assert words_of_weight((0, 0)) == [()]
    assert words_of_weight((2, 1)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert len(words_of_weight((2, 2))) == 6



def test_words_of_weight_of_a_deep_weight():
    # One loop step per letter, so a weight of height 1000 needs no recursion.
    assert words_of_weight((1000,)) == [(1,) * 1000]


def test_words_of_weight_matches_distinct_permutations():
    weights = [(0, 0, 0)]
    for rank in (1, 2, 3):
        weights += [a for a in product(range(7), repeat=rank) if sum(a) <= 6]
    for alpha in weights:
        letters = [i for i, c in enumerate(alpha, 1) for _ in range(c)]
        assert words_of_weight(alpha) == sorted(set(permutations(letters))), alpha
        assert words_of_weight(alpha, frozenset()) == words_of_weight(alpha), alpha
    for alpha in [(-1,), (2, -1), (0, 0, -3)]:
        with pytest.raises(InputError):
            words_of_weight(alpha)


M3 = [[2, -1, 0], [-1, 0, -1], [0, -1, 2]]
# 2 commutes with 1 and with 3, which do not commute: the least word of 3 1 2
# is 2 3 1, which bubbling 2 left past larger letters never reaches.
TRAP = [[2, 0, -1], [0, 2, 0], [-1, 0, 2]]


def _commuting(datum) -> frozenset[tuple[int, int]]:
    n = datum.index_count
    return frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                     if i != j and datum.a(i, j) == 0)


def _trace_classes(alpha, commuting):
    """Every word of weight alpha, split into classes by a BFS over swaps of
    adjacent commuting letters."""
    letters = [i for i, c in enumerate(alpha, 1) for _ in range(c)]
    unseen, classes = set(permutations(letters)), []
    while unseen:
        start = unseen.pop()
        cls, queue = {start}, deque([start])
        while queue:
            w = queue.popleft()
            for k in range(len(w) - 1):
                if (w[k], w[k + 1]) in commuting:
                    x = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
                    if x not in cls:
                        cls.add(x)
                        queue.append(x)
        unseen -= cls
        classes.append(cls)
    return classes


@pytest.mark.parametrize("matrix", [M3, TRAP])
def test_trace_generator_gives_the_least_word_of_each_swap_class(matrix):
    d = validate_datum(matrix)
    commuting = _commuting(d)
    for alpha in _weights_up_to(d.index_count, 5):
        classes = _trace_classes(alpha, commuting)
        assert words_of_weight(alpha, commuting) == sorted(min(cls) for cls in classes), alpha
        for cls in classes:
            least = min(cls)
            assert all(oracle._least_word(w, commuting) == least for w in cls), (alpha, least)


def test_trace_relations_are_the_serre_relations_in_letters_that_do_not_commute():
    # _trace_relations keeps relations by filtering alone.  That is sound when
    # the kept ones are the Serre relations of real i and j != i with
    # a_ij != 0, and their words are least in their traces and distinct.
    for matrix in GATE_MATRICES + list(_random_matrices(300, seed=5)):
        d = validate_datum(matrix)
        n = d.index_count
        expected = set()
        for i in sorted(d.real_indices):
            for j in range(1, n + 1):
                if j != i and d.a(i, j) != 0:
                    root = [0] * n
                    root[i - 1], root[j - 1] = 1 - d.a(i, j), 1
                    expected.add(tuple(root))
        commuting, kept = oracle._trace_relations(d, DEFAULT_HEIGHT_BOUND)
        assert commuting == _commuting(d), matrix
        relations = build_relations(d, DEFAULT_HEIGHT_BOUND)
        assert [rel for _, rel in kept] == [r for r in relations if r.weight in expected], matrix
        assert {rel.weight for _, rel in kept} == expected, matrix
        for support, rel in kept:
            assert support == tuple((k, b) for k, b in enumerate(rel.weight) if b), matrix
            words = [w for _, w in rel.terms]
            assert all(oracle._least_word(w, commuting) == w for w in words), (matrix, rel)
            assert len(set(words)) == len(words), (matrix, rel)


def test_laurent_rank():
    one = Laurent.one()
    zero = Laurent.zero()
    assert laurent_rank([{0: one}, {1: one}], 2) == 2
    # second row is q times the first
    assert laurent_rank([{0: one, 1: Q1}, {0: Q1, 1: Laurent({2: 1})}], 2) == 1
    assert laurent_rank([{}], 2) == 0
    assert laurent_rank([], 2) == 0
    assert laurent_rank([{0: Q1 + QM1, 1: one}, {0: one}], 2) == 2


def _dense_bareiss_rank(rows: list[list[Laurent]], ncols: int) -> int:
    """Reference: one-step Bareiss over dense rows, every column of every row updated."""
    work = [list(row) for row in rows]
    prev = Laurent.one()
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(work)) if work[k][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for k in range(r + 1, len(work)):
            lead = work[k][c]
            work[k] = [(work[r][c] * x - lead * y).exact_div(prev) for x, y in zip(work[k], work[r])]
        prev = work[r][c]
        r += 1
    return r


def _random_laurent(rng: random.Random) -> Laurent:
    return Laurent({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})


def _random_laurent_rows(rng: random.Random, width: int) -> list[list[Laurent]]:
    """Random dense rows with zero rows, duplicate rows and Laurent combinations of earlier rows."""
    rows: list[list[Laurent]] = []
    for _ in range(rng.randint(0, 7)):
        roll = rng.random()
        if roll < 0.1:
            rows.append([Laurent.zero()] * width)
        elif roll < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        elif roll < 0.45 and len(rows) >= 2:
            x, y = rng.sample(rows, 2)
            a, b = _random_laurent(rng), _random_laurent(rng)
            rows.append([a * s + b * t for s, t in zip(x, y)])
        else:
            rows.append([_random_laurent(rng) if rng.random() < 0.4 else Laurent.zero() for _ in range(width)])
    return rows


def test_laurent_rank_matches_dense_bareiss():
    rng = random.Random(8105493)
    for _ in range(400):
        width = rng.randint(0, 6)
        dense = _random_laurent_rows(rng, width)
        # Sparse rows omit most zero entries; an explicit zero must not act as a pivot.
        sparse = [{j: x for j, x in enumerate(row) if x or rng.random() < 0.2} for row in dense]
        assert laurent_rank(sparse, width) == _dense_bareiss_rank(dense, width), dense



def _tall_sparse_rows(rng: random.Random, width: int) -> list[list[Laurent]]:
    """8-24 dense rows with 1-3 entries each, zero rows, duplicates and Laurent combinations,
    so that rows often miss several pivot columns in a row before they are used."""
    rows: list[list[Laurent]] = []
    for _ in range(rng.randint(8, 24)):
        roll = rng.random()
        if roll < 0.1:
            rows.append([Laurent.zero()] * width)
        elif roll < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif roll < 0.35 and len(rows) >= 2:
            x, y = rng.sample(rows, 2)
            a, b = _random_laurent(rng), _random_laurent(rng)
            rows.append([a * s + b * t for s, t in zip(x, y)])
        else:
            row = [Laurent.zero()] * width
            for j in rng.sample(range(width), min(width, rng.randint(1, 3))):
                row[j] = _random_laurent(rng)
            rows.append(row)
    return rows


def _rank_and_divisors(rank, rows, ncols):
    """The rank, and every divisor passed to Laurent.exact_div while computing it."""
    seen = set()
    exact_div = Laurent.exact_div

    def spy(self, other):
        seen.add(tuple(sorted(other.coeffs.items())))
        return exact_div(self, other)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Laurent, "exact_div", spy)
        return rank(rows, ncols), seen


def test_laurent_rank_matches_dense_bareiss_on_tall_sparse_rows():
    # Skipped rows are brought up to date before use, so every entry an update
    # reads is the dense one: the same rank, and no divisor but a dense pivot.
    rng = random.Random(3054)
    for _ in range(150):
        width = rng.randint(1, 10)
        dense = _tall_sparse_rows(rng, width)
        sparse = [{j: x for j, x in enumerate(row) if x} for row in dense]
        rank, divisors = _rank_and_divisors(laurent_rank, sparse, width)
        dense_rank, dense_divisors = _rank_and_divisors(_dense_bareiss_rank, dense, width)
        assert rank == dense_rank, dense
        assert divisors <= dense_divisors, dense


def _eager_sparse_rank(rows: list[dict[int, Laurent]], ncols: int) -> int:
    """Reference: sparse one-step Bareiss that divides every row below the pivot at every step."""
    zero = Laurent.zero()
    work = [{j: x for j, x in row.items() if x} for row in rows]
    prev = Laurent.one()
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(work)) if c in work[k]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        piv = top[c]
        for k in range(r + 1, len(work)):
            row = work[k]
            lead = row.get(c, zero)
            cols = row.keys() | top.keys() if lead else row.keys()
            work[k] = {j: x for j in cols
                       if (x := (piv * row.get(j, zero) - lead * top.get(j, zero)).exact_div(prev))}
        prev = piv
        r += 1
    return r


def _weights_up_to(n: int, height: int):
    return [w for w in product(range(height + 1), repeat=n) if sum(w) <= height]


@pytest.mark.parametrize("matrix", GATE_MATRICES)
def test_graded_dim_matches_eager_elimination(matrix, monkeypatch):
    d = validate_datum(matrix)
    weights = _weights_up_to(d.index_count, 5)
    lazy = [graded_dim(d, alpha) for alpha in weights]
    monkeypatch.setattr(oracle, "laurent_rank", _eager_sparse_rank)
    assert [graded_dim(d, alpha) for alpha in weights] == lazy


def _word_graded_dim(datum, alpha) -> int:
    """Reference: the same quotient eliminated over every word of alpha, with the
    commutators kept as relations."""
    words = words_of_weight(alpha)
    index = {w: k for k, w in enumerate(words)}
    rows = []
    for rel in build_relations(datum, sum(alpha)):
        gamma = tuple(a - b for a, b in zip(alpha, rel.weight))
        if any(c < 0 for c in gamma):
            continue
        for uv in words_of_weight(gamma):
            for cut in range(len(uv) + 1):
                rows.append({index[uv[:cut] + w + uv[cut:]]: coeff for coeff, w in rel.terms})
    return len(words) - laurent_rank(rows, len(words))


@pytest.mark.parametrize("matrix, height", [
    (M3, 6),
    (TRAP, 6),
    ([[0, 0], [0, 0]], DEFAULT_HEIGHT_BOUND),
    ([[-2, 0, -1], [0, 2, 0], [-1, 0, 0]], 6),
    ([[2, 0, -1, 0], [0, -2, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 2]], 5),
])
def test_graded_dim_on_traces_matches_the_word_route(matrix, height):
    d = validate_datum(matrix)
    for alpha in _weights_up_to(d.index_count, height):
        assert graded_dim(d, alpha) == _word_graded_dim(d, alpha), alpha


@PROPERTY_SETTINGS
@given(data_and_periods())
def test_graded_dim_on_traces_matches_the_word_route_on_random_data(example):
    d, _ = example
    for alpha in _weights_up_to(d.index_count, 5 if d.index_count <= 2 else 4):
        assert graded_dim(d, alpha) == _word_graded_dim(d, alpha), (d.matrix, alpha)


RANK1_DATA = [[[2]], [[0]], [[-2]]]


@pytest.mark.parametrize("matrix", RANK1_DATA)
def test_rank_one_dimensions(matrix):
    d = validate_datum(matrix)
    for a in range(5):
        assert graded_dim(d, (a,)) == 1


def test_kostant_values():
    d = validate_datum([[2, -1], [-1, 2]])
    assert graded_dim(d, (1, 1)) == 2
    assert graded_dim(d, (2, 1)) == 2
    assert graded_dim(d, (2, 2)) == 3
    assert graded_dim(d, (3, 2)) == 3


def test_mixed_imaginary_dimensions():
    d = validate_datum([[0, -1], [-1, 2]])
    assert graded_dim(d, (2, 1)) == 3
    assert graded_dim(d, (3, 1)) == 4
    assert graded_dim(d, (2, 2)) == 4
    assert graded_dim(d, (3, 2)) == 7
    assert graded_dim(d, (3, 3)) == 8


def test_free_case_counts_all_words():
    # no Serre and no commutator relations: every word survives
    d = validate_datum([[0, -1], [-1, 0]])
    assert graded_dim(d, (2, 2)) == 6
    assert graded_dim(d, (3, 3)) == 20


def test_graded_dim_input_guards():
    d = validate_datum([[2, -1], [-1, 2]])
    with pytest.raises(InputError, match=r"^weight \(-1, 0\) leaves the positive cone$"):
        graded_dim(d, (-1, 0))
    with pytest.raises(InputError, match="^height 8 exceeds the bound 7$"):
        graded_dim(d, (5, 3))
    with pytest.raises(InputError, match="^weight length 3 != rank 2$"):
        graded_dim(d, (1, 1, 1))
    with pytest.raises(InputError, match="^weight length 2 != rank 3$"):
        graded_dim(validate_datum(GATE_MATRICES[-1]), (1, 1))
