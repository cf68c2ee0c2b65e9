"""Graded-dimension oracle for the negative half of the quantized algebra.

The lowering half is the free algebra on the lowering generators modulo
the quantum Serre relations of the real indices and the commutators
f_i f_j - f_j f_i of the pairs with a_ij = 0 (Kang, J. Algebra 175, 1995).
Modulo the commutators alone it is the free partially commutative algebra,
whose weight spaces have the traces as a basis: the classes of words under
swaps of adjacent commuting letters (Cartier-Foata, 1969; Diekert-Rozenberg,
The Book of Traces, 1995).  The oracle works there.  Its columns are the
traces of weight alpha, each named by its lexicographically least word,
which `words_of_weight` generates directly given the commuting pairs.  The
rest of the ideal is spanned, weight by weight, by the products u * r * v
of a remaining relation r with traces u, v.  A commutator is zero on
traces and spans no row, so it is skipped.  The graded dimension at alpha
is then

    #traces(alpha) - rank(relation span inside the trace space)

The row of u * r * v has entries only at the least words of u * w * v for
the terms w of r.  When no pair commutes every trace is one word, and the
word is its own column key.

The rank is exact over Z[q, q^-1], by fraction-free (Bareiss) elimination
on sparse rows: each row is a dict from column to nonzero entry.
A row with no entry in the pivot column is not rescaled at that step; it
is brought up to date by the telescoped factor piv_t / piv_s only when it
is next used.  Every coefficient is an integer Laurent polynomial in q and
every division performed is exact; a remainder raises InexactDivisionError
instead of rounding anything.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, product

from .cartan import BorcherdsCartanDatum, Weight, weight_height
from .errors import InexactDivisionError, InputError

Word = tuple[int, ...]
# Pairs (i, j) of distinct letters that commute, listed in both orders.
Commuting = frozenset[tuple[int, int]]
# The (coordinate, count) pairs of a weight's nonzero entries.
Support = tuple[tuple[int, int], ...]

DEFAULT_HEIGHT_BOUND = 7


class Laurent:
    """Integer-coefficient Laurent polynomial in q, stored sparsely by exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    @classmethod
    def one(cls) -> "Laurent":
        return cls({0: 1})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(out)

    def exact_div(self, other: "Laurent") -> "Laurent":
        """Exact quotient self / other by long division from the top term.  Raises
        InexactDivisionError when a top coefficient is not divisible by the divisor's
        lead or a quotient exponent falls below min(self) - min(other)."""
        if not other:
            raise InexactDivisionError("division by the zero polynomial")
        rest, quot = dict(self.coeffs), {}
        top_o = max(other.coeffs)
        lead, floor = other.coeffs[top_o], min(rest, default=0) - min(other.coeffs)
        while rest:
            top = max(rest)
            e = top - top_o
            if e < floor:
                raise InexactDivisionError("nonzero remainder in exact division")
            q, r = divmod(rest[top], lead)
            if r:
                raise InexactDivisionError(f"coefficient {rest[top]} not divisible by {lead}")
            quot[e] = q
            for eo, co in other.coeffs.items():
                # q and co are nonzero, so an exponent absent from rest comes back nonzero.
                if x := rest.get(e + eo, 0) - q * co:
                    rest[e + eo] = x
                else:
                    del rest[e + eo]
        return Laurent(quot)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{c}*q^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


def q_binomial(m: int, k: int) -> Laurent:
    """Balanced q-binomial [m choose k], 0 unless 0 <= k <= m, by q-Pascal rows:
    [n, 0] = [n, n] = 1 and [n, j] = q^-j [n-1, j] + q^(n-j) [n-1, j-1]."""
    if k < 0 or k > m:
        return Laurent.zero()
    row = [Laurent.one()]
    for n in range(1, m + 1):
        inner = [Laurent({-j: 1}) * row[j] + Laurent({n - j: 1}) * row[j - 1] for j in range(1, n)]
        row = [Laurent.one(), *inner, Laurent.one()]
    return row[k]


@dataclass(frozen=True)
class Relation:
    """Formal linear combination of words, homogeneous of the stated weight."""

    terms: tuple[tuple[Laurent, Word], ...]
    weight: Weight


def _word_weight(word: Word, n: int) -> Weight:
    alpha = [0] * n
    for i in word:
        alpha[i - 1] += 1
    return tuple(alpha)


def build_relations(datum: BorcherdsCartanDatum, max_height: int) -> tuple[Relation, ...]:
    """Defining relations of the lowering half, up to height `max_height`.

    Quantum Serre relations for every real index and every other index,
    plus commutators for every unordered pair with pairing zero; nothing
    else.  When a_ij = 0 the Serre relation is the commutator ij - ji, so
    it is emitted only once: from the smaller real index, or as a
    commutator when both indices are imaginary.  Relations longer than
    `max_height` are not built: they span no row at a weight of height
    `max_height` or less.
    """
    n = datum.index_count
    out: list[Relation] = []
    for i in sorted(datum.real_indices):
        for j in range(1, n + 1):
            a_ij = datum.a(i, j)
            if j == i or 2 - a_ij > max_height or (a_ij == 0 and j < i and j in datum.real_indices):
                continue
            big_n = 1 - a_ij
            terms = []
            for k in range(big_n + 1):
                coeff = q_binomial(big_n, k)
                if k % 2 == 1:
                    coeff = -coeff
                word = (i,) * (big_n - k) + (j,) + (i,) * k
                terms.append((coeff, word))
            out.append(Relation(tuple(terms), _word_weight(terms[0][1], n)))
    pairs = combinations(sorted(datum.imaginary_indices), 2) if max_height >= 2 else ()
    for i, j in pairs:
        if datum.a(i, j) == 0:
            terms = ((Laurent.one(), (i, j)), (-Laurent.one(), (j, i)))
            out.append(Relation(terms, _word_weight((i, j), n)))
    return tuple(out)


def words_of_weight(alpha: Weight, commuting: Commuting = frozenset()) -> list[Word]:
    """All words with letter multiplicities alpha, in lexicographic order: one
    step per letter extends each word by every letter it still lacks, ascending.

    Given the commuting pairs, only the least word of each trace is kept.  A
    word is least in its trace iff it has no factor b u a with a < b where a
    commutes with b and with every letter of u (Anisimov-Knuth, 1979), and
    that is closed under prefixes.  So a step refuses the letter a when a
    scan back from the word's end meets a larger letter that commutes with a
    before any letter that does not, that is, when `_place` would not put a
    at the end."""
    if any(c < 0 for c in alpha):
        raise InputError(f"weight {alpha} leaves the positive cone")
    words: list[tuple[Word, Weight]] = [((), tuple(alpha))]
    for _ in range(sum(alpha)):
        words = [(word + (a,), left[:a - 1] + (c - 1,) + left[a:])
                 for word, left in words for a, c in enumerate(left, 1)
                 if c and not (commuting and _place(word, a, commuting) < len(word))]
    return [word for word, _ in words]


def _place(word: Word | list[int], a: int, commuting: Commuting) -> int:
    """Where a goes in the least word of word * a, when word is least.

    The least word of a trace takes, again and again, the least letter that
    commutes with every letter not yet taken before it.  So a goes before
    the first letter larger than a that follows the last letter a does not
    commute with, or to the end if there is none.  Bubbling a left past the
    larger letters it commutes with is not the same: it stops at a smaller
    letter, where a may still have to pass on to a larger one.
    """
    k = len(word)
    while k and (a, word[k - 1]) in commuting:
        k -= 1
    while k < len(word) and word[k] < a:
        k += 1
    return k


def _least_word(word: Word, commuting: Commuting) -> Word:
    """The least word of word's trace, one letter at a time."""
    out: list[int] = []
    for a in word:
        out.insert(_place(out, a, commuting), a)
    return tuple(out)


@functools.cache
def _traces(alpha: Weight, commuting: Commuting) -> tuple[Word, ...]:
    # Cached per (weight, commuting set): graded_dim asks for the same few
    # sub-weights at every weight, and no caller changes a tuple.
    return tuple(words_of_weight(alpha, commuting))


@functools.cache
def _trace_relations(datum: BorcherdsCartanDatum,
                     max_height: int) -> tuple[Commuting, tuple[tuple[Support, Relation], ...]]:
    """The commuting pairs of datum (a_ij = 0 with i != j) and the relations
    of build_relations(datum, max_height) that are nonzero on traces, each
    with the support of its weight, so a weight is tested on those two
    entries and not on all n coordinates.  A relation in letters i, j with
    a_ij = 0 is the commutator ij - ji, zero on traces, and is dropped.  Any
    other is in two letters that do not commute, so each of its words is the
    only word of its trace, and it is kept as it is.  Cached per (datum,
    height), so this is done once and not at every weight."""
    commuting = frozenset((i, j) for i, row in enumerate(datum.matrix, 1)
                          for j, a in enumerate(row, 1) if a == 0 and i != j)
    out = []
    for rel in build_relations(datum, max_height):
        support = tuple((k, b) for k, b in enumerate(rel.weight) if b)
        (i, _), (j, _) = support
        if datum.matrix[i][j]:
            out.append((support, rel))
    return commuting, tuple(out)


def laurent_rank(rows: list[dict[int, Laurent]], ncols: int) -> int:
    """Rank over the fraction field of Z[q, q^-1] by fraction-free elimination.

    Each row is sparse: a dict from column to entry, zero entries dropped.
    One-step Bareiss: the pivot in column c is the first remaining row with
    an entry there, and every row below it with an entry in c becomes
    (piv * row - lead * pivot row) / prev over the union of the two rows'
    columns.  A row with no entry in c would only be rescaled by piv / prev;
    over steps s+1..t those factors telescope to piv_t / piv_s.  So such a
    row is skipped with no arithmetic, it keeps the prev at which it was
    last made current, and it is brought up to date, one exact
    (x * prev) / stamp per entry, just before it is used: as the pivot row,
    or when it has an entry in the pivot column.  Every entry an update
    reads is then the entry of the same elimination on dense rows, so the
    pivot sequence is the same, every division is exact in the Laurent ring,
    and a remainder would raise.  Scaling by a nonzero factor keeps a row's
    columns, so a stale row picks the same pivot as a current one, and a
    row that is never used again is never rescaled.
    """
    zero = Laurent.zero()
    work = [{j: x for j, x in row.items() if x} for row in rows]
    prev = Laurent.one()
    # stamp[k]: the prev at which work[k] was last made current.
    stamp = [prev] * len(work)

    def current(k: int) -> dict[int, Laurent]:
        if stamp[k] is not prev:
            work[k] = {j: (x * prev).exact_div(stamp[k]) for j, x in work[k].items()}
            stamp[k] = prev
        return work[k]

    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(work)) if c in work[k]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        stamp[r], stamp[pivot] = stamp[pivot], stamp[r]
        top = current(r)
        piv = top[c]
        for k in range(r + 1, len(work)):
            if c in work[k]:
                row = current(k)
                lead = row[c]
                work[k] = {j: x for j in row.keys() | top.keys()
                           if (x := (piv * row.get(j, zero) - lead * top.get(j, zero)).exact_div(prev))}
                stamp[k] = piv
        prev = piv
        r += 1
    return r


def graded_dim(datum: BorcherdsCartanDatum, alpha: Weight) -> int:
    """Dimension of the weight-(-alpha) space of the lowering half.

    alpha must have one coordinate per index and lie in the positive cone
    with height at most DEFAULT_HEIGHT_BOUND (exact elimination cost grows
    quickly past small heights).
    """
    if len(alpha) != datum.index_count:
        raise InputError(f"weight length {len(alpha)} != rank {datum.index_count}")
    if any(c < 0 for c in alpha):
        raise InputError(f"weight {alpha} leaves the positive cone")
    if weight_height(alpha) > DEFAULT_HEIGHT_BOUND:
        raise InputError(f"height {weight_height(alpha)} exceeds the bound {DEFAULT_HEIGHT_BOUND}")
    commuting, relations = _trace_relations(datum, weight_height(alpha))
    traces = _traces(tuple(alpha), commuting)
    index = {w: k for k, w in enumerate(traces)}
    # With no commuting pair every trace is one word, and the word is its own key.
    column = (lambda w: index[_least_word(w, commuting)]) if commuting else index.__getitem__
    rows: list[dict[int, Laurent]] = []
    for support, rel in relations:
        if any(alpha[k] < b for k, b in support):
            continue
        gamma = tuple(a - b for a, b in zip(alpha, rel.weight))
        # One row u * r * v per split gamma = left + right and traces u, v of those weights,
        # ordered by the word u v and then by |u|.  With no commuting pair these are the
        # cuts of every word of gamma in lexicographic order; the elimination's cost
        # depends on the row order, and in product order affine A2(1) at height 7
        # needs about 20% more coefficient products.
        pairs = [(u, v) for left in product(*(range(c + 1) for c in gamma))
                 for u in _traces(left, commuting)
                 for v in _traces(tuple(c - l for c, l in zip(gamma, left)), commuting)]
        pairs.sort(key=lambda p: (p[0] + p[1], len(p[0])))
        for u, v in pairs:
            # The terms of r are distinct traces, so they land in distinct columns.
            rows.append({column(u + w + v): coeff for coeff, w in rel.terms})
    return len(traces) - laurent_rank(rows, len(traces))
