"""Graded-dimension oracle for the negative half of the quantized algebra.

The free algebra on the lowering generators is graded by the positive
root cone; its weight spaces have the words of that weight as a basis.
The defining two-sided ideal is spanned, weight by weight, by all
products u * r * v of a defining relation r with monomials u, v.  The
graded dimension at alpha is then

    #words(alpha) - rank(relation span inside the word space)

computed exactly over Z[q, q^-1] with fraction-free (Bareiss) elimination
on sparse rows: the row of u * r * v has entries only at the words u * w * v
for the terms w of r, so each row is a dict from column to nonzero entry.
A row with no entry in the pivot column is not rescaled at that step; it
is brought up to date by the telescoped factor piv_t / piv_s only when it
is next used.  Every coefficient is an integer Laurent polynomial in q and
every division performed is exact; a remainder raises InexactDivisionError
instead of rounding anything.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

from .cartan import BorcherdsCartanDatum, Weight, weight_height
from .errors import InexactDivisionError, InputError

Word = tuple[int, ...]

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


@functools.cache
def q_binomial(m: int, k: int) -> Laurent:
    """Balanced q-binomial [m choose k], 0 unless 0 <= k <= m, by q-Pascal rows:
    [n, 0] = [n, n] = 1 and [n, j] = q^-j [n-1, j] + q^(n-j) [n-1, j-1].

    Cached: build_relations asks for the same few entries at every weight,
    and no caller changes a Laurent's coefficients in place."""
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


@functools.cache
def build_relations(datum: BorcherdsCartanDatum, max_height: int) -> tuple[Relation, ...]:
    """Defining relations of the lowering half, up to height `max_height`.

    Quantum Serre relations for every real index and every other index,
    plus commutators for every unordered pair with pairing zero; nothing
    else.  When a_ij = 0 the Serre relation is the commutator ij - ji, so
    it is emitted only once: from the smaller real index, or as a
    commutator when both indices are imaginary.  Relations longer than
    `max_height` are not built: they span no row at a weight of height
    `max_height` or less.  Cached per (datum, height): `graded_dim` asks
    at every weight, and no caller changes a Relation or a Laurent.
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


def words_of_weight(alpha: Weight) -> list[Word]:
    """All words with letter multiplicities alpha, in lexicographic order: one
    step per letter extends each word by every letter it still lacks, ascending."""
    if any(c < 0 for c in alpha):
        raise InputError(f"weight {alpha} leaves the positive cone")
    words: list[tuple[Word, Weight]] = [((), tuple(alpha))]
    for _ in range(sum(alpha)):
        words = [(word + (i + 1,), left[:i] + (c - 1,) + left[i + 1:])
                 for word, left in words for i, c in enumerate(left) if c]
    return [word for word, _ in words]


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
    words = words_of_weight(alpha)
    index = {w: k for k, w in enumerate(words)}
    rows: list[dict[int, Laurent]] = []
    for rel in build_relations(datum, weight_height(alpha)):
        gamma = tuple(a - b for a, b in zip(alpha, rel.weight))
        if any(c < 0 for c in gamma):
            continue
        # Each pair (u, v) of total weight gamma is one split of one word of weight gamma.
        for uv in words_of_weight(gamma):
            for cut in range(len(uv) + 1):
                u, v = uv[:cut], uv[cut:]
                # The words of one relation are distinct, so its terms land in distinct columns.
                rows.append({index[u + w + v]: coeff for coeff, w in rel.terms})
    return len(words) - laurent_rank(rows, len(words))
