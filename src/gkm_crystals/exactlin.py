"""Small exact linear algebra over the rationals.

A `RatMat` is an operator with an explicit shape, so zero-dimensional
edge cases stay well defined; it has only what the geometry calls: its
int form, images of int vectors, the transpose, products and a zero test.
Its entries are `Fraction`s (only int and Fraction entries are accepted).
Its int form, built on first use, is D*M for the least D > 0 that makes
it integral, kept by rows and by columns; every transpose shares it.  A
subspace is an `EchelonBasis`: its reduced row echelon basis, grown one
vector at a time, which answers membership and, with rows augmented by
unit vectors, coordinates.  Because that basis is unique, `rref` and
`nullspace` are one-shot uses of it, and both take rows and a width.

The kernels take and hand back int vectors, each standing for its
positive multiples: an image is D*M times the vector, a basis row or
kernel vector is primitive, and nothing is cleared of denominators twice.

Polynomials, highest degree first, leave as coprime integers (`charpoly`),
and one Sturm sequence of primitive remainders serves `is_squarefree` and
`rational_roots`, which take int or Fraction coefficients.  `is_squarefree`
tries a certificate modulo a few fixed primes first.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property

from .errors import InternalInconsistencyError

Vec = tuple[Q, ...]


def _rat(x) -> Q:
    if type(x) is Q:
        return x
    if not isinstance(x, (int, Q)):
        raise TypeError(f"exact arithmetic takes int or Fraction entries, not {type(x).__name__}")
    return Q(x)


def _clear(v) -> tuple[list[int], int]:
    """(u, d) with d > 0 the least integer for which u = d*v is integral."""
    pairs = [a.as_integer_ratio() for a in v if isinstance(a, (int, Q))]
    if len(pairs) != len(v):
        for a in v:
            _rat(a)  # raises at the first entry that is neither
    d = math.lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def _cancel(u: list[int], row: list[int], p: int) -> tuple[list[int], int]:
    """(m*u - c*row, m) with m > 0 least such that the result vanishes at p; row[p] > 0."""
    g = math.gcd(u[p], row[p])
    m, c = row[p] // g, u[p] // g
    return [m * a - c * b if b else m * a for a, b in zip(u, row)], m


def _int_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * col[j] for j, x in nz) for col in cols]
            for nz in ([(j, x) for j, x in enumerate(row) if x] for row in a)]


@dataclass(frozen=True)
class RatMat:
    nrows: int
    ncols: int
    entries: tuple[Vec, ...]
    # Results kept per matrix once computed: its characteristic polynomial, in the geometry.
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.entries) != self.nrows or any(len(r) != self.ncols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")

    @classmethod
    def from_rows(cls, rows, nrows: int | None = None, ncols: int | None = None) -> "RatMat":
        ent = tuple(tuple(_rat(x) for x in row) for row in rows)
        r = len(ent) if nrows is None else nrows
        c = (len(ent[0]) if ent else 0) if ncols is None else ncols
        return cls(r, c, ent)

    @cached_property
    def _scaled(self) -> tuple[int, list[list[int]]]:
        rows = [_clear(r) for r in self.entries]
        d = math.lcm(*[q for _, q in rows])
        return d, [[x * (d // q) for x in u] for u, q in rows]

    @property
    def scale(self) -> int:
        """The least D > 0 for which D*self is integral."""
        return self._scaled[0]

    @property
    def int_rows(self) -> list[list[int]]:
        """The rows of D*self, D = scale."""
        return self._scaled[1]

    @cached_property
    def int_cols(self) -> list[list[int]]:
        """The columns of D*self, D = scale."""
        return [[row[j] for row in self.int_rows] for j in range(self.ncols)]

    def image(self, u) -> list[int]:
        """D*self applied to the int vector u (column convention): a positive multiple of its image."""
        if len(u) != self.ncols:
            raise ValueError(f"vector of length {len(u)} for a matrix with {self.ncols} columns")
        nz = [(j, x) for j, x in enumerate(u) if x]
        return [sum(row[j] * x for j, x in nz) for row in self.int_rows]

    def transpose(self) -> "RatMat":
        """The transpose; its int form is this one's, read by columns, so nothing is cleared again."""
        t = RatMat(self.ncols, self.nrows, tuple(tuple(r[c] for r in self.entries) for c in range(self.ncols)))
        t.__dict__.update(_scaled=(self.scale, self.int_cols), int_cols=self.int_rows)
        return t

    def __matmul__(self, other: "RatMat") -> "RatMat":
        """The product, entry by entry over a row of self and a column of other, each cleared on its own."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in product: {self.ncols} vs {other.nrows}")
        cols = [_clear([row[k] for row in other.entries]) for k in range(other.ncols)]
        entries = []
        for u, du in map(_clear, self.entries):
            nz = [(j, x) for j, x in enumerate(u) if x]
            entries.append(tuple(Q(sum(x * v[j] for j, x in nz), du * dv) for v, dv in cols))
        return RatMat(self.nrows, other.ncols, tuple(entries))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)


class EchelonBasis:
    """A growing subspace of Q^width, kept as its canonical RREF basis, on int vectors.

    `rows` holds the reduced row echelon basis of the span, sorted by pivot
    column, each row as the primitive integer vector with a positive pivot
    entry (the RREF row is that vector divided by its pivot entry), and
    `pivots` lists the pivot columns.  Every insertion keeps that form, so
    the rows are the same whatever order spanned them.  Vectors go in as
    int sequences; any positive multiple of a vector spans the same line.
    """

    def __init__(self, width: int, rows=()):
        self.width = width
        self.pivots: list[int] = []
        self.rows: list[list[int]] = []
        for v in rows:
            self.add(v)

    def reduce(self, v) -> tuple[list[int], int]:
        """(u, s), s > 0, with u/s equal to v with every pivot column cleared.

        u is zero exactly when v lies in the span.
        """
        if len(v) != self.width:
            raise ValueError(f"vector of length {len(v)} in a basis of width {self.width}")
        u, s = list(v), 1
        for row, p in zip(self.rows, self.pivots):
            if u[p]:
                u, m = _cancel(u, row, p)
                s *= m
        return u, s

    def add(self, v) -> list[int] | None:
        """Insert v; when the span grew, return the primitive new row as inserted, else None."""
        u, _ = self.reduce(v)
        p = next((k for k, a in enumerate(u) if a), None)
        if p is None:
            return None
        g = math.gcd(*u) if u[p] > 0 else -math.gcd(*u)
        u = [a // g for a in u]
        for k, r in enumerate(self.rows):
            if r[p]:
                r, _ = _cancel(r, u, p)
                g = math.gcd(*r)
                self.rows[k] = [a // g for a in r]
        k = bisect.bisect(self.pivots, p)
        self.rows.insert(k, u)
        self.pivots.insert(k, p)
        return u

    def __contains__(self, v) -> bool:
        return not any(self.reduce(v)[0])

    def __len__(self) -> int:
        return len(self.rows)


def rref(rows, width: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of int rows: (its rows as primitive int vectors, pivot columns)."""
    basis = EchelonBasis(width, rows)
    return basis.rows, basis.pivots


def nullspace(rows, width: int) -> list[list[int]]:
    """Basis of the x in Q^width with a . x = 0 for every int row a, as primitive int vectors.

    Vector k is the positive multiple of the canonical kernel vector of the
    k-th free column: 1 there, 0 at the other free columns, and minus the
    RREF entry of that column at each pivot.  So its last nonzero entry
    sits at its free column.
    """
    basis, pivots = rref(rows, width)
    out: list[list[int]] = []
    for fc in (c for c in range(width) if c not in pivots):
        hits = [(r[fc], r[pc], pc) for r, pc in zip(basis, pivots) if r[fc]]
        lead = math.lcm(*[b for _, b, _ in hits])
        v = [0] * width
        v[fc] = lead
        for a, b, pc in hits:
            v[pc] = -a * (lead // b)
        g = math.gcd(*v)
        out.append([a // g for a in v])
    return out


def charpoly(m: RatMat) -> list[int]:
    """Characteristic polynomial in primitive form, highest degree first (Le Verrier).

    Runs on the integer matrix a = D*m, D the lcm of the entries'
    denominators, whose coefficients c_k are integers: Newton's identities
    k c_k = -(s_k + c_1 s_(k-1) + ... + c_(k-1) s_1) over the power traces
    s_k = tr(a^k) divide exactly, and an inexact division is a tripwire.
    tr(a^k) pairs a^ceil(k/2) with a^floor(k/2), so no higher power is
    formed.  D^n chi_m has the integer coefficients c_k D^(n-k); the result
    is that polynomial divided by its content, with leading coefficient > 0.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    den = m.scale
    powers = [[[int(i == j) for j in range(n)] for i in range(n)], m.int_rows]
    while len(powers) <= (n + 1) // 2:
        powers.append(_int_product(powers[-1], powers[1]))
    coeffs, traces = [1], [n]
    for k in range(1, n + 1):
        p, q = powers[(k + 1) // 2], powers[k // 2]
        traces.append(sum(x * q[j][i] for i, row in enumerate(p) for j, x in enumerate(row) if x))
        ck, rem = divmod(-sum(c * t for c, t in zip(coeffs, reversed(traces))), k)
        if rem:
            raise InternalInconsistencyError(f"Newton's identity {k} does not divide exactly")
        coeffs.append(ck)
    return _primitive([c * den ** (n - k) for k, c in enumerate(coeffs)])


def poly_deriv(p) -> list:
    n = len(p) - 1
    return [c * (n - k) for k, c in enumerate(p[:-1])]


def _primitive(p) -> list[int]:
    """The integer multiple c*p, c > 0, with coprime coefficients and no leading zeros."""
    ints, _ = _clear(p)
    g = math.gcd(*ints)
    k = next((i for i, c in enumerate(ints) if c), len(ints))
    return [c // g for c in ints[k:]]


def _rem(a: list[int], b: list[int]) -> list[int]:
    """_primitive of the remainder of a by b, a positive multiple of it; b has no leading zero."""
    if b[0] < 0:
        b = [-c for c in b]
    while len(a) >= len(b):
        c = a[0]
        a = [b[0] * x - c * y for x, y in zip(a[1:], b[1:])] + [b[0] * x for x in a[len(b):]]
    return _primitive(a)


def _sturm(p: list[int]) -> list[list[int]]:
    """Sturm sequence of a nonconstant integer p: p, p' and the negated primitive remainders.

    Every member is a positive multiple of the true Sturm polynomial, so sign
    counts are unchanged, and the last one is a multiple of gcd(p, p').
    """
    seq = [p, _primitive(poly_deriv(p))]
    while len(seq[-1]) > 1:
        r = _rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return seq


# Each certifies the primitive polynomials whose leading coefficient it does not divide.
_CERTIFYING_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)


def _squarefree_mod(p: list[int], ell: int) -> bool:
    """True when p mod ell keeps its degree and is squarefree over F_ell: gcd(p, p') is constant there.

    Then p is squarefree over Q.  Were p = g^2 h over Z with g nonconstant,
    ell would divide neither lead of g nor of h, so p mod ell would keep the
    square of a nonconstant g mod ell.
    """
    a = [c % ell for c in p]
    if not a[0]:
        return False
    n = len(a) - 1
    b = [c * (n - k) % ell for k, c in enumerate(a[:-1])]
    while True:
        b = b[next((k for k, c in enumerate(b) if c), len(b)):]
        if not b:
            return len(a) == 1
        inv = pow(b[0], -1, ell)
        while len(a) >= len(b):
            c = a[0] * inv % ell
            a = [(x - c * y) % ell for x, y in zip(a[1:], b[1:])] + a[len(b):]
        a, b = b, a


def is_squarefree(p) -> bool:
    """Whether p has no repeated factor: first by a certificate modulo a few primes, else exactly.

    A certificate only ever proves squarefree, so every false verdict, and
    every true one the primes miss, comes from the exact Sturm sequence.
    """
    p = _primitive(p)
    if len(p) <= 2 or any(_squarefree_mod(p, ell) for ell in _CERTIFYING_PRIMES):
        return True
    return len(_sturm(p)[-1]) == 1


def _horner(p: list[int], x: int) -> int:
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def _sign_changes(seq: list[list[int]], x: int) -> int:
    signs = [v for v in (_horner(s, x) for s in seq) if v]  # zeros skipped
    return sum((u < 0) != (v < 0) for u, v in zip(signs, signs[1:]))


def rational_roots(p) -> list[Q]:
    """All rational roots of a nonzero polynomial, sorted, without multiplicity.

    With p scaled to coprime integers a_0..a_n, m(y) = a_0^(n-1) p(y/a_0) is
    monic over the integers, so its rational roots are integers and y/a_0
    runs over those of p.  Sturm's theorem counts the distinct real roots of
    m between half-integers, which are never roots of m, so bisection down
    to unit intervals isolates every integer candidate y; each one is kept
    when m(y) = 0, exactly in ints.
    """
    a = _primitive(p)
    if not a:
        raise ValueError("zero polynomial")
    roots: set[Q] = set()
    while a[-1] == 0:
        roots.add(Q(0))
        a.pop()
    if len(a) == 1:
        return sorted(roots)
    m = [1] + [c * a[0] ** (i - 1) for i, c in enumerate(a) if i]
    halves = [[c << i for i, c in enumerate(s)] for s in _sturm(m)]  # 2^deg s(h/2), read at h
    fujiwara = 2 << max(-(-c.bit_length() // k) for k, c in enumerate(m) if k)  # > 2 max |m_k|^(1/k)
    edge = 2 * min(max(abs(c) for c in m), fujiwara) + 3  # Cauchy, Fujiwara: roots in (-edge/2, edge/2)
    stack = [(-edge, _sign_changes(halves, -edge), edge, _sign_changes(halves, edge))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 2:
            y = (lo + 1) // 2
            if _horner(m, y) == 0:
                roots.add(Q(y, a[0]))
            continue
        mid = lo + 2 * ((hi - lo) // 4)  # odd, like lo and hi
        v_mid = _sign_changes(halves, mid)
        stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return sorted(roots)
