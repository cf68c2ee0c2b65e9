"""Small exact linear algebra over the rationals.

Matrices carry explicit shapes so zero-dimensional edge cases stay well
defined.  A subspace is an `EchelonBasis`: its reduced row echelon basis,
grown one vector at a time, which answers membership and, with rows
augmented by unit vectors, coordinates.  Because that basis is unique,
`rref` and `nullspace` are one-shot uses of it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction as Q

Vec = tuple[Q, ...]


@dataclass(frozen=True)
class RatMat:
    nrows: int
    ncols: int
    entries: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.nrows or any(len(r) != self.ncols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")

    @classmethod
    def from_rows(cls, rows, nrows: int | None = None, ncols: int | None = None) -> "RatMat":
        ent = tuple(tuple(Q(x) for x in row) for row in rows)
        r = len(ent) if nrows is None else nrows
        c = (len(ent[0]) if ent else 0) if ncols is None else ncols
        return cls(r, c, ent)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RatMat":
        return cls(nrows, ncols, tuple(tuple(Q(0) for _ in range(ncols)) for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls(n, n, tuple(tuple(Q(1 if i == j else 0) for j in range(n)) for i in range(n)))

    def __add__(self, other: "RatMat") -> "RatMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        return RatMat(self.nrows, self.ncols,
                      tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self) -> "RatMat":
        return self.scale(Q(-1))

    def __sub__(self, other: "RatMat") -> "RatMat":
        return self + (-other)

    def scale(self, c) -> "RatMat":
        c = Q(c)
        return RatMat(self.nrows, self.ncols, tuple(tuple(c * a for a in r) for r in self.entries))

    def __matmul__(self, other: "RatMat") -> "RatMat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in product: {self.ncols} vs {other.nrows}")
        cols = list(zip(*other.entries)) if other.nrows else [()] * other.ncols
        out = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), Q(0)) for col in cols)
            for row in self.entries
        )
        return RatMat(self.nrows, other.ncols, out)

    def transpose(self) -> "RatMat":
        ent = tuple(tuple(self.entries[r][c] for r in range(self.nrows)) for c in range(self.ncols))
        return RatMat(self.ncols, self.nrows, ent)

    def trace(self) -> Q:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.nrows)), Q(0))

    def apply_rows(self, rows) -> list[Vec]:
        """Apply the operator to row vectors: column convention, v -> (M v^T)^T."""
        return [tuple(sum((self.entries[r][c] * v[c] for c in range(self.ncols)), Q(0))
                      for r in range(self.nrows)) for v in rows]

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)


class EchelonBasis:
    """A growing subspace of Q^width, kept as its canonical RREF basis.

    `rows` is the reduced row echelon basis of the span, sorted by pivot
    column, and `pivots` lists the pivot columns.  Every insertion keeps
    that form, so the rows are the same whatever order spanned them.
    """

    def __init__(self, width: int, rows=()):
        self.width = width
        self.rows: list[Vec] = []
        self.pivots: list[int] = []
        for v in rows:
            self.add(v)

    def reduce(self, v) -> Vec:
        """v with every pivot column cleared: zero exactly when v lies in the span."""
        v = [Q(a) for a in v]
        if len(v) != self.width:
            raise ValueError(f"vector of length {len(v)} in a basis of width {self.width}")
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
        return tuple(v)

    def add(self, v) -> bool:
        """Insert v; True when the span grew."""
        v = self.reduce(v)
        p = next((k for k, a in enumerate(v) if a), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = tuple(a * inv for a in v)
        self.rows = [tuple(a - r[p] * b if b else a for a, b in zip(r, v)) if r[p] else r
                     for r in self.rows]
        k = bisect.bisect(self.pivots, p)
        self.rows.insert(k, v)
        self.pivots.insert(k, p)
        return True

    def __contains__(self, v) -> bool:
        return not any(self.reduce(v))

    def __len__(self) -> int:
        return len(self.rows)


def rref(rows, width: int):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    basis = EchelonBasis(width, rows)
    return basis.rows, basis.pivots


def nullspace(m: RatMat) -> list[Vec]:
    """Canonical basis of {x : m @ x = 0} (column-vector kernel, returned as rows)."""
    basis, pivots = rref(m.entries, m.ncols)
    free = [c for c in range(m.ncols) if c not in pivots]
    out: list[Vec] = []
    for fc in free:
        v = [Q(0)] * m.ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -basis[r][fc]
        out.append(tuple(v))
    return out


def charpoly(m: RatMat) -> list[Q]:
    """Monic characteristic polynomial, highest degree first (Faddeev-LeVerrier)."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    coeffs = [Q(1)]
    mk = RatMat.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -mk.trace() / k
        coeffs.append(ck)
        mk = mk + RatMat.identity(n).scale(ck)
    return coeffs


def poly_eval(p, x) -> Q:
    acc = Q(0)
    for c in p:
        acc = acc * x + c
    return acc


def poly_deriv(p) -> list[Q]:
    n = len(p) - 1
    return [c * (n - k) for k, c in enumerate(p[:-1])]


def _poly_norm(p) -> list[Q]:
    k = next((i for i, c in enumerate(p) if c != 0), None)
    if k is None:
        return []
    lead = p[k]
    return [Q(c, lead) for c in p[k:]]


def _poly_mod(a, b) -> list[Q]:
    # b monic and nonzero
    a = list(a)
    while len(a) >= len(b):
        factor = a[0]
        if factor != 0:
            for i in range(1, len(b)):
                a[i] -= factor * b[i]
        a = a[1:]
    return a


def poly_gcd(a, b) -> list[Q]:
    """Monic gcd, highest degree first; the zero polynomial is []."""
    a, b = _poly_norm(a), _poly_norm(b)
    while b:
        r = _poly_mod(a, b) if len(a) >= len(b) else a
        a, b = b, _poly_norm(r)
    return a


def is_squarefree(p) -> bool:
    if len(p) <= 2:
        return True
    return len(poly_gcd(p, poly_deriv(p))) <= 1


def _primitive(p) -> list[int]:
    """The integer multiple c*p, c > 0, with coprime coefficients and no leading zeros."""
    k = next((i for i, c in enumerate(p) if c != 0), len(p))
    den = math.lcm(*(c.denominator for c in p[k:]))
    ints = [int(c * den) for c in p[k:]]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _sign_changes(seq: list[list[int]], h: int) -> int:
    """Sign changes along seq at h/2, zeros skipped; integer Horner on sum c_i h^(d-i) 2^i."""
    changes, last = 0, 0
    for s in seq:
        acc = 0
        for i, c in enumerate(s):
            acc = acc * h + (c << i)
        if acc:
            changes += last * acc < 0
            last = acc
    return changes


def rational_roots(p) -> list[Q]:
    """All rational roots of a nonzero polynomial, sorted, without multiplicity.

    With p scaled to coprime integers a_0..a_n, m(y) = a_0^(n-1) p(y/a_0) is
    monic over the integers, so its rational roots are integers and y/a_0
    runs over those of p.  Sturm's theorem counts the distinct real roots of
    m between half-integers, which are never roots of m, so bisection down
    to unit intervals isolates every integer candidate; each one is then
    confirmed exactly on p.
    """
    p = [Q(c) for c in p]
    k = next((i for i, c in enumerate(p) if c != 0), None)
    if k is None:
        raise ValueError("zero polynomial")
    p = p[k:]
    roots: set[Q] = set()
    while len(p) > 1 and p[-1] == 0:
        roots.add(Q(0))
        p = p[:-1]
    if len(p) == 1:
        return sorted(roots)
    a = _primitive(p)
    m = [1] + [c * a[0] ** (i - 1) for i, c in enumerate(a) if i]
    seq = [m, _primitive(poly_deriv(m))]
    while len(seq[-1]) > 1:
        r = _poly_mod(seq[-2], _poly_norm(seq[-1]))
        if not any(r):
            break
        seq.append(_primitive([-c for c in r]))
    edge = 2 * max(abs(c) for c in m) + 3  # m's roots lie in (-edge/2, edge/2)
    stack = [(-edge, _sign_changes(seq, -edge), edge, _sign_changes(seq, edge))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 2:
            x = Q((lo + 1) // 2, a[0])
            if poly_eval(p, x) == 0:
                roots.add(x)
            continue
        mid = lo + 2 * ((hi - lo) // 4)  # odd, like lo and hi
        v_mid = _sign_changes(seq, mid)
        stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return sorted(roots)
