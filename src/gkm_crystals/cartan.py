"""Borcherds-Cartan data, root-lattice weights, and quivers with edge loops.

A Borcherds-Cartan matrix here is symmetric, integral, with even diagonal
entries at most 2 and nonpositive off-diagonal entries.  Indices with
diagonal 2 are called real, the rest (diagonal 0, -2, -4, ...) imaginary.
Weights live in the root lattice and are stored as integer coordinate
tuples against the simple roots alpha_1 .. alpha_n.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, field

from .errors import InputError

Weight = tuple[int, ...]

MAX_RANK = 16  # largest index (vertex) count accepted; verify's cost grows steeply with rank


def simple_root(n: int, i: int) -> Weight:
    """Coordinate vector of alpha_i (1-based index)."""
    if not 1 <= i <= n:
        raise InputError(f"index {i} not in 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def add_weights(u: Weight, v: Weight) -> Weight:
    if len(u) != len(v):
        raise InputError(f"weight lengths {len(u)} and {len(v)} differ")
    return tuple(a + b for a, b in zip(u, v))


def weight_height(u: Weight) -> int:
    return sum(u)


@dataclass(frozen=True)
class BorcherdsCartanDatum:
    """Validated symmetric even Borcherds-Cartan matrix with its index split."""

    matrix: tuple[tuple[int, ...], ...]
    real_indices: frozenset[int]
    imaginary_indices: frozenset[int]

    @functools.cached_property
    def index_count(self) -> int:
        return len(self.matrix)

    def check_index(self, i: int) -> None:
        if type(i) is not int or not 1 <= i <= self.index_count:  # bool is an int subclass
            raise InputError(f"index {i!r} not in 1..{self.index_count}")

    def a(self, i: int, j: int) -> int:
        self.check_index(i)
        self.check_index(j)
        return self.matrix[i - 1][j - 1]

    def is_real(self, i: int) -> bool:
        self.check_index(i)
        return i in self.real_indices


def validate_datum(matrix) -> BorcherdsCartanDatum:
    """Validate a raw square matrix and classify its indices.

    Raises InputError on the first violated condition, checked in this
    order: at most MAX_RANK indices, a square matrix of integers, symmetry,
    even diagonal entries at most 2, nonpositive off-diagonal entries.
    """
    rows = [tuple(row) for row in matrix]
    n = len(rows)
    if n == 0:
        raise InputError("empty matrix")
    if n > MAX_RANK:
        raise InputError(f"rank {n} exceeds the bound {MAX_RANK}")
    for row in rows:
        if len(row) != n:
            raise InputError("matrix is not square")
        for entry in row:
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise InputError(f"matrix entry {entry!r} is not an integer")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise InputError(f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ")
    for i in range(n):
        d = rows[i][i]
        if d > 2 or d % 2 != 0:
            raise InputError(f"diagonal entry a_{i + 1}{i + 1} = {d} is not in {{2, 0, -2, -4, ...}}")
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] > 0:
                raise InputError(f"off-diagonal entry a_{i + 1}{j + 1} = {rows[i][j]} is positive")
    real = frozenset(i + 1 for i in range(n) if rows[i][i] == 2)
    imaginary = frozenset(i + 1 for i in range(n) if rows[i][i] != 2)
    return BorcherdsCartanDatum(tuple(rows), real, imaginary)


def pairing(datum: BorcherdsCartanDatum, i: int, w: Weight) -> int:
    """<h_i, w> for w in root-lattice coordinates: sum_j w_j * a_ij."""
    datum.check_index(i)
    if len(w) != datum.index_count:
        raise InputError(f"weight length {len(w)} != rank {datum.index_count}")
    row = datum.matrix[i - 1]
    return sum(c * a for c, a in zip(w, row))


@dataclass(frozen=True)
class Arrow:
    source: int
    target: int
    in_omega: bool


@dataclass(frozen=True)
class Quiver:
    """Doubled quiver H built from its orientation Omega.

    `omega` lists the Omega arrows as (source, target) pairs.  With m of
    them, `arrows[k]` is the k-th Omega arrow for k < m and `arrows[m + k]`
    its reversal in Omega-bar, so the reversing involution is
    k -> (k + m) mod 2m.  Vertices are 1-based.
    """

    vertex_count: int
    omega: tuple[tuple[int, int], ...]
    arrows: tuple[Arrow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise InputError("quiver needs at least one vertex")
        for pair in self.omega:
            for v in pair:
                if not 1 <= v <= self.vertex_count:
                    raise InputError(f"vertex {v} not in 1..{self.vertex_count}")
        arrows = [Arrow(s, t, True) for s, t in self.omega] + [Arrow(t, s, False) for s, t in self.omega]
        object.__setattr__(self, "arrows", tuple(arrows))

    @classmethod
    def from_omega_arrows(cls, vertex_count: int, pairs) -> "Quiver":
        return cls(vertex_count, tuple((int(s), int(t)) for s, t in pairs))

    def partner(self, k: int) -> int:
        m = len(self.omega)
        return (k + m) % (2 * m)

    def weak_positions(self) -> tuple[int, ...]:
        """Omega-bar loops: the arrows allowed to act within flag steps."""
        return tuple(k for k, a in enumerate(self.arrows) if a.source == a.target and not a.in_omega)


def quiver_to_cartan(q: Quiver) -> BorcherdsCartanDatum:
    """a_ii = 2 - (arrows i->i in H), a_ij = -(arrows i->j in H)."""
    n = q.vertex_count
    count = Counter((a.source, a.target) for a in q.arrows)
    matrix = [[2 * (i == j) - count[i, j] for j in range(1, n + 1)] for i in range(1, n + 1)]
    return validate_datum(matrix)


def _loaded_dict(source) -> dict:
    if isinstance(source, dict):
        return source
    try:
        data = json.loads(source)
    except (TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    return data


def load_cartan(source) -> BorcherdsCartanDatum:
    """Parse {"matrix": [[int, ...], ...]} from a JSON string or dict."""
    data = _loaded_dict(source)
    if "matrix" not in data:
        raise InputError('missing "matrix" key')
    matrix = data["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InputError('"matrix" must be a list of rows')
    return validate_datum(matrix)


def load_quiver(source) -> Quiver:
    """Parse {"vertices": n, "omega_arrows": [[src, dst], ...]} from JSON or dict."""
    data = _loaded_dict(source)
    for key in ("vertices", "omega_arrows"):
        if key not in data:
            raise InputError(f'missing "{key}" key')
    vertices = data["vertices"]
    if not isinstance(vertices, int) or isinstance(vertices, bool) or vertices < 1:
        raise InputError('"vertices" must be a positive integer')
    if vertices > MAX_RANK:
        raise InputError(f"{vertices} vertices exceed the bound {MAX_RANK}")
    pairs = data["omega_arrows"]
    if not isinstance(pairs, list):
        raise InputError('"omega_arrows" must be a list')
    for p in pairs:
        if not isinstance(p, list) or len(p) != 2 or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in p):
            raise InputError(f"bad arrow entry {p!r}; expected [source, target]")
    return Quiver.from_omega_arrows(vertices, pairs)
