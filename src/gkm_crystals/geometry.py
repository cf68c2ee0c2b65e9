"""Pointwise geometry on representations of a doubled quiver.

A representation assigns V_i = Q^{d_i} to each vertex and a rational
matrix B_h : V_out(h) -> V_in(h) to each arrow of the doubled quiver.
This module evaluates, at a single representation point: the moment map,
the graded-complete-flag condition (strict arrows must step the flag
down, weak loops must preserve it), regular semisimplicity of the weak
loop matrices, and the crystal statistics eps_i and eps*_i: eps_i from the
loop-stable closure of the incoming arrow images, eps*_i from the same
closure on the adjoint, read from the arrows at i alone and checked
against the largest loop-stable subspace killed by the outgoing arrows.

The span work runs on int vectors: closures, the flag filtration, the
flag search, eps, eps* and the flag check pass primitive int vectors
between `EchelonBasis` and the matrices' int forms.  `Fraction`s stay at
the boundary: parsed entries, the moment map, the entries of an induced
operator, and witness vectors, each made once from its int lift and
cleared once by `verify_flag`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction as Q

from .cartan import Quiver, _loaded_dict, load_quiver
from .errors import InputError, InternalInconsistencyError
from .exactlin import EchelonBasis, RatMat, Vec, _clear, charpoly, is_squarefree, nullspace, rational_roots

DEFAULT_FLAG_DIM_BOUND = 6

# The one string form of a rational entry; Fraction also takes "1e1000000000", which never finishes.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _check_dims(dims, vertex_count: int) -> None:
    if len(dims) != vertex_count:
        raise InputError("dimension vector length does not match the vertex count")
    if any(d < 0 for d in dims):
        raise InputError("negative dimension")


@dataclass(frozen=True)
class QuiverRep:
    """Matrices B_h on a dimension vector, indexed by arrow declaration order."""

    quiver: Quiver
    dims: tuple[int, ...]
    mats: tuple[RatMat, ...]

    def __post_init__(self) -> None:
        _check_dims(self.dims, self.quiver.vertex_count)
        if len(self.mats) != len(self.quiver.arrows):
            raise InputError("matrix count does not match the arrow count")
        for k, arrow in enumerate(self.quiver.arrows):
            want = (self.dims[arrow.target - 1], self.dims[arrow.source - 1])
            got = (self.mats[k].nrows, self.mats[k].ncols)
            if want != got:
                raise InputError(f"matrix h{k} has shape {got}, expected {want}")

    def total_dim(self) -> int:
        return sum(self.dims)


def _parse_entry(x) -> Q:
    if isinstance(x, bool):
        raise InputError(f"bad matrix entry {x!r}")
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return Q(x)
        except (ValueError, ZeroDivisionError) as exc:  # a zero denominator or too many digits
            raise InputError(f"bad rational entry {x!r}") from exc
    raise InputError(f"bad matrix entry {x!r}")


def load_rep(source) -> QuiverRep:
    """Parse {"quiver": {...}, "dims": [...], "mats": {"h<k>": [[...]]}}.

    Matrix entries are integers or rational strings "p/q"; arrow keys
    follow declaration order in the doubled arrow set.
    """
    data = _loaded_dict(source)
    for key in ("quiver", "dims", "mats"):
        if key not in data:
            raise InputError(f'missing "{key}" key')
    quiver = load_quiver(data["quiver"])
    dims = data["dims"]
    if not isinstance(dims, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise InputError('"dims" must be a list of integers')
    _check_dims(dims, quiver.vertex_count)  # before any matrix shape is read from dims
    raw_mats = data["mats"]
    if not isinstance(raw_mats, dict):
        raise InputError('"mats" must be an object keyed by arrow')
    mats = []
    for k, arrow in enumerate(quiver.arrows):
        key = f"h{k}"
        if key not in raw_mats:
            raise InputError(f'missing matrix "{key}"')
        rows = raw_mats[key]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError(f'matrix "{key}" must be a list of rows')
        parsed = [[_parse_entry(x) for x in r] for r in rows]
        nrows, ncols = dims[arrow.target - 1], dims[arrow.source - 1]
        if len(parsed) != nrows or any(len(r) != ncols for r in parsed):
            raise InputError(f'matrix "{key}" does not have shape {nrows} x {ncols}')
        mats.append(RatMat.from_rows(parsed, nrows=nrows, ncols=ncols))
    extra = sorted(set(raw_mats) - {f"h{k}" for k in range(len(quiver.arrows))})
    if extra:
        raise InputError(f"unknown matrix keys {extra}")
    return QuiverRep(quiver, tuple(dims), tuple(mats))


def _check_vertex(rep: QuiverRep, i: int) -> None:
    if type(i) is not int or not 1 <= i <= rep.quiver.vertex_count:  # bool is an int subclass
        raise InputError(f"vertex {i!r} out of range")


def moment_map(rep: QuiverRep, i: int) -> RatMat:
    """sum over arrows h leaving i of sign(h) * B_hbar B_h, an endomorphism of V_i."""
    _check_vertex(rep, i)
    # [B_hbar ...] side by side times [sign(h) B_h ...] stacked, over the arrows h leaving i.
    out = [(k, 1 if a.in_omega else -1) for k, a in enumerate(rep.quiver.arrows) if a.source == i]
    d, width = rep.dims[i - 1], sum(rep.mats[k].nrows for k, _ in out)
    side = tuple(tuple(x for k, _ in out for x in rep.mats[rep.quiver.partner(k)].entries[r]) for r in range(d))
    stack = tuple(tuple(sign * x for x in row) for k, sign in out for row in rep.mats[k].entries)
    return RatMat(d, width, side) @ RatMat(width, d, stack)


def moment_map_check(rep: QuiverRep) -> bool:
    return all(moment_map(rep, i).is_zero() for i in range(1, rep.quiver.vertex_count + 1))


def regular_semisimple_verdicts(rep: QuiverRep) -> dict[int, bool]:
    """Squarefree characteristic polynomial test per weak (Omega-bar) loop."""
    out: dict[int, bool] = {}
    for k in rep.quiver.weak_positions():
        out[k] = is_squarefree(_charpoly(rep.mats[k]))
    return out


def _charpoly(m: RatMat) -> list[int]:
    """charpoly(m), once per matrix: the flag search and the verdicts can ask for the same weak loop."""
    if "charpoly" not in m.memo:
        m.memo["charpoly"] = charpoly(m)
    return m.memo["charpoly"]


# -- crystal statistics at a point ------------------------------------------


def _loop_positions_at(rep: QuiverRep, i: int) -> list[int]:
    return [k for k, a in enumerate(rep.quiver.arrows) if a.source == i and a.target == i]


def _closure(spaces: list[EchelonBasis], maps) -> list[EchelonBasis]:
    """Grow graded spaces until each map (src, tgt, matrix) sends spaces[src] into spaces[tgt].

    Only the rows a space gained are pushed through the maps: every other
    image lies in the span of earlier rows, and so do its images.
    """
    todo = [(v, row) for v, space in enumerate(spaces) for row in space.rows]
    while todo:
        v, row = todo.pop()
        for src, tgt, m in maps:
            if src == v:
                new = spaces[tgt].add(m.image(row))
                if new is not None:
                    todo.append((tgt, new))
    return spaces


def eps_point(rep: QuiverRep, i: int) -> int:
    """Codimension in V_i of the loop-stable closure of the non-loop incoming images."""
    _check_vertex(rep, i)
    d = rep.dims[i - 1]
    cols = [c for k, a in enumerate(rep.quiver.arrows) if a.target == i and a.source != i for c in rep.mats[k].int_cols]
    loops = [(0, 0, rep.mats[k]) for k in _loop_positions_at(rep, i)]
    return d - len(_closure([EchelonBasis(d, cols)], loops)[0])


def eps_star_point(rep: QuiverRep, i: int) -> int:
    """eps_i of the adjoint representation, cross-checked by a kernel iteration.

    On the adjoint, the non-loop arrows into i are the transposes of the
    B_h leaving i, with the row spaces of the B_h as column spaces, and the
    loops at i are the transposes of the loops at i; no other arrow is read.
    The second route starts from K, the intersection of ker B_h over the
    non-loop arrows h leaving i, and replaces K by its vectors that every
    loop T at i maps back into K, until the dimension stops falling.  The
    limit is the largest loop-stable subspace killed by those arrows.
    Disagreement raises InternalInconsistencyError.
    """
    _check_vertex(rep, i)
    d = rep.dims[i - 1]
    rows = [r for k, a in enumerate(rep.quiver.arrows) if a.source == i and a.target != i for r in rep.mats[k].int_rows]
    loops = [rep.mats[k].transpose() for k in _loop_positions_at(rep, i)]
    primary = d - len(_closure([EchelonBasis(d, rows)], [(0, 0, t) for t in loops])[0])
    space = nullspace(rows, d)
    while space:
        annihilator = nullspace(space, d)  # T x lies in K exactly when a T x = 0 for each row a
        shrunk = nullspace(rows + [t.image(a) for t in loops for a in annihilator], d)
        if len(shrunk) == len(space):
            break
        space = shrunk
    if len(space) != primary:
        raise InternalInconsistencyError(
            f"eps*_{i}: adjoint closure gives {primary}, kernel iteration gives {len(space)}"
        )
    return primary


# -- graded complete flags ---------------------------------------------------


@dataclass(frozen=True)
class FlagWitness:
    """Flag steps from the bottom: each step adds one vector at one vertex."""

    steps: tuple[tuple[int, Vec], ...]


def _unit(k: int, n: int) -> list[int]:
    return [int(j == k) for j in range(n)]


def _induced_ops(ops: list[RatMat], comp: list[list[int]], lower: list[list[int]], width: int) -> list[RatMat]:
    """Matrices of the operators on span(comp + lower)/span(lower) in the comp basis.

    All vectors are int vectors, and row k of `coords` is u_k followed by
    the k-th unit vector.  With D = t.scale, reducing (D t u_b, 0) leaves
    s (0, -x) when D t u_b = sum x_k u_k, and a nonzero head when the image
    leaves the span; then t u_b = sum x_k u_k / D.
    """
    q, m = len(comp), len(comp) + len(lower)
    coords = EchelonBasis(width + m, [u + _unit(k, m) for k, u in enumerate(comp + lower)])
    induced = []
    for t in ops:
        cols: list[list[Q]] = []
        for u in comp:
            red, s = coords.reduce(t.image(u) + [0] * m)
            if any(red[:width]):
                raise InternalInconsistencyError("operator leaves an invariant space it must preserve")
            cols.append([Q(-red[width + a], s * t.scale) for a in range(q)])
        induced.append(RatMat(q, q, tuple(tuple(col[a] for col in cols) for a in range(q))))
    return induced


def _witness(u: list[int], row: list[int]) -> Vec:
    """A flag step's vector: the multiple of the int vector u that reads 1 at the pivot of `row`, as Fractions."""
    p = next(k for k, x in enumerate(row) if x)
    return tuple(Q(x, u[p]) for x in u)


def _triangularize(ops: list[RatMat], upper: list[list[int]], lower: list[list[int]], width: int) -> list[Vec] | None:
    """Vectors extending `lower` to a basis of span(upper), every prefix span invariant under all ops.

    `upper` and `lower` are int RREF rows; the complement, the grown lower
    rows and the lifts stay int vectors.  Each step takes the first rational
    joint eigenvector of the ops on span(upper)/span(lower) (ops in order,
    roots ascending), adds its lift to the flag, and drops from the
    complement the row at its last nonzero coordinate.  Roots are chosen one
    op at a time.  A prefix of choices is the RREF of its shifted ops, at most
    q = dim(quotient) rows, dropped at rank q, where its joint kernel is zero:
    the surviving kernels form a direct sum, so at most q prefixes survive
    each op, and `nullspace` runs once per step, on the first survivor, the
    first combination in product order.  Returns None when no rational
    ordering exists.  One candidate suffices: an invariant complete flag of
    a space maps onto one of its quotient by every invariant line, so if
    the quotient by the chosen line has no flag, neither has the space.
    """
    acc = EchelonBasis(width, lower)
    comp = [v for v in upper if acc.add(v)]
    if not ops:
        return [_witness(v, v) for v in comp]
    grown, order = list(lower), []
    while q := len(comp):
        # With nothing below and nothing dropped yet, comp is the unit basis, on which each op is itself.
        induced = ops if q == width else _induced_ops(ops, comp, grown, width)
        prefixes: list[list[list[int]]] = [[]]  # the RREF rows of each surviving prefix, at most q of them
        for t in induced:
            # den D (t - num/den): t's int rows minus a root, built once per root and shared by every prefix
            shifts = [[[lam.denominator * x - lam.numerator * t.scale * (a == b) for b, x in enumerate(row)]
                       for a, row in enumerate(t.int_rows)] for lam in rational_roots(_charpoly(t))]
            extended = (EchelonBasis(q, rows + shifted) for rows in prefixes for shifted in shifts)
            prefixes = [basis.rows for basis in extended if len(basis) < q]  # rank below q: a nonzero kernel
            if not prefixes:
                return None
        w = nullspace(prefixes[0], q)[0]
        last = max(a for a, x in enumerate(w) if x)  # its free column, where the canonical vector reads 1
        grown.append([sum(x * v[j] for x, v in zip(w, comp)) for j in range(width)])
        order.append(_witness(grown[-1], comp.pop(last)))  # no other complement row is nonzero at its pivot
    return order


def flag_exists(rep: QuiverRep) -> FlagWitness | None:
    """Search for a graded complete flag witness rational over Q.

    Strict arrows (everything except Omega-bar loops) must map each flag
    piece into the previous one; Omega-bar loops must preserve each piece.
    The filtration by repeated strict-image closures decides nilpotency;
    within each filtration layer the weak loops must triangularize.
    Returns a FlagWitness (steps from the bottom) or None.  The total
    dimension must be at most DEFAULT_FLAG_DIM_BOUND.
    """
    total = rep.total_dim()
    if total > DEFAULT_FLAG_DIM_BOUND:
        raise InputError(f"total dimension {total} exceeds the bound {DEFAULT_FLAG_DIM_BOUND}")
    nv = rep.quiver.vertex_count
    weak = rep.quiver.weak_positions()
    strict = sorted(set(range(len(rep.quiver.arrows))).difference(weak))
    closing = [(a.source - 1, a.target - 1, rep.mats[k]) for k, a in enumerate(rep.quiver.arrows)]

    full = [EchelonBasis(d, [_unit(k, d) for k in range(d)]) for d in rep.dims]
    chain = [full]
    current = full
    while any(current):
        seed: list[list[list[int]]] = [[] for _ in range(nv)]
        for k in strict:
            arrow = rep.quiver.arrows[k]
            src, tgt = arrow.source - 1, arrow.target - 1
            if current[src]:
                seed[tgt].extend(rep.mats[k].image(u) for u in current[src].rows)
        nxt = _closure([EchelonBasis(d, rows) for d, rows in zip(rep.dims, seed)], closing)
        if list(map(len, nxt)) == list(map(len, current)):
            return None  # strict part is not nilpotent
        chain.append(nxt)
        current = nxt

    steps: list[tuple[int, Vec]] = []
    for layer in range(len(chain) - 2, -1, -1):
        upper, lower = chain[layer], chain[layer + 1]
        for v in range(nv):
            ops = [rep.mats[k] for k in weak if rep.quiver.arrows[k].source - 1 == v]
            order = _triangularize(ops, upper[v].rows, lower[v].rows, rep.dims[v])
            if order is None:
                return None
            steps.extend((v + 1, w) for w in order)
    witness = FlagWitness(tuple(steps))
    problems = verify_flag(rep, witness)
    if problems:
        raise InternalInconsistencyError(f"constructed flag fails verification: {problems[0]}")
    return witness


def verify_flag(rep: QuiverRep, witness: FlagWitness) -> list[str]:
    """Independent check of a flag witness; returns findings (empty = valid).

    Each step is checked on its new vector alone: every earlier vector
    passed against pieces no larger than today's, and pieces only grow.
    """
    findings: list[str] = []
    nv = rep.quiver.vertex_count
    weak = set(rep.quiver.weak_positions())
    acc = [EchelonBasis(d) for d in rep.dims]
    if len(witness.steps) != rep.total_dim():
        findings.append(f"{len(witness.steps)} steps for total dimension {rep.total_dim()}")
    for idx, (vertex, vec) in enumerate(witness.steps):
        if type(vertex) is not int or not 1 <= vertex <= nv or len(vec) != rep.dims[vertex - 1]:
            findings.append(f"step {idx}: bad vertex or vector length")
            return findings
        u, _ = _clear(vec)
        images = [(k, a.target - 1, rep.mats[k].image(u)) for k, a in enumerate(rep.quiver.arrows) if a.source == vertex]
        bad = [k for k, tgt, img in images if k not in weak and img not in acc[tgt]]  # the flag before the step
        if not acc[vertex - 1].add(u):
            findings.append(f"step {idx}: vector does not increase the flag")
            return findings
        bad += [k for k, tgt, img in images if k in weak and img not in acc[tgt]]  # the flag after it
        if bad:
            k = min(bad)
            findings.append(f"step {idx}: {'weak' if k in weak else 'strict'} arrow h{k} leaves the required piece")
            return findings
    for v in range(nv):
        if len(acc[v]) != rep.dims[v]:
            findings.append(f"flag does not exhaust vertex {v + 1}")
    return findings
