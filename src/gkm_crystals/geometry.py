"""Pointwise geometry on representations of a doubled quiver.

A representation assigns V_i = Q^{d_i} to each vertex and a rational
matrix B_h : V_out(h) -> V_in(h) to each arrow of the doubled quiver.
This module evaluates, at a single representation point: the moment map,
the graded-complete-flag condition (strict arrows must step the flag
down, weak loops must preserve it), regular semisimplicity of the weak
loop matrices, and the crystal statistics eps_i and eps*_i read off from
closures of arrow images under the loop algebra.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as Q

from .cartan import Quiver, load_quiver
from .errors import (
    DimensionExceededError,
    InputError,
    InternalInconsistencyError,
    ShapeMismatchError,
)
from .exactlin import EchelonBasis, RatMat, Vec, charpoly, is_squarefree, nullspace, rational_roots

DEFAULT_FLAG_DIM_BOUND = 6


@dataclass(frozen=True)
class QuiverRep:
    """Matrices B_h on a dimension vector, indexed by arrow declaration order."""

    quiver: Quiver
    dims: tuple[int, ...]
    mats: tuple[RatMat, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != self.quiver.vertex_count:
            raise ShapeMismatchError("dimension vector length does not match the vertex count")
        if any(d < 0 for d in self.dims):
            raise ShapeMismatchError("negative dimension")
        if len(self.mats) != len(self.quiver.arrows):
            raise ShapeMismatchError("matrix count does not match the arrow count")
        for k, arrow in enumerate(self.quiver.arrows):
            want = (self.dims[arrow.target - 1], self.dims[arrow.source - 1])
            got = (self.mats[k].nrows, self.mats[k].ncols)
            if want != got:
                raise ShapeMismatchError(f"matrix h{k} has shape {got}, expected {want}")

    def total_dim(self) -> int:
        return sum(self.dims)


def _parse_entry(x) -> Q:
    if isinstance(x, bool):
        raise InputError(f"bad matrix entry {x!r}")
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str):
        try:
            return Q(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational entry {x!r}") from exc
    raise InputError(f"bad matrix entry {x!r}")


def load_rep(source) -> QuiverRep:
    """Parse {"quiver": {...}, "dims": [...], "mats": {"h<k>": [[...]]}}.

    Matrix entries are integers or rational strings "p/q"; arrow keys
    follow declaration order in the doubled arrow set.
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            data = json.loads(source)
        except (TypeError, ValueError) as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError("top-level JSON value must be an object")
    for key in ("quiver", "dims", "mats"):
        if key not in data:
            raise InputError(f'missing "{key}" key')
    quiver = load_quiver(data["quiver"])
    dims = data["dims"]
    if not isinstance(dims, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise InputError('"dims" must be a list of integers')
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
        nrows = dims[arrow.target - 1] if arrow.target - 1 < len(dims) else -1
        ncols = dims[arrow.source - 1] if arrow.source - 1 < len(dims) else -1
        if len(parsed) != nrows or any(len(r) != ncols for r in parsed):
            raise ShapeMismatchError(f'matrix "{key}" does not have shape {nrows} x {ncols}')
        mats.append(RatMat.from_rows(parsed, nrows=nrows, ncols=ncols))
    extra = sorted(set(raw_mats) - {f"h{k}" for k in range(len(quiver.arrows))})
    if extra:
        raise InputError(f"unknown matrix keys {extra}")
    return QuiverRep(quiver, tuple(dims), tuple(mats))


def star_rep(rep: QuiverRep) -> QuiverRep:
    """Adjoint representation: (B*)_h is the transpose of B along the involution."""
    mats = tuple(rep.mats[rep.quiver.partner(k)].transpose() for k in range(len(rep.mats)))
    return QuiverRep(rep.quiver, rep.dims, mats)


def moment_map(rep: QuiverRep, i: int) -> RatMat:
    """sum over arrows h leaving i of sign(h) * B_hbar B_h, an endomorphism of V_i."""
    d = rep.dims[i - 1]
    acc = RatMat.zeros(d, d)
    for k, arrow in enumerate(rep.quiver.arrows):
        if arrow.source != i:
            continue
        term = rep.mats[rep.quiver.partner(k)] @ rep.mats[k]
        acc = acc + (term if arrow.in_omega else -term)
    return acc


def moment_map_check(rep: QuiverRep) -> bool:
    return all(moment_map(rep, i).is_zero() for i in range(1, rep.quiver.vertex_count + 1))


def regular_semisimple_verdicts(rep: QuiverRep) -> dict[int, bool]:
    """Squarefree characteristic polynomial test per weak (Omega-bar) loop."""
    out: dict[int, bool] = {}
    for k in rep.quiver.weak_positions():
        out[k] = is_squarefree(charpoly(rep.mats[k]))
    return out


def regular_semisimple_check(rep: QuiverRep) -> bool:
    return all(regular_semisimple_verdicts(rep).values())


def symplectic_form(r1: QuiverRep, r2: QuiverRep) -> Q:
    """omega(B, B') = sum_h sign(h) Tr(B_hbar B'_h); antisymmetric and bilinear."""
    if r1.quiver != r2.quiver or r1.dims != r2.dims:
        raise ShapeMismatchError("representations live on different quivers or dimension vectors")
    total = Q(0)
    for k, arrow in enumerate(r1.quiver.arrows):
        term = (r1.mats[r1.quiver.partner(k)] @ r2.mats[k]).trace()
        total += term if arrow.in_omega else -term
    return total


# -- crystal statistics at a point ------------------------------------------


def _loop_positions_at(rep: QuiverRep, i: int) -> list[int]:
    return [k for k, a in enumerate(rep.quiver.arrows) if a.source == i and a.target == i]


def _closure(spaces: list[EchelonBasis], maps) -> list[EchelonBasis]:
    """Grow graded spaces until each map (src, tgt, matrix) sends spaces[src] into spaces[tgt].

    Only vectors that grew a space are pushed through the maps: the others
    lie in the span of earlier ones, and so do their images.
    """
    todo = [(v, row) for v, space in enumerate(spaces) for row in space.rows]
    while todo:
        v, row = todo.pop()
        for src, tgt, m in maps:
            if src == v:
                [img] = m.apply_rows([row])
                if spaces[tgt].add(img):
                    todo.append((tgt, img))
    return spaces


def _closure_under_loops(rep: QuiverRep, i: int, rows: list[Vec]) -> EchelonBasis:
    """Smallest subspace of V_i containing `rows` and stable under every loop at i."""
    loops = [(0, 0, rep.mats[k]) for k in _loop_positions_at(rep, i)]
    return _closure([EchelonBasis(rep.dims[i - 1], rows)], loops)[0]


def eps_point(rep: QuiverRep, i: int) -> int:
    """Codimension in V_i of the loop-stable closure of the non-loop incoming images."""
    if not 1 <= i <= rep.quiver.vertex_count:
        raise InputError(f"vertex {i} out of range")
    d = rep.dims[i - 1]
    rows: list[Vec] = []
    for k, arrow in enumerate(rep.quiver.arrows):
        if arrow.target == i and arrow.source != i:
            rows.extend(rep.mats[k].transpose().entries)  # column space as rows
    return d - len(_closure_under_loops(rep, i, rows))


def _flatten(m: RatMat) -> Vec:
    return tuple(x for row in m.entries for x in row)


def _loop_algebra(rep: QuiverRep, i: int) -> list[RatMat]:
    """Basis of the unital algebra generated by the loop operators at i."""
    d = rep.dims[i - 1]
    gens = [rep.mats[k] for k in _loop_positions_at(rep, i)]
    basis = [RatMat.identity(d)]
    flat = EchelonBasis(d * d, [_flatten(basis[0])])
    frontier = list(basis)
    while frontier:
        products = [t @ a for t in gens for a in frontier]
        frontier = [p for p in products if flat.add(_flatten(p))]
        basis.extend(frontier)
    return basis


def eps_star_point(rep: QuiverRep, i: int) -> int:
    """eps_i of the adjoint representation, cross-checked by the kernel formula.

    The kernel formula computes dim of the intersection of ker(B_h A) over
    all non-loop arrows h leaving i and all A in the loop algebra at i.
    Disagreement raises InternalInconsistencyError.
    """
    primary = eps_point(star_rep(rep), i)
    d = rep.dims[i - 1]
    outgoing = [k for k, a in enumerate(rep.quiver.arrows) if a.source == i and a.target != i]
    alg = _loop_algebra(rep, i)
    stacked: list[Vec] = []
    for k in outgoing:
        for a in alg:
            stacked.extend((rep.mats[k] @ a).entries)
    kernel_dim = len(nullspace(RatMat.from_rows(stacked, nrows=len(stacked), ncols=d)))
    if kernel_dim != primary:
        raise InternalInconsistencyError(
            f"eps*_{i}: adjoint closure gives {primary}, kernel formula gives {kernel_dim}"
        )
    return primary


# -- graded complete flags ---------------------------------------------------


@dataclass(frozen=True)
class FlagWitness:
    """Flag steps from the bottom: each step adds one vector at one vertex."""

    steps: tuple[tuple[int, Vec], ...]


def _graded_closure(rep: QuiverRep, seed) -> list[EchelonBasis]:
    """Close a graded subspace under every arrow of the doubled quiver."""
    maps = [(a.source - 1, a.target - 1, rep.mats[k]) for k, a in enumerate(rep.quiver.arrows)]
    return _closure([EchelonBasis(d, rows) for d, rows in zip(rep.dims, seed)], maps)


def _complement(upper: list[Vec], lower: list[Vec], width: int) -> list[Vec]:
    """Rows of `upper` extending `lower` to a basis of span(upper)."""
    acc = EchelonBasis(width, lower)
    return [v for v in upper if acc.add(v)]


def _unit(k: int, n: int) -> Vec:
    return tuple(Q(1 if j == k else 0) for j in range(n))


def _induced_ops(ops: list[RatMat], comp: list[Vec], lower: list[Vec], width: int) -> list[RatMat]:
    """Matrices of the operators on span(comp + lower)/span(lower) in the comp basis.

    Row k of `coords` is basis vector k followed by the k-th unit vector, so
    reducing (image, 0) leaves (0, -coordinates) when the image lies in the
    span and a nonzero head when it does not.
    """
    q, m = len(comp), len(comp) + len(lower)
    coords = EchelonBasis(width + m, [tuple(v) + _unit(k, m) for k, v in enumerate(comp + lower)])
    induced = []
    for t in ops:
        cols: list[list[Q]] = []
        for image in t.apply_rows(comp):
            red = coords.reduce(image + (Q(0),) * m)
            if any(red[:width]):
                raise InternalInconsistencyError("operator leaves an invariant space it must preserve")
            cols.append([-c for c in red[width:width + q]])
        entries = tuple(tuple(cols[b][a] for b in range(q)) for a in range(q))
        induced.append(RatMat(q, q, entries))
    return induced


def _lift(w: Vec, comp: list[Vec], width: int) -> Vec:
    """The vector with coordinates w in the basis comp."""
    return tuple(sum((w[a] * comp[a][j] for a in range(len(comp))), Q(0)) for j in range(width))


def _triangularize(ops: list[RatMat], q: int) -> list[Vec] | None:
    """Order a basis of Q^q so every prefix span is invariant under all ops.

    Searches rational joint eigenvectors recursively; returns None when no
    rational ordering exists (or when the search, restricted to canonical
    basis vectors of each joint eigenspace, finds none).
    """
    if q == 0:
        return []
    if not ops:
        return [_unit(k, q) for k in range(q)]
    root_lists = []
    for t in ops:
        roots = rational_roots(charpoly(t))
        if not roots:
            return None
        root_lists.append(roots)
    combos: list[tuple[Q, ...]] = [()]
    for roots in root_lists:
        combos = [c + (r,) for c in combos for r in roots]
    identity_rows = [_unit(k, q) for k in range(q)]
    for combo in combos:
        stacked: list[Vec] = []
        for t, lam in zip(ops, combo):
            shifted = t - RatMat.identity(q).scale(lam)
            stacked.extend(shifted.entries)
        kernel = nullspace(RatMat.from_rows(stacked, nrows=len(stacked), ncols=q))
        for cand in kernel:
            comp = _complement(identity_rows, [cand], q)
            quotient = _induced_ops(ops, comp, [cand], q)
            sub = _triangularize(quotient, q - 1)
            if sub is not None:
                return [cand] + [_lift(w, comp, q) for w in sub]
    return None


def flag_exists(rep: QuiverRep, max_total_dim: int = DEFAULT_FLAG_DIM_BOUND) -> FlagWitness | None:
    """Search for a graded complete flag witness rational over Q.

    Strict arrows (everything except Omega-bar loops) must map each flag
    piece into the previous one; Omega-bar loops must preserve each piece.
    The filtration by repeated strict-image closures decides nilpotency;
    within each filtration layer the weak loops must triangularize.
    Returns a FlagWitness (steps from the bottom) or None.
    """
    total = rep.total_dim()
    if total > max_total_dim:
        raise DimensionExceededError(f"total dimension {total} exceeds the bound {max_total_dim}")
    nv = rep.quiver.vertex_count
    weak = set(rep.quiver.weak_positions())
    strict = [k for k in range(len(rep.quiver.arrows)) if k not in weak]

    full = [EchelonBasis(d, [_unit(k, d) for k in range(d)]) for d in rep.dims]
    chain = [full]
    current = full
    while any(current):
        seed: list[list[Vec]] = [[] for _ in range(nv)]
        for k in strict:
            arrow = rep.quiver.arrows[k]
            src, tgt = arrow.source - 1, arrow.target - 1
            if current[src]:
                seed[tgt].extend(rep.mats[k].apply_rows(current[src].rows))
        nxt = _graded_closure(rep, seed)
        if list(map(len, nxt)) == list(map(len, current)):
            return None  # strict part is not nilpotent
        chain.append(nxt)
        current = nxt

    steps: list[tuple[int, Vec]] = []
    for layer in range(len(chain) - 2, -1, -1):
        upper, lower = chain[layer], chain[layer + 1]
        for v in range(nv):
            comp = _complement(upper[v].rows, lower[v].rows, rep.dims[v])
            if not comp:
                continue
            ops = [rep.mats[k] for k in weak if rep.quiver.arrows[k].source - 1 == v]
            induced = _induced_ops(ops, comp, lower[v].rows, rep.dims[v])
            order = _triangularize(induced, len(comp))
            if order is None:
                return None
            steps.extend((v + 1, _lift(w, comp, rep.dims[v])) for w in order)
    witness = FlagWitness(tuple(steps))
    problems = verify_flag(rep, witness)
    if problems:
        raise InternalInconsistencyError(f"constructed flag fails verification: {problems[0]}")
    return witness


def verify_flag(rep: QuiverRep, witness: FlagWitness) -> list[str]:
    """Independent check of a flag witness; returns findings (empty = valid)."""
    findings: list[str] = []
    nv = rep.quiver.vertex_count
    weak = set(rep.quiver.weak_positions())
    acc = [EchelonBasis(d) for d in rep.dims]
    if len(witness.steps) != rep.total_dim():
        findings.append(f"{len(witness.steps)} steps for total dimension {rep.total_dim()}")
    for idx, (vertex, vec) in enumerate(witness.steps):
        if not 1 <= vertex <= nv or len(vec) != rep.dims[vertex - 1]:
            findings.append(f"step {idx}: bad vertex or vector length")
            return findings
        prev = list(acc)  # the flag before this step; the grown piece gets a new basis
        acc[vertex - 1] = EchelonBasis(rep.dims[vertex - 1], prev[vertex - 1].rows)
        if not acc[vertex - 1].add(vec):
            findings.append(f"step {idx}: vector does not increase the flag")
            return findings
        for k, arrow in enumerate(rep.quiver.arrows):
            src, tgt = arrow.source - 1, arrow.target - 1
            img = rep.mats[k].apply_rows(acc[src].rows)
            target_space = acc[tgt] if k in weak else prev[tgt]
            kind = "weak" if k in weak else "strict"
            for w in img:
                if w not in target_space:
                    findings.append(f"step {idx}: {kind} arrow h{k} leaves the required piece")
                    return findings
    for v in range(nv):
        if len(acc[v]) != rep.dims[v]:
            findings.append(f"flag does not exhaust vertex {v + 1}")
    return findings
