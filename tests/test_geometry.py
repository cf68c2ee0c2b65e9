"""Pointwise invariants on quiver representations over exact rationals."""

import bisect
import random
import re
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm_crystals import geometry
from gkm_crystals.cartan import Quiver
from gkm_crystals.errors import InputError, InternalInconsistencyError
from gkm_crystals.exactlin import RatMat, charpoly, rational_roots
from gkm_crystals.geometry import (
    FlagWitness,
    QuiverRep,
    eps_point,
    eps_star_point,
    flag_exists,
    load_rep,
    moment_map,
    moment_map_check,
    regular_semisimple_verdicts,
    star_rep,
    verify_flag,
)

# one loop plus one arrow to a real vertex; the running two-vertex example
LOOP_QUIVER = Quiver.from_omega_arrows(2, [(1, 1), (1, 2)])
ONE_LOOP = Quiver.from_omega_arrows(1, [(1, 1)])

REP_JSON = """
{"quiver": {"vertices": 2, "omega_arrows": [[1, 1], [1, 2]]},
 "dims": [2, 1],
 "mats": {"h0": [[0, 0], [0, 0]],
          "h1": [[0, 0]],
          "h2": [[1, 1], [0, 3]],
          "h3": [[1], [1]]}}
"""


def pinned_rep() -> QuiverRep:
    return load_rep(REP_JSON)


def one_loop_rep(omega_rows, bar_rows) -> QuiverRep:
    return QuiverRep(ONE_LOOP, (2,), (RatMat.from_rows(omega_rows), RatMat.from_rows(bar_rows)))


def _scalar(c, nrows: int, ncols: int | None = None) -> RatMat:
    """c on the diagonal and zero elsewhere: the zero matrix of any shape when c = 0."""
    ncols = nrows if ncols is None else ncols
    return RatMat.from_rows([[c * (i == j) for j in range(ncols)] for i in range(nrows)], nrows=nrows, ncols=ncols)


# -- Fraction references ------------------------------------------------------
#
# The geometry's span work as it ran on Fractions before it moved to int
# vectors: a Gauss-Jordan span, images, kernels, closures, induced operators
# and lifts, written here so that the references share no code with the
# library's int kernels.


class _FracSpan:
    """A subspace of Q^width, kept as its Fraction RREF rows sorted by pivot column."""

    def __init__(self, width: int, rows=()):
        self.width, self.rows, self.pivots = width, [], []
        for v in rows:
            self.add(v)

    def reduce(self, v) -> tuple[Q, ...]:
        """v with every pivot column cleared: zero exactly when v lies in the span."""
        assert len(v) == self.width
        v = [Q(a) for a in v]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def add(self, v) -> bool:
        v = self.reduce(v)
        p = next((k for k, a in enumerate(v) if a), None)
        if p is None:
            return False
        v = tuple(a / v[p] for a in v)
        self.rows = [tuple(a - r[p] * b for a, b in zip(r, v)) for r in self.rows]
        k = bisect.bisect(self.pivots, p)
        self.rows.insert(k, v)
        self.pivots.insert(k, p)
        return True

    def __contains__(self, v) -> bool:
        return not any(self.reduce(v))

    def __len__(self) -> int:
        return len(self.rows)


def _ref_apply(m: RatMat, v) -> tuple[Q, ...]:
    """m v over Fractions (column convention)."""
    return tuple(sum((a * x for a, x in zip(row, v)), Q(0)) for row in m.entries)


def _ref_transpose(m: RatMat) -> RatMat:
    return RatMat(m.ncols, m.nrows, tuple(tuple(row[c] for row in m.entries) for c in range(m.ncols)))


def _ref_nullspace(rows, width: int) -> list[tuple[Q, ...]]:
    """Canonical kernel basis: 1 at a free column, 0 at the others, minus the RREF entries at the pivots."""
    span = _FracSpan(width, rows)
    out = []
    for fc in (c for c in range(width) if c not in span.pivots):
        v = [Q(int(c == fc)) for c in range(width)]
        for r, pc in zip(span.rows, span.pivots):
            v[pc] = -r[fc]
        out.append(tuple(v))
    return out


def _ref_closure(spaces: list[_FracSpan], maps) -> list[_FracSpan]:
    """Grow graded spaces until each map (src, tgt, matrix) sends spaces[src] into spaces[tgt]."""
    todo = [(v, row) for v, space in enumerate(spaces) for row in space.rows]
    while todo:
        v, row = todo.pop()
        for src, tgt, m in maps:
            if src == v:
                img = _ref_apply(m, row)
                if spaces[tgt].add(img):
                    todo.append((tgt, img))
    return spaces


def _ref_unit(k: int, n: int) -> tuple[Q, ...]:
    return tuple(Q(int(j == k)) for j in range(n))


def _ref_induced_ops(ops: list[RatMat], comp, lower, width: int) -> list[RatMat]:
    """Matrices of the operators on span(comp + lower)/span(lower) in the comp basis, over Fractions."""
    q, m = len(comp), len(comp) + len(lower)
    coords = _FracSpan(width + m, [tuple(v) + _ref_unit(k, m) for k, v in enumerate(comp + lower)])
    induced = []
    for t in ops:
        cols = []
        for v in comp:
            red = coords.reduce(_ref_apply(t, v) + (Q(0),) * m)
            assert not any(red[:width]), "operator leaves an invariant space it must preserve"
            cols.append([-c for c in red[width:width + q]])
        induced.append(RatMat(q, q, tuple(tuple(cols[b][a] for b in range(q)) for a in range(q))))
    return induced


def _ref_lift(w, comp, width: int) -> tuple[Q, ...]:
    """The vector with coordinates w in the basis comp."""
    return tuple(sum((w[a] * comp[a][j] for a in range(len(comp))), Q(0)) for j in range(width))


def _ref_star(rep: QuiverRep) -> QuiverRep:
    return QuiverRep(rep.quiver, rep.dims, tuple(_ref_transpose(rep.mats[rep.quiver.partner(k)])
                                                 for k in range(len(rep.mats))))


def _ref_loops(rep: QuiverRep, i: int) -> list[int]:
    return [k for k, a in enumerate(rep.quiver.arrows) if a.source == i == a.target]


def _ref_eps_point(rep: QuiverRep, i: int) -> int:
    """Codimension of the loop-stable closure of the non-loop incoming column spaces."""
    d = rep.dims[i - 1]
    cols = [c for k, a in enumerate(rep.quiver.arrows) if a.target == i != a.source
            for c in _ref_transpose(rep.mats[k]).entries]
    return d - len(_ref_closure([_FracSpan(d, cols)], [(0, 0, rep.mats[k]) for k in _ref_loops(rep, i)])[0])


def _ref_eps_star_point(rep: QuiverRep, i: int) -> tuple[int, int]:
    """(eps_i of the adjoint, dim of the largest loop-stable subspace the non-loop outgoing arrows kill)."""
    d = rep.dims[i - 1]
    rows = [r for k, a in enumerate(rep.quiver.arrows) if a.source == i != a.target for r in rep.mats[k].entries]
    loops = [_ref_transpose(rep.mats[k]) for k in _ref_loops(rep, i)]
    space = _ref_nullspace(rows, d)
    while space:
        annihilator = _ref_nullspace(space, d)
        shrunk = _ref_nullspace(rows + [_ref_apply(t, a) for t in loops for a in annihilator], d)
        if len(shrunk) == len(space):
            break
        space = shrunk
    return _ref_eps_point(_ref_star(rep), i), len(space)


def test_load_rep_and_validation():
    rep = pinned_rep()
    assert rep.dims == (2, 1)
    assert rep.mats[2].entries == ((Q(1), Q(1)), (Q(0), Q(3)))
    assert rep.total_dim() == 3
    with pytest.raises(InputError):
        load_rep('{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1]}')
    with pytest.raises(InputError):
        load_rep(
            '{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1],'
            ' "mats": {"h0": [[0]], "h9": [[0]]}}'
        )


def test_fraction_entries_parse():
    rep = load_rep(
        '{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1],'
        ' "mats": {"h0": [["1/2"]], "h1": [[2]]}}'
    )
    assert rep.mats[0].entries == ((Q(1, 2),),)
    for entry in ("x", "1e3", "0.5", " 1", "1_0", "1/0", "1/-2"):
        with pytest.raises(InputError):
            load_rep(
                '{"quiver": {"vertices": 1, "omega_arrows": [[1, 1]]}, "dims": [1],'
                f' "mats": {{"h0": [["{entry}"]], "h1": [[2]]}}}}'
            )


def test_shape_mismatch_rejected():
    with pytest.raises(InputError, match=r"^matrix h3 has shape \(1, 1\), expected \(2, 1\)$"):
        QuiverRep(LOOP_QUIVER, (2, 1), (_scalar(0, 2), _scalar(0, 1, 2),
                                        _scalar(0, 2), _scalar(0, 1)))


def test_star_rep_transposes_partners():
    rep = one_loop_rep([[0, 1], [0, 0]], [[0, 0], [0, 0]])
    star = star_rep(rep)
    assert star.mats[1].entries == ((Q(0), Q(0)), (Q(1), Q(0)))
    assert star.mats[0].is_zero()
    assert star_rep(star).mats == rep.mats


def test_moment_map_vanishing():
    assert moment_map_check(pinned_rep())
    # identity loop commutes with itself
    assert moment_map_check(one_loop_rep([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    bad = one_loop_rep([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    assert not moment_map_check(bad)
    assert moment_map(bad, 1).entries == ((Q(-1), Q(0)), (Q(0), Q(1)))


@pytest.mark.parametrize("i", [0, 3, -1])
def test_moment_map_rejects_vertex_out_of_range(i):
    with pytest.raises(InputError):
        moment_map(pinned_rep(), i)


def _reference_moment_map(rep: QuiverRep, i: int) -> tuple[tuple[Q, ...], ...]:
    """sum over arrows h leaving i of sign(h) * B_hbar B_h, by nested loops over Fractions."""
    d = rep.dims[i - 1]
    acc = [[Q(0)] * d for _ in range(d)]
    for k, arrow in enumerate(rep.quiver.arrows):
        if arrow.source != i:
            continue
        sign = 1 if arrow.in_omega else -1
        b, b_bar = rep.mats[k].entries, rep.mats[rep.quiver.partner(k)].entries
        for r in range(d):
            for c in range(d):
                for t in range(rep.dims[arrow.target - 1]):
                    acc[r][c] += sign * b_bar[r][t] * b[t][c]
    return tuple(map(tuple, acc))


_MOMENT_QUIVERS = [
    [(1, 1)],
    [(1, 1), (1, 2)],
    [(1, 1), (1, 1), (2, 1), (2, 3)],
    [(1, 2), (2, 2), (2, 3), (3, 1), (3, 3)],
]


def test_moment_map_matches_the_nested_loop_reference():
    # Each quiver has loops and one more vertex than its arrows touch, which
    # no arrow leaves.  Dimensions run over 0..3.  Half the reps are random;
    # in the others each loop equals its reversal and of each non-loop pair
    # only one arrow is nonzero, so the moment map vanishes everywhere.
    rng = random.Random(20081030)
    empty = isolated = vanishing = nonvanishing = 0
    for n in range(240):
        omega = _MOMENT_QUIVERS[n % len(_MOMENT_QUIVERS)]
        quiver = Quiver.from_omega_arrows(max(map(max, omega)) + 1, omega)
        dims = tuple(rng.randint(0, 3) for _ in range(quiver.vertex_count))
        entry = lambda: Q(rng.choice((0, 0, -1, 1, 2, -3)), rng.choice((1, 1, 2, 5)))
        grids = [[[entry() for _ in range(dims[a.source - 1])] for _ in range(dims[a.target - 1])]
                 for a in quiver.arrows]
        if n % 2:
            m = len(omega)
            for k, (s, t) in enumerate(omega):
                if s == t:
                    grids[k + m] = grids[k]
                else:
                    j = k + m * rng.randint(0, 1)
                    grids[j] = [[Q(0)] * len(row) for row in grids[j]]
        mats = tuple(RatMat.from_rows(g, nrows=dims[a.target - 1], ncols=dims[a.source - 1])
                     for a, g in zip(quiver.arrows, grids))
        rep = QuiverRep(quiver, dims, mats)
        want = [_reference_moment_map(rep, i) for i in range(1, quiver.vertex_count + 1)]
        for i, ref in enumerate(want, 1):
            got = moment_map(rep, i)
            assert (got.nrows, got.ncols) == (dims[i - 1], dims[i - 1])
            assert got.entries == ref, (n, i, rep)
            assert all(type(x) is Q for row in got.entries for x in row)
        zero = all(x == 0 for ref in want for row in ref for x in row)
        assert moment_map_check(rep) == zero, (n, rep)
        assert zero or n % 2 == 0
        empty += dims.count(0)
        isolated += dims[-1] > 0
        vanishing += zero
        nonvanishing += not zero
    assert empty >= 150 and isolated >= 150 and vanishing >= 150 and nonvanishing >= 50


def test_regular_semisimple():
    assert regular_semisimple_verdicts(pinned_rep()) == {2: True}
    assert all(regular_semisimple_verdicts(pinned_rep()).values())
    # repeated eigenvalue 1 fails
    assert regular_semisimple_verdicts(one_loop_rep([[0, 0], [0, 0]], [[1, 0], [0, 1]])) == {1: False}
    assert regular_semisimple_verdicts(one_loop_rep([[0, 0], [0, 0]], [[1, 0], [0, 3]])) == {1: True}


def test_eps_values_on_pinned_instance():
    rep = pinned_rep()
    assert (eps_point(rep, 1), eps_point(rep, 2)) == (0, 1)
    # eps* is checked internally against the kernel formula
    assert (eps_star_point(rep, 1), eps_star_point(rep, 2)) == (2, 0)


def test_eps_on_zero_rep():
    rep = one_loop_rep([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert eps_point(rep, 1) == 2
    assert eps_star_point(rep, 1) == 2


def test_flag_found_and_verified():
    rep = pinned_rep()
    witness = flag_exists(rep)
    assert witness is not None
    assert len(witness.steps) == rep.total_dim()
    assert verify_flag(rep, witness) == []
    by_vertex = [sum(1 for v, _ in witness.steps if v == vertex) for vertex in (1, 2)]
    assert by_vertex == [2, 1]


def test_flag_rejects_invertible_strict_loop():
    assert flag_exists(one_loop_rep([[1, 0], [0, 1]], [[1, 0], [0, 1]])) is None
    assert flag_exists(one_loop_rep([[0, 1], [0, 0]], [[0, 0], [1, 0]])) is None


def test_flag_on_zero_rep():
    rep = one_loop_rep([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    witness = flag_exists(rep)
    assert witness is not None and verify_flag(rep, witness) == []


def test_flag_needs_triangularizable_weak_loop():
    # nilpotent strict loop, but the weak loop rotates the plane: no
    # rational eigenvector, hence no flag over the rationals
    rep = one_loop_rep([[0, 0], [0, 0]], [[0, -1], [1, 0]])
    assert flag_exists(rep) is None


def test_flag_dimension_bound():
    rep = QuiverRep(ONE_LOOP, (7,), (_scalar(0, 7), _scalar(0, 7)))
    with pytest.raises(InputError, match="^total dimension 7 exceeds the bound 6$"):
        flag_exists(rep)


def test_verify_flag_blames_faults():
    rep = pinned_rep()
    witness = flag_exists(rep)
    short = FlagWitness(witness.steps[:-1])
    findings = verify_flag(rep, short)
    assert any("steps" in f or "exhaust" in f for f in findings)

    repeated = FlagWitness((witness.steps[0], witness.steps[0], witness.steps[2]))
    assert any("does not increase" in f for f in verify_flag(rep, repeated))

    # promoting the real vertex first breaks the strict-containment rule
    reordered = FlagWitness((witness.steps[2], witness.steps[0], witness.steps[1]))
    assert any("strict arrow" in f for f in verify_flag(rep, reordered))

    malformed = FlagWitness(((1, (Q(1),)),))
    assert any("bad vertex" in f for f in verify_flag(rep, malformed))


def test_induced_ops_tripwire_fires_when_an_operator_leaves_the_space():
    # e_1 -> e_2 maps the complement vector e_1 out of span(e_1) + span(lower = {}).
    shift = RatMat.from_rows([[0, 0], [1, 0]])
    with pytest.raises(InternalInconsistencyError, match="^operator leaves an invariant space it must preserve$"):
        geometry._induced_ops([shift], [[1, 0]], [], 2)


def test_flag_exists_tripwire_fires_when_its_flag_fails_verification(monkeypatch):
    monkeypatch.setattr(geometry, "verify_flag", lambda rep, witness: ["planted fault"])
    with pytest.raises(InternalInconsistencyError, match="^constructed flag fails verification: planted fault$"):
        flag_exists(pinned_rep())


def test_flag_search_stops_after_one_candidate(monkeypatch):
    # diag(1, 1) + a plane rotation: the 1-eigenspace has two basis vectors,
    # and the quotient by either keeps the rotation, which has no rational
    # eigenvector.  One candidate decides that no flag exists.
    calls = []
    real_nullspace = geometry.nullspace

    def counting(rows, width):
        calls.append(rows)
        return real_nullspace(rows, width)

    monkeypatch.setattr(geometry, "nullspace", counting)
    op = RatMat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert geometry._triangularize([op], [[int(i == j) for j in range(4)] for i in range(4)], [], 4) is None
    assert len(calls) == 2


def test_flag_search_runs_one_nullspace_per_step(monkeypatch):
    # 200 zero loops, then diag(1, 2).  A zero loop's one root adds only zero
    # rows to a prefix, whose RREF stays empty; the kernel is taken once per
    # flag step, on at most 2 rows, not once per loop.
    calls = []
    real_nullspace = geometry.nullspace

    def counting(rows, width):
        calls.append(rows)
        return real_nullspace(rows, width)

    monkeypatch.setattr(geometry, "nullspace", counting)
    ops = [RatMat.from_rows([[0, 0], [0, 0]])] * 200 + [RatMat.from_rows([[1, 0], [0, 2]])]
    order = geometry._triangularize(ops, [[1, 0], [0, 1]], [], 2)
    assert order == [(Q(1), Q(0)), (Q(0), Q(1))]
    assert len(calls) == 2
    assert all(len(rows) <= 2 for rows in calls)


def test_flag_takes_weak_loops_in_arrow_order():
    # vertex 1 carries the weak loops h5 = diag(1, 2) and h9 = diag(4, 3).  In
    # arrow order the first joint eigenvalue pair with a common eigenvector
    # is (1, 4), so the flag starts with e_1; taking h9 first would give (3, 2)
    # and e_2.
    quiver = Quiver.from_omega_arrows(2, [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1)])
    assert quiver.weak_positions() == (5, 8, 9)
    mats = [_scalar(0, (2, 0)[a.target - 1], (2, 0)[a.source - 1]) for a in quiver.arrows]
    mats[5], mats[9] = RatMat.from_rows([[1, 0], [0, 2]]), RatMat.from_rows([[4, 0], [0, 3]])
    witness = flag_exists(QuiverRep(quiver, (2, 0), tuple(mats)))
    assert witness.steps == ((1, (Q(1), Q(0))), (1, (Q(0), Q(1))))


def test_flag_search_work_is_linear_in_the_weak_loops(monkeypatch):
    # One vertex of dimension 2 with k loops.  The Omega loops are zero, and
    # the weak loops are diag(1, 2) except h_{k+1}, which swaps the basis
    # vectors, so no joint eigenvector exists.  Trying every combination of
    # roots would take 2^k kernels; a prefix with a zero kernel is dropped,
    # so each loop costs at most (surviving prefixes) x (roots) = 2 x 2.
    k = 12
    quiver = Quiver.from_omega_arrows(1, [(1, 1)] * k)
    assert quiver.weak_positions() == tuple(range(k, 2 * k))
    diag, swap = RatMat.from_rows([[1, 0], [0, 2]]), RatMat.from_rows([[0, 1], [1, 0]])
    mats = [_scalar(0, 2)] * k + [swap if h == k + 1 else diag for h in range(k, 2 * k)]
    calls = []
    real_nullspace = geometry.nullspace

    def counting(rows, width):
        calls.append(rows)
        return real_nullspace(rows, width)

    monkeypatch.setattr(geometry, "nullspace", counting)
    assert flag_exists(QuiverRep(quiver, (2,), tuple(mats))) is None
    assert len(calls) <= 2 * 2 * k


def _unimodular(rng: random.Random, n: int) -> tuple[RatMat, RatMat]:
    """An integer matrix of determinant 1 and its inverse, from random column additions."""
    u, inv = [[int(i == j) for j in range(n)] for i in range(n)], [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for row in u:
            row[j] += c * row[i]  # u <- u (1 + c e_ij)
        inv[i] = [a - c * b for a, b in zip(inv[i], inv[j])]  # inv <- (1 - c e_ij) inv
    return RatMat.from_rows(u), RatMat.from_rows(inv)


@pytest.mark.parametrize("seed", range(3))
def test_flag_found_on_large_spectra(seed):
    # Two vertices with a loop each, dims (3, 3), flag V1 before V2.  Each
    # weak loop is upper triangular with eigenvalues of size 10**5..10**6,
    # the strict loops are zero (they must commute with a regular semisimple
    # weak loop), 1 -> 2 is zero and 2 -> 1 is random; then each vertex space
    # is conjugated by a unimodular matrix.  Both flag layers are 3-dimensional,
    # so the characteristic polynomials have constant terms near 10**18.
    rng = random.Random(seed)
    quiver = Quiver.from_omega_arrows(2, [(1, 1), (2, 2), (1, 2)])
    (u1, u1_inv), (u2, u2_inv) = _unimodular(rng, 3), _unimodular(rng, 3)

    def weak_loop(u, u_inv):
        t = [[rng.choice([-1, 1]) * rng.randint(10**5, 10**6) if i == j else rng.randint(-5, 5) * (i < j)
              for j in range(3)] for i in range(3)]
        return u @ RatMat.from_rows(t) @ u_inv

    zero = _scalar(0, 3)
    down = u1 @ RatMat.from_rows([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]) @ u2_inv
    rep = QuiverRep(quiver, (3, 3), (zero, zero, zero, weak_loop(u1, u1_inv), weak_loop(u2, u2_inv), down))
    witness = flag_exists(rep)
    assert witness is not None
    assert [v for v, _ in witness.steps] == [1, 1, 1, 2, 2, 2]
    assert verify_flag(rep, witness) == []


def test_eps_star_tripwire_fires_when_the_routes_disagree(monkeypatch):
    real_eps_point = geometry.eps_point
    monkeypatch.setattr(geometry, "eps_point", lambda rep, i: real_eps_point(rep, i) + 1)
    with pytest.raises(InternalInconsistencyError):
        eps_star_point(pinned_rep(), 1)


def _loop_algebra_kernel_dim(rep: QuiverRep, i: int) -> int:
    """dim of the intersection of ker(B_h A) over non-loop arrows h leaving i and A in the loop algebra at i.

    The loop algebra is spanned by products of the loops at i, grown from
    the identity until no product leaves the span.
    """
    d, arrows = rep.dims[i - 1], rep.quiver.arrows
    gens = [rep.mats[k] for k, a in enumerate(arrows) if a.source == i == a.target]

    def flat(m):
        return tuple(x for row in m.entries for x in row)

    algebra = [_scalar(1, d)]
    span = _FracSpan(d * d, [flat(algebra[0])])
    frontier = list(algebra)
    while frontier:
        frontier = [p for p in (t @ a for t in gens for a in frontier) if span.add(flat(p))]
        algebra.extend(frontier)
    stacked = [row for k, a in enumerate(arrows) if a.source == i != a.target
               for b in algebra for row in (rep.mats[k] @ b).entries]
    return len(_ref_nullspace(stacked, d))


_KERNEL_QUIVERS = [
    [(1, 1), (1, 2)],
    [(1, 1), (1, 1), (1, 2)],
    [(1, 1), (1, 2), (2, 1), (2, 2)],
    [(1, 1), (1, 1), (1, 1), (1, 2), (1, 3)],
    [(1, 1), (2, 1), (2, 3), (3, 3)],
]


def test_eps_star_kernel_iteration_matches_the_loop_algebra_formula():
    # Vertex 1 has dimension 1..3.  A quarter of the reps are random and
    # sparse.  In the others the loops at vertex 1 are upper triangular and
    # the arrows leaving it kill the first r basis vectors (0 < r < d when
    # d > 1), so a loop-stable kernel of dimension at least r exists; then
    # vertex 1 is conjugated by a unimodular matrix.  eps_star_point raises
    # unless its two routes agree, so this checks all three.
    rng = random.Random(20261018)
    pairs = middle = 0
    for n in range(300):
        quiver = Quiver.from_omega_arrows(max(map(max, _KERNEL_QUIVERS[n % 5])), _KERNEL_QUIVERS[n % 5])
        dims = tuple(rng.randint(1, 3) if v == 0 else rng.randint(0, 2) for v in range(quiver.vertex_count))
        d, r, structured = dims[0], rng.randint(1, max(dims[0] - 1, 1)), n % 4 != 0
        u, u_inv = _unimodular(rng, d) if d > 1 else (_scalar(1, d),) * 2
        mats = []
        for arrow in quiver.arrows:
            s, t = arrow.source - 1, arrow.target - 1
            m = RatMat.from_rows([[0 if structured and ((s == t == 0 and a > b) or (s == 0 != t and b < r))
                                   else rng.choice((0, 0, 0, -1, 1, 2)) for b in range(dims[s])]
                                  for a in range(dims[t])], nrows=dims[t], ncols=dims[s])
            if structured:
                m = (u if t == 0 else _scalar(1, dims[t])) @ m @ (u_inv if s == 0 else _scalar(1, dims[s]))
            mats.append(m)
        rep = QuiverRep(quiver, dims, tuple(mats))
        for i in range(1, quiver.vertex_count + 1):
            want = _loop_algebra_kernel_dim(rep, i)
            assert eps_star_point(rep, i) == want, (n, i, rep)
            pairs += 1
            middle += 0 < want < dims[i - 1]
    assert pairs == 720 and middle >= 100


# -- the flag search against a recursive reference --------------------------
#
# `_reference_steps` triangularizes each filtration layer by recursing on
# unit-vector quotients and lifting the result through the layer's
# complement, with the weak loops in arrow order.  The library's iterative
# search must return the same steps, exact vector for exact vector, and
# None on the same representations.

_SHAPES = {
    "jordan": ([(1, 1)], [(1,), (2,), (3,), (4,)]),
    "readme": ([(1, 1), (1, 2)], [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (4, 2)]),
    "chain": ([(1, 1), (1, 2), (2, 3), (3, 3)], [(1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 1, 2), (2, 2, 2)]),
    # vertex 1 carries two weak loops, h5 and h9
    "two loops": ([(1, 1), (1, 2), (2, 1), (2, 2), (1, 1)], [(2, 0), (3, 0), (2, 1), (3, 1), (2, 2), (4, 2)]),
    # vertex 1 carries three weak loops, h4, h5 and h7
    "three loops": ([(1, 1), (1, 1), (1, 2), (1, 1)], [(2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (3, 2)]),
}


def _units(q: int) -> list[tuple[Q, ...]]:
    return [tuple(Q(int(i == j)) for j in range(q)) for i in range(q)]


def _recursive_triangularize(ops: list[RatMat], q: int):
    """Order a basis of Q^q so every prefix span is invariant under all ops, by recursion on quotients."""
    if q == 0:
        return []
    if not ops:
        return _units(q)
    root_lists = [rational_roots(charpoly(t)) for t in ops]
    for combo in product(*root_lists):
        stacked = []
        for t, lam in zip(ops, combo):
            stacked.extend(tuple(x - lam * (a == b) for b, x in enumerate(row)) for a, row in enumerate(t.entries))
        kernel = _ref_nullspace(stacked, q)
        if kernel:
            cand = kernel[0]
            acc = _FracSpan(q, [cand])
            comp = [u for u in _units(q) if acc.add(u)]
            sub = _recursive_triangularize(_ref_induced_ops(ops, comp, [cand], q), q - 1)
            return None if sub is None else [cand] + [_ref_lift(w, comp, q) for w in sub]
    return None


def _reference_steps(rep: QuiverRep):
    """Flag steps from the bottom, or None, by the strict-image filtration and recursive layers."""
    nv, arrows = rep.quiver.vertex_count, rep.quiver.arrows
    weak = rep.quiver.weak_positions()
    maps = [(a.source - 1, a.target - 1, rep.mats[k]) for k, a in enumerate(arrows)]
    current = [_FracSpan(d, _units(d)) for d in rep.dims]
    chain = [current]
    while any(current):
        seed = [[] for _ in range(nv)]
        for k, a in enumerate(arrows):
            if k not in weak and current[a.source - 1]:
                seed[a.target - 1].extend(_ref_apply(rep.mats[k], v) for v in current[a.source - 1].rows)
        nxt = _ref_closure([_FracSpan(d, rows) for d, rows in zip(rep.dims, seed)], maps)
        if list(map(len, nxt)) == list(map(len, current)):
            return None
        chain.append(nxt)
        current = nxt
    steps = []
    for upper, lower in zip(chain[-2::-1], chain[::-1]):
        for v in range(nv):
            acc = _FracSpan(rep.dims[v], lower[v].rows)
            comp = [u for u in upper[v].rows if acc.add(u)]
            if not comp:
                continue
            ops = [rep.mats[k] for k in weak if arrows[k].source - 1 == v]
            induced = _ref_induced_ops(ops, comp, lower[v].rows, rep.dims[v])
            order = _recursive_triangularize(induced, len(comp))
            if order is None:
                return None
            steps.extend((v + 1, _ref_lift(w, comp, rep.dims[v])) for w in order)
    return tuple(steps)


def _irrational_block(rng: random.Random) -> list[list[int]]:
    """A 2x2 integer matrix whose eigenvalues are irrational: trace 2t, determinant t^2 - p, p prime."""
    t, p = rng.randint(-3, 3), rng.choice((2, 3, 5, 7))
    b = rng.choice((1, p))
    return [[t, b], [p // b, t]]


def _scrambled_rep(rng: random.Random, name: str, kind: str) -> QuiverRep:
    """A representation of one of the _SHAPES, in a random basis.

    "flag": strict arrows descend and weak loops are upper triangular along
    a random interleaving of the vertex bases, with small (often repeated)
    integer eigenvalues.  "loops": the same strict arrows, but random weak
    loops.  "irrational": a flag rep whose first weak loop at vertex 1 has a
    2x2 block with irrational eigenvalues on its diagonal.  "random": every
    matrix random.
    """
    omega, shapes = _SHAPES[name]
    quiver = Quiver.from_omega_arrows(len(shapes[0]), omega)
    dims = rng.choice(shapes)
    order = [v for v, d in enumerate(dims) for _ in range(d)]
    rng.shuffle(order)
    pos, seen = {}, [0] * len(dims)
    for p, v in enumerate(order):
        pos[v, seen[v]] = p
        seen[v] += 1
    block_loop = next((k for k in quiver.weak_positions() if quiver.arrows[k].source == 1), None)
    mats = []
    for k, arrow in enumerate(quiver.arrows):
        s, t = arrow.source - 1, arrow.target - 1
        weak = k in quiver.weak_positions()
        m = [[0] * dims[s] for _ in range(dims[t])]
        for a in range(dims[t]):
            for b in range(dims[s]):
                if kind == "random" or (kind == "loops" and weak):
                    m[a][b] = rng.choice((0, 0, -2, -1, 1, 2))
                elif weak and a == b:
                    m[a][b] = rng.randint(-2, 2)
                elif (pos[t, a] <= pos[s, b]) if weak else (pos[t, a] < pos[s, b]):
                    m[a][b] = rng.choice((0, 0, -2, -1, 1, 2))
        if kind == "irrational" and k == block_loop and dims[0] >= 2:
            # the first two vertex-1 vectors of the flag order span an invariant plane with no rational eigenvector
            first, block = sorted(range(dims[0]), key=lambda a: pos[0, a])[:2], _irrational_block(rng)
            for x, a in enumerate(first):
                for y, b in enumerate(first):
                    m[a][b] = block[x][y]
        mats.append(m)
    bases = [_unimodular(rng, d) if d > 1 else (_scalar(1, d),) * 2 for d in dims]
    conj = [bases[a.target - 1][0] @ RatMat.from_rows(m, nrows=dims[a.target - 1], ncols=dims[a.source - 1])
            @ bases[a.source - 1][1] for a, m in zip(quiver.arrows, mats)]
    return QuiverRep(quiver, tuple(dims), tuple(conj))


def test_witnesses_match_the_recursive_reference():
    rng = random.Random(20240611)
    kinds = ("flag", "flag", "loops", "irrational", "random")
    found = none = 0
    for k in range(320):
        rep = _scrambled_rep(rng, sorted(_SHAPES)[k % len(_SHAPES)], kinds[(k // len(_SHAPES)) % len(kinds)])
        witness, ref = flag_exists(rep), _reference_steps(rep)
        assert (witness is None) == (ref is None), (k, rep)
        if witness is None:
            none += 1
            continue
        found += 1
        assert len(witness.steps) == len(ref)
        for (v, vec), (ref_v, ref_vec) in zip(witness.steps, ref):
            assert v == ref_v
            assert all(type(x) is Q for x in vec)
            assert vec == ref_vec, (k, rep)
    assert found >= 150 and none >= 50


def _pq_basis(rng: random.Random, rep: QuiverRep) -> QuiverRep:
    """The same representation in a basis rescaled by p/q factors: B_h becomes S_t B_h S_s^-1, S diagonal."""
    scales = [[Q(rng.randint(1, 10**9), rng.randint(1, 10**9)) for _ in range(d)] for d in rep.dims]
    mats = tuple(RatMat.from_rows([[x * scales[a.target - 1][r] / scales[a.source - 1][c] for c, x in enumerate(row)]
                                   for r, row in enumerate(m.entries)], nrows=m.nrows, ncols=m.ncols)
                 for a, m in zip(rep.quiver.arrows, rep.mats))
    return QuiverRep(rep.quiver, rep.dims, mats)


def test_flag_search_clears_each_witness_vector_once(monkeypatch):
    # The search runs on int vectors; the one clearing left is verify_flag's,
    # once per witness step.  The reps have flags, weak loops and p/q entries,
    # and their strict arrows leave a nonempty layer below the weak loops, so
    # the search writes induced operators on quotients.
    rng = random.Random(20261022)
    clears, lowers = [], []
    real_clear, real_induced_ops = geometry._clear, geometry._induced_ops
    monkeypatch.setattr(geometry, "_clear", lambda v: clears.append(v) or real_clear(v))
    monkeypatch.setattr(geometry, "_induced_ops",
                        lambda ops, comp, lower, width: lowers.append(len(lower)) or real_induced_ops(ops, comp, lower, width))
    pq = 0
    for k in range(40):
        rep = _pq_basis(rng, _scrambled_rep(rng, sorted(_SHAPES)[k % len(_SHAPES)], "flag"))
        pq += any(x.denominator > 1 for m in rep.mats for row in m.entries for x in row)
        clears.clear()
        witness = flag_exists(rep)
        assert witness is not None
        assert len(clears) == len(witness.steps) == rep.total_dim(), (k, rep)
    assert pq >= 30 and sum(n > 0 for n in lowers) >= 20, (pq, lowers)


# -- the flag check against the every-piece reference -------------------------
#
# `_verify_flag_every_piece` is the check `verify_flag` replaced: at every step
# it copies the pieces, rebuilds the grown one and pushes every row of every
# piece through every arrow.  `verify_flag` checks the new vector alone and
# must return the same findings, in the same order, on valid and broken
# witnesses alike.


def _verify_flag_every_piece(rep: QuiverRep, witness: FlagWitness) -> list[str]:
    """Reference: the flag check that re-verifies every piece against every arrow at every step."""
    findings: list[str] = []
    nv = rep.quiver.vertex_count
    weak = set(rep.quiver.weak_positions())
    acc = [_FracSpan(d) for d in rep.dims]
    if len(witness.steps) != rep.total_dim():
        findings.append(f"{len(witness.steps)} steps for total dimension {rep.total_dim()}")
    for idx, (vertex, vec) in enumerate(witness.steps):
        if not 1 <= vertex <= nv or len(vec) != rep.dims[vertex - 1]:
            findings.append(f"step {idx}: bad vertex or vector length")
            return findings
        prev = list(acc)  # the flag before this step; the grown piece gets a new basis
        acc[vertex - 1] = _FracSpan(rep.dims[vertex - 1], prev[vertex - 1].rows)
        if not acc[vertex - 1].add(vec):
            findings.append(f"step {idx}: vector does not increase the flag")
            return findings
        for k, arrow in enumerate(rep.quiver.arrows):
            src, tgt = arrow.source - 1, arrow.target - 1
            img = [_ref_apply(rep.mats[k], v) for v in acc[src].rows]
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


_FINDING_KINDS = {
    "step count": r"\d+ steps for total dimension \d+",
    "bad step": r"step \d+: bad vertex or vector length",
    "no increase": r"step \d+: vector does not increase the flag",
    "strict": r"step \d+: strict arrow h\d+ leaves the required piece",
    "weak": r"step \d+: weak arrow h\d+ leaves the required piece",
    "exhaust": r"flag does not exhaust vertex \d+",
}


def _random_step(rng: random.Random, rep: QuiverRep) -> tuple[int, tuple[Q, ...]]:
    v = rng.randint(1, rep.quiver.vertex_count)
    return v, tuple(Q(rng.randint(-2, 2)) for _ in range(rep.dims[v - 1]))


def _corruptions(rng: random.Random, rep: QuiverRep, steps: tuple) -> list[tuple]:
    """Eight faults near `steps`: swap, perturb, drop, duplicate, append, malform, replace and shuffle."""
    n, out = len(steps), []
    i, j = rng.randrange(n), rng.randrange(n)
    swapped = list(steps)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    out.append(swapped)
    v, vec = steps[i]
    c = rng.randrange(len(vec))
    out.append(steps[:i] + ((v, vec[:c] + (vec[c] + rng.choice((-2, -1, 1, 2)),) + vec[c + 1:]),) + steps[i + 1:])
    out.append(steps[:i] + steps[i + 1:])
    out.append(steps[:j] + (steps[i],) + steps[j:])
    out.append(steps + (_random_step(rng, rep),))
    malformed = rng.choice(((0, vec), (rep.quiver.vertex_count + 1, vec), (v, vec + (Q(1),)), (v, vec[1:])))
    out.append(steps[:i] + (malformed,) + steps[i + 1:])
    out.append(steps[:i] + (_random_step(rng, rep),) + steps[i + 1:])
    out.append(rng.sample(steps, n))
    return [tuple(s) for s in out]


def _reoriented(rep: QuiverRep) -> QuiverRep:
    """The same representation with each non-loop Omega arrow traded for its reversal.

    Flags do not see the orientation, but the arrow order does: a weak loop
    can come before a strict arrow leaving the same vertex.
    """
    q = rep.quiver
    swap = [k if a.source == a.target else q.partner(k) for k, a in enumerate(q.arrows)]
    return QuiverRep(Quiver.from_omega_arrows(q.vertex_count, [(t, s) for s, t in q.omega]), rep.dims,
                     tuple(rep.mats[k] for k in swap))


def test_verify_flag_matches_the_every_piece_reference():
    rng = random.Random(20261020)
    kinds = ("flag", "flag", "loops", "random")
    seen, witnesses = set(), 0
    for k in range(360):
        rep = _scrambled_rep(rng, sorted(_SHAPES)[k % len(_SHAPES)], kinds[(k // len(_SHAPES)) % len(kinds)])
        rep = _reoriented(rep) if k % 2 else rep
        found = flag_exists(rep)
        if found is not None:
            base = found.steps
        else:  # shuffled random steps, as many at each vertex as its dimension
            base = [(v, tuple(Q(rng.randint(-2, 2)) for _ in range(d))) for v, d in enumerate(rep.dims, start=1)
                    for _ in range(d)]
            base = tuple(rng.sample(base, len(base)))
        for steps in [base] + _corruptions(rng, rep, base) + _corruptions(rng, rep, base):
            witness = FlagWitness(steps)
            findings = verify_flag(rep, witness)
            assert findings == _verify_flag_every_piece(rep, witness), (k, steps)
            witnesses += 1
            for f in findings:
                [kind] = [kind for kind, pattern in _FINDING_KINDS.items() if re.fullmatch(pattern, f)]
                seen.add(kind)
            if not findings:
                seen.add("valid")
    assert witnesses >= 5000
    assert seen == set(_FINDING_KINDS) | {"valid"}


def test_verify_flag_finding_texts():
    rep = pinned_rep()
    e1, e2, f1 = (1, (Q(1), Q(0))), (1, (Q(0), Q(1))), (2, (Q(1),))
    assert flag_exists(rep).steps == (e1, e2, f1)
    # h0 loop, h1 2 -> 1 and h3 1 -> 2 strict, h2 the weak loop; the flag is f1, e1, e2
    weak_first = QuiverRep(Quiver.from_omega_arrows(2, [(1, 1), (2, 1)]), (2, 1),
                           (_scalar(0, 2), _scalar(0, 2, 1), RatMat.from_rows([[1, 1], [0, 3]]),
                            RatMat.from_rows([[0, 1]])))
    cases = [
        (rep, (e1, e2, f1), []),
        (rep, (e1, e2), ["2 steps for total dimension 3", "flag does not exhaust vertex 2"]),
        (rep, (e1, (2, (Q(1), Q(0))), f1), ["step 1: bad vertex or vector length"]),
        (rep, (e1, (3, (Q(1),)), f1), ["step 1: bad vertex or vector length"]),
        (rep, (e1, e1, f1), ["step 1: vector does not increase the flag"]),
        (rep, (e1, e2, f1, f1), ["4 steps for total dimension 3", "step 3: vector does not increase the flag"]),
        (rep, (f1, e1, e2), ["step 0: strict arrow h3 leaves the required piece"]),
        (rep, (e2, e1, f1), ["step 0: weak arrow h2 leaves the required piece"]),
        (weak_first, (f1, e1, e2), []),
        # e2 leaves span(e2) under h2 and reaches V2 under h3: the first arrow in arrow order is blamed
        (weak_first, (e2, f1, e1), ["step 0: weak arrow h2 leaves the required piece"]),
        (weak_first, (e1, e2, f1), ["step 1: strict arrow h3 leaves the required piece"]),
    ]
    for r, steps, expected in cases:
        assert verify_flag(r, FlagWitness(steps)) == expected == _verify_flag_every_piece(r, FlagWitness(steps))


# -- the int kernels against the Fraction references ---------------------------
#
# eps, eps*, the moment map's zero test, flag witnesses and verify_flag's
# findings, on p/q entries over large distinct denominators, with
# zero-dimensional vertices and with a vertex that no arrow touches.

_DIFF_QUIVERS = [
    (3, [(1, 1), (1, 2)]),
    (3, [(1, 1), (1, 1), (2, 1), (2, 2)]),
    (4, [(1, 2), (2, 3), (3, 3), (3, 1)]),
]


def _pq_grid(rng: random.Random, nrows: int, ncols: int, denominators: set) -> list[list[Q]]:
    """Zero, rank one or sparse dense, each nonzero factor over a denominator not drawn before."""
    def entry() -> Q:
        q = rng.randrange(10**8, 10**12)
        while q in denominators:
            q = rng.randrange(10**8, 10**12)
        denominators.add(q)
        return Q(rng.randrange(-10**12, 10**12), q)

    kind = rng.choice(("zero", "rank one", "rank one", "dense"))
    if kind == "zero":
        return [[Q(0)] * ncols for _ in range(nrows)]
    if kind == "rank one":
        col, row = [entry() for _ in range(nrows)], [entry() for _ in range(ncols)]
        return [[a * b for b in row] for a in col]
    return [[entry() if rng.random() < 0.6 else Q(0) for _ in range(ncols)] for _ in range(nrows)]


def _pq_rep(rng: random.Random, n: int) -> QuiverRep:
    vertex_count, omega = _DIFF_QUIVERS[n % len(_DIFF_QUIVERS)]
    quiver = Quiver.from_omega_arrows(vertex_count, omega)
    dims = [0] * vertex_count
    while sum(dims) == 0 or sum(dims) > 6:
        dims = [rng.randint(0, 3) for _ in range(vertex_count)]
    denominators: set = set()
    mats = tuple(RatMat.from_rows(_pq_grid(rng, dims[a.target - 1], dims[a.source - 1], denominators),
                                  nrows=dims[a.target - 1], ncols=dims[a.source - 1]) for a in quiver.arrows)
    return QuiverRep(quiver, tuple(dims), mats)


def _differential_findings(rep: QuiverRep, rng: random.Random) -> dict:
    """Compare every pointwise invariant with its Fraction reference; return what was seen."""
    seen = {"middle eps": 0, "middle eps*": 0, "mu zero": 0, "mu nonzero": 0}
    for i in range(1, rep.quiver.vertex_count + 1):
        eps, (star, kernel) = _ref_eps_point(rep, i), _ref_eps_star_point(rep, i)
        assert star == kernel
        assert (eps_point(rep, i), eps_star_point(rep, i)) == (eps, star), (i, rep)
        zero = all(x == 0 for row in _reference_moment_map(rep, i) for x in row)
        assert moment_map(rep, i).is_zero() == zero, (i, rep)
        d = rep.dims[i - 1]
        seen["middle eps"] += 0 < eps < d
        seen["middle eps*"] += 0 < star < d
        seen["mu zero" if zero else "mu nonzero"] += d > 0
    witness, ref = flag_exists(rep), _reference_steps(rep)
    assert (None if witness is None else witness.steps) == ref, rep
    seen["flag"] = witness is not None
    if witness is not None:
        steps = witness.steps
    else:
        steps = [(v, tuple(Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d)))
                 for v, d in enumerate(rep.dims, start=1) for _ in range(d)]
        steps = tuple(rng.sample(steps, len(steps)))
    for s in [steps] + (_corruptions(rng, rep, steps) if steps else []):
        findings = verify_flag(rep, FlagWitness(s))
        assert findings == _verify_flag_every_piece(rep, FlagWitness(s)), (s, rep)
    return seen


def test_int_geometry_matches_the_fraction_references():
    rng = random.Random(20261021)
    totals = {"middle eps": 0, "middle eps*": 0, "mu zero": 0, "mu nonzero": 0, "flag": 0}
    empty = untouched = 0
    for n in range(90):
        rep = _pq_rep(rng, n)
        for key, count in _differential_findings(rep, rng).items():
            totals[key] += count
        empty += 0 in rep.dims
        touched = {v for a in rep.quiver.arrows for v in (a.source, a.target)}
        untouched += any(d and v not in touched for v, d in enumerate(rep.dims, start=1))
    assert empty >= 30 and untouched >= 30
    assert min(totals.values()) >= 10, totals


_pq_entries = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-10**12, 10**12), st.integers(10**8, 10**12)))


@st.composite
def pq_reps(draw):
    vertex_count, omega = draw(st.sampled_from(_DIFF_QUIVERS))
    quiver = Quiver.from_omega_arrows(vertex_count, omega)
    dims = draw(st.lists(st.integers(0, 3), min_size=vertex_count, max_size=vertex_count).filter(lambda d: sum(d) <= 6))
    mats = []
    for a in quiver.arrows:
        r, c = dims[a.target - 1], dims[a.source - 1]
        grid = draw(st.one_of(st.just([[Q(0)] * c for _ in range(r)]),
                              st.lists(st.lists(_pq_entries, min_size=c, max_size=c), min_size=r, max_size=r)))
        mats.append(RatMat.from_rows(grid, nrows=r, ncols=c))
    return QuiverRep(quiver, tuple(dims), tuple(mats))


@given(pq_reps(), st.randoms(use_true_random=False))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
def test_int_geometry_matches_the_fraction_references_on_drawn_reps(rep, rng):
    _differential_findings(rep, rng)
