"""Seeded inputs for the four benchmark workloads.

Every workload is a list of `gkm-crystals` command lines whose input files
are written here, into a scratch directory; the command line tool sees
only those files.  The seed picks the `verify` iota period and draws the
`geom` representations.  `small=True` gives the reduced inputs the
harness self-check uses.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from pathlib import Path

DEFAULT_SEED = 0

M3 = [[2, -1, 0], [-1, 0, -1], [0, -1, 2]]
# Elements of B(inf) for M3 up to each `verify-m3` depth; the same for every iota.
M3_ELEMENTS = {3: 31, 5: 169}
# The cross-check data of the acceptance gate (tests/test_acceptance.py).
CROSS_CHECK_MATRICES = [
    [[2]],
    [[0]],
    [[-2]],
    [[2, -1], [-1, 2]],
    [[0, -1], [-1, 2]],
    [[0, -1], [-1, 0]],
]
GAP_MATRIX = [[-2, -1], [-1, 2]]

# The representation of the README example.
README_REP = {
    "quiver": {"vertices": 2, "omega_arrows": [[1, 1], [1, 2]]},
    "dims": [2, 1],
    "mats": {"h0": [[0, 0], [0, 0]], "h1": [[0, 0]], "h2": [[1, 1], [0, 3]], "h3": [[1], [1]]},
}

# Quivers with loops for `geom-batch`, each with the dimension vectors it
# is drawn on (total dimension at most 6, the default flag bound).
QUIVERS = {
    "readme": ({"vertices": 2, "omega_arrows": [[1, 1], [1, 2]]},
               [[1, 1], [2, 1], [1, 2], [2, 2], [3, 1], [3, 2]]),
    "jordan": ({"vertices": 1, "omega_arrows": [[1, 1]]},
               [[1], [2], [3]]),
    "chain": ({"vertices": 3, "omega_arrows": [[1, 1], [1, 2], [2, 3], [3, 3]]},
              [[1, 1, 1], [2, 1, 1], [1, 1, 2], [2, 1, 2]]),
}

# geom-batch tiers: representations built to admit a flag, random small
# entries, and large loop entries.  The large tier makes the divisor
# search of `rational_roots` (trial division up to sqrt|c| for the
# constant term c of a characteristic polynomial) part of the batch: its
# constants climb a fixed log-spaced ladder from 1e10 to 1e12, so every
# seed costs about the same.  The tier is a fifth of the batch, so the
# batch's p90 latency falls inside it.
FLAG_REPS, RANDOM_REPS, LARGE_REPS = 120, 119, 60
LARGE_LOG10 = (10.0, 12.0)


@dataclass
class Call:
    """One command line, with what its output must satisfy."""

    label: str
    argv: list[str]
    expect_flag: bool = False  # geom: the representation was built to admit a flag


@dataclass
class Workload:
    name: str
    kind: str  # the subcommand every call runs
    units: int  # elements verified, weights decided or reps evaluated per pass; 0 for graph
    calls: list[Call]
    # What set-up builds before the first call: ("cartan", path, iota spec) or ("rep", path).
    setup: list[tuple]


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


def verify_iota(seed: int) -> str:
    """The iota period of `verify-m3`: one of the six orders of (1, 2, 3)."""
    perms = list(itertools.permutations((1, 2, 3)))
    return ",".join(map(str, perms[random.Random(seed).randrange(len(perms))]))


def verify_m3(seed: int, workdir: Path, small: bool) -> Workload:
    depth = 3 if small else 5
    iota = verify_iota(seed)
    path = _write(workdir / "m3.json", {"matrix": M3})
    argv = ["verify", "--cartan", path, "--depth", str(depth), "--iota", iota]
    return Workload("verify-m3", "verify", M3_ELEMENTS[depth], [Call(f"verify m3 depth {depth}", argv)],
                    [("cartan", path, [int(i) for i in iota.split(",")])])


def graph_m3(seed: int, workdir: Path, small: bool) -> Workload:
    depth = 5 if small else 10
    path = _write(workdir / "m3.json", {"matrix": M3})
    argv = ["graph", "--cartan", path, "--depth", str(depth), "--format", "json"]
    return Workload("graph-m3", "graph", 0, [Call(f"graph m3 depth {depth}", argv)],
                    [("cartan", path, "cyclic")])


def dims_m3(seed: int, workdir: Path, small: bool) -> Workload:
    height = 3 if small else 6
    named = [(f"cross{k}", m) for k, m in enumerate(CROSS_CHECK_MATRICES)]
    named += [("gap", GAP_MATRIX), ("m3", M3)]
    calls, setup, units = [], [], 0
    for name, matrix in named:
        path = _write(workdir / f"{name}.json", {"matrix": matrix})
        calls.append(Call(f"dims {name} height {height}",
                          ["dims", "--cartan", path, "--height", str(height)]))
        setup.append(("cartan", path, "cyclic"))
        units += comb(len(matrix) + height, height)  # weights of height <= `height`
    return Workload("dims-m3", "dims", units, calls, setup)


# -- geom-batch ---------------------------------------------------------------


def _arrows(quiver: dict) -> list[tuple[int, int, bool]]:
    """(source, target, weak) per arrow h0, h1, ...: Omega first, then reversals."""
    omega = [(s, t) for s, t in quiver["omega_arrows"]]
    return [(s, t, False) for s, t in omega] + [(t, s, s == t) for s, t in omega]


def _zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random integer matrix of determinant 1 (a product of shears)."""
    p = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(2 * n):
        if n < 2:
            break
        a, b = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        p[a] = [x + k * y for x, y in zip(p[a], p[b])]
    return p


def _inverse(m: list[list[int]]) -> list[list[int]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    out = [[x for x in row[n:]] for row in aug]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _conjugated(arrows, dims, mats, rng):
    """Change the basis at every vertex: B_h -> P_target B_h P_source^-1."""
    ps = [_unimodular(rng, d) for d in dims]
    pinv = [_inverse(p) if p else [] for p in ps]
    out = []
    for (s, t, _), m in zip(arrows, mats):
        if dims[s - 1] == 0 or dims[t - 1] == 0:
            out.append(m)
        else:
            out.append(_matmul(_matmul(ps[t - 1], m), pinv[s - 1]))
    return out


def _rep(quiver, dims, mats) -> dict:
    return {"quiver": quiver, "dims": dims, "mats": {f"h{k}": m for k, m in enumerate(mats)}}


def _flag_rep(rng: random.Random, quiver: dict, dims: list[int]) -> dict:
    """A representation with a graded complete flag, in a scrambled basis.

    The flag steps through the basis vectors in a random order across the
    vertices: strict arrows map each vector into the span of earlier ones
    and weak loops are upper triangular with integer eigenvalues.
    """
    arrows = _arrows(quiver)
    order = [v for v, d in enumerate(dims, start=1) for _ in range(d)]
    rng.shuffle(order)
    pos: dict[tuple[int, int], int] = {}
    seen = [0] * len(dims)
    for p, v in enumerate(order):
        pos[(v, seen[v - 1])] = p
        seen[v - 1] += 1
    mats = []
    for s, t, weak in arrows:
        m = _zeros(dims[t - 1], dims[s - 1])
        for a in range(dims[t - 1]):
            for b in range(dims[s - 1]):
                if weak and a == b:
                    m[a][b] = rng.randint(-3, 3)
                elif (pos[(t, a)] <= pos[(s, b)]) if weak else (pos[(t, a)] < pos[(s, b)]):
                    m[a][b] = rng.choice((0, 0, -2, -1, 1, 2))
        mats.append(m)
    return _rep(quiver, dims, _conjugated(arrows, dims, mats, rng))


def _random_rep(rng: random.Random, quiver: dict, dims: list[int]) -> dict:
    mats = [[[rng.choice((0, 0, 0, -2, -1, 1, 2)) for _ in range(dims[s - 1])] for _ in range(dims[t - 1])]
            for s, t, _ in _arrows(quiver)]
    return _rep(quiver, dims, mats)


def _large_rep(rng: random.Random, quiver: dict, dims: list[int], log10c: float, triangular: bool) -> dict:
    """Strict arrows zero; the weak loop at vertex 1 has a determinant of about 10**log10c.

    Triangular loops have integer eigenvalues (a flag exists); the others
    have large diagonal entries and small off-diagonal ones, so their
    eigenvalues are irrational as a rule.  Either way the flag search runs
    `rational_roots` on a constant term of about 10**log10c.
    """
    arrows = _arrows(quiver)
    d = dims[0]
    target = 10 ** (log10c * (1 + rng.uniform(-0.002, 0.002)))
    sizes = [round(target ** (1 / d) * rng.uniform(0.8, 1.25)) for _ in range(d - 1)]
    last = round(target / max(1, prod(sizes)))
    diag = [x * rng.choice((-1, 1)) for x in sizes + [last]]
    loop = _zeros(d, d)
    for a in range(d):
        loop[a][a] = diag[a]
        for b in range(a + 1, d):
            loop[a][b] = rng.randint(-3, 3)
        if not triangular:
            for b in range(a):
                loop[a][b] = rng.choice((-3, -2, -1, 1, 2, 3))
    mats = []
    for s, t, weak in arrows:
        mats.append(loop if weak and s == 1 else _zeros(dims[t - 1], dims[s - 1]))
    if triangular:
        mats = _conjugated(arrows, dims, mats, rng)
    return _rep(quiver, dims, mats)


def geom_reps(seed: int, small: bool) -> list[tuple[str, dict, bool]]:
    """(label, representation, built to admit a flag) for every geom call."""
    rng = random.Random(seed)
    scale = 10 if small else 1
    out = [("readme example", README_REP, True)]
    names = sorted(QUIVERS)
    for tier, count, make, flag in (("flag", FLAG_REPS, _flag_rep, True), ("random", RANDOM_REPS, _random_rep, False)):
        for k in range(count // scale):
            # Every quiver and dimension vector in turn, so each seed draws the same mix.
            name = names[k % len(names)]
            quiver, shapes = QUIVERS[name]
            dims = shapes[(k // len(names)) % len(shapes)]
            out.append((f"{tier} {k} {name} {dims}", make(rng, quiver, dims), flag))
    large = LARGE_REPS // scale
    lo, hi = LARGE_LOG10
    for k in range(large):
        log10c = lo + (hi - lo) * k / max(1, large - 1)
        name = ("jordan", "readme")[k % 2]
        quiver, _ = QUIVERS[name]
        dims = [1 + (k // 2) % 3] + [1] * (quiver["vertices"] - 1)
        triangular = (k // 6) % 2 == 0
        rep = _large_rep(rng, quiver, dims, log10c, triangular)
        out.append((f"large {k} {name} {dims} 1e{log10c:.2f}", rep, triangular or dims[0] == 1))
    return out


def geom_batch(seed: int, workdir: Path, small: bool) -> Workload:
    calls, setup = [], []
    for k, (label, rep, flag) in enumerate(geom_reps(seed, small)):
        path = _write(workdir / f"rep{k:03d}.json", rep)
        calls.append(Call(f"geom {label}", ["geom", "--rep", path], expect_flag=flag))
        setup.append(("rep", path))
    return Workload("geom-batch", "geom", len(calls), calls, setup)


WORKLOADS = {
    "verify-m3": verify_m3,
    "graph-m3": graph_m3,
    "dims-m3": dims_m3,
    "geom-batch": geom_batch,
}


def build(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """Write the inputs of one workload under `workdir` and describe its calls."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir, small)
