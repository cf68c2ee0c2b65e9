"""Coordinate-string realization of the highest-weight crystal B(inf).

An element is a finite string of nonnegative coordinates (a_1, ..., a_L)
read along a fixed recurring index sequence iota = (i_1, i_2, ...); it
stands for the product

    head (x) b_{i_L}(-a_L) (x) ... (x) b_{i_2}(-a_2) (x) b_{i_1}(-a_1)

where the head is a formal highest-weight element with weight zero and
eps_i = phi_i = 0 for every index.  Strings are canonical: the last
coordinate is nonzero (the empty string is the highest-weight element).

Operators fold the binary tensor routing rule (`tensor.route`) across the
product from the outermost factor inward, reading tables of the matrix
rows and the iota period built once per realization.  Before operating at
index i the string is extended by zero coordinates up to the first i-slot
lying head-side of every stored coordinate; with that extension the
lowering operator always lands on a factor, never on the head, so f_i is
total and the realization is closed under it.

Transport between realizations strips an element to the head and replays
the raising word as lowerings in the target.  Each realization memoizes
the raising step at every element it strips and every image it replays,
so shared word suffixes are computed once and the result is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import BorcherdsCartanDatum, Weight, pairing
from .crystal import NEG_INF, Crystal, reachable
from .elementary import ElementaryCrystal, ElementaryElement
from .errors import InternalInconsistencyError, StrippingStuckError
from .tensor import TensorCrystal, TensorElement, route


@dataclass(frozen=True)
class IotaSequence:
    """Infinite index sequence realized by repeating a finite period.

    Every index of the datum must occur in the period; any window of
    `len(period)` consecutive positions then contains every index, so the
    period length doubles as the recurrence bound.
    """

    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("empty iota period")
        if any((not isinstance(i, int)) or i < 1 for i in self.period):
            raise ValueError(f"bad iota period {self.period}")

    @classmethod
    def cyclic(cls, n: int) -> "IotaSequence":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_spec(cls, spec, n: int) -> "IotaSequence":
        """Accept "cyclic" or an explicit period list and validate coverage."""
        if spec == "cyclic" or spec is None:
            seq = cls.cyclic(n)
        elif isinstance(spec, (list, tuple)):
            seq = cls(tuple(int(v) for v in spec))
        else:
            raise ValueError(f"bad iota spec {spec!r}")
        seq.validate_for(n)
        return seq

    def validate_for(self, n: int) -> None:
        if set(self.period) != set(range(1, n + 1)):
            raise ValueError(f"iota period {self.period} does not cover indices 1..{n} exactly")

    def index_at(self, position: int) -> int:
        """Index at 1-based position."""
        return self.period[(position - 1) % len(self.period)]

    def first_slot(self, index: int, after: int) -> int:
        """Smallest position > after carrying `index`."""
        for m in range(after + 1, after + len(self.period) + 1):
            if self.index_at(m) == index:
                return m
        raise ValueError(f"index {index} does not occur in iota period {self.period}")

    def i_first(self, index: int) -> "IotaSequence":
        """A sequence starting with `index` (used to read off starred statistics)."""
        return IotaSequence((index,) + self.period)

    def shifted(self) -> "IotaSequence":
        """The sequence with its first position dropped (period rotated left)."""
        return IotaSequence(self.period[1:] + self.period[:1])


@dataclass(frozen=True)
class BInfElement:
    """Canonical coordinate string over a fixed iota sequence."""

    iota: IotaSequence
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a < 0 for a in self.entries):
            raise ValueError(f"negative coordinate in {self.entries}")
        if self.entries and self.entries[-1] == 0:
            raise ValueError(f"trailing zero coordinate in {self.entries}; string is not canonical")


class BInfinityCrystal(Crystal):
    """B(inf) realized on coordinate strings along a fixed iota sequence.

    Realizations over one datum form a family: `realization_with` returns
    one cached member per iota, and all members share one `gap_events`
    list.  With recording on, it holds each distinct (element key, index)
    pair at which the imaginary annihilation gap fired, once, in
    first-firing order, so the transport memos cannot change it.
    """

    def __init__(self, datum: BorcherdsCartanDatum, iota: IotaSequence | None = None,
                 record_gap_events: bool = False):
        self.datum = datum
        self.iota = iota if iota is not None else IotaSequence.cyclic(datum.index_count)
        self.iota.validate_for(datum.index_count)
        self.record_gap_events = record_gap_events
        self.gap_events: list[tuple[str, int]] = []
        self._family: dict[IotaSequence, BInfinityCrystal] = {self.iota: self}
        self._steps: dict[tuple[int, ...], tuple[int, BInfElement]] = {}  # next raising step
        self._images: dict[tuple[IotaSequence, tuple[int, ...]], BInfElement] = {}
        # Per index i: real flag, a_ii, then a(i, iota_p) and [iota_p == i] per period slot p.
        rows, period = datum.matrix, self.iota.period
        self._tables = [None] + [
            (datum.is_real(i), rows[i - 1][i - 1], tuple(rows[i - 1][j - 1] for j in period),
             tuple(j == i for j in period))
            for i in range(1, datum.index_count + 1)]

    # -- elements ---------------------------------------------------------

    def highest_weight(self) -> BInfElement:
        return BInfElement(self.iota, ())

    def _own(self, b: BInfElement) -> None:
        if b.iota is not self.iota and b.iota != self.iota:
            raise ValueError("element belongs to a realization with a different iota sequence")

    def key(self, b: BInfElement) -> str:
        return "-".join(map(str, b.entries)) if b.entries else "hw"

    # -- statistics -------------------------------------------------------

    def wt(self, b: BInfElement) -> Weight:
        self._own(b)
        period, coords = self.iota.period, [0] * self.datum.index_count
        for pos, a in enumerate(b.entries):
            coords[period[pos % len(period)] - 1] -= a
        return tuple(coords)

    def _prefix_arrays(self, i: int, entries: list[int]):
        """(eps_i, <h_i, wt>, phi_pre, ef) of the string, in one pass from the head.

        phi_pre[k] is phi_i of the head with the factors at 0-based positions
        k, ..., L-1 (slot L is the bare head); ef[k] is eps_i of factor k.
        """
        real, _, cols, slots = self._tables[i]
        plen = len(slots)
        eps = wti = 0
        phi_pre = [0] * (len(entries) + 1)
        ef = [NEG_INF] * len(entries)
        for k in range(len(entries) - 1, -1, -1):
            wf = -entries[k] * cols[k % plen]
            phi_pre[k] = phi_pre[k + 1] + wf
            if slots[k % plen]:
                e = ef[k] = entries[k] if real else 0
                eps = max(eps, e - wti)
                phi_pre[k] = max(phi_pre[k], e + wf)
            wti += wf
        return eps, wti, phi_pre, ef

    def eps(self, i: int, b: BInfElement):
        self._own(b)
        self.datum.check_index(i)
        val, wti, phi_pre, _ = self._prefix_arrays(i, b.entries)
        if phi_pre[0] != val + wti:
            raise InternalInconsistencyError(
                f"tensor statistics break phi = eps + <h_i,wt> at {self.key(b)}, index {i}"
            )
        if not self.datum.is_real(i):
            if val != 0:
                raise InternalInconsistencyError(f"imaginary eps_{i} = {val} != 0 at {self.key(b)}")
            return 0
        # Real index: the tensor value must equal the raising string length.
        steps, x = 0, b
        while steps <= val:
            y = self.e(i, x)
            if y is None:
                break
            x = y
            steps += 1
        if steps != val:
            raise InternalInconsistencyError(
                f"real eps_{i} = {val} but the raising string at {self.key(b)} has length {steps}"
            )
        return val

    def phi(self, i: int, b: BInfElement):
        return self.eps(i, b) + pairing(self.datum, i, self.wt(b))

    # -- operators --------------------------------------------------------

    def _act(self, raising: bool, i: int, b: BInfElement):
        """Fold `route` across the product from the outermost factor inward.

        Off the i-slots eps_i is -inf, so the action routes head-side there.
        """
        self._own(b)
        self.datum.check_index(i)
        real, aii, _, slots = self._tables[i]
        entries = list(b.entries) + [0]  # pad up to the first i-slot beyond the string
        while not slots[(len(entries) - 1) % len(slots)]:
            entries.append(0)
        _, _, phi_pre, ef = self._prefix_arrays(i, entries)
        for m, e in enumerate(ef):
            side = e is NEG_INF or route(raising, real, aii, phi_pre[m + 1], e)
            if side:
                continue
            if side is None:  # eps < phi <= eps - a_ii: annihilation gap
                if self.record_gap_events and (self.key(b), i) not in self.gap_events:
                    self.gap_events.append((self.key(b), i))
                return None
            if raising and entries[m] == 0:
                return None  # raising a level-0 factor vanishes
            entries[m] += -1 if raising else 1
            while entries and entries[-1] == 0:
                entries.pop()
            return BInfElement(self.iota, tuple(entries))
        if raising:
            return None  # descent reached the head; raising the head vanishes
        raise InternalInconsistencyError("lowering descent reached the head despite slot extension")

    def f(self, i: int, b: BInfElement) -> BInfElement:
        """Lowering operator; total on this realization (never zero)."""
        return self._act(False, i, b)

    def e(self, i: int, b: BInfElement):
        """Raising operator; None when it annihilates."""
        return self._act(True, i, b)

    # -- transport between realizations ------------------------------------

    def realization_with(self, iota: IotaSequence) -> "BInfinityCrystal":
        """The family's realization over `iota`, built on first request."""
        other = self._family.get(iota)
        if other is None:
            other = BInfinityCrystal(self.datum, iota, record_gap_events=self.record_gap_events)
            other.gap_events, other._family = self.gap_events, self._family
            self._family[iota] = other
        return other

    def strip_to_head(self, b: BInfElement) -> list[int]:
        """Raising word (first applied index first) taking b to the head."""
        self._own(b)
        word, x = [], b
        bound = -sum(self.wt(b)) + 1
        while x.entries:
            if len(word) > bound:
                raise InternalInconsistencyError("raising word exceeds the weight height")
            step = self._steps.get(x.entries)
            if step is None:
                for j in range(1, self.datum.index_count + 1):
                    y = self.e(j, x)
                    if y is not None:
                        step = self._steps[x.entries] = (j, y)
                        break
                else:
                    raise StrippingStuckError(f"every raising operator vanishes at {self.key(x)}")
            word.append(step[0])
            x = step[1]
        return word

    def transport(self, b: BInfElement, target: "BInfinityCrystal") -> BInfElement:
        """Image of b under the canonical isomorphism onto another realization.

        Strips b to the head, then replays the recorded lowering word in
        the target realization (in reverse application order).  The image
        of every element along the strip is memoized per target iota, so a
        word suffix shared with an earlier transport is replayed once.
        """
        self._own(b)
        if target.datum != self.datum:
            raise ValueError("target realization lives over a different datum")
        self.strip_to_head(b)
        images, chain, x = self._images, [], b
        while x.entries and (target.iota, x.entries) not in images:
            chain.append(x)
            x = self._steps[x.entries][1]
        z = images[(target.iota, x.entries)] if x.entries else target.highest_weight()
        for x in reversed(chain):
            z = images[(target.iota, x.entries)] = target.f(self._steps[x.entries][0], z)
        return z

    def eps_star(self, b: BInfElement, i: int) -> int:
        """Starred statistic: the outermost coordinate after moving to an i-first iota."""
        self.datum.check_index(i)
        t = self.transport(b, self.realization_with(self.iota.i_first(i)))
        return t.entries[0] if t.entries else 0

    def psi_embed(self, b: BInfElement, i: int) -> tuple[BInfElement, ElementaryElement]:
        """Strict embedding into (this realization) (x) (elementary crystal at i).

        Returns (residual, b_i(-c)) with c = eps_star(b, i); the residual is
        b with c outermost i-lowerings unwound, expressed back over this
        realization's iota.
        """
        self.datum.check_index(i)
        first = self.realization_with(self.iota.i_first(i))
        t = self.transport(b, first)
        c = t.entries[0] if t.entries else 0
        shifted = first.realization_with(first.iota.shifted())
        back = shifted.transport(BInfElement(shifted.iota, t.entries[1:]), self)
        return back, ElementaryElement(i, c)

    def psi_morphism(self, i: int):
        """(psi, target) pair for strict-morphism checking of psi_embed at index i."""
        target = TensorCrystal(self, ElementaryCrystal(self.datum, i),
                               record_gap_events=self.record_gap_events)
        target.gap_events = self.gap_events

        def psi(b: BInfElement) -> TensorElement:
            left, right = self.psi_embed(b, i)
            return TensorElement(left, right)

        return psi, target

    def enumerate_to_depth(self, depth: int, cap: int = 10000):
        """Reachable elements, edges and layer sizes below the highest weight."""
        return reachable(self, self.highest_weight(), depth, cap)


def graded_counts(crystal: BInfinityCrystal, depth: int, cap: int = 10000) -> dict[Weight, int]:
    """Number of crystal elements at each weight -alpha, keyed by alpha, ht(alpha) <= depth."""
    elements, _, _ = crystal.enumerate_to_depth(depth, cap)
    counts: dict[Weight, int] = {}
    for b in elements:
        alpha = tuple(-c for c in crystal.wt(b))
        counts[alpha] = counts.get(alpha, 0) + 1
    return counts


def transport_isomorphism_findings(src: BInfinityCrystal, dst: BInfinityCrystal,
                                   depth: int, cap: int = 10000) -> list[str]:
    """Check that transport is an isomorphism of labeled graphs up to `depth`.

    Returns human-readable findings; empty means the depth-truncated graphs
    match node for node (with statistics) and edge for edge.
    """
    findings: list[str] = []
    src_elems, src_edges, _ = src.enumerate_to_depth(depth, cap)
    dst_elems, dst_edges, _ = dst.enumerate_to_depth(depth, cap)
    images = {b: src.transport(b, dst) for b in src_elems}
    hit, dst_set = set(images.values()), set(dst_elems)
    if len(hit) != len(images):
        findings.append("transport is not injective on the enumerated nodes")
    extra = sorted(map(dst.key, hit - dst_set))
    missing = sorted(map(dst.key, dst_set - hit))
    if extra:
        findings.append(f"transport images outside the target enumeration: {extra[:3]}")
    if missing:
        findings.append(f"target nodes never hit by transport: {missing[:3]}")
    n = src.datum.index_count
    for b, t in images.items():
        if src.wt(b) != dst.wt(t):
            findings.append(f"weight changes under transport at {src.key(b)}")
        for i in range(1, n + 1):
            if src.eps(i, b) != dst.eps(i, t) or src.phi(i, b) != dst.phi(i, t):
                findings.append(f"statistics change under transport at {src.key(b)}, index {i}")
    dst_edge_set = set(dst_edges)
    for s, d, i in src_edges:
        if d not in images:
            continue  # edge leaves the depth window
        if (images[s], images[d], i) not in dst_edge_set:
            findings.append(f"edge ({src.key(s)} -{i}-> {src.key(d)}) has no transported counterpart")
    return findings
