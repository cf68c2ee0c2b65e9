"""Coordinate-string realization of the highest-weight crystal B(inf).

An element is a finite string of nonnegative coordinates (a_1, ..., a_L)
read along a fixed recurring index sequence iota = (i_1, i_2, ...); it
stands for the product

    head (x) b_{i_L}(-a_L) (x) ... (x) b_{i_2}(-a_2) (x) b_{i_1}(-a_1)

where the head is a formal highest-weight element with weight zero and
eps_i = phi_i = 0 for every index.  Strings are canonical: the last
coordinate is nonzero (the empty string is the highest-weight element).

The statistics and both operators at index i come from one pass over the
string from the head outward, reading tables of the matrix rows and the
iota period built once per realization.  The pass reads the string as it
is, folds the tensor statistics and asks the binary tensor routing rule
(`tensor.route`) for both directions at every factor in an i-slot; an
operator acts on the outermost factor at which the rule does not route
head-side.  Lowering starts at the first i-slot beyond the string, a zero
factor that changes no statistic, so f_i always lands on a factor, never
on the head: it is total and the realization is closed under it.

Each realization keeps one record per string it has answered for, with
four slots per index that the one pass fills together once its tripwires
have passed: eps_i (a real one marked unchecked until its raising string
has been checked), phi_i, and the landing factors of e_i and f_i, each
replaced by its image (a vanishing operator included) when the image is
first asked for.  An operator's image is stored as its own record's
element, so each element is held once.
Transport strips an element to the head and replays the raising word as
lowerings in the target, memoizing every image per target; the strip stops
early at an element with an image, which was stripped to the head before.

Starred statistics are read over the period rotated to its first i: eps*_i(b)
is b's first coordinate there, and psi_embed's residual sets it to 0 (Kashiwara,
Duke Math. J. 71, 1993; Kashiwara-Saito, Duke Math. J. 89, 1997).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cartan import BorcherdsCartanDatum, Weight
from .crystal import Crystal, Violation, check_strict_morphism, reachable
from .elementary import ElementaryCrystal, ElementaryElement
from .errors import InputError, InternalInconsistencyError
from .tensor import TensorCrystal, TensorElement, route

_GAP = object()  # an e_i slot whose action falls in the annihilation gap, not yet logged


@dataclass(frozen=True)
class IotaSequence:
    """Infinite index sequence realized by repeating a finite period.

    Every index of the datum must occur in the period; any window of
    `len(period)` consecutive positions then contains every index, so the
    period length doubles as the recurrence bound.
    """

    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.period, tuple) or not self.period:
            raise InputError(f"iota period {self.period!r} is not a nonempty tuple")
        if any(not isinstance(i, int) or isinstance(i, bool) or i < 1 for i in self.period):
            raise InputError(f"bad iota period {self.period}")

    @classmethod
    def cyclic(cls, n: int) -> "IotaSequence":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_spec(cls, spec, n: int) -> "IotaSequence":
        """Accept "cyclic" or an explicit period list and validate coverage."""
        if spec == "cyclic":
            seq = cls.cyclic(n)
        elif isinstance(spec, (list, tuple)):
            seq = cls(tuple(spec))
        else:
            raise InputError(f"bad iota spec {spec!r}")
        seq.validate_for(n)
        return seq

    def validate_for(self, n: int) -> None:
        if set(self.period) != set(range(1, n + 1)):
            raise InputError(f"iota period {self.period} does not cover indices 1..{n} exactly")

    def rotated(self, k: int) -> "IotaSequence":
        """The sequence with its first k positions dropped (period rotated left by k)."""
        return IotaSequence(self.period[k:] + self.period[:k])


@dataclass(frozen=True)
class BInfElement:
    """Canonical coordinate string over a fixed iota sequence; its hash reads the string alone."""

    iota: IotaSequence = field(hash=False)
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.entries) is not tuple or any(type(a) is not int or a < 0 for a in self.entries):
            raise InputError(f"coordinate string {self.entries!r} is not a tuple of nonnegative ints")
        if self.entries and self.entries[-1] == 0:
            raise InputError(f"trailing zero coordinate in {self.entries}; string is not canonical")


class BInfinityCrystal(Crystal):
    """B(inf) realized on coordinate strings along a fixed iota sequence.

    Realizations over one datum form a family: `realization_with` returns
    one cached member per iota, each member keeps its i-first members in
    `_firsts`, and all members share one `gap_events` log.  It is a dict
    used as an ordered set: its keys are the distinct (element key, index)
    pairs at which the imaginary annihilation gap fired, in first-firing
    order, so the memos cannot change it.

    Each realization keeps one record per coordinate string it has
    answered for: the flat list [element, eps_1, phi_1, e_1, f_1, ...,
    eps_n, phi_n, e_n, f_n], with None in the slots of an index not yet
    scanned.  `_fill` writes an index's four slots together from one
    `_scan`, after its tripwires have passed, or writes none.  A real eps
    slot holds ~eps, a negative int, until the raising-string check has
    passed and eps from then on; an imaginary one holds 0, checked by the
    scan.  An operator slot holds the landing factor, an int, until the
    image is first asked for, and from then on the image's own record
    element or None, so an element is stored once however many records
    point at it; `_GAP` marks a raising gap not yet logged.  A failed
    tripwire memoizes nothing.
    """

    def __init__(self, datum: BorcherdsCartanDatum, iota: IotaSequence | None = None):
        n = datum.index_count
        self.datum = datum
        self.iota = iota if iota is not None else IotaSequence.cyclic(n)
        self.iota.validate_for(n)
        self.gap_events: dict[tuple[str, int], None] = {}
        self._family: dict[IotaSequence, BInfinityCrystal] = {self.iota: self}
        self._firsts: dict[int, BInfinityCrystal] = {}  # the i-first family member per index i
        self._images: dict[BInfinityCrystal, dict[tuple[int, ...], BInfElement]] = {}  # per target realization
        self._records: dict[tuple[int, ...], list] = {}  # one record per string, see the class docstring
        self._blank_slots = [None] * (4 * n)
        # Per index i: real flag, a_ii, a(i, iota_p) and [iota_p == i] per period slot p, and the period
        # twice over, one tuple for every index, where `_scan` finds the first i-slot beyond a string.
        rows, period = datum.matrix, self.iota.period
        twice = period * 2
        self._tables = [None] + [
            (datum.is_real(i), rows[i - 1][i - 1], tuple(rows[i - 1][j - 1] for j in period),
             tuple(j == i for j in period), twice)
            for i in range(1, n + 1)]

    # -- elements ---------------------------------------------------------

    def highest_weight(self) -> BInfElement:
        return BInfElement(self.iota, ())

    def _own(self, b: BInfElement) -> None:
        if b.iota is not self.iota and b.iota != self.iota:
            raise InputError("element belongs to a realization with a different iota sequence")

    def key(self, b: BInfElement) -> str:
        return "-".join(map(str, b.entries)) if b.entries else "hw"

    # -- statistics -------------------------------------------------------

    def wt(self, b: BInfElement) -> Weight:
        self._own(b)
        period, coords = self.iota.period, [0] * self.datum.index_count
        for pos, a in enumerate(b.entries):
            coords[period[pos % len(period)] - 1] -= a
        return tuple(coords)

    def _scan(self, i: int, entries):
        """(eps_i, <h_i, wt>, phi_i, up, side, down) of a string, in one pass from the head.

        The pass reads the string as it is, folds the tensor statistics
        factor by factor and asks `route` for both directions at every i-slot
        (off the i-slots eps_i is -inf, so both actions route head-side there).
        up is the outermost factor at which raising does not route head-side
        and side the answer there, both None when raising routes head-side at
        every factor; down is the outermost factor at which lowering does not,
        None if there is none.  It starts at the first i-slot beyond the
        string, a zero factor read with every statistic at 0.
        """
        real, aii, cols, slots, twice = self._tables[i]
        plen, r = len(slots), len(entries) % len(slots)
        down = None if route(False, real, aii, 0, 0) else len(entries) + twice.index(i, r) - r
        eps = wti = phi = 0
        up = side = None
        for k in range(len(entries) - 1, -1, -1):
            p = k % plen
            wf = -entries[k] * cols[p]
            if slots[p]:
                e = entries[k] if real else 0
                answer = route(True, real, aii, phi, e)
                if answer is not True:
                    up, side = k, answer
                if not route(False, real, aii, phi, e):
                    down = k
                if e - wti > eps:
                    eps = e - wti
                if e > phi:
                    phi = e
            phi += wf
            wti += wf
        return eps, wti, phi, up, side, down

    def _fill(self, i: int, b: BInfElement) -> list:
        """b's record with index i filled, by one scan on first use; every statistic and operator reads it here.

        b's realization and the index are checked before any record is read.
        The scan's tripwires (phi = eps + <h_i, wt>, an imaginary eps of 0, a
        lowering that lands on a factor) run before anything is written, so a
        failed one memoizes nothing and trips again on the next request.  Then
        all four slots are written, in a new record [b, None, ...] if b has
        none: ~eps at a real index (negative until `_stats` has checked it)
        and 0 at an imaginary one, phi, the e landing (the factor e_i lowers;
        None where e_i vanishes, at the head or a level-0 factor; `_GAP` in
        the annihilation gap) and the f landing.
        """
        self._own(b)
        self.datum.check_index(i)
        k = 4 * i - 3  # the eps_i slot of a record; phi_i, e_i and f_i follow it
        entries = b.entries
        rec = self._records.get(entries)
        if rec is not None and rec[k] is not None:
            return rec
        eps, wti, phi, up, side, down = self._scan(i, entries)
        real = self._tables[i][0]
        if phi != eps + wti:
            raise InternalInconsistencyError(
                f"tensor statistics break phi = eps + <h_i,wt> at {self.key(b)}, index {i}")
        if not real and eps != 0:
            raise InternalInconsistencyError(f"imaginary eps_{i} = {eps} != 0 at {self.key(b)}")
        if down is None:
            raise InternalInconsistencyError("lowering descent reached the head despite slot extension")
        if up is not None and side is None:
            up = _GAP  # eps < phi <= eps - a_ii: annihilation gap
        elif up is None or entries[up] == 0:
            up = None  # raising the head or a level-0 factor vanishes
        if rec is None:
            rec = self._records[entries] = [b, *self._blank_slots]
        rec[k:k + 4] = ~eps if real else 0, phi, up, down
        return rec

    def _stats(self, i: int, b: BInfElement) -> tuple[int, int]:
        """(eps_i, phi_i) of b from its record (see `_fill`), a real eps checked once and then marked there.

        A real eps must be the length of the raising string, checked by
        induction on verified values: eps = 0 exactly when e_i vanishes, and
        otherwise e_i(b) has a checked eps one less.  The walk up the string
        is a loop that stops at the first checked element or at a vanishing
        e_i, and eps is marked checked only once the whole walk has passed.
        """
        rec = x = self._fill(i, b)
        k = 4 * i - 3
        chain = []  # records whose eps awaits the check
        while x[k] < 0:
            chain.append(x)
            eps, y = ~x[k], self.e(i, x[0])
            if (y is None) != (eps == 0):
                raise InternalInconsistencyError(
                    f"real eps_{i} = {eps} at {self.key(x[0])} but e_{i} {'vanishes' if y is None else 'acts'} there")
            if y is None:
                break
            below, x = x[0], self._fill(i, y)
            val = x[k] if x[k] >= 0 else ~x[k]
            if val != eps - 1:
                raise InternalInconsistencyError(
                    f"real eps_{i} = {eps} at {self.key(below)} but e_{i} of it has eps_{i} = {val}")
        for x in chain:
            x[k] = ~x[k]
        return rec[k], rec[k + 1]

    def eps(self, i: int, b: BInfElement):
        return self._stats(i, b)[0]

    def phi(self, i: int, b: BInfElement):
        return self._stats(i, b)[1]

    # -- operators --------------------------------------------------------

    def _act(self, raising: bool, i: int, b: BInfElement):
        """e_i or f_i of b from its record; the image is its own record's element.

        The slot holds the landing factor from b's scan (see `_fill`) until
        the image is first asked for, and the image from then on.
        """
        rec = self._fill(i, b)
        slot = 4 * i - 1 if raising else 4 * i
        landing = rec[slot]
        if type(landing) is int:  # build the image
            entries = [*b.entries, *[0] * (landing + 1 - len(b.entries))]  # f may land beyond the string
            entries[landing] += -1 if raising else 1
            while entries and entries[-1] == 0:
                entries.pop()
            entries = tuple(entries)
            if entries not in self._records:
                self._records[entries] = [BInfElement(self.iota, entries), *self._blank_slots]
            image = self._records[entries][0]
        elif landing is _GAP:
            self.gap_events[self.key(b), i] = None
            image = None
        else:
            return landing  # a memoized image, or None where e_i vanishes
        rec[slot] = image
        return image

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
            other = BInfinityCrystal(self.datum, iota)
            other.gap_events, other._family = self.gap_events, self._family
            self._family[iota] = other
        return other

    def _walk(self, b: BInfElement, known=()) -> tuple[list[tuple[int, BInfElement]], BInfElement]:
        """Raising steps (j, x) from b to the head or a string in `known`, and where they stop.

        Each takes the least j with e_j(x) not None; b's height, the sum of its string, bounds their number.
        """
        steps, x, bound = [], b, sum(b.entries) + 1
        while x.entries and x.entries not in known:
            if len(steps) > bound:
                raise InternalInconsistencyError("raising word exceeds the weight height")
            for j in range(1, self.datum.index_count + 1):
                y = self.e(j, x)
                if y is not None:
                    break
            else:
                raise InternalInconsistencyError(f"every raising operator vanishes at {self.key(x)}")
            steps.append((j, x))
            x = y
        return steps, x

    def strip_to_head(self, b: BInfElement) -> list[int]:
        """Raising word (first applied index first) taking b to the head."""
        self._own(b)
        return [j for j, _ in self._walk(b)[0]]

    def transport(self, b: BInfElement, target: "BInfinityCrystal") -> BInfElement:
        """Image of b under the canonical isomorphism onto another realization.

        Walks b up to the head or to the first element with a memoized image,
        then replays the word as lowerings in the target, memoizing each image.
        """
        self._own(b)
        if target.datum != self.datum:
            raise InputError("target realization lives over a different datum")
        images = self._images.setdefault(target, {})
        steps, x = self._walk(b, images)
        z = images[x.entries] if x.entries else target.highest_weight()
        for j, x in reversed(steps):
            z = images[x.entries] = target.f(j, z)
        return z

    def _i_first(self, b: BInfElement, i: int) -> tuple["BInfinityCrystal", BInfElement, int]:
        """The realization over the period rotated to its first i, b transported there, and its first coordinate."""
        self.datum.check_index(i)
        first = self._firsts.get(i)
        if first is None:
            first = self._firsts[i] = self.realization_with(self.iota.rotated(self.iota.period.index(i)))
        t = self.transport(b, first)
        return first, t, t.entries[0] if t.entries else 0

    def eps_star(self, b: BInfElement, i: int) -> int:
        """Starred statistic: the first coordinate of b's string over the i-first rotation."""
        return self._i_first(b, i)[2]

    def psi_embed(self, b: BInfElement, i: int) -> tuple[BInfElement, ElementaryElement]:
        """Strict embedding into (this realization) (x) (elementary crystal at i).

        Returns (b', b_i(-c)): c = eps_star(b, i) is the first coordinate of b's string t over the i-first
        rotation, and as Im Psi_i = {b' (x) b_i(-m) : eps*_i(b') = 0}, b' is the string t with c set to 0
        there, transported back (Kashiwara, Duke Math. J. 71, 1993; Kashiwara-Saito, Duke Math. J. 89, 1997).
        """
        first, t, c = self._i_first(b, i)
        residual = BInfElement(first.iota, (0, *t.entries[1:]) if len(t.entries) > 1 else ())
        return first.transport(residual, self), ElementaryElement(i, c)

    def psi_morphism(self, i: int):
        """(psi, target) pair for strict-morphism checking of psi_embed at index i."""
        target = TensorCrystal(self, ElementaryCrystal(self.datum, i))
        target.gap_events = self.gap_events

        def psi(b: BInfElement) -> TensorElement:
            return TensorElement(*self.psi_embed(b, i))

        return psi, target

    def enumerate_to_depth(self, depth: int):
        """Reachable elements, edges and layer sizes below the highest weight."""
        return reachable(self, self.highest_weight(), depth)


def graded_counts(crystal: BInfinityCrystal, depth: int) -> dict[Weight, int]:
    """Number of crystal elements at each weight -alpha, keyed by alpha, ht(alpha) <= depth."""
    elements, _, _ = crystal.enumerate_to_depth(depth)
    counts: dict[Weight, int] = {}
    for b in elements:
        alpha = tuple(-c for c in crystal.wt(b))
        counts[alpha] = counts.get(alpha, 0) + 1
    return counts


def transport_isomorphism_findings(src: BInfinityCrystal, dst: BInfinityCrystal, elements) -> list[Violation]:
    """`check_strict_morphism` of transport on `elements`, the window of `src` within some depth.

    `dst` is not enumerated: wt is preserved and the empty string is the
    only canonical string of weight 0, so the head goes to the head, and
    injectivity and f_i commutation then make transport a bijection onto
    the elements of `dst` within that depth, by induction on depth.  The
    check also compares e_i and the f_i that leave the window.
    """
    return check_strict_morphism(lambda b: src.transport(b, dst), elements, src, dst)
