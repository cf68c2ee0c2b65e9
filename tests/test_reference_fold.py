"""The one-pass B(inf) kernel against an independent fold of the tensor rule.

For an element b and an index i, b's string padded with zeros up to the
first i-slot beyond it is written out as a left-nested `TensorCrystal`:
a one-element head crystal, then one `ElementaryCrystal` factor per
coordinate, from the head outward.  Its eps_i, phi_i, e_i and f_i come
from the binary tensor rule alone, and its images are read back as strings
by stripping trailing zeros.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_properties import PROPERTY_SETTINGS, data_and_periods

from gkm_crystals.binfinity import BInfElement, BInfinityCrystal, IotaSequence
from gkm_crystals.cartan import validate_datum
from gkm_crystals.crystal import Crystal
from gkm_crystals.elementary import ElementaryCrystal
from gkm_crystals.tensor import TensorCrystal, TensorElement

HEAD = "head"
KINDS = ("eps", "phi", "e", "f")


class HeadCrystal(Crystal):
    """The one-element crystal {HEAD}: weight 0, eps = phi = 0 and e = f = None at every index."""

    def __init__(self, datum):
        self.datum = datum

    def wt(self, b):
        return (0,) * self.datum.index_count

    def eps(self, i, b):
        return 0

    def phi(self, i, b):
        return 0

    def e(self, i, b):
        return None

    def f(self, i, b):
        return None

    def key(self, b):
        return HEAD


def folded(crystal, b, i):
    """(tensor crystal, element) of b's string padded up to the first i-slot beyond it."""
    period = crystal.iota.period
    entries = list(b.entries)
    while True:
        entries.append(0)
        if period[(len(entries) - 1) % len(period)] == i:
            break
    t, x = HeadCrystal(crystal.datum), HEAD
    for pos in range(len(entries) - 1, -1, -1):
        factor = ElementaryCrystal(crystal.datum, period[pos % len(period)])
        t, x = TensorCrystal(t, factor), TensorElement(x, factor.element(entries[pos]))
    return t, x


def unfolded(crystal, x):
    """The element whose string is x's levels from the outermost factor in, trailing zeros stripped."""
    if x is None:
        return None
    levels = []
    while isinstance(x, TensorElement):
        levels.append(x.right.level)
        x = x.left
    while levels and levels[-1] == 0:
        levels.pop()
    return BInfElement(crystal.iota, tuple(levels))


def reference(crystal, b, i, kind):
    t, x = folded(crystal, b, i)
    value = getattr(t, kind)(i, x)
    return unfolded(crystal, value) if kind in ("e", "f") else value


def mismatches(crystal, elements, kinds=KINDS):
    """(string, index, kind, kernel value, reference value) wherever the two differ."""
    out = []
    for b in elements:
        for i in range(1, crystal.datum.index_count + 1):
            for kind in kinds:
                got, want = getattr(crystal, kind)(i, b), reference(crystal, b, i, kind)
                if got != want:
                    out.append((b.entries, i, kind, got, want))
    return out


M3 = [[2, -1, 0], [-1, 0, -1], [0, -1, 2]]
GAP = [[-2, -1], [-1, 2]]
CASES = {
    "M3-123": (M3, (1, 2, 3)), "M3-321": (M3, (3, 2, 1)), "M3-2132": (M3, (2, 1, 3, 2)), "M3-1213": (M3, (1, 2, 1, 3)),
    "gap-12": (GAP, (1, 2)), "gap-21": (GAP, (2, 1)), "gap-121": (GAP, (1, 2, 1)),
    "two-imaginary": ([[0, -1], [-1, 0]], (1, 2)), "affine-A1": ([[2, -2], [-2, 2]], (1, 2)),
    "zero": ([[0]], (1,)), "minus-two": ([[-2]], (1,)),
}


@pytest.mark.parametrize("matrix, period", CASES.values(), ids=CASES.keys())
def test_kernel_matches_the_reference_fold(matrix, period):
    crystal = BInfinityCrystal(validate_datum(matrix), IotaSequence(period))
    elements, _, _ = crystal.enumerate_to_depth(5)
    assert mismatches(crystal, elements) == []


@PROPERTY_SETTINGS
@given(data_and_periods(), st.permutations(KINDS))
def test_kernel_matches_the_reference_fold_on_random_data(example, kinds):
    datum, iota = example
    crystal = BInfinityCrystal(datum, iota)
    elements, _, _ = BInfinityCrystal(datum, iota).enumerate_to_depth(4 if datum.index_count <= 2 else 3)
    assert mismatches(crystal, elements, kinds) == []  # a fresh crystal, asked in the drawn order of kinds
