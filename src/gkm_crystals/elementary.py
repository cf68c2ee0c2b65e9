"""Elementary one-index crystal: the chain b_i(0), b_i(-1), b_i(-2), ...

Only the operators at its own index act; every other index has both
statistics equal to -infinity and both operators zero.  The statistic
shapes differ between real and imaginary indices:

    real i:       eps_i(b_i(-n)) = n,  phi_i(b_i(-n)) = -n
    imaginary i:  eps_i(b_i(-n)) = 0,  phi_i(b_i(-n)) = -n * a_ii
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import BorcherdsCartanDatum, Weight
from .crystal import NEG_INF, Crystal
from .errors import InputError


@dataclass(frozen=True)
class ElementaryElement:
    """b_index(-level) with level >= 0."""

    index: int
    level: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise InputError(f"negative level {self.level}")


class ElementaryCrystal(Crystal):
    def __init__(self, datum: BorcherdsCartanDatum, index: int):
        self.datum = datum
        self.index = index
        self._real, self._aii = datum.is_real(index), datum.a(index, index)

    def element(self, level: int) -> ElementaryElement:
        return ElementaryElement(self.index, level)

    def _check(self, i: int, b: ElementaryElement) -> None:
        """Reject an element of another index, then an index outside the datum."""
        if b.index != self.index:
            raise InputError(f"element of index {b.index} fed to the index-{self.index} crystal")
        self.datum.check_index(i)

    def wt(self, b: ElementaryElement) -> Weight:
        self._check(self.index, b)
        return tuple(-b.level if k == self.index - 1 else 0 for k in range(self.datum.index_count))

    def eps(self, i: int, b: ElementaryElement):
        self._check(i, b)
        if i != self.index:
            return NEG_INF
        return b.level if self._real else 0

    def phi(self, i: int, b: ElementaryElement):
        self._check(i, b)
        if i != self.index:
            return NEG_INF
        return -b.level if self._real else -b.level * self._aii

    def e(self, i: int, b: ElementaryElement):
        self._check(i, b)
        if i != self.index or b.level == 0:
            return None
        return ElementaryElement(self.index, b.level - 1)

    def f(self, i: int, b: ElementaryElement):
        self._check(i, b)
        if i != self.index:
            return None
        return ElementaryElement(self.index, b.level + 1)

    def key(self, b: ElementaryElement) -> str:
        return f"b{b.index}({-b.level})"
