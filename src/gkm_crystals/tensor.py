"""Tensor product of two crystals.

The statistics combine by

    wt(b (x) b')     = wt(b) + wt(b')
    eps_i(b (x) b')  = max(eps_i(b), eps_i(b') - <h_i, wt(b)>)
    phi_i(b (x) b')  = max(phi_i(b) + <h_i, wt(b')>, phi_i(b'))

and the operators route to one side by comparing phi_i of the left factor
with eps_i of the right factor.  The placement of the strict/weak
inequalities lives in `route` alone, which the coordinate-string fold of
B(inf) shares; the imaginary raising rule has an annihilation gap (result
zero) between its left and right branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import Weight, add_weights, pairing
from .crystal import Crystal
from .errors import InputError


@dataclass(frozen=True)
class TensorElement:
    """Pair of member elements; neither side is the zero element."""

    left: object
    right: object


def route(raising: bool, real: bool, aii: int, phi_left, eps_right):
    """Side a tensor operator acts on: True left, False right, None the gap.

    Lowering goes left when phi(left) > eps(right).  Real raising goes left
    when phi >= eps.  Imaginary raising goes left when phi > eps - a_ii,
    annihilates when eps < phi <= eps - a_ii, and otherwise goes right.
    """
    if not raising:
        return phi_left > eps_right
    if real:
        return phi_left >= eps_right
    if phi_left > eps_right - aii:
        return True
    return None if eps_right < phi_left else False


class TensorCrystal(Crystal):
    """Binary tensor product.  `gap_events` is a dict used as an ordered set
    of the distinct (element key, index) pairs at which the imaginary
    annihilation gap fired, in first-firing order (shared by `psi_morphism`)."""

    def __init__(self, left: Crystal, right: Crystal):
        if left.datum != right.datum:
            raise InputError("tensor factors live over different data")
        self.datum = left.datum
        self.left = left
        self.right = right
        self.gap_events: dict[tuple[str, int], None] = {}

    def wt(self, b: TensorElement) -> Weight:
        return add_weights(self.left.wt(b.left), self.right.wt(b.right))

    def eps(self, i: int, b: TensorElement):
        return max(self.left.eps(i, b.left), self.right.eps(i, b.right) - pairing(self.datum, i, self.left.wt(b.left)))

    def phi(self, i: int, b: TensorElement):
        return max(self.left.phi(i, b.left) + pairing(self.datum, i, self.right.wt(b.right)), self.right.phi(i, b.right))

    def _act(self, raising: bool, i: int, b: TensorElement):
        side = route(raising, self.datum.is_real(i), self.datum.a(i, i),
                     self.left.phi(i, b.left), self.right.eps(i, b.right))
        if side is None:
            self.gap_events[self.key(b), i] = None
            return None
        op = "e" if raising else "f"
        if side:
            nl = getattr(self.left, op)(i, b.left)
            return None if nl is None else TensorElement(nl, b.right)
        nr = getattr(self.right, op)(i, b.right)
        return None if nr is None else TensorElement(b.left, nr)

    def f(self, i: int, b: TensorElement):
        return self._act(False, i, b)

    def e(self, i: int, b: TensorElement):
        return self._act(True, i, b)

    def key(self, b: TensorElement) -> str:
        return f"[{self.left.key(b.left)}]x[{self.right.key(b.right)}]"
