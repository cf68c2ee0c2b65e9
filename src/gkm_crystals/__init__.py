"""Crystal bases of quantum generalized Kac-Moody algebras.

The package root exports the library entry points the README shows: a
validated Borcherds-Cartan datum, the coordinate-string realization of
B(inf) over an index sequence, its graded counts, the independent
graded-dimension oracle, and the axiom and strict-morphism checks.
Everything else is imported from its module: `cartan` (data and
quivers), `crystal` (the abstract toolkit, enumeration and export),
`elementary` and `tensor` (the building-block crystals), `binfinity`,
`oracle`, `geometry` (pointwise invariants of quiver representations),
`exactlin` and `errors`.
"""

from .binfinity import BInfinityCrystal, IotaSequence, graded_counts
from .cartan import validate_datum
from .crystal import check_strict_morphism, verify_axioms
from .oracle import graded_dim

__all__ = [
    "BInfinityCrystal",
    "IotaSequence",
    "check_strict_morphism",
    "graded_counts",
    "graded_dim",
    "validate_datum",
    "verify_axioms",
]
