"""Exception hierarchy shared across the package.

InputError signals malformed user input (CLI exit code 2); it is also a
ValueError, and its message names the fault.  DepthExceededError signals
an enumeration past crystal.NODE_CAP elements (CLI exit code 3).  The
remaining classes are correctness tripwires; they indicate bugs and are
never silenced by library code.  The CLI exits 4 on them, as on every
other exception a command raises.
"""

from __future__ import annotations


class GkmError(Exception):
    """Base class for all package errors."""


class InputError(GkmError, ValueError):
    """Malformed input data (matrices, quivers, files, flags)."""


class DepthExceededError(GkmError):
    """Enumeration produced more than crystal.NODE_CAP elements."""


class InternalInconsistencyError(GkmError):
    """Two routes to the same quantity disagreed. Must never fire."""


class InexactDivisionError(GkmError):
    """An exact polynomial division left a remainder. Must never fire."""
