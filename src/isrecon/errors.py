"""Exception hierarchy shared by all modules.

CLI exit-code mapping: UnreachableError -> 1, InputError -> 2,
UnsupportedGraphClassError -> 3, InternalError -> 4.
"""


class ReconError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ReconError):
    """Invalid user-supplied data (bad vertex ids, non-independent sets, ...)."""


class UnreachableError(InputError):
    """A witness was asked for, but the target set is not reachable."""


class UnsupportedGraphClassError(ReconError):
    """The instance falls outside the supported graph classes."""


class InternalError(ReconError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class OracleCapacityError(InputError):
    """The instance is too large for exhaustive brute-force verification."""
