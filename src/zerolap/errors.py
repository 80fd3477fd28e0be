"""Shared exception types."""


class HypergraphFormatError(ValueError):
    """Raised when a hypergraph file or constructor input is malformed."""


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration, search or iteration would exceed its
    budget."""


class VerificationError(RuntimeError):
    """Raised when an internal exactness or residual check fails.

    This always indicates a bug in the library, never bad user input.
    """
