"""Exception taxonomy shared across the package.

Every error the CLI can surface is one of these, and its class carries the
exit code the CLI returns for it (see the README's exit-code table).
"""


class RaagError(Exception):
    """Base class for all package errors."""

    exit_code = 10


class MalformedComplexError(RaagError):
    """Facet list violates the input contract (duplicates, sparse ids, bad types)."""


class NotFlagError(RaagError):
    """Operation requires a flag complex; carries a minimal non-face witness."""

    exit_code = 11

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class QuotientDegenerateError(RaagError):
    """A vertex map collapses two vertices of one simplex."""

    exit_code = 13


class FixtureError(RaagError):
    """Unknown fixture name or invalid fixture parameter."""


class CorruptComplexError(RaagError):
    """An internal consistency check failed, an engine bug: a chain complex's
    shape or boundary-squared check, or a cross-check between two routes to
    one number (universal coefficients, Euler characteristic, deck order)."""

    exit_code = 15


class CoverSpecError(RaagError):
    """Finite quotient data is inconsistent (moduli, vertices, ordering)."""

    exit_code = 14


class WitnessRejectedError(RaagError):
    """An embedding witness is structurally malformed."""

    exit_code = 12
