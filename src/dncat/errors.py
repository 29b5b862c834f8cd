"""Exception types shared across the package."""


class DncatError(Exception):
    """Base class for all dncat errors."""


class InvalidVertexError(DncatError, ValueError):
    """A boundary vertex label is outside 1..n."""


class InvalidEdgeError(DncatError, ValueError):
    """An edge violates the tagged-edge constraints (|delta| >= 3, tag in {+1,-1})."""


class UnsupportedSizeError(DncatError, ValueError):
    """Polygon size outside the supported range."""


class NotATriangulationError(DncatError, ValueError):
    """An edge set is not a triangulation; carries a crossing pair or a
    maximality witness in the message."""


class InvalidQuotientError(DncatError, ValueError):
    """Quotient requested at an edge that is not close to the border."""


class ModelInconsistencyError(DncatError, RuntimeError):
    """An internal invariant failed (e.g. a flip with zero or two
    replacements); signals a bug in the crossing rules, not bad input."""


class CatalogError(DncatError, ValueError):
    """A catalog on disk fails validation when read (version, checksum,
    header count, class representative, type or template payload, a count
    off its closed form, or records out of canonical order)."""
