"""Exception types shared across the toolkit."""


class HopCompressError(Exception):
    """Base class for the toolkit's errors about what it is given."""


class EdgeListFormatError(HopCompressError, ValueError):
    """Malformed edge-list input (bad tokens, self-loops)."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class InvalidOrderingError(HopCompressError, ValueError):
    """An edge ordering is not a permutation of the graph's edge set."""


class NotASubgraphError(HopCompressError, ValueError):
    """A supposed compressed graph contains an edge absent from the original."""

    def __init__(self, edge):
        super().__init__(f"edge {edge} is not present in the original graph")
        self.edge = edge


class SizeLimitError(HopCompressError, ValueError):
    """An instance exceeds a documented size guard for an expensive routine."""


class UnsoundOutputError(RuntimeError):
    """The toolkit's own output fails ``verify``: a bug, not bad input, so
    not a :class:`HopCompressError`."""
