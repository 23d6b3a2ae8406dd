"""Shared exception types.  Exit codes follow the CLI contract:
1 domain error, 2 usage error, 3 resource bound.  The CLI prints an
error on stderr as `<label>: <message>`."""


class WorkbenchError(Exception):
    exit_code = 1
    label = "error"


class ParseError(WorkbenchError):
    label = "parse error"

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)


class NotWellFormed(WorkbenchError):
    """A Goedel number whose decoding is not exactly one formula."""

    label = "not-well-formed"


class NotUnary(WorkbenchError):
    """Formula whose free variable set is not exactly {x0}."""


class NotClosed(WorkbenchError):
    """Open term where a closed one is required."""


class ResourceBound(WorkbenchError):
    """A requested computation exceeds its configured bound; never a wrong answer."""

    exit_code = 3
    label = "resource bound"
