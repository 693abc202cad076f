"""Exception types shared across the package."""


class StrongEdgeError(Exception):
    """Base class for all package-specific errors."""


class DuplicateEdgeError(StrongEdgeError, ValueError):
    """An edge that is already present was added again."""


class InvalidEdgeError(StrongEdgeError, ValueError):
    """An edge that is not present was removed."""


class NotRegularError(StrongEdgeError, ValueError):
    """An operation that requires a k-regular graph received something else."""


class InternalInvariantError(StrongEdgeError, RuntimeError):
    """A step that is guaranteed to succeed failed.

    Indicates a bug or a violated precondition, not a recoverable state.
    """


class ConstructionFailedError(StrongEdgeError, RuntimeError):
    """Forced generation outside the guaranteed parameter range did not finish.

    Retrying with a different seed may succeed.
    """


class DimacsParseError(StrongEdgeError, ValueError):
    """Malformed graph file."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class VerificationError(StrongEdgeError, RuntimeError):
    """An independent recomputation contradicted a claimed property.

    ``check`` names the failing check so callers can report it precisely.
    """

    def __init__(self, check: str, message: str):
        self.check = check
        super().__init__(f"{check}: {message}")
