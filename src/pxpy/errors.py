"""Shared exception types."""

__all__ = ["InternalInconsistencyError"]


class InternalInconsistencyError(RuntimeError):
    """A computation contradicted a fact the code is built on.

    Raised when an internal cross-check fails, e.g. a bounded search "finds"
    a solution to an equation known to have none. Always indicates an
    implementation bug, never bad user input; the CLI maps it to exit code 3.
    """
