"""Shared exception types with stable CLI exit-code semantics.

Only :class:`InputError` and ``OSError`` exit 2; any other ``ValueError``
that reaches the CLI is a defect in the program and exits 6.
"""


class InputError(ValueError):
    """Malformed or undecodable input, or an argument out of range. CLI exit code 2.

    Raised by the HGR and list readers and by every argument check that a
    command-line value reaches.  Checks that no command-line input reaches
    raise plain ``ValueError``.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GuardExceededError(RuntimeError):
    """A documented search guard was exceeded. CLI exit code 3.

    Guards are module constants; only the color universe of
    ``is_f_choosable`` can be set by callers.  Nothing is ever silently
    truncated or approximated.
    """


def check_guard(value: float, limit: int, what: str) -> None:
    """GuardExceededError "<what> exceeds the guard <limit>" if value > limit."""
    if value > limit:
        raise GuardExceededError(f"{what} exceeds the guard {limit}")


class PreconditionError(ValueError):
    """A method precondition does not hold for the given input. CLI exit code 4."""


class TheoremContradictionError(RuntimeError):
    """An outcome that established theory rules out was observed.

    Raised when a search that is guaranteed to succeed fails; it always
    indicates an implementation bug, never a property of the input.
    """
