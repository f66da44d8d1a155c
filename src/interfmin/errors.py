"""Exception types shared by all solvers and the CLI, and how their messages
quote the input.

The CLI maps these to exit codes: InputError -> 1, CapExceededError -> 2,
InvariantError -> 3.
"""


class InputError(ValueError):
    """Malformed instance, assignment, or argument."""


class CapExceededError(RuntimeError):
    """An enumeration was refused because the instance exceeds the safety cap."""


class InvariantError(AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def echo(value) -> str:
    """repr(value) for a message; a string or an int over 40 characters is echoed by its head and its length."""
    if type(value) is int:
        text = str(value)
        return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"
    if type(value) is str and len(value) > 40:
        return f"{value[:40]!r}... ({len(value)} characters)"
    return repr(value)
