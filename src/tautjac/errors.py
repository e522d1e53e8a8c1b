"""Exception types shared across the engine."""


class TautjacError(Exception):
    """Base class for all errors raised by this package."""


class WindowExceeded(TautjacError):
    """An operator was applied or compared beyond its validity window."""

    def __init__(self, needed, window):
        super().__init__(
            "operation needs window >= %s, operator is only valid up to %s"
            % (needed, window)
        )
        self.needed = needed
        self.window = window


class InvalidParameter(TautjacError, ValueError):
    """A numeric parameter outside its valid range (a usage error)."""


class InvalidGenus(InvalidParameter):
    """Genus parameter below 2."""


class VerificationFailure(TautjacError):
    """An exact identity check failed; carries the first counterexample."""

    def __init__(self, entry):
        super().__init__("identity failed: %s" % (entry,))
        self.entry = entry


def report_entry(identity, params, genus, window, status="ok", counterexample=None):
    """One verification report entry.  The key order (identity, params,
    genus, window, status[, counterexample]) is part of the output."""
    entry = {
        "identity": identity,
        "params": params,
        "genus": genus,
        "window": window,
        "status": status,
    }
    if counterexample is not None:
        entry["counterexample"] = counterexample
    return entry


class ParseError(TautjacError):
    """Syntax error in a polynomial expression, tagged with a position."""

    def __init__(self, message, position, expected=()):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position
        self.expected = tuple(expected)


class IndexZeroError(ParseError):
    """The tokens p0 / q0 are rejected: indices start at 1."""
