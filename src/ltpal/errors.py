"""Exception types shared across the package."""


class LtpalError(Exception):
    """Base class for every error this package raises on purpose."""


class IngestionError(LtpalError):
    """Malformed or inconsistent input data: files, relations, rosters."""


class EvaluationError(LtpalError):
    """A formula mentions agents or worlds the model does not know."""


class ConfigurationError(LtpalError, ValueError):
    """A setting is invalid, or a pluggable component (such as an edge scorer) misbehaved."""


class ArityError(LtpalError, ValueError):
    """A template was given a different number of arguments than it has slots."""


class ParseError(LtpalError):
    """Formula text could not be parsed.

    Carries the 1-based position of the offending token and, when known,
    the set of token kinds that would have been accepted there.
    """

    def __init__(self, message, line=None, column=None, expected=None):
        self.message = message
        self.line = line
        self.column = column
        self.expected = frozenset(expected) if expected else frozenset()
        super().__init__(str(self))

    def __str__(self):
        text = self.message
        if self.line is not None:
            text = f"{self.line}:{self.column}: {text}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        return text


class EpistemicScopeError(ParseError):
    """A temporal operator appeared inside K{...}, D{...} or an announcement."""
