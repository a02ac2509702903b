"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition (sign, finiteness, range)."""


class SingularError(ArithmeticError):
    """A matrix is numerically singular: |det| below linalg2.DEFAULT_SINGULAR_EPS."""


class ParseError(ValueError):
    """Scenario config text is malformed or violates an invariant.

    Carries the offending line number (1-based) and, when known, the key name.
    """

    def __init__(self, message: str, line: int, key: str | None = None):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.key = key


class UnknownPropertyError(ValueError):
    """A property id is not in the check registry."""
