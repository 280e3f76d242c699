"""Exception types, and the integer argument check, shared across the package."""

import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(ValueError):
    """Distribution or instance data violates a structural invariant.

    Carries the full list of problems so callers can report all of them
    at once instead of failing on the first.
    """

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


class InvariantViolation(RuntimeError):
    """A provably-true inequality evaluated negative beyond tolerance.

    The bounds checked by this package hold universally, so a violation
    always signals an implementation defect, never bad input data.
    """


def _check_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``, or :class:`DomainError` if it is no integer or is below ``minimum``."""
    # int() would truncate 2.7 to 2 and coerce True to 1
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
    return value
