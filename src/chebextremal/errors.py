"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class InsufficientDataError(InvalidInputError):
    """Raised when a canonical moment sequence is too short for the request."""
