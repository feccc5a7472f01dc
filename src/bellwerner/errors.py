"""Exception types shared across the package."""


class CapExceeded(RuntimeError):
    """A requested computation exceeds a configured enumeration or size cap."""


class ParseError(ValueError):
    """An expression or state document is malformed."""
