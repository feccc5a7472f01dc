"""Exception types shared across the package, and the one size-cap check."""


class CapExceeded(RuntimeError):
    """A requested computation exceeds a configured enumeration or size cap."""


class ParseError(ValueError):
    """An expression or state document is malformed."""


def check_cap(quantity: str, requested: int, cap: int) -> None:
    """Raise CapExceeded when requested > cap; call it before allocating.

    Every cap in the package reports through here, so each message names the
    quantity, the requested size and the cap.
    """
    if requested > cap:
        raise CapExceeded(f"{quantity}: {requested} exceeds the cap of {cap}")
