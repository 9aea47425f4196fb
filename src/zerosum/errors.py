"""Exception types shared across the package."""


class ZerosumError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ZerosumError, ValueError):
    """Malformed textual input (group, element, sequence, or ideal syntax)."""


class InvalidElementError(ZerosumError, ValueError):
    """Element does not belong to the group it was used with."""


class InvalidIdealError(ZerosumError, ValueError):
    """Ideal data does not describe a nonzero integral ideal of the order."""


class BudgetExceededError(ZerosumError, RuntimeError):
    """Requested enumeration is larger than the configured desk-scale budget."""


class StructureError(ZerosumError, ValueError):
    """Algebraic structure does not match what the operation requires."""


class ArityError(ZerosumError, ValueError):
    """Wrong number of inputs for an operation with a fixed arity."""


class DomainError(ZerosumError, ValueError):
    """Value outside the mathematical domain of the operation (zero, unit, ...)."""
