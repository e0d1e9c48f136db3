"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live over different fields or have incompatible shapes."""


class EnumerationTooLarge(RuntimeError):
    """An exhaustive enumeration would exceed the configured cap."""


class ZeroFormClass(ValueError):
    """The zero scalar has no square class and no Weil index."""


class ArityError(ValueError):
    """A polygon operation received fewer Lagrangians than it needs."""


class SingularGMinusOne(ValueError):
    """The requested identity only makes sense when g - 1 is invertible."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a fault in the library, never bad input."""
