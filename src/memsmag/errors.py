"""Exception types shared across the package."""


class MemsmagError(Exception):
    """Base class for all errors raised by this package."""


class NotFoundError(MemsmagError):
    """A named catalog entry does not exist."""


class MissingPropertyError(MemsmagError):
    """A material lacks optional properties required by an operation."""

    def __init__(self, material_name, missing):
        self.material_name = material_name
        self.missing = tuple(missing)
        super().__init__(
            f"material '{material_name}' is missing required properties: "
            + ", ".join(self.missing)
        )


class DomainError(MemsmagError):
    """A numeric argument is outside the operation's domain."""


class UnsupportedStackError(MemsmagError):
    """The layer stack does not match what the operation supports."""


class SingularSystemError(MemsmagError):
    """The finite-difference beam system is not well posed in floats: its
    squared grid step underflows to 0, or its load terms are not finite."""


class StepTooLargeError(MemsmagError):
    """Integration step too coarse for the resonator being simulated."""


class UnsettledError(MemsmagError):
    """A time series has not reached steady state."""


class NoPeakError(MemsmagError):
    """No interior resonance peak inside the searched frequency range."""


class ParseError(MemsmagError):
    """Scenario config file could not be parsed."""


class ValidationError(MemsmagError):
    """One or more scenario invariants are violated.

    `violations` lists every violated invariant, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid scenario:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


class UnknownPathError(MemsmagError):
    """A sweep/optimizer parameter path does not address a numeric field."""


class InfeasibleError(MemsmagError):
    """No evaluated design satisfied the optimization constraints."""
