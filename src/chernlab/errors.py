"""Exception hierarchy shared across the package.

Every failure mode has its own class here, so callers can catch by meaning
instead of parsing messages.  Each class carries the exit code the CLI
returns for it, so this module is the one place a failure gets its code.
Exit 0 (success) and exit 4 (a failed verification check) belong to no
error class.
"""


class ChernLabError(Exception):
    """Base class for all package errors.  A bare ChernLabError means no
    subclass classified the failure, which is a bug."""
    exit_code = 7


class DomainError(ChernLabError):
    """Input is outside the mathematical domain of an operation."""
    exit_code = 2


class ParseError(DomainError):
    """Grammar violation in a space expression; carries the offending
    position."""
    exit_code = 2

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PreconditionError(ChernLabError):
    """A declared structural precondition fails (relation, d^2 = 0, ...)."""
    exit_code = 3


class AdmissibilityError(DomainError):
    """Requested (genus, degree) violates |d| < g."""
    exit_code = 5


class InstabilityError(ChernLabError):
    """A numerical guard tripped (rounding residue, lift defect, ...)."""
    exit_code = 3


class SubdivisionError(InstabilityError):
    """Loop sampling could not be refined enough for a reliable winding."""
    exit_code = 3


class ConventionError(DomainError):
    """Double-complex data fits neither the commuting nor the
    anticommuting sign convention."""
    exit_code = 3


class InternalConsistencyError(ChernLabError):
    """An invariant the code itself must maintain was violated; a bug."""
    exit_code = 7

    def __str__(self) -> str:
        return f"internal invariant violated (a bug): {super().__str__()}"


class EscapeError(ChernLabError):
    """A geodesic left its chart before the requested time."""
    exit_code = 6


class QuadratureError(ChernLabError):
    """Too many quadrature nodes had to be skipped."""
    exit_code = 3
