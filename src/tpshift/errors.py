"""Exception taxonomy shared across the package.

Two families matter for scripting: numerical give-ups (a procedure ran out
of budget or tolerance) and verification failures (a relation that should
hold was violated beyond its slack).  Input and precondition problems use
plain ValueError.
"""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge within its budget."""


class QuadratureError(NumericalError):
    """A contour average did not reach tolerance, or its contour hit a zero."""


class PhaseTrackingError(NumericalError):
    """Winding-number phase tracking ran out of refinement budget."""


class SearchBudgetError(NumericalError):
    """No sign pattern fits within the acceptance tolerance.

    Never caused by the pattern budget, whose exhaustion returns the best
    pattern so far; the exhaustive oracle also raises it above its cap.
    """


class RankDeficiencyError(NumericalError):
    """Least-squares design matrix is rank deficient (sampling set too sparse)."""


class OrderDetectionError(NumericalError):
    """Order of vanishing at the origin could not be decided reliably."""


class MagnitudeFloorError(ValueError):
    """Every sample magnitude is too small for the sign search to tell signs apart."""


class IdenticallyZeroError(ValueError):
    """Zero scan rejected an input that is numerically zero on the interval."""


class VerificationError(RuntimeError):
    """A verified mathematical relation failed beyond its stated slack."""


class ChainViolationError(VerificationError):
    """The zero-count / contour-average / growth-bound chain was violated."""
