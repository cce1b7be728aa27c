"""Exception types raised by validation and construction routines."""


class ValidationError(ValueError):
    """Input data fails a structural requirement (shape, symmetry, identity)."""


class NotNilpotentError(ValidationError):
    """Bracket tensor does not terminate within the allowed nilpotency class."""


class NotDerivationError(ValidationError):
    """Candidate matrix violates the Leibniz rule beyond tolerance."""


class SeriesNotPreservedError(ValidationError):
    """Linear map fails to map each descending-series ideal into itself."""


class DefectiveClusteringError(ValidationError):
    """Real Schur clustering produced inconsistent invariant-subspace dims."""


class NotAutomorphismError(ValidationError):
    """Flow or map fails the automorphism property beyond tolerance."""


class IncompatibleActionError(ValidationError):
    """Twisting action does not commute with drift or bracket as required."""


class NotHyperbolicError(ValidationError):
    """Spectrum touches the imaginary axis where hyperbolicity is required."""


class IntegratorBudgetError(RuntimeError):
    """Integrator error estimate exceeds its budget for the run."""
