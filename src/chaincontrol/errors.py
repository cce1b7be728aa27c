"""Exception types raised by validation and construction routines.

A type exists only where a handler tells it apart: `cli.main` turns a
ValidationError into exit 2 and an IntegratorBudgetError into its budget
line, and `chains.decay_certificate` records a NotHyperbolicError as a flat
level's note.  Every other refusal is a ValidationError whose message names
what failed.
"""


class ValidationError(ValueError):
    """Input data fails a structural requirement (shape, symmetry, identity)."""


class NotHyperbolicError(ValidationError):
    """Spectrum touches the imaginary axis where hyperbolicity is required."""


class IntegratorBudgetError(RuntimeError):
    """Integrator error estimate exceeds its budget for the run."""
