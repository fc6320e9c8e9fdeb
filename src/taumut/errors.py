"""Exception types shared across the engine."""


class TaumutError(Exception):
    """Base class for all engine errors."""


class FieldMismatchError(TaumutError):
    """Two exact values with different field tags met in one operation."""


class DimensionMismatchError(TaumutError):
    """Matrix or module shapes are incompatible."""


class SpecError(TaumutError):
    """An algebra specification violates its invariants."""


class CharacteristicError(TaumutError):
    """The prime-field characteristic is too small for the radical algorithm."""


class IndeterminateDecompositionError(TaumutError):
    """The endomorphism-ring analysis could not certify a decomposition."""


class NotABrickError(TaumutError):
    """A module that must be a brick has dim End other than 1."""


class IncompleteExplorationError(TaumutError):
    """An operation required a complete exchange quiver but got a prefix."""


class NotTauRigidError(TaumutError):
    """A module that must be tau-rigid is not."""


class TauTiltingInfiniteError(TaumutError):
    """The algebra has infinitely many support tau-tilting pairs, so an
    unbounded exploration would never finish."""


class CompletionError(TaumutError):
    """An almost-complete support pair lies in more than two found pairs."""


class MutationError(TaumutError):
    """Mutation was requested at a summand that is not mutable."""


class SelfExtensionError(TaumutError):
    """Mutation was requested at a brick with self-extensions."""


class ApproximationDichotomyError(TaumutError):
    """A universal map expected to be injective or surjective was neither."""


class IntervalError(TaumutError):
    """No interval module exists for the requested top and socle."""


class GuardExceededError(TaumutError):
    """A brute-force search exceeded its safety budget."""
