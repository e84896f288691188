"""Exception types shared across the package."""


class QPrivError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QPrivError, ValueError):
    """An input violates a structural precondition or invariant."""


class NonFinite(ValidationError):
    """A matrix holds NaN or infinite entries."""


class NonHermitian(ValidationError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NotPositiveSemidefinite(ValidationError):
    """An operator expected to be PSD has a negative eigenvalue beyond tolerance."""


class InvalidTrace(ValidationError):
    """A density matrix trace differs from one beyond tolerance."""


class InvalidNorm(ValidationError):
    """A state vector norm differs from one beyond tolerance."""


class NotTracePreserving(ValidationError):
    """A Kraus set does not resolve the identity within tolerance."""


class NotAnEffect(ValidationError):
    """An operator is not between 0 and the identity within tolerance."""


class DimensionMismatch(ValidationError):
    """Operands act on incompatible Hilbert-space dimensions."""


class InvalidGamma(ValidationError):
    """A hockey-stick parameter is outside its admissible range."""


class GammaOutOfRange(ValidationError):
    """A contraction-bound gamma lies outside the privacy-constrained range."""


class InvalidProbability(ValidationError):
    """A mixing probability is outside [0, 1]."""


class InvalidRank(ValidationError):
    """A requested rank is outside [1, dim]."""


class InvalidEta(ValidationError):
    """A depolarization weight is outside (0, 1)."""


class InvalidParams(ValidationError):
    """Privacy parameters are outside their admissible ranges."""


class InvalidAlpha(ValidationError):
    """An error-probability target is outside its valid interval."""


class AlphaTooLarge(ValidationError):
    """An error-probability target exceeds min(p, q)."""


class ComputationError(QPrivError, RuntimeError):
    """A computation cannot be completed as requested."""


class DimensionBudgetExceeded(ComputationError):
    """A dense computation would exceed the configured dimension budget."""


class QuadratureNotConverged(ComputationError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class NoValidPairs(ComputationError):
    """Every sampled state pair had a degenerate denominator."""


class Unbounded(ComputationError):
    """The requested quantity is infinite (identical hypotheses)."""


class DegenerateStates(ComputationError):
    """Two states are numerically indistinguishable where distinctness is required."""


class DegeneratePair(ComputationError):
    """A hypothesis tuple contains a numerically indistinguishable pair."""


class SingularSigma(ComputationError):
    """The second state is too singular for a regularized inverse."""
