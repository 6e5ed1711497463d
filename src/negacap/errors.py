"""Exception hierarchy for the toolkit.

Every validation failure raises a subclass of :class:`NegacapError`; the
CLI maps these to exit code 2 and :class:`ParseError` to exit code 3.
"""


class NegacapError(Exception):
    """Base class for all toolkit errors."""


class ParseError(NegacapError):
    """Malformed input file or JSON payload."""


# linalg
class NotHermitian(NegacapError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(NegacapError):
    """Eigensolver failed to converge."""


class InvalidP(NegacapError):
    """Schatten exponent outside [1, inf]."""


class DimensionMismatch(NegacapError):
    """Matrix shape incompatible with the declared (bi)partite dimensions."""


class NotPSD(NegacapError):
    """Matrix has an eigenvalue below -tol."""


# channel
class NotHP(NegacapError):
    """Channel is not Hermiticity preserving."""


class NotCPTP(NegacapError):
    """Channel is not completely positive and trace preserving."""


class NotTPSum(NegacapError):
    """Sub-operations do not sum to a trace-preserving map."""


class BadWeights(NegacapError):
    """Mixture weights are negative or do not sum to one."""


# entcap
class NotDensityOperator(NegacapError):
    """Operator is not a valid density operator."""


class NotUnitary(NegacapError):
    """Matrix is not unitary within tolerance."""


class NotNormalized(NegacapError):
    """Vector does not have unit norm."""


class BoundsOutOfOrder(NegacapError):
    """A lower entangling-capacity bound exceeds its upper bound."""


# gaussian
class NotPositiveDefinite(NegacapError):
    """Covariance matrix is not positive definite."""


class NotTwoMode(NegacapError):
    """Operation requires exactly two modes."""


class BadIndex(NegacapError):
    """Mode index out of range or repeated."""


class InvalidState(NegacapError):
    """Covariance matrix violates the uncertainty relation."""


class InvalidParams(NegacapError):
    """Symmetric-state parameters outside their domain."""


class InvalidBlocks(NegacapError):
    """Block sizes violate N >= n_s > n_d >= 0 with nonempty blocks."""


class InvalidWavefunction(NegacapError):
    """Pure-state coefficients violate the normalizability constraints."""
