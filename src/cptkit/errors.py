"""Exception hierarchy shared by all modules.

Every class carries the command-line exit code of its category in
``exit_code``: 2 for parse or usage errors, 3 for axiom or classification
failures, 4 for numerical breakdown (defective or exceptional input).
"""

EXIT_USAGE = 2
EXIT_AXIOM = 3
EXIT_NUMERIC = 4


class CptKitError(Exception):
    """Base class for every error raised by this package.  Subclasses that
    keep the default ``exit_code`` signal numerical breakdown."""

    exit_code = EXIT_NUMERIC


class InvalidArgument(CptKitError, ValueError):
    """An argument is out of range or malformed; also a ValueError."""

    exit_code = EXIT_USAGE


class DimensionMismatch(CptKitError):
    """Operands have incompatible dimensions."""

    exit_code = EXIT_USAGE


class KindMismatch(CptKitError):
    """A linear operator was supplied where an antilinear one was required,
    or vice versa."""

    exit_code = EXIT_USAGE


class NonFiniteEntries(CptKitError):
    """A matrix or vector contains NaN or infinite entries."""

    exit_code = EXIT_USAGE


class DefectiveSpectrum(CptKitError):
    """The matrix is numerically defective: its eigenvector matrix is too
    ill-conditioned for eigenvector-based constructions to be trusted.

    The condition-number estimate is kept in ``condition``.
    """

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class NotHermitian(CptKitError):
    """A Hermitian matrix was required."""


class NotPositiveDefinite(CptKitError):
    """A positive definite matrix was required.  Downstream this usually
    signals a broken frame or an exceptional point."""


class NotInvolution(CptKitError):
    """The supplied matrix does not square to the identity."""

    exit_code = EXIT_USAGE


class IsIdentity(CptKitError):
    """The identity matrix is excluded as a parity operator."""

    exit_code = EXIT_USAGE


class NonRealEntries(CptKitError):
    """A real-entried matrix was required (a complex parity need not commute
    with entrywise conjugation)."""

    exit_code = EXIT_USAGE


class NotPTSymmetric(CptKitError):
    """The operator does not commute with PT."""

    exit_code = EXIT_AXIOM


class NotPTEigenstate(CptKitError):
    """The vector is not an eigenstate of PT, so no phase can align it."""


class NotUnbroken(CptKitError):
    """C-operator synthesis needs an unbroken symmetry with real spectrum."""

    exit_code = EXIT_AXIOM


class SelfOrthogonal(CptKitError):
    """A state has (numerically) vanishing indefinite self-product; the
    normalization required by the C construction fails.  This is the
    signature of an exceptional point."""


class GramDefect(CptKitError):
    """The aligned eigenstates cannot be made orthogonal under the indefinite
    inner product, so the orthonormality hypothesis of the C construction
    cannot be met."""


class FrameInvalid(CptKitError):
    """A frame failed axiom validation.  The offending report is attached."""

    exit_code = EXIT_AXIOM

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class CommutatorViolation(CptKitError):
    """An operator was expected to commute with another and does not."""


class InvalidModel(CptKitError):
    """Model parameters violate the family's constraints (e.g. a zero
    parameter)."""

    exit_code = EXIT_USAGE


class DocumentError(CptKitError):
    """A JSON matrix or frame document failed to parse or validate."""

    exit_code = EXIT_USAGE
