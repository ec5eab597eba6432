"""Exception hierarchy shared by every ceq module."""


class CeqError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(CeqError):
    """Field characteristic is not a prime number."""


class ReducibleModulus(CeqError):
    """Extension modulus is missing, malformed, or not irreducible."""


class UnsupportedSize(CeqError):
    """Requested field order exceeds the supported machine-word range."""


class FieldMismatch(CeqError):
    """Operands belong to different field contexts."""


class ZeroInverse(CeqError):
    """Multiplicative inverse of zero requested."""


class DimMismatch(CeqError):
    """Matrix or permutation shapes do not agree."""


class NotSquare(CeqError):
    """Square matrix required."""


class Singular(CeqError):
    """Matrix is not invertible."""


class WitnessInvalid(CeqError):
    """A witness does not verify against the instance it was offered for."""


class StructureViolation(CeqError):
    """An extracted witness breaks a structural guarantee of the gadget.

    Carries the name of the violated check; this signals a bug or a
    corrupted input, never a legitimate outcome.
    """

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        msg = check if not detail else f"{check}: {detail}"
        super().__init__(msg)


class BudgetExceeded(CeqError):
    """A generation or certification task ran out of its search budget."""


class FormatError(CeqError):
    """Instance/witness/cert file is malformed or has an unknown version."""
