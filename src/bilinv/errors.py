"""Exception hierarchy shared by all modules.

Errors are split into three rough bands, mirrored by the CLI exit codes:
input problems (bad data, preconditions violated by the instance),
capability limits (the computation is refused, not wrong), and internal
verification failures (a produced certificate did not check out).
"""


class BilinvError(Exception):
    """Base class for all library errors."""


# --- input / precondition errors ---------------------------------------

class MixedFields(BilinvError):
    """Operands live over different fields; no implicit coercion."""


class ZeroInverse(BilinvError):
    """Multiplicative inverse of zero requested."""


class NotSquare(BilinvError):
    """A square matrix was required."""


class Singular(BilinvError):
    """An invertible matrix was required."""


class ZeroConstantTerm(BilinvError):
    """Polynomial duality needs a nonzero constant term."""


class NotSelfDual(BilinvError):
    """A self-dual polynomial was required."""


class OddDegree(BilinvError):
    """An even-degree polynomial was required."""


class NotEvenPolynomial(BilinvError):
    """A polynomial in x^2 was required."""


class ParityViolation(BilinvError):
    """Block size parity incompatible with the requested symmetry."""


class NotDualPair(BilinvError):
    """The two summands do not pair as module and dual module."""


class EigenvalueObstruction(BilinvError):
    """The symmetry converter needs no eigenvalue 1 or -1 (0 infinitesimally)."""


class DecisionFalse(BilinvError):
    """Witness construction requested although the decision is negative."""


class NotUnipotent(BilinvError):
    """A unipotent map was required."""


class NotUnipotentType(BilinvError):
    """Minimal polynomial must be a power of (x-1) or of (x+1)."""


class UnverifiedForm(BilinvError):
    """A Gram matrix failed re-verification against its map."""


class Degenerate(BilinvError):
    """A non-degenerate form was required."""


class InputError(BilinvError):
    """Malformed instance data (CLI layer)."""


# --- capability errors (exit code 3 in the CLI) ------------------------

class SmallCharacteristic(BilinvError):
    """Field characteristic does not exceed the ambient dimension."""


class DegreeLimit(BilinvError):
    """Rational factorization degree bound exceeded."""


class RationalsUnsupported(BilinvError):
    """This analysis is only available over prime fields."""


CAPABILITY_ERRORS = (SmallCharacteristic, DegreeLimit, RationalsUnsupported)
