"""Exception hierarchy shared by every module.

Callers mostly care about three groups: precondition violations (bad
input), parse errors (bad expression text), and internal check failures.
The last group means a theorem-backed identity that the code verifies as
a matter of course did not hold, which indicates a bug, never bad input.
The command line maps these groups to exit codes 1, 2 and 3.
"""


class RatmapError(Exception):
    pass


class PreconditionError(RatmapError):
    """An input violates a documented precondition."""


class InvalidArgument(PreconditionError, ValueError):
    """An argument outside its documented range (also a ValueError)."""


class InternalCheckError(RatmapError):
    """A consistency check guaranteed by a theorem failed (a bug)."""


class AssertionFailure(InternalCheckError):
    pass


class ParseError(RatmapError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(ParseError):
    pass


# -- coefficient fields -------------------------------------------------

class DivisionByZero(PreconditionError):
    pass


class FieldMismatch(PreconditionError):
    pass


class NotPrime(PreconditionError):
    pass


class ZeroPolynomial(PreconditionError):
    pass


# -- polynomial ring ----------------------------------------------------

class RingMismatch(PreconditionError):
    pass


class NotDivisible(PreconditionError):
    pass


class AllZero(PreconditionError):
    pass


class ZeroMap(PreconditionError):
    pass


class IndeterminateForm(PreconditionError):
    pass


# -- homogenization -----------------------------------------------------

class ZeroTuple(PreconditionError):
    pass


class DivisibleByY2(PreconditionError):
    pass


class WitnessRejected(PreconditionError):
    pass


class NotPrimitive(PreconditionError):
    pass


class LinearFactorPresent(PreconditionError):
    pass


class BothZero(PreconditionError):
    pass


# -- subfield machinery -------------------------------------------------

class CharPUnsupported(PreconditionError):
    pass


class NotPrimitivePair(PreconditionError):
    pass


class ConstantRatio(PreconditionError):
    pass


class NotCoprime(PreconditionError):
    pass


class BothConstant(PreconditionError):
    pass


class ConstantP(PreconditionError):
    pass


class ZeroDenominator(PreconditionError):
    pass


class AllConstant(PreconditionError):
    pass


class SingularMatrix(PreconditionError):
    pass


# -- integrality --------------------------------------------------------

class ConstantPart(PreconditionError):
    pass


class DegenerateImage(PreconditionError):
    pass


# -- quasi-translation checks -------------------------------------------

class NotSquare(PreconditionError):
    pass


class ZeroScalar(PreconditionError):
    pass


class IndeterminateComposition(PreconditionError):
    pass


class TrdegTooLarge(PreconditionError):
    pass


class PreconditionNotVerified(PreconditionError):
    pass


class DegreeOrder(PreconditionError):
    pass
