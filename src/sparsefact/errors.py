"""Exception types shared across the toolkit.

One of these is a non-fatal control-flow signal rather than an error
proper: GuessInvalid (a line through the anchor refutes one block of the
monic driver, with its exponent), which the driver catches to move on.
Operations that can have no answer, such as an exact division, return None
instead.
"""


class SparsefactError(Exception):
    """Base class for all toolkit errors."""


class NotPrime(SparsefactError):
    """Field characteristic is not a prime number."""


class CtxMismatch(SparsefactError):
    """Operands belong to different field contexts."""


class DivByZero(SparsefactError):
    """Inversion or division by the zero field element."""


class ShapeMismatch(SparsefactError):
    """Operands disagree on variable count or point dimension."""


class ZeroPolynomial(SparsefactError):
    """Operation undefined for the zero polynomial."""


class ZeroDegree(SparsefactError):
    """Polynomial is constant in the variable an operation works on: one to
    eliminate, to factor in, or a resultant's variable."""


class EmptyVector(SparsefactError):
    """Multiplicity vector must be nonempty."""


class EmptySupport(SparsefactError):
    """Support set must be nonempty."""


class FieldTooSmall(SparsefactError):
    """The field does not carry enough distinct points for the construction."""

    def __init__(self, required=None, message=None):
        self.required = required
        if message is None:
            message = "field too small"
            if required is not None:
                message += " (needs at least %d elements)" % required
        super().__init__(message)


class NotCoprime(SparsefactError):
    """Lifting requires coprime seed factors."""


class NotMonic(SparsefactError):
    """Operation requires a polynomial monic in y."""


class BoundViolation(SparsefactError):
    """A proved inequality failed; signals an implementation bug."""


class NoFactorizationFound(SparsefactError):
    """Even the trivial factorization candidate failed; internal bug."""


class ParseError(SparsefactError):
    """Polynomial text did not match the input grammar."""


class GuessInvalid(SparsefactError):
    """Non-fatal: a line's lifts refute this block of the monic driver, with
    its exponent."""
