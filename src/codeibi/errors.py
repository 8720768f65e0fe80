"""Exception types shared across the package."""


class CodeIbiError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CodeIbiError):
    """Parameters outside the supported range or mutually inconsistent."""


class RangeError(CodeIbiError):
    """A scalar argument is outside its admissible interval."""


class ZeroOperand(CodeIbiError):
    """An operation received a zero operand it cannot handle."""


class ZeroInverse(CodeIbiError):
    """Multiplicative inverse of zero requested in a finite field."""


class NotInvertible(CodeIbiError):
    """Polynomial has no inverse modulo the given modulus."""


class DimensionMismatch(CodeIbiError):
    """Vector or matrix dimensions do not line up."""


class Singular(CodeIbiError):
    """Matrix inversion attempted on a singular matrix."""


class Inconsistent(CodeIbiError):
    """Linear system has no solution."""


class Undecodable(CodeIbiError):
    """Syndrome is not within the decoding radius of the code.

    reason names the decoder's one exit: "does not split" when the
    error locator has fewer distinct roots than its degree.
    """

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class WeightError(CodeIbiError):
    """Bit vector has the wrong Hamming weight."""


class RetryLimitExceeded(CodeIbiError):
    """A randomized retry loop hit its attempt cap."""


class StateReuse(CodeIbiError):
    """One-shot protocol state was used twice."""


class ProtocolViolation(CodeIbiError):
    """Peer sent a message that does not fit the protocol state machine."""


class ChannelError(CodeIbiError):
    """Transport failed mid-session (closed socket, short read)."""


class MalformedEnvelope(CodeIbiError):
    """Serialized blob violates the container format."""


class VersionMismatch(CodeIbiError):
    """Container version byte is not one we speak."""


class TruncatedInput(CodeIbiError):
    """Serialized blob ends before its declared length."""


class CostGuard(CodeIbiError):
    """Requested brute-force work exceeds the hard safety bound."""
