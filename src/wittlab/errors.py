"""Exception hierarchy shared by every wittlab module."""


class WittlabError(Exception):
    """Base class; the CLI maps these to exit code 2."""


class RejectedModulus(WittlabError):
    """The defining polynomial does not define a usable order."""


class BadFrobeniusLift(WittlabError):
    """phi_pi defines no Frobenius lift: malformed, or no root of f."""


class NonDivisible(WittlabError):
    """Exact division by pi (or an integer) failed."""


class NonIntegral(WittlabError):
    """A ghost vector is not in the image of the ghost map."""


class TorsionBase(WittlabError):
    """An operation needing a pi-torsion-free exact base got a truncated one."""


class LengthMismatch(WittlabError):
    pass


class BaseMismatch(WittlabError):
    pass


class ZeroLength(WittlabError):
    pass


class ZeroTail(WittlabError):
    pass


class ZeroShift(WittlabError):
    pass


class DuplicateName(WittlabError):
    pass


class BadLength(WittlabError):
    pass


class BudgetExceeded(WittlabError):
    """Symbolic expansion would exceed the configured term budget."""


class UnknownLaw(WittlabError):
    pass


class ConfigUnsupported(WittlabError):
    """A law's hypotheses exclude the requested configuration."""


class NotUnital(WittlabError):
    pass


class NotCommutative(WittlabError):
    pass


class NotAssociative(WittlabError):
    pass


class NonIntegralPsi(WittlabError):
    """A logarithm coefficient needed by the psi map is not integral."""


class PrecisionRequired(WittlabError):
    """A convergent series evaluation was requested over an exact base."""


class InternalError(Exception):
    """An invariant the theory guarantees was violated; CLI exit code 3."""
