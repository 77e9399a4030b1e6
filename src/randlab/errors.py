"""Exception types shared across the library."""


class RandlabError(Exception):
    """Base class for all library errors."""


class ParseError(RandlabError):
    """Malformed textual serialization."""


class NotAnIndex(RandlabError, ValueError):
    """An image, member or level given to a constructor is not a
    nonnegative plain ``int``."""


class BadBudget(RandlabError, ValueError):
    """A count of test functions to evaluate is not an ``int`` in range."""


class MismatchedSpace(RandlabError):
    """Operands live over different value spaces or groups."""


class NotAperiodic(RandlabError):
    """A transformation has a cycle shorter than the requested height."""


class TowerTooCoarse(RandlabError):
    """The achievable tower leftover exceeds the requested bound."""


class LeftoverIndivisible(RandlabError):
    """The leftover interval count cannot be grouped into exact cycles."""


class WindowTooWide(RandlabError):
    """A window permutation would need more than ``MAX_WINDOW`` points."""


class InsufficientCycles(RandlabError):
    """The permutation lacks spare cycles of the lengths a match needs."""

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = dict(needed or {})


class NotInjective(RandlabError):
    """A partial map that must be injective is not."""


class NotConverging(RandlabError):
    """A probe sequence fails its convergence precondition."""


class Unmatchable(RandlabError):
    """Some interval value cannot be matched within the given budget."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class NotDiscrete(RandlabError):
    """An exact discrete-metric formula was applied to a non-discrete group."""


class DegenerateSpace(RandlabError):
    """The acted-on space has no pair of points at positive distance."""


class OracleFailure(RandlabError):
    """A matching oracle could not meet its tolerance."""

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class CertificateError(RandlabError):
    """A postcondition checked by direct evaluation does not hold."""


class ConfigError(RandlabError):
    """Bad experiment configuration (carries the offending line)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"config line {line}: {message}"
        super().__init__(message)
        self.line = line
