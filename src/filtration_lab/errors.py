"""Exception types shared across the package."""


class FiltrationLabError(Exception):
    """Base class for every error raised by this package."""


class NegativeProbability(FiltrationLabError):
    """An atom was given a probability below zero."""


class ProbabilitySumMismatch(FiltrationLabError):
    """Atom probabilities do not sum to one within tolerance."""

    def __init__(self, total: float):
        self.total = float(total)
        self.deviation = float(total) - 1.0
        super().__init__(
            f"atom probabilities sum to {total!r} (deviation {self.deviation:+.3e})"
        )


class NotAStoppingTime(FiltrationLabError):
    """The level set {sigma <= t} cuts through a block of the time-t partition."""

    def __init__(self, t: int, block: tuple):
        self.t = t
        self.block = block
        super().__init__(f"{{sigma <= {t}}} is not a union of time-{t} blocks; offending block {block}")


class NotIncreasing(FiltrationLabError):
    """Process is not increasing from zero."""


class NotAdapted(FiltrationLabError):
    """Process values are not block-constant at some time."""


class NotPredictable(FiltrationLabError):
    """Process values at t are not constant on the time-(t-1) blocks."""


class NotMartingale(FiltrationLabError):
    """One-step conditional drift is nonzero."""


class NotPointProcess(FiltrationLabError):
    """Values are not a counting path (start at 0, unit increments)."""


class FiltrationMismatch(FiltrationLabError):
    """Operands live on different filtrations or spaces."""


class IndependenceViolated(FiltrationLabError):
    """Product rule fails on a pair of blocks of the two filtrations."""


class TauAtZero(FiltrationLabError):
    """Random times must be strictly positive."""


class VanishingAzema(FiltrationLabError):
    """Survival probability hit zero strictly before the random time."""


class BadParameter(FiltrationLabError):
    """Parameter outside its admissible range."""


class UnknownSuite(FiltrationLabError):
    """Requested check suite is not registered."""


class ConfigInvalid(FiltrationLabError):
    """Scenario configuration failed validation."""
