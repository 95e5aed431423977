"""Exception types shared across the package."""


class SubmodBanditError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(SubmodBanditError):
    """An item index lies outside the ground set [0, n)."""


class CardinalityExceeded(SubmodBanditError):
    """A set is larger than the cardinality the function is defined for."""


class GroundSetTooLarge(SubmodBanditError):
    """The feasible sets (size <= k) times n exceed the exhaustive table's budget."""


class NegativeSigma(SubmodBanditError):
    """Noise standard deviation must be finite and nonnegative."""


class ZeroSigma(SubmodBanditError):
    """Divergence computations require strictly positive sigma."""


class InvalidStopLevel(SubmodBanditError):
    """Greedy stop level must lie in [0, k]."""


class TooManyArms(SubmodBanditError):
    """The flat index policy refuses arm sets larger than ``policies.MAX_ARMS``."""


class CheckpointOutOfRange(SubmodBanditError):
    """A requested checkpoint exceeds the trajectory length."""


class PreconditionViolated(SubmodBanditError):
    """Inputs violate the stated domain of a closed-form evaluator."""


class ConfigError(SubmodBanditError):
    """An experiment configuration failed validation."""
