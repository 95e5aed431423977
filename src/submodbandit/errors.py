"""Exception types shared across the package.

A refused input raises ``ValueError``: an item outside the ground set, a
set or k above a spec's ``k_max``, a bad sigma, stop level or checkpoint,
a closed form outside its domain.  ``ConfigError`` is the ``ValueError``
that names a config or file field.  The CLI maps every ``ValueError`` to
exit code 2, and the one resource guard, ``GroundSetTooLarge``, to exit
code 3.
"""


class SubmodBanditError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SubmodBanditError, ValueError):
    """An experiment configuration or input file failed validation."""


class GroundSetTooLarge(SubmodBanditError):
    """The feasible sets (size <= k) times n exceed the exhaustive table's budget."""
