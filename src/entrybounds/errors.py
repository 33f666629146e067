"""Exception types shared across the package."""


class EntryBoundsError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(EntryBoundsError):
    """Operand shapes are inconsistent."""


class NumericalFailure(EntryBoundsError):
    """A numerical backend (e.g. the SVD) failed to converge."""


class ZeroFunctional(EntryBoundsError):
    """A weight vector of all zeros was supplied."""


class IndexOutOfRange(EntryBoundsError):
    """An entry index falls outside [0, N)."""


class SamePair(EntryBoundsError):
    """A difference pair (i, j) with i == j was supplied."""


class StatusMismatch(EntryBoundsError):
    """Requested extremal target is incompatible with the bound status."""


class InfeasibleSystem(EntryBoundsError):
    """The near-consistency set is empty: the residual exceeds epsilon."""


class RankDeficient(EntryBoundsError):
    """Operation requires full column rank."""


class NotOverdetermined(EntryBoundsError):
    """Operation requires M > N after masking."""


class InvalidStep(EntryBoundsError):
    """A gradient-iteration setting under which no solve can stop correctly:
    a step outside the stable interval, a sigma1 or sigma_min that gives
    none, or an iteration budget or tolerance that cannot be met."""


class UnknownPreset(EntryBoundsError):
    """Unrecognized phantom preset name."""


class ShapeMismatch(EntryBoundsError):
    """Image-domain shapes are inconsistent."""


class ConfigError(EntryBoundsError):
    """Pipeline or CLI configuration is invalid."""
