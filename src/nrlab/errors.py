"""Exception types shared across the package."""


class NrlabError(Exception):
    """Base class for all package errors."""


class OutOfChart(NrlabError):
    """Point lies outside the validity region of the requested chart."""


class OnBoundary(NrlabError):
    """Chart coordinates sit on a boundary face; no interior preimage exists."""


class FitFailure(NrlabError):
    """A log-log or decay fit has insufficient dynamic range or samples."""


class DegenerateMetric(NrlabError):
    """Metric determinant fell below the nondegeneracy floor."""


class ExtrapolationUnstable(NrlabError):
    """Successive Richardson estimates disagree beyond tolerance."""


class SpectrumOverflow(NrlabError):
    """Field or symbol spectrum exceeds the available frequency grid."""


class ChartUnavailable(NrlabError):
    """No admissible chart of the requested kind at this point."""


class StepFailure(NrlabError):
    """Adaptive step size underflow (or CFL-type violation) in an integrator."""


class GridMismatch(NrlabError):
    """Two grid objects that must match do not."""


class ResampleOverflow(NrlabError):
    """Requested resampling points fall outside the sampled box."""


class DegenerateFamily(NrlabError):
    """A manufactured test family member produced a numerically zero forcing."""


class ConfigInvalid(NrlabError):
    """An experiment configuration does not bind: unknown, mistyped or missing keys."""


class InvalidInput(NrlabError, ValueError):
    """A grid, symbol, metric, order profile or experiment was given invalid values."""
