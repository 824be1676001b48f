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
    """The metric fails one of three nondegeneracy checks: its determinant
    fell below the floor (symbols.eval_metric); -c^2 g^00 <= 0 at a step's
    midpoint, so t is no time function (pde._strang); or a sheet frequency
    has a negative discriminant (flow._sheet_tau_nat)."""


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
