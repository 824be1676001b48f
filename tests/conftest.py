import numpy as np
import pytest
from hypothesis import strategies as st

from nrlab.symbols import ClassicalSymbolProfile, MetricParams, OperatorCoefficient


@pytest.fixture
def free_metric():
    return MetricParams.free(1)


@pytest.fixture
def wavy_metric():
    """Small generic perturbation of all second-order coefficients (d = 1)."""
    return MetricParams(
        d=1,
        alpha=ClassicalSymbolProfile(amplitude=0.1, waves=(((0.7, 1.3), 0.4, 0.2),)),
        w=(ClassicalSymbolProfile(amplitude=0.08, waves=(((1.1, -0.4), 0.3, 0.0),)),),
        hjk=((ClassicalSymbolProfile(amplitude=0.12, waves=(((0.3, 0.9), 0.0, 0.5),)),),),
    )


def bandlimited_gaussian(grid, K, width=4.0, k0=1.0):
    """Spatially localized field with spectrum hard-truncated to |xi| <= K."""
    x = grid.axis_points(0)
    vals = np.exp(-((x / width) ** 2)) * np.exp(1j * k0 * x)
    ch = np.fft.fftn(vals)
    ch[np.abs(grid.axis_freqs(0)) > K] = 0.0
    return np.fft.ifftn(ch)


@st.composite
def perturbed_metrics(draw, d, amp=0.2):
    """Metrics of dimension d with every second-order coefficient perturbed.

    With amp <= 0.2 and |cos|, |sin| <= 0.5 each entry of the perturbation
    block is at most 0.4 in size, so for h <= 0.5 the natural-units metric
    stays within 0.4 of Minkowski.
    """

    def profile():
        kappa = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(d + 1))
        return ClassicalSymbolProfile(
            amplitude=draw(st.floats(-amp, amp)),
            order=draw(st.sampled_from([-1, -2])),
            waves=((kappa, draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))),),
        )

    upper = {(j, k): profile() for j in range(d) for k in range(j, d)}
    hjk = tuple(tuple(upper[min(j, k), max(j, k)] for k in range(d)) for j in range(d))
    return MetricParams(d=d, alpha=profile(), w=tuple(profile() for _ in range(d)),
                        hjk=hjk)
