import signal
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from nrlab import quantize
from nrlab.errors import ChartUnavailable, OnBoundary
from nrlab.flow import _natural_field, _radial_field
from nrlab.geometry import ChartCoords, ChartTag, _as_vector, _cat, split_coords
from nrlab.symbols import (
    ClassicalSymbolProfile,
    MetricParams,
    OperatorCoefficient,
    SignBranch,
    _free_velocity,
    ball_from_base,
    eval_metric,
)


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


@st.composite
def perturbed_metrics(draw, d, amp=0.2, lower=False):
    """Metrics of dimension d with every second-order coefficient perturbed.

    With amp <= 0.2 and |cos|, |sin| <= 0.5 each entry of the perturbation
    block is at most 0.4 in size, so for h <= 0.5 the natural-units metric
    stays within 0.4 of Minkowski.  With ``lower`` the lower-order terms beta,
    B and W are drawn too, each with an imaginary part (Im B decaying in c).
    """

    def profile(orders=(-1, -2)):
        kappa = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(d + 1))
        return ClassicalSymbolProfile(
            amplitude=draw(st.floats(-amp, amp)),
            order=draw(st.sampled_from(orders)),
            waves=((kappa, draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))),),
        )

    upper = {(j, k): profile() for j in range(d) for k in range(j, d)}
    hjk = tuple(tuple(upper[min(j, k), max(j, k)] for k in range(d)) for j in range(d))
    M = MetricParams(d=d, alpha=profile(), w=tuple(profile() for _ in range(d)), hjk=hjk)
    if not lower:
        return M

    def coefficient(imag_c_decay=False):
        return OperatorCoefficient(profile(), profile((-2,)), imag_c_decay)
    return replace(M, beta=coefficient(), B=tuple(coefficient(True) for _ in range(d)),
                   W=coefficient())


def light_speed_inverse(M, z, c):
    """The light-speed inverse metric g(c)^-1 = S^-1 G S^-1 at spacetime points
    z of shape (..., 1+d), with S = diag(c, 1, ..., 1) and G the natural-units
    inverse metric of eval_metric."""
    s = np.ones(M.d + 1)
    s[0] = 1.0 / c
    return eval_metric(M, ball_from_base(z), 1.0 / c).G * np.outer(s, s)


def _rebind(monkeypatch, name, real, fake):
    """Bind ``name`` to fake in every nrlab module that holds real under it."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("nrlab") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, fake)


def count_calls(monkeypatch, real, record=lambda *args, **kwargs: args):
    """Record record(*args, **kwargs) of every call to the function real made
    from here on by any nrlab module that holds it under its own name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    _rebind(monkeypatch, real.__name__, real, counted)
    return calls


def count_transforms(monkeypatch):
    """Record (axes, inverse) of every call to the grid transform entry point,
    quantize.transform."""
    return count_calls(monkeypatch, quantize.transform,
                       lambda a, axes=None, inverse=False: (axes, inverse))


def count_metric_evaluations(monkeypatch):
    """Record the batch shape of every call to symbols.eval_metric."""
    return count_calls(monkeypatch, eval_metric, lambda M, Y, *args, **kwargs: np.shape(Y)[:-1])


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed, so that a
    call that never returns fails its test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def profile_grad(prof: ClassicalSymbolProfile, z) -> np.ndarray:
    """Analytic spacetime gradient of a classical profile, shape (..., 1+d),
    derived by hand from f(z) = A <z>^r g(z/<z>)."""
    z = np.asarray(z, dtype=float)
    if prof.amplitude == 0.0:
        return np.zeros_like(z)
    n2 = np.sum(z * z, axis=-1)
    bracket = np.sqrt(1.0 + n2)
    y = z / bracket[..., None]
    # d y_j / d z_i = (delta_ij - y_i y_j) / <z>; grad g projected tangent to the sphere
    g, gy = prof._angular(y), np.zeros_like(y)
    for kappa, c, s in prof.waves:
        phase = y @ np.asarray(kappa, dtype=float)
        gy = gy + (s * np.cos(phase) - c * np.sin(phase))[..., None] * np.asarray(kappa)
    proj = gy - np.sum(gy * y, axis=-1)[..., None] * y
    radial = prof.order * bracket ** (prof.order - 2.0)
    return prof.amplitude * (
        radial[..., None] * z * g[..., None]
        + (bracket ** (prof.order - 1.0))[..., None] * proj
    )


def ham_field(cc: ChartCoords, M: MetricParams, b: SignBranch) -> np.ndarray:
    """Rescaled Hamiltonian field in chart-local coordinates: its component
    array, in the order of the chart's coordinates, over the batch axes.

    Supported charts: NAT_INTERIOR ((t, x, tau_nat, xi_nat, h) components,
    rescale (1/2) <z> h H_p), RADIAL_NAT ((s, w, rho_bf, tau_nat, xi_nat, h),
    rescale (1/2) |x_j0| h H_p), and PF_STANDARD at h = 0 ((t, x, tau, xi, h),
    rescale with the parabolic natural-face bdf).
    """
    tag = cc.chart.tag
    if tag is ChartTag.RADIAL_NAT:
        return _radial_field(cc, M, b)
    z, tau, xi, h = split_coords(cc.coords)
    bracket = np.sqrt(1.0 + np.sum(z * z, axis=-1, keepdims=True))
    zeta = _cat(tau, xi)
    if tag is ChartTag.NAT_INTERIOR:
        V, drift = _natural_field(M, ball_from_base(z), zeta, h, b.sign)
    elif tag is ChartTag.PF_STANDARD and not np.any(h):     # the pf field is the h = 0 limit
        V, drift = _free_velocity(zeta, 0.0, b.sign, parabolic=True), np.zeros_like(z)
    else:
        raise ChartUnavailable(f"ham_field has no field in chart {tag} (PF_STANDARD: at h = 0)")
    return np.concatenate((bracket * V, drift, np.zeros_like(bracket)), axis=-1)


def from_parabolic_chart(cc: ChartCoords) -> tuple[float, np.ndarray]:
    """Invert a frequency-space chart of geometry.parabolic_chart back to (tau, xi)."""
    co = _as_vector(cc.coords)
    if cc.chart.tag is ChartTag.PAR_FREQ_TAU:
        rho = co[0]
        if rho <= 0.0:
            raise OnBoundary("rho = 0: point at frequency infinity")
        tau = cc.chart.sign / rho**2
        return tau, co[1:] / rho
    if cc.chart.tag is ChartTag.PAR_FREQ_XI:
        rho, tau_hat, others = co[0], co[1], co[2:]
        if rho <= 0.0:
            raise OnBoundary("rho = 0: point at frequency infinity")
        k = cc.chart.k
        xik = cc.chart.sign / rho
        xi = np.empty(others.size + 1)
        xi[k - 1] = xik
        idx = [j for j in range(xi.size) if j != k - 1]
        xi[idx] = others * xik
        return tau_hat * xik**2, xi
    raise ChartUnavailable(f"from_parabolic_chart does not handle {cc.chart.tag}")
