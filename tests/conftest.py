import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from nrlab import quantize
from nrlab.symbols import (
    ClassicalSymbolProfile,
    MetricParams,
    OperatorCoefficient,
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


def count_transforms(monkeypatch):
    """Record (axes, inverse) of every call to the grid transform entry point,
    quantize.transform, made from here on by any nrlab module."""
    calls, real = [], quantize.transform

    def counted(a, axes=None, inverse=False):
        calls.append((axes, inverse))
        return real(a, axes, inverse)

    _rebind(monkeypatch, "transform", real, counted)
    return calls


def count_metric_evaluations(monkeypatch):
    """Record the batch shape of every call to symbols.eval_metric made from
    here on by any nrlab module."""
    calls, real = [], eval_metric

    def counted(M, Y, *args, **kwargs):
        calls.append(np.shape(Y)[:-1])
        return real(M, Y, *args, **kwargs)

    _rebind(monkeypatch, "eval_metric", real, counted)
    return calls
