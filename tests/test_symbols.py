"""Metric family, asymptotic mass, principal symbols, and radial points."""

import ast
import math
import subprocess
import sys
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    count_metric_evaluations,
    light_speed_inverse,
    perturbed_metrics,
    profile_grad,
)
from nrlab import experiments as ex, flow, symbols
from nrlab.errors import DegenerateMetric, InvalidInput, OnBoundary, OutOfChart
from nrlab.flow import (
    char_start,
    integrate_flow,
    natural_degeneracy,
    natural_start,
    parabolic_start,
    radial_linearization,
    weight_flow_rate,
)
from nrlab.geometry import (
    ChartCoords,
    ChartId,
    ChartTag,
    ParabolicRay,
    PhasePoint,
    bdf_values,
    from_chart,
    parabolic_chart,
    to_chart,
)
from nrlab.symbols import (
    CharClass,
    ClassicalSymbolProfile,
    MetricParams,
    OperatorCoefficient,
    Side,
    SignBranch,
    _sheet_tau_nat,
    aleph,
    ball_from_base,
    char_membership,
    eval_metric,
    radial_point,
    rescaled_symbol,
)
from test_acceptance import pert_metric
from test_pde import _callers

PL, MI = SignBranch.PLUS, SignBranch.MINUS


class TestProfiles:
    def test_decay_fit(self):
        prof = ClassicalSymbolProfile(amplitude=2.0, order=-1,
                                      waves=(((0.5, 1.0), 0.3, 0.2),))
        rng = np.random.default_rng(0)
        for _ in range(20):
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            rs = np.geomspace(5.0, 500.0, 12)
            vals = np.abs([prof(r * direction) for r in rs])
            if vals.min() < 1e-12:
                continue
            slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
            assert slope <= -0.95

    def test_gradient_matches_fd(self):
        prof = ClassicalSymbolProfile(amplitude=1.5, order=-2,
                                      waves=(((1.0, -0.7), 0.4, 0.1),))
        z = np.array([0.8, -1.4])
        g = profile_grad(prof, z)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1e-6
            fd = (prof(z + e) - prof(z - e)) / 2e-6
            assert abs(g[i] - fd) < 1e-8

    def test_ball_forms_consistent(self):
        # through the metric kernel: a lapse of this one profile puts it in P_00 (h = 1)
        prof = ClassicalSymbolProfile(amplitude=0.7, order=-1,
                                      waves=(((0.3, 0.9), 0.2, 0.5),))
        z = np.array([2.0, -0.5])
        Y = z / math.sqrt(1.0 + float(z @ z))
        mv = eval_metric(MetricParams(d=1, alpha=prof), Y, 1.0, grad=True)
        val, comp = mv.g[0, 0] + 1.0, mv.DP[:, 0, 0]
        assert abs(prof(z) - val) < 1e-14
        rho = (1.0 + float(z @ z)) ** -0.5
        assert np.allclose(comp, profile_grad(prof, z) / rho, atol=1e-12)

    def test_im_coefficient_order_enforced(self):
        with pytest.raises(ValueError):
            OperatorCoefficient(imag=ClassicalSymbolProfile(amplitude=0.1, order=-1))


def _wave(kappa=(0.7, 1.3), cos=0.4, sin=0.2, amplitude=0.1, **profile):
    return ClassicalSymbolProfile(amplitude=amplitude, waves=((kappa, cos, sin),), **profile)


class TestMetricInputs:
    @pytest.mark.parametrize("fields", [
        # a kappa must have one entry per spacetime coordinate, 1+d
        {"alpha": _wave(kappa=(0.7,))},
        {"alpha": _wave(kappa=())},
        {"w": (_wave(kappa=(0.7, 1.3, 0.2)),)},
        {"B": (OperatorCoefficient(real=_wave(kappa=(0.7,))),)},
        # an hjk row must have d entries
        {"hjk": ((_wave(), _wave()),)},
        {"alpha": _wave(amplitude=math.nan)},
        {"alpha": _wave(constant=math.inf)},
        {"alpha": _wave(cos=math.nan)},
        {"alpha": _wave(sin=-math.inf)},
        {"alpha": _wave(kappa=(0.7, math.nan))},
        {"hjk": ((_wave(amplitude=math.inf),),)},
        {"W": OperatorCoefficient(imag=_wave(order=-2, cos=math.nan))},
    ])
    def test_rejected(self, fields):
        with pytest.raises(InvalidInput):
            MetricParams(d=1, **fields)

    def test_accepted(self):
        assert MetricParams(d=1, alpha=_wave(), w=(_wave(),), hjk=((_wave(),),),
                            W=OperatorCoefficient(imag=_wave(order=-2))).d == 1

    @pytest.mark.parametrize("M", [MetricParams.free(1), MetricParams(d=1, alpha=_wave())],
                             ids=["free", "lapse"])
    def test_points_of_another_dimension(self, M):
        # a metric of dimension d takes points of 1 + d coordinates only
        for Y in ([0.1, 0.2, 0.3], np.zeros((4, 3)), [0.1], 0.1):
            with pytest.raises(InvalidInput):
                eval_metric(M, Y, 0.5)
        with pytest.raises(InvalidInput):
            rescaled_symbol(PhasePoint(0.1, [0.2, 0.3], 1.0, [0.5, 0.4], 0.5), M, PL)


class TestInverseMetric:
    def test_free_inverse(self, free_metric):
        gi = light_speed_inverse(free_metric, [0.0, 0.0], 7.0)
        assert np.allclose(gi, np.diag([-1.0 / 49.0, 1.0]))

    def test_alpha_only_example(self):
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=1.0))
        gi = light_speed_inverse(M, [0.0, 0.0], 10.0)
        assert abs(gi[0, 0] - (-1.0 / 99.0)) < 1e-15

    def test_block_scalings_ratio(self, wavy_metric):
        # halving-c ratio oracle: each block's deviation scales with the
        # advertised power of 1/c
        z = np.array([0.4, -0.8])
        devs = {}
        for c in (1.0e3, 2.0e3):
            gi = light_speed_inverse(wavy_metric, z, c)
            devs[c] = (gi[0, 0] + c**-2, gi[0, 1], gi[1, 1] - 1.0)
        for k, power in ((0, 4), (1, 3), (2, 2)):
            r = devs[1.0e3][k] / devs[2.0e3][k]
            assert abs(r - 2.0**power) < 0.25 * 2.0**power

    def test_degenerate(self):
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=1.0))
        with pytest.raises(DegenerateMetric):
            eval_metric(M, ball_from_base([0.0, 0.0]), 1.0)  # -1 + 1 = 0 at the origin


class TestAleph:
    def test_free_zero(self, free_metric):
        assert aleph(free_metric, [0.3, 0.5]) == 0.0

    def test_alpha_gives_minus_alpha(self):
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=2.5))
        assert abs(aleph(M, [0.0, 0.0]) - (-2.5)) < 1e-6

    def test_wind_only_vanishes(self):
        # symbolic 2x2 inversion: g^00 = 1/(-c^2 - w^2/c^2), so
        # c^4 (g^00 + c^-2) = O(c^-2) and the limit is 0
        M = MetricParams(d=1, w=(ClassicalSymbolProfile(amplitude=1.0),))
        val = aleph(M, [0.0, 0.0])
        w0 = 1.0
        exact = lambda c: c**4 * (1.0 / (-c**2 - w0**2 / c**2 * (1 + 0) ) + c**-2)
        assert abs(val) < 1e-6

    def test_linearity_in_alpha(self):
        M1 = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.4))
        M2 = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.8))
        z = [0.7, -0.2]
        assert abs(aleph(M2, z) - 2.0 * aleph(M1, z)) < 1e-6

    def test_field_matches_pointwise(self, wavy_metric):
        pts = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 0.5]])
        vals = aleph(wavy_metric, pts)
        for z, v in zip(pts, vals):
            assert abs(aleph(wavy_metric, z) - v) < 1e-9


class TestClosedForms:
    @given(data=st.data(), d=st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_aleph_is_minus_alpha(self, data, d):
        # oracle: c^4 (g^00 + c^-2) = -alpha + O(c^-2), here at c = 1e3
        M = data.draw(perturbed_metrics(d, amp=1.0))
        pts = np.array(data.draw(st.lists(
            st.lists(st.floats(-5.0, 5.0), min_size=d + 1, max_size=d + 1),
            min_size=1, max_size=4)))
        c = 1.0e3
        vals = aleph(M, pts)
        assert vals.shape == pts.shape[:-1]
        for z, v in zip(pts, vals):
            oracle = c**4 * (light_speed_inverse(M, z, c)[0, 0] + c**-2)
            assert abs(v - oracle) <= 1e-5
            assert abs(aleph(M, z) - v) <= 1e-14

    @given(data=st.data(), d=st.sampled_from([1, 2, 3]),
           h=st.floats(0.05, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_metric_gradient_matches_central_differences(self, data, d, h):
        M = data.draw(perturbed_metrics(d))
        z = np.array(data.draw(st.lists(
            st.lists(st.floats(-3.0, 3.0), min_size=d + 1, max_size=d + 1),
            min_size=1, max_size=4)))
        bracket = np.sqrt(1.0 + np.sum(z * z, axis=-1))
        mv = eval_metric(M, z / bracket[:, None], h, grad=True)
        assert np.allclose(mv.g @ mv.G, np.eye(d + 1), atol=1e-12)
        dG = -h * h * (mv.G[:, None] @ mv.DP @ mv.G[:, None])     # D G = -h^2 G (DP) G
        eps = 1.0e-5
        for l in range(d + 1):
            e = np.zeros(d + 1)
            e[l] = eps
            Gp = eval_metric(M, ball_from_base(z + e), h).G
            Gm = eval_metric(M, ball_from_base(z - e), h).G
            fd = (Gp - Gm) / (2.0 * eps)
            exact = dG[:, l] / bracket[:, None, None]
            assert np.max(np.abs(exact - fd)) <= 1e-8


@st.composite
def ragged_metrics(draw, d):
    """Metrics of dimension d whose profiles carry 0, 1 or 3 waves, some of them zero.

    With |amplitude| <= 0.1, |constant| <= 1 and |cos|, |sin| <= 0.5 each entry of P is
    at most 0.4 in size, so for h <= 1 the natural-units metric is far from degenerate.
    """
    def profile():
        waves = tuple((tuple(draw(st.floats(-2.0, 2.0)) for _ in range(d + 1)),
                       draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
                      for _ in range(draw(st.sampled_from([0, 1, 3]))))
        return ClassicalSymbolProfile(
            amplitude=draw(st.sampled_from([0.0]) | st.floats(-0.1, 0.1)),
            order=draw(st.sampled_from([-1, -2, -3])), constant=draw(st.floats(-1.0, 1.0)),
            waves=waves)

    upper = {(j, k): profile() for j in range(d) for k in range(j, d)}
    hjk = tuple(tuple(upper[min(j, k), max(j, k)] for k in range(d)) for j in range(d))
    return MetricParams(d=d, alpha=profile(), w=tuple(profile() for _ in range(d)), hjk=hjk)


def _base_points(data, d):
    """One to four spacetime points z in [-3, 3]^(1+d)."""
    coords = st.lists(st.floats(-3.0, 3.0), min_size=d + 1, max_size=d + 1)
    return np.array(data.draw(st.lists(coords, min_size=1, max_size=4)))


class TestMetricKernel:
    @given(data=st.data(), d=st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_entries_match_each_profile(self, data, d):
        # oracles: P_ab is the profile's own value at z (its __call__), and DP_ab is
        # <z> times its analytic spacetime gradient (conftest.profile_grad)
        M = data.draw(ragged_metrics(d))
        z = _base_points(data, d)
        bracket = np.sqrt(1.0 + np.sum(z * z, axis=-1))
        mv = eval_metric(M, z / bracket[:, None], 0.5, grad=True)
        P = (mv.g - np.diag([-1.0] + [1.0] * d)) / 0.25
        for a in range(d + 1):
            for b in range(d + 1):
                prof = (M.alpha if a == b == 0 else M.w[a + b - 1] if a * b == 0
                        else M.hjk[a - 1][b - 1])
                np.testing.assert_allclose(P[:, a, b], prof(z), rtol=0.0, atol=1e-13)
                np.testing.assert_allclose(mv.DP[:, :, a, b], profile_grad(prof, z)
                                           * bracket[:, None], rtol=0.0, atol=1e-12)

    @given(data=st.data(), h=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_two_by_two_closed_form(self, data, h):
        # 1 + d = 2: G = adj(g)/det in closed form, exactly symmetric, and within 1e-14
        # of LAPACK's inverse; det(g) det(G) = 1 puts the closed det against LAPACK's
        M = data.draw(ragged_metrics(1))
        mv = eval_metric(M, ball_from_base(_base_points(data, 1)), h)
        scale = np.max(np.abs(mv.G), axis=(-2, -1))[:, None, None]
        assert np.all(np.abs(mv.G - np.linalg.inv(mv.g)) <= 1e-14 * scale)
        assert np.array_equal(mv.G, np.swapaxes(mv.G, -1, -2))
        assert np.all(np.abs(np.linalg.det(mv.g) * np.linalg.det(mv.G) - 1.0) <= 1e-14)


def test_the_metric_inverse_has_one_home():
    # np.linalg's inv and det run in symbols.eval_metric alone, so that no second
    # hand-made inverse of the metric comes back
    homes = set()
    for path in sorted(Path(symbols.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for unit in (node for top in tree.body
                     for node in (top.body if isinstance(top, ast.ClassDef) else [top])):
            for node in ast.walk(unit):
                if ((isinstance(node, ast.Attribute) and node.attr in ("inv", "det")
                     and ast.unparse(node.value).endswith("linalg"))
                        or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg")):
                    homes.add((path.name, getattr(unit, "name", node.lineno)))
    assert homes == {("symbols.py", "eval_metric")}


class TestPointwiseH:
    @given(data=st.data(), d=st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_array_h_matches_scalar_calls(self, data, d):
        # h is a phase-space coordinate: each point may carry its own
        M = data.draw(perturbed_metrics(d))
        Y = np.array(data.draw(st.lists(
            st.lists(st.floats(-0.6, 0.6), min_size=d + 1, max_size=d + 1),
            min_size=1, max_size=5)))
        h = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-200, 0.1, 0.5]),
                                        min_size=len(Y), max_size=len(Y))))
        batch = eval_metric(M, Y, h, grad=True)
        for k in range(len(Y)):
            one = eval_metric(M, Y[k], h[k], grad=True)
            for got, want in zip(batch, one):
                np.testing.assert_allclose(got[k], want, rtol=1e-14, atol=1e-15)

    @given(data=st.data(), d=st.sampled_from([1, 2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_h_zero_rows_are_minkowski(self, data, d):
        # at h = 0 the natural-units metric is eta whatever the profiles, and
        # no row of the batch divides by h; DP, the profiles' own gradient, does
        # not depend on h, so the metric's D G = -h^2 G (DP) G vanishes there
        M = data.draw(perturbed_metrics(d))
        Y = np.array(data.draw(st.lists(
            st.lists(st.floats(-0.6, 0.6), min_size=d + 1, max_size=d + 1),
            min_size=2, max_size=6)))
        h = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5]),
                                        min_size=len(Y), max_size=len(Y))))
        h[:2] = 0.0, 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mv = eval_metric(M, Y, h, grad=True)
        eta = np.diag([-1.0] + [1.0] * d)
        at_zero = h == 0.0
        assert np.array_equal(mv.g[at_zero], np.broadcast_to(eta, mv.g[at_zero].shape))
        assert np.array_equal(mv.G[at_zero], np.broadcast_to(eta, mv.G[at_zero].shape))
        at_h = eval_metric(M, Y, 0.3, grad=True).DP
        assert np.array_equal(mv.DP, at_h) and np.isfinite(mv.DP).all()
        dG = -(h * h)[:, None, None, None] * (mv.G[:, None] @ mv.DP @ mv.G[:, None])
        assert not np.any(dG[at_zero])


class TestPrincipalSymbol:
    def test_free_interior_zero_frequency(self, free_metric):
        p = PhasePoint(0.0, [0.0], 0.0, [0.0], 1.0)
        assert rescaled_symbol(p, free_metric, PL) / p.h / p.h == 0.0

    def test_free_df_chart_on_cone(self, free_metric):
        # rho_df = 0, |xi_hat| = 1 on the Sigma branch
        cc = ChartCoords(ChartId(ChartTag.DF_PROJECTIVE, sign=+1),
                         np.array([0.0, 0.0, 0.0, 1.0, 0.3]),
                         None)
        assert abs(rescaled_symbol(cc, free_metric, PL)) < 1e-14

    def test_free_pf_parabolic_corner(self, free_metric):
        # |xi_hat|^2 = 2, rho_pf = 0
        cc = ChartCoords(ChartId(ChartTag.PF_NAT_PARABOLIC, sign=+1),
                         np.array([0.0, 0.0, 0.5, math.sqrt(2.0), 0.0]),
                         None)
        assert abs(rescaled_symbol(cc, free_metric, PL)) < 1e-14

    def test_equals_free_form_on_boundary(self, wavy_metric):
        # p = p0 on the natural face and spacetime infinity
        rng = np.random.default_rng(5)
        free = MetricParams.free(1)
        for _ in range(1000):
            zeta = rng.normal(size=2)
            # natural face: h = 0 at finite base point
            p0 = PhasePoint(rng.normal(), rng.normal(size=1), zeta[0], zeta[1:], 0.0)
            a = rescaled_symbol(p0, wavy_metric, PL)
            bb = rescaled_symbol(p0, free, PL)
            assert abs(a - bb) <= 1e-12

    def test_sheet_formula(self, free_metric):
        # (tau_nat +/- 1)^2 - xi_nat^2 = 1  <=>  rescaled symbol = 0
        p = PhasePoint(0.0, [0.0], 1.0, [math.sqrt(3.0)], 0.3)
        assert abs(rescaled_symbol(p, free_metric, PL)) < 1e-14


class TestHamiltonField:
    """The natural symbol's value, its Hamilton field and its sheet root have one
    home, symbols; the field is tied to the value by central differences."""

    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), h=st.floats(0.0, 0.5),
           b=st.sampled_from([PL, MI]))
    @settings(max_examples=60, deadline=None)
    def test_field_is_the_hamilton_field_of_the_value(self, data, d, h, b):
        # V = (h/2 dp/dtau_nat, 1/2 dp/dxi_nat) and drift = -(1/2) <z> (h d_t p, d_x p),
        # p = h^2 p the value function, at base points with |z| <= 3
        M = data.draw(perturbed_metrics(d))
        n = d + 1
        z, zeta = (np.array(data.draw(st.lists(st.floats(-lim, lim), min_size=n, max_size=n)))
                   for lim in (3.0, 2.0))
        z *= min(1.0, 3.0 / max(np.linalg.norm(z), 1.0))
        step = 1.0e-6
        pm = np.concatenate((np.eye(n), -np.eye(n))) * step

        def central(values):
            plus, minus = np.split(values, 2)
            return (plus - minus) / (2.0 * step)

        dzeta = central(symbols._symbol_value(M, ball_from_base(z), zeta + pm, h, b.sign))
        dz = central(symbols._symbol_value(M, ball_from_base(z + pm), zeta, h, b.sign))
        V, drift = symbols._natural_field(M, ball_from_base(z), zeta, h, b.sign)
        time = np.append(h, np.ones(d))         # the time rows carry h
        assert np.max(np.abs(V - 0.5 * time * dzeta)) <= 1e-7
        assert np.max(np.abs(drift + 0.5 * math.sqrt(1.0 + z @ z) * time * dz)) <= 1e-7


def test_the_natural_symbol_has_one_home():
    # the metric is evaluated by the natural symbol's functions in symbols and by
    # pde's terms table alone: flow integrates their fields and evaluates none,
    # and the symbol's value is written once, for the charts and the flow residual
    assert _callers("eval_metric") == {
        ("symbols.py", "_symbol_value"), ("symbols.py", "_natural_field"),
        ("symbols.py", "_sheet_tau_nat"), ("pde.py", "_operator_terms")}
    assert "eval_metric" not in vars(flow)
    assert _callers("_symbol_value") == {("symbols.py", "rescaled_symbol"),
                                         ("flow.py", "_p_residuals")}


class TestCharMembership:
    def test_zero_section_on_sigma(self, free_metric):
        p = PhasePoint(0.0, [0.0], 0.0, [0.0], 0.0)
        assert char_membership(p, free_metric, PL) is CharClass.SIGMA

    def test_bad_sheet(self, free_metric):
        p = PhasePoint(0.0, [0.0], -2.0, [0.0], 0.0)
        assert char_membership(p, free_metric, PL) is CharClass.SIGMA_BAD

    def test_example_point(self, free_metric):
        p = PhasePoint(0.0, [0.0], 1.0, [math.sqrt(3.0)], 0.3)
        assert char_membership(p, free_metric, PL) is CharClass.SIGMA

    def test_off(self, free_metric):
        p = PhasePoint(0.0, [0.0], 0.5, [0.0], 0.2)
        assert char_membership(p, free_metric, PL) is CharClass.OFF

    def test_sheets_disjoint(self, free_metric):
        # no sampled point classifies as both under any tol <= 0.1
        rng = np.random.default_rng(6)
        for _ in range(2000):
            xi = rng.uniform(-3, 3, size=1)
            for branch in (PL, MI):
                for sheet_sign in (+1, -1):
                    root = math.sqrt(1.0 + float(xi @ xi))
                    tau = branch.sign * (sheet_sign * root - 1.0)
                    p = PhasePoint(0.0, [0.0], tau, xi, 0.0)
                    m = char_membership(p, free_metric, branch, tol=0.1)
                    assert m in (CharClass.SIGMA, CharClass.SIGMA_BAD)
                    # the two sheets are separated by +/-tau_nat = -1
                    if sheet_sign > 0:
                        assert m is CharClass.SIGMA
                    else:
                        assert m is CharClass.SIGMA_BAD


PHASE_CHARTS = [ChartId(tag) for tag in (ChartTag.NAT_INTERIOR, ChartTag.DF_PROJECTIVE,
                                          ChartTag.PF_STANDARD, ChartTag.PF_NAT_PARABOLIC)]


def _points(data, d, zeta_max=4.0):
    """Base points z (1+d), natural frequencies zeta_nat (1+d) and 0.05 <= h <= 0.5."""
    def vec(bound):     # no entry within 1e-3 of 0 but 0 itself: 1/|tau_nat| stays finite
        entry = st.one_of(st.just(0.0), st.floats(1e-3, bound), st.floats(-bound, -1e-3))
        return np.array(data.draw(st.lists(entry, min_size=d + 1, max_size=d + 1)))
    return vec(3.0), vec(zeta_max), data.draw(st.floats(0.05, 0.5))


def _in_charts(p):
    """The phase-space charts' coordinates of an interior point, where they exist."""
    out = []
    for chart in PHASE_CHARTS:
        try:
            out.append(to_chart(p, chart))
        except OutOfChart:
            pass
    return out


class TestChartRescaledSymbol:
    @given(data=st.data(), d=st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_is_local_bdf_scaled_p(self, data, d):
        # oracle: in each chart the rescaled symbol is rho_df^2 rho_nf^2 p
        # in that chart's local bdfs, for perturbed metrics at h > 0
        M = data.draw(perturbed_metrics(d))
        z, zeta, h = _points(data, d)
        p = PhasePoint(z[0], z[1:], zeta[0], zeta[1:], h)
        # the size of p's terms, -G(zeta, zeta) and 2 tau
        size = (1.0 + zeta @ zeta + 2.0 * abs(zeta[0])) / h**2
        for cc in _in_charts(p):
            scale = cc.bdf.rho_df**2 * cc.bdf.rho_nf**2
            for b in (PL, MI):
                want = scale * rescaled_symbol(p, M, b) / h / h
                assert abs(rescaled_symbol(cc, M, b) - want) <= 1e-10 * scale * size

    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), b=st.sampled_from([PL, MI]))
    @settings(max_examples=60, deadline=None)
    def test_membership_in_every_chart(self, data, d, b):
        # both roots of the symbol's quadratic in tau_nat, and a point off
        # them, classified alike in every chart that holds them
        M = data.draw(perturbed_metrics(d))
        z, zeta, h = _points(data, d, zeta_max=2.0)
        xi = zeta[1:]
        G = eval_metric(M, ball_from_base(z), h).G
        A, B, C = G[0, 0], G[0, 1:] @ xi - b.sign, xi @ G[1:, 1:] @ xi
        q = -(B + math.copysign(math.sqrt(B * B - A * C), B))
        bad, good = sorted((C / q, q / A), key=lambda tau: b.sign * tau)
        for tau, want in ((good, CharClass.SIGMA), (bad, CharClass.SIGMA_BAD),
                          (good + 0.3, CharClass.OFF)):
            p = PhasePoint(z[0], z[1:], tau, xi, h)
            assert char_membership(p, M, b) is want
            charts = _in_charts(p)
            assert ChartTag.NAT_INTERIOR in {cc.chart.tag for cc in charts}
            for cc in charts:
                assert char_membership(cc, M, b) is want, cc.chart

    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), b=st.sampled_from([PL, MI]),
           sign=st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_membership_on_the_df_face(self, data, d, b, sign):
        # at rho_df = 0 the symbol is -G(zeta_hat, zeta_hat): on the cone the
        # point is on Sigma when +/- tau_nat -> +infinity, else on the bad sheet
        M = data.draw(perturbed_metrics(d))
        z, zeta, h = _points(data, d)
        assume(zeta[1:] @ zeta[1:] > 1e-6)
        e = zeta[1:] / np.linalg.norm(zeta[1:])
        G = eval_metric(M, ball_from_base(z), h).G
        A, B, C = G[0, 0], sign * (G[0, 1:] @ e), e @ G[1:, 1:] @ e
        r = (-B + math.sqrt(B * B - A * C)) / C       # G((sign, r e), (sign, r e)) = 0
        side = CharClass.SIGMA if b.sign * sign > 0 else CharClass.SIGMA_BAD
        for xi_hat, want in ((r * e, side), (1.1 * r * e, CharClass.OFF)):
            cc = ChartCoords(ChartId(ChartTag.DF_PROJECTIVE, sign=sign),
                             np.concatenate((z, [0.0], xi_hat, [h])), None)
            assert char_membership(cc, M, b) is want


class TestRadialPoints:
    def test_zero_frequency_pole(self):
        rp = radial_point([0.0], 1.0, Side.FUTURE, PL)
        assert rp.tau_nat == 0.0
        assert np.allclose(rp.direction, [1.0, 0.0])

    def test_h_zero_limit(self):
        rp = radial_point([0.0], 0.0, Side.FUTURE, PL)
        assert np.allclose(rp.direction, [1.0, 0.0])  # pf-chart pole limit

    def test_example_direction(self):
        rp = radial_point([math.sqrt(3.0)], 0.5, Side.FUTURE, PL)
        assert abs(rp.tau_nat - 1.0) < 1e-14
        expect = np.array([1.0, -math.sqrt(3.0)])
        expect /= np.linalg.norm(expect)
        assert np.allclose(rp.direction, expect)

    @given(xi=st.floats(-3, 3), h=st.floats(0, 1),
           branch=st.sampled_from([PL, MI]),
           side=st.sampled_from([Side.PAST, Side.FUTURE]))
    @settings(max_examples=200, deadline=None)
    def test_on_sigma(self, xi, h, branch, side):
        rp = radial_point([xi], h, side, branch)
        p = PhasePoint(0.0, [0.0], rp.tau_nat, rp.xi_nat, h)
        assert char_membership(p, MetricParams.free(1), branch) is CharClass.SIGMA


class TestNonFinitePoints:
    """A point with a non-finite coordinate or a negative h is no point."""

    def test_nan_frequency(self, free_metric):
        with pytest.raises(InvalidInput):
            char_membership(PhasePoint(0, [0], math.nan, [0], 0.5), free_metric, PL)

    def test_infinite_base_point(self, free_metric):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                char_membership(PhasePoint(math.inf, [0], 0, [0], 0.5), free_metric, PL)

    def test_nan_h(self):
        with pytest.raises(InvalidInput):
            bdf_values(PhasePoint(0, [0], 0, [0], math.nan))

    def test_radial_point_negative_h(self):
        with pytest.raises(InvalidInput):
            radial_point([0.5], -0.5, Side.FUTURE, PL)

    def test_radial_point_nan_frequency(self):
        with pytest.raises(InvalidInput):
            radial_point([math.nan], 0.5, Side.FUTURE, PL)

    @pytest.mark.parametrize("call", [
        lambda M: natural_start([0.1, 0.2], [math.nan, 1.0], 0.3),
        lambda M: natural_start([0.1, 0.2], [0.5, 1.0], math.inf),
        lambda M: natural_start([0.1, math.nan], [0.5, 1.0], 0.3),
        lambda M: char_start(M, PL, [0.1, 0.2], [1.0], -0.3),
        lambda M: char_start(M, PL, [0.1, 0.2], [math.inf], 0.3),
        lambda M: parabolic_start([0.1, 0.2], math.nan, [1.0]),
        lambda M: parabolic_chart(math.nan, [1.0]),
        lambda M: parabolic_chart(math.inf, [1.0]),
        lambda M: parabolic_chart(4.0, [-math.inf]),
        lambda M: ParabolicRay(1.0, [0.0], [1.0, math.nan]),
        lambda M: natural_start([0.1, 0.2], [0.5, 1.0], 1e300),
        lambda M: char_start(M, PL, [0.1, 0.2], [1.0], 1e300),
    ], ids=["start_nan_zeta", "start_inf_h", "start_nan_Y", "char_start_negative_h",
            "char_start_inf_xi", "parabolic_start_nan_tau", "chart_nan_tau",
            "chart_inf_tau", "chart_inf_xi", "ray_nan_s", "start_h2_overflows",
            "char_start_h2_overflows"])
    def test_one_point_functions(self, free_metric, call):
        # flow starts and the frequency charts check what PhasePoint checks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                call(free_metric)


class TestSigns:
    """A side or branch is a Side or SignBranch, or per-point signs +/-1 that
    broadcast against the batch; any other sign is InvalidInput.  A batch
    that mixes the branches equals the per-branch calls bit for bit."""

    @pytest.mark.parametrize("side", [[0, 2], [1, 0.5], [1, math.nan], "FUTURE"])
    def test_radial_point_rejects_other_side_signs(self, side):
        # at 0 the direction was [0, -0], at 2 of norm 2, with a doubled rate
        with pytest.raises(InvalidInput, match="sign"):
            radial_point([[1.0], [0.5]], 0.3, side, PL)

    @pytest.mark.parametrize("b", [2, 0, [1, -2], "PLUS", None, Side.FUTURE.name])
    def test_other_branch_signs_are_rejected(self, free_metric, b):
        p = PhasePoint(0.0, [0.1], [0.5, 0.6], [1.0], 0.3)
        rp = radial_point([[1.0], [0.5]], 0.3, 1, PL)
        for call in (lambda: rescaled_symbol(p, free_metric, b),
                     lambda: char_membership(p, free_metric, b),
                     lambda: radial_point([[1.0], [0.5]], 0.3, 1, b),
                     lambda: weight_flow_rate(rp, (0.0, 1.0, 0.0, 0.0), free_metric, b)):
            with pytest.raises(InvalidInput, match="sign"):
                call()

    @pytest.mark.parametrize("xi,side,b", [
        ([[1.0], [2.0]], [1, -1, 1], PL),      # three sides for two points
        ([1.0], 1, [1, -1]),                   # two branches for one point
        ([[1.0], [2.0]], [[1], [-1]], PL),     # broadcasts, but past the batch
        ([[1.0], [2.0]], 1, [[-1, 1]]),
    ])
    def test_radial_point_rejects_signs_that_do_not_fit_the_batch(self, xi, side, b):
        with pytest.raises(InvalidInput, match="sign"):
            radial_point(xi, 0.3, side, b)

    def test_radial_point_broadcasts_signs_to_the_batch(self):
        rp = radial_point([[1.0], [2.0]], 0.3, [-1], np.array(1))
        want = radial_point([[1.0], [2.0]], 0.3, Side.PAST, PL)
        assert (rp.direction == want.direction).all() and rp.direction.shape == (2, 2)

    def test_mixed_branch_batch_equals_per_branch_calls(self, wavy_metric):
        rng = np.random.default_rng(17)
        n = 16
        signs = rng.permutation(np.resize([1, -1], n))
        side = rng.choice([-1, 1], n)
        xi, h = rng.uniform(-2.0, 2.0, (n, 1)), rng.uniform(0.0, 0.5, n)
        t, x = rng.normal(size=n), rng.normal(size=(n, 1))
        rp = radial_point(xi, h, side, signs)
        orders = (0.5, 1.0, -1.0, 2.0)
        rate = weight_flow_rate(rp, orders, wavy_metric, signs)
        # rows on their branch's sheet and 0.3 off it
        tau = _sheet_tau_nat(wavy_metric, ball_from_base(np.concatenate((t[:, None], x), axis=1)),
                             xi, h, signs) + rng.choice([0.0, 0.3], n)
        p = PhasePoint(t, x, tau, xi, h)
        symbol, member = (f(p, wavy_metric, signs) for f in (rescaled_symbol, char_membership))
        assert set(member) == {CharClass.SIGMA, CharClass.OFF}
        for b in (PL, MI):
            m = signs == b.sign
            one = radial_point(xi[m], h[m], side[m], b)
            for name in ("tau_nat", "xi_nat", "direction"):
                assert (getattr(rp, name)[m] == getattr(one, name)).all(), name
            assert (rate[m] == weight_flow_rate(one, orders, wavy_metric, b)).all()
            pm = PhasePoint(t[m], x[m], tau[m], xi[m], h[m])
            assert (symbol[m] == rescaled_symbol(pm, wavy_metric, b)).all()
            assert (member[m] == char_membership(pm, wavy_metric, b)).all()

    def test_sign_check_loads_no_module(self):
        # the per-point check runs on every batch; it must not pull in a
        # module (np.unique would load numpy.ma) on its first use
        script = ("import sys\n"
                  "from nrlab.symbols import MetricParams, radial_point, rescaled_symbol\n"
                  "from nrlab.geometry import PhasePoint\n"
                  "before = set(sys.modules)\n"
                  "rp = radial_point([[1.0], [0.5]], 0.3, [1, -1], [-1, 1])\n"
                  "rescaled_symbol(PhasePoint(0.0, [0.0], rp.tau_nat, rp.xi_nat, 0.3),\n"
                  "                MetricParams.free(1), [-1, 1])\n"
                  "try:\n"
                  "    radial_point([1.0], 0.3, 2, 1)\n"
                  "except Exception as e:\n"
                  "    print(type(e).__name__)\n"
                  "print(sorted(set(sys.modules) - before))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["InvalidInput", "[]"]


def _rows(p):
    """The points of a PhasePoint batch of shape (N,), one by one."""
    return [PhasePoint(p.t[i], p.x[i], p.tau_nat[i], p.xi_nat[i], p.h[i])
            for i in range(p.t.size)]


def _take(p, idx):
    return PhasePoint(p.t[idx], p.x[idx], p.tau_nat[idx], p.xi_nat[idx], p.h[idx])


def _same(batch, rows):
    """A batched result equals its row-by-row values (CharClass rows exactly)."""
    batch = np.broadcast_to(batch, (len(rows),) + np.shape(rows[0]))
    for got, want in zip(batch, rows):
        if isinstance(want, CharClass):
            assert got is want
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


class TestBatchedPoints:
    """The point layer evaluates a batch of points as it evaluates each row,
    for perturbed metrics, with rows on and off the sheets, outside a chart
    and on a boundary face, and raises no floating-point warning; a
    one-point function given a batch raises InvalidInput."""

    N = 12
    MIXED = np.resize([1, -1, -1], N)       # per-point branch signs, both sheets in one batch

    @classmethod
    def _branches(cls, b):
        """The branch argument of a batch, PL, MI or (for None) MIXED, and each row's."""
        if b is None:
            return cls.MIXED, [SignBranch(s) for s in cls.MIXED.tolist()]
        return b, [b] * cls.N

    @classmethod
    def _points(cls, M, h, b):
        """Rows on the sheet, 0.3 off it, and with a large |tau_nat| (in the
        df chart, not in the pf charts at small h)."""
        rng = np.random.default_rng(M.d)
        z = rng.normal(size=(cls.N, 1 + M.d)) * 2.0
        xi = rng.normal(size=(cls.N, M.d))
        tau = _sheet_tau_nat(M, ball_from_base(z), xi, h, b)
        tau[::3] += 0.3
        tau[1::4] = rng.choice([-1.0, 1.0], size=tau[1::4].size) * 20.0
        return PhasePoint(z[:, 0], z[:, 1:], tau, xi, h)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("h", [0.0, 1e-3, 0.3])
    @given(data=st.data(), b=st.sampled_from([PL, MI, None]))
    @settings(max_examples=3, deadline=None)
    def test_rows(self, d, h, data, b):
        M = data.draw(perturbed_metrics(d))
        b, bs = self._branches(b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = self._points(M, h, b)
            rows = _rows(p)
            for f, g in ((lambda q: rescaled_symbol(q, M, b), rescaled_symbol),
                         (lambda q: char_membership(q, M, b), char_membership)):
                _same(f(p), [g(q, M, bq) for q, bq in zip(rows, bs)])
            for f in (natural_degeneracy, lambda q: np.stack(astuple(bdf_values(q)), axis=-1)):
                _same(f(p), [f(q) for q in rows])
            assert ({char_membership(q, M, bq) for q, bq in zip(rows, bs)}
                    >= {CharClass.SIGMA, CharClass.OFF})
            for chart in PHASE_CHARTS:
                self._check_chart(p, rows, chart, M, b, bs)

    def _check_chart(self, p, rows, chart, M, b, bs):
        ok, ccs = [], []
        for i, q in enumerate(rows):
            try:
                ccs.append(to_chart(q, chart))
                ok.append(i)
            except OutOfChart:
                pass
        if len(ok) < self.N:
            with pytest.raises(OutOfChart, match=f"at {self.N - len(ok)} of {self.N} points"):
                to_chart(p, chart)
        if not ok:
            return
        cc = to_chart(_take(p, ok), chart)
        _same(cc.coords, [c.coords for c in ccs])
        _same(cc.sign, [c.sign for c in ccs])
        for name in ("rho_df", "rho_bf", "rho_nf", "rho_pf"):
            _same(getattr(cc.bdf, name), [getattr(c.bdf, name) for c in ccs])
        b_ok, bs_ok = (b if isinstance(b, SignBranch) else b[ok]), [bs[i] for i in ok]
        for f in (rescaled_symbol, char_membership):
            _same(f(cc, M, b_ok), [f(c, M, bc) for c, bc in zip(ccs, bs_ok)])
        for f in (lambda q: from_chart(q).z, lambda q: from_chart(q).zeta_nat,
                  lambda q: from_chart(q).h):
            _same(f(cc), [f(c) for c in ccs])
        bdf_slot = {ChartTag.DF_PROJECTIVE: 1 + M.d, ChartTag.PF_STANDARD: -1,
                    ChartTag.PF_NAT_PARABOLIC: -1}.get(chart.tag)
        if bdf_slot is not None:
            co = cc.coords.copy()
            co[0, bdf_slot] = 0.0          # one row on a boundary face
            with pytest.raises(OnBoundary, match=f"at 1 of {len(ok)} points"):
                from_chart(ChartCoords(cc.chart, co, None, cc.sign))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("h", [0.0, 1e-3, 0.3])
    @given(data=st.data(), b=st.sampled_from([PL, MI, None]))
    @settings(max_examples=3, deadline=None)
    def test_radial_rows(self, d, h, data, b):
        M = data.draw(perturbed_metrics(d))
        b, bs = self._branches(b)
        rng = np.random.default_rng(d)
        xi = rng.normal(size=(self.N, d))
        xi[0] = 0.0                              # the pole at h = 0
        signs = rng.choice([-1, 1], size=self.N)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rp = radial_point(xi, h, signs, b)
            rows = [radial_point(x, h, Side.FUTURE if s > 0 else Side.PAST, br)
                    for x, s, br in zip(xi, signs, bs)]
            for name in ("tau_nat", "xi_nat", "h", "direction", "zeta_nat"):
                _same(getattr(rp, name), [getattr(r, name) for r in rows])
            orders = (0.5, 1.0, -1.0, 2.0)
            _same(weight_flow_rate(rp, orders, M, b),
                  [weight_flow_rate(r, orders, M, br) for r, br in zip(rows, bs)])

    def test_one_point_functions_reject_a_batch(self, free_metric):
        p = PhasePoint([0.0, 0.1], [[0.2], [0.3]], [0.5, 0.6], [[1.0], [1.2]], 0.3)
        rp = radial_point([[1.0], [1.2]], 0.3, [1, -1], PL)
        one_point = [
            lambda: radial_linearization(rp, free_metric, PL),
            lambda: integrate_flow(p, "forward", free_metric, PL),
            lambda: natural_start(np.zeros((2, 2)), np.ones((2, 2)), 0.3),
            lambda: parabolic_start(np.zeros(2), [1.0, 2.0], [[1.0], [1.0]]),
            lambda: char_start(free_metric, PL, np.zeros((2, 2)), [[1.0], [1.0]], 0.3),
            lambda: to_chart(p, ChartId(ChartTag.PAR_FREQ_TAU)),
            lambda: parabolic_chart([1.0, 2.0], [1.0]),
            lambda: ParabolicRay(1.0, [[0.0], [1.0]], [1.0, 2.0]),
        ]
        for call in one_point:
            with pytest.raises(InvalidInput):
                call()

    def test_experiments_evaluate_the_metric_once_per_kernel(self, monkeypatch):
        # one evaluation per kernel over both branches' samples: charset's
        # symbol, radial's membership and field, alpha's rate (all its s from
        # one), qdf's field (the free sheet root takes none)
        calls = count_metric_evaluations(monkeypatch)
        counts = {}
        for name in ("charset", "radial", "alpha", "qdf"):
            calls.clear()
            getattr(ex, name)(np.random.default_rng(7))
            counts[name] = len(calls)
        assert counts == {"charset": 1, "radial": 2, "alpha": 1, "qdf": 1}

    def test_qdf_command_probes_each_branch_in_one_pass(self, monkeypatch):
        # a perturbed metric takes the sheet roots and the field in one
        # evaluation each, over every centre's rows of both branches
        calls = count_metric_evaluations(monkeypatch)
        ex.qdf(np.random.default_rng(7), pert_metric(0.1), n_centers=10)
        assert calls == [(10, 60 + 8)] * 2
