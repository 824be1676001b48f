"""Metric family, asymptotic mass, principal symbols, and radial points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import perturbed_metrics
from nrlab.errors import DegenerateMetric
from nrlab.geometry import ChartCoords, ChartId, ChartTag, PhasePoint, to_chart
from nrlab.symbols import (
    CharClass,
    ClassicalSymbolProfile,
    MetricParams,
    OperatorCoefficient,
    Side,
    SignBranch,
    aleph,
    aleph_field,
    char_membership,
    eval_metric,
    eval_p,
    inverse_metric,
    metric_matrix,
    natural_quadform,
    radial_point,
    rescaled_symbol,
)

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
        g = prof.grad(z)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1e-6
            fd = (prof(z + e) - prof(z - e)) / 2e-6
            assert abs(g[i] - fd) < 1e-8

    def test_ball_forms_consistent(self):
        prof = ClassicalSymbolProfile(amplitude=0.7, order=-1,
                                      waves=(((0.3, 0.9), 0.2, 0.5),))
        z = np.array([2.0, -0.5])
        Y = z / math.sqrt(1.0 + float(z @ z))
        assert abs(prof(z) - prof.eval_ball(Y)) < 1e-14
        rho = (1.0 + float(z @ z)) ** -0.5
        comp = prof.comp_grad_ball(Y)
        assert np.allclose(comp, prof.grad(z) / rho, atol=1e-12)

    def test_im_coefficient_order_enforced(self):
        with pytest.raises(ValueError):
            OperatorCoefficient(imag=ClassicalSymbolProfile(amplitude=0.1, order=-1))


class TestInverseMetric:
    def test_free_inverse(self, free_metric):
        gi = inverse_metric(free_metric, [0.0, 0.0], 7.0)
        assert np.allclose(gi, np.diag([-1.0 / 49.0, 1.0]))

    def test_alpha_only_example(self):
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=1.0))
        gi = inverse_metric(M, [0.0, 0.0], 10.0)
        assert abs(gi[0, 0] - (-1.0 / 99.0)) < 1e-15

    def test_block_scalings_ratio(self, wavy_metric):
        # halving-c ratio oracle: each block's deviation scales with the
        # advertised power of 1/c
        z = np.array([0.4, -0.8])
        devs = {}
        for c in (1.0e3, 2.0e3):
            gi = inverse_metric(wavy_metric, z, c)
            devs[c] = (gi[0, 0] + c**-2, gi[0, 1], gi[1, 1] - 1.0)
        for k, power in ((0, 4), (1, 3), (2, 2)):
            r = devs[1.0e3][k] / devs[2.0e3][k]
            assert abs(r - 2.0**power) < 0.25 * 2.0**power

    def test_degenerate(self):
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=1.0))
        with pytest.raises(DegenerateMetric):
            inverse_metric(M, [0.0, 0.0], 1.0)  # -1 + 1 = 0 at the origin


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
        vals = aleph_field(wavy_metric, pts)
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
            oracle = c**4 * (inverse_metric(M, z, c)[0, 0] + c**-2)
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
        assert np.allclose(mv.g @ mv.ginv, np.eye(d + 1), atol=1e-12)
        eps = 1.0e-5
        for l in range(d + 1):
            e = np.zeros(d + 1)
            e[l] = eps
            Gp = natural_quadform(M, z + e, h)
            Gm = natural_quadform(M, z - e, h)
            fd = (Gp - Gm) / (2.0 * eps)
            exact = mv.dG[:, l] / bracket[:, None, None]
            assert np.max(np.abs(exact - fd)) <= 1e-8


class TestPrincipalSymbol:
    def test_free_interior_zero_frequency(self, free_metric):
        p = PhasePoint(0.0, [0.0], 0.0, [0.0], 1.0)
        assert eval_p(p, free_metric, PL) == 0.0

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


class TestPreflight:
    def test_c_min_reported(self):
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=3.0))
        from nrlab.symbols import c_min_preflight
        cmin = c_min_preflight(M)
        assert cmin >= 2.0
        # metric nondegenerate at the reported c on a fresh sample
        rng = np.random.default_rng(9)
        for _ in range(50):
            inverse_metric(M, rng.uniform(-50, 50, size=2), cmin)
