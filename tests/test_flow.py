"""Hamiltonian flow: fields, trajectories, attraction probes, thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import perturbed_metrics
from nrlab.errors import ChartUnavailable, DegenerateMetric
from nrlab.geometry import ChartId, ChartTag, PhasePoint, to_chart
from nrlab.symbols import (
    ClassicalSymbolProfile,
    MetricParams,
    Side,
    SignBranch,
    eval_metric,
    radial_point,
)
from nrlab.flow import (
    _natural_rhs_d1,
    _sheet_tau,
    _sheet_tau_nat_perturbed,
    _state_rhs,
    Termination,
    char_start,
    ham_field,
    integrate_flow,
    natural_degeneracy,
    natural_start,
    parabolic_start,
    qdf_probe,
    radial_linearization,
    to_radial_chart,
    weight_flow_rate,
)

PL, MI = SignBranch.PLUS, SignBranch.MINUS


class TestHamField:
    def test_nat_interior_zero_section(self, free_metric):
        p = PhasePoint(0.0, [0.0], 0.0, [0.0], 1.0)
        tv = ham_field(to_chart(p, ChartId(ChartTag.NAT_INTERIOR)), free_metric, PL)
        assert tv.components[0] > 0            # d/dt component positive
        assert abs(tv.components[1]) < 1e-14   # no spatial motion
        assert np.all(tv.components[2:] == 0)

    def test_radial_chart_scaling(self, free_metric):
        # field = sigma xi_1 (s d_s + rho d_rho + w d_w); here sigma = +1
        rp = radial_point([1.0], 0.2, Side.PAST, PL)
        cc = to_radial_chart(rp, offsets=[0.1, 0.2])
        tv = ham_field(cc, free_metric, PL)
        assert np.allclose(tv.components[:2], [0.1, 0.2], atol=1e-14)

    def test_vanishes_at_radial_set(self, free_metric):
        rp = radial_point([0.7], 0.4, Side.FUTURE, PL)
        tv = ham_field(to_radial_chart(rp), free_metric, PL)
        assert tv.norm <= 1e-10

    def test_b_tangency_linear_vanishing(self, free_metric):
        # the d_rho_bf coefficient vanishes linearly: coefficient/rho has a
        # nonzero limit at rho = 0
        rp = radial_point([1.3], 0.3, Side.PAST, PL)
        ratios = []
        for rho in (1e-2, 1e-4, 1e-6):
            cc = to_radial_chart(rp, offsets=[0.05, rho])
            tv = ham_field(cc, free_metric, PL)
            ratios.append(tv.components[1] / rho)
        assert abs(ratios[-1]) > 0.1
        assert abs(ratios[0] - ratios[-1]) < 1e-2 * abs(ratios[-1]) + 1e-8

    def test_no_radial_chart_at_zero_xi(self):
        rp = radial_point([0.0], 0.5, Side.FUTURE, PL)
        with pytest.raises(ChartUnavailable):
            to_radial_chart(rp)


class TestIntegrateFlow:
    def test_source_to_sink_example(self, free_metric):
        rp = radial_point([1.0], 0.2, Side.PAST, PL)
        cc = to_radial_chart(rp, offsets=[1e-4, 0.0])
        fwd = integrate_flow(cc, "forward", free_metric, PL)
        assert fwd.termination is Termination.REACHED_FUTURE
        bwd = integrate_flow(cc, "backward", free_metric, PL)
        assert bwd.termination is Termination.REACHED_PAST

    def test_fixed_point_start(self, free_metric):
        rp = radial_point([1.0], 0.2, Side.FUTURE, PL)
        tr = integrate_flow(to_radial_chart(rp), "forward", free_metric, PL)
        assert tr.termination is Termination.REACHED_FUTURE
        assert tr.times[-1] == 0.0

    def test_symbol_preserved(self, free_metric, wavy_metric):
        rng = np.random.default_rng(0)
        for M in (free_metric, wavy_metric):
            for _ in range(5):
                Y = rng.normal(size=2)
                Y *= 0.5 / np.linalg.norm(Y)
                st = char_start(M, PL, Y, rng.uniform(0.3, 1.5, 1), 0.3)
                tr = integrate_flow(st, "forward", M, PL)
                assert tr.max_p_resid <= 1e-6

    def test_minus_branch_orientation(self, free_metric):
        # for the minus branch the future set is the source
        st = char_start(free_metric, MI, [0.2, 0.3], [0.8], 0.25)
        fwd = integrate_flow(st, "forward", free_metric, MI)
        assert fwd.termination is Termination.REACHED_PAST
        bwd = integrate_flow(st, "backward", free_metric, MI)
        assert bwd.termination is Termination.REACHED_FUTURE

    def test_parabolic_face_flow(self, free_metric):
        st = parabolic_start([0.1, -0.2], 0.5, [1.0])
        fwd = integrate_flow(st, "forward", free_metric, PL)
        assert fwd.termination is Termination.REACHED_FUTURE
        assert fwd.max_p_resid <= 1e-6

    def test_h_zero_natural_face_flow(self, free_metric):
        st = char_start(free_metric, PL, [0.1, 0.4], [0.9], 0.0)
        assert integrate_flow(st, "forward", free_metric, PL).termination \
            is Termination.REACHED_FUTURE

    def test_unknown_direction_rejected(self, free_metric):
        st = char_start(free_metric, PL, [0.2, 0.2], [1.0], 0.1)
        with pytest.raises(ValueError):
            integrate_flow(st, "sideways", free_metric, PL)

    def test_csv_rows(self, free_metric):
        st = char_start(free_metric, PL, [0.2, 0.2], [1.0], 0.1)
        tr = integrate_flow(st, "forward", free_metric, PL)
        rows = list(tr.csv_rows())
        assert len(rows) == len(tr.samples)
        assert rows[0][1] == "nat_ball"


class TestKernelPaths:
    def test_scalar_d1_rhs_matches_kernel_rhs(self, wavy_metric):
        # the hand-expanded d = 1 field is the one kept copy of the metric
        # maths outside the kernel; pin it to the kernel-backed field
        rng = np.random.default_rng(11)
        for _ in range(40):
            Y = rng.normal(size=2)
            Y *= rng.uniform(0.0, 0.999) / np.linalg.norm(Y)
            y = np.concatenate((Y, rng.uniform(-2.0, 2.0, size=2)))
            h = rng.uniform(1.0e-3, 0.5)
            for b in (PL, MI):
                for sign in (1.0, -1.0):
                    fast = _natural_rhs_d1(wavy_metric, b, h, sign)(0.0, y)
                    ref = _state_rhs("natural", wavy_metric, b, h, sign)(0.0, y)
                    assert np.max(np.abs(fast - ref)) <= 1e-12


class TestSheetRoot:
    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), h=st.floats(0.01, 0.5),
           branch=st.sampled_from([PL, MI]))
    @settings(max_examples=80, deadline=None)
    def test_root_is_on_the_sheet(self, data, d, h, branch):
        M = data.draw(perturbed_metrics(d))
        Y = np.array(data.draw(st.lists(st.floats(-0.49, 0.49),
                                        min_size=d + 1, max_size=d + 1)))
        xi = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
        tau = _sheet_tau_nat_perturbed(M, Y, xi, h, branch)
        zeta = np.concatenate(([tau], xi))
        G = eval_metric(M, Y, h).G
        assert abs(-(zeta @ G @ zeta) + 2.0 * branch.sign * tau) <= 1e-12
        assert abs(tau - _sheet_tau(xi, h, "natural", branch)) < 1.0

    @given(d=st.sampled_from([1, 2, 3]), h=st.floats(0.0, 0.5),
           branch=st.sampled_from([PL, MI]), xi=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_flat_metric_gives_free_sheet(self, d, h, branch, xi):
        xi_nat = np.full(d, xi)
        tau = _sheet_tau_nat_perturbed(MetricParams.free(d), np.zeros(d + 1),
                                       xi_nat, h, branch)
        assert tau == _sheet_tau(xi_nat, h, "natural", branch)

    @given(xi=st.floats(1.1, 3.0), branch=st.sampled_from([PL, MI]))
    @settings(max_examples=20, deadline=None)
    def test_negative_discriminant_raises(self, xi, branch):
        # alpha = 8 at h = 0.5 flips the sign of G00: G = I at the origin, and
        # tau^2 - 2 b tau + xi^2 = 0 has no real root for |xi| > 1
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=8.0))
        with pytest.raises(DegenerateMetric):
            _sheet_tau_nat_perturbed(M, np.zeros(2), np.array([xi]), 0.5, branch)


class TestSourceSinkEnsemble:
    def test_small_ensemble_with_perturbation(self, wavy_metric, free_metric):
        rng = np.random.default_rng(7)
        for M in (free_metric, wavy_metric):
            for i in range(24):
                branch = PL if i % 2 else MI
                h = [0.0, 0.1, 0.5][i % 3]
                xi = rng.uniform(0.3, 2.0, 1) * rng.choice([-1, 1], 1)
                Y = rng.normal(size=2)
                Y *= rng.uniform(0.1, 0.8) / np.linalg.norm(Y)
                st = char_start(M, branch, Y, xi, h)
                fwd = integrate_flow(st, "forward", M, branch).termination
                bwd = integrate_flow(st, "backward", M, branch).termination
                if branch is PL:
                    assert fwd is Termination.REACHED_FUTURE
                    assert bwd is Termination.REACHED_PAST
                else:
                    assert fwd is Termination.REACHED_PAST
                    assert bwd is Termination.REACHED_FUTURE


class TestQdfProbe:
    def test_free_exact(self, free_metric):
        rp = radial_point([1.0], 0.2, Side.PAST, PL)
        q = qdf_probe(rp, 0.1, 100, free_metric, PL)
        assert abs(q.iota_est - 2.0) < 1e-10
        assert q.F_est >= -1e-12
        assert q.decomposition_residual < 1e-10

    def test_free_iota_matches_frequency(self, free_metric):
        for xi1 in (0.5, 1.7):
            rp = radial_point([xi1], 0.3, Side.FUTURE, MI)
            q = qdf_probe(rp, 0.05, 80, free_metric, MI)
            assert abs(q.iota_est - 2.0 * xi1) < 1e-10

    def test_zero_radius(self, free_metric):
        rp = radial_point([1.0], 0.2, Side.PAST, PL)
        q = qdf_probe(rp, 0.0, 0, free_metric, PL)
        assert q.varrho == 0.0 and q.decomposition_residual == 0.0

    def test_perturbed_structure(self):
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.1))
        rng = np.random.default_rng(1)
        for _ in range(10):
            branch = rng.choice([PL, MI])
            side = rng.choice([Side.PAST, Side.FUTURE])
            xi = rng.uniform(0.4, 2.0, 1) * rng.choice([-1, 1], 1)
            h = rng.uniform(0.05, 0.5)
            rp = radial_point(xi, h, side, branch)
            q = qdf_probe(rp, 0.05, 60, M, branch, seed=int(rng.integers(2**31)))
            assert q.iota_est >= 0.5
            assert q.F_est >= -1e-12
            assert np.isfinite(q.cubic_bound)


class TestWeightFlowRate:
    def test_signs(self, free_metric):
        rp = radial_point([1.0], 0.2, Side.FUTURE, PL)
        for s in (-1.0, 1.0):
            a = weight_flow_rate(rp, (0.0, s, 0.0, 0.0), free_metric, PL)
            # sign(-varsigma alpha) = sign(s) for the plus branch
            assert np.sign(-rp.side.sign * a) == np.sign(s)
            assert abs(a) >= 1e-3

    def test_zero_weight(self, free_metric):
        rp = radial_point([0.8], 0.3, Side.PAST, MI)
        a = weight_flow_rate(rp, (0.0, 0.0, 0.0, 0.0), free_metric, MI)
        assert abs(a) <= 1e-8

    def test_fd_probe_consistent(self, free_metric):
        # the finite-difference route at a small inward offset approaches the
        # boundary value
        rp = radial_point([1.0], 0.2, Side.FUTURE, PL)
        exact = weight_flow_rate(rp, (0.0, 1.0, 0.0, 0.0), free_metric, PL)
        fd = weight_flow_rate(rp, (0.0, 1.0, 0.0, 0.0), free_metric, PL,
                              probe_offset=1e-6)
        assert abs(fd - exact) < 1e-4

    def test_mixed_orders_free(self, free_metric):
        # frequency-only factors are flow-invariant for the free metric
        rp = radial_point([1.2], 0.4, Side.FUTURE, PL)
        a1 = weight_flow_rate(rp, (2.0, 1.0, 3.0, 1.0), free_metric, PL)
        a2 = weight_flow_rate(rp, (0.0, 1.0, 0.0, 0.0), free_metric, PL)
        assert abs(a1 - a2) < 1e-12


class TestDegeneracy:
    def test_bad_sheet_point(self):
        assert natural_degeneracy(PhasePoint(0, [0], -2.0, [0.0], 0.0)) == 0.0

    def test_off_char_still_vanishes(self):
        assert natural_degeneracy(PhasePoint(0, [0], 1.0, [0.0], 0.0)) == 0.0

    def test_nonzero_at_moving_frequency(self):
        assert abs(natural_degeneracy(PhasePoint(0, [0], 1.0, [0.5], 0.0)) - 1.0) < 1e-15

    def test_blown_up_linearization(self, free_metric):
        rp = radial_point([0.0], 0.0, Side.FUTURE, PL)
        ev = radial_linearization(rp, free_metric, PL)
        assert np.min(np.abs(np.real(ev))) >= 0.5
        assert np.all(np.real(ev) < 0)  # sink at the future set, plus branch
