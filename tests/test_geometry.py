"""Charts, boundary-defining functions, and the parabolic compactification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import from_parabolic_chart
from nrlab.errors import FitFailure, InvalidInput, OnBoundary, OutOfChart
from nrlab.geometry import (
    BdfValues,
    ChartCoords,
    ChartId,
    ChartTag,
    ParabolicRay,
    PhasePoint,
    _cutoff,
    b_order_fit,
    bdf_values,
    frequency_bdfs,
    from_chart,
    parabolic_chart,
    to_chart,
)


class TestBdfValues:
    def test_origin_unit(self):
        b = bdf_values(PhasePoint(0.0, [0.0], 0.0, [0.0], 1.0))
        assert b.rho_df == 1.0
        assert b.rho_bf == 1.0

    def test_df_example(self):
        b = bdf_values(PhasePoint(0.0, [0.0], 2.0, [0.0], 1.0))
        assert abs(b.rho_df - 5.0**-0.5) < 1e-15

    def test_nf_pf_product_is_h(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = PhasePoint(rng.normal(), rng.normal(size=1), rng.normal(),
                           rng.normal(size=1), rng.uniform(1e-3, 1.0))
            b = bdf_values(p)
            assert abs(b.rho_nf * b.rho_pf - p.h) <= 1e-14 * max(1.0, p.h)

    def test_interior_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = PhasePoint(rng.normal(), rng.normal(size=2), rng.normal(),
                           rng.normal(size=2), rng.uniform(0.01, 1.0))
            b = bdf_values(p)
            for v in (b.rho_df, b.rho_bf, b.rho_nf, b.rho_pf):
                assert 0.0 < v < math.inf

    def test_df_vanishing_along_ray(self):
        # rho_df * s -> 1 along (tau_nat = s, xi_nat = 0)
        for s in (1e3, 1e5, 1e7):
            b = bdf_values(PhasePoint(0.0, [0.0], s, [0.0], 0.3))
            assert abs(b.rho_df * s - 1.0) < 1e-5

    def test_nf_limit_h_to_zero(self):
        # rho_nf -> chi (1+tau^2+|xi|^4)^(-1/4) + O(h) at fixed nonzero zeta_nat
        tau_nat, xi_nat = 0.5, 0.3
        vals = []
        for h in (1e-3, 5e-4):
            b = bdf_values(PhasePoint(0.0, [0.0], tau_nat, [xi_nat], h))
            chi = _cutoff(math.hypot(tau_nat, xi_nat))
            lim = chi * (tau_nat**2 + xi_nat**4) ** -0.25 * h
            # rho_nf = h + chi*(1+tau^2+xi^4)^{-1/4}; subtracting h it tends to
            # the parabolic bracket, which scales like h here
            vals.append((b.rho_nf - h) / lim)
        assert abs(vals[0] - 1.0) < 1e-3
        assert abs(vals[1] - 1.0) < 1e-3

    def test_tiny_h_and_frequencies_do_not_underflow(self):
        # h^4 is subnormal at h = 1e-80 and tau_nat^2 is 0 at 1e-300; the
        # values are h + chi(0) = 1 + h and 1 / (1 + |tau_nat|^(-1/2)) at h = 0
        b = bdf_values(PhasePoint(0.0, [0.0], 0.0, [0.0], 1e-80))
        assert b.rho_nf == pytest.approx(1.0, rel=1e-15, abs=0.0)
        b = bdf_values(PhasePoint(0.0, [0.0], 1e-300, [0.0], 0.0))
        assert b.rho_pf == pytest.approx(1e-150, rel=1e-14, abs=0.0)

    def test_huge_base_point_does_not_overflow(self):
        # t^2 overflows at t = 1e200, where rho_bf is about 1/t
        b = bdf_values(PhasePoint(1e200, [0.0], 0.0, [0.0], 0.5))
        assert b.rho_bf == pytest.approx(1e-200, rel=1e-15, abs=0.0)

    def test_huge_frequency_does_not_overflow(self):
        # tau_nat^2 overflows at 1e200, where rho_df is about 1/|tau_nat|
        b = bdf_values(PhasePoint(0.0, [0.0], 1e200, [0.0], 0.5))
        assert b.rho_df == pytest.approx(1e-200, rel=1e-15, abs=0.0)

    def test_cutoff_plateaus(self):
        assert _cutoff(0.5) == 1.0
        assert _cutoff(2.5) == 0.0
        assert 0.0 < _cutoff(1.5) < 1.0


class TestBatchedBdfs:
    """frequency_bdfs and its cutoff over arrays equal their row-by-row values,
    with the h = 0 face, the zeta_nat = 0 corner and the chi = 0 region
    |zeta_nat| >= 2 among the rows, and raise no floating-point warning."""

    @staticmethod
    def _rows(d):
        rng = np.random.default_rng(d)
        zeta = np.concatenate((rng.normal(size=(40, 1 + d)) * 1.5,
                               rng.uniform(2.0, 30.0, size=(8, 1 + d)),   # |zeta| >= 2
                               np.zeros((2, 1 + d))))                     # zeta_nat = 0
        zeta[-1, 0] = 1e-100
        return zeta

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("h", [0.0, 1e-3, 0.3, 1.0])
    def test_rows(self, d, h):
        zeta = self._rows(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = frequency_bdfs(zeta[:, 0], list(zeta[:, 1:].T), h)
            chi = _cutoff(np.linalg.norm(zeta, axis=-1))
            for i, z in enumerate(zeta):
                row = frequency_bdfs(z[0], z[1:], h)
                for got, want in zip(batch, row):
                    assert got.shape == (zeta.shape[0],)
                    assert got[i] == pytest.approx(want, rel=1e-14, abs=0.0)
                assert chi[i] == pytest.approx(_cutoff(np.linalg.norm(z)), rel=1e-14, abs=0.0)
        rho_df, rho_nf, rho_pf = batch
        assert np.all(chi[-2:] == 1.0) and np.all(chi[40:48] == 0.0)
        assert np.all(rho_nf * rho_pf == pytest.approx(h, rel=1e-14, abs=0.0))
        if h == 0.0:
            # the corner h = 0, zeta_nat = 0 lies on both nf and pf
            assert rho_nf[-2] == rho_pf[-2] == 0.0
            assert rho_pf[-1] > 0.0 and np.all(rho_nf == 0.0)

    def test_open_mesh_broadcast(self):
        # components of different shapes broadcast without being stacked
        tau = np.linspace(-3.0, 3.0, 13)[:, None]
        xi = np.linspace(-2.5, 2.5, 11)[None, :]
        batch = frequency_bdfs(tau, [xi], 0.2)
        for i, j in np.ndindex(13, 11):
            row = frequency_bdfs(tau[i, 0], [xi[0, j]], 0.2)
            for got, want in zip(batch, row):
                assert got.shape == (13, 11)
                assert got[i, j] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_chi_is_the_sigma_quotient(self):
        # 1 - smooth_step(r - 1) is sigma(2-r) / (sigma(r-1) + sigma(2-r)) with
        # sigma(s) = exp(-1/s) for s > 0, else 0
        def sigma(s):
            return math.exp(-1.0 / s) if s > 0.0 else 0.0

        for r in np.linspace(0.0, 3.0, 301):
            want = sigma(2.0 - r) / (sigma(r - 1.0) + sigma(2.0 - r)) if r < 2.0 else 0.0
            assert _cutoff(r) == pytest.approx(want, rel=0.0, abs=1e-15)


class TestCharts:
    def test_df_rejects_subnormal_tau(self):
        # 1/|tau_nat| overflows: the chart has no finite rho_df coordinate
        p = PhasePoint(0.0, [0.0], 2.225e-309, [0.0], 0.5)
        with pytest.raises(OutOfChart):
            to_chart(p, ChartId(ChartTag.DF_PROJECTIVE))
        assert to_chart(PhasePoint(0.0, [0.0], 1e-300, [0.0], 0.5),
                        ChartId(ChartTag.DF_PROJECTIVE)).bdf.rho_df == pytest.approx(1e300)

    def test_from_chart_copies(self):
        for tag in (ChartTag.NAT_INTERIOR, ChartTag.DF_PROJECTIVE, ChartTag.PF_STANDARD,
                    ChartTag.PF_NAT_PARABOLIC):
            cc = to_chart(PhasePoint(0.5, [0.2], 2.0, [0.1], 0.5), ChartId(tag))
            p = from_chart(cc)
            before = (p.t, p.x.copy(), p.tau_nat, p.xi_nat.copy(), p.h)
            cc.coords[:] = 0.7
            assert (p.t, p.tau_nat, p.h) == before[::2]
            assert np.array_equal(p.x, before[1]) and np.array_equal(p.xi_nat, before[3])

    def test_df_projective_example(self):
        p = PhasePoint(0.0, [0.0], 2.0, [0.0], 0.5)
        cc = to_chart(p, ChartId(ChartTag.DF_PROJECTIVE))
        d = 1
        rho_df, xi_hat, h = cc.coords[1 + d], cc.coords[2 + d], cc.coords[-1]
        assert (rho_df, xi_hat, h) == (0.5, 0.0, 0.5)

    def test_pf_parabolic_example(self):
        # tau = 4, xi = 2, h = 0.1
        p = PhasePoint(0.0, [0.0], 0.04, [0.2], 0.1)
        cc = to_chart(p, ChartId(ChartTag.PF_NAT_PARABOLIC))
        rho_nf, xi_hat, rho_pf = cc.coords[2], cc.coords[3], cc.coords[4]
        assert np.allclose([rho_nf, xi_hat, rho_pf], [0.5, 1.0, 0.2])
        q = from_chart(cc)
        assert abs(q.tau - 4.0) < 1e-12 and abs(q.xi[0] - 2.0) < 1e-12

    def test_batch_chart_id_is_one_hashable_chart(self):
        # a batch's per-point signs ride on its ChartCoords, where chart_frame
        # reads them; its ChartId stays one chart that compares and hashes
        p = PhasePoint(0.0, [[0.0], [0.0]], np.array([2.0, -2.0]), [[0.1], [0.1]], 0.5)
        for tag in (ChartTag.DF_PROJECTIVE, ChartTag.PF_NAT_PARABOLIC):
            cc = to_chart(p, ChartId(tag))
            assert cc.chart == ChartId(tag) and hash(cc.chart) == hash(ChartId(tag))
            assert cc.sign.tolist() == [1, -1]
            rows = [to_chart(PhasePoint(0.0, [0.0], tau, [0.1], 0.5), ChartId(tag))
                    for tau in (2.0, -2.0)]
            assert [(c.chart.sign, c.sign) for c in rows] == [(1, 1), (-1, -1)]
            assert from_chart(cc).tau_nat == pytest.approx([2.0, -2.0], rel=1e-15)
        with pytest.raises(InvalidInput):
            ChartId(ChartTag.DF_PROJECTIVE, sign=np.array([1, -1]))

    def test_df_out_of_chart(self):
        p = PhasePoint(0.0, [0.0], 0.0, [1.0], 0.5)
        with pytest.raises(OutOfChart):
            to_chart(p, ChartId(ChartTag.DF_PROJECTIVE))

    def test_from_chart_boundary(self):
        cc = ChartCoords(ChartId(ChartTag.DF_PROJECTIVE),
                         np.array([0.0, 0.0, 0.0, 0.3, 0.5]),
                         BdfValues(0.0, 1.0, 0.5, 1.0))
        with pytest.raises(OnBoundary):
            from_chart(cc)

    @given(
        t=st.floats(-5, 5), x=st.floats(-5, 5),
        tau=st.floats(0.5, 50), xi=st.floats(-3, 3),
        h=st.floats(0.01, 1.0), sgn=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trips(self, t, x, tau, xi, h, sgn):
        p = PhasePoint(t, [x], sgn * tau, [xi], h)
        for tag in (ChartTag.NAT_INTERIOR, ChartTag.DF_PROJECTIVE,
                    ChartTag.PF_STANDARD, ChartTag.PF_NAT_PARABOLIC):
            try:
                cc = to_chart(p, ChartId(tag))
            except OutOfChart:
                continue
            q = from_chart(cc)
            for a, b in ((p.t, q.t), (p.tau_nat, q.tau_nat), (p.h, q.h)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
            assert np.allclose(p.x, q.x, rtol=1e-12, atol=1e-12)
            assert np.allclose(p.xi_nat, q.xi_nat, rtol=1e-12, atol=1e-12)

    def test_overlap_consistency(self):
        # through pairs of charts on their common validity region
        rng = np.random.default_rng(2)
        count = 0
        for _ in range(10000):
            p = PhasePoint(rng.normal(), rng.normal(size=1),
                           rng.choice([-1, 1]) * rng.uniform(1.5, 30.0),
                           rng.normal(size=1) * 0.2, rng.uniform(0.05, 1.0))
            try:
                c1 = to_chart(p, ChartId(ChartTag.DF_PROJECTIVE))
                c2 = to_chart(from_chart(c1), ChartId(ChartTag.PF_NAT_PARABOLIC))
                q = from_chart(c2)
            except OutOfChart:
                continue
            count += 1
            assert abs(q.tau_nat - p.tau_nat) <= 1e-10 * max(1.0, abs(p.tau_nat))
            assert np.allclose(q.xi_nat, p.xi_nat, rtol=1e-10, atol=1e-10)
        assert count > 1000


class TestParabolicCompactification:
    def test_tau_chart_example(self):
        cc = parabolic_chart(4.0, [2.0])
        assert cc.chart.tag is ChartTag.PAR_FREQ_TAU
        assert np.allclose(cc.coords, [0.5, 1.0])

    def test_xi_chart_example(self):
        cc = parabolic_chart(8.0, [2.0], prefer=ChartId(ChartTag.PAR_FREQ_XI, k=1))
        assert np.allclose(cc.coords, [0.5, 2.0])

    def test_xi_chart_invalid(self):
        with pytest.raises(OutOfChart):
            parabolic_chart(1.0, [0.0], prefer=ChartId(ChartTag.PAR_FREQ_XI, k=1))

    def test_inverse(self):
        for tau, xi in ((4.0, [2.0]), (-9.0, [1.0]), (2.0, [-5.0])):
            cc = parabolic_chart(tau, xi)
            tt, xx = from_parabolic_chart(cc)
            assert abs(tt - tau) < 1e-12 * max(1, abs(tau))
            assert np.allclose(xx, xi)


class TestBOrderFit:
    def test_exponents_tau_chart(self):
        ray = ParabolicRay(1.0, [0.0], np.geomspace(3.0, 300.0, 25))
        e_tau = b_order_fit("tau", ChartId(ChartTag.PAR_FREQ_TAU), ray)
        e_xi = b_order_fit(("xi", 1), ChartId(ChartTag.PAR_FREQ_TAU), ray)
        assert abs(e_tau - 2.0) < 0.05
        assert abs(e_xi - 1.0) < 0.05

    def test_exponents_xi_chart(self):
        ray = ParabolicRay(0.7, [1.0], np.geomspace(3.0, 300.0, 25))
        e_tau = b_order_fit("tau", ChartId(ChartTag.PAR_FREQ_XI, k=1), ray)
        e_xi = b_order_fit(("xi", 1), ChartId(ChartTag.PAR_FREQ_XI, k=1), ray)
        assert abs(e_tau - 2.0) < 0.05
        assert abs(e_xi - 1.0) < 0.05

    def test_degenerate_ray(self):
        ray = ParabolicRay(1.0, [0.0], np.array([3.0, 4.0]))
        with pytest.raises(FitFailure):
            b_order_fit("tau", ChartId(ChartTag.PAR_FREQ_TAU), ray)


class TestFrequencyBracketInequality:
    """Two-sided comparison of the frequency bdfs with <zeta>^-1.

    The sharp constants (1, sqrt 2, 2^(1/4), sqrt 2) belong to the regional
    bdf representatives used in the proof (away from pf: rho_nf = h; near
    pf: rho_df = 1, rho_nf = (1+tau^2+|xi|^4)^(-1/4), split at
    h^2 tau^2 + xi^2 = h^-2); the global smooth choice satisfies the same
    equivalence with constants recorded below (<= 4).
    """

    @staticmethod
    def _regional(tau, xi, h):
        if h**2 * tau**2 + xi**2 > h**-2:
            rho_df = (1.0 + h**4 * tau**2 + h**2 * xi**2) ** -0.5
            rho_nf = h
        else:
            rho_df = 1.0
            rho_nf = (1.0 + tau**2 + xi**4) ** -0.25
        return rho_df, rho_nf

    def test_regional_constants(self):
        rng = np.random.default_rng(3)
        for _ in range(10000):
            tau = rng.standard_cauchy() * 10
            xi = rng.standard_cauchy() * 10
            h = rng.uniform(1e-3, 1.0)
            rho_df, rho_nf = self._regional(tau, xi, h)
            bracket_inv = (1.0 + tau**2 + xi**2) ** -0.5
            assert rho_df * rho_nf**2 <= 2.0 * bracket_inv + 1e-15
            assert bracket_inv <= 2.0 * rho_df * rho_nf + 1e-15

    def test_global_constants(self):
        rng = np.random.default_rng(4)
        c_left = c_right = 0.0
        for _ in range(10000):
            tau = rng.standard_cauchy() * 10
            xi = rng.standard_cauchy() * 10
            h = rng.uniform(1e-3, 1.0)
            p = PhasePoint(0.0, [0.0], h**2 * tau, [h * xi], h)
            b = bdf_values(p)
            bracket_inv = (1.0 + tau**2 + xi**2) ** -0.5
            c_left = max(c_left, b.rho_df * b.rho_nf**2 / bracket_inv)
            c_right = max(c_right, bracket_inv / (b.rho_df * b.rho_nf))
        assert c_left <= 4.0 + 1e-12
        assert c_right <= 4.0 + 1e-12
