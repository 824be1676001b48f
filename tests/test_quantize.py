"""Left quantization, star products, Poisson brackets, normal symbols."""

import math

import numpy as np
import pytest

from nrlab.errors import ExtrapolationUnstable, SpectrumOverflow
from nrlab.quantize import (
    BoxGrid,
    GridField,
    GridSymbol,
    conjugate_translate,
    frequency_grid,
    normal_symbol,
    op_apply,
    poisson,
    star_truncated,
)


@pytest.fixture(scope="module")
def setup1d():
    zg = BoxGrid.regular(16 * math.pi, 256, 1)
    qg = frequency_grid(zg)
    x = zg.axis_points(0)
    u = GridField(zg, np.exp(-(x**2) / 2.0) * np.exp(1j * 3.0 * x))
    return zg, qg, u


def smooth_symbols(zg, qg):
    a = GridSymbol.from_function(
        zg, qg, lambda z, q: np.exp(-((z / 6.0) ** 2) - (q / 3.2) ** 2)
        * (1 + 0.3 * np.sin(z / 5) * np.cos(q / 4)))
    b = GridSymbol.from_function(
        zg, qg, lambda z, q: np.exp(-((z / 6.6) ** 2) - (q / 2.9) ** 2)
        * (1 + 0.2 * np.cos(z / 6.5) * np.sin(q / 4.8)))
    return a, b


class TestOpApply:
    def test_identity(self, setup1d):
        zg, qg, u = setup1d
        r = op_apply(GridSymbol.constant(zg, qg), u)
        assert np.max(np.abs(r.values - u.values)) < 1e-12

    def test_spectral_derivative(self, setup1d):
        zg, qg, u = setup1d
        xi = GridSymbol.coordinate(zg, qg, "zeta", 0)
        k = zg.axis_freqs(0)
        du = np.fft.ifftn(np.fft.fftn(u.values) * k)
        r = op_apply(xi, u)
        assert np.max(np.abs(r.values - du)) < 1e-10

    def test_left_ordering(self, setup1d):
        zg, qg, u = setup1d
        xxi = GridSymbol.from_poly(zg, qg, {((1,), (1,)): 1.0})
        x = zg.axis_points(0)
        k = zg.axis_freqs(0)
        du = np.fft.ifftn(np.fft.fftn(u.values) * k)
        r = op_apply(xxi, u)
        assert np.max(np.abs(r.values - x * du)) < 1e-10

    def test_multiplier_for_z_independent(self, setup1d):
        zg, qg, u = setup1d
        sym = GridSymbol.from_function(zg, qg, lambda z, q: np.exp(-q**2) + 0 * z)
        r = op_apply(sym, u)
        k = zg.axis_freqs(0)
        ref = np.fft.ifftn(np.fft.fftn(u.values) * np.exp(-k**2))
        assert np.max(np.abs(r.values - ref)) < 1e-12

    def test_spectrum_overflow(self, setup1d):
        zg, qg, u = setup1d
        small = BoxGrid((2.0,), (256,))  # tiny frequency box
        sym = GridSymbol.from_function(zg, small, lambda z, q: 1.0 + 0 * z + 0 * q)
        with pytest.raises(SpectrumOverflow):
            op_apply(sym, u)

    def test_support_locality(self, setup1d):
        # Op(a)u vanishes where a = 0 on a z-neighborhood, for z-localized a
        zg, qg, u = setup1d
        x = zg.axis_points(0)
        a = GridSymbol.from_function(
            zg, qg, lambda z, q: np.exp(-((z - 10.0) / 2.0) ** 2) * np.exp(-(q / 3.0) ** 2))
        r = op_apply(a, u)
        far = np.abs(x + 15.0) < 3.0
        assert np.max(np.abs(r.values[far])) <= 1e-12 * np.max(np.abs(r.values))


class TestStar:
    def test_poly_example(self, setup1d):
        zg, qg, u = setup1d
        xi = GridSymbol.coordinate(zg, qg, "zeta", 0)
        x = GridSymbol.coordinate(zg, qg, "z", 0)
        st = star_truncated(xi, x, 1)
        # exact symbol x xi - i
        assert st.poly[((1,), (1,))] == 1.0 + 0.0j
        assert st.poly[((0,), (0,))] == -1.0j
        lhs = op_apply(xi, op_apply(x, u))
        rhs = op_apply(st, u)
        assert np.max(np.abs(lhs.values - rhs.values)) / u.norm() < 1e-10

    def test_z_independent_product(self, setup1d):
        zg, qg, _ = setup1d
        a = GridSymbol.from_function(zg, qg, lambda z, q: np.exp(-q**2) + 0 * z)
        b = GridSymbol.from_function(zg, qg, lambda z, q: np.cos(q) * np.exp(-q**2 / 9) + 0 * z)
        for N in (0, 1, 3):
            st = star_truncated(a, b, N)
            assert np.max(np.abs(st.values - a.values * b.values)) < 1e-12

    def test_residual_decreases(self, setup1d):
        zg, qg, u = setup1d
        a, b = smooth_symbols(zg, qg)
        ab = op_apply(a, op_apply(b, u))
        resids = []
        for N in range(4):
            r = op_apply(star_truncated(a, b, N), u)
            resids.append(np.max(np.abs(ab.values - r.values)) / u.norm())
        gain = -np.polyfit(np.arange(4), np.log10(resids), 1)[0]
        assert all(r2 < r1 for r1, r2 in zip(resids, resids[1:]))
        assert gain >= 0.8

    def test_polynomial_exactness(self, setup1d):
        # exact in operator action when a is polynomial in zeta of degree <= N
        zg, qg, u = setup1d
        a = GridSymbol.from_poly(zg, qg, {((0,), (2,)): 0.1, ((0,), (0,)): 0.5})
        b, _ = smooth_symbols(zg, qg)
        st = star_truncated(a, b, 2)
        lhs = op_apply(a, op_apply(b, u))
        rhs = op_apply(st, u)
        assert np.max(np.abs(lhs.values - rhs.values)) / u.norm() < 1e-10

    def test_polynomial_exactness_z_side(self, setup1d):
        # likewise when b is polynomial in z of degree <= N
        zg, qg, u = setup1d
        a, _ = smooth_symbols(zg, qg)
        b = GridSymbol.from_poly(zg, qg, {((1,), (0,)): 0.2, ((0,), (0,)): 1.0})
        st = star_truncated(a, b, 1)
        lhs = op_apply(a, op_apply(b, u))
        rhs = op_apply(st, u)
        assert np.max(np.abs(lhs.values - rhs.values)) / u.norm() < 1e-10

    def test_rejects_rough_symbol(self, setup1d):
        zg, qg, _ = setup1d
        rough = GridSymbol.from_function(
            zg, qg, lambda z, q: np.sign(np.sin(z)) * np.exp(-q**2))
        with pytest.raises(SpectrumOverflow):
            rough.d_z(0)


class TestPoisson:
    def test_canonical_pair(self, setup1d):
        zg, qg, _ = setup1d
        tau = GridSymbol.coordinate(zg, qg, "zeta", 0)
        t = GridSymbol.coordinate(zg, qg, "z", 0)
        pb = poisson(tau, t)
        assert np.max(np.abs(pb.values - 1.0)) < 1e-12

    def test_self_bracket_zero(self, setup1d):
        zg, qg, _ = setup1d
        a, _ = smooth_symbols(zg, qg)
        pb = poisson(a, a)
        assert np.max(np.abs(pb.values)) < 1e-12

    def test_antisymmetrization_is_minus_i_bracket(self, setup1d):
        zg, qg, _ = setup1d
        a, b = smooth_symbols(zg, qg)
        anti = star_truncated(a, b, 1) - star_truncated(b, a, 1)
        pb = poisson(a, b)
        assert np.max(np.abs(anti.values - (-1j) * pb.values)) < 1e-12

    def test_commutator_gap_explained_by_next_term(self, setup1d):
        # the commutator's deviation from the N = 1 antisymmetrization is the
        # next expansion term, and including it shrinks the gap
        zg, qg, _ = setup1d
        x = zg.axis_points(0)
        u = GridField(zg, np.exp(-(x**2) / 2.0) * np.exp(1j * 2.0 * x))
        a, b = smooth_symbols(zg, qg)
        comm = op_apply(a, op_apply(b, u)).values - op_apply(b, op_apply(a, u)).values
        anti1 = star_truncated(a, b, 1) - star_truncated(b, a, 1)
        anti2 = star_truncated(a, b, 2) - star_truncated(b, a, 2)
        gap1 = np.max(np.abs(comm - op_apply(anti1, u).values)) / u.norm()
        gap2 = np.max(np.abs(comm - op_apply(anti2, u).values)) / u.norm()
        nt = np.max(np.abs(op_apply(anti2 - anti1, u).values)) / u.norm()
        assert 0.3 <= gap1 / nt <= 3.0
        assert gap2 < 0.5 * gap1

    def test_commutator_exact_for_affine_symbols(self, setup1d):
        # for symbols affine in each variable the expansion terminates at
        # N = 1, so the commutator equals -i Op({a,b}) at round-off level
        zg, qg, _ = setup1d
        x = zg.axis_points(0)
        u = GridField(zg, np.exp(-(x**2) / 2.0) * np.exp(1j * 2.0 * x))
        a = GridSymbol.from_poly(zg, qg, {((1,), (1,)): 0.3, ((0,), (1,)): 1.0})
        b = GridSymbol.from_poly(zg, qg, {((1,), (0,)): 1.0, ((1,), (1,)): -0.2})
        comm = op_apply(a, op_apply(b, u)).values - op_apply(b, op_apply(a, u)).values
        ref = op_apply(poisson(a, b) * (-1j), u).values
        assert np.max(np.abs(comm - ref)) / u.norm() < 1e-10

    def test_hamilton_field_consistency(self):
        """{p0, f} agrees with the flow generator applied to f.

        The chart field is (1/2) <z> h H_p in (t, x, tau_nat, xi_nat); the
        bracket is computed spectrally on a 2-axis spacetime grid with
        standard frequencies, so (1/2) <z> h {p, f} must match the field
        contraction with grad f at shared sample points.
        """
        from nrlab.flow import ham_field
        from nrlab.geometry import ChartId, ChartTag, PhasePoint, to_chart
        from nrlab.symbols import MetricParams, SignBranch

        h = 0.5
        zg = BoxGrid.regular(8 * math.pi, 32, 2)
        qg = frequency_grid(zg)
        p0 = GridSymbol.from_poly(
            zg, qg,
            {((0, 0), (2, 0)): h * h, ((0, 0), (0, 2)): -1.0, ((0, 0), (1, 0)): 2.0})
        f = GridSymbol.from_poly(zg, qg, {((0, 1), (0, 1)): 1.0})  # x xi
        pb = poisson(p0, f)
        M = MetricParams.free(1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            t0, x0 = rng.uniform(-2, 2, size=2)
            tau, xi = rng.uniform(-2, 2, size=2)
            pt = PhasePoint(t0, [x0], h * h * tau, [h * xi], h)
            tv = ham_field(to_chart(pt, ChartId(ChartTag.NAT_INTERIOR)), M,
                           SignBranch.PLUS)
            # f = x xi = x xi_nat / h: contract the chart field with grad f
            field_f = (tv.components[1] * xi + tv.components[3] * x0 / h)
            bracket = pb.poly_eval([t0, x0], [tau, xi])
            bracket *= 0.5 * math.sqrt(1 + t0**2 + x0**2) * h
            assert abs(field_f - bracket) < 1e-8


class TestConjugateTranslate:
    def test_zero_shift_identity(self, setup1d):
        zg, qg, _ = setup1d
        a, _ = smooth_symbols(zg, qg)
        at = conjugate_translate(a, 0.0, 0.5)
        assert np.max(np.abs(at.values - a.values)) == 0.0

    def test_bump_translation(self, setup1d):
        zg, qg, _ = setup1d
        a = GridSymbol.from_function(zg, qg, lambda z, q: np.exp(-8 * q**2) + 0 * z)
        at = conjugate_translate(a, 1.0, 0.3)
        pts = qg.axis_points(0)
        i0 = np.argmin(np.abs(pts))
        i1 = np.argmin(np.abs(pts - 1.0))
        assert abs(at.values[0, i1] - a.values[0, i0]) < 1e-12

    def test_operator_identity(self):
        # conjugation by exp(i shift t / h^2) at a grid-compatible carrier
        h = 0.3
        zg = BoxGrid.regular(18 * math.pi, 512, 1)
        qg = frequency_grid(zg, scales=(h * h,))
        t = zg.axis_points(0)
        u = GridField(zg, np.exp(-(t**2) / 4.0))
        a = GridSymbol.from_function(
            zg, qg, lambda z, q: np.exp(-8 * q**2) * np.exp(-((z / 9.0) ** 2)))
        at = conjugate_translate(a, 1.0, h)
        lhs = op_apply(at, u, h=h, natural=True)
        carrier = np.exp(1j * t / h**2)
        inner = GridField(zg, np.conj(carrier) * u.values)
        rhs = carrier * op_apply(a, inner, h=h, natural=True).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-8

    def test_off_grid_shift_spectral(self, setup1d):
        zg, qg, _ = setup1d
        a = GridSymbol.from_function(zg, qg, lambda z, q: np.exp(-8 * q**2) + 0 * z)
        dq = qg.spacings[0]
        at = conjugate_translate(a, 0.5 * dq, 0.3)
        pts = qg.axis_points(0)
        ref = np.exp(-8 * (pts - 0.5 * dq) ** 2)
        assert np.max(np.abs(at.values[0] - ref)) < 1e-8

    def test_wraparound_rejected(self, setup1d):
        zg, qg, _ = setup1d
        a = GridSymbol.from_function(zg, qg, lambda z, q: np.exp(-8 * q**2) + 0 * z)
        with pytest.raises(SpectrumOverflow):
            conjugate_translate(a, 0.9 * qg.sides[0], 0.3)


class TestNormalSymbol:
    def test_quadratic_family(self, setup1d):
        # free conjugated symbol family h^2 tau^2 - xi^2 + 2 tau (one total
        # frequency axis standing for tau ... xi enters through a second run)
        zg = BoxGrid.regular(16 * math.pi, 64, 1)
        qg = frequency_grid(zg, n=64)
        fam = {}
        for h in (0.02, 0.01, 0.005):
            fam[h] = GridSymbol.from_function(
                zg, qg, lambda z, q, hh=h: hh * hh * q**2 + 2.0 * q + 0 * z)
        ns = normal_symbol(fam, rtol=1e-3)
        ref = GridSymbol.from_function(zg, qg, lambda z, q: 2.0 * q + 0 * z)
        assert np.max(np.abs(ns.values - ref.values)) < 1e-10

    def test_h_independent_family(self, setup1d):
        zg, qg, _ = setup1d
        a, _ = smooth_symbols(zg, qg)
        fam = {0.2: a, 0.1: a, 0.05: a}
        ns = normal_symbol(fam)
        assert np.max(np.abs(ns.values - a.values)) < 1e-14

    def test_linear_correction_removed(self, setup1d):
        zg, qg, _ = setup1d
        base, _ = smooth_symbols(zg, qg)
        fam = {}
        for h in (0.2, 0.1, 0.05):
            corr = GridSymbol.from_function(
                zg, qg, lambda z, q, hh=h: hh / np.sqrt(1.0 + z**2) + 0 * q)
            fam[h] = base + corr
        ns = normal_symbol(fam)
        assert np.max(np.abs(ns.values - base.values)) < 1e-6

    def test_unstable_family(self, setup1d):
        zg, qg, _ = setup1d
        rng = np.random.default_rng(0)
        fam = {h: GridSymbol(zg, qg, rng.normal(size=(256, 256)))
               for h in (0.2, 0.1, 0.05)}
        with pytest.raises(ExtrapolationUnstable):
            normal_symbol(fam)


class TestOrdersFit:
    def test_declared_growth(self, setup1d):
        zg, qg, _ = setup1d
        sym = GridSymbol.from_function(zg, qg,
                                       lambda z, q: (1.0 + q**2) + 0 * z,
                                       orders=(2.0, 0.0, 0.0, 0.0))
        assert abs(sym.fitted_zeta_order() - 2.0) <= 0.2


class TestGridFieldInvariants:
    def test_fft_round_trip(self, setup1d):
        zg, _, u = setup1d
        coeffs = u.coefficients()
        back = np.fft.ifftn(coeffs * u.values.size)
        assert np.max(np.abs(back - u.values)) <= 1e-12 * np.max(np.abs(u.values))

    def test_band_limit_flag(self, setup1d):
        zg, _, u = setup1d
        assert u.band_limited()
        rng = np.random.default_rng(1)
        noisy = GridField(zg, rng.normal(size=zg.shape))
        assert not noisy.band_limited()
