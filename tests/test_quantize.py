"""Left quantization, star products, Poisson brackets, normal symbols."""

import ast
import itertools
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import count_transforms, ham_field
from nrlab import experiments as ex
from nrlab import quantize
from nrlab.errors import ExtrapolationUnstable, GridMismatch, InvalidInput, SpectrumOverflow
from nrlab.quantize import (
    BoxGrid,
    GridField,
    GridSymbol,
    _monomial,
    conjugate_translate,
    frequency_grid,
    normal_symbol,
    op_apply,
    poisson,
    star_partial_sums,
    star_truncated,
    transform,
)


def poly_eval(a: GridSymbol, z, zeta) -> complex:
    """A polynomial symbol's exact value at one point (z, zeta), from its monomials."""
    z, zeta = np.atleast_1d(z), np.atleast_1d(zeta)
    return sum((_monomial(zeta, aq, _monomial(z, az, cf))
                for (az, aq), cf in a.poly.items()), 0.0 + 0.0j)


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


def trig_symbols(zg, qg):
    """Two sampled symbols on a 2-D grid, each a product of harmonics 1 and 2:
    up to harmonic 3 on axis 0 and 1 on axis 1, so on 16 x 8 points every
    derivative passes the spectral preflight."""
    def f(z0, z1, q0, q1, s):
        w = [2 * np.pi * v / L for v, L in zip((z0, z1, q0, q1), zg.sides + qg.sides)]
        return ((2.0 + np.cos(w[0] + s) * np.sin(w[3]) + 0.4 * np.sin(2 * w[2] - s))
                * (1.5 + np.sin(w[1] - s) * np.cos(w[2] + s) + 0.3j * np.cos(2 * w[0])))
    return (GridSymbol.from_function(zg, qg, lambda *v: f(*v, 0.3)),
            GridSymbol.from_function(zg, qg, lambda *v: f(*v, -1.1)))


def star_reference(a, b, N):
    """sum_{|alpha| <= N} (1/alpha!) d_zeta^alpha a (-i d_z)^alpha b, with each
    multi-index's derivatives taken afresh as explicit d_zeta/d_z chains."""
    out = 0.0
    for alpha in itertools.product(range(N + 1), repeat=a.zgrid.ndim):
        if sum(alpha) > N:
            continue
        da, db = a, b
        for i, e in enumerate(alpha):
            for _ in range(e):
                da, db = da.d_zeta(i), db.d_z(i)
        fact = math.prod(math.factorial(e) for e in alpha)
        out = out + da.values * db.values * ((-1j) ** sum(alpha) / fact)
    return out


def op_apply_reference(a, u, scales):
    """Left quantization as a sum over the energetic modes of u, one plane wave
    e^{i zeta (z + L/2)} each, the symbol read at the scaled frequency."""
    coeffs = u.coefficients()
    total = np.sum(np.abs(coeffs) ** 2)
    mesh = u.grid.mesh()
    freqs = [u.grid.axis_freqs(i) for i in range(u.grid.ndim)]
    out = np.zeros(u.grid.shape, dtype=complex)
    for k in np.ndindex(*u.grid.shape):
        if abs(coeffs[k]) ** 2 <= 1e-30 * total:
            continue
        zeta = np.array([f[j] for f, j in zip(freqs, k)])
        eta = np.asarray(scales) * zeta
        if a.poly is None:
            amp = a.values[(Ellipsis, *(int(round((e + s / 2) / d)) for e, s, d in
                                        zip(eta, a.zetagrid.sides, a.zetagrid.spacings)))]
        else:
            amp = sum(cf * math.prod(m ** e for m, e in zip(mesh, az)) * math.prod(eta ** aq)
                      for (az, aq), cf in a.poly.items())
        phase = sum(z * (m + L / 2) for z, m, L in zip(zeta, mesh, u.grid.sides))
        out += amp * coeffs[k] * np.exp(1j * phase)
    return out


class TestBoxGrid:
    @pytest.mark.parametrize("sides,ns", [
        ((1.0,), (0,)), ((1.0,), (-4,)), ((1.0,), (100,)), ((1.0, 1.0), (8, 0)),
        ((0.0,), (8,)), ((-2.0,), (8,)), ((math.nan,), (8,)), ((math.inf,), (8,)),
    ])
    def test_rejects_an_empty_or_inverted_box(self, sides, ns):
        with pytest.raises(InvalidInput):
            BoxGrid(sides, ns)

    def test_single_point_axis(self):
        assert BoxGrid((2.0, 3.0), (1, 4)).shape == (1, 4)


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

    def test_first_out_of_box_mode_in_c_order(self):
        zg = BoxGrid((2 * math.pi, 4 * math.pi), (8, 4))
        qg = BoxGrid((3.0, 1.0), (8, 4))
        u = GridField(zg, np.random.default_rng(4).normal(size=zg.shape))
        with pytest.raises(SpectrumOverflow) as err:
            op_apply(GridSymbol(zg, qg, np.ones(zg.shape + qg.shape)), u)
        # off the box: zeta_0 = 1 (no grid point) and zeta_1 = 0.5 (past the top
        # point 0.25); C order meets mode (0, 1) before mode (1, 0)
        zeta = np.array([0.0, 0.5])
        assert str(err.value) == f"mode {zeta} (scaled {zeta}) outside the symbol frequency box"

    @pytest.mark.parametrize("natural", [False, True])
    @pytest.mark.parametrize("kind", ["sampled", "poly"])
    def test_two_axes_match_the_sum_over_modes(self, natural, kind):
        h = 0.7
        scales = (h * h, h) if natural else (1.0, 1.0)
        zg = BoxGrid((2 * math.pi, 4 * math.pi), (16, 8))
        qg = frequency_grid(zg, scales=scales)
        rng = np.random.default_rng(11)
        if kind == "sampled":
            a = GridSymbol(zg, qg, rng.normal(size=zg.shape + qg.shape)
                           + 1j * rng.normal(size=zg.shape + qg.shape))
        else:
            a = GridSymbol.from_poly(zg, qg, {((1, 0), (0, 1)): 0.7, ((0, 2), (2, 0)): -0.3j,
                                              ((0, 0), (0, 0)): 1.0, ((1, 1), (1, 1)): 0.1})
        t, x = zg.mesh()
        smooth = np.exp(-(t**2) - (x / 2) ** 2 + 2j * x)
        for values in (rng.normal(size=zg.shape) + 1j * rng.normal(size=zg.shape), smooth):
            u = GridField(zg, values)
            r = op_apply(a, u, h=h if natural else None, natural=natural)
            ref = op_apply_reference(a, u, scales)
            assert np.max(np.abs(r.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("block", [1, 768, 1 << 16])
    def test_mode_blocks(self, setup1d, monkeypatch, block):
        # 256 points and modes: one mode per block, three (the last block
        # holds one), and all modes at once
        zg, qg, _ = setup1d
        monkeypatch.setattr(quantize, "MODE_BLOCK", block)
        rng = np.random.default_rng(5)
        u = GridField(zg, rng.normal(size=zg.shape) + 1j * rng.normal(size=zg.shape))
        a, _ = smooth_symbols(zg, qg)
        ref = op_apply_reference(a, u, (1.0,))
        assert np.max(np.abs(op_apply(a, u).values - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("h", [None, 0.0, -0.5])
    def test_natural_needs_positive_h(self, setup1d, h):
        zg, qg, u = setup1d
        with pytest.raises(InvalidInput):
            op_apply(GridSymbol.constant(zg, qg), u, h=h, natural=True)

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


    def test_rejects_symbol_rough_in_zeta(self, setup1d):
        zg, qg, _ = setup1d
        rough = GridSymbol.from_function(
            zg, qg, lambda z, q: np.exp(-((z / 4) ** 2)) * np.sign(np.sin(q)))
        smooth, _ = smooth_symbols(zg, qg)
        with pytest.raises(SpectrumOverflow, match="zeta-axis 0"):
            rough.d_zeta(0)
        with pytest.raises(SpectrumOverflow, match="zeta-axis 0"):
            star_truncated(rough, smooth, 1)

    @pytest.mark.parametrize("N", [-1, 1.5, "2", None])
    def test_rejects_a_bad_order(self, setup1d, N):
        zg, qg, _ = setup1d
        a, b = smooth_symbols(zg, qg)
        for star in (star_truncated, star_partial_sums):   # at the call, before any next()
            with pytest.raises(InvalidInput):
                star(a, b, N)

    def test_partial_sums_reject_mismatched_grids_at_the_call(self, setup1d):
        zg, qg, _ = setup1d
        a, _ = smooth_symbols(zg, qg)
        with pytest.raises(GridMismatch):
            star_partial_sums(a, GridSymbol.constant(zg, frequency_grid(zg, n=128)), 1)

    def test_partial_sums_one_axis(self, setup1d):
        zg, qg, _ = setup1d
        a, b = smooth_symbols(zg, qg)
        sums = list(star_partial_sums(a, b, 3))
        assert len(sums) == 4
        for N, s in enumerate(sums):
            assert np.array_equal(s.values, star_truncated(a, b, N).values)

    @pytest.mark.parametrize("kinds", ["sampled", "poly-sampled", "sampled-poly", "poly"])
    def test_two_axes_match_explicit_chains(self, kinds):
        zg = BoxGrid((2 * math.pi, 4 * math.pi), (16, 8))
        qg = frequency_grid(zg)
        a, b = trig_symbols(zg, qg)
        poly = GridSymbol.from_poly(zg, qg, {((0, 0), (2, 1)): 0.5, ((1, 0), (0, 1)): 1j,
                                             ((0, 1), (1, 0)): -0.3, ((2, 1), (0, 0)): 0.2,
                                             ((0, 0), (0, 0)): 1.0})
        a = poly if kinds.startswith("poly") else a
        b = poly if kinds.endswith("poly") else b
        sums = list(star_partial_sums(a, b, 3))
        assert len(sums) == 4
        for N in range(4):
            st = star_truncated(a, b, N)
            ref = star_reference(a, b, N)
            assert (st.poly is not None) == (kinds == "poly")
            assert np.max(np.abs(st.values - ref)) <= 1e-12 * np.max(np.abs(ref))
            # one pass gives every order, bit for bit
            assert np.array_equal(sums[N].values, st.values) and sums[N].poly == st.poly

    def test_each_derivative_once(self, setup1d, monkeypatch):
        # order 3 needs d^1..d^3 of each factor, two transforms apiece
        zg, qg, _ = setup1d
        a, b = smooth_symbols(zg, qg)
        calls = count_transforms(monkeypatch)
        star_truncated(a, b, 3)
        assert len(calls) <= 12

    def test_star_experiment_takes_one_derivative_chain(self, monkeypatch):
        # all four partial sums from d^1..d^3 of each sampled factor, two
        # one-axis transforms apiece; op_apply's whole-grid ones are not counted
        calls = count_transforms(monkeypatch)
        ex.star(n_grid=256)
        assert sum(axes is not None for axes, _ in calls) == 12


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
            field_f = (tv[1] * xi + tv[3] * x0 / h)
            bracket = poly_eval(pb, [t0, x0], [tau, xi])
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


    @pytest.mark.parametrize("hs", [(0.2, 0.1), (0.2, 0.1, 0.04)])
    def test_rejects_a_malformed_family(self, setup1d, hs):
        zg, qg, _ = setup1d
        a, _ = smooth_symbols(zg, qg)
        with pytest.raises(InvalidInput):
            normal_symbol({h: a for h in hs})


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


class TestDerivativeInputs:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_values_bit_identical(self, setup1d, dtype):
        # the derivative's inverse transform runs in place on its own spectrum
        zg, qg, _ = setup1d
        z, q = np.meshgrid(zg.axis_points(0), qg.axis_points(0), indexing="ij")
        vals = np.exp(-((z / 6.0) ** 2) - (q / 3.2) ** 2) * np.exp(0.5j * z)
        vals = np.real(vals) if dtype is float else vals
        keep = vals.copy()
        a = GridSymbol(zg, qg, vals)
        held = a.values.copy()
        da, dq = a.d_z(0), a.d_zeta(0)
        assert vals.tobytes() == keep.tobytes() and a.values.tobytes() == held.tobytes()
        assert not np.shares_memory(da.values, a.values)
        assert not np.shares_memory(dq.values, a.values)


def _complex_array(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestTransform:
    @pytest.mark.parametrize("shape,cores", [
        *itertools.product([(1024,), (256, 32), (4096, 64), (512, 512), (16, 64, 64)], [1, 2]),
        ((2, 1 << 16), 4),      # fewer rows than cores: two slabs on the last-axis pass
    ], ids=str)
    def test_bit_identical_to_numpy(self, shape, cores, monkeypatch):
        monkeypatch.setattr(quantize, "CORES", cores)
        a = _complex_array(shape)
        subsets = [axes for r in range(1, a.ndim + 1)
                   for axes in itertools.combinations(range(a.ndim), r)]
        for axes in [None] + subsets:
            for inverse, ref in ((False, np.fft.fftn), (True, np.fft.ifftn)):
                buf = a.copy()
                out = transform(buf, axes, inverse)
                assert out is buf
                assert out.tobytes() == ref(a, axes=axes).tobytes(), (axes, inverse)

    @pytest.mark.parametrize("shape,cores,calls,off_main", [
        ((512, 512), 1, 1, 0), ((512, 512), 2, 4, 2), ((64, 16), 2, 1, 0), ((1 << 16,), 2, 1, 0),
    ], ids=str)
    def test_numpy_calls_per_split(self, shape, cores, calls, off_main, monkeypatch):
        # a pass over 2 SLAB_POINTS or more of a multi-axis array is one numpy
        # call per core, one of them here; any other array is one call
        monkeypatch.setattr(quantize, "CORES", cores)
        threads = []
        for name in ("fft", "fftn"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *args, fn=fn, **kw: threads.append(
                threading.current_thread()) or fn(*args, **kw))
        transform(_complex_array(shape))
        assert len(threads) == calls
        assert sum(t is not threading.main_thread() for t in threads) == off_main

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(quantize, "CORES", 2)
        fft = np.fft.fft

        def failing(a, *args, **kw):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("slab failed")
            return fft(a, *args, **kw)

        monkeypatch.setattr(np.fft, "fft", failing)
        with pytest.raises(FloatingPointError, match="slab failed"):
            transform(_complex_array((512, 512)))

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # more calling threads than cores, each splitting its passes onto one pool
        monkeypatch.setattr(quantize, "CORES", 2)
        a = _complex_array((512, 256))
        ref = np.fft.fftn(a).tobytes()
        results = []
        threads = [threading.Thread(target=lambda: results.append(transform(a.copy()).tobytes()))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [ref] * 4

    def test_a_real_array_is_copied(self):
        a = np.random.default_rng(0).normal(size=(8, 4))
        keep = a.copy()
        assert transform(a).tobytes() == np.fft.fftn(keep).tobytes()
        assert a.tobytes() == keep.tobytes()


def test_only_the_entry_point_calls_numpy_transforms():
    # fftfreq and fftshift stay free; the transforms themselves go through
    # quantize.transform and nowhere else
    banned = {"fft", "ifft", "fftn", "ifftn"}
    offenders = []
    for path in sorted(Path(quantize.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "quantize.py":
            tree.body = [node for node in tree.body if getattr(node, "name", None) != "transform"]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in banned
                    and ast.unparse(node.value) in ("np.fft", "numpy.fft")):
                offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "numpy.fft"
                  and banned & {alias.name for alias in node.names}):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


class TestLazyPolySamples:
    def test_experiments_sample_no_polynomial(self, monkeypatch):
        # op_apply's monomial path never reads a polynomial symbol's samples
        sampled = []
        real = GridSymbol._poly_sample
        monkeypatch.setattr(GridSymbol, "_poly_sample",
                            lambda self: sampled.append(self.poly) or real(self))
        ex.star(n_grid=256)
        ex.quantize(n_grid=256)
        assert sampled == []

    def test_values_sampled_once_on_read(self, setup1d):
        zg, qg, _ = setup1d
        x = GridSymbol.coordinate(zg, qg, "z", 0)
        assert "values" not in vars(x)
        assert x.values is x.values
        assert np.array_equal(x.values, np.broadcast_to(zg.axis_points(0)[:, None],
                                                        zg.shape + qg.shape))
        xxi = x * GridSymbol.coordinate(zg, qg, "zeta", 0)
        assert "values" not in vars(xxi) and xxi.poly == {((1,), (1,)): 1.0 + 0.0j}
        assert np.max(np.abs(xxi.values - x.values * qg.axis_points(0))) == 0.0
