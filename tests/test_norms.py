"""Weighted norms, energy splitting, and the uniform-ratio experiment."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import count_transforms
from nrlab.errors import DegenerateFamily, InvalidInput
from nrlab.quantize import BoxGrid, GridField
from nrlab.pde import ConjugatedOperator, kg_envelope_solve, kg_free_solve
from nrlab.symbols import MetricParams, SignBranch
from nrlab.norms import (
    OrderProfile,
    _carrier,
    _fourier_norm,
    _split,
    _split_multiplier,
    _weight_field,
    calctwo_norm,
    default_chi,
    gaussian_family,
    natural_norm,
    sc_norm,
    smooth_step,
    split_energy,
    uniform_ratio_experiment,
)

MI = SignBranch.MINUS


def steep_chi(s):
    """Admissible alternative splitting profile with transition on [-1/4, 1/4]."""
    return smooth_step(2.0 * (np.asarray(s, float) + 0.25))


_SPACE = BoxGrid.regular(8 * math.pi, 16, 1)    # a small spatial grid for the pde calls
_PSI = np.exp(-_SPACE.mesh()[0] ** 2).astype(complex)


@pytest.fixture(scope="module")
def stg():
    # spacetime grid with a roomy time box so mode tests have narrow spectra
    return BoxGrid((8 * math.pi, 8 * math.pi), (256, 64))


@pytest.fixture(scope="module")
def bump(stg):
    t, x = stg.mesh()
    return np.exp(-((t / 3.0) ** 2) - (x / 1.5) ** 2)


def test_smooth_step_piecewise():
    def step(v):
        if v <= 0.0 or v >= 1.0:
            return float(v >= 1.0)
        a, b = math.exp(-1.0 / v), math.exp(-1.0 / (1.0 - v))
        return a / (a + b)

    x = [-math.inf, -1.0, -0.0, 0.0, 1e-300, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-16, 1.0, 4.0]
    got = smooth_step(np.array(x))
    assert all(abs(g - step(v)) <= 1e-15 for g, v in zip(got, x))
    assert got[2] == got[3] == 0.0 and got[-2] == 1.0


def _smooth_step_everywhere(x):
    """smooth_step's closed form with both exps taken at every point."""
    lo = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) + 0.0   # -0.0 -> 0.0
    with np.errstate(divide="ignore", over="ignore"):
        a, b = np.exp(-1.0 / lo), np.exp(-1.0 / (1.0 - lo))
    return a / (a + b)


_STEP_POINTS = st.one_of(st.floats(-0.5, 1.5), st.floats(),
                         st.sampled_from([0.0, -0.0, 1.0, 1.0 - 1e-16, 1e-300, math.inf,
                                          -math.inf, math.nan]))


@given(x=st.one_of(_STEP_POINTS, hnp.arrays(float, hnp.array_shapes(min_dims=0, min_side=0,
                                                                       max_side=6),
                                             elements=_STEP_POINTS)))
@settings(max_examples=300, deadline=None)
def test_smooth_step_is_the_closed_form_bit_for_bit(x):
    # the exps are skipped where the value is exactly 0 or 1, nowhere else
    got, want = smooth_step(x), _smooth_step_everywhere(x)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(np.where(nan, 0.0, got).view(np.int64),
                          np.where(nan, 0.0, want).view(np.int64))


def test_unit_multiplier_norm_is_not_demodulated(stg, bump):
    # |e^{-/+ic^2 t} Q_+/- u| = |Q_+/- u|: a carrier of None returns the pieces
    # as they are, and the m = l = 0 norm agrees with the demodulated envelopes'
    h = 0.25
    u = bump * np.exp(1j * stg.mesh()[0] / h**2 + 0.7j * stg.mesh()[1])
    q_plus, carrier = _split_multiplier(stg, h), _carrier(stg, h)
    plus, minus = _split(u, np.fft.fftn(u), q_plus, None)
    env_plus, env_minus = _split(u, np.fft.fftn(u), q_plus, carrier)
    assert np.array_equal(env_plus, plus * np.conj(carrier))
    assert np.array_equal(env_minus, minus * carrier)
    orders = OrderProfile(0.0, 0.0, 0.5, -0.5, 0.0, -1.0)
    weight = _weight_field(stg, orders)
    want = sum(h**-q * math.sqrt(stg.dvol) * np.linalg.norm(weight * env)
               for q, env in ((orders.q_plus, env_plus), (orders.q_minus, env_minus)))
    got = calctwo_norm(GridField(stg, u), h, orders)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_unit_multiplier_takes_no_transform(stg, bump):
    # sqrt(dvol) ||buf||_2 is the transform path's value with a ones multiplier
    buf = bump * np.exp(1j * 3.0 * stg.mesh()[1])
    want = _fourier_norm(buf.copy(), np.ones(buf.shape), stg.dvol)
    assert _fourier_norm(buf, None, stg.dvol) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestScNorm:
    def test_l2(self, stg, bump):
        u = GridField(stg, bump)
        assert abs(sc_norm(u, 0.0) - u.norm()) < 1e-12

    def test_single_mode_ratio(self, stg, bump):
        t, x = stg.mesh()
        xi0 = 4.0
        u = GridField(stg, bump * np.exp(1j * xi0 * x))
        ratio = sc_norm(u, 1.0) / sc_norm(u, 0.0)
        assert abs(ratio - math.sqrt(1 + xi0**2)) <= 0.05 * math.sqrt(1 + xi0**2)

    def test_weight_localization_scaling(self):
        # s = 1 on a shell <z> ~ R scales the norm by ~R
        g = BoxGrid((128.0, 128.0), (256, 256))
        t, x = g.mesh()
        r = np.sqrt(t**2 + x**2)
        out = {}
        for R in (10.0, 20.0):
            shell = np.exp(-(((r - R) / 2.0) ** 2))
            u = GridField(g, shell)
            out[R] = sc_norm(u, 0.0, 1.0) / sc_norm(u, 0.0, 0.0)
        for R in (10.0, 20.0):
            assert R / 2.0 <= out[R] <= 2.0 * R


class TestNaturalNorm:
    def test_reduces_to_l2(self, stg, bump):
        u = GridField(stg, bump)
        assert abs(natural_norm(u, 0.0, None, 0.0, 0.7) - u.norm()) < 1e-12

    def test_ell_prefactor(self, stg, bump):
        u = GridField(stg, bump)
        a = natural_norm(u, 0.0, None, 1.0, 0.5)
        b = natural_norm(u, 0.0, None, 0.0, 0.5)
        assert abs(a / b - 2.0) < 1e-12

    def test_carrier_multiplier(self, stg, bump):
        # u = e^{ix/h} bump: the m = 2 multiplier weight is ~(1+1) at the carrier
        h = 0.25
        t, x = stg.mesh()
        u = GridField(stg, bump * np.exp(1j * x / h))
        ratio = natural_norm(u, 2.0, None, 0.0, h) / natural_norm(u, 0.0, None, 0.0, h)
        assert 1.8 <= ratio <= 2.2


class TestSplitEnergy:
    def test_pure_envelope(self):
        g = BoxGrid((8 * math.pi, 8 * math.pi), (512, 64))
        h = 0.2
        t, x = g.mesh()
        psi = np.exp(-((t / 3.0) ** 2) - (x / 1.5) ** 2)
        u = GridField(g, np.exp(1j * t / h**2) * psi)
        pair = split_energy(u, h)
        assert np.max(np.abs(pair.u_plus.values - psi)) <= 1e-6
        assert pair.u_minus.norm() <= 1e-6 * np.sqrt(np.sum(psi**2) * g.dvol)

    def test_symmetric_split(self, stg, bump):
        u = GridField(stg, bump * np.cos(5.0 * stg.mesh()[0]))
        pair = split_energy(u, 0.25)
        assert abs(pair.u_minus.norm() - pair.u_plus.norm()) <= 1e-10

    def test_zero_field(self, stg):
        u = GridField(stg, np.zeros(stg.shape))
        pair = split_energy(u, 0.3)
        assert pair.u_minus.norm() == 0.0 and pair.u_plus.norm() == 0.0

    def test_reconstruction(self, stg, bump):
        u = GridField(stg, bump * np.exp(1j * 3 * stg.mesh()[0]))
        pair = split_energy(u, 0.25)
        rec = pair.reconstruct()
        assert np.max(np.abs(rec.values - u.values)) <= 1e-10

    def test_idempotence(self, stg, bump):
        u = GridField(stg, bump * np.exp(1j * 2 * stg.mesh()[0]))
        pair = split_energy(u, 0.25)
        again = split_energy(pair.reconstruct(), 0.25)
        assert np.max(np.abs(again.u_plus.values - pair.u_plus.values)) <= 1e-8
        assert np.max(np.abs(again.u_minus.values - pair.u_minus.values)) <= 1e-8


def fwd_profile(m=0.0, ell=0.0, qm=0.0, qp=0.0):
    return OrderProfile(m=m, ell=ell, q_minus=qm, q_plus=qp,
                        s_past=-0.4, s_future=-0.6)


class TestOrderProfile:
    @pytest.mark.parametrize("ends", [(-0.9, -0.9), (-0.5, -0.5), (-0.4, -0.4), (0.3, 0.3),
                                      (-0.4, -0.45), (-0.6, -0.7), (-0.5, -0.6)])
    def test_profiles_crossing_no_threshold_rejected(self, ends):
        # a constant profile crosses nothing
        with pytest.raises(InvalidInput):
            OrderProfile(1.0, 1.0, 0.0, 0.0, *ends)
        # right-hand-side orders skip the check
        assert OrderProfile(1.0, 1.0, 0.0, 0.0, *ends, check_threshold=False).s_past == ends[0]

    @pytest.mark.parametrize("ends", [(-0.4, -0.6), (-0.6, -0.4), (0.2, -2.0)])
    def test_crossing_profiles_accepted(self, ends):
        assert OrderProfile(1.0, 1.0, 0.0, 0.0, *ends).s_bar(-1.0) == ends[0]


class TestCalctwoNorm:
    def test_partition_bounds(self, stg, bump):
        u = GridField(stg, bump * np.exp(1j * 1.5 * stg.mesh()[0]))
        orders = OrderProfile(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, check_threshold=False)
        val = calctwo_norm(u, 0.25, orders)
        # s = 0, m = l = q = 0: sum of envelope L2 norms lies in [|u|, 2|u|]
        assert u.norm() - 1e-9 <= val <= 2.0 * u.norm() + 1e-9

    def test_pure_envelope_matches_natural(self):
        g = BoxGrid((8 * math.pi, 8 * math.pi), (512, 64))
        h = 0.2
        t, x = g.mesh()
        psi = np.exp(-((t / 3.0) ** 2) - (x / 1.5) ** 2)
        u = GridField(g, np.exp(1j * t / h**2) * psi)
        orders = fwd_profile()
        val = calctwo_norm(u, h, orders)
        ref = natural_norm(GridField(g, psi), 0.0, orders, 0.0, h)
        assert abs(val - ref) <= 1e-6 * ref

    def test_q_prefactor_exact(self, stg, bump):
        h = 0.25
        t = stg.mesh()[0]
        u = GridField(stg, np.exp(1j * t / h**2) * bump)
        v0 = calctwo_norm(u, h, fwd_profile(qp=0.0))
        v1 = calctwo_norm(u, h, fwd_profile(qp=1.0))
        # the plus term dominates and its prefactor is exactly 1/h
        assert abs(v1 / v0 - 1.0 / h) <= 1e-4 / h

    def test_chi_equivalence(self, stg, bump):
        # two admissible split profiles give equivalent norms (factor <= 4)
        rng = np.random.default_rng(0)
        t, x = stg.mesh()
        orders = fwd_profile(m=1.0, ell=1.0)
        for h in (0.25, 0.5):
            for _ in range(5):
                mu = rng.uniform(-2, 2)
                u = GridField(stg, bump * np.exp(1j * mu * t)
                              * np.exp(1j * rng.uniform(-2, 2) * x))
                a = calctwo_norm(u, h, orders, chi_profile=default_chi)
                b = calctwo_norm(u, h, orders, chi_profile=steep_chi)
                assert max(a / b, b / a) <= 4.0

    def test_weight_shift_scaling(self):
        # adding a constant to the order profile scales a shell-localized
        # field's norm by ~R^const
        g = BoxGrid((128.0, 128.0), (256, 256))
        t, x = g.mesh()
        r = np.sqrt(t**2 + x**2)
        R = 15.0
        u = GridField(g, np.exp(-(((r - R) / 2.0) ** 2)))
        h = 0.25
        base = OrderProfile(0.0, 0.0, 0.0, 0.0, -0.4, -0.6)
        up = OrderProfile(0.0, 0.0, 0.0, 0.0, 0.6, 0.4, check_threshold=False)
        ratio = calctwo_norm(u, h, up) / calctwo_norm(u, h, base)
        # log-norm shift = const * log R within 10%
        assert abs(math.log(ratio) - math.log(R)) <= 0.1 * math.log(R)


def _calctwo_reference(u, h, orders, chi_profile=None):
    """The two-sheet norm as first written: full meshes, a split by forward and
    inverse FFT, each envelope's multiplier applied by FFT and inverse FFT, then
    the L^2 sum."""
    g = u.grid
    km = g.freq_mesh()
    mesh = g.mesh()
    chi = chi_profile or default_chi
    tau_nat = h**2 * km[0]
    xi_nat2 = h**2 * sum(k * k for k in km[1:])
    mult_plus = chi(tau_nat / np.sqrt(1.0 + xi_nat2))
    plus_part = np.fft.ifftn(mult_plus * np.fft.fftn(u.values))
    minus_part = u.values - plus_part
    carrier = np.exp(1j * mesh[0] / h**2)
    u_minus, u_plus = carrier * minus_part, np.conj(carrier) * plus_part
    bracket = np.sqrt(1.0 + sum(m_ * m_ for m_ in mesh))
    w = bracket ** orders.s_bar(mesh[0] / bracket)
    mult_df = (1.0 + h**2 * sum(k * k for k in km[1:]) + h**4 * km[0] ** 2) ** (
        orders.m / 2.0
    )
    tau = km[0]
    xi2 = sum(k * k for k in km[1:])
    xi4 = sum(k**4 for k in km[1:])
    zn = np.sqrt(h**4 * tau**2 + h**2 * xi2)
    rho_nf = h + (1.0 - smooth_step(zn - 1.0)) * (1.0 + tau**2 + xi4) ** -0.25
    mult = mult_df * rho_nf ** (-orders.ell)
    total = 0.0
    for q, env in ((orders.q_plus, u_plus), (orders.q_minus, u_minus)):
        vals = np.fft.ifftn(mult * np.fft.fftn(w * env))
        total += h**-q * float(np.sqrt(np.sum(np.abs(vals) ** 2) * g.dvol))
    return total


class TestCalctwoOracle:
    @given(data=st.data(), ndim=st.sampled_from([2, 3]), h=st.floats(0.05, 1.0),
           m=st.floats(-2.0, 2.0), ell=st.floats(-2.0, 2.0),
           q_minus=st.floats(-1.0, 1.0), q_plus=st.floats(-1.0, 1.0),
           s_past=st.floats(-2.0, 2.0), s_future=st.floats(-2.0, 2.0),
           chi=st.sampled_from([default_chi, steep_chi]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_mesh_reference(self, data, ndim, h, m, ell, q_minus, q_plus,
                                         s_past, s_future, chi, seed):
        ns = tuple(data.draw(st.sampled_from([8, 16, 32])) for _ in range(ndim))
        sides = tuple(data.draw(st.floats(1.0, 30.0)) for _ in range(ndim))
        grid = BoxGrid(sides, ns)
        rng = np.random.default_rng(seed)
        u = GridField(grid, rng.standard_normal(ns) + 1j * rng.standard_normal(ns))
        orders = OrderProfile(m, ell, q_minus, q_plus, s_past, s_future,
                              check_threshold=False)
        ref = _calctwo_reference(u, h, orders, chi)
        assert abs(calctwo_norm(u, h, orders, chi) - ref) <= 1e-12 * ref


class TestUniformRatio:
    def test_windowed_solution_member(self):
        # an exact free solution windowed in time: P u supported at the window
        # edges, ratio finite and c-stable
        grid = BoxGrid((2.0 * math.pi, 8.0 * math.pi), (2048, 64))
        t, x = grid.mesh()
        orders = fwd_profile(m=1.0, ell=1.0)
        window = np.exp(-((t / 0.8) ** 10))
        ratios = {}
        for c in (4.0, 8.0):
            om = c * math.sqrt(c * c + 1.0)
            u_exact = np.exp(1j * (-om * t + x))
            u = GridField(grid, window * u_exact)
            Pu = GridField(grid, ConjugatedOperator(MetricParams.free(1), c, grid,
                                                    None).apply(u.values))
            # forcing lives where the window varies
            core = np.abs(t) < 0.1
            assert np.max(np.abs(Pu.values[core])) <= 1e-5 * np.max(np.abs(Pu.values))
            num = calctwo_norm(u, 1.0 / c, orders)
            den = calctwo_norm(Pu, 1.0 / c, orders.shifted(dm=-1, ds=1, dl=-1))
            ratios[c] = num / den
        assert 0.5 <= ratios[4.0] / ratios[8.0] <= 2.0

    def test_degenerate_family(self):
        grid = BoxGrid((2.0 * math.pi, 8.0 * math.pi), (256, 32))
        u = GridField(grid, np.zeros(grid.shape))
        orders = fwd_profile(m=1.0, ell=1.0)
        with pytest.raises(DegenerateFamily):
            Pu = GridField(grid, ConjugatedOperator(MetricParams.free(1), 4.0, grid,
                                                    None).apply(u.values))
            if calctwo_norm(Pu, 0.25, orders.shifted(dm=-1, ds=1, dl=-1)) < 1e-12:
                raise DegenerateFamily("zero member")

    def test_small_ladder(self):
        orders = fwd_profile(m=1.0, ell=1.0)
        grid = BoxGrid((2.0 * math.pi, 8.0 * math.pi), (1024, 64))
        tab = uniform_ratio_experiment([4.0, 8.0], orders, grid=grid, n_base=2)
        assert tab.spread <= 3.0
        assert max(tab.member_drift.values()) <= 1.5

    def test_metric_changes_rows(self, wavy_metric):
        orders = fwd_profile(m=1.0, ell=1.0)
        grid = BoxGrid((2.0 * math.pi, 8.0 * math.pi), (256, 32))
        free = uniform_ratio_experiment([4.0], orders, grid=grid, n_base=1)
        pert = uniform_ratio_experiment([4.0], orders, grid=grid, metric=wavy_metric,
                                        n_base=1)
        dens = np.array([[row[3] for row in tab.rows] for tab in (free, pert)])
        assert np.all(np.abs(dens[1] - dens[0]) >= 1e-4 * dens[0])


class TestLadderGuards:
    def test_nyquist_guard(self):
        from nrlab.errors import SpectrumOverflow
        orders = fwd_profile(m=1.0, ell=1.0)
        grid = BoxGrid((2.0 * math.pi, 8.0 * math.pi), (256, 32))
        with pytest.raises(SpectrumOverflow):
            uniform_ratio_experiment([64.0], orders, grid=grid, n_base=1)

    @pytest.mark.parametrize("c_list", [[], [0.0, 4.0], [-4.0, 4.0], [4.0, math.inf],
                                        [math.nan, 4.0]])
    def test_c_must_be_finite_and_positive(self, c_list):
        with pytest.raises(InvalidInput):
            uniform_ratio_experiment(c_list, fwd_profile(m=1.0, ell=1.0), n_base=1)

    @pytest.mark.parametrize("call", [
        lambda u: natural_norm(u, 1.0, None, 1.0, 0.0),
        lambda u: natural_norm(u, 1.0, None, 1.0, -1.0),
        lambda u: split_energy(u, 0.0),
        lambda u: calctwo_norm(u, 0.0, fwd_profile(m=1.0, ell=1.0)),
        lambda u: calctwo_norm(u, -0.25, fwd_profile(m=1.0, ell=1.0)),
        lambda u: calctwo_norm(u, 1e-320, fwd_profile(m=1.0, ell=1.0)),
        lambda u: ConjugatedOperator(MetricParams.free(1), 0.0, u.grid, None).apply(u.values),
        lambda u: ConjugatedOperator(MetricParams.free(1), -8.0, u.grid, MI).apply(u.values),
        lambda u: kg_envelope_solve(_PSI, MI, MetricParams.free(1), 0.0, [0.0, 0.1], _SPACE),
        lambda u: kg_envelope_solve(_PSI, MI, MetricParams.free(1), -8.0, [0.0, 0.1], _SPACE),
        lambda u: kg_free_solve(_PSI, MI, 0.0, [0.0, 0.5], _SPACE),
        lambda u: kg_free_solve(_PSI, MI, math.inf, [0.0, 0.5], _SPACE),
        lambda u: kg_free_solve(_PSI, MI, -8.0, [0.0, 0.5], _SPACE),
        lambda u: kg_free_solve(_PSI, MI, math.nan, [0.0, 0.5], _SPACE),
        lambda u: kg_free_solve(_PSI, MI, 1e200, [0.0, 0.5], _SPACE),
        lambda u: kg_free_solve(_PSI, MI, 1e-200, [0.0, 0.5], _SPACE),
        lambda u: split_energy(u, 1e-160),
    ], ids=["natural_h0", "natural_h_negative", "split_h0", "calctwo_h0",
            "calctwo_h_negative", "calctwo_c_overflows", "operator_c0", "operator_c_negative",
            "envelope_c0", "envelope_c_negative", "branch_c0", "branch_c_inf",
            "branch_c_negative", "branch_c_nan", "branch_c2_overflows", "branch_c2_underflows",
            "split_h2_underflows"])
    def test_c_and_h_checked_where_they_enter(self, stg, bump, call):
        # c, h = 1/c and their squares must be finite and > 0 (1e-320 has 1/h = inf,
        # 1e200 has c^2 = inf and 1e-200 has c^2 = 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                call(GridField(stg, bump))


class TestInPlaceSafety:
    """The norms transform their own temporaries in place, never a caller's array."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_inputs_bit_identical(self, stg, bump, dtype):
        vals = bump * np.exp(1j * 2.0 * stg.mesh()[0])
        vals = np.real(vals) if dtype is float else vals
        keep = vals.copy()
        u = GridField(stg, vals)
        orders = fwd_profile(m=1.0, ell=1.0)
        natural_norm(u, 1.0, orders, 1.0, 0.5)
        sc_norm(u, 1.0, 0.5)
        calctwo_norm(u, 0.5, orders)
        split_energy(u, 0.5)
        assert vals.dtype == keep.dtype and vals.tobytes() == keep.tobytes()
        assert u.values.tobytes() == keep.astype(complex).tobytes()


class TestRatioPipeline:
    grid = BoxGrid((2.0 * math.pi, 8.0 * math.pi), (256, 32))

    def _transforms_per_member(self, monkeypatch, order):
        calls = count_transforms(monkeypatch)
        tab = uniform_ratio_experiment([4.0], fwd_profile(m=order, ell=order), grid=self.grid,
                                       n_base=1)
        assert len(tab.rows) == 3
        count = Counter("inverse" if inv else "forward" for _, inv in calls)
        return {kind: n / 3 for kind, n in count.items()}

    def test_free_member_costs_six_transforms(self, monkeypatch):
        # one forward transform of u; P's inverse; per norm the split's inverse;
        # the numerator's two Parseval forwards (F[Pu] is P's multiplier times
        # F[u]) and none for the denominator, whose m - 1 = l - 1 = 0 give the
        # unit multiplier
        assert self._transforms_per_member(monkeypatch, 1.0) == {"forward": 3, "inverse": 3}

    def test_non_unit_denominator_costs_eight_transforms(self, monkeypatch):
        # at m = l = 2 the denominator's multiplier is not 1: two more forwards
        assert self._transforms_per_member(monkeypatch, 2.0) == {"forward": 5, "inverse": 3}

    @pytest.mark.parametrize("perturbed", [False, True], ids=["free", "wavy"])
    def test_rows_match_public_reference(self, perturbed, wavy_metric):
        M = wavy_metric if perturbed else MetricParams.free(1)
        orders, cs = fwd_profile(m=1.0, ell=1.0), [4.0, 8.0]
        tab = uniform_ratio_experiment(cs, orders, grid=self.grid, metric=M, n_base=2, seed=5)
        t = self.grid.mesh()[0]
        want = []
        for c in cs:
            P = ConjugatedOperator(M, c, self.grid, None)
            carrier = np.exp(1j * c * c * t)
            for mid, kind, base in gaussian_family(self.grid, n_base=2, seed=5):
                u = {"plain": 1.0, "plus": carrier, "minus": np.conj(carrier)}[kind] * base
                num = calctwo_norm(GridField(self.grid, u), 1.0 / c, orders)
                den = calctwo_norm(GridField(self.grid, P.apply(u)), 1.0 / c,
                                   orders.shifted(dm=-1.0, ds=1.0, dl=-1.0))
                want.append((c, mid, num, den, num / den))
        assert [row[:2] for row in tab.rows] == [row[:2] for row in want]
        np.testing.assert_allclose([row[2:] for row in tab.rows],
                                   [row[2:] for row in want], rtol=1e-13, atol=0.0)
