"""Model PDE solvers: free Klein-Gordon, Schrodinger normal operator,
non-relativistic comparison, symmetry defect, mass bound, scattering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_transforms, light_speed_inverse, profile_grad
from nrlab import pde
from nrlab.experiments import bandlimited_gaussian
from nrlab.errors import GridMismatch, InvalidInput, ResampleOverflow, StepFailure
from nrlab.quantize import BoxGrid, transform
from nrlab.symbols import (
    ClassicalSymbolProfile,
    MetricParams,
    OperatorCoefficient,
    SignBranch,
    ball_from_base,
    eval_metric,
)
from nrlab.pde import (
    ConjugatedOperator,
    KGState,
    SchrCoefficients,
    SchrState,
    _trig_interp,
    conjugate_compare,
    envelope,
    _xi2,
    kg_branch_data,
    kg_envelope_solve,
    kg_free_solve,
    mass_bound_check,
    mass_trace,
    scattering_mass_identity,
    scattering_profile,
    schrodinger_solve,
    symmetry_defect,
)

PL, MI = SignBranch.PLUS, SignBranch.MINUS


def kg_energy(state: KGState) -> float:
    """Conserved free energy: int c^-2 |u_t|^2 + |grad u|^2 + c^2 |u|^2 dx."""
    grid, c = state.grid, state.c
    xi2 = _xi2(grid)
    u_hat = transform(state.u.copy())
    ut_hat = transform(state.ut.copy())
    w = grid.dvol / state.u.size
    return float(np.sum((np.abs(ut_hat) ** 2 / c**2
                         + (xi2 + c * c) * np.abs(u_hat) ** 2)) * w)


@pytest.fixture(scope="module")
def sgrid():
    return BoxGrid.regular(40 * math.pi, 256, 1)


class TestFreeKG:
    def test_dispersion_gap_example(self):
        c = 10.0
        om = c * math.sqrt(c * c + 1.0)
        gap = om - c * c - 0.5
        assert abs((om - c * c) - 0.4987562) < 1e-6
        assert abs(gap - (-1.0 / (8.0 * c * c))) < 1e-5

    def test_rest_oscillation(self, sgrid):
        # zero spatial frequency: u(t) = A e^{-ic^2 t} + B e^{+ic^2 t}
        c = 3.0
        u0 = np.ones(sgrid.shape, dtype=complex)
        ut0 = np.zeros(sgrid.shape, dtype=complex)  # A = B = 1/2
        states = kg_free_solve(KGState(sgrid, u0, ut0, 0.0, c), [0.7])
        expect = math.cos(c * c * 0.7)
        assert np.allclose(states[0].u, expect, atol=1e-12)

    def test_zero_data(self, sgrid):
        st = KGState(sgrid, np.zeros(sgrid.shape), np.zeros(sgrid.shape), 0.0, 5.0)
        out = kg_free_solve(st, [1.0])
        assert np.all(out[0].u == 0.0)

    def test_energy_conserved(self, sgrid):
        psi = bandlimited_gaussian(sgrid, 3.0)
        st = kg_branch_data(sgrid, psi, 8.0, MI)
        e0 = kg_energy(st)
        for s in kg_free_solve(st, np.linspace(0, 10, 11)):
            assert abs(kg_energy(s) - e0) <= 1e-10 * e0


class TestSchrodinger:
    def test_free_norm_conserved(self, sgrid):
        psi = bandlimited_gaussian(sgrid, 2.0)
        run = schrodinger_solve(SchrState(sgrid, psi, 0.0), MI,
                                np.linspace(0, 10, 6), dt=0.05)
        n0 = run[0].norm()
        for s in run:
            assert abs(s.norm() - n0) <= 1e-10 * n0

    def test_free_mode_phase(self, sgrid):
        # single mode xi: phase e^{-i xi^2 t / 2} on the minus branch
        k = sgrid.axis_freqs(0)
        idx = np.argmin(np.abs(k - 1.0))
        xi0 = k[idx]
        x = sgrid.axis_points(0)
        psi = np.exp(1j * xi0 * x)
        out = schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [2.0], dt=0.1)
        expect = psi * np.exp(-1j * xi0**2 * 2.0 / 2.0)
        assert np.max(np.abs(out[0].v - expect)) < 1e-10

    def test_plus_branch_phase(self, sgrid):
        k = sgrid.axis_freqs(0)
        idx = np.argmin(np.abs(k - 1.0))
        xi0 = k[idx]
        x = sgrid.axis_points(0)
        psi = np.exp(1j * xi0 * x)
        out = schrodinger_solve(SchrState(sgrid, psi, 0.0), PL, [2.0], dt=0.1)
        expect = psi * np.exp(+1j * xi0**2 * 2.0 / 2.0)
        assert np.max(np.abs(out[0].v - expect)) < 1e-10

    def test_drift_cfl_guard(self, sgrid):
        coeffs = SchrCoefficients(1, B=(lambda t, x: 5.0 + 0.0 * x,))
        psi = bandlimited_gaussian(sgrid, 2.0)
        with pytest.raises(StepFailure):
            schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [1.0], coeffs, dt=1.0)

    def test_free_path_exact_off_the_step_grid(self, sgrid):
        # 1.2345 is no multiple of dt; the free path takes no steps
        k = sgrid.axis_freqs(0)
        xi0 = k[np.argmin(np.abs(k - 1.3))]
        psi = np.exp(1j * xi0 * sgrid.axis_points(0))
        for branch in (PL, MI):
            for coeffs in (None, SchrCoefficients(1)):
                (out,) = schrodinger_solve(SchrState(sgrid, psi, 0.5), branch, [1.7345],
                                           coeffs, dt=0.1)
                expect = psi * np.exp(branch.sign * 0.5j * xi0**2 * 1.2345)
                assert np.max(np.abs(out.v - expect)) <= 1e-12
                assert out.steps == 0 and out.t == 1.7345

    @pytest.mark.parametrize("dt", [0.0, -0.5, math.nan, math.inf])
    def test_dt_must_be_finite_and_positive(self, sgrid, dt):
        psi = bandlimited_gaussian(sgrid, 2.0)
        for coeffs in (None, SchrCoefficients(1, W=lambda t, x: 0.1 + 0.0 * x)):
            with pytest.raises(InvalidInput):
                schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [1.0], coeffs, dt=dt)

    def test_step_count(self, sgrid):
        # ceil(0.25 / 0.02) = 13 steps per interval, none for a repeated time
        coeffs = SchrCoefficients(1, W=lambda t, x: 0.1 / (1.0 + x * x))
        psi = bandlimited_gaussian(sgrid, 2.0)
        run = schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [0.0, 0.25, 0.25, 0.0],
                                coeffs, dt=0.02)
        assert [state.steps for state in run] == [0, 13, 13, 26]


def _strang_reference(data, branch, times, coeffs, dt):
    """The four-FFT Strang loop: each step is a kinetic half step (an
    fftn/ifftn pair), the C-step at the step's midpoint, and another kinetic
    half step; an absent coefficient is a zero field."""
    grid = data.grid
    s = -branch.sign
    xi2 = sum(k * k for k in grid.freq_mesh())
    mesh, kmesh = grid.mesh(), grid.freq_mesh()
    zero = lambda t, *m: np.zeros(grid.shape)
    W, beta, aleph = (f or zero for f in (coeffs.W, coeffs.beta, coeffs.aleph))
    B = coeffs.B or (zero,) * grid.ndim

    def kinetic_half(v, step):
        return np.fft.ifftn(np.fft.fftn(v) * np.exp(-1j * s * xi2 * step / 4.0))

    def c_step(v, t_mid, step):
        V = (np.asarray(W(t_mid, *mesh), dtype=complex)
             - branch.sign * np.asarray(beta(t_mid, *mesh), dtype=complex)
             - np.asarray(aleph(t_mid, *mesh), dtype=complex))
        Bs = [np.asarray(Bj(t_mid, *mesh), dtype=float) for Bj in B]
        v = np.exp(0.5j * s * V * step / 2.0) * v

        def f(w):
            out = np.zeros_like(w)
            wh = np.fft.fftn(w)
            for j in range(grid.ndim):
                out += Bs[j] * np.fft.ifftn(1j * kmesh[j] * wh)
            return -0.5 * s * out

        w1 = v + 0.5 * step * f(v)
        v = v + step * f(w1)
        return np.exp(0.5j * s * V * step / 2.0) * v

    out = []
    state_v, state_t = data.v.copy(), data.t
    for target in times:
        span = target - state_t
        if abs(span) >= 1e-15:
            nsteps = max(1, int(math.ceil(abs(span) / dt)))
            step = span / nsteps
            for _ in range(nsteps):
                v = kinetic_half(state_v, step)
                v = c_step(v, state_t + step / 2.0, step)
                state_v = kinetic_half(v, step)
                state_t += step
        state_t = float(target)
        out.append(state_v.copy())
    return out


@st.composite
def strang_cases(draw):
    """A grid, smooth data, a nonempty set of (t, x)-dependent coefficients
    with any drift well inside the CFL bound, output times and dt, at most
    200 steps in all."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([32, 64] if d == 1 else [16, 32]))
    grid = BoxGrid.regular(draw(st.floats(12.0, 30.0)), n, d)
    mesh = grid.mesh()
    r2 = sum(m * m for m in mesh)
    v0 = np.exp(-r2 / draw(st.floats(4.0, 12.0))) * np.exp(1j * draw(st.floats(-1.0, 1.0))
                                                           * mesh[0])
    dt = draw(st.sampled_from([0.05, 0.07, 0.1, 0.17]))   # 9 / 0.05 = 180 steps at most
    t0 = draw(st.floats(-2.0, 2.0))
    times = draw(st.lists(st.sampled_from([-1.0, -0.37, 0.0, 0.25, 0.61, 1.0]),
                          min_size=1, max_size=5))
    times = [t0 + t for t in times]

    def field(amp, omega, kappa, im=None):
        def f(t, *m):
            val = amp * (1.0 + 0.5 * np.cos(omega * t + kappa * m[0])) / (
                1.0 + sum(x * x for x in m) / 9.0)
            return val if im is None else val * (1.0 + 1j * im)
        return f

    present = draw(st.sets(st.sampled_from(["W", "beta", "aleph", "B"]), min_size=1))
    amps = st.floats(-1.0, 1.0)
    kw = {}
    for name in sorted(present - {"B"}):
        kw[name] = field(draw(amps), draw(st.floats(0.5, 3.0)), draw(st.floats(-1.0, 1.0)),
                         draw(st.floats(-0.3, 0.3)) if name == "W" else None)
    if "B" in present:
        bmax = 0.2 * min(grid.spacings) / dt   # |B| <= 1.5 bmax
        kw["B"] = tuple(field(draw(st.floats(-bmax, bmax)), draw(st.floats(0.5, 3.0)),
                              draw(st.floats(-1.0, 1.0))) for _ in range(d))
    return grid, v0, t0, times, dt, SchrCoefficients(d, **kw)


class TestStrangOracle:
    @given(case=strang_cases(), branch=st.sampled_from([PL, MI]))
    @settings(max_examples=60, deadline=None)
    def test_matches_four_fft_loop(self, case, branch):
        grid, v0, t0, times, dt, coeffs = case
        data = SchrState(grid, v0, t0)
        got = schrodinger_solve(data, branch, times, coeffs, dt=dt)
        ref = _strang_reference(data, branch, times, coeffs, dt)
        for state, want, t in zip(got, ref, times):
            assert state.t == t
            assert np.max(np.abs(state.v - want)) <= 1e-12 * np.max(np.abs(want))


class TestConstantPotential:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("branch", [PL, MI])
    def test_phase_times_free_propagation(self, d, branch):
        # with no drift a constant V commutes with the kinetic term, so the
        # split step is exact: v(T) = e^{isV(T - t0)/2} (free propagation)
        grid = BoxGrid.regular(20.0, 64 if d == 1 else 32, d)
        mesh = grid.mesh()
        v0 = np.exp(-sum(m * m for m in mesh) / 6.0) * np.exp(0.7j * mesh[0])
        W0, beta0, aleph0 = 0.3 - 0.05j, 0.4, -0.2
        cases = [(SchrCoefficients(d, W=lambda t, *m: W0), W0),     # a 0-d field
                 (SchrCoefficients(d, beta=lambda t, *m: beta0 + 0.0 * m[0],
                                   aleph=lambda t, *m: aleph0 + 0.0 * m[0]),
                  -branch.sign * beta0 - aleph0)]
        t0, times, s = 0.4, [0.4, 1.13, -0.6, 2.0], -branch.sign
        free = schrodinger_solve(SchrState(grid, v0, t0), branch, times)
        for coeffs, V in cases:
            run = schrodinger_solve(SchrState(grid, v0, t0), branch, times, coeffs, dt=0.07)
            for got, want in zip(run, free):
                want = np.exp(0.5j * s * V * (want.t - t0)) * want.v
                assert np.max(np.abs(got.v - want)) <= 1e-12 * np.max(np.abs(want))


class TestNonRelativisticComparison:
    def test_second_order_ladder(self, sgrid):
        psi = bandlimited_gaussian(sgrid, 2.0)
        times = np.linspace(0.0, 1.0, 9)
        errs = {}
        for c in (8.0, 16.0, 32.0):
            kgs = kg_free_solve(kg_branch_data(sgrid, psi, c, MI), times)
            ss = schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, times, dt=0.02)
            errs[c] = conjugate_compare(kgs, ss, MI, c).sup_error
        assert 3.2 <= errs[8.0] / errs[16.0] <= 4.8
        assert 3.2 <= errs[16.0] / errs[32.0] <= 4.8
        assert errs[8.0] > errs[16.0] > errs[32.0]

    def test_branch_swap_is_order_one(self, sgrid):
        psi = bandlimited_gaussian(sgrid, 2.0)
        times = np.linspace(0.0, 1.0, 9)
        c = 8.0
        kgs = kg_free_solve(kg_branch_data(sgrid, psi, c, MI), times)
        wrong = schrodinger_solve(SchrState(sgrid, psi, 0.0), PL, times, dt=0.02)
        rep = conjugate_compare(kgs, wrong, PL, c)
        assert rep.sup_error > 0.5

    def test_zero_data(self, sgrid):
        times = [0.0, 1.0]
        z = np.zeros(sgrid.shape, dtype=complex)
        kgs = kg_free_solve(KGState(sgrid, z, z, 0.0, 8.0), times)
        one = bandlimited_gaussian(sgrid, 2.0)
        ss = schrodinger_solve(SchrState(sgrid, one, 0.0), MI, times, dt=0.1)
        errs = [np.sqrt(np.sum(np.abs(envelope(k, MI)) ** 2)) for k in kgs]
        assert max(errs) == 0.0


@pytest.fixture(scope="module")
def lapse_case():
    """ACCEPTANCE 6's lapse case: alpha amplitude 0.3, c = 8, 128 points, T = 1."""
    grid = BoxGrid.regular(40 * math.pi, 128, 1)
    psi = bandlimited_gaussian(grid, 2.0)
    M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3))
    times = np.linspace(0.0, 1.0, 9)
    return grid, psi, M, times, kg_envelope_solve(psi, MI, M, 8.0, times, grid)


def _lapse_reference(psi, branch, M, c, times, grid):
    """RK4 (dt = 0.5/c^2) of the lapse metric's conjugated equation, derived
    by hand for g = -(c^2 - alpha) dt^2 + dx^2:

        v_tt = -2isc^2 v_t + c^2 alpha v
               + (c^2 - alpha) [b_t (v_t + isc^2 v) + v_xx + b_x v_x],

    b_t = -alpha_t/(2(c^2-alpha)^2), b_x = -alpha_x/(2(c^2-alpha)), from the
    exact branch's v_t less aleph v/(2is) = -alpha v/(2is)."""
    s, x, k = branch.sign, grid.axis_points(0), grid.axis_freqs(0)

    def rhs(t, v, vt):
        z = np.stack(np.broadcast_arrays(t, x), axis=-1)
        al, dal = M.alpha(z), profile_grad(M.alpha, z)
        bt, bx = -dal[:, 0] / (2 * (c * c - al) ** 2), -dal[:, 1] / (2 * (c * c - al))
        vh = np.fft.fft(v)
        vxx, vx = np.fft.ifft(-k * k * vh), np.fft.ifft(1j * k * vh)
        return (-2j * s * c * c * vt + c * c * al * v
                + (c * c - al) * (bt * (vt + 1j * s * c * c * v) + vxx + bx * vx))

    v = np.asarray(psi, dtype=complex)
    z0 = np.stack(np.broadcast_arrays(times[0], x), axis=-1)
    vt = (np.fft.ifft(1j * s * (c * np.sqrt(c * c + k * k) - c * c) * np.fft.fft(v))
          + M.alpha(z0) * v / (2j * s))
    t, out = times[0], [v]
    for target in times[1:]:
        n = max(1, math.ceil(abs(target - t) * 2 * c * c))
        h = (target - t) / n
        for _ in range(n):
            k1v, k1a = vt, rhs(t, v, vt)
            k2v, k2a = vt + h / 2 * k1a, rhs(t + h / 2, v + h / 2 * k1v, vt + h / 2 * k1a)
            k3v, k3a = vt + h / 2 * k2a, rhs(t + h / 2, v + h / 2 * k2v, vt + h / 2 * k2a)
            k4v, k4a = vt + h * k3a, rhs(t + h, v + h * k3v, vt + h * k3a)
            v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            vt = vt + h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
            t += h
        t = target
        out.append(v)
    return out


def _free_branch_error(c, f, branch, n, side):
    """Sup error of the envelope solver against exact free Klein-Gordon over
    t <= 0.25, for a Gaussian at xi0 = f c carried on one branch."""
    grid = BoxGrid.regular(side, n, 1)
    x = grid.axis_points(0)
    psi = np.exp(-x * x / 4.0 + 1j * f * c * x)
    times = np.linspace(0.0, 0.25, 3)
    env = kg_envelope_solve(psi, branch, MetricParams.free(1), c, times, grid)
    kgs = kg_free_solve(kg_branch_data(grid, psi, c, branch), times)
    return max(np.max(np.abs(envelope(k, branch) - e.v)) for k, e in zip(kgs, env))


class TestAlephCoupling:
    def test_potential_needed_for_rate(self, lapse_case):
        grid, psi, M, times, kg_env = lapse_case
        with_pot = schrodinger_solve(SchrState(grid, psi, 0.0), MI, times,
                                     SchrCoefficients.from_metric(M), dt=0.01)
        without = schrodinger_solve(SchrState(grid, psi, 0.0), MI, times,
                                    SchrCoefficients.from_metric(M, include_aleph=False),
                                    dt=0.01)
        good = conjugate_compare(kg_env, with_pot, MI, 8.0).sup_error
        bad = conjugate_compare(kg_env, without, MI, 8.0).sup_error
        assert bad >= 5.0 * good

    def test_envelope_solver_free_consistency(self):
        grid = BoxGrid.regular(40 * math.pi, 128, 1)
        psi = bandlimited_gaussian(grid, 2.0)
        times = np.linspace(0.0, 1.0, 5)
        c = 8.0
        env = kg_envelope_solve(psi, MI, MetricParams.free(1), c, times, grid)
        kgs = kg_free_solve(kg_branch_data(grid, psi, c, MI), times)
        worst = max(np.max(np.abs(envelope(s, MI) - e.v))
                    for s, e in zip(kgs, env))
        assert worst < 1e-8


class TestEnvelopeSolver:
    def test_lapse_matches_hand_derived_equation(self, lapse_case):
        grid, psi, M, times, kg_env = lapse_case
        ref = _lapse_reference(psi, MI, M, 8.0, times, grid)
        assert max(np.max(np.abs(e.v - r)) for e, r in zip(kg_env, ref)) <= 1e-12

    @pytest.mark.parametrize("c", [4.0, 8.0, 16.0])
    def test_free_branch_data_at_half_c(self, c):
        # the Schrodinger relation for v_t is off by O(|xi|^4/c^2) here
        assert _free_branch_error(c, 0.5, MI, 128, 10 * math.pi) <= 1e-5

    @given(c=st.floats(4.0, 16.0), f=st.floats(0.0, 0.5),
           branch=st.sampled_from([PL, MI]))
    @settings(max_examples=15, deadline=None)
    def test_free_branch_data_property(self, c, f, branch):
        assert _free_branch_error(c, f, branch, 64, 5 * math.pi) <= 1e-5

    def test_general_metric_error_falls_with_c(self):
        grid = BoxGrid.regular(20 * math.pi, 64, 1)
        psi = bandlimited_gaussian(grid, 2.0)
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3),
                         w=(ClassicalSymbolProfile(amplitude=0.2),),
                         hjk=((ClassicalSymbolProfile(amplitude=0.1),),))
        times = np.linspace(0.0, 0.25, 5)
        schr = schrodinger_solve(SchrState(grid, psi, 0.0), MI, times,
                                 SchrCoefficients.from_metric(M), dt=0.01)
        e8, e16 = (conjugate_compare(kg_envelope_solve(psi, MI, M, c, times, grid),
                                     schr, MI, c).sup_error for c in (8.0, 16.0))
        assert e16 < e8

    def test_beta_normal_operator_is_the_limit(self):
        # the conjugated operator carries -s beta at every c, so the normal
        # operator's V must hold -s beta too: then the error falls with c
        grid = BoxGrid.regular(20 * math.pi, 64, 1)
        psi = bandlimited_gaussian(grid, 2.0)
        M = MetricParams(d=1, beta=OperatorCoefficient(real=ClassicalSymbolProfile(amplitude=0.5)))
        times = np.linspace(0.0, 0.25, 5)
        for branch in (PL, MI):
            schr = schrodinger_solve(SchrState(grid, psi, 0.0), branch, times,
                                     SchrCoefficients.from_metric(M), dt=0.01)
            e8, e16 = (conjugate_compare(kg_envelope_solve(psi, branch, M, c, times, grid),
                                         schr, branch, c).sup_error for c in (8.0, 16.0))
            assert e16 <= e8 / 3.0

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_bad_dt_is_invalid_input(self, dt):
        grid = BoxGrid.regular(10.0, 16, 1)
        with pytest.raises(InvalidInput):
            kg_envelope_solve(np.ones(16), MI, MetricParams.free(1), 4.0, [0.0, 0.5],
                              grid, dt=dt)

    def test_data_off_the_grid_is_grid_mismatch(self):
        grid = BoxGrid.regular(10.0, 16, 1)
        with pytest.raises(GridMismatch):
            kg_envelope_solve(np.ones(15), MI, MetricParams.free(1), 4.0, [0.0, 0.5], grid)


@pytest.fixture(scope="module")
def stgrid():
    return BoxGrid.regular(40.0, 512, 2)


class TestSymmetryDefect:

    def test_one_forward_transform_of_u(self, lapse_case, monkeypatch):
        # apply and apply_adjoint share F[u]: one forward transform of u and one
        # per derivative term of the adjoint, 4 for the lapse metric
        stg = BoxGrid((2.0, 40 * math.pi), (16, 128))
        t, x = stg.mesh()
        P = ConjugatedOperator(lapse_case[2], 8.0, stg, MI)
        u = np.exp(-t**2 - (x / 4.0) ** 2)
        ref = (P.apply(u) - P.apply_adjoint(u)) / 2j
        calls = count_transforms(monkeypatch)
        Qu = P.symmetry_defect_apply(u)
        assert sum(not inverse for _, inverse in calls) == 1 + sum(map(bool, P.terms)) == 4
        assert Qu.tobytes() == ref.tobytes()

    def test_free_vanishes(self, stgrid):
        rep = symmetry_defect(MetricParams.free(1), 10.0, stgrid)
        assert max(rep.max_abs.values()) <= 1e-10

    def test_imaginary_potential_extracted(self, stgrid):
        M = MetricParams(d=1, W=OperatorCoefficient(
            imag=ClassicalSymbolProfile(amplitude=0.1, order=-2)))
        rep = symmetry_defect(M, 10.0, stgrid)
        mesh = stgrid.mesh()
        target = 0.1 / (1.0 + mesh[0] ** 2 + mesh[1] ** 2)
        err = np.max(np.abs(rep.coefficients["r_0"][rep.mask] - target[rep.mask]))
        assert err <= 1e-6
        assert rep.fitted_orders["r_0"] <= -1.9

    def test_real_drift_divergence_only(self, stgrid):
        M = MetricParams(d=1, B=(OperatorCoefficient(
            real=ClassicalSymbolProfile(amplitude=1.0, order=-1)),))
        rep = symmetry_defect(M, 10.0, stgrid)
        # the first-order part cancels; only div B / 2 at order -2 remains
        assert rep.max_abs["r_x1"] <= 1e-6
        assert rep.fitted_orders["r_0"] <= -1.9


class TestConjugatedOperator:
    def test_divergence_terms_match_finite_differences(self, wavy_metric):
        # first-order part of the d'Alembertian:
        # c1_j = d_i g^{ij} + g^{ij} d_i log sqrt|det g|
        grid = BoxGrid.regular(20.0, 16, 2)
        c = 3.0
        op = ConjugatedOperator(wavy_metric, c, grid, MI)
        z = np.stack(grid.mesh(), axis=-1)
        eps = 1.0e-5
        for idx in [(3, 5), (8, 8), (12, 2)]:
            d_ginv, d_log = [], []
            for i in range(2):
                e = np.zeros(2)
                e[i] = eps
                mp, mm = (eval_metric(wavy_metric, ball_from_base(z[idx] + s * e), 1.0 / c)
                          for s in (1.0, -1.0))
                d_ginv.append((light_speed_inverse(wavy_metric, z[idx] + e, c)
                               - light_speed_inverse(wavy_metric, z[idx] - e, c)) / (2.0 * eps))
                # natural-units g: its det differs from the light-speed one by c^2
                d_log.append(0.25 * (np.log(abs(np.linalg.det(mp.g)))
                                     - np.log(abs(np.linalg.det(mm.g)))) / eps)
            ginv = light_speed_inverse(wavy_metric, z[idx], c)
            expected = sum(d_ginv[i][i] for i in range(2)) + ginv @ np.array(d_log)
            assert np.max(np.abs(op.c1[idx] - expected)) <= 1e-9

    def test_free_multiplier_on_mode(self):
        stg = BoxGrid((8 * math.pi, 8 * math.pi), (256, 64))
        t, x = stg.mesh()
        km = stg.freq_mesh()
        # pick exact grid frequencies
        tau0 = km[0][3, 0]
        xi0 = km[1][0, 2]
        u = np.exp(1j * (tau0 * t + xi0 * x))
        c = 4.0
        for branch in (None, PL, MI):
            # e^{-isc^2 t} P e^{isc^2 t} moves the mode's time frequency by s c^2
            s = 0 if branch is None else branch.sign
            out = ConjugatedOperator(MetricParams.free(1), c, stg, branch).apply(u)
            expect = ((tau0 + s * c * c) ** 2 / c**2 - xi0**2 - c**2) * u
            assert np.max(np.abs(out - expect)) <= 1e-9 * c * c

    def test_lower_order_terms(self):
        stg = BoxGrid((8 * math.pi, 8 * math.pi), (256, 64))
        t, x = stg.mesh()
        bump = np.exp(-((t / 3.0) ** 2) - (x / 1.5) ** 2)
        M = MetricParams(
            d=1,
            W=OperatorCoefficient(real=ClassicalSymbolProfile(amplitude=0.3)),
        )
        out = ConjugatedOperator(M, 4.0, stg, None).apply(bump)
        free = ConjugatedOperator(MetricParams.free(1), 4.0, stg, None).apply(bump)
        w = 0.3 / np.sqrt(1.0 + t**2 + x**2)
        assert np.max(np.abs(out - free - w * bump)) <= 1e-10

    def test_perturbed_metric_changes_pu(self, wavy_metric, stgrid):
        # P v = g^{ij} d_i d_j v + c1_j d_j v - c^2 v with the Gaussian's exact
        # derivatives; the metric moves P v by about 4e-4 of its size here
        c = 3.0
        mesh = stgrid.mesh()
        z = np.stack(mesh, axis=-1)
        v = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 8.0)
        op = ConjugatedOperator(wavy_metric, c, stgrid, None)
        ginv = light_speed_inverse(wavy_metric, z, c)
        expect = -c * c * v
        for i in range(2):
            expect = expect - op.c1[..., i] * z[..., i] / 4.0 * v
            for j in range(2):
                d2 = (z[..., i] * z[..., j] / 16.0 - (i == j) / 4.0) * v
                expect = expect + ginv[..., i, j] * d2
        out = op.apply(v)
        free = ConjugatedOperator(MetricParams.free(1), c, stgrid, None).apply(v)
        assert np.max(np.abs(out - expect)) <= 1e-10 * np.max(np.abs(expect))
        assert np.max(np.abs(out - free)) >= 1e-4 * np.max(np.abs(free))

    @pytest.mark.parametrize("branch", [PL, MI], ids=["plus", "minus"])
    def test_demodulated_operator_is_the_conjugated_one(self, wavy_metric, stgrid, branch):
        # e^{-isc^2 t} P (e^{isc^2 t} v), including the divergence term
        # c1_0 (d_t + isc^2) v that conjugation makes of c1_0 d_t
        c = 3.0
        t, x = stgrid.mesh()
        v = np.exp(-(t**2 + x**2) / 8.0)
        carrier = np.exp(1j * branch.sign * c * c * t)
        P = ConjugatedOperator(wavy_metric, c, stgrid, None)
        demod = np.conj(carrier) * P.apply(carrier * v)
        conj = ConjugatedOperator(wavy_metric, c, stgrid, branch).apply(v)
        assert np.max(np.abs(demod - conj)) <= 1e-10 * np.max(np.abs(conj))


class TestOperatorInputs:
    """apply/apply_adjoint transform their own temporaries, never the caller's."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["free", "wavy"])
    def test_inputs_bit_identical(self, stgrid, wavy_metric, dtype, perturbed):
        t, x = stgrid.mesh()
        u = np.exp(-(t**2 + x**2) / 8.0) * np.exp(1j * x)
        u = np.real(u) if dtype is float else u
        spec = np.fft.fftn(u)
        keep, keep_spec = u.copy(), spec.copy()
        P = ConjugatedOperator(wavy_metric if perturbed else MetricParams.free(1), 3.0,
                               stgrid, None)
        out = P.apply(u)
        np.testing.assert_array_equal(P.apply(u, spec), out)
        P.apply_adjoint(u)
        Pu, Pspec = P.apply_with_spectrum(u, spec)
        assert u.tobytes() == keep.tobytes() and spec.tobytes() == keep_spec.tobytes()
        np.testing.assert_allclose(Pu, out, rtol=0.0, atol=1e-12 * np.max(np.abs(out)))
        np.testing.assert_allclose(Pspec, np.fft.fftn(out), rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(Pspec)))


class TestZeroCoefficientTerms:
    """A coefficient that vanishes identically builds no term (lapse-only metric:
    g^{01} and the spatial remainder are 0)."""

    @staticmethod
    def _with_zero_terms(monkeypatch):
        # the terms as built before zero ones were left out
        build = pde._operator_terms

        def padded(M, c, zs, s):
            terms, c1 = build(M, c, zs, s)
            return {**terms, **{key: np.zeros(()) for key in ((0, 1), (1, 1))
                                if key not in terms}}, c1
        monkeypatch.setattr(pde, "_operator_terms", padded)

    def test_lapse_operator(self, lapse_case, monkeypatch):
        grid, psi, M, times, kg_env = lapse_case
        stg = BoxGrid((2.0, 40 * math.pi), (16, 128))
        t, x = stg.mesh()
        u = np.exp(-t**2 - (x / 4.0) ** 2) * np.exp(1j * x)
        ops = [ConjugatedOperator(M, 8.0, stg, branch) for branch in (None, MI)]
        assert all((0, 1) not in P.terms and (1, 1) not in P.terms for P in ops)
        self._with_zero_terms(monkeypatch)
        for branch, P in zip((None, MI), ops):
            ref = ConjugatedOperator(M, 8.0, stg, branch)
            assert (0, 1) in ref.terms
            for f in ("apply", "apply_adjoint"):
                a, b = getattr(P, f)(u), getattr(ref, f)(u)
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    def test_lapse_envelope(self, lapse_case, monkeypatch):
        grid, psi, M, times, kg_env = lapse_case
        t_terms = pde._operator_terms(M, 8.0, [0.3, grid.axis_points(0)], MI.sign)[0]
        assert (0, 1) not in t_terms and (1, 1) not in t_terms
        self._with_zero_terms(monkeypatch)
        ref = kg_envelope_solve(psi, MI, M, 8.0, times, grid)
        scale = max(np.max(np.abs(r.v)) for r in ref)
        assert max(np.max(np.abs(e.v - r.v)) for e, r in zip(kg_env, ref)) <= 1e-14 * scale


class TestPotential:
    def test_lone_W_returned_exactly(self):
        grid = BoxGrid.regular(10.0, 16, 1)
        mesh = grid.mesh()
        W = lambda t, x: 0.5 / (1.0 + t * t + x * x)   # real: V must still be complex
        V = SchrCoefficients(1, W=W).potential(0.3, mesh, MI)
        assert V.dtype == complex and np.array_equal(V, W(0.3, *mesh))
        Wc = lambda t, x: 1j * W(t, x)
        assert np.array_equal(SchrCoefficients(1, W=Wc).potential(0.3, mesh, PL), Wc(0.3, *mesh))

    @pytest.mark.parametrize("branch", [PL, MI])
    def test_sum_of_terms(self, branch):
        grid = BoxGrid.regular(10.0, 16, 1)
        mesh = grid.mesh()
        W = lambda t, x: 0.5 / (1.0 + x * x)
        beta = lambda t, x: 0.2 * np.cos(x) + 0.1j
        al = lambda t, x: 0.3 * np.exp(-x * x)
        co = SchrCoefficients(1, W=W, beta=beta, aleph=al)
        want = W(0.0, *mesh) - branch.sign * beta(0.0, *mesh) - al(0.0, *mesh)
        np.testing.assert_allclose(co.potential(0.0, mesh, branch), want, rtol=1e-15)
        only_beta = SchrCoefficients(1, beta=beta).potential(0.0, mesh, branch)
        assert np.array_equal(only_beta, -branch.sign * beta(0.0, *mesh))
        assert SchrCoefficients(1).potential(0.0, mesh, branch) is None


@pytest.fixture(scope="module")
def runs():
    g = BoxGrid.regular(160.0, 512, 1)
    x = g.axis_points(0)
    psi = np.exp(-(x**2) / 8.0)
    times = np.linspace(-20.0, 20.0, 161)
    W = lambda t, xx: 1j * 0.05 / (1.0 + t * t + xx * xx)
    pert = schrodinger_solve(SchrState(g, psi, -20.0), MI, times,
                             SchrCoefficients(1, W=W), dt=0.02)
    free = schrodinger_solve(SchrState(g, psi, -20.0), MI, times, dt=0.05)
    return free, pert


class TestMassBound:

    def test_free_conserves(self, runs):
        free, _ = runs
        ts, Ms = mass_trace(free)
        assert (Ms.max() - Ms.min()) <= 1e-10 * Ms[0]
        rep = mass_bound_check(free, 0.0)
        assert rep.ok

    def test_calibrated_constant_passes(self, runs):
        _, pert = runs
        rep = mass_bound_check(pert, 0.2)
        assert rep.ok and rep.gronwall_ok

    def test_undersized_constant_fails(self, runs):
        _, pert = runs
        rep = mass_bound_check(pert, 1e-4)
        assert not rep.ok
        assert rep.first_violation is not None


@pytest.fixture(scope="module")
def run():
    g = BoxGrid.regular(280.0, 2048, 1)
    x = g.axis_points(0)
    psi = np.exp(-(x**2) / 8.0)
    times = [-4.0, -8.0, -16.0, -32.0]
    return schrodinger_solve(SchrState(g, psi, 0.0), MI, times, dt=0.05)


class TestScattering:

    def test_mass_identity(self, run):
        Xg = BoxGrid.regular(8.0, 256, 1)
        for st in run:
            prof = scattering_profile(st, Xg)
            lhs, rhs = scattering_mass_identity(st, prof)
            assert abs(lhs - rhs) <= 1e-8 * lhs

    def test_cauchy_decay(self, run):
        Xg = BoxGrid.regular(8.0, 256, 1)
        profs = {st.t: scattering_profile(st, Xg) for st in run}
        diffs = []
        for T in (4.0, 8.0, 16.0):
            dv = profs[-2 * T].values - profs[-T].values
            diffs.append(np.sqrt(np.sum(np.abs(dv) ** 2) * Xg.dvol))
        slope = np.polyfit(np.log([4.0, 8.0, 16.0]), np.log(diffs), 1)[0]
        assert slope <= -0.8

    def test_free_gaussian_oracle(self, run):
        # closed form: i dv/dt = -(1/2) v_xx with v(0) = e^{-x^2/8} gives
        # v(t, x) = (1 + i t / 4)^(-1/2) exp(-x^2 / (8 (1 + i t/4)))
        st = run[0]                      # t = -4
        x = st.grid.axis_points(0)
        s = 1.0 + 1j * st.t / 4.0
        ref = s**-0.5 * np.exp(-(x**2) / (8.0 * s))
        assert np.max(np.abs(st.v - ref)) < 1e-7

    @pytest.mark.parametrize("sides,shape", [((280.0,), (2048,)), ((30.0,), (64,)),
                                             ((12.0, 20.0), (32, 16))])
    def test_trig_interp_matches_direct_sum(self, sides, shape):
        grid = BoxGrid(sides, shape)
        rng = np.random.default_rng(7)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        pts = np.stack([rng.uniform(-L / 2, L / 2, 40) for L in sides], axis=-1)
        coeffs = np.fft.fftn(vals) / vals.size
        ks = np.meshgrid(*[grid.axis_freqs(i) for i in range(grid.ndim)], indexing="ij")
        direct = np.array([np.sum(coeffs * np.exp(1j * sum(k * (x + L / 2)
                                                          for k, x, L in zip(ks, p, sides))))
                           for p in pts])
        got = _trig_interp(grid, vals, pts)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_resample_overflow(self, run):
        huge = BoxGrid.regular(40.0, 64, 1)
        with pytest.raises(ResampleOverflow):
            scattering_profile(run[-1], huge)   # 32 * 20 exceeds the box

    def test_zero_data(self):
        g = BoxGrid.regular(280.0, 256, 1)
        st = SchrState(g, np.zeros(g.shape), -4.0)
        prof = scattering_profile(st, BoxGrid.regular(8.0, 64, 1))
        assert np.all(prof.values == 0.0)
