"""Model PDE solvers: free Klein-Gordon, Schrodinger normal operator,
non-relativistic comparison, symmetry defect, mass bound, scattering."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from conftest import (count_calls, count_metric_evaluations, deadline, light_speed_inverse,
                      perturbed_metrics, profile_grad)
from nrlab import pde
from nrlab.experiments import bandlimited_gaussian
from nrlab.errors import (DegenerateMetric, GridMismatch, InvalidInput, ResampleOverflow,
                          StepFailure)
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
    SchrState,
    _trig_interp,
    conjugate_compare,
    _xi2,
    kg_envelope_solve,
    mass_bound_check,
    mass_trace,
    normal_terms,
    scattering_mass_identity,
    scattering_profile,
    schrodinger_solve,
    symmetry_defect,
)

PL, MI = SignBranch.PLUS, SignBranch.MINUS
FREE = MetricParams.free(1)


def _two_branch_route(psi, branch, c, times, grid):
    """The reference for free Klein-Gordon, (envelope, u, u_t) at each time from 0:
    u_t = s i omega u per mode puts psi on the branch of sign s; each mode
    splits into its e^{-i omega t} and e^{+i omega t} parts, both evolve
    exactly, and the envelope is u demodulated by e^{-isc^2 t}."""
    omega = c * np.sqrt(c * c + _xi2(grid))
    u_hat = np.fft.fftn(psi)
    ut_hat = branch.sign * 1j * omega * u_hat
    a, b = 0.5 * (u_hat + 1j * ut_hat / omega), 0.5 * (u_hat - 1j * ut_hat / omega)
    out = []
    for t in times:
        ea = np.exp(-1j * omega * t)
        u = np.fft.ifftn(a * ea + b / ea)
        out.append((np.exp(-1j * branch.sign * c * c * t) * u, u,
                    np.fft.ifftn(-1j * omega * (a * ea - b / ea))))
    return out


def kg_energy(grid, c, u, ut) -> float:
    """Conserved free energy: int c^-2 |u_t|^2 + |grad u|^2 + c^2 |u|^2 dx."""
    w = grid.dvol / u.size
    return float(np.sum(np.abs(np.fft.fftn(ut)) ** 2 / c**2
                        + (_xi2(grid) + c * c) * np.abs(np.fft.fftn(u)) ** 2) * w)


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
        assert abs(pde._rest_gap(c, 1.0) - (om - c * c)) <= 1e-13

    def test_rest_oscillation(self, sgrid):
        # the rest mode u = e^{isc^2 t} of either branch has the constant envelope 1
        for branch in (PL, MI):
            for state in kg_envelope_solve(np.ones(sgrid.shape), branch, FREE, 3.0,
                                           [0.0, 0.7, 5.0], sgrid):
                assert np.max(np.abs(state.v - 1.0)) <= 1e-14

    def test_zero_data(self, sgrid):
        out = kg_envelope_solve(np.zeros(sgrid.shape), MI, FREE, 5.0, [0.0, 1.0], sgrid)
        assert np.all(out[-1].v == 0.0)

    def test_energy_conserved(self, sgrid):
        # on one branch the energy is conserved iff each |v^| is: so is the envelope norm
        psi = bandlimited_gaussian(sgrid, 3.0)
        n0 = SchrState(sgrid, psi, 0.0).norm()
        for state in kg_envelope_solve(psi, MI, FREE, 8.0, np.linspace(0, 10, 11), sgrid):
            assert abs(state.norm() - n0) <= 1e-14 * n0

    @pytest.mark.parametrize("branch", [PL, MI])
    @pytest.mark.parametrize("c", [8.0, 16.0, 32.0])
    def test_matches_two_branch_route(self, sgrid, c, branch):
        # pde-compare's data; the reference conserves the free energy
        psi = bandlimited_gaussian(sgrid, 2.0)
        times = np.linspace(0.0, 1.0, 9)
        ref = _two_branch_route(psi, branch, c, times, sgrid)
        e0 = kg_energy(sgrid, c, *ref[0][1:])
        run = kg_envelope_solve(psi, branch, FREE, c, times, sgrid)
        assert [state.t for state in run] == list(times)
        for state, (env, u, ut) in zip(run, ref):
            assert np.max(np.abs(state.v - env)) <= 1e-10 * np.max(np.abs(env))
            assert abs(kg_energy(sgrid, c, u, ut) - e0) <= 1e-10 * e0

    @pytest.mark.parametrize("branch", [PL, MI])
    def test_infinite_c_is_the_free_schrodinger_step(self, sgrid, branch):
        # the rest gap at c = infinity is |xi|^2/2 exactly, and the free
        # Schrodinger output is the propagator there, bit for bit, also
        # against the multiplier e^{-is|xi|^2 (t - t0)/2}, s = -branch sign
        xi2 = _xi2(sgrid)
        assert pde._rest_gap(math.inf, xi2).tobytes() == (xi2 / 2.0).tobytes()
        psi = bandlimited_gaussian(sgrid, 2.0) * np.exp(0.5j * sgrid.mesh()[0])
        t0, times, s = 0.3, [0.3, 1.1, -2.0, 7.5], -branch.sign
        data = SchrState(sgrid, psi, t0)
        free = schrodinger_solve(data, branch, times)
        limit = pde._free_run(data, branch.sign, math.inf, times)
        for got, lim, t in zip(free, limit, times):
            want = transform(transform(psi.copy()) * np.exp(-0.5j * s * xi2 * (t - t0)),
                             inverse=True)
            assert got.t == lim.t == t and got.steps == 0
            assert got.v.tobytes() == lim.v.tobytes() == want.tobytes()


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
        terms = lambda t, mesh, s: {(1,): 5.0j + 0.0 * mesh[0]}
        psi = bandlimited_gaussian(sgrid, 2.0)
        with pytest.raises(StepFailure):
            schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [1.0], terms, dt=1.0)

    def test_drift_bound_holds_at_every_step(self):
        # |B| = 0.01 + 100 t meets dt <= dx/max|B| in the first step only; checked
        # at the start time alone, the run returned a state of norm 9e28
        grid = BoxGrid.regular(40.0, 256, 1)
        terms = lambda t, mesh, s: {(1,): 1j * (0.01 + 100.0 * t) * np.ones_like(mesh[0])}
        start = SchrState(grid, bandlimited_gaussian(grid, 2.0), 0.0)
        with deadline(20):
            (first,) = schrodinger_solve(start, MI, [0.05], terms, dt=0.05)
            assert abs(first.norm() - start.norm()) <= 1e-3 * start.norm()
            with pytest.raises(StepFailure):
                schrodinger_solve(start, MI, [1.0], terms, dt=0.05)

    def test_free_path_exact_off_the_step_grid(self, sgrid):
        # 1.2345 is no multiple of dt; the free path takes no steps, also for a
        # metric whose c = infinity limit has no term (a shift alone)
        k = sgrid.axis_freqs(0)
        xi0 = k[np.argmin(np.abs(k - 1.3))]
        psi = np.exp(1j * xi0 * sgrid.axis_points(0))
        shift = MetricParams(d=1, w=(ClassicalSymbolProfile(amplitude=0.2),))
        for branch in (PL, MI):
            for terms in (None, normal_terms(shift)):
                (out,) = schrodinger_solve(SchrState(sgrid, psi, 0.5), branch, [1.7345],
                                           terms, dt=0.1)
                expect = psi * np.exp(branch.sign * 0.5j * xi0**2 * 1.2345)
                assert np.max(np.abs(out.v - expect)) <= 1e-12
                assert out.steps == 0 and out.t == 1.7345

    @pytest.mark.parametrize("dt", [0.0, -0.5, math.nan, math.inf])
    def test_dt_must_be_finite_and_positive(self, sgrid, dt):
        psi = bandlimited_gaussian(sgrid, 2.0)
        for terms in (None, lambda t, mesh, s: {(): 0.1 + 0.0 * mesh[0]}):
            with pytest.raises(InvalidInput):
                schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [1.0], terms, dt=dt)

    def test_step_count(self, sgrid):
        # ceil(0.25 / 0.02) = 13 steps per interval, none for a repeated time
        terms = lambda t, mesh, s: {(): 0.1 / (1.0 + mesh[0] ** 2)}
        psi = bandlimited_gaussian(sgrid, 2.0)
        run = schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [0.0, 0.25, 0.25, 0.0],
                                terms, dt=0.02)
        assert [state.steps for state in run] == [0, 13, 13, 26]


def _strang_reference(data, branch, times, terms, dt):
    """The four-FFT Strang loop: each step is a kinetic half step (an
    fftn/ifftn pair), the C-step at the step's midpoint, and another kinetic
    half step; an absent term is a zero field."""
    grid = data.grid
    s = -branch.sign
    xi2 = sum(k * k for k in grid.freq_mesh())
    mesh, kmesh = grid.mesh(), grid.freq_mesh()
    zero = np.zeros(grid.shape)

    def kinetic_half(v, step):
        return np.fft.ifftn(np.fft.fftn(v) * np.exp(-1j * s * xi2 * step / 4.0))

    def c_step(v, t_mid, step):
        T = terms(t_mid, mesh, branch.sign)
        V = np.asarray(T.get((), zero), dtype=complex)
        iB = [np.asarray(T.get((1 + j,), zero), dtype=complex) for j in range(grid.ndim)]
        v = np.exp(0.5j * s * V * step / 2.0) * v

        def f(w):     # s (i/2) i B . grad w
            out = np.zeros_like(w)
            wh = np.fft.fftn(w)
            for j in range(grid.ndim):
                out += iB[j] * np.fft.ifftn(1j * kmesh[j] * wh)
            return 0.5j * s * out

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
    B = ()
    if "B" in present:
        bmax = 0.2 * min(grid.spacings) / dt   # |B| <= 1.5 bmax
        B = tuple(field(draw(st.floats(-bmax, bmax)), draw(st.floats(0.5, 3.0)),
                        draw(st.floats(-1.0, 1.0))) for _ in range(d))

    def terms(t, mesh, s):
        # V = W - s beta - aleph and i B_j, the normal operator's terms
        sign = {"W": 1.0, "beta": -s, "aleph": -1.0}
        out = {(1 + j,): 1j * Bj(t, *mesh) for j, Bj in enumerate(B)}
        if kw:
            out[()] = sum(sign[name] * f(t, *mesh) for name, f in kw.items())
        return out
    return grid, v0, t0, times, dt, terms


class TestStrangOracle:
    @given(case=strang_cases(), branch=st.sampled_from([PL, MI]))
    @settings(max_examples=60, deadline=None)
    def test_matches_four_fft_loop(self, case, branch):
        grid, v0, t0, times, dt, terms = case
        data = SchrState(grid, v0, t0)
        got = schrodinger_solve(data, branch, times, terms, dt=dt)
        ref = _strang_reference(data, branch, times, terms, dt)
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
        cases = [(lambda t, mesh, s: {(): W0}, W0),     # a 0-d field
                 (lambda t, mesh, s: {(): -s * beta0 - aleph0 + 0.0 * mesh[0]},
                  -branch.sign * beta0 - aleph0)]
        t0, times, s = 0.4, [0.4, 1.13, -0.6, 2.0], -branch.sign
        free = schrodinger_solve(SchrState(grid, v0, t0), branch, times)
        for terms, V in cases:
            run = schrodinger_solve(SchrState(grid, v0, t0), branch, times, terms, dt=0.07)
            for got, want in zip(run, free):
                want = np.exp(0.5j * s * V * (want.t - t0)) * want.v
                assert np.max(np.abs(got.v - want)) <= 1e-12 * np.max(np.abs(want))


class TestNonRelativisticComparison:
    def test_second_order_ladder(self, sgrid):
        psi = bandlimited_gaussian(sgrid, 2.0)
        times = np.linspace(0.0, 1.0, 9)
        errs = {}
        for c in (8.0, 16.0, 32.0):
            kgs = kg_envelope_solve(psi, MI, FREE, c, times, sgrid)
            ss = schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, times, dt=0.02)
            errs[c] = conjugate_compare(kgs, ss)
        assert 3.2 <= errs[8.0] / errs[16.0] <= 4.8
        assert 3.2 <= errs[16.0] / errs[32.0] <= 4.8
        assert errs[8.0] > errs[16.0] > errs[32.0]

    def test_branch_swap_is_order_one(self, sgrid):
        psi = bandlimited_gaussian(sgrid, 2.0)
        times = np.linspace(0.0, 1.0, 9)
        c = 8.0
        kgs = kg_envelope_solve(psi, MI, FREE, c, times, sgrid)
        wrong = schrodinger_solve(SchrState(sgrid, psi, 0.0), PL, times, dt=0.02)
        assert conjugate_compare(kgs, wrong) > 0.5

    def test_empty_runs(self, sgrid):
        # no output time: both solvers give no state, and the comparison of two
        # empty runs is an InvalidInput, not an IndexError
        psi = bandlimited_gaussian(sgrid, 2.0)
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3))
        assert kg_envelope_solve(psi, MI, M, 4.0, [], sgrid) == []
        assert schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [], normal_terms(M)) == []
        with pytest.raises(InvalidInput):
            conjugate_compare([], [])

    def test_zero_data(self, sgrid):
        times = [0.0, 1.0]
        z = np.zeros(sgrid.shape, dtype=complex)
        kgs = kg_envelope_solve(z, MI, FREE, 8.0, times, sgrid)
        one = bandlimited_gaussian(sgrid, 2.0)
        ss = schrodinger_solve(SchrState(sgrid, one, 0.0), MI, times, dt=0.1)
        errs = [np.sqrt(np.sum(np.abs(k.v) ** 2)) for k in kgs]
        assert max(errs) == 0.0


@pytest.fixture(scope="module")
def lapse_case():
    """ACCEPTANCE 6's lapse case: alpha amplitude 0.3, c = 8, 128 points, T = 1."""
    grid = BoxGrid.regular(40 * math.pi, 128, 1)
    psi = bandlimited_gaussian(grid, 2.0)
    M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3))
    times = np.linspace(0.0, 1.0, 9)
    return grid, psi, M, times, kg_envelope_solve(psi, MI, M, 8.0, times, grid)


def _lapse_reference(psi, branch, M, c, times, grid, per_unit):
    """RK4, ``per_unit`` steps per unit time, of the lapse metric's conjugated
    equation, derived by hand for g = -(c^2 - alpha) dt^2 + dx^2:

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
        n = max(1, math.ceil(abs(target - t) * per_unit))
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


def _stepped_free_run(psi, branch, c, times, grid, dt=0.01) -> list:
    """The finite-c Strang stepper on an empty table from the free metric's branch data
    (w_-s = 0): its fused exact half steps, which the exact path must match."""
    spectra = [transform(np.array(psi, dtype=complex)), np.zeros(grid.shape, dtype=complex)]
    return [state for state, _ in pde._strang(grid, c, branch.sign, spectra, float(times[0]),
                                              times, lambda t, mesh, r: {}, dt)]


def _free_branch_error(c, f, branch, n, side):
    """Sup error of the envelope stepper against exact free Klein-Gordon over
    t <= 0.25, for a Gaussian at xi0 = f c carried on one branch."""
    grid = BoxGrid.regular(side, n, 1)
    x = grid.axis_points(0)
    psi = np.exp(-x * x / 4.0 + 1j * f * c * x)
    times = np.linspace(0.0, 0.25, 3)
    env = _stepped_free_run(psi, branch, c, times, grid)
    kgs = kg_envelope_solve(psi, branch, FREE, c, times, grid)
    return max(np.max(np.abs(k.v - e.v)) for k, e in zip(kgs, env))


class TestAlephCoupling:
    def test_potential_needed_for_rate(self, lapse_case):
        grid, psi, M, times, kg_env = lapse_case
        with_pot = schrodinger_solve(SchrState(grid, psi, 0.0), MI, times, normal_terms(M),
                                     dt=0.01)
        without = schrodinger_solve(SchrState(grid, psi, 0.0), MI, times,
                                    normal_terms(replace(M, alpha=ClassicalSymbolProfile.zero())),
                                    dt=0.01)
        good = conjugate_compare(kg_env, with_pot)
        bad = conjugate_compare(kg_env, without)
        assert bad >= 5.0 * good

    def test_envelope_solver_free_consistency(self):
        grid = BoxGrid.regular(40 * math.pi, 128, 1)
        psi = bandlimited_gaussian(grid, 2.0)
        times = np.linspace(0.0, 1.0, 5)
        c = 8.0
        env = _stepped_free_run(psi, MI, c, times, grid)
        kgs = kg_envelope_solve(psi, MI, FREE, c, times, grid)
        worst = max(np.max(np.abs(s.v - e.v)) for s, e in zip(kgs, env))
        assert worst < 1e-8


@pytest.fixture(scope="module")
def lapse_converged(lapse_case):
    """The hand-derived lapse equation solved to convergence: RK4 at dt = 1/(8c^2)."""
    grid, psi, M, times, _ = lapse_case
    return _lapse_reference(psi, MI, M, 8.0, times, grid, 8 * 8.0**2)


def _sup_error(run, ref) -> float:
    return max(float(np.max(np.abs(state.v - r))) for state, r in zip(run, ref))


class TestEnvelopeSolver:
    @pytest.mark.parametrize("d", [1, 2])
    def test_free_metric_is_the_exact_path(self, d, monkeypatch):
        # no term in the table: the free propagator at c bit for bit, with no step,
        # no table and no metric evaluation, off the step grid and backwards in time
        grid = BoxGrid.regular(20.0, 64 if d == 1 else 32, d)
        mesh = grid.mesh()
        psi = np.exp(-sum(m * m for m in mesh) / 6.0) * np.exp(0.7j * mesh[0])
        times = [0.3, 1.1, -2.0, 7.5]
        tables = count_calls(monkeypatch, pde._operator_terms)
        metrics = count_metric_evaluations(monkeypatch)
        for branch in (PL, MI):
            run = kg_envelope_solve(psi, branch, MetricParams.free(d), 8.0, times, grid)
            want = pde._free_run(SchrState(grid, psi, times[0]), branch.sign, 8.0, times)
            assert [state.t for state in run] == times
            assert [state.steps for state in run] == [0] * len(times)
            assert all(got.v.tobytes() == ref.v.tobytes() for got, ref in zip(run, want))
        assert tables == [] and metrics == []

    def test_lapse_matches_hand_derived_equation(self, lapse_case, lapse_converged):
        # second order in dt against the converged hand-derived equation
        grid, psi, M, times, _ = lapse_case
        e10, e5 = (_sup_error(kg_envelope_solve(psi, MI, M, 8.0, times, grid, dt=dt),
                              lapse_converged) for dt in (0.01, 0.005))
        assert e5 <= 5e-6
        assert 3.0 <= e10 / e5 <= 5.0

    @pytest.mark.parametrize("dt", [0.05, 0.25])
    def test_large_step_stays_accurate(self, lapse_case, lapse_converged, dt):
        # an explicit step at dt = 0.05 returned states 1.4e30 too large, with no warning
        grid, psi, M, times, _ = lapse_case
        scale = max(np.max(np.abs(r)) for r in lapse_converged)
        run = kg_envelope_solve(psi, MI, M, 8.0, times, grid, dt=dt)
        assert _sup_error(run, lapse_converged) <= 5e-4 * scale

    def test_cost_does_not_grow_with_c(self, lapse_case, monkeypatch):
        # the same steps at c = 8 and at c = 128, and per step one table with one
        # metric evaluation for both branches, plus one of each per output time (9
        # here, the start among them), where kappa is checked as at the midpoints
        grid, psi, M, times, _ = lapse_case
        tables = count_calls(monkeypatch, pde._operator_terms)
        metrics = count_metric_evaluations(monkeypatch)
        counts = []
        for c in (8.0, 128.0):
            before = len(tables), len(metrics)
            run = kg_envelope_solve(psi, MI, M, c, times, grid, dt=0.02)
            assert [state.steps for state in run] == [7 * i for i in range(9)]
            counts.append((len(tables) - before[0], len(metrics) - before[1]))
        assert counts == [(56 + 9, 56 + 9), (56 + 9, 56 + 9)]

    def test_no_time_function_is_degenerate(self):
        # where g^00 >= 0, t is no time function and kappa = 1/(-c^2 g^00) has no meaning:
        # the solver once returned a state of norm 9.8e4 from data of norm 2.2, no warning
        grid = BoxGrid.regular(40 * math.pi, 128, 1)
        P = ClassicalSymbolProfile
        M = MetricParams(d=1, w=(P(amplitude=0.5),), hjk=((P(amplitude=-1.5),),))
        z = np.stack(np.broadcast_arrays(0.0, *grid.mesh()), axis=-1)
        assert np.max(eval_metric(M, ball_from_base(z), 1.0).G[..., 0, 0]) > 1.0
        with pytest.raises(DegenerateMetric, match="time function"):
            kg_envelope_solve(bandlimited_gaussian(grid, 2.0), MI, M, 1.0, [0.0, 0.5], grid)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3, 1e-4, 1e-5])
    def test_degenerate_start_is_degenerate(self, dt):
        # -c^2 g^00 is exactly 0 at t = 0, x = 0, and no midpoint lies at t = 0: the
        # solver once returned a state whose norm had grown by 1.8e12 at dt = 1e-2
        grid = BoxGrid.regular(40 * math.pi, 128, 1)
        P = ClassicalSymbolProfile
        M = MetricParams(d=1, w=(P(amplitude=0.5),), hjk=((P(amplitude=-1.0),),))
        x = grid.axis_points(0)
        psi = np.exp(-(x / 4.0) ** 2 + 1j * x)
        with deadline(20), pytest.raises(DegenerateMetric, match="time function"):
            kg_envelope_solve(psi, MI, M, 1.0, [0.0, 0.1], grid, dt=dt)

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
        schr = schrodinger_solve(SchrState(grid, psi, 0.0), MI, times, normal_terms(M), dt=0.01)
        e8, e16 = (conjugate_compare(kg_envelope_solve(psi, MI, M, c, times, grid), schr)
                   for c in (8.0, 16.0))
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
                                     normal_terms(M), dt=0.01)
            e8, e16 = (conjugate_compare(kg_envelope_solve(psi, branch, M, c, times, grid), schr)
                       for c in (8.0, 16.0))
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


_LAPSE = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3))


def _twisted_run(*args, **kwargs) -> list:
    """kg_envelope_solve(*args, **kwargs) as the (state, branch spectra) pairs of its stepper."""
    real, runs = pde._strang, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "_strang", lambda *a: runs.append(real(*a)) or runs[-1])
        kg_envelope_solve(*args, **kwargs)
    return runs[0]


def _charge(M, c, grid, sign, t, spectra) -> float:
    """Q = int sqrt|g| g^{0 nu} Im(conj(u) d_nu u) dx at t, u = sum_r e^{irc^2 t} w_r and
    u_t = sum_r i r omega e^{irc^2 t} w_r for the twisted envelopes (w_sign, w_-sign), from
    one eval_metric call: sqrt|g| = c sqrt|det g_nat|, g^00 = G_00/c^2, g^0j = G_0j/c."""
    omega = c * c + pde._rest_gap(c, _xi2(grid))
    parts = [np.exp(1j * r * c * c * t) * w for r, w in zip((sign, -sign), spectra)]
    uh, uth = sum(parts), sum(1j * r * omega * p for r, p in zip((sign, -sign), parts))
    u, ut = (transform(f.copy(), inverse=True) for f in (uh, uth))
    z = np.stack(np.broadcast_arrays(t, *grid.mesh()), axis=-1)
    mv = eval_metric(M, ball_from_base(z), 1.0 / c)
    j0 = mv.G[..., 0, 0] / c**2 * np.imag(np.conj(u) * ut)
    for j, k in enumerate(grid.freq_mesh()):
        j0 += mv.G[..., 0, 1 + j] / c * np.imag(np.conj(u) * transform(1j * k * uh, inverse=True))
    return float(np.sum(c * np.sqrt(np.abs(np.linalg.det(mv.g))) * j0) * grid.dvol)


class TestCharge:
    """The Klein-Gordon charge of box_g - c^2 is conserved for any metric: the oracle of
    the envelope solver at every c, read off its two twisted branches."""

    @pytest.mark.parametrize("name", ["alpha", "w", "hjk", "wavy"])
    def test_conserved_and_tends_to_the_mass(self, name, wavy_metric):
        # Q holds to 1e-7 on a grid that resolves the metric's products (512 points), and
        # Q/c -> -s ||v||^2 like c^-2: a factor 16 per 4x in c
        P = ClassicalSymbolProfile
        M = {"alpha": _LAPSE, "w": MetricParams(d=1, w=(P(amplitude=0.2),)),
             "hjk": MetricParams(d=1, hjk=((P(amplitude=0.1),),)), "wavy": wavy_metric}[name]
        grid = BoxGrid.regular(40 * math.pi, 512, 1)
        psi = bandlimited_gaussian(grid, 2.0)
        gaps = []
        for c in (8.0, 32.0, 128.0):
            run = _twisted_run(psi, MI, M, c, np.linspace(0.0, 1.0, 9), grid, dt=0.02)
            Q = np.array([_charge(M, c, grid, MI.sign, st.t, spectra) for st, spectra in run])
            assert np.max(np.abs(Q - Q[0])) <= 1e-7 * abs(Q[0])
            mass = run[-1][0].norm() ** 2
            gaps.append(abs(Q[-1] / c + MI.sign * mass) / mass)
        assert all(12.0 <= a / b <= 20.0 for a, b in zip(gaps, gaps[1:])), gaps

    @pytest.mark.parametrize("c", [8.0, 32.0])
    def test_conserved_in_two_dimensions(self, c):
        # the branch axis ahead of two space axes, and a shift and spatial metric
        # that couple them
        P = ClassicalSymbolProfile
        wave = lambda a, k: P(amplitude=a, waves=((k, 0.4, -0.2),))
        off = P(amplitude=0.04)
        M = MetricParams(d=2, alpha=wave(0.3, (0.5, 0.3, 0.2)),
                         w=(P(amplitude=0.2), wave(0.1, (0.2, -0.6, 0.4))),
                         hjk=((wave(0.1, (0.3, 0.9, -0.5)), off), (off, P(amplitude=-0.08))))
        grid = BoxGrid.regular(8 * math.pi, 64, 2)
        x1, x2 = grid.mesh()
        psi = np.exp(-(x1**2 + x2**2) / 16.0) * np.exp(1j * x1)
        run = _twisted_run(psi, MI, M, c, np.linspace(0.0, 0.5, 6), grid, dt=0.02)
        Q = np.array([_charge(M, c, grid, MI.sign, st.t, spectra) for st, spectra in run])
        assert np.max(np.abs(Q - Q[0])) <= 1e-7 * abs(Q[0])


class TestSolverInputs:
    """A time, state, grid or metric that a solver cannot use raises a typed
    error, with no warning, raw numpy error or silent result first."""

    @pytest.mark.parametrize("solve", [
        lambda g, psi, times: schrodinger_solve(SchrState(g, psi, 0.0), MI, times),
        lambda g, psi, times: schrodinger_solve(SchrState(g, psi, 0.0), MI, times,
                                                normal_terms(_LAPSE), dt=0.1),
        lambda g, psi, times: kg_envelope_solve(psi, MI, _LAPSE, 4.0, times, g),
        lambda g, psi, times: kg_envelope_solve(psi, MI, FREE, 4.0, times, g),
    ], ids=["schrodinger_free", "schrodinger_table", "envelope", "free_kg"])
    @pytest.mark.parametrize("times", [[math.nan], [0.0, math.inf], [0.0, -math.inf, 1.0],
                                       [0.0, math.nan]])
    def test_times_must_be_finite(self, sgrid, solve, times):
        psi = bandlimited_gaussian(sgrid, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput):
                solve(sgrid, psi, times)

    @pytest.mark.parametrize("solve", [
        lambda g, psi, dt: schrodinger_solve(SchrState(g, psi, 0.0), MI, [0.01, 0.02],
                                             normal_terms(_LAPSE), dt=dt),
        lambda g, psi, dt: kg_envelope_solve(psi, MI, _LAPSE, 4.0, [0.0, 0.01, 0.02], g, dt=dt),
    ], ids=["schrodinger_table", "envelope"])
    def test_step_count_is_bounded(self, sgrid, monkeypatch, solve):
        # dt = 1e-300 asks for 10^298 steps: InvalidInput before the first one
        # (the alarm turns a solver that starts them into a failure, not a hang)
        psi = bandlimited_gaussian(sgrid, 2.0)
        with deadline(20), pytest.raises(InvalidInput, match="steps"):
            solve(sgrid, psi, 1e-300)
        # the bound holds for the call's steps in all: 2 + 2 pass, 3 + 3 do not
        monkeypatch.setattr(pde, "MAX_STEPS", 4)
        assert [s.t for s in solve(sgrid, psi, 0.005)][-2:] == [0.01, 0.02]
        with pytest.raises(InvalidInput, match="steps"):
            solve(sgrid, psi, 0.0049)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_state_time_must_be_finite(self, sgrid, t):
        # a NaN start once ran the free path to an all-NaN state labelled t = 1
        with pytest.raises(InvalidInput):
            schrodinger_solve(SchrState(sgrid, np.ones(sgrid.shape), t), MI, [1.0])

    def test_state_off_its_grid(self, sgrid):
        with pytest.raises(GridMismatch):
            SchrState(sgrid, np.ones(sgrid.ns[0] - 1), 0.0)
        with pytest.raises(GridMismatch):
            kg_envelope_solve(np.ones(sgrid.ns[0] - 1), MI, FREE, 8.0, [0.0, 1.0], sgrid)

    @pytest.mark.parametrize("M", [
        MetricParams(d=2, W=OperatorCoefficient(real=ClassicalSymbolProfile(amplitude=0.1))),
        MetricParams(d=2, alpha=ClassicalSymbolProfile(
            amplitude=0.3, waves=(((0.5, 0.3, 0.2), 0.4, 0.1),))),
    ], ids=["W", "alpha"])
    def test_metric_of_another_dimension(self, sgrid, M):
        # a d = 2 metric on a 1-d grid: before, W alone ran as the d = 1 metric
        psi = bandlimited_gaussian(sgrid, 2.0)
        with pytest.raises(GridMismatch):
            kg_envelope_solve(psi, MI, M, 4.0, [0.0, 0.01], sgrid)
        with pytest.raises(GridMismatch):
            schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [0.1], normal_terms(M), dt=0.05)
        with pytest.raises(GridMismatch):
            ConjugatedOperator(M, 4.0, BoxGrid((2.0, 20.0), (8, 16)), MI)

    def test_profile_grid_of_another_dimension(self):
        g = BoxGrid.regular(280.0, 256, 1)
        state = SchrState(g, np.exp(-g.axis_points(0) ** 2 / 8.0), -4.0)
        with pytest.raises(GridMismatch):
            scattering_profile(state, BoxGrid.regular(8.0, 8, 2))

    def test_zero_reference_is_invalid_input(self, sgrid):
        zero = SchrState(sgrid, np.zeros(sgrid.shape), 0.0)
        with pytest.raises(InvalidInput):
            conjugate_compare([zero], [zero])

    def test_compare_runs_on_other_grids(self):
        # runs on 16 and 32 points died in a raw numpy broadcast ValueError
        a, b = (SchrState(BoxGrid.regular(20.0, n, 1), np.ones(n), 0.0) for n in (16, 32))
        with pytest.raises(GridMismatch):
            conjugate_compare([a], [b])
        # the same shape on another box is another grid too
        c = SchrState(BoxGrid.regular(40.0, 16, 1), np.ones(16), 0.0)
        with pytest.raises(GridMismatch):
            conjugate_compare([c], [a])

    @pytest.mark.parametrize("n", [0, 1])
    def test_mass_bound_needs_two_states(self, sgrid, n):
        states = [SchrState(sgrid, np.ones(sgrid.shape), 0.0)][:n]
        with pytest.raises(InvalidInput):
            mass_bound_check(states, 0.2)


@pytest.fixture(scope="module")
def stgrid():
    return BoxGrid.regular(40.0, 512, 2)


def _adjoint_reference(P, u):
    """P* u, P's Euclidean adjoint by transforms: (a d^key)* = (-d)^key (conj(a) .),
    and the free multiplier is real."""
    out = transform(P.mult * transform(u.astype(complex)), inverse=True)
    for key, a in P.terms.items():
        v = np.conj(a) * u
        sym = math.prod((-1j * P.k[i] for i in key), start=1.0)
        out += transform(sym * transform(v), inverse=True) if key else v
    return out


def _skew_check(M, branch, grid, c=10.0):
    """(error, skew, table): the max of |sum_i r_i d_i u + r_0 u - (P u - P* u)/2i|, with
    symmetry_defect's fields r and the reference adjoint, on a Gaussian u well inside
    the fit mask; the max of the reference (P u - P* u)/2i; and the max of the terms
    table's part of P u, the size of what P u - P* u cancels (its multiplier cancels
    exactly)."""
    kept = []

    class Kept(ConjugatedOperator):     # symmetry_defect's own P, so it is built once
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "ConjugatedOperator", Kept)
        rep = symmetry_defect(M, c, grid, branch)
    (P,) = kept
    u = np.exp(-sum(m * m for m in grid.mesh()) / (2.0 * (min(grid.sides) / 28.0) ** 2))
    spec = transform(u.astype(complex))
    Pu = P.apply(u)
    ref = (Pu - _adjoint_reference(P, u)) / 2j
    *r, r0 = rep.coefficients.values()
    got = r0 * u + sum(ri * transform(1j * k * spec, inverse=True)
                       for ri, k in zip(r, grid.freq_mesh()))
    table = Pu - transform(P.mult * spec, inverse=True)
    return tuple(float(np.max(np.abs(f))) for f in (got - ref, ref, table))


class TestSymmetryDefect:
    @pytest.mark.parametrize("branch", [PL, MI, None], ids=["plus", "minus", "none"])
    @pytest.mark.parametrize("full", [False, True], ids=["wavy", "full"])
    def test_closed_form_is_the_skew_operator(self, stgrid, wavy_metric, full, branch):
        M = _full_metric(1) if full else wavy_metric
        err, skew, table = _skew_check(M, branch, stgrid)
        assert skew >= 1e-4
        assert err <= 1e-9 * table

    @given(M=perturbed_metrics(1, lower=True), branch=st.sampled_from([PL, MI, None]))
    @settings(max_examples=3, deadline=None)
    def test_closed_form_over_perturbed_metrics(self, stgrid, M, branch):
        err, _, table = _skew_check(M, branch, stgrid)
        assert err <= 1e-9 * table

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
        target = -0.5 * profile_grad(M.B[0].real, np.stack(stgrid.mesh(), axis=-1))[..., 1]
        assert np.max(np.abs(rep.coefficients["r_0"][rep.mask] - target[rep.mask])) <= 1e-9

    def test_decay_fit_needs_three_shells(self):
        # on a side-4 box the fit mask spans no shell of <z> >= 2: the order of
        # a field that does not vanish cannot be fitted (it read -inf), while one
        # below 1e-13 keeps -inf
        grid = BoxGrid.regular(4.0, 64, 2)
        M = MetricParams(d=1, W=OperatorCoefficient(
            imag=ClassicalSymbolProfile(amplitude=0.1, order=-2)))
        with pytest.raises(InvalidInput):
            symmetry_defect(M, 10.0, grid)
        rep = symmetry_defect(MetricParams.free(1), 10.0, grid)
        assert set(rep.fitted_orders.values()) == {-np.inf}


def _callers(name: str) -> set:
    """(file, function) of every call to ``name`` in the package, a method counting
    by its own name and module-level code by its line."""
    callers = set()
    for path in sorted(Path(pde.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for unit in (node for top in tree.body
                     for node in (top.body if isinstance(top, ast.ClassDef) else [top])):
            for node in ast.walk(unit):
                if (isinstance(node, ast.Call) and
                        getattr(node.func, "id", getattr(node.func, "attr", None)) == name):
                    callers.add((path.name, getattr(unit, "name", node.lineno)))
    return callers


def test_one_applier_of_a_terms_table():
    # the spectral symbol of d^key is read by the applier and by the skew-part
    # builder alone, so that no third loop over a terms table comes back
    assert _callers("_symbol") == {("pde.py", "_apply_terms"), ("pde.py", "symmetry_defect")}


def test_one_free_propagator():
    # the exact path of both regimes, c finite and c = infinity, is the one free
    # propagator, and no third entry point for a free run comes back
    assert _callers("_free_run") == {("pde.py", "kg_envelope_solve"),
                                     ("pde.py", "schrodinger_solve")}


def test_one_metric_evaluation_in_pde():
    # every pde coefficient field comes from the terms table, so that a second
    # eval_metric per step (one per branch, say) does not come back
    assert {unit for path, unit in _callers("eval_metric") if path == "pde.py"} == {
        "_operator_terms"}


class TestConjugatedOperator:
    def test_divergence_terms_match_finite_differences(self, wavy_metric):
        # first-order part of the d'Alembertian:
        # c1_j = d_i g^{ij} + g^{ij} d_i log sqrt|det g|
        grid = BoxGrid.regular(20.0, 16, 2)
        c = 3.0
        # with no B or beta, P's (i,) row is c1_i
        op = ConjugatedOperator(wavy_metric, c, grid, None)
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
            c1 = np.array([op.terms[(i,)][idx] for i in range(2)])
            assert np.max(np.abs(c1 - expected)) <= 1e-9

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
            expect = expect - op.terms[(i,)] * z[..., i] / 4.0 * v
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
    """apply transforms its own temporaries, never the caller's."""

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
        Pspec = P.apply_to_spectrum(spec, lambda: u)
        assert u.tobytes() == keep.tobytes() and spec.tobytes() == keep_spec.tobytes()
        np.testing.assert_allclose(np.fft.ifftn(Pspec), out, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(out)))
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
            terms = build(M, c, zs, s)
            return {**terms, **{key: np.zeros(()) for key in ((0, 1), (1, 1))
                                if key not in terms}}
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
            a, b = P.apply(u), ref.apply(u)
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    def test_lapse_envelope(self, lapse_case, monkeypatch):
        grid, psi, M, times, kg_env = lapse_case
        t_terms = pde._operator_terms(M, 8.0, [0.3, grid.axis_points(0)], MI.sign)
        assert (0, 1) not in t_terms and (1, 1) not in t_terms
        self._with_zero_terms(monkeypatch)
        ref = kg_envelope_solve(psi, MI, M, 8.0, times, grid)
        scale = max(np.max(np.abs(r.v)) for r in ref)
        assert max(np.max(np.abs(e.v - r.v)) for e, r in zip(kg_env, ref)) <= 1e-14 * scale


def _full_metric(d):
    """alpha, a shift (which the c = infinity limit drops), and beta, B and W
    with imaginary parts (Im B decaying in c)."""
    prof = lambda a, order=-1, k=0.7: ClassicalSymbolProfile(
        amplitude=a, order=order, waves=(((k,) * (d + 1), 0.3, -0.2),))
    return MetricParams(
        d=d, alpha=prof(0.3), w=tuple(prof(0.2, k=1.1) for _ in range(d)),
        beta=OperatorCoefficient(prof(0.5, k=0.4), prof(0.1, -2)),
        B=tuple(OperatorCoefficient(prof(0.4 - 0.1 * j, k=0.9), prof(0.2, -2), True)
                for j in range(d)),
        W=OperatorCoefficient(prof(0.25, k=1.3), prof(0.15, -2)))


class TestNormalOperatorTerms:
    """normal_terms is _operator_terms at c = infinity."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("s", [1, -1])
    def test_closed_form_oracle(self, d, s):
        M = _full_metric(d)
        mesh = BoxGrid.regular(12.0, 8, d).mesh()
        t = 0.3
        z = np.stack(np.broadcast_arrays(t, *mesh), axis=-1)
        got = normal_terms(M)(t, mesh, s)
        want = {(): M.W(z, math.inf) - s * M.beta(z, math.inf) + M.alpha(z),
                **{(1 + j,): 1j * np.real(Bj(z, math.inf)) for j, Bj in enumerate(M.B)}}
        assert set(got) == set(want)
        for key, field in want.items():
            np.testing.assert_allclose(got[key], field, rtol=1e-14, atol=1e-16)

    @pytest.mark.parametrize("s", [1, -1])
    def test_without_aleph_only_alpha_goes(self, s):
        M = _full_metric(2)
        mesh = BoxGrid.regular(12.0, 8, 2).mesh()
        z = np.stack(np.broadcast_arrays(0.3, *mesh), axis=-1)
        full = normal_terms(M)(0.3, mesh, s)
        without = normal_terms(replace(M, alpha=ClassicalSymbolProfile.zero()))(0.3, mesh, s)
        assert set(without) == set(full)
        np.testing.assert_allclose(without[()], full[()] - M.alpha(z), rtol=1e-14, atol=1e-16)
        assert all(np.array_equal(without[key], full[key]) for key in ((1,), (2,)))

    def test_metric_without_limit_terms_is_the_free_path(self):
        shift = MetricParams(d=2, w=(ClassicalSymbolProfile(amplitude=0.2),
                                     ClassicalSymbolProfile(amplitude=-0.1)))
        zero = ClassicalSymbolProfile.zero()
        spatial = MetricParams(d=2, hjk=((ClassicalSymbolProfile(amplitude=0.1), zero),
                                         (zero, zero)))
        lapse = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=0.3))
        assert normal_terms(shift) is None
        assert normal_terms(spatial) is None
        assert normal_terms(MetricParams.free(3)) is None
        assert normal_terms(replace(lapse, alpha=ClassicalSymbolProfile.zero())) is None

    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), s=st.sampled_from([1, -1]))
    @settings(max_examples=25, deadline=None)
    def test_finite_c_rows_approach_the_limit_like_one_over_c(self, data, d, s):
        # every finite-c row differs from its c = infinity value (0 for a row
        # the limit lacks) by O(1/c), so c |row(c) - row(inf)| may not grow
        # beyond its c = 64 value; 1.25 allows for the O(1/c^2) remainder, and
        # the floor is the round-off of c^4 (g^00 + c^-2), eps c^2, times c
        M = data.draw(perturbed_metrics(d, lower=True))
        zs = list(np.random.default_rng(d).uniform(-4.0, 4.0, (d + 1, 12)))
        limit = pde._operator_terms(M, math.inf, zs, s)
        scaled = {}
        for c in (64.0, 256.0, 1024.0):
            terms = pde._operator_terms(M, c, zs, s)
            for key in set(terms) | set(limit):
                err = np.max(np.abs(terms.get(key, 0.0) - limit.get(key, 0.0)))
                scaled.setdefault(key, []).append(c * err)
        eps = np.finfo(float).eps
        for key, (e64, *rest) in scaled.items():
            for c, e in zip((256.0, 1024.0), rest):
                assert e <= 1.25 * e64 + 16.0 * eps * c**3, (key, c, scaled[key])

    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), s=st.sampled_from([1, -1]))
    @settings(max_examples=25, deadline=None)
    def test_limit_is_the_richardson_limit_of_finite_c_rows(self, data, d, s):
        # with h = 1/c, R(c0) = (T(c0) - 6 T(2 c0) + 8 T(4 c0)) / 3 cancels the h
        # and h^2 parts of every row (0 for a row a table lacks), so
        # |R(c0) - T(inf)| is O(c0^-3) and falls 64x from c0 = 8 to 32; the gate
        # asks a quarter of that, above the round-off floor 16 eps c^3 at c = 4 c0
        M = data.draw(perturbed_metrics(d, lower=True))
        zs = list(np.random.default_rng(d).uniform(-4.0, 4.0, (d + 1, 12)))
        T = {c: pde._operator_terms(M, c, zs, s) for c in (8.0, 16.0, 32.0, 64.0, 128.0, math.inf)}
        floor = 16.0 * np.finfo(float).eps * 128.0**3
        for key in set().union(*T.values()):
            row = {c: table.get(key, 0.0) for c, table in T.items()}
            e8, e32 = (np.max(np.abs((row[c0] - 6.0 * row[2 * c0] + 8.0 * row[4 * c0]) / 3.0
                                     - row[math.inf])) for c0 in (8.0, 32.0))
            assert e32 <= e8 / 16.0 + floor, (key, e8, e32)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("c", [8.0, math.inf])
    def test_signs_on_an_axis_stack_the_branch_tables(self, d, c):
        # the stepper's one table for both branches is each branch's table, bit for bit
        M = _full_metric(d)
        zs = [0.3, *BoxGrid.regular(12.0, 8, d).mesh()]
        both = pde._operator_terms(M, c, zs, np.reshape([1, -1], (-1,) + (1,) * d))
        for b, s in enumerate((1, -1)):
            one = pde._operator_terms(M, c, zs, s)
            assert set(both) == set(one)
            for key, a in one.items():
                np.testing.assert_array_equal(np.broadcast_to(both[key], (2, *a.shape))[b], a)

    @pytest.mark.parametrize("c", [8.0, math.inf])
    def test_has_terms_is_the_empty_table(self, c):
        # _has_terms is false exactly where every branch's table is empty: the
        # solvers' exact path, and normal_terms' None, take no term away
        P = ClassicalSymbolProfile
        one = OperatorCoefficient(real=P(amplitude=0.2))
        metrics = [MetricParams.free(2), MetricParams(d=2, w=(P(amplitude=0.2), P.zero())),
                   MetricParams(d=2, hjk=((P(amplitude=0.1), P.zero()), (P.zero(), P.zero()))),
                   MetricParams(d=2, alpha=P(amplitude=0.3)), MetricParams(d=2, beta=one),
                   MetricParams(d=2, W=one), MetricParams(d=2, B=(OperatorCoefficient(), one))]
        zs = [0.3, *BoxGrid.regular(12.0, 8, 2).mesh()]
        for M in metrics:
            rows = [bool(pde._operator_terms(M, c, zs, s)) for s in (1, -1)]
            assert rows == [pde._has_terms(M, c)] * 2, M

    def test_finite_c_table_is_not_stepped(self, sgrid):
        # a finite-c table holds time and second-order rows: InvalidInput
        M = MetricParams(d=1, w=(ClassicalSymbolProfile(amplitude=0.2),))
        terms = lambda t, mesh, s: pde._operator_terms(M, 8.0, [t, *mesh], s)
        psi = bandlimited_gaussian(sgrid, 2.0)
        with pytest.raises(InvalidInput):
            schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [0.5], terms, dt=0.05)

    def test_no_term_at_a_step_is_the_identity(self, sgrid):
        psi = bandlimited_gaussian(sgrid, 2.0)
        free = schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [0.5, 1.0])
        run = schrodinger_solve(SchrState(sgrid, psi, 0.0), MI, [0.5, 1.0],
                                lambda t, mesh, s: {}, dt=0.05)
        assert [state.steps for state in run] == [10, 20]
        for got, want in zip(run, free):
            assert np.max(np.abs(got.v - want.v)) <= 1e-12 * np.max(np.abs(want.v))


@pytest.fixture(scope="module")
def runs():
    g = BoxGrid.regular(160.0, 512, 1)
    x = g.axis_points(0)
    psi = np.exp(-(x**2) / 8.0)
    times = np.linspace(-20.0, 20.0, 161)
    W = lambda t, mesh, s: {(): 1j * 0.05 / (1.0 + t * t + mesh[0] * mesh[0])}
    pert = schrodinger_solve(SchrState(g, psi, -20.0), MI, times, W, dt=0.02)
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

    @pytest.mark.parametrize("C", [math.nan, math.inf, -0.2])
    def test_claim_is_finite_and_nonnegative(self, runs, C):
        # a NaN claim passed every state, an infinite one any trace
        with pytest.raises(InvalidInput, match="C_claim"):
            mass_bound_check(runs[1], C)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mass_that_is_not_finite_fails(self, runs, bad):
        # a NaN mass compared False with its bound, so the check passed
        free = runs[0][:5]
        spoilt = SchrState(free[2].grid, np.full(free[2].grid.shape, bad), free[2].t)
        rep = mass_bound_check(free[:2] + [spoilt] + free[3:], 0.2)
        assert not rep.ok and not rep.gronwall_ok and free[1].t <= rep.first_violation <= free[2].t
        # with two states there is no interior point: the Gronwall envelope fails alone
        assert not mass_bound_check([free[0], spoilt], 0.2).ok


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
