"""Hamiltonian flow: fields, trajectories, attraction probes, thresholds."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (count_calls, count_metric_evaluations, deadline, ham_field,
                      perturbed_metrics)
from nrlab import experiments as ex
from nrlab import flow, symbols
from nrlab.errors import ChartUnavailable, DegenerateMetric, InvalidInput, StepFailure
from nrlab.geometry import ChartCoords, ChartId, ChartTag, PhasePoint, to_chart
from nrlab.symbols import (
    ClassicalSymbolProfile,
    MetricParams,
    Side,
    SignBranch,
    _natural_field,
    _sheet_tau,
    _sheet_tau_nat,
    _sign,
    eval_metric,
    radial_point,
)
from nrlab.flow import (
    DP_A,
    DP_B,
    DP_E,
    DP_P,
    EPS,
    _bracket_roots,
    _first_events,
    _radial_chart_ball,
    _radial_field,
    _sheet_points,
    Termination,
    char_start,
    integrate_flow,
    integrate_flows,
    natural_degeneracy,
    natural_start,
    parabolic_start,
    qdf_probe,
    radial_linearization,
    to_radial_chart,
    weight_flow_rate,
)
from test_acceptance import pert_metric

PL, MI = SignBranch.PLUS, SignBranch.MINUS


def _state_rhs(mode, M, b, h, sign):
    """The field of one flow as a scalar rhs(lam, y)."""

    def rhs(lam, y):
        if mode == "natural":
            return flow._natural_flow(M, y, h, b.sign, sign)
        n = y.size // 2
        V = symbols._free_velocity(y[n:], 0.0, b.sign, parabolic=True)
        return sign * np.concatenate((V - y[:n] * float(y[:n] @ V), np.zeros(n)))

    return rhs


def _reference_flow(start, direction, M: MetricParams, b: SignBranch,
                    budget: float = 50.0, rtol: float = 1.0e-9, delta: float = 1.0e-3):
    """One flow by scipy's solve_ivp over the scalar field and no closed
    form: the oracle for integrate_flows.  Returns (termination, end time,
    rhs evaluations)."""
    from scipy.integrate import solve_ivp

    begin = flow._as_start(start, b)
    rhs = _state_rhs(begin["mode"], M, b, begin["h"], 1.0 if direction == "forward" else -1.0)
    y0 = np.concatenate((begin["Y"], begin["zeta"]))

    def values(y):
        return flow._event_values(y, begin["h"], b.sign, begin["mode"] == "parabolic", delta)

    events = [lambda lam, y, e=e: values(y)[e] for e in range(3)]
    for e, event in enumerate(events):
        event.terminal, event.direction = True, (-1.0 if e < 2 else 0.0)
    g = values(y0)
    if np.linalg.norm(rhs(0.0, y0)) <= flow.FIXED_POINT_NORM:
        return flow._TERMS[0 if g[0] <= g[1] else 1], 0.0, 1
    sol = solve_ivp(rhs, (0.0, budget), y0, rtol=rtol, atol=flow.ATOL, events=events)
    if sol.status == -1:
        raise StepFailure(sol.message)
    code = next(e for e in range(3) if len(sol.t_events[e])) if sol.status == 1 \
        else int(flow._end_code(values(sol.y[:, -1])))
    return flow._TERMS[code], float(sol.t[-1]), sol.nfev


class TestHamField:
    def test_nat_interior_zero_section(self, free_metric):
        p = PhasePoint(0.0, [0.0], 0.0, [0.0], 1.0)
        tv = ham_field(to_chart(p, ChartId(ChartTag.NAT_INTERIOR)), free_metric, PL)
        assert tv[0] > 0            # d/dt component positive
        assert abs(tv[1]) < 1e-14   # no spatial motion
        assert np.all(tv[2:] == 0)

    def test_radial_chart_scaling(self, free_metric):
        # field = sigma xi_1 (s d_s + rho d_rho + w d_w); here sigma = +1
        rp = radial_point([1.0], 0.2, Side.PAST, PL)
        cc = to_radial_chart(rp, offsets=[0.1, 0.2])
        tv = ham_field(cc, free_metric, PL)
        assert np.allclose(tv[:2], [0.1, 0.2], atol=1e-14)

    def test_vanishes_at_radial_set(self, free_metric):
        rp = radial_point([0.7], 0.4, Side.FUTURE, PL)
        tv = ham_field(to_radial_chart(rp), free_metric, PL)
        assert np.linalg.norm(tv) <= 1e-10

    def test_b_tangency_linear_vanishing(self, free_metric):
        # the d_rho_bf coefficient vanishes linearly: coefficient/rho has a
        # nonzero limit at rho = 0
        rp = radial_point([1.3], 0.3, Side.PAST, PL)
        ratios = []
        for rho in (1e-2, 1e-4, 1e-6):
            cc = to_radial_chart(rp, offsets=[0.05, rho])
            tv = ham_field(cc, free_metric, PL)
            ratios.append(tv[1] / rho)
        assert abs(ratios[-1]) > 0.1
        assert abs(ratios[0] - ratios[-1]) < 1e-2 * abs(ratios[-1]) + 1e-8

    def test_no_radial_chart_at_zero_xi(self):
        rp = radial_point([0.0], 0.5, Side.FUTURE, PL)
        with pytest.raises(ChartUnavailable):
            to_radial_chart(rp)


class TestIntegrateFlow:
    def test_start_from_another_chart_is_unavailable(self, free_metric):
        # a flow starts from a start dict, a PhasePoint or a RADIAL_NAT point
        cc = to_chart(PhasePoint(0.5, [0.2], 2.0, [0.1], 0.5), ChartId(ChartTag.PF_STANDARD))
        with pytest.raises(ChartUnavailable, match="PF_STANDARD"):
            integrate_flow(cc, "forward", free_metric, PL)

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

    def test_start_outside_the_ball_rejected(self, free_metric):
        # the closed form and the oracle disagree there: no such flow exists
        st = natural_start([1.2, 0.9], [0.5, 1.0], 0.3)
        with pytest.raises(ValueError):
            integrate_flow(st, "forward", free_metric, PL)

    def test_csv_rows(self, free_metric):
        st = char_start(free_metric, PL, [0.2, 0.2], [1.0], 0.1)
        tr = integrate_flow(st, "forward", free_metric, PL)
        rows = list(tr.csv_rows())
        assert len(rows) == tr.times.size
        assert rows[0][1] == "nat_ball"


class TestFlowInputs:
    """Bad numbers raise InvalidInput before any step; an alarm turns a
    stepper that never returns (budget 0 or NaN) into a failure."""

    @pytest.fixture(autouse=True)
    def _deadline(self):
        with deadline(20):
            yield

    @pytest.mark.parametrize("kwargs", [
        {"budget": 0.0}, {"budget": math.nan}, {"budget": -1.0}, {"budget": math.inf},
        {"delta": 0.0}, {"delta": math.nan}, {"delta": -1e-3}, {"delta": math.inf},
        {"rtol": 0.0}, {"rtol": math.nan}, {"rtol": -1e-9},
        {"max_samples": 0}, {"max_samples": -3}, {"max_samples": 2.5},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    @pytest.mark.parametrize("metric", ["free_metric", "wavy_metric"])
    def test_bad_numbers_are_invalid_input(self, request, metric, kwargs):
        M = request.getfixturevalue(metric)
        st = char_start(M, PL, [0.2, 0.2], [1.0], 0.1)
        with pytest.raises(InvalidInput):
            integrate_flows([(st, "forward", PL)], M, **kwargs)

    def test_start_of_another_dimension(self, wavy_metric):
        # a d = 2 start has 6 coordinates, a d = 1 flow takes 4
        st = char_start(_d2_metric(), PL, [0.2, 0.2, 0.1], [1.0, 0.5], 0.1)
        with pytest.raises(InvalidInput):
            integrate_flows([(st, "forward", PL)], wavy_metric)


def _d2_metric():
    wave = lambda k0, k1, k2, c, sn: (((k0, k1, k2), c, sn),)  # noqa: E731
    P = ClassicalSymbolProfile
    h12 = P(amplitude=0.06, waves=wave(0.2, -0.5, 0.9, 0.3, 0.1))
    return MetricParams(
        d=2,
        alpha=P(amplitude=0.15, waves=wave(0.7, 1.3, -0.5, 0.4, 0.2)),
        w=(P(amplitude=0.1, waves=wave(1.1, -0.4, 0.3, 0.3, 0.0)),
           P(amplitude=-0.08, order=-2, waves=wave(-0.6, 0.8, 0.5, 0.0, 0.4))),
        hjk=((P(amplitude=0.12, waves=wave(0.3, 0.9, -0.2, 0.0, 0.5)), h12),
             (h12, P(amplitude=-0.1, waves=wave(0.5, 0.1, 0.7, 0.2, 0.2)))),
    )


def _mixed_cases(M, rng, n):
    """Mixed h, branch and direction in one batch, plus a start at a fixed
    point and one inside the future delta-ball."""
    d = M.d
    cases = []
    for i in range(n):
        branch = (PL, MI)[i % 2]
        h = (0.0, 0.1, 0.3, 0.5)[i % 4]
        Y = rng.normal(size=d + 1)
        Y *= rng.uniform(0.1, 0.8) / np.linalg.norm(Y)
        xi = rng.uniform(0.3, 2.0, d) * rng.choice([-1, 1], d)
        cases.append((char_start(M, branch, Y, xi, h), ("forward", "backward")[i // 2 % 2],
                      branch))
    cases.append((parabolic_start(np.full(d + 1, 0.2), 0.5 * d, np.ones(d)), "backward", PL))
    rp = radial_point(np.full(d, 0.8), 0.3, Side.FUTURE, PL)
    cases.append((to_radial_chart(rp), "forward", PL))       # fixed point at rho_bf = 0
    inside = natural_start((1.0 - 5.0e-4) * rp.direction, rp.zeta_nat, rp.h)
    cases += [(inside, "forward", PL), (inside, "backward", PL)]
    return cases


def _same_trajectory(a, b):
    assert (a.termination, a.rhs_evals, a.steps, a.rejected) == \
        (b.termination, b.rhs_evals, b.steps, b.rejected)
    for x, y in ((a.times, b.times), (a.states, b.states), (a.p_resid, b.p_resid)):
        assert x.shape == y.shape and np.max(np.abs(x - y)) <= 1e-12


class TestBatchedFlows:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_scalar_oracle(self, d, wavy_metric):
        M = wavy_metric if d == 1 else _d2_metric()
        cases = _mixed_cases(M, np.random.default_rng(20 + d), 16)
        trajs = integrate_flows(cases, M)
        for (start, direction, branch), tr in zip(cases, trajs):
            term, t_end, nfev = _reference_flow(start, direction, M, branch)
            assert tr.termination is term
            assert abs(tr.times[-1] - t_end) <= 1e-6 * t_end
            if tr.rhs_evals:                # scipy's step control, step for step
                assert tr.rhs_evals == nfev
        # all but the two starts inside the ball (free-sheet frequencies) are
        # on the characteristic set
        assert max(tr.max_p_resid for tr in trajs[:-2]) <= 1e-6
        assert trajs[-3].times[-1] == 0.0                   # the fixed point
        assert trajs[-2].termination is Termination.REACHED_FUTURE
        assert trajs[-2].times[-1] == 50.0                  # stays inside its ball

    def test_row_does_not_depend_on_batch_mates(self, wavy_metric):
        cases = _mixed_cases(wavy_metric, np.random.default_rng(5), 12)
        batch = integrate_flows(cases, wavy_metric)
        mates = integrate_flows(cases[::-1] + cases[:3], wavy_metric)[::-1][3:]
        for case, tr, other in zip(cases, batch, mates):
            _same_trajectory(integrate_flow(*case[:2], wavy_metric, case[2]), tr)
            _same_trajectory(other, tr)

    def test_solver_statistics(self, free_metric, wavy_metric):
        st = char_start(wavy_metric, PL, [0.2, 0.3], [0.8], 0.3)
        for M, closed in ((free_metric, True), (wavy_metric, False)):
            tr = integrate_flow(st, "forward", M, PL, max_samples=10**6)
            if closed:
                assert (tr.rhs_evals, tr.steps, tr.rejected) == (0, 0, 0)
            else:
                # scipy's count: f(y0), one trial for the initial step, then
                # six evaluations per attempted step
                assert tr.steps == tr.times.size - 1 > 0
                assert tr.rhs_evals == 2 + 6 * (tr.steps + tr.rejected)

    @given(Y=st.lists(st.floats(-0.65, 0.65), min_size=2, max_size=2),
           xi=st.floats(0.2, 2.5), h=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
           branch=st.sampled_from([PL, MI]), forward=st.booleans(),
           parabolic=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_closed_form_entry_time(self, Y, xi, h, branch, forward, parabolic):
        M = MetricParams.free(1)
        if parabolic:
            start = parabolic_start(Y, branch.sign * xi * xi / 2.0, [xi])
        else:
            start = char_start(M, branch, Y, [xi], h)
        direction = "forward" if forward else "backward"
        tr = integrate_flow(start, direction, M, branch)
        term, t_end, _ = _reference_flow(start, direction, M, branch, rtol=1e-12)
        assert tr.rhs_evals == 0
        assert tr.termination is term
        assert abs(tr.times[-1] - t_end) <= 1e-8 * t_end


class TestDeferredEvents:
    """Every event crossing of one integrate_flows call is root-solved by one
    _bracket_roots call after the integration, whichever steps the rows fired
    in; a row's result is the one it has when integrated alone."""

    def test_one_root_solve_per_run(self, monkeypatch, wavy_metric):
        cases = _mixed_cases(wavy_metric, np.random.default_rng(5), 12)
        calls = count_calls(monkeypatch, flow._bracket_roots)
        trajs = integrate_flows(cases, wavy_metric)
        fired = [tr.steps for tr in trajs
                 if tr.steps and tr.termination is not Termination.TIME_BUDGET]
        assert len(set(fired)) > 2                  # rows fire at different steps
        assert len(calls) == 1
        # a budget that runs out before any crossing makes no call
        calls.clear()
        trajs = integrate_flows(cases, wavy_metric, budget=1e-3)
        assert sum(tr.steps for tr in trajs) > 0 and calls == []

    def test_edge_rows_match_their_runs_alone(self, monkeypatch, wavy_metric):
        # |zeta| = 50.14 falls through ZETA_MAX: LEFT_DOMAIN, an end code no
        # budget-end state gives (TIME_BUDGET there)
        st = char_start(wavy_metric, PL, [0.2, 0.3], [36.0], 0.3)
        full = integrate_flow(st, "forward", wavy_metric, PL, max_samples=10**6)
        assert full.termination is Termination.LEFT_DOMAIN and full.steps > 10
        # a start one accepted step short of the crossing fires in its first step
        near = natural_start(full.states[-2][:2], full.states[-2][2:], 0.3)
        # a budget just past the crossing ends the firing step at the budget
        budget = full.times[-1] + 1e-6
        ends = count_calls(monkeypatch, flow._first_events, lambda K, lo, hi, *rest: hi)
        first = integrate_flow(near, "forward", wavy_metric, PL)
        clipped = integrate_flow(st, "forward", wavy_metric, PL, budget=budget)
        assert first.steps == 1 and first.termination is Termination.LEFT_DOMAIN
        assert clipped.termination is Termination.LEFT_DOMAIN
        assert ends[-1].tolist() == [budget] and clipped.times[-1] < budget
        for start, tr, kw in ((near, first, {}), (st, clipped, {"budget": budget})):
            term, t_end, nfev = _reference_flow(start, "forward", wavy_metric, PL, **kw)
            assert (tr.termination, tr.rhs_evals) == (term, nfev)
            assert abs(tr.times[-1] - t_end) <= 1e-6 * t_end
            # in a batch whose other rows fire at other steps, or not at all
            others = _mixed_cases(wavy_metric, np.random.default_rng(5), 8)
            _same_trajectory(integrate_flows(others + [(start, "forward", PL)] + others,
                                             wavy_metric, **kw)[len(others)], tr)


class TestDormandPrince:
    def test_tableau_is_scipys(self):
        pytest.importorskip("scipy")
        from scipy.integrate import RK45
        for ours, theirs in ((DP_A, RK45.A), (DP_B, RK45.B), (DP_E, RK45.E), (DP_P, RK45.P)):
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()          # bit for bit

    @pytest.mark.parametrize("rows", [1, 2, 5, 64, 257])
    def test_stage_sums_are_tensordot_bit_for_bit(self, rows):
        # _dopri_flows sums its stages as coeffs @ K.reshape(7, -1)[:s], tensordot's BLAS
        # product without its wrapper; its trajectories equal the tensordot integrator's
        # bit for bit only because these products do, at every stage count
        rng = np.random.default_rng(rows)
        for width in (4, 6, 8):                             # 2(1 + d), d = 1..3
            K = rng.standard_normal((7, rows, width)) * 10.0 ** rng.integers(-8, 9, (7, rows, width))
            for coeffs in [DP_A[s, :s] for s in range(1, 6)] + [DP_B, DP_E]:
                s = len(coeffs)
                assert np.array_equal((coeffs @ K.reshape(7, -1)[:s]).reshape(K.shape[1:]),
                                      np.tensordot(coeffs, K[:s], 1))

    @pytest.mark.parametrize("d", [1, 2])
    def test_one_metric_evaluation_per_rhs_evaluation(self, d, monkeypatch):
        # every right-hand-side evaluation of a row is one row of one eval_metric call; the
        # only other call is the residuals' over all kept points
        M = MetricParams(d=d, alpha=ClassicalSymbolProfile(
            amplitude=0.2, waves=((tuple(np.linspace(0.7, -0.4, d + 1)), 0.4, 0.2),)),
            w=tuple(ClassicalSymbolProfile(amplitude=0.1) for _ in range(d)))
        cases = [(flow._as_start(start, b), direction, b)
                 for start, direction, b in _mixed_cases(M, np.random.default_rng(d), 8)]
        calls = count_metric_evaluations(monkeypatch)
        trs = integrate_flows(cases, M)
        assert sum(tr.rhs_evals for tr in trs) > 0
        assert sum(math.prod(shape) for shape in calls[:-1]) == sum(tr.rhs_evals for tr in trs)
        assert calls[-1] == (sum(tr.times.size for tr in trs),)

    @given(data=st.data(), n=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_bracket_roots_match_brentq(self, data, n):
        brentq = pytest.importorskip("scipy.optimize").brentq
        # k (x - r) (c0 + c1 (x - m)^2 + c2 (x - m)^4): one simple root r in
        # [a, b], with curvature enough to stall plain regula falsi
        r, m = (np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
                for _ in range(2))
        left, right = (np.array(data.draw(st.lists(st.floats(1e-6, 20.0),
                                                   min_size=n, max_size=n))) for _ in range(2))
        c = np.array(data.draw(st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 100.0),
                                                  st.floats(0.0, 100.0)),
                                        min_size=n, max_size=n)))
        k = np.array(data.draw(st.lists(st.sampled_from([-3.0, 1.0]), min_size=n, max_size=n)))

        def f(i, x):
            u = (x - m[i]) ** 2
            return k[i] * (x - r[i]) * (c[i, 0] + u * (c[i, 1] + u * c[i, 2]))

        a, b = r - left, r + right
        roots = _bracket_roots(f, a, b)
        for i in range(n):
            want = brentq(lambda x: f(np.array([i]), np.array([x]))[0], a[i], b[i],
                          xtol=4.0 * EPS, rtol=4.0 * EPS)
            assert abs(roots[i] - want) <= 4.0 * EPS * (1.0 + abs(want))
            # a bracket's iterates do not depend on the others
            alone = _bracket_roots(lambda j, x: f(j + i, x), a[i : i + 1], b[i : i + 1])
            assert alone[0] == roots[i]

    def test_bracket_roots_tiny_end_value_warns_nothing(self):
        # fb = -1e-300 beside fx = 2.5e9 at the first midpoint: fx / fb
        # overflows, the Anderson-Bjorck scale falls back to 1/2, and the
        # root stays exact
        def f(k, x):
            return np.where(x < 1.0, 1.0e10 * (0.75 - x), -1.0e-300)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = _bracket_roots(f, np.array([0.0, 0.0]), np.array([1.0, 0.9]))
        assert np.all(np.abs(roots - 0.75) <= 4.0 * EPS)

    def test_first_event_is_the_earliest(self):
        # equal stage slopes make the dense output a straight line: Y enters
        # the future delta-ball (event 0) at lam 0.5, and |zeta| passes
        # ZETA_MAX (event 2) earlier in row 0 and later in row 1; zeta moves
        # along V, so the future direction stays fixed
        om = np.array([30.0, 39.5]) / math.hypot(30.0, 39.5)
        ends = []
        for s0, s1 in ((1.0, 1.1), (0.98, 1.03)):
            ends.append([np.concatenate(((1.0 - 0.002 * (1.0 - t)) * om,
                                         [30.0 * s - 1.0, -39.5 * s]))
                         for t, s in ((0.0, s0), (1.0, s1))])
        y_old, y_new = np.array(ends).transpose(1, 0, 2)
        K = np.broadcast_to(y_new - y_old, (7,) + y_old.shape)
        lam0, lam1, h, bsign = np.zeros(2), np.ones(2), np.ones(2), np.ones(2)
        lam, y, event = _first_events(K, lam0, lam1, y_old, np.array([[1, 0, 1]] * 2, bool),
                                      h, bsign, 1.0e-3)
        single = [_first_events(K, lam0, lam1, y_old, np.array([[e == 0, 0, e == 2]] * 2, bool),
                                h, bsign, 1.0e-3)[0] for e in (0, 2)]
        assert abs(single[0][0] - 0.5) < 1e-12 and abs(single[0][1] - 0.5) < 1e-12
        assert single[1][0] < 0.5 < single[1][1] < 1.0
        assert list(event) == [2, 0]
        assert np.array_equal(lam, np.minimum(*single))


class TestSheetRoot:
    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), h=st.floats(0.01, 0.5),
           branch=st.sampled_from([PL, MI]))
    @settings(max_examples=80, deadline=None)
    def test_root_is_on_the_sheet(self, data, d, h, branch):
        M = data.draw(perturbed_metrics(d))
        Y = np.array(data.draw(st.lists(st.floats(-0.49, 0.49),
                                        min_size=d + 1, max_size=d + 1)))
        xi = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
        tau = _sheet_tau_nat(M, Y, xi, h, branch)
        zeta = np.concatenate(([tau], xi))
        G = eval_metric(M, Y, h).G
        assert abs(-(zeta @ G @ zeta) + 2.0 * branch.sign * tau) <= 1e-12
        assert abs(tau - _sheet_tau(xi, branch)) < 1.0

    @given(d=st.sampled_from([1, 2, 3]), h=st.floats(0.0, 0.5),
           branch=st.sampled_from([PL, MI]), xi=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_flat_metric_gives_free_sheet(self, d, h, branch, xi):
        xi_nat = np.full(d, xi)
        tau = _sheet_tau_nat(MetricParams.free(d), np.zeros(d + 1), xi_nat, h, branch)
        assert tau == _sheet_tau(xi_nat, branch)

    @given(xi=st.floats(1.1, 3.0), branch=st.sampled_from([PL, MI]))
    @settings(max_examples=20, deadline=None)
    def test_negative_discriminant_raises(self, xi, branch):
        # alpha = 8 at h = 0.5 flips the sign of G00: G = I at the origin, and
        # tau^2 - 2 b tau + xi^2 = 0 has no real root for |xi| > 1
        M = MetricParams(d=1, alpha=ClassicalSymbolProfile(amplitude=8.0))
        with pytest.raises(DegenerateMetric):
            _sheet_tau_nat(M, np.zeros(2), np.array([xi]), 0.5, branch)


class TestSourceSinkEnsemble:
    def test_small_ensemble_with_perturbation(self, wavy_metric, free_metric):
        rng = np.random.default_rng(7)
        for M in (free_metric, wavy_metric):
            cases = []
            for i in range(24):
                branch = PL if i % 2 else MI
                h = [0.0, 0.1, 0.5][i % 3]
                xi = rng.uniform(0.3, 2.0, 1) * rng.choice([-1, 1], 1)
                Y = rng.normal(size=2)
                Y *= rng.uniform(0.1, 0.8) / np.linalg.norm(Y)
                st = char_start(M, branch, Y, xi, h)
                cases += [(st, "forward", branch), (st, "backward", branch)]
            trajs = integrate_flows(cases, M)
            for (_, direction, branch), tr in zip(cases, trajs):
                sink = Termination.REACHED_FUTURE if branch is PL else Termination.REACHED_PAST
                source = Termination.REACHED_PAST if branch is PL else Termination.REACHED_FUTURE
                assert tr.termination is (sink if direction == "forward" else source)


def _radial_field_reference(co, chart, M, b):
    """The RADIAL_NAT field at one chart point, component by component over
    Python lists and scalars: the oracle for the batched _radial_field."""
    d = (co.size - 3) // 2
    s, w, rho, tau, xi, h = co[0], co[1:d], co[d], co[d + 1], co[d + 2 : 2 * d + 2], co[-1]
    j0, sigma = chart.k - 1, chart.sign
    others = [j for j in range(d) if j != j0]
    xhat = np.empty(d)
    xhat[j0] = 1.0
    xhat[others] = w + xi[others] / xi[j0]
    that = s - h * (tau + b.sign) / xi[j0]
    v = sigma * np.concatenate(([that], xhat))
    r2 = rho * rho + float(v @ v)
    V, drift = _natural_field(M, v / math.sqrt(r2), np.concatenate(([tau], xi)), h,
                              b.sign, rho * rho / r2)
    absYj0 = abs(v[1 + j0]) / math.sqrt(r2)
    taudot, xidot = absYj0 * drift[0], absYj0 * drift[1:]
    sdot = sigma * (V[0] - that * V[1 + j0]) + h * (
        taudot / xi[j0] - (tau + b.sign) * xidot[j0] / xi[j0] ** 2)
    wdot = (sigma * (V[1:] - xhat * V[1 + j0])[others] - xidot[others] / xi[j0]
            + xi[others] * xidot[j0] / xi[j0] ** 2)
    return np.concatenate(([sdot], wdot, [-sigma * rho * V[1 + j0], taudot], xidot, [0.0]))


def _acceptance_03_probes():
    """ACCEPTANCE 03's perturbed probes (center, branch, seed), drawn from its
    generator as test_03 draws them, after its free probes."""
    rng = np.random.default_rng(303)
    ex.qdf(rng, MetricParams.free(1), n_centers=10, radius=0.05, n_samples=80)
    probes = []
    for _ in range(100):
        branch = rng.choice([PL, MI])
        side = rng.choice([Side.PAST, Side.FUTURE])
        xi = rng.uniform(0.4, 2.0, 1) * rng.choice([-1, 1], 1)
        rp = radial_point(xi, rng.uniform(0.05, 0.5), side, branch)
        probes.append((rp, branch, int(rng.integers(2**31))))
    return probes


class TestQdfProbe:
    def test_radial_chart_ball_at_rho_zero_is_the_limit(self):
        rp = radial_point([1.3], 0.3, Side.PAST, MI)
        for b in (PL, MI):
            cc = to_radial_chart(rp, offsets=[0.2, 0.0])
            at_zero, _, _, rho2 = _radial_chart_ball(cc, b)
            cc = to_radial_chart(rp, offsets=[0.2, 1e-9])
            near = _radial_chart_ball(cc, b)[0]
            assert abs(np.linalg.norm(at_zero) - 1.0) <= 1e-15 and rho2 == 0.0
            assert np.max(np.abs(at_zero - near)) <= 1e-8
            # 1 - |Y|^2 is carried exactly; from Y it keeps only ~1e-16 absolute
            cc = to_radial_chart(rp, offsets=[0.2, 0.3])
            Y, _, _, rho2 = _radial_chart_ball(cc, b)
            assert abs(1.0 - Y @ Y - rho2) <= 1e-15

    def test_sheet_root_on_the_boundary_sphere(self, wavy_metric):
        # at rho_bf = 0 the sheet root is taken at the boundary-sphere point,
        # so it is the rho_bf -> 0+ limit of the roots over interior points
        rp = radial_point([0.9], 0.4, Side.FUTURE, PL)
        cc = _sheet_points(to_radial_chart(rp, [[0.05, 0.0], [0.05, 1e-9]]), wavy_metric, PL)
        at_zero, near = cc.coords
        assert abs(at_zero[2] - near[2]) <= 1e-8
        Y = _radial_chart_ball(cc, PL)[0][0]
        zeta = at_zero[2:4]
        G = eval_metric(wavy_metric, Y, rp.h).G
        assert abs(-(zeta @ G @ zeta) + 2.0 * zeta[0]) <= 1e-12

    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), h=st.floats(0.05, 0.5),
           branch=st.sampled_from([PL, MI]), side=st.sampled_from([Side.PAST, Side.FUTURE]))
    @settings(max_examples=30, deadline=None)
    def test_batched_field_matches_per_point(self, data, d, h, branch, side):
        M = data.draw(perturbed_metrics(d, amp=0.1))
        xi = np.array(data.draw(st.lists(st.floats(0.3, 2.0), min_size=d, max_size=d)))
        rp = radial_point(xi * np.where(np.arange(d) % 2, -1.0, 1.0), h, side, branch)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        off = rng.uniform(-0.05, 0.05, (24, d + 1))
        off[:, d] = np.abs(off[:, d]) * 10.0 ** rng.uniform(-9, 0, 24)
        cc0 = _sheet_points(to_radial_chart(rp, off), M, branch)
        co = cc0.coords
        field = _radial_field(cc0, M, branch)
        Y, _, _, rho2 = _radial_chart_ball(cc0, branch)
        G = eval_metric(M, Y, h, rho2=rho2).G
        zeta = co[:, d + 1 : 2 * d + 2]
        symbol = 2.0 * branch.sign * zeta[:, 0] - np.einsum("ka,kab,kb->k", zeta, G, zeta)
        assert np.max(np.abs(symbol)) <= 1e-12
        for k in range(len(co)):
            one = ham_field(ChartCoords(cc0.chart, co[k], cc0.bdf), M, branch)
            ref = _radial_field_reference(co[k], cc0.chart, M, branch)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(field[k] - one)) <= 1e-12 * scale
            assert np.max(np.abs(field[k] - ref)) <= 1e-12 * scale

    def test_one_root_keeps_the_drawn_base_point(self, monkeypatch):
        # each probe's rows keep the base point drawn at the centre's tau_nat
        # and land on the sheet over it
        calls = []

        def spy(drawn, M, b):
            moved = _sheet_points(drawn, M, b)
            Y0 = _radial_chart_ball(drawn, b)[0]
            Y, _, _, rho2 = _radial_chart_ball(moved, b)
            co = moved.coords
            d = (co.shape[-1] - 3) // 2
            zeta = co[..., d + 1 : 2 * d + 2]
            G = eval_metric(M, Y, co[..., -1], rho2=rho2).G
            symbol = (2.0 * _sign(b) * zeta[..., 0]
                      - np.einsum("...a,...ab,...b->...", zeta, G, zeta))
            calls.append((np.max(np.abs(Y - Y0)), np.max(np.abs(symbol))))
            return moved

        probes = _acceptance_03_probes()
        monkeypatch.setattr(flow, "_sheet_points", spy)
        for rp, branch, seed in probes:
            qdf_probe(rp, 0.05, 60, pert_metric(0.1), branch, seed=seed)
        moved, symbol = np.max(calls, axis=0)
        assert len(calls) == 100 and moved <= 1e-15 and symbol <= 1e-12

    @pytest.mark.parametrize("nsamples", [60, 600])
    def test_metric_evaluations_per_probe(self, monkeypatch, nsamples):
        # one sheet-root evaluation and one field evaluation for the whole
        # probe, however many samples it draws: no per-sample loop
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return eval_metric(*args, **kwargs)

        probes = _acceptance_03_probes()
        monkeypatch.setattr(symbols, "eval_metric", counting)
        for rp, branch, seed in probes:
            calls[0] = 0
            qdf_probe(rp, 0.05, nsamples, pert_metric(0.1), branch, seed=seed)
            assert calls[0] == 2

    @pytest.mark.parametrize("radius", [1e-300, 1e-150])
    def test_radius_whose_varrho_underflows_is_rejected(self, radius):
        # the fit divides by varrho^(3/2): 1e-300 raised a ValueError in the fit,
        # 1e-150 divided by zero
        rp = radial_point([1.3], 0.3, Side.FUTURE, PL)
        with pytest.raises(InvalidInput, match="radius"):
            qdf_probe(rp, radius, 60, MetricParams.free(1), PL)

    @staticmethod
    def _assert_batch_is_per_centre(rps, seeds, M, b, shape):
        # one probe over the centres, reshaped to the batch shape, equals the
        # one-point probes field by field, bit for bit; b is one branch, or
        # one per centre, passed to the batch as signs
        bs = [b] * len(rps) if isinstance(b, SignBranch) else b
        signs = b if isinstance(b, SignBranch) else np.array([x.sign for x in b]).reshape(shape)
        xi = np.array([rp.xi_nat for rp in rps]).reshape(*shape, -1)
        h = np.array([rp.h for rp in rps]).reshape(shape)
        side = np.array([rp.side.sign for rp in rps]).reshape(shape)
        q = qdf_probe(radial_point(xi, h, side, signs), 0.05, 60, M, signs,
                      seed=np.array(seeds).reshape(shape))
        ones = [qdf_probe(rp, 0.05, 60, M, br, seed=s) for rp, br, s in zip(rps, bs, seeds)]
        for name, got in vars(q).items():
            assert got.shape == shape
            assert (got.ravel() == [getattr(one, name) for one in ones]).all(), name

    def test_batch_equals_one_point_probes(self):
        # ACCEPTANCE 03's perturbed probes, one batch per branch, both sides in each
        probes = _acceptance_03_probes()
        for b in (PL, MI):
            rps, _, seeds = zip(*[p for p in probes if p[1] is b])
            assert {rp.side for rp in rps} == {Side.PAST, Side.FUTURE}
            self._assert_batch_is_per_centre(rps, seeds, pert_metric(0.1), b, (len(rps),))

    def test_mixed_branch_batch_equals_one_point_probes(self, monkeypatch):
        # the same probes in one batch, one branch sign and one seed per centre:
        # one sheet-root and one field evaluation serve both branches
        rps, branches, seeds = zip(*_acceptance_03_probes()[:40])
        assert set(branches) == {PL, MI}
        self._assert_batch_is_per_centre(rps, seeds, pert_metric(0.1), branches, (4, 10))
        calls = count_metric_evaluations(monkeypatch)
        xi = np.array([rp.xi_nat for rp in rps])
        qdf_probe(radial_point(xi, 0.3, 1, [b.sign for b in branches]), 0.05, 60,
                  pert_metric(0.1), [b.sign for b in branches], seed=np.arange(40))
        assert calls == [(40, 68)] * 2

    def test_d2_batch_across_dominant_axes_equals_one_point_probes(self, monkeypatch):
        M = MetricParams(d=2, alpha=ClassicalSymbolProfile(
            amplitude=0.1, waves=(((0.7, 1.3, -0.4), 0.4, 0.2),)))
        rng = np.random.default_rng(5)
        xi = rng.uniform(0.3, 2.0, (6, 2)) * rng.choice([-1, 1], (6, 2))
        rps = [radial_point(x, h, s, PL) for x, h, s in
               zip(xi, rng.uniform(0.05, 0.5, 6), [Side.PAST, Side.FUTURE] * 3)]
        assert len({int(np.argmax(np.abs(x))) for x in xi}) == 2
        self._assert_batch_is_per_centre(rps, rng.integers(2**31, size=6).tolist(), M, PL,
                                         (2, 3))
        passes = []

        def counted(cc, *args):
            passes.append(cc.chart.k)
            return _radial_field(cc, *args)

        monkeypatch.setattr(flow, "_radial_field", counted)
        qdf_probe(radial_point(xi, 0.3, 1, PL), 0.05, 60, M, PL, seed=np.arange(6))
        assert sorted(passes) == [1, 2]         # one pass per dominant axis

    def test_batch_errors_are_typed(self, free_metric):
        rp = radial_point([[1.0], [1.2]], 0.3, [1, -1], PL)
        for seed in (0, [1, 2, 3], [[1, 2]]):      # one seed per centre, in the batch's shape
            with pytest.raises(InvalidInput, match="seed"):
                qdf_probe(rp, 0.05, 20, free_metric, PL, seed=seed)
        for b in ([1, -1, 1], [[1, -1]], [1, 0]):     # one branch sign per center, +/-1
            with pytest.raises(InvalidInput, match="sign"):
                qdf_probe(rp, 0.05, 20, free_metric, b, seed=[1, 2])
        zero = radial_point([[1.0], [0.0], [0.0]], 0.3, 1, PL)
        with pytest.raises(ChartUnavailable, match="2 of 3"):
            qdf_probe(zero, 0.05, 20, free_metric, PL, seed=[1, 2, 3])
        with pytest.raises(ChartUnavailable, match="2 of 3"):
            to_radial_chart(zero)
        mixed = radial_point([[1.0, 0.5], [0.5, 1.0]], 0.3, 1, PL)
        with pytest.raises(ChartUnavailable, match="dominant axis"):
            to_radial_chart(mixed)

    def test_radial_chart_of_a_batch_is_its_points_charts(self):
        rp = radial_point([[1.3], [-0.7], [0.4]], [0.3, 0.1, 0.2], [1, -1, -1], MI)
        cc = to_radial_chart(rp, offsets=[0.1, 0.2])
        assert cc.chart == ChartId(ChartTag.RADIAL_NAT, k=1)
        for i in range(3):
            one = to_radial_chart(radial_point(rp.xi_nat[i], rp.h[i], int(rp.side[i]), MI),
                                  offsets=[0.1, 0.2])
            assert (cc.coords[i] == one.coords).all() and cc.sign[i] == one.chart.sign

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

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius(self, free_metric, radius):
        # a NaN radius warned twice, then died in a zero-size reduction
        rp = radial_point([1.0], 0.3, Side.FUTURE, PL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="radius"):
                qdf_probe(rp, radius, 20, free_metric, PL)

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
        # a fourth-order difference of log rho_bf = log(1 - |Y|^2)/2 along the
        # flow (RK4 steps of 1e-4) from 1e-6 inside the radial point approaches
        # the closed-form rate there
        rp = radial_point([1.0], 0.2, Side.FUTURE, PL)
        exact = weight_flow_rate(rp, (0.0, 1.0, 0.0, 0.0), free_metric, PL)
        rhs = _state_rhs("natural", free_metric, PL, rp.h, 1.0)
        eps, n = 1.0e-4, rp.d + 1

        def log_rho_bf(steps):
            y = np.concatenate(((1.0 - 1e-6) * rp.direction, rp.zeta_nat))
            dt = eps * np.sign(steps)
            for _ in range(abs(steps)):
                k1 = rhs(0.0, y)
                k2 = rhs(0.0, y + 0.5 * dt * k1)
                k3 = rhs(0.0, y + 0.5 * dt * k2)
                y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + rhs(0.0, y + dt * k3))
            return 0.5 * math.log(1.0 - float(y[:n] @ y[:n]))

        fd = (log_rho_bf(-2) - 8.0 * log_rho_bf(-1) + 8.0 * log_rho_bf(1)
              - log_rho_bf(2)) / (12.0 * eps)
        assert abs(fd - exact) < 1e-4

    def test_perturbation_vanishes_on_the_boundary_sphere(self, wavy_metric, free_metric):
        # radial points lie on |Y| = 1, where every profile vanishes, so the
        # perturbed rate is the free one (1 - |omega|^2 is 0, not its rounding)
        rng = np.random.default_rng(4)
        for _ in range(20):
            rp = radial_point(rng.uniform(-2, 2, 1), rng.uniform(0.05, 0.5), Side.FUTURE, PL)
            rates = [weight_flow_rate(rp, (1.0, 1.0, 1.0, 1.0), M, PL)
                     for M in (wavy_metric, free_metric)]
            assert abs(rates[0] - rates[1]) <= 1e-15

    @given(data=st.data(), d=st.integers(1, 3), h=st.sampled_from([0.0, 0.05, 0.3, 0.5]),
           branch=st.sampled_from([PL, MI]), side=st.sampled_from([Side.PAST, Side.FUTURE]),
           orders=st.tuples(*[st.floats(-3.0, 3.0)] * 4))
    @settings(max_examples=40, deadline=None)
    def test_perturbed_rate_is_the_spacetime_one(self, data, d, h, branch, side, orders):
        # on |Y| = 1 the perturbation's ball forms vanish: the frequency drift is
        # exactly 0, so only rho_bf moves, at s (-omega . V) with the free V
        M = data.draw(perturbed_metrics(d))
        xi = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
        rp = radial_point(xi, h, side, branch)
        drift = _natural_field(M, rp.direction, rp.zeta_nat, h, branch.sign, 0.0)[1]
        assert not drift.any()
        V = np.concatenate(([h * (rp.tau_nat + branch.sign)], -rp.xi_nat))
        want = orders[1] * -float(rp.direction @ V)
        assert weight_flow_rate(rp, orders, M, branch) == pytest.approx(want, rel=1e-12,
                                                                        abs=1e-15)

    @pytest.mark.parametrize("orders", [(1.0,), (0.0, math.nan, 0.0, 0.0),
                                        (0.0, 1.0, 0.0, math.inf), (0.0, 1.0, 0.0, 0.0, 0.0)])
    def test_orders_are_four_finite_numbers(self, free_metric, orders):
        # (1.0,) raised IndexError and a NaN order gave a NaN rate
        rp = radial_point([1.0], 0.2, Side.FUTURE, PL)
        with pytest.raises(InvalidInput, match="orders"):
            weight_flow_rate(rp, orders, free_metric, PL)

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

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["natural", "parabolic"])
    def test_linearization_matches_central_differences(self, d, mode):
        # the closed-form Jacobian against a central difference of the ball field
        M, rng = MetricParams.free(d), np.random.default_rng(d)
        for _ in range(20):
            branch, side = rng.choice([PL, MI]), rng.choice([Side.PAST, Side.FUTURE])
            h = 0.0 if mode == "parabolic" else rng.uniform(0.05, 0.5)
            rp = radial_point(rng.uniform(-2.0, 2.0, d), h, side, branch)
            zeta = rp.zeta_nat if mode == "natural" else rng.uniform(-1.0, 1.0, d + 1)
            omega = side.sign * symbols._future_direction(zeta, h, branch.sign, mode == "parabolic")
            rhs, step = _state_rhs(mode, M, branch, h, 1.0), 1e-5
            J = np.stack([(rhs(0.0, np.concatenate((omega + e, zeta)))
                           - rhs(0.0, np.concatenate((omega - e, zeta))))[: d + 1] / (2 * step)
                          for e in step * np.eye(d + 1)], axis=1)
            got = np.sort_complex(radial_linearization(rp, M, branch, mode, zeta))
            want = np.sort_complex(np.linalg.eigvals(J))
            assert np.allclose(got, want, rtol=1e-8, atol=1e-8)

    def test_linearization_needs_the_free_metric(self, free_metric):
        # a central difference would cross the boundary sphere, where an order -1
        # profile has a square-root kink: at pert_metric(0.1) the second
        # eigenvalue read -1.2862, -1.2776, -1.1891 at steps 1e-3, 1e-5, 1e-7
        rp = radial_point([1.1], 0.45, Side.FUTURE, PL)
        with pytest.raises(InvalidInput):
            radial_linearization(rp, pert_metric(0.1), PL)
        ev = np.sort(np.real(radial_linearization(rp, free_metric, PL)))
        assert abs(ev[1] + 1.287449) < 1e-6
