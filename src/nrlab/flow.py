"""Rescaled Hamiltonian flow on the compactified phase space.

The flow generator is H_p multiplied by (1/2) rho_df rho_bf^-1 rho_nf, which
makes it tangent to every boundary face.  Integration uses global "ball"
coordinates for the base,

    Y = z / <z>,          rho_bf = sqrt(1 - |Y|^2),

in which the rescaled field is polynomial-in-Y:  Ydot = (I - Y Y^T) V(zeta)
plus a frequency drift that vanishes for the free metric.  The field, the sheet
root and the symbol's value come from ``symbols``; no metric is evaluated here.
Two frequency modes cover all cases:

* ``natural``  -- frequencies (tau_nat, xi_nat), any h >= 0 (the natural
  face and every finite-h slice);
* ``parabolic`` -- standard frequencies (tau, xi) at h = 0 (the parabolic
  face, where the flow is the rescaled free Schrodinger flow).

Fixed points of the field are exactly the radial sets; the module also
measures their attraction rates (quadratic-defining-function probe), the
threshold weight rate along the flow, and the degeneracy of the unresolved
natural-scale flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ChartUnavailable, InvalidInput, StepFailure
from .geometry import (
    BdfValues,
    ChartCoords,
    ChartId,
    ChartTag,
    PhasePoint,
    _as_vector,
    split_coords,
)
from .symbols import (MetricParams, RadialPoint, SignBranch, _free_velocity, _future_direction,
                      _natural_field, _sheet_tau_nat, _sign, _symbol_value, ball_from_base)
# kept by name: perfbench's tracer test rebinds it
from .symbols import natural_symbol_value  # noqa: F401

__all__ = [
    "Termination",
    "Trajectory",
    "QdfReport",
    "to_radial_chart",
    "integrate_flow",
    "integrate_flows",
    "natural_start",
    "parabolic_start",
    "char_start",
    "qdf_probe",
    "weight_flow_rate",
    "natural_degeneracy",
    "radial_linearization",
]

ZETA_MAX = 50.0      # leave-domain bound on frequency magnitude
FIXED_POINT_NORM = 1.0e-10
CLOSED_FORM_SAMPLES = 100   # points saved along a closed-form flow line
UPSILON = 1.0e3     # weight of rho_bf^2 in the QDF probe's varrho
# scipy.integrate.RK45's absolute tolerance and step-size rules
ATOL = 1.0e-12
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
EPS = np.finfo(float).eps
# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's
# quartic dense output (Hairer-Norsett-Wanner, Solving ODEs I, II.5-II.6),
# as scipy.integrate.RK45 writes them: stage matrix A, 5th-order weights B,
# error weights E over the seven stages (the last is f at the new point) and
# the dense-output matrix P.
DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


class Termination(Enum):
    REACHED_FUTURE = "reached_future"
    REACHED_PAST = "reached_past"
    TIME_BUDGET = "time_budget"
    LEFT_DOMAIN = "left_domain"


# ---------------------------------------------------------------------------
# radial-set chart and its field
# ---------------------------------------------------------------------------


def _dominant_axes(rp: RadialPoint):
    """Per radial point, the dominant spatial axis j0 (the largest |xi_nat|
    component) and the sign of the direction's x_j0, 0 where xi_nat = 0:
    ChartUnavailable there, saying at how many points."""
    j0 = np.argmax(np.abs(rp.xi_nat), axis=-1)
    sigma = np.sign(np.take_along_axis(rp.direction[..., 1:], j0[..., None], -1)[..., 0])
    if not sigma.all():
        raise ChartUnavailable(f"radial chart needs xi_nat != 0: fails at "
                               f"{sigma.size - np.count_nonzero(sigma)} of {sigma.size} points")
    return j0, sigma.astype(int)


def to_radial_chart(rp, offsets=None) -> ChartCoords:
    """Radial-set adapted chart (s, w, rho_bf) over the natural frequencies
    of radial points: one point, or a batch whose points share the dominant
    spatial axis (the largest |xi_nat| component), with their signs in
    ChartCoords.sign.

    The chart does not exist where xi_nat = 0.  ``offsets`` (..., 1+d), if
    given, displaces (s, w, rho_bf) away from the radial set by the given
    amounts, broadcasting against the batch.
    """
    if not isinstance(rp, RadialPoint):
        raise ChartUnavailable("to_radial_chart expects a RadialPoint")
    j0, sigma = _dominant_axes(rp)
    if (j0 != j0.flat[0]).any():
        raise ChartUnavailable("one radial chart per dominant axis: the batch's points differ")
    off = np.zeros(rp.d + 1) if offsets is None else np.asarray(offsets, float)[..., : rp.d + 1]
    parts = (off, rp.zeta_nat, rp.h[..., None])
    shape = np.broadcast_shapes(*(a.shape[:-1] for a in parts))
    coords = np.concatenate([np.broadcast_to(a, shape + a.shape[-1:]) for a in parts], axis=-1)
    bdf = BdfValues(rho_df=1.0, rho_bf=coords[..., rp.d], rho_nf=rp.h, rho_pf=1.0)
    return ChartCoords(ChartId(ChartTag.RADIAL_NAT, k=int(j0.flat[0]) + 1,
                               sign=int(sigma) if sigma.ndim == 0 else 1), coords, bdf, sigma[()])


def _radial_chart_ball(cc: ChartCoords, b: SignBranch):
    """Ball points of RADIAL_NAT chart points cc, coordinates of shape
    (..., 2d+3), with their (t, x) / x_j0.

    Returns (Y, that, xhat, 1 - |Y|^2): the base point is
    z = sigma (that, xhat) / rho_bf, so Y = z/<z> = v / sqrt(rho_bf^2 + |v|^2)
    with v = sigma (that, xhat), which at rho_bf = 0 is the rho_bf -> 0+
    limit v/|v| on the boundary sphere; 1 - |Y|^2 = rho_bf^2 / (rho_bf^2 + |v|^2)
    keeps its precision there, where 1 - |Y|^2 computed from Y does not.
    """
    off, tau, xi, h = split_coords(cc.coords)      # off = (s, w, rho_bf)
    j0 = cc.chart.k - 1
    xhat = np.insert(off[..., 1:-1] + np.delete(xi, j0, -1) / xi[..., j0, None], j0, 1.0,
                     axis=-1)
    that = off[..., 0] - h * (tau + _sign(b)) / xi[..., j0]
    v = np.asarray(cc.sign)[..., None] * np.concatenate((that[..., None], xhat), axis=-1)
    rho2, r2 = off[..., -1] ** 2, off[..., -1] ** 2 + np.sum(v * v, axis=-1)
    return v / np.sqrt(r2)[..., None], that, xhat, rho2 / r2


def _radial_field(cc: ChartCoords, M: MetricParams, b: SignBranch) -> np.ndarray:
    """Rescaled field, (1/2) |x_j0| h H_p, at RADIAL_NAT chart points cc,
    coordinates (s, w, rho_bf, tau_nat, xi_nat, h) of shape (..., 2d+3), in the
    same components and shape: one metric evaluation serves every row.  Raises
    ChartUnavailable where xi_nat[j0] = 0."""
    off, tau, xi, h = split_coords(cc.coords)
    j0, sigma, bsign = cc.chart.k - 1, np.asarray(cc.sign)[..., None], _sign(b)
    xj = xi[..., j0, None]
    if np.any(xj == 0.0):
        raise ChartUnavailable("radial chart needs xi_nat[j0] != 0")
    Y, that, xhat, rho2 = _radial_chart_ball(cc, b)
    V, drift = _natural_field(M, Y, np.concatenate((tau[..., None], xi), axis=-1), h, bsign,
                              rho2)
    rho, tau_b, h = off[..., -1, None], (tau + bsign)[..., None], h[..., None]
    Vj = V[..., 1 + j0, None]
    # chart rescale is |x_j0| = |Y_j0| / rho_bf_global; relative to the
    # ball field this multiplies everything shown below by |Y_j0|
    zdot = np.abs(Y[..., 1 + j0, None]) * drift                  # (tau_nat, xi_nat)'
    xidot_j = zdot[..., 1 + j0, None]
    tdot_hat = sigma * (V[..., :1] - that[..., None] * Vj)      # d/dl (t/x_j0)
    xdot_hat = sigma * (V[..., 1:] - xhat * Vj)                 # d/dl (x/x_j0)
    sdot = tdot_hat + h * (zdot[..., :1] / xj - tau_b * xidot_j / xj**2)
    wdot = np.delete(xdot_hat - zdot[..., 1:] / xj + xi * xidot_j / xj**2, j0, -1)
    return np.concatenate((sdot, wdot, -sigma * rho * Vj, zdot, np.zeros_like(rho)), axis=-1)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """One flow line: sample times, states (Y, zeta) of shape (k, 2(1+d))
    and symbol residuals.  rhs_evals, steps and rejected count the
    integrator's work; a closed-form flow carries 0."""

    mode: str                  # "natural" | "parabolic"
    h: float
    branch: SignBranch
    times: np.ndarray
    states: np.ndarray
    p_resid: np.ndarray
    termination: Termination
    rhs_evals: int = 0
    steps: int = 0
    rejected: int = 0

    @property
    def max_p_resid(self) -> float:
        return float(np.max(np.abs(self.p_resid)))

    def csv_rows(self):
        """Rows (param_time, chart_tag, coord_0..coord_k, p_residual)."""
        tag = "nat_ball" if self.mode == "natural" else "pf_ball"
        for t, y, r in zip(self.times.tolist(), self.states.tolist(), self.p_resid.tolist()):
            yield (t, tag, *y, r)


def _natural_flow(M, y, h, bsign, sign) -> np.ndarray:
    """Natural-mode field at states y = (Y, zeta_nat) of shape (..., 2(1+d));
    h, bsign and the time direction sign are scalars or per-state arrays."""
    n = y.shape[-1] // 2
    Y = y[..., :n]
    V, drift = _natural_field(M, Y, y[..., n:], h, bsign)
    Ydot = V - Y * np.sum(Y * V, axis=-1, keepdims=True)
    return np.asarray(sign)[..., None] * np.concatenate((Ydot, drift), axis=-1)


def _p_residuals(M, Y, zeta, h, bsign, parabolic) -> np.ndarray:
    """Symbol residuals p / (1 + |zeta|^2) at the rows of Y and zeta, (k, 1+d),
    each row with its own h, branch sign and mode."""
    return (_symbol_value(M, Y, zeta, h, bsign, parabolic=parabolic)
            / (1.0 + np.sum(zeta * zeta, axis=1)))


def natural_start(Y, zeta_nat, h) -> dict:
    """Flow start in natural mode (finite h >= 0 and frequencies (tau_nat, xi_nat))."""
    return {"mode": "natural", "Y": _as_vector(Y), "zeta": _as_vector(zeta_nat, h=h),
            "h": float(h)}


def parabolic_start(Y, tau, xi) -> dict:
    """Flow start on the parabolic face (h = 0, standard frequencies)."""
    return {"mode": "parabolic", "Y": _as_vector(Y),
            "zeta": np.concatenate(([tau], _as_vector(xi, tau))), "h": 0.0}


def char_start(M: MetricParams, b: SignBranch, Y, xi_nat, h: float) -> dict:
    """Natural-mode start on the characteristic sheet of the given metric.

    The sheet time frequency is the closed-form root of the symbol's
    quadratic in tau_nat, so the start satisfies |p| <= 1e-6 as the
    integration contract expects.
    """
    Y, xi_nat = _as_vector(Y), _as_vector(xi_nat, h=h)
    return natural_start(Y, np.concatenate(([_sheet_tau_nat(M, Y, xi_nat, h, b)], xi_nat)), h)


def _as_start(start, b: SignBranch) -> dict:
    """The start dict of a start dict, PhasePoint or RADIAL_NAT chart point."""
    if isinstance(start, PhasePoint):
        return natural_start(ball_from_base(start.z), start.zeta_nat, start.h)
    if not isinstance(start, ChartCoords):
        return start
    if start.chart.tag is not ChartTag.RADIAL_NAT:
        raise ChartUnavailable(f"cannot start a flow from chart {start.chart.tag}")
    _, tau, xi, h = split_coords(start.coords)
    return natural_start(_radial_chart_ball(start, b)[0], np.concatenate(([tau], xi)), h)


def _event_values(y, h, bsign, parabolic, delta) -> np.ndarray:
    """Termination events at states y = (Y, zeta), (..., 3): the distances to
    the future and past delta-balls, which end a flow falling through 0, and
    ZETA_MAX - |zeta|, which ends it crossing 0 either way."""
    n = y.shape[-1] // 2
    Y, zeta = y[..., :n], y[..., n:]
    om = _future_direction(zeta, h, bsign, parabolic)
    return np.stack((np.linalg.norm(Y - om, axis=-1) - delta,
                     np.linalg.norm(Y + om, axis=-1) - delta,
                     ZETA_MAX - np.linalg.norm(zeta, axis=-1)), axis=-1)


# termination by code: an event's index, or 3 when the budget ran out
_TERMS = (Termination.REACHED_FUTURE, Termination.REACHED_PAST,
          Termination.LEFT_DOMAIN, Termination.TIME_BUDGET)


def _end_code(g) -> np.ndarray:
    """Termination at the end of the budget, from the event values g there:
    inside a delta-ball counts as reaching it (an approach that started
    inside one never crosses into it)."""
    return np.where(g[..., 0] <= 0.0, 0, np.where(g[..., 1] <= 0.0, 1, 3))


def _closed_form_flows(Y0, V, sign, delta):
    """Frozen-frequency flows Ydot = sign (V - Y (Y.V)) in closed form.

    With u = sign V/|V|, a0 = Y0.u and s = |V| lam + atanh(a0), Y.u = tanh(s)
    and the part of Y perpendicular to u scales by cosh(atanh a0)/cosh(s).
    With X = e^{2s} and P = |Y0_perp| cosh(atanh a0), at most 1 in the ball,
    |Y - u|^2 = 4 (1 + P^2 X)/(1 + X)^2 only falls and |Y + u| only grows;
    the entry into the delta-ball about u is the positive root of
    delta^2 X^2 + (2 delta^2 - 4 P^2) X + delta^2 - 4 = 0.
    Returns (entry time, path), path mapping times (N, k) to Y (N, k, 1+d).
    """
    speed = np.linalg.norm(V, axis=1)
    u = sign[:, None] * V / speed[:, None]
    a0 = np.sum(Y0 * u, axis=1)
    perp = Y0 - a0[:, None] * u
    p2 = np.sum(perp * perp, axis=1)
    q = np.maximum(1.0 - np.sum(Y0 * Y0, axis=1), 0.0) + p2     # 1 - a0^2
    s0 = np.sign(a0) * 0.5 * np.log((1.0 + np.abs(a0)) ** 2 / q)  # atanh(a0)
    d2 = delta * delta
    B = 2.0 * d2 - 4.0 * p2 / q
    root = np.sqrt(B * B - 4.0 * d2 * (d2 - 4.0))
    X = np.where(B < 0.0, (root - B) / (2.0 * d2), 2.0 * (4.0 - d2) / (B + root))

    def path(lam):
        s = s0[:, None] + speed[:, None] * lam
        a, b = np.abs(s0)[:, None], np.abs(s)                  # cosh(s0)/cosh(s):
        ratio = np.exp(a - b) * (1.0 + np.exp(-2.0 * a)) / (1.0 + np.exp(-2.0 * b))
        return np.tanh(s)[..., None] * u[:, None, :] + ratio[..., None] * perp[:, None, :]

    return (0.5 * np.log(X) - s0) / speed, path


def _rms(x) -> np.ndarray:
    return np.sqrt(np.mean(x * x, axis=-1))


def _bracket_roots(f, a, b):
    """Roots of f on the brackets [a, b] by the Anderson-Bjorck variant of
    regula falsi, bisecting when a bracket has not halved in five steps, and
    stopped by brentq's rule for xtol = rtol = 4 eps: |b - a| <= 4 eps (1 + |x|)
    or f(x) = 0.

    f(k, x) returns the values at points x of the brackets k (an index
    array); each bracket's iterates depend only on its own values.  Returns
    the end of each final bracket with the smaller |f|.
    """
    n = a.size
    fab = f(np.tile(np.arange(n), 2), np.concatenate((a, b)))
    k, fa, fb = np.arange(n), fab[:n], fab[n:]
    widths = np.full((5, n), np.inf)             # bracket widths one to five steps back
    roots = np.empty(n)
    while True:
        width = np.abs(b - a)
        done = (fa == 0.0) | (fb == 0.0) | (width <= 4.0 * EPS * (1.0 + np.abs(b)))
        if done.any():
            roots[k[done]] = np.where(np.abs(fa) < np.abs(fb), a, b)[done]
            if done.all():
                return roots
            k, a, b, fa, fb, width, widths = (v[..., ~done] for v in
                                              (k, a, b, fa, fb, width, widths))
        with np.errstate(divide="ignore", invalid="ignore"):
            x = b - fb * (b - a) / (fb - fa)
        bisect = ~((x - a) * (x - b) < 0.0) | (width > 0.5 * widths[-1])
        x = np.where(bisect, 0.5 * (a + b), x)
        fx = f(k, x)
        flip = np.sign(fx) != np.sign(fb)          # the root lies between x and b
        with np.errstate(over="ignore"):           # fb tiny beside fx: -inf, so 1/2
            scale = 1.0 - fx / fb                  # shrinks f at a kept end a
        a, fa = np.where(flip, b, a), np.where(flip, fb, np.where(scale > 0.0, scale, 0.5) * fa)
        b, fb = x, fx
        widths = np.concatenate((width[None], widths[:-1]))


def _first_events(K, lam_old, lam_new, y_old, fired, h, bsign, delta):
    """Earliest root of each row's fired events on its RK45 dense output over
    [lam_old, lam_new], all (row, event) pairs solved together by
    _bracket_roots: (lam, y, event) per row, K of shape (7, rows, 2(1+d))."""
    row, event = np.nonzero(fired)
    lo, step, y0, h, bsign = lam_old[row], (lam_new - lam_old)[row], y_old[row], h[row], bsign[row]
    # y(lo + theta step) = y0 + sum_j C_j theta^(j+1), C = step K^T P, per pair
    C = np.einsum("srn,sj->jrn", K, DP_P)[:, row] * step[:, None]

    def y_at(k, lam):
        theta = ((lam - lo[k]) / step[k])[:, None]
        c = C[:, k]
        return y0[k] + theta * (c[0] + theta * (c[1] + theta * (c[2] + theta * c[3])))

    def g(k, lam):
        values = _event_values(y_at(k, lam), h[k], bsign[k], False, delta)
        return values[np.arange(k.size), event[k]]

    lam = _bracket_roots(g, lo, lam_new[row])
    order = np.lexsort((event, lam, row))           # by row, then time, then event
    first = order[np.concatenate(([True], np.diff(row[order]) != 0))]
    return lam[first], y_at(first, lam[first]), event[first]


def _dopri_flows(M, y0, h, bsign, sign, g, budget, rtol, delta):
    """Natural-mode flows of a perturbed metric (h > 0), advanced together by
    Dormand-Prince RK45 (Hairer-Norsett-Wanner II.4-II.6).

    Each row follows scipy.integrate.RK45's step control on its own: its
    initial-step rule, RMS error norm against ATOL + rtol max(|y|, |y_new|),
    safety 0.9, step factors in [0.2, 10] and no growth right after a
    rejected step.  The rows whose events (g: their current values) change
    sign in an accepted step leave, root-solved on their dense output by one
    _first_events call after the loop.  Returns (times and states of the
    start and every accepted step, code, (rhs evaluations, steps, rejected
    steps)) per row.
    """
    def fun(rows, y):
        return _natural_flow(M, y, h[rows], bsign[rows], sign[rows])

    N = y0.shape[0]
    t, y, f = np.zeros(N), y0.copy(), fun(slice(None), y0)
    stats = np.zeros((N, 3), dtype=int) + [1, 0, 0]
    code = np.where(g[:, 0] <= g[:, 1], 0, 1)
    history = [(np.arange(N), t.copy(), y0)]
    active = np.linalg.norm(f, axis=1) > FIXED_POINT_NORM
    live = np.flatnonzero(active)
    scale = ATOL + np.abs(y0[live]) * rtol
    d0, d1 = _rms(y0[live] / scale), _rms(f[live] / scale)
    h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), budget)
    d2 = _rms((fun(live, y0[live] + h0[:, None] * f[live]) - f[live]) / scale) / h0
    stats[live, 0] += 1
    h_abs = np.zeros(N)
    h_abs[live] = np.minimum(np.minimum(100.0 * h0, budget), np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** 0.2))
    retry, fires = np.zeros(N, dtype=bool), []    # fires: (rows, K, tl, t_new, yl, fired)
    while live.size:
        tl, yl, again = t[live], y[live], retry[live]
        min_step = 10.0 * np.abs(np.nextafter(tl, np.inf) - tl)
        if np.any(again & (h_abs[live] < min_step)):
            raise StepFailure("required step size is less than spacing between numbers")
        t_new = np.minimum(tl + np.where(again, h_abs[live], np.maximum(h_abs[live], min_step)),
                           budget)
        step = (t_new - tl)[:, None]
        K = np.empty((7,) + yl.shape)
        K[0] = f[live]
        for s in range(1, 6):
            K[s] = fun(live, yl + step * np.tensordot(DP_A[s, :s], K[:s], 1))
        y_new = yl + step * np.tensordot(DP_B, K[:6], 1)
        K[6] = fun(live, y_new)
        err = _rms(np.tensordot(DP_E, K, 1) * step
                   / (ATOL + np.maximum(np.abs(yl), np.abs(y_new)) * rtol))
        with np.errstate(divide="ignore"):
            factor = SAFETY * err ** -0.2
        ok = err < 1.0
        grow = np.minimum(MAX_FACTOR, factor)
        h_abs[live] = step[:, 0] * np.where(ok, np.where(again, np.minimum(1.0, grow), grow),
                                            np.maximum(MIN_FACTOR, factor))
        retry[live] = ~ok
        stats[live] += np.stack((np.full(live.size, 6), ok, ~ok), axis=1)
        rows, acc = live[ok], np.flatnonzero(ok)
        t[rows], y[rows], f[rows] = t_new[ok], y_new[ok], K[6][ok]
        g_new = _event_values(y[rows], h[rows], bsign[rows], False, delta)
        fired = (g[rows] >= 0.0) & (g_new <= 0.0)
        fired[:, 2] |= (g[rows, 2] <= 0.0) & (g_new[:, 2] >= 0.0)
        g[rows] = g_new
        hit, out = fired.any(axis=1), t[rows] >= budget
        code[rows[out]] = _end_code(g_new[out])
        if hit.any():
            i = acc[hit]
            fires.append((rows[hit], K[:, i], tl[i], t_new[i], yl[i], fired[hit]))
        history.append((rows, t[rows], y[rows]))
        active[rows[hit | out]] = False
        live = np.flatnonzero(active)
    which = np.concatenate([r for r, _, _ in history])
    order = np.argsort(which, kind="stable")
    lams = np.concatenate([t for _, t, _ in history])[order]
    ys = np.concatenate([y for _, _, y in history])[order]
    ends = np.searchsorted(which[order], np.arange(N + 1))
    if fires:                                   # K, entry 1, holds its rows on axis 1
        r, K, *steps = (np.concatenate(v, axis=int(j == 1)) for j, v in enumerate(zip(*fires)))
        last = ends[r + 1] - 1                  # a row's last sample is its firing step
        lams[last], ys[last], code[r] = _first_events(K, *steps, h[r], bsign[r], delta)
    return [(lams[a:b], ys[a:b]) for a, b in zip(ends[:-1], ends[1:])], code, stats


def integrate_flows(cases, M: MetricParams, budget: float = 50.0, rtol: float = 1.0e-9,
                    delta: float = 1.0e-3, max_samples: int = 2000) -> list[Trajectory]:
    """Integrate a batch of flows, each until a radial set (or the budget) is hit.

    ``cases`` is a sequence of (start, direction, branch), with ``start`` and
    ``direction`` as for integrate_flow; one Trajectory per case comes back,
    in order, and none depends on the other cases.  Flows with conserved
    frequencies (the parabolic face, the free metric, h = 0) are solved in
    closed form; the others advance together by one vectorised RK45.  InvalidInput
    unless budget, rtol and delta are finite and > 0, max_samples is an int >= 1
    and each start's Y and zeta have 1 + M.d entries.
    """
    if not (all(0.0 < x < math.inf for x in (budget, rtol, delta))
            and isinstance(max_samples, (int, np.integer)) and max_samples >= 1):
        raise InvalidInput(f"budget {budget}, rtol {rtol} and delta {delta} must be finite and "
                           f"> 0, max_samples {max_samples} an int >= 1")
    for _, direction, _ in cases:
        if direction not in ("forward", "backward"):
            raise InvalidInput(f"direction must be 'forward' or 'backward', not {direction!r}")
    if not cases:
        return []
    starts = [_as_start(start, b) for start, _, b in cases]
    n = 1 + M.d
    if any(np.size(st["Y"]) != n or np.size(st["zeta"]) != n for st in starts):
        raise InvalidInput(f"a flow of a d = {M.d} metric starts from Y and zeta of {n} entries")
    y0 = np.array([np.concatenate((st["Y"], st["zeta"])) for st in starts])
    if np.any(np.sum(y0[:, :n] ** 2, axis=1) > 1.0 + 1e-12):
        raise InvalidInput("flow starts must lie in the closed ball |Y| <= 1")
    h = np.array([st["h"] for st in starts])
    parabolic = np.array([st["mode"] == "parabolic" for st in starts])
    bsign = np.array([_sign(b) for _, _, b in cases], dtype=float)
    sign = np.array([1.0 if direction == "forward" else -1.0 for _, direction, _ in cases])
    g0 = _event_values(y0, h, bsign, parabolic, delta)
    # a start at a fixed point stays put: classify it by the nearer set
    code = np.where(g0[:, 0] <= g0[:, 1], 0, 1)
    stats = np.zeros((len(cases), 3), dtype=int)
    paths = [(np.zeros(1), y0[i : i + 1]) for i in range(len(cases))]

    # frequencies are conserved on the parabolic face and for the free metric
    frozen = parabolic | (h == 0.0) | M.is_flat
    rows = np.flatnonzero(frozen)
    Y0 = y0[rows, :n]
    V = _free_velocity(y0[rows, n:], h[rows], bsign[rows], parabolic[rows])
    moving = np.linalg.norm(V - Y0 * np.sum(Y0 * V, axis=1, keepdims=True), axis=1) \
        > FIXED_POINT_NORM
    rows = rows[moving]
    if rows.size:
        t_hit, path = _closed_form_flows(Y0[moving], V[moving], sign[rows], delta)
        hit = (t_hit > 0.0) & (t_hit <= budget)
        lam = np.where(hit, t_hit, budget)[:, None] * np.linspace(
            0.0, 1.0, max(2, min(max_samples, CLOSED_FORM_SAMPLES)))
        ys = np.concatenate((path(lam), np.broadcast_to(y0[rows, None, n:], lam.shape + (n,))),
                            axis=2)
        ys[:, 0] = y0[rows]
        g_end = _event_values(ys[:, -1], h[rows], bsign[rows], parabolic[rows], delta)
        code[rows] = np.where(hit, np.where(sign[rows] * bsign[rows] > 0.0, 0, 1),
                              _end_code(g_end))
        for r, lam_r, y_r in zip(rows, lam, ys):
            paths[r] = (lam_r, y_r)
    rows = np.flatnonzero(~frozen)
    if rows.size:
        moved, code[rows], stats[rows] = _dopri_flows(
            M, y0[rows], h[rows], bsign[rows], sign[rows], g0[rows], budget, rtol, delta)
        for r, p in zip(rows, moved):
            paths[r] = p

    # keep every max_samples-th point of each path and its end; the
    # residuals of all kept points come from one kernel call
    picks = [np.append(np.arange(0, lam.size - 1, max(1, lam.size // max_samples)),
                       lam.size - 1) for lam, _ in paths]
    counts = [idx.size for idx in picks]
    owner = np.repeat(np.arange(len(cases)), counts)
    ys = np.concatenate([y[idx] for (_, y), idx in zip(paths, picks)])
    resid = _p_residuals(M, ys[:, :n], ys[:, n:], h[owner], bsign[owner], parabolic[owner])
    out = []
    for i, ((lam, _), idx, lo) in enumerate(zip(paths, picks, np.cumsum([0] + counts))):
        out.append(Trajectory(starts[i]["mode"], starts[i]["h"], cases[i][2], lam[idx],
                              ys[lo : lo + idx.size], resid[lo : lo + idx.size],
                              _TERMS[code[i]], *map(int, stats[i])))
    return out


def integrate_flow(start, direction, M: MetricParams, b: SignBranch,
                   budget: float = 50.0, rtol: float = 1.0e-9,
                   delta: float = 1.0e-3, max_samples: int = 2000) -> Trajectory:
    """Integrate the rescaled flow until a radial set (or the budget) is hit.

    ``start`` is a dict from natural_start/parabolic_start, a PhasePoint, or
    RADIAL_NAT ChartCoords (else ChartUnavailable).  ``direction`` is "forward"
    or "backward".  Termination: REACHED_FUTURE / REACHED_PAST on entering the
    delta-ball of the future/past radial set, TIME_BUDGET, or LEFT_DOMAIN.
    Raises StepFailure on integrator failure.  One case of integrate_flows.
    """
    return integrate_flows([(start, direction, b)], M, budget, rtol, delta, max_samples)[0]


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported when called.  No package code calls
    it: the tests' scipy oracle lives in tests/, and perfbench's tracer wraps
    this name, so it stays until the benchmark stops reading it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


# ---------------------------------------------------------------------------
# quadratic-defining-function probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QdfReport:
    varrho: float
    iota_est: float
    F_est: float
    E_est: float
    decomposition_residual: float
    cubic_bound: float


def _sheet_points(cc: ChartCoords, M, b) -> ChartCoords:
    """The RADIAL_NAT points cc moved onto the sheet over their base points,
    xi_nat kept.

    The base point depends on s and tau_nat only through
    t/x_j0 = s - h (tau_nat + b)/xi_j0, so each row takes the sheet root once
    over the base point at its drawn tau_nat, and s moves by
    h (root - tau_nat)/xi_j0 to keep that base point under the root.  With
    1 - |Y|^2 carried exactly the roots' rounding floor is about 1e-14.
    """
    co = cc.coords.copy()
    off, tau, xi, h = split_coords(co)              # views: s and tau move in place
    Y, _, _, rho2 = _radial_chart_ball(cc, b)
    root = _sheet_tau_nat(M, Y, xi, h, b, rho2)
    off[..., 0] += h * (root - tau) / xi[..., cc.chart.k - 1]
    tau[...] = root
    return replace(cc, coords=co)


def _column(rp: RadialPoint, m) -> RadialPoint:
    """The radial points of rp at the mask m over its batch axes, as a column (n, 1)."""
    return RadialPoint(*(np.broadcast_to(a, m.shape + np.shape(a)[m.ndim:])[m][:, None] for a in (
        rp.tau_nat, rp.xi_nat, rp.h, _sign(rp.side), _sign(rp.branch), rp.direction)))


def qdf_probe(center: RadialPoint, radius: float, nsamples: int,
              M: MetricParams, b: SignBranch, seed=0) -> QdfReport:
    """Probe the attraction structure of the flow at radial-set points.

    Samples the characteristic set near each center in the (s, w, rho_bf)
    chart, evaluates the flow derivative of
    varrho = s^2 + |w|^2 + UPSILON rho_bf^2, and fits the decomposition
    into a linear-rate part (coefficient iota), a nonnegative remainder F
    of size O(varrho), and a cubically vanishing error E.

    The max(8, nsamples // 8) inner samples (radius 1e-3 times smaller)
    give iota; the nsamples main ones the fit.  One center with an integer
    seed gives float fields; a batch of centers, with one seed each in the
    batch's shape, gives fields of that shape, each center drawn from its
    seed and fitted as alone; b is a branch or, like the seed, one sign per
    center.  The rows of every center of one dominant axis (all in d = 1)
    form one batch, and varrho is read at the sheet points: one metric
    evaluation gives every row's sheet root in closed form (_sheet_points,
    which moves s) and one the field (_radial_field).  The radius is finite,
    and large enough that each sample's varrho^(3/2) is a normal float (else
    InvalidInput: the fit divides by it).
    """
    shape, bsign = center.direction.shape[:-1], _sign(b)
    if np.shape(seed) != shape or np.ndim(bsign) and np.shape(bsign) != shape:
        raise InvalidInput(f"qdf_probe takes a seed (and sign) per center, in their shape {shape}")
    if not math.isfinite(radius):
        raise InvalidInput(f"qdf_probe needs a finite radius, not {radius}")
    if radius == 0.0 or nsamples == 0:
        return QdfReport(*(np.zeros((6,) + shape) if shape else [0.0] * 6))
    d, n_inner = center.d, max(8, nsamples // 8)
    axes = _dominant_axes(center)[0]  # raises ChartUnavailable where xi_nat = 0

    def draw(rng, scale, m):
        pts = rng.normal(size=(m, d + 1))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= scale * rng.uniform(0.2, 1.0, size=(m, 1))
        pts[:, d] = np.abs(pts[:, d]) / math.sqrt(UPSILON)  # keep rho_bf >= 0, O(UPSILON^-1/2)
        return pts

    fits = np.empty(shape + (6,))
    weight = np.append(np.ones(d), UPSILON)         # varrho = s^2 + |w|^2 + UPSILON rho_bf^2
    for j0 in sorted(set(axes.flat)):   # not np.unique: it imports numpy.ma on first use
        m = axes == j0
        col = _column(replace(center, branch=bsign), m)
        cc = _sheet_points(to_radial_chart(col, [
            np.concatenate((draw(rng, radius * 1.0e-3, n_inner), draw(rng, radius, nsamples)))
            for rng in map(np.random.default_rng, np.asarray(seed)[m].tolist())]), M, col.branch)
        field, fit = _radial_field(cc, M, col.branch), []
        # each center alone: its offsets (s, w, rho_bf), s moved onto the sheet, their
        # rates, and coef, the sign making H varrho = +coef^-1(iota varrho + ...)
        for off, rate, coef in zip(cc.coords[..., : d + 1], field[..., : d + 1],
                                   -col.branch[:, 0] * col.side[:, 0]):
            varrho = off**2 @ weight
            if not np.min(varrho) ** 1.5 >= np.finfo(float).tiny:    # the fit divides by it
                raise InvalidInput(f"qdf_probe's radius {radius} is too small: varrho^1.5 = 0")
            hrho = 2.0 * (off * rate) @ weight
            iota_est = float(np.mean(coef * hrho[:n_inner] / varrho[:n_inner]))
            vr = varrho[n_inner:]
            rr = coef * hrho[n_inner:] - iota_est * vr
            # residual model R = c1 varrho + c2 varrho^{3/2}.  A negative linear part
            # is absorbable into the rate (the decomposition's freedom): report
            # iota = inner rate + min(c1, 0) and the nonnegative surplus as F.
            A = np.stack([vr, vr**1.5], axis=1)
            coefs, *_ = np.linalg.lstsq(A, rr, rcond=None)
            c1, c2 = float(coefs[0]), float(coefs[1])
            fit.append((float(np.max(vr)), iota_est + min(c1, 0.0), max(c1, 0.0), c2,
                        float(np.sqrt(np.mean((rr - A @ coefs) ** 2))),
                        float(np.max(np.abs(rr - c1 * vr) / vr**1.5))))
        fits[m] = fit
    return QdfReport(*(np.moveaxis(fits, -1, 0) if shape else map(float, fits)))


# ---------------------------------------------------------------------------
# threshold weight rate, degeneracy, linearization
# ---------------------------------------------------------------------------


def weight_flow_rate(rp: RadialPoint, orders, M: MetricParams, b: SignBranch):
    """Logarithmic rate of the order weight a = rho_df^m rho_bf^s rho_nf^l rho_pf^q
    along the rescaled flow at (a batch of) radial-set points, each on its
    branch; ``orders`` are four finite numbers (m, s, l, q).

    At the radial point (on |Y| = 1) the frequency drift vanishes with the
    metric's ball forms, so only rho_bf moves: the rate is s (-omega . V).
    """
    if np.shape(orders) != (4,) or not np.isfinite(orders).all():
        raise InvalidInput(f"orders are four finite numbers (m, s, l, q), not {orders!r}")
    omega = rp.direction
    V = _natural_field(M, omega, rp.zeta_nat, rp.h, _sign(b), 0.0)[0]
    return orders[1] * -np.sum(omega * V, axis=-1)


def natural_degeneracy(p: PhasePoint):
    """Norm of the unresolved natural-scale rescaled field 2h tau_nat d_t - 2 xi_nat d_x.

    Vanishes identically at h = 0, xi_nat = 0 (over interior spacetime
    points); this is the degeneracy the parabolic blow-up removes.
    """
    return 2.0 * np.sqrt((p.h * p.tau_nat) ** 2 + np.sum(p.xi_nat * p.xi_nat, axis=-1))


def radial_linearization(rp: RadialPoint, M: MetricParams, b: SignBranch,
                         mode: str | None = None, zeta=None) -> np.ndarray:
    """Eigenvalues of the base-direction linearization of the flow at a
    radial-set point.  Free metric only, where V does not depend on Y: the
    Jacobian of the ball field Ydot = V - Y (Y . V) at Y = omega is then
    -(omega . V) I - omega V^T.  One radial point, not a batch."""
    if rp.direction.ndim != 1:
        raise InvalidInput("radial_linearization takes one radial point, not a batch")
    if not M.is_flat:
        raise InvalidInput("radial_linearization needs the free metric")
    if mode is None:
        mode = "parabolic" if (rp.h == 0.0 and not rp.xi_nat.any()) else "natural"
    if zeta is None:
        zeta = rp.zeta_nat if mode == "natural" else np.zeros(rp.d + 1)
    zeta = np.asarray(zeta, float)
    parabolic = mode == "parabolic"
    omega = _sign(rp.side) * _future_direction(zeta, rp.h, _sign(b), parabolic)
    V = _free_velocity(zeta, rp.h, _sign(b), parabolic)
    return np.linalg.eigvals(-float(omega @ V) * np.eye(omega.size) - np.outer(omega, V))
