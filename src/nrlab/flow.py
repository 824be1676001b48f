"""Rescaled Hamiltonian flow on the compactified phase space.

The flow generator is H_p multiplied by (1/2) rho_df rho_bf^-1 rho_nf, which
makes it tangent to every boundary face.  Integration uses global "ball"
coordinates for the base,

    Y = z / <z>,          rho_bf = sqrt(1 - |Y|^2),

in which the rescaled field is polynomial-in-Y:  Ydot = (I - Y Y^T) V(zeta)
plus a frequency drift that vanishes for the free metric.  Two frequency
modes cover all cases:

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
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ChartUnavailable, DegenerateMetric, StepFailure
from .geometry import BdfValues, ChartCoords, ChartId, ChartTag, PhasePoint, chi_cutoff
from .symbols import (
    MetricParams,
    RadialPoint,
    Side,
    SignBranch,
    ball_from_base,
    eval_metric,
    natural_symbol_value,  # noqa: F401  kept by name: perfbench's tracer test rebinds it
)

__all__ = [
    "TangentVector",
    "Termination",
    "Trajectory",
    "QdfReport",
    "ham_field",
    "to_radial_chart",
    "integrate_flow",
    "natural_start",
    "parabolic_start",
    "char_start",
    "qdf_probe",
    "weight_flow_rate",
    "natural_degeneracy",
    "radial_linearization",
]

FD_STEP = 1.0e-5     # finite-difference step (of chart scale), 4th order
ZETA_MAX = 50.0      # leave-domain bound on frequency magnitude
FIXED_POINT_NORM = 1.0e-10


class Termination(Enum):
    REACHED_FUTURE = "reached_future"
    REACHED_PAST = "reached_past"
    TIME_BUDGET = "time_budget"
    LEFT_DOMAIN = "left_domain"


@dataclass(frozen=True)
class TangentVector:
    chart: ChartId
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", np.asarray(self.components, float))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


# ---------------------------------------------------------------------------
# ball-coordinate field
# ---------------------------------------------------------------------------


def _v_of_G(G, zeta_nat, h, b) -> np.ndarray:
    Gz = G @ zeta_nat
    out = -Gz
    out[0] = h * (b.sign - Gz[0])
    return out


def _v_natural(M, Y, zeta_nat, h, b) -> np.ndarray:
    """V = (1/2)(h dp/dtau_nat, dp/dxi_nat); free case (h(tau_nat +/- 1), -xi_nat)."""
    return _v_of_G(eval_metric(M, Y, h).G, zeta_nat, h, b)


def _natural_field(M, Y, zeta_nat, h, b):
    """(V, frequency drift) of the rescaled field; the drift is zero for the
    free metric.

    tau_nat' = -(h/2) D_t p,  xi_nat' = -(1/2) D_x p, with D the
    rho_bf-compensated spacetime derivative of G taken from the metric
    kernel, which stays smooth up to the boundary sphere where it vanishes
    with the profiles.
    """
    if M.is_flat or h == 0.0:
        return _v_natural(M, Y, zeta_nat, h, b), np.zeros(zeta_nat.size)
    mv = eval_metric(M, Y, h, grad=True)
    out = 0.5 * (mv.dG @ zeta_nat) @ zeta_nat        # = -(1/2) D_l p
    out[0] *= h
    return _v_of_G(mv.G, zeta_nat, h, b), out


def _nu_parabolic(tau, xi) -> float:
    """Local natural-face bdf at the parabolic face: (1+tau^2+|xi|^4)^(-1/4)."""
    return (1.0 + tau**2 + float(np.sum(np.asarray(xi) ** 4))) ** -0.25


def _v_parabolic(tau, xi, b) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return _nu_parabolic(tau, xi) * np.concatenate(([float(b.sign)], -xi))


def radial_direction(zeta, h, mode, b: SignBranch, side: Side) -> np.ndarray:
    """Unit base direction of the radial set at the given frequencies."""
    zeta = np.asarray(zeta, dtype=float)
    if mode == "natural":
        xi_nat = zeta[1:]
        root = math.sqrt(1.0 + float(xi_nat @ xi_nat))
        W = np.concatenate(([h * root], -b.sign * xi_nat))
    else:
        W = np.concatenate(([1.0], -b.sign * zeta[1:]))
    n = np.linalg.norm(W)
    if n == 0.0:
        out = np.zeros(zeta.size)
        out[0] = side.sign
        return out
    return side.sign * W / n


def _fixed_direction(zeta, h, mode, b: SignBranch, side: Side) -> np.ndarray:
    """Fixed direction of the boundary flow at the given frequencies.

    Equals the radial direction on the characteristic sheet but uses the
    actual frequency values (V = (h(tau_nat + b), -xi_nat) at the natural
    scale), so slightly off-sheet states still terminate at the point the
    flow actually converges to.
    """
    zeta = np.asarray(zeta, dtype=float)
    if mode == "natural":
        V = np.concatenate(([h * (zeta[0] + b.sign)], -zeta[1:]))
    else:
        V = np.concatenate(([float(b.sign)], -zeta[1:]))
    n = np.linalg.norm(V)
    if n == 0.0:
        out = np.zeros(zeta.size)
        out[0] = side.sign
        return out
    return side.sign * b.sign * V / n


def _sheet_tau(zeta_sp, h, mode, b: SignBranch) -> float:
    """Characteristic-sheet time frequency over given space frequencies."""
    zeta_sp = np.asarray(zeta_sp, dtype=float)
    if mode == "natural":
        return b.sign * (math.sqrt(1.0 + float(zeta_sp @ zeta_sp)) - 1.0)
    return b.sign * float(zeta_sp @ zeta_sp) / 2.0


# ---------------------------------------------------------------------------
# chart-wise field (ham_field)
# ---------------------------------------------------------------------------


def to_radial_chart(rp, M: MetricParams | None = None, offsets=None) -> ChartCoords:
    """Radial-set adapted chart (s, w, rho_bf) over the natural frequencies.

    The dominant spatial axis is the largest |xi_nat| component; the chart
    does not exist when xi_nat = 0.  ``offsets``, if given, displaces
    (s, w, rho_bf) away from the radial set by the given amounts.
    """
    if not isinstance(rp, RadialPoint):
        raise ChartUnavailable("to_radial_chart expects a RadialPoint")
    if float(np.max(np.abs(rp.xi_nat)) if rp.d else 0.0) == 0.0:
        raise ChartUnavailable("radial chart needs xi_nat != 0")
    j0 = int(np.argmax(np.abs(rp.xi_nat)))
    sigma = int(np.sign(rp.direction[1 + j0]))
    if sigma == 0:
        raise ChartUnavailable("degenerate dominant direction")
    d = rp.d
    s = 0.0
    w = np.zeros(d - 1)
    rho = 0.0
    if offsets is not None:
        s = float(offsets[0])
        w = np.asarray(offsets[1 : d], dtype=float)
        rho = float(offsets[d])
    coords = np.concatenate(([s], w, [rho], [rp.tau_nat], rp.xi_nat, [rp.h]))
    bdf = BdfValues(rho_df=1.0, rho_bf=rho, rho_nf=rp.h, rho_pf=1.0)
    return ChartCoords(ChartId(ChartTag.RADIAL_NAT, k=j0 + 1, sign=sigma), coords, bdf)


def _radial_chart_to_state(cc: ChartCoords):
    """Unpack a RADIAL_NAT chart point: (s, w, rho, tau_nat, xi_nat, h, j0, sigma)."""
    co = cc.coords
    d = (co.size - 3) // 2
    s = co[0]
    w = co[1 : d]
    rho = co[d]
    tau_nat = co[d + 1]
    xi_nat = co[d + 2 : 2 * d + 2]
    h = co[-1]
    return s, w, rho, tau_nat, xi_nat, h, cc.chart.k - 1, cc.chart.sign


def ham_field(cc: ChartCoords, M: MetricParams, b: SignBranch) -> TangentVector:
    """Rescaled Hamiltonian field in chart-local coordinates.

    Supported charts: NAT_INTERIOR ((t, x, tau_nat, xi_nat, h) components,
    rescale (1/2) <z> h H_p), RADIAL_NAT ((s, w, rho_bf, tau_nat, xi_nat, h),
    rescale (1/2) |x_j0| h H_p), and PF_STANDARD at h = 0 ((t, x, tau, xi, h),
    rescale with the parabolic natural-face bdf).
    """
    tag = cc.chart.tag
    co = cc.coords
    if tag is ChartTag.NAT_INTERIOR:
        d = (co.size - 3) // 2
        z = co[: 1 + d]
        zeta_nat = co[1 + d : 2 + 2 * d]
        h = co[-1]
        Y = ball_from_base(z)
        bracket = math.sqrt(1.0 + float(z @ z))
        V, drift = _natural_field(M, Y, zeta_nat, h, b)
        comps = np.concatenate((bracket * V, drift, [0.0]))
        return TangentVector(cc.chart, comps)

    if tag is ChartTag.RADIAL_NAT:
        s, w, rho, tau_nat, xi_nat, h, j0, sigma = _radial_chart_to_state(cc)
        d = xi_nat.size
        if xi_nat[j0] == 0.0:
            raise ChartUnavailable("radial chart needs xi_nat[j0] != 0")
        zeta_nat = np.concatenate(([tau_nat], xi_nat))
        # reconstruct the base point; at rho_bf = 0 work directly on the sphere
        others = [j for j in range(d) if j != j0]
        xhat = np.empty(d)         # x_j / x_j0
        xhat[j0] = 1.0
        xhat[others] = w + xi_nat[others] / xi_nat[j0]
        that = s - h * (tau_nat + b.sign) / xi_nat[j0]   # t / x_j0
        if rho > 0.0:
            xj0 = sigma / rho
            z = np.concatenate(([that * xj0], xhat * xj0))
            Y = ball_from_base(z)
        else:
            Ydir = np.concatenate(([that], xhat)) * sigma
            Y = Ydir / np.linalg.norm(Ydir)
        V, drift = _natural_field(M, Y, zeta_nat, h, b)
        absYj0 = abs(Y[1 + j0])
        # chart rescale is |x_j0| = |Y_j0| / rho_bf_global; relative to the
        # ball field this multiplies everything shown below by |Y_j0|
        tdot_hat = sigma * (V[0] - that * V[1 + j0])          # d/dl (t/x_j0)
        xdot_hat = sigma * (V[1:] - xhat * V[1 + j0])         # d/dl (x/x_j0)
        rhodot = -sigma * rho * V[1 + j0]
        taudot = absYj0 * drift[0]
        xidot = absYj0 * drift[1:]
        sdot = tdot_hat + h * (
            taudot / xi_nat[j0] - (tau_nat + b.sign) * xidot[j0] / xi_nat[j0] ** 2
        )
        wdot = (
            xdot_hat[others]
            - xidot[others] / xi_nat[j0]
            + xi_nat[others] * xidot[j0] / xi_nat[j0] ** 2
        )
        comps = np.concatenate(([sdot], wdot, [rhodot], [taudot], xidot, [0.0]))
        return TangentVector(cc.chart, comps)

    if tag is ChartTag.PF_STANDARD:
        d = (co.size - 3) // 2
        z = co[: 1 + d]
        tau = co[1 + d]
        xi = co[2 + d : 2 + 2 * d]
        h = co[-1]
        if h != 0.0:
            raise ChartUnavailable("pf-chart field is the h = 0 limit")
        bracket = math.sqrt(1.0 + float(z @ z))
        V = _v_parabolic(tau, xi, b)
        comps = np.concatenate((bracket * V, np.zeros(d + 1), [0.0]))
        return TangentVector(cc.chart, comps)

    raise ChartUnavailable(f"ham_field not implemented for chart {tag}")


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


@dataclass
class FlowSample:
    lam: float
    Y: np.ndarray
    zeta: np.ndarray
    p_resid: float


@dataclass
class Trajectory:
    mode: str                  # "natural" | "parabolic"
    h: float
    branch: SignBranch
    samples: list
    chart_switches: list
    termination: Termination

    @property
    def times(self):
        return np.array([s.lam for s in self.samples])

    @property
    def max_p_resid(self) -> float:
        return max((abs(s.p_resid) for s in self.samples), default=0.0)

    def csv_rows(self):
        """Rows (param_time, chart_tag, coord_0..coord_k, p_residual)."""
        tag = "nat_ball" if self.mode == "natural" else "pf_ball"
        for s in self.samples:
            yield (s.lam, tag, *s.Y.tolist(), *s.zeta.tolist(), s.p_resid)


def _state_rhs(mode, M, b, h, sign):
    def rhs(lam, y):
        n = y.size // 2
        Y = y[:n]
        zeta = y[n:]
        if mode == "natural":
            V, drift = _natural_field(M, Y, zeta, h, b)
        else:
            V = _v_parabolic(zeta[0], zeta[1:], b)
            drift = np.zeros(n)
        Ydot = V - Y * float(Y @ V)
        return sign * np.concatenate((Ydot, drift))

    return rhs


def _frozen_frequency_rhs(V, sign):
    """Y-only field for flows with conserved frequencies (free metric or pf)."""

    def rhs(lam, Y):
        return sign * (V - Y * float(Y @ V))

    return rhs


def _profile_scalar_fns(p):
    """(value, d/dY0, d/dY1) of a profile's angular part as plain-math closures."""
    const = p.constant
    waves = [(tuple(float(k) for k in kappa), float(cc), float(ss))
             for kappa, cc, ss in p.waves]

    def ang(Y0, Y1):
        g = const
        g0 = 0.0
        g1 = 0.0
        for (k0, k1), cc, ss in waves:
            ph = k0 * Y0 + k1 * Y1
            cph = math.cos(ph)
            sph = math.sin(ph)
            g += cc * cph + ss * sph
            dg = -cc * sph + ss * cph
            g0 += dg * k0
            g1 += dg * k1
        return g, g0, g1

    return float(p.amplitude), int(p.order), ang


def _natural_rhs_d1(M: MetricParams, b: SignBranch, h: float, sign: float):
    """Scalarized natural-mode field for d = 1 perturbed metrics.

    Identical mathematics to the kernel-backed ``_state_rhs`` (ball-form
    inverse metric, analytic compensated drift), hand-expanded for speed in
    the 2 x 2 case; a test pins the two together.
    """
    c = 1.0 / h
    c2 = c * c
    bs = float(b.sign)
    Aa, ra, ang_a = _profile_scalar_fns(M.alpha)
    Aw, rw, ang_w = _profile_scalar_fns(M.w[0])
    Ah, rh, ang_h = _profile_scalar_fns(M.hjk[0][0])

    def rhs(lam, y):
        Y0, Y1, tn, xn = y
        rho2 = 1.0 - Y0 * Y0 - Y1 * Y1
        if rho2 < 0.0:
            rho2 = 0.0
        # profile values and compensated gradients:
        #   f = A rho^{|r|} g(Y),  Df_i = A rho^{|r|} (r Y_i g + proj_i)
        vals = []
        grads = []
        for A, r, ang in ((Aa, ra, ang_a), (Aw, rw, ang_w), (Ah, rh, ang_h)):
            if A == 0.0:
                vals.append(0.0)
                grads.append((0.0, 0.0))
                continue
            g, g0, g1 = ang(Y0, Y1)
            dot = g0 * Y0 + g1 * Y1
            p0 = g0 - dot * Y0
            p1 = g1 - dot * Y1
            w = A * rho2 ** (-r / 2.0)
            vals.append(w * g)
            grads.append((w * (r * Y0 * g + p0), w * (r * Y1 * g + p1)))
        al, wv, hv = vals
        # 2x2 inverse metric in natural units
        g00 = -c2 + al
        g01 = wv / c
        g11 = 1.0 + hv / c2
        det = g00 * g11 - g01 * g01
        G00 = c2 * g11 / det
        G01 = -c * g01 / det
        G11 = g00 / det
        Gz0 = G00 * tn + G01 * xn
        Gz1 = G01 * tn + G11 * xn
        V0 = h * (bs - Gz0)
        V1 = -Gz1
        dotYV = Y0 * V0 + Y1 * V1
        out0 = V0 - Y0 * dotYV
        out1 = V1 - Y1 * dotYV
        # drift: out_l = 0.5 zeta (dG_l) zeta with dG_l = -h^2 G P_l G
        h2 = h * h
        dtau = 0.0
        dxi = 0.0
        for l in range(2):
            pa = grads[0][l]
            pw = grads[1][l]
            ph_ = grads[2][l]
            a0 = G00 * pa + G01 * pw
            a1 = G00 * pw + G01 * ph_
            b0 = G01 * pa + G11 * pw
            b1 = G01 * pw + G11 * ph_
            q00 = a0 * G00 + a1 * G01
            q01 = a0 * G01 + a1 * G11
            q10 = b0 * G00 + b1 * G01
            q11 = b0 * G01 + b1 * G11
            quad = tn * (q00 * tn + q01 * xn) + xn * (q10 * tn + q11 * xn)
            val = -0.5 * h2 * quad
            if l == 0:
                dtau = val * h
            else:
                dxi = val
        return sign * np.array([out0, out1, dtau, dxi])

    return rhs


def _p_residuals(mode, M, b, h, Y, zeta) -> np.ndarray:
    """Symbol residuals p / (1 + |zeta|^2) at the rows of Y and zeta, (k, 1+d)."""
    if mode == "natural":
        quad = np.einsum("ka,kab,kb->k", zeta, eval_metric(M, Y, h).G, zeta)
    else:
        quad = np.sum(zeta[:, 1:] ** 2, axis=1)
    return (2.0 * b.sign * zeta[:, 0] - quad) / (1.0 + np.sum(zeta * zeta, axis=1))


def natural_start(Y, zeta_nat, h) -> dict:
    """Flow start in natural mode (any h >= 0, frequencies (tau_nat, xi_nat))."""
    return {"mode": "natural", "Y": np.asarray(Y, float),
            "zeta": np.asarray(zeta_nat, float), "h": float(h)}


def parabolic_start(Y, tau, xi) -> dict:
    """Flow start on the parabolic face (h = 0, standard frequencies)."""
    return {"mode": "parabolic", "Y": np.asarray(Y, float),
            "zeta": np.concatenate(([float(tau)], np.atleast_1d(xi))), "h": 0.0}


def char_start(M: MetricParams, b: SignBranch, Y, xi_nat, h: float) -> dict:
    """Natural-mode start on the characteristic sheet of the given metric.

    For a perturbed metric at an interior base point the sheet time
    frequency is the closed-form root of the symbol's quadratic in tau_nat,
    so the start satisfies |p| <= 1e-6 as the integration contract expects.
    """
    Y = np.asarray(Y, dtype=float)
    xi_nat = np.atleast_1d(np.asarray(xi_nat, dtype=float))
    if M.is_flat or h == 0.0 or float(Y @ Y) >= 1.0:
        tau = _sheet_tau(xi_nat, h, "natural", b)
    else:
        tau = _sheet_tau_nat_perturbed(M, Y, xi_nat, h, b)
    return natural_start(Y, np.concatenate(([tau], xi_nat)), h)


def integrate_flow(start, direction, M: MetricParams, b: SignBranch,
                   budget: float = 50.0, rtol: float = 1.0e-9,
                   delta: float = 1.0e-3, max_samples: int = 2000) -> Trajectory:
    """Integrate the rescaled flow until a radial set (or the budget) is hit.

    ``start`` is a dict from natural_start/parabolic_start, a PhasePoint, or
    RADIAL_NAT/PF_STANDARD ChartCoords.  ``direction`` is "forward" or
    "backward".  Termination: REACHED_FUTURE / REACHED_PAST on entering the
    delta-ball of the future/past radial set, TIME_BUDGET, or LEFT_DOMAIN.
    Raises StepFailure on integrator failure.
    """
    if isinstance(start, PhasePoint):
        start = natural_start(ball_from_base(start.z), start.zeta_nat, start.h)
    elif isinstance(start, ChartCoords):
        if start.chart.tag is ChartTag.RADIAL_NAT:
            tv_state = _radial_chart_to_state(start)
            s0, w0, rho0, tn, xn, h0 = tv_state[:6]
            j0, sigma = tv_state[6], tv_state[7]
            d = xn.size
            others = [j for j in range(d) if j != j0]
            xhat = np.empty(d)
            xhat[j0] = 1.0
            xhat[others] = w0 + xn[others] / xn[j0]
            that = s0 - h0 * (tn + b.sign) / xn[j0]
            if rho0 > 0.0:
                z = np.concatenate(([that], xhat)) * (sigma / rho0)
                Y = ball_from_base(z)
            else:
                Ydir = np.concatenate(([that], xhat)) * sigma
                Y = Ydir / np.linalg.norm(Ydir)
            start = natural_start(Y, np.concatenate(([tn], xn)), h0)
        elif start.chart.tag is ChartTag.PF_STANDARD:
            co = start.coords
            d = (co.size - 3) // 2
            start = parabolic_start(ball_from_base(co[: 1 + d]), co[1 + d],
                                    co[2 + d : 2 + 2 * d])
        else:
            raise ChartUnavailable(f"cannot start a flow from chart {start.chart.tag}")

    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', not {direction!r}")
    mode, h = start["mode"], start["h"]
    sign = +1.0 if direction == "forward" else -1.0
    n = start["Y"].size
    zeta0 = start["zeta"]
    # frequencies are conserved on the parabolic face and for the free metric
    frozen = mode == "parabolic" or M.is_flat or h == 0.0

    if frozen:
        if mode == "natural":
            V = _v_natural(M, start["Y"], zeta0, h, b)
        else:
            V = _v_parabolic(zeta0[0], zeta0[1:], b)
        rhs = _frozen_frequency_rhs(V, sign)
        y0 = start["Y"].copy()
        om_fut = _fixed_direction(zeta0, h, mode, b, Side.FUTURE)
        om_past = _fixed_direction(zeta0, h, mode, b, Side.PAST)

        def ev_fut(lam, Y):
            return float(np.sqrt(np.sum((Y - om_fut) ** 2))) - delta

        def ev_past(lam, Y):
            return float(np.sqrt(np.sum((Y - om_past) ** 2))) - delta

        def leave(lam, Y):
            return 2.0 - float(Y @ Y)

        def unpack(cols):
            return cols.T, np.tile(zeta0, (cols.shape[1], 1))
    else:
        if M.d == 1:
            rhs = _natural_rhs_d1(M, b, h, sign)
        else:
            rhs = _state_rhs(mode, M, b, h, sign)
        y0 = np.concatenate((start["Y"], zeta0))

        def ev_fut(lam, y):
            omega = _fixed_direction(y[n:], h, mode, b, Side.FUTURE)
            return float(np.sqrt(np.sum((y[:n] - omega) ** 2))) - delta

        def ev_past(lam, y):
            omega = _fixed_direction(y[n:], h, mode, b, Side.PAST)
            return float(np.sqrt(np.sum((y[:n] - omega) ** 2))) - delta

        def leave(lam, y):
            return ZETA_MAX - float(np.linalg.norm(y[n:]))

        def unpack(cols):
            return cols[:n].T, cols[n:].T

    for ev in (ev_fut, ev_past):
        ev.terminal = True
        ev.direction = -1.0
    leave.terminal = True

    # a start at an exact fixed point stays put: classify by the nearer set
    f0 = rhs(0.0, y0)
    if np.linalg.norm(f0) <= FIXED_POINT_NORM:
        Y0, z0 = unpack(y0[:, None])
        term = (Termination.REACHED_FUTURE
                if ev_fut(0.0, y0) <= ev_past(0.0, y0)
                else Termination.REACHED_PAST)
        resid = float(_p_residuals(mode, M, b, h, Y0, z0)[0])
        return Trajectory(mode, h, b, [FlowSample(0.0, Y0[0], z0[0], resid)], [], term)

    sol = solve_ivp(rhs, (0.0, budget), y0, method="RK45", rtol=rtol,
                    atol=1.0e-12, events=[ev_fut, ev_past, leave])
    if sol.status == -1:
        raise StepFailure(sol.message)

    if sol.status == 1:
        if len(sol.t_events[0]):
            term = Termination.REACHED_FUTURE
        elif len(sol.t_events[1]):
            term = Termination.REACHED_PAST
        else:
            term = Termination.LEFT_DOMAIN
    else:
        # budget expired; an approach that started inside the delta-ball never
        # produces a downward crossing, so classify the final state directly
        yend = sol.y[:, -1]
        if ev_fut(sol.t[-1], yend) <= 0.0:
            term = Termination.REACHED_FUTURE
        elif ev_past(sol.t[-1], yend) <= 0.0:
            term = Termination.REACHED_PAST
        else:
            term = Termination.TIME_BUDGET

    ts = sol.t
    ys = sol.y
    stride = max(1, len(ts) // max_samples)
    samples = []
    switches = []
    prev_dom = None
    idx = list(range(0, len(ts), stride))
    if idx[-1] != len(ts) - 1:
        idx.append(len(ts) - 1)
    Ys, zetas = unpack(ys[:, idx])
    resids = _p_residuals(mode, M, b, h, Ys, zetas)
    for i, Y, zeta, resid in zip(idx, Ys, zetas, resids):
        samples.append(FlowSample(float(ts[i]), Y, zeta, float(resid)))
        dom = int(np.argmax(np.abs(Y)))
        if prev_dom is not None and dom != prev_dom:
            switches.append((float(ts[i]), f"dominant axis {prev_dom} -> {dom}"))
        prev_dom = dom
    return Trajectory(mode, h, b, samples, switches, term)


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


def _sheet_tau_nat_perturbed(M, Y, xi_nat, h, b) -> float:
    """Sheet time frequency over xi_nat at the ball point Y.

    The rescaled symbol vanishes where
    G00 tau^2 + 2 (G0 . xi - b) tau + xi . Gxx . xi = 0; of its two roots
    (taken in the cancellation-free form) the one nearest the free sheet is
    returned.  A negative discriminant raises DegenerateMetric.
    """
    tau0 = _sheet_tau(xi_nat, h, "natural", b)
    if M.is_flat or h == 0.0:
        return tau0
    G = eval_metric(M, Y, h).G
    A = G[0, 0]
    B = float(G[0, 1:] @ xi_nat) - b.sign
    C = float(xi_nat @ G[1:, 1:] @ xi_nat)
    disc = B * B - A * C
    if disc < 0.0:
        raise DegenerateMetric(f"no real sheet frequency: discriminant {disc:.3e}")
    q = -(B + math.copysign(math.sqrt(disc), B))
    return min((C / q, q / A), key=lambda tau: abs(tau - tau0))


def qdf_probe(center: RadialPoint, radius: float, nsamples: int,
              M: MetricParams, b: SignBranch, upsilon: float = 1.0e3,
              seed: int = 0) -> QdfReport:
    """Probe the attraction structure of the flow at a radial-set point.

    Samples the characteristic set near the center in the (s, w, rho_bf)
    chart, evaluates the flow derivative of
    varrho = s^2 + |w|^2 + upsilon rho_bf^2, and fits the decomposition
    into a linear-rate part (coefficient iota), a nonnegative remainder F
    of size O(varrho), and a cubically vanishing error E.
    """
    if radius == 0.0 or nsamples == 0:
        return QdfReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    cc0 = to_radial_chart(center)  # raises ChartUnavailable when xi_nat = 0
    j0 = cc0.chart.k - 1
    sigma = cc0.chart.sign
    varsigma = center.side.sign
    d = center.d
    rng = np.random.default_rng(seed)
    coef = -b.sign * varsigma  # the sign making H varrho = +coef^-1(iota varrho + ...)

    def h_rho_at(offsets):
        s, w, rho = offsets[0], offsets[1 : d], offsets[d]
        # frequencies: keep xi_nat, move tau_nat back onto the sheet
        if rho > 0.0 and not M.is_flat:
            # the base point depends (weakly) on tau_nat through s; iterate once
            tau = center.tau_nat
            for _ in range(3):
                cc = _chart_coords(center, s, w, rho, tau)
                Y = ball_from_base(_chart_base(cc, b))
                tau = _sheet_tau_nat_perturbed(M, Y, center.xi_nat, center.h, b)
            cc = _chart_coords(center, s, w, rho, tau)
        else:
            tau = _sheet_tau_nat_perturbed(
                M, np.zeros(d + 1), center.xi_nat, center.h, b
            )
            cc = _chart_coords(center, s, w, rho, tau)
        tv = ham_field(cc, M, b)
        sdot = tv.components[0]
        wdot = tv.components[1 : d]
        rhodot = tv.components[d]
        varrho = s**2 + float(w @ w) + upsilon * rho**2
        hrho = 2.0 * s * sdot + 2.0 * float(w @ wdot) + 2.0 * upsilon * rho * rhodot
        return varrho, hrho

    def _chart_coords(rp, s, w, rho, tau_nat):
        coords = np.concatenate(([s], w, [rho], [tau_nat], rp.xi_nat, [rp.h]))
        bdf = BdfValues(rho_df=1.0, rho_bf=rho, rho_nf=rp.h, rho_pf=1.0)
        return ChartCoords(ChartId(ChartTag.RADIAL_NAT, k=j0 + 1, sign=sigma), coords, bdf)

    def _chart_base(cc, b):
        s, w, rho, tau_nat, xi_nat, h, jj, sg = _radial_chart_to_state(cc)
        others = [j for j in range(d) if j != jj]
        xhat = np.empty(d)
        xhat[jj] = 1.0
        xhat[others] = w + xi_nat[others] / xi_nat[jj]
        that = s - h * (tau_nat + b.sign) / xi_nat[jj]
        if rho > 0.0:
            return np.concatenate(([that], xhat)) * (sg / rho)
        return np.zeros(d + 1)

    def draw(scale, m):
        pts = rng.normal(size=(m, d + 1))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts *= scale * rng.uniform(0.2, 1.0, size=(m, 1))
        pts[:, d] = np.abs(pts[:, d]) / max(1.0, math.sqrt(upsilon))  # keep rho_bf >= 0, O(1/sqrt(upsilon))
        return pts

    inner = draw(radius * 1.0e-3, max(8, nsamples // 8))
    main = draw(radius, nsamples)

    rates = []
    for off in inner:
        varrho, hrho = h_rho_at(off)
        if varrho > 0.0:
            rates.append(coef * hrho / varrho)
    iota_est = float(np.mean(rates))

    vr, rr = [], []
    for off in main:
        varrho, hrho = h_rho_at(off)
        if varrho > 0.0:
            vr.append(varrho)
            rr.append(coef * hrho - iota_est * varrho)
    vr = np.asarray(vr)
    rr = np.asarray(rr)
    # residual model R = c1 varrho + c2 varrho^{3/2}.  A negative linear part
    # is absorbable into the rate (the decomposition's freedom): report
    # iota = inner rate + min(c1, 0) and the nonnegative surplus as F.
    A = np.stack([vr, vr**1.5], axis=1)
    coefs, *_ = np.linalg.lstsq(A, rr, rcond=None)
    c1, c2 = float(coefs[0]), float(coefs[1])
    fit_resid = float(np.sqrt(np.mean((rr - A @ coefs) ** 2)))
    cubic = float(np.max(np.abs(rr - c1 * vr) / vr**1.5))
    return QdfReport(
        varrho=float(np.max(vr)),
        iota_est=iota_est + min(c1, 0.0),
        F_est=max(c1, 0.0),
        E_est=c2,
        decomposition_residual=fit_resid,
        cubic_bound=cubic,
    )


# ---------------------------------------------------------------------------
# threshold weight rate, degeneracy, linearization
# ---------------------------------------------------------------------------


def _global_bdf_state(zeta_nat, h, Y) -> BdfValues:
    zn = np.asarray(zeta_nat, float)
    rho_df = 1.0 / math.sqrt(1.0 + float(zn @ zn))
    rho_bf = math.sqrt(max(0.0, 1.0 - float(np.asarray(Y) @ np.asarray(Y))))
    chi = chi_cutoff(zn)
    quart = h**4 + zn[0] ** 2 + float(np.sum(zn[1:] ** 4))
    a = quart**-0.25 if quart > 0 else math.inf
    rho_nf = h * (1.0 + chi * a) if h > 0 else 0.0
    rho_pf = (1.0 / (1.0 + chi * a)) if not math.isinf(a) else (0.0 if chi > 0 else 1.0)
    return BdfValues(rho_df, rho_bf, rho_nf, rho_pf)


def weight_flow_rate(rp: RadialPoint, orders, M: MetricParams, b: SignBranch,
                     probe_offset: float = 0.0) -> float:
    """Logarithmic rate of the order weight a = rho_df^m rho_bf^s rho_nf^l rho_pf^q
    along the rescaled flow, evaluated at (or near) a radial-set point.

    At the exact radial point the spacetime-weight rate is analytic
    (-Y . V) and the frequency-factor rates vanish with the drift; with
    ``probe_offset`` > 0 the rate is a 4th-order finite difference of
    log a along the integrated flow from a point displaced inward.
    """
    m, s_const, ell, q = orders
    zeta = rp.zeta_nat
    h = rp.h
    omega = rp.direction
    if probe_offset == 0.0:
        V, drift = _natural_field(M, omega, zeta, h, b)
        rate_bf = -float(omega @ V)
        if M.is_flat or h == 0.0:
            return s_const * rate_bf
        # frequency-only factors: d/dl log rho(zeta(l)); vanishes at bf since
        # the drift does, but keep the general expression
        eps = FD_STEP
        def logw(znv):
            bdf = _global_bdf_state(znv, h, omega)
            val = m * math.log(bdf.rho_df)
            if ell:
                val += ell * math.log(max(bdf.rho_nf, 1e-300))
            if q:
                val += q * math.log(max(bdf.rho_pf, 1e-300))
            return val
        base = logw(zeta)
        shift = logw(zeta + eps * drift)
        return s_const * rate_bf + (shift - base) / eps
    # displaced probe: 4th-order FD of log a along the flow
    Y0 = (1.0 - probe_offset) * omega
    y0 = np.concatenate((Y0, zeta))
    n = Y0.size
    rhs = _state_rhs("natural", M, b, h, +1.0)

    def log_weight(y):
        Y, zn = y[:n], y[n:]
        bdf = _global_bdf_state(zn, h, Y)
        out = m * math.log(bdf.rho_df) + s_const * math.log(max(bdf.rho_bf, 1e-300))
        if ell:
            out += ell * math.log(max(bdf.rho_nf, 1e-300))
        if q:
            out += q * math.log(max(bdf.rho_pf, 1e-300))
        return out

    eps = 1.0e-4

    def rk4(y, dt):
        k1 = rhs(0.0, y)
        k2 = rhs(0.0, y + 0.5 * dt * k1)
        k3 = rhs(0.0, y + 0.5 * dt * k2)
        k4 = rhs(0.0, y + dt * k3)
        return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

    vals = {}
    for steps in (-2, -1, 1, 2):
        y = y0.copy()
        for _ in range(abs(steps)):
            y = rk4(y, eps * (1 if steps > 0 else -1))
        vals[steps] = log_weight(y)
    return (vals[-2] - 8.0 * vals[-1] + 8.0 * vals[1] - vals[2]) / (12.0 * eps)


def natural_degeneracy(p: PhasePoint, b: SignBranch | None = None) -> float:
    """Norm of the unresolved natural-scale rescaled field 2h tau_nat d_t - 2 xi_nat d_x.

    Vanishes identically at h = 0, xi_nat = 0 (over interior spacetime
    points); this is the degeneracy the parabolic blow-up removes.
    """
    return 2.0 * math.sqrt((p.h * p.tau_nat) ** 2 + float(p.xi_nat @ p.xi_nat))


def radial_linearization(rp: RadialPoint, M: MetricParams, b: SignBranch,
                         mode: str | None = None, zeta=None) -> np.ndarray:
    """Eigenvalues of the base-direction linearization of the flow at a
    radial-set point (FD Jacobian of the ball field in Y)."""
    if mode is None:
        mode = "parabolic" if (rp.h == 0.0 and not rp.xi_nat.any()) else "natural"
    if zeta is None:
        if mode == "natural":
            zeta = rp.zeta_nat
        else:
            zeta = np.zeros(rp.d + 1)
            zeta[0] = _sheet_tau(np.zeros(rp.d), 0.0, "parabolic", b)
    zeta = np.asarray(zeta, float)
    omega = radial_direction(zeta, rp.h, mode, b, rp.side)
    n = omega.size

    def f(Y):
        if mode == "natural":
            V = _v_natural(M, Y, zeta, rp.h, b)
        else:
            V = _v_parabolic(zeta[0], zeta[1:], b)
        return V - Y * float(Y @ V)

    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = FD_STEP
        J[:, j] = (f(omega + e) - f(omega - e)) / (2.0 * FD_STEP)
    return np.linalg.eigvals(J)
