"""Coordinate charts and boundary-defining functions for the resolved phase space.

The phase space compactifies spacetime (t, x), the rescaled frequencies
(tau_nat, xi_nat) = (h^2 tau, h xi), and the inverse light speed h = 1/c.
Its boundary has four faces:

* ``df`` -- frequency infinity,
* ``bf`` -- spacetime infinity,
* ``nf`` -- the natural face at h = 0 away from the rescaled zero section,
* ``pf`` -- the parabolic face created by blowing up the zero section at
  h = 0 parabolically (one time order worth two space orders).

Everything here is an explicit formula: chart maps, their inverses, and one
fixed global choice of boundary-defining function (bdf) per face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import ChartUnavailable, FitFailure, InvalidInput, OnBoundary, OutOfChart

__all__ = [
    "PhasePoint",
    "BdfValues",
    "ChartTag",
    "ChartId",
    "ChartCoords",
    "smooth_step",
    "bdf_values",
    "frequency_bdfs",
    "split_coords",
    "chart_frame",
    "to_chart",
    "from_chart",
    "parabolic_chart",
    "ParabolicRay",
    "b_order_fit",
]

# validity margins fixed once for reproducibility
DF_CHART_MARGIN = 0.1     # DfProjective needs |tau_nat| >= margin * |zeta_nat|
PF_PARABOLIC_MIN_TAU = 1.0  # PfNatParabolic needs |tau| >= 1
# PfStandard covers the parabolic-face vicinity (bounded standard
# frequencies); beyond this bound its unrescaled symbol loses 6+ digits to
# cancellation and the other charts take over
PF_STANDARD_MAX_FREQ = 300.0


def _as_vector(x, *scalars, h=0.0) -> np.ndarray:
    """x as one point's flat vector; InvalidInput for a batch or where _batch's checks fail."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or any(np.ndim(s) for s in (h, *scalars)):
        raise InvalidInput("expected one point (a flat coordinate vector), not a batch")
    _batch(h, scalars, (v,))
    return v


def _batch(h, scalars, vectors):
    """Float fields (h, *scalars, *vectors) broadcast to one batch shape (plus a vector's
    last axis), one point's scalars as float64; InvalidInput unless finite with h >= 0."""
    s = [np.asarray(a, dtype=float) for a in (h, *scalars)]
    v = [np.array(a, dtype=float, ndmin=1, copy=None) for a in vectors]
    try:
        batch = np.broadcast(*s, *(np.empty(a.shape[:-1]) for a in v)).shape
    except ValueError:
        raise InvalidInput("the fields of a batch of points must broadcast") from None
    if not np.isfinite(np.concatenate([a.ravel() for a in s + v])).all() or (s[0] < 0).any():
        raise InvalidInput("phase-space points need finite coordinates and h >= 0")
    s = [np.broadcast_to(a, batch) if a.shape != batch else a for a in s]
    return ([a[()] for a in s] + [np.broadcast_to(a, batch + a.shape[-1:])
                                  if a.shape[:-1] != batch else a for a in v])


def _cat(a, v) -> np.ndarray:
    """(a, v) along the last axis, for a (numpy) of the leading shape of v."""
    return np.concatenate((a[..., None], v), axis=-1)


@dataclass(frozen=True)
class PhasePoint:
    """Interior points: spacetime position, natural frequencies, and h = 1/c.

    t, tau_nat and h carry the leading batch axes, x and xi_nat those plus (d,),
    all broadcasting; one point is the batch shape ().  Fields are finite, h >= 0."""

    t: float
    x: np.ndarray
    tau_nat: float
    xi_nat: np.ndarray
    h: float

    def __post_init__(self):
        fields = _batch(self.h, (self.t, self.tau_nat), (self.x, self.xi_nat))
        if fields[3].shape[-1] != fields[4].shape[-1]:
            raise InvalidInput("x and xi_nat must have the same dimension")
        for name, value in zip(("h", "t", "tau_nat", "x", "xi_nat"), fields):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.xi_nat.shape[-1]

    @property
    def z(self) -> np.ndarray:
        """Spacetime coordinates (t, x), shape (..., 1+d)."""
        return _cat(self.t, self.x)

    @property
    def zeta_nat(self) -> np.ndarray:
        return _cat(self.tau_nat, self.xi_nat)

    @property
    def tau(self):
        """Standard time frequency tau = tau_nat / h^2 (h > 0 only)."""
        if (self.h <= 0).any():
            raise OnBoundary("standard frequencies undefined at h = 0")
        return self.tau_nat / self.h**2

    @property
    def xi(self) -> np.ndarray:
        """Standard space frequencies xi = xi_nat / h (h > 0 only)."""
        if (self.h <= 0).any():
            raise OnBoundary("standard frequencies undefined at h = 0")
        return self.xi_nat / self.h[..., None]


@dataclass(frozen=True)
class BdfValues:
    """Values of the four boundary-defining functions at a point (or batch)."""

    rho_df: float
    rho_bf: float
    rho_nf: float
    rho_pf: float


class ChartTag(Enum):
    NAT_INTERIOR = "nat_interior"
    DF_PROJECTIVE = "df_projective"
    PF_STANDARD = "pf_standard"
    PF_NAT_PARABOLIC = "pf_nat_parabolic"
    PAR_FREQ_TAU = "par_freq_tau"
    PAR_FREQ_XI = "par_freq_xi"
    # chart adapted to the radial sets; coordinates (s, w, rho_bf) over the
    # natural frequencies.  Used by the flow module.
    RADIAL_NAT = "radial_nat"


@dataclass(frozen=True)
class ChartId:
    """Chart identifier: a tag plus, where needed, an axis index and a sign.

    ``k`` selects the dominant frequency axis for PAR_FREQ_XI (1-based, as in
    xi_1 .. xi_d) and the dominant spatial axis for RADIAL_NAT.  ``sign`` is
    the sign of the dominant quantity (tau, xi_k, or x_k) at one point; a
    batch's per-point signs are ChartCoords.sign, so a ChartId compares and
    hashes as one chart.
    """

    tag: ChartTag
    k: int | None = None
    sign: int = +1

    def __post_init__(self):
        if self.tag in (ChartTag.PAR_FREQ_XI, ChartTag.RADIAL_NAT) and self.k is None:
            raise InvalidInput(f"{self.tag} requires an axis index k")
        if np.ndim(self.sign) or self.sign not in (-1, 1):
            raise InvalidInput("sign must be -1 or +1 (a batch's signs are ChartCoords.sign)")


@dataclass(frozen=True)
class ChartCoords:
    """Chart-local coordinates (..., n) together with the local bdf values, and
    the sign of the chart's dominant quantity over the batch axes (chart.sign
    at every point when not given)."""

    chart: ChartId
    coords: np.ndarray
    bdf: BdfValues
    sign: np.ndarray | int | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        if self.sign is None:
            object.__setattr__(self, "sign", self.chart.sign)


def smooth_step(x):
    """Smooth monotone 0 -> 1 transition on [0, 1] (exp(-1/x) type), no exp off (0, 1)."""
    x = np.asarray(x, dtype=float)
    out = np.clip(x, 0.0, 1.0, out=np.empty(x.shape))
    out += 0.0                                  # -0.0 -> 0.0; NaN stays NaN
    ramp = (x > 0.0) & (x < 1.0)
    a = x[ramp]                                 # a copy, so in place from here
    b = 1.0 - a
    with np.errstate(over="ignore"):    # exp(-1/x) = 0 at subnormal x
        for v in (a, b):
            np.exp(np.divide(-1.0, v, out=v), out=v)
    b += a
    out[ramp] = np.divide(a, b, out=a)
    return out[()]


def _cutoff(r):
    """The smooth cutoff chi of frequency_bdfs at r = |zeta_nat|: 1 on r <= 1,
    0 on r >= 2."""
    return 1.0 - smooth_step(r - 1.0)


def frequency_bdfs(tau_nat, xi_nat, h):
    """Global (rho_df, rho_nf, rho_pf) at natural frequencies tau_nat and
    xi_nat = (xi_nat_1, ..., xi_nat_d), components broadcasting against
    tau_nat, h >= 0 and each other (they are never stacked).

    rho_df = (1+tau_nat^2+|xi_nat|^2)^(-1/2) and rho_nf = h + chi(zeta_nat)
    (1+tau^2+sum_j xi_j^4)^(-1/4), a weight equivalent to (1+tau^2+|xi|^4)^(-1/4)
    and equal to it in d = 1, written in the h-stable form
    h (1 + chi (h^4+tau_nat^2+sum_j xi_nat_j^4)^(-1/4)); rho_pf = h / rho_nf.
    The quartic sum is that of the roots r = (h, |tau_nat|^(1/2), |xi_nat_j|),
    each divided by their largest, k, first; |zeta_nat| and rho_df are hypots:
    nothing under- or overflows.  At h = 0, zeta_nat = 0 rho_nf = rho_pf = 0.
    """
    zn = reduce(np.hypot, xi_nat, np.abs(tau_nat))       # |zeta_nat|
    rho_df = 1.0 / np.hypot(1.0, zn)
    roots = [h, np.sqrt(np.abs(tau_nat))] + [np.abs(x) for x in xi_nat]
    k = reduce(np.maximum, roots)
    k = np.where(k > 0.0, k, 1.0)                   # h = 0, zeta_nat = 0: the sum is 0
    quartic = sum(np.square(np.square(r / k)) for r in roots)
    with np.errstate(divide="ignore"):   # inf at h = 0, zeta_nat = 0, where chi = 1
        nf_over_h = 1.0 + _cutoff(zn) * quartic ** -0.25 / k
    rho_nf = h * np.where(h > 0.0, nf_over_h, 0.0)
    return rho_df, rho_nf, 1.0 / nf_over_h


def bdf_values(p: PhasePoint) -> BdfValues:
    """Global smooth boundary-defining functions at interior points:
    rho_bf = (1+t^2+|x|^2)^(-1/2) and the frequency_bdfs."""
    rho_df, rho_nf, rho_pf = frequency_bdfs(p.tau_nat, np.moveaxis(p.xi_nat, -1, 0), p.h)
    return BdfValues(rho_df, 1.0 / np.hypot.reduce(p.z, axis=-1, initial=1.0), rho_nf, rho_pf)


# ---------------------------------------------------------------------------
# chart-local bdf conventions
#
# Each chart fixes its own local bdf representatives (smooth positive
# multiples of the global ones on the chart's validity region):
#
#   NAT_INTERIOR     rho_df = 1 (chart covers bounded zeta_nat), rho_nf = h,
#                    rho_pf = 1
#   DF_PROJECTIVE    rho_df = 1/|tau_nat|,             rho_nf = h, rho_pf = 1
#   PF_STANDARD      rho_df = 1, rho_nf = 1,           rho_pf = h
#   PF_NAT_PARABOLIC rho_df = 1, rho_nf = |tau|^(-1/2), rho_pf = h |tau|^(1/2)
#
# with rho_bf = (1+t^2+|x|^2)^(-1/2) throughout.
# ---------------------------------------------------------------------------


def split_coords(co):
    """The slots (z, a, v, e) of chart coordinates co of shape (..., 2d+3),
    as views of co: 1+d base coordinates z, one frequency a, d frequencies v
    and a last coordinate e.  NAT_INTERIOR fills them with (t, x), tau_nat,
    xi_nat and h; RADIAL_NAT with (s, w, rho_bf), tau_nat, xi_nat and h."""
    co = np.asarray(co, dtype=float)
    d = (co.shape[-1] - 3) // 2
    return co[..., : 1 + d], co[..., 1 + d], co[..., 2 + d : 2 + 2 * d], co[..., -1]


def chart_frame(p):
    """(z, h, zeta_hat, lin, zeta_nat) of PhasePoints (read in NAT_INTERIOR)
    or of ChartCoords in one of the four phase-space charts.

    In every chart the chart-rescaled symbol rho_df^2 rho_nf^2 p is
    -G(zeta_hat, zeta_hat) +/- 2 lin, with G the natural-units inverse metric
    at (z, h); zeta_nat = (tau_nat, xi_nat) is the point's frequency, whose
    tau_nat, +/- inf on the df face, tells the sheets apart.
    """
    if isinstance(p, PhasePoint):
        return p.z, p.h, p.zeta_nat, p.tau_nat, p.zeta_nat
    tag, sign = p.chart.tag, p.sign
    z, a, v, e = split_coords(p.coords)
    if tag is ChartTag.NAT_INTERIOR:            # (a, v, e) = (tau_nat, xi_nat, h)
        zeta = _cat(a, v)
        return z, e, zeta, a, zeta
    if tag is ChartTag.DF_PROJECTIVE:           # (a, v, e) = (rho_df, xi_hat, h)
        zeta_hat = _cat(np.broadcast_to(sign, a.shape), v)
        with np.errstate(divide="ignore", invalid="ignore"):   # rho_df = 0 on the df face
            return z, e, zeta_hat, sign * a, zeta_hat / a[..., None]
    if tag is ChartTag.PF_STANDARD:             # (a, v, e) = (tau, xi, h)
        zeta_hat = _cat(e * a, v)
        return z, e, zeta_hat, a, e[..., None] * zeta_hat
    if tag is ChartTag.PF_NAT_PARABOLIC:        # (a, v, e) = (rho_nf, xi_hat, rho_pf)
        zeta_hat = _cat(sign * e, v)
        return z, a * e, zeta_hat, sign, e[..., None] * zeta_hat
    raise ChartUnavailable(f"no chart frame in chart {tag}")


def _require(ok, what: str):
    """OutOfChart unless ok holds at every point, saying at how many it fails."""
    if not ok.all():
        raise OutOfChart(f"{what}: fails at {ok.size - np.count_nonzero(ok)} of {ok.size} points")


def to_chart(p: PhasePoint, c: ChartId) -> ChartCoords:
    """Express interior points in chart-local coordinates; where the chart has
    a sign, ChartCoords.sign holds it per point.

    Raises OutOfChart when any point is outside the chart's validity region.
    """
    # each chart's slots (a, v, e) as in chart_frame, its sign and its local
    # bdfs (rho_df, rho_nf, rho_pf)
    if c.tag is ChartTag.NAT_INTERIOR:
        a, v, e, sign, local = p.tau_nat, p.xi_nat, p.h, 1, (1.0, p.h, 1.0)
    elif c.tag is ChartTag.DF_PROJECTIVE:
        mag = np.abs(p.tau_nat)       # 1/mag is finite above 1/(largest float)
        _require((mag >= DF_CHART_MARGIN * np.hypot.reduce(p.zeta_nat, axis=-1))
                 & (mag > 1.0 / np.finfo(float).max), "DfProjective requires |tau_nat| >= "
                 "0.1 |zeta_nat| and a finite 1/|tau_nat|")
        a, v, e, sign = 1.0 / mag, p.xi_nat / mag[..., None], p.h, p.tau_nat
        local = (a, e, 1.0)
    elif c.tag in (ChartTag.PF_STANDARD, ChartTag.PF_NAT_PARABOLIC, ChartTag.PAR_FREQ_TAU,
                   ChartTag.PAR_FREQ_XI):
        _require(p.h > 0, f"{c.tag} needs h > 0 to recover the standard frequencies")
        a, v, e, sign = p.tau, p.xi, p.h, 1
        if c.tag is ChartTag.PF_STANDARD:
            _require((np.abs(a) <= PF_STANDARD_MAX_FREQ)
                     & (np.max(np.abs(v), axis=-1, initial=0.0) <= PF_STANDARD_MAX_FREQ),
                     "PfStandard covers bounded standard frequencies only")
            local = (1.0, 1.0, e)
        elif c.tag is ChartTag.PF_NAT_PARABOLIC:
            _require(np.abs(a) >= PF_PARABOLIC_MIN_TAU, "PfNatParabolic requires |tau| >= 1")
            sign, a = a, np.abs(a) ** -0.5
            v, e = v * a[..., None], e / a
            local = (1.0, a, e)
        else:
            return parabolic_chart(a, v, prefer=c)
    else:
        raise ChartUnavailable(f"to_chart does not handle {c.tag}")
    z = p.z
    bdf = BdfValues(local[0], 1.0 / np.hypot.reduce(z, axis=-1, initial=1.0), *local[1:])
    sign = np.where(np.asarray(sign) >= 0, 1, -1)[()]     # of tau_nat or tau, where it counts
    coords = np.concatenate((z, np.asarray(a)[..., None], v, np.asarray(e)[..., None]), axis=-1)
    return ChartCoords(ChartId(c.tag, sign=sign if np.ndim(sign) == 0 else 1), coords, bdf, sign)


def from_chart(cc: ChartCoords) -> PhasePoint:
    """Invert a chart map back to interior PhasePoints.

    Raises OnBoundary if a bdf coordinate vanishes at any point (it sits on a
    boundary face and has no interior preimage).
    """
    z, h, _, _, zeta = chart_frame(cc)
    _, a, _, e = split_coords(cc.coords)
    bdfs = {ChartTag.DF_PROJECTIVE: (a,), ChartTag.PF_STANDARD: (e,),
            ChartTag.PF_NAT_PARABOLIC: (a, e)}.get(cc.chart.tag, ())
    on = (np.asarray(bdfs) <= 0.0).any(axis=0)
    if on.any():
        raise OnBoundary(f"a bdf coordinate of {cc.chart.tag} vanishes at "
                         f"{np.count_nonzero(on)} of {on.size} points: boundary points")
    # z and h may be views of cc.coords: copy them, so the points do not change with it
    z = z.copy()
    return PhasePoint(z[..., 0], z[..., 1:], zeta[..., 0], zeta[..., 1:], np.array(h))


def parabolic_chart(tau: float, xi, prefer: ChartId | None = None) -> ChartCoords:
    """Chart coordinates on the parabolic compactification of frequency space.

    The compactification adds a boundary sphere reached along parabolic rays
    (tau0 s^2, v s).  Chart selection: the tau-adapted chart when |tau|^(1/2)
    dominates every |xi_k|, otherwise the chart of the largest |xi_k|; pass
    ``prefer`` to force a particular chart.
    """
    xi = _as_vector(xi, tau)
    d = xi.size
    if prefer is None:
        root = math.sqrt(abs(tau))
        k_best = int(np.argmax(np.abs(xi))) + 1 if d else 0
        if root >= (abs(xi[k_best - 1]) if d else 0.0) and tau != 0.0:
            prefer = ChartId(ChartTag.PAR_FREQ_TAU, sign=1 if tau > 0 else -1)
        elif d and xi[k_best - 1] != 0.0:
            prefer = ChartId(
                ChartTag.PAR_FREQ_XI, k=k_best, sign=1 if xi[k_best - 1] > 0 else -1
            )
        else:
            raise OutOfChart("(tau, xi) = 0 lies in no boundary-adapted chart")

    if prefer.tag is ChartTag.PAR_FREQ_TAU:
        sign = 1 if tau > 0 else -1
        if tau == 0.0:
            raise OutOfChart("ParFreqTau requires tau != 0")
        rho = (sign * tau) ** -0.5
        coords = np.concatenate(([rho], xi * rho))
        bdf = BdfValues(rho_df=rho, rho_bf=1.0, rho_nf=1.0, rho_pf=1.0)
        return ChartCoords(ChartId(ChartTag.PAR_FREQ_TAU, sign=sign), coords, bdf)

    if prefer.tag is ChartTag.PAR_FREQ_XI:
        k = prefer.k
        if not (1 <= k <= d) or xi[k - 1] == 0.0:
            raise OutOfChart(f"ParFreqXi({k}) requires xi_{k} != 0")
        sign = 1 if xi[k - 1] > 0 else -1
        rho = sign / xi[k - 1]
        tau_hat = tau / xi[k - 1] ** 2
        others = np.array([xi[j] / xi[k - 1] for j in range(d) if j != k - 1])
        coords = np.concatenate(([rho, tau_hat], others))
        bdf = BdfValues(rho_df=rho, rho_bf=1.0, rho_nf=1.0, rho_pf=1.0)
        return ChartCoords(ChartId(ChartTag.PAR_FREQ_XI, k=k, sign=sign), coords, bdf)

    raise ChartUnavailable(f"parabolic_chart does not handle {prefer.tag}")


@dataclass(frozen=True)
class ParabolicRay:
    """Parabolic ray (tau, xi)(s) = (tau0 s^2, v s) approaching the boundary."""

    tau0: float
    v: np.ndarray
    s_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _as_vector(self.v, self.tau0))
        object.__setattr__(self, "s_values", _as_vector(self.s_values))

    def points(self) -> Iterable[tuple[float, np.ndarray]]:
        for s in self.s_values:
            yield self.tau0 * s**2, self.v * s


def _coordinate_field_b_coeffs(direction, cc: ChartCoords) -> np.ndarray:
    """Pushforward of d/dtau or d/dxi_k into a frequency chart, in the b-basis.

    The b-basis pairs the bdf coordinate with rho * d/drho and leaves the
    remaining (interior) coordinates untouched, so the returned coefficient
    vector measures the field as a b-vector field.
    """
    tag = cc.chart.tag
    sign = cc.chart.sign
    co = cc.coords
    if tag is ChartTag.PAR_FREQ_TAU:
        rho, xi_hat = co[0], co[1:]
        if direction == "tau":
            # d/dtau = -(sign) rho^3/2 d/drho - (sign) rho^2/2 xi_hat . d/dxi_hat
            return np.concatenate(([-sign * rho**2 / 2.0], -sign * rho**2 * xi_hat / 2.0))
        k = direction[1]
        e = np.zeros(xi_hat.size)
        e[k - 1] = rho
        return np.concatenate(([0.0], e))
    if tag is ChartTag.PAR_FREQ_XI:
        rho, tau_hat, others = co[0], co[1], co[2:]
        kc = cc.chart.k
        if direction == "tau":
            out = np.zeros(co.size)
            out[1] = rho**2
            return out
        k = direction[1]
        if k == kc:
            return np.concatenate(([-sign * rho], [-2.0 * sign * tau_hat * rho], -sign * others * rho))
        out = np.zeros(co.size)
        pos = 2 + sum(1 for j in range(1, k) if j != kc)
        out[pos] = rho
        return out
    raise ChartUnavailable(f"b-coefficients not defined for {tag}")


def b_order_fit(direction, chart: ChartId, ray: ParabolicRay) -> float:
    """Fitted decay exponent of a constant coordinate field at the boundary.

    ``direction`` is "tau" or ("xi", k).  The field d/dtau (resp. d/dxi_k)
    is pushed through the chart map at each ray point; a log-log fit of the
    b-basis coefficient magnitude against the local bdf gives the returned
    exponent (expected: 2 for d/dtau, 1 for d/dxi_k).
    """
    rhos, mags = [], []
    for tau, xi in ray.points():
        try:
            cc = parabolic_chart(tau, xi, prefer=chart)
        except OutOfChart:
            continue
        coeffs = _coordinate_field_b_coeffs(direction, cc)
        rho = cc.coords[0]
        mag = float(np.linalg.norm(coeffs))
        if rho > 0 and mag > 0:
            rhos.append(rho)
            mags.append(mag)
    if len(rhos) < 3:
        raise FitFailure("need at least 3 ray samples inside the chart")
    lr = np.log(np.asarray(rhos))
    if lr.max() - lr.min() < 1.0:
        raise FitFailure("insufficient dynamic range along the ray")
    slope = np.polyfit(lr, np.log(np.asarray(mags)), 1)[0]
    return float(slope)
