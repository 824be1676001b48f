"""Asymptotically-Minkowski metric family and Klein-Gordon principal symbols.

The metric family, parameterized by the light speed c, is

    g(c) = -c^2 dt^2 + dx^2 + alpha dt^2 + sum_j (w_j/c) dt dx_j
           + c^-2 sum_jk h_jk dx_j dx_k,

with coefficients that are order ``-1`` classical symbols in spacetime.  The
conjugated operators carry frequency-quadratic principal symbols

    p = -g^{-1}(zeta, zeta) +/- 2 tau,       zeta = (tau, xi),

whose natural-scale rescaling h^2 p = -G(zeta_nat, zeta_nat) +/- 2 tau_nat
(with G the natural-units inverse metric) extends smoothly to h = 0, where
it reduces to the free hyperboloid form (tau_nat +/- 1)^2 - |xi_nat|^2 - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ChartUnavailable, DegenerateMetric
from .geometry import ChartCoords, ChartTag, PhasePoint

__all__ = [
    "ClassicalSymbolProfile",
    "OperatorCoefficient",
    "MetricParams",
    "SignBranch",
    "Side",
    "CharClass",
    "RadialPoint",
    "MetricValues",
    "eval_metric",
    "metric_matrix",
    "inverse_metric",
    "c_min_preflight",
    "aleph",
    "natural_quadform",
    "natural_symbol_value",
    "eval_p",
    "rescaled_symbol",
    "char_membership",
    "radial_point",
]


class SignBranch(Enum):
    """The +/- in the conjugated operators; PLUS conjugates by exp(-ic^2 t)."""

    PLUS = +1
    MINUS = -1

    @property
    def sign(self) -> int:
        return self.value


class Side(Enum):
    """Past/future hemisphere of spacetime infinity."""

    PAST = -1
    FUTURE = +1

    @property
    def sign(self) -> int:
        return self.value


class CharClass(Enum):
    SIGMA = "sigma"
    SIGMA_BAD = "sigma_bad"
    OFF = "off"


@dataclass(frozen=True)
class ClassicalSymbolProfile:
    """Classical symbol f(z) = A (1+|z|^2)^(r/2) g(z/<z>) on spacetime.

    g is a finite trigonometric polynomial in the compactified direction
    y = z/<z>, so f is smooth up to spacetime infinity and the decay order
    is exactly r.  ``waves`` holds (kappa, cos_coeff, sin_coeff) triples.
    """

    amplitude: float = 0.0
    order: int = -1
    constant: float = 1.0
    waves: tuple = ()

    def __post_init__(self):
        if self.order > -1:
            raise ValueError("classical profiles here must decay: order <= -1")

    @classmethod
    def zero(cls) -> "ClassicalSymbolProfile":
        return cls(amplitude=0.0)

    @property
    def is_zero(self) -> bool:
        return self.amplitude == 0.0

    def coefficient_norm(self) -> float:
        """Bound on |g| from the declared coefficients."""
        return abs(self.constant) + sum(
            abs(c) + abs(s) for _, c, s in self.waves
        )

    def _angular(self, y: np.ndarray, grad: bool = False):
        """g(y) and, with ``grad``, its tangential gradient (I - y y^T) grad g."""
        g = np.full(y.shape[:-1], self.constant, dtype=float)
        gy = np.zeros_like(y) if grad else None
        for kappa, c, s in self.waves:
            kappa = np.asarray(kappa, dtype=float)
            phase = y @ kappa
            cos, sin = np.cos(phase), np.sin(phase)
            g = g + c * cos + s * sin
            if grad:
                gy = gy + (-c * sin + s * cos)[..., None] * kappa
        if not grad:
            return g, None
        return g, gy - (gy * y).sum(axis=-1)[..., None] * y

    def __call__(self, z) -> np.ndarray | float:
        """Evaluate at spacetime points z of shape (..., 1+d)."""
        if self.amplitude == 0.0:
            z = np.asarray(z, dtype=float)
            return np.zeros(z.shape[:-1]) if z.ndim > 1 else 0.0
        z = np.asarray(z, dtype=float)
        n2 = np.sum(z * z, axis=-1)
        bracket = np.sqrt(1.0 + n2)
        y = z / bracket[..., None]
        val = self.amplitude * bracket**self.order * self._angular(y)[0]
        return val if val.ndim else float(val)

    def grad(self, z) -> np.ndarray:
        """Analytic spacetime gradient, shape (..., 1+d)."""
        z = np.asarray(z, dtype=float)
        if self.amplitude == 0.0:
            return np.zeros_like(z)
        n2 = np.sum(z * z, axis=-1)
        bracket = np.sqrt(1.0 + n2)
        y = z / bracket[..., None]
        # d y_j / d z_i = (delta_ij - y_i y_j) / <z>
        g, proj = self._angular(y, grad=True)
        radial = self.order * bracket ** (self.order - 2.0)
        return self.amplitude * (
            radial[..., None] * z * g[..., None]
            + (bracket ** (self.order - 1.0))[..., None] * proj
        )

    # -- compactified-base (ball) forms: Y = z/<z>, rho_bf = sqrt(1-|Y|^2) --

    def ball_forms(self, Y, grad: bool = False):
        """(value, compensated gradient) at compactified base points Y.

        The value A rho_bf^{|r|} g(Y) and the compensated gradient
        rho_bf^{-1} d f / d z_i = A rho_bf^{|r|} [ r Y_i g(Y) + (tangential
        grad g)_i ] are smooth up to the boundary sphere |Y| = 1, where both
        vanish like rho_bf^{|r|}.  The gradient is None unless asked for.
        """
        Y = np.asarray(Y, dtype=float)
        w = self.amplitude * np.maximum(1.0 - (Y * Y).sum(axis=-1), 0.0) ** (
            -self.order / 2.0)
        g, proj = self._angular(Y, grad)
        if not grad:
            return w * g, None
        return w * g, w[..., None] * (self.order * Y * g[..., None] + proj)

    def eval_ball(self, Y) -> float:
        """Value at the compactified base point Y (smooth up to |Y| = 1)."""
        if self.amplitude == 0.0:
            return np.zeros(np.shape(Y)[:-1]) if np.ndim(Y) > 1 else 0.0
        val = self.ball_forms(Y)[0]
        return val if np.ndim(val) else float(val)

    def comp_grad_ball(self, Y) -> np.ndarray:
        """Compensated gradient rho_bf^{-1} d f / d z_i expressed on the ball."""
        if self.amplitude == 0.0:
            return np.zeros_like(np.asarray(Y, dtype=float))
        return self.ball_forms(Y, grad=True)[1]


@dataclass(frozen=True)
class OperatorCoefficient:
    """Complex lower-order coefficient: real part order -1, imaginary order -2.

    With ``imag_c_decay`` the imaginary part carries an extra 1/c factor and
    vanishes in the c -> infinity limit (required for the drift coefficients).
    """

    real: ClassicalSymbolProfile = field(default_factory=ClassicalSymbolProfile.zero)
    imag: ClassicalSymbolProfile = field(default_factory=ClassicalSymbolProfile.zero)
    imag_c_decay: bool = False

    def __post_init__(self):
        if not self.imag.is_zero and self.imag.order > -2:
            raise ValueError("imaginary parts must decay at least like <z>^-2")

    @classmethod
    def zero(cls) -> "OperatorCoefficient":
        return cls()

    @property
    def is_zero(self) -> bool:
        return self.real.is_zero and self.imag.is_zero

    def __call__(self, z, c: float = math.inf):
        re = self.real(z)
        im = self.imag(z)
        if self.imag_c_decay:
            scale = 0.0 if math.isinf(c) else 1.0 / c
            return re + 1j * scale * im
        return re + 1j * im


def _zero_profiles(n):
    return tuple(ClassicalSymbolProfile.zero() for _ in range(n))


@dataclass(frozen=True)
class MetricParams:
    """Finitely parameterized metric family plus lower-order operator terms."""

    d: int
    alpha: ClassicalSymbolProfile = field(default_factory=ClassicalSymbolProfile.zero)
    w: tuple = ()
    hjk: tuple = ()
    beta: OperatorCoefficient = field(default_factory=OperatorCoefficient.zero)
    B: tuple = ()
    W: OperatorCoefficient = field(default_factory=OperatorCoefficient.zero)

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2, or 3")
        if not self.w:
            object.__setattr__(self, "w", _zero_profiles(self.d))
        if not self.hjk:
            object.__setattr__(
                self, "hjk", tuple(_zero_profiles(self.d) for _ in range(self.d))
            )
        if not self.B:
            object.__setattr__(
                self, "B", tuple(OperatorCoefficient.zero() for _ in range(self.d))
            )
        if len(self.w) != self.d or len(self.B) != self.d or len(self.hjk) != self.d:
            raise ValueError("coefficient tuples must have length d")
        for j in range(self.d):
            for k in range(j):
                if self.hjk[j][k] != self.hjk[k][j]:
                    raise ValueError("hjk must be symmetric")
        for Bj in self.B:
            if not Bj.imag.is_zero and not Bj.imag_c_decay:
                raise ValueError("Im B must vanish in the c -> infinity limit")

    @classmethod
    def free(cls, d: int = 1) -> "MetricParams":
        return cls(d=d)

    @property
    def is_flat(self) -> bool:
        """True when the second-order (metric) part is exactly Minkowski."""
        return (
            self.alpha.is_zero
            and all(p.is_zero for p in self.w)
            and all(p.is_zero for row in self.hjk for p in row)
        )

    def perturbation_amplitude(self) -> float:
        amps = [abs(self.alpha.amplitude) * self.alpha.coefficient_norm()]
        amps += [abs(p.amplitude) * p.coefficient_norm() for p in self.w]
        amps += [abs(p.amplitude) * p.coefficient_norm() for row in self.hjk for p in row]
        return max(amps)


class MetricValues(NamedTuple):
    """The metric family evaluated at a batch of points.

    ``g`` and ``ginv`` are in light-speed units (at h = 0 they hold their
    c -> infinity limits diag(-inf, I) and diag(0, I)); ``G = S g^-1 S``
    with S = diag(c, 1, ..., 1) is the natural-units inverse metric;
    ``dG[..., l, :, :]`` is its compensated derivative rho_bf^-1 dG/dz_l
    (``None`` unless asked for).
    """

    g: np.ndarray
    ginv: np.ndarray
    G: np.ndarray
    dG: np.ndarray | None


def eval_metric(M: MetricParams, Y, h: float, grad: bool = False) -> MetricValues:
    """Evaluate the metric family at compactified base points Y = z/<z>.

    Y has shape (..., 1+d) and may reach the boundary sphere |Y| = 1; the
    light speed is c = 1/h.  In natural units the metric is
    S^-1 g S^-1 = eta + h^2 P with P = [[alpha, w], [w, hjk]], so
    G = (eta + h^2 P)^-1 and D G = -h^2 G (D P) G, with the profiles taken
    in their ball forms.  Spacetime callers pass Y = z/<z> and divide dG by
    <z> to get dG/dz.  Raises DegenerateMetric when |det g| falls below
    1e-12 of the Minkowski reference value c^2 at any point.
    """
    Y = np.asarray(Y, dtype=float)
    d = M.d
    shape = Y.shape[:-1] + (d + 1,) * 2
    dshape = Y.shape[:-1] + (d + 1,) * 3           # (..., l, a, b)
    gm = np.zeros(shape)                            # S^-1 g S^-1
    gm += np.eye(d + 1)
    gm[..., 0, 0] = -1.0
    s = np.ones(d + 1)
    s[0] = h
    scale = s[:, None] * s                          # S^-1 (.) S^-1, entrywise
    if h == 0.0 or M.is_flat:
        G = gm.copy()
        dG = np.zeros(dshape) if grad else None
    else:
        profiles = [(0, 0, M.alpha)]
        profiles += [(0, j + 1, M.w[j]) for j in range(d)]
        profiles += [(j + 1, k + 1, M.hjk[j][k]) for j in range(d) for k in range(j, d)]
        h2 = h * h
        DP = np.zeros(dshape) if grad else None
        for a, b, prof in profiles:
            if prof.is_zero:
                continue
            val, dval = prof.ball_forms(Y, grad)
            gm[..., a, b] += h2 * val
            if a != b:
                gm[..., b, a] += h2 * val
            if grad:
                DP[..., :, a, b] = DP[..., :, b, a] = dval
        det = np.linalg.det(gm)
        if (np.abs(det) < 1.0e-12).any():
            raise DegenerateMetric(
                f"|det g| / c^2 = {np.min(np.abs(det)):.3e} below floor at h={h}")
        G = np.linalg.inv(gm)
        dG = -h2 * (G[..., None, :, :] @ DP @ G[..., None, :, :]) if grad else None
    if h > 0.0:
        with np.errstate(divide="ignore", over="ignore"):   # h^2 may underflow
            g = gm / scale
    else:
        g = gm.copy()
        g[..., 0, 0] = -math.inf
    return MetricValues(g, G * scale, G, dG)


def ball_from_base(z) -> np.ndarray:
    """Compactified base points Y = z/<z> of spacetime points z, (..., 1+d)."""
    z = np.asarray(z, dtype=float)
    return z / np.sqrt(1.0 + (z * z).sum(axis=-1))[..., None]


def metric_matrix(M: MetricParams, z, c: float) -> np.ndarray:
    """The (1+d) x (1+d) metric matrix at spacetime point z for light speed c."""
    return eval_metric(M, ball_from_base(z), 1.0 / c).g


def inverse_metric(M: MetricParams, z, c: float) -> np.ndarray:
    """Inverse metric matrix at spacetime point z for light speed c.

    Raises DegenerateMetric when |det g| falls below 1e-12 of the Minkowski
    reference value c^2.
    """
    return eval_metric(M, ball_from_base(z), 1.0 / c).ginv


def c_min_preflight(M: MetricParams, sample_radius: float = 50.0, n: int = 200,
                    seed: int = 0) -> float:
    """Smallest dyadic c at which the metric is nondegenerate on a sample.

    Reports the first c in 2, 4, 8, ... for which the metric passes the
    determinant floor on a fixed random spacetime sample.  Non-trapping is
    not certified.
    """
    rng = np.random.default_rng(seed)
    Y = ball_from_base(rng.uniform(-sample_radius, sample_radius, size=(n, M.d + 1)))
    c = 2.0
    while c <= 2.0**20:
        try:
            eval_metric(M, Y, 1.0 / c)
            return c
        except DegenerateMetric:
            c *= 2.0
    raise DegenerateMetric("metric degenerate on sample for all tested c")


def aleph(M: MetricParams, z):
    """Asymptotic-mass coefficient lim c^4 (g^00 + c^-2) at spacetime points
    of shape (..., 1+d): the c^-4 dt^2 coefficient of the metric correction
    to the d'Alembertian.

    The Schur complement gives g^00 = -c^-2 (1 + alpha c^-2 + O(c^-4)), so
    the limit is exactly -alpha(z).
    """
    return -M.alpha(z)


aleph_field = aleph


def natural_quadform(M: MetricParams, z, h: float) -> np.ndarray:
    """Inverse metric in natural frequency units: G = S g^-1 S, S = diag(c, 1..).

    G contracts with zeta_nat = (tau_nat, xi_nat); at h = 0 it equals
    diag(-1, I) exactly for every admissible metric (all corrections carry
    positive powers of 1/c), which realizes p = p0 on the h = 0 faces.
    """
    return eval_metric(M, ball_from_base(z), h).G


def natural_symbol_value(M: MetricParams, z, zeta_nat, h: float, b: SignBranch) -> float:
    """Natural-scale symbol h^2 p = -G(zeta_nat, zeta_nat) +/- 2 tau_nat."""
    zeta_nat = np.atleast_1d(np.asarray(zeta_nat, dtype=float))
    G = natural_quadform(M, z, h)
    return float(-(zeta_nat @ G @ zeta_nat) + 2.0 * b.sign * zeta_nat[0])


def eval_p(p, M: MetricParams, b: SignBranch) -> float:
    """Principal symbol of the conjugated operator.

    For an interior PhasePoint (h > 0): the unrescaled
    p = -g^{-1}(zeta, zeta) +/- 2 tau.  For ChartCoords (or h = 0 points):
    the chart-rescaled symbol; see rescaled_symbol.
    """
    if isinstance(p, ChartCoords):
        return rescaled_symbol(p, M, b)
    if p.h > 0.0:
        return natural_symbol_value(M, p.z, p.zeta_nat, p.h, b) / p.h**2
    # h = 0: only the rescaled symbol extends; use the natural-face chart form
    return natural_symbol_value(M, p.z, p.zeta_nat, 0.0, b)


def rescaled_symbol(cc, M: MetricParams, b: SignBranch) -> float:
    """Chart-rescaled symbol rho_df^2 rho_nf^2 p in the chart's local bdfs.

    Accepts a PhasePoint (treated in the natural-face chart, where the
    rescaled symbol is -G(zeta_nat, zeta_nat) +/- 2 tau_nat) or ChartCoords
    in any of the four phase-space charts.
    """
    if isinstance(cc, PhasePoint):
        return natural_symbol_value(M, cc.z, cc.zeta_nat, cc.h, b)
    tag = cc.chart.tag
    co = cc.coords
    d = (co.size - 3) // 2
    z = co[: 1 + d]
    if tag is ChartTag.NAT_INTERIOR:
        tau_nat, xi_nat, h = co[1 + d], co[2 + d : 2 + 2 * d], co[-1]
        return natural_symbol_value(M, z, np.concatenate(([tau_nat], xi_nat)), h, b)
    if tag is ChartTag.DF_PROJECTIVE:
        rho_df, xi_hat, h = co[1 + d], co[2 + d : 2 + 2 * d], co[-1]
        sign = cc.chart.sign
        zeta_hat = np.concatenate(([float(sign)], xi_hat))
        G = natural_quadform(M, z, h)
        return float(-(zeta_hat @ G @ zeta_hat) + 2.0 * b.sign * sign * rho_df)
    if tag is ChartTag.PF_STANDARD:
        tau, xi, h = co[1 + d], co[2 + d : 2 + 2 * d], co[-1]
        if h > 0.0:
            ginv = inverse_metric(M, z, 1.0 / h)
            zeta = np.concatenate(([tau], xi))
            return float(-(zeta @ ginv @ zeta) + 2.0 * b.sign * tau)
        return float(-(xi @ xi) + 2.0 * b.sign * tau)
    if tag is ChartTag.PF_NAT_PARABOLIC:
        rho_nf, xi_hat, rho_pf = co[1 + d], co[2 + d : 2 + 2 * d], co[-1]
        sign = cc.chart.sign
        h = rho_nf * rho_pf
        vec = np.concatenate(([sign * rho_pf], xi_hat))
        G = natural_quadform(M, z, h)
        return float(-(vec @ G @ vec) + 2.0 * b.sign * sign)
    raise ChartUnavailable(f"rescaled symbol not defined in chart {tag}")


def _membership_side(tau_nat_signed: float) -> CharClass:
    """Sheet classification from the signed natural time frequency +/- tau_nat."""
    if tau_nat_signed > -1.0:
        return CharClass.SIGMA
    if tau_nat_signed < -1.0:
        return CharClass.SIGMA_BAD
    return CharClass.OFF


def char_membership(p, M: MetricParams, b: SignBranch, tol: float = 1.0e-9) -> CharClass:
    """Classify a point against the two sheets of the characteristic set.

    SIGMA: |rescaled symbol| <= tol and the point lies in the closure of
    {+/- tau_nat > -1}; SIGMA_BAD likewise with {+/- tau_nat < -1}; else OFF.
    """
    if isinstance(p, PhasePoint):
        zn = p.zeta_nat
        value = natural_symbol_value(M, p.z, zn, p.h, b) / (1.0 + float(zn @ zn))
        if abs(value) > tol:
            return CharClass.OFF
        return _membership_side(b.sign * p.tau_nat)
    value = rescaled_symbol(p, M, b)
    if abs(value) > tol:
        return CharClass.OFF
    tag = p.chart.tag
    co = p.coords
    d = (co.size - 3) // 2
    if tag is ChartTag.NAT_INTERIOR:
        return _membership_side(b.sign * co[1 + d])
    if tag is ChartTag.DF_PROJECTIVE:
        # tau_nat = sign / rho_df -> +/- infinity toward the df face
        rho_df = co[1 + d]
        if rho_df > 0.0:
            return _membership_side(b.sign * p.chart.sign / rho_df)
        return CharClass.SIGMA if b.sign * p.chart.sign > 0 else CharClass.SIGMA_BAD
    if tag is ChartTag.PF_STANDARD:
        tau, h = co[1 + d], co[-1]
        return _membership_side(b.sign * h**2 * tau)
    if tag is ChartTag.PF_NAT_PARABOLIC:
        rho_pf = co[-1]
        return _membership_side(b.sign * p.chart.sign * rho_pf**2)
    raise ChartUnavailable(f"char_membership not defined in chart {tag}")


@dataclass(frozen=True)
class RadialPoint:
    """A point of the radial set: frequencies on the characteristic sheet plus
    the base direction (a unit vector in compactified spacetime)."""

    tau_nat: float
    xi_nat: np.ndarray
    h: float
    side: Side
    branch: SignBranch
    direction: np.ndarray  # unit (1+d)-vector omega

    def __post_init__(self):
        object.__setattr__(self, "xi_nat", np.atleast_1d(np.asarray(self.xi_nat, float)))
        object.__setattr__(self, "direction", np.asarray(self.direction, float))

    @property
    def d(self) -> int:
        return self.xi_nat.size

    @property
    def zeta_nat(self) -> np.ndarray:
        return np.concatenate(([self.tau_nat], self.xi_nat))


def radial_point(xi_nat, h: float, side: Side, b: SignBranch) -> RadialPoint:
    """The radial-set point over a given spatial natural frequency.

    tau_nat = +/- (sqrt(1+|xi_nat|^2) - 1) puts the frequencies on the good
    sheet; the base direction is side * (h sqrt(1+|xi_nat|^2), -(+/-) xi_nat),
    normalized.  At h = 0, xi_nat = 0 the direction degenerates to the
    future/past pole (the blown-up parabolic-face limit).
    """
    xi_nat = np.atleast_1d(np.asarray(xi_nat, dtype=float))
    root = math.sqrt(1.0 + float(xi_nat @ xi_nat))
    tau_nat = b.sign * (root - 1.0)
    vec = np.concatenate(([h * root], -b.sign * xi_nat))
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        direction = np.zeros(xi_nat.size + 1)
        direction[0] = side.sign
    else:
        direction = side.sign * vec / norm
    return RadialPoint(tau_nat, xi_nat, h, side, b, direction)
