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

from .errors import DegenerateMetric, InvalidInput
from .geometry import PhasePoint, _batch, _cat, chart_frame

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
    "aleph",
    "natural_symbol_value",
    "rescaled_symbol",
    "char_membership",
    "radial_point",
]


class _Signed(Enum):
    @property
    def sign(self) -> int:
        return self.value


class SignBranch(_Signed):
    """The +/- in the conjugated operators; PLUS conjugates by exp(-ic^2 t)."""

    PLUS = +1
    MINUS = -1


class Side(_Signed):
    """Past/future hemisphere of spacetime infinity."""

    PAST = -1
    FUTURE = +1


def _sign(s):
    """+/-1 of a Side or SignBranch, or per-point signs: InvalidInput unless all are +/-1."""
    if isinstance(s, _Signed):
        return s.value
    a = np.asarray(s)
    if not ((a == 1) | (a == -1)).all():   # False for NaN, strings and objects
        raise InvalidInput(f"a side or branch is a Side, a SignBranch or signs +/-1, not {s!r}")
    return a


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
            raise InvalidInput("classical profiles here must decay: order <= -1")

    @classmethod
    def zero(cls) -> "ClassicalSymbolProfile":
        return cls(amplitude=0.0)

    @property
    def is_zero(self) -> bool:
        return self.amplitude == 0.0

    def _angular(self, y: np.ndarray) -> np.ndarray:
        """g(y), the trigonometric polynomial in the compactified direction."""
        g = np.full(y.shape[:-1], self.constant, dtype=float)
        for kappa, c, s in self.waves:
            phase = (y * np.asarray(kappa, dtype=float)).sum(axis=-1)   # per point, not a gemv
            g = g + c * np.cos(phase) + s * np.sin(phase)
        return g

    def __call__(self, z) -> np.ndarray | float:
        """Evaluate at spacetime points z of shape (..., 1+d)."""
        if self.amplitude == 0.0:
            z = np.asarray(z, dtype=float)
            return np.zeros(z.shape[:-1]) if z.ndim > 1 else 0.0
        z = np.asarray(z, dtype=float)
        n2 = np.sum(z * z, axis=-1)
        bracket = np.sqrt(1.0 + n2)
        y = z / bracket[..., None]
        val = self.amplitude * bracket**self.order * self._angular(y)
        return val if val.ndim else float(val)


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
            raise InvalidInput("imaginary parts must decay at least like <z>^-2")

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
            raise InvalidInput("d must be 1, 2, or 3")
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
        if any(len(t) != self.d for t in (self.w, self.B, self.hjk, *self.hjk)):
            raise InvalidInput("coefficient tuples and hjk rows must have length d")
        profiles = [self.alpha, *self.w, *(p for row in self.hjk for p in row),
                    *(p for c in (self.beta, *self.B, self.W) for p in (c.real, c.imag))]
        waves = [wave for p in profiles for wave in p.waves]
        if any(np.shape(k) != (self.d + 1,) for k, _, _ in waves) or not np.isfinite(
                [x for p in profiles for x in (p.amplitude, p.constant)]
                + [x for k, c, s in waves for x in (*k, c, s)]).all():
            raise InvalidInput(f"profiles must be finite, each kappa of length 1+d = {self.d + 1}")
        for j in range(self.d):
            for k in range(j):
                if self.hjk[j][k] != self.hjk[k][j]:
                    raise InvalidInput("hjk must be symmetric")
        for Bj in self.B:
            if not Bj.imag.is_zero and not Bj.imag_c_decay:
                raise InvalidInput("Im B must vanish in the c -> infinity limit")
        # eval_metric's table of P's nonzero entries: their slots (a, b), (amplitude, order,
        # constant), and waves (kappa, cos, sin) by wave slot, padded with zeros
        entries = [(0, 0, self.alpha), *((0, j + 1, p) for j, p in enumerate(self.w)),
                   *((j + 1, k + 1, row[k]) for j, row in enumerate(self.hjk)
                     for k in range(j, self.d))]
        entries = [(a, b, p) for a, b, p in entries if not p.is_zero]
        waves = np.zeros((max([len(p.waves) for *_, p in entries], default=0), len(entries),
                          self.d + 3))
        for k, (*_, p) in enumerate(entries):
            for slot, (kappa, c, s) in enumerate(p.waves):
                waves[slot, k] = *kappa, c, s
        object.__setattr__(self, "_table", (
            np.reshape([(a, b) for a, b, _ in entries], (-1, 2)).T.astype(int),
            np.reshape([(p.amplitude, p.order, p.constant) for *_, p in entries], (-1, 3)).T,
            waves))

    @classmethod
    def free(cls, d: int = 1) -> "MetricParams":
        return cls(d=d)

    @property
    def is_flat(self) -> bool:
        """True when the second-order (metric) part is exactly Minkowski."""
        return self._table[1].size == 0


class MetricValues(NamedTuple):
    """The metric family in natural units, evaluated at a batch of points.

    ``g = S^-1 g(c) S^-1 = eta + h^2 P`` with S = diag(c, 1, ..., 1) is the
    natural-units metric (eta at h = 0), ``G`` its inverse, and
    ``DP[..., l, :, :]`` the compensated derivative rho_bf^-1 dP/dz_l of the
    perturbation block, which does not depend on h (``None`` unless asked
    for); D G = -h^2 G (DP) G.  Light-speed fields follow as
    g(c)^-1 = S^-1 G S^-1.
    """

    g: np.ndarray
    G: np.ndarray
    DP: np.ndarray | None


_ADJ2 = np.array([[1.0, -1.0], [-1.0, 1.0]])    # adj(g) = g[::-1, ::-1] * _ADJ2 when n = 2


def eval_metric(M: MetricParams, Y, h, grad: bool = False, rho2=None) -> MetricValues:
    """Evaluate the metric family at compactified base points Y = z/<z>.

    Y has shape (..., 1+d) and may reach the boundary sphere |Y| = 1; the
    light speed is c = 1/h, with h a scalar or an array broadcast against
    Y.shape[:-1] (h is a phase-space coordinate, so each point may carry its
    own, h = 0 included).  In natural units the metric is g = eta + h^2 P
    with P = [[alpha, w], [w, hjk]] and G = g^-1 (in closed form when
    1 + d = 2).  Each entry of P is a profile's ball form A rho_bf^|r| g(Y),
    all of them taken in one pass over the wave slots of the metric's table;
    DP is their compensated gradient A rho_bf^|r| (r Y g(Y) + tangential
    grad g), which vanishes on the sphere like the profiles.  Spacetime
    callers pass Y = z/<z> and divide DP by <z> to get dP/dz.
    Within ~1e-8 of the sphere Y cannot resolve 1 - |Y|^2 = rho_bf^2; a
    caller that knows it passes it as ``rho2`` (shape Y.shape[:-1]); else it is formed once.
    Raises DegenerateMetric when |det g| falls below 1e-12 of the Minkowski
    reference value at any point, InvalidInput unless Y's last axis is 1 + d.
    """
    Y = np.asarray(Y, dtype=float)
    h = np.asarray(h, dtype=float)
    n = M.d + 1
    if Y.shape[-1:] != (n,):
        raise InvalidInput(f"a metric of d = {M.d} takes points of {n} coordinates, not {Y.shape}")
    (a, b), (amp, order, const), waves = M._table
    P = np.zeros(Y.shape[:-1] + (n, n))
    DP = np.zeros(Y.shape[:-1] + (n, n, n)) if grad else None    # (..., l, a, b)
    if not M.is_flat:
        rho2 = 1.0 - (Y * Y).sum(axis=-1) if rho2 is None else rho2
        Yk, kappa, c, s = Y[..., None, :], waves[..., :n], waves[..., n], waves[..., n + 1]
        phase = (Yk[..., None, :, :] * kappa).sum(axis=-1)    # (..., slot, k), per point
        cos, sin = np.cos(phase), np.sin(phase)
        ang, gy = const, np.zeros(Y.shape[:-1] + kappa.shape[1:])
        for w in range(len(waves)):     # slot by slot: each profile sums its waves in order
            ang = ang + c[w] * cos[..., w, :] + s[w] * sin[..., w, :]
            if grad:
                gy = gy + (-c[w] * sin[..., w, :] + s[w] * cos[..., w, :])[..., None] * kappa[w]
        wgt = amp * np.maximum(rho2, 0.0)[..., None] ** (-order / 2.0)
        P[..., a, b] = P[..., b, a] = wgt * ang
        if grad:
            proj = gy - (gy * Yk).sum(axis=-1)[..., None] * Yk
            DP[..., :, a, b] = DP[..., :, b, a] = np.swapaxes(
                wgt[..., None] * (order[:, None] * Yk * ang[..., None] + proj), -1, -2)
    h2 = (h * h)[..., None, None]
    eta = np.eye(n)
    eta[0, 0] = -1.0
    g = eta + h2 * P
    if M.is_flat:
        return MetricValues(g, g, DP)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2 if n == 2 else np.linalg.det(g)
    if (np.abs(det) < 1.0e-12).any():
        raise DegenerateMetric(
            f"|det g| / c^2 = {np.min(np.abs(det)):.3e} below floor at h <= {np.max(h)}")
    G = g[..., ::-1, ::-1] * _ADJ2 / det[..., None, None] if n == 2 else np.linalg.inv(g)
    return MetricValues(g, G, DP)


def ball_from_base(z) -> np.ndarray:
    """Compactified base points Y = z/<z> of spacetime points z, (..., 1+d)."""
    z = np.asarray(z, dtype=float)
    return z / np.sqrt(1.0 + (z * z).sum(axis=-1))[..., None]


def aleph(M: MetricParams, z):
    """Asymptotic-mass coefficient lim c^4 (g^00 + c^-2) at spacetime points
    of shape (..., 1+d): the c^-4 dt^2 coefficient of the metric correction
    to the d'Alembertian.

    The Schur complement gives g^00 = -c^-2 (1 + alpha c^-2 + O(c^-4)), so
    the limit is exactly -alpha(z).
    """
    return -M.alpha(z)


def natural_symbol_value(M: MetricParams, z, zeta_nat, h: float, b: SignBranch) -> float:
    """Natural-scale symbol h^2 p = -G(zeta_nat, zeta_nat) +/- 2 tau_nat."""
    z, zeta_nat = np.atleast_1d(z), np.atleast_1d(zeta_nat)
    return rescaled_symbol(PhasePoint(z[0], z[1:], zeta_nat[0], zeta_nat[1:], h), M, b)


def _symbol_value(M: MetricParams, Y, zeta, h, bsign, lin=None, parabolic=False):
    """The natural symbol h^2 p = -G(zeta, zeta) + 2 b lin at ball points Y and frequencies
    zeta (..., 1+d), lin = tau_nat unless a chart frame supplies its own: one metric
    evaluation for a batch.  Where ``parabolic``, zeta holds the parabolic face's standard
    frequencies, whose value 2 b tau - |xi|^2 takes G = diag(0, 1, ..., 1)."""
    face = np.diag(np.append(0.0, np.ones(M.d)))
    G = np.where(np.asarray(parabolic)[..., None, None], face, eval_metric(M, Y, h).G)
    lin = zeta[..., 0] if lin is None else lin
    return -(zeta[..., None, :] @ G @ zeta[..., None])[..., 0, 0] + 2.0 * bsign * lin


def rescaled_symbol(cc, M: MetricParams, b: SignBranch):
    """Chart-rescaled symbol rho_df^2 rho_nf^2 p in the chart's local bdfs,
    -G(zeta_hat, zeta_hat) +/- 2 lin in the chart frame (geometry.chart_frame).

    Accepts PhasePoints (treated in the natural-face chart, where the
    rescaled symbol is -G(zeta_nat, zeta_nat) +/- 2 tau_nat) or ChartCoords
    in any of the four phase-space charts, on a branch or per-point signs.
    """
    z, h, zeta_hat, lin, _ = chart_frame(cc)
    return _symbol_value(M, ball_from_base(z), zeta_hat, h, _sign(b), lin)


def char_membership(p, M: MetricParams, b: SignBranch, tol: float = 1.0e-9):
    """Classify points against the two sheets of the characteristic set (a
    batch as an object array of CharClass), on a branch or per-point signs.

    SIGMA: |rescaled symbol| <= tol and the point lies in the closure of
    {+/- tau_nat > -1}; SIGMA_BAD likewise with {+/- tau_nat < -1}; else OFF.
    A PhasePoint's symbol is taken relative to 1 + |zeta_nat|^2.
    """
    value = rescaled_symbol(p, M, b)
    if isinstance(p, PhasePoint):
        value = value / (1.0 + np.sum(p.zeta_nat * p.zeta_nat, axis=-1))
    side = _sign(b) * chart_frame(p)[-1][..., 0]   # tau_nat
    # on the zero set, the sign of 1 +/- tau_nat: 0 OFF, +1 SIGMA, -1 SIGMA_BAD
    code = np.where(np.abs(value) <= tol, np.sign(1.0 + side), 0.0).astype(int)
    return np.array([CharClass.OFF, CharClass.SIGMA, CharClass.SIGMA_BAD])[code]


def _sheet_tau(xi_nat, b: SignBranch):
    """Free characteristic-sheet natural time frequency over xi_nat, (..., d) -> (...)."""
    return _sign(b) * (np.sqrt(1.0 + np.sum(xi_nat * xi_nat, axis=-1)) - 1.0)


def _sheet_tau_nat(M, Y, xi_nat, h, b, rho2=None):
    """Sheet time frequencies over xi_nat at the ball points Y, one per row.

    Y has shape (..., 1+d), xi_nat (..., d), and h, rho2 = 1 - |Y|^2 (see
    eval_metric) and b's signs are scalars or arrays over the leading axes.
    The symbol vanishes where G00 tau^2 + 2 (G0 . xi - b) tau + xi . Gxx . xi = 0;
    of its two roots (taken in the cancellation-free form) each row gets the
    one nearest the free sheet, which a flat metric or h = 0 gives directly.
    A negative discriminant in any row raises DegenerateMetric.
    """
    xi_nat = np.asarray(xi_nat, dtype=float)
    tau0 = _sheet_tau(xi_nat, b)
    if M.is_flat or not np.any(h):
        return tau0
    G = eval_metric(M, Y, h, rho2=rho2).G
    A = G[..., 0, 0]
    B = np.sum(G[..., 0, 1:] * xi_nat, axis=-1) - _sign(b)
    C = np.einsum("...j,...jk,...k->...", xi_nat, G[..., 1:, 1:], xi_nat)
    disc = B * B - A * C
    if np.any(disc < 0.0):
        raise DegenerateMetric(f"no real sheet frequency: discriminant {np.min(disc):.3e}")
    q = -(B + np.copysign(np.sqrt(disc), B))
    roots = C / q, q / A
    return np.where(np.abs(roots[0] - tau0) <= np.abs(roots[1] - tau0), *roots)


def _natural_field(M, Y, zeta_nat, h, bsign, rho2=None):
    """(V, frequency drift), the rescaled Hamilton field of the natural symbol p at Y
    and zeta_nat (..., 1+d); h, bsign and rho2 = 1 - |Y|^2 (see eval_metric) are
    scalars or arrays over the leading axes.  V = (1/2)(h dp/dtau_nat, dp/dxi_nat),
    (h(tau_nat +/- 1), -xi_nat) for the free metric, where the drift is zero;
    tau_nat' = -(h/2) D_t p and xi_nat' = -(1/2) D_x p, D = <z> d/dz.  With U = G zeta_nat,
    -(1/2) D_l p = -(h^2/2) U^T (D_l P) U takes the kernel's DP, smooth up to the
    boundary sphere where it vanishes, and never forms D G."""
    mv = eval_metric(M, Y, h, grad=True, rho2=rho2)
    U = (mv.G @ zeta_nat[..., None])[..., 0]
    drift = np.einsum("...lab,...a,...b->...l", mv.DP, U, U) * (-0.5 * np.square(h))[..., None]
    drift[..., 0] *= h                               # = -(1/2) D_l p, h-scaled in time
    V = -U
    V[..., 0] = h * (bsign + V[..., 0])
    return V, drift


def _free_velocity(zeta, h, bsign, parabolic=False) -> np.ndarray:
    """Field velocity V of the frozen-frequency flows, shape (..., 1+d).

    (h (tau_nat + b), -xi_nat) in natural mode (G = eta), and
    nu (b, -xi) on the parabolic face, with nu = (1+tau^2+sum_j xi_j^4)^(-1/4)
    the local natural-face bdf there.  b V/|V| is the future fixed direction.
    """
    zeta = np.asarray(zeta, dtype=float)
    V = -zeta
    V[..., 0] = np.where(parabolic, bsign, h * (zeta[..., 0] + bsign))
    nu = (1.0 + zeta[..., 0] ** 2 + np.sum(zeta[..., 1:] ** 4, axis=-1)) ** -0.25
    return V * np.where(parabolic, nu, 1.0)[..., None]


def _future_direction(zeta, h, bsign, parabolic=False) -> np.ndarray:
    """Fixed direction b V/|V| of the boundary flow on the future side, for
    the free velocity V at the actual frequencies, or the pole where V = 0;
    the past one is its negative.  On the sheet it is the radial direction,
    and slightly off-sheet states still end where they converge."""
    V = np.asarray(bsign)[..., None] * _free_velocity(zeta, h, bsign, parabolic)
    norm = np.linalg.norm(V, axis=-1, keepdims=True)
    pole = np.zeros_like(V)
    pole[..., 0] = 1.0
    return np.where(norm > 0.0, V / np.where(norm > 0.0, norm, 1.0), pole)


@dataclass(frozen=True)
class RadialPoint:
    """Radial-set points, batched as PhasePoint: frequencies on the good sheet
    plus the base direction (a unit vector in compactified spacetime).  A
    batch's ``side`` and ``branch`` may be per-point signs: +1 future and -1
    past, +1 PLUS and -1 MINUS.  radial_point builds them, from checked inputs."""

    tau_nat: float
    xi_nat: np.ndarray
    h: float
    side: Side
    branch: SignBranch
    direction: np.ndarray  # unit (1+d)-vector omega

    d = PhasePoint.d
    zeta_nat = PhasePoint.zeta_nat


def radial_point(xi_nat, h, side, b: SignBranch) -> RadialPoint:
    """The radial-set points over spatial natural frequencies xi_nat (..., d).

    tau_nat = +/- (sqrt(1+|xi_nat|^2) - 1) puts the frequencies on the good
    sheet; the base direction is side * (h sqrt(1+|xi_nat|^2), -(+/-) xi_nat),
    normalized (_future_direction).  At h = 0, xi_nat = 0 the direction
    degenerates to the future/past pole (the blown-up parabolic-face limit).
    Either of side and b may be per-point signs +/-1 that broadcast to the
    batch's shape (else InvalidInput).
    """
    h, xi_nat = _batch(h, (), (xi_nat,))
    sides, signs = _sign(side), _sign(b)
    for s in (sides, signs):   # per-point signs (an array) must broadcast to the batch
        try:
            fits = not isinstance(s, np.ndarray) or np.broadcast(s, h).shape == np.shape(h)
        except ValueError:
            fits = False
        if not fits:
            raise InvalidInput(f"signs of shape {s.shape} do not fit a batch of shape {np.shape(h)}")
    zeta = _cat(_sheet_tau(xi_nat, b), xi_nat)
    direction = np.asarray(sides)[..., None] * _future_direction(zeta, h, signs)
    return RadialPoint(zeta[..., 0], xi_nat, h, side, b, direction)
