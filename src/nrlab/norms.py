"""Weighted anisotropic Sobolev norms, energy splitting, and the
uniform-invertibility proxy experiment.

Fields live on a periodic spacetime grid (axis 0 is time).  Norms follow a
fixed composition order: the spacetime weight <z>^{s(z)} multiplies first,
the Fourier multiplier acts second.

The two-sheet norm splits a field with the positive/negative energy
partition Q_+ = chi(tau_nat / <xi_nat>), demodulates each piece by
e^{-/+ i c^2 t}, and measures the envelopes with the natural-frequency
multiplier (1 + h^2|xi|^2 + h^4 tau^2)^{m/2} together with the natural-face
weight rho_nf(h, zeta)^{-l}.  On spectrum away from the blown-up zero
section rho_nf = h and the l-order is the plain h^{-l} of the natural-scale
norm; on the parabolic region it is the anisotropic weight
(1+tau^2+|xi|^4)^{l/4}, which is what keeps the uniform-inverse ratio
experiment stable in c.  The q_+/- orders are literal h^{-q} prefactors.

The ratio experiment applies the Klein-Gordon operator P through
``pde.ConjugatedOperator`` without a branch, built once per c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFamily, InvalidInput, SpectrumOverflow
from .pde import ConjugatedOperator
from .quantize import BoxGrid, GridField
from .symbols import MetricParams

__all__ = [
    "OrderProfile",
    "SplitPair",
    "smooth_step",
    "sc_norm",
    "natural_norm",
    "split_energy",
    "calctwo_norm",
    "uniform_ratio_experiment",
    "RatioTable",
    "gaussian_family",
]


def smooth_step(x):
    """Smooth monotone 0 -> 1 transition on [0, 1] (exp(-1/x) type)."""
    x = np.asarray(x, dtype=float)
    lo = np.clip(x, 0.0, 1.0)
    a = np.zeros_like(lo)
    bpos = lo > 0
    a[bpos] = np.exp(-1.0 / lo[bpos])
    b = np.zeros_like(lo)
    cpos = lo < 1
    b[cpos] = np.exp(-1.0 / (1.0 - lo[cpos]))
    return a / (a + b)


def default_chi(s):
    """Energy-splitting profile: 0 for s <= -1/2, 1 for s >= 1/2, smooth."""
    return smooth_step((np.asarray(s, float) + 0.5))


def steep_chi(s):
    """Admissible alternative profile with transition on [-1/4, 1/4]."""
    return smooth_step(2.0 * (np.asarray(s, float) + 0.25))


@dataclass(frozen=True)
class OrderProfile:
    """Sobolev order tuple (m, l; q_-, q_+) with a spacetime order profile.

    The base-variable order s_bar is a smooth monotone function of
    sigma = t/<z>, constant on [-1, -0.9] and [0.9, 1] with the declared
    endpoint values; the forward-solution convention has s_bar decreasing
    through the threshold -1/2 (above it at the past end).
    """

    m: float
    ell: float
    q_minus: float
    q_plus: float
    s_past: float     # value at sigma = -1
    s_future: float   # value at sigma = +1
    check_threshold: bool = True   # estimate-side profiles only; shifted
                                   # right-hand-side orders skip the check

    def __post_init__(self):
        if not self.check_threshold:
            return
        inc = self.s_future > self.s_past
        dec = self.s_future < self.s_past
        if dec and not (self.s_past > -0.5 > self.s_future):
            raise InvalidInput("non-increasing profile must cross the -1/2 threshold")
        if inc and not (self.s_future > -0.5 > self.s_past):
            raise InvalidInput("non-decreasing profile must cross the -1/2 threshold")

    def s_bar(self, sigma):
        t = smooth_step((np.asarray(sigma, float) + 0.9) / 1.8)
        return self.s_past + (self.s_future - self.s_past) * t

    def weight_exponent(self, grid: BoxGrid) -> np.ndarray:
        mesh = grid.mesh()
        r2 = sum(m_ * m_ for m_ in mesh)
        sigma = mesh[0] / np.sqrt(1.0 + r2)
        return self.s_bar(sigma)

    def shifted(self, dm=0.0, ds=0.0, dl=0.0) -> "OrderProfile":
        return OrderProfile(self.m + dm, self.ell + dl, self.q_minus,
                            self.q_plus, self.s_past + ds, self.s_future + ds,
                            check_threshold=False)

    def to_json(self) -> dict:
        return {"m": self.m, "ell": self.ell, "q_minus": self.q_minus,
                "q_plus": self.q_plus, "s_knots": [self.s_past, self.s_future]}

    @classmethod
    def from_json(cls, data: dict) -> "OrderProfile":
        past, future = data["s_knots"]
        return cls(m=data["m"], ell=data["ell"], q_minus=data["q_minus"],
                   q_plus=data["q_plus"], s_past=past, s_future=future)


def _weight_field(grid: BoxGrid, s_weight) -> np.ndarray:
    """<z>^{s(z)} with s given as None, scalar, array, callable, or profile."""
    mesh = grid.mesh()
    bracket = np.sqrt(1.0 + sum(m_ * m_ for m_ in mesh))
    if s_weight is None:
        return np.ones(grid.shape)
    if isinstance(s_weight, OrderProfile):
        s = s_weight.weight_exponent(grid)
    elif callable(s_weight):
        s = np.asarray(s_weight(*mesh), dtype=float)
    elif np.isscalar(s_weight):
        s = float(s_weight)
    else:
        s = np.asarray(s_weight, dtype=float)
    return bracket**s


def _apply_multiplier(u: GridField, mult: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(mult * np.fft.fftn(u.values))


def sc_norm(u: GridField, m: float, s_weight=None) -> float:
    """Scattering-type Sobolev norm || <D>^m ( <z>^{s} u ) ||_2.

    The multiplier is (1 + tau^2 + |xi|^2)^{m/2} on the spacetime DFT
    frequencies; the weight multiplies before the derivatives.
    """
    g = u.grid
    w = _weight_field(g, s_weight)
    km = g.freq_mesh()
    mult = (1.0 + sum(k * k for k in km)) ** (m / 2.0)
    vals = _apply_multiplier(GridField(g, w * u.values), mult)
    return float(np.sqrt(np.sum(np.abs(vals) ** 2) * g.dvol))


def natural_norm(u: GridField, m: float, s_weight, ell: float, h: float) -> float:
    """Natural-scale norm h^{-l} || (1 + h^2|xi|^2 + h^4 tau^2)^{m/2} (<z>^s u) ||_2."""
    g = u.grid
    w = _weight_field(g, s_weight)
    km = g.freq_mesh()
    mult = (1.0 + h**2 * sum(k * k for k in km[1:]) + h**4 * km[0] ** 2) ** (m / 2.0)
    vals = _apply_multiplier(GridField(g, w * u.values), mult)
    return float(h**-ell * np.sqrt(np.sum(np.abs(vals) ** 2) * g.dvol))


@dataclass
class SplitPair:
    """Envelopes of the energy splitting: u = e^{+ic^2 t} u_plus + e^{-ic^2 t} u_minus."""

    u_minus: GridField
    u_plus: GridField
    h: float

    def reconstruct(self) -> GridField:
        g = self.u_plus.grid
        t = g.mesh()[0]
        carrier = np.exp(1j * t / self.h**2)
        vals = carrier * self.u_plus.values + np.conj(carrier) * self.u_minus.values
        return GridField(g, vals)


def split_energy(u: GridField, h: float, chi_profile=None) -> SplitPair:
    """Split a field into positive/negative energy envelopes.

    Q_+ is the Fourier multiplier chi(tau_nat/<xi_nat>) with tau_nat = h^2 tau,
    xi_nat = h xi on the DFT frequencies; Q_- = 1 - Q_+.  The envelopes are
    u_plus = e^{-ic^2 t} Q_+ u and u_minus = e^{+ic^2 t} Q_- u.
    """
    chi = chi_profile or default_chi
    g = u.grid
    km = g.freq_mesh()
    tau_nat = h**2 * km[0]
    xi_nat2 = h**2 * sum(k * k for k in km[1:])
    mult_plus = chi(tau_nat / np.sqrt(1.0 + xi_nat2))
    spec = np.fft.fftn(u.values)
    plus_part = np.fft.ifftn(mult_plus * spec)
    minus_part = u.values - plus_part
    t = g.mesh()[0]
    carrier = np.exp(1j * t / h**2)
    return SplitPair(
        u_minus=GridField(g, carrier * minus_part),
        u_plus=GridField(g, np.conj(carrier) * plus_part),
        h=h,
    )


def _natural_face_bdf(grid: BoxGrid, h: float) -> np.ndarray:
    """Global natural-face bdf on the DFT frequencies:
    rho_nf = h + chi(zeta_nat) (1 + tau^2 + |xi|^4)^{-1/4}."""
    km = grid.freq_mesh()
    tau = km[0]
    xi2 = sum(k * k for k in km[1:])
    xi4 = sum(k**4 for k in km[1:])
    zn = np.sqrt(h**4 * tau**2 + h**2 * xi2)
    # radial cutoff: 1 for |zeta_nat| <= 1, 0 for >= 2
    chi = 1.0 - smooth_step(zn - 1.0)
    return h + chi * (1.0 + tau**2 + xi4) ** -0.25


def calctwo_norm(u: GridField, h: float, orders: OrderProfile,
                 chi_profile=None) -> float:
    """Two-sheet norm: weighted natural-multiplier norms of the two envelopes.

    Each envelope v is measured as
    || rho_df^{-m} rho_nf^{-l} F[ <z>^{s_bar(t/<z>)} v ] ||_2 with the global
    frequency-space bdfs, times the prefactor h^{-q_+/-}; the two terms add.
    """
    pair = split_energy(u, h, chi_profile)
    g = u.grid
    w = _weight_field(g, orders)
    km = g.freq_mesh()
    mult_df = (1.0 + h**2 * sum(k * k for k in km[1:]) + h**4 * km[0] ** 2) ** (
        orders.m / 2.0
    )
    mult_nf = _natural_face_bdf(g, h) ** (-orders.ell)
    mult = mult_df * mult_nf
    total = 0.0
    for q, env in ((orders.q_plus, pair.u_plus), (orders.q_minus, pair.u_minus)):
        vals = _apply_multiplier(GridField(g, w * env.values), mult)
        total += h**-q * float(np.sqrt(np.sum(np.abs(vals) ** 2) * g.dvol))
    return total


# ---------------------------------------------------------------------------
# manufactured family and the uniform-ratio experiment
# ---------------------------------------------------------------------------


def gaussian_family(grid: BoxGrid, n_base: int = 4, seed: int = 0,
                    sigma_t: float = 0.35, sigma_x: float = 1.5,
                    vmax: float = 2.0):
    """Manufactured fields: Gaussians at varied centers/velocities, plain and
    carried on both oscillation branches (3 * n_base members).

    Carriers e^{+/- i c^2 t} are attached per-c by the experiment; this
    returns (member_id, envelope_kind, base_values) with kind in
    {"plain", "plus", "minus"}.
    """
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    t = mesh[0]
    members = []
    for j in range(n_base):
        t0 = rng.uniform(-0.4, 0.4)
        x0 = [rng.uniform(-1.0, 1.0) for _ in mesh[1:]]
        v = [rng.uniform(-vmax, vmax) for _ in mesh[1:]]
        mu = rng.uniform(-1.0, 1.0)
        phase = mu * t
        r2 = ((t - t0) / sigma_t) ** 2
        for i, m_ in enumerate(mesh[1:]):
            phase = phase + v[i] * m_
            r2 = r2 + ((m_ - x0[i]) / sigma_x) ** 2
        base = np.exp(-r2) * np.exp(1j * phase)
        for kind in ("plain", "plus", "minus"):
            members.append((f"g{j}_{kind}", kind, base))
    return members


@dataclass
class RatioTable:
    rows: list            # (c, member_id, num, den, ratio)
    per_c_max: dict       # c -> max ratio over the family
    spread: float         # max/min of per-c maxima
    member_drift: dict    # member -> ratio(largest c)/ratio(smallest c)


def uniform_ratio_experiment(c_list, orders: OrderProfile,
                             grid: BoxGrid | None = None,
                             metric: MetricParams | None = None,
                             n_base: int = 4, seed: int = 0) -> RatioTable:
    """Ratio proxy for the uniform inverse bound.

    For each c and family member u, applies P (``pde.ConjugatedOperator``
    without a branch, for ``metric`` or the free metric) on the grid and
    reports calctwo(u; m, s, l) / calctwo(Pu; m-1, s+1, l-1), the per-c
    family maximum, the max/min spread of those maxima across the c-ladder,
    and each member's largest-c/smallest-c ratio drift.
    """
    if grid is None:
        grid = BoxGrid((2.0 * math.pi, 8.0 * math.pi), (4096, 64))
    cs = sorted(float(c) for c in c_list)
    cmax = max(cs)
    nyq = math.pi * grid.ns[0] / grid.sides[0]
    if cmax**2 * 1.1 > nyq:
        raise SpectrumOverflow(
            f"c^2 = {cmax**2} too close to the time Nyquist frequency {nyq:.0f}"
        )
    M = metric if metric is not None else MetricParams.free(grid.ndim - 1)
    members = gaussian_family(grid, n_base=n_base, seed=seed)
    t = grid.mesh()[0]
    den_orders = orders.shifted(dm=-1.0, ds=+1.0, dl=-1.0)
    rows = []
    per_c = {}
    ratios_by_member = {}
    for c in cs:
        h = 1.0 / c
        carrier = np.exp(1j * c * c * t)
        P = ConjugatedOperator(M, c, grid, None)
        best = 0.0
        for mid, kind, base in members:
            if kind == "plus":
                vals = carrier * base
            elif kind == "minus":
                vals = np.conj(carrier) * base
            else:
                vals = base
            u = GridField(grid, vals)
            Pu = GridField(grid, P.apply(vals))
            den = calctwo_norm(Pu, h, den_orders)
            if den < 1.0e-12:
                raise DegenerateFamily(f"member {mid} has |Pu| below floor")
            num = calctwo_norm(u, h, orders)
            ratio = num / den
            rows.append((c, mid, num, den, ratio))
            ratios_by_member.setdefault(mid, {})[c] = ratio
            best = max(best, ratio)
        per_c[c] = best
    vals = list(per_c.values())
    spread = max(vals) / min(vals)
    drift = {
        mid: r[cs[-1]] / r[cs[0]] for mid, r in ratios_by_member.items()
    }
    return RatioTable(rows, per_c, spread, drift)
