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
    lo = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) + 0.0   # -0.0 -> 0.0
    with np.errstate(divide="ignore"):   # exp(-1/0) = 0 at the ends
        a, b = np.exp(-1.0 / lo), np.exp(-1.0 / (1.0 - lo))
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
        # a constant profile crosses nothing, so it fails the check
        ends = (self.s_past, self.s_future)
        if self.check_threshold and not min(ends) < -0.5 < max(ends):
            raise InvalidInput(f"order profile {ends} must cross the -1/2 threshold")

    def s_bar(self, sigma):
        t = smooth_step((np.asarray(sigma, float) + 0.9) / 1.8)
        return self.s_past + (self.s_future - self.s_past) * t

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


def _open_mesh(grid: BoxGrid, freqs: bool = False) -> list:
    """Open (broadcasting) meshes of the grid points or of the DFT frequencies."""
    axis = grid.axis_freqs if freqs else grid.axis_points
    return np.meshgrid(*map(axis, range(grid.ndim)), indexing="ij", sparse=True)


def _weight_field(grid: BoxGrid, s_weight):
    """<z>^{s(z)} with s given as None, scalar, array, callable (of the open
    meshes), or an order profile (s_bar of t/<z>)."""
    if s_weight is None:
        return 1.0
    mesh = _open_mesh(grid)
    bracket = np.sqrt(1.0 + sum(m_ * m_ for m_ in mesh))
    if isinstance(s_weight, OrderProfile):
        return bracket ** s_weight.s_bar(mesh[0] / bracket)
    return bracket ** np.asarray(s_weight(*mesh) if callable(s_weight) else s_weight,
                                 dtype=float)


def _natural_multiplier(grid: BoxGrid, h: float, m: float) -> np.ndarray:
    """(1 + h^2|xi|^2 + h^4 tau^2)^{m/2} on the DFT frequencies."""
    k = _open_mesh(grid, freqs=True)
    return (1.0 + h**2 * sum(kj * kj for kj in k[1:]) + h**4 * k[0] ** 2) ** (m / 2.0)


def _natural_face_bdf(grid: BoxGrid, h: float) -> np.ndarray:
    """Global natural-face bdf on the DFT frequencies:
    rho_nf = h + chi(zeta_nat) (1 + tau^2 + |xi|^4)^{-1/4}."""
    k = _open_mesh(grid, freqs=True)
    tau = k[0]
    xi2 = sum(kj * kj for kj in k[1:])
    xi4 = sum((kj * kj) ** 2 for kj in k[1:])
    zn = np.sqrt(h**4 * tau**2 + h**2 * xi2)
    # radial cutoff: 1 for |zeta_nat| <= 1, 0 for >= 2
    chi = 1.0 - smooth_step(zn - 1.0)
    return h + chi * (1.0 + tau**2 + xi4) ** -0.25


def _fourier_norm(values: np.ndarray, mult, dvol: float) -> float:
    """|| F^-1[mult F[values]] ||_2 on the grid, by Parseval
    sqrt(dvol / N) || mult F[values] ||_2."""
    spec = np.fft.fftn(values)
    spec *= mult
    parts = spec.view(float).ravel()   # real and imaginary parts, no copy
    return math.sqrt(dvol / spec.size * np.einsum("i,i->", parts, parts))


def sc_norm(u: GridField, m: float, s_weight=None) -> float:
    """Scattering-type Sobolev norm || <D>^m ( <z>^{s} u ) ||_2, the natural norm
    at h = 1; the weight multiplies before the derivatives."""
    return natural_norm(u, m, s_weight, 0.0, 1.0)


def natural_norm(u: GridField, m: float, s_weight, ell: float, h: float) -> float:
    """Natural-scale norm h^{-l} || (1 + h^2|xi|^2 + h^4 tau^2)^{m/2} (<z>^s u) ||_2."""
    g = u.grid
    return h**-ell * _fourier_norm(_weight_field(g, s_weight) * u.values,
                                   _natural_multiplier(g, h, m), g.dvol)


def _split_multiplier(grid: BoxGrid, h: float, chi_profile=None) -> np.ndarray:
    """Q_+ = chi(tau_nat/<xi_nat>) on the DFT frequencies."""
    k = _open_mesh(grid, freqs=True)
    xi_nat2 = h**2 * sum(kj * kj for kj in k[1:])
    return (chi_profile or default_chi)(h**2 * k[0] / np.sqrt(1.0 + xi_nat2))


def _carrier(grid: BoxGrid, h: float) -> np.ndarray:
    """e^{i t/h^2} = e^{i c^2 t} as a time column of shape (n_t, 1, ...)."""
    return np.exp(1j * _open_mesh(grid)[0] / h**2)


def _split(values: np.ndarray, q_plus: np.ndarray, carrier: np.ndarray) -> tuple:
    """Envelopes (e^{-ic^2 t} Q_+ u, e^{+ic^2 t} Q_- u) of a field's values."""
    spec = np.fft.fftn(values)
    spec *= q_plus
    plus = np.fft.ifftn(spec)
    return np.conj(carrier) * plus, carrier * (values - plus)


@dataclass
class SplitPair:
    """Envelopes of the energy splitting: u = e^{+ic^2 t} u_plus + e^{-ic^2 t} u_minus."""

    u_minus: GridField
    u_plus: GridField
    h: float

    def reconstruct(self) -> GridField:
        g = self.u_plus.grid
        carrier = _carrier(g, self.h)
        vals = carrier * self.u_plus.values + np.conj(carrier) * self.u_minus.values
        return GridField(g, vals)


def split_energy(u: GridField, h: float, chi_profile=None) -> SplitPair:
    """Split a field into positive/negative energy envelopes.

    Q_+ is the Fourier multiplier chi(tau_nat/<xi_nat>) with tau_nat = h^2 tau,
    xi_nat = h xi on the DFT frequencies; Q_- = 1 - Q_+.  The envelopes are
    u_plus = e^{-ic^2 t} Q_+ u and u_minus = e^{+ic^2 t} Q_- u.
    """
    g = u.grid
    plus, minus = _split(u.values, _split_multiplier(g, h, chi_profile), _carrier(g, h))
    return SplitPair(u_minus=GridField(g, minus), u_plus=GridField(g, plus), h=h)


def _two_sheet_norm(grid: BoxGrid, h: float, orders: OrderProfile, chi_profile=None):
    """The two-sheet norm on ``grid`` at scale h as a function of a field's values.

    Q_+, the carrier, rho_df^{-m} rho_nf^{-l} and <z>^{s_bar} are built once
    here; a call takes four FFTs.
    """
    q_plus = _split_multiplier(grid, h, chi_profile)
    carrier = _carrier(grid, h)
    mult = _natural_multiplier(grid, h, orders.m) * _natural_face_bdf(grid, h) ** -orders.ell
    weight = _weight_field(grid, orders)

    def norm(values: np.ndarray) -> float:
        envs = _split(values, q_plus, carrier)
        return sum(h**-q * _fourier_norm(weight * env, mult, grid.dvol)
                   for q, env in zip((orders.q_plus, orders.q_minus), envs))

    return norm


def calctwo_norm(u: GridField, h: float, orders: OrderProfile,
                 chi_profile=None) -> float:
    """Two-sheet norm: weighted natural-multiplier norms of the two envelopes.

    Each envelope v is measured as
    || rho_df^{-m} rho_nf^{-l} F[ <z>^{s_bar(t/<z>)} v ] ||_2 with the global
    frequency-space bdfs, times the prefactor h^{-q_+/-}; the two terms add.
    """
    return _two_sheet_norm(u.grid, h, orders, chi_profile)(u.values)


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
    t = _open_mesh(grid)[0]
    den_orders = orders.shifted(dm=-1.0, ds=+1.0, dl=-1.0)
    rows = []
    per_c = {}
    ratios_by_member = {}
    for c in cs:
        h = 1.0 / c
        carrier = np.exp(1j * c * c * t)
        carriers = {"plain": 1.0, "plus": carrier, "minus": np.conj(carrier)}
        P = ConjugatedOperator(M, c, grid, None)
        num_norm = _two_sheet_norm(grid, h, orders)
        den_norm = _two_sheet_norm(grid, h, den_orders)
        best = 0.0
        for mid, kind, base in members:
            vals = carriers[kind] * base
            den = den_norm(P.apply(vals))
            if den < 1.0e-12:
                raise DegenerateFamily(f"member {mid} has |Pu| below floor")
            num = num_norm(vals)
            ratio = num / den
            rows.append((c, mid, num, den, ratio))
            ratios_by_member.setdefault(mid, {})[c] = ratio
            best = max(best, ratio)
        per_c[c] = best
    spread = max(per_c.values()) / min(per_c.values())
    drift = {mid: r[cs[-1]] / r[cs[0]] for mid, r in ratios_by_member.items()}
    return RatioTable(rows, per_c, spread, drift)
