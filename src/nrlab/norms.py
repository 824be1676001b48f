"""Weighted anisotropic Sobolev norms, energy splitting, and the
uniform-invertibility proxy experiment.

Fields live on a periodic spacetime grid (axis 0 is time).  Norms follow a
fixed composition order: the spacetime weight <z>^{s(z)} multiplies first,
the Fourier multiplier acts second.

The two-sheet norm splits a field with the positive/negative energy
partition Q_+ = chi(tau_nat / <xi_nat>), demodulates each piece by
e^{-/+ i c^2 t}, and measures the envelopes with the multiplier
rho_df^{-m} rho_nf^{-l} of the global bdfs (geometry.frequency_bdfs):
rho_df^{-m} = (1 + h^2|xi|^2 + h^4 tau^2)^{m/2} is the natural-frequency
multiplier.  On spectrum away from the blown-up zero section rho_nf = h and
the l-order is the plain h^{-l} of the natural-scale norm; on the parabolic
region it is the anisotropic weight (1+tau^2+sum_j xi_j^4)^{l/4}.  That
weight is not what keeps the ratio experiment stable in c: with l = 0 it
passes the same gates.  The q_+/- orders are literal h^{-q} prefactors.

The ratio experiment applies the Klein-Gordon operator P through
``pde.ConjugatedOperator`` without a branch, built once per c.  A member's spectrum is
taken once for P and both norms, and not at all by a norm at m = l = 0 (unit multiplier):
3 forward and 3 inverse in-place ``quantize.transform`` calls at the default orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DegenerateFamily, InvalidInput, SpectrumOverflow
from .geometry import frequency_bdfs, smooth_step
from .pde import ConjugatedOperator, _check_scale
from .quantize import BoxGrid, GridField, transform
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


def default_chi(s):
    """Energy-splitting profile: 0 for s <= -1/2, 1 for s >= 1/2, smooth."""
    return smooth_step((np.asarray(s, float) + 0.5))


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
        orders = (self.m, self.ell, self.q_minus, self.q_plus, *ends)
        if not np.isfinite(orders).all():
            raise InvalidInput(f"orders {orders} must be finite")
        if self.check_threshold and not min(ends) < -0.5 < max(ends):
            raise InvalidInput(f"order profile {ends} must cross the -1/2 threshold")

    def s_bar(self, sigma):
        t = smooth_step((np.asarray(sigma, float) + 0.9) / 1.8)
        return self.s_past + (self.s_future - self.s_past) * t

    def shifted(self, dm=0.0, ds=0.0, dl=0.0) -> "OrderProfile":
        return OrderProfile(self.m + dm, self.ell + dl, self.q_minus,
                            self.q_plus, self.s_past + ds, self.s_future + ds,
                            check_threshold=False)


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


def _grid_bdfs(grid: BoxGrid, h: float):
    """(rho_df, rho_nf, rho_pf) of geometry.frequency_bdfs on the DFT frequencies,
    at tau_nat = h^2 tau and xi_nat = h xi; rho_df^{-m} is the multiplier
    (1 + h^2|xi|^2 + h^4 tau^2)^{m/2}."""
    tau, *xs = _open_mesh(grid, freqs=True)
    return frequency_bdfs(h**2 * tau, [h * x for x in xs], h)


def _fourier_norm(buf: np.ndarray, mult, dvol: float) -> float:
    """|| F^-1[mult F[buf]] ||_2 on the grid: by Parseval sqrt(dvol / N) || mult F[buf] ||_2,
    the complex ``buf`` transformed in place; mult None (unit) gives sqrt(dvol) ||buf||_2."""
    if mult is not None:
        buf, dvol = transform(buf), dvol / buf.size
        buf *= mult
    parts = buf.view(float).ravel()   # real and imaginary parts, no copy
    return math.sqrt(dvol * np.einsum("i,i->", parts, parts))


def sc_norm(u: GridField, m: float, s_weight=None) -> float:
    """Scattering-type Sobolev norm || <D>^m ( <z>^{s} u ) ||_2, the natural norm
    at h = 1; the weight multiplies before the derivatives."""
    return natural_norm(u, m, s_weight, 0.0, 1.0)


def natural_norm(u: GridField, m: float, s_weight, ell: float, h: float) -> float:
    """Natural-scale norm h^{-l} || (1 + h^2|xi|^2 + h^4 tau^2)^{m/2} (<z>^s u) ||_2."""
    _check_scale(h, "h")
    g = u.grid
    return h**-ell * _fourier_norm(_weight_field(g, s_weight) * u.values,
                                   _grid_bdfs(g, h)[0] ** -m if m else None, g.dvol)


def _split_multiplier(grid: BoxGrid, h: float, chi_profile=None) -> np.ndarray:
    """Q_+ = chi(tau_nat/<xi_nat>) on the DFT frequencies."""
    k = _open_mesh(grid, freqs=True)
    xi_nat2 = h**2 * sum(kj * kj for kj in k[1:])
    return (chi_profile or default_chi)(h**2 * k[0] / np.sqrt(1.0 + xi_nat2))


def _carrier(grid: BoxGrid, h: float) -> np.ndarray:
    """e^{i t/h^2} = e^{i c^2 t} as a time column of shape (n_t, 1, ...)."""
    return np.exp(1j * _open_mesh(grid)[0] / h**2)


def _split(values: np.ndarray, spec: np.ndarray, q_plus, carrier) -> tuple:
    """Envelopes (e^{-ic^2 t} Q_+ u, e^{+ic^2 t} Q_- u) of a field from its values
    and its spectrum F[u], which is overwritten: one inverse FFT, in place."""
    plus = transform(np.multiply(spec, q_plus, out=spec), inverse=True)
    minus = values - plus
    return np.multiply(plus, np.conj(carrier), out=plus), np.multiply(minus, carrier, out=minus)


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
    _check_scale(h, "h")
    g = u.grid
    plus, minus = _split(u.values, transform(u.values.copy()),
                         _split_multiplier(g, h, chi_profile), _carrier(g, h))
    return SplitPair(u_minus=GridField(g, minus), u_plus=GridField(g, plus), h=h)


def _two_sheet_norms(grid: BoxGrid, h: float, orders_list, weights, chi_profile=None):
    """The two-sheet norm at scale h for each order tuple and its weight
    <z>^{s_bar}, as functions of a field's values and spectrum; Q_+, the carrier,
    rho_df and rho_nf are shared.  A call overwrites the spectrum and takes three FFTs,
    in place: the split's inverse and a Parseval forward per envelope (none at m = l = 0)."""
    _check_scale(h, "h")
    q_plus, carrier = _split_multiplier(grid, h, chi_profile), _carrier(grid, h)
    rho_df, rho_nf, _ = _grid_bdfs(grid, h)

    def norm_for(orders, weight):
        mult = None if orders.m == orders.ell == 0 else rho_df**-orders.m * rho_nf**-orders.ell
        return lambda values, spec: sum(
            h**-q * _fourier_norm(np.multiply(env, weight, out=env), mult, grid.dvol)
            for q, env in zip((orders.q_plus, orders.q_minus),
                              _split(values, spec, q_plus, carrier)))

    return [norm_for(o, w) for o, w in zip(orders_list, weights)]


def calctwo_norm(u: GridField, h: float, orders: OrderProfile,
                 chi_profile=None) -> float:
    """Two-sheet norm: weighted natural-multiplier norms of the two envelopes.

    Each envelope v is measured as
    || rho_df^{-m} rho_nf^{-l} F[ <z>^{s_bar(t/<z>)} v ] ||_2 with the global
    frequency-space bdfs, times the prefactor h^{-q_+/-}; the two terms add.
    """
    g = u.grid
    norm, = _two_sheet_norms(g, h, [orders], [_weight_field(g, orders)], chi_profile)
    return norm(u.values, transform(u.values.copy()))


# ---------------------------------------------------------------------------
# manufactured family and the uniform-ratio experiment
# ---------------------------------------------------------------------------


def gaussian_family(grid: BoxGrid, n_base: int = 4, seed: int = 0):
    """Manufactured fields: Gaussians of widths 0.35 in t and 1.5 in x at
    varied centers and velocities (|v| <= 2), plain and carried on both
    oscillation branches (3 * n_base members).

    Carriers e^{+/- i c^2 t} are attached per-c by the experiment; this
    returns (member_id, envelope_kind, base_values) with kind in
    {"plain", "plus", "minus"}.
    """
    rng = np.random.default_rng(seed)
    mesh = _open_mesh(grid)
    members = []
    for j in range(n_base):
        t0 = rng.uniform(-0.4, 0.4)
        x0 = [rng.uniform(-1.0, 1.0) for _ in mesh[1:]]
        v = [rng.uniform(-2.0, 2.0) for _ in mesh[1:]]
        mu = rng.uniform(-1.0, 1.0)
        # separable: one factor per axis on the open mesh, one full-grid product
        factors = zip(mesh, [t0, *x0], [0.35] + [1.5] * len(v), [mu, *v])
        base = reduce(np.multiply, [np.exp(-((z - c) / w) ** 2 + 1j * k * z)
                                    for z, c, w, k in factors])
        members += [(f"g{j}_{kind}", kind, base) for kind in ("plain", "plus", "minus")]
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
    if not cs or not all(0.0 < c < math.inf for c in cs):
        raise InvalidInput("the ratio needs at least one c, each finite and > 0")
    if n_base < 1:
        raise InvalidInput("the ratio needs n_base >= 1 family members")
    nyq = math.pi * grid.ns[0] / grid.sides[0]
    if max(cs) ** 2 * 1.1 > nyq:
        raise SpectrumOverflow(
            f"c^2 = {max(cs) ** 2} too close to the time Nyquist frequency {nyq:.0f}")
    M = metric if metric is not None else MetricParams.free(grid.ndim - 1)
    members = gaussian_family(grid, n_base=n_base, seed=seed)
    t = _open_mesh(grid)[0]
    both = (orders, orders.shifted(dm=-1.0, ds=+1.0, dl=-1.0))   # numerator, denominator
    weight = _weight_field(grid, orders)
    weights = (weight, weight * _weight_field(grid, 1.0))   # s_bar + 1: one more <z>

    def rows_at(c):
        # a generator: the arrays of one c are freed before the next c's are built
        carrier = np.exp(1j * c * c * t)
        carriers = {"plain": 1.0, "plus": carrier, "minus": np.conj(carrier)}
        P = ConjugatedOperator(M, c, grid, None)
        num_norm, den_norm = _two_sheet_norms(grid, 1.0 / c, both, weights)
        for mid, kind, base in members:
            vals = carriers[kind] * base
            spec = transform(vals.copy())
            den = den_norm(*P.apply_with_spectrum(vals, spec))
            if den < 1.0e-12:
                raise DegenerateFamily(f"member {mid} has |Pu| below floor")
            num = num_norm(vals, spec)
            yield c, mid, num, den, num / den

    rows = [row for c in cs for row in rows_at(c)]
    per_c = {c: max(row[4] for row in rows if row[0] == c) for c in cs}
    first, last = ({row[1]: row[4] for row in rows if row[0] == c} for c in (cs[0], cs[-1]))
    drift = {mid: last[mid] / first[mid] for mid in first}
    return RatioTable(rows, per_c, max(per_c.values()) / min(per_c.values()), drift)
