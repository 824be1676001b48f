"""Desk-scale left quantization on periodic grids.

Functions live on a periodic box (side L, N points per axis); symbols
a(z, zeta) live on the product of that box with a frequency box whose
spacing matches the DFT frequencies 2 pi k / L of the base grid, so the
discrete left quantization

    (Op(a) u)(z) = sum_k a(z, zeta_k) u_hat(k) e^{i zeta_k . z}

is exact on band-limited inputs.  Symbol derivatives are spectral; symbols
with exact monomial structure (polynomials in z and zeta) carry it along
and differentiate exactly, which is what makes the polynomial star-product
identities hold at round-off level.  Test objects are kept within a quarter
of the box so periodization error is part of the measured residuals.

Transforms: every grid FFT of the package is a ``transform`` call, in place.
A spectral derivative is one forward (its power feeds the decay preflight,
then it takes the ik factor in place) and one inverse.  The partial sums
S_0..S_N of the star product take each d^alpha once, so sampled factors cost
4 (C(N + D, D) - 1) transforms (12 for N = 3, D = 1); polynomial factors are
sampled only if read.  ``op_apply`` takes one: with z_m = -L/2 + m L/n and
zeta_k = 2 pi k / L the plane wave is the exact twiddle e^{2 pi i k m / n}.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from operator import add

import numpy as np

from .errors import GridMismatch, InvalidInput, SpectrumOverflow

__all__ = [
    "BoxGrid",
    "GridField",
    "GridSymbol",
    "frequency_grid",
    "op_apply",
    "star_partial_sums",
    "star_truncated",
]

SMOOTHNESS_TOP_THIRD = 1.0e-8   # spectral-decay preflight threshold
MODE_ENERGY_FLOOR = 1.0e-30     # relative energy below which a mode is ignored
MODE_BLOCK = 1 << 16            # grid points x modes in one op_apply block
SLAB_POINTS = 1 << 15           # fewest points in one slab of a split transform pass
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def transform(a, axes=None, inverse=False) -> np.ndarray:
    """The DFT (``inverse``: its inverse, 1/n per axis) of ``a`` over ``axes``
    (default all), bit for bit numpy's fftn/ifftn, returned in ``a`` itself
    when it is a complex array (anything else is first copied to one).

    An array of two or more axes and at least 2 SLAB_POINTS points is
    transformed one axis pass at a time, last axis first as numpy does, each
    pass cut along its longest other axis into up to CORES slabs of at least
    SLAB_POINTS points; the caller runs one and the pool the rest (numpy's
    FFT releases the GIL, and every 1-D line is transformed on its own).  Any
    other array takes one numpy call.
    """
    a = np.asarray(a, dtype=complex)
    axes = list(range(a.ndim) if axes is None else axes)
    k = min(CORES, a.size // SLAB_POINTS)
    if a.ndim < 2 or k < 2:
        if len(axes) == 1:
            return (np.fft.ifft if inverse else np.fft.fft)(a, axis=axes[0], out=a)
        return (np.fft.ifftn if inverse else np.fft.fftn)(a, axes=axes, out=a)
    fn = np.fft.ifft if inverse else np.fft.fft
    for axis in reversed(axes):
        along = max((i for i in range(a.ndim) if i != axis), key=a.shape.__getitem__)
        n, m = a.shape[along], min(k, a.shape[along])
        slabs = [a[(slice(None),) * along + (slice(n * j // m, n * (j + 1) // m),)]
                 for j in range(m)]
        futures = [_pool(os.getpid()).submit(fn, s, axis=axis, out=s) for s in slabs[1:]]
        try:
            fn(slabs[0], axis=axis, out=slabs[0])
        finally:   # every slab is done before the pass returns or raises
            errors = [f.exception() for f in futures]
        for err in filter(None, errors):
            raise err
    return a


@cache
def _pool(pid):
    """CORES - 1 slab workers for process ``pid`` (a forked child makes its
    own), with concurrent.futures imported only on the first split."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max(1, CORES - 1), thread_name_prefix="nrlab-fft")


@dataclass(frozen=True)
class BoxGrid:
    """Uniform periodic tensor grid: per-axis box sides and point counts."""

    sides: tuple
    ns: tuple

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(float(L) for L in self.sides))
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        if any(n < 1 or n & (n - 1) for n in self.ns):
            raise InvalidInput(f"grid sizes must be powers of two >= 1, got {self.ns}")
        if not all(math.isfinite(L) and L > 0.0 for L in self.sides):
            raise InvalidInput(f"box sides must be finite and > 0, got {self.sides}")

    @classmethod
    def regular(cls, side: float, n: int, ndim: int = 1) -> "BoxGrid":
        return cls((side,) * ndim, (n,) * ndim)

    @property
    def ndim(self) -> int:
        return len(self.ns)

    @property
    def shape(self) -> tuple:
        return self.ns

    @property
    def spacings(self) -> tuple:
        return tuple(L / n for L, n in zip(self.sides, self.ns))

    @property
    def dvol(self) -> float:
        return float(np.prod(self.spacings))

    def axis_points(self, i: int) -> np.ndarray:
        L, n = self.sides[i], self.ns[i]
        return -L / 2.0 + np.arange(n) * (L / n)

    def axis_freqs(self, i: int) -> np.ndarray:
        """DFT frequencies (unshifted fft order)."""
        L, n = self.sides[i], self.ns[i]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)

    def mesh(self) -> list:
        return np.meshgrid(*[self.axis_points(i) for i in range(self.ndim)],
                           indexing="ij")

    def freq_mesh(self) -> list:
        return np.meshgrid(*[self.axis_freqs(i) for i in range(self.ndim)],
                           indexing="ij")


def frequency_grid(zgrid: BoxGrid) -> BoxGrid:
    """Frequency box matching the DFT frequencies of a base grid: spacing
    2 pi / L_i on axis i, so every DFT frequency lands on a grid point."""
    return BoxGrid(tuple(2.0 * np.pi / L * n for L, n in zip(zgrid.sides, zgrid.ns)), zgrid.ns)


@dataclass
class GridField:
    """Complex samples on a periodic base grid."""

    grid: BoxGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise GridMismatch("field values do not match the grid shape")

    def coefficients(self) -> np.ndarray:
        """DFT coefficients c_k with u(z_j) = sum_k c_k e^{i zeta_k . z_j}."""
        return transform(self.values.copy()) / self.values.size

    def norm(self) -> float:
        """L^2 norm with the grid quadrature weight."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dvol))

    def band_limited(self) -> bool:
        """True when the modes in the upper third of the frequencies along
        any axis hold less than 1e-10 of the energy.  A one-point axis has no
        spectrum to show, so a grid with one is never band-limited."""
        if min(self.grid.ns) < 2:
            return False
        c = np.abs(self.coefficients()) ** 2
        total = float(c.sum())
        if total == 0.0:
            return True
        mask = np.zeros(c.shape, dtype=bool)
        for i in range(c.ndim):
            sh = [1] * c.ndim
            sh[i] = -1
            mask |= (np.abs(np.fft.fftfreq(c.shape[i])) > 1.0 / 3.0).reshape(sh)
        return float(c[mask].sum()) < 1.0e-10 * total


def _monomial(xs, exps, start):
    """start * prod_i xs[i] ** exps[i], multiplied in axis order."""
    return math.prod((x ** e for x, e in zip(xs, exps) if e), start=start)


def _spectral_derivative(values: np.ndarray, axis: int, spacing: float,
                         name: str) -> np.ndarray:
    """d/dx along ``axis``: one forward pass, the spectral-decay preflight on
    its power, ik multiplied in place, one inverse pass, also in place."""
    n = values.shape[axis]
    spec = transform(values.copy(), axes=(axis,))
    power = np.abs(spec) ** 2
    total = power.sum()
    top = [slice(None)] * values.ndim
    top[axis] = np.abs(np.fft.fftfreq(n)) > 1.0 / 3.0
    smooth = total == 0.0 or power[tuple(top)].sum() < SMOOTHNESS_TOP_THIRD * total
    del power
    if not smooth:
        raise SpectrumOverflow(
            f"symbol not smooth enough along {name} for a spectral derivative")
    shape = [1] * values.ndim
    shape[axis] = n
    spec *= 1j * (2.0 * np.pi * np.fft.fftfreq(n, d=spacing)).reshape(shape)
    return transform(spec, axes=(axis,), inverse=True)


class GridSymbol:
    """Sampled symbol a(z, zeta) on a base grid times a frequency grid.

    ``poly``, when present, is an exact monomial representation
    {(alpha_z, alpha_zeta): coeff} that evaluation and differentiation use
    instead of the samples; a poly symbol given no values is sampled on the
    first read of ``values``.  Sampled (non-polynomial) symbols must pass a
    spectral-decay preflight before spectral differentiation.
    """

    def __init__(self, zgrid: BoxGrid, zetagrid: BoxGrid, values=None, poly: dict | None = None):
        self.zgrid, self.zetagrid, self.poly = zgrid, zetagrid, poly
        if values is not None or poly is None:
            self.values = np.asarray(values, dtype=complex)
            if self.values.shape != zgrid.shape + zetagrid.shape:
                raise GridMismatch("symbol values do not match zgrid x zetagrid")

    @cached_property
    def values(self) -> np.ndarray:
        return self._poly_sample()

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_function(cls, zgrid, zetagrid, f):
        zm = zgrid.mesh()
        fm = [m_[(Ellipsis,) + (None,) * zetagrid.ndim] for m_ in zm]
        qm = zetagrid.mesh()
        qm = [m_[(None,) * zgrid.ndim + (Ellipsis,)] for m_ in qm]
        vals = np.broadcast_to(np.asarray(f(*fm, *qm), dtype=complex),
                               zgrid.shape + zetagrid.shape).copy()
        return cls(zgrid, zetagrid, vals)

    @classmethod
    def from_poly(cls, zgrid, zetagrid, poly: dict):
        return cls(zgrid, zetagrid, poly=dict(poly))

    @classmethod
    def constant(cls, zgrid, zetagrid, value=1.0):
        D = zgrid.ndim
        return cls.from_poly(zgrid, zetagrid,
                             {((0,) * D, (0,) * D): complex(value)})

    @classmethod
    def coordinate(cls, zgrid, zetagrid, kind: str, axis: int):
        """The monomial symbol z_axis or zeta_axis."""
        D = zgrid.ndim
        az = [0] * D
        aq = [0] * D
        (az if kind == "z" else aq)[axis] = 1
        return cls.from_poly(zgrid, zetagrid, {(tuple(az), tuple(aq)): 1.0 + 0.0j})

    # -- polynomial machinery ----------------------------------------------

    def _poly_sample(self) -> np.ndarray:
        zm, qm = self.zgrid.mesh(), self.zetagrid.mesh()
        Dz, Dq = self.zgrid.ndim, self.zetagrid.ndim
        out = np.zeros(self.zgrid.shape + self.zetagrid.shape, dtype=complex)
        for (az, aq), cf in self.poly.items():
            out += (cf * _monomial(zm, az, np.ones(self.zgrid.shape))[(Ellipsis,) + (None,) * Dq]
                    * _monomial(qm, aq, np.ones(self.zetagrid.shape))[(None,) * Dz + (Ellipsis,)])
        return out

    # -- derivatives ---------------------------------------------------------

    def _poly_derivative(self, kind: str, axis: int) -> dict:
        out = {}
        for (az, aq), cf in self.poly.items():
            exps = list(az if kind == "z" else aq)
            if exps[axis] == 0:
                continue
            e = exps[axis]
            exps[axis] = e - 1
            key = (tuple(exps), aq) if kind == "z" else (az, tuple(exps))
            out[key] = out.get(key, 0.0) + cf * e
        return out

    def _derivative(self, kind: str, axis: int) -> "GridSymbol":
        if self.poly is not None:
            return GridSymbol.from_poly(self.zgrid, self.zetagrid,
                                        self._poly_derivative(kind, axis))
        grid, ax = ((self.zgrid, axis) if kind == "z"
                    else (self.zetagrid, self.zgrid.ndim + axis))
        vals = _spectral_derivative(self.values, ax, grid.spacings[axis], f"{kind}-axis {axis}")
        return GridSymbol(self.zgrid, self.zetagrid, vals)

    def d_z(self, axis: int) -> "GridSymbol":
        """Partial derivative in the base variable z_axis: exact for a poly
        symbol, else spectral in two transforms (SpectrumOverflow if rough)."""
        return self._derivative("z", axis)

    def d_zeta(self, axis: int) -> "GridSymbol":
        """Partial derivative in the frequency variable zeta_axis (as ``d_z``)."""
        return self._derivative("zeta", axis)

    # -- algebra -------------------------------------------------------------

    def _check_mate(self, other: "GridSymbol"):
        if self.zgrid != other.zgrid or self.zetagrid != other.zetagrid:
            raise GridMismatch("symbols live on different grids")

    def __mul__(self, other):
        if isinstance(other, GridSymbol):
            self._check_mate(other)
            if self.poly is None or other.poly is None:
                return GridSymbol(self.zgrid, self.zetagrid, self.values * other.values)
            poly = {}
            for (az1, aq1), c1 in self.poly.items():
                for (az2, aq2), c2 in other.poly.items():
                    key = (tuple(map(add, az1, az2)), tuple(map(add, aq1, aq2)))
                    poly[key] = poly.get(key, 0.0) + c1 * c2
            return GridSymbol(self.zgrid, self.zetagrid, poly=poly)
        if self.poly is None:
            return GridSymbol(self.zgrid, self.zetagrid, self.values * other)
        return GridSymbol(self.zgrid, self.zetagrid,
                          poly={k: v * other for k, v in self.poly.items()})

    __rmul__ = __mul__

    def __add__(self, other: "GridSymbol") -> "GridSymbol":
        self._check_mate(other)
        if self.poly is None or other.poly is None:
            return GridSymbol(self.zgrid, self.zetagrid, self.values + other.values)
        poly = dict(self.poly)
        for k, v in other.poly.items():
            poly[k] = poly.get(k, 0.0) + v
        return GridSymbol(self.zgrid, self.zetagrid, poly=poly)

    def __sub__(self, other: "GridSymbol") -> "GridSymbol":
        return self + (other * (-1.0))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def _mode_indices_on(zetagrid: BoxGrid, zeta: list) -> tuple:
    """Indices on the symbol's zeta-grid of the modes zeta (one array per
    axis); SpectrumOverflow names the first mode, in the order given, that
    falls off the grid."""
    idx, on = [], True
    for i, v in enumerate(zeta):
        pts0, d = -zetagrid.sides[i] / 2.0, zetagrid.spacings[i]
        j = np.rint((v - pts0) / d)
        on = on & (0 <= j) & (j < zetagrid.ns[i]) & (
            np.abs(pts0 + j * d - v) <= 1.0e-9 * np.maximum(1.0, np.abs(v)))
        idx.append(j.astype(np.intp))
    if not np.all(on):
        bad = int(np.argmin(on))
        raise SpectrumOverflow(f"mode {np.array([v[bad] for v in zeta])} "
                               "outside the symbol frequency box")
    return tuple(idx)


def op_apply(a: GridSymbol, u: GridField) -> GridField:
    """Discrete left quantization applied to a field.

    The symbol is read at the DFT frequencies of the base grid.  Raises
    SpectrumOverflow if an energetic mode of u falls outside the symbol's
    frequency box.

    One fftn of u; each axis's plane wave e^{i zeta_k (z_m + L/2)} is the
    exact twiddle e^{2 pi i k m / n}, read from a length-n table.  Energetic
    modes go in blocks of at most MODE_BLOCK grid points x modes.
    """
    if u.grid != a.zgrid:
        raise GridMismatch("field and symbol base grids differ")
    D, ns = u.grid.ndim, u.grid.ns
    coeffs = u.coefficients()
    power = np.abs(coeffs) ** 2
    total = float(np.sum(power))
    out = np.zeros(u.grid.shape, dtype=complex)
    if total == 0.0:
        return GridField(u.grid, out)
    modes = np.nonzero(~(power <= MODE_ENERGY_FLOOR * total))   # C order
    zeta = [u.grid.axis_freqs(i)[k] for i, k in enumerate(modes)]
    if a.poly is None:
        idx = _mode_indices_on(a.zetagrid, zeta)
    else:
        mesh = u.grid.mesh()
        zparts = [(_monomial(mesh, az, np.full(u.grid.shape, cf, dtype=complex))[..., None], aq)
                  for (az, aq), cf in a.poly.items()]
    tables = [np.exp(2j * np.pi * np.arange(n) / n) for n in ns]
    block = max(1, MODE_BLOCK // out.size)
    for first in range(0, len(modes[0]), block):
        blk = slice(first, first + block)
        if a.poly is None:
            amp = a.values[(Ellipsis, *(j[blk] for j in idx))]
        else:
            amp = np.zeros(u.grid.shape + (len(modes[0][blk]),), dtype=complex)
            for zp, aq in zparts:
                amp += _monomial([v[blk] for v in zeta], aq, zp)
        for i, n in enumerate(ns):
            shape = [1] * D + [-1]
            shape[i] = n
            amp *= tables[i][np.outer(np.arange(n), modes[i][blk]) % n].reshape(shape)
        out += amp @ coeffs[tuple(k[blk] for k in modes)]
    return GridField(u.grid, out)


def _lower(alpha: tuple) -> tuple:
    """(i, alpha - e_i) for the last axis i along which alpha differentiates."""
    i = max(j for j, e in enumerate(alpha) if e)
    return i, alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]


def star_partial_sums(a: GridSymbol, b: GridSymbol, N: int):
    """S_0, ..., S_N, S_n = sum_{|alpha|<=n} (1/alpha!) d_zeta^alpha a  D_z^alpha b,
    from one derivative chain; N and the grids are checked at the call.

    S_0 is the pointwise product; each further term gains one order at the
    frequency, base, and natural faces.  Poly factors give exact poly sums.
    Each d^alpha is one derivative of d^(alpha - e_i) (i its last axis),
    kept for one degree: sampled factors cost 4 (C(N + D, D) - 1)
    transforms for all N + 1 sums, poly factors none.  A generator: a
    caller that drops each sum holds one at a time.
    """
    if not isinstance(N, (int, np.integer)) or N < 0:
        raise InvalidInput(f"star product order must be an integer >= 0, got {N!r}")
    a._check_mate(b)

    def sums():
        D = a.zgrid.ndim
        out = a * b
        yield out
        das, dbs = {(0,) * D: a}, {(0,) * D: b}
        for degree in range(1, N + 1):
            steps = {alpha: _lower(alpha) for alpha in product(range(degree + 1), repeat=D)
                     if sum(alpha) == degree}     # |alpha| = degree, lexicographic
            # rebinding das frees the a-side of the degree below before the b-side runs
            das = {alpha: das[low].d_zeta(i) for alpha, (i, low) in steps.items()}
            dbs = {alpha: dbs[low].d_z(i) for alpha, (i, low) in steps.items()}
            for alpha in steps:
                # D_z = -i d_z per derivative
                fact = math.prod(math.factorial(e) for e in alpha)
                out = out + das[alpha] * dbs[alpha] * ((-1j) ** degree / fact)
            yield out

    return sums()


def star_truncated(a: GridSymbol, b: GridSymbol, N: int) -> GridSymbol:
    """The truncated composition symbol S_N: the last of ``star_partial_sums``."""
    return deque(star_partial_sums(a, b, N), maxlen=1).pop()

