"""Model PDE solvers: free Klein-Gordon and its Schrodinger normal operator.

Mode convention (fixed once): Klein-Gordon modes are e^{i(-omega t + xi.x)}
with omega = +c (c^2 + |xi|^2)^(1/2).  Such a mode pairs with the MINUS
branch envelope v = e^{+ic^2 t} u, which to leading order solves
2i dv/dt + Lap v = 0; the PLUS branch envelope is v = e^{-ic^2 t} u and
solves -2i dv/dt + Lap v = 0.  The dispersion gap

    omega - c^2 - |xi|^2/2 = -|xi|^4/(8c^2) + O(c^-4)

is the source of the second-order non-relativistic convergence rate.

The Schrodinger solver handles the full normal operator
-(+/-) 2i d_t + Lap + (-(+/-) beta + i B . grad + W) - aleph by Strang
splitting with the state kept in Fourier space: between two pointwise
C-steps the exact kinetic half steps fuse into one multiplier, so a step
costs two FFTs, and a run with no coefficient is the exact free propagator,
one multiplier per output time.  ``kg_envelope_solve`` steps the exact
conjugated Klein-Gordon equation with ``ConjugatedOperator``'s coefficients,
for any metric; the Schrodinger side is compared with and without aleph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidInput, ResampleOverflow, StepFailure
from .quantize import BoxGrid, GridField, transform
from .symbols import MetricParams, SignBranch, aleph, eval_metric

__all__ = [
    "KGState",
    "SchrState",
    "SchrCoefficients",
    "kg_free_solve",
    "kg_branch_data",
    "envelope",
    "schrodinger_solve",
    "kg_envelope_solve",
    "conjugate_compare",
    "CompareReport",
    "symmetry_defect",
    "MassTrace",
    "mass_trace",
    "mass_bound_check",
    "scattering_profile",
    "scattering_mass_identity",
]


def _check_scale(x, name: str = "c"):
    """InvalidInput unless x, a light speed c or its inverse h = 1/c, and 1/x
    are both finite and > 0."""
    if not (0.0 < x < math.inf and 1.0 / x < math.inf):
        raise InvalidInput(f"{name} = {x}: {name} and 1/{name} must be finite and > 0")


# ---------------------------------------------------------------------------
# free Klein-Gordon
# ---------------------------------------------------------------------------


@dataclass
class KGState:
    """(u, du/dt) on a spatial grid at time t, with light speed c."""

    grid: BoxGrid
    u: np.ndarray
    ut: np.ndarray
    t: float
    c: float

    def __post_init__(self):
        _check_scale(self.c)
        self.u = np.asarray(self.u, dtype=complex)
        self.ut = np.asarray(self.ut, dtype=complex)


def _xi2(grid: BoxGrid) -> np.ndarray:
    return sum(m * m for m in grid.freq_mesh())


def _spacetime(t: float, mesh) -> np.ndarray:
    """Points (t, x) on a spatial mesh, with the coordinate index last."""
    return np.stack(np.broadcast_arrays(t, *mesh), axis=-1)


def kg_free_solve(data: KGState, times) -> list:
    """Exact Fourier-mode evolution of (-c^-2 d_t^2 + Lap - c^2) u = 0.

    Each mode splits into e^{-i omega t} and e^{+i omega t} branches with
    omega(xi) = c sqrt(c^2 + |xi|^2); energy is conserved exactly.
    """
    grid, c = data.grid, data.c
    omega = c * np.sqrt(c * c + _xi2(grid))
    u_hat = transform(data.u.copy())
    ut_hat = transform(data.ut.copy())
    a = 0.5 * (u_hat + 1j * ut_hat / omega)   # e^{-i omega t} branch
    bb = 0.5 * (u_hat - 1j * ut_hat / omega)  # e^{+i omega t} branch
    out = []
    for t in np.atleast_1d(times):
        dt = t - data.t
        ea = np.exp(-1j * omega * dt)
        u_t = a * ea + bb / ea
        ut_t = -1j * omega * (a * ea - bb / ea)
        out.append(KGState(grid, transform(u_t, inverse=True), transform(ut_t, inverse=True),
                           float(t), c))
    return out


def kg_branch_data(grid: BoxGrid, psi: np.ndarray, c: float,
                   branch: SignBranch, t: float = 0.0) -> KGState:
    """Initial data carried entirely on one frequency branch.

    MINUS picks the e^{-i omega t} modes (u_t = -i omega u per mode), PLUS
    the e^{+i omega t} modes.
    """
    _check_scale(c)
    omega = c * np.sqrt(c * c + _xi2(grid))
    psi_hat = transform(np.array(psi, dtype=complex))
    sgn = -1.0 if branch is SignBranch.MINUS else +1.0
    ut = transform(sgn * 1j * omega * psi_hat, inverse=True)
    return KGState(grid, np.asarray(psi, dtype=complex), ut, t, c)


def envelope(state: KGState, branch: SignBranch) -> np.ndarray:
    """Slow envelope e^{-(+/-) i c^2 t} u of a Klein-Gordon state."""
    return np.exp(-1j * branch.sign * state.c**2 * state.t) * state.u


# ---------------------------------------------------------------------------
# Schrodinger normal operator
# ---------------------------------------------------------------------------


@dataclass
class SchrState:
    """Envelope v on a spatial grid at time t; ``steps`` counts the Strang
    steps taken since the solver's input state (0 on the exact free path)."""

    grid: BoxGrid
    v: np.ndarray
    t: float
    steps: int = 0

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=complex)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.v) ** 2) * self.grid.dvol))


class SchrCoefficients:
    """Coefficient fields of the normal operator, as functions of (t, x).

    ``B`` is a tuple of real drift coefficients, ``W``/``beta`` the zeroth
    order terms, ``aleph`` the asymptotic-mass potential; each maps
    (t, x-meshes...) to an array on the spatial grid, and one not given is
    stored as None.  The branch-dependent potential is V = W -(+/-) beta -
    aleph, the c -> infinity limit of ``ConjugatedOperator``'s zeroth-order
    row (its -s beta, with s the branch sign).
    """

    def __init__(self, d: int, B=None, W=None, beta=None, aleph=None):
        self.d = d
        self.B = tuple(B) if B is not None else None
        self.W, self.beta, self.aleph = W, beta, aleph

    @classmethod
    def from_metric(cls, M: MetricParams, include_aleph: bool = True) -> "SchrCoefficients":
        """Coefficients at c = infinity: B_j = Re B_j, W, beta, and the
        asymptotic-mass potential (dropable for the differential test); a
        coefficient the metric leaves zero is absent."""

        def lift(coef):
            if coef.is_zero:
                return None
            return lambda t, *mesh: coef(_spacetime(t, mesh), math.inf)

        B = None
        if not all(Bj.is_zero for Bj in M.B):
            B = tuple(lambda t, *mesh, Bj=Bj: np.real(Bj(_spacetime(t, mesh), math.inf))
                      for Bj in M.B)
        alephf = None
        if include_aleph and not M.is_flat:
            def alephf(t, *mesh):
                return aleph(M, _spacetime(t, mesh))
        return cls(M.d, B=B, W=lift(M.W), beta=lift(M.beta), aleph=alephf)

    @property
    def is_free(self) -> bool:
        return all(f is None for f in (self.B, self.W, self.beta, self.aleph))

    def potential(self, t, mesh, branch: SignBranch) -> np.ndarray | None:
        """V at time t, or None when none of W, beta, aleph is given."""
        V = None
        for sign, f in ((1, self.W), (-branch.sign, self.beta), (-1, self.aleph)):
            if f is not None:
                term = np.asarray(f(t, *mesh), dtype=complex)
                V = (term if sign > 0 else -term) if V is None else V + sign * term
        return V

    def drift(self, t, mesh) -> list | None:
        """B_j at time t, or None when B is not given."""
        if self.B is not None:
            return [np.asarray(Bj(t, *mesh), dtype=float) for Bj in self.B]


def schrodinger_solve(data: SchrState, branch: SignBranch, times,
                      coeffs: SchrCoefficients | None = None,
                      dt: float | None = None) -> list:
    """Strang split-step solution of the normal operator equation.

    -(+/-)2i d_t v + Lap v + (-(+/-) beta + i B . grad + W - aleph) v = 0, i.e.
    d_t v = s (i/2)(Lap + i B . grad + V) v with s = -branch sign.  An output
    interval of span T takes ceil(|T|/dt) steps (dt: default 0.01; finite and
    > 0, else InvalidInput).  The state stays in Fourier space: the exact
    kinetic half factor e^{-is|xi|^2 step/4} is applied at the interval's
    ends and its square between steps, around each C-step (an inverse FFT,
    the pointwise step, an FFT).  The C-step applies e^{isV step/4} before and
    after a midpoint drift step with spectral gradients (second order), or
    with no drift e^{isV step/2} once; StepFailure if dt > min(dx)/max|B|.
    With no coefficient the answer is exact, v^ e^{-is|xi|^2 T/2}, in 0 steps.
    """
    dt = 0.01 if dt is None else dt
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInput(f"time step dt={dt} must be finite and > 0")
    grid = data.grid
    times = np.atleast_1d(np.asarray(times, dtype=float))
    s = -branch.sign
    xi2 = _xi2(grid)
    vh = transform(data.v.copy())
    if coeffs is None or coeffs.is_free:
        return [SchrState(grid, transform(vh * np.exp(-0.5j * s * xi2 * (t - data.t)),
                                          inverse=True), float(t)) for t in times]
    mesh = grid.mesh()
    kmesh = grid.freq_mesh()
    # drift CFL-type guard
    bmax = max((float(np.max(np.abs(b))) for b in coeffs.drift(data.t, mesh) or ()),
               default=0.0)
    if bmax > 0.0 and dt > min(grid.spacings) / bmax:
        raise StepFailure(f"drift step dt={dt} exceeds the stability bound "
                          f"{min(grid.spacings) / bmax:.3e}")

    def c_step(v, t_mid, step):
        V = coeffs.potential(t_mid, mesh, branch)
        Bs = coeffs.drift(t_mid, mesh)
        if Bs is None:      # the two half factors meet: one multiply, in place
            return np.multiply(v, np.exp(V * (0.5j * s * step)), out=v)
        phase = 1.0 if V is None else np.exp(0.5j * s * V * step / 2.0)

        def f(w):
            wh = transform(w.copy())
            return -0.5 * s * sum(b * transform(1j * k * wh, inverse=True)
                                  for b, k in zip(Bs, kmesh))
        v = phase * v
        return phase * (v + step * f(v + 0.5 * step * f(v)))

    out = []
    state_t, steps = data.t, 0
    for target in times:
        span = target - state_t
        if abs(span) >= 1e-15:
            nsteps = max(1, int(math.ceil(abs(span) / dt)))
            step = span / nsteps
            half = np.exp(-1j * s * xi2 * step / 4.0)
            full = half * half
            vh *= half
            for k in range(nsteps):
                if k:
                    vh *= full
                vh = transform(c_step(transform(vh, inverse=True), state_t + step / 2.0, step))
                state_t += step
            vh *= half
            steps += nsteps
        state_t = float(target)
        out.append(SchrState(grid, transform(vh.copy(), inverse=True), state_t, steps))
    return out


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


@dataclass
class CompareReport:
    times: np.ndarray
    errors: np.ndarray
    sup_error: float


def conjugate_compare(kg_run, schr_run, branch: SignBranch, c: float) -> CompareReport:
    """sup_t || e^{-(+/-)ic^2 t} u_KG(t) - v_Schr(t) ||_2 / || v(0) ||_2.

    ``kg_run`` is a list of KGState (envelopes are extracted here) or of
    SchrState already holding envelopes; ``schr_run`` is a list of SchrState
    on the same grid and times.
    """
    if len(kg_run) != len(schr_run):
        raise GridMismatch("runs must share output times")
    ref = schr_run[0].norm()
    errs = []
    for kg, sc in zip(kg_run, schr_run):
        if abs(kg.t - sc.t) > 1e-12 * (1 + abs(kg.t)):
            raise GridMismatch("mismatched output times")
        env = envelope(kg, branch) if isinstance(kg, KGState) else kg.v
        errs.append(SchrState(sc.grid, env - sc.v, kg.t).norm() / ref)
    errs = np.asarray(errs)
    return CompareReport(np.array([kg.t for kg in kg_run]), errs, float(errs.max()))


# ---------------------------------------------------------------------------
# grid Klein-Gordon operator, the envelope evolution, symmetry defect
# ---------------------------------------------------------------------------


def _symbol(k, key):
    """Spectral symbol prod_a (i k_a) of the derivative d_key."""
    sym = 1.0
    for a in key:
        sym = sym * (1j * k[a])
    return sym


def _operator_terms(M: MetricParams, c: float, zs, s: int) -> tuple:
    """(terms, c1): P's coefficient fields beyond its free multiplier, keyed by
    sorted derivative indices (one vanishing identically is left out), and the
    d'Alembertian's first-order c1, at spacetime coordinates zs = (t, x...),
    arrays that broadcast; s is the conjugating branch sign (0: P itself)."""
    n = len(zs)
    terms, c1 = {}, np.zeros(n)

    def add(key, coef):
        terms[key] = terms.get(key, 0.0) + coef

    if M.is_flat and all(a.is_zero for a in (M.beta, M.W) + M.B):
        return terms, c1
    z = _spacetime(zs[0], zs[1:])
    if not M.is_flat:
        bracket = np.sqrt(1.0 + np.sum(z * z, axis=-1))
        mv = eval_metric(M, z / bracket[..., None], 1.0 / c, grad=True)
        # light-speed fields from the natural-units ones, S = diag(c, 1, ...):
        # g^-1 = S^-1 G S^-1, d(g^-1)/dz_l = S^-1 (D G) S^-1 / <z>, and
        # d log sqrt|g| = -tr(g d(g^-1))/2 = -tr(g_nat D G)/(2 <z>), S cancelling
        unscale = np.ones(n)
        unscale[0] = 1.0 / c
        unscale = np.outer(unscale, unscale)         # S^-1 (.) S^-1, entrywise
        ginv = mv.G * unscale
        dginv = mv.dG * unscale / bracket[..., None, None, None]
        dlog = -0.5 * np.einsum("...ab,...lba->...l", mv.g, mv.dG) / bracket[..., None]
        c1 = np.einsum("...iij->...j", dginv) + np.einsum("...ij,...i->...j", ginv, dlog)
        rem = ginv - np.diag([-1.0 / c**2] + [1.0] * (n - 1))  # less the free g^-1
        for i in range(n):
            add((i,), c1[..., i])
            for j in range(i, n):
                add((i, j), (1.0 if i == j else 2.0) * rem[..., i, j])
            if s:
                add((i,), 2j * s * c * c * rem[..., 0, i])
        if s:
            add((), 1j * s * c * c * c1[..., 0] - c**4 * rem[..., 0, 0])
    if not M.beta.is_zero:
        beta = M.beta(z, c)
        add((0,), 1j * beta / c**2)
        if s:
            add((), -s * beta)
    for j, Bj in enumerate(M.B):
        if not Bj.is_zero:
            add((1 + j,), 1j * Bj(z, c))
    if not M.W.is_zero:
        add((), M.W(z, c))
    return {key: coef for key, coef in terms.items() if np.any(coef)}, c1


class ConjugatedOperator:
    """Grid action of the Klein-Gordon operator and its Euclidean adjoint.

    P = box_g - c^2 + i beta c^-2 d_t + i B . grad + W, with
    box_g u = g^{ij} d_i d_j u + c1_j d_j u and c1 the first-order divergence
    terms of the d'Alembertian.  ``branch=None`` gives P itself; a branch of
    sign s gives e^{-isc^2 t} P e^{isc^2 t}, in which d_t acts as
    d_t + isc^2: that adds 2isc^2 g^{0j} d_j, isc^2 c1_0, -s beta and
    -c^4 g^{00} - c^2 = -aleph_c (the finite-c asymptotic-mass coefficient).

    The free-metric part, with symbol (tau + sc^2)^2/c^2 - |xi|^2 - c^2
    (s = 0 unconjugated), is one exact Fourier multiplier; the metric's
    remainder and the lower-order coefficients act pointwise on spectral
    derivatives, and a term whose coefficient vanishes identically is not
    built.  Derivatives are spectral on the periodic spacetime grid; probes
    must be interior-supported.
    """

    def __init__(self, M: MetricParams, c: float, grid: BoxGrid,
                 branch: SignBranch | None):
        _check_scale(c)
        if grid.ndim != M.d + 1:
            raise GridMismatch("operator grid must be a spacetime grid")
        n = grid.ndim
        s = 0 if branch is None else branch.sign
        k = self.k = np.ix_(*[grid.axis_freqs(i) for i in range(n)])
        # (tau + sc^2)^2/c^2 - c^2 expanded, so a branch's c^2 terms cancel
        # exactly; kept as time and space parts, summed on the grid per apply
        self.mult_t = k[0] ** 2 / c**2 + 2 * s * k[0] + (s * s - 1) * c * c
        self.mult_x = -sum(kj * kj for kj in k[1:])
        self.terms, self.c1 = _operator_terms(     # open mesh: broadcast when used
            M, c, np.ix_(*[grid.axis_points(i) for i in range(n)]), s)

    def apply(self, u: np.ndarray, spec=None) -> np.ndarray:
        """P u; ``spec`` is F[u] when the caller has it, and is only read."""
        spec = transform(np.array(u, dtype=complex)) if spec is None else spec
        out = transform((self.mult_t + self.mult_x) * spec, inverse=True)
        for key, coef in self.terms.items():
            out += coef * (transform(_symbol(self.k, key) * spec, inverse=True) if key else u)
        return out

    def apply_with_spectrum(self, u: np.ndarray, spec: np.ndarray) -> tuple:
        """(P u, F[P u]) from u and its spectrum, which is only read; with no
        coefficient term P is its multiplier, so F[Pu] takes no transform."""
        if self.terms:
            out = self.apply(u, spec)
            return out, transform(out.copy())
        pspec = (self.mult_t + self.mult_x) * spec
        return transform(pspec.copy(), inverse=True), pspec

    def apply_adjoint(self, u: np.ndarray, spec=None) -> np.ndarray:
        """Euclidean L^2 adjoint: (a d^gamma)* = (-d)^gamma (conj(a) .), and a
        multiplier's adjoint is its conjugate; ``spec`` is F[u] (as in ``apply``)."""
        spec = transform(np.array(u, dtype=complex)) if spec is None else spec
        out = transform(np.conj(self.mult_t + self.mult_x) * spec, inverse=True)
        for key, coef in self.terms.items():
            v = np.conj(coef) * u
            out += (transform(np.conj(_symbol(self.k, key)) * transform(v), inverse=True)
                    if key else v)
        return out

    def symmetry_defect_apply(self, u: np.ndarray) -> np.ndarray:
        """(P - P*) u / 2i, from one transform of u."""
        spec = transform(np.array(u, dtype=complex))
        return (self.apply(u, spec) - self.apply_adjoint(u, spec)) / 2j


def kg_envelope_solve(psi0, branch: SignBranch, M: MetricParams, c: float,
                      times, grid: BoxGrid, dt: float | None = None) -> list:
    """Evolve e^{-isc^2 t} P e^{isc^2 t} v = 0, s the branch sign, for any metric.

    P is ``ConjugatedOperator``'s: its free part -c^-2 d_t^2 - 2is d_t + Lap and
    its coefficient fields, built once per RK4 stage time.  The (0, 0) term is
    solved for v_tt; a term led by a time index acts on v_t.  Derivatives in x
    are spectral; dt: default 0.5/c^2, finite and > 0, else InvalidInput.  v_t
    starts on the exact branch: v_t^ = is(omega - c^2) v^, less aleph v/(2is).
    """
    _check_scale(c)
    dt = 0.5 / c**2 if dt is None else dt
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidInput(f"time step dt={dt} must be finite and > 0")
    v = np.array(psi0, dtype=complex)
    if v.shape != tuple(grid.shape):
        raise GridMismatch(f"psi0 of shape {v.shape} is not on the grid {tuple(grid.shape)}")
    s, n = branch.sign, grid.ndim + 1
    mesh, xi2, k = grid.mesh(), _xi2(grid), (None, *grid.freq_mesh())  # k by spacetime axis
    times = np.atleast_1d(np.asarray(times, dtype=float))
    t = float(times[0]) if len(times) else 0.0
    free = [((0, 0), -1.0 / c**2), ((0,), -2j * s)] + [((j, j), 1.0) for j in range(1, n)]

    def terms_at(t):
        terms = _operator_terms(M, c, [t, *mesh], s)[0]
        for key, coef in free:
            terms[key] = terms.get(key, 0.0) + coef
        return terms.pop((0, 0)), terms

    def f(a, terms, y):
        """(v, v_t) -> (v_t, v_tt)."""
        yh = transform(y.copy(), axes=range(1, n))
        acc = 0.0
        for key, coef in terms.items():
            i = int(key[:1] == (0,))
            acc = acc + coef * (transform(_symbol(k, key[i:]) * yh[i], inverse=True)
                                if key[i:] else y[i])
        return np.stack([y[1], -acc / a])

    vt_hat = 1j * s * c * xi2 / (np.sqrt(c * c + xi2) + c) * transform(v.copy())
    y = np.stack([v, transform(vt_hat, inverse=True) - aleph(M, _spacetime(t, mesh)) * v / (2j * s)])
    co, out = terms_at(t), [SchrState(grid, v, t)]
    for target in times[1:]:
        nsteps = max(1, int(math.ceil(abs(target - t) / dt)))
        step = (target - t) / nsteps
        for _ in range(nsteps):
            mid, end = terms_at(t + 0.5 * step), terms_at(t + step)
            k1 = f(*co, y)
            k2 = f(*mid, y + 0.5 * step * k1)
            k3 = f(*mid, y + 0.5 * step * k2)
            y = y + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + f(*end, y + step * k3))
            co, t = end, t + step
        t = float(target)
        out.append(SchrState(grid, y[0].copy(), t))
    return out


@dataclass
class SymmetryDefectReport:
    coefficients: dict          # name -> complex field (masked region only)
    fitted_orders: dict         # name -> fitted spatial decay exponent
    max_abs: dict               # name -> max magnitude on the mask
    mask: np.ndarray


def symmetry_defect(M: MetricParams, c: float, grid: BoxGrid,
                    branch: SignBranch = SignBranch.MINUS) -> SymmetryDefectReport:
    """Extract the skew part (P - P*)/2i coefficient fields and their decay.

    Probes are a Gaussian bump of width min(sides)/14 and its products with
    the linear coordinates; the first-order operator's coefficients follow
    pointwise on the bump's support, and each is given a log-log decay fit
    against <z>.
    """
    op = ConjugatedOperator(M, c, grid, branch)
    mesh = grid.mesh()
    n = grid.ndim
    r2 = sum(m * m for m in mesh)
    phi = np.exp(-r2 / (2.0 * (min(grid.sides) / 14.0) ** 2))
    Qphi = op.symmetry_defect_apply(phi)
    # extraction divides by phi, amplifying round-off by 1/phi: report values
    # on a tight core mask, fit decay on a looser one
    mask_fit = phi > 1.0e-5
    mask = phi > 1.0e-2

    coeff = {}
    for i, name in enumerate(["r_t"] + [f"r_x{j}" for j in range(1, n)]):
        Qp = op.symmetry_defect_apply(mesh[i] * phi)
        ri = coeff[name] = np.zeros_like(Qphi)
        ri[mask_fit] = (Qp[mask_fit] - mesh[i][mask_fit] * Qphi[mask_fit]) / phi[mask_fit]
    dphi = [transform(1j * grid.freq_mesh()[i] * transform(phi), inverse=True) for i in range(n)]
    acc = Qphi.copy()
    for ri, d in zip(coeff.values(), dphi):
        acc -= ri * d
    r0 = coeff["r_0"] = np.zeros_like(Qphi)
    r0[mask_fit] = acc[mask_fit] / phi[mask_fit]

    orders, maxabs = {}, {}
    br = np.sqrt(1.0 + r2[mask_fit])     # <z> on the fit mask
    for name, f in coeff.items():
        mag = np.abs(f[mask_fit])
        maxabs[name] = float(np.max(np.abs(f[mask]), initial=0.0))
        if mag.max(initial=0.0) < 1.0e-13:
            orders[name] = -np.inf
            continue
        # shell-wise decay fit
        edges = np.geomspace(2.0, br.max() * 0.9, 12)
        xs, ys = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (br >= lo) & (br < hi)
            if sel.any():
                xs.append(math.sqrt(lo * hi))
                ys.append(float(mag[sel].max()))
        xs, ys = np.asarray(xs), np.asarray(ys)
        keep = ys > 1.0e-14 * mag.max()
        orders[name] = (float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])
                        if keep.sum() >= 3 else -np.inf)
    return SymmetryDefectReport(coeff, orders, maxabs, mask)


# ---------------------------------------------------------------------------
# mass trace, Gronwall bound, scattering profile
# ---------------------------------------------------------------------------


@dataclass
class MassTrace:
    times: np.ndarray
    M: np.ndarray
    dM_numeric: np.ndarray
    bound_rhs: np.ndarray
    ok: bool
    first_violation: float | None
    gronwall_ok: bool


def mass_trace(states) -> tuple[np.ndarray, np.ndarray]:
    ts = np.array([s.t for s in states])
    Ms = np.array([s.norm() ** 2 for s in states])
    return ts, Ms


def mass_bound_check(states, C_claim: float, rtol: float = 1.0e-8) -> MassTrace:
    """Check |dM/dt| <= C <t>^-2 M pointwise and the Gronwall envelope.

    dM/dt is a centered difference of the saved trace; the Gronwall factor
    uses int <t>^-2 dt = pi, i.e. M(T1) <= exp(C pi) M(T0) for T0 <= T1.
    """
    ts, Ms = mass_trace(states)
    dM = np.gradient(Ms, ts)
    bound = C_claim * Ms / (1.0 + ts**2)
    slack = rtol * np.max(Ms)
    # centered differences only in the interior
    bad = np.flatnonzero(np.abs(dM[1:-1]) > bound[1:-1] + slack)
    first = float(ts[1 + bad[0]]) if bad.size else None
    logM = np.log(Ms)
    gron = not np.max(logM - np.minimum.accumulate(logM)) > C_claim * math.pi + rtol
    return MassTrace(ts, Ms, dM, bound, first is None and gron, first, gron)


def _trig_interp(grid: BoxGrid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary points (npts, ndim).

    On an axis of side L and n points, mode m has k_m = dk m with dk = 2 pi/L.
    Writing m + n/2 = B a + b with B a power of two near sqrt(n) factorises
    the phase at q = x + L/2 as e^{iqk_m} = e^{iq dk (B a - n/2)} e^{iq dk b},
    so an axis costs npts (n/B + B) exponentials instead of npts n.  The
    axes are contracted last to first.
    """
    res = np.fft.fftshift(transform(values.copy())) / values.size   # axis index m + n/2
    for i in reversed(range(grid.ndim)):
        L, n = grid.sides[i], grid.ns[i]
        B = 1 << (n.bit_length() // 2)
        q = (points[:, i] + L / 2.0) * (2.0 * np.pi / L)
        outer = np.exp(1j * np.outer(q, B * np.arange(n // B) - n // 2))
        inner = np.exp(1j * np.outer(q, np.arange(B)))
        spec = "...ab,pa,pb->p..." if i == grid.ndim - 1 else "p...ab,pa,pb->p..."
        res = np.einsum(spec, res.reshape(res.shape[:-1] + (n // B, B)), outer, inner,
                        optimize=True)
    return res


def scattering_profile(state: SchrState, Xgrid: BoxGrid) -> GridField:
    """Rescaled profile (2 pi i t)^{d/2} e^{-i t |X|^2/2} v(t, tX) on an X-grid.

    Requires |t| >= 1 and t * X inside the spatial box (ResampleOverflow
    otherwise); uses exact trigonometric interpolation of the field.
    """
    t = state.t
    if abs(t) < 1.0:
        raise ResampleOverflow("profile needs |t| >= 1")
    d = state.grid.ndim
    Xmesh = Xgrid.mesh()
    pts = np.stack([m.ravel() for m in Xmesh], axis=-1) * t
    for i in range(d):
        if np.max(np.abs(pts[:, i])) > state.grid.sides[i] / 2.0:
            raise ResampleOverflow(
                "t X leaves the spatial box; enlarge the box or reduce |t|"
            )
    vals = _trig_interp(state.grid, state.v, pts).reshape(Xgrid.shape)
    X2 = sum(m * m for m in Xmesh)
    pref = (2.0j * math.pi * t) ** (d / 2.0)
    return GridField(Xgrid, pref * np.exp(-0.5j * t * X2) * vals)


def scattering_mass_identity(state: SchrState, prof: GridField) -> tuple[float, float]:
    """Returns (M(t), (2 pi)^-d ||profile||^2); equal up to quadrature error."""
    d = state.grid.ndim
    lhs = state.norm() ** 2
    rhs = (2.0 * math.pi) ** (-d) * prof.norm() ** 2
    return lhs, rhs
