"""Model PDE solvers: Klein-Gordon at finite c, its Schrodinger normal operator at c = inf.

Mode convention (fixed once): on the branch of sign s a Klein-Gordon mode is
u = e^{i(s omega t + xi.x)}, omega = c (c^2 + |xi|^2)^(1/2); its envelope v = e^{-isc^2 t} u
turns by the rest gap, v^(t) = v^(0) e^{is(omega - c^2)t}, with omega - c^2 written once
(``_rest_gap``).  At c = infinity the gap is |xi|^2/2: v solves -2is dv/dt + Lap v = 0,
the free Schrodinger equation of the branch.  The difference

    omega - c^2 - |xi|^2/2 = -|xi|^4/(8c^2) + O(c^-4)

is the source of the second-order non-relativistic convergence rate; for a shift
(g^{0j} != 0) the c = infinity limit is first order in c^-1.

Both envelope equations take one Strang stepper, ``_strang``: exact free half steps of the
twisted branch envelopes (two at finite c, one at c = infinity) around a midpoint kick,
kept in Fourier space so that the half steps between kicks fuse, at a cost per unit time
that does not grow with c; at c = infinity it is the Schrodinger split step.  Each regime has
one entry point, ``kg_envelope_solve`` and ``schrodinger_solve``, which takes the one free
propagator ``_free_run`` instead, exactly, where the equation has no term (``_has_terms``).
``_operator_terms`` is the one table of lower-order terms and the one ``eval_metric`` caller
(it forms D G = -h^2 G (DP) G and G - eta = -h^2 G P eta from the kernel's DP and P): at c
for ``ConjugatedOperator`` and ``kg_envelope_solve`` (one table per step for both branches,
the sign an array axis), at c = infinity for the normal operator (``normal_terms``).
``_apply_terms`` is the one applier of such a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMetric, GridMismatch, InvalidInput, ResampleOverflow, StepFailure
from .geometry import smooth_step
from .quantize import BoxGrid, GridField, transform
from .symbols import MetricParams, SignBranch, aleph, eval_metric

__all__ = [
    "SchrState",
    "normal_terms",
    "schrodinger_solve",
    "kg_envelope_solve",
    "conjugate_compare",
    "symmetry_defect",
    "MassTrace",
    "mass_trace",
    "mass_bound_check",
    "scattering_profile",
    "scattering_mass_identity",
]

MAX_STEPS = 10**7      # the most time steps one solver call may take


def _check_scale(x, name: str = "c"):
    """InvalidInput unless x, a light speed c or its inverse h = 1/c, is > 0 with
    x^2 and 1/x^2 (so x and 1/x too) finite and > 0: the solvers form c^2 and c^-2."""
    if not (x > 0.0 and 0.0 < x * x < math.inf and 1.0 / (x * x) < math.inf):
        raise InvalidInput(f"{name} = {x}: {name}^2 and 1/{name}^2 must be finite and > 0")


def _check_step(dt):
    """InvalidInput unless the time step dt and 1/dt are finite and > 0."""
    if not (0.0 < dt < math.inf and 1.0 / dt < math.inf):
        raise InvalidInput(f"dt = {dt}: dt and 1/dt must be finite and > 0")


def _check_times(times, dt=None, t0=None) -> np.ndarray:
    """The output times as a float array; InvalidInput unless each is finite and, given
    a step dt, the intervals from t0 (default: the first time) take <= MAX_STEPS in all."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.isfinite(times).all():
        raise InvalidInput(f"output times must be finite, not {times}")
    with np.errstate(over="ignore"):                # 10^400 steps count as inf
        spans = np.abs(np.diff(times, prepend=times[:1] if t0 is None else t0))
        if dt is not None and np.sum(np.ceil(spans / dt)) > MAX_STEPS:
            raise InvalidInput(f"the times take over MAX_STEPS = {MAX_STEPS} steps of dt = {dt}")
    return times


def _xi2(grid: BoxGrid) -> np.ndarray:
    return sum(m * m for m in grid.freq_mesh())


def _rest_gap(c: float, xi2):
    """omega - c^2 = |xi|^2/(1 + (1 + |xi|^2/c^2)^(1/2)), no c^2 cancelling; |xi|^2/2
    at c = inf."""
    return xi2 / (1.0 + np.sqrt(1.0 + xi2 / (c * c)))


def _spacetime(t: float, mesh) -> np.ndarray:
    """Points (t, x) on a spatial mesh, with the coordinate index last."""
    return np.stack(np.broadcast_arrays(t, *mesh), axis=-1)


# ---------------------------------------------------------------------------
# free propagator, Schrodinger normal operator, envelope comparison
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
        if self.v.shape != tuple(self.grid.shape):
            raise GridMismatch(f"v of shape {self.v.shape} is not on its grid {self.grid.shape}")
        if not math.isfinite(self.t):
            raise InvalidInput(f"a state's time must be finite, not {self.t}")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.v) ** 2) * self.grid.dvol))


def normal_terms(M: MetricParams) -> Callable | None:
    """The c = infinity rows of ``_operator_terms`` (V = W - s beta - aleph, i Re B_j) as the
    table (t, mesh, s) of ``schrodinger_solve``, or None, its exact path, where they are empty
    (alpha, beta, B and W zero).  alpha is the one metric profile that the limit keeps: without
    aleph, the table is normal_terms(replace(M, alpha=ClassicalSymbolProfile.zero()))."""
    if not _has_terms(M, math.inf):
        return None
    return lambda t, mesh, s: _operator_terms(M, math.inf, [t, *mesh], s)


def _free_run(data: SchrState, s: int, c: float, times) -> list:
    """The free envelopes at ``times`` of ``data`` on the branch of sign s,
    v^(t) = v^ e^{is(omega - c^2)(t - data.t)}: one multiplier and one inverse
    transform per time.  At c = inf this is the free Schrodinger propagator."""
    vh = transform(data.v.copy())
    phase = 1j * s * _rest_gap(c, _xi2(data.grid))
    return [SchrState(data.grid, transform(vh * np.exp(phase * (t - data.t)), inverse=True),
                      float(t)) for t in times]


def _strang(grid: BoxGrid, c: float, sign: int, spectra: list, t: float, times, terms,
            dt: float) -> list:
    """Strang steps of the twisted branch envelopes w_r = e^{-irc^2 t}(u + r u_t/(i omega))/2
    from their ``spectra`` at t: r = sign and -sign at finite c, sign alone at c = inf.

    A step of span h <= dt is an exact free half step e^{ir gap h/2} (fused between steps),
    the kick at t + h/2 and another half step.  Branch r's kick has the rate
    -(ir/2)(c^2/omega)[kappa T w_r], one table T = ``terms(t + h/2, mesh, r)`` for every r (r
    an array of signs on the branch axis; the scalar sign at c = inf) with d_t acting as
    ir gap, kappa = 1/(1 - c^2 T(0, 0)) (DegenerateMetric unless > 0 at every midpoint and
    output time, the start included); its pointwise part V = kappa T() is the factor
    e^{-irVh/4} on both sides of a midpoint step of the rest, which at finite c holds the
    other branch's rate times the exact mean of e^{-2irc^2 tau} over the stage.  At c = inf
    T holds () and (j,) alone (else InvalidInput), a step over min(dx)/max|B| raises
    StepFailure, and with no drift the factors meet in one multiply.
    Returns (state, spectra) at each time, the state's v = sum_r e^{i(r - sign)c^2 t} w_r.
    """
    finite = c < math.inf
    rs = np.reshape((sign, -sign) if finite else (sign,), (-1,) + (1,) * grid.ndim)
    space, rate = range(1, grid.ndim + 1), 0.5j * (-rs)     # rate: -ir/2 by branch
    gap, mesh = _rest_gap(c, _xi2(grid)), grid.mesh()
    k = (rs * gap, *grid.freq_mesh())     # by spacetime axis
    axes, dx = {(j,) for j in space}, min(grid.spacings)

    def table(t_mid, h):
        """V (or None) and the rows of the midpoint step: kappa T, or at c = inf the drift."""
        T = terms(t_mid, mesh, rs if finite else sign)
        if finite:
            den = 1.0 - c * c * T.get((0, 0), 0.0)
            if not np.all(den > 0.0):
                raise DegenerateMetric(f"t is no time function: -c^2 g^00 <= 0 at t = {t_mid}")
            kappa = 1.0 / den
            return kappa * T.get((), 0.0), {key: kappa * a for key, a in T.items()}
        drift = {key: b for key, b in T.items() if key}
        if not drift.keys() <= axes:
            raise InvalidInput(f"the normal operator's terms are () and (j,), 1 <= j <= "
                               f"{grid.ndim}, not {sorted(T)}")
        if drift:
            bmax = max(float(np.max(np.abs(b))) for b in drift.values())
            if abs(h) * bmax > dx:
                raise StepFailure(f"step {abs(h)} at t = {t_mid} > dx/max|B| = {dx / bmax:.3e}")
        return T.get(()), drift

    def rates(V, rows, W, t0, span):
        """The midpoint step's rates of W, the other branch's over [t0, t0 + span]."""
        y = _apply_terms(rows, k, transform(W.copy(), space), W, np.zeros_like(W), space)
        if not finite:
            return rate * y
        y = transform(transform(y, space) / (1.0 + gap / (c * c)),    # c^2/omega
                      space, inverse=True)
        mean = np.exp(-2j * sign * c * c * (t0 + span / 2.0)) * np.sinc(c * c * span / np.pi)
        return rate * (y + np.reshape([mean, np.conj(mean)], rs.shape) * y[::-1] - V * W)

    def kick(W, t0, h):     # of the branches' envelopes W; in place where no row is given
        V, rows = table(t0 + h / 2.0, h)
        if not rows:        # the two half factors meet
            if V is not None:
                np.multiply(W, np.exp(V * (rate * h)), out=W)
            return W
        phase = 1.0 if V is None else np.exp(rate * V * h / 2.0)
        W = phase * W
        mid = W + 0.5 * h * rates(V, rows, W, t0, h / 2.0)
        return phase * (W + h * rates(V, rows, mid, t0, h))

    W, out, steps = np.stack(spectra), [], 0
    for target in times:
        span = target - t
        if abs(span) >= 1e-15:
            nsteps = max(1, int(math.ceil(abs(span) / dt)))
            h = span / nsteps
            half = np.exp(1j * rs * gap * h / 2.0)
            full = half * half
            for i in range(nsteps):
                W *= full if i else half
                W = transform(kick(transform(W, space, inverse=True), t, h), space)
                t += h
            W *= half
            steps += nsteps
        t = float(target)
        if finite:      # kappa at each output time too, the start included: no midpoint is
            table(t, 0.0)
        vh = W[0] + np.exp(-2j * sign * c * c * t) * W[1] if finite else W[0].copy()
        out.append((SchrState(grid, transform(vh, inverse=True), t, steps), W.copy()))
    return out


def schrodinger_solve(data: SchrState, branch: SignBranch, times,
                      terms: Callable | None = None, dt: float = 0.01) -> list:
    """Strang split-step solution of the normal operator equation: ``_strang`` at c = inf.

    d_t v = s (i/2)(Lap + i B . grad + V) v, s = -branch sign, with V and i B_j the fields
    of the table ``terms(t, mesh, s)`` at time t on the spatial mesh, keyed as
    ``ConjugatedOperator``'s terms: () is V and (j,), j >= 1 a spatial axis, is i B_j; a key
    left out is zero, any other key an InvalidInput.  An output interval of span T takes
    ceil(|T|/dt) steps, MAX_STEPS in all (dt finite and > 0; times finite).  A step costs two
    FFTs: the kinetic factor e^{-is|xi|^2 h/4} meets its neighbour between steps, and the
    kick is e^{isV h/4} before and after a midpoint drift step with spectral gradients, with
    no drift e^{isV h/2}, with no term nothing (StepFailure if a step exceeds min(dx)/max|B|
    at its midpoint).  With ``terms`` None the answer is exact, ``_free_run`` at c = inf.
    """
    _check_step(dt)
    times = _check_times(times, None if terms is None else dt, data.t)
    if terms is None:
        return _free_run(data, branch.sign, math.inf, times)
    run = _strang(data.grid, math.inf, branch.sign, [transform(data.v.copy())], data.t,
                  times, terms, dt)
    return [state for state, _ in run]


def conjugate_compare(kg_run, schr_run) -> float:
    """sup_t || v_KG(t) - v_Schr(t) ||_2 / || v_Schr(t0) ||_2 for two lists of SchrState
    envelopes on the same grid and output times (an envelope carries its branch)."""
    if len(kg_run) != len(schr_run):
        raise GridMismatch("runs must share output times")
    if not schr_run:
        raise InvalidInput("the comparison needs at least one output time")
    ref = schr_run[0].norm()
    if not ref > 0.0:
        raise InvalidInput("the comparison's reference state has zero norm")
    errs = []
    for kg, sc in zip(kg_run, schr_run):
        if abs(kg.t - sc.t) > 1e-12 * (1 + abs(kg.t)) or kg.grid != sc.grid:
            raise GridMismatch("the runs' output times or grids differ")
        errs.append(SchrState(sc.grid, kg.v - sc.v, kg.t).norm() / ref)
    return float(np.max(errs))


# ---------------------------------------------------------------------------
# grid Klein-Gordon operator, the envelope evolution, symmetry defect
# ---------------------------------------------------------------------------


def _symbol(k, key):
    """Spectral symbol prod_a (i k_a) of the derivative d_key."""
    return math.prod((1j * k[a] for a in key), start=1.0)


def _apply_terms(terms, k, spec, u, out, axes=None):
    """Add sum over the table of coef d^key u to out, and return out: d^key is spectral, from
    u's spectrum ``spec`` over ``axes`` (None: all; k: wavenumbers by key index), () is u."""
    for key, coef in terms.items():
        out += coef * (transform(_symbol(k, key) * spec, axes, inverse=True) if key else u)
    return out


def _has_terms(M: MetricParams, c: float) -> bool:
    """Whether ``_operator_terms`` at c can hold a row: false just when beta, B and W are zero
    and the metric is flat (at c = inf, where aleph = -alpha is all it leaves: alpha zero)."""
    return not (all(p.is_zero for p in (M.beta, M.W, *M.B))
                and (M.alpha.is_zero if math.isinf(c) else M.is_flat))


def _operator_terms(M: MetricParams, c: float, zs, s) -> dict:
    """P's coefficient fields beyond its free multiplier, keyed by sorted derivative indices
    (one vanishing identically is left out), at spacetime coordinates zs = (t, x...), 1 + M.d
    arrays that broadcast (else GridMismatch).  s is the conjugating branch sign (0: P
    itself), or an array of signs that broadcasts against zs, the branches on its leading
    axis: a row linear in s then holds every branch, and the metric is evaluated once.  At
    c = inf, the h = 0 face, the metric leaves only -c^4 (g^00 + c^-2) = -aleph: for s != 0
    the terms are the normal operator's, () = W - s beta - aleph and (j,) = i Re B_j."""
    n = len(zs)
    if n != 1 + M.d:
        raise GridMismatch(f"a metric of d = {M.d} needs {1 + M.d} spacetime coordinates, not {n}")
    terms, conj = {}, np.any(s)        # conj: a sign is given

    def add(key, coef):
        terms[key] = terms.get(key, 0.0) + coef

    if not _has_terms(M, c):
        return terms
    z = _spacetime(zs[0], zs[1:])
    if math.isinf(c):
        if conj and not M.is_flat:
            add((), -aleph(M, z))
    elif not M.is_flat:
        bracket = np.sqrt(1.0 + np.sum(z * z, axis=-1))
        mv = eval_metric(M, z / bracket[..., None], 1.0 / c, grad=True)
        # light-speed fields from the natural-units ones, S = diag(c, 1, ...):
        # g^-1 = S^-1 G S^-1, d(g^-1)/dz_l = S^-1 (D G) S^-1 / <z> with D G = -h^2 G (DP) G,
        # and d log sqrt|g| = -tr(g d(g^-1))/2 = -tr(g_nat D G)/(2 <z>), S cancelling
        unscale = np.ones(n)
        unscale[0] = 1.0 / c
        unscale = np.outer(unscale, unscale)         # S^-1 (.) S^-1, entrywise
        ginv = mv.G * unscale
        dG = -(1.0 / c) ** 2 * (mv.G[..., None, :, :] @ mv.DP @ mv.G[..., None, :, :])
        dginv = dG * unscale / bracket[..., None, None, None]
        dlog = -0.5 * np.einsum("...ab,...lba->...l", mv.g, dG) / bracket[..., None]
        c1 = np.einsum("...iij->...j", dginv) + np.einsum("...ij,...i->...j", ginv, dlog)
        # g^-1 less the free one, S^-1 (G - eta) S^-1 with G - eta = -h^2 G P eta exactly
        rem = (mv.G @ mv.P) * (-(1.0 / c) ** 2 * unscale * np.append(-1.0, np.ones(n - 1)))
        for i in range(n):
            add((i,), c1[..., i])
            for j in range(i, n):
                add((i, j), (1.0 if i == j else 2.0) * rem[..., i, j])
            if conj:
                add((i,), 2j * s * c * c * rem[..., 0, i])
        if conj:
            add((), 1j * s * c * c * c1[..., 0] - c**4 * rem[..., 0, 0])
    if not M.beta.is_zero:
        beta = M.beta(z, c)
        if c < math.inf:        # the d_t row vanishes at c = inf: not built
            add((0,), 1j * beta / c**2)
        if conj:
            add((), -s * beta)
    for j, Bj in enumerate(M.B):
        if not Bj.is_zero:
            add((1 + j,), 1j * Bj(z, c))
    if not M.W.is_zero:
        add((), M.W(z, c))
    return {key: coef for key, coef in terms.items() if np.any(coef)}


class ConjugatedOperator:
    """Grid action of the Klein-Gordon operator.

    P = box_g - c^2 + i beta c^-2 d_t + i B . grad + W, with
    box_g u = g^{ij} d_i d_j u + c1_j d_j u and c1 the first-order divergence
    terms of the d'Alembertian.  ``branch=None`` gives P itself; a branch of
    sign s gives e^{-isc^2 t} P e^{isc^2 t}, in which d_t acts as
    d_t + isc^2: that adds 2isc^2 g^{0j} d_j, isc^2 c1_0, -s beta and
    -c^4 g^{00} - c^2 = -aleph_c (the finite-c asymptotic-mass coefficient).

    The free-metric part, with symbol (tau + sc^2)^2/c^2 - |xi|^2 - c^2 (s = 0
    unconjugated), is one exact Fourier multiplier ``mult``, summed on the grid once at
    construction; the terms table (the metric's remainder and the lower-order
    coefficients, a vanishing one left out) acts through ``_apply_terms``.  Derivatives
    are spectral on the periodic spacetime grid, so inputs must be interior-supported.
    """

    def __init__(self, M: MetricParams, c: float, grid: BoxGrid,
                 branch: SignBranch | None):
        _check_scale(c)
        s = 0 if branch is None else branch.sign
        k = self.k = grid.freq_mesh(sparse=True)
        # (tau + sc^2)^2/c^2 - c^2 expanded, so a branch's c^2 terms cancel exactly
        self.mult = (k[0] ** 2 / c**2 + 2 * s * k[0] + (s * s - 1) * c * c
                     - sum(kj * kj for kj in k[1:]))
        self.terms = _operator_terms(M, c, grid.mesh(sparse=True), s)   # broadcast when used

    def apply(self, u: np.ndarray, spec=None) -> np.ndarray:
        """P u; ``spec`` is F[u] when the caller has it, and is only read."""
        spec = transform(np.array(u, dtype=complex)) if spec is None else spec
        return _apply_terms(self.terms, self.k, spec, u, transform(self.mult * spec, inverse=True))

    def apply_to_spectrum(self, spec: np.ndarray, form_u) -> np.ndarray:
        """F[P u], a new array, from F[u], which is only read, and ``form_u()``, which
        returns u and is called only where P has a coefficient term; with none P is its
        multiplier p, and F[Pu] = p F[u] takes no transform."""
        return transform(self.apply(form_u(), spec)) if self.terms else self.mult * spec


def kg_envelope_solve(psi0, branch: SignBranch, M: MetricParams, c: float,
                      times, grid: BoxGrid, dt: float = 0.01) -> list:
    """Evolve e^{-isc^2 t} P e^{isc^2 t} v = 0, s the branch sign, for any metric: ``_strang``
    at c of both twisted branches with ``ConjugatedOperator``'s terms, at a cost per unit time
    that does not grow with c.  v = w_s + e^{-2isc^2 t} w_-s starts on the exact branch with
    v_t^ = is(omega - c^2) v^ less aleph v/(2is): w_s^ = v^ + x^, w_-s^ = -e^{2isc^2 t} x^ and
    x^ = F[aleph v]/(4 omega); with no term (the free metric) it is exact, ``_free_run`` at c
    from v = psi0 at times[0], and steps none.  c, dt and the times must be finite, c, dt > 0
    and the steps <= MAX_STEPS, else InvalidInput; psi0 off the grid or a metric of another
    dimension is a GridMismatch, one with g^00 >= 0 at a step's midpoint or an output time
    (t no time function) a DegenerateMetric."""
    _check_scale(c)
    _check_step(dt)
    free = not _has_terms(M, c)
    times = _check_times(times, None if free else dt)
    if not len(times):
        return []
    if M.d != grid.ndim:
        raise GridMismatch(f"a metric of d = {M.d} on a grid of dimension {grid.ndim}")
    t, s = float(times[0]), branch.sign
    data = SchrState(grid, psi0, t)     # GridMismatch off the grid
    if free:
        return _free_run(data, s, c, times)
    v = data.v
    omega = c * c + _rest_gap(c, _xi2(grid))
    x = transform(aleph(M, _spacetime(t, grid.mesh())) * v) / (4.0 * omega)
    run = _strang(grid, c, s, [transform(v.copy()) + x, -np.exp(2j * s * c * c * t) * x], t,
                  times, lambda t, mesh, r: _operator_terms(M, c, [t, *mesh], r), dt)
    return [state for state, _ in run]


@dataclass
class SymmetryDefectReport:
    coefficients: dict          # name -> complex field, filled on the fit mask, 0 off it
    fitted_orders: dict         # name -> fitted spatial decay exponent
    max_abs: dict               # name -> max magnitude on the mask
    mask: np.ndarray


def symmetry_defect(M: MetricParams, c: float, grid: BoxGrid,
                    branch: SignBranch | None = SignBranch.MINUS) -> SymmetryDefectReport:
    """The skew part (P - P*)/2i = sum_i r_i d_i + r_0 of ``ConjugatedOperator``'s P (P* its
    Euclidean adjoint) read off the terms table by Leibniz, the free multiplier being real:
    a row a adds Im a to r_0; a d_i adds -i Re a to r_i and d_i(conj a)/2i to r_0; a d_i d_j
    (a real) adds -d_j(conj a)/2i to r_i, -d_i(conj a)/2i to r_j, -d_i d_j(conj a)/2i to r_0.
    Derivatives are spectral, of conj(a) times a cutoff, 1 on the fit mask (a Gaussian of width
    min(sides)/14 above 1e-5; maxima: above 1e-2) and 0 from radius min(sides)/2 out, so the
    periodic seam adds no ringing.  Decay orders are log-log fits of maxima on shells of <z> >= 2
    (-inf for a field below 1e-13; InvalidInput if the fit mask spans fewer than 3 shells).
    """
    op = ConjugatedOperator(M, c, grid, branch)
    r2, n = sum(m * m for m in grid.mesh()), grid.ndim
    phi = np.exp(-r2 / (2.0 * (min(grid.sides) / 14.0) ** 2))
    mask_fit, mask = phi > 1.0e-5, phi > 1.0e-2
    r_fit = math.sqrt(r2[mask_fit].max())         # the fit mask's radius
    cutoff = 1.0 - smooth_step((np.sqrt(r2) - r_fit) / (min(grid.sides) / 2.0 - r_fit))
    r = np.zeros((n + 1,) + tuple(grid.shape), dtype=complex)      # r_t, r_x1, ..., r_0
    for key, a in op.terms.items():
        if not key:
            r[n] += np.imag(a)
            continue
        ah = transform(cutoff * np.conj(a))
        d = {sub: transform(_symbol(op.k, sub) * ah, inverse=True) / 2j     # d^sub(conj a)/2i
             for sub in {key, key[:1], key[1:]} - {()}}
        if len(key) == 1:
            r[key] -= 1j * np.real(a)
            r[n] += d[key]
        else:
            r[n] -= d[key]
            r[key[0]] -= d[key[1:]]
            r[key[1]] -= d[key[:1]]
    coeff = {name: np.where(mask_fit, f, 0.0)
             for name, f in zip(["r_t"] + [f"r_x{j}" for j in range(1, n)] + ["r_0"], r)}

    orders, maxabs = {}, {}
    br = np.sqrt(1.0 + r2[mask_fit])     # <z> on the fit mask
    edges = np.geomspace(2.0, br.max() * 0.9, 12)
    shells = [(br >= lo) & (br < hi) for lo, hi in zip(edges[:-1], edges[1:])]
    xs = np.log(np.sqrt(edges[:-1] * edges[1:]))        # the shells' log mid-radii
    for name, f in coeff.items():
        mag = np.abs(f[mask_fit])
        maxabs[name] = float(np.max(np.abs(f[mask]), initial=0.0))
        ys = np.array([mag[sel].max(initial=0.0) for sel in shells])
        keep = ys > 1.0e-14 * mag.max(initial=0.0)
        if mag.max(initial=0.0) < 1.0e-13:
            orders[name] = -np.inf
        elif keep.sum() < 3:
            raise InvalidInput(f"{name}'s decay fit spans {keep.sum()} shells of <z> >= 2, not 3")
        else:
            orders[name] = float(np.polyfit(xs[keep], np.log(ys[keep]), 1)[0])
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

    dM/dt is a centered difference of two or more states, C a finite claim >= 0 (else
    InvalidInput), and a mass that is not finite fails; the Gronwall factor uses
    int <t>^-2 dt = pi: M(T1) <= exp(C pi) M(T0) for T0 <= T1.
    """
    if len(states) < 2:
        raise InvalidInput(f"the mass bound needs at least two states, not {len(states)}")
    if not 0.0 <= C_claim < math.inf:
        raise InvalidInput(f"the mass bound needs a finite C_claim >= 0, not {C_claim}")
    ts, Ms = mass_trace(states)
    with np.errstate(divide="ignore", invalid="ignore"):    # NaN where M is not finite or 0
        dM = np.gradient(Ms, ts)
        bound = C_claim * Ms / (1.0 + ts**2)
        slack = rtol * np.max(Ms)
        # centered differences only in the interior, where a mass that is not finite violates
        bad = np.flatnonzero(~((np.abs(dM) <= bound + slack) & np.isfinite(Ms))[1:-1])
        logM = np.log(Ms)
        gron = bool(np.max(logM - np.minimum.accumulate(logM)) <= C_claim * math.pi + rtol)
    first = float(ts[1 + bad[0]]) if bad.size else None
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

    Requires |t| >= 1 and t * X inside the spatial box (else ResampleOverflow) and an
    X-grid of the state's dimension (else GridMismatch); exact trigonometric interpolation.
    """
    t = state.t
    if abs(t) < 1.0:
        raise ResampleOverflow("profile needs |t| >= 1")
    d = state.grid.ndim
    if Xgrid.ndim != d:
        raise GridMismatch(f"a {Xgrid.ndim}-d X-grid for a {d}-d state")
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
