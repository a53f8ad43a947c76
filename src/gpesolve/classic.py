"""Imaginary-time baselines (forward/backward Euler, Crank-Nicolson), the
preconditioned MINRES inner solver for the implicit schemes, and spectral
analysis tools for the linear model problem.

The gradient flow  d_t phi = -(H_phi phi - lambda phi)  is discretized per
step with the nonlinear density and lambda frozen at the current iterate,
followed by projection back to the unit sphere.  The six schemes are one
theta-scheme with implicit weight w (WEIGHTS), the share of H taken at the
new time: 0 for forward Euler, 1/2 for Crank-Nicolson, 1 for backward
Euler.  The lambda-variants replace H by H - lambda, so one backward-Euler
step with the shift equals one step without it at the effective stepsize
dt/(1 - dt*lambda).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import model, precond
from .model import ModelParams
from .optim import (DIVERGED, INNER_SOLVER_FAILED, STOP_ENERGY, SolveResult, Stop, check_options,
                    drive, start_iterate)
from .spectral import FFTCounter, Grid, WaveField, is_number, norm

FE = "fe"
FE_LAMBDA = "fe_lambda"
BE = "be"
BE_LAMBDA = "be_lambda"
CN = "cn"
CN_LAMBDA = "cn_lambda"
# (w, s) of each scheme: the implicit weight w, the share of H taken at the
# new time, and s = 1 where the `_lambda` suffix replaces H by H - lambda
WEIGHTS = {FE: (0.0, 0), FE_LAMBDA: (0.0, 1), BE: (1.0, 0), BE_LAMBDA: (1.0, 1),
           CN: (0.5, 0), CN_LAMBDA: (0.5, 1)}
SCHEMES = tuple(WEIGHTS)


def scheme_weight(scheme: str) -> tuple[float, int]:
    """(w, s) of `scheme` in WEIGHTS; ValueError for an unknown scheme."""
    if scheme not in WEIGHTS:
        raise ValueError(f"unknown scheme {scheme!r}")
    return WEIGHTS[scheme]


def check_precond(scheme: str, kind: str) -> None:
    """Raise ValueError unless `kind` can precondition the MINRES solves of
    `scheme`.  MINRES needs a Hermitian positive definite preconditioner
    (precond.HERMITIAN); the explicit schemes (w = 0) read none."""
    if kind not in precond.KINDS:
        raise ValueError(f"unknown preconditioner {kind!r}")
    if scheme_weight(scheme)[0] > 0 and kind not in precond.HERMITIAN:
        raise ValueError(
            f"precond {kind!r} is not Hermitian, but the MINRES solves of the implicit "
            f"scheme {scheme!r} need a Hermitian positive definite preconditioner")


@dataclass
class SchemeKind:
    """Imaginary-time scheme selection and inner-solver controls."""

    scheme: str = BE_LAMBDA
    dt: float = 0.01
    inner_tol: float = 1e-10
    inner_max_iter: int = 2000

    def __post_init__(self) -> None:
        scheme_weight(self.scheme)  # raises ValueError for an unknown scheme
        if not (is_number(self.dt) and math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if not (is_number(self.inner_tol) and math.isfinite(self.inner_tol)
                and self.inner_tol > 0):
            raise ValueError(f"inner_tol must be finite and positive, got {self.inner_tol!r}")
        if not (is_number(self.inner_max_iter, numbers.Integral) and self.inner_max_iter >= 1):
            raise ValueError(f"inner_max_iter must be a positive integer, got "
                             f"{self.inner_max_iter!r}")


class KrylovError(RuntimeError):
    """MINRES failed; carries the best iterate and its residual norm."""

    def __init__(self, message: str, best: np.ndarray, residual: float, iterations: int):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


def _realify(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real.ravel(), z.imag.ravel()])


def krylov_solve(
    apply_a,
    b: WaveField,
    p: precond.Preconditioner | None = None,
    tol: float = 1e-10,
    max_iter: int = 2000,
    counter: FFTCounter | None = None,
) -> tuple[WaveField, int]:
    """Solve A x = b by preconditioned MINRES for a Hermitian operator A.

    `apply_a` maps grid values to grid values and must be Hermitian under
    the discrete inner product; the preconditioner must be Hermitian
    positive definite.  Then the Lanczos coefficients alpha = Re<v, Av> and
    beta = sqrt(Re<r, Pr>) are real, and MINRES (Paige & Saunders 1975)
    runs on vectors of b's dtype with its real Givens recursion.  The
    solver owns the array `apply_a` returns and updates it in place, so
    `apply_a` must return a fresh array or its argument itself, which the
    solver then copies.  Every other vector of the recursion is written
    into arrays allocated once per solve; b is left alone.

    One Krylov run, from x = 0: whenever the recursive estimate of the
    P-norm residual falls to its target, first tol times its start value,
    the true relative residual ||b - Ax|| / ||b|| is computed.  At or below
    tol the solve returns; otherwise the target is tightened in proportion
    and the same recursion goes on.  Returns (x, iteration count), the count
    excluding those checks.  Raises KrylovError on a non-finite value or a
    preconditioner that is not positive definite, and when the run ends
    (max_iter, or an invariant Krylov subspace) with the relative residual
    above max(10 tol, 1e-12).
    """
    grid = b.grid
    rhs = b.values
    x = np.zeros_like(rhs)
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return WaveField(grid, x), 0

    apply_p = None if p is None else p.apply_values

    def fail(why: str, res: float):
        return KrylovError(f"MINRES did not converge ({why} after {iters} iterations, "
                           f"rel residual={res:.3e})", best=x, residual=res, iterations=iters)

    # Re<a, b> is float(np.vdot(a, b).real), written out: no helper call
    iters = 0
    r1 = r2 = rhs
    y = r2 if apply_p is None else apply_p(r2, counter)
    beta = float(np.vdot(r2, y).real)
    if not (math.isfinite(beta) and beta > 0.0):
        raise fail("preconditioned norm of b is not positive", 1.0)
    beta = math.sqrt(beta)
    old_beta = 0.0
    eps = dbar = 0.0
    cs, sn = -1.0, 0.0
    phibar = beta
    target = tol * beta
    v, w, w1, w2, tmp = np.zeros((5,) + x.shape, x.dtype)
    res = 1.0  # true relative residual of the current x
    while iters < max_iter:
        iters += 1
        # Lanczos step: v_k, and the next residual r2 = beta_{k+1} P^-1 v_{k+1}
        np.multiply(y, 1.0 / beta, out=v)
        y = apply_a(v)
        if y is v:
            y = v.copy()
        if iters >= 2:
            y -= np.multiply(r1, beta / old_beta, out=tmp)
        alpha = float(np.vdot(v, y).real)
        y -= np.multiply(r2, alpha / beta, out=tmp)
        r1, r2 = r2, y
        y = r2 if apply_p is None else apply_p(r2, counter)
        old_beta = beta
        beta = float(np.vdot(r2, y).real)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise fail("non-finite value", math.nan)
        if beta < 0.0:
            raise fail("preconditioner not positive definite", res)
        beta = math.sqrt(beta)
        # apply the previous rotation, then form the next one
        old_eps = eps
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        eps = sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        if gamma == 0.0:
            raise fail("singular operator", res)
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar *= sn
        # w = (v - old_eps w1 - delta w2) / gamma, into the array w1 frees
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(w1, old_eps, out=w), out=w)
        w -= np.multiply(w2, delta, out=tmp)
        w *= 1.0 / gamma
        x += np.multiply(w, phi, out=tmp)
        res = math.nan
        if phibar <= target:
            res = float(np.linalg.norm(rhs - apply_a(x))) / b_norm
            if not math.isfinite(res):
                raise fail("non-finite value", res)
            if res <= tol:
                return WaveField(grid, x), iters
            if beta == 0.0:
                break  # invariant Krylov subspace: the run cannot go on
            target = phibar * min(0.5, 0.5 * tol / res)
    if math.isnan(res):
        res = float(np.linalg.norm(rhs - apply_a(x))) / b_norm
    if math.isfinite(res) and res <= max(10.0 * tol, 1e-12):
        return WaveField(grid, x), iters
    raise fail("breakdown" if iters < max_iter else f"max_iter={max_iter} reached", res)


def imaginary_time_step(
    phi_n: WaveField | model.Evaluation,
    scheme: SchemeKind,
    params: ModelParams,
    precond_kind: str = precond.IDENTITY,
    shift: str | float = "adaptive",
    counter: FFTCounter | None = None,
) -> tuple[WaveField, int]:
    """One step of the weighted scheme, followed by sphere projection.

    With (w, s) the scheme's weight and shift (WEIGHTS) and A = H - s*lambda,
    the density and lambda frozen at phi_n: w = 0 updates directly,
    phi~ = phi_n - dt A phi_n; otherwise preconditioned MINRES solves the
    Hermitian system (1/dt + w A) phi~ = phi_n/dt - (1 - w) A phi_n.
    phi_n may be given as its model.Evaluation, which the step then reads
    instead of evaluating phi_n again.  Returns (phi_{n+1}, of phi_n's dtype,
    and the inner iteration count).  Raises optim.Stop(diverged) when the
    preconditioner shift is not positive or the field before projection has
    zero or non-finite norm.  A run (run_imaginary_time) takes the same step
    with one preconditioner refreshed at each iterate; this entry point
    makes its own.
    """
    check_precond(scheme.scheme, precond_kind)
    ev = phi_n if isinstance(phi_n, model.Evaluation) else model.evaluate(phi_n, params, counter)
    return _step(ev, scheme, params, _preconditioner(scheme, precond_kind, ev.phi), shift,
                 counter)


def _preconditioner(scheme: SchemeKind, kind: str,
                    phi: WaveField) -> precond.Preconditioner | None:
    """The preconditioner the MINRES solves of `scheme` read, of phi's dtype:
    None for the identity and for an explicit scheme, which solves nothing."""
    if kind == precond.IDENTITY or scheme_weight(scheme.scheme)[0] == 0.0:
        return None
    return precond.Preconditioner(kind, phi.grid.spectrum(np.isrealobj(phi.values)))


def _step(ev: model.Evaluation, scheme: SchemeKind, params: ModelParams,
          p: precond.Preconditioner | None, shift: str | float,
          counter: FFTCounter | None) -> tuple[WaveField, int]:
    """imaginary_time_step from the evaluation of phi_n, refreshing p there.

    The implicit operator is (1/dt + w A) x = w H_lin x + d x, with H_lin
    the linear part of H (Spectrum.linear, 2 transform units) and the real
    diagonal d = 1/dt + w (V + eta |phi_n|^2 - s lambda) formed once here.
    """
    phi_n = ev.phi
    g = phi_n.grid
    dt = scheme.dt
    h_phi, lam = ev.h_phi, ev.lam
    w, s = scheme_weight(scheme.scheme)

    def apply_shifted(hx, x):  # A x from H x
        return hx - lam * x if s else hx

    if w == 0.0:
        return _project(g, phi_n.values - dt * apply_shifted(h_phi, phi_n.values)), 0
    if p is not None:
        if shift == "adaptive":
            # the implicit operator carries the extra 1/dt shift, so the
            # preconditioner diagonal mirrors it on top of the adaptive one
            shift = 1.0 / dt + ev.energy.characteristic
        try:
            p.refresh(shift, ev.w)
        except ValueError as err:  # the shift check of Preconditioner.refresh
            raise Stop(DIVERGED, str(err)) from None
    linear = g.spectrum(np.isrealobj(phi_n.values)).linear
    omega = params.omega
    diag = w * (ev.w - lam) if s else w * ev.w
    diag += 1.0 / dt

    def apply_a(x):
        out, _ = linear(x, omega, counter)
        if w != 1.0:
            out *= w
        out += diag * x
        return out

    rhs = phi_n.values / dt - (1.0 - w) * apply_shifted(h_phi, phi_n.values)
    tilde, inner_iters = krylov_solve(
        apply_a, WaveField(g, rhs), p, tol=scheme.inner_tol, max_iter=scheme.inner_max_iter,
        counter=counter,
    )
    return _project(g, tilde.values), inner_iters


def _project(grid: Grid, values: np.ndarray) -> WaveField:
    """values scaled to unit norm; a zero or non-finite norm (an overflowed
    step) ends the run as diverged."""
    with np.errstate(over="ignore"):
        n = norm(WaveField(grid, values))
    if not (math.isfinite(n) and n > 0.0):
        raise Stop(DIVERGED, f"the step produced a field of norm {n}")
    return WaveField(grid, values / n)


def run_imaginary_time(
    phi0: WaveField,
    scheme: SchemeKind,
    params: ModelParams,
    precond_kind: str = precond.IDENTITY,
    stop: str = STOP_ENERGY,
    tol: float = 1e-12,
    max_iter: int = 100000,
    shift: str | float = "adaptive",
) -> SolveResult:
    """The scheme run by optim.drive, whose divergence rule catches e.g.
    forward Euler beyond its stability bound.  A failed inner solve ends the
    run as inner_solver_failed, with the MINRES message as stop detail.

    Each iterate is evaluated once (model.evaluate): the evaluation gives
    the record of the step that produced the iterate, the next step's
    H phi, lambda and adaptive shift, and the final result.  One
    preconditioner serves the run, refreshed at each iterate.
    """
    check_options(precond_kind, shift, stop, tol, max_iter)
    check_precond(scheme.scheme, precond_kind)
    params.check_dimension(phi0.grid.d)
    t0 = time.perf_counter()
    counter = FFTCounter()
    ev = model.evaluate(start_iterate(phi0, params.omega), params, counter)
    p = _preconditioner(scheme, precond_kind, ev.phi)
    trial = None  # evaluation of the last step's iterate, accepted once the next one runs

    def step() -> dict:
        nonlocal ev, trial
        if trial is not None:
            ev = trial
        try:
            phi_next, inner_iters = _step(ev, scheme, params, p, shift, counter)
        except KrylovError as err:
            raise Stop(INNER_SOLVER_FAILED, str(err)) from None
        step_inf = float(np.max(np.abs(phi_next.values - ev.phi.values)))
        trial = model.evaluate(phi_next, params, counter)
        e_next = trial.energy.total
        return dict(energy=e_next, lam=trial.lam, r_inf=trial.r_inf, step_inf=step_inf,
                    theta=math.nan, beta=math.nan, backtracks=0,
                    energy_delta=e_next - ev.energy.total, inner_iters=inner_iters)

    def finish(diverged: bool) -> tuple:
        final = ev if diverged or trial is None else trial
        return final.phi, final.energy.total, final.lam, final.r_inf

    return drive(step, finish, ev.energy.total, stop, tol, max_iter, counter, t0)


# ---------------------------------------------------------------------------
# linear model-problem analysis
# ---------------------------------------------------------------------------

def amplification_factors(eigvals: np.ndarray, scheme: str, dt: float) -> np.ndarray:
    """Spectral transform mapping eigenvalues e of H to those of the update,
    mu = (1 - (1 - w) dt e) / (1 + w dt e), w the scheme's implicit weight."""
    lam = np.asarray(eigvals, dtype=float)
    w = scheme_weight(scheme)[0]
    return (1.0 - (1.0 - w) * dt * lam) / (1.0 + w * dt * lam)


@dataclass
class SpectralTransformReport:
    """Power-iteration view of one linear imaginary-time scheme."""

    scheme: str
    dt: float
    eigenvalues: np.ndarray
    amplification: np.ndarray
    predicted_rate: float
    observed_rate: float | None
    degenerate: bool
    iterations: int
    final_error: float


def amplification_domain_error(n: int, dt: float, n_iter: int,
                               seed: int) -> tuple[str, str] | None:
    """(parameter, message) of the first input outside the domain of
    amplification_analysis, or None: the size n of H must be in 2..256,
    dt finite and positive, n_iter at least 1 and seed not negative."""
    if not 2 <= n <= 256:
        return "n", f"H must be a square matrix of size 2 to 256, got size {n}"
    if not (math.isfinite(dt) and dt > 0):
        return "dt", f"dt must be finite and positive, got {dt}"
    if n_iter < 1:
        return "n_iter", f"n_iter must be at least 1, got {n_iter}"
    if seed < 0:
        return "seed", f"seed must not be negative, got {seed}"
    return None


def amplification_analysis(
    h: np.ndarray,
    scheme: str,
    dt: float,
    n_iter: int = 200,
    seed: int = 0,
) -> SpectralTransformReport:
    """Run the normalized power iteration phi <- A phi / ||A phi|| for the
    scheme's update matrix A = (I + w dt H)^-1 (I - (1 - w) dt H), w its
    implicit weight, on a dense Hermitian H from a random start, and compare
    the observed error-decay rate against the predicted |mu_{N-1}/mu_N|.

    Degenerate dominant amplification factors are flagged and no observed
    rate is fitted.  Raises ValueError on an input outside the domain
    (amplification_domain_error) or a non-Hermitian H.
    """
    h = np.asarray(h)
    n = h.shape[0] if h.ndim == 2 else 0
    if h.shape != (n, n):
        raise ValueError("H must be a square matrix")
    bad = amplification_domain_error(n, dt, n_iter, seed)
    if bad is not None:
        raise ValueError(bad[1])
    if not np.allclose(h, h.conj().T, atol=1e-12 * max(1.0, float(np.abs(h).max()))):
        raise ValueError("H must be Hermitian")
    eigvals, eigvecs = np.linalg.eigh(h)
    w = scheme_weight(scheme)[0]
    mus = amplification_factors(eigvals, scheme, dt)
    order = np.argsort(np.abs(mus))
    mu_top, mu_second = mus[order[-1]], mus[order[-2]]
    degenerate = abs(abs(mu_top) - abs(mu_second)) < 1e-12 or abs(mu_top) == 0.0
    predicted = abs(mu_second / mu_top) if not degenerate else np.nan
    v_top = eigvecs[:, order[-1]]
    a_factor = np.linalg.solve(np.eye(n) + w * dt * h, np.eye(n) - (1.0 - w) * dt * h)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 0j
    x = x / np.linalg.norm(x)
    errors = []
    for _ in range(n_iter):
        x = a_factor @ x
        nx = np.linalg.norm(x)
        if nx == 0 or not np.isfinite(nx):
            break
        x = x / nx
        err = np.linalg.norm(x - v_top * np.vdot(v_top, x))
        errors.append(err)
    observed = None
    if not degenerate:
        # geometric fit over the window clear of the start-up transient and
        # the roundoff floor
        usable = [(k, e) for k, e in enumerate(errors) if 1e-13 < e < 0.1]
        if len(usable) >= 5:
            ks = np.array([k for k, _ in usable], dtype=float)
            ls = np.log(np.array([e for _, e in usable]))
            slope = np.polyfit(ks, ls, 1)[0]
            observed = float(np.exp(slope))
    return SpectralTransformReport(
        scheme=scheme, dt=dt, eigenvalues=eigvals, amplification=mus,
        predicted_rate=float(predicted) if not degenerate else np.nan,
        observed_rate=observed, degenerate=degenerate,
        iterations=len(errors), final_error=errors[-1] if errors else np.nan,
    )


# ---------------------------------------------------------------------------
# conditioning diagnostic for the preconditioned projected Hessian
# ---------------------------------------------------------------------------

# eigenvalues below this fraction of the largest magnitude count as null
NULL_TOL = 1e-8


@dataclass
class ConditionReport:
    sigma: float
    eigenvalues: np.ndarray
    warning: str | None = None


def _real_linear_matrix(apply_fn, shape: tuple[int, ...]) -> np.ndarray:
    """Assemble the real 2N x 2N matrix of a real-linear complex operator."""
    n = int(np.prod(shape))
    out = np.zeros((2 * n, 2 * n))
    basis = np.zeros(n, dtype=complex)
    for j in range(n):
        basis[j] = 1.0
        out[:, j] = _realify(apply_fn(basis.reshape(shape)))
        basis[j] = 1j
        out[:, n + j] = _realify(apply_fn(basis.reshape(shape)))
        basis[j] = 0.0
    return out


def check_condition_size(grid: Grid) -> None:
    """Raise ValueError unless the dense conditioning diagnostic fits grid:
    its matrices have order twice the number of unknowns."""
    if 2 * grid.size > 8192:
        raise ValueError(f"dense conditioning diagnostic is limited to 4096 unknowns, "
                         f"got {grid.size}")


def precond_hessian_condition(
    phi_star: WaveField,
    params: ModelParams,
    p: precond.Preconditioner,
) -> ConditionReport:
    """Condition number of the projected, preconditioned energy Hessian.

    Densely assembles M = Pi P (Hess - lambda) Pi in the real representation
    (Pi projects out the iterate) and returns the ratio of the largest to the
    smallest nonzero eigenvalue magnitude.  The gauge direction i*phi is an
    exact null vector at stationary points and is excluded along with phi.
    Small grids only (check_condition_size).
    """
    g = phi_star.grid
    check_condition_size(g)
    warning = None
    ev = model.evaluate(phi_star, params)
    if ev.r_inf > 1e-6:
        warning = (f"iterate is not stationary (residual sup-norm {ev.r_inf:.2e}); "
                   "sigma is unreliable")
    half_hess = model.half_hessian(params, g, phi_star.values)
    n = g.size
    b_mat = _real_linear_matrix(lambda x: half_hess(x) - ev.lam * x, g.shape)  # 1/2 Hess - lambda
    p_mat = _real_linear_matrix(p.apply_values, g.shape)
    q = _realify(phi_star.values)
    pi = np.eye(2 * n) - g.cell_volume * np.outer(q, q)
    m = pi @ p_mat @ b_mat @ pi
    eig = np.linalg.eigvals(m)
    mags = np.abs(eig)
    top = float(mags.max())
    nonzero = mags[mags > NULL_TOL * top]
    sigma = float(top / nonzero.min()) if nonzero.size else np.inf
    return ConditionReport(sigma=sigma, eigenvalues=eig, warning=warning)
