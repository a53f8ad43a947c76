"""Independent oracles used by the tests.

The dense oracles are built from explicit DFT matrices and direct
summation, not from the package's transform helpers, so oracle and
implementation stay on separate code paths.  The plain transforms are
numpy.fft calls with no output arrays, the reference the package's
transforms must match bit for bit.  The density CSV is the row-by-row
writer the package's block writer must match byte for byte.  The unfused sphere operators
at the end (tangent projection, second-order angle, arc step, arc energy
coefficients) are composed from the plain transforms and the package's
Hessian rather than from the fused iteration engine that the solvers run.
`preconditioner_at` builds a preconditioner at an iterate as the solvers do.
`krylov_solve_plain` is the MINRES loop with a fresh array for every vector
operation, which the buffered classic.krylov_solve must match bit for bit.
"""

import csv
import io
import math

import numpy as np

from gpesolve import model, precond, spectral
from gpesolve.classic import KrylovError
from gpesolve.optim import _Arc
from gpesolve.spectral import WaveField


def dft_matrix(m: int) -> np.ndarray:
    """Forward DFT matrix, F[p, k] = exp(-2i pi p k / m) (no prefactor)."""
    k = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(k, k) / m)


def idft_matrix(m: int) -> np.ndarray:
    k = np.arange(m)
    return np.exp(2j * np.pi * np.outer(k, k) / m) / m


def freq_indices(m: int) -> np.ndarray:
    """Integer frequencies in DFT ordering: 0..m/2-1, -m/2..-1."""
    return np.concatenate([np.arange(m // 2), np.arange(-m // 2, 0)])


def second_derivative_matrix(m: int, box: float) -> np.ndarray:
    """Dense spectral d^2/dx^2 on [-box, box] with m points."""
    xi = freq_indices(m) * np.pi / box
    return idft_matrix(m) @ np.diag(-(xi**2)) @ dft_matrix(m)


def first_derivative_matrix(m: int, box: float) -> np.ndarray:
    """Dense spectral d/dx; the unmatched Nyquist mode is dropped, the
    standard convention for odd-order spectral differentiation matrices."""
    idx = freq_indices(m)
    xi = idx * np.pi / box
    xi[idx == -m // 2] = 0.0
    return idft_matrix(m) @ np.diag(1j * xi) @ dft_matrix(m)


def dense_lz_matrix(m: int, box: float) -> np.ndarray:
    """Dense -i(x d_y - y d_x) on the 2D tensor grid, row-major ordering."""
    h = 2.0 * box / m
    x1 = -box + h * np.arange(m)
    d1 = first_derivative_matrix(m, box)
    eye = np.eye(m)
    # axis 0 is x, axis 1 is y; kron(A, B) acts as A on axis 0, B on axis 1
    x_dy = np.kron(np.diag(x1), d1)
    y_dx = np.kron(d1, np.diag(x1))
    return -1j * (x_dy - y_dx)


# plain numpy.fft transforms with the package's arithmetic, computed out of
# place: Spectrum.fft/ifft and Spectrum.kinetic_image must equal them bit for
# bit, and the one-axis spectral.rotating_linear must equal kinetic_plain -
# omega lz_plain to rounding

def fft_plain(values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(values)


def ifft_plain(values_hat: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(values_hat)


def kinetic_plain(grid, phi_hat: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(grid.half_k2 * phi_hat)


def lz_plain(grid, phi_hat: np.ndarray) -> np.ndarray:
    x = grid.coordinate(0)
    y = grid.coordinate(1)
    # first derivatives zero the unmatched -M/2 mode
    freqs_first = grid.freqs.copy()
    freqs_first[grid.M // 2] = 0.0
    dy = np.fft.ifftn(1j * freqs_first.reshape(y.shape) * phi_hat)
    dx = np.fft.ifftn(1j * freqs_first.reshape(x.shape) * phi_hat)
    return -1j * (x * dy - y * dx)


def dense_hamiltonian_1d(m: int, box: float, v: np.ndarray, eta: float = 0.0,
                         density: np.ndarray | None = None) -> np.ndarray:
    """Dense -1/2 d^2/dx^2 + V (+ eta |phi|^2) on the 1D grid."""
    h_mat = -0.5 * second_derivative_matrix(m, box) + np.diag(v)
    if eta != 0.0 and density is not None:
        h_mat = h_mat + eta * np.diag(np.abs(density) ** 2)
    return h_mat


def trig_interpolant(values: np.ndarray, box: float, targets: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of 1D samples by direct summation.

    The unmatched -m/2 mode is split evenly between +/- m/2, matching the
    convention that keeps real data real.
    """
    m = values.size
    coeff = dft_matrix(m) @ values / m
    out = np.zeros(targets.size, dtype=complex)
    for j, p in enumerate(freq_indices(m)):
        if p == -m // 2:
            out += coeff[j] * 0.5 * (
                np.exp(1j * p * np.pi / box * (targets + box))
                + np.exp(-1j * p * np.pi / box * (targets + box))
            )
        else:
            out += coeff[j] * np.exp(1j * p * np.pi / box * (targets + box))
    return out


def truncate_spectrum(values: np.ndarray, m: int) -> np.ndarray:
    """Samples on the m-point grid of the same box whose spectrum is that of
    the finer `values` cut to the m lowest modes per axis.  The fine +/- m/2
    modes are summed into the coarse -m/2 one, undoing the even split of
    spectral_interpolate."""
    m2 = values.shape[0]
    d = values.ndim
    spec = np.fft.fftshift(np.fft.fftn(values))
    off = (m2 - m) // 2
    for ax in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[ax] = off
        hi[ax] = off + m
        spec[tuple(lo)] += spec[tuple(hi)]
    block = spec[tuple(slice(off, off + m) for _ in range(d))]
    return np.fft.ifftn(np.fft.ifftshift(block)) * (m / m2) ** d


def density_csv_text(phi: WaveField) -> str:
    """The density CSV written row by row through csv.writer:
    io.write_density_csv must write these bytes."""
    g = phi.grid
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "z"][: g.d] + ["density"])
    dens = np.abs(phi.values.ravel()) ** 2
    coords = np.meshgrid(*([g.x1] * g.d), indexing="ij") if g.d > 1 else [g.x1]
    cols = [c.ravel() for c in coords]
    for i in range(dens.size):
        writer.writerow([repr(float(c[i])) for c in cols] + [repr(float(dens[i]))])
    return buf.getvalue()


def preconditioner_at(kind: str, phi: WaveField, params: model.ModelParams,
                      shift="adaptive") -> precond.Preconditioner:
    """A preconditioner on phi's full spectrum refreshed at the iterate phi,
    with the adaptive shift (the characteristic energy of phi) unless a
    fixed one is given."""
    ev = model.evaluate(phi, params)
    alpha = ev.energy.characteristic if shift == "adaptive" else shift
    return precond.Preconditioner(kind, phi.grid.spectrum(False)).refresh(alpha, ev.w)


# ---------------------------------------------------------------------------
# unfused sphere operators
# ---------------------------------------------------------------------------

def tangent_project(d: WaveField, phi: WaveField) -> WaveField:
    """Project onto the tangent space at phi: d - Re<phi, d> phi."""
    c = spectral.inner(phi, d).real
    return WaveField(d.grid, d.values - c * phi.values)


def theta_opt(phi: WaveField, p_dir: WaveField, grad: WaveField,
              params: model.ModelParams, lam: float) -> tuple[float, float]:
    """Second-order optimal arc angle along the normalized direction.

    Returns (theta, denom) where denom is the curvature of the energy
    along the retraction arc, E''(0) = hessian_quadratic_form(phi, p_hat)
    - 2*lambda; callers must fall back to a default angle when denom <= 0.
    """
    pnorm = spectral.norm(p_dir)
    if pnorm == 0.0:
        raise ValueError("zero search direction")
    p_hat = WaveField(p_dir.grid, p_dir.values / pnorm)
    slope = spectral.inner(grad, p_hat).real
    denom = model.hessian_quadratic_form(phi, p_hat, params) - 2.0 * lam
    theta = -slope / denom if denom != 0.0 else np.inf
    return theta, denom


def step(phi: WaveField, p_dir: WaveField, theta: float) -> WaveField:
    """Great-circle update cos(theta) phi + sin(theta) p_hat, renormalized."""
    pnorm = spectral.norm(p_dir)
    if pnorm == 0.0:
        return WaveField(phi.grid, phi.values.copy())
    values = np.cos(theta) * phi.values + np.sin(theta) * (p_dir.values / pnorm)
    return WaveField(phi.grid, values).normalized()


def arc_from_fields(phi: WaveField, p_hat: WaveField, params: model.ModelParams) -> _Arc:
    """Arc coefficients computed with the plain (unfused) operators."""
    g = phi.grid
    hd = g.cell_volume
    v = model.sample_potential(params.potential, g)
    u = phi.values
    p = p_hat.values
    ku = kinetic_plain(g, fft_plain(u))
    kp = kinetic_plain(g, fft_plain(p))
    qa = hd * np.vdot(u, ku).real + hd * float(np.sum(v * np.abs(u) ** 2))
    qb = hd * np.vdot(p, kp).real + hd * float(np.sum(v * np.abs(p) ** 2))
    qc = hd * np.vdot(u, kp).real + hd * float(np.sum(v * (np.conj(u) * p).real))
    if params.omega != 0.0:
        lu = lz_plain(g, fft_plain(u))
        lp = lz_plain(g, fft_plain(p))
        qa += -params.omega * hd * np.vdot(u, lu).real
        qb += -params.omega * hd * np.vdot(p, lp).real
        qc += -params.omega * hd * np.vdot(u, lp).real
    a0 = np.abs(u) ** 2
    a1 = np.abs(p) ** 2
    a2 = (np.conj(u) * p).real
    return _Arc(
        qa=qa, qb=qb, qc=qc,
        q40=float(np.sum(a0 * a0)), q04=float(np.sum(a1 * a1)),
        q22a=float(np.sum(a0 * a1)), q22b=float(np.sum(a2 * a2)),
        q31=float(np.sum(a0 * a2)), q13=float(np.sum(a1 * a2)),
        eta_hd=params.eta * hd,
    )



# ---------------------------------------------------------------------------
# allocating MINRES
# ---------------------------------------------------------------------------

def _rdot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def krylov_solve_plain(apply_a, b: WaveField, p=None, tol=1e-10, max_iter=2000, counter=None):
    """classic.krylov_solve with every vector formed in a fresh array: the
    same recursion, order of operations and stop rules."""
    grid = b.grid
    rhs = b.values
    x = np.zeros_like(rhs)
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return WaveField(grid, x), 0

    def psolve(r):
        return r if p is None else p.apply_values(r, counter)

    def fail(why, res):
        return KrylovError(f"MINRES did not converge ({why} after {iters} iterations, "
                           f"rel residual={res:.3e})", best=x, residual=res, iterations=iters)

    iters = 0
    r1 = r2 = rhs
    y = psolve(r2)
    beta = _rdot(r2, y)
    if not (math.isfinite(beta) and beta > 0.0):
        raise fail("preconditioned norm of b is not positive", 1.0)
    beta = math.sqrt(beta)
    old_beta = 0.0
    eps = dbar = 0.0
    cs, sn = -1.0, 0.0
    phibar = beta
    target = tol * beta
    w = w2 = np.zeros_like(x)
    res = 1.0
    while iters < max_iter:
        iters += 1
        v = y * (1.0 / beta)
        y = apply_a(v)
        if iters >= 2:
            y = y - (beta / old_beta) * r1
        alpha = _rdot(v, y)
        y = y - (alpha / beta) * r2
        r1, r2 = r2, y
        y = psolve(r2)
        old_beta = beta
        beta = _rdot(r2, y)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise fail("non-finite value", math.nan)
        if beta < 0.0:
            raise fail("preconditioner not positive definite", res)
        beta = math.sqrt(beta)
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
        w1, w2 = w2, w
        w = (v - old_eps * w1 - delta * w2) * (1.0 / gamma)
        x += phi * w
        res = math.nan
        if phibar <= target:
            res = float(np.linalg.norm(rhs - apply_a(x))) / b_norm
            if not math.isfinite(res):
                raise fail("non-finite value", res)
            if res <= tol:
                return WaveField(grid, x), iters
            if beta == 0.0:
                break
            target = phibar * min(0.5, 0.5 * tol / res)
    if math.isnan(res):
        res = float(np.linalg.norm(rhs - apply_a(x))) / b_norm
    if math.isfinite(res) and res <= max(10.0 * tol, 1e-12):
        return WaveField(grid, x), iters
    raise fail("breakdown" if iters < max_iter else f"max_iter={max_iter} reached", res)
