"""Preconditioned gradient (PG) and conjugate gradient (PCG) minimization on
the unit sphere.

Iterates move along great circles, phi_{n+1} = cos(theta) phi_n
+ sin(theta) p_hat, where p_hat is the normalized tangent projection of the
(preconditioned, optionally CG-mixed) descent direction.  The trial angle
minimizes the second-order expansion of the energy along the arc and is
halved until the energy decreases.

The expensive transforms of an iteration are fused in one engine: the
images of the iterate under the linear part of the Hamiltonian and under
the Fourier transform are carried across iterations by the same
trigonometric combination that updates the iterate itself.  With rotation
that linear part, -Lap/2 - omega Lz, is applied one axis at a time
(spectral.rotating_linear), and its first pass also yields the transform of
the direction.  The residual is placed in real space, or in Fourier space
for the preconditioners that start with their Fourier diagonal
(precond.FOURIER_FIRST: kinetic, c1).

One iteration costs 3 transform units of the cost model (forward +
Laplacian + angular momentum, see spectral.FFTCounter) plus 0/0/0/1/1/2
units for the identity/kinetic/potential/c1/c2/sym preconditioners, so
3/3/3/4/4/5 with rotation and 2/2/2/3/3/4 without.  The one exception is
c1 under pcg, charged one more unit for its residual in real space, which
the Polak-Ribiere inner products read.  The real work behind a rotating 2D
iteration is 5/8/5/9/8/9 one-axis passes.

Without rotation a real iterate stays real, so start_iterate, where all
eight methods begin, makes a real start float64 when omega = 0: half-spectrum
transforms (spectral.Grid.spectrum), the same units on about half the data.
Any other start, or any rotation, runs in complex128.  phi keeps the dtype.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import model, precond, spectral
from .model import ModelParams
from .spectral import FFTCounter, WaveField, is_number, l2_norm, rdot

STOP_ENERGY = "energy_diff"
STOP_RESIDUAL = "residual_inf"
STOP_ITERATE = "iterate_diff"
STOP_KINDS = (STOP_ENERGY, STOP_RESIDUAL, STOP_ITERATE)
ZERO_DIRECTION = "zero_direction"
MAX_ITER = "max_iter"
DIVERGED = "diverged"
BACKTRACKING_EXHAUSTED = "backtracking_exhausted"
INNER_SOLVER_FAILED = "inner_solver_failed"
# every way a run of any of the eight methods can end
STOP_REASONS = STOP_KINDS + (ZERO_DIRECTION, MAX_ITER, DIVERGED, BACKTRACKING_EXHAUSTED,
                             INNER_SOLVER_FAILED)
# whether a run that ends for the reason converged; the CLI exits 0 if so, 1 if not
STOP_CONVERGED = {
    STOP_ENERGY: True, STOP_RESIDUAL: True, STOP_ITERATE: True, ZERO_DIRECTION: True,
    MAX_ITER: False, DIVERGED: False, BACKTRACKING_EXHAUSTED: False, INNER_SOLVER_FAILED: False,
}

# line search: fallback angle when the arc has no positive curvature, and
# the step halving applied at most MAX_BACKTRACKS times until E decreases
THETA_DEFAULT = 0.1
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30

# the sphere-constrained methods of SolverConfig.method
METHODS = ("pg", "pcg")


@dataclass
class SolverConfig:
    """Configuration for the sphere-constrained optimizers."""

    method: str = "pcg"
    precond: str = precond.COMBINED_SYM
    shift: str | float = "adaptive"
    stop: str = STOP_ENERGY
    tol: float = 1e-12
    max_iter: int = 10000

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_options(self.precond, self.shift, self.stop, self.tol, self.max_iter)


def check_options(kind: str, shift: str | float, stop: str, tol: float, max_iter: int) -> None:
    """Check the options every ground-state method shares, PG/PCG and the
    imaginary-time schemes alike; raise ValueError naming the first bad one."""
    if kind not in precond.KINDS:
        raise ValueError(f"unknown preconditioner {kind!r}")
    if shift != "adaptive":
        precond.check_shift(shift)
    if stop not in STOP_KINDS:
        raise ValueError(f"unknown stopping criterion {stop!r}")
    if not (is_number(tol) and math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite nonnegative number, got {tol!r}")
    if not (is_number(max_iter, numbers.Integral) and max_iter >= 0):
        raise ValueError(f"max_iter must be a nonnegative integer, got {max_iter!r}")


@dataclass
class IterationRecord:
    """One accepted iteration of a ground-state solver.

    pg/pcg rows hold lam and r_inf of the iterate the step started from
    (r_inf is NaN where the residual stayed in Fourier space), and energy,
    energy_delta and step_inf of the step itself.  Imaginary-time rows
    describe the iterate after the step throughout.  The methods hand in
    Python numbers, never numpy scalars, so the CSV gets plain reprs.
    """

    n: int
    energy: float
    lam: float
    r_inf: float
    step_inf: float
    theta: float
    beta: float
    backtracks: int
    fft_count: int
    wall_time: float
    energy_delta: float = 0.0
    restarted: bool = False
    inner_iters: int | None = None

    CSV_FIELDS = ("n", "energy", "lam", "r_inf", "step_inf", "theta", "beta",
                  "backtracks", "fft_count", "energy_delta", "restarted", "wall_time")


@dataclass
class SolveResult:
    """Final iterate plus the full convergence history.  stop_reason is one
    of STOP_REASONS; stop_detail says more where there is more to say.
    energy, lam and r_inf are those of one model.evaluate of phi.  fft_total
    counts every transform unit the run charged: its set-up, each record's
    fft_count, a step that ended the run without a record and, for pg/pcg,
    that final evaluation (2 units, 3 with rotation).  An imaginary-time
    record's fft_count already holds the evaluation of its iterate."""

    phi: WaveField
    records: list[IterationRecord]
    stop_reason: str
    energy: float
    lam: float
    r_inf: float
    fft_total: int
    wall_time: float
    stop_detail: str = ""

    @property
    def converged(self) -> bool:
        return STOP_CONVERGED[self.stop_reason]

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def inner_total(self) -> int:
        return sum(r.inner_iters or 0 for r in self.records)


class Stop(Exception):
    """Raised by a step to end the run for `reason`, one of STOP_REASONS."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason
        self.detail = detail


def start_iterate(phi0: WaveField, omega: float) -> WaveField:
    """phi0 scaled to unit norm in complex128, in a fresh C-ordered array:
    every method starts here, so a NaN, Inf or zero guess fails before any
    transform.  The run's one dtype choice: float64 when omega = 0 and the
    imaginary part is zero (first derivatives zero the unmatched -M/2 mode,
    spectral.Grid), else complex128."""
    u = np.ascontiguousarray(phi0.values, dtype=np.complex128)
    if not np.all(np.isfinite(u)):
        raise ValueError("initial field contains NaN or Inf")
    phi = WaveField(phi0.grid, u).normalized()
    real = omega == 0.0 and not np.any(phi.values.imag)
    return WaveField(phi.grid, np.ascontiguousarray(phi.values.real)) if real else phi


def drive(step, finish, e0: float, stop: str, tol: float, max_iter: int,
          counter: FFTCounter, t0: float) -> SolveResult:
    """The outer loop of all eight methods, from an iterate of energy e0.

    step() runs one iteration and returns its IterationRecord fields but n,
    fft_count and wall_time, or raises Stop.  A step with E or lambda not
    finite, or E > e0 + 10(|e0| + 1), is rejected and ends the run as
    diverged.  finish(diverged) returns the final (phi, E, lambda, r_inf).
    """
    records: list[IterationRecord] = []
    reason, detail = MAX_ITER, ""
    bound = e0 + 10.0 * (abs(e0) + 1.0)
    while len(records) < max_iter:
        count0 = counter.count
        try:
            fields = step()
        except Stop as err:
            reason, detail = err.reason, err.detail
            break
        energy = fields["energy"]
        if not (math.isfinite(energy) and math.isfinite(fields["lam"])) or energy > bound:
            reason = DIVERGED
            break
        records.append(IterationRecord(n=len(records), fft_count=counter.count - count0,
                                       wall_time=time.perf_counter() - t0, **fields))
        if check_stop(records[-1], stop, tol):
            reason = stop
            break
    if detail:
        warnings.warn(detail, RuntimeWarning)
    phi, energy, lam, r_inf = finish(reason == DIVERGED)
    return SolveResult(phi=phi, records=records, stop_reason=reason, stop_detail=detail,
                       energy=float(energy), lam=float(lam), r_inf=float(r_inf),
                       fft_total=counter.count, wall_time=time.perf_counter() - t0)


def check_stop(record: IterationRecord, stop: str, tol: float) -> bool:
    """Whether the latest record meets the stopping criterion `stop` at `tol`."""
    if stop == STOP_ENERGY:
        return abs(record.energy_delta) <= tol
    if stop == STOP_ITERATE:
        return record.step_inf <= tol
    return bool(record.r_inf <= tol)


@dataclass
class _Arc:
    """Energy along the arc theta -> cos(theta) u + sin(theta) p_hat.

    Quadratic (linear-operator) part from the coefficients QA, QB, QC and
    the quartic part from the six pointwise sums; everything needed to
    evaluate E(theta) - E(0) exactly at any theta without transforms.
    """

    qa: float
    qb: float
    qc: float
    q40: float
    q04: float
    q22a: float
    q22b: float
    q31: float
    q13: float
    eta_hd: float  # eta * h^d

    def delta_energy(self, theta: float) -> float:
        c = math.cos(theta)
        s = math.sin(theta)
        quad = (self.qb - self.qa) * s * s + self.qc * math.sin(2.0 * theta)
        quart = 0.5 * self.eta_hd * (
            -s * s * (1.0 + c * c) * self.q40
            + s**4 * self.q04
            + (4.0 * self.q22b + 2.0 * self.q22a) * c * c * s * s
            + 4.0 * c**3 * s * self.q31
            + 4.0 * c * s**3 * self.q13
        )
        return quad + quart

    @property
    def slope0(self) -> float:
        return 2.0 * self.qc + 2.0 * self.eta_hd * self.q31

    @property
    def curvature0(self) -> float:
        return 2.0 * (self.qb - self.qa) + self.eta_hd * (
            4.0 * self.q22b + 2.0 * self.q22a - 2.0 * self.q40
        )

    def flip(self) -> None:
        """Negate the direction (p_hat -> -p_hat) in the coefficients."""
        self.qc = -self.qc
        self.q31 = -self.q31
        self.q13 = -self.q13


def _line_search(arc: _Arc) -> tuple[float, int, float]:
    """Second-order trial angle, halved until the energy decreases; returns
    (theta, halvings, E(theta) - E(0)).  The energy change is still >= 0
    when the halvings ran out."""
    curv = arc.curvature0
    if curv > 0.0:
        theta = -arc.slope0 / curv
    else:
        theta = THETA_DEFAULT
    theta = min(theta, 0.5 * math.pi)
    if theta <= 0.0:
        theta = THETA_DEFAULT
    backtracks = 0
    d_e = arc.delta_energy(theta)
    while d_e >= 0.0 and backtracks < MAX_BACKTRACKS:
        theta *= BACKTRACK_FACTOR
        d_e = arc.delta_energy(theta)
        backtracks += 1
    return theta, backtracks, d_e


# ---------------------------------------------------------------------------
# fused iteration engine
# ---------------------------------------------------------------------------

class _Engine:
    """State and update rule of the fused PG/PCG iteration.

    The engine carries hu, the linear part H_lin = -Lap/2 - omega Lz of the
    Hamiltonian applied to the iterate, and uhat, its Fourier transform.
    The residual is kept in real space, next to hu, so it and its sup norm
    come without transforms.  Kinds that start with the Fourier diagonal
    (precond.FOURIER_FIRST) instead get the residual in Fourier space from
    one forward transform.

    With rotation both images are carried for every kind: the quadratic
    terms of the arc are Re<p, H_lin p> and Re<u, H_lin p>, and the kinetic
    energy of the shift comes from uhat by Parseval.  Without rotation
    H_lin = -Lap/2 is formed from full transforms, and only where a kind
    reads it: the Fourier-first kinds take their kinetic terms by Parseval
    and carry uhat in place of hu, and uhat is carried only for the kinds
    that read it (precond.FOURIER_FIRST and FORMS_HAT).  The CG memory is
    kept only under pcg, in the representations the kind mixes in.

    An iteration is begin, direction and accept(theta), each reading what
    the one before left on the engine: begin the residual, vd, lambda and
    alpha, direction the search direction, held until the next direction.

    The iterate keeps the dtype start_iterate gives it, and with it the
    spectrum that takes every transform and Parseval sum of the engine.
    """

    def __init__(self, phi0: WaveField, params: ModelParams, cfg: SolverConfig,
                 counter: FFTCounter) -> None:
        g = phi0.grid
        params.check_dimension(g.d)
        self.grid = g
        self.cfg = cfg
        self.counter = counter
        self.hd = g.cell_volume
        self.v = model.sample_potential(params.potential, g)
        self.v_flat = self.v.reshape(-1)
        self.eta = params.eta
        self.omega = params.omega
        self.u = start_iterate(phi0, self.omega).values
        self.u_flat = self.u.reshape(-1)  # a view: u is only ever updated in place
        self.real = np.isrealobj(self.u)
        self.spec = g.spectrum(self.real)
        # one preconditioner for the run, refreshed at each iterate
        self.precond = precond.Preconditioner(cfg.precond, self.spec)
        self.rotating = self.omega != 0.0
        self.pcg = cfg.method == "pcg"
        self.fourier = cfg.precond in precond.FOURIER_FIRST
        forms_hat = cfg.precond in precond.FORMS_HAT
        # without rotation uhat is read by the kinds with a Fourier-space
        # residual, and by those that form the transform of p_hat from that
        # of Pr; with rotation by every kind, for the kinetic energy of the shift
        self.carry_hat = self.rotating or self.fourier or forms_hat
        self.hu, self.uhat = self._images(self.u)
        # a Fourier-space residual is brought to real space only for the
        # residual stop, and under pcg where Pr comes back in real space
        # (its PR inner products)
        self.need_r_real = cfg.stop == STOP_RESIDUAL or (self.pcg and not forms_hat)
        self.r: np.ndarray | None = None
        self.r_hat: np.ndarray | None = None
        # the iterate's scalars, refreshed by begin; the energy is then
        # carried along the arcs by accept
        self._scalars()
        self.energy = self.qa + 0.5 * self.eta * self.hd * self.q40
        # CG memory: the previous direction is kept in real space unless the
        # kind mixes in Fourier space (Pr never leaves it), and also in
        # Fourier space where the transform of the next direction is formed
        # from it
        self.keep_real = self.pcg and not (self.fourier and forms_hat)
        self.keep_hat = self.pcg and forms_hat
        self.prp_prev: float | None = None
        self.p_prev_real: np.ndarray | None = None
        self.p_prev_hat: np.ndarray | None = None
        self.r_prev: np.ndarray | None = None

    def _images(self, x: np.ndarray, x_hat: np.ndarray | None = None,
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(H_lin x, transform of x), given the transform where it is at hand.
        Without rotation the kinds that take their kinetic terms by Parseval
        (FOURIER_FIRST) form no H_lin x (None), and the kinds that carry no
        transform (carry_hat) get -Lap/2 x from one spectrum.multiplier and
        no transform (None).  Charged (FFTCounter) a unit for the transform,
        for Lz and for -Lap/2, but not for those kinds."""
        if self.rotating:
            hx, formed = spectral.rotating_linear(self.grid, self.omega, x, hat=x_hat is None)
            self.counter.count += 1 + (not self.fourier) + (formed is not None)
            return hx, (x_hat if formed is None else formed)
        if x_hat is None:
            if not self.carry_hat:
                return self.spec.multiplier(x, self.spec.half_k2, self.counter), None
            x_hat = self.spec.fft(x, self.counter)
        return (None if self.fourier else self.spec.kinetic_image(x_hat, self.counter)), x_hat

    def _scalars(self) -> None:
        """|u|^2, and from it lambda, the quadratic energy part qa, q40 and
        the characteristic energy alpha of the iterate."""
        self.dens = _abs2(self.u)
        dens = self.dens_flat = self.dens if self.grid.d == 1 else self.dens.reshape(-1)
        pot = self.hd * float(np.dot(self.v_flat, dens))
        self.q40 = float(np.dot(dens, dens))
        inter2 = self.eta * self.hd * self.q40
        # <u, H_lin u>, and its kinetic part alone for the shift: the same
        # number without rotation
        if self.hu is None:
            kin = lin = self.spec.kinetic(self.uhat)
        else:
            lin = self.hd * rdot(self.u, self.hu)
            kin = self.spec.kinetic(self.uhat) if self.rotating else lin
        self.qa = lin + pot
        self.lam = self.qa + self.eta * self.hd * self.q40
        self.alpha = kin + pot + inter2  # characteristic energy, shift of the preconditioner

    def begin(self) -> float | None:
        """Refresh the iterate's scalars and residual; returns the residual
        sup norm, or None when the residual stays in Fourier space."""
        self._scalars()
        # V + eta |u|^2, shared with the preconditioner's real-space diagonal
        self.vd = np.multiply(self.dens, self.eta)
        self.vd += self.v
        # (vd - lam) u + H_lin u, a fresh array each iteration: r_prev keeps
        # the last one
        r = (self.vd - self.lam) * self.u
        if self.hu is not None:
            r += self.hu
        if not self.fourier:
            self.r = r
        elif self.hu is None:
            # -Lap/2 u added in Fourier space, where it is diagonal
            self.r_hat = self.spec.fft(r, self.counter, out=r)
            self.r_hat += self.spec.half_k2 * self.uhat
            self.r = self.spec.ifft(self.r_hat, self.counter) if self.need_r_real else None
        else:
            # the whole residual is at hand in real space: keep it where it
            # is read, charged the unit of bringing it there
            self.r_hat = self.spec.fft(r, self.counter, out=None if self.need_r_real else r)
            self.r = r if self.need_r_real else None
            if self.need_r_real:
                self.counter.count += 1
        return float(np.abs(self.r).max()) if self.r is not None else None

    def _arc(self, p_hat: np.ndarray, lin_p: float, lin_c: float) -> _Arc:
        # lin_p = Re<p_hat, H_lin p_hat> and lin_c = Re<u, H_lin p_hat>
        # the nine pointwise sums as BLAS dot products of flat real vectors:
        # |p|^2 and Re(conj(u) p), the latter a strided view when complex
        if self.grid.d > 1:
            p_hat = p_hat.reshape(-1)
        a1 = _abs2(p_hat)
        a2 = _re_conj(self.u_flat, p_hat)
        v, dens = self.v_flat, self.dens_flat
        return _Arc(
            qa=self.qa,
            qb=lin_p + self.hd * float(np.dot(v, a1)),
            qc=lin_c + self.hd * float(np.dot(v, a2)),
            q40=self.q40, q04=float(np.dot(a1, a1)),
            q22a=float(np.dot(dens, a1)), q22b=float(np.dot(a2, a2)),
            q31=float(np.dot(dens, a2)), q13=float(np.dot(a1, a2)),
            eta_hd=self.eta * self.hd,
        )

    def _mix_cg(self, pr: np.ndarray, r: np.ndarray, p_prev: np.ndarray | None,
                u_rep: np.ndarray, dot, scale: float, force_restart: bool,
                ) -> tuple[np.ndarray, float, bool, float, float | None]:
        """Polak-Ribiere direction beta p_prev - Pr with descent safeguard;
        returns (direction, beta, restarted, <r, Pr>, c_u), where c_u is
        Re<u_rep, direction> when the descent check formed it, else None.
        The direction is a fresh array or p_prev itself, updated in place.

        All arrays must live in the same representation (real space or
        Fourier coefficients); `u_rep` is the iterate there, and scale *
        dot(a, b) the real inner product: h^d rdot, or 1.0 spectrum.dot.
        """
        if not self.pcg:
            return _negated(pr, r), 0.0, force_restart, np.nan, None
        prp = scale * dot(r, pr)
        beta = 0.0
        restarted = force_restart
        if (not force_restart and self.r_prev is not None and p_prev is not None
                and self.prp_prev is not None and self.prp_prev > 0.0):
            beta = max(0.0, scale * dot(r - self.r_prev, pr) / self.prp_prev)
        if beta > 0.0:
            dvec = np.multiply(p_prev, beta, out=p_prev)
            dvec -= pr
            # descent check on the projected direction:
            # Re<grad E, proj dvec> = 2(Re<r, dvec> - Re<u, dvec> Re<r, u>)
            c_u = scale * dot(u_rep, dvec)
            slope = 2.0 * (scale * dot(r, dvec) - c_u * (scale * dot(r, u_rep)))
            if slope < 0.0:
                return dvec, beta, restarted, prp, c_u
            beta = 0.0
            restarted = True
        return _negated(pr, r), beta, restarted, prp, None

    def direction(self, force_restart: bool) -> _Arc:
        """The next search direction; returns its arc for the line search.
        Its last statements leave the direction on the engine for accept:
        arc, p_hat, its transform p_hat_hat and hp = H_lin p_hat (None where
        not carried), p_norm, beta, restarted, prp = <r, Pr> and r_mix, the
        residual in the mixing space.  The previous iteration's arrays are
        released there, as these replace them, not earlier: that costs page
        faults.  Raises Stop when there is none: zero_direction for a zero
        projected direction, diverged for a non-finite one or an adaptive
        shift that is not positive."""
        shift = self.alpha if self.cfg.shift == "adaptive" else self.cfg.shift
        p = self.precond
        try:
            p.refresh(shift, self.vd)
        except ValueError as err:  # its shift check
            raise Stop(DIVERGED, str(err)) from None
        pr, pr_hat = p.apply_pair(self.r_hat if self.fourier else self.r, self.counter,
                                  transformed=self.fourier)
        # nothing reads the diagonals after the apply, and holding them
        # through the rest of the direction would raise its peak memory
        p.fourier_diag = p.real_diag = None
        # mix and project in the space Pr came back in
        mix_hat = pr is None
        if mix_hat:
            pr, r, p_prev, u_rep = pr_hat, self.r_hat, self.p_prev_hat, self.uhat
            dot, norm, scale = self.spec.dot, self.spec.norm, 1.0
        else:
            r, p_prev, u_rep = self.r, self.p_prev_real, self.u
            dot, norm, scale = rdot, l2_norm, self.hd
        dvec, beta, restarted, prp, c_u = self._mix_cg(pr, r, p_prev, u_rep, dot, scale,
                                                       force_restart)
        pr = None  # dead unless it is dvec; holding it would raise the peak
        # dvec is fresh or the dead p_prev: project and normalize it in place
        if c_u is None:
            c_u = scale * dot(u_rep, dvec)
        dvec -= c_u * u_rep
        p_norm = math.sqrt(scale) * norm(dvec)
        if not math.isfinite(p_norm):
            raise Stop(DIVERGED)
        if p_norm == 0.0:
            raise Stop(ZERO_DIRECTION)
        # numpy divides a complex by a real d as a multiply by 1/d, so this
        # equals dvec / p_norm bit for bit at the cost of a multiply
        dvec *= 1.0 / p_norm
        p_hat_hat = None
        if mix_hat:
            p_hat_hat = dvec
            p_hat = self.spec.ifft(p_hat_hat, self.counter)
        else:
            p_hat = dvec
            if pr_hat is not None:
                # c2 forms the transform of Pr (and so of p_prev) on the
                # way, hence that of p_hat by linearity
                if beta == 0.0:
                    dvec_hat = _negated(pr_hat)
                else:
                    dvec_hat = np.multiply(self.p_prev_hat, beta, out=self.p_prev_hat)
                    dvec_hat -= pr_hat
                dvec_hat -= c_u * self.uhat
                p_hat_hat = np.divide(dvec_hat, p_norm, out=dvec_hat)
        hp, p_hat_hat = self._images(p_hat, p_hat_hat)
        if hp is None:  # kinetic terms by Parseval
            lin_p = self.spec.kinetic(p_hat_hat)
            lin_c = self.spec.kinetic(self.uhat, p_hat_hat)
        else:
            lin_p = self.hd * rdot(p_hat, hp)
            lin_c = self.hd * rdot(self.u, hp)
        arc = self._arc(p_hat, lin_p, lin_c)
        if arc.slope0 > 0.0:
            for a in (p_hat, p_hat_hat, hp):
                if a is not None:
                    _negated(a)
            arc.flip()
        self.arc, self.p_hat, self.p_hat_hat, self.hp = arc, p_hat, p_hat_hat, hp
        self.p_norm, self.beta, self.restarted = p_norm, beta, restarted
        self.prp, self.r_mix = prp, r
        return arc

    def accept(self, theta: float) -> float:
        """Step to angle theta along the direction `direction` left, in
        place; returns the sup-norm of the step.  Consumes that direction:
        under pcg p_hat, or p_hat_hat, scaled back by p_norm, becomes the CG
        memory."""
        c = math.cos(theta)
        s = math.sin(theta)
        scratch = np.multiply(self.p_hat, s)
        delta = np.multiply(self.u, c - 1.0)
        delta += scratch
        step_inf = float(np.abs(delta).max())
        self.u += delta
        nn = math.sqrt(self.hd) * l2_norm(self.u)
        self.u *= 1.0 / nn  # == self.u / nn, as in direction
        # the images follow by the same combination: x <- (c x + s x_p) / nn;
        # a half spectrum does not fit the scratch array
        for x, xp in ((self.uhat, self.p_hat_hat), (self.hu, self.hp)):
            if x is not None:
                x *= c / nn
                x += np.multiply(xp, s / nn, out=scratch if xp.shape == scratch.shape else None)
        self.energy += self.arc.delta_energy(theta)
        # CG memory
        if self.pcg:
            self.prp_prev = self.prp
            self.r_prev = self.r_mix
        if self.keep_real:
            self.p_hat *= self.p_norm
            self.p_prev_real = self.p_hat
        if self.keep_hat:
            self.p_hat_hat *= self.p_norm
            self.p_prev_hat = self.p_hat_hat
        return step_inf


def _abs2(a: np.ndarray) -> np.ndarray:
    """|a|^2, a fresh float64 array: one ufunc call for a float64 array."""
    if a.dtype == np.float64:
        return np.square(a)
    out = np.abs(a)
    return np.square(out, out=out)


def _re_conj(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(conj(a) b) as float64, a strided view of a fresh complex product
    for complex a: one ufunc call for a float64 a."""
    if a.dtype == np.float64:
        return np.multiply(a, b)
    out = np.conj(a)
    out *= b
    return out.real


def _negated(a: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """-a, in place unless a is `keep` (the identity preconditioner returns
    the residual itself).  The sign flips run on the float64 view: the same
    values as complex negation, several times faster."""
    out = np.empty_like(a) if a is keep else a
    np.negative(a.view(np.float64), out=out.view(np.float64))
    return out


def solve(phi0: WaveField, params: ModelParams, cfg: SolverConfig,
          counter: FFTCounter | None = None) -> SolveResult:
    """Run the configured ground-state iteration from phi0: cfg.method is
    pg, the preconditioned gradient (Riemannian steepest descent), or pcg,
    the preconditioned conjugate gradient (Polak-Ribiere)."""
    t0 = time.perf_counter()
    counter = counter if counter is not None else FFTCounter()
    engine = _Engine(phi0, params, cfg, counter)
    force_restart = False

    def step() -> dict:
        nonlocal force_restart
        r_inf = engine.begin()
        # a row's r_inf is its starting iterate's, so that stop is due before the step
        if cfg.stop == STOP_RESIDUAL and r_inf is not None and r_inf <= cfg.tol:
            raise Stop(STOP_RESIDUAL)
        theta, backtracks, d_e = _line_search(engine.direction(force_restart))
        if d_e >= 0.0:
            raise Stop(BACKTRACKING_EXHAUSTED, "energy could not be decreased after "
                       f"{MAX_BACKTRACKS} step halvings (tolerance at roundoff floor?)")
        step_inf = engine.accept(theta)
        force_restart = backtracks > 0
        return dict(energy=engine.energy, lam=engine.lam,
                    r_inf=math.nan if r_inf is None else r_inf, step_inf=step_inf,
                    theta=theta, beta=engine.beta, backtracks=backtracks,
                    energy_delta=d_e, restarted=engine.restarted)

    def finish(diverged: bool) -> tuple:
        nonlocal engine
        phi = WaveField(engine.grid, engine.u)
        # only the iterate outlives the engine: free the rest before the
        # final evaluation, charged to the run like every other transform
        engine = None
        ev = model.evaluate(phi, params, counter)
        return phi, ev.energy.total, ev.lam, ev.r_inf

    return drive(step, finish, engine.energy, cfg.stop, cfg.tol, cfg.max_iter, counter, t0)

