"""Matrix-free preconditioners: shifted inverses of the kinetic and
potential parts of the Hessian, their compositions, and the symmetrized
combination.

All kinds are built from two diagonals refreshed at the current iterate:
a Fourier diagonal 1/(alpha + |xi|^2/2), on the iterate's spectrum
(Grid.spectrum: half spectra on the optimizer's float64 path), and a
real-space diagonal 1/(alpha + V + eta |phi_n|^2).  The shift alpha is
fixed, or the characteristic energy of the iterate (adaptive policy),
which each caller has at hand.  This module is the only place the diagonals are built and
applied; the optimizer, the MINRES baselines and the conditioning
diagnostic all go through `build`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .spectral import FFTCounter, Grid, Spectrum

IDENTITY = "identity"
KINETIC = "kinetic"
POTENTIAL = "potential"
COMBINED1 = "c1"
COMBINED2 = "c2"
COMBINED_SYM = "sym"

KINDS = (IDENTITY, KINETIC, POTENTIAL, COMBINED1, COMBINED2, COMBINED_SYM)

# kinds whose first factor is the Fourier diagonal: they act on the
# transform of the residual, so the optimizer assembles the residual there
FOURIER_FIRST = (KINETIC, COMBINED1)
_FOURIER_DIAG = (KINETIC, COMBINED1, COMBINED2, COMBINED_SYM)
_REAL_DIAG = (POTENTIAL, COMBINED1, COMBINED2, COMBINED_SYM)


@dataclass
class Preconditioner:
    """Frozen diagonals of one preconditioner instance.

    Attributes:
        kind: One of KINDS.
        alpha: Positive shift used in both diagonals.
        fourier_diag: 1/(alpha + |xi|^2/2) on the grid, or on the half
            spectrum when `real` (None for identity/potential).
        real_diag: 1/(alpha + V + eta |phi_n|^2) (None for identity/kinetic),
            and for sym its square root, the factor applied on each side of
            the Fourier diagonal.
        real: Whether it acts on real grid values; `spectrum`,
            grid.spectrum(real), takes its transforms (half spectra if so).
    """

    kind: str
    grid: Grid
    alpha: float
    fourier_diag: np.ndarray | None = None
    real_diag: np.ndarray | None = None
    real: bool = False
    spectrum: Spectrum = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.spectrum = self.grid.spectrum(self.real)

    def apply_pair(
        self, r: np.ndarray, counter: FFTCounter | None = None, transformed: bool = False,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Apply to grid values r, or to their transform when `transformed`.

        Returns (Pr, transform of Pr).  The transform is returned only where
        it is formed on the way (kinetic, c2), else None.  Pr is None only
        for the kinetic kind applied to a transform: its result is left in
        Fourier space.  The identity returns r itself.
        """
        # r is left alone; every array formed from it is transformed and
        # scaled in place where the spectrum's format allows
        spec = self.spectrum
        if self.kind in FOURIER_FIRST:
            if transformed:
                pr_hat = self.fourier_diag * r
            else:
                pr_hat = spec.fft(r, counter)
                pr_hat *= self.fourier_diag
            if self.kind == COMBINED1:  # P_V P_Delta
                pr = spec.ifft(pr_hat, counter, out=pr_hat)
                pr *= self.real_diag
                return pr, None
            return (None if transformed else spec.ifft(pr_hat, counter)), pr_hat
        if transformed:
            r = spec.ifft(r, counter)
        if self.kind == IDENTITY:
            return r, None
        if self.kind == POTENTIAL:
            return self.real_diag * r, None
        if self.kind == COMBINED2:  # P_Delta P_V
            pr_hat = self.real_diag * r
            pr_hat = spec.fft(pr_hat, counter, out=pr_hat)
            pr_hat *= self.fourier_diag
            return spec.ifft(pr_hat, counter), pr_hat
        pr = self.real_diag * r
        pr = spec.fft(pr, counter, out=pr)
        pr *= self.fourier_diag
        pr = spec.ifft(pr, counter, out=pr)
        pr *= self.real_diag
        return pr, None

    def apply_values(self, r: np.ndarray, counter: FFTCounter | None = None) -> np.ndarray:
        """Pr for raw grid values (MINRES baselines, conditioning diagnostic)."""
        pr, _ = self.apply_pair(r, counter)
        return r.copy() if pr is r else pr


def check_shift(shift) -> float:
    """A preconditioner shift as a float; it must be finite and positive."""
    alpha = float(shift) if isinstance(shift, numbers.Real) else math.nan
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"preconditioner shift must be positive, got {shift!r}")
    return alpha


def build(kind: str, grid: Grid, alpha: float, w: np.ndarray | None,
          real: bool = False) -> Preconditioner:
    """Preconditioner of `kind` with shift alpha at an iterate phi_n, given
    w = V + eta |phi_n|^2 on the grid.  The identity and kinetic kinds do
    not read w, so it may be None for them, and the identity reads no shift.
    The adaptive shift, the characteristic energy of phi_n, is the caller's:
    in a trap negative somewhere it need not be positive.  With `real` it
    acts on real values, and its Fourier diagonal is on the half spectrum."""
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    if kind != IDENTITY:
        alpha = check_shift(alpha)
    p = Preconditioner(kind=kind, grid=grid, alpha=alpha, real=real)
    p.fourier_diag = 1.0 / (alpha + p.spectrum.half_k2) if kind in _FOURIER_DIAG else None
    p.real_diag = 1.0 / (alpha + w) if kind in _REAL_DIAG else None
    if kind == COMBINED_SYM:
        np.sqrt(p.real_diag, out=p.real_diag)
    return p
