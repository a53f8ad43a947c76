"""Matrix-free preconditioners: shifted inverses of the kinetic and
potential parts of the Hessian, their compositions, and the symmetrized
combination.

Every kind is a product of two diagonals refreshed at the current iterate:
F = 1/(alpha + |xi|^2/2) in Fourier space, on the spectrum the
preconditioner is built on (the iterate's: Grid.spectrum, half spectra on
the float64 path), and
V = 1/(alpha + V(x) + eta |phi_n|^2) in real space, with v = V^(1/2).
FACTORS writes each product in the order its factors act on r, as the
paper does: P_Delta = F, P_V = V, c1 = P_V P_Delta, c2 = P_Delta P_V and
sym = P_V^(1/2) P_Delta P_V^(1/2).  Every per-kind rule is read from that
table: the diagonals `Preconditioner.refresh` forms, the one loop of
`apply_pair`, FOURIER_FIRST, FORMS_HAT and HERMITIAN.  That loop scales by
V and v in real space and by F in Fourier space, with a transform where
the space changes; an F on grid values of a kind outside FORMS_HAT is one
Spectrum.multiplier, charged its two transforms: the apply of the MINRES
baselines, the conditioning diagnostic and the optimizer's identity,
potential and sym kinds.  The shift alpha is fixed, or the characteristic energy of the iterate
(adaptive policy), which each caller has at hand.  The optimizer and the imaginary-time runs hold
one Preconditioner for a run and refresh it at each iterate; a caller with
one iterate writes Preconditioner(kind, spectrum).refresh(alpha, w).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .spectral import FFTCounter, Spectrum

IDENTITY = "identity"
KINETIC = "kinetic"
POTENTIAL = "potential"
COMBINED1 = "c1"
COMBINED2 = "c2"
COMBINED_SYM = "sym"

# each kind's diagonal factors in the order they act on r: F the Fourier
# diagonal, V the real-space one and v its square root
FACTORS = {IDENTITY: "", KINETIC: "F", POTENTIAL: "V", COMBINED1: "FV", COMBINED2: "VF",
           COMBINED_SYM: "vFv"}
KINDS = tuple(FACTORS)
# kinds that act on the transform of r first, so the optimizer assembles
# the residual there
FOURIER_FIRST = tuple(k for k in KINDS if FACTORS[k].startswith("F"))
# kinds whose last factor is F: they form the transform of Pr on the way
FORMS_HAT = tuple(k for k in KINDS if FACTORS[k].endswith("F"))
# kinds whose factors read the same backwards: Hermitian, as MINRES needs
HERMITIAN = tuple(k for k in KINDS if FACTORS[k] == FACTORS[k][::-1])


@dataclass
class Preconditioner:
    """One preconditioner kind on a spectrum; `refresh` forms its diagonals
    at an iterate.

    Attributes:
        kind: One of KINDS.
        spectrum: The spectrum that takes its transforms: Grid.spectrum(real),
            half spectra for real grid values, full ones for complex.
        alpha: Positive shift used in both diagonals (NaN before a refresh).
        fourier_diag: F = 1/(alpha + |xi|^2/2) on the spectrum (None where
            FACTORS has no F).
        real_diag: V = 1/(alpha + V + eta |phi_n|^2), or v = V^(1/2) where
            FACTORS has v (None where it has neither).
    """

    kind: str
    spectrum: Spectrum
    alpha: float = math.nan
    fourier_diag: np.ndarray | None = None
    real_diag: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in FACTORS:
            raise ValueError(f"unknown preconditioner kind {self.kind!r}")

    def refresh(self, alpha: float, w: np.ndarray | None) -> "Preconditioner":
        """Form the diagonals with shift alpha at an iterate phi_n, given
        w = V + eta |phi_n|^2 on the grid, and return self.  The identity
        and kinetic kinds do not read w, so it may be None for them, and the
        identity reads no shift.  The adaptive shift, the characteristic
        energy of phi_n, is the caller's: in a trap negative somewhere it
        need not be positive, and check_shift's ValueError says so."""
        factors = FACTORS[self.kind]
        if factors:
            alpha = check_shift(alpha)
        self.alpha = alpha
        self.fourier_diag = 1.0 / (alpha + self.spectrum.half_k2) if "F" in factors else None
        self.real_diag = 1.0 / (alpha + w) if "V" in factors.upper() else None
        if "v" in factors:
            np.sqrt(self.real_diag, out=self.real_diag)
        return self

    def apply_pair(
        self, r: np.ndarray, counter: FFTCounter | None = None, transformed: bool = False,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Apply to grid values r, or to their transform when `transformed`.

        One loop runs the factors in turn (FACTORS).  A V or v factor scales
        in real space, after an inverse transform if x is a transform.  An F
        on grid values of a kind outside FORMS_HAT is one
        spectrum.multiplier, 2 units; any other F transforms forward if x is
        on the grid, and scales.  r is left alone; every array formed from
        it is transformed and scaled in place where the spectrum's format
        allows.  Returns (Pr, transform of Pr).  The transform is returned
        where the last factor formed it (FORMS_HAT), else None.  Pr is None
        where r came as a transform and never left Fourier space (the
        kinetic kind): the result is left there.  The identity returns r
        itself.
        """
        spec, x, hat, was_real = self.spectrum, r, transformed, not transformed
        for f in FACTORS[self.kind]:
            if f == "F" and not hat and self.kind not in FORMS_HAT:
                x = spec.multiplier(x, self.fourier_diag, counter, out=None if x is r else x)
            else:
                if hat != (f == "F"):
                    x = (spec.ifft if hat else spec.fft)(x, counter, out=None if x is r else x)
                    hat, was_real = not hat, True
                diag = self.fourier_diag if f == "F" else self.real_diag
                x = np.multiply(x, diag, out=None if x is r else x)
        if not hat:
            return x, None
        if x is r:  # the identity applied to a transform
            return spec.ifft(x, counter), None
        return (spec.ifft(x, counter) if was_real else None), x

    def apply_values(self, r: np.ndarray, counter: FFTCounter | None = None) -> np.ndarray:
        """Pr for raw grid values (MINRES baselines, conditioning diagnostic)."""
        pr, _ = self.apply_pair(r, counter)
        return r.copy() if pr is r else pr


def check_shift(shift) -> float:
    """A preconditioner shift as a float; it must be a finite, positive real
    number and not a bool.  A float or an int skips the numbers.Real check,
    an ABC lookup that costs more than the rest of the function."""
    if type(shift) is float or type(shift) is int:
        alpha = float(shift)
    elif isinstance(shift, bool):
        raise ValueError(f"preconditioner shift must be a number, not the bool {shift!r}")
    else:
        alpha = float(shift) if isinstance(shift, numbers.Real) else math.nan
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"preconditioner shift must be positive, got {shift!r}")
    return alpha

