"""gpesolve: ground states of the rotating Gross-Pitaevskii equation.

Preconditioned Riemannian gradient / conjugate-gradient minimization over a
Fourier pseudospectral discretization, with classical imaginary-time
baselines (forward/backward Euler, Crank-Nicolson) and a benchmark harness.
"""

from .spectral import (
    FFTCounter,
    Grid,
    WaveField,
    inner,
    norm,
    spectral_interpolate,
)
from .model import (
    EnergyBreakdown,
    Evaluation,
    ModelParams,
    PotentialSpec,
    energy,
    evaluate,
    find_vortices,
    harmonic,
    harmonic_lattice,
    harmonic_quartic,
    half_square,
    hessian_quadratic_form,
    initial_guess,
    thomas_fermi_initial,
)
from .precond import Preconditioner
from .optim import (
    IterationRecord,
    SolveResult,
    SolverConfig,
    check_stop,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "FFTCounter", "Grid", "WaveField", "inner", "norm", "spectral_interpolate",
    "EnergyBreakdown", "Evaluation", "ModelParams", "PotentialSpec", "energy", "evaluate",
    "find_vortices", "harmonic", "harmonic_lattice", "harmonic_quartic",
    "half_square", "hessian_quadratic_form", "initial_guess",
    "thomas_fermi_initial",
    "Preconditioner",
    "IterationRecord", "SolveResult", "SolverConfig", "check_stop", "solve",
    "__version__",
]
