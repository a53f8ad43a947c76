"""Benchmark suites at desk scale, mirroring the reference experiments.

Suites emit one CSV row per run: method, preconditioner, grid parameters,
nonlinearity, rotation, iteration and transform counts, wall time, final
energy.  Desk scale shrinks the original domains so the full set completes
on a laptop; `paper_scale=True` restores the published parameters (no
runtime guarantee).
"""

from __future__ import annotations

import time

import numpy as np

from . import classic, model, optim, runs
from .model import ModelParams
from .spectral import Grid

TABLE_FIELDS = [
    "suite", "method", "precond", "d", "L", "M", "h", "eta", "omega", "init",
    "iters", "inner_iters", "ffts", "wall_time", "energy", "converged",
]


def _lattice_params(eta: float) -> ModelParams:
    return ModelParams(eta=eta, omega=0.0, potential=model.harmonic_lattice(1.0, 25.0, np.pi / 2))


def _row(suite: str, method: str, kind: str, grid: Grid, params: ModelParams,
         init: str, result) -> dict:
    return {
        "suite": suite,
        "method": method,
        "precond": kind,
        "d": grid.d,
        "L": grid.L,
        "M": grid.M,
        "h": grid.h,
        "eta": params.eta,
        "omega": params.omega,
        "init": init,
        "iters": result.iterations,
        "inner_iters": result.inner_total,
        "ffts": result.fft_total,
        "wall_time": round(result.wall_time, 4),
        "energy": repr(float(result.energy)),
        "converged": str(result.converged).lower(),
    }


def _opt(method: str, kind: str, tol: float, max_iter: int = 100000) -> optim.SolverConfig:
    return optim.SolverConfig(method=method, precond=kind, tol=tol, max_iter=max_iter)


def _run_opt(suite, method, kind, grid, params, phi0, tol, max_iter=100000, init="tf"):
    result = optim.solve(phi0, params, _opt(method, kind, tol, max_iter))
    return _row(suite, method, kind, grid, params, init, result)


def _run_scheme(suite, scheme_name, kind, grid, params, phi0, tol, dt=0.01, max_iter=100000, init="tf"):
    scheme = classic.SchemeKind(scheme=scheme_name, dt=dt)
    result = classic.run_imaginary_time(
        phi0, scheme, params, precond_kind=kind, tol=tol, max_iter=max_iter)
    return _row(suite, scheme_name, kind, grid, params, init, result)


def suite_solvers_1d(paper_scale: bool = False, tol: float = 1e-12) -> list[dict]:
    """Unpreconditioned solver comparison on the 1D lattice trap."""
    eta = 250.0
    box = 16.0
    hs = (0.25, 0.125, 0.0625) if not paper_scale else (0.125, 0.03125, 0.0078125)
    rows = []
    for h in hs:
        grid = Grid(1, box, int(round(2 * box / h)))
        params = _lattice_params(eta)
        phi0 = model.thomas_fermi_initial(grid, params)
        rows.append(_run_opt("solvers_1d", "pg", "identity", grid, params, phi0, tol))
        rows.append(_run_opt("solvers_1d", "pcg", "identity", grid, params, phi0, tol))
        for scheme_name in (classic.BE, classic.BE_LAMBDA):
            rows.append(_run_scheme("solvers_1d", scheme_name, "identity", grid, params, phi0, tol,
                                    max_iter=20000))
    return rows


def suite_precond_1d(paper_scale: bool = False, tol: float = 1e-12) -> list[dict]:
    """PG vs PCG across preconditioners, desk-scaled from L=128, h=1/64."""
    eta = 250.0
    box, h = (128.0, 1.0 / 64.0) if paper_scale else (32.0, 1.0 / 16.0)
    grid = Grid(1, box, int(round(2 * box / h)))
    params = _lattice_params(eta)
    phi0 = model.thomas_fermi_initial(grid, params)
    rows = []
    for kind in ("kinetic", "potential", "c1", "c2", "sym"):
        for method in optim.METHODS:
            rows.append(_run_opt("precond_1d", method, kind, grid, params, phi0, tol))
    return rows


def suite_eta_sweep_1d(paper_scale: bool = False, tol: float = 1e-12) -> list[dict]:
    """Nonlinearity sweep for the combined symmetric preconditioner."""
    box, h = (128.0, 1.0 / 16.0) if paper_scale else (16.0, 1.0 / 16.0)
    etas = (10.0, 100.0, 1000.0, 10000.0) if not paper_scale else (10.0, 1e2, 1e3, 1e4, 1e5)
    grid = Grid(1, box, int(round(2 * box / h)))
    rows = []
    for eta in etas:
        params = _lattice_params(eta)
        phi0 = model.thomas_fermi_initial(grid, params)
        for method in optim.METHODS:
            rows.append(_run_opt("eta_sweep_1d", method, "sym", grid, params, phi0, tol))
    return rows


def suite_rotation_2d(paper_scale: bool = False, tol: float = 1e-10) -> list[dict]:
    """Rotation sweep for PCG_sym on the quartic-stabilized 2D trap.

    The quartic confinement keeps the rotating-frame energy bounded for
    omega up to 2, which the desk-scale harmonic trap would not.
    """
    eta = 1000.0
    box, m = (16.0, 512) if paper_scale else (8.0, 128)
    omegas = (0.0, 1.0, 2.0) if not paper_scale else (0.0, 1.0, 2.0, 3.0, 3.5)
    grid = Grid(2, box, m)
    rows = []
    for omega in omegas:
        params = ModelParams(eta=eta, omega=omega, potential=model.harmonic_quartic(1.0, 1.2, 0.3))
        phi0 = model.thomas_fermi_initial(grid, params)
        rows.append(_run_opt("rotation_2d", "pcg", "sym", grid, params, phi0, tol))
    return rows


def suite_multigrid_2d(paper_scale: bool = False, tol: float = 1e-12) -> list[dict]:
    """Fixed-grid versus multigrid continuation on the rotating half-square trap."""
    eta, omega = 500.0, 0.5
    box = 16.0
    levels = (64, 128, 256) if not paper_scale else (64, 128, 256, 512)
    params = ModelParams(eta=eta, omega=omega, potential=model.half_square())
    rows = []
    for init in ("a", "b", "d", "dbar"):
        # multigrid continuation
        t0 = time.perf_counter()
        total_iters = 0
        total_ffts = 0
        converged = True
        for grid, result in runs.continuation(
                [(m, tol) for m in levels], Grid(2, box, levels[0]),
                lambda g: model.initial_guess(init, g, params),
                lambda phi0, eps: optim.solve(phi0, params, _opt("pcg", "sym", eps))):
            total_iters += result.iterations
            total_ffts += result.fft_total
            converged = converged and result.converged
        row = _row("multigrid_2d", "pcg_multigrid", "sym", grid, params, init, result)
        row["iters"] = total_iters
        row["ffts"] = total_ffts
        # the continuation converged only if every level did, as in runs.run_multigrid
        row["converged"] = str(converged).lower()
        row["wall_time"] = round(time.perf_counter() - t0, 4)
        rows.append(row)
        # fixed finest grid for comparison
        phi0 = model.initial_guess(init, grid, params)
        rows.append(_run_opt("multigrid_2d", "pcg", "sym", grid, params, phi0, tol, init=init))
    return rows


SUITES = {
    "solvers_1d": suite_solvers_1d,
    "precond_1d": suite_precond_1d,
    "eta_sweep_1d": suite_eta_sweep_1d,
    "rotation_2d": suite_rotation_2d,
    "multigrid_2d": suite_multigrid_2d,
}


def run_benchmark(suite: str, paper_scale: bool = False) -> list[dict]:
    """Run one suite of SUITES (or 'all'); deterministic for a fixed seed."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown benchmark suite {suite!r}; choose from {tuple(SUITES)} or 'all'")
    names = list(SUITES) if suite == "all" else [suite]
    return [row for name in names for row in SUITES[name](paper_scale)]
