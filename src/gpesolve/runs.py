"""Run orchestration: single solves and multigrid continuation, with all
artifacts written atomically to an output directory."""

from __future__ import annotations

import dataclasses
import os
import time

from . import classic, io, model, optim, spectral
from .config import ConfigError, RunConfig
from .optim import SolveResult
from .spectral import Grid, WaveField


def initial_field(cfg: RunConfig, grid: Grid, params: model.ModelParams) -> WaveField:
    return model.initial_guess(cfg.init_kind(), grid, params)


def _solve_once(
    cfg: RunConfig,
    grid: Grid,
    params: model.ModelParams,
    phi0: WaveField,
    tol: float | None = None,
) -> SolveResult:
    solver_cfg = cfg.solver_config()
    if tol is not None:
        solver_cfg = dataclasses.replace(solver_cfg, tol=tol)
    if cfg.method in optim.METHODS:
        return optim.solve(phi0, params, solver_cfg)
    return classic.run_imaginary_time(
        phi0, cfg.scheme(), params, precond_kind=solver_cfg.precond, stop=solver_cfg.stop,
        tol=solver_cfg.tol, max_iter=solver_cfg.max_iter, shift=solver_cfg.shift,
    )


def _summary_dict(cfg: RunConfig, result: SolveResult, grid: Grid) -> dict:
    return {
        "method": cfg.method,
        "precond": cfg.mapping["solver.precond"],
        "d": grid.d,
        "L": grid.L,
        "M": grid.M,
        "h": grid.h,
        "eta": cfg.mapping["model.eta"],
        "omega": cfg.mapping["model.omega"],
        "init": cfg.init_kind(),
        "converged": str(result.converged).lower(),
        "stop_reason": result.stop_reason,
        "stop_detail": result.stop_detail,
        "iterations": result.iterations,
        "inner_iterations": result.inner_total,
        "energy": repr(float(result.energy)),
        "lambda": repr(float(result.lam)),
        "residual_inf": repr(float(result.r_inf)),
        "fft_count": result.fft_total,
        "wall_time": repr(result.wall_time),
    }


def make_outdir(outdir: str) -> None:
    """Create outdir before a solve, so an unusable path (an existing file,
    or a path under one) is a ConfigError before any work is done."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make output directory {outdir}: {err}") from None


def run_single(cfg: RunConfig, outdir: str) -> dict:
    """Solve one configuration and write convergence CSV, field dump,
    density CSV, and a key = value summary."""
    grid = cfg.grid()
    params = cfg.model_params()
    phi0 = initial_field(cfg, grid, params)
    make_outdir(outdir)
    result = _solve_once(cfg, grid, params, phi0)
    inner = cfg.method not in optim.METHODS
    io.write_records_csv(os.path.join(outdir, "convergence.csv"), result.records, inner_iters=inner)
    io.save_field(os.path.join(outdir, "field.gpef"), result.phi)
    io.write_density_csv(os.path.join(outdir, "density.csv"), result.phi)
    summary = _summary_dict(cfg, result, grid)
    io.write_summary(os.path.join(outdir, "summary.txt"), summary)
    return summary


def continuation(levels, grid: Grid, guess, solve):
    """Coarse-to-fine continuation over levels, a list of (M, tol): solve(phi0,
    tol) on each level of grid, from guess(level grid) on the first and from
    the previous level's result zero-padded (spectral_interpolate) on the
    others.  Yields (level grid, result) per level."""
    phi = None
    for m, tol in levels:
        grid = dataclasses.replace(grid, M=m)
        phi0 = guess(grid) if phi is None else spectral.spectral_interpolate(phi, grid)
        result = solve(phi0, tol)
        phi = result.phi
        yield grid, result


def run_multigrid(cfg: RunConfig, outdir: str) -> dict:
    """Coarse-to-fine continuation: solve each level to its tolerance and
    zero-pad the result as the next level's initial guess.  Each level's
    convergence CSV times that level's solve alone.  A level that does not
    converge does not stop the continuation, but the run's stop reason is
    that of the first such level, and its stop detail names the level."""
    schedule = cfg.multigrid_schedule()
    if not schedule:
        return run_single(cfg, outdir)
    params = cfg.model_params()
    make_outdir(outdir)
    t0 = time.perf_counter()
    levels = {}
    failed = None  # (level, M, result) of the first level that did not converge
    steps = continuation(schedule, cfg.grid(), lambda g: initial_field(cfg, g, params),
                         lambda phi0, tol: _solve_once(cfg, phi0.grid, params, phi0, tol=tol))
    for level, (grid, result) in enumerate(steps):
        io.write_records_csv(
            os.path.join(outdir, f"level{level}_M{grid.M}_convergence.csv"),
            result.records, inner_iters=cfg.method not in optim.METHODS)
        levels[f"level{level}_energy"] = repr(float(result.energy))
        levels[f"level{level}_iterations"] = result.iterations
        levels[f"level{level}_stop_reason"] = result.stop_reason
        if failed is None and not result.converged:
            failed = level, grid.M, result
    io.save_field(os.path.join(outdir, "field.gpef"), result.phi)
    io.write_density_csv(os.path.join(outdir, "density.csv"), result.phi)
    summary = _summary_dict(cfg, result, grid)
    summary["levels"] = ",".join(str(m) for m, _ in schedule)
    summary["wall_time"] = repr(time.perf_counter() - t0)
    if failed is not None:
        level, level_m, bad = failed
        detail = f"level {level} (M = {level_m}) stopped with {bad.stop_reason}"
        summary.update(converged=str(bad.converged).lower(), stop_reason=bad.stop_reason,
                       stop_detail=detail + (f": {bad.stop_detail}" if bad.stop_detail else ""))
    summary.update(levels)
    io.write_summary(os.path.join(outdir, "summary.txt"), summary)
    return summary
