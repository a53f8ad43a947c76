"""The benchmark's four solver workloads, built from gpesolve's public API.

A workload is a list of jobs.  Building the jobs is the set-up (grid,
potential, initial data, config parse); ``Job.run`` is one timed solve and
``Job.check`` verifies its answer afterwards, outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")

MULTIGRID_CONFIG = """\
grid.d = 2
grid.L = 16
grid.M = 256
model.eta = 500
model.omega = 0.5
potential.kind = isotropic_half_square
solver.method = pcg
solver.precond = sym
solver.tol = 1e-12
init.kind = d
multigrid.levels = 64:1e-12,128:1e-12,256:1e-12
"""


@dataclass
class Outcome:
    """What one solve produced: outer iterations, their wall times, and the
    reasons it failed the correctness check (empty when it passed)."""

    iterations: int
    iter_s: list[float]
    misses: list[str] = field(default_factory=list)


def load_spec() -> dict:
    """Reference energies, tolerances and rationale of the workloads."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _energy_miss(energy: float, reference: float, rtol: float) -> list[str]:
    if abs(energy - reference) <= rtol * abs(reference):
        return []
    return [f"energy {energy!r} differs from reference {reference!r} by more than "
            f"{rtol:g} relative"]


def _steps(wall_times) -> list[float]:
    times = [0.0] + list(wall_times)
    return [b - a for a, b in zip(times, times[1:])]


class SolveJob:
    """One call of ``optim.solve`` or ``classic.run_imaginary_time``."""

    def __init__(self, label: str, call, shape, reference: float, rtol: float) -> None:
        self.label = label
        self.call = call
        self.shapes = [shape]
        self.reference = reference
        self.rtol = rtol

    def run(self):
        return self.call()

    def check(self, result) -> Outcome:
        misses = []
        if not result.converged or result.stop_reason != "energy_diff":
            misses.append(f"stopped with {result.stop_reason!r}, not a converged 'energy_diff'")
        misses += _energy_miss(result.energy, self.reference, self.rtol)
        return Outcome(result.iterations, _steps(r.wall_time for r in result.records), misses)


class MultigridJob:
    """One ``runs.run_multigrid`` pass writing its artifacts to a fresh
    directory under the benchmark's scratch directory."""

    def __init__(self, cfg, scratch: str, reference: float, rtol: float,
                 norm_tol: float) -> None:
        from gpesolve import runs
        self.label = "multigrid"
        self.cfg = cfg
        self.shapes = [(m,) * cfg.grid().d for m, _ in cfg.multigrid_schedule()]
        self.scratch = scratch
        self.reference = reference
        self.rtol = rtol
        self.norm_tol = norm_tol
        self.runs = runs
        self.outdir = None

    def run(self):
        self.outdir = tempfile.mkdtemp(prefix="multigrid-", dir=self.scratch)
        return self.runs.run_multigrid(self.cfg, self.outdir)

    def check(self, summary) -> Outcome:
        from gpesolve import io, spectral
        try:
            misses = []
            if summary["converged"] != "true" or summary["stop_reason"] != "energy_diff":
                misses.append(f"finest level stopped with {summary['stop_reason']!r}, "
                              "not a converged 'energy_diff'")
            misses += _energy_miss(float(summary["energy"]), self.reference, self.rtol)
            n = spectral.norm(io.load_field(os.path.join(self.outdir, "field.gpef")))
            if abs(n - 1.0) > self.norm_tol:
                misses.append(f"field.gpef has norm {n!r}, not 1 within {self.norm_tol:g}")
            iterations = 0
            iter_s: list[float] = []
            for level, (m, _) in enumerate(self.cfg.multigrid_schedule()):
                iterations += int(summary[f"level{level}_iterations"])
                path = os.path.join(self.outdir, f"level{level}_M{m}_convergence.csv")
                with open(path, newline="", encoding="utf-8") as fh:
                    iter_s += _steps(float(row["wall_time"]) for row in csv.DictReader(fh))
            return Outcome(iterations, iter_s, misses)
        finally:
            shutil.rmtree(self.outdir, ignore_errors=True)


def perturbed(phi0, seed: int, k: int, size: float):
    """phi0 * (1 + s) for a smooth real random series s with
    ||phi0 s|| = size ||phi0||, drawn from (seed, k)."""
    from gpesolve import WaveField
    g = phi0.grid
    rng = np.random.default_rng([seed % 2**64, k])
    x = g.x1 * (np.pi / g.L)
    s = np.zeros(g.shape)
    for m, (a, b) in enumerate(rng.standard_normal((6, 2)), start=1):
        s += (a * np.cos(m * x) + b * np.sin(m * x)) / m
    delta = phi0.values * s
    delta *= size * np.linalg.norm(phi0.values) / np.linalg.norm(delta)
    return WaveField(g, phi0.values + delta).normalized()


def _lattice_problem():
    from gpesolve import Grid, ModelParams, harmonic_lattice, thomas_fermi_initial
    grid = Grid(1, 32.0, 1024)
    params = ModelParams(eta=250.0, omega=0.0, potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
    return params, thomas_fermi_initial(grid, params)


def _rotating_problem():
    from gpesolve import Grid, ModelParams, half_square, initial_guess
    grid = Grid(2, 16.0, 256)
    params = ModelParams(eta=500.0, omega=0.5, potential=half_square())
    return params, initial_guess("d", grid, params)


def build(name: str, seed: int, scratch: str) -> list:
    """Set up the jobs of one pass of workload `name` for `seed`."""
    from gpesolve import optim
    spec = load_spec()
    reference = spec["workloads"][name]["reference_energy"]
    rtol = spec["energy_rtol"]
    size = spec["perturbation"]["relative_size"]
    if name == "rotating_2d":
        params, phi0 = _rotating_problem()
        cfg = optim.SolverConfig(method="pcg", precond="sym", tol=1e-12)
        return [SolveJob("pcg-sym", lambda: optim.solve(phi0, params, cfg), phi0.grid.shape,
                         reference, rtol)]
    if name == "lattice_1d":
        params, phi0 = _lattice_problem()
        jobs = []
        for kind in ("identity", "kinetic", "potential", "c1", "c2", "sym"):
            for method in ("pg", "pcg"):
                start = perturbed(phi0, seed, len(jobs), size)
                cfg = optim.SolverConfig(method=method, precond=kind, tol=1e-12, max_iter=100000)
                jobs.append(SolveJob(f"{method}-{kind}",
                                     lambda s=start, c=cfg: optim.solve(s, params, c),
                                     phi0.grid.shape, reference, rtol))
        return jobs
    if name == "imaginary_time_1d":
        from gpesolve import classic
        params, phi0 = _lattice_problem()
        jobs = []
        for scheme in ("be_lambda", "cn_lambda"):
            start = perturbed(phi0, seed, len(jobs), size)
            kind = classic.SchemeKind(scheme=scheme, dt=0.01)
            jobs.append(SolveJob(scheme, lambda s=start, k=kind: classic.run_imaginary_time(
                s, k, params, precond_kind="sym", tol=1e-12), phi0.grid.shape, reference, rtol))
        return jobs
    from gpesolve.config import RunConfig  # multigrid_2d; run.py has checked the name
    return [MultigridJob(RunConfig.from_text(MULTIGRID_CONFIG), scratch, reference, rtol,
                         spec["field_norm_tol"])]


def array_bytes(jobs) -> list[int]:
    """Bytes of one complex field on each grid the jobs solve on."""
    shapes = sorted({tuple(s) for job in jobs for s in job.shapes}, key=math.prod)
    return [16 * math.prod(s) for s in shapes]
