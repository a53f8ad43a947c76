"""Benchmark-suite orderings and the multigrid-versus-fixed-grid comparison."""

import pytest

from gpesolve import (
    Grid,
    ModelParams,
    SolverConfig,
    half_square,
    initial_guess,
    spectral_interpolate,
    solve,
)
from gpesolve import bench, optim


class TestPrecondSuite:
    def test_pcg_beats_pg_for_every_preconditioner(self):
        rows = bench.suite_precond_1d()
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row["precond"], {})[row["method"]] = row["iters"]
        assert set(by_kind) == {"kinetic", "potential", "c1", "c2", "sym"}
        for kind, iters in by_kind.items():
            assert iters["pcg"] < iters["pg"], kind


class TestEtaSweepSuite:
    def test_pcg_weakly_eta_dependent_pg_more_sensitive(self):
        rows = bench.suite_eta_sweep_1d()
        pcg = [row["iters"] for row in rows if row["method"] == "pcg"]
        pg = [row["iters"] for row in rows if row["method"] == "pg"]
        assert len(pcg) == len(pg) == 4  # eta = 10 .. 1e4
        pcg_var = max(pcg) / min(pcg)
        pg_var = max(pg) / min(pg)
        assert pcg_var < 3.0
        assert pg_var > pcg_var


class TestRotationSuite:
    def test_iterations_increase_with_omega(self):
        rows = bench.suite_rotation_2d()
        omegas = [row["omega"] for row in rows]
        iters = [row["iters"] for row in rows]
        assert omegas == [0.0, 1.0, 2.0]
        assert iters[0] < iters[1] < iters[2]
        assert all(row["converged"] == "true" for row in rows)


class TestSolversSuite:
    def test_pcg_always_cheapest(self):
        rows = bench.suite_solvers_1d(tol=1e-10)
        by_h = {}
        for row in rows:
            key = row["h"]
            by_h.setdefault(key, {})[row["method"]] = row
        for h, methods in by_h.items():
            pcg = methods["pcg"]["iters"]
            assert pcg < methods["pg"]["iters"]
            assert pcg < methods["be"]["inner_iters"]
            assert pcg < methods["be_lambda"]["inner_iters"]


class TestMultigridContinuation:
    def test_beats_fixed_grid_in_transform_budget(self):
        # coarse-to-fine continuation reaches the fixed-grid energy with a
        # smaller total transform count (the spec's cost metric)
        params = ModelParams(eta=500.0, omega=0.5, potential=half_square())
        tol = 1e-11
        coarse = Grid(2, 16.0, 64)
        fine = Grid(2, 16.0, 128)
        phi0 = initial_guess("d", coarse, params)
        res_c = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=tol,
                                                 max_iter=30000))
        seeded = spectral_interpolate(res_c.phi, fine)
        res_mg = solve(seeded, params, SolverConfig(method="pcg", precond="sym", tol=tol,
                                                    max_iter=30000))
        res_fixed = solve(initial_guess("d", fine, params), params,
                          SolverConfig(method="pcg", precond="sym", tol=tol, max_iter=30000))
        assert res_mg.converged and res_fixed.converged
        assert res_mg.energy <= res_fixed.energy + 1e-6
        # coarse-level transforms cost 4x less per unit, so compare the
        # fine-level work plus the coarse work scaled by grid size
        mg_cost = res_mg.fft_total + res_c.fft_total / 4.0
        assert mg_cost < res_fixed.fft_total

    def test_per_level_traces_monotone(self, tmp_path):
        from gpesolve.config import RunConfig
        from gpesolve.runs import run_multigrid
        import csv, os

        cfg = RunConfig.from_text("""
grid.d = 2
grid.L = 8
grid.M = 64
model.eta = 100
model.omega = 0.5
potential.kind = isotropic_half_square
solver.method = pcg
solver.tol = 1e-10
init.kind = d
multigrid.levels = 32:1e-9,64:1e-10
""")
        out = str(tmp_path / "mg")
        summary = run_multigrid(cfg, out)
        assert summary["converged"] == "true"
        for name in ("level0_M32_convergence.csv", "level1_M64_convergence.csv"):
            rows = list(csv.DictReader(open(os.path.join(out, name))))
            energies = [float(r["energy"]) for r in rows]
            assert all(b <= a for a, b in zip(energies, energies[1:]))


class TestMultigridSuite:
    def test_a_level_that_stops_short_fails_the_row(self, monkeypatch):
        # the continuation row once took converged from the finest level
        # alone; a coarse level stopped at max_iter must make it false
        def fake_solve(phi0, params, cfg):
            stop = optim.MAX_ITER if phi0.grid.M == 64 else optim.STOP_ENERGY
            return optim.SolveResult(phi=phi0, records=[], stop_reason=stop, energy=0.0,
                                     lam=0.0, r_inf=0.0, fft_total=0, wall_time=0.0)

        monkeypatch.setattr(optim, "solve", fake_solve)
        rows = bench.suite_multigrid_2d()
        continued = [row for row in rows if row["method"] == "pcg_multigrid"]
        fixed = [row for row in rows if row["method"] == "pcg"]
        assert len(continued) == len(fixed) == 4
        assert all(row["converged"] == "false" for row in continued)
        assert all(row["converged"] == "true" for row in fixed)


class TestHarness:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown benchmark suite"):
            bench.run_benchmark("nope")

    def test_row_fields(self):
        rows = bench.suite_eta_sweep_1d()
        for row in rows:
            assert set(bench.TABLE_FIELDS) == set(row)
