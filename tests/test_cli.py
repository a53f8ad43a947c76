"""Command-line interface and run orchestration."""

import csv
import os
import warnings

from types import SimpleNamespace

import numpy as np
import pytest

from gpesolve import WaveField, bench, classic, optim, precond, runs, spectral_interpolate
from gpesolve.cli import main
from gpesolve.config import RunConfig
from gpesolve.runs import run_multigrid, run_single

HARMONIC_1D = """
grid.d = 1
grid.L = 16
grid.M = 128
model.eta = 0
solver.method = pcg
solver.precond = sym
solver.tol = 1e-12
init.kind = gauss
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary(outdir):
    out = {}
    for line in open(os.path.join(outdir, "summary.txt")):
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class TestSolveCommand:
    def test_minimal_run_hits_known_energy(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HARMONIC_1D)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert summary["converged"] == "true"
        assert abs(float(summary["energy"]) - np.sqrt(2) / 2) <= 1e-10
        for name in ("convergence.csv", "field.gpef", "density.csv", "summary.txt"):
            assert os.path.exists(os.path.join(out, name))

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "grid.d = 1\ngrid.M = 64\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "grid.L" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, case):
        if case == "missing":
            cfg = str(tmp_path / "missing.cfg")
        elif case == "directory":
            cfg = str(tmp_path)
        else:
            cfg = str(tmp_path / "run.cfg")
            with open(cfg, "wb") as fh:
                fh.write(HARMONIC_1D.encode() + b"# \xff\xfe\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and cfg in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb,levels", [("solve", ""), ("multigrid", "64:1e-8,128:1e-10")])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_exits_2_before_the_solve(self, tmp_path, capsys, monkeypatch, out,
                                                   verb, levels):
        cfg = write_cfg(tmp_path, HARMONIC_1D + f"multigrid.levels = {levels}\n")
        (tmp_path / "file").write_text("")
        solves = []
        monkeypatch.setattr(runs, "_solve_once", lambda *a, **kw: solves.append(a))
        assert main([verb, "--config", cfg, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(tmp_path / out) in err
        assert solves == []

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HARMONIC_1D + "typo.key = 1\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "typo.key" in capsys.readouterr().err

    def test_lattice_argument_key_is_gone(self, tmp_path, capsys):
        # the lattice term is sin^2(q nu^2) only; the key that chose it exits 2
        cfg = write_cfg(tmp_path, HARMONIC_1D + "potential.lattice_argument = nu\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "'potential.lattice_argument'" in capsys.readouterr().err

    def test_nonpositive_shift_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HARMONIC_1D)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--set", "solver.shift=0", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "shift must be positive" in err
        assert not os.path.exists(out)

    def test_imaginary_time_nonpositive_shift_exits_2(self, tmp_path, capsys):
        text = HARMONIC_1D.replace("solver.method = pcg", "solver.method = be_lambda")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        for shift in ("0", "-5"):
            assert main(["solve", "--config", cfg, "--set", f"solver.shift={shift}",
                         "--out", out]) == 2
            assert "shift must be positive" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("override", ["solver.stop=bogus", "solver.max_iter=many"])
    def test_imaginary_time_bad_option_exits_2(self, tmp_path, capsys, override):
        text = HARMONIC_1D.replace("solver.method = pcg", "solver.method = be_lambda")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--set", override, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and override.split("=")[0] in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("method,override", [
        ("pcg", "solver.tol=inf"), ("be_lambda", "solver.tol=inf"),
        ("be_lambda", "solver.dt=inf"), ("be_lambda", "solver.inner_tol=inf"),
        ("pcg", "grid.L=nan"), ("be_lambda", "grid.L=inf"),
    ])
    def test_infinite_tolerance_or_step_exits_2(self, tmp_path, capsys, method, override):
        # on this trap tol = inf once exited 0 as converged after one pcg
        # step, dt = inf exited 1 as diverged and inner_tol = inf exited 0;
        # grid.L = nan passed the grid check and ended in a traceback, exit 1
        text = (HARMONIC_1D.replace("grid.L = 16", "grid.L = 8")
                .replace("grid.M = 128", "grid.M = 64").replace("model.eta = 0", "model.eta = 10")
                .replace("solver.method = pcg", f"solver.method = {method}"))
        out = str(tmp_path / "out")
        assert main(["solve", "--config", write_cfg(tmp_path, text), "--set", override,
                     "--out", out]) == 2
        key = override.split("=")[0]
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}: ") and "finite" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("verb,overrides,key", [
        ("solve", ["potential.kind=harmonic_plus_quartic"], "potential.kind"),
        ("solve", ["grid.d=2", "grid.M=16", "potential.harmonic_coeffs=1"],
         "potential.harmonic_coeffs"),
        ("multigrid", ["multigrid.levels=5:1e-8,32:1e-8"], "multigrid.levels"),
        # rotation above the harmonic trap's frequency sqrt(2): unbounded below
        ("solve", ["grid.d=2", "grid.L=8", "grid.M=64", "model.eta=1", "model.omega=3",
                   "init.kind=d"], "model.omega"),
        ("multigrid", ["grid.d=2", "grid.M=16", "model.omega=-1.5"], "model.omega"),
    ])
    def test_trap_and_level_errors_exit_2(self, tmp_path, capsys, verb, overrides, key):
        cfg = write_cfg(tmp_path, HARMONIC_1D)
        out = str(tmp_path / "out")
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main([verb, "--config", cfg, *sets, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {key}:" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind", ["c1", "c2"])
    def test_imaginary_time_non_hermitian_precond_exits_2(self, tmp_path, capsys, kind):
        text = HARMONIC_1D.replace("solver.method = pcg", "solver.method = be_lambda")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--set", f"solver.precond={kind}",
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: solver.precond: precond '{kind}' is not Hermitian" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    def test_imaginary_time_fixed_shift_reaches_preconditioner(self, tmp_path, monkeypatch):
        text = HARMONIC_1D.replace("solver.method = pcg", "solver.method = be_lambda")
        cfg = write_cfg(tmp_path, text + "solver.tol = 1e-9\n")
        shifts = []
        refresh = precond.Preconditioner.refresh

        def spy(self, alpha, w):
            shifts.append(alpha)
            return refresh(self, alpha, w)

        monkeypatch.setattr(precond.Preconditioner, "refresh", spy)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--set", "solver.shift=1e6", "--out", out]) == 0
        assert shifts and set(shifts) == {1e6}

    def test_imaginary_time_gets_the_configured_options(self, monkeypatch):
        cfg = RunConfig.from_text(HARMONIC_1D, [
            "solver.method=be_lambda", "solver.precond=kinetic", "solver.shift=3",
            "solver.stop=residual_inf", "solver.tol=1e-7", "solver.max_iter=17"])
        seen = {}
        monkeypatch.setattr(classic, "run_imaginary_time",
                            lambda phi0, scheme, params, **options: seen.update(options))
        runs._solve_once(cfg, cfg.grid(), cfg.model_params(), None)
        assert seen == {"precond_kind": "kinetic", "shift": 3.0, "stop": "residual_inf",
                        "tol": 1e-7, "max_iter": 17}

    def test_unconverged_run_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HARMONIC_1D + "solver.max_iter = 2\n")
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 1

    def test_stop_table_sets_the_exit_code(self, tmp_path):
        # 1D harmonic trap: pcg at tol 0 runs out of step halvings, and
        # be_lambda with one MINRES iteration fails its first inner solve
        base = ("grid.d = 1\ngrid.L = 8\ngrid.M = 64\nmodel.eta = 10\n"
                "solver.precond = sym\ninit.kind = gauss\n")
        cases = (
            # the count sits at the roundoff floor, so it follows the rounding
            # of the engine's real-arithmetic path
            (["solver.method=pcg", "solver.tol=0"], "energy could not be decreased",
             "backtracking_exhausted", "117"),
            (["solver.method=be_lambda", "solver.inner_max_iter=1", "solver.inner_tol=1e-14"],
             "MINRES did not converge", "inner_solver_failed", "0"),
        )
        cfg = write_cfg(tmp_path, base)
        for overrides, detail, reason, iterations in cases:
            out = str(tmp_path / reason)
            args = ["solve", "--config", cfg, "--out", out]
            for item in overrides:
                args += ["--set", item]
            with pytest.warns(RuntimeWarning, match=detail):
                assert main(args) == 1
            summary = read_summary(out)
            assert (summary["stop_reason"], summary["iterations"], summary["converged"]) == (
                reason, iterations, "false")
            assert summary["stop_detail"].startswith(detail)

    @pytest.mark.parametrize("dt", ["1e100", "1e200", "1e300"])
    def test_forward_euler_overflow_exits_1(self, tmp_path, capsys, dt):
        cfg = write_cfg(tmp_path, "grid.d = 1\ngrid.L = 8\ngrid.M = 64\nmodel.eta = 10\n"
                                  "solver.method = fe\ninit.kind = gauss\n")
        out = str(tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["solve", "--config", cfg, "--set", f"solver.dt={dt}", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "solver failed: diverged" in err and "Traceback" not in err
        summary = read_summary(out)
        assert (summary["stop_reason"], summary["converged"]) == ("diverged", "false")

    def test_set_override(self, tmp_path):
        cfg = write_cfg(tmp_path, HARMONIC_1D)
        out = str(tmp_path / "out")
        code = main(["solve", "--config", cfg, "--set", "solver.precond=kinetic", "--out", out])
        assert code == 0
        assert read_summary(out)["precond"] == "kinetic"

    def test_imaginary_time_method(self, tmp_path):
        text = HARMONIC_1D.replace("solver.method = pcg", "solver.method = be_lambda")
        cfg = write_cfg(tmp_path, text + "solver.tol = 1e-9\n")
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        summary = read_summary(out)
        assert abs(float(summary["energy"]) - np.sqrt(2) / 2) <= 1e-7
        assert int(summary["inner_iterations"]) > 0
        header = open(os.path.join(out, "convergence.csv")).readline().strip()
        assert header.split(",")[-4:] == ["energy_delta", "restarted", "inner_iters", "wall_time"]

    def test_convergence_csv_logs_energy_delta_and_restarts(self, tmp_path):
        # each row's energy_delta is the change from the previous row's
        # energy, and restarted is 0 or 1, with beta = 0 on a restart
        cfg = write_cfg(tmp_path, HARMONIC_1D.replace("model.eta = 0", "model.eta = 50"))
        out = str(tmp_path / "out")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "convergence.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[-3:] == ["energy_delta", "restarted", "wall_time"]
        assert {row["restarted"] for row in rows} <= {"0", "1"}
        assert all(float(row["beta"]) == 0.0 for row in rows if row["restarted"] == "1")
        energies = [float(row["energy"]) for row in rows]
        for prev, row in zip(energies, rows[1:]):
            assert float(row["energy_delta"]) == pytest.approx(float(row["energy"]) - prev,
                                                               abs=1e-12)

    def test_deterministic_rerun(self, tmp_path):
        cfg = RunConfig.from_text(HARMONIC_1D)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_single(cfg, out1)
        run_single(cfg, out2)

        def payload(outdir):
            # all numeric columns except the wall-clock one
            rows = list(csv.reader(open(os.path.join(outdir, "convergence.csv"))))
            drop = rows[0].index("wall_time")
            return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]

        assert payload(out1) == payload(out2)
        assert (open(os.path.join(out1, "density.csv")).read()
                == open(os.path.join(out2, "density.csv")).read())


class TestMultigridCommand:
    def test_single_level_equals_run_single(self, tmp_path):
        text = HARMONIC_1D + "multigrid.levels = 128:1e-12\n"
        cfg = RunConfig.from_text(text)
        out1, out2 = str(tmp_path / "mg"), str(tmp_path / "single")
        s1 = run_multigrid(cfg, out1)
        s2 = run_single(RunConfig.from_text(HARMONIC_1D), out2)
        assert abs(float(s1["energy"]) - float(s2["energy"])) <= 1e-13
        assert s1["iterations"] == s2["iterations"]

    def test_two_level_refinement(self, tmp_path):
        text = HARMONIC_1D + "multigrid.levels = 64:1e-10,128:1e-12\n"
        cfg = RunConfig.from_text(text)
        out = str(tmp_path / "mg")
        summary = run_multigrid(cfg, out)
        assert summary["converged"] == "true"
        assert abs(float(summary["energy"]) - np.sqrt(2) / 2) <= 1e-10
        assert os.path.exists(os.path.join(out, "level0_M64_convergence.csv"))
        assert os.path.exists(os.path.join(out, "level1_M128_convergence.csv"))

    def test_real_start_stays_real_on_every_level(self, tmp_path, monkeypatch):
        # without rotation each level's zero-padded start is float64, so
        # every level runs on the real path, not only the first
        real = []
        solve_once = runs._solve_once
        monkeypatch.setattr(runs, "_solve_once", lambda cfg, grid, params, phi0, **kw: (
            real.append(np.isrealobj(optim.start_iterate(phi0, 0.0).values))
            or solve_once(cfg, grid, params, phi0, **kw)))
        cfg = RunConfig.from_text(HARMONIC_1D + "multigrid.levels = 32:1e-8,64:1e-10,128:1e-12\n")
        summary = run_multigrid(cfg, str(tmp_path / "mg"))
        assert summary["converged"] == "true"
        assert real == [True, True, True]

    def test_continuation_starts_each_level_from_the_last(self):
        # level k > 0 starts from level k - 1's result, zero-padded
        grid = RunConfig.from_text(HARMONIC_1D).grid()
        seen = []

        def solve(phi0, tol):
            seen.append((phi0, tol))
            return SimpleNamespace(phi=WaveField(phi0.grid, phi0.values * np.exp(1j * len(seen))))

        levels = list(runs.continuation([(16, 1e-3), (32, 1e-4), (64, 1e-5)], grid,
                                        lambda g: WaveField(g, np.exp(-g.x1**2)).normalized(),
                                        solve))
        assert [(g.M, phi0.grid, tol) for (g, _), (phi0, tol) in zip(levels, seen)] == [
            (16, levels[0][0], 1e-3), (32, levels[1][0], 1e-4), (64, levels[2][0], 1e-5)]
        for (_, result), (phi0, _) in zip(levels, seen[1:]):
            expected = spectral_interpolate(result.phi, phi0.grid)
            assert np.array_equal(phi0.values, expected.values)

    def test_unconverged_level_sets_the_stop_reason(self, tmp_path, capsys):
        # level 0 stops at max_iter while the loose level 1 converges: the
        # run does not count as converged, and the exit code follows
        text = HARMONIC_1D.replace("solver.tol = 1e-12\n", "solver.max_iter = 3\n")
        cfg = write_cfg(tmp_path, text + "multigrid.levels = 64:1e-14,128:1e-3\n")
        out = str(tmp_path / "out")
        assert main(["multigrid", "--config", cfg, "--out", out]) == 1
        summary = read_summary(out)
        assert (summary["level0_stop_reason"], summary["level1_stop_reason"]) == (
            "max_iter", "energy_diff")
        assert (summary["stop_reason"], summary["converged"]) == ("max_iter", "false")
        assert summary["stop_detail"] == "level 0 (M = 64) stopped with max_iter"
        assert summary["level0_iterations"] == "3"
        assert "solver failed: max_iter" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["64:inf,128:1e-12", "64:1e-8,128:nan", "64:0"])
    def test_level_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, levels):
        cfg = write_cfg(tmp_path, HARMONIC_1D)
        out = str(tmp_path / "out")
        assert main(["multigrid", "--config", cfg, "--set", f"multigrid.levels={levels}",
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: multigrid.levels: tolerances must be finite")
        assert not os.path.exists(out)

    def test_cli_verb(self, tmp_path):
        cfg = write_cfg(tmp_path, HARMONIC_1D + "multigrid.levels = 64:1e-10,128:1e-12\n")
        out = str(tmp_path / "out")
        assert main(["multigrid", "--config", cfg, "--out", out]) == 0


class TestBenchCommand:
    def test_eta_sweep_suite(self, tmp_path):
        out = str(tmp_path / "bench")
        assert main(["bench", "eta_sweep_1d", "--out", out]) == 0
        path = os.path.join(out, "eta_sweep_1d.csv")
        rows = list(csv.DictReader(open(path)))
        assert len(rows) == 8  # 4 etas x {pg, pcg}
        assert {row["method"] for row in rows} == {"pg", "pcg"}
        for row in rows:
            assert row["converged"] == "true"

    def test_unusable_out_exits_2_before_the_suite(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(bench, "run_benchmark", lambda *a, **kw: pytest.fail("suite ran"))
        assert main(["bench", "eta_sweep_1d", "--out", str(tmp_path / "file")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "nosuchsuite"])


class TestAnalyzeCommand:
    def test_amplification(self, capsys):
        assert main(["analyze", "amplification", "--scheme", "be", "--dt", "0.2",
                     "--n", "12", "--iters", "400"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        pred = float(values["predicted_rate"])
        obs = float(values["observed_rate"])
        assert abs(obs - pred) <= 0.05 * pred

    @pytest.mark.parametrize("option,value,message", [
        ("--n", "1", "size 2 to 256, got size 1"),
        ("--n", "0", "size 2 to 256, got size 0"),
        ("--n", "-1", "size 2 to 256, got size -1"),
        ("--n", "300", "size 2 to 256, got size 300"),
        ("--iters", "0", "n_iter must be at least 1, got 0"),
        ("--dt", "nan", "dt must be finite and positive, got nan"),
        ("--dt", "0", "dt must be finite and positive, got 0.0"),
        ("--seed", "-1", "seed must not be negative, got -1"),
    ])
    def test_amplification_rejects_inputs_outside_the_domain(self, capsys, option, value,
                                                             message):
        assert main(["analyze", "amplification", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {option}: ")
        assert message in captured.err and captured.out == ""

    def test_condition(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
grid.d = 1
grid.L = 4
grid.M = 32
model.eta = 0
solver.method = pcg
solver.tol = 1e-14
init.kind = gauss
""")
        assert main(["analyze", "condition", "--config", cfg, "--precond", "kinetic"]) == 0
        out = capsys.readouterr().out
        assert "sigma = " in out

    def test_condition_refuses_a_large_grid_before_solving(self, tmp_path, capsys, monkeypatch):
        # classic.check_condition_size is the one size rule; the CLI reads
        # it before it spends a solve on a grid the diagnostic refuses
        cfg = write_cfg(tmp_path, HARMONIC_1D.replace("grid.M = 128", "grid.M = 4098"))
        monkeypatch.setattr(runs, "_solve_once", lambda *a, **kw: pytest.fail("solved"))
        assert main(["analyze", "condition", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("condition analysis needs a small grid: dense conditioning "
                              "diagnostic is limited to 4096 unknowns, got 4098")

    def test_condition_takes_no_out(self, tmp_path, capsys):
        # analyze condition writes no files, so --out is a usage error
        cfg = write_cfg(tmp_path, HARMONIC_1D)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "condition", "--config", cfg, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err

    def test_condition_reads_the_configured_shift(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, HARMONIC_1D.replace("grid.M = 128", "grid.M = 32")
                        .replace("model.eta = 0", "model.eta = 10")
                        .replace("grid.L = 16", "grid.L = 8"))
        seen = []
        analyze = classic.precond_hessian_condition
        monkeypatch.setattr(classic, "precond_hessian_condition",
                            lambda phi, params, p: seen.append(p) or analyze(phi, params, p))
        sigmas = []
        for shift in ("50", "0.5", "adaptive"):
            assert main(["analyze", "condition", "--config", cfg,
                         "--set", f"solver.shift={shift}"]) == 0
            sigmas.append(capsys.readouterr().out.split("sigma = ")[1].split()[0])
        assert [p.alpha for p in seen[:2]] == [50.0, 0.5]
        assert seen[2].alpha not in (50.0, 0.5) and len(set(sigmas)) == 3

    @pytest.mark.parametrize("method,message", [
        # the adaptive shift is negative at the Gaussian: the solve ends diverged
        ("pcg", "solver failed: diverged (preconditioner shift must be positive"),
        # the solve converges, but the shift at the solution is negative
        ("be_lambda", "condition analysis failed: preconditioner shift must be positive"),
    ])
    def test_condition_stops_by_name(self, tmp_path, capsys, method, message):
        # V = -3 r^2 + 0.075 r^4 is negative near the centre
        cfg = write_cfg(tmp_path, f"""
grid.d = 2
grid.L = 8
grid.M = 16
model.eta = 1
potential.kind = harmonic_plus_quartic
potential.alpha = 3
potential.kappa_quartic = 0.3
solver.method = {method}
solver.precond = sym
init.kind = gauss
""")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["analyze", "condition", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "Traceback" not in captured.err and "sigma" not in captured.out
