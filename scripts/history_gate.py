"""Bit-identity gate: run a fixed grid of solves in two source trees and
compare their convergence histories bit for bit.

    python scripts/history_gate.py OLD_SRC NEW_SRC

Each tree is imported in its own subprocess (PYTHONPATH=<tree>).  Either
argument may instead be a JSON file written earlier by
`python scripts/history_gate.py --dump OUT.json` (run with PYTHONPATH set),
which saves rerunning an unchanged tree.  The grid:

* optim.solve for all six preconditioners under pg and pcg, on
  - 1D: harmonic + lattice trap, eta = 250, L = 32, M = 1024, Thomas-Fermi
    guess, omega = 0, tol 1e-12;
  - 2D: half-square trap, eta = 100, omega = 0.5, L = 8, M = 64, guess d,
    tol 1e-11;
  each with the energy_diff stop and with residual_inf at tol 1e-7;
* optim.solve for all six preconditioners under pg and pcg on a 3D rotating
  problem: harmonic trap, eta = 100, omega = 0.5, L = 8, M = 16,
  Thomas-Fermi guess, energy_diff stop at tol 1e-11;
* classic.run_imaginary_time with be_lambda, cn_lambda and fe_lambda on a
  small 1D lattice problem under each of the three stops;
* the complex MINRES path: be_lambda/sym and cn_lambda/sym on the 2D
  half-square trap (eta = 100, omega = 0.5, L = 8, M = 32, guess d,
  dt = 0.1, energy_diff stop at tol 1e-8), and be_lambda/sym on the 1D
  lattice problem from its Thomas-Fermi guess times exp(0.5i x), a complex
  start at omega = 0 (max_iter 400);
* the config path: RunConfig.from_text and runs._solve_once for pcg/sym and
  be_lambda/sym on a 1D lattice problem, each with the adaptive shift and
  with a fixed solver.shift;
* runs that end in a failure stop, on the 1D harmonic trap (eta = 10,
  L = 8, M = 64, Gaussian guess): pcg/sym and be_lambda/sym at max_iter 5
  (max_iter), pcg/sym at tol 0 (backtracking_exhausted), and fe at 2.5
  times its stability bound (diverged).

Every numeric IterationRecord column, the iteration count, the stop reason,
the final energy, multiplier and residual, and fft_total must agree.  Floats
are compared through repr(), so NaN equals NaN and -0.0 differs from 0.0.
A differing run prints its iteration counts as old→new, the relative
difference of its final energy and, for the imaginary-time schemes, its
total of MINRES iterations as old→new, and the summary counts the runs whose
iteration count changed.  The final field is
compared too and reported separately, and so is the largest relative
difference of the final energy over the runs where it differs.  The summary
ends with the two numbers a reordering of floating-point work is judged by:
each run whose iteration count changed, as old→new, and the largest
relative difference of the final energy among the runs whose count held.
Exit code 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

COLUMNS = ("energy", "lam", "r_inf", "step_inf", "theta", "beta", "backtracks",
           "fft_count", "energy_delta", "restarted", "inner_iters")
KINDS = ("identity", "kinetic", "potential", "c1", "c2", "sym")

CONFIG_1D = """\
grid.d = 1
grid.L = 16
grid.M = 128
model.eta = 250
potential.kind = harmonic_plus_lattice
potential.kappa = 25
potential.q = 1.5707963267948966
solver.precond = sym
solver.max_iter = 3000
"""
CONFIG_RUNS = {
    "pcg/sym": ["solver.method=pcg", "solver.tol=1e-12"],
    "pcg/sym/shift": ["solver.method=pcg", "solver.tol=1e-12", "solver.shift=50"],
    "be_lambda/sym": ["solver.method=be_lambda", "solver.tol=1e-10"],
    "be_lambda/sym/shift": ["solver.method=be_lambda", "solver.tol=1e-10", "solver.shift=150"],
}


def _summarize(result) -> dict:
    return {
        "records": [[repr(getattr(r, c)) for c in COLUMNS] for r in result.records],
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "energy": repr(float(result.energy)),
        "lam": repr(float(result.lam)),
        "r_inf": repr(float(result.r_inf)),
        "fft_total": result.fft_total,
        "inner_total": result.inner_total,
        "field_sha256": hashlib.sha256(result.phi.values.tobytes()).hexdigest(),
    }


def dump(out_path: str) -> None:
    import warnings

    import numpy as np
    from gpesolve import classic, model, optim
    from gpesolve.config import RunConfig
    from gpesolve.model import ModelParams
    from gpesolve.runs import _solve_once, initial_field
    from gpesolve.spectral import Grid, WaveField

    lattice = model.harmonic_lattice(1.0, 25.0, np.pi / 2)
    problems = {
        "1d": (Grid(1, 32.0, 1024), ModelParams(eta=250.0, omega=0.0, potential=lattice), "tf", 1e-12),
        "2d": (Grid(2, 8.0, 64), ModelParams(eta=100.0, omega=0.5, potential=model.half_square()), "d", 1e-11),
    }
    runs = {}
    warnings.simplefilter("ignore")
    for pname, (grid, params, guess, tol) in problems.items():
        phi0 = model.initial_guess(guess, grid, params)
        for stop, stop_tol in (("energy_diff", tol), ("residual_inf", 1e-7)):
            for kind in KINDS:
                for method in ("pg", "pcg"):
                    cfg = optim.SolverConfig(method=method, precond=kind, stop=stop, tol=stop_tol)
                    runs[f"optim/{pname}/{stop}/{kind}/{method}"] = _summarize(optim.solve(phi0, params, cfg))
    grid = Grid(3, 8.0, 16)
    params = ModelParams(eta=100.0, omega=0.5, potential=model.harmonic())
    phi0 = model.thomas_fermi_initial(grid, params)
    for kind in KINDS:
        for method in ("pg", "pcg"):
            cfg = optim.SolverConfig(method=method, precond=kind, stop="energy_diff", tol=1e-11)
            runs[f"optim/3d/energy_diff/{kind}/{method}"] = _summarize(optim.solve(phi0, params, cfg))
    grid = Grid(1, 16.0, 128)
    params = ModelParams(eta=250.0, omega=0.0, potential=lattice)
    phi0 = model.thomas_fermi_initial(grid, params)
    schemes = (("be_lambda", 0.01, "sym"), ("cn_lambda", 0.01, "sym"), ("fe_lambda", 0.002, "identity"))
    for scheme, dt, kind in schemes:
        for stop, tol in (("energy_diff", 1e-12), ("iterate_diff", 1e-9), ("residual_inf", 1e-7)):
            res = classic.run_imaginary_time(phi0, classic.SchemeKind(scheme=scheme, dt=dt), params,
                                             precond_kind=kind, stop=stop, tol=tol, max_iter=3000)
            runs[f"classic/{scheme}/{stop}"] = _summarize(res)
    complex_phi0 = WaveField(grid, phi0.values * np.exp(0.5j * grid.x1))
    res = classic.run_imaginary_time(complex_phi0, classic.SchemeKind(scheme="be_lambda", dt=0.01),
                                     params, precond_kind="sym", stop="energy_diff", tol=1e-10,
                                     max_iter=400)
    runs["classic/complex_1d/be_lambda"] = _summarize(res)
    grid = Grid(2, 8.0, 32)
    params = ModelParams(eta=100.0, omega=0.5, potential=model.half_square())
    phi0 = model.initial_guess("d", grid, params)
    for scheme in ("be_lambda", "cn_lambda"):
        res = classic.run_imaginary_time(phi0, classic.SchemeKind(scheme=scheme, dt=0.1), params,
                                         precond_kind="sym", stop="energy_diff", tol=1e-8)
        runs[f"classic/rotating_2d/{scheme}"] = _summarize(res)
    for name, overrides in CONFIG_RUNS.items():
        cfg = RunConfig.from_text(CONFIG_1D, overrides)
        grid, params = cfg.grid(), cfg.model_params()
        res = _solve_once(cfg, grid, params, initial_field(cfg, grid, params))
        runs[f"config/{name}"] = _summarize(res)
    grid = Grid(1, 8.0, 64)
    params = ModelParams(eta=10.0, omega=0.0, potential=model.harmonic())
    phi0 = model.initial_guess("gauss", grid, params)
    for name, cfg in (("max_iter", optim.SolverConfig(precond="sym", max_iter=5)),
                      ("tol0", optim.SolverConfig(precond="sym", tol=0.0))):
        runs[f"failure/pcg/{name}"] = _summarize(optim.solve(phi0, params, cfg))
    res = classic.run_imaginary_time(phi0, classic.SchemeKind(scheme="be_lambda", dt=0.01), params,
                                     precond_kind="sym", max_iter=5)
    runs["failure/be_lambda/max_iter"] = _summarize(res)
    lam_max = float(np.max(grid.half_k2)) + float(np.max(model.sample_potential(params.potential, grid)))
    res = classic.run_imaginary_time(phi0, classic.SchemeKind(scheme="fe", dt=2.5 / lam_max), params,
                                     max_iter=400)
    runs["failure/fe/diverged"] = _summarize(res)
    with open(out_path, "w") as fh:
        json.dump(runs, fh)


def _run_tree(src: str, out_path: str) -> dict:
    if src.endswith(".json"):
        out_path = src
    else:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", out_path], env=env, check=True)
    with open(out_path) as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--dump":
        dump(argv[2])
        return 0
    if len(argv) != 3:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        old = _run_tree(argv[1], os.path.join(tmp, "old.json"))
        new = _run_tree(argv[2], os.path.join(tmp, "new.json"))
    failures = 0
    field_diffs = 0
    energy_diffs = []  # relative differences of the final energy, where it differs
    count_changes = []  # (name, old count, new count)
    held_energy = 0.0  # largest relative energy difference where the count held
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            print(f"MISSING {name}")
            failures += 1
            continue
        bad = [k for k in a if k != "field_sha256" and a[k] != b[k]]
        field_diffs += a["field_sha256"] != b["field_sha256"]
        e_a, e_b = float(a["energy"]), float(b["energy"])
        rel = abs(e_b - e_a) / abs(e_a)
        if a["energy"] != b["energy"]:
            energy_diffs.append(rel)
        status = "DIFF " + ",".join(bad) if bad else "same"
        failures += bool(bad)
        if a["iterations"] != b["iterations"]:
            count_changes.append((name, a["iterations"], b["iterations"]))
        else:
            held_energy = max(held_energy, rel)
        iterations = (f"iterations {a['iterations']}→{b['iterations']}, energy {rel:.2e}" if bad
                      else f"{a['iterations']} iterations")
        if bad and a["inner_total"]:
            iterations += f", inner {a['inner_total']}→{b['inner_total']}"
        print(f"{status:<12} {name}: {iterations}, {a['stop_reason']}, "
              f"fft_total {a['fft_total']}")
    print(f"{len(old)} runs, {failures} differ in the history, "
          f"{len(count_changes)} in iteration count; {field_diffs} final fields differ bitwise")
    if energy_diffs:
        print(f"final energy differs on {len(energy_diffs)} runs; "
              f"largest relative difference {max(energy_diffs):.3e}")
    print(f"iteration count changed on {len(count_changes)} runs"
          + "".join(f"\n  {name}: {n_old}→{n_new}" for name, n_old, n_new in count_changes))
    print(f"largest relative final-energy difference where the count held: {held_energy:.3e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
