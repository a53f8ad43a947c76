"""Acceptance criteria.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a PASS/FAIL line (run pytest with -s or check the
captured output).  Criterion 9 is the heavyweight one (a four-guess
multigrid continuation to a 256^2 grid); its result is shared with the
vortex check of criterion 10.
"""

import time

import numpy as np

from gpesolve import (
    Grid,
    ModelParams,
    WaveField,
    energy,
    evaluate,
    find_vortices,
    half_square,
    harmonic,
    harmonic_lattice,
    hessian_quadratic_form,
    initial_guess,
    inner,
    norm,
    spectral_interpolate,
    thomas_fermi_initial,
)
from gpesolve import model
from gpesolve.classic import SchemeKind, amplification_analysis, imaginary_time_step, run_imaginary_time
from gpesolve.optim import SolverConfig, solve
from oracles import dense_hamiltonian_1d


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def lattice_1d(eta, box, m):
    grid = Grid(1, box, m)
    params = ModelParams(eta=eta, omega=0.0, potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
    return grid, params, thomas_fermi_initial(grid, params)


def test_criterion_01_linear_analytic_target():
    grid = Grid(1, 16.0, 128)
    params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
    phi0 = initial_guess("gauss", grid, params)
    t0 = time.perf_counter()
    res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=1e-13, max_iter=50))
    elapsed = time.perf_counter() - t0
    err = abs(res.energy - np.sqrt(2.0) / 2.0)
    ok = err <= 1e-10 and res.iterations <= 50 and elapsed < 1.0 and res.converged
    report(1, "linear-analytic-target", ok,
           f"E err {err:.2e}, {res.iterations} iters, {elapsed:.3f}s")


def test_criterion_02_dense_oracle_equivalence():
    rng = np.random.default_rng(20)
    worst_lam, worst_overlap = 0.0, 1.0
    for trial in range(10):
        grid = Grid(1, 8.0, 32)
        params = ModelParams(
            eta=0.0, omega=0.0,
            potential=harmonic_lattice(rng.uniform(0.5, 2.0), rng.uniform(0.0, 30.0),
                                       rng.uniform(0.2, 1.5)))
        phi0 = WaveField(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32)).normalized()
        res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=1e-16,
                                               max_iter=4000))
        h_mat = dense_hamiltonian_1d(32, 8.0, model.sample_potential(params.potential, grid))
        evals, evecs = np.linalg.eigh(h_mat)
        worst_lam = max(worst_lam, abs(res.lam - evals[0]))
        v1 = evecs[:, 0] / np.linalg.norm(evecs[:, 0])
        overlap = abs(np.vdot(v1, res.phi.values / np.linalg.norm(res.phi.values)))
        worst_overlap = min(worst_overlap, overlap)
    ok = worst_lam <= 1e-8 and worst_overlap >= 1.0 - 1e-8
    report(2, "dense-oracle-equivalence", ok,
           f"max |dlambda| {worst_lam:.2e}, min overlap 1-{1 - worst_overlap:.2e}")


def _smooth_field(grid, rng):
    hat = np.zeros(grid.shape, dtype=complex)
    cut = 6
    idx = np.arange(-cut, cut + 1)
    if grid.d == 1:
        hat[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    else:
        for i in idx:
            for j in idx:
                hat[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    return WaveField(grid, np.fft.ifftn(hat)).normalized()


def test_criterion_03_finite_difference_suite():
    rng = np.random.default_rng(30)
    cases = []
    for eta in (0.0, 10.0, 250.0):
        for _ in range(4):
            cases.append((1, eta, 0.0))
    for eta in (0.0, 10.0, 250.0):
        for omega in (0.0, 0.5):
            for _ in range(2):
                cases.append((2, eta, omega))
    assert len(cases) >= 20
    worst_grad, worst_hess = 0.0, 0.0
    for d, eta, omega in cases:
        grid = Grid(d, 6.0, 32)
        params = ModelParams(eta=eta, omega=omega,
                             potential=half_square() if d == 2 else harmonic(1.0))
        phi = _smooth_field(grid, rng)
        f = _smooth_field(grid, rng)
        eps = 1e-5
        e_plus = energy(WaveField(grid, phi.values + eps * f.values), params).total
        e_minus = energy(WaveField(grid, phi.values - eps * f.values), params).total
        fd_grad = (e_plus - e_minus) / (2 * eps)
        # the gradient is 2 H_phi phi
        an_grad = 2.0 * inner(WaveField(grid, evaluate(phi, params).h_phi), f).real
        worst_grad = max(worst_grad, abs(fd_grad - an_grad) / max(abs(an_grad), 1.0))
        h_plus = evaluate(WaveField(grid, phi.values + eps * f.values), params).h_phi
        h_minus = evaluate(WaveField(grid, phi.values - eps * f.values), params).h_phi
        fd_hess = inner(WaveField(grid, h_plus - h_minus), f).real / eps
        an_hess = hessian_quadratic_form(phi, f, params)
        worst_hess = max(worst_hess, abs(fd_hess - an_hess) / max(abs(an_hess), 1.0))
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-4
    report(3, "finite-difference-suite", ok,
           f"{len(cases)} instances, grad rel {worst_grad:.2e}, hess rel {worst_hess:.2e}")


def test_criterion_04_monotonicity_and_normalization():
    checked = 0
    worst_norm = 0.0
    monotone = True
    grid2 = Grid(2, 8.0, 64)
    params2 = ModelParams(eta=100.0, omega=0.5, potential=half_square())
    phi2 = initial_guess("d", grid2, params2)
    for method in ("pg", "pcg"):
        for kind in ("identity", "kinetic", "potential", "c1", "c2", "sym"):
            res = solve(phi2, params2, SolverConfig(method=method, precond=kind,
                                                    tol=1e-10, max_iter=300))
            energies = [r.energy for r in res.records]
            monotone &= all(b <= a for a, b in zip(energies, energies[1:]))
            worst_norm = max(worst_norm, abs(norm(res.phi) - 1.0))
            checked += 1
    grid1, params1, phi1 = lattice_1d(250.0, 16.0, 256)
    for scheme in ("fe_lambda", "be", "be_lambda", "cn", "cn_lambda"):
        dt = 1e-4 if scheme == "fe_lambda" else 0.01
        res = run_imaginary_time(phi1, SchemeKind(scheme, dt), params1, "sym",
                                 tol=1e-9, max_iter=200)
        energies = [r.energy for r in res.records]
        monotone &= all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        worst_norm = max(worst_norm, abs(norm(res.phi) - 1.0))
        checked += 1
    ok = monotone and worst_norm <= 1e-13
    report(4, "monotone-energy-unit-norm", ok,
           f"{checked} solver runs, worst |norm-1| {worst_norm:.1e}")


def test_criterion_05_be_lambda_effective_dt():
    worst = 0.0
    for m, pot in ((64, harmonic(1.0)), (64, harmonic_lattice(1.0, 10.0, 0.7))):
        grid = Grid(1, 16.0, m)
        params = ModelParams(eta=0.0, omega=0.0, potential=pot)
        phi = initial_guess("gauss", grid, params)
        lam = evaluate(phi, params).lam
        dt = 0.05
        with_lam, _ = imaginary_time_step(phi, SchemeKind("be_lambda", dt, 1e-13), params)
        without, _ = imaginary_time_step(
            phi, SchemeKind("be", dt / (1.0 - dt * lam), 1e-13), params)
        worst = max(worst, float(np.max(np.abs(with_lam.values - without.values))))
    ok = worst <= 1e-12
    report(5, "be-effective-dt-equivalence", ok, f"max one-step difference {worst:.2e}")


def test_criterion_06_amplification_rates():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((16, 16))
    h = 0.5 * (a + a.T) + 4.0 * np.eye(16)
    worst = 0.0
    for scheme, dt in (("fe", 0.04), ("be", 0.3), ("cn", 0.3)):
        rep = amplification_analysis(h, scheme, dt, n_iter=600, seed=2)
        assert not rep.degenerate
        worst = max(worst, abs(rep.observed_rate - rep.predicted_rate) / rep.predicted_rate)
    ok = worst <= 0.05
    report(6, "amplification-rate-prediction", ok, f"worst relative mismatch {worst:.2%}")


def _pcg_iters(kind, box, m, tol=1e-14):
    grid, params, phi0 = lattice_1d(250.0, box, m)
    res = solve(phi0, params, SolverConfig(method="pcg", precond=kind, tol=tol, max_iter=100000))
    assert res.converged
    return res.iterations


def test_criterion_07_preconditioner_scaling_trends():
    # h sweep at L = 16: h = 1/8, 1/16, 1/32
    iters_v = [_pcg_iters("potential", 16.0, m) for m in (256, 512, 1024)]
    iters_d = [_pcg_iters("kinetic", 16.0, m) for m in (256, 512, 1024)]
    iters_c = [_pcg_iters("sym", 16.0, m) for m in (256, 512, 1024)]
    iters_c_box = [_pcg_iters("sym", box, int(16 * box)) for box in (8.0, 16.0, 32.0)]
    grow_v = iters_v[-1] / iters_v[0]
    var_d = max(iters_d) / min(iters_d)
    var_c = max(iters_c) / min(iters_c)
    var_c_box = max(iters_c_box) / min(iters_c_box)
    ok = grow_v >= 1.5 and var_d < 2.0 and var_c < 2.0 and var_c_box < 2.0
    report(7, "preconditioner-scaling-trends", ok,
           f"P_V growth {grow_v:.2f}x {iters_v}, P_D var {var_d:.2f}x {iters_d}, "
           f"P_C var {var_c:.2f}x {iters_c} / L-sweep {var_c_box:.2f}x {iters_c_box}")


def test_criterion_08_method_ordering():
    grid, params, phi0 = lattice_1d(250.0, 16.0, 1024)  # h = 1/32
    pcg = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=1e-12, max_iter=100000))
    pg = solve(phi0, params, SolverConfig(method="pg", precond="sym", tol=1e-12, max_iter=100000))
    be = run_imaginary_time(phi0, SchemeKind("be_lambda", 0.01), params, "sym",
                            tol=1e-12, max_iter=100000)
    ok = (pcg.converged and pg.converged and be.converged
          and pcg.iterations < pg.iterations < be.inner_total)
    report(8, "method-ordering", ok,
           f"PCG_C {pcg.iterations} < PG_C {pg.iterations} < BE_C inner {be.inner_total}")


_GROUND_STATE = {}


def _rotating_ground_state():
    """Criterion 9 instance, computed once and shared with criterion 10."""
    if "result" in _GROUND_STATE:
        return _GROUND_STATE["result"]
    params = ModelParams(eta=500.0, omega=0.5, potential=half_square())
    best = None
    t0 = time.perf_counter()
    for guess in ("a", "b", "d", "dbar"):
        phi = None
        for level_m, eps in ((64, 1e-12), (128, 1e-12), (256, 1e-12)):
            grid = Grid(2, 16.0, level_m)
            phi0 = (initial_guess(guess, grid, params) if phi is None
                    else spectral_interpolate(phi, grid))
            res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=eps,
                                                   max_iter=30000))
            phi = res.phi
        if best is None or res.energy < best[1]:
            best = (guess, res.energy, res.phi)
    elapsed = time.perf_counter() - t0
    _GROUND_STATE["result"] = (best, elapsed, params)
    return _GROUND_STATE["result"]


def test_criterion_09_rotating_ground_state_energy():
    (guess, e_best, phi), elapsed, params = _rotating_ground_state()
    err = abs(e_best - 8.0197)
    ok = err <= 5e-3 and elapsed <= 600.0
    report(9, "rotating-ground-state-energy", ok,
           f"best guess {guess}: E {e_best:.5f}, err {err:.1e}, {elapsed:.0f}s for 4 guesses")


def test_criterion_10_vortex_detection():
    (guess, e_best, phi), _, params = _rotating_ground_state()
    mu_tf = model.thomas_fermi_mu(params, 2)
    tf_radius = np.sqrt(2.0 * mu_tf)  # V = r^2/2 < mu on r < sqrt(2 mu)
    vortices = find_vortices(phi, radius=tf_radius)
    plus = [v for v in vortices if v[2] == 1]
    dens = np.abs(phi.values) ** 2
    peak = float(dens.max())
    deep_zero = False
    grid = phi.grid
    for cx, cy, w in plus:
        i = int(round((cx + grid.L) / grid.h))
        j = int(round((cy + grid.L) / grid.h))
        local = dens[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
        deep_zero |= float(local.min()) <= 1e-2 * peak
    ok = len(plus) >= 1 and deep_zero
    report(10, "vortex-detection", ok,
           f"{len(plus)} positive windings inside r<{tf_radius:.2f}, density dip confirmed")


def test_criterion_11_stopping_criterion_ordering():
    grid = Grid(2, 8.0, 64)
    params = ModelParams(eta=100.0, omega=0.5, potential=half_square())
    phi0 = initial_guess("d", grid, params)
    eps = 1e-8
    iters = {}
    for stop in ("energy_diff", "iterate_diff", "residual_inf"):
        res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", stop=stop,
                                               tol=eps, max_iter=20000))
        assert res.converged, stop
        iters[stop] = res.iterations
    ok = (iters["energy_diff"] < iters["iterate_diff"]
          and iters["energy_diff"] < iters["residual_inf"])
    report(11, "stopping-criterion-ordering", ok,
           f"energy {iters['energy_diff']} < iterate {iters['iterate_diff']}, "
           f"residual {iters['residual_inf']}")


def test_criterion_12_fft_budget():
    grid = Grid(2, 10.0, 64)
    params = ModelParams(eta=100.0, omega=0.5, potential=half_square())
    phi0 = initial_guess("d", grid, params)
    expected_pg = {"identity": 3, "kinetic": 3, "potential": 3, "c1": 4, "c2": 4, "sym": 5}
    expected_pcg = {"identity": 3, "kinetic": 3, "potential": 3, "c2": 4, "sym": 5}
    seen = {}
    ok = True
    for method, table in (("pg", expected_pg), ("pcg", expected_pcg)):
        for kind, expected in table.items():
            res = solve(phi0, params, SolverConfig(method=method, precond=kind,
                                                   tol=1e-10, max_iter=50))
            counts = {r.fft_count for r in res.records}
            seen[f"{method}_{kind}"] = sorted(counts)
            ok &= counts == {expected}
    report(12, "fft-budget", ok, f"per-iteration counts {seen}")
