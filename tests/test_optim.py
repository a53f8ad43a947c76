"""Sphere-constrained PG/PCG solvers: arc geometry, stepsizes, stopping."""

import dataclasses
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gpesolve import (
    Grid,
    ModelParams,
    PotentialSpec,
    WaveField,
    energy,
    evaluate,
    harmonic,
    harmonic_lattice,
    half_square,
    inner,
    norm,
    thomas_fermi_initial,
)
from gpesolve import classic, io, model, optim, precond, spectral
from gpesolve.optim import IterationRecord, SolverConfig, check_stop, solve

from oracles import (arc_from_fields, dense_hamiltonian_1d, kinetic_plain, lz_plain,
                     pointwise_sums_separate, step, tangent_project, theta_opt)


EPS = np.finfo(np.float64).eps


def random_normalized(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return WaveField(grid, vals).normalized()


def residual(phi, params):
    """The residual H_phi phi - lambda phi and lambda, from model.evaluate."""
    ev = evaluate(phi, params)
    return WaveField(phi.grid, ev.h_phi - ev.lam * phi.values), ev.lam


def zero_potential():
    return PotentialSpec(kind="harmonic", harmonic_coeffs=(0.0, 0.0, 0.0))


class TestResidual:
    def test_dense_eigenvector_gives_zero_residual(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        h_mat = dense_hamiltonian_1d(32, 8.0, model.sample_potential(params.potential, g))
        _, vecs = np.linalg.eigh(h_mat)
        phi = WaveField(g, vecs[:, 0]).normalized()
        r, lam = residual(phi, params)
        assert norm(r) <= 1e-12

    def test_tangency(self):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=20.0, omega=0.4, potential=half_square())
        phi = random_normalized(g, 1)
        r, lam = residual(phi, params)
        assert abs(inner(r, phi).real) <= 1e-12 * max(norm(r), 1.0)

    def test_two_mode_closed_form(self):
        # phi = (3/5) e_0 + (4/5) e_1 in the plane-wave basis, V = 0
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=zero_potential())
        xi1 = np.pi / g.L
        w0 = np.ones(32, dtype=complex) / np.sqrt(2 * g.L)
        w1 = np.exp(1j * xi1 * (g.x1 + g.L)) / np.sqrt(2 * g.L)
        phi = WaveField(g, 0.6 * w0 + 0.8 * w1)
        r, lam = residual(phi, params)
        # eigenvalues 0 and xi1^2/2: lambda = 0.8^2 xi^2/2, r from hand computation
        e1 = xi1**2 / 2
        assert lam == pytest.approx(0.64 * e1, rel=1e-12)
        expected = 0.8 * e1 * w1.copy() - lam * (0.6 * w0 + 0.8 * w1)
        assert np.allclose(r.values, expected, atol=1e-13)


class TestTangentProject:
    def test_normal_direction_annihilated(self):
        g = Grid(1, 8.0, 32)
        phi = random_normalized(g, 2)
        assert norm(tangent_project(phi, phi)) <= 1e-14

    def test_idempotent(self):
        g = Grid(1, 8.0, 32)
        phi = random_normalized(g, 3)
        d = random_normalized(g, 4)
        p1 = tangent_project(d, phi)
        p2 = tangent_project(p1, phi)
        assert np.max(np.abs(p1.values - p2.values)) <= 1e-14

    def test_phase_direction_is_tangent(self):
        g = Grid(1, 8.0, 32)
        phi = random_normalized(g, 5)
        d = WaveField(g, 1j * phi.values)
        out = tangent_project(d, phi)
        assert np.max(np.abs(out.values - d.values)) <= 1e-14


class TestThetaOpt:
    def test_two_mode_exactness(self):
        # theta_opt must reproduce the closed-form argmin of
        # E(theta) = cos^2 lam_a + sin^2 lam_b to third order in the mixing
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=zero_potential())
        xi1 = np.pi / g.L
        w0 = np.ones(32, dtype=complex) / np.sqrt(2 * g.L)
        w1 = np.exp(1j * xi1 * (g.x1 + g.L)) / np.sqrt(2 * g.L)
        lam_a, lam_b = 0.0, xi1**2 / 2
        for alpha in (0.05, 0.02, 0.01):
            phi = WaveField(g, np.cos(alpha) * w0 + np.sin(alpha) * w1)
            p_dir = WaveField(g, -np.sin(alpha) * w0 + np.cos(alpha) * w1)
            ev = evaluate(phi, params)
            theta, denom = theta_opt(phi, p_dir, WaveField(g, 2.0 * ev.h_phi), params, ev.lam)
            assert denom > 0
            # exact minimizer of the two-mode energy is theta = -alpha
            assert theta == pytest.approx(-alpha, abs=1e-3 * alpha + alpha**3)

    def test_orthogonal_gradient_gives_zero(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        h_mat = dense_hamiltonian_1d(32, 8.0, model.sample_potential(params.potential, g))
        _, vecs = np.linalg.eigh(h_mat)
        phi = WaveField(g, vecs[:, 0]).normalized()
        p_dir = WaveField(g, vecs[:, 1]).normalized()
        ev = evaluate(phi, params)
        theta, denom = theta_opt(phi, p_dir, WaveField(g, 2.0 * ev.h_phi), params, ev.lam)
        assert abs(theta) <= 1e-10

    def test_zero_direction_rejected(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi = random_normalized(g, 6)
        with pytest.raises(ValueError, match="zero"):
            theta_opt(phi, WaveField(g, np.zeros(g.shape, complex)),
                      WaveField(g, 2.0 * evaluate(phi, params).h_phi), params, 1.0)


class TestStep:
    def test_zero_angle(self):
        g = Grid(1, 8.0, 32)
        phi = random_normalized(g, 7)
        p = tangent_project(random_normalized(g, 8), phi)
        out = step(phi, p, 0.0)
        assert np.max(np.abs(out.values - phi.values)) <= 1e-14

    def test_quarter_turn(self):
        g = Grid(1, 8.0, 32)
        phi = random_normalized(g, 9)
        p = tangent_project(random_normalized(g, 10), phi)
        out = step(phi, p, np.pi / 2)
        assert np.max(np.abs(out.values - p.values / norm(p))) <= 1e-13

    def test_unit_norm(self):
        g = Grid(2, 6.0, 16)
        phi = random_normalized(g, 11)
        p = tangent_project(random_normalized(g, 12), phi)
        out = step(phi, p, 0.37)
        assert abs(norm(out) - 1.0) <= 1e-14


class TestSolvePG:
    def test_harmonic_ground_state(self):
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi0 = model.initial_guess("gauss", g, params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve(phi0, params, SolverConfig(method="pg", precond="sym", tol=1e-18,
                                                   max_iter=2000))
        assert abs(res.energy - np.sqrt(2) / 2) <= 1e-10
        assert res.r_inf <= 1e-8

    def test_matches_dense_eigenpair(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0,
                             potential=harmonic_lattice(1.0, 10.0, 0.7))
        phi0 = model.initial_guess("gauss", g, params)
        res = solve(phi0, params, SolverConfig(method="pg", precond="sym", tol=1e-16,
                                               max_iter=4000))
        h_mat = dense_hamiltonian_1d(32, 8.0, model.sample_potential(params.potential, g))
        evals, evecs = np.linalg.eigh(h_mat)
        assert res.lam == pytest.approx(evals[0], abs=1e-8)
        v1 = evecs[:, 0] / np.linalg.norm(evecs[:, 0])
        overlap = abs(np.vdot(v1, res.phi.values / np.linalg.norm(res.phi.values)))
        assert overlap >= 1 - 1e-8

    def test_one_step_matches_forward_euler_with_lambda(self):
        # identity preconditioner, fixed small theta: the arc step equals the
        # normalized FE-with-lambda update at the matched stepsize
        g = Grid(1, 8.0, 64)
        params = ModelParams(eta=30.0, omega=0.0, potential=harmonic(1.0))
        phi = thomas_fermi_initial(g, params)
        r, lam = residual(phi, params)
        p = tangent_project(WaveField(g, -r.values), phi)
        theta = 1e-4
        arc = step(phi, p, theta)
        alpha = theta / norm(p)  # first-order angle/stepsize correspondence
        fe = WaveField(g, phi.values - alpha * r.values).normalized()
        assert np.max(np.abs(arc.values - fe.values)) <= 1e-10


class TestSolvePCG:
    def test_faster_than_pg_on_linear_problems(self):
        wins = 0
        for seed in range(10):
            g = Grid(1, 8.0, 64)
            rng = np.random.default_rng(seed)
            params = ModelParams(
                eta=0.0, omega=0.0,
                potential=harmonic_lattice(rng.uniform(0.5, 2.0), rng.uniform(5, 30),
                                           rng.uniform(0.3, 1.5)))
            phi0 = random_normalized(g, seed + 100)
            cg = solve(phi0, params, SolverConfig(method="pcg", precond="identity", tol=1e-12,
                                                  max_iter=30000))
            pg = solve(phi0, params, SolverConfig(method="pg", precond="identity", tol=1e-12,
                                                  max_iter=30000))
            assert cg.converged
            if cg.iterations < pg.iterations:
                wins += 1
        assert wins == 10

    def test_beats_pg_and_be_on_1d_nonlinear(self):
        from gpesolve.classic import SchemeKind, run_imaginary_time
        g = Grid(1, 16.0, 256)  # h = 1/8
        params = ModelParams(eta=250.0, omega=0.0, potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
        phi0 = thomas_fermi_initial(g, params)
        cg = solve(phi0, params, SolverConfig(method="pcg", precond="identity", tol=1e-12,
                                              max_iter=60000))
        pg = solve(phi0, params, SolverConfig(method="pg", precond="identity", tol=1e-12,
                                              max_iter=60000))
        be = run_imaginary_time(phi0, SchemeKind(scheme="be", dt=0.01), params,
                                precond_kind="identity", tol=1e-12, max_iter=60000)
        assert cg.converged
        assert 5 * cg.iterations <= be.inner_total
        assert 5 * cg.iterations <= pg.iterations

    def test_pr_beta_zero_when_residual_repeats(self):
        # stationary residual makes the PR numerator vanish
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi0 = model.initial_guess("gauss", g, params)
        res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=1e-13,
                                               max_iter=500))
        assert res.records[0].beta == 0.0  # no previous direction on entry

    def test_restart_after_backtracking(self):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=100.0, omega=0.6, potential=half_square())
        phi0 = model.initial_guess("b", g, params)
        res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=1e-12,
                                               max_iter=3000))
        assert res.converged
        for prev, rec in zip(res.records, res.records[1:]):
            if prev.backtracks > 0:
                assert rec.beta == 0.0


class TestLinesearch:
    @pytest.mark.parametrize("eta,omega,d", [(0.0, 0.0, 1), (50.0, 0.0, 1), (80.0, 0.6, 2)])
    def test_arc_energy_matches_step(self, eta, omega, d):
        # the closed form the line search evaluates, against the energy of
        # the stepped iterate at sampled angles
        g = Grid(d, 8.0, 32 if d == 1 else 16)
        params = ModelParams(eta=eta, omega=omega, potential=harmonic(1.0))
        phi = random_normalized(g, 15)
        p = tangent_project(random_normalized(g, 16), phi)
        arc = arc_from_fields(phi, WaveField(g, p.values / norm(p)), params)
        e0 = energy(phi, params).total
        for theta in np.linspace(-np.pi, np.pi, 13):
            expected = energy(step(phi, p, theta), params).total - e0
            assert arc.delta_energy(theta) == pytest.approx(expected, abs=1e-10 * (1.0 + abs(e0)))


class TestBlockSums:
    """The engine forms its nine pointwise sums as two BLAS products over
    its block of rows; each must match its own dot product (the oracle) to
    within the rounding of a length-n sum.  Summed in any order, a sum of n
    products carries an error of at most gamma_n = n eps / (1 - n eps)
    times the sum of their absolute values, so two orders differ by at most
    twice that.  The scalars built from the sums get a few eps of their own
    magnitude more for the adds that follow."""

    @staticmethod
    def bound(n, scale):
        gamma = n * EPS / (1.0 - n * EPS)
        return 2.0 * gamma * scale

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 64), (2, 16), (3, 8)]), st.booleans(),
           st.sampled_from(precond.KINDS), st.integers(0, 2**32 - 1))
    def test_block_sums_match_separate_dots(self, dims, complex_iterate, kind, seed):
        d, m = dims
        g = Grid(d, 8.0, m)
        omega = 0.4 if complex_iterate and d > 1 else 0.0
        params = ModelParams(eta=100.0, omega=omega, potential=harmonic(1.0))
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(g.shape)
        if complex_iterate:
            values = values + 1j * rng.standard_normal(g.shape)
        engine = optim._Engine(WaveField(g, values), params, SolverConfig(precond=kind),
                               spectral.FFTCounter())
        assert engine.real != complex_iterate
        p_hat = rng.standard_normal(g.shape).astype(engine.u.dtype)
        if complex_iterate:
            p_hat += 1j * rng.standard_normal(g.shape)
        arc = engine._arc(p_hat, 0.0, 0.0)
        sums = pointwise_sums_separate(engine.v, engine.u, p_hat)
        hd, n, eta_hd = g.cell_volume, g.size, params.eta * g.cell_volume

        def check(got, value, scale):
            assert abs(got - value) <= self.bound(n, scale) + 4.0 * EPS * abs(value)

        for name in ("q04", "q22a", "q22b", "q31", "q13"):
            check(getattr(arc, name), *sums[name])
        check(arc.qb, hd * sums["vp"][0], hd * sums["vp"][1])
        check(arc.qc, hd * sums["vc"][0], hd * sums["vc"][1])
        check(arc.q40, *sums["q40"])
        check(engine.q40, *sums["q40"])
        # the linear part is no pointwise sum: read it as the engine does
        if engine.hu is None:
            lin = engine.spec.kinetic(engine.uhat)
        else:
            lin = hd * spectral.rdot(engine.u, engine.hu)
        kin = engine.spec.kinetic(engine.uhat) if engine.rotating else lin
        (pot, pot_scale), (q40, q40_scale) = sums["pot"], sums["q40"]
        check(engine.qa, lin + hd * pot, abs(lin) + hd * pot_scale)
        check(engine.lam, lin + hd * pot + eta_hd * q40,
              abs(lin) + hd * pot_scale + eta_hd * q40_scale)
        check(engine.alpha, kin + hd * pot + eta_hd * q40,
              abs(kin) + hd * pot_scale + eta_hd * q40_scale)


class TestRecordFieldTypes:
    """Every method hands its records Python numbers, never numpy scalars,
    whose repr would reach the CSV as np.float64(...)."""

    @staticmethod
    def run(method, omega):
        g = Grid(2, 8.0, 16)
        params = ModelParams(eta=50.0, omega=omega, potential=half_square())
        phi0 = model.initial_guess("gauss", g, params)
        if method in classic.SCHEMES:
            kind = "sym" if classic.WEIGHTS[method][0] > 0 else "identity"
            return classic.run_imaginary_time(phi0, classic.SchemeKind(method, 0.005), params,
                                              kind, max_iter=5)
        return solve(phi0, params, SolverConfig(method=method, precond="sym", max_iter=5))

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    @pytest.mark.parametrize("method", ("pg", "pcg") + classic.SCHEMES)
    def test_numeric_fields_are_python_numbers(self, method, omega):
        res = self.run(method, omega)
        assert res.records
        for rec in res.records:
            for f in dataclasses.fields(rec):
                value = getattr(rec, f.name)
                if f.name == "inner_iters" and method in ("pg", "pcg"):
                    assert value is None
                else:
                    assert type(value) in (float, int, bool), (f.name, type(value))

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    @pytest.mark.parametrize("method", ["pcg", "be_lambda"])
    def test_csv_holds_no_numpy_text(self, method, omega):
        text = io.records_csv_text(self.run(method, omega).records,
                                   inner_iters=method in classic.SCHEMES)
        assert "np." not in text


class TestCheckStop:
    def _record(self, **kw):
        base = dict(n=0, energy=1.0, lam=1.0, r_inf=1.0, step_inf=1.0, theta=0.1,
                    beta=0.0, backtracks=0, fft_count=3, wall_time=0.0, energy_delta=-1.0)
        base.update(kw)
        return IterationRecord(**base)

    def test_zero_energy_change_stops(self):
        cfg = SolverConfig(stop="energy_diff", tol=1e-12)
        assert check_stop(self._record(energy_delta=0.0), cfg.stop, cfg.tol)

    def test_zero_tolerance_never_stops(self):
        cfg = SolverConfig(stop="energy_diff", tol=0.0)
        g = Grid(1, 16.0, 64)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi0 = model.initial_guess("gauss", g, params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=0.0,
                                                   max_iter=120))
        assert res.stop_reason in ("max_iter", "backtracking_exhausted")
        assert not any(check_stop(rec, cfg.stop, cfg.tol) and rec.energy_delta != 0
                       for rec in res.records)

    def test_energy_triggers_before_iterate_on_linear_run(self):
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi0 = model.initial_guess("gauss", g, params)
        eps = 1e-9
        res_e = solve(phi0, params, SolverConfig(method="pcg", precond="sym",
                                                 stop="energy_diff", tol=eps, max_iter=1000))
        res_i = solve(phi0, params, SolverConfig(method="pcg", precond="sym",
                                                 stop="iterate_diff", tol=eps, max_iter=1000))
        assert res_e.converged and res_i.converged
        assert res_e.iterations < res_i.iterations


class TestTransformBudget:
    # per-iteration transform units with the default energy_diff stop;
    # c1 under pcg brings its residual to real space for one unit more
    UNITS_2D = {"identity": 3, "kinetic": 3, "potential": 3, "c1": 4, "c2": 4, "sym": 5}

    @pytest.mark.parametrize("method", ["pg", "pcg"])
    @pytest.mark.parametrize("kind", list(UNITS_2D))
    def test_units_per_iteration(self, kind, method):
        extra = 1 if (kind, method) == ("c1", "pcg") else 0
        cases = (
            # rotating 2D: forward + Laplacian + angular momentum
            (Grid(2, 8.0, 32), ModelParams(eta=100.0, omega=0.5, potential=half_square()), "d", 0),
            # no rotation: one unit fewer
            (Grid(1, 16.0, 128), ModelParams(eta=250.0, omega=0.0,
                                             potential=harmonic_lattice(1.0, 25.0, np.pi / 2)), "tf", -1),
        )
        for grid, params, guess, offset in cases:
            phi0 = model.initial_guess(guess, grid, params)
            res = solve(phi0, params, SolverConfig(method=method, precond=kind, max_iter=30))
            assert res.records
            assert {r.fft_count for r in res.records} == {self.UNITS_2D[kind] + offset + extra}


class TestOneAxisPasses:
    """The real work behind the transform units: one-axis passes per
    iteration, a full transform counting d of them.  With rotation the
    linear part of H runs one axis at a time and completes the transform of
    the direction on the way, so units and passes part.  Without it the
    guess is real and the engine runs half-spectrum transforms, counted
    alike."""

    # 2D, energy_diff stop; c1 under pcg keeps its real-space residual
    ROTATING = {"identity": 5, "kinetic": 8, "potential": 5, "c1": 9, "c2": 8, "sym": 9}
    STILL = {"identity": 4, "kinetic": 4, "potential": 4, "c1": 6, "c2": 6, "sym": 8}

    @pytest.mark.parametrize("method", ["pg", "pcg"])
    @pytest.mark.parametrize("kind", list(ROTATING))
    def test_passes_per_iteration(self, kind, method, monkeypatch):
        passes = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            def counted(a, *args, _f=getattr(np.fft, name), _n=name, **kwargs):
                passes.append(a.ndim if _n.endswith("n") else 1)
                return _f(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        g = Grid(2, 8.0, 32)
        for omega, table, extra in ((0.5, self.ROTATING, 0),
                                    (0.0, self.STILL, 2 * ((kind, method) == ("c1", "pcg")))):
            params = ModelParams(eta=100.0, omega=omega, potential=half_square())
            engine = optim._Engine(model.initial_guess("d", g, params), params,
                                   SolverConfig(method=method, precond=kind),
                                   spectral.FFTCounter())
            assert engine.real == (omega == 0.0)
            per_iteration = set()
            for _ in range(5):
                passes.clear()
                engine.begin()
                engine.accept(optim._line_search(engine.direction(False))[0])
                per_iteration.add(sum(passes))
            assert per_iteration == {table[kind] + extra}, omega


class TestSolverInvariants:
    def test_norm_and_monotonicity_across_methods(self):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=100.0, omega=0.5, potential=half_square())
        phi0 = model.initial_guess("d", g, params)
        for method in ("pg", "pcg"):
            for kind in ("identity", "kinetic", "potential", "c1", "c2", "sym"):
                res = solve(phi0, params, SolverConfig(method=method, precond=kind,
                                                       tol=1e-10, max_iter=400))
                assert abs(norm(res.phi) - 1.0) <= 1e-13
                energies = [r.energy for r in res.records]
                assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_residual_tangency_along_run(self):
        # the relative bound applies while ||r|| is above the roundoff
        # floor eps*lambda of the inner-product summation
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=250.0, omega=0.0, potential=harmonic(1.0))
        phi0 = thomas_fermi_initial(g, params)
        phi = phi0
        for n_steps in (0, 3, 10):
            res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=0.0,
                                                   max_iter=max(n_steps, 1)))
            phi = res.phi if n_steps else phi0
            r, lam = residual(phi, params)
            floor = np.finfo(float).eps * abs(lam)
            assert abs(inner(r, phi).real) <= max(1e-12 * norm(r), 8 * floor)

    def test_global_phase_equivariance(self):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=60.0, omega=0.4, potential=half_square())
        phi0 = model.initial_guess("d", g, params)
        shifted = WaveField(g, np.exp(1j * 1.234) * phi0.values)
        r1 = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=1e-11, max_iter=200))
        r2 = solve(shifted, params, SolverConfig(method="pcg", precond="sym", tol=1e-11,
                                                 max_iter=200))
        n = min(r1.iterations, r2.iterations)
        for a, b in zip(r1.records[:n], r2.records[:n]):
            assert a.energy == pytest.approx(b.energy, abs=1e-10)

    def test_max_iter_flagged_unconverged(self):
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=250.0, omega=0.0, potential=harmonic(1.0))
        phi0 = thomas_fermi_initial(g, params)
        res = solve(phi0, params, SolverConfig(method="pcg", precond="identity", tol=1e-14,
                                               max_iter=3))
        assert not res.converged
        assert res.stop_reason == "max_iter"
        assert res.iterations == 3

    def test_descent_safeguard_logged(self):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=100.0, omega=0.5, potential=half_square())
        phi0 = model.initial_guess("b", g, params)
        res = solve(phi0, params, SolverConfig(method="pcg", precond="sym", tol=1e-11,
                                               max_iter=500))
        # whenever beta > 0 was used the step decreased the energy
        for rec in res.records:
            if rec.beta > 0:
                assert rec.energy_delta < 0


class TestFailureStops:
    """A bad start or a broken direction ends the run by name, never as a
    false convergence or a late raw error."""

    @staticmethod
    def harmonic_1d():
        g = Grid(1, 8.0, 64)
        params = ModelParams(eta=10.0, omega=0.0, potential=harmonic(1.0))
        return g, params, thomas_fermi_initial(g, params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_field_rejected_before_any_transform(self, bad):
        g, params, phi0 = self.harmonic_1d()
        values = phi0.values.copy()
        values[7] = bad
        counter = spectral.FFTCounter()
        with pytest.raises(ValueError, match="initial field contains NaN or Inf"):
            solve(WaveField(g, values), params, SolverConfig(), counter)
        assert counter.count == 0

    @pytest.mark.parametrize("method", ["pg", "pcg", "fe", "be_lambda"])
    @pytest.mark.parametrize("bad,message", [
        (np.nan, "initial field contains NaN or Inf"),
        (np.inf, "initial field contains NaN or Inf"),
        (0.0, "cannot normalize the zero field"),
    ])
    def test_bad_start_fails_alike_for_every_method(self, monkeypatch, method, bad, message):
        # one check for all methods, before any transform and without a warning
        g, params, phi0 = self.harmonic_1d()
        values = phi0.values.copy()
        values[7] = bad
        if bad == 0.0:
            values[:] = 0.0
        # every transform of the package: a spectrum's fft/ifft or its
        # multiplier (two transforms), whose 1D forms call pocketfft's
        # gufuncs, or a numpy.fft call, full or half
        transforms = []
        for owner in (spectral.Spectrum, spectral.HalfSpectrum):
            for name, units in (("fft", 1), ("ifft", 1), ("multiplier", 2)):
                def spy(self, *args, _f=getattr(owner, name), _units=units, **kwargs):
                    transforms.append(_units)
                    return _f(self, *args, **kwargs)
                monkeypatch.setattr(owner, name, spy)
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
            def counted(*args, _f=getattr(np.fft, name), **kwargs):
                transforms.append(1)
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                if method in ("pg", "pcg"):
                    solve(WaveField(g, values), params, SolverConfig(method=method))
                else:
                    classic.run_imaginary_time(WaveField(g, values),
                                               classic.SchemeKind(method), params)
        assert transforms == []

    @pytest.mark.parametrize("energy,lam,reason,records", [
        (1.0, np.nan, "diverged", 0), (np.inf, 1.0, "diverged", 0), (21.5, 1.0, "diverged", 0),
        (21.0, 1.0, "max_iter", 5),  # E0 + 10(|E0| + 1) itself is not a blow-up
    ])
    def test_driver_divergence_rule(self, energy, lam, reason, records):
        fields = dict(energy=energy, lam=lam, r_inf=0.1, step_inf=0.1, theta=0.1, beta=0.0,
                      backtracks=0, energy_delta=-1.0)
        rejected = []

        def finish(diverged):
            rejected.append(diverged)
            return None, 1.0, 1.0, 0.0

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = optim.drive(lambda: dict(fields), finish, 1.0, "energy_diff", 0.0, 5,
                              spectral.FFTCounter(), 0.0)
        assert (res.stop_reason, res.iterations, rejected) == (reason, records,
                                                              [reason == "diverged"])
        # a rejected step names its cause, in the detail and as a warning
        assert bool(res.stop_detail) == (reason == "diverged")
        assert [str(w.message) for w in caught] == ([res.stop_detail] if res.stop_detail else [])

    def test_every_stop_reason_has_a_table_entry(self):
        assert len(set(optim.STOP_REASONS)) == len(optim.STOP_REASONS)
        assert set(optim.STOP_CONVERGED) == set(optim.STOP_REASONS)
        converged = {r for r in optim.STOP_REASONS if optim.STOP_CONVERGED[r]}
        assert converged == set(optim.STOP_KINDS) | {"zero_direction"}

    @pytest.mark.parametrize("fill,converged,reason", [
        (np.nan, False, "diverged"), (0.0, True, "zero_direction"),
    ])
    def test_direction_without_finite_norm(self, monkeypatch, fill, converged, reason):
        g, params, phi0 = self.harmonic_1d()
        monkeypatch.setattr(precond.Preconditioner, "apply_pair",
                            lambda self, r, counter=None, transformed=False:
                            (np.full(r.shape, fill, dtype=r.dtype), None))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve(phi0, params, SolverConfig(method="pcg", precond="sym"))
        assert (res.converged, res.stop_reason, res.iterations) == (converged, reason, 0)
        assert res.stop_detail == ("the search direction's norm is nan, not finite"
                                   if reason == "diverged" else "")
        assert np.isfinite(res.energy)

    @pytest.mark.parametrize("kind", precond.KINDS)
    def test_adaptive_shift_not_positive(self, kind):
        # V = -2 r^2 + 0.075 r^4 is negative near the centre, and so is the
        # characteristic energy of the Gaussian: every kind that reads the
        # shift ends as diverged by name, and the identity, which reads
        # none, runs on
        g = Grid(2, 8.0, 32)
        params = ModelParams(eta=1.0, omega=0.0, potential=model.harmonic_quartic(1.0, 3.0, 0.3))
        phi0 = model.initial_guess("gauss", g, params)
        assert evaluate(phi0, params).energy.characteristic < 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve(phi0, params, SolverConfig(method="pcg", precond=kind, max_iter=20))
        if kind == "identity":
            assert (res.stop_reason, res.iterations) == ("max_iter", 20)
        else:
            assert (res.stop_reason, res.iterations) == ("diverged", 0)
            assert res.stop_detail.startswith("preconditioner shift must be positive")


class TestPeakArrays:
    """Peak memory the solver allocates over 40 iterations of the rotating
    half-square at 64^2, in units of one complex grid array, pinned per
    kind and method as the transform budget is.  STILL pins the same trap
    without rotation, from a real guess: the engine's float64 path, whose
    iterates take half a complex array and its transforms about as much.
    The grid holds its spectra from the first solve on, so neither table
    counts them: the half spectrum's two weight arrays are about one unit.
    Nor do they count the cached potential, but they count the engine's
    float64 block of four grid rows (two units), one row a copy of it.  The
    other rows hold |u|^2, V + eta |u|^2 and V + eta |u|^2 - lambda, which
    the engine would otherwise allocate, so the block raises the peaks by
    about one unit."""

    PEAK = {
        ("identity", "pg"): 15.32, ("identity", "pcg"): 14.29,
        ("kinetic", "pg"): 15.27, ("kinetic", "pcg"): 15.29,
        ("potential", "pg"): 15.28, ("potential", "pcg"): 14.29,
        ("c1", "pg"): 14.27, ("c1", "pcg"): 15.30,
        ("c2", "pg"): 15.28, ("c2", "pcg"): 14.29,
        ("sym", "pg"): 15.28, ("sym", "pcg"): 14.29,
    }
    STILL = {
        ("identity", "pg"): 7.31, ("identity", "pcg"): 6.83,
        ("kinetic", "pg"): 6.86, ("kinetic", "pcg"): 6.88,
        ("potential", "pg"): 7.31, ("potential", "pcg"): 6.83,
        ("c1", "pg"): 7.10, ("c1", "pcg"): 8.14,
        ("c2", "pg"): 8.87, ("c2", "pcg"): 8.85,
        ("sym", "pg"): 7.58, ("sym", "pcg"): 7.59,
    }

    @staticmethod
    def peak_arrays(kind, method, omega):
        g = Grid(2, 8.0, 64)
        params = ModelParams(eta=100.0, omega=omega, potential=half_square())
        phi0 = model.initial_guess("d", g, params)
        cfg = SolverConfig(method=method, precond=kind, tol=0.0, max_iter=40)
        assert optim._Engine(phi0, params, cfg, spectral.FFTCounter()).real == (omega == 0.0)
        solve(phi0, params, cfg)  # fill the potential cache outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(phi0, params, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (g.size * 16)

    @pytest.mark.parametrize("kind,method", list(PEAK))
    def test_peak_arrays(self, kind, method):
        assert self.peak_arrays(kind, method, 0.5) == pytest.approx(self.PEAK[kind, method],
                                                                    abs=0.1)

    @pytest.mark.parametrize("kind,method", list(STILL))
    def test_peak_arrays_real_path(self, kind, method):
        assert self.peak_arrays(kind, method, 0.0) == pytest.approx(self.STILL[kind, method],
                                                                    abs=0.1)


def numpy_fft_frame(frame):
    """Whether a frame runs code of numpy.fft's Python wrapper."""
    return frame.f_code.co_filename == np.fft._pocketfft.__file__


def numpy_multiarray_frame(frame):
    """Whether a frame runs code of numpy's multiarray module: the
    dispatchers that np.dot, np.vdot and the like pass through."""
    return frame.f_code.co_filename == np._core.multiarray.__file__


class TestCallsPerIteration:
    """Calls of gpesolve functions per pcg iteration on the 1D lattice trap
    (the float64 path), pinned per kind as the transform budget is: the
    engine's Python-level overhead, which dominates a small 1D iteration,
    counted so that a regression fails here rather than hiding in timing
    noise.  Only frames whose code lies in the gpesolve package count, so
    the pins do not depend on the numpy version.  Frames of numpy.fft's
    wrapper are counted apart: the 1D spectra call pocketfft's gufuncs
    without it, and so are those of numpy's multiarray dispatchers: the
    engine's pointwise sums call ndarray.dot without them."""

    CEILING = {"identity": 36, "kinetic": 46, "potential": 37, "c1": 43, "c2": 39, "sym": 41}

    @staticmethod
    def calls(kind, iterations, counted=None):
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=250.0, omega=0.0,
                             potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
        phi0 = thomas_fermi_initial(g, params)
        cfg = SolverConfig(method="pcg", precond=kind, tol=0.0, max_iter=iterations)
        package = os.path.dirname(optim.__file__) + os.sep
        if counted is None:
            def counted(frame):
                return frame.f_code.co_filename.startswith(package)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call" and counted(frame):
                count += 1

        sys.setprofile(profile)
        try:
            res = solve(phi0, params, cfg)
        finally:
            sys.setprofile(None)
        assert (res.stop_reason, res.iterations) == ("max_iter", iterations)
        return count

    @pytest.mark.parametrize("kind", precond.KINDS)
    def test_ceiling(self, kind):
        # the difference of two run lengths leaves out the set-up and the
        # final evaluation
        per_iteration = (self.calls(kind, 30) - self.calls(kind, 10)) / 20
        assert per_iteration <= self.CEILING[kind]

    @pytest.mark.parametrize("kind", precond.KINDS)
    def test_no_numpy_fft_wrapper(self, kind):
        per_iteration = (self.calls(kind, 30, numpy_fft_frame)
                         - self.calls(kind, 10, numpy_fft_frame)) / 20
        assert per_iteration == 0

    @pytest.mark.parametrize("kind", precond.KINDS)
    def test_no_numpy_multiarray_dispatcher(self, kind):
        # the pointwise sums are ndarray.dot calls on the engine's block
        per_iteration = (self.calls(kind, 30, numpy_multiarray_frame)
                         - self.calls(kind, 10, numpy_multiarray_frame)) / 20
        assert per_iteration == 0


def smooth_real(grid, seed):
    """A Gaussian times 1 + a smooth random real series on each axis."""
    rng = np.random.default_rng(seed)
    values = np.ones(grid.shape)
    for ax in range(grid.d):
        x = grid.coordinate(ax)
        s = sum((a * np.cos(m * x * np.pi / grid.L) + b * np.sin(m * x * np.pi / grid.L)) / m
                for m, (a, b) in enumerate(rng.standard_normal((4, 2)), start=1))
        values = values * np.exp(-x**2 / 2.0) * (1.0 + 0.3 * s)
    return WaveField(grid, values)


class TestRealPath:
    """Without rotation a real start runs in float64 with half-spectrum
    transforms; the complex engine, the reference, comes from patching the
    one function that picks the dtype to see a rotation."""

    TOLS = {"energy_diff": 1e-10, "residual_inf": 1e-6, "iterate_diff": 1e-7}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1, 64), (2, 16), (3, 8)]), st.integers(0, 2**32 - 1),
           st.sampled_from(precond.KINDS), st.sampled_from(["pg", "pcg"]),
           st.sampled_from(sorted(TOLS)), st.sampled_from([0.0, 20.0]))
    # draws where rounding, amplified on the way out of a saddle, parts the
    # two runs: 153 and 154 iterations; 62 on both, the energies 1.4e-12
    # and lambda 3.1e-9 relative apart; 84 and 228 iterations
    @example((1, 64), 835, "identity", "pcg", "residual_inf", 20.0)
    @example((1, 64), 835, "kinetic", "pcg", "energy_diff", 20.0)
    @example((1, 64), 1298653028, "c2", "pg", "residual_inf", 20.0)
    def test_matches_the_complex_engine(self, shape, seed, kind, method, stop, eta):
        # the two paths round differently, so neither the exact iteration
        # count at a stopping threshold nor the energy along the way is
        # shared.  Shared are the decisions of each step, seen in its
        # transforms, against the complex run of exactly the real run's
        # length, and the state each run stops at: the same stop reason, the
        # energy (second order in the iterate's error) within 1e-11 relative
        # and lambda within the residual sup norms of the two runs
        d, m = shape
        g = Grid(d, 6.0, m)
        params = ModelParams(eta=eta, omega=0.0, potential=harmonic())
        phi0 = smooth_real(g, seed)
        cfg = SolverConfig(method=method, precond=kind, stop=stop, tol=self.TOLS[stop],
                           max_iter=300)
        assert optim._Engine(phi0, params, cfg, spectral.FFTCounter()).real
        res = solve(phi0, params, cfg)
        start = optim.start_iterate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optim, "start_iterate", lambda phi, omega: start(phi, 1.0))
            assert optim._Engine(phi0, params, cfg, spectral.FFTCounter()).u.dtype == complex
            ref = solve(phi0, params, cfg)
            same_length = solve(phi0, params,
                                dataclasses.replace(cfg, tol=0.0, max_iter=res.iterations))
        assert res.phi.values.dtype == np.float64
        assert same_length.iterations == res.iterations
        assert [r.fft_count for r in res.records] == [r.fft_count for r in same_length.records]
        assert res.stop_reason == ref.stop_reason
        assert res.energy == pytest.approx(ref.energy, rel=1e-11)
        assert abs(res.lam - ref.lam) <= 1e-13 * abs(ref.lam) + res.r_inf + ref.r_inf

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(classic.SCHEMES),
           st.sampled_from(precond.HERMITIAN), st.sampled_from(sorted(TOLS)),
           st.sampled_from([0.0, 20.0]))
    def test_schemes_match_the_complex_run(self, seed, scheme, kind, stop, eta):
        # the six imaginary-time schemes take the same real path: float64
        # iterates and MINRES vectors, against the complex run of the same
        # start as the reference
        g = Grid(1, 6.0, 64)
        params = ModelParams(eta=eta, omega=0.0, potential=harmonic())
        phi0 = smooth_real(g, seed)
        dtypes = set()
        solve_k = classic.krylov_solve

        def krylov_spy(apply_a, b, *args, **kwargs):
            x, iters = solve_k(lambda v: dtypes.add(v.dtype) or apply_a(v), b, *args, **kwargs)
            dtypes.update((b.values.dtype, x.values.dtype))
            return x, iters

        def run():
            return classic.run_imaginary_time(phi0, classic.SchemeKind(scheme, 0.005), params,
                                              kind, stop=stop, tol=self.TOLS[stop], max_iter=60)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classic, "krylov_solve", krylov_spy)
            res = run()
        assert res.phi.values.dtype == np.float64
        assert dtypes <= {np.dtype(np.float64)}
        assert bool(dtypes) == (classic.WEIGHTS[scheme][0] > 0)
        start = classic.start_iterate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classic, "start_iterate", lambda phi, omega: start(phi, 1.0))
            ref = run()
        assert ref.phi.values.dtype == np.complex128
        assert (res.stop_reason, res.iterations, res.fft_total, res.inner_total) == (
            ref.stop_reason, ref.iterations, ref.fft_total, ref.inner_total)
        assert [r.fft_count for r in res.records] == [r.fft_count for r in ref.records]
        assert res.energy == pytest.approx(ref.energy, rel=1e-12)
        for a, b in zip(res.records, ref.records):
            assert a.energy == pytest.approx(b.energy, rel=1e-12)

    @pytest.mark.parametrize("case", ["imaginary part", "tiny imaginary part", "rotation"])
    def test_complex_start_or_rotation_runs_complex(self, case):
        g = Grid(2, 8.0, 16)
        phi0 = smooth_real(g, 3)
        omega = 0.5 if case == "rotation" else 0.0
        if case == "imaginary part":
            phi0 = WaveField(g, phi0.values * np.exp(0.1j * g.coordinate(0)))
        elif case == "tiny imaginary part":
            phi0 = WaveField(g, phi0.values.astype(complex))
            phi0.values[3, 5] += 1e-300j
        params = ModelParams(eta=20.0, omega=omega, potential=harmonic())
        engine = optim._Engine(phi0, params, SolverConfig(precond="kinetic"),
                               spectral.FFTCounter())
        assert not engine.real and engine.u.dtype == np.complex128
        assert engine.uhat.shape == g.shape
        engine.begin()
        engine.accept(optim._line_search(engine.direction(False))[0])
        assert engine.u.dtype == engine.uhat.dtype == np.complex128


@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("kind", precond.KINDS)
@pytest.mark.parametrize("method", ["pg", "pcg"])
def test_fft_total_counts_every_unit(method, kind, omega):
    # the set-up units, each record's fft_count and the final evaluation's
    # 2 units, 3 with rotation
    g = Grid(2, 8.0, 32)
    params = ModelParams(eta=100.0, omega=omega, potential=half_square())
    phi0 = model.initial_guess("d", g, params)
    cfg = SolverConfig(method=method, precond=kind, tol=1e-10, max_iter=40)
    setup = spectral.FFTCounter()
    optim._Engine(phi0, params, cfg, setup)
    res = solve(phi0, params, cfg)
    assert res.stop_reason in ("energy_diff", "max_iter") and res.records
    final = 3 if omega else 2
    assert res.fft_total == setup.count + sum(r.fft_count for r in res.records) + final


def test_reciprocal_scaling_matches_numpy_division():
    # the engine normalizes by x *= 1/d in place of x / d; the histories
    # stay bit for bit only while the two give the same values
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    x[0, :3] = [0.0, -0.0, 1.0]  # exact zeros: equal values, sign may differ
    for d in (1.0, 1.0 + 2.0**-52, 0.7, 3.1e5):
        y = x.copy()
        y *= 1.0 / np.float64(d)
        assert np.array_equal(y, x / d)
        assert np.array_equal(y[1:].view(np.uint64), (x[1:] / d).view(np.uint64))


def test_solve_from_fortran_ordered_field():
    # the engine updates its iterate in place; a transposed (F-ordered)
    # guess gives the same history as the C-ordered one and is left as it was
    g = Grid(2, 8.0, 32)
    params = ModelParams(eta=100.0, omega=0.5, potential=half_square())
    base = model.initial_guess("d", g, params).values
    guess = WaveField(g, base.T.copy().T)
    assert guess.values.flags.f_contiguous and not guess.values.flags.c_contiguous
    ref = solve(WaveField(g, base), params, SolverConfig(method="pcg", precond="sym", tol=1e-10,
                                                         max_iter=60))
    res = solve(guess, params, SolverConfig(method="pcg", precond="sym", tol=1e-10, max_iter=60))
    assert [r.energy for r in res.records] == [r.energy for r in ref.records]
    assert np.array_equal(res.phi.values, ref.phi.values)
    assert np.array_equal(guess.values, base)


class TestFusedImageDrift:
    """The engine carries hu = (-Lap/2 - omega Lz) u and the transform of
    the iterate by the in-place great-circle update instead of recomputing
    them; after 2000 pg steps they still agree with fresh full-transform
    evaluations at the iterate."""

    @pytest.mark.parametrize("kind", ["sym", "kinetic", "c2"])
    def test_images_track_fresh_transforms(self, kind):
        g = Grid(2, 8.0, 64)
        params = ModelParams(eta=100.0, omega=0.5, potential=half_square())
        phi0 = model.initial_guess("d", g, params)
        engine = optim._Engine(phi0, params, SolverConfig(method="pg", precond=kind),
                               spectral.FFTCounter())
        for _ in range(2000):
            engine.begin()
            arc = engine.direction(False)
            assert isinstance(arc, optim._Arc), arc
            theta, _, _ = optim._line_search(arc)
            engine.accept(theta)
        uhat = g.spectrum(False).fft(engine.u)
        hu = kinetic_plain(g, uhat) - params.omega * lz_plain(g, uhat)
        for carried, exact in ((engine.uhat, uhat), (engine.hu, hu)):
            assert np.max(np.abs(carried - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    @pytest.mark.parametrize("kind", ["sym", "kinetic"])
    def test_adaptive_shift_is_characteristic_energy(self, kind, omega):
        # the shift takes the kinetic energy alone, never the rotation term
        # that comes with it in <u, H_lin u>
        g = Grid(2, 8.0, 64)
        params = ModelParams(eta=100.0, omega=omega, potential=half_square())
        phi0 = model.initial_guess("d", g, params)
        engine = optim._Engine(phi0, params, SolverConfig(method="pcg", precond=kind),
                               spectral.FFTCounter())
        for _ in range(20):
            engine.begin()
            engine.accept(optim._line_search(engine.direction(False))[0])
        engine.begin()
        expected = evaluate(WaveField(g, engine.u), params).energy.characteristic
        assert engine.alpha == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["sym", "kinetic", "c2"])
    def test_images_without_rotation(self, kind):
        # -Lap/2 u is carried unless the kind takes it by Parseval, and the
        # transform only for the kinds that read it; the guess is real, so
        # the engine carries the real iterate and its half spectrum
        g = Grid(2, 8.0, 64)
        params = ModelParams(eta=100.0, omega=0.0, potential=half_square())
        phi0 = model.initial_guess("d", g, params)
        engine = optim._Engine(phi0, params, SolverConfig(method="pg", precond=kind),
                               spectral.FFTCounter())
        for _ in range(200):
            engine.begin()
            theta, _, _ = optim._line_search(engine.direction(False))
            engine.accept(theta)
        assert engine.u.dtype == np.float64
        uhat = g.spectrum(True).fft(engine.u)
        assert (engine.uhat is None) == (kind == "sym")
        assert (engine.hu is None) == (kind == "kinetic")
        fresh = [(engine.uhat, uhat), (engine.hu, g.spectrum(True).kinetic_image(uhat))]
        for carried, exact in fresh:
            if carried is not None:
                assert np.max(np.abs(carried - exact)) <= 1e-12 * np.max(np.abs(exact))


class TestSolverConfigValidation:
    @pytest.mark.parametrize("shift", [0.0, -1.0, float("nan"), float("inf"), "large"])
    def test_bad_fixed_shift_rejected(self, shift):
        # shift 0 once gave converged=True, stop zero_direction, after 0 iterations
        with pytest.raises(ValueError, match="preconditioner shift must be positive"):
            SolverConfig(precond="kinetic", shift=shift)

    @pytest.mark.parametrize("option,match", [
        ({"tol": float("nan")}, "tol"), ({"max_iter": -1}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"),
    ])
    def test_bad_tol_and_max_iter_rejected(self, option, match):
        with pytest.raises(ValueError, match=match):
            SolverConfig(**option)

    @pytest.mark.parametrize("tol", [float("inf"), -float("inf")])
    def test_infinite_tol_rejected(self, tol):
        # tol = inf once stopped every run after its first step, as converged
        with pytest.raises(ValueError, match="tol must be a finite"):
            SolverConfig(tol=tol)

    @pytest.mark.parametrize("option,match", [
        ({"precond": "kinetic", "shift": True}, "preconditioner shift must be a number, not the bool"),
        ({"max_iter": True}, "max_iter must be a nonnegative integer"),
        ({"max_iter": False}, "max_iter must be a nonnegative integer"),
        ({"tol": True}, "tol must be a finite"),
    ])
    def test_bool_rejected_by_name(self, option, match):
        # True is a number to Python: shift=True once ran as 1.0 and
        # max_iter=True as 1
        with pytest.raises(ValueError, match=match):
            SolverConfig(**option)
        with pytest.raises(ValueError, match=match):
            optim.check_options(option.get("precond", "sym"), option.get("shift", "adaptive"),
                                "energy_diff", option.get("tol", 1e-12),
                                option.get("max_iter", 10))

    def test_numpy_numbers_accepted(self):
        cfg = SolverConfig(precond="kinetic", shift=np.float64(2.5), tol=np.float32(1e-6),
                           max_iter=np.int64(7))
        assert (cfg.shift, cfg.max_iter) == (2.5, 7)
        assert SolverConfig(tol=0, max_iter=0).max_iter == 0

    def test_positive_and_adaptive_shift_accepted(self):
        assert SolverConfig(precond="kinetic", shift=2.5).shift == 2.5
        assert SolverConfig(precond="kinetic").shift == "adaptive"

