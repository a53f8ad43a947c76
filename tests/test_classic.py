"""Imaginary-time schemes, the MINRES inner solver, and spectral analysis."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpesolve import (
    Grid,
    ModelParams,
    PotentialSpec,
    WaveField,
    evaluate,
    harmonic,
    half_square,
    harmonic_lattice,
    initial_guess,
    norm,
    thomas_fermi_initial,
)
from gpesolve import classic, model, precond, spectral
from gpesolve.classic import (
    KrylovError,
    SchemeKind,
    amplification_analysis,
    amplification_factors,
    imaginary_time_step,
    krylov_solve,
    precond_hessian_condition,
    run_imaginary_time,
)
from gpesolve.optim import SolverConfig, solve

from oracles import (dense_hamiltonian_1d, frozen_hamiltonian, hessian_condition_plain,
                     krylov_solve_plain, preconditioner_at)


def linear_harmonic(grid_m=64, box=16.0):
    g = Grid(1, box, grid_m)
    params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
    phi = initial_guess("gauss", g, params)
    return g, params, phi


def lattice_system(scheme):
    """(apply_a, b, P) of one implicit step of `scheme` on a small 1D lattice
    problem, taken from the call imaginary_time_step makes."""
    g = Grid(1, 16.0, 256)
    params = ModelParams(eta=250.0, omega=0.0, potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classic, "krylov_solve", lambda *a, **kw: calls.append(a) or (a[1], 0))
        imaginary_time_step(thomas_fermi_initial(g, params), SchemeKind(scheme, 0.01), params, "sym")
    return calls[0][:3]


class TestSchemeKind:
    def test_validation(self):
        with pytest.raises(ValueError, match="scheme"):
            SchemeKind(scheme="rk4")
        with pytest.raises(ValueError, match="dt"):
            SchemeKind(dt=0.0)
        with pytest.raises(ValueError, match="inner_tol"):
            SchemeKind(inner_tol=0.0)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="inner_max_iter"):
                SchemeKind(inner_max_iter=bad)

    @pytest.mark.parametrize("option,value", [
        ("dt", True), ("dt", "0.1"), ("dt", None), ("inner_tol", True), ("inner_tol", "1e-8"),
        ("inner_tol", None), ("inner_max_iter", True), ("inner_max_iter", 2.5),
        ("inner_max_iter", "100"),
    ])
    def test_not_a_number_refused_by_name(self, option, value):
        # a bool once read as 1, and a string or None raised a bare TypeError
        with pytest.raises(ValueError, match=f"^{option} must be"):
            SchemeKind(**{option: value})

    @pytest.mark.parametrize("option", ["dt", "inner_tol"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), -float("inf")])
    def test_step_and_inner_tol_must_be_finite(self, option, value):
        # dt = inf once ended a run as diverged, and inner_tol = inf let
        # be_lambda report converged from inexact solves
        with pytest.raises(ValueError, match=f"{option} must be finite and positive"):
            SchemeKind(**{option: value})


class TestKrylovSolve:
    def test_identity_system(self):
        # pure shift, no potential, dt absorbs everything: x = b after one step
        g = Grid(1, 8.0, 32)
        b = WaveField(g, np.exp(-g.x1**2).astype(complex))
        x, iters = krylov_solve(lambda v: v, b, tol=1e-12)
        assert np.max(np.abs(x.values - b.values)) <= 1e-12
        assert iters <= 1

    def test_dense_hpd_oracle(self):
        g = Grid(1, 8.0, 16)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a = a @ a.conj().T + 16 * np.eye(16)
        b = WaveField(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        x, _ = krylov_solve(lambda v: a @ v, b, tol=1e-12)
        expected = np.linalg.solve(a, b.values)
        assert np.max(np.abs(x.values - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_exact_preconditioner_converges_immediately(self):
        # A = alpha - Lap/2 with P_Delta at the same shift is solved in O(1) iterations
        g = Grid(1, 8.0, 64)
        params = ModelParams(eta=0.0, omega=0.0,
                             potential=PotentialSpec(kind="harmonic", harmonic_coeffs=(0.0,)))
        phi = initial_guess("gauss", g, params)
        p = preconditioner_at("kinetic", phi, params, shift=3.0)

        def apply_a(v):
            return 3.0 * v + np.fft.ifft(g.half_k2 * np.fft.fft(v))

        rng = np.random.default_rng(6)
        b = WaveField(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        x, iters = krylov_solve(apply_a, b, p, tol=1e-10)
        assert iters <= 3
        assert np.max(np.abs(apply_a(x.values) - b.values)) <= 1e-9

    def test_dense_indefinite_complex_oracle(self):
        # Hermitian with eigenvalues of both signs, positive diagonal preconditioner
        g = Grid(1, 8.0, 16)
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        eigs = np.concatenate([np.linspace(-6.0, -0.5, 7), np.linspace(0.7, 40.0, 9)])
        a = (q * eigs) @ q.conj().T
        p = precond.Preconditioner(kind="potential", spectrum=g.spectrum(False), alpha=1.0,
                                   real_diag=1.0 / (1.0 + np.abs(np.diag(a))))
        b = WaveField(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        x, _ = krylov_solve(lambda v: a @ v, b, p, tol=1e-12)
        expected = np.linalg.solve(a, b.values)
        assert np.max(np.abs(x.values - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("scheme", ["be_lambda", "cn_lambda"])
    def test_true_residual_within_tol(self, scheme, tol):
        apply_a, b, p = lattice_system(scheme)
        x, iters = krylov_solve(apply_a, b, p, tol=tol)
        assert iters > 0
        assert np.linalg.norm(b.values - apply_a(x.values)) <= tol * np.linalg.norm(b.values)

    def test_failed_check_continues_the_krylov_run(self):
        # every A apply is a Lanczos step or a true-residual check.  Each
        # Lanczos vector after the first continues the three-term recurrence,
        # v_{k+1} in span(P A v_k, v_k, v_{k-1}), so a failed check goes on
        # with the same run instead of starting again from x = 0
        apply_a, b, p = lattice_system("cn_lambda")
        args = []
        x, iters = krylov_solve(lambda v: args.append(v.copy()) or apply_a(v), b, p, tol=1e-10)
        lanczos = [args[0]]
        for v in args[1:]:
            span = np.stack([p.apply_values(apply_a(lanczos[-1])), *lanczos[-2:]], axis=1)
            coef = np.linalg.lstsq(span, v, rcond=None)[0]
            if np.linalg.norm(span @ coef - v) <= 1e-8 * np.linalg.norm(v):
                lanczos.append(v)
        checks = len(args) - len(lanczos)
        assert len(lanczos) == iters
        assert checks >= 2  # the first check failed and the run went on
        assert np.array_equal(args[-1], x.values)  # the last apply checked the answer
        start = p.apply_values(b.values)
        assert np.allclose(args[0] * (np.vdot(args[0], start) / np.vdot(args[0], args[0])), start)

    def test_non_finite_operator_raises(self):
        g = Grid(1, 8.0, 16)
        b = WaveField(g, np.ones(16, dtype=complex))
        with pytest.raises(KrylovError, match="MINRES did not converge") as err:
            krylov_solve(lambda v: np.full_like(v, np.nan), b, tol=1e-10)
        assert err.value.iterations == 1

    def test_zero_rhs_returns_zero(self):
        g = Grid(1, 8.0, 16)
        calls = []
        zero = WaveField(g, np.zeros(g.shape, complex))
        x, iters = krylov_solve(lambda v: calls.append(v) or v, zero, tol=1e-10)
        assert iters == 0 and calls == []
        assert not np.any(x.values)

    def test_package_imports_no_scipy(self):
        code = ("import sys, gpesolve, gpesolve.classic, gpesolve.config, gpesolve.runs, "
                "gpesolve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8, 16, 32]),
           st.sampled_from([np.float64, np.complex128]),
           st.sampled_from(["none", "diagonal", "sym"]), st.sampled_from(["dense", "identity"]),
           st.sampled_from([1e-6, 1e-10, 1e-13]))
    def test_matches_the_allocating_loop(self, seed, m, dtype, kind, operator, tol):
        # on a random Hermitian positive definite operator, or one that
        # returns its argument, the buffered solver gives the allocating
        # loop's x bit for bit, its iteration count and its failure, and
        # leaves b alone
        g = Grid(1, 8.0, m)
        rng = np.random.default_rng(seed)
        real = dtype is np.float64

        def draw(*shape):
            z = rng.standard_normal(shape)
            return z if real else z + 1j * rng.standard_normal(shape)

        a = draw(m, m)
        a = a @ a.conj().T + rng.uniform(0.1, m) * np.eye(m)
        apply_a = (lambda v: v) if operator == "identity" else (lambda v: a @ v)
        p = None
        if kind == "diagonal":
            p = precond.Preconditioner("potential", g.spectrum(real), alpha=1.0,
                                       real_diag=rng.uniform(0.1, 2.0, m))
        elif kind == "sym":
            p = precond.Preconditioner("sym", g.spectrum(real)).refresh(
                rng.uniform(0.5, 5.0), rng.uniform(0.0, 10.0, m))
        b = WaveField(g, draw(m))
        before = b.values.copy()

        def run(solver):
            try:
                x, iters = solver(apply_a, b, p, tol=tol, max_iter=3 * m)
                return x.values, iters, None
            except KrylovError as err:
                return err.best, err.iterations, str(err)

        x, iters, failure = run(krylov_solve)
        assert b.values.tobytes() == before.tobytes()
        x_ref, iters_ref, failure_ref = run(krylov_solve_plain)
        assert x.dtype == x_ref.dtype == np.dtype(dtype)
        assert x.tobytes() == x_ref.tobytes()
        assert (iters, failure) == (iters_ref, failure_ref)

    def test_failure_carries_best_iterate(self):
        g = Grid(1, 8.0, 16)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((16, 16))
        a = a + a.T + 30 * np.eye(16)
        b = WaveField(g, rng.standard_normal(16).astype(complex))
        with pytest.raises(KrylovError) as err:
            krylov_solve(lambda v: a @ v, b, tol=1e-14, max_iter=2)
        assert err.value.best.shape == (16,)
        assert err.value.residual > 0


class TestImaginaryTimeStep:
    def test_be_lambda_equivalence_at_effective_dt(self):
        g, params, phi = linear_harmonic()
        lam = evaluate(phi, params).lam
        dt = 0.05
        with_lam, _ = imaginary_time_step(phi, SchemeKind("be_lambda", dt, 1e-13), params)
        dt_eff = dt / (1.0 - dt * lam)
        without, _ = imaginary_time_step(phi, SchemeKind("be", dt_eff, 1e-13), params)
        assert np.max(np.abs(with_lam.values - without.values)) <= 1e-12

    @pytest.mark.parametrize("scheme,w,s", [
        ("fe", 0.0, 0), ("fe_lambda", 0.0, 1), ("cn", 0.5, 0),
        ("cn_lambda", 0.5, 1), ("be", 1.0, 0), ("be_lambda", 1.0, 1),
    ])
    def test_step_equals_dense_oracle(self, scheme, w, s):
        # eta = 0: the step is the normalized
        # (I + w dt (H - s lambda))^-1 (I - (1 - w) dt (H - s lambda)) phi
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        rng = np.random.default_rng(5)
        phi = WaveField(g, rng.standard_normal(32) + 1j * rng.standard_normal(32)).normalized()
        dt = 0.05
        h_mat = dense_hamiltonian_1d(32, 8.0, model.sample_potential(params.potential, g))
        lam = g.h * np.vdot(phi.values, h_mat @ phi.values).real
        a_mat = h_mat - s * lam * np.eye(32)
        want = np.linalg.solve(np.eye(32) + w * dt * a_mat,
                               phi.values - (1.0 - w) * dt * (a_mat @ phi.values))
        want /= np.sqrt(g.h) * np.linalg.norm(want)
        out, inner = imaginary_time_step(phi, SchemeKind(scheme, dt, 1e-13), params)
        assert np.max(np.abs(out.values - want)) <= 1e-10
        assert (inner > 0) == (w > 0)  # only the implicit schemes run MINRES

    def test_fe_small_dt_continuity(self):
        g, params, phi = linear_harmonic()
        out, _ = imaginary_time_step(phi, SchemeKind("fe", 1e-9), params)
        assert np.max(np.abs(out.values - phi.values)) <= 1e-7

    def test_projection_returns_unit_norm(self):
        g, params, phi = linear_harmonic()
        for scheme in ("fe", "fe_lambda", "be", "be_lambda", "cn", "cn_lambda"):
            out, _ = imaginary_time_step(phi, SchemeKind(scheme, 0.01), params)
            assert abs(norm(out) - 1.0) <= 1e-14

    def test_norm_defect_orders(self):
        # pre-projection defect: O(dt^2) for lambda-variants, O(dt) without
        g, params, phi = linear_harmonic()
        ev = evaluate(phi, params)
        lam, h_phi = ev.lam, ev.h_phi

        def defect(scheme, dt):
            if scheme == "fe":
                tilde = phi.values - dt * h_phi
            else:
                tilde = phi.values - dt * (h_phi - lam * phi.values)
            return abs(np.sqrt(g.h) * np.linalg.norm(tilde) - 1.0)

        d_free = [defect("fe", dt) for dt in (1e-2, 1e-3)]
        d_lam = [defect("fe_lambda", dt) for dt in (1e-2, 1e-3)]
        assert 5 <= d_free[0] / d_free[1] <= 20      # first order
        assert 50 <= d_lam[0] / d_lam[1] <= 200      # second order

    def test_implicit_norm_defect_orders(self):
        # same check through the solver path, via the unnormalized solve
        g, params, phi = linear_harmonic()

        def defect(scheme_name, dt):
            apply_h = frozen_hamiltonian(params, g, evaluate(phi, params).w)
            h_phi = apply_h(phi.values)
            lam = g.cell_volume * np.vdot(phi.values, h_phi).real
            if scheme_name == "be":
                x, _ = krylov_solve(lambda v: v / dt + apply_h(v),
                                    WaveField(g, phi.values / dt), tol=1e-13)
            else:
                x, _ = krylov_solve(lambda v: v / dt + apply_h(v) - lam * v,
                                    WaveField(g, phi.values / dt), tol=1e-13)
            return abs(norm(x) - 1.0)

        d_free = [defect("be", dt) for dt in (1e-2, 1e-3)]
        d_lam = [defect("be_lambda", dt) for dt in (1e-2, 1e-3)]
        assert 5 <= d_free[0] / d_free[1] <= 20
        assert 50 <= d_lam[0] / d_lam[1] <= 200


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["be", "be_lambda", "cn", "cn_lambda"]),
           st.sampled_from(["1d float64", "1d complex", "2d rotating"]),
           st.floats(1e-3, 0.1))
    def test_operator_is_the_frozen_hamiltonian(self, seed, scheme, case, dt):
        # the step's operator w H_lin + d, d formed once per step, is
        # x/dt + w (H x - s lambda x) with H the frozen Hamiltonian at phi_n
        rng = np.random.default_rng(seed)
        if case == "2d rotating":
            g = Grid(2, 8.0, 16)
            params = ModelParams(eta=100.0, omega=0.5, potential=half_square())
        else:
            g = Grid(1, 16.0, 64)
            params = ModelParams(eta=250.0, potential=harmonic_lattice(1.0, 25.0, np.pi / 2))

        def draw():
            z = rng.standard_normal(g.shape)
            return z if case == "1d float64" else z + 1j * rng.standard_normal(g.shape)

        phi = WaveField(g, draw() * np.exp(-np.abs(g.coordinate(0)))).normalized()
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classic, "krylov_solve", lambda *a, **kw: calls.append(a) or (a[1], 0))
            imaginary_time_step(phi, SchemeKind(scheme, dt), params, "sym")
        apply_a = calls[0][0]
        ev = evaluate(phi, params)
        apply_h = frozen_hamiltonian(params, g, ev.w)
        w, s = classic.WEIGHTS[scheme]
        x = draw()
        want = x / dt + w * (apply_h(x) - s * ev.lam * x)
        got = apply_a(x)
        assert got.dtype == phi.values.dtype
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestMinresCallsPerIteration:
    """Calls of gpesolve functions per MINRES iteration of be_lambda/sym on
    the 1D lattice trap (the float64 path), the outer step's own calls
    spread over its inner iterations: the Python-level overhead of an
    implicit scheme, counted so that a regression fails here rather than
    hiding in timing noise.  Only frames whose code lies in the gpesolve
    package count, as in test_optim.TestCallsPerIteration, and apart from
    them frames of numpy.fft's wrapper, which the 1D spectra skip."""

    CEILING = 11.0

    @staticmethod
    def calls(steps, counted=None):
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=250.0, omega=0.0,
                             potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
        phi0 = thomas_fermi_initial(g, params)
        package = os.path.dirname(classic.__file__) + os.sep
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
            res = run_imaginary_time(phi0, SchemeKind("be_lambda", 0.01), params, "sym",
                                     stop="residual_inf", tol=0.0, max_iter=steps)
        finally:
            sys.setprofile(None)
        assert (res.stop_reason, res.iterations) == ("max_iter", steps)
        return count, res.inner_total

    def test_ceiling(self):
        # the difference of two run lengths leaves out the set-up and the
        # final evaluation
        (c10, i10), (c30, i30) = self.calls(10), self.calls(30)
        assert i30 > i10
        assert (c30 - c10) / (i30 - i10) <= self.CEILING

    def test_no_numpy_fft_wrapper(self):
        def numpy_fft_frame(frame):
            return frame.f_code.co_filename == np.fft._pocketfft.__file__

        (c10, i10), (c30, i30) = self.calls(10, numpy_fft_frame), self.calls(30, numpy_fft_frame)
        assert i30 > i10
        assert (c30 - c10) / (i30 - i10) == 0


class TestRunImaginaryTime:
    def test_be_lambda_reaches_harmonic_ground_state(self):
        g, params, phi = linear_harmonic()
        res = run_imaginary_time(phi, SchemeKind("be_lambda", 0.01), params, "sym",
                                 tol=1e-10, max_iter=5000)
        assert res.converged
        assert abs(res.energy - np.sqrt(2) / 2) <= 1e-8

    def test_fe_diverges_above_cfl(self):
        g, params, phi = linear_harmonic()
        lam_max = float(np.max(g.half_k2)) + float(
            np.max(model.sample_potential(params.potential, g)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_imaginary_time(phi, SchemeKind("fe", 2.5 / lam_max), params,
                                     tol=1e-10, max_iter=400)
        assert not res.converged
        assert res.stop_reason == "diverged"

    def test_diverged_run_ends_at_last_accepted_iterate(self):
        # the rejected step leaves no record, and the result is the iterate
        # the last record describes
        g, params, phi = linear_harmonic()
        lam_max = float(np.max(g.half_k2)) + float(
            np.max(model.sample_potential(params.potential, g)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_imaginary_time(phi, SchemeKind("fe", 2.5 / lam_max), params,
                                     tol=1e-10, max_iter=400)
        assert res.stop_reason == "diverged" and res.records
        e0 = model.energy(phi.normalized(), params).total
        assert all(r.energy <= e0 + 10.0 * (abs(e0) + 1.0) for r in res.records)
        last = res.records[-1]
        assert (res.energy, res.lam, res.r_inf) == (last.energy, last.lam, last.r_inf)

    @pytest.mark.parametrize("dt", [1e100, 1e200, 1e300])
    def test_fe_overflow_ends_as_diverged(self, dt):
        # beyond 1e200 the step's norm overflows before the energy can
        # exceed the divergence bound
        g = Grid(1, 8.0, 64)
        params = ModelParams(eta=10.0, omega=0.0, potential=harmonic(1.0))
        phi = initial_guess("gauss", g, params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_imaginary_time(phi, SchemeKind("fe", dt), params, tol=1e-10, max_iter=50)
        assert (res.stop_reason, res.converged) == ("diverged", False)
        assert np.isfinite(res.energy) and abs(norm(res.phi) - 1.0) <= 1e-12

    def test_adaptive_shift_not_positive_ends_as_diverged(self):
        # 1/dt plus a negative characteristic energy: V = -2 r^2 + 0.075 r^4
        g = Grid(2, 8.0, 32)
        params = ModelParams(eta=1.0, omega=0.0, potential=model.harmonic_quartic(1.0, 3.0, 0.3))
        phi = initial_guess("gauss", g, params)
        assert 1.0 + evaluate(phi, params).energy.characteristic < 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_imaginary_time(phi, SchemeKind("be_lambda", 1.0), params, "sym")
        assert (res.stop_reason, res.iterations) == ("diverged", 0)
        assert res.stop_detail.startswith("preconditioner shift must be positive")

    def test_each_record_counts_the_transforms_its_step_ran(self, monkeypatch):
        # be_lambda/sym in 1D: a spy counts every Spectrum.fft/ifft call, and
        # the half-spectrum transforms of the real path, each multiplier
        # call as its two transforms, and notes the count as each step
        # begins; a step runs until the next begins or the run ends, and
        # nothing runs uncounted
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=250.0, omega=0.0,
                             potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
        calls = [0]
        for owner in (spectral.Spectrum, spectral.HalfSpectrum):
            for name, units in (("fft", 1), ("ifft", 1), ("multiplier", 2)):
                def spy(self, *args, _orig=getattr(owner, name), _units=units, **kwargs):
                    calls[0] += _units
                    return _orig(self, *args, **kwargs)
                monkeypatch.setattr(owner, name, spy)
        starts = []
        step = classic._step
        monkeypatch.setattr(classic, "_step",
                            lambda *a, **kw: starts.append(calls[0]) or step(*a, **kw))
        res = run_imaginary_time(thomas_fermi_initial(g, params), SchemeKind("be_lambda", 0.01),
                                 params, "sym", tol=1e-10, max_iter=40)
        assert res.iterations == len(starts) > 0
        ran = [b - a for a, b in zip(starts, starts[1:] + [calls[0]])]
        assert [r.fft_count for r in res.records] == ran
        assert res.fft_total == calls[0] == starts[0] + sum(ran)
        assert all(r.fft_count % 2 == 0 and r.fft_count >= 2 for r in res.records)

    def test_result_is_the_last_recorded_iterate(self):
        g, params, phi = linear_harmonic(32)
        for max_iter in (0, 1, 5):
            res = run_imaginary_time(phi, SchemeKind("be_lambda", 0.01), params, "sym",
                                     max_iter=max_iter)
            ev = model.evaluate(res.phi, params)
            assert (res.energy, res.lam, res.r_inf) == (ev.energy.total, ev.lam, ev.r_inf)
            if res.records:
                last = res.records[-1]
                assert (res.energy, res.lam, res.r_inf) == (last.energy, last.lam, last.r_inf)
            else:
                assert np.array_equal(res.phi.values, phi.normalized().values)

    def test_adaptive_shift_is_characteristic_energy(self, monkeypatch):
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=250.0, omega=0.0,
                             potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
        phi = thomas_fermi_initial(g, params)
        shifts = []
        refresh = precond.Preconditioner.refresh
        monkeypatch.setattr(precond.Preconditioner, "refresh",
                            lambda self, alpha, w: shifts.append(alpha) or refresh(self, alpha, w))
        imaginary_time_step(phi, SchemeKind("be", 0.01), params, "sym")
        assert shifts == [1.0 / 0.01 + evaluate(phi, params).energy.characteristic]

    def test_fe_converges_below_cfl(self):
        g, params, phi = linear_harmonic()
        lam_max = float(np.max(g.half_k2)) + float(
            np.max(model.sample_potential(params.potential, g)))
        res = run_imaginary_time(phi, SchemeKind("fe_lambda", 1.0 / lam_max), params,
                                 tol=1e-12, max_iter=50000)
        assert res.converged
        assert abs(res.energy - np.sqrt(2) / 2) <= 1e-6

    def test_energy_monotone_for_small_dt(self):
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=250.0, omega=0.0,
                             potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
        phi = thomas_fermi_initial(g, params)
        for scheme in ("fe_lambda", "be_lambda", "cn_lambda", "be", "cn"):
            dt = 1e-4 if scheme == "fe_lambda" else 0.01
            res = run_imaginary_time(phi, SchemeKind(scheme, dt), params, "sym",
                                     tol=1e-9, max_iter=300)
            energies = [r.energy for r in res.records]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:])), scheme

    def test_inner_iterations_recorded(self):
        g, params, phi = linear_harmonic(32)
        res = run_imaginary_time(phi, SchemeKind("be_lambda", 0.01), params, "sym",
                                 tol=1e-8, max_iter=200)
        assert res.inner_total > 0
        assert all(r.inner_iters is not None and r.inner_iters >= 0 for r in res.records)
        assert res.inner_total == sum(r.inner_iters for r in res.records)

    @pytest.mark.parametrize("option,match", [
        ({"precond_kind": "bogus"}, "preconditioner"),
        ({"tol": -1.0}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"max_iter": -1}, "max_iter"),
        ({"shift": 0.0}, "shift must be positive"),
    ])
    def test_options_checked_before_first_step(self, option, match, monkeypatch):
        # fe_lambda builds no preconditioner, so only the up-front check sees a bad
        # kind or shift; the spy shows that nothing was evaluated
        g, params, phi = linear_harmonic(32)
        steps = []
        monkeypatch.setattr(model, "evaluate", lambda *a: steps.append(a))
        with pytest.raises(ValueError, match=match):
            run_imaginary_time(phi, SchemeKind("fe_lambda", 1e-3), params, **option)
        assert steps == []

    @pytest.mark.parametrize("kind", ["c1", "c2"])
    @pytest.mark.parametrize("scheme", ["be", "be_lambda", "cn", "cn_lambda"])
    def test_non_hermitian_precond_rejected_before_first_step(self, kind, scheme, monkeypatch):
        # MINRES needs a Hermitian positive definite preconditioner; c1 and c2
        # are not Hermitian, so implicit schemes refuse them by name
        g, params, phi = linear_harmonic(32)
        steps = []
        monkeypatch.setattr(model, "evaluate", lambda *a: steps.append(a))
        with pytest.raises(ValueError, match=f"precond '{kind}' is not Hermitian"):
            run_imaginary_time(phi, SchemeKind(scheme, 0.01), params, kind)
        with pytest.raises(ValueError, match=f"precond '{kind}'"):
            imaginary_time_step(phi, SchemeKind(scheme, 0.01), params, kind)
        assert steps == []

    @pytest.mark.parametrize("scheme", classic.SCHEMES)
    def test_unknown_precond_named_before_first_step(self, scheme, monkeypatch):
        # a step called directly once said "not Hermitian" for an implicit
        # scheme and ran silently for an explicit one
        g, params, phi = linear_harmonic(32)
        steps = []
        monkeypatch.setattr(model, "evaluate", lambda *a: steps.append(a))
        with pytest.raises(ValueError, match="unknown preconditioner 'bogus'"):
            imaginary_time_step(phi, SchemeKind(scheme, 0.01), params, "bogus")
        assert steps == []

    @pytest.mark.parametrize("kind", ["c1", "c2"])
    def test_explicit_schemes_read_no_precond(self, kind):
        g, params, phi = linear_harmonic(32)
        res = run_imaginary_time(phi, SchemeKind("fe_lambda", 1e-3), params, kind, max_iter=3)
        assert res.iterations == 3

    def test_unpreconditioned_growth_laws(self):
        # the CFL-limited gradient method grows like h^-2 while the
        # Krylov-backed BE only grows like h^-1 (so BE overtakes PG on fine
        # grids); the conjugate gradient method stays below both throughout
        params = ModelParams(eta=250.0, omega=0.0,
                             potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
        counts = {"pcg": [], "pg": [], "be": []}
        for m in (256, 512, 1024):  # h = 1/8, 1/16, 1/32
            g = Grid(1, 16.0, m)
            phi0 = thomas_fermi_initial(g, params)
            tol = 1e-10
            pcg = solve(phi0, params, SolverConfig(method="pcg", precond="identity",
                                                   tol=tol, max_iter=600000))
            be = run_imaginary_time(phi0, SchemeKind("be", 0.01), params, "identity",
                                    tol=tol, max_iter=600000)
            pg = solve(phi0, params, SolverConfig(method="pg", precond="identity",
                                                  tol=tol, max_iter=600000))
            assert pcg.converged and be.converged and pg.converged
            counts["pcg"].append(pcg.iterations)
            counts["pg"].append(pg.iterations)
            counts["be"].append(be.inner_total)
            assert pcg.iterations < be.inner_total
            assert pcg.iterations < pg.iterations
        pg_growth = counts["pg"][-1] / counts["pg"][0]
        be_growth = counts["be"][-1] / counts["be"][0]
        pcg_growth = counts["pcg"][-1] / counts["pcg"][0]
        assert pg_growth > 2.0 * be_growth   # h^-2 versus h^-1 scaling
        assert pcg_growth < pg_growth


class TestAmplification:
    def test_closed_form_two_by_two(self):
        h = np.diag([1.0, 2.0])
        mus = amplification_factors(np.array([1.0, 2.0]), "fe", 0.1)
        assert np.allclose(mus, [0.9, 0.8])
        rep = amplification_analysis(h, "fe", 0.1, n_iter=500)
        assert rep.predicted_rate == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_be_rate_improves_with_dt(self):
        h = np.diag([1.0, 2.0, 10.0])
        rates = []
        for dt in (0.05, 0.2, 1.0, 5.0):
            mus = amplification_factors(np.diag(h), "be", dt)
            order = np.argsort(np.abs(mus))
            rates.append(abs(mus[order[-2]] / mus[order[-1]]))
        assert all(b < a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("scheme,dt", [("fe", 0.04), ("be", 0.3), ("cn", 0.3)])
    def test_observed_rate_matches_prediction(self, scheme, dt):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((16, 16))
        h = 0.5 * (a + a.T) + 4.0 * np.eye(16)
        rep = amplification_analysis(h, scheme, dt, n_iter=600, seed=1)
        assert not rep.degenerate
        assert abs(rep.observed_rate - rep.predicted_rate) <= 0.05 * rep.predicted_rate

    def test_degenerate_flagged(self):
        h = np.diag([1.0, 1.0, 2.0])
        rep = amplification_analysis(h, "fe", 0.1)
        assert rep.degenerate
        assert rep.observed_rate is None

    @pytest.mark.parametrize("h,dt,n_iter,seed,match", [
        (np.eye(1), 0.1, 10, 0, "size 2 to 256, got size 1"),
        (np.eye(0), 0.1, 10, 0, "size 2 to 256, got size 0"),
        (np.eye(257), 0.1, 10, 0, "size 2 to 256, got size 257"),
        (np.ones((3, 4)), 0.1, 10, 0, "H must be a square matrix"),
        (np.eye(4), 0.0, 10, 0, "dt must be finite and positive"),
        (np.eye(4), -0.1, 10, 0, "dt must be finite and positive"),
        (np.eye(4), np.nan, 10, 0, "dt must be finite and positive"),
        (np.eye(4), np.inf, 10, 0, "dt must be finite and positive"),
        (np.eye(4), 0.1, 0, 0, "n_iter must be at least 1"),
        (np.eye(4), 0.1, 10, -1, "seed must not be negative"),
    ])
    def test_inputs_outside_the_domain_rejected(self, h, dt, n_iter, seed, match):
        with pytest.raises(ValueError, match=match):
            amplification_analysis(h, "be", dt, n_iter=n_iter, seed=seed)


class TestConditioning:
    def _converged_state(self, m, box=4.0):
        g = Grid(1, box, m)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi0 = initial_guess("gauss", g, params)
        res = solve(phi0, params, SolverConfig(method="pcg", precond="sym",
                                               tol=1e-15, max_iter=1000))
        return g, params, res.phi

    def test_perfectly_preconditioned_linear_case(self):
        # eta=0, V=0: the shifted inverse Laplacian is the exact inverse on
        # the orthogonal complement of the (constant) ground state
        g = Grid(1, 4.0, 16)
        params = ModelParams(eta=0.0, omega=0.0,
                             potential=PotentialSpec(kind="harmonic", harmonic_coeffs=(0.0,)))
        const = WaveField(g, np.ones(16, dtype=complex)).normalized()
        rep = precond_hessian_condition(const, params, "kinetic", 1e-6)
        assert rep.sigma == pytest.approx(1.0, abs=1e-4)

    def test_identity_sigma_grows_like_h_squared(self):
        sigmas = []
        for m in (16, 32, 64):  # h = 1/2, 1/4, 1/8 at L = 4
            g, params, phi = self._converged_state(m)
            sigmas.append(precond_hessian_condition(phi, params, "identity", 1.0).sigma)
        for a, b in zip(sigmas, sigmas[1:]):
            assert b / a >= 4.0 * 0.7  # 4x per halving, 30% slack

    def test_kinetic_sigma_bounded_in_h(self):
        sigmas = []
        for m in (16, 32, 64):
            g, params, phi = self._converged_state(m)
            sigmas.append(precond_hessian_condition(phi, params, "kinetic", "adaptive").sigma)
        assert max(sigmas) / min(sigmas) < 2.0

    @pytest.mark.parametrize("kind", precond.HERMITIAN)
    @pytest.mark.parametrize("d,m,omega", [(1, 16, 0.0), (2, 8, 0.5)])
    def test_matches_the_concatenated_realification(self, kind, d, m, omega):
        # the interleaved float64 view is a permutation of [Re, Im]: the
        # same sigma and spectrum, at a complex nonlinear iterate
        g = Grid(d, 4.0, m)
        params = ModelParams(eta=10.0, omega=omega, potential=harmonic(1.0))
        r2 = sum(g.coordinate(ax) ** 2 for ax in range(d))
        phi = WaveField(g, np.exp(-r2 / 2.0) * (1.0 + 0.3j * g.coordinate(0))).normalized()
        rep = precond_hessian_condition(phi, params, kind, "adaptive")
        sigma, eig = hessian_condition_plain(phi, params, preconditioner_at(kind, phi, params))
        assert rep.sigma == pytest.approx(sigma, rel=1e-10)
        got, want = np.sort(np.abs(rep.eigenvalues)), np.sort(np.abs(eig))
        assert np.max(np.abs(got - want)) <= 1e-10 * want[-1]

    def test_large_grid_refused(self):
        g = Grid(2, 4.0, 66)  # 4356 unknowns
        phi = WaveField(g, np.ones(g.shape)).normalized()
        with pytest.raises(ValueError, match="limited to 4096 unknowns, got 4356"):
            precond_hessian_condition(phi, ModelParams(), "kinetic", "adaptive")

    def test_nonstationary_warning(self):
        g = Grid(1, 4.0, 16)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        rng = np.random.default_rng(13)
        phi = WaveField(g, (rng.standard_normal(16) + 1j * rng.standard_normal(16))).normalized()
        rep = precond_hessian_condition(phi, params, "kinetic", "adaptive")
        assert rep.warning is not None
