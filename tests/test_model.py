"""Energy functional, Hamiltonian, derivatives, potentials and initial data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpesolve import (
    Grid,
    ModelParams,
    PotentialSpec,
    WaveField,
    energy,
    evaluate,
    find_vortices,
    harmonic,
    harmonic_quartic,
    half_square,
    hessian_quadratic_form,
    initial_guess,
    inner,
    norm,
    thomas_fermi_initial,
)
from gpesolve import model, spectral
from gpesolve.classic import SchemeKind, run_imaginary_time
from gpesolve.optim import SolverConfig, solve
from gpesolve.spectral import FFTCounter

from oracles import dense_hamiltonian_1d, frozen_hamiltonian, kinetic_plain, lz_plain


def random_normalized(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return WaveField(grid, vals).normalized()


def smooth_normalized(grid, seed=0):
    """Band-limited random field (keeps finite differences well resolved)."""
    rng = np.random.default_rng(seed)
    shape = grid.shape
    hat = np.zeros(shape, dtype=complex)
    cut = 6
    idx = np.arange(-cut, cut + 1)
    if grid.d == 1:
        hat[idx] = rng.standard_normal(2 * cut + 1) + 1j * rng.standard_normal(2 * cut + 1)
    else:
        for i in idx:
            for j in idx:
                hat[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
    return WaveField(grid, np.fft.ifftn(hat)).normalized()


def hamiltonian_at(phi, params):
    """H_phi as a map on fields: the frozen Hamiltonian at the w of phi."""
    apply_h = frozen_hamiltonian(params, phi.grid, evaluate(phi, params).w)
    return lambda f: WaveField(f.grid, apply_h(f.values))


def gradient(phi, params):
    """The energy gradient 2 H_phi phi."""
    return WaveField(phi.grid, 2.0 * evaluate(phi, params).h_phi)


class TestPotentials:
    def test_harmonic_1d_uses_squared_gamma(self):
        g = Grid(1, 4.0, 16)
        v = PotentialSpec(kind="harmonic", gamma=(2.0, 1.0, 1.0)).sample(g)
        assert v == pytest.approx(4.0 * g.x1**2)

    def test_harmonic_2d_uses_plain_gamma(self):
        g = Grid(2, 4.0, 16)
        v = PotentialSpec(kind="harmonic", gamma=(2.0, 3.0, 1.0)).sample(g)
        x, y = g.coordinate(0), g.coordinate(1)
        assert np.allclose(v, 2.0 * x**2 + 3.0 * y**2)

    def test_lattice_argument_flag(self):
        g = Grid(1, 4.0, 16)
        base = dict(kind="harmonic_plus_lattice", gamma=(1.0,) * 3, kappa=(25.0,) * 3,
                    q=(np.pi / 2,) * 3)
        v_sq = PotentialSpec(**base).sample(g)
        x = g.x1
        assert np.allclose(v_sq, x**2 + 25 * np.sin(np.pi / 2 * x**2) ** 2)

    def test_quartic(self):
        g = Grid(2, 4.0, 16)
        v = harmonic_quartic(1.0, 1.2, 0.3).sample(g)
        x, y = g.coordinate(0), g.coordinate(1)
        r2 = x**2 + y**2
        assert np.allclose(v, -0.2 * r2 + 0.075 * r2**2)

    def test_half_square(self):
        g = Grid(2, 4.0, 16)
        v = half_square().sample(g)
        r2 = g.coordinate(0) ** 2 + g.coordinate(1) ** 2
        assert np.allclose(v, 0.5 * r2)

    def test_harmonic_coeffs_override(self):
        g = Grid(1, 4.0, 16)
        v = PotentialSpec(kind="harmonic", harmonic_coeffs=(3.0,)).sample(g)
        assert np.allclose(v, 3.0 * g.x1**2)

    @pytest.mark.parametrize("spec,d,field", [
        (PotentialSpec(kind="harmonic_plus_quartic"), 1, "kind"),
        (PotentialSpec(harmonic_coeffs=(1.0,)), 2, "harmonic_coeffs"),
        (PotentialSpec(kind="harmonic_plus_lattice", gamma=(1.0,) * 3, kappa=(1.0, 1.0),
                       q=(1.0,) * 3), 3, "kappa"),
    ])
    def test_dimension_rule(self, spec, d, field):
        with pytest.raises(model.DimensionError) as info:
            spec.check_dimension(d)
        assert info.value.field == field
        with pytest.raises(model.DimensionError):
            spec.sample(Grid(d, 4.0, 8))

    def test_invalid(self):
        with pytest.raises(ValueError, match="kind"):
            PotentialSpec(kind="box")
        with pytest.raises(ValueError, match="positive"):
            PotentialSpec(gamma=(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field,value", [
        ("gamma", (1.0, "bad", 1.0)), ("kappa", ("bad", 0.0, 0.0)), ("q", (0.0, 0.0, "bad")),
        ("alpha", "bad"), ("kappa_quartic", "bad"), ("harmonic_coeffs", (1.0, "bad")),
    ])
    def test_non_finite_field_refused_by_name(self, field, value, bad):
        value = tuple(bad if x == "bad" else x for x in value) if isinstance(value, tuple) else bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PotentialSpec(**{field: value})


@pytest.mark.parametrize("option,value", [
    ("eta", True), ("eta", "1.0"), ("eta", None), ("omega", False), ("omega", "0.5"),
    ("omega", None),
])
def test_model_params_refuse_a_non_number_by_name(option, value):
    # a bool once read as 1 or 0, and a string or None raised a bare TypeError
    with pytest.raises(ValueError, match=f"^{option} must be a finite"):
        ModelParams(**{option: value})


class TestRotationBound:
    """|omega| must stay below the confining frequency of the rotation plane,
    where the rotating energy is bounded below; the quartic trap is exempt."""

    @pytest.mark.parametrize("spec,d,freq", [
        (harmonic(1.0), 2, np.sqrt(2.0)),
        (harmonic((1.0, 0.5, 0.01)), 3, 1.0),
        (PotentialSpec(kind="harmonic", harmonic_coeffs=(2.0, 0.32)), 2, 0.8),
        (model.harmonic_lattice((0.5, 2.0, 1.0), 25.0, 1.0), 2, 1.0),
        (half_square(), 3, 1.0),
    ])
    def test_both_sides_of_the_bound(self, spec, d, freq):
        for omega in (0.999 * freq, -0.999 * freq):
            ModelParams(eta=1.0, omega=omega, potential=spec).check_dimension(d)
        for omega in (freq, -freq, 1.001 * freq):
            with pytest.raises(ValueError, match="trap frequency"):
                ModelParams(eta=1.0, omega=omega, potential=spec).check_dimension(d)

    def test_quartic_trap_exempt(self):
        ModelParams(eta=1.0, omega=3.5, potential=harmonic_quartic()).check_dimension(2)

    def test_solvers_reject_fast_rotation(self):
        g = Grid(2, 8.0, 16)
        params = ModelParams(eta=1.0, omega=3.0, potential=harmonic(1.0))
        phi0 = initial_guess("d", g, params)
        with pytest.raises(ValueError, match="trap frequency"):
            solve(phi0, params, SolverConfig())
        with pytest.raises(ValueError, match="trap frequency"):
            run_imaginary_time(phi0, SchemeKind("be_lambda", 0.01), params)


class TestEnergy:
    def test_harmonic_ground_energy(self):
        # ground state of -1/2 d^2 + x^2 has energy sqrt(2)/2
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi = WaveField(g, np.exp(-g.x1**2 / np.sqrt(2)).astype(complex)).normalized()
        e = energy(phi, params)
        assert e.total == pytest.approx(np.sqrt(2) / 2, abs=1e-10)

    def test_quadratic_identity(self):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi = random_normalized(g, 5)
        e = energy(phi, params)
        h = kinetic_plain(g, np.fft.fftn(phi.values)) + (
            model.sample_potential(params.potential, g) * phi.values)
        assert e.total == pytest.approx(inner(phi, WaveField(g, h)).real, rel=1e-12)

    def test_breakdown_sums(self):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=10.0, omega=0.4, potential=half_square())
        phi = random_normalized(g, 6)
        e = energy(phi, params)
        assert e.total == pytest.approx(e.kinetic + e.potential + e.interaction + e.rotation, rel=1e-12)
        assert e.kinetic >= 0 and e.potential >= 0 and e.interaction >= 0

    def test_rotation_zero_for_real_field_or_zero_omega(self):
        g = Grid(2, 6.0, 32)
        rng = np.random.default_rng(0)
        real_phi = WaveField(g, rng.standard_normal(g.shape).astype(complex)).normalized()
        params = ModelParams(eta=0.0, omega=0.7, potential=harmonic(1.0))
        assert abs(energy(real_phi, params).rotation) < 1e-10
        params0 = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        assert energy(random_normalized(g), params0).rotation == 0.0

    def test_time_reversal_symmetry(self):
        g = Grid(2, 6.0, 32)
        phi = random_normalized(g, 7)
        p_plus = ModelParams(eta=25.0, omega=0.6, potential=half_square())
        p_minus = ModelParams(eta=25.0, omega=-0.6, potential=half_square())
        e1 = energy(phi, p_plus).total
        e2 = energy(WaveField(g, np.conj(phi.values)), p_minus).total
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_nan_rejected(self):
        g = Grid(1, 4.0, 16)
        vals = np.ones(16, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            energy(WaveField(g, vals), ModelParams(potential=harmonic(1.0)))


class TestHamiltonian:
    def test_plane_wave_eigenfunction(self):
        g = Grid(1, 16.0, 64)
        params = ModelParams(eta=0.0, omega=0.0,
                             potential=PotentialSpec(kind="harmonic", harmonic_coeffs=(0.0,)))
        xi1 = np.pi / g.L
        u = WaveField(g, np.exp(1j * xi1 * (g.x1 + g.L)))
        out = hamiltonian_at(u, params)(u)
        assert np.max(np.abs(out.values - 0.5 * xi1**2 * u.values)) < 1e-12

    def test_hermiticity(self):
        g = Grid(2, 6.0, 24)
        params = ModelParams(eta=30.0, omega=0.5, potential=half_square())
        phi = random_normalized(g, 1)
        u = random_normalized(g, 2)
        v = random_normalized(g, 3)
        h = hamiltonian_at(phi, params)
        a = inner(u, h(v)).real
        b = inner(h(u), v).real
        assert a == pytest.approx(b, rel=1e-12)

    def test_dense_oracle_1d(self):
        g = Grid(1, 8.0, 16)
        params = ModelParams(eta=12.0, omega=0.0, potential=harmonic(1.0))
        phi = random_normalized(g, 4)
        u = random_normalized(g, 5)
        h_mat = dense_hamiltonian_1d(16, 8.0, model.sample_potential(params.potential, g),
                                     eta=12.0, density=phi.values)
        expected = h_mat @ u.values
        got = hamiltonian_at(phi, params)(u).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_frozen_density_argument(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=5.0, omega=0.0, potential=harmonic(1.0))
        phi = random_normalized(g, 6)
        f = random_normalized(g, 7)
        out = hamiltonian_at(phi, params)(f)
        v = model.sample_potential(params.potential, g)
        direct = (-0.5 * np.fft.ifft(-2 * g.half_k2 * np.fft.fft(f.values))
                  + (v + 5.0 * np.abs(phi.values) ** 2) * f.values)
        assert np.allclose(out.values, direct, atol=1e-12)


class TestDerivatives:
    @pytest.mark.parametrize("eta,omega", [(0.0, 0.0), (10.0, 0.0), (250.0, 0.5)])
    @pytest.mark.parametrize("eps", [1e-4, 1e-5])
    def test_gradient_finite_difference(self, eta, omega, eps):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=eta, omega=omega, potential=half_square())
        phi = smooth_normalized(g, 1)
        f = smooth_normalized(g, 2)
        plus = WaveField(g, phi.values + eps * f.values)
        minus = WaveField(g, phi.values - eps * f.values)
        fd = (energy(plus, params).total - energy(minus, params).total) / (2 * eps)
        an = inner(gradient(phi, params), f).real
        assert abs(fd - an) <= 1e-6 * max(abs(an), 1.0)

    def test_gradient_collinear_on_eigenvector(self):
        # eta=0: an exact discrete eigenvector gives gradient = 2 lambda phi
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        h_mat = dense_hamiltonian_1d(32, 8.0, model.sample_potential(params.potential, g))
        evals, evecs = np.linalg.eigh(h_mat)
        phi = WaveField(g, evecs[:, 0]).normalized()
        grad = gradient(phi, params)
        residual = grad.values - 2.0 * evals[0] * phi.values
        assert np.max(np.abs(residual)) <= 1e-10

    @pytest.mark.parametrize("eta,omega", [(0.0, 0.0), (10.0, 0.5), (250.0, 0.0)])
    def test_hessian_finite_difference(self, eta, omega):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=eta, omega=omega, potential=half_square())
        phi = smooth_normalized(g, 3)
        f = smooth_normalized(g, 4)
        eps = 1e-5
        plus = gradient(WaveField(g, phi.values + eps * f.values), params)
        minus = gradient(WaveField(g, phi.values - eps * f.values), params)
        fd = inner(WaveField(g, plus.values - minus.values), f).real / (2 * eps)
        an = hessian_quadratic_form(phi, f, params)
        assert abs(fd - an) <= 1e-5 * max(abs(an), 1.0)

    def test_hessian_pure_quadratic_when_linear(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi = random_normalized(g, 8)
        f = random_normalized(g, 9)
        hf = hamiltonian_at(phi, params)(f)
        assert hessian_quadratic_form(phi, f, params) == pytest.approx(
            2 * inner(f, hf).real, rel=1e-12)

    def test_hessian_real_case_extra_term_nonnegative(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=4.0, omega=0.0, potential=harmonic(1.0))
        rng = np.random.default_rng(10)
        phi = WaveField(g, rng.standard_normal(32).astype(complex)).normalized()
        f = WaveField(g, rng.standard_normal(32).astype(complex)).normalized()
        hf = hamiltonian_at(phi, params)(f)
        extra = hessian_quadratic_form(phi, f, params) - 2 * inner(f, hf).real
        # for real fields the nonlinear part is 4 eta h sum(phi^2 f^2) >= 0
        expected = 4.0 * 4.0 * g.h * np.sum(phi.values.real**2 * f.values.real**2)
        assert extra == pytest.approx(expected, rel=1e-12)
        assert extra >= 0

    def test_gradient_zero_field(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=7.0, omega=0.0,
                             potential=PotentialSpec(kind="harmonic", harmonic_coeffs=(0.0,)))
        z = WaveField(g, np.zeros(g.shape, complex))
        assert norm(gradient(z, params)) == 0


class TestChemicalPotential:
    def test_equals_energy_when_linear(self):
        g = Grid(1, 8.0, 64)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi = random_normalized(g, 11)
        assert evaluate(phi, params).lam == pytest.approx(energy(phi, params).total, rel=1e-12)

    def test_harmonic_ground_state_value(self):
        g = Grid(1, 16.0, 128)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        phi = WaveField(g, np.exp(-g.x1**2 / np.sqrt(2)).astype(complex)).normalized()
        assert evaluate(phi, params).lam == pytest.approx(np.sqrt(2) / 2, abs=1e-10)

    def test_lambda_minus_energy_is_interaction(self):
        g = Grid(1, 8.0, 64)
        params = ModelParams(eta=250.0, omega=0.0, potential=harmonic(1.0))
        phi = random_normalized(g, 12)
        lam = evaluate(phi, params).lam
        e = energy(phi, params)
        direct = 0.5 * 250.0 * g.h * np.sum(np.abs(phi.values) ** 4)
        assert lam - e.total == pytest.approx(direct, rel=1e-12)


class TestCharacteristicEnergy:
    def test_equals_lambda_without_rotation(self):
        g = Grid(1, 8.0, 64)
        params = ModelParams(eta=40.0, omega=0.0, potential=harmonic(1.0))
        phi = random_normalized(g, 13)
        ev = evaluate(phi, params)
        assert ev.energy.characteristic == pytest.approx(ev.lam, rel=1e-12)

    def test_plane_wave_kinetic_only(self):
        g = Grid(1, 16.0, 64)
        params = ModelParams(eta=0.0, omega=0.0,
                             potential=PotentialSpec(kind="harmonic", harmonic_coeffs=(0.0,)))
        xi1 = np.pi / g.L
        phi = WaveField(g, np.exp(1j * xi1 * (g.x1 + g.L))).normalized()
        assert evaluate(phi, params).energy.characteristic == pytest.approx(xi1**2 / 2,
                                                                           rel=1e-12)

    def test_matches_direct_quadrature(self):
        g = Grid(2, 6.0, 32)
        params = ModelParams(eta=30.0, omega=0.3, potential=half_square())
        phi = random_normalized(g, 14)
        v = model.sample_potential(params.potential, g)
        dens = np.abs(phi.values) ** 2
        kinetic = g.cell_volume * np.vdot(phi.values, kinetic_plain(g, np.fft.fftn(phi.values)))
        direct = kinetic.real + g.cell_volume * np.sum(v * dens + 30.0 * dens**2)
        assert evaluate(phi, params).energy.characteristic == pytest.approx(direct, rel=1e-12)


# dimension, field seed, eta, omega (ignored in 1D)
evaluate_cases = st.tuples(
    st.sampled_from([1, 2, 3]),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 500.0),
    st.just(0.0) | st.floats(0.05, 1.2) | st.floats(-1.2, -0.05),
)


@settings(max_examples=40, deadline=None)
@given(evaluate_cases)
def test_evaluate_matches_plain_oracles(case):
    # each energy part, lambda, r_inf, H_phi phi and w against the plain
    # transforms and direct sums, the inner products spectral.rdot: bit for
    # bit without rotation, within 1e-13 of the energy scale (of
    # max|H_phi phi| for H_phi phi) with it
    d, seed, eta, omega = case
    g = {1: Grid(1, 6.0, 64), 2: Grid(2, 6.0, 16), 3: Grid(3, 6.0, 8)}[d]
    omega = omega if d > 1 else 0.0
    params = ModelParams(eta=eta, omega=omega, potential=harmonic(1.0))
    phi = random_normalized(g, seed)
    counter = FFTCounter()
    ev = evaluate(phi, params, counter)
    assert counter.count == (3 if omega else 2)

    hd = g.cell_volume
    u = phi.values
    u_hat = np.fft.fftn(u)
    v = params.potential.sample(g)
    dens = np.abs(u) ** 2
    h = kinetic_plain(g, u_hat)
    kinetic = hd * spectral.rdot(u, h)
    rotation = 0.0
    if omega:
        lz_u = lz_plain(g, u_hat)
        rotation = -omega * hd * spectral.rdot(u, lz_u)
        h = h - omega * lz_u
    potential = hd * float(np.sum(v * dens))
    interaction = 0.5 * eta * hd * float(np.sum(dens**2))
    w = v + eta * dens
    h = h + w * u
    lam = hd * spectral.rdot(h, u)
    r_inf = float(np.max(np.abs(h - lam * u)))
    want = {"kinetic": kinetic, "rotation": rotation, "potential": potential,
            "interaction": interaction, "total": kinetic + potential + interaction + rotation,
            "characteristic": kinetic + potential + 2.0 * interaction, "lam": lam}
    got = {"lam": ev.lam, "total": ev.energy.total,
           "characteristic": ev.energy.characteristic, **vars(ev.energy)}

    assert (ev.phi is phi and np.array_equal(ev.w, w)
            and (ev.energy.potential, ev.energy.interaction) == (potential, interaction))
    if not omega:
        assert got == want
        assert ev.r_inf == r_inf and np.array_equal(ev.h_phi, h)
        return
    scale = kinetic + abs(rotation) + potential + interaction
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-13 * scale, name
    assert ev.r_inf == pytest.approx(r_inf, rel=1e-13)
    assert np.max(np.abs(ev.h_phi - h)) <= 1e-13 * np.max(np.abs(h))


@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_evaluate_takes_the_spectrum_of_its_field(monkeypatch, omega):
    # a real field takes half spectra without rotation, the full ones with
    # it (H_lin phi is complex there); it evaluates as its complex copy does
    g = Grid(2, 6.0, 16)
    params = ModelParams(eta=20.0, omega=omega, potential=harmonic(1.0))
    phi = WaveField(g, smooth_normalized(g, 4).values.real)
    ref = evaluate(WaveField(g, phi.values.astype(complex)), params)
    asked = []
    spectrum = Grid.spectrum
    monkeypatch.setattr(Grid, "spectrum", lambda grid, real: asked.append(real) or spectrum(
        grid, real))
    counter = FFTCounter()
    ev = evaluate(phi, params, counter)
    assert asked == [not omega] and counter.count == (3 if omega else 2)
    assert ev.h_phi.dtype == (np.complex128 if omega else np.float64)
    scale = ref.energy.kinetic + abs(ref.energy.rotation) + ref.energy.potential
    for name in ("kinetic", "rotation", "potential", "interaction"):
        assert abs(getattr(ev.energy, name) - getattr(ref.energy, name)) <= 1e-13 * scale, name
    assert ev.lam == pytest.approx(ref.lam, rel=1e-13)
    assert np.max(np.abs(ev.h_phi - ref.h_phi)) <= 1e-13 * np.max(np.abs(ref.h_phi))


@pytest.mark.parametrize("omega,real_phi", [(0.0, True), (0.5, True), (0.5, False)])
def test_hessian_form_reads_a_real_direction_in_its_image_dtype(omega, real_phi):
    # a float64 f whose image is complex (under rotation) is read as
    # complex, as spectral.rdot needs: the value of its complex copy
    g = Grid(2, 6.0, 16)
    params = ModelParams(eta=20.0, omega=omega, potential=harmonic(1.0))
    f = WaveField(g, smooth_normalized(g, 5).values.real)
    phi = smooth_normalized(g, 4)
    phi = WaveField(g, phi.values.real) if real_phi else phi
    want = hessian_quadratic_form(phi, WaveField(g, f.values.astype(complex)), params)
    assert hessian_quadratic_form(phi, f, params) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("d,omega", [(1, 0.0), (2, 0.0), (2, 0.5)])
def test_half_hessian_reads_a_real_direction_in_the_dtype_of_phi(d, omega):
    # without rotation H x of a float64 x is float64 while phi^2 conj(x) is
    # complex at a complex phi: x is read as complex128 there, the value of
    # its complex copy bit for bit; at a float64 phi it stays float64
    g = Grid(d, 6.0, 32 if d == 1 else 16)
    params = ModelParams(eta=20.0, omega=omega, potential=harmonic(1.0))
    phi = smooth_normalized(g, 4)
    f = smooth_normalized(g, 5).values.real
    b = model.half_hessian(params, g, phi.values)
    got, want = b(f), b(f.astype(complex))
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    assert (hessian_quadratic_form(phi, WaveField(g, f), params)
            == hessian_quadratic_form(phi, WaveField(g, f.astype(complex)), params))
    if omega == 0.0:
        real_phi = WaveField(g, phi.values.real)
        assert model.half_hessian(params, g, real_phi.values)(f).dtype == np.float64
        assert type(hessian_quadratic_form(real_phi, WaveField(g, f), params)) is float


class TestThomasFermi:
    def test_mu_1d_closed_form(self):
        params = ModelParams(eta=250.0, omega=0.0, potential=harmonic(1.0))
        mu = model.thomas_fermi_mu(params, 1)
        assert mu == pytest.approx(0.5 * (3 * 250.0) ** (2 / 3))
        g = Grid(1, 16.0, 256)
        phi = thomas_fermi_initial(g, params)
        # support ends at |x| = sqrt(mu)
        outside = np.abs(g.x1) > np.sqrt(mu) + g.h
        assert np.max(np.abs(phi.values[outside])) == 0

    def test_mu_2d_closed_form(self):
        params = ModelParams(eta=500.0, omega=0.0, potential=harmonic(1.0))
        assert model.thomas_fermi_mu(params, 2) == pytest.approx(np.sqrt(2000.0) / 2)

    def test_unit_norm(self):
        g = Grid(2, 8.0, 64)
        params = ModelParams(eta=100.0, omega=0.0, potential=harmonic(1.0))
        phi = thomas_fermi_initial(g, params)
        assert abs(norm(phi) - 1.0) < 1e-14

    def test_eta_zero_rejected(self):
        g = Grid(1, 8.0, 32)
        with pytest.raises(ValueError, match="eta > 0"):
            thomas_fermi_initial(g, ModelParams(eta=0.0, potential=harmonic(1.0)))


class TestInitialGuesses:
    def test_gaussian_is_radial(self):
        g = Grid(2, 8.0, 64)
        params = ModelParams(eta=0.0, omega=0.5, potential=half_square())
        phi = initial_guess("a", g, params)
        assert abs(norm(phi) - 1.0) < 1e-14
        assert norm(WaveField(g, lz_plain(g, np.fft.fftn(phi.values)))) < 1e-10

    def test_vortex_angular_momentum(self):
        g = Grid(2, 8.0, 64)
        params = ModelParams(eta=0.0, omega=0.5, potential=half_square())
        pb = initial_guess("b", g, params)
        pbbar = initial_guess("bbar", g, params)
        lz_b = inner(pb, WaveField(g, lz_plain(g, np.fft.fftn(pb.values)))).real
        lz_bbar = inner(pbbar, WaveField(g, lz_plain(g, np.fft.fftn(pbbar.values)))).real
        assert lz_b == pytest.approx(1.0, abs=1e-8)
        assert lz_bbar == pytest.approx(-1.0, abs=1e-8)

    def test_d_equals_c_at_omega_half(self):
        g = Grid(2, 8.0, 64)
        params = ModelParams(eta=0.0, omega=0.5, potential=half_square())
        pc = initial_guess("c", g, params)
        pd = initial_guess("d", g, params)
        assert np.max(np.abs(pc.values - pd.values)) < 1e-13

    def test_dimension_check(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0, potential=harmonic(1.0))
        with pytest.raises(ValueError, match="d = 2"):
            initial_guess("a", g, params)
        with pytest.raises(ValueError, match="unknown"):
            initial_guess("z", Grid(2, 8.0, 32), params)


class TestVortexDetection:
    def test_single_offcenter_vortex(self):
        # zero placed inside a plaquette, not on a node
        g = Grid(2, 8.0, 64)
        x, y = g.coordinate(0), g.coordinate(1)
        a, b = 0.3 * g.h, 0.6 * g.h
        phi = WaveField(g, ((x - a) + 1j * (y - b)) * np.exp(-(x**2 + y**2) / 2)).normalized()
        vortices = find_vortices(phi, radius=2.0)
        assert len(vortices) == 1
        cx, cy, w = vortices[0]
        assert w == 1
        assert abs(cx - a) <= g.h and abs(cy - b) <= g.h

    def test_antivortex_winding(self):
        g = Grid(2, 8.0, 64)
        x, y = g.coordinate(0), g.coordinate(1)
        a = 0.4 * g.h
        phi = WaveField(g, ((x - a) - 1j * (y - a)) * np.exp(-(x**2 + y**2) / 2)).normalized()
        vortices = find_vortices(phi, radius=2.0)
        assert [w for _, _, w in vortices] == [-1]

    def test_vortex_free_gaussian(self):
        g = Grid(2, 8.0, 64)
        r2 = g.coordinate(0) ** 2 + g.coordinate(1) ** 2
        phi = WaveField(g, np.exp(-r2 / 2).astype(complex)).normalized()
        assert find_vortices(phi, radius=3.0) == []
