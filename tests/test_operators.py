"""Properties of the single model operators on random complex fields: the
Hamiltonian and the angular momentum are Hermitian, the half Hessian is
symmetric, and the Hessian quadratic form is 2 Re<f, half_hessian f>."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpesolve import FFTCounter, Grid, ModelParams, energy, half_square, model, spectral
from gpesolve import WaveField, hessian_quadratic_form

from oracles import frozen_hamiltonian

GRIDS = {1: Grid(1, 8.0, 32), 2: Grid(2, 6.0, 16)}

# dimension, field seed, eta, omega (used in 2D only, never 0 there)
problems = st.tuples(
    st.sampled_from([1, 2]),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 500.0),
    st.floats(0.05, 0.95) | st.floats(-0.95, -0.05),
)
property_settings = settings(max_examples=25, deadline=None)


def setup(d, seed, eta, omega):
    """Grid, parameters and three random complex fields phi, u, v."""
    g = GRIDS[d]
    params = ModelParams(eta=eta, omega=omega if d == 2 else 0.0, potential=half_square())
    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape) for _ in range(3)]
    return g, params, fields


def hamiltonian(params, g, phi):
    """H_phi as a map on grid values: the frozen Hamiltonian at phi's w."""
    w = model.sample_potential(params.potential, g) + params.eta * np.abs(phi) ** 2
    return frozen_hamiltonian(params, g, w)


def dot(g, a, b):
    """The discrete inner product h^d vdot(a, b)."""
    return g.cell_volume * np.vdot(a, b)


def size(g, a):
    return np.sqrt(dot(g, a, a).real)


@property_settings
@given(problems)
def test_hamiltonian_hermitian(problem):
    g, params, (phi, u, v) = setup(*problem)
    h = hamiltonian(params, g, phi)
    hu, hv = h(u), h(v)
    scale = size(g, u) * size(g, hv) + size(g, hu) * size(g, v)
    assert abs(dot(g, u, hv) - dot(g, hu, v)) <= 1e-13 * scale


@property_settings
@given(problems)
def test_lz_hermitian(problem):
    # the rotation part omega Lz of the one-axis linear operator, apart from
    # its kinetic part
    g, params, (_, u, v) = setup(2, *problem[1:])

    def lz(a):
        full = g.spectrum(False)
        return full.kinetic_image(full.fft(a)) - spectral.rotating_linear(g, params.omega, a)[0]

    lu, lv = lz(u), lz(v)
    scale = size(g, u) * size(g, lv) + size(g, lu) * size(g, v)
    assert abs(dot(g, u, lv) - dot(g, lu, v)) <= 1e-13 * scale


@property_settings
@given(problems)
def test_half_hessian_symmetric(problem):
    # real-linear, so symmetric under Re<., .> only
    g, params, (phi, u, v) = setup(*problem)
    b = model.half_hessian(params, g, phi)
    bu, bv = b(u), b(v)
    scale = size(g, u) * size(g, bv) + size(g, bu) * size(g, v)
    assert abs(dot(g, u, bv).real - dot(g, bu, v).real) <= 1e-13 * scale


@property_settings
@given(problems)
def test_hessian_quadratic_form_is_twice_half_hessian(problem):
    g, params, (phi, f, _) = setup(*problem)
    q = hessian_quadratic_form(WaveField(g, phi), WaveField(g, f), params)
    assert q == pytest.approx(2.0 * dot(g, f, model.half_hessian(params, g, phi)(f)).real,
                              rel=1e-12)
    # and the expanded form: 2 Re<f, H_phi f> + 2 eta h^d sum(|phi|^2 |f|^2 + Re(conj(phi)^2 f^2))
    hf = hamiltonian(params, g, phi)(f)
    quartic = np.sum(np.abs(phi) ** 2 * np.abs(f) ** 2 + (np.conj(phi) ** 2 * f**2).real)
    expanded = 2.0 * dot(g, f, hf).real + 2.0 * params.eta * g.cell_volume * quartic
    assert q == pytest.approx(expanded, rel=1e-12)


@pytest.mark.parametrize("d,omega,units", [(2, 0.5, 3), (2, 0.0, 2), (1, 0.0, 2)])
def test_energy_transform_units(d, omega, units):
    # one forward transform feeds the Laplacian and, with rotation, Lz
    g, params, (phi, _, _) = setup(d, 0, 10.0, omega)
    counter = FFTCounter()
    energy(WaveField(g, phi), params, counter)
    assert counter.count == units
