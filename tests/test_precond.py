"""Preconditioner diagonals, application, and operator properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpesolve import Grid, ModelParams, WaveField, evaluate, harmonic, inner, norm
from gpesolve import model, precond
from gpesolve.spectral import FFTCounter

from oracles import apply_per_factor, preconditioner_at, second_derivative_matrix


def random_normalized(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return WaveField(grid, vals).normalized()


def dense_preconditioner(p, grid):
    """Dense matrix of the preconditioner by applying it to basis vectors."""
    n = grid.size
    out = np.zeros((n, n), dtype=complex)
    basis = np.zeros(n, dtype=complex)
    for j in range(n):
        basis[j] = 1.0
        out[:, j] = p.apply_values(basis.reshape(grid.shape)).ravel()
        basis[j] = 0.0
    return out


@pytest.fixture
def setup_1d():
    g = Grid(1, 8.0, 32)
    params = ModelParams(eta=40.0, omega=0.0, potential=harmonic(1.0))
    phi = random_normalized(g, 1)
    return g, params, phi


class TestBuild:
    @pytest.mark.parametrize("kind", precond.KINDS)
    def test_diagonals_from_shift_and_w(self, kind, setup_1d):
        g, params, phi = setup_1d
        w = evaluate(phi, params).w
        p = precond.Preconditioner(kind, g.spectrum(False)).refresh(2.5, w)
        fourier = kind in ("kinetic", "c1", "c2", "sym")
        real = kind in ("potential", "c1", "c2", "sym")
        assert (p.kind, p.alpha, p.spectrum.grid) == (kind, 2.5, g)
        assert (p.fourier_diag is not None, p.real_diag is not None) == (fourier, real)
        if fourier:
            assert np.array_equal(p.fourier_diag, 1.0 / (2.5 + g.half_k2))
        if real:
            real_diag = 1.0 / (2.5 + w)
            assert np.array_equal(p.real_diag, np.sqrt(real_diag) if kind == "sym" else real_diag)

    def test_fixed_shift(self, setup_1d):
        g, params, phi = setup_1d
        p = preconditioner_at("kinetic", phi, params, shift=2.5)
        assert p.alpha == 2.5

    def test_nonpositive_shift_rejected(self, setup_1d):
        g, params, phi = setup_1d
        with pytest.raises(ValueError, match="positive"):
            precond.Preconditioner("kinetic", g.spectrum(False)).refresh(-1.0, None)

    def test_unknown_kind_rejected(self, setup_1d):
        g, params, phi = setup_1d
        with pytest.raises(ValueError, match="kind"):
            precond.Preconditioner("chebyshev", g.spectrum(False)).refresh(1.0, None)
        with pytest.raises(ValueError, match="unknown preconditioner kind 'chebyshev'"):
            precond.Preconditioner("chebyshev", g.spectrum(False))


class TestCheckShift:
    @pytest.mark.parametrize("shift", [True, False])
    def test_bool_rejected_by_name(self, shift):
        # True is a numbers.Real, and once read as the shift 1.0
        with pytest.raises(ValueError, match="^preconditioner shift must be a number, not the bool"):
            precond.check_shift(shift)

    @pytest.mark.parametrize("shift", [2.5, 3, np.float64(2.5), np.float32(2.5), np.int64(3)])
    def test_python_and_numpy_reals_accepted(self, shift):
        alpha = precond.check_shift(shift)
        assert type(alpha) is float and alpha == float(shift)

    @pytest.mark.parametrize("shift", [0, -1.0, np.float64(-2.0), np.nan, "2.5", None,
                                       np.bool_(True), 1j])
    def test_not_a_positive_real_rejected(self, shift):
        with pytest.raises(ValueError, match="^preconditioner shift must be positive"):
            precond.check_shift(shift)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(precond.KINDS), st.booleans(), st.sampled_from([(1, 32), (2, 16)]),
       st.integers(0, 2**32 - 1), st.floats(0.01, 100.0), st.floats(0.01, 100.0),
       st.booleans())
def test_refreshed_preconditioner_equals_a_fresh_build(kind, real, shape, seed, alpha0, alpha,
                                                       transformed):
    # the optimizer holds one Preconditioner for a run and refreshes it at
    # each iterate: after any earlier refresh, it applies bit for bit as a
    # fresh build at the same shift and w does
    d, m = shape
    g = Grid(d, 6.0, m)
    rng = np.random.default_rng(seed)
    w0, w = (rng.random(g.shape) * 50.0 for _ in range(2))
    r = rng.standard_normal(g.shape)
    if not real:
        r = r + 1j * rng.standard_normal(g.shape)
    held = precond.Preconditioner(kind, g.spectrum(real))
    assert held.refresh(alpha0, w0) is held
    held.refresh(alpha, w)
    fresh = precond.Preconditioner(kind, g.spectrum(real)).refresh(alpha, w)
    assert held.alpha == fresh.alpha
    spec = g.spectrum(real)
    for got, want in zip(held.apply_pair(spec.fft(r) if transformed else r.copy(),
                                         transformed=transformed),
                         fresh.apply_pair(spec.fft(r) if transformed else r.copy(),
                                          transformed=transformed)):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(precond.KINDS), st.booleans(),
       st.sampled_from([(1, 16), (1, 32), (2, 8), (2, 16)]), st.integers(0, 2**32 - 1),
       st.floats(0.01, 100.0))
def test_real_space_apply_matches_the_per_factor_path(kind, real, shape, seed, alpha):
    # grid values in and out, each F one spectrum.multiplier outside
    # FORMS_HAT: the bits, the transform and the units of the path that
    # transforms at each change of space; r is left alone
    d, m = shape
    g = Grid(d, 6.0, m)
    rng = np.random.default_rng(seed)
    w = rng.random(g.shape) * 50.0
    r = rng.standard_normal(g.shape)
    if not real:
        r = r + 1j * rng.standard_normal(g.shape)
    p = precond.Preconditioner(kind, g.spectrum(real)).refresh(alpha, w)
    before = r.copy()
    counted, counted_per_factor = FFTCounter(), FFTCounter()
    got = p.apply_pair(r, counted)
    want = apply_per_factor(p, r.copy(), counted_per_factor)
    assert r.tobytes() == before.tobytes()
    assert counted.count == counted_per_factor.count == 2 * precond.FACTORS[kind].count("F")
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_tables_derived_from_factors():
    # each per-kind rule read from FACTORS is the one the kinds were given
    # by hand: c1 = P_V P_Delta starts with the Fourier diagonal, c2 =
    # P_Delta P_V ends with it, and those two alone are not Hermitian
    assert precond.KINDS == ("identity", "kinetic", "potential", "c1", "c2", "sym")
    assert precond.FOURIER_FIRST == ("kinetic", "c1")
    assert precond.FORMS_HAT == ("kinetic", "c2")
    assert precond.HERMITIAN == ("identity", "kinetic", "potential", "sym")


@pytest.mark.parametrize("transformed", [False, True])
@pytest.mark.parametrize("d,m", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("kind", precond.KINDS)
def test_real_build_matches_complex_build(kind, d, m, transformed):
    # on real r, the build for real values (the optimizer's float64 path)
    # gives the complex build's Pr as a real array, and its transform as the
    # first M/2+1 modes of the last axis, through the grid's half spectrum
    g = Grid(d, 6.0, m)
    rng = np.random.default_rng(17 * d + m)
    r = rng.standard_normal(g.shape)
    w = 1.0 + rng.random(g.shape)
    full = precond.Preconditioner(kind, g.spectrum(False)).refresh(2.5, w)
    half = precond.Preconditioner(kind, g.spectrum(True)).refresh(2.5, w)
    assert half.spectrum is g.spectrum(True) and full.spectrum is g.spectrum(False)
    pr_full, hat_full = full.apply_pair(full.spectrum.fft(r) if transformed else r.astype(complex),
                                        transformed=transformed)
    pr_half, hat_half = half.apply_pair(half.spectrum.fft(r) if transformed else r,
                                        transformed=transformed)
    assert (pr_half is None, hat_half is None) == (pr_full is None, hat_full is None)
    if pr_full is not None:
        assert pr_half.dtype == np.float64
        assert np.max(np.abs(pr_half - pr_full.real)) <= 1e-13 * np.max(np.abs(pr_full))
        assert np.max(np.abs(pr_full.imag)) <= 1e-13 * np.max(np.abs(pr_full))
    if hat_full is not None:
        modes = hat_full[..., : m // 2 + 1]
        assert np.max(np.abs(hat_half - modes)) <= 1e-13 * np.max(np.abs(modes))


@pytest.mark.parametrize("d,m", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("kind", precond.KINDS)
def test_full_spectrum_takes_float64_values(kind, d, m):
    # a build on the full spectrum applies to float64 grid values as to the
    # same values in complex128, bit for bit and at the same units; c2 and
    # sym transform a float64 product of theirs, which must not be written
    # into itself
    g = Grid(d, 6.0, m)
    rng = np.random.default_rng(31 * d + m)
    r = rng.standard_normal(g.shape)
    w = 1.0 + rng.random(g.shape)
    p = precond.Preconditioner(kind, g.spectrum(False)).refresh(2.5, w)
    before = r.copy()
    counted, counted_complex = FFTCounter(), FFTCounter()
    got = p.apply_values(r, counted)
    want = p.apply_values(r.astype(complex), counted_complex)
    assert r.tobytes() == before.tobytes()
    assert counted.count == counted_complex.count
    assert got.astype(complex).tobytes() == want.tobytes()


class TestApply:
    def test_identity(self, setup_1d):
        g, params, phi = setup_1d
        p = preconditioner_at("identity", phi, params)
        r = random_normalized(g, 2)
        assert np.array_equal(p.apply_values(r.values), r.values)

    def test_kinetic_scales_plane_waves(self):
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0,
                             potential=model.PotentialSpec(kind="harmonic", harmonic_coeffs=(0.0,)))
        phi = random_normalized(g, 3)
        p = preconditioner_at("kinetic", phi, params, shift=1.7)
        xi = 3 * np.pi / g.L
        wave = WaveField(g, np.exp(1j * xi * (g.x1 + g.L)))
        out = p.apply_values(wave.values)
        assert np.allclose(out, wave.values / (1.7 + xi**2 / 2), atol=1e-13)

    def test_potential_scales_point_masses(self, setup_1d):
        g, params, phi = setup_1d
        p = preconditioner_at("potential", phi, params)
        k = 7
        e = np.zeros(g.shape, dtype=complex)
        e[k] = 1.0
        out = p.apply_values(e)
        v = model.sample_potential(params.potential, g)
        expected = 1.0 / (p.alpha + v[k] + params.eta * np.abs(phi.values[k]) ** 2)
        assert out[k] == pytest.approx(expected, rel=1e-14)
        assert np.max(np.abs(np.delete(out, k))) == 0

    def test_potential_diagonal_action_on_iterate(self, setup_1d):
        g, params, phi = setup_1d
        p = preconditioner_at("potential", phi, params)
        v = model.sample_potential(params.potential, g)
        out = p.apply_values(phi.values)
        expected = phi.values / (p.alpha + v + params.eta * np.abs(phi.values) ** 2)
        assert np.allclose(out, expected, atol=1e-15)

    def test_composition_order(self, setup_1d):
        g, params, phi = setup_1d
        r = random_normalized(g, 4).values
        p1 = preconditioner_at("c1", phi, params)
        p2 = preconditioner_at("c2", phi, params)
        pv = preconditioner_at("potential", phi, params)
        pk = preconditioner_at("kinetic", phi, params)
        # c1 = P_V P_Delta, c2 = P_Delta P_V (shifts agree since same iterate)
        a = p1.apply_values(r)
        b = pv.apply_values(pk.apply_values(r))
        assert np.allclose(a, b, atol=1e-14)
        c = p2.apply_values(r)
        d = pk.apply_values(pv.apply_values(r))
        assert np.allclose(c, d, atol=1e-14)


# dimension, seed of the fields and the density, shift alpha, eta
precond_cases = st.tuples(
    st.sampled_from([1, 2]),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 50.0),
    st.floats(0.0, 500.0),
)


def weighted(p, x):
    """W x for the inner product h^d vdot(W ., .) under which the kind is
    Hermitian: the plain one, except that the compositions c1 = P_V P_Delta
    and c2 = P_Delta P_V are Hermitian only when weighted by the inverse of
    their outer factor."""
    if p.kind == "c1":
        return x / p.real_diag
    if p.kind == "c2":
        return np.fft.ifftn(np.fft.fftn(x) / p.fourier_diag)
    return x


@pytest.mark.parametrize("kind", precond.KINDS)
@settings(max_examples=25, deadline=None)
@given(case=precond_cases)
def test_hermitian_positive_on_random_fields(kind, case):
    d, seed, alpha, eta = case
    g = Grid(d, 6.0, {1: 32, 2: 16}[d])
    rng = np.random.default_rng(seed)
    phi_n, u, v = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape) for _ in range(3))
    phi_n /= np.sqrt(g.cell_volume) * np.linalg.norm(phi_n)
    vd = model.sample_potential(harmonic(1.0), g) + eta * np.abs(phi_n) ** 2
    p = precond.Preconditioner(kind, g.spectrum(False)).refresh(alpha, vd)
    pu, pv = p.apply_values(u), p.apply_values(v)
    wu, wv = weighted(p, u), weighted(p, v)

    def dot(a, b):
        return g.cell_volume * np.vdot(a, b)

    def size(a):
        return np.sqrt(g.cell_volume) * np.linalg.norm(a)

    scale = size(wu) * size(pv) + size(wv) * size(pu)
    assert abs(dot(wu, pv) - np.conj(dot(wv, pu))) <= 1e-13 * scale
    quad = dot(wu, pu)
    assert quad.real > 0
    assert abs(quad.imag) <= 1e-13 * size(wu) * size(pu)


class TestOperatorProperties:
    @pytest.mark.parametrize("kind", ["identity", "kinetic", "potential", "sym"])
    def test_hermitian_positive_definite(self, kind):
        for d, m in ((1, 16), (1, 32), (2, 16)):
            g = Grid(d, 6.0, m)
            params = ModelParams(eta=15.0, omega=0.0, potential=harmonic(1.0))
            phi = random_normalized(g, m + d)
            p = preconditioner_at(kind, phi, params)
            u = random_normalized(g, 40 + m)
            v = random_normalized(g, 41 + m)
            pu = WaveField(g, p.apply_values(u.values))
            pv = WaveField(g, p.apply_values(v.values))
            assert inner(u, pv).real == pytest.approx(inner(pu, v).real, rel=1e-12)
            # positive definiteness on a nonzero vector
            assert inner(u, pu).real > 0

    @pytest.mark.parametrize("kind", ["identity", "kinetic", "potential", "c1", "c2", "sym"])
    def test_one_apply_on_values_and_transform(self, kind):
        # apply_pair on grid values and on their transform agrees with
        # apply_values; a transform it returns is the transform of Pr
        for d, m in ((1, 32), (2, 16)):
            g = Grid(d, 6.0, m)
            params = ModelParams(eta=15.0, omega=0.0, potential=harmonic(1.0))
            p = preconditioner_at(kind, random_normalized(g, m + d), params)
            rng = np.random.default_rng(60 + m)
            r = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            expected = p.apply_values(r)
            for transformed, arg in ((False, r), (True, np.fft.fftn(r))):
                pr, pr_hat = p.apply_pair(arg, transformed=transformed)
                if pr is None:  # left in Fourier space
                    assert (kind, transformed) == ("kinetic", True)
                    pr = np.fft.ifftn(pr_hat)
                assert np.max(np.abs(pr - expected)) <= 1e-14 * np.max(np.abs(expected))
                if kind == "c2":
                    assert pr_hat is not None
                if pr_hat is not None:
                    err = np.max(np.abs(pr_hat - np.fft.fftn(pr)))
                    assert err <= 1e-14 * np.max(np.abs(pr_hat))

    def test_sym_hermitian_random(self, setup_1d):
        g, params, phi = setup_1d
        p = preconditioner_at("sym", phi, params)
        u = random_normalized(g, 5)
        v = random_normalized(g, 6)
        pu = WaveField(g, p.apply_values(u.values))
        pv = WaveField(g, p.apply_values(v.values))
        assert inner(u, pv).real == pytest.approx(inner(pu, v).real, rel=1e-12)

    @pytest.mark.parametrize("kind", ["kinetic", "potential", "c1", "c2", "sym"])
    def test_dense_assembly_oracle(self, kind, setup_1d):
        g, params, phi = setup_1d
        p = preconditioner_at(kind, phi, params)
        dense = dense_preconditioner(p, g)
        # independent dense construction from the two diagonals
        v = model.sample_potential(params.potential, g)
        real_diag = np.diag(1.0 / (p.alpha + v + params.eta * np.abs(phi.values) ** 2))
        lap = second_derivative_matrix(g.M, g.L)
        kin = np.linalg.inv(p.alpha * np.eye(g.M) - 0.5 * lap)
        expected = {
            "kinetic": kin,
            "potential": real_diag,
            "c1": real_diag @ kin,
            "c2": kin @ real_diag,
            "sym": np.sqrt(real_diag) @ kin @ np.sqrt(real_diag),
        }[kind]
        assert np.max(np.abs(dense - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_shifted_inverse_filter_linear_case(self):
        # eta=0, V=0: P_Delta after the gradient is the filter 1/(alpha + xi^2/2)
        g = Grid(1, 8.0, 32)
        params = ModelParams(eta=0.0, omega=0.0,
                             potential=model.PotentialSpec(kind="harmonic", harmonic_coeffs=(0.0,)))
        phi = random_normalized(g, 7)
        p = preconditioner_at("kinetic", phi, params, shift=0.9)
        grad = 2.0 * evaluate(phi, params).h_phi
        out = p.apply_values(grad)
        expected = np.fft.ifft(np.fft.fft(grad) / (0.9 + g.half_k2))
        assert np.allclose(out, expected, atol=1e-13)
