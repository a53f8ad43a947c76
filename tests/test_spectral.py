"""Grid, transforms, differential operators and spectral interpolation."""

import math
import runpy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpesolve import (Grid, ModelParams, WaveField, evaluate, harmonic_lattice, inner, norm,
                      spectral_interpolate)
from gpesolve import classic, spectral

from oracles import (
    dense_lz_matrix,
    fft_plain,
    ifft_plain,
    kinetic_plain,
    lz_plain,
    second_derivative_matrix,
    trig_interpolant,
    truncate_spectrum,
)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return WaveField(grid, vals)


def apply_laplacian(u):
    """The Laplacian through the package's kinetic operator -Lap/2."""
    g = u.grid
    return WaveField(g, -2.0 * g.spectrum(False).kinetic_image(g.spectrum(False).fft(u.values)))


def apply_lz(u, omega=0.5):
    """Lz through the one-axis operator -Lap/2 - omega Lz, less its
    kinetic part, over omega."""
    g = u.grid
    kinetic = g.spectrum(False).kinetic_image(g.spectrum(False).fft(u.values))
    return WaveField(g, (kinetic - spectral.rotating_linear(g, omega, u.values)[0]) / omega)


class TestGrid:
    def test_mesh_and_frequencies(self):
        g = Grid(1, 16.0, 64)
        assert g.h * g.M == pytest.approx(2 * g.L, abs=0)
        assert g.freqs.shape == (64,)
        # antisymmetric about zero except the unmatched -M/2 entry
        f = g.freqs
        for p in range(1, 32):
            assert f[p] == pytest.approx(-f[-p], abs=0)
        assert f[32] == pytest.approx(-32 * np.pi / 16.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            Grid(1, 8.0, 63)
        with pytest.raises(ValueError, match="even"):
            Grid(1, 8.0, 2)
        with pytest.raises(ValueError, match="dimension"):
            Grid(4, 8.0, 16)
        with pytest.raises(ValueError, match="positive"):
            Grid(1, -1.0, 16)

    @pytest.mark.parametrize("args,message", [
        ((True, 1.0, 8), "dimension"), ((2.0, 1.0, 8), "dimension"),
        ((1, True, 8), "L"), ((1, "1.0", 8), "L"), ((1, None, 8), "L"),
        ((1, 1.0, 4.0), "M"), ((1, 1.0, "8"), "M"), ((1, 1.0, None), "M"),
    ])
    def test_non_number_refused_by_name(self, args, message):
        # a bool once read as 1, and a string, a float M or None raised a
        # TypeError or numpy's own message
        with pytest.raises(ValueError, match=f"^{message} must be"):
            Grid(*args)

    def test_equality_ignores_cached_arrays(self):
        assert Grid(2, 8.0, 16) == Grid(2, 8.0, 16)
        assert Grid(2, 8.0, 16) != Grid(2, 8.0, 32)


class TestInner:
    def test_normalized_constant(self):
        g = Grid(2, 4.0, 16)
        c = 1.0 / np.sqrt((2 * g.L) ** 2)
        u = WaveField(g, np.full(g.shape, c, dtype=complex))
        assert inner(u, u) == pytest.approx(1.0, abs=1e-14)

    def test_zero_field(self):
        g = Grid(1, 4.0, 16)
        z = WaveField(g, np.zeros(g.shape, complex))
        assert inner(z, z) == 0

    def test_plane_wave_direct_summation(self):
        g = Grid(1, 16.0, 64)
        u = WaveField(g, np.exp(1j * np.pi * g.x1 / g.L) / np.sqrt(2 * g.L))
        # independent direct sum
        expected = g.h * np.sum(np.abs(u.values) ** 2)
        assert inner(u, u).real == pytest.approx(expected, abs=0)
        assert inner(u, u) == pytest.approx(1.0, abs=1e-13)

    def test_grid_mismatch_raises(self):
        u = random_field(Grid(1, 4.0, 16))
        v = random_field(Grid(1, 4.0, 32))
        with pytest.raises(ValueError, match="different grids"):
            inner(u, v)

    def test_parseval(self):
        for d in (1, 2):
            for m in (16, 32, 64):
                g = Grid(d, 5.0, m)
                u = random_field(g, seed=m + d)
                v = random_field(g, seed=m + d + 100)
                direct = inner(u, v)
                u_hat, v_hat = np.fft.fftn(u.values), np.fft.fftn(v.values)
                viahat = g.cell_volume / g.size * np.vdot(u_hat, v_hat)
                assert abs(direct - viahat) <= 1e-12 * abs(direct)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 64), (2, 16), (3, 8)]), st.integers(0, 2**32 - 1), st.floats(0.5, 20.0))
def test_grid_fft_parseval(shape, seed, half_width):
    # h^d vdot(u, v) = h^d / N vdot(fft u, fft v), and ifft inverts fft
    d, m = shape
    g = Grid(d, half_width, m)
    rng = np.random.default_rng(seed)
    u, v = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape) for _ in range(2))
    u_hat, v_hat = g.spectrum(False).fft(u), g.spectrum(False).fft(v)
    direct = g.cell_volume * np.vdot(u, v)
    via_hat = g.cell_volume / g.size * np.vdot(u_hat, v_hat)
    scale = g.cell_volume * np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(direct - via_hat) <= 1e-13 * scale
    assert np.max(np.abs(g.spectrum(False).ifft(u_hat) - u)) <= 1e-14 * np.max(np.abs(u)) * m


class TestLaplacian:
    def test_constant_annihilated(self):
        g = Grid(1, 8.0, 32)
        u = WaveField(g, np.ones(32, dtype=complex))
        assert np.max(np.abs(apply_laplacian(u).values)) < 1e-13

    def test_fourier_eigenfunction(self):
        g = Grid(1, 16.0, 64)
        xi1 = np.pi / g.L
        u = WaveField(g, np.exp(1j * xi1 * (g.x1 + g.L)))
        out = apply_laplacian(u)
        assert np.max(np.abs(out.values + xi1**2 * u.values)) < 1e-12

    def test_dense_matrix_oracle(self):
        g = Grid(1, 16.0, 32)
        u = random_field(g, seed=3)
        d2 = second_derivative_matrix(32, 16.0)
        expected = d2 @ u.values
        got = apply_laplacian(u).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_hermitian_negative_semidefinite(self):
        g = Grid(2, 6.0, 24)
        u = random_field(g, 1)
        v = random_field(g, 2)
        lu = apply_laplacian(u)
        lv = apply_laplacian(v)
        s = max(norm(u), norm(v)) ** 2
        assert abs(inner(u, lv).real - inner(lu, v).real) <= 1e-12 * s
        assert inner(u, lu).real <= 1e-12 * norm(u) ** 2

    def test_fft_roundtrip(self):
        g = Grid(2, 6.0, 32)
        u = random_field(g, 9)
        back = g.spectrum(False).ifft(g.spectrum(False).fft(u.values))
        assert np.max(np.abs(back - u.values)) <= 1e-13 * np.max(np.abs(u.values))


class TestLz:
    def test_radial_function_annihilated(self):
        g = Grid(2, 8.0, 64)
        r2 = g.coordinate(0) ** 2 + g.coordinate(1) ** 2
        u = WaveField(g, np.exp(-r2 / 2).astype(complex))
        assert norm(apply_lz(u)) <= 1e-10

    def test_unit_vortex_eigenfunction(self):
        g = Grid(2, 8.0, 64)
        x, y = g.coordinate(0), g.coordinate(1)
        u = WaveField(g, (x + 1j * y) * np.exp(-(x**2 + y**2) / 2))
        out = apply_lz(u)
        rel = norm(WaveField(g, out.values - u.values)) / norm(u)
        assert rel <= 1e-8

    def test_dense_assembly_oracle(self):
        g = Grid(2, 4.0, 16)
        u = random_field(g, 12)
        lz_mat = dense_lz_matrix(16, 4.0)
        expected = (lz_mat @ u.values.ravel()).reshape(g.shape)
        got = apply_lz(u).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_hermitian(self):
        g = Grid(2, 5.0, 24)
        u = random_field(g, 4)
        v = random_field(g, 5)
        a = inner(u, apply_lz(v)).real
        b = inner(apply_lz(u), v).real
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0) * norm(u) * norm(v)

    def test_dimension_error(self):
        g = Grid(1, 4.0, 16)
        with pytest.raises(ValueError, match="d >= 2"):
            apply_lz(random_field(g))

    def test_matches_plain_oracle(self):
        g = Grid(2, 5.0, 32)
        u = random_field(g, 8)
        a = apply_lz(u, omega=1.3).values
        b = lz_plain(g, np.fft.fftn(u.values))
        assert np.max(np.abs(a - b)) <= 1e-11 * np.max(np.abs(a))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 8), (2, 16), (2, 32), (3, 8), (3, 12)]), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0), st.floats(0.5, 20.0))
def test_rotating_linear_matches_full_transforms(shape, seed, omega, half_width):
    # the one-axis operator equals -Lap/2 - omega Lz from full transforms,
    # completes the full transform, leaves its input alone and is Hermitian
    d, m = shape
    g = Grid(d, half_width, m)
    rng = np.random.default_rng(seed)
    u, v = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape) for _ in range(2))
    before = u.copy()
    u_hat = g.spectrum(False).fft(u)
    expected = kinetic_plain(g, u_hat) - omega * lz_plain(g, u_hat)
    hu, hat = spectral.rotating_linear(g, omega, u, hat=True)
    assert np.max(np.abs(hu - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.max(np.abs(hat - u_hat)) <= 1e-13 * np.max(np.abs(u_hat))
    assert np.array_equal(u, before)
    hv, none = spectral.rotating_linear(g, omega, v)
    assert none is None

    def dot(a, b):
        return g.cell_volume * np.vdot(a, b)

    scale = g.cell_volume * (np.linalg.norm(u) * np.linalg.norm(hv)
                             + np.linalg.norm(hu) * np.linalg.norm(v))
    assert abs(dot(u, hv) - dot(hu, v)) <= 1e-13 * scale


@pytest.mark.parametrize("d,omega", [(1, 0.0), (2, 0.0), (2, 0.7), (3, -0.4)])
@pytest.mark.parametrize("hat", [False, True])
def test_spectrum_linear_is_the_one_linear_part(d, omega, hat):
    # Spectrum.linear is the kinetic image of the transform without
    # rotation and the one-axis operator with it, bit for bit, charged 2
    # units and 1 more where the rotating passes complete the transform;
    # only they return it
    g = Grid(d, 5.0, {1: 32, 2: 16, 3: 8}[d])
    u = random_field(g, d).values
    before = u.copy()
    counter = spectral.FFTCounter()
    out, u_hat = g.spectrum(False).linear(u, omega, counter, hat=hat)
    rotating = omega != 0.0
    if not rotating:
        assert np.array_equal(out, g.spectrum(False).kinetic_image(g.spectrum(False).fft(u)))
        assert counter.count == 2
    else:
        assert np.array_equal(out, spectral.rotating_linear(g, omega, u)[0])
        assert counter.count == 2 + hat
    assert (u_hat is None) == (not (hat and rotating))
    if u_hat is not None:
        assert np.max(np.abs(u_hat - g.spectrum(False).fft(u))) <= 1e-13 * np.max(np.abs(u_hat))
    assert np.array_equal(u, before)


def test_rotating_linear_requires_two_dimensions():
    g = Grid(1, 4.0, 16)
    with pytest.raises(ValueError, match="d >= 2"):
        spectral.rotating_linear(g, 0.5, random_field(g).values)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 8), (1, 32), (2, 8), (2, 16)]), st.integers(1, 16),
       st.integers(0, 2**32 - 1), st.floats(0.5, 20.0))
def test_interpolate_then_truncate_returns_input(shape, extra, seed, half_width):
    # zero padding onto a finer grid and cutting back to the coarse modes
    # (folding the split Nyquist modes together) is the identity on unit
    # fields, once the renormalization of the finer field is undone
    d, m = shape
    g = Grid(d, half_width, m)
    u = random_field(g, seed).normalized()
    fine = spectral_interpolate(u, Grid(d, half_width, m + 2 * extra))
    back = WaveField(g, truncate_spectrum(fine.values, m)).normalized()
    assert np.max(np.abs(back.values - u.values)) <= 1e-13 * np.max(np.abs(u.values))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.booleans())
def test_1d_transforms_equal_nd_numpy(half_m, seed, real):
    # in 1D Spectrum.fft/ifft call numpy's 1D transforms, not the n-D wrapper
    g = Grid(1, 4.0, 2 * half_m)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(g.shape)
    if not real:
        a = a + 1j * rng.standard_normal(g.shape)
    assert g.spectrum(False).fft(a).tobytes() == np.fft.fftn(a).tobytes()
    assert g.spectrum(False).ifft(a).tobytes() == np.fft.ifftn(a).tobytes()
    out = a.astype(np.complex128)
    assert g.spectrum(False).fft(out, out=out) is out and out.tobytes() == np.fft.fftn(a).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 2048), st.integers(0, 2**32 - 1), st.booleans())
def test_1d_spectra_equal_numpy_fft(half_m, seed, real):
    # the 1D spectra call pocketfft's gufuncs, numpy.fft's 1D functions
    # without their wrapper: the same bits, fresh with the input left alone
    # and, for a full spectrum, in place
    m = 2 * half_m
    g = Grid(1, 4.0, m)
    full, half = g.spectrum(False), g.spectrum(True)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(m)
    if not real:
        a = a + 1j * rng.standard_normal(m)
    x = rng.standard_normal(m)  # the real field of a half spectrum
    modes = np.ascontiguousarray(a[: half_m + 1])  # a half spectrum, M/2+1 modes
    cases = [("fft", full.fft, a, np.fft.fft(a)), ("ifft", full.ifft, a, np.fft.ifft(a)),
             ("rfft", half.fft, x, np.fft.rfft(x)),
             ("irfft", half.ifft, modes, np.fft.irfft(modes, n=m))]
    for name, op, arg, want in cases:
        before = arg.copy()
        got = op(arg)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert arg.tobytes() == before.tobytes() and not np.shares_memory(got, arg), name
    for name, op, want in (("fft", full.fft, np.fft.fft(a)), ("ifft", full.ifft, np.fft.ifft(a))):
        arg = a.astype(np.complex128)
        assert op(arg, out=arg) is arg and arg.tobytes() == want.tobytes(), name


def test_numpy_has_the_1d_gufuncs(monkeypatch):
    # the gufuncs the 1D spectra call, by name and signature: a numpy that
    # moves or reshapes them fails here, and importing spectral without one
    # names it
    from numpy.fft import _pocketfft_umath as umath
    for name, signature in (("fft", "(n),()->(m)"), ("ifft", "(m),()->(n)"),
                            ("rfft_n_even", "(n),()->(m)"), ("irfft", "(m),()->(n)")):
        assert isinstance(getattr(umath, name, None), np.ufunc), name
        assert getattr(umath, name).signature == signature, name
    monkeypatch.delattr(umath, "rfft_n_even")
    with pytest.raises(ImportError, match=rf"'rfft_n_even'.*\(numpy {np.__version__}\)$"):
        runpy.run_path(spectral.__file__)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 64), (1, 6), (2, 16), (3, 8)]), st.integers(0, 2**32 - 1),
       st.floats(0.5, 20.0))
def test_half_spectrum_transforms(shape, seed, half_width):
    # for real x: rfft is the first M/2+1 last-axis modes of fft, irfft
    # inverts it, and a half-spectrum Parseval sum that counts the interior
    # modes of the last axis twice equals the full one
    d, m = shape
    g = Grid(d, half_width, m)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    before = x.copy()
    counter = spectral.FFTCounter()
    half = g.spectrum(True)
    x_half, y_half = half.fft(x, counter), half.fft(y)
    assert x_half.shape == g.shape[:-1] + (m // 2 + 1,) and np.array_equal(x, before)
    full = g.spectrum(False).fft(x)
    assert np.max(np.abs(x_half - full[..., : m // 2 + 1])) <= 1e-13 * np.max(np.abs(full))
    half_before = x_half.copy()
    back = half.ifft(x_half, counter)
    assert back.dtype == np.float64 and back.shape == g.shape
    assert np.array_equal(x_half, half_before)
    assert np.max(np.abs(back - x)) <= 1e-14 * np.max(np.abs(x)) * m
    assert counter.count == 2
    weights = np.full(x_half.shape, 2.0)
    weights[..., [0, -1]] = 1.0
    via_half = g.cell_volume / g.size * np.sum(weights * (np.conj(x_half) * y_half).real)
    via_full = g.cell_volume / g.size * np.vdot(full, g.spectrum(False).fft(y)).real
    direct = g.cell_volume * np.dot(x.ravel(), y.ravel())
    scale = g.cell_volume * np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(via_half - via_full) <= 1e-13 * scale
    assert abs(via_half - direct) <= 1e-13 * scale
    # the kinetic image of a real field from its half spectrum
    kin, exact = g.spectrum(True).kinetic_image(x_half), kinetic_plain(g, full)
    assert kin.dtype == np.float64
    assert np.max(np.abs(kin - exact)) <= 1e-13 * np.max(np.abs(exact)) * m
    assert np.array_equal(g.spectrum(True).half_k2, g.half_k2[..., : m // 2 + 1])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 64), (1, 6), (2, 16), (3, 8)]), st.integers(0, 2**32 - 1),
       st.floats(0.5, 20.0))
def test_spectrum_sums_of_both_formats(shape, seed, half_width):
    # on real x and y, the Parseval sums of Grid.spectrum's two formats (the
    # half one counting each interior mode of the last axis twice) equal the
    # real-space sums; each format's transforms are the grid's
    d, m = shape
    g = Grid(d, half_width, m)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(g.shape), rng.standard_normal(g.shape)
    full, half = g.spectrum(False), g.spectrum(True)
    assert half is g.spectrum(True) and full is g.spectrum(False)
    assert np.array_equal(half.half_k2, g.half_k2[..., : m // 2 + 1]) and full.half_k2 is g.half_k2
    kin_x, kin_y = (kinetic_plain(g, g.spectrum(False).fft(a)).real for a in (x, y))
    hd = g.cell_volume
    exact = {"dot": hd * np.dot(x.ravel(), y.ravel()), "norm": np.sqrt(hd) * np.linalg.norm(x),
             "kinetic": hd * np.dot(x.ravel(), kin_x.ravel()),
             "kinetic_xy": hd * np.dot(x.ravel(), kin_y.ravel())}
    scale = hd * np.linalg.norm(x) * np.linalg.norm(y) * (1.0 + np.max(g.half_k2))
    for spec, fft in ((full, g.spectrum(False).fft), (half, np.fft.rfftn)):
        x_hat, y_hat = spec.fft(x), spec.fft(y)
        assert np.array_equal(x_hat, fft(x))
        sums = {"dot": spec.dot(x_hat, y_hat), "norm": spec.norm(x_hat),
                "kinetic": spec.kinetic(x_hat), "kinetic_xy": spec.kinetic(x_hat, y_hat)}
        for name, value in sums.items():
            assert abs(value - exact[name]) <= 1e-13 * scale, (spec, name)
        kin = spec.kinetic_image(x_hat)
        assert kin.dtype == (np.float64 if spec is half else np.complex128)
        assert np.max(np.abs(kin - kin_x)) <= 1e-13 * np.max(np.abs(kin_x)) * m
        assert np.max(np.abs(spec.ifft(x_hat) - x)) <= 1e-14 * np.max(np.abs(x)) * m


class TestTransforms:
    """Each transform writes into a fresh output array: the result equals
    plain numpy.fft bit for bit and the input is left alone."""

    CASES = [(d, real) for d in (1, 2, 3) for real in (True, False)]

    @staticmethod
    def operators(g):
        full = g.spectrum(False)
        return [("fft", full.fft, fft_plain), ("ifft", full.ifft, ifft_plain),
                ("kinetic", lambda a: full.kinetic_image(a),
                 lambda a: kinetic_plain(g, a))]

    @pytest.mark.parametrize("d,real", CASES)
    def test_matches_plain_numpy_and_keeps_input(self, d, real):
        g = Grid(d, 5.0, {1: 64, 2: 16, 3: 8}[d])
        rng = np.random.default_rng(d)
        a = rng.standard_normal(g.shape)
        if not real:
            a = a + 1j * rng.standard_normal(g.shape)
        before = a.copy()
        for name, op, plain in self.operators(g):
            out = op(a)
            assert out.dtype == np.complex128 and out.shape == g.shape, name
            assert np.array_equal(out, plain(a)), name
            assert np.array_equal(a, before), name
            assert not np.shares_memory(out, a), name

    def test_kinetic_charges_one_unit(self):
        g = Grid(2, 5.0, 16)
        counter = spectral.FFTCounter()
        g.spectrum(False).kinetic_image(g.spectrum(False).fft(random_field(g).values), counter)
        assert counter.count == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(1, 4), (1, 16), (1, 64), (2, 4), (2, 8), (2, 16), (3, 4), (3, 8)]),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_multiplier_is_ifft_of_symbol_times_fft(shape, seed, half, complex_values, in_place):
    # multiplier(x, s) is the spectrum's own ifft(s * fft(x)) bit for bit,
    # for 2 units, into a fresh array or into x itself; a half spectrum
    # takes float64 values, a full one float64 or complex128 (in place
    # only complex128, the dtype of its result)
    d, m = shape
    g = Grid(d, 3.0, m)
    spec = g.spectrum(half)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.shape)
    if complex_values and not half:
        x = x + 1j * rng.standard_normal(g.shape)
    symbol = rng.standard_normal(spec.half_k2.shape)
    want = spec.ifft(symbol * spec.fft(x))
    in_place = in_place and x.dtype == want.dtype
    before = x.copy()
    counter = spectral.FFTCounter()
    got = spec.multiplier(x, symbol, counter, out=x if in_place else None)
    assert counter.count == 2
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if in_place:
        assert got is x
    else:
        assert x.tobytes() == before.tobytes() and not np.shares_memory(got, x)


class TestInterpolation:
    def test_same_grid_is_normalization(self):
        g = Grid(1, 8.0, 32)
        u = random_field(g, 2)
        out = spectral_interpolate(u, g)
        expected = u.values / norm(u)
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_single_mode_exact(self):
        g = Grid(1, 8.0, 32)
        g2 = Grid(1, 8.0, 64)
        mode = np.exp(1j * 3 * np.pi / 8.0 * (g.x1 + 8.0))
        u = WaveField(g, mode / norm(WaveField(g, mode)))
        out = spectral_interpolate(u, g2)
        exact = np.exp(1j * 3 * np.pi / 8.0 * (g2.x1 + 8.0))
        exact = exact / np.sqrt(g2.h * np.sum(np.abs(exact) ** 2))
        assert np.max(np.abs(out.values - exact)) <= 1e-12

    def test_direct_trig_summation_oracle(self):
        g = Grid(1, 6.0, 32)
        g2 = Grid(1, 6.0, 96)
        u = random_field(g, 11).normalized()
        out = spectral_interpolate(u, g2)
        expected = trig_interpolant(u.values, 6.0, g2.x1)
        expected = expected / np.sqrt(g2.h * np.sum(np.abs(expected) ** 2))
        assert np.max(np.abs(out.values - expected)) <= 1e-10

    def test_real_input_stays_real(self):
        g = Grid(2, 4.0, 16)
        rng = np.random.default_rng(0)
        u = WaveField(g, rng.standard_normal(g.shape).astype(complex))
        out = spectral_interpolate(u, Grid(2, 4.0, 32))
        assert np.max(np.abs(out.values.imag)) < 1e-13

    def test_rejects_mismatched_domain(self):
        u = random_field(Grid(1, 8.0, 32))
        with pytest.raises(ValueError, match="dimension and half-width"):
            spectral_interpolate(u, Grid(1, 4.0, 64))
        with pytest.raises(ValueError, match="at least as fine"):
            spectral_interpolate(u, Grid(1, 8.0, 16))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 8), (1, 64), (2, 8), (2, 16), (3, 4), (3, 8)]), st.integers(1, 32),
       st.integers(0, 2**32 - 1), st.floats(0.5, 20.0))
def test_real_interpolation_matches_the_complex_one(shape, extra, seed, half_width):
    # a float64 field is padded on its half spectrum, and stays float64 (it
    # once came back complex128 with imaginary parts of about 6e-17, which
    # put every later multigrid level on the complex path); its complex128
    # copy is padded on the full spectrum
    d, m = shape
    g = Grid(d, half_width, m)
    u = WaveField(g, np.random.default_rng(seed).standard_normal(g.shape))
    target = Grid(d, half_width, m + 2 * extra)
    real = spectral_interpolate(u, target).values
    full = spectral_interpolate(WaveField(g, u.values.astype(np.complex128)), target).values
    assert real.dtype == np.float64 and full.dtype == np.complex128
    # transform roundoff: eps log2(N) relative, 1.6e-15 for 128 points
    tol = np.finfo(float).eps * np.log2(target.size)
    assert np.max(np.abs(real - full)) <= tol * np.max(np.abs(full))


def test_grid_holds_its_spectra(monkeypatch):
    # each grid builds its half spectrum once, whoever asks and however often
    built = []
    init = spectral.HalfSpectrum.__init__
    monkeypatch.setattr(spectral.HalfSpectrum, "__init__",
                        lambda self, grid: built.append(grid) or init(self, grid))
    g = Grid(1, 16.0, 128)
    params = ModelParams(eta=250.0, potential=harmonic_lattice(1.0, 25.0, np.pi / 2))
    phi = WaveField(g, np.exp(-g.x1**2)).normalized()
    for _ in range(10):
        evaluate(phi, params)
    classic.imaginary_time_step(phi, classic.SchemeKind("be", 0.01), params, "identity")
    assert built == [g]
    assert g.spectrum(True) is g.spectrum(True) and g.spectrum(False) is g.spectrum(False)
    assert g.spectrum(False) is not g.spectrum(True) and built == [g]


LAYOUTS = ("contiguous", "strided", "column", "transposed")


@st.composite
def real_rep_arrays(draw, dtype=None):
    """Two float64 or two complex128 arrays of one 1-3D shape, each laid out
    C-contiguous, strided along its first axis, as a column of a larger
    array (evecs[:, 0]) or transposed."""
    shape = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    dtype = dtype or draw(st.sampled_from([np.float64, np.complex128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_array():
        layout = draw(st.sampled_from(LAYOUTS))
        big = {"strided": (2 * shape[0],) + shape[1:], "column": shape + (3,),
               "transposed": shape[::-1]}.get(layout, shape)
        a = rng.standard_normal(big)
        if dtype is np.complex128:
            a = a + 1j * rng.standard_normal(big)
        if layout == "strided":
            a = a[::2]
        elif layout == "column":
            a = a[..., 1]
        elif layout == "transposed":
            a = a.T
        return a

    return draw_array(), draw_array()


@settings(max_examples=150, deadline=None)
@given(real_rep_arrays())
def test_rdot_and_l2_norm_are_the_real_inner_product_and_norm(pair):
    # Re<a, b> and ||a|| on any layout, and the norm the square root of the
    # inner product bit for bit
    a, b = pair
    a0, b0 = a.copy(), b.copy()
    got = spectral.rdot(a, b)
    assert type(got) is float and type(spectral.l2_norm(a)) is float
    assert abs(got - np.vdot(a, b).real) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)
    assert spectral.l2_norm(a) == math.sqrt(spectral.rdot(a, a))
    assert spectral.l2_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-14)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


@settings(max_examples=100, deadline=None)
@given(real_rep_arrays(np.float64))
def test_rdot_of_float64_is_ndarray_dot(pair):
    # bit for bit ndarray.dot: of a 1D pair as it is, strided or not (BLAS
    # sums a strided pair in another order than its contiguous copy), and
    # of the flat arrays otherwise
    a, b = pair
    assert spectral.rdot(a, b) == (a.dot(b) if a.ndim == 1 else a.ravel().dot(b.ravel()))


def test_rdot_refuses_mixed_and_other_dtypes():
    # one dtype rule: a caller with a float64 and a complex128 array
    # promotes first (model.evaluate reads a real phi as complex under
    # rotation); the norm sums any other dtype in float64 or complex128
    x = np.arange(1.0, 7.0)
    for a, b in [(x, x + 0j), (x + 0j, x), (x.astype(np.float32),) * 2,
                 (x.astype(np.complex64),) * 2, (x.astype(int),) * 2]:
        with pytest.raises(TypeError, match=f"got {a.dtype} and {b.dtype}$"):
            spectral.rdot(a, b)
    for a in (x.astype(np.float32), x.astype(int), (x + 2j).astype(np.complex64)):
        wide = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64)
        assert spectral.l2_norm(a) == spectral.l2_norm(wide)


class TestWaveField:
    def test_shape_validation(self):
        g = Grid(2, 4.0, 16)
        with pytest.raises(ValueError, match="shape"):
            WaveField(g, np.zeros((16, 8), dtype=complex))

    def test_normalized_flag(self):
        g = Grid(1, 4.0, 16)
        u = random_field(g).normalized()
        assert abs(g.cell_volume * np.sum(np.abs(u.values) ** 2) - 1.0) <= 1e-13
        assert abs(norm(u) - 1.0) <= 1e-13
