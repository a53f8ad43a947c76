"""Periodic grid, Fourier transforms, and matrix-free differential operators.

The domain is the square box [-L, L]^d with periodic boundary conditions,
sampled on M uniform points per axis (x_k = -L + k*h, h = 2L/M).  Transforms
follow the unscaled-forward / (1/M per axis)-inverse convention, so the
discrete Fourier frequencies are xi_p = p*pi/L for p = -M/2 .. M/2-1 in
standard FFT ordering.  This module is the only one that transforms: the
full transforms of complex fields are Spectrum's and the half-spectrum ones
of real fields HalfSpectrum's, Grid.spectrum is the one place a caller
chooses between them, and rotating_linear runs the one-axis passes.  A
spectrum's multiplier is ifft(symbol fft(x)) in one call: the Fourier
diagonal of a preconditioner applied to grid values, and -Lap/2 x where no
caller needs the transform of x.  The 1D transforms call the pocketfft
gufuncs of numpy.fft._pocketfft_umath, which numpy's 1D functions wrap,
with the factors those pass: the same bits without the wrapper's Python
frames, about 6 us a call, half the time of an rfft at M = 128 (README,
"Transform budget").  The n-D transforms and the one-axis passes call
numpy.fft, whose wrapper costs under 1% of a 256^2 pass.
The real representation of a grid array is its flat float64 view, real
and imaginary parts interleaved: every real inner product Re<a, b> of the
package is rdot, one dot of those views, and every norm l2_norm.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

_F64, _C128 = np.dtype(np.float64), np.dtype(np.complex128)

try:
    # the 1D transforms numpy.fft.fft, ifft, rfft (of an even number of
    # points) and irfft wrap
    from numpy.fft._pocketfft_umath import (fft as _FFT, ifft as _IFFT, irfft as _IRFFT,
                                            rfft_n_even as _RFFT)
except ImportError as err:
    raise ImportError(f"gpesolve.spectral calls numpy's pocketfft gufuncs: {err} "
                      f"(numpy {np.__version__})") from err


class FFTCounter:
    """Tracks the spectral-transform budget of a solver run, in the units of
    the optimizers' cost model (the per-iteration budget of criterion 12).

    Spectrum.fft and Spectrum.ifft charge one unit per full d-dimensional
    transform, and so do HalfSpectrum.fft and HalfSpectrum.ifft, their
    half-spectrum forms for a real field, though they do about half the
    work.  multiplier, of either spectrum, charges the two units of the
    forward and inverse transform it runs (the preconditioners on grid
    values, and -Lap/2 without rotation).  The count is taken in those
    methods, not in what they call, so it counts the 1D transforms
    (pocketfft gufuncs) and the n-D ones (numpy.fft) alike.  The one-axis
    passes of rotating_linear charge nothing themselves: its callers
    charge the units of the full-transform images they stand for, one for
    -Lap/2, one for Lz and one for a completed forward transform.  So the
    units stay comparable across implementations while the real work
    differs: a rotating 2D iteration runs 5 (identity, potential) to 9
    (sym, c1) one-axis passes for its 3 to 5 units.  Every charge is
    spelled `counter.count += n`.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


def is_number(x, abc: type = numbers.Real) -> bool:
    """Whether x is an instance of the numbers ABC and not a bool (True is
    an Integral, and would read as 1).  An int, or a float for Real, skips
    the ABC check."""
    if type(x) is int or (type(x) is float and abc is numbers.Real):
        return True
    return isinstance(x, abc) and not isinstance(x, bool)


def check_points(m: int) -> None:
    """Raise ValueError unless m is a valid number of grid points per axis."""
    if not (is_number(m, numbers.Integral) and m >= 4 and m % 2 == 0):
        raise ValueError(f"M must be an even integer >= 4, got {m!r}")


@dataclass(frozen=True)
class Grid:
    """Isotropic periodic grid on [-L, L]^d.

    Attributes:
        d: Spatial dimension (1, 2 or 3).
        L: Domain half-width.
        M: Grid points per axis (even, >= 4).
        h: Mesh size 2L/M.
        x1: 1-D coordinate samples, x_k = -L + k*h.
        freqs: 1-D Fourier frequencies p*pi/L in FFT ordering.
        half_k2: |xi|^2/2 on the grid (the kinetic symbol).

    The grid takes no transform itself: spectrum(real) gives the object
    that takes them, the half spectra of real grid arrays or the full ones
    of complex arrays.
    """

    d: int
    L: float
    M: int
    h: float = field(init=False, compare=False)
    x1: np.ndarray = field(init=False, compare=False, repr=False)
    freqs: np.ndarray = field(init=False, compare=False, repr=False)
    half_k2: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (is_number(self.d, numbers.Integral) and self.d in (1, 2, 3)):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d!r}")
        check_points(self.M)
        if not (is_number(self.L) and math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be finite and positive, got {self.L!r}")
        object.__setattr__(self, "L", float(self.L))
        h = 2.0 * self.L / self.M
        x1 = -self.L + h * np.arange(self.M)
        # integer frequencies [0 .. M/2-1, -M/2 .. -1] scaled by pi/L
        freqs = np.fft.fftfreq(self.M, d=1.0 / self.M) * (np.pi / self.L)
        k2 = np.zeros((self.M,) * self.d)
        for ax in range(self.d):
            shape = [1] * self.d
            shape[ax] = self.M
            k2 = k2 + freqs.reshape(shape) ** 2
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "half_k2", 0.5 * k2)

    def spectrum(self, real: bool) -> "Spectrum":
        """The half spectra of real grid arrays when `real`, else the full
        ones of complex arrays: one of each per grid, built on first use and
        held for the grid's lifetime."""
        return self._half_spectrum if real else self._full_spectrum

    @functools.cached_property
    def _full_spectrum(self) -> "Spectrum":
        return Spectrum(self)

    @functools.cached_property
    def _half_spectrum(self) -> "HalfSpectrum":
        return HalfSpectrum(self)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.M,) * self.d

    @property
    def size(self) -> int:
        return self.M**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def coordinate(self, axis: int) -> np.ndarray:
        """Coordinate values along `axis`, broadcastable to the grid shape."""
        shape = [1] * self.d
        shape[axis] = self.M
        return self.x1.reshape(shape)


class Spectrum:
    """Full spectra of complex grid arrays (HalfSpectrum: of real ones).

    fft and ifft are the full d-dimensional transforms, one unit each
    (FFTCounter).  They take grid arrays and return complex grid arrays,
    written through `out=`, fresh unless the caller passes a complex128
    one (the input itself for an in-place transform), which lets numpy run
    its passes after the first in place; the result is the same bit for
    bit.  An `out=` of any other dtype is treated as absent, as
    HalfSpectrum does, so a float64 input may name itself.  In 1D
    they call the pocketfft gufuncs (the module docstring) with numpy's
    factors, 1 forward and inv_m = 1/M inverse: numpy.fft's bits without
    its wrapper.  multiplier runs a symbol between the two transforms in
    one call, 2 units.  half_k2 is the kinetic symbol.  The Parseval sums
    take the images of grid arrays a and b: dot is Re<a, b>, norm ||a||
    and kinetic Re<a, -Lap/2 b>, b = a when not given."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.half_k2 = grid.half_k2
        self.scale = grid.cell_volume / grid.size  # Parseval factor
        self.inv_m = 1.0 / grid.M

    def fft(self, values: np.ndarray, counter: FFTCounter | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
        if counter is not None:
            counter.count += 1
        g = self.grid
        if out is None or out.dtype != _C128:
            out = np.empty(g.shape, np.complex128)
        if g.d == 1:
            return _FFT(values, 1.0, out=out)
        return np.fft.fftn(values, out=out)

    def ifft(self, values_hat: np.ndarray, counter: FFTCounter | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
        if counter is not None:
            counter.count += 1
        g = self.grid
        if out is None or out.dtype != _C128:
            out = np.empty(g.shape, np.complex128)
        if g.d == 1:
            return _IFFT(values_hat, self.inv_m, out=out)
        return np.fft.ifftn(values_hat, out=out)

    def multiplier(self, x: np.ndarray, symbol: np.ndarray, counter: FFTCounter | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
        """ifft(symbol fft(x)) for grid values x and a symbol on the
        spectrum, 2 units: fft and ifft's bits from one call.  The forward
        transform is written into `out=` (x itself for an in-place
        multiplier), else into a fresh array, and the rest runs in place
        there; in 1D on the pocketfft gufuncs, as fft and ifft."""
        if counter is not None:
            counter.count += 2
        g = self.grid
        if out is None or out.dtype != _C128:
            out = np.empty(g.shape, np.complex128)
        if g.d == 1:
            x_hat = _FFT(x, 1.0, out=out)
            x_hat *= symbol
            return _IFFT(x_hat, self.inv_m, out=x_hat)
        x_hat = np.fft.fftn(x, out=out)
        x_hat *= symbol
        return np.fft.ifftn(x_hat, out=x_hat)

    def kinetic_image(self, a_hat: np.ndarray, counter: FFTCounter | None = None) -> np.ndarray:
        """-Lap/2 a from the transform a_hat at hand: one inverse transform
        of half_k2 a_hat, in place where it fits.  Without the transform,
        multiplier(a, half_k2) forms the same bits."""
        prod = np.multiply(self.half_k2, a_hat, dtype=np.complex128)
        return self.ifft(prod, counter, out=prod)

    def linear(self, x: np.ndarray, omega: float, counter: FFTCounter | None = None,
               hat: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """(-Lap/2 x - omega Lz x, transform of x when `hat`, else None).
        Without rotation: multiplier(x, half_k2), or fft and kinetic_image
        when `hat`, 2 units.  With it the one-axis passes of
        rotating_linear, charged its two images and one unit more when they
        complete the transform."""
        if omega == 0.0:
            if not hat:
                return self.multiplier(x, self.half_k2, counter), None
            x_hat = self.fft(x, counter)
            return self.kinetic_image(x_hat, counter), x_hat
        out, x_hat = rotating_linear(self.grid, omega, x, hat=hat)
        if counter is not None:
            counter.count += 2 + hat
        return out, x_hat

    def dot(self, a_hat: np.ndarray, b_hat: np.ndarray) -> float:
        return self.scale * rdot(a_hat, b_hat)

    def norm(self, a_hat: np.ndarray) -> float:
        return math.sqrt(self.scale) * l2_norm(a_hat)

    def kinetic(self, a_hat: np.ndarray, b_hat: np.ndarray | None = None) -> float:
        return self.scale * rdot(a_hat, self.half_k2 * (a_hat if b_hat is None else b_hat))


class HalfSpectrum(Spectrum):
    """Half spectra of real grid arrays: the M/2+1 non-negative modes of
    the last axis, the rest following by Hermitian symmetry, and half_k2
    the kinetic symbol on them.  fft and ifft override Spectrum's with the
    real transforms, one unit each (FFTCounter), in 1D pocketfft's gufuncs
    as Spectrum's, and multiplier with them.  They return fresh arrays,
    half spectra of half_k2's shape or float64 grid arrays, and ignore
    `out=`: no half spectrum fits a grid array.  A Parseval sum counts
    each interior mode of the last axis twice, for its conjugate partner,
    and the DC and Nyquist modes once: rdot of the float64 views, one of
    them weighted by mode_pairs, or by kin_pairs, those times the kinetic
    symbol (both in the shape of the views)."""

    def __init__(self, grid: Grid) -> None:
        super().__init__(grid)
        self.half_k2 = np.ascontiguousarray(grid.half_k2[..., : grid.M // 2 + 1])
        weights = np.full(self.half_k2.shape, 2.0)
        weights[..., [0, -1]] = 1.0
        self.mode_pairs = np.repeat(weights, 2, axis=-1)
        self.kin_pairs = np.repeat(weights * self.half_k2, 2, axis=-1)

    def fft(self, values: np.ndarray, counter: FFTCounter | None = None, out=None) -> np.ndarray:
        if counter is not None:
            counter.count += 1
        if self.grid.d == 1:
            return _RFFT(values, 1.0, out=np.empty(self.half_k2.shape, np.complex128))
        return np.fft.rfftn(values)

    def ifft(self, values_hat: np.ndarray, counter: FFTCounter | None = None,
             out=None) -> np.ndarray:
        if counter is not None:
            counter.count += 1
        g = self.grid
        if g.d == 1:
            return _IRFFT(values_hat, self.inv_m, out=np.empty(g.M))
        return np.fft.irfftn(values_hat, s=g.shape, axes=tuple(range(g.d)))

    def multiplier(self, x: np.ndarray, symbol: np.ndarray, counter: FFTCounter | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Spectrum.multiplier on half spectra: the half spectrum is a fresh
        temporary, and the float64 result is written into `out=` (x itself
        is fine), else into a fresh array."""
        if counter is not None:
            counter.count += 2
        g = self.grid
        if g.d == 1:
            x_hat = _RFFT(x, 1.0, out=np.empty(self.half_k2.shape, np.complex128))
            x_hat *= symbol
            return _IRFFT(x_hat, self.inv_m, out=np.empty(g.M) if out is None else out)
        x_hat = np.fft.rfftn(x)
        x_hat *= symbol
        return np.fft.irfftn(x_hat, s=g.shape, axes=tuple(range(g.d)), out=out)

    def dot(self, a_hat, b_hat):
        return self.scale * rdot(a_hat.view(_F64) * self.mode_pairs, b_hat.view(_F64))

    def norm(self, a_hat):
        return math.sqrt(self.dot(a_hat, a_hat))

    def kinetic(self, a_hat, b_hat=None):
        return self.scale * rdot(a_hat.view(_F64) * self.kin_pairs,
                                 (a_hat if b_hat is None else b_hat).view(_F64))


@dataclass
class WaveField:
    """Amplitude sampled on a Grid, kept in its given dtype (optim.start_iterate picks a run's)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"field shape {self.values.shape} does not match grid shape "
                             f"{self.grid.shape}")

    def normalized(self) -> "WaveField":
        n = norm(self)
        if n == 0.0:
            raise ValueError("cannot normalize the zero field")
        return WaveField(self.grid, self.values / n)


def check_same_grid(u: WaveField, v: WaveField) -> None:
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")


def inner(u: WaveField, v: WaveField) -> complex:
    """Discrete L2 inner product h^d * sum(conj(u) * v)."""
    check_same_grid(u, v)
    return u.grid.cell_volume * np.vdot(u.values, v.values)


def rdot(a: np.ndarray, b: np.ndarray) -> float:
    """Re<a, b>, unweighted, as a Python float: one BLAS dot of the flat
    float64 views of a and b, both float64 or both complex128 (TypeError
    otherwise: a caller mixing them promotes first).  A 1D float64 pair
    reaches ndarray.dot as it is."""
    t = a.dtype
    if t != b.dtype or (t != _F64 and t != _C128):
        raise TypeError(f"rdot takes two float64 or two complex128 arrays, got {t} and {b.dtype}")
    if t != _F64 or a.ndim != 1:
        a, b = a.ravel().view(_F64), b.ravel().view(_F64)
    return float(a.dot(b))


def l2_norm(a: np.ndarray) -> float:
    """||a||, sqrt(rdot(a, a)) bit for bit without the call to rdot; any
    other dtype is summed in float64 or complex128."""
    if a.dtype != _F64 or a.ndim != 1:
        a = np.asarray(a, np.result_type(a, np.float64)).ravel().view(_F64)
    return math.sqrt(a.dot(a))


def norm(u: WaveField) -> float:
    return math.sqrt(u.grid.cell_volume) * l2_norm(u.values)


@functools.lru_cache(maxsize=8)
def _axis_multipliers(grid: Grid, omega: float) -> tuple[np.ndarray, ...]:
    """Multipliers m_a with -Lap/2 - omega Lz = sum_a ifft_a m_a fft_a.

    The coordinate factor of each rotation term is constant along the axis
    of its derivative: -omega Lz = omega y (-i d_x) - omega x (-i d_y).  So
    m_0 = xi_x^2/2 + omega y xi_x, m_1 = xi_y^2/2 - omega x xi_y and, in 3D,
    m_2 = xi_z^2/2.  First derivatives zero the unmatched -M/2 mode (the
    odd-derivative convention that keeps real fields real); even powers
    keep it.

    One table holds m_0 and m_1.  The grid is the same on every axis, and
    xi^2/2 is even and the first-derivative xi odd under p -> -p mod M (the
    unmatched -M/2 mode maps to itself with xi = 0), so m_1[i, j] =
    m_0[-j mod M, i] exactly.  With row 0 repeated at its end, the table
    read from the last row back to row 1 and transposed is m_1: half the
    memory of two tables.
    """
    m = grid.M
    xi = grid.freqs.reshape((m,) + (1,) * (grid.d - 1))
    xi_first = xi.copy()
    xi_first[m // 2] = 0.0
    table = np.empty((m + 1, m) + (1,) * (grid.d - 2))
    table[:m] = 0.5 * xi ** 2 + omega * grid.coordinate(1) * xi_first
    table[m] = table[0]
    table.setflags(write=False)
    mults = [table[:m], table[m:0:-1].swapaxes(0, 1)]
    if grid.d == 3:
        mults.append(0.5 * grid.freqs.reshape(1, 1, m) ** 2)
    return tuple(mults)


def rotating_linear(grid: Grid, omega: float, values: np.ndarray, hat: bool = False,
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """The linear part -Lap/2 - omega Lz of the rotating Hamiltonian (d >= 2),
    applied one axis at a time: sum_a ifft_a(m_a fft_a values), 2d one-axis
    passes in place of a full forward transform and the three full inverse
    transforms of -Lap/2 and -i(x d_y - y d_x) in Fourier space.

    Returns (image, full transform of values when `hat`, else None); the
    transform completes the first pass, d - 1 passes more.  Charges no unit:
    callers charge the images they form (FFTCounter).
    """
    if grid.d < 2:
        raise ValueError("the rotating operator requires d >= 2")
    mults = _axis_multipliers(grid, float(omega))
    fft, ifft = np.fft.fft, np.fft.ifft  # looked up per call, so a patch sees every pass
    first = fft(values, axis=0)
    out = np.multiply(mults[0], first, out=None if hat else first)
    ifft(out, axis=0, out=out)
    for ax in range(1, grid.d):
        part = fft(values, axis=ax)
        part *= mults[ax]
        out += ifft(part, axis=ax, out=part)
    if not hat:
        return out, None
    for ax in range(1, grid.d):
        fft(first, axis=ax, out=first)
    return out, first


def _pad_modes(a_hat: np.ndarray, axis: int, m2: int, half: bool) -> np.ndarray:
    """The modes of a_hat along `axis` (in FFT order, M of them, or the
    M/2 + 1 non-negative ones of a half spectrum when `half`) placed on m2 > M
    modes, the rest zero.  The unmatched -M/2 mode is split evenly between
    the +/- M/2 modes; a half spectrum keeps only +M/2, whose conjugate
    partner the inverse real transform supplies."""
    m = 2 * (a_hat.shape[axis] - 1) if half else a_hat.shape[axis]
    shape = list(a_hat.shape)
    shape[axis] = m2 // 2 + 1 if half else m2
    out = np.zeros(shape, dtype=np.complex128)

    def at(index):
        return (slice(None),) * axis + (index,)

    out[at(slice(0, m // 2))] = a_hat[at(slice(0, m // 2))]
    nyquist = 0.5 * a_hat[at(m // 2)]
    out[at(m // 2)] = nyquist
    if not half:
        out[at(m2 - m // 2)] += nyquist
        out[at(slice(m2 - m // 2 + 1, None))] = a_hat[at(slice(m // 2 + 1, None))]
    return out


def spectral_interpolate(phi: WaveField, target: Grid) -> WaveField:
    """Zero-padding Fourier interpolation onto a finer grid, then renormalize.

    The unmatched -M/2 mode of the coarse grid is split evenly between the
    +/- M/2 modes of the fine grid, which keeps real fields real.  A float64
    field is padded on its half spectrum (HalfSpectrum) and stays float64;
    any other is padded on its full spectrum and comes back complex128.  The
    result has unit discrete norm.
    """
    g = phi.grid
    if target.d != g.d or target.L != g.L:
        raise ValueError("target grid must share dimension and half-width")
    if target.M < g.M:
        raise ValueError("target grid must be at least as fine")
    if target.M == g.M:
        return phi.normalized()
    real = phi.values.dtype == np.float64
    hat = g.spectrum(real).fft(phi.values)
    for ax in range(g.d):
        hat = _pad_modes(hat, ax, target.M, half=real and ax == g.d - 1)
    values = target.spectrum(real).ifft(hat)
    values *= (target.M / g.M) ** g.d
    return WaveField(target, values).normalized()
