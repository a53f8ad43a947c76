"""Energy functional, mean-field Hamiltonian, trap potentials and initial data.

The energy of a normalized field phi is

    E(phi) = int [ 1/2 |grad phi|^2 + V |phi|^2 + eta/2 |phi|^4
                   - omega * conj(phi) Lz phi ],

with mean-field Hamiltonian H_phi = -1/2 Laplacian + V + eta |phi|^2
- omega Lz, gradient grad E = 2 H_phi phi, chemical potential
lambda = <H_phi phi, phi> and half Hessian x -> H_phi x + eta (|phi|^2 x
+ phi^2 conj(x)).  `frozen_hamiltonian` is the one H and `half_hessian`
the one Hessian; `evaluate` is the one evaluation of an iterate (energy,
H_phi phi, lambda, residual), which `energy` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import FFTCounter, Grid, WaveField, is_number

HARMONIC = "harmonic"
HARMONIC_LATTICE = "harmonic_plus_lattice"
HARMONIC_QUARTIC = "harmonic_plus_quartic"
HALF_SQUARE = "isotropic_half_square"

_KINDS = (HARMONIC, HARMONIC_LATTICE, HARMONIC_QUARTIC, HALF_SQUARE)


class DimensionError(ValueError):
    """A trap that is not defined in the grid's dimension; `field` names the
    PotentialSpec field at fault."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


def _axis_tuple(value, d: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * d
    out = tuple(float(v) for v in value)
    if len(out) < d:
        raise DimensionError(f"{name} needs at least {d} entries, got {len(out)}", name)
    return out


@dataclass(frozen=True)
class PotentialSpec:
    """Parametric trap definition.

    The harmonic part follows the printed convention of the source model:
    gamma_x^2 x^2 in 1D but gamma_nu nu^2 in 2D/3D (coefficients not
    squared).  Set `harmonic_coeffs` to use sum(c_nu nu^2) verbatim in any
    dimension instead.  The lattice term is kappa_nu sin^2(q_nu nu^2), as
    the source model prints it.
    """

    kind: str = HARMONIC
    gamma: tuple[float, ...] = (1.0, 1.0, 1.0)
    kappa: tuple[float, ...] = (0.0, 0.0, 0.0)
    q: tuple[float, ...] = (0.0, 0.0, 0.0)
    alpha: float = 0.0
    kappa_quartic: float = 0.0
    harmonic_coeffs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if any(g <= 0 for g in self.gamma):
            raise ValueError("trap frequencies gamma must be positive")
        if any(k < 0 for k in self.kappa) or self.kappa_quartic < 0:
            raise ValueError("lattice/quartic amplitudes must be nonnegative")

    def check_dimension(self, d: int) -> None:
        """Raise DimensionError unless the trap is defined in dimension d:
        the quartic trap needs d >= 2, and each per-axis field the kind
        reads needs at least d entries."""
        if self.kind == HALF_SQUARE:
            return
        if self.kind == HARMONIC_QUARTIC:
            if d < 2:
                raise DimensionError("the harmonic-plus-quartic trap requires d >= 2", "kind")
            fields = ("gamma",)
        else:
            fields = ("gamma",) if self.harmonic_coeffs is None else ("harmonic_coeffs",)
            if self.kind == HARMONIC_LATTICE:
                fields += ("kappa", "q")
        for name in fields:
            _axis_tuple(getattr(self, name), d, name)

    def planar_frequency(self) -> float | None:
        """The confining frequency of the x-y plane, which bounds the rotation
        speed: 1 for the half-square trap, and min over x, y of sqrt(2 c_nu)
        for a harmonic part c_nu nu^2 (the 2D/3D reading of gamma, or
        harmonic_coeffs); a lattice is bounded, so it does not confine.  None
        for the quartic trap, which confines at any speed."""
        if self.kind == HARMONIC_QUARTIC:
            return None
        if self.kind == HALF_SQUARE:
            return 1.0
        name = "gamma" if self.harmonic_coeffs is None else "harmonic_coeffs"
        coeffs = _axis_tuple(getattr(self, name), 2, name)[:2]
        return min(math.sqrt(max(2.0 * c, 0.0)) for c in coeffs)

    def _harmonic(self, grid: Grid) -> np.ndarray:
        if self.harmonic_coeffs is not None:
            coeffs = _axis_tuple(self.harmonic_coeffs, grid.d, "harmonic_coeffs")
            return sum(coeffs[ax] * grid.coordinate(ax) ** 2 for ax in range(grid.d))
        gamma = _axis_tuple(self.gamma, grid.d, "gamma")
        if grid.d == 1:
            return gamma[0] ** 2 * grid.coordinate(0) ** 2
        return sum(gamma[ax] * grid.coordinate(ax) ** 2 for ax in range(grid.d))

    def sample(self, grid: Grid) -> np.ndarray:
        """Evaluate the potential on the grid nodes."""
        self.check_dimension(grid.d)
        if self.kind == HALF_SQUARE:
            return 0.5 * sum(grid.coordinate(ax) ** 2 for ax in range(grid.d))
        if self.kind == HARMONIC:
            return self._harmonic(grid) + np.zeros(grid.shape)
        if self.kind == HARMONIC_LATTICE:
            kappa = _axis_tuple(self.kappa, grid.d, "kappa")
            q = _axis_tuple(self.q, grid.d, "q")
            v = self._harmonic(grid) + np.zeros(grid.shape)
            for ax in range(grid.d):
                v = v + kappa[ax] * np.sin(q[ax] * grid.coordinate(ax) ** 2) ** 2
            return v
        # harmonic plus quartic, d = 2 or 3
        gamma = _axis_tuple(self.gamma, grid.d, "gamma")
        x = grid.coordinate(0)
        y = grid.coordinate(1)
        planar = gamma[0] * x**2 + gamma[1] * y**2
        v = (1.0 - self.alpha) * planar + 0.25 * self.kappa_quartic * (x**2 + y**2) ** 2
        if grid.d == 3:
            v = v + gamma[2] ** 2 * grid.coordinate(2) ** 2
        return v + np.zeros(grid.shape)


def pad3(values, fill: float) -> tuple[float, ...]:
    """Per-axis values as at least three floats: a scalar or a single value
    for every axis, the last of two repeated, `fill` for none."""
    out = (float(values),) if np.isscalar(values) else tuple(float(v) for v in values)
    return out + (out[-1:] or (fill,)) * (3 - len(out))


def harmonic(gamma=1.0) -> PotentialSpec:
    return PotentialSpec(kind=HARMONIC, gamma=pad3(gamma, 1.0))


def harmonic_lattice(gamma=1.0, kappa=25.0, q=math.pi / 2) -> PotentialSpec:
    return PotentialSpec(
        kind=HARMONIC_LATTICE,
        gamma=pad3(gamma, 1.0),
        kappa=pad3(kappa, 0.0),
        q=pad3(q, 0.0),
    )


def harmonic_quartic(gamma=1.0, alpha=1.2, kappa_quartic=0.3) -> PotentialSpec:
    return PotentialSpec(
        kind=HARMONIC_QUARTIC,
        gamma=pad3(gamma, 1.0),
        alpha=float(alpha),
        kappa_quartic=float(kappa_quartic),
    )


def half_square() -> PotentialSpec:
    # |x|^2/2: effective per-axis harmonic coefficient 1/2 (printed 2D/3D
    # convention); 1D equivalent gamma_x = sqrt(1/2).
    return PotentialSpec(kind=HALF_SQUARE, gamma=(0.5, 0.5, 0.5))


@dataclass(frozen=True)
class ModelParams:
    """Nonlinearity strength eta, rotation speed omega, and the trap."""

    eta: float = 0.0
    omega: float = 0.0
    potential: PotentialSpec = PotentialSpec()

    def __post_init__(self) -> None:
        if not (is_number(self.eta) and math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be a finite nonnegative number, got {self.eta!r}")
        if not (is_number(self.omega) and math.isfinite(self.omega)):
            raise ValueError(f"omega must be a finite number, got {self.omega!r}")

    def check_dimension(self, d: int) -> None:
        """Raise ValueError unless the model is defined in dimension d:
        rotation needs d >= 2 and |omega| below the trap's planar_frequency,
        where the energy is bounded below."""
        if self.omega == 0.0:
            return
        if d < 2:
            raise ValueError("rotation requires d >= 2")
        freq = self.potential.planar_frequency()
        if freq is not None and abs(self.omega) >= freq:
            raise ValueError(f"|omega| = {abs(self.omega)!r} is not below the trap frequency "
                             f"{freq!r} of the rotation plane")


_potential_cache: dict[tuple[PotentialSpec, Grid], np.ndarray] = {}


def sample_potential(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """Sampled trap values, cached per (spec, grid)."""
    key = (spec, grid)
    v = _potential_cache.get(key)
    if v is None:
        v = spec.sample(grid)
        v.setflags(write=False)
        if len(_potential_cache) > 64:
            _potential_cache.clear()
        _potential_cache[key] = v
    return v


@dataclass
class EnergyBreakdown:
    kinetic: float
    potential: float
    interaction: float
    rotation: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential + self.interaction + self.rotation

    @property
    def characteristic(self) -> float:
        """int(1/2 |grad phi|^2 + V|phi|^2 + eta|phi|^4), the adaptive
        preconditioner shift: kinetic + potential + 2*interaction."""
        return self.kinetic + self.potential + 2.0 * self.interaction


def energy(phi: WaveField, params: ModelParams, counter: FFTCounter | None = None) -> EnergyBreakdown:
    """Energy of `phi` split into kinetic/potential/interaction/rotation
    parts: that of `evaluate`, 2 transform units, 3 with rotation."""
    if not np.all(np.isfinite(phi.values)):
        raise ValueError("field contains NaN or Inf")
    return evaluate(phi, params, counter).energy


def frozen_hamiltonian(params: ModelParams, grid: Grid, w: np.ndarray,
                       counter: FFTCounter | None = None):
    """H = -1/2 Lap - omega Lz + w for a real array w on the grid, as a map on
    grid values; w = V + eta |phi|^2 is the mean-field Hamiltonian at phi.
    The linear part is Spectrum.linear, 2 transform units, on the spectrum
    of the values' dtype: half spectra for float64 values."""

    def apply_h(values: np.ndarray) -> np.ndarray:
        out, _ = grid.spectrum(np.isrealobj(values)).linear(values, params.omega, counter)
        out += w * values
        return out

    return apply_h


@dataclass
class Evaluation:
    """One evaluation of a unit-norm iterate phi, from `evaluate`.

    Attributes:
        phi: The iterate.
        h_phi: H_phi phi on the grid.
        lam: The multiplier lambda = Re<H_phi phi, phi>.
        r_inf: Sup norm of the residual H_phi phi - lambda phi.
        energy: The energy breakdown of phi.
        w: V + eta |phi|^2, the pointwise part of H_phi.
    """

    phi: WaveField
    h_phi: np.ndarray
    lam: float
    r_inf: float
    energy: EnergyBreakdown
    w: np.ndarray


def evaluate(phi: WaveField, params: ModelParams, counter: FFTCounter | None = None) -> Evaluation:
    """Evaluate phi once for everything a method reads of an iterate: the
    energy, H_phi phi, lambda, the residual's sup norm and w.

    The linear part H_lin phi (Spectrum.linear) takes 2 units without
    rotation, and gives the kinetic energy as <phi, H_lin phi>.  With
    rotation it also completes the forward transform (3 units): the kinetic
    energy comes from the transform by Parseval and the rotation energy as
    the rest of <phi, H_lin phi>.  A float64 phi takes half spectra, but not
    under rotation, where H_lin phi is complex: there phi is read as
    complex128, as spectral.rdot needs.  Every scalar, the energy parts
    among them, is a Python float.
    """
    g = phi.grid
    hd = g.cell_volume
    rotating = params.omega != 0.0
    u = np.asarray(phi.values,
                   np.result_type(phi.values, np.complex128 if rotating else np.float64))
    dens = np.abs(u) ** 2
    spec = g.spectrum(u.dtype == np.float64)
    h_phi, u_hat = spec.linear(u, params.omega, counter, hat=rotating)
    lin = hd * spectral.rdot(u, h_phi)
    kinetic = spec.kinetic(u_hat) if rotating else lin
    rotation = lin - kinetic if rotating else 0.0
    v = sample_potential(params.potential, g)
    potential = hd * float(np.sum(v * dens))
    interaction = 0.5 * params.eta * hd * float(np.sum(dens**2))
    w = v + params.eta * dens
    h_phi += w * u
    lam = hd * spectral.rdot(h_phi, u)
    r_inf = float(np.max(np.abs(h_phi - lam * u)))
    return Evaluation(phi, h_phi, lam, r_inf,
                      EnergyBreakdown(kinetic, potential, interaction, rotation), w)


def half_hessian(params: ModelParams, grid: Grid, phi: np.ndarray):
    """Half the energy Hessian at grid values phi, as a map on grid values:
    x -> H_phi x + eta (|phi|^2 x + phi^2 conj(x)).  It is real-linear, not
    complex-linear, and symmetric under Re<., .>.  x is read in the result
    dtype of phi and x: a float64 x at a complex phi as complex128."""
    dens = np.abs(phi) ** 2
    apply_h = frozen_hamiltonian(
        params, grid, sample_potential(params.potential, grid) + params.eta * dens)
    phi_sq = phi**2

    def apply_b(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, np.result_type(phi, x))
        out = apply_h(x)
        out += params.eta * (dens * x + phi_sq * np.conj(x))
        return out

    return apply_b


def hessian_quadratic_form(phi: WaveField, f: WaveField, params: ModelParams) -> float:
    """Second derivative of the energy at phi along f: d^2/dt^2 E(phi + t f),
    which is 2 Re<f, half_hessian f>, f read in the dtype of its image."""
    spectral.check_same_grid(phi, f)
    bf = half_hessian(params, phi.grid, phi.values)(f.values)
    return 2.0 * f.grid.cell_volume * spectral.rdot(np.asarray(f.values, bf.dtype), bf)


def thomas_fermi_mu(params: ModelParams, d: int) -> float:
    """Closed-form Thomas-Fermi chemical potential for the harmonic trap."""
    if params.eta <= 0:
        raise ValueError("the Thomas-Fermi approximation requires eta > 0")
    g = _axis_tuple(params.potential.gamma, d, "gamma")
    eta = params.eta
    if d == 1:
        return 0.5 * (3.0 * eta * g[0]) ** (2.0 / 3.0)
    if d == 2:
        return 0.5 * (4.0 * eta * g[0] * g[1]) ** 0.5
    return 0.5 * (15.0 * eta * g[0] * g[1] * g[2]) ** (2.0 / 5.0)


def thomas_fermi_initial(grid: Grid, params: ModelParams) -> WaveField:
    """Normalized Thomas-Fermi profile sqrt(max(mu - V, 0)/eta)."""
    mu = thomas_fermi_mu(params, grid.d)
    v = sample_potential(params.potential, grid)
    profile = np.sqrt(np.maximum(mu - v, 0.0) / params.eta)
    if not np.any(profile > 0):
        raise ValueError("potential exceeds the Thomas-Fermi level everywhere on the grid")
    return WaveField(grid, profile.astype(np.complex128)).normalized()


GUESS_KINDS = ("a", "b", "bbar", "c", "cbar", "d", "dbar", "e", "ebar", "tf", "gauss")


def check_guess(kind: str, d: int, params: ModelParams) -> None:
    """Raise ValueError unless the initial guess `kind` is defined in
    dimension d for params."""
    if kind not in GUESS_KINDS:
        raise ValueError(f"unknown initial guess kind {kind!r}")
    if kind == "tf":
        thomas_fermi_mu(params, d)  # needs eta > 0
    elif kind != "gauss" and d != 2:
        raise ValueError(f"initial guess {kind!r} is defined for d = 2 only")


def initial_guess(kind: str, grid: Grid, params: ModelParams) -> WaveField:
    """Named initial data; `a`-`ebar` are the standard 2D Gaussian/vortex mixes.

    `tf` is the Thomas-Fermi profile (any dimension, eta > 0) and `gauss`
    an isotropic Gaussian (any dimension).
    """
    check_guess(kind, grid.d, params)
    if kind == "tf":
        return thomas_fermi_initial(grid, params)
    if kind == "gauss":
        r2 = sum(grid.coordinate(ax) ** 2 for ax in range(grid.d))
        return WaveField(grid, np.exp(-r2 / 2.0).astype(np.complex128)).normalized()
    x = grid.coordinate(0)
    y = grid.coordinate(1)
    conjugate = kind.endswith("bar")
    base = kind[:-3] if conjugate else kind
    phi_a = np.exp(-(x**2 + y**2) / 2.0) / math.sqrt(math.pi) + 0j
    phi_b = (x + 1j * y) * phi_a
    w = params.omega
    if base == "a":
        values = phi_a
    elif base == "b":
        values = phi_b
    elif base == "c":
        values = 0.5 * (phi_a + phi_b)
    elif base == "d":
        values = (1.0 - w) * phi_a + w * phi_b
    else:  # e
        values = w * phi_a + (1.0 - w) * phi_b
    field = WaveField(grid, values).normalized()
    if conjugate:
        field = WaveField(grid, np.conj(field.values))
    return field


def find_vortices(phi: WaveField, radius: float | None = None) -> list[tuple[float, float, int]]:
    """Locate phase singularities by plaquette phase-winding summation (d = 2).

    Returns (x, y, winding) for each grid plaquette whose wrapped phase
    circulation is a nonzero multiple of 2*pi, restricted to plaquette
    centers inside `radius` (default: whole grid).
    """
    if phi.grid.d != 2:
        raise ValueError("vortex detection is implemented for d = 2")
    g = phi.grid
    ph = np.angle(phi.values)

    def wrap(a: np.ndarray) -> np.ndarray:
        return (a + np.pi) % (2.0 * np.pi) - np.pi

    # circulation around each plaquette (k,k+1) x (l,l+1), counterclockwise
    d_bottom = wrap(np.diff(ph, axis=0)[:, :-1])
    d_right = wrap(np.diff(ph, axis=1)[1:, :])
    d_top = wrap(-np.diff(ph, axis=0)[:, 1:])
    d_left = wrap(-np.diff(ph, axis=1)[:-1, :])
    winding = np.rint((d_bottom + d_right + d_top + d_left) / (2.0 * np.pi)).astype(int)
    x = g.x1
    xc = 0.5 * (x[:-1] + x[1:])
    out: list[tuple[float, float, int]] = []
    for i, j in np.argwhere(winding != 0):
        cx, cy = xc[i], xc[j]
        if radius is None or cx * cx + cy * cy < radius * radius:
            out.append((float(cx), float(cy), int(winding[i, j])))
    return out
