"""Run configuration: flat `key = value` text with dotted sections.

Lines are `section.key = value`; `#` starts a comment.  Each key is
declared once, in _KEYS, with its default text and the parser of its
typed value; unknown keys are rejected so typos fail fast.  `--set
key=value` overrides are applied on the parsed mapping before typing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import classic, model, optim
from .model import ModelParams, PotentialSpec
from .spectral import Grid, check_points


class ConfigError(ValueError):
    """Invalid or missing configuration; carries the offending key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value
    return out


def apply_overrides(mapping: dict[str, str], overrides: list[str]) -> dict[str, str]:
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _to_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}", key) from None


def _to_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}", key) from None


def _to_floats(value: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {value!r}", key) from None


def _check(key: str, rule, *args, **kwargs):
    """rule(*args, **kwargs), with a ValueError turned into a ConfigError naming key."""
    try:
        return rule(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}", key) from None


def _text(value: str, key: str) -> str:
    return value


def _to_shift(value: str, key: str) -> str | float:
    return value if value == "adaptive" else _to_float(value, key)


def _to_axes(fill: float):
    return lambda value, key: model.pad3(_to_floats(value, key), fill)


def _to_coeffs(value: str, key: str) -> tuple[float, ...] | None:
    return _to_floats(value, key) or None


# each key's default text and the parser of its typed value; grid.* has
# no default (_REQUIRED); init, multigrid and output keys are read as text
_KEYS = {
    "grid.d": ("", _to_int),
    "grid.L": ("", _to_float),
    "grid.M": ("", _to_int),
    "model.eta": ("0", _to_float),
    "model.omega": ("0", _to_float),
    "potential.kind": ("harmonic", _text),
    "potential.gamma": ("1", _to_axes(1.0)),
    "potential.kappa": ("0", _to_axes(0.0)),
    "potential.q": ("0", _to_axes(0.0)),
    "potential.alpha": ("0", _to_float),
    "potential.kappa_quartic": ("0", _to_float),
    "potential.harmonic_coeffs": ("", _to_coeffs),
    "solver.method": ("pcg", _text),
    "solver.precond": ("sym", _text),
    "solver.shift": ("adaptive", _to_shift),
    "solver.stop": ("energy_diff", _text),
    "solver.tol": ("1e-12", _to_float),
    "solver.max_iter": ("10000", _to_int),
    "solver.dt": ("0.01", _to_float),
    "solver.inner_tol": ("1e-10", _to_float),
    "solver.inner_max_iter": ("2000", _to_int),
    "init.kind": ("auto", _text),
    "multigrid.levels": ("", _text),
    "output.dir": ("", _text),
}

_REQUIRED = ("grid.d", "grid.L", "grid.M")


@dataclass
class RunConfig:
    """Typed view of one run's configuration."""

    mapping: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.mapping) - set(_KEYS))
        if unknown:
            raise ConfigError(f"unknown configuration key {unknown[0]!r}", unknown[0])
        for key in _REQUIRED:
            if not self.mapping.get(key, ""):
                raise ConfigError(f"missing required configuration key {key!r}", key)
        self.mapping = {key: self.mapping.get(key, default)
                        for key, (default, _) in _KEYS.items()}
        # eager validation of the typed views and the rules that join them
        grid = self.grid()
        params = self.model_params()
        try:
            params.potential.check_dimension(grid.d)
        except model.DimensionError as err:
            key = f"potential.{err.field}"
            raise ConfigError(f"{key}: {err}", key) from None
        _check("model.omega", params.check_dimension, grid.d)
        self.solver_config()
        if self.method in classic.SCHEMES:
            self.scheme()
            _check("solver.precond", classic.check_precond, self.method,
                   self.mapping["solver.precond"])
        _check("init.kind", model.check_guess, self.init_kind(), grid.d, params)
        self.multigrid_schedule()

    @classmethod
    def from_text(cls, text: str, overrides: list[str] | None = None) -> "RunConfig":
        mapping = parse_config_text(text)
        if overrides:
            mapping = apply_overrides(mapping, overrides)
        return cls(mapping)

    @classmethod
    def from_file(cls, path: str, overrides: list[str] | None = None) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:  # missing, a directory, not UTF-8
            raise ConfigError(f"cannot read config file {path}: {err}") from None
        return cls.from_text(text, overrides)

    # -- typed accessors ----------------------------------------------------
    @property
    def method(self) -> str:
        return self.mapping["solver.method"]

    @property
    def output_dir(self) -> str:
        return self.mapping["output.dir"]

    def _typed(self, obj, **keys):
        """Set obj's fields one key at a time, starting from obj's valid
        values, so any error names the key that caused it.  Each field is
        given as the key whose text its parser (_KEYS) turns into the value."""
        for name, key in keys.items():
            obj = _check(key, replace, obj, **{name: _KEYS[key][1](self.mapping[key], key)})
        return obj

    def grid(self) -> Grid:
        return self._typed(Grid(1, 1.0, 4), d="grid.d", L="grid.L", M="grid.M")

    def potential(self) -> PotentialSpec:
        return self._typed(
            PotentialSpec(), kind="potential.kind", gamma="potential.gamma",
            kappa="potential.kappa", q="potential.q", alpha="potential.alpha",
            kappa_quartic="potential.kappa_quartic",
            harmonic_coeffs="potential.harmonic_coeffs")

    def model_params(self) -> ModelParams:
        return self._typed(ModelParams(potential=self.potential()), eta="model.eta",
                           omega="model.omega")

    def solver_config(self) -> optim.SolverConfig:
        """The options every method shares, checked for every method; the
        `method` field is set only for pg/pcg."""
        method = {} if self.method in classic.SCHEMES else {"method": "solver.method"}
        return self._typed(optim.SolverConfig(), **method, precond="solver.precond",
                           shift="solver.shift", stop="solver.stop", tol="solver.tol",
                           max_iter="solver.max_iter")

    def scheme(self) -> classic.SchemeKind:
        return self._typed(classic.SchemeKind(), scheme="solver.method", dt="solver.dt",
                           inner_tol="solver.inner_tol",
                           inner_max_iter="solver.inner_max_iter")

    def init_kind(self) -> str:
        kind = self.mapping["init.kind"]
        if kind == "auto":
            eta = _to_float(self.mapping["model.eta"], "model.eta")
            return "tf" if eta > 0 else "gauss"
        return kind

    def multigrid_schedule(self) -> list[tuple[int, float]]:
        """Parse `multigrid.levels` entries `M:eps` into an increasing schedule."""
        raw = self.mapping["multigrid.levels"]
        if not raw:
            return []
        schedule: list[tuple[int, float]] = []
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            if ":" in item:
                m_str, eps_str = item.split(":", 1)
                eps = _to_float(eps_str, "multigrid.levels")
            else:
                m_str = item
                eps = _to_float(self.mapping["solver.tol"], "solver.tol")
            level_m = _to_int(m_str, "multigrid.levels")
            _check("multigrid.levels", check_points, level_m)
            if not (math.isfinite(eps) and eps > 0):
                raise ConfigError("multigrid.levels: tolerances must be finite and positive",
                                  "multigrid.levels")
            schedule.append((level_m, eps))
        for (m0, _), (m1, _) in zip(schedule, schedule[1:]):
            if m1 <= m0:
                raise ConfigError(
                    "multigrid.levels: grid sizes must be strictly increasing", "multigrid.levels")
        return schedule
