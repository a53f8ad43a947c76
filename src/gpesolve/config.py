"""Run configuration: flat `key = value` text with dotted sections.

Lines are `section.key = value`; `#` starts a comment.  Unknown keys are
rejected so typos fail fast.  `--set key=value` overrides are applied on
the parsed mapping before typing.
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


_DEFAULTS: dict[str, str] = {
    "grid.d": "",
    "grid.L": "",
    "grid.M": "",
    "model.eta": "0",
    "model.omega": "0",
    "potential.kind": "harmonic",
    "potential.gamma": "1",
    "potential.kappa": "0",
    "potential.q": "0",
    "potential.alpha": "0",
    "potential.kappa_quartic": "0",
    "potential.harmonic_coeffs": "",
    "solver.method": "pcg",
    "solver.precond": "sym",
    "solver.shift": "adaptive",
    "solver.stop": "energy_diff",
    "solver.tol": "1e-12",
    "solver.max_iter": "10000",
    "solver.dt": "0.01",
    "solver.inner_tol": "1e-10",
    "solver.inner_max_iter": "2000",
    "init.kind": "auto",
    "multigrid.levels": "",
    "output.dir": "",
}

_REQUIRED = ("grid.d", "grid.L", "grid.M")


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


@dataclass
class RunConfig:
    """Typed view of one run's configuration."""

    mapping: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.mapping) - set(_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown configuration key {unknown[0]!r}", unknown[0])
        for key in _REQUIRED:
            if not self.mapping.get(key, ""):
                raise ConfigError(f"missing required configuration key {key!r}", key)
        merged = dict(_DEFAULTS)
        merged.update(self.mapping)
        self.mapping = merged
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

    def _typed(self, obj, **fields):
        """Set obj's fields one key at a time, starting from obj's valid
        values, so any error names the key that caused it.  Each field is
        given as (key, parse), parse turning the key's text into the value."""
        for name, (key, parse) in fields.items():
            obj = _check(key, replace, obj, **{name: parse(self.mapping[key], key)})
        return obj

    def grid(self) -> Grid:
        return self._typed(Grid(1, 1.0, 4), d=("grid.d", _to_int), L=("grid.L", _to_float),
                           M=("grid.M", _to_int))

    def potential(self) -> PotentialSpec:
        return self._typed(
            PotentialSpec(),
            kind=("potential.kind", _text),
            gamma=("potential.gamma", _to_axes(1.0)),
            kappa=("potential.kappa", _to_axes(0.0)),
            q=("potential.q", _to_axes(0.0)),
            alpha=("potential.alpha", _to_float),
            kappa_quartic=("potential.kappa_quartic", _to_float),
            harmonic_coeffs=("potential.harmonic_coeffs", _to_coeffs),
        )

    def model_params(self) -> ModelParams:
        return self._typed(ModelParams(potential=self.potential()),
                           eta=("model.eta", _to_float), omega=("model.omega", _to_float))

    def solver_config(self) -> optim.SolverConfig:
        """The options every method shares, checked for every method; the
        `method` field is set only for pg/pcg."""
        method = {} if self.method in classic.SCHEMES else {"method": ("solver.method", _text)}
        return self._typed(
            optim.SolverConfig(),
            **method,
            precond=("solver.precond", _text),
            shift=("solver.shift", _to_shift),
            stop=("solver.stop", _text),
            tol=("solver.tol", _to_float),
            max_iter=("solver.max_iter", _to_int),
        )

    def scheme(self) -> classic.SchemeKind:
        return self._typed(
            classic.SchemeKind(),
            scheme=("solver.method", _text),
            dt=("solver.dt", _to_float),
            inner_tol=("solver.inner_tol", _to_float),
            inner_max_iter=("solver.inner_max_iter", _to_int),
        )

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
