"""Configuration parsing, file formats, and atomic output."""

import os

import numpy as np
import pytest

from gpesolve import Grid, WaveField
from gpesolve import io, model
from gpesolve.config import ConfigError, RunConfig, apply_overrides, parse_config_text
from gpesolve.classic import SchemeKind
from gpesolve.model import ModelParams, PotentialSpec
from gpesolve.optim import IterationRecord, SolverConfig

from oracles import density_csv_text

MINIMAL = """
# a comment
grid.d = 1
grid.L = 16     # trailing comment
grid.M = 64
model.eta = 250
solver.method = pcg
"""


class TestConfigParsing:
    def test_parse_and_types(self):
        cfg = RunConfig.from_text(MINIMAL)
        g = cfg.grid()
        assert (g.d, g.L, g.M) == (1, 16.0, 64)
        assert cfg.model_params().eta == 250.0
        assert cfg.method == "pcg"
        assert cfg.init_kind() == "tf"  # auto: eta > 0

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="grid.L"):
            RunConfig.from_text("grid.d = 1\ngrid.M = 64\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="grid.spacing"):
            RunConfig.from_text(MINIMAL + "\ngrid.spacing = 0.1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="solver.tol"):
            RunConfig.from_text(MINIMAL + "\nsolver.tol = tiny\n")

    def test_overrides(self):
        cfg = RunConfig.from_text(MINIMAL, overrides=["model.eta=0", "solver.precond=kinetic"])
        assert cfg.model_params().eta == 0.0
        assert cfg.solver_config().precond == "kinetic"
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["oops"])

    def test_scheme_methods(self):
        cfg = RunConfig.from_text(MINIMAL, overrides=["solver.method=be_lambda", "solver.dt=0.02"])
        scheme = cfg.scheme()
        assert scheme.scheme == "be_lambda"
        assert scheme.dt == 0.02

    def test_multigrid_schedule(self):
        cfg = RunConfig.from_text(MINIMAL + "multigrid.levels = 64:1e-10,128:1e-11,256:1e-12\n")
        assert cfg.multigrid_schedule() == [(64, 1e-10), (128, 1e-11), (256, 1e-12)]
        with pytest.raises(ConfigError, match="increasing"):
            RunConfig.from_text(MINIMAL + "multigrid.levels = 128,64\n")

    @pytest.mark.parametrize("values", [(2.0,), (2.0, 3.0), (2.0, 3.0, 4.0)])
    def test_trap_factories_pad_axes_as_the_config_does(self, values):
        # one, two or three per-axis values give the same spec through a
        # factory as through the config keys
        text = ",".join(map(str, values))

        def spec(**keys):
            sets = ["grid.d=2", "grid.M=16"] + [f"potential.{k}={v}" for k, v in keys.items()]
            return RunConfig.from_text(MINIMAL, overrides=sets).potential()

        assert model.harmonic(values).gamma == (values + values[-1:] * 2)[:3]
        assert model.harmonic(values) == spec(kind="harmonic", gamma=text)
        assert model.harmonic_lattice(values, values, values) == spec(
            kind="harmonic_plus_lattice", gamma=text, kappa=text, q=text)
        assert model.harmonic_quartic(values, 1.2, 0.3) == spec(
            kind="harmonic_plus_quartic", gamma=text, alpha=1.2, kappa_quartic=0.3)

    @pytest.mark.parametrize("key", ["solver.theta_default", "solver.backtrack_factor",
                                     "solver.max_backtracks", "solver.full_linesearch", "seed"])
    def test_removed_keys_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_text(MINIMAL + f"{key} = 1\n")

    @pytest.mark.parametrize("key,value", [
        ("solver.stop", "bogus"), ("solver.shift", "0"), ("solver.shift", "-5"),
        ("solver.shift", "small"), ("solver.tol", "-1"), ("solver.tol", "tiny"),
        ("solver.precond", "bogus"), ("solver.method", "bogus"),
        ("solver.max_iter", "many"), ("solver.tol", "nan"), ("solver.max_iter", "-3"),
    ])
    def test_solver_error_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=key) as info:
            RunConfig.from_text(MINIMAL, overrides=[f"{key}={value}"])
        assert info.value.key == key

    @pytest.mark.parametrize("method", ["be_lambda", "cn_lambda", "fe_lambda"])
    def test_shift_checked_for_imaginary_time(self, method):
        with pytest.raises(ConfigError, match="shift must be positive") as info:
            RunConfig.from_text(MINIMAL, overrides=[f"solver.method={method}", "solver.shift=0"])
        assert info.value.key == "solver.shift"
        cfg = RunConfig.from_text(MINIMAL, overrides=[f"solver.method={method}", "solver.shift=2.5"])
        assert cfg.solver_config().shift == 2.5

    @pytest.mark.parametrize("overrides,key", [
        # the options every method shares, for an imaginary-time method
        (["solver.method=be_lambda", "solver.stop=bogus"], "solver.stop"),
        (["solver.method=be_lambda", "solver.max_iter=many"], "solver.max_iter"),
        (["solver.method=be_lambda", "solver.max_iter=-3"], "solver.max_iter"),
        (["solver.method=be_lambda", "solver.tol=-1"], "solver.tol"),
        (["solver.method=fe_lambda", "solver.tol=nan"], "solver.tol"),
        (["solver.method=be_lambda", "solver.precond=bogus"], "solver.precond"),
        (["solver.method=be_lambda", "solver.inner_tol=0"], "solver.inner_tol"),
        (["solver.method=be_lambda", "solver.inner_max_iter=0"], "solver.inner_max_iter"),
        (["solver.method=cn_lambda", "solver.inner_max_iter=-3"], "solver.inner_max_iter"),
        # each field of the grid, the trap and the model under its own key
        (["grid.d=4"], "grid.d"),
        (["grid.L=-1"], "grid.L"),
        (["grid.M=7"], "grid.M"),
        (["potential.gamma=-1"], "potential.gamma"),
        (["potential.kappa=-1"], "potential.kappa"),
        (["potential.kind=box"], "potential.kind"),
        (["potential.lattice_argument=x"], "potential.lattice_argument"),
        (["model.eta=-1"], "model.eta"),
        (["model.omega=nan"], "model.omega"),
        # rules that join two keys
        (["model.omega=0.5"], "model.omega"),  # rotation in 1D
        (["init.kind=a"], "init.kind"),  # 2D-only guess in 1D
        (["init.kind=ebar", "grid.d=3", "grid.M=8"], "init.kind"),
        (["init.kind=tf", "model.eta=0"], "init.kind"),
        (["potential.kind=harmonic_plus_quartic"], "potential.kind"),  # quartic in 1D
        (["grid.d=2", "grid.M=16", "potential.harmonic_coeffs=1"], "potential.harmonic_coeffs"),
        # each multigrid level size under the rule the grid uses
        (["multigrid.levels=5:1e-8,32:1e-8"], "multigrid.levels"),
        (["multigrid.levels=2,64"], "multigrid.levels"),
        # MINRES needs a Hermitian preconditioner
        (["solver.method=be_lambda", "solver.precond=c1"], "solver.precond"),
        (["solver.method=cn", "solver.precond=c2"], "solver.precond"),
    ])
    def test_error_names_its_key(self, overrides, key):
        with pytest.raises(ConfigError, match=key) as info:
            RunConfig.from_text(MINIMAL, overrides=overrides)
        assert info.value.key == key

    def test_init_kind_validation(self):
        with pytest.raises(ConfigError, match="init.kind"):
            RunConfig.from_text(MINIMAL + "init.kind = vortexlattice\n")

    def test_defaults_are_the_library_defaults(self):
        # the key table's default text is a second home of the library's
        # defaults: a config that sets only the grid must read them back
        grid_only = "grid.d = 1\ngrid.L = 16\ngrid.M = 64\n"
        cfg = RunConfig.from_text(grid_only)
        assert cfg.solver_config() == SolverConfig()
        assert cfg.model_params() == ModelParams()
        assert cfg.model_params().potential == PotentialSpec()
        scheme = RunConfig.from_text(grid_only, overrides=["solver.method=be"]).scheme()
        default = SchemeKind()
        assert (scheme.dt, scheme.inner_tol, scheme.inner_max_iter) == (
            default.dt, default.inner_tol, default.inner_max_iter)


class TestFieldDump:
    def test_round_trip(self, tmp_path):
        g = Grid(2, 8.0, 16)
        rng = np.random.default_rng(3)
        phi = WaveField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        path = str(tmp_path / "field.gpef")
        io.save_field(path, phi)
        back = io.load_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, phi.values)

    def test_header_layout(self, tmp_path):
        g = Grid(1, 4.0, 16)
        phi = WaveField(g, np.zeros(16, dtype=complex))
        path = str(tmp_path / "f.gpef")
        io.save_field(path, phi)
        raw = open(path, "rb").read()
        assert raw[:4] == b"GPEF"
        assert len(raw) == 4 + 4 + 24 + 16 * 16
        import struct
        assert struct.unpack_from("<I", raw, 4)[0] == 1
        assert struct.unpack_from("<3d", raw, 8) == (1.0, 16.0, 4.0)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.gpef")
        open(path, "wb").write(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError, match="GPEF"):
            io.load_field(path)


    @pytest.mark.parametrize("cut", [20, -3])
    def test_truncated_file_names_the_path(self, tmp_path, cut):
        # cut inside the 32-byte header, and inside the last complex value
        g = Grid(2, 8.0, 8)
        path = str(tmp_path / "field.gpef")
        io.save_field(path, WaveField(g, np.ones(g.shape, dtype=complex)))
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:cut])
        with pytest.raises(ValueError) as info:
            io.load_field(path)
        assert str(info.value).startswith(path + ": ")

    def test_corrupt_grid_size_names_the_path(self, tmp_path):
        import struct
        path = str(tmp_path / "field.gpef")
        io.save_field(path, WaveField(Grid(1, 4.0, 16), np.zeros(16, dtype=complex)))
        raw = bytearray(open(path, "rb").read())
        struct.pack_into("<d", raw, 16, 1e12)  # M
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ValueError, match="payload has 16 values") as info:
            io.load_field(path)
        assert str(info.value).startswith(path + ": ")

    @pytest.mark.parametrize("header,message", [
        ((1.7, 16.0, 4.0), "header gives d = 1.7, M = 16.0, not integers"),
        ((1.0, 16.9, 4.0), "header gives d = 1.0, M = 16.9, not integers"),
        ((1.0, float("nan"), 4.0), "header gives d = 1.0, M = nan, not integers"),
        ((1.0, 16.0, float("nan")), "L must be finite and positive, got nan"),
        ((1.0, 16.0, float("inf")), "L must be finite and positive, got inf"),
    ])
    def test_corrupt_header_names_the_path(self, tmp_path, header, message):
        # a header of d = 1.7, M = 64.9, L = nan once loaded as Grid(1, nan, 64)
        import struct
        path = str(tmp_path / "field.gpef")
        io.save_field(path, WaveField(Grid(1, 4.0, 16), np.zeros(16, dtype=complex)))
        raw = bytearray(open(path, "rb").read())
        struct.pack_into("<3d", raw, 8, *header)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(ValueError) as info:
            io.load_field(path)
        assert str(info.value) == f"{path}: {message}"


class TestCsvOutputs:
    def _records(self):
        return [IterationRecord(n=i, energy=1.0 - 0.1 * i, lam=2.0, r_inf=0.5**i,
                                step_inf=0.1, theta=0.2, beta=0.0, backtracks=0,
                                fft_count=5, wall_time=0.01 * i) for i in range(3)]

    def test_records_csv_layout(self, tmp_path):
        path = str(tmp_path / "conv.csv")
        io.write_records_csv(path, self._records())
        lines = open(path).read().splitlines()
        assert lines[0] == ("n,energy,lam,r_inf,step_inf,theta,beta,backtracks,fft_count,"
                            "energy_delta,restarted,wall_time")
        assert len(lines) == 4
        assert lines[2].split(",")[9:11] == ["0.0", "0"]

    def test_numeric_payload_deterministic(self):
        a = io.records_csv_text(self._records())
        b = io.records_csv_text(self._records())
        assert a == b

    def test_density_csv(self, tmp_path):
        g = Grid(1, 2.0, 4)
        phi = WaveField(g, np.arange(4, dtype=complex))
        path = str(tmp_path / "density.csv")
        io.write_density_csv(path, phi)
        lines = open(path).read().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 5
        x0, d0 = map(float, lines[1].split(","))
        assert (x0, d0) == (-2.0, 0.0)
        x3, d3 = map(float, lines[4].split(","))
        assert (x3, d3) == (1.0, 9.0)

    @pytest.mark.parametrize("d,m", [(1, 64), (2, 16), (3, 8)])
    def test_density_csv_matches_row_writer(self, tmp_path, d, m):
        g = Grid(d, 3.0, m)
        rng = np.random.default_rng(d)
        phi = WaveField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        phi.values.flat[0] = 0.0
        path = str(tmp_path / "density.csv")
        io.write_density_csv(path, phi)
        with open(path, "rb") as fh:
            assert fh.read() == density_csv_text(phi).encode()

    def test_atomic_write_leaves_no_partials(self, tmp_path):
        target = tmp_path / "out.txt"
        io.atomic_write_text(str(target), "hello")
        assert target.read_text() == "hello"
        leftovers = [p for p in os.listdir(tmp_path) if p != "out.txt"]
        assert leftovers == []
