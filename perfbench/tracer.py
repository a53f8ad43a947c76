"""Outside-in span tracer for the benchmark.

Spans are placed by swapping module attributes at the names the program's
callers resolve (``gpesolve.optim.solve``, ``numpy.fft.fftn``, ...), so the
program itself is not changed.  Every loaded ``gpesolve.*`` module attribute
that is bound to the same object (``from .x import f`` re-exports) is swapped
too.  A target that does not exist is recorded as absent and traced as zero
instead of failing the run, so the tracer keeps working across refactors
that move or delete functions.  Likewise an error in a tally hook (say,
because a result type lost a field) never reaches the traced program: the
hook is switched off, its tallies read 0 and it is recorded as absent.

Each span is five integers ``target, parent, start_ns, end_ns, outer``:
``parent`` is the index of the enclosing span (-1 at top level) and
``outer`` is 1 when no enclosing span belongs to the same group, so a
group's time is the sum over its outer spans and nested calls are not
counted twice.  Spans stay in memory, in one flat integer array that the
garbage collector does not scan, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from array import array
import math
import sys
import time

FIELDS = ("target", "parent", "start_ns", "end_ns", "outer")
WIDTH = len(FIELDS)
FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
             "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2")

# (group, "module:qualified.name").  The private fused engine classes of
# gpesolve.optim are deliberately not wrapped: the engine is timed as the
# self time of ``optim.solve``.
TARGETS = (
    [("fft", f"numpy.fft:{f}") for f in FFT_FUNCS]
    + [("fft", f"scipy.fft:{f}") for f in FFT_FUNCS]
    + [
        ("lz", "gpesolve.spectral:lz_from_hat"),
        ("lz", "gpesolve.spectral:apply_lz"),
        ("interp", "gpesolve.spectral:spectral_interpolate"),
        ("energy", "gpesolve.model:energy"),
        ("hamiltonian", "gpesolve.model:apply_hamiltonian"),
        ("model_setup", "gpesolve.model:sample_potential"),
        ("model_setup", "gpesolve.model:initial_guess"),
        ("model_setup", "gpesolve.model:thomas_fermi_initial"),
        ("precond_build", "gpesolve.precond:build"),
        ("precond_apply", "gpesolve.precond:Preconditioner.apply_values"),
        ("optim_solve", "gpesolve.optim:solve"),
        ("classic_step", "gpesolve.classic:imaginary_time_step"),
        ("krylov", "gpesolve.classic:krylov_solve"),
        ("runs", "gpesolve.runs:run_multigrid"),
        ("runs", "gpesolve.runs:run_single"),
        ("io_write", "gpesolve.io:atomic_write_bytes"),
        ("config", "gpesolve.config:RunConfig.from_text"),
        ("config", "gpesolve.config:parse_config_text"),
    ]
)


def _fft_hook(name: str, args, kwargs, out) -> dict:
    """Computed flops (5 N log2 n per complex transform, half for real
    input or output) and input + output bytes of one transform."""
    x = args[0] if args else kwargs.get("a", kwargs.get("x"))
    size = getattr(x, "size", 0)
    shape = getattr(x, "shape", ())
    if not size:
        return {}
    if name.endswith("n") or name.endswith("2"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = range(len(shape)) if name.endswith("n") else (-2, -1)
        length = math.prod(shape[a] for a in axes)
    else:
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        length = shape[axis]
    flops = 5.0 * size * math.log2(max(length, 2))
    if "r" in name.split("fft")[0]:  # rfft*, irfft*
        flops *= 0.5
    return {"fft_flops": flops,
            "fft_bytes": getattr(x, "nbytes", 0) + getattr(out, "nbytes", 0)}


class Tracer:
    """Collects spans and call tallies while installed."""

    def __init__(self) -> None:
        self.targets = list(TARGETS)
        self.groups = sorted({g for g, _ in self.targets})
        self.spans = array("q")
        self.tally: dict[str, float] = {}
        self.absent: list[str] = []
        # tally keys of hooks that raised; they read 0
        self.dead_keys: set[str] = set()
        self._stack: list[int] = []
        self._active = [0] * len(self.groups)
        self._swaps: list[tuple[object, str, object]] = []
        self._resolved = None

    # -- installation ------------------------------------------------------
    def _resolve(self):
        resolved = []
        for index, (group, spec) in enumerate(self.targets):
            module_name, qualname = spec.split(":")
            try:
                owner = importlib.import_module(module_name)
                parts = qualname.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                raw = vars(owner)[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
            except (ImportError, AttributeError, KeyError):
                self.absent.append(spec)
                continue
            resolved.append((index, self.groups.index(group), owner, parts[-1], raw))
        return resolved

    def install(self) -> None:
        if self._resolved is None:
            self._resolved = self._resolve()
        program_modules = [m for n, m in list(sys.modules.items())
                           if (n == "gpesolve" or n.startswith("gpesolve.")) and m is not None]
        for index, group, owner, attr, raw in self._resolved:
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(index, group, raw.__func__))
            else:
                wrapped = self._wrap(index, group, raw)
            self._swap(owner, attr, wrapped)
            if not isinstance(owner, type):
                for module in program_modules:
                    for name, value in list(vars(module).items()):
                        if value is raw and not (module is owner and name == attr):
                            self._swap(module, name, wrapped)

    def _swap(self, owner, attr: str, value) -> None:
        self._swaps.append((owner, attr, vars(owner).get(attr, getattr(owner, attr))))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._swaps:
            owner, attr, original = self._swaps.pop()
            setattr(owner, attr, original)

    def _wrap(self, index: int, group: int, fn):
        spans = self.spans
        stack = self._stack
        active = self._active
        clock = time.perf_counter_ns
        spec = self.targets[index][1]
        name = spec.split(":")[1]
        hook, keys = _FFT_HOOK if self.targets[index][0] == "fft" else _HOOKS.get(name, (None, ()))
        tally = self.tally
        hook_on = [hook is not None]

        def run_hook(args, kwargs, out) -> None:
            try:
                counts = hook(name, args, kwargs, out)
            except Exception as err:  # the traced call succeeded; only its tally is lost
                hook_on[0] = False
                self.dead_keys.update(keys)
                self.absent.append(f"{spec} tally ({type(err).__name__}: {err})")
                return
            for key, value in counts.items():
                tally[key] = tally.get(key, 0) + value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = active[group] == 0
            base = len(spans)
            spans.extend((index, stack[-1] if stack else -1, clock(), 0, outer))
            stack.append(base // WIDTH)
            active[group] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[base + 3] = clock()
                active[group] -= 1
                stack.pop()
            if outer and hook_on[0]:
                run_hook(args, kwargs, out)
            return out

        return wrapper

    # -- analysis ----------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.spans) // WIDTH

    def rows(self, start: int, end: int):
        s = self.spans
        return [tuple(s[i:i + WIDTH]) for i in range(start * WIDTH, end * WIDTH, WIDTH)]

    def summarize(self, start: int, end: int) -> tuple[dict, dict]:
        """Over spans [start, end): per group, the calls and time of its
        outer spans and the self time (duration minus direct children) of
        all its spans; and per target, the calls of its outer spans."""
        rows = self.rows(start, end)
        child = [0] * len(rows)
        for _, parent, t0, t1, _ in rows:
            if parent >= start:
                child[parent - start] += t1 - t0
        out = {g: {"calls": 0, "s": 0.0, "self_s": 0.0} for g in self.groups}
        by_target: dict[str, int] = {}
        for i, (target, _, t0, t1, outer) in enumerate(rows):
            group, spec = self.targets[target]
            g = out[group]
            g["self_s"] += (t1 - t0 - child[i]) * 1e-9
            if outer:
                g["calls"] += 1
                g["s"] += (t1 - t0) * 1e-9
                by_target[spec] = by_target.get(spec, 0) + 1
        return out, by_target

    def dump(self) -> dict:
        return {
            "targets": [spec for _, spec in self.targets],
            "groups": [group for group, _ in self.targets],
            "absent": self.absent,
            "fields": list(FIELDS),
            "spans": [list(r) for r in self.rows(0, self.count)],
        }


def _solve_hook(name, args, kwargs, result) -> dict:
    return {"optim_units": result.fft_total,
            "optim_iterations": result.iterations,
            "optim_backtracks": sum(r.backtracks for r in result.records),
            "optim_restarts": sum(1 for r in result.records if r.restarted)}


def _krylov_hook(name, args, kwargs, result) -> dict:
    return {"krylov_iterations": result[1]}


def _write_hook(name, args, kwargs, result) -> dict:
    return {"io_bytes": len(args[1] if len(args) > 1 else kwargs["data"])}


# Tally hooks, called after the outer span of a target returns, with the
# tally keys each one feeds.
_FFT_HOOK = (_fft_hook, ("fft_flops", "fft_bytes"))
_HOOKS = {
    "solve": (_solve_hook, ("optim_units", "optim_iterations", "optim_backtracks",
                            "optim_restarts")),
    "krylov_solve": (_krylov_hook, ("krylov_iterations",)),
    "atomic_write_bytes": (_write_hook, ("io_bytes",)),
}
