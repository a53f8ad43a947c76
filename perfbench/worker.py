"""Run one benchmark workload in this (fresh, single-threaded) process.

Started by run.py, never by hand.  Sets the workload up, then runs it as a
closed loop with one caller: each pass starts after the previous one ends,
until the measuring time is used up.  With ``--trace 1`` untraced and
traced passes alternate, so the tracing overhead is measured in the same
process.  With ``--setup-only`` the process exits as soon as set-up ends.
Prints one JSON object as its last line of standard output.

Times are reported at reference speed.  The host this benchmark was
defined on (2 shared vCPUs) switches between speed regimes up to 1.7x
apart, for seconds to minutes at a time, which no number of passes
averages out; small-array, call-bound work slows more than 256^2 transforms.
So a fixed numpy kernel of the workload's own kind of work (its array
shape; transforms, pointwise products and reductions) that does not use
gpesolve is timed right before and right after every pass, and the pass's
wall time is scaled by the kernel's reference time over the mean of the
two kernel times.
Wall times and kernel times are printed beside the scaled ones.  Set-up
time is put at reference speed by run.py, against a reference import
rather than this kernel: set-up is imports, which move with the regime
about half as much as the kernel does.
"""

import time  # first, so set-up time starts as early as possible

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import sys

import numpy as np

import workloads
from tracer import FFT_FUNCS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

# Field-sized arrays live across one iteration of the fused engine
# (u, its transform, Lz and Laplacian images, residual, previous residual
# and direction in both representations, the direction and its three
# images, plus potential, density and |xi|^2 as real arrays at half size).
LIVE_FIELD_ARRAYS = 13.5

class Calibration:
    """Fixed kernel: `reps` rounds of transform, pointwise products and two
    reductions on one complex array of `shape`.  `reference_s` is its time
    at reference speed: on the host the benchmark was defined on, in that
    host's fast regime."""

    def __init__(self, shape, reps: int, reference_s: float) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.random(tuple(shape)) + 0j
        self.reps = reps
        self.reference_s = reference_s

    def __call__(self) -> float:
        x = self.x
        t0 = time.perf_counter()
        for _ in range(self.reps):
            y = np.fft.ifftn(np.fft.fftn(x) * 1.5)
            z = x * y + 0.5 * x
            float(np.vdot(z, x).real)
            float(np.max(np.abs(z)))
        return time.perf_counter() - t0


def import_program():
    sys.path.insert(0, SRC)
    import gpesolve
    import gpesolve.classic
    import gpesolve.config
    import gpesolve.io
    import gpesolve.runs
    if os.path.dirname(os.path.abspath(gpesolve.__file__)) != os.path.join(SRC, "gpesolve"):
        raise SystemExit(f"gpesolve was imported from {gpesolve.__file__}, not from {SRC}")


def run_pass(jobs, tracer, calibrate):
    """Run every job once (timed, between two calibrations), then check
    every answer (untimed)."""
    calib_before = calibrate()
    if tracer is not None:
        tracer.install()
        first, tally0 = tracer.count, dict(tracer.tally)
    results = []
    seconds = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        try:
            results.append(job.run())
        except Exception as err:  # a solve that raises is a failed solve, not a failed run
            results.append(err)
        seconds += time.perf_counter() - t0
    out = {"seconds": seconds, "traced": tracer is not None}
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = (first, tracer.count)
        out["tally"] = {k: v - tally0.get(k, 0) for k, v in tracer.tally.items()}
    out["calib_s"] = 0.5 * (calib_before + calibrate())
    out["scale"] = calibrate.reference_s / out["calib_s"]
    outcomes = [workloads.Outcome(0, [], [f"raised {type(r).__name__}: {r}"])
                if isinstance(r, Exception) else job.check(r) for job, r in zip(jobs, results)]
    out["iterations"] = sum(o.iterations for o in outcomes)
    out["iter_s"] = [t for o in outcomes for t in o.iter_s]
    out["misses"] = [(job.label, m) for job, o in zip(jobs, outcomes) for m in o.misses]
    return out


def measure(jobs, seconds: float, tracer, calibrate):
    """Closed loop: whole passes (an untraced + traced pair when tracing)
    while the next one is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        block = time.perf_counter()
        passes.append(run_pass(jobs, None, calibrate))
        if tracer is not None:
            passes.append(run_pass(jobs, tracer, calibrate))
        now = time.perf_counter()
        if now - start + (now - block) > seconds:
            return passes


def end_to_end(passes, attempted: int, failed: int) -> dict:
    """End-to-end metrics; times at reference speed (see module doc)."""
    solve_s = [p["seconds"] * p["scale"] for p in passes]
    iter_ms = [s * 1e3 / max(p["iterations"], 1) for s, p in zip(solve_s, passes)]
    all_ms = np.array([t * 1e3 * p["scale"] for p in passes for t in p["iter_s"]])
    return {
        "solve_s": statistics.median(solve_s),
        "iter_ms": statistics.median(iter_ms),
        # reported, not gated: see run.py
        "iter_ms_p95": float(np.percentile(all_ms, 95)) if all_ms.size else 0.0,
        "iter_samples": int(all_ms.size),
        "iterations": statistics.median(p["iterations"] for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
    }


def per_layer(tracer, setup, passes) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, plus the set-up layers, and the
    transform entry points that were called, with their calls per pass."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    groups = {g: {"calls": 0, "s": 0.0, "self_s": 0.0} for g in tracer.groups}
    tally: dict[str, float] = {}
    fft_in_use: dict[str, float] = {}
    for p in traced:
        summary, by_target = tracer.summarize(*p["spans"])
        for g, agg in summary.items():
            for k, v in agg.items():
                groups[g][k] += v
        for spec, calls in by_target.items():
            if spec.split(":")[1] in FFT_FUNCS:
                fft_in_use[spec] = fft_in_use.get(spec, 0) + calls / n
        for k, v in p["tally"].items():
            tally[k] = tally.get(k, 0) + v
    seconds = sum(p["seconds"] for p in traced)
    iterations = sum(p["iterations"] for p in traced)
    spans = sum(p["spans"][1] - p["spans"][0] for p in traced)

    def t(key):
        return 0 if key in tracer.dead_keys else tally.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fft = groups["fft"]
    # overhead at reference speed, so a regime switch between the passes
    # of a pair does not read as overhead
    plain_s = statistics.median(p["seconds"] * p["scale"] for p in plain)
    traced_s = statistics.median(p["seconds"] * p["scale"] for p in traced)
    return {
        "spectral.transforms": fft["calls"] / n,
        "spectral.transforms_per_iter": ratio(fft["calls"], iterations),
        "spectral.fft_s": fft["s"] / n,
        "spectral.fft_share": ratio(fft["s"], seconds),
        "spectral.fft_gflop_s": ratio(t("fft_flops"), fft["s"]) * 1e-9,
        "spectral.fft_mib": t("fft_bytes") / n / 2**20,
        "spectral.lz_s": groups["lz"]["s"] / n,
        "spectral.interp_s": groups["interp"]["s"] / n,
        "optim.solve_s": groups["optim_solve"]["s"] / n,
        "optim.self_s": groups["optim_solve"]["self_s"] / n,
        "optim.units": t("optim_units") / n,
        "optim.units_per_iter": ratio(t("optim_units"), t("optim_iterations")),
        "optim.real_per_unit": ratio(fft["calls"], t("optim_units")),
        "optim.backtracks": t("optim_backtracks") / n,
        "optim.restart_frac": ratio(t("optim_restarts"), t("optim_iterations")),
        "model.energy_calls": groups["energy"]["calls"] / n,
        "model.energy_s": groups["energy"]["s"] / n,
        "model.hamiltonian_calls": groups["hamiltonian"]["calls"] / n,
        "model.hamiltonian_s": groups["hamiltonian"]["s"] / n,
        "model.setup_s": setup["model_setup"]["s"],
        "precond.build_calls": groups["precond_build"]["calls"] / n,
        "precond.build_s": groups["precond_build"]["s"] / n,
        "precond.apply_calls": groups["precond_apply"]["calls"] / n,
        "precond.apply_s": groups["precond_apply"]["s"] / n,
        "classic.step_s": groups["classic_step"]["s"] / n,
        "classic.krylov_s": groups["krylov"]["s"] / n,
        "classic.krylov_self_s": groups["krylov"]["self_s"] / n,
        "classic.inner_iterations": t("krylov_iterations") / n,
        "classic.inner_per_step": ratio(t("krylov_iterations"), groups["classic_step"]["calls"]),
        "runs.run_s": groups["runs"]["s"] / n,
        "io.write_s": groups["io_write"]["s"] / n,
        "io.bytes_written": t("io_bytes") / n,
        "config.parse_s": setup["config"]["s"],
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
        "trace.spans_per_pass": spans / n,
        "trace.absent_targets": len(tracer.absent),
    }, fft_in_use


def fft_libraries() -> str:
    """The code numpy.fft.fftn runs and scipy.fft's global backend, as they
    are at run time, so a swapped-in FFT library shows."""
    fn = inspect.unwrap(np.fft.fftn)
    numpy_impl = f"{fn.__module__}.{fn.__qualname__}"
    try:
        from scipy.fft._backend import ua
        backend = ua.get_state()._pickle()[0]["numpy.scipy.fft"][0][0]
        scipy_impl = f"{backend.__module__}.{backend.__qualname__}"
        if backend.__qualname__ == "_ScipyBackend":
            scipy_impl += " (scipy's bundled pocketfft)"
    except Exception as err:  # private uarray state; report, never fail the run
        scipy_impl = f"unknown ({type(err).__name__})"
    return f"numpy.fft: {numpy_impl}; scipy.fft global backend: {scipy_impl}"


def environment(jobs) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    arrays = workloads.array_bytes(jobs)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_libraries": fft_libraries(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "array_bytes_computed": arrays,
        "working_set_bytes_computed": [int(LIVE_FIELD_ARRAYS * b) for b in arrays],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_program()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    jobs = workloads.build(args.workload, args.seed, os.path.join(RUN_DIR, "tmp"))
    setup_end_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_end_ns": setup_end_ns}))
        return 0
    setup_layers = tracer.summarize(0, tracer.count)[0] if tracer is not None else None

    kernel = workloads.load_spec()["workloads"][args.workload]["calibration"]
    passes = measure(jobs, args.seconds, tracer, Calibration(**kernel))
    misses = [(i, label, m) for i, p in enumerate(passes) for label, m in p["misses"]]
    failed = len({(i, label) for i, label, _ in misses})
    attempted = len(passes) * len(jobs)
    out = {
        "setup_end_ns": setup_end_ns,
        "attempted": attempted,
        "failed": failed,
        "misses": misses,
        "passes": [{k: p[k] for k in ("seconds", "iterations", "traced", "calib_s", "scale")}
                   for p in passes],
        "env": environment(jobs),
    }
    if tracer is None:
        out["metrics"] = end_to_end(passes, attempted, failed)
    else:
        out["metrics"], out["env"]["fft_calls_per_pass"] = per_layer(tracer, setup_layers, passes)
        out["absent_targets"] = tracer.absent
        os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
        path = os.path.join(RUN_DIR, "traces", f"{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**tracer.dump(), "passes": [p.get("spans") for p in passes]}, fh)
        out["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
