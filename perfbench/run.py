"""gpesolve benchmark: time to a verified ground state on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own fresh Python process with one BLAS/OpenMP
thread, as a closed loop with one caller.  With ``--trace 0`` the
end-to-end metrics listed in BENCHMARK.json are printed; set-up time is
a median over several fresh processes, at reference speed.  With
``--trace 1`` a separate traced run prints the per-layer metrics, and
writes every span to ``.perfbench_run/traces/``.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  The program is built from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

# Fresh processes that only set up, on top of the measuring process, so
# set-up time is a median of SETUP_PROBES + 1 samples.
SETUP_PROBES = 6
# Set-up is mostly imports, and on the 2-vCPU host the benchmark was
# defined on, import time swings up to 1.7x with the host's speed regime.
# So right after each set-up sample a fresh process that imports only
# numpy and scipy (what gpesolve imports, without gpesolve) is timed the
# same way, and set-up time is reported at reference speed: the median of
# set-up / reference ratios times REFERENCE_IMPORT_S, the reference
# process's time on that host in its fast regime.
REFERENCE_IMPORT = "import numpy, scipy.sparse.linalg"
REFERENCE_IMPORT_S = 0.35
SETUP_TIMEOUT_S = 15
# The whole run must end within 180 s; a pass may overrun the budget.
WORKER_SLACK_S = 60

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["TMPDIR"] = os.path.join(RUN_DIR, "tmp")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, extra, timeout: float) -> tuple[int, dict]:
    """Start worker.py in a fresh process, wait for it, and return the
    spawn time (CLOCK_MONOTONIC, shared by all processes) and its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawn_ns, json.loads(proc.stdout.strip().splitlines()[-1])


def reference_import() -> float:
    """Seconds from spawning a fresh process to the end of REFERENCE_IMPORT."""
    code = f"import time\n{REFERENCE_IMPORT}\nprint(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"reference import exited with code {proc.returncode}")
    return (int(proc.stdout.split()[-1]) - spawn_ns) * 1e-9


def l3_cache() -> str:
    try:
        out = subprocess.run(["lscpu"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    for line in out.splitlines():
        if line.startswith("L3 cache:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def report(args, result: dict, setup_samples: list[tuple[float, float]]) -> None:
    """Human-readable lines ahead of the JSON result line."""
    env = dict(result["env"], l3_cache_lscpu=l3_cache())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    passes = result["passes"]
    kinds = ("untraced", "traced")
    print(f"passes {len(passes)} (closed loop, one caller), wall s x speed scale: " + ", ".join(
        f"{p['seconds']:.4f} x {p['scale']:.3f} ({p['iterations']} it, {kinds[p['traced']]})"
        for p in passes))
    walls = [p["seconds"] for p in passes if not p["traced"]]
    print(f"wall solve_s median {statistics.median(walls):.4f} over {len(walls)} passes; "
          f"calibration kernel median {statistics.median(p['calib_s'] for p in passes) * 1e3:.3f} ms")
    if args.trace == 0:
        print(f"setup_s samples ({len(setup_samples)} fresh processes), wall s / reference "
              "import wall s: " + ", ".join(f"{s:.4f}/{r:.4f}" for s, r in setup_samples))
        print("solve_s and iter_ms are medians over passes; both and setup_s at reference speed")
        # The tail is printed, not gated: on a shared 2-vCPU host the 95th
        # percentile of ~6 ms imaginary-time steps follows host jitter, and
        # its run-to-run spread went above the largest allowed bound.
        m = result["metrics"]
        print(f"tail, not gated: iter_ms_p95 {m['iter_ms_p95']:.4f} ms at reference speed, "
              f"95th percentile of {m['iter_samples']} iteration times")
    else:
        m = result["metrics"]
        print("per-layer times are wall times, not scaled")
        print(f"computed, not measured: spectral.fft_gflop_s = {m['spectral.fft_gflop_s']:.4f} "
              "(5 N log2 n flops per complex transform, half for real ones, over spectral.fft_s); "
              f"spectral.fft_mib = {m['spectral.fft_mib']:.4f} (input + output bytes per pass)")
    for target in result.get("absent_targets", []):
        print(f"trace target absent (counted as 0): {target}")
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")
    for pass_index, label, message in result["misses"]:
        print(f"MISS {args.workload} pass {pass_index} solve {label}: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gpesolve", "__init__.py")):
        return fail(f"no program to benchmark: {os.path.join(ROOT, 'src', 'gpesolve')} is missing")
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        names = json.load(fh)["workloads"]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    os.makedirs(os.path.join(RUN_DIR, "tmp"), exist_ok=True)
    try:
        # half the set-up probes before the measuring process and half
        # after it, so the samples span the run rather than one moment
        half = [["--setup-only"]] * (SETUP_PROBES // 2 if not args.trace else 0)
        setup_samples = []
        for extra in half + [[]] + half:
            timeout = SETUP_TIMEOUT_S if extra else args.seconds + WORKER_SLACK_S
            spawn_ns, out = run_worker(args, extra, timeout)
            if not extra:
                result = out
            if not args.trace:
                setup_samples.append(((out["setup_end_ns"] - spawn_ns) * 1e-9,
                                      reference_import()))
        if setup_samples:
            result["metrics"]["setup_s"] = REFERENCE_IMPORT_S * statistics.median(
                s / r for s, r in setup_samples)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        return fail(f"workload {args.workload} failed: {err}")
    finally:
        shutil.rmtree(os.path.join(RUN_DIR, "tmp"), ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    report(args, result, setup_samples)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
