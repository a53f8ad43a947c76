"""Command-line interface.

Verbs: `solve` (single run), `multigrid` (coarse-to-fine continuation),
`bench` (benchmark suites), `analyze` (amplification-factor and
Hessian-conditioning diagnostics).  Exit codes: 0 when the run's stop
reason counts as converged in optim.STOP_CONVERGED, 1 when it does not
(and when `analyze condition` cannot build its preconditioner at the
solution), 2 for a configuration error: an invalid key or value, a config
file that cannot be read, an output directory that cannot be made (checked
before any solve), or an `analyze amplification` option outside its domain.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench, classic, io, model, optim, precond
from .config import ConfigError, RunConfig
from .runs import make_outdir, run_multigrid, run_single


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="configuration file (key = value lines)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a configuration key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpesolve",
        description="Ground states of the rotating Gross-Pitaevskii equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a single ground-state solve")
    p_mg = sub.add_parser("multigrid", help="run the multigrid continuation")
    for p in (p_solve, p_mg):
        _add_config_args(p)
        p.add_argument("--out", default=None, help="output directory")

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("suite", choices=list(bench.SUITES) + ["all"])
    p_bench.add_argument("--out", default=None, help="output directory")
    p_bench.add_argument("--paper-scale", action="store_true",
                         help="use the published (large) problem sizes; no runtime bound")

    p_an = sub.add_parser("analyze", help="spectral diagnostics")
    an_sub = p_an.add_subparsers(dest="analysis", required=True)
    p_amp = an_sub.add_parser("amplification", help="power-iteration rates of FE/BE/CN")
    p_amp.add_argument("--scheme", choices=["fe", "be", "cn"], default="be")
    p_amp.add_argument("--dt", type=float, default=0.1)
    p_amp.add_argument("--n", type=int, default=16, help="matrix size")
    p_amp.add_argument("--seed", type=int, default=0)
    p_amp.add_argument("--iters", type=int, default=300)
    p_cond = an_sub.add_parser("condition", help="preconditioned Hessian conditioning at the solution")
    _add_config_args(p_cond)
    p_cond.add_argument("--precond", default=None, choices=precond.KINDS,
                        help="preconditioner to analyze (default: the configured one)")
    return parser


def _cmd_solve(args, multigrid: bool) -> int:
    cfg = RunConfig.from_file(args.config, args.overrides)
    outdir = args.out or cfg.output_dir or "gpesolve_out"
    summary = run_multigrid(cfg, outdir) if multigrid else run_single(cfg, outdir)
    for key, value in summary.items():
        print(f"{key} = {value}")
    if optim.STOP_CONVERGED[summary["stop_reason"]]:
        return 0
    print(f"solver failed: {summary['stop_reason']}", file=sys.stderr)
    return 1


def _cmd_bench(args) -> int:
    outdir = args.out or "gpesolve_bench"
    make_outdir(outdir)
    rows = bench.run_benchmark(args.suite, paper_scale=args.paper_scale)
    path = os.path.join(outdir, f"{args.suite}.csv")
    io.write_table_csv(path, rows, bench.TABLE_FIELDS)
    print(f"wrote {len(rows)} rows to {path}")
    for row in rows:
        print("  ".join(f"{k}={row[k]}" for k in ("suite", "method", "precond", "M", "eta",
                                                  "omega", "iters", "inner_iters", "energy")))
    return 0


def _cmd_analyze(args) -> int:
    if args.analysis == "amplification":
        bad = classic.amplification_domain_error(args.n, args.dt, args.iters, args.seed)
        if bad is not None:
            option = {"n": "--n", "dt": "--dt", "n_iter": "--iters", "seed": "--seed"}[bad[0]]
            print(f"configuration error: {option}: {bad[1]}", file=sys.stderr)
            return 2
        rng = np.random.default_rng(args.seed)
        a = rng.standard_normal((args.n, args.n))
        h = 0.5 * (a + a.T) + args.n * np.eye(args.n) / 4.0
        report = classic.amplification_analysis(h, args.scheme, args.dt, n_iter=args.iters,
                                                seed=args.seed)
        print(f"scheme = {report.scheme}")
        print(f"dt = {report.dt}")
        print(f"predicted_rate = {report.predicted_rate}")
        print(f"observed_rate = {report.observed_rate}")
        print(f"degenerate = {report.degenerate}")
        return 0
    # conditioning of the preconditioned projected Hessian at the solution
    cfg = RunConfig.from_file(args.config, args.overrides)
    grid = cfg.grid()
    try:
        classic.check_condition_size(grid)
    except ValueError as err:
        print(f"condition analysis needs a small grid: {err}", file=sys.stderr)
        return 2
    params = cfg.model_params()
    from .runs import initial_field, _solve_once

    result = _solve_once(cfg, grid, params, initial_field(cfg, grid, params))
    if not result.converged:
        detail = f" ({result.stop_detail})" if result.stop_detail else ""
        print(f"solver failed: {result.stop_reason}{detail}", file=sys.stderr)
        return 1
    solver_cfg = cfg.solver_config()
    kind = args.precond or solver_cfg.precond
    ev = model.evaluate(result.phi, params)
    shift = ev.energy.characteristic if solver_cfg.shift == "adaptive" else solver_cfg.shift
    try:
        p = precond.Preconditioner(kind, grid.spectrum(False)).refresh(shift, ev.w)
    except ValueError as err:  # an adaptive shift that is not positive
        print(f"condition analysis failed: {err}", file=sys.stderr)
        return 1
    report = classic.precond_hessian_condition(result.phi, params, p)
    print(f"precond = {kind}")
    print(f"sigma = {report.sigma}")
    if report.warning:
        print(f"warning = {report.warning}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args, multigrid=False)
        if args.command == "multigrid":
            return _cmd_solve(args, multigrid=True)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_analyze(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
