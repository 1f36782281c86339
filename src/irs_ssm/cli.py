"""Command-line harness: run campaigns and print FLOP models."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .joint import IRS_SOLVERS, PRECODER_SOLVERS


def _cmd_run(args: argparse.Namespace) -> int:
    spec = harness.load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.trials is not None:
        overrides["n_channel_trials"] = args.trials
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.full_scale:
        overrides["system"] = replace(spec.system, **harness.FULL_SCALE)
    if overrides:
        spec = replace(spec, **overrides)
    records, summary = harness.run_experiment(spec)
    n_rows = sum(len(r.outputs) for r in records)
    print(f"{spec.kind}: {len(records)} cells, {n_rows} method runs, "
          f"failure fraction {summary['failure_fraction']:.4f}")
    if spec.output_path:
        print(f"wrote {spec.output_path}.csv and {spec.output_path}.json")
    for agg in summary["aggregates"]:
        gp = agg["grid"]
        mean = "nan" if agg["mean_sr"] is None else f"{agg['mean_sr']:.4f}"
        print(f"  P={gp['power_dbm']:g}dBm N={gp['n_irs']} Ne={gp['n_e']} "
              f"y={gp['irs_y']:g} {agg['method']:>12s}: mean SR {mean} bits")
    return 0 if summary["failure_fraction"] <= 0.01 else 1


def _cmd_flops(args: argparse.Namespace) -> int:
    cfg = harness.full_scale_config() if args.full_scale else harness.desk_config()
    if args.n_irs is not None:
        cfg = replace(cfg, n_irs=args.n_irs)
    estimates = {m: harness.flop_estimates(cfg, m, iterations=args.iterations)
                 for m in IRS_SOLVERS + PRECODER_SOLVERS}
    print(f"N={cfg.n_irs}, N_RF={cfg.n_rf}, N_k={cfg.n_k}, M={cfg.m_ary}, "
          f"iterations D={args.iterations}")
    for m, est in estimates.items():
        print(f"  {m:>8s}: {est.count:>18,.0f} FLOPs   {est.big_o}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irs-ssm",
                                     description="IRS-aided secure spatial modulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo campaign from a YAML config")
    p_run.add_argument("config", help="path to the campaign config file")
    p_run.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_run.add_argument("--trials", type=int, default=None, help="override n_channel_trials")
    p_run.add_argument("--threads", type=int, default=None, help="worker process count")
    p_run.add_argument("--out", default=None, help="output path prefix (.csv/.json appended)")
    p_run.add_argument("--full-scale", action="store_true",
                       help="set the full-scale n_rf, n_k, n_irs, sigma_b2 and sigma_e2 on the file's system")
    p_run.set_defaults(func=_cmd_run)

    p_flops = sub.add_parser("flops", help="print the FLOP-count models")
    p_flops.add_argument("--n-irs", type=int, default=None, help="reflecting-element count")
    p_flops.add_argument("--iterations", type=int, default=1, help="iteration count D")
    p_flops.add_argument("--full-scale", action="store_true")
    p_flops.set_defaults(func=_cmd_flops)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
