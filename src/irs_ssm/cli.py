"""Command-line harness: run campaigns, print FLOP models, self-validate."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .irs_opt import IrsPhaseVector, build_quadratic_forms, sdp_unit_diag
from .joint import IRS_SOLVERS, PRECODER_SOLVERS
from .model import (
    HybridPrecoder,
    SystemConfig,
    assemble_analog_matrix,
    default_analog_blocks,
    effective_channels,
    enumerate_hypotheses,
    hypothesis_matrix,
    inv_sqrt_hermitian,
    link_state,
)
from .precoder_opt import ScaSubproblem, build_precoder_quadratics
from .rates import kappa


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
        overrides["system"] = harness.full_scale_config(
            geometry=spec.system.geometry, beta=spec.system.beta
        )
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
    if args.n_irs:
        cfg = replace(cfg, n_irs=args.n_irs)
    print(f"N={cfg.n_irs}, N_RF={cfg.n_rf}, N_k={cfg.n_k}, M={cfg.m_ary}, "
          f"iterations D={args.iterations}")
    for m in IRS_SOLVERS + PRECODER_SOLVERS:
        est = harness.flop_estimates(cfg, m, iterations=args.iterations)
        print(f"  {m:>8s}: {est.count:>18,.0f} FLOPs   {est.big_o}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    return ok


def _validation_instance(seed: int, cfg: SystemConfig | None = None):
    cfg = cfg or harness.desk_config(n_rf=2, n_k=2, n_irs=6, m_ary=2,
                                     p_total=harness.db_to_linear(10.0))
    ch = harness.draw_channels(cfg, seed)
    v = IrsPhaseVector.random(cfg.n_irs, np.random.default_rng(seed)).v
    wch = link_state(cfg, ch, v)[3]
    return cfg, ch, v, wch


def _cmd_validate(args: argparse.Namespace) -> int:
    ok = True
    rng = np.random.default_rng(0)

    # cut-off-rate sum: K x K Gram kernel vs dense per-pair products
    worst = 0.0
    for seed in range(3):
        cfg, ch, v, wch = _validation_instance(seed)
        p = HybridPrecoder.default_init(cfg)
        hyps = enumerate_hypotheses(cfg)
        w_b, _ = effective_channels(wch, v)
        fast = kappa(w_b, hypothesis_matrix(cfg), p, cfg.tau)
        naive = 0.0
        for hm in hyps:
            for hn in hyps:
                dm = np.diag(hm.x_vec) - np.diag(hn.x_vec)
                naive += np.exp(-cfg.tau * np.linalg.norm(w_b @ dm @ p.p) ** 2)
        worst = max(worst, abs(fast - naive) / naive)
    ok &= _check("pairwise exponent sum vs dense recomputation", worst < 1e-10, f"rel err {worst:.2e}")

    # quadratic-form surrogate vs direct pairwise norms
    worst = 0.0
    for seed in range(2):
        cfg, ch, v, wch = _validation_instance(seed)
        p = HybridPrecoder.default_init(cfg)
        qf = build_quadratic_forms(cfg, wch, p)
        for _ in range(10):
            vv = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs))
            qb, qe = qf.pair_quadratics(vv)
            direct = cfg.tau * np.log2(np.e) * (np.sum(qb) - np.sum(qe))
            worst = max(worst, abs(qf.surrogate_value(vv) - direct) / max(1.0, abs(direct)))
    ok &= _check("surrogate vs direct exponent norms", worst < 1e-8, f"rel err {worst:.2e}")

    # cut-off-rate gradient vs central finite differences
    worst = 0.0
    for seed in range(2):
        cfg, ch, v, wch = _validation_instance(seed)
        pq = build_precoder_quadratics(cfg, wch, v)
        p = HybridPrecoder.default_init(cfg).p * 0.5
        g = pq.gradient(p)
        for _ in range(2):
            d = rng.standard_normal(len(p)) + 1j * rng.standard_normal(len(p))
            d /= np.linalg.norm(d)
            h = 1e-5
            fd = (pq.secrecy_rate(p + h * d) - pq.secrecy_rate(p - h * d)) / (2 * h)
            pred = np.real(np.vdot(g, d))
            worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-12))
    ok &= _check("gradient vs finite differences", worst < 1e-4, f"rel err {worst:.2e}")

    # memoized forward pass: a gradient read after rate evaluations at other
    # points equals a fresh instance's, bit for bit
    memo_ok = True
    for seed in range(2):
        cfg, ch, v, wch = _validation_instance(seed)
        pq = build_precoder_quadratics(cfg, wch, v)
        points = [HybridPrecoder.default_init(cfg).p * s for s in (0.5, 0.7, 0.9)]
        for p in points:
            for other in points:
                pq.secrecy_rate(other)  # leaves the pass of the last point memoized
            fresh = build_precoder_quadratics(cfg, wch, v).gradient(p)
            memo_ok &= np.array_equal(pq.gradient(p), fresh)
    ok &= _check("memoized gradient vs fresh quadratics", memo_ok, "bit-equal" if memo_ok else "")

    # SCA bounds: tight at the expansion point, valid nearby
    cfg, ch, v, wch = _validation_instance(1)
    pq = build_precoder_quadratics(cfg, wch, v)
    p0 = HybridPrecoder.default_init(cfg).p
    sub = ScaSubproblem(pq, p0)
    kb0, ke0 = pq.kappas(p0)
    tight = max(abs(sub.eve_lower(p0) - np.log2(ke0)), abs(sub.bob_upper(p0) - np.log2(kb0)))
    bound_ok = True
    for _ in range(20):
        d = rng.standard_normal(len(p0)) + 1j * rng.standard_normal(len(p0))
        p_test = p0 + 0.1 * d / np.linalg.norm(d)
        kb, ke = pq.kappas(p_test)
        bound_ok &= sub.eve_lower(p_test) <= np.log2(ke) + 1e-9
        bound_ok &= sub.bob_upper(p_test) >= np.log2(kb) - 1e-9
    ok &= _check("SCA bound tightness and directions", tight < 1e-10 and bound_ok,
                 f"tightness {tight:.2e}")

    # unit-diagonal SDP: identity objective and relaxation dominance
    sol_eye = sdp_unit_diag(np.eye(5, dtype=complex))
    k = 6
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    psi = 0.5 * (a + a.conj().T)
    sol = sdp_unit_diag(psi)
    diag_err = float(np.max(np.abs(np.diag(sol.q).real - 1.0)))
    eig_min = float(np.linalg.eigvalsh(sol.q)[0])
    vs = np.exp(1j * rng.uniform(0, 2 * np.pi, (200, k)))
    best_random = float(np.max(np.einsum("si,ij,sj->s", np.conj(vs), psi, vs).real))
    ok &= _check(
        "unit-diagonal SDP validity and dominance",
        abs(sol_eye.value - 5.0) < 1e-6 and diag_err < 1e-6 and eig_min > -1e-6
        and sol.value >= best_random - 1e-6,
        f"value gap {sol.value - best_random:.3e}",
    )

    # whitening round trip
    cfg, ch, v, wch = _validation_instance(2)
    an, omega_b, _, _ = link_state(cfg, ch, v)
    round_trip = np.linalg.norm(
        np.linalg.inv(inv_sqrt_hermitian(omega_b)) @ wch.h - ch.h
    ) / np.linalg.norm(ch.h)
    ok &= _check("whitening round trip", round_trip < 1e-8, f"rel err {round_trip:.2e}")

    # AN projection nulls the effective Bob channel when n_rf > n_b
    cfg4 = harness.desk_config(n_irs=8)
    ch4 = harness.draw_channels(cfg4, 3)
    v4 = np.ones(cfg4.n_irs, dtype=complex)
    an4 = link_state(cfg4, ch4, v4)[0]
    base = effective_channels(ch4, v4)[0] @ assemble_analog_matrix(default_analog_blocks(cfg4))
    leak = np.linalg.norm(base @ an4.t_an)
    scale = np.linalg.norm(base)
    ok &= _check("AN projection null-space property", leak < 1e-6 * scale,
                 f"leak {leak:.2e}")

    print("validation " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


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
                       help="swap in the full-scale system parameters")
    p_run.set_defaults(func=_cmd_run)

    p_flops = sub.add_parser("flops", help="print the FLOP-count models")
    p_flops.add_argument("--n-irs", type=int, default=None, help="reflecting-element count")
    p_flops.add_argument("--iterations", type=int, default=1, help="iteration count D")
    p_flops.add_argument("--full-scale", action="store_true")
    p_flops.set_defaults(func=_cmd_flops)

    p_val = sub.add_parser("validate", help="run the built-in oracle self-checks")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
