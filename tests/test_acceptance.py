"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 8 reproduces the qualitative behavior of the system at desk scale
(N=16, N_RF=4, N_k=2, M=4, 100 channel trials, 10..30 dBm transmit power).
Statistical ordering claims between near-equivalent optimizers are certified
as "no significant inversion" under a one-sided paired t-test at the 0.05
level; superiority p-values are reported alongside for transparency.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ttest_rel

from irs_ssm.harness import (
    ExperimentSpec,
    desk_config,
    draw_channels,
    flop_estimates,
    run_experiment,
)
from irs_ssm.irs_opt import build_quadratic_forms, irs_admm, irs_bca, irs_sdr
from irs_ssm.joint import joint_optimize
from irs_ssm.model import HybridPrecoder, db_to_linear, effective_channels, enumerate_hypotheses
from irs_ssm.precoder_opt import (
    ScaSubproblem,
    build_precoder_quadratics,
    cor_ga,
    project_ball,
)
from irs_ssm.rates import approx_secrecy_rate

from _oracles import grid_search_phases, kappa_dense, surrogate_direct
from _instances import make_instance

DESK = dict(n_rf=4, n_k=2, n_irs=16, m_ary=4)
THREADS = 2


def report(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _paired_p(greater: np.ndarray, lesser: np.ndarray) -> float:
    """One-sided paired-t p-value for mean(greater) > mean(lesser); 1.0 on ties."""
    if np.allclose(greater, lesser):
        return 1.0
    p = ttest_rel(greater, lesser, alternative="greater").pvalue
    return 1.0 if np.isnan(p) else float(p)


def test_criterion_1_oracle_equivalence():
    tic = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        inst = make_instance(seed, power_dbm=20.0, **DESK)
        rep = approx_secrecy_rate(inst.cfg, inst.wch, inst.v, inst.p)
        hyps = enumerate_hypotheses(inst.cfg)
        w_b, w_e = effective_channels(inst.wch, inst.v)
        kb = kappa_dense(w_b, hyps, inst.p.p, inst.cfg.tau, inst.cfg.n_rf, inst.cfg.n_k)
        ke = kappa_dense(w_e, hyps, inst.p.p, inst.cfg.tau, inst.cfg.n_rf, inst.cfg.n_k)
        worst = max(
            worst,
            abs(rep.kappa_b - kb) / kb,
            abs(rep.kappa_e - ke) / ke,
            abs(rep.r_approx - (np.log2(ke) - np.log2(kb))) / max(abs(rep.r_approx), 1e-12),
        )
    elapsed = time.perf_counter() - tic
    report(
        "1",
        worst < 1e-10 and elapsed < 10.0,
        f"kappa/secrecy-rate vs dense double loop: worst rel err {worst:.2e}, "
        f"50 seeds in {elapsed:.1f}s",
    )


def test_criterion_2_quadratic_form_consistency():
    worst = 0.0
    for seed in range(20):
        inst = make_instance(seed, n_rf=2, n_k=2, n_irs=4, m_ary=2, power_dbm=15.0)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, inst.cfg.n_irs))
            direct = surrogate_direct(inst.cfg, inst.wch, inst.p.p, v)
            err = abs(qf.surrogate_value(v) - direct) / max(1.0, abs(direct))
            worst = max(worst, err)
    report("2", worst < 1e-8, f"surrogate vs direct exponent norms: worst rel err {worst:.2e}")


@pytest.fixture(scope="module")
def grid_instances():
    """N=3 instances with their 1-degree exhaustive-grid surrogate optima."""
    out = []
    for seed in range(10):
        inst = make_instance(seed, n_rf=2, n_k=2, n_irs=3, m_ary=2, power_dbm=15.0)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        opt, _ = grid_search_phases(qf.surrogate_values, 3, n_points=360)
        out.append((inst, qf, opt))
    return out


def test_criterion_3_grid_optimality(grid_instances):
    worst = {"irs_sdr": -np.inf, "irs_admm": -np.inf, "irs_bca": -np.inf}
    slowest = 0.0
    for seed, (inst, qf, opt) in enumerate(grid_instances):
        tic = time.perf_counter()
        runs = {
            "irs_sdr": irs_sdr(qf, seed=seed).surrogate_value,
            "irs_admm": irs_admm(qf).surrogate_value,
            "irs_bca": irs_bca(qf).surrogate_value,
        }
        slowest = max(slowest, time.perf_counter() - tic)
        for name, val in runs.items():
            worst[name] = max(worst[name], (opt - val) / abs(opt))
    ok = (
        worst["irs_sdr"] <= 0.02
        and worst["irs_admm"] <= 0.02
        and worst["irs_bca"] <= 0.05
        and slowest < 60.0
    )
    report(
        "3",
        ok,
        "worst gap to 1-degree grid optimum: "
        f"sdr {worst['irs_sdr']:+.2e}, admm {worst['irs_admm']:+.2e}, "
        f"bca {worst['irs_bca']:+.2e}; slowest solver batch {slowest:.1f}s",
    )


def test_criterion_4_sdp_validity(grid_instances):
    worst_diag = 0.0
    worst_eig = 0.0
    worst_gap = np.inf
    cases = [(inst, qf) for inst, qf, _ in grid_instances]
    desk_inst = make_instance(99, power_dbm=20.0, **DESK)
    cases.append((desk_inst, build_quadratic_forms(desk_inst.cfg, desk_inst.wch, desk_inst.p)))
    for k, (_, qf) in enumerate(cases):
        res = irs_sdr(qf, seed=k)
        from irs_ssm.irs_opt import sdp_unit_diag

        n = qf.n_irs
        psi = np.zeros((n + 1, n + 1), dtype=complex)
        psi[:n, :n] = qf.phi
        psi[:n, n] = np.conj(qf.delta)
        psi[n, :n] = qf.delta
        sol = sdp_unit_diag(0.5 * (psi + psi.conj().T))
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(sol.q).real - 1.0))))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(sol.q)[0]))
        rng = np.random.default_rng(k)
        vs = np.exp(1j * rng.uniform(0, 2 * np.pi, (1000, n)))
        gap = res.extras["sdp_bound"] - float(np.max(qf.surrogate_values(vs)))
        worst_gap = min(worst_gap, gap + 1e-9 * max(1.0, abs(res.extras["sdp_bound"])))
    ok = worst_diag < 1e-6 and worst_eig < 1e-6 and worst_gap >= 0.0
    report(
        "4",
        ok,
        f"unit diag err {worst_diag:.1e}, min eig {-worst_eig:.1e}, "
        f"min (bound - best random surrogate) {worst_gap:+.2e}",
    )


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(17)
    worst = 0.0
    checked = 0
    for seed in range(4):
        inst = make_instance(seed, n_rf=2, n_k=2, n_irs=6, m_ary=2, power_dbm=12.0)
        pq = build_precoder_quadratics(inst.cfg, inst.wch, inst.v)
        for _ in range(5):
            p = project_ball(
                rng.standard_normal(inst.cfg.n_tx) + 1j * rng.standard_normal(inst.cfg.n_tx),
                inst.cfg.n_rf,
            ) * 0.9
            g = pq.gradient(p)
            d = rng.standard_normal(inst.cfg.n_tx) + 1j * rng.standard_normal(inst.cfg.n_tx)
            d /= np.linalg.norm(d)
            h = 1e-5
            fd = (pq.secrecy_rate(p + h * d) - pq.secrecy_rate(p - h * d)) / (2 * h)
            worst = max(worst, abs(np.real(np.vdot(g, d)) - fd) / max(abs(fd), 1e-10))
            checked += 1
    report("5", worst <= 1e-4 and checked == 20,
           f"gradient vs central differences over {checked} points: worst rel err {worst:.2e}")


def test_criterion_6_sca_bounds():
    rng = np.random.default_rng(23)
    worst_tight = 0.0
    violations = 0
    for seed in range(20):
        inst = make_instance(seed, n_rf=2, n_k=2, n_irs=5, m_ary=2, power_dbm=12.0)
        pq = build_precoder_quadratics(inst.cfg, inst.wch, inst.v)
        p0 = project_ball(
            rng.standard_normal(inst.cfg.n_tx) + 1j * rng.standard_normal(inst.cfg.n_tx),
            inst.cfg.n_rf,
        )
        sub = ScaSubproblem(pq, p0)
        kb0, ke0 = pq.kernel.at(p0).kappa
        worst_tight = max(
            worst_tight,
            abs(sub.eve_lower(p0) - np.log2(ke0)),
            abs(sub.bob_upper(p0) - np.log2(kb0)),
        )
        for _ in range(100):
            step = rng.standard_normal(inst.cfg.n_tx) + 1j * rng.standard_normal(inst.cfg.n_tx)
            p = p0 + 0.2 * step / np.linalg.norm(step)
            kb, ke = pq.kernel.at(p).kappa
            violations += sub.eve_lower(p) > np.log2(ke) + 1e-9
            violations += sub.bob_upper(p) < np.log2(kb) - 1e-9
    report("6", worst_tight <= 1e-10 and violations == 0,
           f"expansion-point tightness {worst_tight:.2e}, bound violations {violations}/4000")


def test_criterion_7_monotone_ascent():
    bad = []
    for seed in range(50):
        inst = make_instance(seed, power_dbm=20.0, **DESK)
        qf = build_quadratic_forms(inst.cfg, inst.wch, inst.p)
        tr = np.array(irs_bca(qf, trace_elements=True).trace)
        if not np.all(np.diff(tr) >= -1e-9):
            bad.append(("bca", seed))
        pq = build_precoder_quadratics(inst.cfg, inst.wch, inst.v)
        tr = np.array(cor_ga(pq, HybridPrecoder.default_init(inst.cfg)).trace)
        if not np.all(np.diff(tr) >= -1e-9):
            bad.append(("cor_ga", seed))
    cfg = desk_config(p_total=db_to_linear(20.0))
    for seed in range(50):
        combo = ("I", "II", "III")[seed % 3]
        res = joint_optimize(cfg, draw_channels(cfg, 7000 + seed), combo, seed=seed)
        objs = [t.objective for t in res.trace]
        if not all(b >= a - 1e-9 for a, b in zip(objs, objs[1:])):
            bad.append((f"joint_{combo}", seed))
    report("7", not bad, f"non-decreasing traces over 50 seeds each; violations: {bad or 'none'}")


@pytest.fixture(scope="module")
def desk_campaigns():
    """The shared desk-scale Monte Carlo campaigns behind criterion 8."""
    tic = time.perf_counter()
    system = desk_config()
    base = dict(system=system, n_channel_trials=100, base_seed=2024, threads=THREADS)
    power = run_experiment(ExperimentSpec(
        kind="sr_vs_power", powers_dbm=(10.0, 20.0, 30.0),
        combinations=("random_phase", "irs_bca", "irs_admm", "irs_sdr"), **base))
    precoder = run_experiment(ExperimentSpec(
        kind="sr_vs_power", powers_dbm=(10.0, 30.0),
        combinations=("irs_bca", "asr_sca", "cor_ga"), **base))
    cdf = run_experiment(ExperimentSpec(
        kind="cdf", powers_dbm=(30.0,), n_e_values=(2, 4, 6),
        combinations=("irs_bca", "irs_admm", "irs_sdr"), **base))
    convergence = run_experiment(ExperimentSpec(
        kind="convergence", powers_dbm=(30.0,),
        combinations=("joint_I", "joint_II", "joint_III"), **base))
    elements = run_experiment(ExperimentSpec(
        kind="sr_vs_elements", powers_dbm=(20.0,), n_irs_values=(20, 30, 40, 50),
        combinations=("joint_I",), **base))
    return {
        "power": power,
        "precoder": precoder,
        "cdf": cdf,
        "convergence": convergence,
        "elements": elements,
        "wall_s": time.perf_counter() - tic,
    }


def _mean_table(summary):
    out = {}
    for agg in summary["aggregates"]:
        out[(agg["grid"]["power_dbm"], agg["grid"]["n_irs"], agg["grid"]["n_e"], agg["method"])] = agg["mean_sr"]
    return out


def _per_trial(records, gp_index, method):
    return np.array([r.outputs[method].sr_bits for r in records if r.gp_index == gp_index])


@pytest.mark.slow
def test_criterion_8_qualitative_replication(desk_campaigns):
    failures = []

    # (a) optimized IRS methods beat random phase at every power point, and
    # every method's mean rises strictly with transmit power
    records, summary = desk_campaigns["power"]
    means = _mean_table(summary)
    powers = (10.0, 20.0, 30.0)
    for p_dbm in powers:
        base = means[(p_dbm, 16, 2, "random_phase")]
        for m in ("irs_bca", "irs_admm", "irs_sdr"):
            if means[(p_dbm, 16, 2, m)] < base:
                failures.append(f"(a) {m} below random phase at {p_dbm} dBm")
    for m in ("random_phase", "irs_bca", "irs_admm", "irs_sdr"):
        seq = [means[(p, 16, 2, m)] for p in powers]
        if not all(b > a for a, b in zip(seq, seq[1:])):
            failures.append(f"(a) mean SR not strictly increasing in power for {m}: {seq}")
    print(f"[criterion 8a] means at 30 dBm: " + ", ".join(
        f"{m}={means[(30.0, 16, 2, m)]:.4f}" for m in ("random_phase", "irs_bca", "irs_admm", "irs_sdr")))

    # (b) SDR >= ADMM >= BCA at 30 dBm: certified as no significant inversion
    # (one-sided paired t at 0.05); superiority p-values reported for context
    gp30 = 2  # third grid point of the power campaign
    sdr = _per_trial(records, gp30, "irs_sdr")
    admm = _per_trial(records, gp30, "irs_admm")
    bca = _per_trial(records, gp30, "irs_bca")
    p_inv_1 = _paired_p(admm, sdr)
    p_inv_2 = _paired_p(bca, admm)
    p_sup_1 = _paired_p(sdr, admm)
    p_sup_2 = _paired_p(admm, bca)
    if p_inv_1 < 0.05:
        failures.append(f"(b) significant inversion ADMM > SDR (p={p_inv_1:.4f})")
    if p_inv_2 < 0.05:
        failures.append(f"(b) significant inversion BCA > ADMM (p={p_inv_2:.4f})")
    print(f"[criterion 8b] paired deltas at 30 dBm: sdr-admm {np.mean(sdr - admm):+.2e} "
          f"(superiority p={p_sup_1:.3f}), admm-bca {np.mean(admm - bca):+.2e} "
          f"(superiority p={p_sup_2:.3f})")

    # (c) ASR-SCA >= COR-GA in mean SR at the highest power point
    rec_p, sum_p = desk_campaigns["precoder"]
    means_p = _mean_table(sum_p)
    sca30 = means_p[(30.0, 16, 2, "asr_sca")]
    ga30 = means_p[(30.0, 16, 2, "cor_ga")]
    if sca30 < ga30:
        failures.append(f"(c) ASR-SCA ({sca30:.4f}) below COR-GA ({ga30:.4f}) at 30 dBm")
    print(f"[criterion 8c] 30 dBm means: asr_sca={sca30:.4f}, cor_ga={ga30:.4f}, "
          f"no-precoding baseline={means_p[(30.0, 16, 2, 'irs_bca')]:.4f}")

    # (d) CDF curves shift left as Eve's antenna count grows 2 -> 4 -> 6
    _, sum_cdf = desk_campaigns["cdf"]
    quantile_keys = ("0.10", "0.30", "0.50", "0.70", "0.90")
    for m in ("irs_bca", "irs_admm", "irs_sdr"):
        per_ne = {}
        for entry in sum_cdf["cdf"].values():
            if entry["method"] == m:
                per_ne[entry["grid"]["n_e"]] = entry["quantiles"]
        for lo_ne, hi_ne in ((2, 4), (4, 6)):
            shifts = [per_ne[hi_ne][q] <= per_ne[lo_ne][q] for q in quantile_keys]
            if not all(shifts):
                failures.append(f"(d) CDF of {m} did not shift left from n_e={lo_ne} to {hi_ne}")
    print("[criterion 8d] median SR by n_e (irs_sdr): " + ", ".join(
        f"{entry['grid']['n_e']}:{entry['quantiles']['0.50']:.3f}"
        for entry in sum_cdf["cdf"].values() if entry["method"] == "irs_sdr"))

    # (e) the three joint combinations converge within 10 outer iterations
    rec_c, _ = desk_campaigns["convergence"]
    worst_iters = 0
    for r in rec_c:
        for m, o in r.outputs.items():
            worst_iters = max(worst_iters, o.iterations)
            if o.iterations > 10:
                failures.append(f"(e) {m} took {o.iterations} outer iterations (trial {r.trial})")
    print(f"[criterion 8e] worst outer-iteration count across combinations: {worst_iters}")

    # (f) mean SR non-decreasing in the IRS element count
    _, sum_n = desk_campaigns["elements"]
    by_n = {agg["grid"]["n_irs"]: agg["mean_sr"] for agg in sum_n["aggregates"]}
    seq = [by_n[n] for n in (20, 30, 40, 50)]
    if not all(b >= a for a, b in zip(seq, seq[1:])):
        failures.append(f"(f) mean SR not non-decreasing in N: {seq}")
    print(f"[criterion 8f] mean SR vs N(20,30,40,50): {[round(s, 4) for s in seq]}")

    wall_min = desk_campaigns["wall_s"] / 60.0
    if wall_min >= 30.0:
        failures.append(f"campaign runtime {wall_min:.1f} min exceeds 30 min")
    report("8", not failures,
           f"desk-scale replication in {wall_min:.1f} min; " + ("; ".join(failures) or "all sub-checks hold"))


def test_criterion_9_flop_ordering():
    ok = True
    details = []
    for n in (25, 50, 100):
        cfg = desk_config(n_irs=n)
        counts = {m: flop_estimates(cfg, m, iterations=1).count
                  for m in ("irs_bca", "irs_admm", "irs_sdr")}
        ok &= counts["irs_bca"] < counts["irs_admm"] < counts["irs_sdr"]
        details.append(f"N={n}: {counts['irs_bca']:.3g} < {counts['irs_admm']:.3g} < {counts['irs_sdr']:.3g}")
    report("9", ok, "; ".join(details))


def test_criterion_10_reproducibility(tmp_path):
    spec1 = ExperimentSpec(
        kind="sr_vs_power",
        system=desk_config(n_irs=8),
        powers_dbm=(10.0, 30.0),
        n_channel_trials=4,
        base_seed=99,
        combinations=("random_phase", "irs_bca", "joint_II"),
        output_path=str(tmp_path / "one"),
        threads=1,
        deterministic_timing=True,
    )
    spec2 = replace(spec1, threads=2, output_path=str(tmp_path / "two"))
    run_experiment(spec1)
    run_experiment(spec2)
    csv_same = (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    json_same = (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    report("10", csv_same and json_same,
           f"byte-identical outputs across thread counts: csv={csv_same}, json={json_same}")
