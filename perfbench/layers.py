"""The functions the traced pass wraps, and the per-layer metrics computed from its spans.

The layers are the package modules model, irs_opt, precoder_opt, joint and
harness; BENCHMARK.json lists every metric with its unit.

``rates`` is left unwrapped: the checks use it as the independent output
checker.  ``cli`` is not on the campaign path.
"""

from __future__ import annotations

from irs_ssm import harness, irs_opt, joint, model, precoder_opt

from perfbench.tracer import Tracer


def _beamformer(res, args):
    return {"iterations": res.iterations, "converged": int(res.converged)}, [("v", res.v.v)]


def _sdp(sol, args):
    return {"restarts": sol.restarts_used, "certified": int(sol.certified)}, []


def _cor_ga(res, args):
    counts = {"iterations": res.iterations, "accepted": len(res.trace) - 1, "converged": int(res.converged)}
    return counts, [("p", res.p.p, res.p.n_rf)]


def _asr_sca(res, args):
    counts = {"iterations": res.iterations, "inner_iterations": res.extras["inner_iterations"],
              "converged": int(res.converged)}
    return counts, [("p", res.p.p, res.p.n_rf)]


def _joint(res, args):
    cfg, ch = args[0], args[1]
    counts = {
        "outer_iterations": len(res.trace),
        "irs_accepted": sum(int(t.irs_accepted) for t in res.trace),
        "converged": int(res.converged),
        "outer_wall_s": sum(t.wall_s for t in res.trace),
    }
    items = [("v", res.v_star.v), ("p", res.p_star.p, res.p_star.n_rf), ("joint", cfg, ch, res)]
    return counts, items


def targets() -> list[tuple]:
    """(owner, attribute, span name, observer) for every wrapped function or method."""
    pq, sca = precoder_opt.PrecoderQuadratics, precoder_opt.ScaSubproblem
    return [
        (model, "link_state", "model.link_state", None),
        (irs_opt, "build_quadratic_forms", "irs_opt.build_quadratic_forms", None),
        (irs_opt.QuadraticForms, "secrecy_rate", "irs_opt.QuadraticForms.secrecy_rate", None),
        (irs_opt, "irs_bca", "irs_opt.irs_bca", _beamformer),
        (irs_opt, "irs_admm", "irs_opt.irs_admm", _beamformer),
        (irs_opt, "irs_sdr", "irs_opt.irs_sdr", _beamformer),
        (irs_opt, "sdp_unit_diag", "irs_opt.sdp_unit_diag", _sdp),
        (pq, "gradient", "precoder_opt.PrecoderQuadratics.gradient", None),
        (pq, "secrecy_rate", "precoder_opt.PrecoderQuadratics.secrecy_rate", None),
        (pq, "pair_values", "precoder_opt.PrecoderQuadratics.pair_values", None),
        (precoder_opt, "build_precoder_quadratics", "precoder_opt.build_precoder_quadratics", None),
        (precoder_opt, "cor_ga", "precoder_opt.cor_ga", _cor_ga),
        (sca, "value", "precoder_opt.ScaSubproblem.value", None),
        (sca, "gradient", "precoder_opt.ScaSubproblem.gradient", None),
        (precoder_opt, "asr_sca", "precoder_opt.asr_sca", _asr_sca),
        (joint, "joint_optimize", "joint.joint_optimize", _joint),
        (harness, "draw_channels", "harness.draw_channels", None),
        (harness, "run_method", "harness.run_method", None),
        (harness, "summarize", "harness.summarize", None),
        (harness, "write_outputs", "harness.write_outputs", None),
    ]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced pass."""
    names = [target[2] for target in targets()]
    calls = {name: 0 for name in names}
    self_s = {name: 0.0 for name in names}
    refreshes = 0
    for idx, dt in enumerate(tracer.self_times()):
        name = tracer.names[idx]
        calls[name] += 1
        self_s[name] += dt
        if name == "model.link_state" and tracer.has_ancestor(idx, "joint.joint_optimize"):
            refreshes += 1
    c = tracer.counts
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in ("irs_opt.irs_bca", "irs_opt.irs_admm", "precoder_opt.cor_ga", "precoder_opt.asr_sca"):
        out[f"{name}.iterations"] = c[f"{name}.iterations"]
        out[f"{name}.converged_frac"] = _frac(c[f"{name}.converged"], calls[name])
    sdp = "irs_opt.sdp_unit_diag"
    out[f"{sdp}.restarts"] = c[f"{sdp}.restarts"]
    out[f"{sdp}.certified_frac"] = _frac(c[f"{sdp}.certified"], calls[sdp])
    out[f"{sdp}.errors"] = c[f"{sdp}.errors"]
    ga = "precoder_opt.cor_ga"
    out[f"{ga}.accept_ratio"] = _frac(c[f"{ga}.accepted"], c[f"{ga}.iterations"])
    out["precoder_opt.asr_sca.inner_iterations"] = c["precoder_opt.asr_sca.inner_iterations"]
    jo = "joint.joint_optimize"
    out[f"{jo}.outer_iterations"] = c[f"{jo}.outer_iterations"]
    out[f"{jo}.irs_accept_ratio"] = _frac(c[f"{jo}.irs_accepted"], c[f"{jo}.outer_iterations"])
    out[f"{jo}.converged_frac"] = _frac(c[f"{jo}.converged"], calls[jo])
    out[f"{jo}.refreshes"] = refreshes
    out["joint.outer_iteration_ms"] = 1e3 * _frac(c[f"{jo}.outer_wall_s"], c[f"{jo}.outer_iterations"])
    return out
