"""Alternating joint optimization of the reflection vector and the precoder.

Each outer iteration runs the chosen IRS beamformer at the current precoder,
keeps the new reflection vector only if the true secrecy objective did not
drop (the whitening covariances move with v, so a surrogate gain can be a
true-objective loss), then runs the chosen precoder optimizer at the accepted
reflection state.  The whitened link is refreshed through ``model.link_state``
whenever v changes.  That map is a pure function of v: AN rides on the
zero-phase analog subarrays, and its shaping matrix is the null-space
projector of the effective Bob channel (n_rf > n_b) or the identity, the
only choice needed since every unitary gives the same covariances.  So the
precoder steps are genuine ascent of the recorded objective, and restarting
from a returned fixed point reproduces the same landscape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .irs_opt import (
    BeamformerResult,
    IrsPhaseVector,
    build_quadratic_forms,
    irs_admm,
    irs_bca,
    irs_sdr,
)
from .model import (
    ChannelSet,
    Constellation,
    HybridPrecoder,
    SystemConfig,
    link_state,
)
from .precoder_opt import PrecoderResult, asr_sca, build_precoder_quadratics, cor_ga

IRS_METHODS = ("bca", "admm", "sdr")
PRECODER_METHODS = ("sca", "ga")

# Combination naming: I = BCA+SCA, II = SDR+GA, III = ADMM+GA.
NAMED_COMBINATIONS: dict[str, tuple[str, str]] = {
    "I": ("bca", "sca"),
    "II": ("sdr", "ga"),
    "III": ("admm", "ga"),
}


def resolve_combination(combination: str | tuple[str, str]) -> tuple[str, str, str]:
    """Normalize a combination spec to (irs_method, precoder_method, id)."""
    if isinstance(combination, str):
        if combination not in NAMED_COMBINATIONS:
            raise ValueError(f"unknown combination {combination!r}")
        irs_m, pre_m = NAMED_COMBINATIONS[combination]
        return irs_m, pre_m, combination
    irs_m, pre_m = combination
    if irs_m not in IRS_METHODS or pre_m not in PRECODER_METHODS:
        raise ValueError(f"combination {combination!r} not in {IRS_METHODS} x {PRECODER_METHODS}")
    for name, pair in NAMED_COMBINATIONS.items():
        if pair == (irs_m, pre_m):
            return irs_m, pre_m, name
    return irs_m, pre_m, f"{irs_m}+{pre_m}"


@dataclass(frozen=True)
class TraceEntry:
    """One outer iteration of the alternation."""

    iteration: int
    objective: float
    irs_accepted: bool
    irs_iterations: int
    precoder_iterations: int
    wall_s: float

    def signature(self) -> tuple:
        """Deterministic fields only (wall time excluded)."""
        return (self.iteration, round(self.objective, 12), self.irs_accepted,
                self.irs_iterations, self.precoder_iterations)


@dataclass
class JointResult:
    v_star: IrsPhaseVector
    p_star: HybridPrecoder
    trace: list[TraceEntry]
    converged: bool
    combination_id: str
    objective: float
    extras: dict = field(default_factory=dict)

    def signature(self) -> tuple:
        return tuple(entry.signature() for entry in self.trace)


def _run_irs(method: str, qf, v: np.ndarray, seed: int, kwargs: dict) -> BeamformerResult:
    if method == "bca":
        return irs_bca(qf, v0=v, **kwargs)
    if method == "admm":
        return irs_admm(qf, v0=v, **kwargs)
    return irs_sdr(qf, seed=seed, **kwargs)


def _run_precoder(method: str, pq, p: HybridPrecoder, kwargs: dict) -> PrecoderResult:
    if method == "sca":
        return asr_sca(pq, p, **kwargs)
    return cor_ga(pq, p, **kwargs)


def joint_optimize(
    cfg: SystemConfig,
    ch: ChannelSet,
    combination: str | tuple[str, str],
    v0: IrsPhaseVector | np.ndarray | None = None,
    p0: HybridPrecoder | None = None,
    epsilon: float = 0.01,
    max_outer: int = 30,
    seed: int = 0,
    cons: Constellation | None = None,
    irs_kwargs: dict | None = None,
    precoder_kwargs: dict | None = None,
) -> JointResult:
    """Alternate the chosen IRS beamformer and precoder optimizer.

    Stops when the end-of-iteration objective changes by at most epsilon, or
    after max_outer iterations (converged flag cleared).  The recorded
    objective after each outer iteration never decreases: a v-step that
    lowers the true objective is reverted, and so is a precoder step that
    lowers it by more than 1e-9 (counted in ``extras["precoder_rejected"]``).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    irs_method, pre_method, combo_id = resolve_combination(combination)
    cons = cons if cons is not None else Constellation.psk(cfg.m_ary)
    p = p0 if p0 is not None else HybridPrecoder.default_init(cfg)
    v = (v0.v if isinstance(v0, IrsPhaseVector) else np.asarray(v0)).copy() if v0 is not None else np.ones(cfg.n_irs, dtype=complex)
    irs_kwargs = dict(irs_kwargs or {})
    precoder_kwargs = dict(precoder_kwargs or {})

    def refresh(v_now: np.ndarray):
        return link_state(cfg, ch, v_now)[3]

    wch = refresh(v)
    qf = build_quadratic_forms(cfg, wch, p, cons)
    objective = qf.secrecy_rate(v)

    trace: list[TraceEntry] = []
    converged = False
    precoder_rejected = 0
    for k in range(1, max_outer + 1):
        tic = time.perf_counter()
        prev_objective = objective

        res_v = _run_irs(irs_method, qf, v, seed=seed + k, kwargs=irs_kwargs)
        v_cand = res_v.v.v
        wch_cand = refresh(v_cand)
        qf_cand = build_quadratic_forms(cfg, wch_cand, p, cons)
        obj_cand = qf_cand.secrecy_rate(v_cand)
        if obj_cand < objective:
            accepted = False  # revert: keep v, wch, qf
        else:
            accepted = True
            v, wch, qf, objective = v_cand, wch_cand, qf_cand, obj_cand

        pq = build_precoder_quadratics(cfg, wch, v, cons)
        res_p = _run_precoder(pre_method, pq, p, precoder_kwargs)
        obj_after = pq.secrecy_rate(res_p.p.p)
        if obj_after < objective - 1e-9:
            precoder_rejected += 1  # revert: keep p and the objective
        else:
            p, objective = res_p.p, obj_after
        qf = build_quadratic_forms(cfg, wch, p, cons)  # forms follow the accepted p

        trace.append(TraceEntry(
            iteration=k,
            objective=float(objective),
            irs_accepted=accepted,
            irs_iterations=res_v.iterations,
            precoder_iterations=res_p.iterations,
            wall_s=time.perf_counter() - tic,
        ))
        if abs(objective - prev_objective) <= epsilon:
            converged = True
            break

    return JointResult(
        v_star=IrsPhaseVector(v),
        p_star=p,
        trace=trace,
        converged=converged,
        combination_id=combo_id,
        objective=float(objective),
        extras={"irs_method": irs_method, "precoder_method": pre_method,
                "precoder_rejected": precoder_rejected},
    )
