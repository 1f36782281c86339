"""Alternating joint optimization of the reflection vector and the precoder.

Each outer iteration runs the chosen IRS beamformer at the current precoder,
keeps the new reflection vector only if the true secrecy objective did not
drop (the whitening covariances move with v, so a surrogate gain can be a
true-objective loss), then runs the chosen precoder optimizer at the accepted
reflection state.  The whitened link is refreshed through ``model.link_state``
whenever v changes, and every objective value the loop compares is
``rates.secrecy_rate`` on the hypothesis stack of the config; the IRS forms
are built once per outer iteration, for the solver alone.  ``link_state`` is
a pure function of v: AN rides on the zero-phase analog subarrays, and its
shaping matrix is the null-space projector of the effective Bob channel
(n_rf > n_b) or the identity, the only choice needed since every unitary
gives the same covariances.  So the precoder steps are genuine ascent of the
recorded objective, and restarting from a returned fixed point reproduces
the same landscape.
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
    HybridPrecoder,
    SystemConfig,
    effective_channels,
    hypothesis_matrix,
    link_state,
)
from .precoder_opt import PrecoderResult, asr_sca, build_precoder_quadratics, cor_ga
from .rates import secrecy_rate

# The paper's three combinations, by the harness method names of their solvers.
NAMED_COMBINATIONS: dict[str, tuple[str, str]] = {
    "I": ("irs_bca", "asr_sca"),
    "II": ("irs_sdr", "cor_ga"),
    "III": ("irs_admm", "cor_ga"),
}
EPSILON = 0.01  # stop once an outer iteration changes the objective by at most this
MAX_OUTER = 30


def resolve_combination(combination: str) -> tuple[str, str]:
    """(IRS solver, precoder solver) of a named combination."""
    if combination not in NAMED_COMBINATIONS:
        raise ValueError(f"unknown combination {combination!r}; choose from {tuple(NAMED_COMBINATIONS)}")
    return NAMED_COMBINATIONS[combination]


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


def _run_irs(method: str, qf, v: np.ndarray, seed: int) -> BeamformerResult:
    if method == "irs_bca":
        return irs_bca(qf, v0=v)
    if method == "irs_admm":
        return irs_admm(qf, v0=v)
    return irs_sdr(qf, seed=seed)


def _run_precoder(method: str, pq, p: HybridPrecoder) -> PrecoderResult:
    if method == "asr_sca":
        return asr_sca(pq, p)
    return cor_ga(pq, p)


def joint_optimize(
    cfg: SystemConfig,
    ch: ChannelSet,
    combination: str,
    v0: IrsPhaseVector | np.ndarray | None = None,
    p0: HybridPrecoder | None = None,
    seed: int = 0,
) -> JointResult:
    """Alternate the IRS beamformer and precoder optimizer of a named combination.

    Stops when the end-of-iteration objective changes by at most EPSILON, or
    after MAX_OUTER iterations (converged flag cleared).  The recorded
    objective after each outer iteration never decreases: a v-step that
    lowers the true objective is reverted, and so is a precoder step that
    lowers it by more than 1e-9 (counted in ``extras["precoder_rejected"]``).
    """
    irs_method, pre_method = resolve_combination(combination)
    x_mat = hypothesis_matrix(cfg)
    p = p0 if p0 is not None else HybridPrecoder.default_init(cfg)
    v = (v0.v if isinstance(v0, IrsPhaseVector) else np.asarray(v0)).copy() if v0 is not None else np.ones(cfg.n_irs, dtype=complex)

    def refresh(v_now: np.ndarray):
        return link_state(cfg, ch, v_now)[3]

    def rate(wch_now, v_now: np.ndarray, p_now: HybridPrecoder) -> float:
        return secrecy_rate(*effective_channels(wch_now, v_now), x_mat, p_now, cfg.tau)

    wch = refresh(v)
    objective = rate(wch, v, p)

    trace: list[TraceEntry] = []
    converged = False
    precoder_rejected = 0
    for k in range(1, MAX_OUTER + 1):
        tic = time.perf_counter()
        prev_objective = objective

        qf = build_quadratic_forms(cfg, wch, p)
        res_v = _run_irs(irs_method, qf, v, seed=seed + k)
        v_cand = res_v.v.v
        wch_cand = refresh(v_cand)
        obj_cand = rate(wch_cand, v_cand, p)
        if obj_cand < objective:
            accepted = False  # revert: keep v and wch
        else:
            accepted = True
            v, wch, objective = v_cand, wch_cand, obj_cand

        pq = build_precoder_quadratics(cfg, wch, v)
        res_p = _run_precoder(pre_method, pq, p)
        obj_after = pq.secrecy_rate(res_p.p.p)
        if obj_after < objective - 1e-9:
            precoder_rejected += 1  # revert: keep p and the objective
        else:
            p, objective = res_p.p, obj_after

        trace.append(TraceEntry(
            iteration=k,
            objective=float(objective),
            irs_accepted=accepted,
            irs_iterations=res_v.iterations,
            precoder_iterations=res_p.iterations,
            wall_s=time.perf_counter() - tic,
        ))
        if abs(objective - prev_objective) <= EPSILON:
            converged = True
            break

    return JointResult(
        v_star=IrsPhaseVector(v),
        p_star=p,
        trace=trace,
        converged=converged,
        combination_id=combination,
        objective=float(objective),
        extras={"irs_method": irs_method, "precoder_method": pre_method,
                "precoder_rejected": precoder_rejected},
    )
