"""The two optimizer steps every method run is built from, and their alternation.

``irs_step`` runs the named IRS beamformer on the forms built at the current
whitened link and precoder, then refreshes the link through
``model.link_state`` at the new v; ``precoder_step`` runs the named precoder
optimizer on the quadratics it is given, and re-scores its p.  Which solver
a method name runs is decided in these two steps alone: ``harness.run_method``
composes them, and ``joint_optimize`` alternates them, keeping a new
reflection vector only if the true secrecy objective did not drop (the
whitening covariances move with v, so a surrogate gain can be a
true-objective loss).  The loop scores each v by the ``secrecy_rate`` of the
quadratics built on the link refreshed at v, and the next precoder step
ascends on those of the v it keeps.  ``link_state`` is a
pure function of v: AN rides on the zero-phase analog subarrays, and its
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
    initial_phases,
    irs_admm,
    irs_bca,
    irs_sdr,
)
from .model import ChannelSet, HybridPrecoder, SystemConfig, WhitenedChannels, link_state
from .precoder_opt import PrecoderQuadratics, PrecoderResult, asr_sca, build_precoder_quadratics, cor_ga

# The single solvers by their harness method names.
IRS_SOLVERS = ("irs_bca", "irs_admm", "irs_sdr")
PRECODER_SOLVERS = ("asr_sca", "cor_ga")
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

    objective: float
    irs_accepted: bool
    irs_iterations: int
    precoder_iterations: int
    wall_s: float


@dataclass
class JointResult:
    v_star: IrsPhaseVector
    p_star: HybridPrecoder
    trace: list[TraceEntry]
    converged: bool
    objective: float
    extras: dict = field(default_factory=dict)


def irs_step(
    cfg: SystemConfig,
    method: str,
    wch: WhitenedChannels,
    v: np.ndarray,
    p: HybridPrecoder,
    ch: ChannelSet,
    seed: int,
    admm_settings: dict | None = None,
) -> tuple[BeamformerResult, WhitenedChannels]:
    """Run the named IRS solver from v on the forms built at (wch, p).

    Returns the solver's result and the whitened link of ``ch`` refreshed at
    its v.  SDR ignores v and draws its randomizations from ``seed``;
    ``admm_settings`` (keyword arguments of ``irs_admm``: tol, max_iters,
    inner_max) reach ``irs_admm`` alone.
    """
    qf = build_quadratic_forms(cfg, wch, p)
    if method == "irs_bca":
        res = irs_bca(qf, v0=v)
    elif method == "irs_admm":
        res = irs_admm(qf, v0=v, **(admm_settings or {}))
    else:
        res = irs_sdr(qf, seed=seed)
    return res, link_state(cfg, ch, res.v.v)[3]


def precoder_step(method: str, pq: PrecoderQuadratics, p: HybridPrecoder) -> tuple[PrecoderResult, float]:
    """Run the named precoder optimizer from p on the quadratics ``pq`` of a link point.

    Returns the result and the secrecy rate of its p on those quadratics,
    scored independently of what the optimizer reports.
    """
    res = asr_sca(pq, p) if method == "asr_sca" else cor_ga(pq, p)
    return res, pq.secrecy_rate(res.p.p)


def joint_optimize(
    cfg: SystemConfig,
    ch: ChannelSet,
    combination: str,
    v0: IrsPhaseVector | np.ndarray | None = None,
    p0: HybridPrecoder | None = None,
    seed: int = 0,
) -> JointResult:
    """Alternate the IRS step and the precoder step of a named combination.

    Stops when the end-of-iteration objective changes by at most EPSILON, or
    after MAX_OUTER iterations (converged flag cleared).  The recorded
    objective after each outer iteration never decreases: a v-step that
    lowers the true objective is reverted, and so is a precoder step that
    lowers it by more than 1e-9 (counted in ``extras["precoder_rejected"]``).
    """
    irs_method, pre_method = resolve_combination(combination)
    p = p0 if p0 is not None else HybridPrecoder.default_init(cfg)
    v = initial_phases(v0, cfg.n_irs)
    wch = link_state(cfg, ch, v)[3]
    pq = build_precoder_quadratics(cfg, wch, v)
    objective = pq.secrecy_rate(p)

    trace: list[TraceEntry] = []
    converged = False
    precoder_rejected = 0
    for k in range(1, MAX_OUTER + 1):
        tic = time.perf_counter()
        prev_objective = objective

        res_v, wch_cand = irs_step(cfg, irs_method, wch, v, p, ch, seed + k)
        v_cand = res_v.v.v
        pq_cand = build_precoder_quadratics(cfg, wch_cand, v_cand)
        obj_cand = pq_cand.secrecy_rate(p)
        if obj_cand < objective:
            accepted = False  # revert: keep v, wch and their quadratics
        else:
            accepted = True
            v, wch, pq, objective = v_cand, wch_cand, pq_cand, obj_cand

        res_p, obj_after = precoder_step(pre_method, pq, p)
        if obj_after < objective - 1e-9:
            precoder_rejected += 1  # revert: keep p and the objective
        else:
            p, objective = res_p.p, obj_after

        trace.append(TraceEntry(
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
        objective=float(objective),
        extras={"irs_method": irs_method, "precoder_method": pre_method,
                "precoder_rejected": precoder_rejected},
    )
