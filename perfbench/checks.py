"""Output checks.  Every problem found marks its method run as failed.

The tolerances are those the package states for its own invariants: unit
modulus to 1e-9 (``IrsPhaseVector``) and the power ball to 1e-9 (the solvers'
starting-point check).  A rate bound or a trace order needs no tolerance:
both hold exactly in floating point (each kappa sums K exact ones plus terms in
[0, 1], and the joint loop promises a trace that never decreases).
"""

from __future__ import annotations

import math

import numpy as np

from irs_ssm import model, rates

UNIT_MODULUS_TOL = 1e-9
POWER_TOL = 1e-9
JOINT_OBJECTIVE_TOL = 1e-9


def outcome_problems(method: str, outcome, n_hyp: int) -> list[str]:
    """Checks on one ``harness.run_method`` outcome."""
    sr = outcome.sr_bits
    if not math.isfinite(sr):
        return [f"{method}: sr_bits {sr!r} is not finite"]
    problems = []
    if abs(sr) > math.log2(n_hyp):
        problems.append(f"{method}: |sr_bits| = {abs(sr)!r} above log2 K = {math.log2(n_hyp)!r}")
    trace = outcome.trace or []
    for k in range(1, len(trace)):
        if trace[k] < trace[k - 1]:
            problems.append(f"{method}: joint trace decreases at iteration {k + 1}: "
                            f"{trace[k - 1]!r} -> {trace[k]!r}")
    return problems


def traced_problems(item: tuple) -> list[str]:
    """Checks on one value returned inside a traced run (see ``layers``)."""
    kind = item[0]
    if kind == "v":
        dev = float(np.max(np.abs(np.abs(item[1]) - 1.0)))
        return [f"reflection vector off unit modulus by {dev:.3e}"] if not dev <= UNIT_MODULUS_TOL else []
    if kind == "p":
        norm, n_rf = float(np.linalg.norm(item[1])), item[2]
        return [f"precoder norm {norm!r} above n_rf = {n_rf}"] if not norm <= n_rf + POWER_TOL else []
    if kind == "joint":
        cfg, ch, res = item[1], item[2], item[3]
        v, p = res.v_star.v, res.p_star
        wch = model.link_state(cfg, ch, v)[3]
        expect = rates.approx_secrecy_rate(cfg, wch, v, p).r_approx
        if not abs(res.objective - expect) <= JOINT_OBJECTIVE_TOL:
            return [f"joint objective {res.objective!r} differs from the recomputed rate {expect!r}"]
        return []
    raise ValueError(f"unknown check item {kind!r}")


def reference_problems(means: dict[str, float], reference: dict[str, float], tol: float) -> dict[str, str]:
    """Per-method mean secrecy rates against the recorded reference; method -> problem."""
    problems = {}
    for method, ref in reference.items():
        got = means.get(method)
        if got is None or not abs(got - ref) <= tol:
            problems[method] = f"{method}: mean sr_bits {got!r} differs from the reference {ref!r} by more than {tol}"
    return problems
