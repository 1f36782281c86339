"""Hybrid-precoder optimizers under the stacked-vector power constraint.

With the reflection vector fixed, every pairwise exponent is a Hermitian
quadratic p^H B p (Bob) or p^H E p (Eve) in the stacked precoder, and the
secrecy objective is a difference of log-sum-exp terms over those quadratics.
No B or E is built, and no K x K array either: values are the factored
distances ||u_i - c_delta u_i'||^2 of the pair kernel ``rates.PairKernel``
(u_i = W_i p_i, c_delta the M-PSK rotation, one term per (i, delta, i')
standing for M ordered pairs), and a weighted sum of pair gradients is
2M W_i^H (deg_i u_i - sum w c_delta u_i') on block i (its ``pull_back``):
one real product of the weights with the rotated stack, then one product
with adjoint blocks that carry the factor 2M.
Both receivers share one stacked forward pass per point: W_B and W_E sit on
the leading axis of ``rates.receiver_stack`` (the smaller receiver
zero-padded to max(n_b, n_e) rows), split into subarray blocks once per
quadratics; n_rf and the PSK order M fix the hypothesis set, so no
per-hypothesis matrix is built.  Each quadratics holds one kernel, whose
buffers are allocated once and hold the pass at the last point evaluated:
the rate (``rates.rate_from_kappas`` of its kappas) and the gradient (one
batched pull-back over the receiver axis) read them in place, so an
accepted ascent step costs no second evaluation and a GA step allocates
nothing in the kernel.  ``forward`` hands out read-only copies for the SCA
expansion and the tests, which the next pass cannot overwrite.
Two maximizers over ||p|| <= n_rf live here: a successive convex approximation
that pairs a concave lower bound on the Eve rate with a convex upper bound on
the Bob rate (both tight at the expansion point, so outer steps ascend), and
a direct gradient ascent on the cut-off-rate objective with backtracking.
The SCA surrogate is built once per outer step as two explicit forms, Eve's
n_tx x n_tx matrix Q and Bob's n_rf^2 M x n_tx matrix L (``ScaSubproblem``).
Both maximizers read their starting point through ``model.HybridPrecoder``
(1-D, finite, inside the power ball).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import LN2, HybridPrecoder, SystemConfig, WhitenedChannels, effective_channels
from . import rates
from .rates import receiver_stack

# Solver settings no caller varies, read at call time.
SCA_TOL = 0.01  # outer stop on ||p_k - p_{k-1}||
SCA_MAX_ITERS = 50
SCA_INNER_GRAD_TOL = 1e-8  # inner stop on the gradient-map norm
SCA_INNER_MAX_ITERS = 300
GA_TOL = 1e-6  # stop once an accepted step gains at most this
GA_MAX_ITERS = 500

# the gradient of log2 kappa_E - log2 kappa_B is tau/ln2 times these over
# kappa, times each receiver's pull-back: Bob first, as in the receiver stack
_RECEIVER_SIGNS = np.array([2.0, -2.0])


@dataclass(frozen=True)
class PrecoderQuadratics:
    """Pairwise quadratic forms in the stacked precoder for both receivers.

    Held in factored form: the whitened effective channels, n_rf and the
    PSK order M, which fix the hypothesis set.  Values and gradients go
    through one ``rates.PairKernel`` on the subarray blocks of the
    ``rates.receiver_stack`` of (W_B, W_E), which keeps the stacked pass at
    the last point evaluated.  The channels must not change after
    construction.
    """

    tau: float
    n_rf: int
    w_b: np.ndarray  # whitened effective Bob channel (n_b, n_tx)
    w_e: np.ndarray  # whitened effective Eve channel (n_e, n_tx)
    m_ary: int  # PSK order M
    # the buffered pair kernel on the (2, n_rf, n_r, n_k) subarray blocks
    kernel: rates.PairKernel = field(init=False, repr=False, compare=False)
    # tau/ln2 * _RECEIVER_SIGNS, formed once
    _receiver_scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w_blocks = np.ascontiguousarray(rates.subarray_channels(receiver_stack(self.w_b, self.w_e), self.n_rf))
        object.__setattr__(self, "kernel", rates.PairKernel(w_blocks, rates.psk_rotations(self.m_ary), self.tau))
        object.__setattr__(self, "_receiver_scale", (self.tau / LN2) * _RECEIVER_SIGNS)

    def forward(self, p: HybridPrecoder | np.ndarray) -> rates.SubarrayPairs:
        """``rates.subarray_pairs`` of both receivers at p, as read-only copies of the kernel's pass.

        Every field carries the receiver axis, Bob first.  The kernel runs
        only if p is not the point it holds, so the SCA's expansion at the
        point it just scored costs no second pass.  The copies stay valid
        after later passes overwrite the kernel's buffers.
        """
        fw = rates.SubarrayPairs(*(a.copy() for a in self.kernel.at(p).pairs()))
        for a in fw:
            a.setflags(write=False)
        return fw

    def pair_values(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K x K arrays (p^H B_mn p, p^H E_mn p) over the ordered pairs, gathered from the pass's distances."""
        i, j = np.divmod(np.arange(self.n_rf * self.m_ary), self.m_ary)
        bob, eve = self.kernel.at(p).dist[:, i[:, None], (j[None, :] - j[:, None]) % self.m_ary, i[None, :]]
        return bob, eve

    def secrecy_rate(self, p: HybridPrecoder | np.ndarray) -> float:
        """log2 kappa_E - log2 kappa_B at p, by ``rates.rate_from_kappas`` on the pass's kappas."""
        return rates.rate_from_kappas(*self.kernel.at(p).kappa.tolist())

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """Gradient of the secrecy objective with respect to p.

        tau/ln2 * [sum chi_B (B + B^H) p / kappa_B - sum chi_E (E + E^H) p / kappa_E],
        with chi the per-pair exponentials: the two receivers' pull-backs,
        each scaled by its sign tau/ln2 / kappa and summed in one product.
        Real directional derivative along a direction d is Re{g^H d}.
        Exactly zero at p = 0.
        """
        k = self.kernel.at(p)
        return (self._receiver_scale / k.kappa) @ k.pull_back(k.chi)


def build_precoder_quadratics(
    cfg: SystemConfig,
    wch: WhitenedChannels,
    v: np.ndarray,
) -> PrecoderQuadratics:
    """Assemble the pairwise precoder quadratics for a fixed reflection vector."""
    w_b, w_e = effective_channels(wch, v)
    return PrecoderQuadratics(
        tau=cfg.tau,
        n_rf=cfg.n_rf,
        w_b=w_b,
        w_e=w_e,
        m_ary=cfg.m_ary,
    )


@dataclass
class PrecoderResult:
    p: HybridPrecoder
    converged: bool
    iterations: int
    secrecy_rate: float
    trace: list[float]
    extras: dict = field(default_factory=dict)


def project_ball(p: np.ndarray, radius: float) -> np.ndarray:
    """p scaled radially onto ||p|| <= radius; a p inside the ball is returned as is."""
    re, im = p.real, p.imag
    nrm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's sum, without its dispatch
    return p if nrm <= radius else p * (radius / nrm)


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite: ||x||^2 is, unless it overflowed, which the entrywise test settles."""
    return math.isfinite(np.vdot(x, x).real) or bool(np.isfinite(x).all())


class ScaSubproblem:
    """Surrogate R_E^l - R_B^u expanded at p0, as two explicit forms in p.

    D_t maps p to W_i p_i - c_delta W_i' p_i' for each factored term
    t = (i, delta, i') of ``rates.PairKernel`` (M ordered pairs each),
    and d0, chi0 are the distances and weights at p0.  R_E^l = log2 s(p),
    s(p) = s0 - M tau p^H Q p with Q = sum_t chi_E0,t D_t^H D_t, follows from
    exp(x) >= exp(x0)(1 + x - x0) per term; block (i, i') of Q is
    2 (deg_i [i = i'] - sum_delta chi_E0[i, delta, i'] c_delta) W_i^H W_i'.
    R_B^u = log2(M sum_t exp h_t), h(p) = tau d_B0 - 2 tau Re(L p) with row t
    of L equal to (D_t p0)^H D_t, linearizes each convex distance inside the
    exponent.  Both are tight at p0, R_E^l is concave and R_B^u convex, so the
    surrogate is concave and globally lower-bounds the true objective; where
    s(p) <= 0 the value is -inf.  Q and L are built once per expansion.
    """

    def __init__(self, pq: PrecoderQuadratics, p0: np.ndarray):
        fw = pq.forward(p0)  # no second pass when p0 was just scored
        self.tau, self.m_ary = pq.tau, pq.m_ary
        n_rf, n_tx = pq.n_rf, pq.w_b.shape[1]
        eye = np.eye(n_rf)
        chi_e = fw.chi[1]
        coef = 2.0 * (eye * chi_e.sum(axis=(1, 2)) - np.einsum("idj,d->ij", chi_e, pq.kernel.rot))
        self.q = np.kron(coef, np.ones((n_tx // n_rf, n_tx // n_rf))) * (pq.w_e.conj().T @ pq.w_e)
        self.s0 = self.m_ary * float((chi_e * (1.0 + self.tau * fw.dist[1])).sum())
        # D_t p0 = u_i - c_delta u_i' on Bob, and the blocks D_t touches: +1 on i, -c_delta on i'
        diff0 = fw.u[0][:, None, None] - fw.u_rot[0].reshape(self.m_ary, n_rf, -1)
        touch = eye[:, None, None, :] - pq.kernel.rot[:, None, None] * eye[None, None]
        rows = (np.conj(diff0[..., : len(pq.w_b)]) @ pq.w_b).reshape(*touch.shape, -1)
        self.l = (rows * touch[..., None]).reshape(-1, n_tx)
        self.h0 = self.tau * fw.dist[0].ravel()

    def value(self, p: np.ndarray) -> float:
        return self.eve_lower(p) - self.bob_upper(p)

    def eve_lower(self, p: np.ndarray) -> float:
        s = self.s0 - self.m_ary * self.tau * np.vdot(p, self.q @ p).real
        return float(np.log2(s)) if s > 0.0 else -np.inf

    def bob_upper(self, p: np.ndarray) -> float:
        h = self.h0 - 2.0 * self.tau * (self.l @ p).real
        return (float(np.logaddexp.reduce(h)) + np.log(self.m_ary)) / LN2

    def gradient(self, p: np.ndarray) -> np.ndarray:
        qp = self.q @ p
        s = self.s0 - self.m_ary * self.tau * np.vdot(p, qp).real
        h = self.h0 - 2.0 * self.tau * (self.l @ p).real
        weights = np.exp(h - np.max(h))
        # d R_B^u = -2 tau/ln2 L^H w for softmax weights w; d R_E^l = -2 M tau/(s ln2) Q p
        return (2.0 * self.tau / LN2) * (np.conj(weights @ self.l) / weights.sum() - (self.m_ary / s) * qp)


def _projected_gradient_max(value_fn, grad_fn, p0: np.ndarray, radius: float) -> tuple[np.ndarray, float, int]:
    """Projected gradient ascent with Armijo backtracking on the norm ball.

    Stops when the gradient-map norm is at most SCA_INNER_GRAD_TOL, or after
    SCA_INNER_MAX_ITERS steps.
    """
    p = project_ball(p0.copy(), radius)
    f = value_fn(p)
    t = 1.0
    it = 0
    for it in range(1, SCA_INNER_MAX_ITERS + 1):
        g = grad_fn(p)
        accepted = False
        while t >= 1e-18:
            p_new = project_ball(p + t * g, radius)
            f_new = value_fn(p_new)
            gain = np.real(np.vdot(g, p_new - p))
            if np.isfinite(f_new) and f_new >= f + 1e-4 * gain:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        gmap = float(np.linalg.norm(p_new - p) / t)
        p, f = p_new, f_new
        t = min(t * 2.0, 1e6)
        if gmap <= SCA_INNER_GRAD_TOL:
            break
    return p, f, it


def asr_sca(pq: PrecoderQuadratics, p0: HybridPrecoder | np.ndarray) -> PrecoderResult:
    """Successive convex approximation of the secrecy objective.

    Each outer step expands the bounds at the current iterate and maximizes
    the concave surrogate over the power ball with an inner projected-gradient
    solver.  Because the surrogate is a tight global lower bound, the true
    objective is non-decreasing across outer steps.  Stops when
    ||p_k - p_{k-1}|| <= SCA_TOL, or after SCA_MAX_ITERS outer steps.
    """
    radius = float(pq.n_rf)
    pvec = HybridPrecoder(np.array(p0, dtype=complex), pq.n_rf).p  # rejects a non-finite or over-budget p0
    rate = pq.secrecy_rate(pvec)
    trace = [rate]
    converged = False
    outer = 0
    inner_total = 0
    for outer in range(1, SCA_MAX_ITERS + 1):
        sub = ScaSubproblem(pq, pvec)
        start_val = sub.value(pvec)
        p_new, end_val, inner_iters = _projected_gradient_max(sub.value, sub.gradient, pvec, radius)
        inner_total += inner_iters
        if end_val < start_val - 1e-9 * max(1.0, abs(start_val)):
            raise RuntimeError(
                f"inner solver lost ground on the concave surrogate "
                f"({start_val} -> {end_val}); sign or convexity bug"
            )
        step = float(np.linalg.norm(p_new - pvec))
        pvec = p_new
        rate = pq.secrecy_rate(pvec)
        trace.append(rate)
        if step <= SCA_TOL:
            converged = True
            break
    best = HybridPrecoder(p=pvec, n_rf=pq.n_rf)
    return PrecoderResult(
        p=best,
        converged=converged,
        iterations=outer,
        secrecy_rate=rate,
        trace=trace,
        extras={"inner_iterations": inner_total},
    )


def cor_ga(pq: PrecoderQuadratics, p0: HybridPrecoder | np.ndarray) -> PrecoderResult:
    """Gradient ascent on the cut-off-rate objective with step backtracking.

    Steps p + mu * grad are radially projected onto the power ball; a step
    that lowers the objective is rejected and mu halves, five consecutive
    acceptances double mu back up to its initial value
    mu0 = 0.1 n_rf / ||grad(p0)||.  Stops when an accepted step improves the
    objective by at most GA_TOL (converged), when mu falls below 1e-14 mu0
    without an accepted step (``extras["stalled"]``, not converged), or
    after GA_MAX_ITERS steps.  A non-finite gradient raises
    FloatingPointError, saying whether it came at the start or during the
    ascent.
    """
    radius = float(pq.n_rf)
    pvec = HybridPrecoder(np.array(p0, dtype=complex), pq.n_rf).p  # rejects a non-finite or over-budget p0
    rate = pq.secrecy_rate(pvec)
    trace = [rate]
    g = pq.gradient(pvec)
    if not _all_finite(g):
        raise FloatingPointError("non-finite gradient at the starting point")
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return PrecoderResult(
            p=HybridPrecoder(p=pvec, n_rf=pq.n_rf),
            converged=True,
            iterations=0,
            secrecy_rate=rate,
            trace=trace,
            extras={"stationary": True},
        )
    mu0 = 0.1 * pq.n_rf / gnorm
    mu = mu0
    streak = 0
    converged = stalled = False
    it = 0
    for it in range(1, GA_MAX_ITERS + 1):
        p_cand = project_ball(pvec + mu * g, radius)
        r_cand = pq.secrecy_rate(p_cand)
        if r_cand >= rate:
            gain = r_cand - rate
            pvec, rate = p_cand, r_cand
            trace.append(rate)
            streak += 1
            if streak >= 5:
                mu = min(2.0 * mu, mu0)
                streak = 0
            if gain <= GA_TOL:
                converged = True
                break
            g = pq.gradient(pvec)
            if not _all_finite(g):
                raise FloatingPointError("non-finite gradient during ascent")
        else:
            mu *= 0.5
            streak = 0
            if mu < 1e-14 * mu0:
                stalled = True  # no ascent step left at float resolution
                break
    return PrecoderResult(
        p=HybridPrecoder(p=pvec, n_rf=pq.n_rf),
        converged=converged,
        iterations=it,
        secrecy_rate=rate,
        trace=trace,
        extras={"mu_final": mu, "stalled": stalled},
    )


@dataclass(frozen=True)
class HybridFactorization:
    """``factorize_hybrid``'s result: ``f_blocks[i] * d_gains[i]`` fits block i with residual ``recon_errors[i]``."""

    f_blocks: np.ndarray  # (n_rf, n_k), entries of modulus 1/sqrt(n_k)
    d_gains: np.ndarray  # (n_rf,) complex digital gains
    recon_errors: np.ndarray  # (n_rf,) per-block absolute residual norms
    infeasible_blocks: tuple[int, ...]
    skipped_blocks: tuple[int, ...]


def factorize_hybrid(p: HybridPrecoder | np.ndarray, cfg: SystemConfig) -> HybridFactorization:
    """Recover per-block analog phases and digital gains from a stacked precoder.

    Block i factorizes as f_i d_i with f_i the elementwise phase of the block
    scaled by 1/sqrt(n_k) and d_i its least-squares gain f_i^H block.  A block
    whose residual exceeds 1e-6 times its norm is flagged infeasible (the
    block is not constant-modulus); this is the one place that decides
    hybrid feasibility.  Zero blocks are skipped; a non-finite p is rejected.
    """
    blocks = np.asarray(p, dtype=complex).reshape(cfg.n_rf, cfg.n_k)
    if not np.all(np.isfinite(blocks)):
        raise ValueError("precoder p contains non-finite entries")
    f_blocks = np.full((cfg.n_rf, cfg.n_k), 1.0 / np.sqrt(cfg.n_k), dtype=complex)
    d_gains = np.zeros(cfg.n_rf, dtype=complex)
    errors = np.zeros(cfg.n_rf)
    skipped: list[int] = []
    infeasible: list[int] = []
    for i, block in enumerate(blocks):
        nrm = float(np.linalg.norm(block))
        if nrm == 0.0:
            skipped.append(i)
            continue
        f_blocks[i] = np.exp(1j * np.angle(block)) / np.sqrt(cfg.n_k)
        d_gains[i] = np.vdot(f_blocks[i], block)  # least-squares scalar, ||f_i|| = 1
        errors[i] = float(np.linalg.norm(block - f_blocks[i] * d_gains[i]))
        if errors[i] > 1e-6 * nrm:
            infeasible.append(i)
    return HybridFactorization(
        f_blocks=f_blocks,
        d_gains=d_gains,
        recon_errors=errors,
        infeasible_blocks=tuple(infeasible),
        skipped_blocks=tuple(skipped),
    )
