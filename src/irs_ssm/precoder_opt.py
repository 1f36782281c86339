"""Hybrid-precoder optimizers under the stacked-vector power constraint.

With the reflection vector fixed, every pairwise exponent is a Hermitian
quadratic p^H B p (Bob) or p^H E p (Eve) in the stacked precoder, and the
secrecy objective is a difference of log-sum-exp terms over those quadratics.
No B or E is built: values are the K x K Gram distances of the response stack
R = (X p) W^T, and a weighted sum of pair gradients is
sum_m conj(x_m) * W^H (L_w R)_m with the pair Laplacian L_w from ``rates``.
Both receivers share one stacked forward pass per point: W_B and W_E sit on
the leading axis of ``rates.receiver_stack`` (the smaller receiver
zero-padded to max(n_b, n_e) rows), and ``rates.pair_weights`` gives both
response stacks, distances, pair weights exp(-tau d) and kappas in one call.
The pass is memoized on the quadratics: the rate (``rates.rate_from_kappas``
of its kappas), the gradient (one batched pull-back over the receiver axis)
and the SCA expansion at that point all read it, so an accepted ascent step
costs no second evaluation.
Two maximizers over ||p|| <= n_rf live here: a successive convex approximation
that pairs a concave lower bound on the Eve rate with a convex upper bound on
the Bob rate (both tight at the expansion point, so outer steps ascend), and
a direct gradient ascent on the cut-off-rate objective with backtracking.
Both read their starting point through ``model.HybridPrecoder``, whose checks
(1-D, finite, inside the power ball) are the only ones on p0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    LN2,
    HybridPrecoder,
    SystemConfig,
    WhitenedChannels,
    effective_channels,
    hypothesis_matrix,
)
from . import rates
from .rates import pair_distances, pair_laplacian, receiver_stack, response_stack

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

    Held in factored form: the whitened effective channels and the
    hypothesis diagonals.  Values and gradients go through the response
    stacks and the K x K pair kernel, one memoized forward pass for both
    receivers per point (see ``forward``).  The channels must not change
    after construction.
    """

    tau: float
    n_rf: int
    w_b: np.ndarray  # whitened effective Bob channel (n_b, n_tx)
    w_e: np.ndarray  # whitened effective Eve channel (n_e, n_tx)
    x_mat: np.ndarray  # (K, n_tx) hypothesis diagonals
    # (2, n_r, n_tx) ``rates.receiver_stack`` of (W_B, W_E), and the
    # p-independent conjugates of the pull-back: conj(X) and conj of the stack
    w_stack: np.ndarray = field(init=False, repr=False, compare=False)
    x_conj: np.ndarray = field(init=False, repr=False, compare=False)
    w_conj: np.ndarray = field(init=False, repr=False, compare=False)
    # [key, stacked forward pass] at the last point evaluated
    _memo: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w_stack = receiver_stack(self.w_b, self.w_e)
        object.__setattr__(self, "w_stack", w_stack)
        object.__setattr__(self, "x_conj", np.conj(self.x_mat))
        object.__setattr__(self, "w_conj", np.conj(w_stack))
        object.__setattr__(self, "_memo", [None, None])

    def forward(self, p: HybridPrecoder | np.ndarray) -> rates.PairWeights:
        """``rates.pair_weights`` of both receivers at p, computed once per point.

        Every field carries the receiver axis, Bob first.  The GA scores a
        point and then asks for its gradient there, and the SCA expands at
        the point it just scored, so the last pass is kept.  The key is the
        complex128 bytes and shape of p, so a real-valued copy, an in-place
        edit or a reshape never reads stale terms.  The arrays are shared by
        every caller and therefore read-only.
        """
        pvec = np.asarray(p, dtype=complex)
        key = (pvec.shape, pvec.tobytes())
        if key != self._memo[0]:
            fw = rates.pair_weights(self.w_stack, self.x_mat, pvec, self.tau)
            for a in fw:
                a.flags.writeable = False
            self._memo[:] = key, fw
        return self._memo[1]

    def pull_back(self, weights: np.ndarray, resp: np.ndarray) -> np.ndarray:
        """(2, n_tx) sums sum_{m,n} w_mn (X_m - X_n)^H W^H (r_m - r_n), one per receiver.

        ``weights`` (2, K, K) and ``resp`` (2, K, n_r) are stacked like
        ``w_stack``; the zero-padded rows contribute nothing.
        """
        return np.sum(self.x_conj * (pair_laplacian(weights, resp) @ self.w_conj), axis=-2)

    def pair_values(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K x K arrays (p^H B_mn p, p^H E_mn p) over the ordered pairs."""
        bob, eve = self.forward(p).dist
        return bob, eve

    def secrecy_rate(self, p: HybridPrecoder | np.ndarray) -> float:
        """log2 kappa_E - log2 kappa_B at p, by ``rates.rate_from_kappas`` on ``forward(p).kappa``."""
        return rates.rate_from_kappas(*self.forward(p).kappa.tolist())

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """Gradient of the secrecy objective with respect to p.

        tau/ln2 * [sum chi_B (B + B^H) p / kappa_B - sum chi_E (E + E^H) p / kappa_E],
        with chi the per-pair exponentials.  Real directional derivative along
        a direction d is Re{g^H d}.  Exactly zero at p = 0.
        """
        fw = self.forward(p)
        terms = (_RECEIVER_SIGNS / fw.kappa)[:, None] * self.pull_back(fw.chi, fw.resp)
        return (self.tau / LN2) * (terms[0] + terms[1])


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
        x_mat=hypothesis_matrix(cfg),
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
    nrm = float(np.linalg.norm(p))
    return p if nrm <= radius else p * (radius / nrm)


class ScaSubproblem:
    """Surrogate R_E^l - R_B^u expanded at a fixed point p0.

    R_E^l lower-bounds the Eve rate through exp(x) >= exp(x0)(1 + x - x0) per
    pair; R_B^u upper-bounds the Bob rate by linearizing the convex quadratics
    inside the exponents.  Both are tight at p0, R_E^l is concave, R_B^u is
    convex, so the surrogate is concave and globally lower-bounds the true
    objective.  Outside the (open) region where the Eve-bound sum stays
    positive the value is -inf.
    """

    def __init__(self, pq: PrecoderQuadratics, p0: np.ndarray):
        self.pq = pq
        self.tau = pq.tau
        fw = pq.forward(p0)  # a memo hit when p0 was just scored
        self.resp0_b = fw.resp[0]  # Bob linearization point
        self.c_eve = fw.chi[1]  # per-pair weights exp(-tau q_E0), Eve expansion
        # p-independent parts of the two bounds
        self._eve_base = 1.0 + self.tau * fw.dist[1]
        self._bob_base = self.tau * fw.dist[0]
        self._resp0_b_conj = np.conj(self.resp0_b)
        # terms at the last evaluated point: the ascent asks for the value
        # and then the gradient at the same p
        self._key: bytes | None = None
        self._terms: tuple[np.ndarray, float, np.ndarray] | None = None

    def _at(self, p: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """(Eve response stack, Eve-bound sum, Bob exponents) at p."""
        key = p.tobytes()
        if key != self._key:
            resp_b, resp_e = response_stack(self.pq.w_stack, self.pq.x_mat, p)
            s = float((self.c_eve * (self._eve_base - self.tau * pair_distances(resp_e))).sum())
            self._key, self._terms = key, (resp_e, s, self._bob_exponents(resp_b))
        return self._terms

    def _bob_exponents(self, resp_b: np.ndarray) -> np.ndarray:
        # Re{p0^H B_mn p} = Re<r0_m - r0_n, r_m - r_n> from the cross Gram conj(R0) R^T
        cross = (self._resp0_b_conj @ resp_b.T).real
        diag = cross.diagonal()
        lin = diag[:, None] + diag[None, :] - cross - cross.T
        return self._bob_base - 2.0 * self.tau * lin

    def value(self, p: np.ndarray) -> float:
        return self.eve_lower(p) - self.bob_upper(p)

    def eve_lower(self, p: np.ndarray) -> float:
        s = self._at(p)[1]
        return float(np.log2(s)) if s > 0.0 else -np.inf

    def bob_upper(self, p: np.ndarray) -> float:
        return float(np.logaddexp.reduce(self._at(p)[2], axis=None)) / LN2

    def gradient(self, p: np.ndarray) -> np.ndarray:
        resp_e, s, h = self._at(p)
        weights = np.exp(h - np.max(h))
        weights /= weights.sum()
        bob, eve = self.pq.pull_back(np.stack((weights, self.c_eve)), np.stack((self.resp0_b, resp_e)))
        g_eve = (-2.0 * self.tau / (s * LN2)) * eve
        g_bob_upper = (-2.0 * self.tau / LN2) * bob
        return g_eve - g_bob_upper


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
    after GA_MAX_ITERS steps.
    """
    radius = float(pq.n_rf)
    pvec = HybridPrecoder(np.array(p0, dtype=complex), pq.n_rf).p  # rejects a non-finite or over-budget p0
    rate = pq.secrecy_rate(pvec)
    trace = [rate]
    g = pq.gradient(pvec)
    if not np.all(np.isfinite(g)):
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
            if not np.all(np.isfinite(g)):
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
