"""Hybrid-precoder optimizers under the stacked-vector power constraint.

With the reflection vector fixed, every pairwise exponent is a Hermitian
quadratic p^H B p (Bob) or p^H E p (Eve) in the stacked precoder, and the
secrecy objective is a difference of log-sum-exp terms over those quadratics.
No B or E is built: values are the K x K Gram distances of the response stack
R = (X p) W^T, and a weighted sum of pair gradients is
sum_m conj(x_m) * W^H (L_w R)_m with the pair Laplacian L_w from ``rates``.
Each point gets one forward pass per receiver, ``rates.pair_weights`` (R, the
distances, the pair weights exp(-tau d) and their sum kappa), memoized on the
quadratics: the rate, the gradient and the SCA expansion at that point all
read the same pass, so an accepted ascent step costs no second evaluation.
Two maximizers over ||p|| <= n_rf live here: a successive convex approximation
that pairs a concave lower bound on the Eve rate with a convex upper bound on
the Bob rate (both tight at the expansion point, so outer steps ascend), and
a direct gradient ascent on the cut-off-rate objective with backtracking.
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
from .rates import pair_distances, pair_laplacian


@dataclass(frozen=True)
class PrecoderQuadratics:
    """Pairwise quadratic forms in the stacked precoder for both receivers.

    Held in factored form: the whitened effective channels and the
    hypothesis diagonals.  Values and gradients go through the (K, n_r)
    response stacks and the K x K pair kernel, one memoized forward pass
    per point (see ``forward``).  The channels must not change after
    construction.
    """

    tau: float
    n_rf: int
    w_b: np.ndarray  # whitened effective Bob channel (n_b, n_tx)
    w_e: np.ndarray  # whitened effective Eve channel (n_e, n_tx)
    x_mat: np.ndarray  # (K, n_tx) hypothesis diagonals
    # p-independent conjugates of the pull-back: conj(X) and (conj(W_B), conj(W_E))
    x_conj: np.ndarray = field(init=False, repr=False, compare=False)
    w_conj: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    # [key, (Bob, Eve) forward pass] at the last point evaluated
    _memo: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x_conj", np.conj(self.x_mat))
        object.__setattr__(self, "w_conj", (np.conj(self.w_b), np.conj(self.w_e)))
        object.__setattr__(self, "_memo", [None, None])

    def forward(self, p: HybridPrecoder | np.ndarray) -> tuple[rates.PairWeights, rates.PairWeights]:
        """Bob's and Eve's ``rates.pair_weights`` at p, computed once per point.

        The GA scores a point and then asks for its gradient there, and the
        SCA expands at the point it just scored, so the last pass is kept.
        The key is the complex128 bytes and shape of p, so a real-valued
        copy, an in-place edit or a reshape never reads stale terms.  The
        arrays are shared by every caller and therefore read-only.
        """
        pvec = np.asarray(p.p if isinstance(p, HybridPrecoder) else p, dtype=complex)
        key = (pvec.shape, pvec.tobytes())
        if key != self._memo[0]:
            passes = tuple(rates.pair_weights(w, self.x_mat, pvec, self.tau) for w in (self.w_b, self.w_e))
            for fw in passes:
                for a in fw[:3]:
                    a.flags.writeable = False
            self._memo[:] = key, passes
        return self._memo[1]

    def response(self, w_eff: np.ndarray, p: np.ndarray) -> np.ndarray:
        """(K, n_r) stack of per-hypothesis responses W X_m p."""
        return (self.x_mat * p[None, :]) @ w_eff.T

    def pull_back(self, w_conj: np.ndarray, weights: np.ndarray, resp: np.ndarray) -> np.ndarray:
        """sum_{m,n} w_mn (X_m - X_n)^H W^H (r_m - r_n) for the response stack r, given conj(W)."""
        return np.sum(self.x_conj * (pair_laplacian(weights, resp) @ w_conj), axis=0)

    def pair_values(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """K x K arrays (p^H B_mn p, p^H E_mn p) over the ordered pairs."""
        bob, eve = self.forward(p)
        return bob.dist, eve.dist

    def kappas(self, p: np.ndarray) -> tuple[float, float]:
        bob, eve = self.forward(p)
        return bob.kappa, eve.kappa

    def secrecy_rate(self, p: HybridPrecoder | np.ndarray) -> float:
        """log2 kappa_E - log2 kappa_B at p, by ``rates.rate_from_kappas``."""
        return rates.rate_from_kappas(*self.kappas(p))

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """Gradient of the secrecy objective with respect to p.

        tau/ln2 * [sum chi_B (B + B^H) p / kappa_B - sum chi_E (E + E^H) p / kappa_E],
        with chi the per-pair exponentials.  Real directional derivative along
        a direction d is Re{g^H d}.  Exactly zero at p = 0.
        """
        g = np.zeros(len(p), dtype=complex)
        for fw, w_conj, sign in zip(self.forward(p), self.w_conj, (1.0, -1.0)):
            g += (sign * 2.0 / fw.kappa) * self.pull_back(w_conj, fw.chi, fw.resp)
        return (self.tau / LN2) * g


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
        bob, eve = pq.forward(p0)  # a memo hit when p0 was just scored
        self.resp0_b = bob.resp  # Bob linearization point
        self.c_eve = eve.chi  # per-pair weights exp(-tau q_E0), Eve expansion
        # p-independent parts of the two bounds
        self._eve_base = 1.0 + self.tau * eve.dist
        self._bob_base = self.tau * bob.dist
        self._resp0_b_conj = np.conj(self.resp0_b)
        # terms at the last evaluated point: the ascent asks for the value
        # and then the gradient at the same p
        self._key: bytes | None = None
        self._terms: tuple[np.ndarray, float, np.ndarray] | None = None

    def _at(self, p: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """(Eve response stack, Eve-bound sum, Bob exponents) at p."""
        key = p.tobytes()
        if key != self._key:
            resp_e = self.pq.response(self.pq.w_e, p)
            s = float((self.c_eve * (self._eve_base - self.tau * pair_distances(resp_e))).sum())
            self._key, self._terms = key, (resp_e, s, self._bob_exponents(p))
        return self._terms

    def eve_sum(self, p: np.ndarray) -> float:
        return self._at(p)[1]

    def _bob_exponents(self, p: np.ndarray) -> np.ndarray:
        # Re{p0^H B_mn p} = Re<r0_m - r0_n, r_m - r_n> from the cross Gram conj(R0) R^T
        cross = (self._resp0_b_conj @ self.pq.response(self.pq.w_b, p).T).real
        diag = cross.diagonal()
        lin = diag[:, None] + diag[None, :] - cross - cross.T
        return self._bob_base - 2.0 * self.tau * lin

    def value(self, p: np.ndarray) -> float:
        s = self.eve_sum(p)
        if s <= 0.0:
            return -np.inf
        return float(np.log2(s)) - self.bob_upper(p)

    def eve_lower(self, p: np.ndarray) -> float:
        s = self.eve_sum(p)
        return float(np.log2(s)) if s > 0.0 else -np.inf

    def bob_upper(self, p: np.ndarray) -> float:
        return float(np.logaddexp.reduce(self._at(p)[2], axis=None)) / LN2

    def gradient(self, p: np.ndarray) -> np.ndarray:
        pq = self.pq
        resp_e, s, h = self._at(p)
        g_eve = (-2.0 * self.tau / (s * LN2)) * pq.pull_back(pq.w_conj[1], self.c_eve, resp_e)
        weights = np.exp(h - np.max(h))
        weights /= weights.sum()
        g_bob_upper = (-2.0 * self.tau / LN2) * pq.pull_back(pq.w_conj[0], weights, self.resp0_b)
        return g_eve - g_bob_upper


def _projected_gradient_max(
    value_fn,
    grad_fn,
    p0: np.ndarray,
    radius: float,
    grad_tol: float = 1e-8,
    max_iters: int = 300,
) -> tuple[np.ndarray, float, int]:
    """Projected gradient ascent with Armijo backtracking on the norm ball."""
    p = project_ball(p0.copy(), radius)
    f = value_fn(p)
    t = 1.0
    it = 0
    for it in range(1, max_iters + 1):
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
        if gmap <= grad_tol:
            break
    return p, f, it


def asr_sca(
    pq: PrecoderQuadratics,
    p0: HybridPrecoder | np.ndarray,
    tol: float = 0.01,
    max_iters: int = 50,
    inner_grad_tol: float = 1e-8,
    inner_max_iters: int = 300,
) -> PrecoderResult:
    """Successive convex approximation of the secrecy objective.

    Each outer step expands the bounds at the current iterate and maximizes
    the concave surrogate over the power ball with an inner projected-gradient
    solver.  Because the surrogate is a tight global lower bound, the true
    objective is non-decreasing across outer steps.  Stops when
    ||p_k - p_{k-1}|| <= tol.
    """
    pvec = (p0.p if isinstance(p0, HybridPrecoder) else np.asarray(p0)).astype(complex)
    radius = float(pq.n_rf)
    if np.linalg.norm(pvec) > radius + 1e-9:
        raise ValueError("p0 violates the power constraint")
    rate = pq.secrecy_rate(pvec)
    trace = [rate]
    converged = False
    outer = 0
    inner_total = 0
    for outer in range(1, max_iters + 1):
        sub = ScaSubproblem(pq, pvec)
        start_val = sub.value(pvec)
        p_new, end_val, inner_iters = _projected_gradient_max(
            sub.value, sub.gradient, pvec, radius, grad_tol=inner_grad_tol, max_iters=inner_max_iters
        )
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
        if step <= tol:
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


def cor_ga(
    pq: PrecoderQuadratics,
    p0: HybridPrecoder | np.ndarray,
    mu0: float | None = None,
    tol: float = 1e-6,
    max_iters: int = 500,
) -> PrecoderResult:
    """Gradient ascent on the cut-off-rate objective with step backtracking.

    Steps p + mu * grad are radially projected onto the power ball; a step
    that lowers the objective is rejected and mu halves, five consecutive
    acceptances double mu back up to its initial value.  Stops when an
    accepted step improves the objective by at most tol (converged), or when
    mu falls below 1e-14 mu0 without an accepted step (``extras["stalled"]``,
    not converged).
    """
    pvec = (p0.p if isinstance(p0, HybridPrecoder) else np.asarray(p0)).astype(complex)
    radius = float(pq.n_rf)
    if np.linalg.norm(pvec) > radius + 1e-9:
        raise ValueError("p0 violates the power constraint")
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
    mu0 = mu0 if mu0 is not None else 0.1 * pq.n_rf / gnorm
    if mu0 <= 0.0:
        raise ValueError("mu0 must be positive")
    mu = mu0
    streak = 0
    converged = stalled = False
    it = 0
    for it in range(1, max_iters + 1):
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
            if gain <= tol:
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


def factorize_hybrid(p: HybridPrecoder | np.ndarray, cfg: SystemConfig) -> HybridPrecoder:
    """Recover per-block analog phases and digital gains from a stacked precoder.

    Block i factorizes as f_i d_i with f_i the elementwise phase of the block
    scaled by 1/sqrt(n_k) and d_i its least-squares gain f_i^H block.  Blocks
    whose relative residual exceeds 1e-6 are flagged infeasible (the block is
    not constant-modulus); zero blocks are skipped.
    """
    pvec = (p.p if isinstance(p, HybridPrecoder) else np.asarray(p)).astype(complex)
    blocks = pvec.reshape(cfg.n_rf, cfg.n_k)
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
    return HybridPrecoder(
        p=pvec,
        n_rf=cfg.n_rf,
        f_blocks=f_blocks,
        d_gains=d_gains,
        recon_errors=errors,
        infeasible_blocks=tuple(infeasible),
        skipped_blocks=tuple(skipped),
    )
