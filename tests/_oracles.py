"""Independent brute-force reference implementations used only by the tests.

Everything here trades efficiency for obviousness: dense per-pair matrix
products, elementwise covariance reassembly, exhaustive phase grids, and a
full-matrix SDP solver.  None of it shares code paths with the package's
optimized implementations.
"""

from __future__ import annotations

import numpy as np

from irs_ssm.model import (
    ChannelSet,
    SystemConfig,
    TransmitHypothesis,
    WhitenedChannels,
    assemble_analog_matrix,
)


def dense_selection_matrix(hyp: TransmitHypothesis, n_rf: int, n_k: int) -> np.ndarray:
    """E_i b_j as a dense diagonal matrix."""
    e = np.zeros((n_rf * n_k, n_rf * n_k), dtype=complex)
    lo = (hyp.subarray - 1) * n_k
    for t in range(lo, lo + n_k):
        e[t, t] = hyp.symbol
    return e


def kappa_dense(
    w_eff: np.ndarray,
    hyps: list[TransmitHypothesis],
    p: np.ndarray,
    tau: float,
    n_rf: int,
    n_k: int,
) -> float:
    """Double loop over ordered pairs with dense matrix products."""
    total = 0.0
    mats = [dense_selection_matrix(h, n_rf, n_k) for h in hyps]
    for xm in mats:
        for xn in mats:
            d = xm - xn
            total += np.exp(-tau * np.linalg.norm(w_eff @ d @ p) ** 2)
    return total


def dense_pair_matrices(
    w_eff: np.ndarray,
    hyps: list[TransmitHypothesis],
    n_rf: int,
    n_k: int,
) -> np.ndarray:
    """(K, K, n_tx, n_tx) stack of D^H W^H W D with D = X_m - X_n, built densely."""
    mats = [dense_selection_matrix(h, n_rf, n_k) for h in hyps]
    gram = w_eff.conj().T @ w_eff
    return np.array([[(xm - xn).conj().T @ gram @ (xm - xn) for xn in mats] for xm in mats])


def secrecy_rate_dense(
    cfg: SystemConfig,
    wch: WhitenedChannels,
    v: np.ndarray,
    p: np.ndarray,
) -> float:
    from irs_ssm.model import enumerate_hypotheses

    hyps = enumerate_hypotheses(cfg)
    vf = v[:, None] * wch.f
    w_b = wch.h + wch.g @ vf
    w_e = wch.q + wch.m @ vf
    kb = kappa_dense(w_b, hyps, p, cfg.tau, cfg.n_rf, cfg.n_k)
    ke = kappa_dense(w_e, hyps, p, cfg.tau, cfg.n_rf, cfg.n_k)
    return float(np.log2(ke) - np.log2(kb))


def an_covariances_elementwise(
    cfg: SystemConfig,
    ch: ChannelSet,
    v: np.ndarray,
    fa_blocks: np.ndarray,
    t_an: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Omega matrices rebuilt entry by entry from explicit sums."""
    fa = assemble_analog_matrix(fa_blocks)
    vmat = np.diag(v)
    eff_b = ch.h + ch.g @ vmat @ ch.f
    eff_e = ch.q + ch.m @ vmat @ ch.f
    xb = eff_b @ fa @ t_an
    xe = eff_e @ fa @ t_an
    cb = np.zeros((cfg.n_b, cfg.n_b), dtype=complex)
    for a in range(cfg.n_b):
        for b in range(cfg.n_b):
            cb[a, b] = sum(xb[a, k] * np.conj(xb[b, k]) for k in range(cfg.n_rf))
    ce = np.zeros((cfg.n_e, cfg.n_e), dtype=complex)
    for a in range(cfg.n_e):
        for b in range(cfg.n_e):
            ce[a, b] = sum(xe[a, k] * np.conj(xe[b, k]) for k in range(cfg.n_rf))
    an_power = (1.0 - cfg.beta) * cfg.p_total
    return (
        an_power * cb + cfg.sigma_b2 * np.eye(cfg.n_b),
        an_power * ce + cfg.sigma_e2 * np.eye(cfg.n_e),
    )


def surrogate_direct(
    cfg: SystemConfig,
    wch: WhitenedChannels,
    p: np.ndarray,
    v: np.ndarray,
) -> float:
    """tau log2(e) [sum of Bob pair norms - sum of Eve pair norms] at v."""
    from irs_ssm.model import enumerate_hypotheses

    hyps = enumerate_hypotheses(cfg)
    vf = v[:, None] * wch.f
    w_b = wch.h + wch.g @ vf
    w_e = wch.q + wch.m @ vf
    total = 0.0
    for hm in hyps:
        for hn in hyps:
            dm = dense_selection_matrix(hm, cfg.n_rf, cfg.n_k) - dense_selection_matrix(
                hn, cfg.n_rf, cfg.n_k
            )
            total += np.linalg.norm(w_b @ dm @ p) ** 2 - np.linalg.norm(w_e @ dm @ p) ** 2
    return float(cfg.tau * np.log2(np.e) * total)


def grid_search_phases(value_fn, n_dims: int, n_points: int = 360) -> tuple[float, np.ndarray]:
    """Exhaustive search of value_fn over a phase grid; tractable for n_dims <= 4.

    value_fn must accept a batch (S, n_dims) of unit-modulus vectors and
    return (S,) values.
    """
    angles = 2.0 * np.pi * np.arange(n_points) / n_points
    phases = np.exp(1j * angles)
    if n_dims == 1:
        vals = value_fn(phases[:, None])
        k = int(np.argmax(vals))
        return float(vals[k]), phases[k : k + 1]
    best_val = -np.inf
    best_v = None
    tail = np.stack(
        np.meshgrid(*([phases] * (n_dims - 1)), indexing="ij"), axis=-1
    ).reshape(-1, n_dims - 1)
    for lead in phases:
        batch = np.concatenate(
            [np.full((tail.shape[0], 1), lead), tail], axis=1
        )
        vals = value_fn(batch)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_v = batch[k].copy()
    return best_val, best_v


def sdp_unit_diag_admm(
    psi: np.ndarray, n_iters: int = 4000, rho: float = 1.0
) -> tuple[np.ndarray, float]:
    """Full-matrix splitting solver for max tr(psi Q), diag(Q)=1, Q >= 0.

    Alternates a PSD projection against the unit-diagonal affine constraint
    with a scaled dual; independent of the package's factorized solver.
    """
    k = psi.shape[0]
    z = np.eye(k, dtype=complex)
    u = np.zeros((k, k), dtype=complex)
    q = z.copy()
    for _ in range(n_iters):
        # PSD-cone step absorbs the linear objective
        target = z - u + psi / rho
        target = 0.5 * (target + target.conj().T)
        lam, vec = np.linalg.eigh(target)
        q = (vec * np.clip(lam, 0.0, None)) @ vec.conj().T
        z = q + u
        np.fill_diagonal(z, 1.0)
        u = u + q - z
    q = 0.5 * (q + q.conj().T)
    return q, float(np.trace(psi @ q).real)


def random_search_ball(value_fn, n_dim: int, radius: float, n_samples: int, seed: int) -> float:
    """Best objective over random points of the complex norm ball (dense near the shell)."""
    rng = np.random.default_rng(seed)
    best = -np.inf
    chunk = 2000
    done = 0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        z = rng.standard_normal((size, n_dim)) + 1j * rng.standard_normal((size, n_dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        radii = radius * rng.uniform(0.5, 1.0, size=(size, 1)) ** 0.25
        pts = z * radii
        vals = value_fn(pts)
        best = max(best, float(np.max(vals)))
        done += size
    return best
