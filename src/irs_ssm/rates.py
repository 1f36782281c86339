"""Cut-off rates, the approximate secrecy rate, the pair kernel, and a Monte Carlo MI oracle.

The cut-off rate of the discrete-input link is built from pairwise exponent
terms over all ordered transmit-hypothesis pairs,

    kappa = sum_{m,n} exp(-tau * ||W (X_m - X_n) p||^2),    tau = beta P / 4,

with W the whitened effective channel H~ + G~ V F (Bob) or Q~ + M~ V F (Eve),
given by ``model.effective_channels`` on the whitened channels that
``model.link_state`` returns.  Those depend on v alone: the AN shaping matrix
is the null-space projector of Bob's effective channel when n_rf > n_b and
the identity otherwise, since every unitary gives the same AN covariance.  The approximate secrecy rate is
log2(kappa_E) - log2(kappa_B), equal to the Bob/Eve cut-off rate difference.
Every layer evaluates its pair sums with one kernel on a K-row stack R (here
r_m = W X_m p): ``pair_distances`` gives the K x K distances from the Gram
matrix conj(R) R^T, and ``pair_laplacian`` applies the pair Laplacian L_w, so
sum_{m,n} w_mn (a_m - a_n)^H (b_m - b_n) = a^H L_w b.  The Monte Carlo mutual
information here is a validation oracle only; the optimizers never consume
it because each estimate costs thousands of noise draws per channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .model import (
    LN2,
    Constellation,
    HybridPrecoder,
    SystemConfig,
    WhitenedChannels,
    effective_channels,
    enumerate_hypotheses,
    hypothesis_matrix,
)


@dataclass(frozen=True)
class RateReport:
    """Cut-off rates (bits) and the approximate secrecy rate for one state."""

    i0_bob: float
    i0_eve: float
    r_approx: float
    kappa_b: float
    kappa_e: float


def _as_vector(p: HybridPrecoder | np.ndarray) -> np.ndarray:
    return p.p if isinstance(p, HybridPrecoder) else np.asarray(p)


def pair_distances(stack: np.ndarray) -> np.ndarray:
    """K x K squared distances ||r_m - r_n||^2 between the rows of ``stack``.

    Forward face of the pair kernel: d_mn = G_mm + G_nn - 2 Re G_mn from the
    Gram matrix G = conj(R) R^T, with the diagonal set to exactly zero and
    cancellation below zero clamped, so d >= 0 everywhere.
    """
    gram = np.conj(stack) @ stack.T
    norms = gram.diagonal().real
    dist = norms[:, None] + norms[None, :] - 2.0 * gram.real
    np.fill_diagonal(dist, 0.0)
    return np.maximum(dist, 0.0, out=dist)


def pair_laplacian(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """L_w R for real K x K pair weights w, L_w = diag(w 1 + w^T 1) - w - w^T.

    Adjoint face of the pair kernel: for row stacks a and b,
    sum_{m,n} w_mn (a_m - a_n)^H (b_m - b_n) = a^H L_w b.
    """
    degree = w.sum(axis=1) + w.sum(axis=0)
    return degree[:, None] * stack - (w + w.T) @ stack


def exponent_sum(dist: np.ndarray, tau: float) -> float:
    """sum exp(-tau d) over pair distances; in [K, K^2] for a K x K kernel output.

    Individual exp underflows saturate to zero, which only sharpens the sum
    toward its lower bound.
    """
    with np.errstate(under="ignore"):
        return float(np.sum(np.exp(-tau * dist)))


def kappa(w_eff: np.ndarray, x_mat: np.ndarray, p: HybridPrecoder | np.ndarray, tau: float) -> float:
    """Pairwise exponent sum over all ordered pairs of the (K, n_tx) hypothesis stack."""
    resp = (x_mat * _as_vector(p)[None, :]) @ w_eff.T  # (K, n_r)
    return exponent_sum(pair_distances(resp), tau)


def approx_secrecy_rate(
    cfg: SystemConfig,
    wch: WhitenedChannels,
    v: np.ndarray,
    p: HybridPrecoder | np.ndarray,
    cons: Constellation | None = None,
) -> RateReport:
    """Cut-off rates for Bob and Eve and their difference.

    ``r_approx`` may be negative when Eve holds the better link; no clamping
    is applied.
    """
    cons = cons if cons is not None else Constellation.psk(cfg.m_ary)
    hyps = enumerate_hypotheses(cfg, cons)
    x_mat = hypothesis_matrix(hyps)
    w_b, w_e = effective_channels(wch, v)
    pvec = _as_vector(p)
    kb = kappa(w_b, x_mat, pvec, cfg.tau)
    ke = kappa(w_e, x_mat, pvec, cfg.tau)
    log2k = np.log2(cfg.n_hyp)
    i0_bob = 2.0 * log2k - np.log2(kb)
    i0_eve = 2.0 * log2k - np.log2(ke)
    return RateReport(
        i0_bob=float(i0_bob),
        i0_eve=float(i0_eve),
        r_approx=float(i0_bob - i0_eve),
        kappa_b=kb,
        kappa_e=ke,
    )


def _mc_mi_one_receiver(
    f_pairs: np.ndarray,  # (K, K, n_r) whitened pairwise signal differences
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = 256,
) -> tuple[float, float]:
    """Sample-mean MI (bits) and its standard error, unit-variance noise.

    Uses exp(-||f + w||^2 + ||w||^2) = exp(-||f||^2 - 2 Re<f, w>) so only the
    cross term needs fresh draws.  Noise draws are shared across the outer
    hypothesis index, which leaves the estimate unbiased and makes the
    per-draw aggregate the natural unit for the standard error.
    """
    k_hyp, _, n_r = f_pairs.shape
    norm_sq = np.sum(np.abs(f_pairs) ** 2, axis=2)  # (K, K)
    per_draw = np.empty(n_samples)
    done = 0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        w = (rng.standard_normal((size, n_r)) + 1j * rng.standard_normal((size, n_r))) / np.sqrt(2.0)
        cross = 2.0 * np.real(np.einsum("mnr,sr->mns", np.conj(f_pairs), w))
        expo = -norm_sq[:, :, None] - cross  # (K, K, S)
        lse = logsumexp(expo, axis=1) / LN2  # log2 sum_n, shape (K, S)
        per_draw[done : done + size] = np.mean(lse, axis=0)
        done += size
    mi = np.log2(k_hyp) - float(np.mean(per_draw))
    se = float(np.std(per_draw, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mi, se


def mc_mutual_information(
    cfg: SystemConfig,
    wch: WhitenedChannels,
    v: np.ndarray,
    p: HybridPrecoder | np.ndarray,
    n_noise_samples: int,
    seed: int,
    cons: Constellation | None = None,
) -> tuple[float, float, tuple[float, float]]:
    """Monte Carlo mutual information (bits) at Bob and Eve.

    The expectation over whitened noise is replaced by a sample mean over
    ``n_noise_samples`` draws from counter-based streams, so the result is
    deterministic per seed.  Returns (mi_bob, mi_eve, (se_bob, se_eve)).
    """
    if n_noise_samples < 100:
        raise ValueError("n_noise_samples must be >= 100")
    cons = cons if cons is not None else Constellation.psk(cfg.m_ary)
    hyps = enumerate_hypotheses(cfg, cons)
    x_mat = hypothesis_matrix(hyps)
    pvec = _as_vector(p)
    scale = np.sqrt(cfg.beta * cfg.p_total)
    ss = np.random.SeedSequence(entropy=seed)
    stream_b, stream_e = ss.spawn(2)
    results = []
    for w_eff, stream in zip(effective_channels(wch, v), (stream_b, stream_e)):
        resp = scale * ((x_mat * pvec[None, :]) @ w_eff.T)  # (K, n_r)
        f_pairs = resp[:, None, :] - resp[None, :, :]
        rng = np.random.Generator(np.random.Philox(stream))
        results.append(_mc_mi_one_receiver(f_pairs, n_noise_samples, rng))
    (mi_b, se_b), (mi_e, se_e) = results
    return mi_b, mi_e, (se_b, se_e)
