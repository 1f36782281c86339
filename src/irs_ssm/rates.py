"""Cut-off rates, the approximate secrecy rate, the pair kernel, and a Monte Carlo MI oracle.

The cut-off rate of the discrete-input link is built from pairwise exponent
terms over all ordered transmit-hypothesis pairs,

    kappa = sum_{m,n} exp(-tau * ||W (X_m - X_n) p||^2),    tau = beta P / 4,

with W the whitened effective channel H~ + G~ V F (Bob) or Q~ + M~ V F (Eve),
given by ``model.effective_channels`` on the whitened channels that
``model.link_state`` returns.  Those depend on v alone: the AN shaping matrix
is the null-space projector of Bob's effective channel when n_rf > n_b and
the identity otherwise, since every unitary gives the same AN covariance.
The approximate secrecy rate log2(kappa_E) - log2(kappa_B), the Bob/Eve
cut-off rate difference, is computed one way: ``pair_weights`` is the one
forward pass of a receiver at p (the response stack R, the K x K distances d,
the pair weights exp(-tau d) and their sum kappa) and ``rate_from_kappas``
the one log ratio.  ``secrecy_rate`` chains them; the precoder layer memoizes
the two passes per point and applies the same ratio, the IRS layer returns
``secrecy_rate``'s float, and ``approx_secrecy_rate``, the rate the joint
steps and the harness report on the refreshed link, returns the same float.
The hypothesis stack X is ``model.hypothesis_matrix(cfg)``.
Every layer evaluates its pair sums with one kernel on a K-row stack R (here
r_m = W X_m p): ``pair_distances`` gives the K x K distances from the Gram
matrix conj(R) R^T, and ``pair_laplacian`` applies the pair Laplacian L_w, so
sum_{m,n} w_mn (a_m - a_n)^H (b_m - b_n) = a^H L_w b.  The Monte Carlo mutual
information here is a validation oracle only; the optimizers never consume
it because each estimate costs thousands of noise draws per channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from .model import (
    LN2,
    HybridPrecoder,
    SystemConfig,
    WhitenedChannels,
    effective_channels,
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


class PairWeights(NamedTuple):
    """One receiver's forward pass at p: everything the rate and its gradient read."""

    resp: np.ndarray  # (K, n_r) response stack r_m = W X_m p
    dist: np.ndarray  # K x K pair distances ||r_m - r_n||^2
    chi: np.ndarray  # K x K pair weights exp(-tau d)
    kappa: float  # sum of chi, in [K, K^2]


def pair_weights(w_eff: np.ndarray, x_mat: np.ndarray, p: np.ndarray, tau: float) -> PairWeights:
    """Forward pass of the pair kernel on the response stack of one receiver.

    Individual exp underflows saturate to zero, which only sharpens kappa
    toward its lower bound K.
    """
    resp = (x_mat * p[None, :]) @ w_eff.T
    dist = pair_distances(resp)
    with np.errstate(under="ignore"):
        chi = np.exp(-tau * dist)
    return PairWeights(resp, dist, chi, float(np.sum(chi)))


def kappa(w_eff: np.ndarray, x_mat: np.ndarray, p: HybridPrecoder | np.ndarray, tau: float) -> float:
    """Pairwise exponent sum over all ordered pairs of the (K, n_tx) hypothesis stack."""
    return pair_weights(w_eff, x_mat, np.asarray(p), tau).kappa


def rate_from_kappas(kappa_b: float, kappa_e: float) -> float:
    """log2 kappa_E - log2 kappa_B: the approximate secrecy rate from the two exponent sums."""
    return float(np.log2(kappa_e) - np.log2(kappa_b))


def secrecy_rate(
    w_b: np.ndarray, w_e: np.ndarray, x_mat: np.ndarray, p: HybridPrecoder | np.ndarray, tau: float
) -> float:
    """log2 kappa_E - log2 kappa_B on the whitened effective channels (W_B, W_E).

    The one evaluation of the approximate secrecy rate: the IRS forms read it
    here, and the precoder quadratics and ``approx_secrecy_rate`` (the rate
    the joint loop and the harness report) chain the same ``pair_weights``
    and ``rate_from_kappas``.
    """
    return rate_from_kappas(kappa(w_b, x_mat, p, tau), kappa(w_e, x_mat, p, tau))


def approx_secrecy_rate(
    cfg: SystemConfig,
    wch: WhitenedChannels,
    v: np.ndarray,
    p: HybridPrecoder | np.ndarray,
) -> RateReport:
    """Cut-off rates for Bob and Eve and their difference.

    ``r_approx`` equals ``secrecy_rate`` at the same state bit for bit, and
    may be negative when Eve holds the better link; no clamping is applied.
    """
    x_mat = hypothesis_matrix(cfg)
    w_b, w_e = effective_channels(wch, v)
    kb = kappa(w_b, x_mat, p, cfg.tau)
    ke = kappa(w_e, x_mat, p, cfg.tau)
    log2k = np.log2(cfg.n_hyp)
    return RateReport(
        i0_bob=float(2.0 * log2k - np.log2(kb)),
        i0_eve=float(2.0 * log2k - np.log2(ke)),
        r_approx=rate_from_kappas(kb, ke),
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
) -> tuple[float, float, tuple[float, float]]:
    """Monte Carlo mutual information (bits) at Bob and Eve.

    The expectation over whitened noise is replaced by a sample mean over
    ``n_noise_samples`` draws from counter-based streams, so the result is
    deterministic per seed.  Returns (mi_bob, mi_eve, (se_bob, se_eve)).
    """
    if n_noise_samples < 100:
        raise ValueError("n_noise_samples must be >= 100")
    x_mat = hypothesis_matrix(cfg)
    pvec = np.asarray(p)
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
