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
forward pass at p (the response stacks R, the K x K distances d, the pair
weights exp(-tau d) and their sums kappa) and ``rate_from_kappas`` the one log
ratio.  Both receivers go through one pass: ``receiver_stack`` puts W_B and
W_E on a leading axis of a (2, max(n_b, n_e), n_tx) array, Bob first, with
the smaller receiver zero-padded.  A zero row adds a zero column to that
receiver's response stack, which leaves its distances and kappa unchanged up
to the rounding of the Gram sums; with n_b = n_e nothing is padded.
``secrecy_rate`` chains the pass and the ratio; the precoder layer memoizes
the stacked pass per point and applies the same ratio, the IRS layer returns
``secrecy_rate``'s float, and ``approx_secrecy_rate``, the rate the joint
steps and the harness report on the refreshed link, returns the same float.
The hypothesis stack X is ``model.hypothesis_matrix(cfg)``.
Every layer evaluates its pair sums with one kernel on a K-row stack R (here
r_m = W X_m p), with any leading axes (the receiver axis) carried through:
``pair_distances`` gives the K x K distances from the Gram matrix
conj(R) R^T, and ``pair_laplacian`` applies the pair Laplacian L_w, so
sum_{m,n} w_mn (a_m - a_n)^H (b_m - b_n) = a^H L_w b.  The Monte Carlo mutual
information here is a validation oracle only; the optimizers never consume
it because each estimate costs thousands of noise draws per channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    LN2,
    HybridPrecoder,
    SystemConfig,
    WhitenedChannels,
    effective_channels,
    hypothesis_matrix,
)

MC_CHUNK = 256  # noise draws per block of the Monte Carlo MI oracle


@dataclass(frozen=True)
class RateReport:
    """Cut-off rates (bits) and the approximate secrecy rate for one state."""

    i0_bob: float
    i0_eve: float
    r_approx: float
    kappa_b: float
    kappa_e: float


def pair_distances(stack: np.ndarray) -> np.ndarray:
    """(..., K, K) squared distances ||r_m - r_n||^2 between the rows of each (K, n_r) stack.

    Forward face of the pair kernel: d_mn = G_mm + G_nn - 2 Re G_mn from the
    Gram matrix G = conj(R) R^T, with the diagonal set to exactly zero and
    cancellation below zero clamped, so d >= 0 everywhere.
    """
    gram = np.conj(stack) @ np.swapaxes(stack, -1, -2)
    norms = np.diagonal(gram, axis1=-2, axis2=-1).real
    dist = norms[..., :, None] + norms[..., None, :] - 2.0 * gram.real
    k = dist.shape[-1]
    # dist is a fresh C-contiguous array, so this reshape is a view of it
    dist.reshape(*dist.shape[:-2], k * k)[..., :: k + 1] = 0.0
    return np.maximum(dist, 0.0, out=dist)


def pair_laplacian(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """L_w R for real (..., K, K) pair weights w, L_w = diag(w 1 + w^T 1) - w - w^T.

    Adjoint face of the pair kernel: for row stacks a and b,
    sum_{m,n} w_mn (a_m - a_n)^H (b_m - b_n) = a^H L_w b.
    """
    degree = w.sum(axis=-1) + w.sum(axis=-2)
    return degree[..., :, None] * stack - (w + np.swapaxes(w, -1, -2)) @ stack


def receiver_stack(w_b: np.ndarray, w_e: np.ndarray) -> np.ndarray:
    """(2, max(n_b, n_e), n_tx) stack of Bob's and Eve's channels, the smaller zero-padded."""
    n_r = max(len(w_b), len(w_e))
    stack = np.zeros((2, n_r, w_b.shape[1]), dtype=np.result_type(w_b, w_e))
    stack[0, : len(w_b)] = w_b
    stack[1, : len(w_e)] = w_e
    return stack


def response_stack(w_eff: np.ndarray, x_mat: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(..., K, n_r) responses r_m = W X_m p for a (..., n_r, n_tx) channel stack W."""
    return (x_mat * p[None, :]) @ np.swapaxes(w_eff, -1, -2)


class PairWeights(NamedTuple):
    """The forward pass at p: everything the rate and its gradient read.

    With a (2, n_r, n_tx) ``receiver_stack`` every field carries a leading
    receiver axis, Bob first, and kappa is a (2,) array.
    """

    resp: np.ndarray  # (..., K, n_r) response stacks r_m = W X_m p
    dist: np.ndarray  # (..., K, K) pair distances ||r_m - r_n||^2
    chi: np.ndarray  # (..., K, K) pair weights exp(-tau d)
    kappa: float | np.ndarray  # sums of chi, each in [K, K^2]


def pair_weights(w_eff: np.ndarray, x_mat: np.ndarray, p: np.ndarray, tau: float) -> PairWeights:
    """Forward pass of the pair kernel on the response stacks of a (..., n_r, n_tx) channel stack.

    Individual exp underflows saturate to zero, which only sharpens kappa
    toward its lower bound K.
    """
    resp = response_stack(w_eff, x_mat, p)
    dist = pair_distances(resp)
    with np.errstate(under="ignore"):
        chi = np.exp(-tau * dist)
    return PairWeights(resp, dist, chi, np.sum(chi, axis=(-2, -1)))


def kappa(w_eff: np.ndarray, x_mat: np.ndarray, p: HybridPrecoder | np.ndarray, tau: float) -> float:
    """Pairwise exponent sum of one receiver over all ordered pairs of the (K, n_tx) hypothesis stack."""
    return float(pair_weights(w_eff, x_mat, np.asarray(p), tau).kappa)


def kappas(
    w_b: np.ndarray, w_e: np.ndarray, x_mat: np.ndarray, p: HybridPrecoder | np.ndarray, tau: float
) -> tuple[float, float]:
    """(kappa_B, kappa_E) from one forward pass on the ``receiver_stack``."""
    kb, ke = pair_weights(receiver_stack(w_b, w_e), x_mat, np.asarray(p), tau).kappa.tolist()
    return kb, ke


def rate_from_kappas(kappa_b: float, kappa_e: float) -> float:
    """log2 kappa_E - log2 kappa_B: the approximate secrecy rate from the two exponent sums."""
    return float(np.log2(kappa_e) - np.log2(kappa_b))


def secrecy_rate(
    w_b: np.ndarray, w_e: np.ndarray, x_mat: np.ndarray, p: HybridPrecoder | np.ndarray, tau: float
) -> float:
    """log2 kappa_E - log2 kappa_B on the whitened effective channels (W_B, W_E).

    The one evaluation of the approximate secrecy rate: the IRS forms read it
    here, and the precoder quadratics and ``approx_secrecy_rate`` (the rate
    the joint loop and the harness report) chain the same stacked
    ``pair_weights`` and ``rate_from_kappas``.
    """
    return rate_from_kappas(*kappas(w_b, w_e, x_mat, p, tau))


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
    kb, ke = kappas(*effective_channels(wch, v), hypothesis_matrix(cfg), p, cfg.tau)
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
) -> tuple[float, float]:
    """Sample-mean MI (bits) and its standard error, unit-variance noise.

    Uses exp(-||f + w||^2 + ||w||^2) = exp(-||f||^2 - 2 Re<f, w>) so only the
    cross term needs fresh draws.  Noise draws are shared across the outer
    hypothesis index, which leaves the estimate unbiased and makes the
    per-draw aggregate the natural unit for the standard error.  The inner
    sum over n is a log-sum-exp, ``np.logaddexp.reduce`` along that axis (the
    idiom ``ScaSubproblem.bob_upper`` uses), which never exponentiates a large
    exponent.
    """
    k_hyp, _, n_r = f_pairs.shape
    norm_sq = np.sum(np.abs(f_pairs) ** 2, axis=2)  # (K, K)
    per_draw = np.empty(n_samples)
    done = 0
    while done < n_samples:
        size = min(MC_CHUNK, n_samples - done)
        w = (rng.standard_normal((size, n_r)) + 1j * rng.standard_normal((size, n_r))) / np.sqrt(2.0)
        cross = 2.0 * np.real(np.einsum("mnr,sr->mns", np.conj(f_pairs), w))
        expo = -norm_sq[:, :, None] - cross  # (K, K, S)
        lse = np.logaddexp.reduce(expo, axis=1) / LN2  # log2 sum_n, shape (K, S)
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
