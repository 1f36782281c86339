"""Cut-off rates, the approximate secrecy rate, the pair kernel, and a Monte Carlo MI oracle.

The cut-off rate of the discrete-input link is built from pairwise exponent
terms over all ordered transmit-hypothesis pairs,

    kappa = sum_{m,n} exp(-tau * ||W (X_m - X_n) p||^2),    tau = beta P / 4,

with W the whitened effective channel H~ + G~ V F (Bob) or Q~ + M~ V F (Eve),
given by ``model.effective_channels`` on the whitened channels that
``model.link_state`` returns (they depend on v alone).  The approximate
secrecy rate log2(kappa_E) - log2(kappa_B) is computed one way:
``subarray_pairs`` is the one forward pass at p and ``rate_from_kappas`` the
one log ratio.  ``kappas`` runs that pass on the ``receiver_stack`` (W_B and
W_E on a leading axis, Bob first, the smaller zero-padded, which leaves its
distances unchanged up to the rounding of the Gram sums); the IRS layer and
``approx_secrecy_rate`` apply ``rate_from_kappas`` to it, and the precoder
layer memoizes the same pass per point, so all three return one float.

The pair kernel is factored by subarray.  Hypothesis m = (i, j) sends
M-PSK symbol s_j on subarray i, so r_m = s_j u_i with u_i = W_i p_i
(``subarray_responses``).  The hypothesis set is read from the config
(n_rf, m_ary) alone: |s_j| = 1 and conj(s_j) s_j' = c_delta depends only on
delta = (j' - j) mod M (``psk_rotations``), so

    ||r_m - r_n||^2 = ||u_i - c_delta u_i'||^2

and the K^2 = (n_rf M)^2 ordered pairs collapse to n_rf^2 M terms on the
index (i, delta, i'), each standing for M pairs.  ``subarray_pairs`` builds
u and the rotated stack c_delta u_i', forms the (n_rf, M, n_rf) distances in
place in the buffer of one real Gram of the two, then the weights
exp(-tau d) and kappa = M sum exp(-tau d), so K <= kappa <= K^2 holds
exactly.  The arrays are tiny (2 x 8 x 2 responses at full scale), so the
pass is written for few numpy calls rather than few FLOPs.  The precoder
gradient pulls weights on the same index back with one product with the
rotated stack, the ASR-SCA surrogate is built from one pass at its
expansion point, and the IRS forms' all-ones pair sums reduce to sums over
u_i (see ``irs_opt``).  No K x K Gram is formed, and only the Monte Carlo
oracle builds the K responses W X_m p.
That oracle validates the rates; the optimizers never consume it because
each estimate costs thousands of noise draws per channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    LN2,
    Constellation,
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


def receiver_stack(w_b: np.ndarray, w_e: np.ndarray) -> np.ndarray:
    """(2, max(n_b, n_e), n_tx) stack of Bob's and Eve's channels, the smaller zero-padded."""
    n_r = max(len(w_b), len(w_e))
    stack = np.zeros((2, n_r, w_b.shape[1]), dtype=np.result_type(w_b, w_e))
    stack[0, : len(w_b)] = w_b
    stack[1, : len(w_e)] = w_e
    return stack


def psk_rotations(m_ary: int) -> np.ndarray:
    """(M,) rotations c_delta = conj(s_j) s_{j + delta} of M-PSK: c_delta = s_delta, as s_0 = 1."""
    return Constellation.psk(m_ary).symbols


def subarray_channels(w_eff: np.ndarray, n_rf: int) -> np.ndarray:
    """(..., n_rf, n_r, n_k) blocks W_i of a (..., n_r, n_tx) channel stack, subarray first."""
    w = np.asarray(w_eff, dtype=complex)
    return w.reshape(*w.shape[:-1], n_rf, -1).swapaxes(-2, -3)


def subarray_responses(w_blocks: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(..., n_rf, n_r) subarray responses u_i = W_i p_i of (..., n_rf, n_r, n_k) ``subarray_channels``."""
    n_rf, n_k = w_blocks.shape[-3], w_blocks.shape[-1]
    if np.shape(p) != (n_rf * n_k,):  # every layer reads p through here
        raise ValueError(f"precoder p has shape {np.shape(p)}, expected ({n_rf * n_k},): n_rf * n_k = {n_rf} * {n_k}")
    return (w_blocks @ p.reshape(n_rf, n_k, 1))[..., 0]


class SubarrayPairs(NamedTuple):
    """The forward pass at p: everything the rate and its gradient read.

    With a ``receiver_stack`` every field carries a leading receiver axis,
    Bob first, and kappa is a (2,) array.  The pair index (i, delta, i') of
    ``dist`` and ``chi`` is the row index of the rotated stack on its last
    two axes, so a weighted sum over pairs is one product with ``u_rot``.
    """

    u: np.ndarray  # (..., n_rf, n_r) subarray responses u_i = W_i p_i
    u_rot: np.ndarray  # (..., M n_rf, n_r) rotated stack c_delta u_i', row delta n_rf + i'
    dist: np.ndarray  # (..., n_rf, M, n_rf) distances ||u_i - c_delta u_i'||^2, all >= 0
    chi: np.ndarray  # (..., n_rf, M, n_rf) pair weights exp(-tau d), all in [0, 1]
    kappa: np.ndarray  # M sum chi, each in [K, K^2]


def subarray_pairs(w_blocks: np.ndarray, rot: np.ndarray, p: np.ndarray, tau: float) -> SubarrayPairs:
    """Forward pass of the pair kernel on (..., n_rf, n_r, n_k) ``subarray_channels``.

    One real product of u with the rotated stack gives the Gram
    Re<u_i, c_delta u_i'>, whose delta = 0 diagonal holds the norms (c_0 = 1).
    The distances ||u_i||^2 + ||u_i'||^2 - 2 Re<u_i, c_delta u_i'> are then
    formed in place in the Gram's buffer.  The norms are read from the very
    entries they cancel, so (i, 0, i) comes out exactly zero, and
    cancellation below zero elsewhere is clamped, so d >= 0 everywhere.  Each
    (i, delta, i') term stands for the M ordered pairs
    ((i, j), (i', j + delta)), so kappa = M sum chi.  Individual exp
    underflows saturate to zero, which only sharpens kappa toward its lower
    bound K; they are not reported, whatever the caller's ``np.errstate``.
    """
    u = subarray_responses(w_blocks, p)
    *lead, n_rf, n_r = u.shape
    m = len(rot)
    u_rot = (rot[:, None] * u.reshape(*lead, 1, n_rf * n_r)).reshape(*lead, m * n_rf, n_r)
    dist = (u.view(float) @ u_rot.view(float).swapaxes(-1, -2)).reshape(*lead, n_rf, m, n_rf)
    norms = dist.reshape(*lead, -1)[..., :: m * n_rf + 1]  # the (i, 0, i) entries
    rim = norms[..., :, None] + norms[..., None, :]  # ||u_i||^2 + ||u_i'||^2
    dist *= -2.0
    dist += rim[..., :, None, :]  # (i, 0, i) is now 2 n_i - 2 n_i, exactly zero
    np.maximum(dist, 0.0, out=dist)
    chi = dist * -tau
    with np.errstate(under="ignore"):
        np.exp(chi, out=chi)
    return SubarrayPairs(u, u_rot, dist, chi, np.add.reduce(chi, axis=(-3, -2, -1)) * m)


def kappas(
    cfg: SystemConfig, w_b: np.ndarray, w_e: np.ndarray, p: HybridPrecoder | np.ndarray
) -> tuple[float, float]:
    """(kappa_B, kappa_E) from one forward pass on the ``receiver_stack``."""
    w_blocks = subarray_channels(receiver_stack(w_b, w_e), cfg.n_rf)
    kb, ke = subarray_pairs(w_blocks, psk_rotations(cfg.m_ary), np.asarray(p), cfg.tau).kappa.tolist()
    return kb, ke


def rate_from_kappas(kappa_b: float, kappa_e: float) -> float:
    """log2 kappa_E - log2 kappa_B: the approximate secrecy rate from the two exponent sums."""
    return float(np.log2(kappa_e) - np.log2(kappa_b))


def approx_secrecy_rate(
    cfg: SystemConfig,
    wch: WhitenedChannels,
    v: np.ndarray,
    p: HybridPrecoder | np.ndarray,
) -> RateReport:
    """Cut-off rates for Bob and Eve and their difference.

    ``r_approx`` is ``rate_from_kappas`` of ``kappas`` on the effective
    channels at v, and may be negative when Eve holds the better link; no
    clamping is applied.
    """
    kb, ke = kappas(cfg, *effective_channels(wch, v), p)
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
    signals = hypothesis_matrix(cfg) * np.asarray(p)[None, :]  # rows X_m p
    scale = np.sqrt(cfg.beta * cfg.p_total)
    ss = np.random.SeedSequence(entropy=seed)
    stream_b, stream_e = ss.spawn(2)
    results = []
    for w_eff, stream in zip(effective_channels(wch, v), (stream_b, stream_e)):
        resp = scale * (signals @ w_eff.T)  # (K, n_r) responses W X_m p
        f_pairs = resp[:, None, :] - resp[None, :, :]
        rng = np.random.Generator(np.random.Philox(stream))
        results.append(_mc_mi_one_receiver(f_pairs, n_noise_samples, rng))
    (mi_b, se_b), (mi_e, se_e) = results
    return mi_b, mi_e, (se_b, se_e)
