"""Cut-off rates, the approximate secrecy rate, the pair kernel, and a Monte Carlo MI oracle.

The cut-off rate of the discrete-input link is built from pairwise exponent
terms over all ordered transmit-hypothesis pairs,

    kappa = sum_{m,n} exp(-tau * ||W (X_m - X_n) p||^2),    tau = beta P / 4,

with W the whitened effective channel H~ + G~ V F (Bob) or Q~ + M~ V F (Eve),
given by ``model.effective_channels`` on the whitened channels that
``model.link_state`` returns (they depend on v alone).  The approximate
secrecy rate log2(kappa_E) - log2(kappa_B) is computed one way:
``link_kernel`` builds the ``PairKernel`` of a link point over the
``receiver_stack`` (W_B and W_E on a leading axis, Bob first, the smaller
zero-padded, which leaves its distances unchanged up to the rounding of the
Gram sums), its pass at p holds both kappas, and ``rate_from_kappas`` is the
one log ratio.  ``approx_secrecy_rate`` runs one pass on a new kernel (the
IRS forms score a candidate v through it), and the precoder quadratics keep
theirs, so every layer returns one float.

The pair kernel is factored by subarray.  Hypothesis m = (i, j) sends
M-PSK symbol s_j on subarray i, so r_m = s_j u_i with u_i = W_i p_i
(``subarray_responses``).  The hypothesis set is read from the config
(n_rf, m_ary) alone: |s_j| = 1 and conj(s_j) s_j' = c_delta depends only on
delta = (j' - j) mod M, with c_delta = s_delta as s_0 = 1
(``model.psk_symbols``), so

    ||r_m - r_n||^2 = ||u_i - c_delta u_i'||^2

and the K^2 = (n_rf M)^2 ordered pairs collapse to n_rf^2 M terms on the
index (i, delta, i'), each standing for M pairs.  A pass builds u and the
rotated stack c_delta u_i', forms the (n_rf, M, n_rf) distances in place in
the buffer of one real Gram of the two, then the weights exp(-tau d) and
kappa = M sum exp(-tau d), so K <= kappa <= K^2 holds exactly.  The arrays
are tiny (2 x 8 x 2 responses at full scale), so the cost of a pass is
numpy call overhead, not FLOPs: ``PairKernel`` allocates its outputs and the
views over them once, and each pass writes into them with ``out=``, keyed
on the bytes of the point they hold, so the GA's 500 steps allocate
nothing in the kernel.  Its pull-back maps weights on the same index back
to p with one product with the rotated stack (the precoder gradient), the
ASR-SCA surrogate is built from the pass at its expansion point, read in
place, and the IRS forms' all-ones pair sums reduce to sums over u_i (see
``irs_opt``).  No K x K Gram is formed.  Only ``model.ml_detect`` and the
Monte Carlo oracle build the K responses W X_m p, from the ``x_vec`` rows
of ``model.enumerate_hypotheses``; the oracle is kept off the factored
kernel because it is the check on that factoring.  It validates the rates;
the optimizers never consume it because each estimate costs thousands of
noise draws per channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LN2,
    HybridPrecoder,
    SystemConfig,
    WhitenedChannels,
    check_integer,
    check_seed,
    effective_channels,
    enumerate_hypotheses,
    psk_symbols,
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


def subarray_channels(w_eff: np.ndarray, n_rf: int) -> np.ndarray:
    """(..., n_rf, n_r, n_k) blocks W_i of a (..., n_r, n_tx) channel stack, subarray first."""
    w = np.asarray(w_eff, dtype=complex)
    return w.reshape(*w.shape[:-1], n_rf, -1).swapaxes(-2, -3)


def subarray_responses(w_blocks: np.ndarray, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(..., n_rf, n_r) subarray responses u_i = W_i p_i of (..., n_rf, n_r, n_k) ``subarray_channels``.

    ``out``, if given, is the (..., n_rf, n_r, 1) array the product is written to.
    """
    n_rf, n_k = w_blocks.shape[-3], w_blocks.shape[-1]
    if np.shape(p) != (n_rf * n_k,):  # every layer reads p through here
        raise ValueError(f"precoder p has shape {np.shape(p)}, expected ({n_rf * n_k},): n_rf * n_k = {n_rf} * {n_k}")
    return np.matmul(w_blocks, p.reshape(n_rf, n_k, 1), out=out)[..., 0]


class PairKernel:
    """The pair kernel on (..., n_rf, n_r, n_k) ``subarray_channels``: forward pass and pull-back.

    The pass at the point the kernel holds is read from its attributes:

    - ``u`` (..., n_rf, n_r): subarray responses u_i = W_i p_i;
    - ``u_rot`` (..., M n_rf, n_r): rotated stack c_delta u_i', row delta n_rf + i';
    - ``dist`` (..., n_rf, M, n_rf): distances ||u_i - c_delta u_i'||^2, all >= 0;
    - ``chi`` (same shape): pair weights exp(-tau d), all in [0, 1];
    - ``kappa`` (...): M sum chi, each in [K, K^2].

    With a ``receiver_stack`` each carries a leading receiver axis, Bob
    first.  The pair index (i, delta, i') of ``dist`` and ``chi`` is the row
    index of ``u_rot``, so a weighted sum over pairs is one product with it.
    Every output array, and every view the pass writes through, is allocated
    once here; each pass writes into them with ``out=``, so the next pass at
    another point overwrites them and a caller that keeps one copies it.
    ``at(p)`` runs a pass only when p's complex128 bytes differ from those
    of the point held, so a rate and then a gradient at one point cost one
    pass.  The channel blocks must not change after construction.
    """

    def __init__(self, w_blocks: np.ndarray, rot: np.ndarray, tau: float):
        *lead, n_rf, n_r, n_k = w_blocks.shape
        lead, m = tuple(lead), len(rot)
        self.w_blocks, self.rot, self.tau = w_blocks, rot, tau
        self._u_col = np.empty((*lead, n_rf, n_r, 1), dtype=complex)
        self.u = self._u_col[..., 0]
        self.u_rot = np.empty((*lead, m * n_rf, n_r), dtype=complex)
        self.dist = np.empty((*lead, n_rf, m, n_rf))
        self.chi = np.empty_like(self.dist)
        self.kappa = np.empty(lead)
        self._key = None  # complex128 bytes of the point the buffers hold
        # views the forward pass reads and writes through
        self._rot_col = rot[:, None]
        self._u_row = self.u.reshape(*lead, 1, n_rf * n_r)
        self._u_rot_rows = self.u_rot.reshape(*lead, m, n_rf * n_r)
        self._u_re = self.u.view(float)
        self._u_rot_re = self.u_rot.view(float)
        self._u_rot_re_t = self._u_rot_re.swapaxes(-1, -2)
        self._gram = self.dist.reshape(*lead, n_rf, m * n_rf)
        norms = self.dist.reshape(*lead, -1)[..., :: m * n_rf + 1]  # the (i, 0, i) entries
        self._norms_col, self._norms_row = norms[..., :, None], norms[..., None, :]
        self._rim = np.empty((*lead, n_rf, n_rf))  # ||u_i||^2 + ||u_i'||^2
        self._rim_pairs = self._rim[..., :, None, :]
        # pull-back: adjoint blocks carrying the factor 2M, which is a power
        # of two, so folding it in is exact; then its buffers and their views
        w_blocks_h = (2.0 * m) * np.conj(w_blocks.swapaxes(-1, -2))
        self._w_blocks_h = np.ascontiguousarray(w_blocks_h)
        self._deg = np.empty((*lead, n_rf, 1))
        self._g = np.empty((*lead, n_rf, 2 * n_r))
        self._g_col = self._g.view(complex)[..., None]
        self._wu = np.empty_like(self._g)
        self._back = np.empty((*lead, n_rf * n_k), dtype=complex)
        self._back_col = self._back.reshape(*lead, n_rf, n_k, 1)
        self._weight_rows = (*lead, n_rf, m * n_rf)

    def __reduce__(self):
        # a copy or an unpickled kernel builds its own buffers and the views over them
        return PairKernel, (self.w_blocks, self.rot, self.tau)

    def at(self, p: np.ndarray) -> PairKernel:
        """The kernel holding the pass at p, run only if p is not the point held."""
        pvec = np.asarray(p, dtype=complex)
        # equal bytes on one axis are the held (n_tx,) point; any other shape
        # goes on to the pass, which rejects it
        if pvec.ndim != 1 or pvec.tobytes() != self._key:
            self.run(pvec)
        return self

    def run(self, p: np.ndarray) -> PairKernel:
        """Forward pass at p into the kernel's buffers.

        One real product of u with the rotated stack gives the Gram
        Re<u_i, c_delta u_i'>, whose delta = 0 diagonal holds the norms
        (c_0 = 1).  The distances ||u_i||^2 + ||u_i'||^2 - 2 Re<u_i, c_delta u_i'>
        are then formed in place in the Gram's buffer.  The norms are read
        from the very entries they cancel, so (i, 0, i) comes out exactly
        zero, and cancellation below zero elsewhere is clamped, so d >= 0
        everywhere.  Each (i, delta, i') term stands for the M ordered pairs
        ((i, j), (i', j + delta)), so kappa = M sum chi.  Individual exp
        underflows saturate to zero, which only sharpens kappa toward its
        lower bound K; they are not reported, whatever the caller's
        ``np.errstate``.
        """
        pvec = np.asarray(p, dtype=complex)
        self._key = None  # the buffers hold no whole pass until this one ends
        subarray_responses(self.w_blocks, pvec, out=self._u_col)
        np.multiply(self._rot_col, self._u_row, out=self._u_rot_rows)
        dist = self.dist
        np.matmul(self._u_re, self._u_rot_re_t, out=self._gram)
        np.add(self._norms_col, self._norms_row, out=self._rim)  # before the norms are overwritten
        np.multiply(dist, -2.0, out=dist)
        np.add(dist, self._rim_pairs, out=dist)  # (i, 0, i) is now 2 n_i - 2 n_i, exactly zero
        np.maximum(dist, 0.0, out=dist)
        chi = np.multiply(dist, -self.tau, out=self.chi)
        with np.errstate(under="ignore"):
            np.exp(chi, out=chi)
        kappa = np.add.reduce(chi, axis=(-3, -2, -1), out=self.kappa)
        np.multiply(kappa, len(self.rot), out=kappa)
        self._key = pvec.tobytes()
        return self

    def pull_back(self, weights: np.ndarray) -> np.ndarray:
        """(..., n_tx) ordered-pair sums sum_{m,n} w_mn (X_m - X_n)^H W^H (r_m - r_n) at the point held.

        ``weights`` (..., n_rf, M, n_rf) give w_mn = weights[i_m, (j_n - j_m) mod M, i_n]
        and must be symmetric under (i, delta, i') <-> (i', -delta, i), as
        exp(-tau d) is.  Each (i, delta, i') term then stands for M ordered
        pairs, each counted from both ends, so block i of the sum is
        2M W_i^H (deg_i u_i - sum_{delta, i'} w[i, delta, i'] c_delta u_i'),
        deg_i the weight of row i: one real product of the weights with the
        rotated stack, then one product with the adjoint blocks, which carry
        the factor 2M.  Zero-padded receiver rows contribute nothing.  The
        result is the kernel's buffer, overwritten by the next pull-back.
        """
        w = weights.reshape(self._weight_rows)
        np.add.reduce(w, axis=-1, keepdims=True, out=self._deg)
        g = np.multiply(self._deg, self._u_re, out=self._g)
        np.subtract(g, np.matmul(w, self._u_rot_re, out=self._wu), out=g)
        np.matmul(self._w_blocks_h, self._g_col, out=self._back_col)
        return self._back


def link_kernel(w_b: np.ndarray, w_e: np.ndarray, n_rf: int, m_ary: int, tau: float) -> PairKernel:
    """The ``PairKernel`` of one link point: contiguous subarray blocks of the ``receiver_stack``.

    Its pass at p holds (kappa_B, kappa_E) on the leading receiver axis.
    """
    w_blocks = np.ascontiguousarray(subarray_channels(receiver_stack(w_b, w_e), n_rf))
    return PairKernel(w_blocks, psk_symbols(m_ary), tau)


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

    ``r_approx`` is ``rate_from_kappas`` of one pass of the ``link_kernel``
    of the effective channels at v, and may be negative when Eve holds the
    better link; no clamping is applied.
    """
    kb, ke = link_kernel(*effective_channels(wch, v), cfg.n_rf, cfg.m_ary, cfg.tau).run(p).kappa.tolist()
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
    check_integer("n_noise_samples", n_noise_samples)
    check_seed(seed)
    if n_noise_samples < 100:
        raise ValueError("n_noise_samples must be >= 100")
    signals = np.stack([h.x_vec for h in enumerate_hypotheses(cfg)]) * np.asarray(p)[None, :]  # rows X_m p
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
