"""System model for an IRS-aided hybrid secure spatial-modulation link.

The transmitter (Alice) drives ``n_rf`` RF chains, each feeding a subarray of
``n_k`` antennas through a constant-modulus analog precoder.  Spatial bits
select the active subarray, an M-ary symbol rides on it, and artificial noise
(AN) fills the remaining power budget.  Bob and Eve receive a superposition of
the direct path and the path reflected by an IRS with ``n_irs`` unit-modulus
elements.  This module holds the configuration and channel containers, the
transmit hypotheses, AN projection, interference-plus-noise whitening, and
ML detection.  The hypotheses are a function of the config alone: the M-PSK
set of ``m_ary`` on each of the ``n_rf`` subarrays, as the labelled list
``enumerate_hypotheses(cfg)``, whose stacked ``x_vec`` rows ML detection and
the Monte Carlo oracle read; the rates and optimizers need only (n_rf, m_ary).
``link_state`` is the one map from a reflection vector v to the whitened
link; the whitened channels are a
``ChannelSet``, so ``effective_channels`` gives H + GVF and Q + MVF for raw
and whitened sets alike.  Everything downstream (cut-off rates, the IRS and
precoder optimizers, the experiment harness) is built on these pieces.

All powers are linear milliwatts; dB/dBm conversions happen at config load.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

LOG2E = math.log2(math.e)
LN2 = math.log(2.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def check_integer(name: str, *values) -> None:
    """Raise a ValueError naming ``name`` unless every value is an integer (Python or numpy), not a bool."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, *values) -> None:
    """Raise a ValueError naming ``name`` unless every value is a finite real number (Python or numpy), not a bool."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class Geometry:
    """3-D coordinates (meters) of the four terminals."""

    alice: tuple[float, float, float] = (10.0, 0.0, 2.0)
    irs: tuple[float, float, float] = (0.0, 45.0, 2.0)
    bob: tuple[float, float, float] = (10.0, 45.0, 0.0)
    eve: tuple[float, float, float] = (10.0, 35.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("alice", "irs", "bob", "eve"):
            xyz = getattr(self, name)
            if len(xyz) != 3 or not all(map(math.isfinite, xyz)):
                raise ValueError(f"geometry {name} must be 3 finite coordinates, got {xyz!r}")

    def distance(self, a: str, b: str) -> float:
        pa = np.asarray(getattr(self, a), dtype=float)
        pb = np.asarray(getattr(self, b), dtype=float)
        return float(np.linalg.norm(pa - pb))


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters.

    ``p_total``, ``sigma_b2`` and ``sigma_e2`` are linear milliwatts.  ``beta``
    splits transmit power between the confidential message (``beta * p_total``)
    and AN (``(1 - beta) * p_total``).
    """

    n_rf: int = 4
    n_k: int = 2
    n_b: int = 2
    n_e: int = 2
    n_irs: int = 16
    m_ary: int = 4
    p_total: float = 1000.0
    beta: float = 0.35
    sigma_b2: float = db_to_linear(-55.0)
    sigma_e2: float = db_to_linear(-55.0)
    geometry: Geometry = field(default_factory=Geometry)
    alpha_ai: float = 2.2
    alpha_ab: float = 2.7
    alpha_ib: float = 2.5
    pl0_db: float = -30.0

    def __post_init__(self) -> None:
        for name in ("n_rf", "n_k", "n_b", "n_e", "n_irs", "m_ary"):
            check_integer(name, getattr(self, name))
        for name in ("p_total", "beta", "sigma_b2", "sigma_e2", "alpha_ai", "alpha_ab", "alpha_ib", "pl0_db"):
            check_real(name, getattr(self, name))
        if self.n_rf < 1 or self.n_k < 1 or self.n_irs < 1:
            raise ValueError("n_rf, n_k and n_irs must all be >= 1")
        if self.n_b < 1 or self.n_e < 1:
            raise ValueError("receive antenna counts must be >= 1")
        m = self.m_ary
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError(f"m_ary must be a power of two >= 2, got {m}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        for name in ("p_total", "sigma_b2", "sigma_e2"):
            x = getattr(self, name)
            if not x > 0.0:
                raise ValueError(f"{name} must be positive, got {x}")

    @property
    def n_tx(self) -> int:
        return self.n_rf * self.n_k

    @property
    def n_hyp(self) -> int:
        return self.n_rf * self.m_ary

    @property
    def tau(self) -> float:
        """Exponent scale beta * p_total / 4 of the pairwise cut-off terms."""
        return self.beta * self.p_total / 4.0


@dataclass(frozen=True)
class ChannelSet:
    """The five complex channel matrices of one fading realization.

    h: Alice->Bob (n_b x n_tx), q: Alice->Eve (n_e x n_tx),
    f: Alice->IRS (n_irs x n_tx), g: IRS->Bob (n_b x n_irs),
    m: IRS->Eve (n_e x n_irs).
    """

    h: np.ndarray
    q: np.ndarray
    f: np.ndarray
    g: np.ndarray
    m: np.ndarray

    def validate(self, cfg: SystemConfig) -> None:
        shapes = {
            "h": (cfg.n_b, cfg.n_tx),
            "q": (cfg.n_e, cfg.n_tx),
            "f": (cfg.n_irs, cfg.n_tx),
            "g": (cfg.n_b, cfg.n_irs),
            "m": (cfg.n_e, cfg.n_irs),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"channel {name} has shape {got}, expected {want}")
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"channel {name} contains non-finite entries")


@dataclass(frozen=True)
class Constellation:
    """M-ary constellation with unit average symbol energy."""

    symbols: np.ndarray

    def __post_init__(self) -> None:
        energy = float(np.mean(np.abs(self.symbols) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"mean symbol energy {energy} != 1")

    @classmethod
    def psk(cls, m: int) -> "Constellation":
        """Unit-energy M-PSK (Gray labeling is implicit in the index order)."""
        k = np.arange(m)
        return cls(np.exp(2j * np.pi * k / m))


@dataclass(frozen=True)
class TransmitHypothesis:
    """One of the n_rf * m_ary transmit possibilities (subarray i, symbol j).

    ``x_vec`` is the diagonal of the selection operator scaled by the symbol:
    b_j on the entries of block i, zero elsewhere.  Applying the hypothesis to
    a stacked precoder is the elementwise product ``x_vec * p``.
    """

    subarray: int  # 1-based
    symbol_index: int  # 1-based
    symbol: complex
    x_vec: np.ndarray


def enumerate_hypotheses(cfg: SystemConfig) -> list[TransmitHypothesis]:
    """All n_rf * m_ary labelled M-PSK transmit hypotheses, ordered by (subarray, symbol)."""
    symbols = Constellation.psk(cfg.m_ary).symbols
    hyps = []
    for i in range(1, cfg.n_rf + 1):
        lo = (i - 1) * cfg.n_k
        for j in range(1, cfg.m_ary + 1):
            b = complex(symbols[j - 1])
            x = np.zeros(cfg.n_tx, dtype=complex)
            x[lo : lo + cfg.n_k] = b
            hyps.append(TransmitHypothesis(i, j, b, x))
    return hyps


@dataclass(frozen=True)
class HybridPrecoder:
    """Stacked precoding vector under the power budget.

    ``p`` has length n_rf * n_k and is partitioned into n_rf blocks; block i is
    the analog vector of subarray i scaled by its digital gain.  The power
    constraint is ||p|| <= n_rf.  ``precoder_opt.factorize_hybrid`` recovers
    the per-block analog phases and digital gains and decides which blocks
    are constant-modulus.
    """

    p: np.ndarray
    n_rf: int

    def __post_init__(self) -> None:
        if self.n_rf < 1:
            raise ValueError(f"n_rf must be >= 1, got {self.n_rf}")
        if np.ndim(self.p) != 1:
            raise ValueError(f"precoder p must be 1-D, got shape {np.shape(self.p)}")
        if len(self.p) % self.n_rf != 0:
            raise ValueError("precoder length must be a multiple of n_rf")
        if not np.all(np.isfinite(self.p)):
            raise ValueError("precoder p contains non-finite entries")
        norm = float(np.linalg.norm(self.p))
        if not norm <= self.n_rf + 1e-9:
            raise ValueError(f"||p|| = {norm} exceeds the power budget {self.n_rf}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The stacked vector p, so ``np.asarray`` reads a precoder as its vector (NumPy 1 or 2)."""
        return np.array(self.p, dtype=dtype) if copy else np.asarray(self.p, dtype=dtype)

    @classmethod
    def default_init(cls, cfg: SystemConfig) -> "HybridPrecoder":
        """Equal-power constant-modulus blocks at the full power budget."""
        raw = np.full(cfg.n_tx, 1.0 / np.sqrt(cfg.n_k), dtype=complex)
        p = raw * (cfg.n_rf / np.linalg.norm(raw))
        return cls(p=p, n_rf=cfg.n_rf)


def default_analog_blocks(cfg: SystemConfig) -> np.ndarray:
    """Zero-phase analog vectors, one row per subarray."""
    return np.full((cfg.n_rf, cfg.n_k), 1.0 / np.sqrt(cfg.n_k), dtype=complex)


def assemble_analog_matrix(fa_blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal analog precoding matrix, shape (n_rf*n_k, n_rf)."""
    n_rf, n_k = fa_blocks.shape
    fa = np.zeros((n_rf * n_k, n_rf), dtype=complex)
    for i in range(n_rf):
        fa[i * n_k : (i + 1) * n_k, i] = fa_blocks[i]
    return fa


@dataclass(frozen=True)
class AnProjection:
    """AN shaping matrix plus its cached covariance contributions.

    ``t_an`` is n_rf x n_rf with ||t_an||_F^2 = n_rf so the total AN power is
    the same for the null-space projector and the identity fallback.
    ``effective_an_cov_b/e`` cache (ch F_A T) (ch F_A T)^H for the Bob and
    Eve effective channels.
    """

    t_an: np.ndarray
    effective_an_cov_b: np.ndarray
    effective_an_cov_e: np.ndarray
    strategy_used: str
    degenerate: bool = False

    def __post_init__(self) -> None:
        fro2 = float(np.linalg.norm(self.t_an, "fro") ** 2)
        n_rf = self.t_an.shape[0]
        if abs(fro2 - n_rf) > 1e-9 * max(1.0, n_rf):
            raise ValueError(f"||t_an||_F^2 = {fro2}, expected {n_rf}")


def effective_channels(ch: ChannelSet, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H + G V F, Q + M V F) for the reflection vector v; whitened sets give H~ + G~ V F."""
    vf = v[:, None] * ch.f
    return ch.h + ch.g @ vf, ch.q + ch.m @ vf


def build_an_projection(cfg: SystemConfig, ch: ChannelSet, v: np.ndarray) -> AnProjection:
    """Construct the AN shaping matrix for the current reflection state.

    AN rides on the zero-phase analog subarrays F_A.  When n_rf > n_b, T is
    the projector onto the null space of the effective Bob channel times the
    analog precoder, (H + GVF) F_A, scaled to ||T||_F^2 = n_rf.  Otherwise
    T = I: every unitary T gives (X T)(X T)^H = X X^H, so no other choice
    changes the covariances.  A rank-zero effective channel also falls back
    to the identity and sets the ``degenerate`` flag.
    """
    fa = assemble_analog_matrix(default_analog_blocks(cfg))
    eff_b, eff_e = effective_channels(ch, v)
    xb = eff_b @ fa  # n_b x n_rf
    n_rf = cfg.n_rf
    t_an = np.eye(n_rf, dtype=complex)
    used, degenerate = "identity", False
    if n_rf > cfg.n_b:
        _, s, vh = np.linalg.svd(xb)
        rank = int(np.sum(s > 1e-12 * max(s[0], 1e-300)))
        if rank == 0:
            degenerate = True
        else:
            null_basis = vh[rank:].conj().T  # n_rf x (n_rf - rank)
            proj = null_basis @ null_basis.conj().T
            t_an = proj * np.sqrt(n_rf / (n_rf - rank))
            used = "null_space"

    yb = xb @ t_an
    ye = (eff_e @ fa) @ t_an
    cov_b = yb @ yb.conj().T
    cov_e = ye @ ye.conj().T
    return AnProjection(
        t_an=t_an,
        effective_an_cov_b=0.5 * (cov_b + cov_b.conj().T),
        effective_an_cov_e=0.5 * (cov_e + cov_e.conj().T),
        strategy_used=used,
        degenerate=degenerate,
    )


def interference_covariances(cfg: SystemConfig, an: AnProjection) -> tuple[np.ndarray, np.ndarray]:
    """Interference-plus-noise covariances at Bob and Eve.

    Omega = (1 - beta) p_total C + sigma^2 I with C the cached AN covariance
    contribution of the projection.  C is exactly Hermitian, so Omega is too;
    ``whiten`` rejects an Omega that is not positive definite.
    """
    an_power = (1.0 - cfg.beta) * cfg.p_total
    omega_b = an_power * an.effective_an_cov_b + cfg.sigma_b2 * np.eye(cfg.n_b)
    omega_e = an_power * an.effective_an_cov_e + cfg.sigma_e2 * np.eye(cfg.n_e)
    return omega_b, omega_e


@dataclass(frozen=True)
class WhitenedChannels(ChannelSet):
    """Channels premultiplied by the inverse square root of their covariance.

    h and g carry Omega_B^{-1/2}, q and m carry Omega_E^{-1/2}, and ``f`` is
    the raw Alice->IRS channel, so ``effective_channels`` gives the whitened
    effective channels H~ + G~ V F and Q~ + M~ V F.
    """


# smallest-to-largest eigenvalue ratio below which a whitener is rejected
WHITEN_COND_TOL = 1e-12


def inv_sqrt_hermitian(omega: np.ndarray) -> np.ndarray:
    """Omega^{-1/2} via Hermitian eigendecomposition.

    Raises, naming the cause, when Omega is non-finite, not positive
    definite, or ill-conditioned (smallest eigenvalue below WHITEN_COND_TOL
    times the largest).
    """
    if not np.all(np.isfinite(omega)):
        raise ValueError("whitener input is non-finite")
    lam, u = np.linalg.eigh(omega)
    if not lam[0] > 0.0:
        raise ValueError(f"whitener input is not positive definite (smallest eigenvalue {lam[0]:.3e})")
    if lam[0] < WHITEN_COND_TOL * lam[-1]:
        raise ValueError(
            f"whitener is ill-conditioned (eigenvalue {lam[0]:.3e} below "
            f"{WHITEN_COND_TOL:.0e} * {lam[-1]:.3e})"
        )
    return (u * (1.0 / np.sqrt(lam))) @ u.conj().T


def whiten(ch: ChannelSet, omega_b: np.ndarray, omega_e: np.ndarray) -> WhitenedChannels:
    """Premultiply the Bob channels by Omega_B^{-1/2} and the Eve channels by Omega_E^{-1/2}."""
    wb = inv_sqrt_hermitian(omega_b)
    we = inv_sqrt_hermitian(omega_e)
    return WhitenedChannels(h=wb @ ch.h, q=we @ ch.q, f=ch.f, g=wb @ ch.g, m=we @ ch.m)


def ml_detect(
    cfg: SystemConfig,
    ch: ChannelSet,
    v: np.ndarray,
    p: HybridPrecoder | np.ndarray,
    y: np.ndarray,
) -> tuple[int, int]:
    """Maximum-likelihood detection of (subarray, symbol) from a Bob observation.

    Both labels are 1-based.  Ties resolve to the smallest (i, j) in
    lexicographic order.  y must be a finite (n_b,) vector.
    """
    y = np.asarray(y)
    if y.shape != (cfg.n_b,):
        raise ValueError(f"observation y has shape {y.shape}, expected (n_b,) = ({cfg.n_b},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("observation y contains non-finite entries")
    pvec = np.asarray(p)
    eff_b, _ = effective_channels(ch, v)
    xp = np.stack([h.x_vec for h in enumerate_hypotheses(cfg)]) * pvec[None, :]
    signals = np.sqrt(cfg.beta * cfg.p_total) * (xp @ eff_b.T)  # (n_hyp, n_b)
    dists = np.sum(np.abs(y[None, :] - signals) ** 2, axis=1)
    k = int(np.argmin(dists))  # first minimum = smallest (i, j)
    return k // cfg.m_ary + 1, k % cfg.m_ary + 1


def link_state(
    cfg: SystemConfig, ch: ChannelSet, v: np.ndarray
) -> tuple[AnProjection, np.ndarray, np.ndarray, WhitenedChannels]:
    """AN projection, covariances and whitened channels for one reflection state.

    A pure function of (cfg, ch, v): the one map from v to the whitened link
    that every optimizer reads.
    """
    an = build_an_projection(cfg, ch, v)
    omega_b, omega_e = interference_covariances(cfg, an)
    return an, omega_b, omega_e, whiten(ch, omega_b, omega_e)
