"""Seeded small instances at controllable SNR regimes, shared by the test modules.

They live here rather than in ``conftest.py`` so that test modules import them
by a name no other test directory's conftest takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from irs_ssm.harness import desk_config, draw_channels
from irs_ssm.model import (
    ChannelSet,
    HybridPrecoder,
    SystemConfig,
    WhitenedChannels,
    db_to_linear,
    link_state,
)


@dataclass
class Instance:
    cfg: SystemConfig
    ch: ChannelSet
    v: np.ndarray
    p: HybridPrecoder
    wch: WhitenedChannels
    omega_b: np.ndarray
    omega_e: np.ndarray


def make_instance(
    seed: int,
    n_rf: int = 2,
    n_k: int = 2,
    n_irs: int = 6,
    m_ary: int = 2,
    n_b: int = 2,
    n_e: int = 2,
    power_dbm: float = 10.0,
    sigma_dbm: float = -55.0,
    beta: float = 0.35,
    random_v: bool = True,
) -> Instance:
    """Seeded instance; powers chosen by each test to hit the regime it needs."""
    cfg = desk_config(
        n_rf=n_rf,
        n_k=n_k,
        n_irs=n_irs,
        m_ary=m_ary,
        n_b=n_b,
        n_e=n_e,
        p_total=db_to_linear(power_dbm),
        sigma_b2=db_to_linear(sigma_dbm),
        sigma_e2=db_to_linear(sigma_dbm),
        beta=beta,
    )
    ch = draw_channels(cfg, seed)
    rng = np.random.default_rng(seed + 10_000)
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.n_irs)) if random_v else np.ones(cfg.n_irs, dtype=complex)
    _, omega_b, omega_e, wch = link_state(cfg, ch, v)
    return Instance(
        cfg=cfg,
        ch=ch,
        v=v,
        p=HybridPrecoder.default_init(cfg),
        wch=wch,
        omega_b=omega_b,
        omega_e=omega_e,
    )
