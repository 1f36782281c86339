"""Shared fixtures: seeded small instances at controllable SNR regimes."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

# hypothesis caches the constants it mines from local modules on disk; keep
# that cache inside pytest's own cache directory rather than a new .hypothesis/
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    str(Path(__file__).resolve().parents[1] / ".pytest_cache" / "hypothesis"),
)

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


@pytest.fixture
def small_instance() -> Instance:
    return make_instance(0)


@pytest.fixture
def desk_instance() -> Instance:
    return make_instance(1, n_rf=4, n_k=2, n_irs=16, m_ary=4, power_dbm=20.0)
