"""Shared fixtures: seeded small instances at controllable SNR regimes."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# hypothesis caches the constants it mines from local modules on disk; keep
# that cache inside pytest's own cache directory rather than a new .hypothesis/
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY",
    str(Path(__file__).resolve().parents[1] / ".pytest_cache" / "hypothesis"),
)

from _instances import Instance, make_instance


@pytest.fixture
def small_instance() -> Instance:
    return make_instance(0)


@pytest.fixture
def desk_instance() -> Instance:
    return make_instance(1, n_rf=4, n_k=2, n_irs=16, m_ary=4, power_dbm=20.0)
