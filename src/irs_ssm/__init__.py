"""Secrecy-rate optimization for IRS-aided hybrid secure spatial modulation.

The top level exports exactly the names the demos import; every other name
is imported from its own module.
"""

from .model import HybridPrecoder, enumerate_hypotheses, link_state, ml_detect
from .rates import approx_secrecy_rate, mc_mutual_information
from .irs_opt import build_quadratic_forms, irs_admm, irs_bca, irs_sdr
from .precoder_opt import asr_sca, build_precoder_quadratics, cor_ga, factorize_hybrid
from .joint import joint_optimize
from .harness import ExperimentSpec, desk_config, draw_channels, flop_estimates, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ExperimentSpec",
    "HybridPrecoder",
    "approx_secrecy_rate",
    "asr_sca",
    "build_precoder_quadratics",
    "build_quadratic_forms",
    "cor_ga",
    "desk_config",
    "draw_channels",
    "enumerate_hypotheses",
    "factorize_hybrid",
    "flop_estimates",
    "irs_admm",
    "irs_bca",
    "irs_sdr",
    "joint_optimize",
    "link_state",
    "mc_mutual_information",
    "ml_detect",
    "run_experiment",
]
