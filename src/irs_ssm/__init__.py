"""Secrecy-rate optimization for IRS-aided hybrid secure spatial modulation."""

from .model import (
    ChannelSet,
    Geometry,
    HybridPrecoder,
    SystemConfig,
    WhitenedChannels,
    db_to_linear,
    enumerate_hypotheses,
    link_state,
    ml_detect,
    whiten,
)
from .rates import RateReport, approx_secrecy_rate, kappa, mc_mutual_information
from .irs_opt import (
    BeamformerResult,
    IrsPhaseVector,
    QuadraticForms,
    build_quadratic_forms,
    irs_admm,
    irs_bca,
    irs_sdr,
    sdp_unit_diag,
)
from .precoder_opt import (
    PrecoderQuadratics,
    PrecoderResult,
    asr_sca,
    build_precoder_quadratics,
    cor_ga,
    factorize_hybrid,
)
from .joint import JointResult, joint_optimize
from .harness import (
    ExperimentRecord,
    ExperimentSpec,
    desk_config,
    draw_channels,
    flop_estimates,
    full_scale_config,
    load_config,
    path_loss_db,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BeamformerResult",
    "ChannelSet",
    "ExperimentRecord",
    "ExperimentSpec",
    "Geometry",
    "HybridPrecoder",
    "IrsPhaseVector",
    "JointResult",
    "PrecoderQuadratics",
    "PrecoderResult",
    "QuadraticForms",
    "RateReport",
    "SystemConfig",
    "WhitenedChannels",
    "approx_secrecy_rate",
    "asr_sca",
    "build_precoder_quadratics",
    "build_quadratic_forms",
    "cor_ga",
    "db_to_linear",
    "desk_config",
    "draw_channels",
    "enumerate_hypotheses",
    "factorize_hybrid",
    "flop_estimates",
    "full_scale_config",
    "irs_admm",
    "irs_bca",
    "irs_sdr",
    "joint_optimize",
    "kappa",
    "link_state",
    "load_config",
    "mc_mutual_information",
    "ml_detect",
    "path_loss_db",
    "run_experiment",
    "sdp_unit_diag",
    "whiten",
]
