"""Compare the three IRS phase-shift optimizers on one channel draw.

All three maximize the same quadratic surrogate of the secrecy objective over
unit-modulus reflection coefficients; the semidefinite relaxation also yields
an upper bound certifying how close they all land.  Each rate printed is the
one a campaign reports for that v, with the artificial noise and the
whitening refreshed at v; the surrogate holds the whitening where it was
built, so a surrogate gain can come with a lower reported rate.
"""

import numpy as np

from irs_ssm import (
    HybridPrecoder,
    approx_secrecy_rate,
    build_quadratic_forms,
    desk_config,
    draw_channels,
    irs_admm,
    irs_bca,
    irs_sdr,
    link_state,
)
from irs_ssm.harness import CAMPAIGN_ADMM
from irs_ssm.irs_opt import IrsPhaseVector
from irs_ssm.model import db_to_linear

cfg = desk_config(p_total=db_to_linear(20.0))
ch = draw_channels(cfg, seed=11)
p0 = HybridPrecoder.default_init(cfg)
v0 = np.ones(cfg.n_irs, dtype=complex)


def reported_rate(v: np.ndarray) -> float:
    """The rate a campaign reports for v: the link (AN and whitening) refreshed at v."""
    return approx_secrecy_rate(cfg, link_state(cfg, ch, v)[3], v, p0).r_approx


wch = link_state(cfg, ch, v0)[3]
qf = build_quadratic_forms(cfg, wch, p0)
print("rates are the reported ones: the link is refreshed at each v")
print(f"neutral state:  surrogate {qf.surrogate_value(v0):10.4f}  rate {reported_rate(v0):.4f} bits")

rng = np.random.default_rng(0)
v_rand = IrsPhaseVector.random(cfg.n_irs, rng).v
print(f"random phases:  surrogate {qf.surrogate_value(v_rand):10.4f}  rate {reported_rate(v_rand):.4f}")

bca = irs_bca(qf, v0=v0)
print(f"IRS-BCA:        surrogate {bca.surrogate_value:10.4f}  "
      f"rate {reported_rate(bca.v.v):.4f}  ({bca.iterations} sweeps)")

admm = irs_admm(qf, v0=v0, **CAMPAIGN_ADMM)
print(f"IRS-ADMM:       surrogate {admm.surrogate_value:10.4f}  "
      f"rate {reported_rate(admm.v.v):.4f}  ({admm.iterations} outer iterations, "
      f"primal residual {admm.extras['primal_residual']:.1e})")

sdr = irs_sdr(qf, seed=1)
print(f"IRS-SDR:        surrogate {sdr.surrogate_value:10.4f}  "
      f"rate {reported_rate(sdr.v.v):.4f}  (SDP bound {sdr.extras['sdp_bound']:.4f}, "
      f"certified={sdr.extras['sdp_certified']})")

gap = sdr.extras["sdp_bound"] - max(bca.surrogate_value, admm.surrogate_value, sdr.surrogate_value)
print(f"\nrelaxation gap above the best solver: {gap:.2e} "
      f"(how much surrogate headroom any phase profile could still claim)")
