"""Walk through one fading realization of the secure spatial-modulation link.

Draws geometry-based channels, builds the link map (the artificial-noise
shaping T and the interference-plus-noise whitening), then compares the
cut-off-rate secrecy objective against the Monte Carlo mutual-information
oracle.
"""

import numpy as np

from irs_ssm import (
    HybridPrecoder,
    approx_secrecy_rate,
    desk_config,
    draw_channels,
    enumerate_hypotheses,
    link_state,
    mc_mutual_information,
    ml_detect,
)
from irs_ssm.model import db_to_linear, effective_channels

cfg = desk_config(p_total=db_to_linear(12.0))
print(f"system: {cfg.n_rf} subarrays x {cfg.n_k} antennas, {cfg.n_irs} IRS elements, "
      f"{cfg.m_ary}-PSK, beta={cfg.beta}")

ch = draw_channels(cfg, seed=1)
print(f"channel scales: |H| ~ {np.abs(ch.h).mean():.2e}, |F| ~ {np.abs(ch.f).mean():.2e}, "
      f"|G| ~ {np.abs(ch.g).mean():.2e}")

v = np.ones(cfg.n_irs, dtype=complex)  # neutral reflection state
p = HybridPrecoder.default_init(cfg)

t_an, omega_b, omega_e, wch = link_state(cfg, ch, v)
rank_t = np.linalg.matrix_rank(t_an)
shaping = "identity" if np.array_equal(t_an, np.eye(cfg.n_rf)) else f"rank-{rank_t} null-space projector"
print(f"AN shaping T: {shaping} on {cfg.n_rf} RF chains, ||T||_F^2 = "
      f"{np.linalg.norm(t_an) ** 2:.3f}")
leak_b = np.linalg.norm(omega_b - cfg.sigma_b2 * np.eye(cfg.n_b))
leak_e = np.linalg.norm(omega_e - cfg.sigma_e2 * np.eye(cfg.n_e))
print(f"AN power ||Omega - sigma^2 I|| at Bob {leak_b:.2e} (nulled), at Eve {leak_e:.2e}")
print(f"noise-whitened Bob channel gain: {np.linalg.norm(wch.h):.3f} "
      f"(raw {np.linalg.norm(ch.h):.2e} over sqrt(noise))")

rep = approx_secrecy_rate(cfg, wch, v, p)
print(f"\ncut-off rates: Bob {rep.i0_bob:.3f} bits, Eve {rep.i0_eve:.3f} bits, "
      f"approximate secrecy rate {rep.r_approx:.3f} bits")

mib, mie, (seb, see) = mc_mutual_information(cfg, wch, v, p, n_noise_samples=2000, seed=7)
print(f"Monte Carlo MI:  Bob {mib:.3f} (+-{seb:.3f}), Eve {mie:.3f} (+-{see:.3f})")
print("the cut-off rate sits below the MC mutual information on both links:",
      rep.i0_bob <= mib + 3 * seb and rep.i0_eve <= mie + 3 * see)

# round-trip sanity: transmit hypothesis (2, 3) noiselessly and detect it
hyp = [h for h in enumerate_hypotheses(cfg) if (h.subarray, h.symbol_index) == (2, 3)][0]
eff_b, _ = effective_channels(ch, v)
y = np.sqrt(cfg.beta * cfg.p_total) * (eff_b @ (hyp.x_vec * p.p))
print("ML detection of a clean (2, 3) transmission:", ml_detect(cfg, ch, v, p, y))
