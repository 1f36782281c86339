"""Optimize the hybrid precoder with SCA and gradient ascent, then factorize.

The precoder is optimized as a stacked vector under the norm budget; the
closing step recovers the per-subarray analog phases and digital gains and
reports how far each block is from the constant-modulus hybrid structure.
"""

import numpy as np

from irs_ssm import (
    HybridPrecoder,
    asr_sca,
    build_precoder_quadratics,
    build_quadratic_forms,
    cor_ga,
    desk_config,
    draw_channels,
    factorize_hybrid,
    irs_bca,
    link_state,
)
from irs_ssm.model import db_to_linear

cfg = desk_config(p_total=db_to_linear(30.0))
ch = draw_channels(cfg, seed=3)
v0 = np.ones(cfg.n_irs, dtype=complex)
p0 = HybridPrecoder.default_init(cfg)

# fix the reflection state with a quick BCA pass, then optimize the precoder
wch = link_state(cfg, ch, v0)[3]
v = irs_bca(build_quadratic_forms(cfg, wch, p0), v0=v0).v.v
wch = link_state(cfg, ch, v)[3]
pq = build_precoder_quadratics(cfg, wch, v)
print(f"secrecy rate with the default precoder: {pq.secrecy_rate(p0.p):.4f} bits")

sca = asr_sca(pq, p0)
print(f"ASR-SCA: {sca.secrecy_rate:.4f} bits after {sca.iterations} outer steps "
      f"({sca.extras['inner_iterations']} inner iterations), ||p|| = "
      f"{np.linalg.norm(sca.p.p):.3f} of budget {cfg.n_rf}")

ga = cor_ga(pq, p0)
print(f"COR-GA:  {ga.secrecy_rate:.4f} bits after {ga.iterations} gradient steps, "
      f"||p|| = {np.linalg.norm(ga.p.p):.3f}")

print("\nascent trace (first 8 accepted values):")
print("  SCA:", np.array2string(np.array(sca.trace[:8]), precision=4))
print("  GA: ", np.array2string(np.array(ga.trace[:8]), precision=4))

fac = factorize_hybrid(sca.p, cfg)  # a HybridFactorization record
print("\nhybrid factorization of the SCA solution:")
for i in range(cfg.n_rf):
    err = fac.recon_errors[i]
    tag = "infeasible" if i in fac.infeasible_blocks else "exact" if err < 1e-9 else "approx"
    print(f"  block {i}: digital gain {fac.d_gains[i]:.3f}, residual {err:.2e} ({tag})")
print(f"infeasible blocks (residual above 1e-6 of the block norm): {list(fac.infeasible_blocks)}; "
      f"skipped zero blocks: {list(fac.skipped_blocks)}")
