"""Run the alternating joint optimization for all three named combinations.

Combination I pairs block coordinate ascent with the SCA precoder, II pairs
the semidefinite relaxation with gradient ascent, III pairs ADMM with
gradient ascent.  The guard reverts any reflection update that would lower
the true objective once the noise whitening is refreshed.
"""

import numpy as np

from irs_ssm import desk_config, draw_channels, joint_optimize
from irs_ssm.model import db_to_linear

cfg = desk_config(p_total=db_to_linear(20.0))
ch = draw_channels(cfg, seed=21)

for combo in ("I", "II", "III"):
    res = joint_optimize(cfg, ch, combo, seed=0)
    objs = [f"{t.objective:.4f}" for t in res.trace]
    accepted = sum(t.irs_accepted for t in res.trace)
    print(f"combination {combo:>3s} ({res.extras['irs_method']}+{res.extras['precoder_method']}): "
          f"{' -> '.join(objs)} bits, converged={res.converged} "
          f"in {len(res.trace)} outer iterations ({accepted} reflection updates kept)")

res = joint_optimize(cfg, ch, "I", seed=0)
restart = joint_optimize(cfg, ch, "I", v0=res.v_star, p0=res.p_star, seed=0)
print(f"\nrestarting combination I from its own fixed point: "
      f"{len(restart.trace)} outer iteration, objective {restart.objective:.4f} "
      f"(was {res.objective:.4f})")
print("reflection magnitudes stay on the unit circle:",
      bool(np.max(np.abs(np.abs(res.v_star.v) - 1.0)) < 1e-9))
