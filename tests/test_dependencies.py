"""The package runs on numpy alone: no code path it takes loads scipy."""

import os
import subprocess
import sys
from pathlib import Path

# Runs every method on one desk draw, the Monte Carlo MI oracle and the
# self-validation, then prints the scipy modules loaded.
_RUN_ALL = """
import sys
import numpy as np
import irs_ssm
from irs_ssm import cli, harness, rates
from irs_ssm.model import HybridPrecoder, link_state

cfg = harness.desk_config(n_irs=6)
ch = harness.draw_channels(cfg, 0)
for method in harness.ALL_METHODS:
    harness.run_method(method, cfg, ch, 0)
v = np.ones(cfg.n_irs, dtype=complex)
rates.mc_mutual_information(cfg, link_state(cfg, ch, v)[3], v, HybridPrecoder.default_init(cfg), 200, 0)
assert cli.main(["validate"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_code_path_loads_scipy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"
