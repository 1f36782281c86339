"""The package runs on numpy alone, and its public API is what the demos import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

# Runs every method on one desk draw, the Monte Carlo MI oracle and the
# CLI's flops command, then prints the scipy modules loaded.
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
assert cli.main(["flops"]) == 0
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


def test_public_surface_is_what_the_demos_import():
    import irs_ssm

    exported = irs_ssm.__all__
    for name in exported:
        assert getattr(irs_ssm, name, None) is not None, name
    assert len(set(exported)) == len(exported)
    assert list(exported) == sorted(exported)
    demo_imports, from_submodules = set(), set()
    for demo in sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "irs_ssm":
                demo_imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("irs_ssm."):
                from_submodules.update(f"{node.module}.{alias.name}" for alias in node.names
                                       if alias.name in exported)
    assert set(exported) == demo_imports, sorted(set(exported) ^ demo_imports)
    # an exported name is imported from the top level, so the export is what the demos read
    assert not from_submodules, sorted(from_submodules)
