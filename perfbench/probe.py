"""Set-up probe: a fresh process imports irs_ssm and completes a workload's first method run.

Usage: python3 perfbench/probe.py <workload>.  ``run.py`` times it from outside.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.first_run(sys.argv[1])
