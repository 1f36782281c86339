"""Smoke test: every demo script, README's quick start and its command lines run to completion.

Each script runs in a fresh interpreter with the package source on PYTHONPATH
and a temporary working directory, since the campaign demo writes its
``demo_campaign.*`` outputs into the current directory.
"""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from irs_ssm import" in quick_start
    proc = _run(["-c", quick_start], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_command_line_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert [cmd[:2] for cmd in commands] == [["irs-ssm", "run"], ["irs-ssm", "flops"]]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")  # the run line names a config by relative path
    for cmd in commands:
        args = cmd[1:] + (["--trials", "1"] if cmd[1] == "run" else [])
        proc = _run(["-m", "irs_ssm.cli", *args], tmp_path)
        assert proc.returncode == 0, proc.stderr[-2000:]
